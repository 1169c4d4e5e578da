"""Workload classes for the reduction ladder (one per classic variant).

Block ``c`` of every variant writes one int32 partial sum to
``g_odata[c]``; the host reference is an exact integer sum, so every
engine (serial, megawarp vector, fast/reference timing) must agree
bit-for-bit.  Inputs come from :func:`..common.reduction_input` — small
non-negative int32 values, deterministic per abbreviation.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..base import LaunchSpec, Workload, assert_equal
from ..common import reduction_block_sums, reduction_input
from . import kernels


class _ReductionWorkload(Workload):
    suite = "reduction"
    #: input elements folded per thread at staging time (1 = one load,
    #: 2 = first-add-during-load; the grid-stride variant overrides
    #: input sizing entirely via ``passes``).
    folds = 1
    #: grid-stride passes (> 1 only for the multi-element variant).
    passes = 1

    @classmethod
    def scales(cls) -> Dict[str, Dict[str, object]]:
        return {
            "tiny": {"block": 64, "grid": 2},
            "small": {"block": 128, "grid": 8},
        }

    def _build(self, block: int):
        raise NotImplementedError

    @classmethod
    def build_kernel(cls, scale: str = "small"):
        """The variant's kernel at a scale preset's block size — used by
        the harness's ablation table to attribute analyzer demotions
        without running the workload."""
        return cls(scale)._build(int(cls.scales()[scale]["block"]))

    def prepare(self, device) -> List[LaunchSpec]:
        block = self.block = int(self.params["block"])
        grid = self.grid = int(self.params["grid"])
        n = self.n = block * grid * self.folds * self.passes
        self.h_in = reduction_input(self.rng, n)
        self.d_in = device.upload(self.h_in)
        self.d_out = device.upload(np.zeros(grid, dtype=np.int32))
        self.track_output(self.d_out, grid, np.int32)
        kernel = self._build(block)
        args = (self.d_in, self.d_out)
        if self.passes > 1:
            args = args + (n,)
        return [LaunchSpec(kernel, grid=(grid,), block=(block,),
                           args=args)]

    def _reference(self) -> np.ndarray:
        return reduction_block_sums(
            self.h_in, self.block * self.folds, self.grid
        )

    def check(self, device) -> None:
        got = device.download(self.d_out, self.grid, np.int32)
        assert_equal(got, self._reference(), context=self.abbr)


class ReduceDivergentWorkload(_ReductionWorkload):
    name = "reduction-divergent"
    abbr = "RED0"

    def _build(self, block):
        return kernels.reduce0_kernel(block)


class ReduceInterleavedWorkload(_ReductionWorkload):
    name = "reduction-interleaved"
    abbr = "RED1"

    def _build(self, block):
        return kernels.reduce1_kernel(block)


class ReduceSequentialWorkload(_ReductionWorkload):
    name = "reduction-sequential"
    abbr = "RED2"

    def _build(self, block):
        return kernels.reduce2_kernel(block)


class ReduceFirstAddWorkload(_ReductionWorkload):
    name = "reduction-firstadd"
    abbr = "RED3"
    folds = 2

    def _build(self, block):
        return kernels.reduce3_kernel(block)


class ReduceWarpUnrollWorkload(_ReductionWorkload):
    name = "reduction-warpunroll"
    abbr = "RED4"
    folds = 2

    def _build(self, block):
        return kernels.reduce4_kernel(block)


class ReduceFullUnrollWorkload(_ReductionWorkload):
    name = "reduction-fullunroll"
    abbr = "RED5"
    folds = 2

    def _build(self, block):
        return kernels.reduce5_kernel(block)


class ReduceMultiElemWorkload(_ReductionWorkload):
    name = "reduction-multielem"
    abbr = "RED6"
    folds = 2
    passes = 3

    def _build(self, block):
        return kernels.reduce6_kernel(block)

    def _reference(self) -> np.ndarray:
        # grid-stride: block c folds double-chunks c, c+grid, c+2*grid…
        chunks = self.h_in.reshape(-1, 2 * self.block).sum(
            axis=1, dtype=np.int64
        )
        out = np.zeros(self.grid, dtype=np.int64)
        for c in range(self.grid):
            out[c] = chunks[c::self.grid].sum()
        return out.astype(np.int32)
