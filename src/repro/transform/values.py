"""Launch-time resolution of %lr/%cr operands.

The functional executor never *runs* the decoupled linear instructions —
their results are exactly the coefficient-vector decomposition, so
:class:`R2D2Values` evaluates thread-index parts, block-index parts, and
coefficients directly from the plan (this is the semantics the hardware
computes; the timing model charges for the instructions separately).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..isa.kernel import LaunchConfig
from ..isa.opcodes import DType, Opcode
from ..linear.coeffvec import wrap_i64, wrap_to_dtype
from ..linear.symbols import launch_env
from ..linear.tables import DecouplePlan
from ..sim.executor import WarpContext


def _apply_scalar_op(
    opcode: Opcode, args, dtype: DType = DType.S64
) -> int:
    """Integer semantics matching the functional executor exactly:
    operands and results live in 64-bit two's complement lanes, division
    truncates, and ``cvt`` narrows to ``dtype`` the way ``_convert``
    does.  Inputs wrap (not raise) when a symbolic evaluation overflows
    int64 — the executor's lanes would have wrapped at every step."""
    a = [wrap_i64(int(x)) for x in args]
    if opcode is Opcode.MOV:
        return a[0]
    if opcode is Opcode.CVT:
        return wrap_to_dtype(a[0], dtype)
    if opcode is Opcode.ADD:
        return wrap_i64(a[0] + a[1])
    if opcode is Opcode.SUB:
        return wrap_i64(a[0] - a[1])
    if opcode is Opcode.MUL:
        return wrap_i64(a[0] * a[1])
    if opcode is Opcode.MAD:
        return wrap_i64(a[0] * a[1] + a[2])
    if opcode is Opcode.SHL:
        return wrap_i64(a[0] << max(0, min(a[1], 63)))
    if opcode is Opcode.SHR:
        return a[0] >> max(0, min(a[1], 63))
    if opcode is Opcode.DIV:
        if a[1] == 0:
            return 0
        q = abs(a[0]) // abs(a[1])
        return wrap_i64(q * (1 if (a[0] >= 0) == (a[1] >= 0) else -1))
    if opcode is Opcode.REM:
        return wrap_i64(
            a[0] - _apply_scalar_op(Opcode.DIV, a) * a[1]
        )
    if opcode is Opcode.MIN:
        return min(a[0], a[1])
    if opcode is Opcode.MAX:
        return max(a[0], a[1])
    if opcode is Opcode.AND:
        return a[0] & a[1]
    if opcode is Opcode.OR:
        return a[0] | a[1]
    if opcode is Opcode.XOR:
        return a[0] ^ a[1]
    if opcode is Opcode.NOT:
        return ~a[0]
    if opcode is Opcode.ABS:
        return wrap_i64(abs(a[0]))
    if opcode is Opcode.NEG:
        return wrap_i64(-a[0])
    raise ValueError(f"no scalar semantics for {opcode}")


class R2D2Values:
    """A :class:`~repro.sim.executor.LinearValueProvider` for one launch."""

    def __init__(self, plan: DecouplePlan, launch: LaunchConfig) -> None:
        self.plan = plan
        self.launch = launch
        params = {
            i: int(v)
            for i, v in enumerate(launch.args)
            if isinstance(v, (int, np.integer))
        }
        self.env = launch_env(
            params, tuple(launch.block), tuple(launch.grid)
        )
        # Opaque scalars (definition order: recipes only reference
        # earlier symbols).
        for name, recipe in plan.scalar_recipes.items():
            args = [expr.evaluate(self.env) for expr in recipe.sources]
            self.env[name] = _apply_scalar_op(
                recipe.opcode, args, getattr(recipe, "dtype", DType.S64)
            )
        # Concrete coefficient values, wrapped to the executor's int64
        # register width (an unwrapped Python int above 2**63 would both
        # diverge from the SIMT lanes and crash numpy broadcasting).
        self._thread_coeffs = [
            tuple(
                0 if c.is_zero else wrap_i64(c.evaluate(self.env))
                for c in part
            )
            for part in plan.thread_parts
        ]
        self._block_coeffs = [
            tuple(
                0 if c.is_zero else wrap_i64(c.evaluate(self.env))
                for c in e.block_part
            )
            for e in plan.entries
        ]
        self._block_consts = [
            wrap_i64(e.block_const.evaluate(self.env))
            for e in plan.entries
        ]
        self._cr: Dict[int, int] = {}
        for entry in plan.scalars:
            self._cr[entry.cr_id] = wrap_i64(entry.expr.evaluate(self.env))
        for cr_id, delta in plan.delta_exprs.items():
            self._cr[cr_id] = wrap_i64(delta.evaluate(self.env))

        self._tr_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._br_cache: Dict[Tuple[int, Tuple[int, int, int]], int] = {}

    # ------------------------------------------------------------------
    def cr_value(self, cr_id: int) -> int:
        return self._cr[cr_id]

    def tr_lane_values(self, tr_id: int, warp: WarpContext) -> np.ndarray:
        key = (tr_id, warp.warp_in_block)
        cached = self._tr_cache.get(key)
        if cached is not None:
            return cached
        cx, cy, cz = self._thread_coeffs[tr_id]
        values = cx * warp.tid_x + cy * warp.tid_y + cz * warp.tid_z
        values = np.asarray(values, dtype=np.int64)
        self._tr_cache[key] = values
        return values

    def br_value(self, lr_id: int, block_xyz: Tuple[int, int, int]) -> int:
        key = (lr_id, block_xyz)
        cached = self._br_cache.get(key)
        if cached is not None:
            return cached
        cx, cy, cz = self._block_coeffs[lr_id]
        bx, by, bz = block_xyz
        value = wrap_i64(
            self._block_consts[lr_id] + cx * bx + cy * by + cz * bz
        )
        self._br_cache[key] = value
        return value

    def lr_lane_values(self, lr_id: int, warp: WarpContext) -> np.ndarray:
        entry = self.plan.entries[lr_id]
        br = self.br_value(lr_id, warp.block_xyz)
        if entry.tr_id is None:
            return np.full(32, br, dtype=np.int64)
        return self.tr_lane_values(entry.tr_id, warp) + br

    def lr_block_values(
        self,
        lr_id: int,
        warps: Sequence[WarpContext],
        blocks: Sequence[Tuple[int, int, int]],
    ) -> np.ndarray:
        """:meth:`lr_lane_values` of every warp of every block at once:
        a block-major ``(len(blocks) * len(warps), 32)`` matrix, where
        ``warps[w]`` supplies the lanes of warp-in-block ``w`` (its
        block is ignored).  Same int64 wrapping sums, row for row."""
        entry = self.plan.entries[lr_id]
        br = np.fromiter(
            (self.br_value(lr_id, xyz) for xyz in blocks),
            dtype=np.int64, count=len(blocks),
        )
        br = np.repeat(br, len(warps)).reshape(-1, 1)
        if entry.tr_id is None:
            return np.repeat(br, 32, axis=1)
        tr = np.stack([self.tr_lane_values(entry.tr_id, w) for w in warps])
        return np.tile(tr, (len(blocks), 1)) + br
