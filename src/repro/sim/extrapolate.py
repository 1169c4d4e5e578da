"""Linearity-guided block-trace extrapolation: execute one block-batch,
derive the grid.

R2D2's observation — addresses are affine in ``tid``/``ctaid``, so most
dynamic address-generation work is redundant — applies to the simulator
itself: for regular kernels block *k*'s trace is block 0's trace with the
``ctaid`` terms rebased, yet :class:`FunctionalExecutor` re-interprets
every block.  This module removes that redundancy in three parts:

1. **Eligibility pass** (:func:`check_eligibility`) re-walks the kernel
   with the linear analyzer's transfer functions — the very same
   :class:`~repro.linear.coeffvec.CoeffVec` machinery, so the pass
   inherits the analyzer soundness invariants the differential oracle
   fuzzes.  It proves that every load/store/atomic base address carries a
   coefficient vector (affine in ``tid``/``ctaid``/params) and that all
   control flow is loop-free with affine branch predicates.  Kernels
   with indirect addressing, loop-carried pointers, data-dependent
   branches, or global atomics (bfs, btree, mummer, gemm-style pointer
   advances) are rejected with a machine-readable reason and fall back
   to the per-block interpreter.

2. **Batched execution** (:class:`_BatchExecutor`).  Eligible launches
   run *once per chunk of B blocks* with registers shaped ``(B, 32)`` —
   a block axis on top of the usual 32 lanes; ``ctaid`` reads produce
   ``(B, 1)`` columns and numpy broadcasting turns the inherited scalar
   compute paths into all-blocks-at-once evaluation.  The reconvergence
   stack carries ``(B, 32)`` masks, so per-block divergence (boundary
   guards, affine branch splits) is handled by exactly the same push/pop
   discipline as per-lane divergence: a block whose rows are inactive
   along some path writes nothing and records nothing there, which is
   precisely what the serial interpreter would have done.  Per-block
   :class:`TraceRecord` streams are then *synthesized* from the batched
   event columns, with ``coalesce``/``bank_conflict_degree`` memoized by
   the 128-byte-phase-preserving relative address pattern ``(segment,
   Δ)`` so each distinct conflict shape is computed once per grid.

3. **Soundness net.**  The batch runs against a forked copy of global
   memory and commits only after a cross-block hazard check proves no
   byte stored by block *j* was touched by block *k ≠ j* (serial
   execution orders blocks; the batch interleaves them).  Any hazard,
   out-of-bounds access, or runtime surprise bails out, discards the
   fork, and re-runs the launch serially — identical observable
   behaviour by construction.  ``R2D2_EXTRAPOLATE=verify`` runs *both*
   paths and raises :class:`ExtrapolationMismatch` unless memory
   contents and every trace record agree exactly; the differential
   oracle fuzzes this mode.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..isa.cfg import ControlFlowGraph
from ..isa.kernel import Kernel, LaunchConfig
from ..isa.opcodes import Opcode
from ..isa.operands import MemRef, ParamRef, SpecialReg
from ..linear.analyzer import _source_vec, _transfer
from ..linear.coeffvec import CoeffVec
from .executor import (
    ExecutionError,
    FunctionalExecutor,
    WARP_SIZE,
    hash_source_rows,
)
from .memory import _NP_DTYPES, ByteSpace, MemoryError_
from .trace import (
    BlockTrace,
    KernelTrace,
    TraceRecord,
    WarpTrace,
    bank_conflict_degree,
    coalesce,
)

ENV_KNOB = "R2D2_EXTRAPOLATE"
ENV_CHUNK = "R2D2_EXTRAPOLATE_CHUNK"

#: Below this many blocks the batch set-up outweighs the win.
MIN_BLOCKS = 4

#: Default block-batch width; bounds the (B, 32) register footprint.
DEFAULT_CHUNK = 1024

#: Cap on the flat shared-memory arena (B disjoint per-block segments);
#: larger demands shrink the chunk instead of allocating more.
MAX_SHARED_FORK_BYTES = 64 * 1024 * 1024

_ADDR_INF = np.int64(1) << 62


class ExtrapolationMismatch(AssertionError):
    """``verify`` mode found a divergence between the extrapolated and
    the serially executed launch.  Always a simulator bug, never a
    workload bug — report it."""


class _Bail(Exception):
    """Internal: abandon the batch and fall back to serial execution."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


@dataclass
class ExtrapolationReport:
    """Machine-readable outcome of the extrapolation attempt for one
    launch; attached to ``KernelTrace.extrapolation`` and surfaced in
    harness run reports."""

    kernel: str
    mode: str
    eligible: bool
    #: Skip/bail slug ("nonaffine-address", "data-dependent-branch",
    #: "global-atomics", "backward-branch", "divergent-barrier",
    #: "grid-too-small", "transformed-kernel", "disabled", ...); empty
    #: when the launch extrapolated cleanly.
    reason: str = ""
    detail: str = ""
    blocks_total: int = 0
    blocks_extrapolated: int = 0
    bailed: bool = False
    verified: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "mode": self.mode,
            "eligible": self.eligible,
            "reason": self.reason,
            "detail": self.detail,
            "blocks_total": self.blocks_total,
            "blocks_extrapolated": self.blocks_extrapolated,
            "bailed": self.bailed,
            "verified": self.verified,
        }

    def to_decision(self) -> "obs.DecisionEvent":
        """The launch outcome as a unified :class:`DecisionEvent`."""
        if self.bailed:
            decision = "bail"
        elif self.blocks_extrapolated or self.verified or (
            self.eligible and not self.reason
        ):
            decision = "engage"
        else:
            decision = "skip"
        return obs.DecisionEvent(
            engine="extrapolate", decision=decision, kernel=self.kernel,
            reason=self.reason, detail=self.detail,
            units_total=self.blocks_total,
            units_taken=self.blocks_extrapolated,
        )


def extrapolation_mode(override: Optional[str] = None) -> str:
    """Resolve the ``R2D2_EXTRAPOLATE`` knob to ``"0"``, ``"1"`` or
    ``"verify"`` (unknown values fall back to the default, on)."""
    raw = override if override is not None else os.environ.get(ENV_KNOB, "1")
    raw = str(raw).strip().lower()
    if raw in ("0", "off", "false", "no"):
        return "0"
    if raw == "verify":
        return "verify"
    return "1"


def _chunk_blocks() -> int:
    try:
        return max(2, int(os.environ.get(ENV_CHUNK, DEFAULT_CHUNK)))
    except ValueError:
        return DEFAULT_CHUNK


# ----------------------------------------------------------------------
# Static eligibility pass
# ----------------------------------------------------------------------
def check_eligibility(
    kernel: Kernel,
    launch: LaunchConfig,
    cfg: Optional[ControlFlowGraph] = None,
) -> Tuple[bool, str, str]:
    """Prove (or refuse to prove) that a launch is extrapolation-safe.

    Returns ``(eligible, reason, detail)``.  The walk mirrors the linear
    analyzer's abstract interpretation — same ``CoeffVec`` transfer
    functions — but is deliberately stricter: any register written more
    than once or under a predicate leaves the affine domain, so
    loop-carried pointers and data-dependent values can never be
    mistaken for affine addresses.  Control flow must be loop-free with
    affine branch predicates, and barriers must sit outside divergent
    regions (a barrier inside an arm taken by only some blocks would let
    the batch interleave warps differently from per-block execution).
    """
    multiwrite = {r for r, n in kernel.write_counts().items() if n > 1}
    env: Dict[str, Optional[CoeffVec]] = {}
    affine_pred: Dict[str, bool] = {}
    bar_pcs = [
        pc for pc, i in enumerate(kernel.instructions)
        if i.opcode is Opcode.BAR
    ]

    for pc, instr in enumerate(kernel.instructions):
        op = instr.opcode
        if op is Opcode.ATOM_GLOBAL:
            return False, "global-atomics", (
                f"pc {pc}: global atomics observe cross-block store order"
            )
        if instr.is_memory and op is not Opcode.LD_PARAM:
            ref = instr.srcs[0]
            if not isinstance(ref, MemRef):
                return False, "linear-ref-operand", (
                    f"pc {pc}: non-register memory operand {ref!r}"
                )
            if env.get(ref.base.name) is None:
                return False, "nonaffine-address", (
                    f"pc {pc}: base {ref.base.name} has no coefficient "
                    "vector (indirect, loop-carried, or guarded)"
                )
        if op is Opcode.BRA:
            target = kernel.label_pc(instr.target)
            if target <= pc:
                return False, "backward-branch", (
                    f"pc {pc}: loop back-edge to pc {target}"
                )
            if instr.pred is not None:
                if not affine_pred.get(instr.pred.name, False):
                    return False, "data-dependent-branch", (
                        f"pc {pc}: branch predicate {instr.pred.name} is "
                        "not an affine comparison"
                    )
                if bar_pcs:
                    if cfg is None:
                        cfg = ControlFlowGraph(kernel)
                    rpc = cfg.reconvergence_pc(pc)
                    if any(pc < b < rpc for b in bar_pcs):
                        return False, "divergent-barrier", (
                            f"pc {pc}: bar.sync inside a divergent region"
                        )

        dst = instr.dst
        if dst is None:
            continue
        if dst.name in multiwrite or instr.pred is not None:
            # A second or predicated write makes the value
            # path-dependent; the strict walk drops the register from
            # the affine domain entirely.
            env[dst.name] = None
            affine_pred[dst.name] = False
            continue
        if op is Opcode.SETP:
            srcs = [_source_vec(env, s) for s in instr.srcs]
            affine_pred[dst.name] = all(v is not None for v in srcs)
            env[dst.name] = None
            continue
        if op is Opcode.LD_PARAM:
            # _transfer cannot classify this: _source_vec(ParamRef) is
            # None and its any-None early-out fires before its own
            # LD_PARAM case.
            ref = instr.srcs[0]
            assert isinstance(ref, ParamRef)
            env[dst.name] = (
                CoeffVec.parameter(ref.index)
                if instr.dtype.is_integer
                else None
            )
            continue
        if not instr.dtype.is_integer:
            env[dst.name] = None
            continue
        env[dst.name] = _transfer(
            instr, [_source_vec(env, s) for s in instr.srcs]
        )

    return True, "", ""


# ----------------------------------------------------------------------
# Batched events
# ----------------------------------------------------------------------
class _Event:
    """Per-block columns for one batched warp instruction."""

    __slots__ = (
        "pc", "n_active", "uniform", "affine", "hashes", "lines",
        "bank", "shared",
    )

    def __init__(self, pc, n_active, uniform, affine, hashes, lines,
                 bank, shared) -> None:
        self.pc = pc
        self.n_active = n_active          # (B,) int
        self.uniform = uniform            # (B,) bool
        self.affine = affine              # (B,) bool
        self.hashes = hashes              # list of B ints/None, or None
        self.lines = lines                # list of B tuples/None, or None
        self.bank = bank                  # (B,) int, or scalar 1
        self.shared = shared


def _uniform_cols(srcs, act: np.ndarray, shape, idx0, rows) -> np.ndarray:
    """Vectorized ``FunctionalExecutor._is_uniform`` over the block
    axis: per block, all active lanes of every vector source agree."""
    out = np.ones(shape[0], dtype=bool)
    for s in srcs:
        if np.ndim(s) == 0:
            continue
        vals = np.asarray(s)
        if vals.ndim == 2 and vals.shape[1] == 1:
            continue  # per-block scalar: the serial source is a scalar
        mat = np.broadcast_to(vals, shape)
        first = mat[rows, idx0]
        out &= ((mat == first[:, None]) | ~act).all(axis=1)
    return out


def _affine_cols(result, instr, act: np.ndarray, n_act: np.ndarray,
                 shape) -> np.ndarray:
    """Vectorized ``FunctionalExecutor._is_affine`` over the block
    axis."""
    B = shape[0]
    if result is None or not instr.dtype.is_integer:
        return np.zeros(B, dtype=bool)
    vals = np.asarray(result)
    if vals.ndim == 0 or (vals.ndim == 2 and vals.shape[1] == 1):
        return n_act >= 3
    mat = np.broadcast_to(vals, shape)
    out = np.zeros(B, dtype=bool)
    # Fast path: all blocks share one active pattern (full warps, or a
    # chunk-uniform boundary guard).
    if bool((act == act[0]).all()):
        cols = np.flatnonzero(act[0])
        if cols.size < 3:
            return out
        sub = mat[:, cols]
        diffs = np.diff(sub, axis=1)
        return (diffs == diffs[:, :1]).all(axis=1)
    # Varying masks: compress each row's active lanes to the front with
    # a stable argsort (False sorts before True on ~act), then a single
    # vectorized diff; positions past a row's active count are padded
    # as matching.
    order = np.argsort(~act, axis=1, kind="stable")
    sub = np.take_along_axis(mat, order, axis=1)
    diffs = np.diff(sub, axis=1)
    pos = np.arange(diffs.shape[1])
    pad = pos[None, :] >= (n_act[:, None] - 1)
    return ((diffs == diffs[:, :1]) | pad).all(axis=1) & (n_act >= 3)


class _LineMemo:
    """``(segment, Δ)`` memoization for coalescing and bank conflicts.

    Two address rows with the same pattern relative to their first
    lane's 128-byte segment produce the same line-offset tuple, and —
    because a 128-byte shift moves every address by a whole multiple of
    the 32-bank × 4-byte period — the same bank-conflict degree.  Each
    distinct pattern is computed once and rebased per block by adding
    the segment base back.
    """

    __slots__ = ("lines", "banks")

    def __init__(self) -> None:
        self.lines: Dict[bytes, Tuple[int, ...]] = {}
        self.banks: Dict[bytes, int] = {}

    def coalesce(self, addrs: np.ndarray, line_bytes: int) -> Tuple[int, ...]:
        seg = int(addrs[0]) // line_bytes * line_bytes
        rel = addrs - seg
        key = rel.tobytes()
        pattern = self.lines.get(key)
        if pattern is None:
            pattern = coalesce(rel, line_bytes)
            self.lines[key] = pattern
        if seg == 0:
            return pattern
        return tuple(seg + off for off in pattern)

    def bank_conflict(self, addrs: np.ndarray) -> int:
        seg = int(addrs[0]) // 128 * 128
        rel = addrs - seg
        key = rel.tobytes()
        degree = self.banks.get(key)
        if degree is None:
            degree = bank_conflict_degree(rel)
            self.banks[key] = degree
        return degree


# ----------------------------------------------------------------------
# The batched executor
# ----------------------------------------------------------------------
class _BatchExecutor(FunctionalExecutor):
    """Runs blocks ``[lo, hi)`` of one launch simultaneously.

    Inherits the whole interpreter — reconvergence stack, branch
    splitting, guard masks, the full ALU — and swaps the lane geometry:
    stack masks are ``(B, 32)``, ``ctaid`` reads yield ``(B, 1)``
    columns, and memory instructions gather/scatter the flattened
    block-major active lanes.  Block-major flattening makes
    same-instruction cross-block store collisions resolve exactly as
    serial block order would ("later block wins").
    """

    def __init__(self, host: FunctionalExecutor, lo: int, hi: int,
                 memory: ByteSpace, memo: _LineMemo,
                 sig_intern: Dict[tuple, tuple]) -> None:
        # Deliberately no super().__init__: the parsed host state (CFG,
        # validated args, slot map) is shared; only memory differs.
        self.kernel = host.kernel
        self.launch = host.launch
        self.memory = memory
        self.linear_values = None
        self.collect_trace = host.collect_trace
        self.max_warp_instructions = host.max_warp_instructions
        self.line_bytes = host.line_bytes
        self.cfg = host.cfg
        self._executed = 0
        self.extrapolate = "0"
        self._pending_verify = None

        self.host = host
        self.lo = lo
        self.hi = hi
        self.B = hi - lo
        self.shape = (self.B, WARP_SIZE)
        self.memo = memo
        self.sig_intern = sig_intern
        self._rows = np.arange(self.B)

        grid = self.launch.grid
        ids = np.arange(lo, hi, dtype=np.int64)

        def col(a: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(a.reshape(self.B, 1))

        self._ctaid = {
            SpecialReg.CTAID_X: col(ids % grid.x),
            SpecialReg.CTAID_Y: col((ids // grid.x) % grid.y),
            SpecialReg.CTAID_Z: col(ids // (grid.x * grid.y)),
        }

        # One flat arena holding B disjoint per-block shared-memory
        # segments, stride-aligned to 128 bytes so per-block bank/line
        # phases are preserved.
        self._shared_bound = max(self.kernel.shared_mem_bytes, 16)
        stride = (self._shared_bound + 127) // 128 * 128
        self._shared = ByteSpace(stride * self.B, base=0)
        self._shared_offsets = (
            np.arange(self.B, dtype=np.int64) * stride
        ).reshape(self.B, 1)

        #: pc -> [lo (B,), hi (B,), is_store]: per-block byte intervals
        #: touched in global memory (hi exclusive; inactive rows hold an
        #: empty interval).
        self._spans: Dict[int, list] = {}
        #: per warp-in-block: list of _Event
        self.events: List[List[_Event]] = []

    # -- execution -----------------------------------------------------
    def run_batch(self) -> None:
        n_threads = self.launch.threads_per_block
        n_warps = (n_threads + WARP_SIZE - 1) // WARP_SIZE

        warps = []
        for w in range(n_warps):
            warp = self.host._make_warp(w, (0, 0, 0))
            warp.stack[0].mask = np.broadcast_to(
                warp.base_mask, self.shape
            ).copy()
            warp.exited = np.zeros(self.shape, dtype=bool)
            warps.append(warp)
        self.events = [[] for _ in range(n_warps)]

        while True:
            progressed = False
            for w, warp in enumerate(warps):
                if warp.done or warp.at_barrier:
                    continue
                self._run_warp_until_break(
                    warp, self.events[w], self._shared
                )
                progressed = True
            live = [w for w in warps if not w.done]
            if not live:
                break
            if all(w.at_barrier for w in live):
                for w in live:
                    w.at_barrier = False
            elif not progressed:
                raise _Bail(
                    "deadlock", f"batched blocks [{self.lo}, {self.hi})"
                )

    # -- hazard check --------------------------------------------------
    def check_hazards(self) -> None:
        """Serial execution runs blocks in order; the batch interleaves
        them per instruction.  The interleaving is invisible unless a
        byte stored by block *j* is also loaded or stored by block
        *k ≠ j* — checked on conservative per-pc byte intervals."""
        spans = list(self._spans.items())
        for pc_s, (slo, shi, s_store) in spans:
            if not s_store:
                continue
            for pc_e, (elo, ehi, _) in spans:
                overlap = (slo[:, None] < ehi[None, :]) & (
                    elo[None, :] < shi[:, None]
                )
                np.fill_diagonal(overlap, False)
                if overlap.any():
                    j, k = np.argwhere(overlap)[0]
                    raise _Bail(
                        "cross-block-memory-overlap",
                        f"store pc {pc_s} (block {self.lo + int(j)}) vs "
                        f"pc {pc_e} (block {self.lo + int(k)})",
                    )

    # -- record synthesis ----------------------------------------------
    def synthesize(self, out_blocks: List[BlockTrace]) -> None:
        grid = self.launch.grid
        intern = self.sig_intern
        for b in range(self.B):
            block_id = self.lo + b
            wtraces = []
            for w, evs in enumerate(self.events):
                wt = WarpTrace(block_id, w)
                recs = wt.records
                sig = []
                for ev in evs:
                    n = int(ev.n_active[b])
                    if n == 0:
                        continue  # this block never reached the pc
                    lines = ev.lines[b] if ev.lines is not None else None
                    bank = ev.bank if isinstance(ev.bank, int) \
                        else int(ev.bank[b])
                    recs.append(TraceRecord(
                        pc=ev.pc,
                        active=n,
                        uniform=bool(ev.uniform[b]),
                        affine=bool(ev.affine[b]),
                        src_hash=(
                            ev.hashes[b] if ev.hashes is not None
                            else None
                        ),
                        lines=lines,
                        shared=ev.shared,
                        bank_conflict=bank,
                    ))
                    sig.append((
                        ev.pc, n, ev.shared, bank,
                        len(lines) if lines else 0,
                    ))
                key = tuple(sig)
                wt.sig_base = intern.setdefault(key, key)
                wtraces.append(wt)
            out_blocks.append(
                BlockTrace(block_id, grid.linear_to_xyz(block_id),
                           wtraces)
            )

    # -- inherited-machinery overrides ---------------------------------
    def _special(self, warp, sreg):
        column = self._ctaid.get(sreg)
        if column is not None:
            return column
        return FunctionalExecutor._special(self, warp, sreg)

    def _execute_instruction(self, warp, events, pc, instr, active,
                             shared) -> None:
        op = instr.opcode
        if op in (Opcode.LD_GLOBAL, Opcode.LD_SHARED):
            self._batch_load(warp, events, pc, instr, active)
            return
        if op in (Opcode.ST_GLOBAL, Opcode.ST_SHARED):
            self._batch_store(warp, events, pc, instr, active)
            return
        if op is Opcode.ATOM_SHARED:
            self._batch_atomic(warp, events, pc, instr, active)
            return
        if op is Opcode.ATOM_GLOBAL:
            raise _Bail("global-atomics", f"pc {pc}")
        if op is Opcode.LD_PARAM:
            ref = instr.srcs[0]
            assert isinstance(ref, ParamRef)
            value = self.launch.args[ref.index]
            values = np.full(
                WARP_SIZE,
                value,
                dtype=np.float64 if instr.dtype.is_float else np.int64,
            )
            warp.write(instr.dst, values, active)
            self._record(events, pc, active, instr, values, [value])
            return

        srcs = [self._fetch(warp, s) for s in instr.srcs]
        result = self._compute(instr, srcs, warp)
        if instr.dst is not None:
            warp.write(instr.dst, np.broadcast_to(
                np.asarray(result), (WARP_SIZE,)
            ).copy() if np.ndim(result) == 0 else result, active)
        self._record(events, pc, active, instr, result, srcs)

    # -- batched memory ------------------------------------------------
    def _addr_matrix(self, warp, op) -> np.ndarray:
        assert isinstance(op, MemRef)  # eligibility guarantees this
        base = warp.read(op.base)
        return np.broadcast_to(
            np.asarray(base + op.disp, dtype=np.int64), self.shape
        )

    def _note_span(self, pc, addrs, active, itemsize, is_store) -> None:
        lo = np.where(active, addrs, _ADDR_INF).min(axis=1)
        hi = np.where(active, addrs, np.int64(-1)).max(axis=1) + itemsize
        hi[~active.any(axis=1)] = 0
        span = self._spans.get(pc)
        if span is None:
            self._spans[pc] = [lo, hi, is_store]
        else:
            np.minimum(span[0], lo, out=span[0])
            np.maximum(span[1], hi, out=span[1])
            span[2] = span[2] or is_store

    def _shared_flat(self, pc, addrs, active, itemsize) -> np.ndarray:
        """Active lanes rebased into per-block arena segments, with the
        serial per-block bounds check re-applied (the arena is larger
        than one block's shared space, so a flat access could stay
        in-arena where serial execution would fault)."""
        act = addrs[active]
        if act.size and (
            int(act.min()) < 0
            or int(act.max()) + itemsize > self._shared_bound
        ):
            raise _Bail(
                "shared-out-of-bounds",
                f"pc {pc}: access outside [0, {self._shared_bound})",
            )
        return (addrs + self._shared_offsets)[active]

    def _mem_rows(self, addrs, active, instr, n_act):
        """Per-block ``lines``/``bank_conflict`` columns for one
        access."""
        if instr.is_global_memory:
            lines: List[Optional[Tuple[int, ...]]] = [None] * self.B
            for b in np.flatnonzero(n_act):
                lines[b] = self.memo.coalesce(
                    addrs[b, active[b]], self.line_bytes
                )
            return lines, 1
        bank = np.ones(self.B, dtype=np.int64)
        for b in np.flatnonzero(n_act):
            bank[b] = self.memo.bank_conflict(addrs[b, active[b]])
        return None, bank

    def _batch_load(self, warp, events, pc, instr, active) -> None:
        addrs = self._addr_matrix(warp, instr.srcs[0])
        itemsize = _NP_DTYPES[instr.dtype].itemsize
        if instr.is_shared_memory:
            flat = self._shared_flat(pc, addrs, active, itemsize)
            values = self._shared.gather(flat, instr.dtype)
        else:
            self._note_span(pc, addrs, active, itemsize, False)
            values = self.memory.gather(addrs[active], instr.dtype)
        full = np.broadcast_to(warp.read(instr.dst), self.shape).copy()
        full[active] = values
        warp.regs[instr.dst.name] = full
        if not self.collect_trace:
            return
        n_act = active.sum(axis=1)
        lines, bank = self._mem_rows(addrs, active, instr, n_act)
        idx0 = active.argmax(axis=1)
        events.append(_Event(
            pc, n_act,
            _uniform_cols([addrs], active, self.shape, idx0, self._rows),
            _affine_cols(full, instr, active, n_act, self.shape),
            self._hash_cols(pc, active, n_act, [("addrs", addrs)]),
            lines, bank, instr.is_shared_memory,
        ))

    def _batch_store(self, warp, events, pc, instr, active) -> None:
        addrs = self._addr_matrix(warp, instr.srcs[0])
        value = self._fetch(warp, instr.srcs[1])
        itemsize = _NP_DTYPES[instr.dtype].itemsize
        # C-order boolean selection is block-major, so cross-block
        # collisions at one pc resolve as "later block wins" — the same
        # outcome as serial block order.
        values = np.broadcast_to(np.asarray(value), self.shape)[active]
        if instr.is_shared_memory:
            flat = self._shared_flat(pc, addrs, active, itemsize)
            self._shared.scatter(flat, values, instr.dtype)
        else:
            self._note_span(pc, addrs, active, itemsize, True)
            self.memory.scatter(addrs[active], values, instr.dtype)
        if not self.collect_trace:
            return
        n_act = active.sum(axis=1)
        lines, bank = self._mem_rows(addrs, active, instr, n_act)
        idx0 = active.argmax(axis=1)
        events.append(_Event(
            pc, n_act,
            _uniform_cols([addrs, value], active, self.shape, idx0,
                          self._rows),
            np.zeros(self.B, dtype=bool), None,
            lines, bank, instr.is_shared_memory,
        ))

    def _batch_atomic(self, warp, events, pc, instr, active) -> None:
        addrs = self._addr_matrix(warp, instr.srcs[0])
        value = self._fetch(warp, instr.srcs[1])
        itemsize = _NP_DTYPES[instr.dtype].itemsize
        flat = self._shared_flat(pc, addrs, active, itemsize)
        values = np.broadcast_to(np.asarray(value), self.shape)[active]
        old = self._shared.atomic(instr.atom, flat, values, instr.dtype)
        if instr.dst is not None:
            full = np.broadcast_to(
                warp.read(instr.dst), self.shape
            ).copy()
            full[active] = old
            warp.regs[instr.dst.name] = full
        if not self.collect_trace:
            return
        n_act = active.sum(axis=1)
        idx0 = active.argmax(axis=1)
        events.append(_Event(
            pc, n_act,
            _uniform_cols([addrs, value], active, self.shape, idx0,
                          self._rows),
            np.zeros(self.B, dtype=bool), None, None, 1, True,
        ))

    # -- recording -----------------------------------------------------
    def _record(self, events, pc, active, instr, result, srcs,
                lines=None, shared=False, skippable=True,
                bank_conflict=1) -> None:
        if not self.collect_trace:
            return
        active = np.broadcast_to(active, self.shape)
        n_act = active.sum(axis=1)
        idx0 = active.argmax(axis=1)
        hashes = None
        if skippable and not instr.is_control:
            hashes = self._hash_cols(
                pc, active, n_act, [("src", s) for s in srcs]
            )
        events.append(_Event(
            pc, n_act,
            _uniform_cols(srcs, active, self.shape, idx0, self._rows),
            _affine_cols(result, instr, active, n_act, self.shape),
            hashes, None, 1, shared,
        ))

    def _hash_cols(self, pc, active, n_act, srcs) -> List[Optional[int]]:
        """Per-block source hashes matching
        :func:`repro.sim.executor.hash_sources` bit for bit; ``None``
        for blocks the pc never reached."""
        rows = hash_source_rows(pc, np.broadcast_to(active, self.shape),
                                srcs)
        if bool(n_act.all()):
            return rows
        return [
            rows[b] if n_act[b] else None for b in range(self.B)
        ]


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def attempt_extrapolation(host: FunctionalExecutor,
                          trace: KernelTrace) -> int:
    """Called from ``FunctionalExecutor.run``.  Returns the number of
    leading blocks whose traces and memory effects were produced by
    extrapolation; the serial loop covers the rest (the whole grid on
    success, everything on bail or ineligibility).

    In ``verify`` mode the batch runs against a fork and commits
    nothing; :func:`verify_against` then compares it with the serial
    run.
    """
    mode = host.extrapolate
    grid = host.launch.grid
    report = ExtrapolationReport(
        kernel=host.kernel.name, mode=mode, eligible=False,
        blocks_total=grid.count,
    )
    trace.extrapolation = report
    obs.inc("extrapolate.launches", kernel=host.kernel.name)
    obs.inc(
        "extrapolate.blocks_total", grid.count, kernel=host.kernel.name
    )
    if mode == "0":
        report.reason = "disabled"
        _engine_skip(report)
        return 0
    if host.linear_values is not None:
        report.reason = "transformed-kernel"
        report.detail = "R2D2-transformed launches replay %lr/%cr state"
        _engine_skip(report)
        return 0
    min_blocks = 2 if mode == "verify" else MIN_BLOCKS
    if grid.count < min_blocks:
        report.reason = "grid-too-small"
        report.detail = f"{grid.count} < {min_blocks} blocks"
        _engine_skip(report)
        return 0
    eligible, reason, detail = check_eligibility(
        host.kernel, host.launch, host.cfg
    )
    report.eligible = eligible
    report.reason = reason
    report.detail = detail
    if not eligible:
        _engine_skip(report)
        return 0
    obs.inc("extrapolate.eligible", kernel=host.kernel.name)

    shared_stride = (max(host.kernel.shared_mem_bytes, 16) + 127) \
        // 128 * 128
    chunk = min(
        _chunk_blocks(),
        max(2, MAX_SHARED_FORK_BYTES // shared_stride),
    )
    fork = host.memory.fork()
    blocks: List[BlockTrace] = []
    memo = _LineMemo()
    sig_intern: Dict[tuple, tuple] = {}
    try:
        with np.errstate(over="ignore", invalid="ignore",
                         divide="ignore"):
            # Chunks run in block order against the same fork, so later
            # chunks observe earlier chunks' stores exactly as later
            # blocks observe earlier blocks' stores serially.
            for lo in range(0, grid.count, chunk):
                hi = min(lo + chunk, grid.count)
                batch = _BatchExecutor(
                    host, lo, hi, fork, memo, sig_intern
                )
                batch.run_batch()
                batch.check_hazards()
                batch.synthesize(blocks)
    except (_Bail, MemoryError_, ExecutionError) as exc:
        # Discard everything; the serial rerun reproduces the exact
        # observable behaviour (including raising, for real OOB bugs).
        report.bailed = True
        report.reason = getattr(exc, "reason", None) or (
            "memory-error" if isinstance(exc, MemoryError_)
            else "execution-error"
        )
        report.detail = str(exc)
        obs.engine_fallback(
            "extrapolate", report.kernel, report.reason,
            detail=report.detail, bailed=True,
        )
        return 0

    if mode == "verify":
        # the serial run may touch bytes past the fork's extent; keep
        # them as they are now so the epilogue compares the full image
        host._pending_verify = (
            fork, host.memory.tail_snapshot(fork.size), blocks
        )
        return 0

    host.memory.commit(fork)
    trace.blocks.extend(blocks)
    report.blocks_extrapolated = len(blocks)
    obs.inc(
        "extrapolate.blocks_extrapolated", len(blocks),
        kernel=report.kernel,
    )
    obs.decision(
        "extrapolate", "engage", kernel=report.kernel,
        units_total=report.blocks_total, units_taken=len(blocks),
    )
    return grid.count


def _engine_skip(report: ExtrapolationReport) -> None:
    """Route a skipped launch through the unified fallback path."""
    obs.engine_fallback(
        "extrapolate", report.kernel, report.reason,
        detail=report.detail, bailed=False,
    )


def verify_against(host: FunctionalExecutor, trace: KernelTrace) -> None:
    """``verify`` mode epilogue: compare the batched run (fork +
    synthesized blocks stashed by :func:`attempt_extrapolation`) against
    the serial run that just completed on the real device state."""
    pending = host._pending_verify
    if pending is None:
        return
    host._pending_verify = None
    fork, tail, blocks = pending
    diffs = _trace_diffs(blocks, trace.blocks)
    mismatch = host.memory.fork_mismatch(fork, tail)
    if mismatch:
        diffs.append(mismatch)
    if diffs:
        raise ExtrapolationMismatch(
            f"extrapolated launch of {host.kernel.name} diverges from "
            "serial execution: " + "; ".join(diffs[:5])
        )
    report = trace.extrapolation
    report.verified = True
    report.blocks_extrapolated = len(blocks)
    obs.inc("extrapolate.verified", kernel=host.kernel.name)
    obs.inc(
        "extrapolate.blocks_extrapolated", len(blocks),
        kernel=host.kernel.name,
    )


_RECORD_FIELDS = (
    "pc", "active", "uniform", "affine", "src_hash", "lines", "shared",
    "bank_conflict",
)


def _trace_diffs(xblocks: List[BlockTrace],
                 sblocks: List[BlockTrace]) -> List[str]:
    if len(xblocks) != len(sblocks):
        return [f"block count {len(xblocks)} != {len(sblocks)}"]
    diffs: List[str] = []
    for xb, sb in zip(xblocks, sblocks):
        where = f"block {sb.block_linear_id}"
        if (xb.block_linear_id, xb.block_xyz) != (
            sb.block_linear_id, sb.block_xyz
        ):
            diffs.append(f"{where}: identity mismatch")
            continue
        if len(xb.warps) != len(sb.warps):
            diffs.append(f"{where}: warp count")
            continue
        for xw, sw in zip(xb.warps, sb.warps):
            head = f"{where} warp {sw.warp_in_block}"
            if len(xw.records) != len(sw.records):
                diffs.append(
                    f"{head}: {len(xw.records)} records != "
                    f"{len(sw.records)}"
                )
                continue
            for i, (xr, sr) in enumerate(zip(xw.records, sw.records)):
                for f in _RECORD_FIELDS:
                    if getattr(xr, f) != getattr(sr, f):
                        diffs.append(
                            f"{head} record {i} ({f}): "
                            f"{getattr(xr, f)!r} != {getattr(sr, f)!r}"
                        )
                if len(diffs) > 8:
                    return diffs
    return diffs
