"""Warp-signature tables for the event-driven timing engine.

The timing model replays every warp of every thread block record by
record, yet — exactly the redundancy R2D2 itself exploits — most warps
of a regular kernel execute *issue-equivalent* streams: the same static
instructions with the same active-lane counts, coalescing degree,
bank-conflict profile, and issue-plan modes, differing only in which
memory lines they touch.  This module reduces each warp's record stream
to a *signature* (``TraceRecord.static_issue_key`` plus the issue plan's
per-record mode/extra) and computes all per-warp static analysis —
latency class, energy events, dependency register indices, destination
slots, skip runs, LSU occupancy — once per distinct signature
(:class:`_SigGroup`), shared by every warp in the group.

:class:`_Prep` holds those tables for one trace, together with the
per-block and per-SM signature keys that let the event-driven engine
(:mod:`repro.sim.timing_fast`) clone SMs whose block slices are
issue-equivalent.  :func:`prep_for` caches one :class:`_Prep` per
trace, config and policy.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Tuple

from .timing import IssueMode, _latency_of
from .trace import BlockTrace

# Record kinds, mirroring the branch structure of
# ``TimingSimulator._issue``.
_K_SCALAR = 0
_K_BARRIER = 1
_K_GMEM = 2
_K_SMEM = 3
_K_ALU = 4
_K_SKIP = 5

#: Sig-tuple tail for plain-SIMD plans; plain ints hash faster than the
#: IssueMode members they equal.
_SIMD_TAIL = (int(IssueMode.SIMD), 0)


class _SigGroup:
    """Per-record static issue tables shared by all warps of one
    signature."""

    __slots__ = (
        "n",
        "kind",
        "lat",
        "extra",
        "active",
        "dst",
        "srcs",
        "eadds",
        "lsu_slots",
        "n_lines",
        "is_store",
        "next_scalar",
        "skip_next",
        "skip_dsts",
        "skip_count",
        "has_scalar",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.kind: List[int] = []
        self.lat: List[int] = []
        self.extra: List[int] = []
        self.active: List[int] = []
        self.dst: List[int] = []
        self.srcs: List[Tuple[int, ...]] = []
        #: per record: ordered (component, picojoule) additions — the
        #: exact float values the reference loop would add.
        self.eadds: List[Tuple[Tuple[str, float], ...]] = []
        self.lsu_slots: List[int] = []
        self.n_lines: List[int] = []
        self.is_store: List[bool] = []
        self.next_scalar: List[bool] = []
        self.skip_next: List[int] = []
        self.skip_dsts: List[Tuple[int, ...]] = []
        self.skip_count: List[int] = []
        self.has_scalar = False


def _build_row(key: tuple, prep: "_Prep") -> tuple:
    """Static issue row for one record key.

    A row depends only on the 7-tuple record key (never on the
    surrounding signature), so it is memoized in ``prep.row_cache``:
    divergent kernels produce thousands of distinct *signatures* built
    from a few dozen distinct *record keys*, and rebuilding rows per
    group used to dominate the precompilation pass.
    """
    cfg = prep.cfg
    lat = cfg.latency
    e = cfg.energy
    pc, active, shared, bank_conflict, n_lines, mode, extra = key
    instr = prep.instrs[pc]
    dst = instr.dst
    dst_id = prep.reg_ids[dst.name] if dst is not None else -1
    src_regs = instr.source_regs()
    src_ids = tuple(
        dict.fromkeys(prep.reg_ids[r.name] for r in src_regs)
    )
    next_scalar = mode == IssueMode.SCALAR

    if mode == IssueMode.SKIP:
        return (
            _K_SKIP, 0, extra, active, dst_id, src_ids, (),
            0, n_lines, instr.is_store, next_scalar, False,
        )
    if mode in (IssueMode.SCALAR, IssueMode.SCALAR_INLINE):
        eadds = (
            ("fetch", e.fetch_decode_pj),
            ("scalar", e.scalar_op_pj),
            ("rf", e.rf_read_pj + e.rf_write_pj),
        )
        return (
            _K_SCALAR, _latency_of(instr, lat), extra, active, dst_id,
            src_ids, eadds, 0, n_lines, instr.is_store, next_scalar,
            mode == IssueMode.SCALAR,
        )

    adds: List[Tuple[str, float]] = [
        ("fetch", e.fetch_decode_pj),
        ("rf", e.rf_read_pj * len(src_regs)),
    ]
    if dst is not None:
        adds.append(("rf", e.rf_write_pj))
    lsu = 0
    if instr.is_barrier:
        kind, latv = _K_BARRIER, 0
    elif instr.is_global_memory and n_lines:
        kind, latv = _K_GMEM, 0
        lsu = max(1, n_lines // cfg.mem_ports_per_sm)
        adds.append(("l1", e.l1_access_pj * n_lines))
    elif instr.is_shared_memory or shared:
        kind = _K_SMEM
        latv = lat.shared_mem + max(0, bank_conflict - 1)
        adds.append(("shared", e.shared_access_pj * active))
    else:
        kind, latv = _K_ALU, _latency_of(instr, lat)
        if instr.opcode in prep.sfu_opcodes:
            adds.append(("sfu", e.sfu_lane_pj * active))
        elif instr.dtype.is_float:
            adds.append(("alu", e.float_lane_pj * active))
        else:
            adds.append(("alu", e.int_lane_pj * active))
    return (
        kind, latv, extra, active, dst_id, src_ids, tuple(adds),
        lsu, n_lines, instr.is_store, next_scalar, False,
    )


def _build_group(sig: tuple, prep: "_Prep") -> _SigGroup:
    grp = _SigGroup(len(sig))
    cache = prep.row_cache
    rows = []
    for key in sig:
        row = cache.get(key)
        if row is None:
            row = _build_row(key, prep)
            cache[key] = row
        rows.append(row)
    (
        grp.kind,
        grp.lat,
        grp.extra,
        grp.active,
        grp.dst,
        grp.srcs,
        grp.eadds,
        grp.lsu_slots,
        grp.n_lines,
        grp.is_store,
        grp.next_scalar,
        scalar_modes,
    ) = map(list, zip(*rows)) if rows else ([] for _ in range(12))
    grp.has_scalar = any(scalar_modes)

    # Maximal skip runs from every position (mirrors ``_advance_skips``):
    # ``skip_next[i]`` is the first non-SKIP index at or after i,
    # ``skip_dsts[i]`` the destination slots written while skipping,
    # ``skip_count[i]`` how many records were skipped.
    n = grp.n
    if _K_SKIP not in grp.kind:
        grp.skip_next = list(range(n + 1))
        grp.skip_dsts = [()] * (n + 1)
        grp.skip_count = [0] * (n + 1)
        return grp
    grp.skip_next = [0] * (n + 1)
    grp.skip_dsts = [()] * (n + 1)
    grp.skip_count = [0] * (n + 1)
    grp.skip_next[n] = n
    for i in range(n - 1, -1, -1):
        if grp.kind[i] == _K_SKIP:
            grp.skip_next[i] = grp.skip_next[i + 1]
            dst = grp.dst[i]
            if dst >= 0:
                grp.skip_dsts[i] = (dst,) + grp.skip_dsts[i + 1]
            else:
                grp.skip_dsts[i] = grp.skip_dsts[i + 1]
            grp.skip_count[i] = grp.skip_count[i + 1] + 1
        else:
            grp.skip_next[i] = i
    return grp


class _Prep:
    """Signature pass: plans, groups, and per-SM signature keys."""

    def __init__(self, sim) -> None:
        from ..isa.opcodes import SFU_OPCODES

        self.policy = sim.policy
        self.cfg = sim.config
        self.instrs = sim.instrs
        self.sfu_opcodes = SFU_OPCODES
        #: record key -> static issue row, shared across groups.
        self.row_cache: Dict[tuple, tuple] = {}
        # Register-name -> dense slot id (reference uses a name-keyed
        # dict with default 0; dense arrays start at 0 likewise).
        self.reg_ids: Dict[str, int] = {}
        for instr in self.instrs:
            if instr.dst is not None and instr.dst.name not in self.reg_ids:
                self.reg_ids[instr.dst.name] = len(self.reg_ids)
            for reg in instr.source_regs():
                if reg.name not in self.reg_ids:
                    self.reg_ids[reg.name] = len(self.reg_ids)
        self.n_regs = len(self.reg_ids)

        self._groups: Dict[tuple, _SigGroup] = {}
        self._group_ids: Dict[tuple, int] = {}
        #: block id -> (prologue cycles, per-warp _SigGroup list)
        self.block_info: Dict[int, Tuple[int, List[_SigGroup]]] = {}
        self.block_sig: Dict[int, tuple] = {}
        self.any_scalar = False
        policy = sim.policy
        # Policies whose plans are a pure function of the static pc
        # (e.g. R2D2's per-pc mode/extra tables) export them as arrays;
        # the signature composes per record from the pc without ever
        # materializing a per-warp WarpIssuePlan.
        arrays = policy.plan_arrays()
        if arrays is not None:
            mode_by_pc = [int(m) for m in arrays[0]]
            extra_by_pc = [int(x) for x in arrays[1]]
        # Extrapolated traces carry an interned tuple of
        # static_issue_key()s per warp (WarpTrace.sig_base); warps that
        # share the interned object skip the per-record key walk.
        simd_sigs: Dict[int, tuple] = {}
        pc_sigs: Dict[int, tuple] = {}
        for block in sim.trace.blocks:
            bprologue = policy.block_prologue_cycles(block)
            groups: List[_SigGroup] = []
            wsigs: List[int] = []
            for warp in block.warps:
                if arrays is not None:
                    base = getattr(warp, "sig_base", None)
                    if base is not None:
                        sig = pc_sigs.get(id(base))
                        if sig is None:
                            sig = tuple(
                                key
                                + (mode_by_pc[key[0]], extra_by_pc[key[0]])
                                for key in base
                            )
                            pc_sigs[id(base)] = sig
                    else:
                        sig = tuple(
                            r.static_issue_key()
                            + (mode_by_pc[r.pc], extra_by_pc[r.pc])
                            for r in warp.records
                        )
                    grp = self._groups.get(sig)
                    if grp is None:
                        grp = _build_group(sig, self)
                        self._groups[sig] = grp
                        self._group_ids[sig] = len(self._group_ids)
                        self.any_scalar = self.any_scalar or grp.has_scalar
                    groups.append(grp)
                    wsigs.append(self._group_ids[sig])
                    continue
                plan = policy.plan_warp(block, warp)
                base = getattr(warp, "sig_base", None)
                if plan.modes is None and plan.extra_latency is None:
                    if base is not None:
                        sig = simd_sigs.get(id(base))
                        if sig is None:
                            sig = tuple(
                                key + _SIMD_TAIL for key in base
                            )
                            simd_sigs[id(base)] = sig
                    else:
                        sig = tuple(
                            r.static_issue_key() + _SIMD_TAIL
                            for r in warp.records
                        )
                else:
                    # Zip the plan's lists with the record keys: no
                    # per-record plan.mode()/plan.extra() calls.
                    if base is None:
                        base = [r.static_issue_key() for r in warp.records]
                    modes = plan.modes
                    extras = plan.extra_latency
                    sig = tuple(
                        key + (int(m), int(x))
                        for key, m, x in zip(
                            base,
                            repeat(0) if modes is None else modes,
                            repeat(0) if extras is None else extras,
                        )
                    )
                grp = self._groups.get(sig)
                if grp is None:
                    grp = _build_group(sig, self)
                    self._groups[sig] = grp
                    self._group_ids[sig] = len(self._group_ids)
                    self.any_scalar = self.any_scalar or grp.has_scalar
                groups.append(grp)
                wsigs.append(self._group_ids[sig])
            self.block_info[id(block)] = (bprologue, groups)
            self.block_sig[id(block)] = (bprologue, tuple(wsigs))

    def sm_signature(self, sm_id: int, blocks: List[BlockTrace]) -> tuple:
        return (
            self.policy.sm_prologue_cycles(sm_id),
            tuple(self.block_sig[id(b)] for b in blocks),
        )

    @property
    def n_groups(self) -> int:
        return len(self._groups)


#: trace id -> (weakref keeping the eviction callback alive,
#: [(config, policy, prep), ...]).  Strong refs to config/policy pin
#: their ids so an identity match can never alias a recycled object.
_PREP_CACHE: Dict[int, Tuple[object, list]] = {}


def prep_for(sim) -> _Prep:
    """Record-stream precompilation, cached once per kernel trace.

    The tables in :class:`_Prep` depend only on the trace, the config's
    latency/energy/port parameters, and the issue policy's plans — not
    on which engine replays them — so one precompilation serves the
    cloning, exact, and verify runs of the event-driven engine, and
    repeat replays of the same trace (benchmarks, oracle cross-checks)
    skip it entirely.

    Entries match by object identity: same config object and same
    policy object, except that bare :class:`IssuePolicy` instances are
    interchangeable (their hooks are stateless).  Configs are treated
    as immutable after construction, as everywhere else in the repo.
    The cache is keyed by trace id and evicted by a weakref callback
    when the trace is garbage collected.
    """
    from .timing import IssuePolicy

    trace = sim.trace
    key = id(trace)
    policy = sim.policy
    default_policy = type(policy) is IssuePolicy
    cached = _PREP_CACHE.get(key)
    if cached is None:
        import weakref

        entries: list = []
        ref = weakref.ref(
            trace, lambda _r, _k=key: _PREP_CACHE.pop(_k, None)
        )
        _PREP_CACHE[key] = (ref, entries)
    else:
        entries = cached[1]
        for cfg, pol, prep in entries:
            if cfg is sim.config and (
                pol is policy
                or (default_policy and type(pol) is IssuePolicy)
            ):
                return prep
    prep = _Prep(sim)
    entries.append((sim.config, policy, prep))
    return prep
