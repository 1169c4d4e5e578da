"""Event-driven timing engine for :class:`~repro.sim.timing.TimingSimulator`.

Replays a kernel trace with the same decisions as
:meth:`TimingSimulator.run_reference` — same cycles, instruction
counters, cache statistics, and (without SM cloning) the same
per-component float-addition sequence for energy — while skipping the
reference loop's cycle-by-cycle polling.  Four layers:

**Record-stream precompilation.**  The signature pass
(:class:`~repro.sim.dedup._Prep`) flattens each distinct warp stream
into per-record tables — latency class, dense source/dest register
slots, issue mode, extra latency, memory-line counts,
bank-conflict-adjusted latencies, barrier flags, skip runs, and the
exact energy additions — shared by every warp with that signature, so
the inner loop indexes integers instead of walking ``Instruction``
operands and calling ``source_regs()`` per issue.

**Event-driven scheduling.**  Each warp caches its scoreboard ready
time (``_EW.rt``).  The scoreboard is strictly per-warp, so a cached
time only changes when the warp itself issues, its barrier releases, or
its block activates — all events this module controls.  Instead of
re-running every scheduler's pick scan each cycle, the main loop finds
the two smallest ready times across the SM: if nothing is ready the
clock jumps straight to the next event, and if exactly one warp is
schedulable in an interval its run of consecutive dependency-satisfied
non-memory records retires in a closed-form burst (``burst``)
without consulting the other schedulers at all.  Bursts preserve the
reference's issue order (and therefore its energy float-addition order)
because the bursting warp is, by construction, the only warp the
reference could have issued in that interval.

**SM cloning.**  SMs receive round-robin slices of the block list; on
regular kernels those slices have identical signature sequences
(:meth:`_Prep.sm_signature`).  The first SM of a repeated signature is
simulated with recording on: every global-memory access is logged in
issue order with its L1/L2/DRAM outcome, together with the SM's counter
deltas and per-component energy subtotal (:class:`_SMRecord`).  A later
SM with the same signature only *replays the logged accesses* against a
fresh L1 and the real shared L2 (:func:`_try_clone`).  If every access
resolves to the recorded outcome, the SM's dynamics are provably
identical and the recorded deltas are committed without simulating it —
the L2 content still evolves exactly, because the replay performs the
very accesses the full simulation would have.  On any mismatch the L2
is rolled back to a snapshot and the SM is simulated in full.

**Array-backed cache model.**  ``sim/caches.py`` stores tags and LRU
stamps in numpy arrays, so a multi-line record that hits entirely in L1
is answered by one vectorized probe (``MemoryHierarchy.access``) rather
than a per-line Python loop.

Exactness: both scheduler policies (GTO and round-robin), all issue
modes, barriers, and multi-SM distributions are replicated
decision-for-decision, so every integer field and both cache stat pairs
always equal the reference loop's.  Cloning engages only under GTO and
assumes pure :class:`IssuePolicy` hooks (all in-repo policies are).  A
cloned SM adds its energy as per-component subtotals rather than
replaying each addition, so energy may differ from the reference loop
by float-associativity ULPs when (and only when) a clone fires.
``run_fast(sim, clone=False)`` is the exact path — energy floats
included — that ``R2D2_TIMING=verify`` and the differential oracle
check field by field against the reference loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import obs
from .caches import Cache, MemoryHierarchy
from .dedup import (
    _K_BARRIER,
    _K_GMEM,
    _K_SCALAR,
    _Prep,
    _SigGroup,
    prep_for,
)
from .timing import TimingResult
from .trace import BlockTrace

_FAR = 1 << 60


class _EW:
    """Dynamic per-warp state with cached scheduler inputs: ``rt`` is
    the ready time :meth:`TimingSimulator._ready_time` would compute,
    ``nsc`` whether the next record issues on the scalar pass."""

    __slots__ = (
        "slot",
        "fb",
        "grp",
        "recs",
        "idx",
        "reg",
        "start",
        "bu",
        "at_bar",
        "done",
        "rt",
        "nsc",
        "bseq",
        "wpos",
    )

    def __init__(self, slot: int, fb: "_EB", grp: _SigGroup, recs,
                 n_regs: int, bseq: int, wpos: int) -> None:
        self.slot = slot
        self.fb = fb
        self.grp = grp
        self.recs = recs
        self.idx = 0
        self.reg = [0] * n_regs
        self.start = 0
        self.bu = 0
        self.at_bar = False
        self.done = grp.n == 0
        self.rt = 0
        self.nsc = False
        #: block sequence number on this SM and warp position in the
        #: block: the memlog's address of a recorded access.
        self.bseq = bseq
        self.wpos = wpos


class _EB:
    """Dynamic per-block state (mirrors ``_BlockSim``)."""

    __slots__ = ("warps", "barrier_count", "remaining")

    def __init__(self) -> None:
        self.warps: List[_EW] = []
        self.barrier_count = 0
        self.remaining = 0


def _refresh(w: _EW) -> None:
    """Recompute the cached ready time / scalar flag after any event
    that can change them (self-issue, barrier state, activation)."""
    grp = w.grp
    i = w.idx
    if w.at_bar or i >= grp.n:
        w.rt = _FAR
        w.nsc = False
        return
    m = w.start if w.start > w.bu else w.bu
    reg = w.reg
    for s in grp.srcs[i]:
        v = reg[s]
        if v > m:
            m = v
    w.rt = m
    w.nsc = grp.next_scalar[i]


class _SMRecord:
    """Everything needed to clone an SM without re-simulating it."""

    __slots__ = (
        "cycles",
        "d_simd",
        "d_scalar",
        "d_skipped",
        "d_threads",
        "d_prologue",
        "d_dram",
        "l1_accesses",
        "l1_hits",
        "energy_subtotal",
        "memlog",
    )


def run_fast(sim, clone: bool = True) -> TimingResult:
    """Event-driven equivalent of :meth:`TimingSimulator.run_reference`.

    With ``clone``, SMs whose signature repeats an earlier SM's are
    cloned from its recorded result when their memory accesses replay to
    the same outcomes (:func:`_try_clone`).  Cloning engages only under
    GTO; a decline lands on ``dedup.fallback{reason}``."""
    prep = prep_for(sim)
    result = TimingResult()
    cfg = sim.config
    blocks = sim.trace.blocks
    n_sms = min(cfg.num_sms, max(1, len(blocks)))
    result.sms_used = n_sms
    per_sm: List[List[BlockTrace]] = [[] for _ in range(n_sms)]
    for i, block in enumerate(blocks):
        per_sm[i % n_sms].append(block)

    kname = sim.kernel.name
    if clone and cfg.scheduler_policy != "gto":
        reason = f"scheduler-{cfg.scheduler_policy}"
        obs.inc("dedup.fallback", kernel=kname, reason=reason)
        obs.decision("dedup", "skip", kernel=kname, reason=reason)
        clone = False
    if clone:
        sm_sigs = [
            prep.sm_signature(sm_id, per_sm[sm_id])
            for sm_id in range(n_sms)
        ]
        sig_counts: Dict[tuple, int] = {}
        for sig in sm_sigs:
            sig_counts[sig] = sig_counts.get(sig, 0) + 1
    seen: Dict[tuple, _SMRecord] = {}
    sm_cycles: List[int] = []
    n_cloned = n_rejected = 0
    for sm_id in range(n_sms):
        record = False
        if clone:
            sig = sm_sigs[sm_id]
            rec = seen.get(sig)
            if rec is not None:
                if _try_clone(sim, rec, per_sm[sm_id], result):
                    n_cloned += 1
                    sm_cycles.append(rec.cycles)
                    continue
                n_rejected += 1
            record = sig_counts[sig] > 1
        cycles, smrec = _run_sm(
            sim, prep, sm_id, per_sm[sm_id], result, record
        )
        if smrec is not None:
            seen[sig] = smrec
        sm_cycles.append(cycles)

    if clone:
        obs.inc("dedup.runs", kernel=kname)
        obs.inc("dedup.sms.simulated", n_sms - n_cloned, kernel=kname)
        if n_cloned:
            obs.inc("dedup.sms.cloned", n_cloned, kernel=kname)
        if n_rejected:
            obs.inc("dedup.clone_rejects", n_rejected, kernel=kname)
        obs.inc("dedup.signatures", len(sig_counts), kernel=kname)

    result.cycles = max(sm_cycles) if sm_cycles else 0
    result.l2 = sim.l2.stats
    static = cfg.energy.static_pj_per_sm_cycle * result.cycles * n_sms
    result.energy.add("static", static)
    return result


def _try_clone(sim, rec: _SMRecord, blocks: List[BlockTrace],
               result: TimingResult) -> bool:
    """Replay the representative's memory accesses for a candidate clone;
    commit the recorded deltas if every outcome matches, else roll the L2
    back and report failure."""
    cfg = sim.config
    l2 = sim.l2
    snap = l2.snapshot() if rec.memlog else None
    l1 = Cache(cfg.l1)
    hierarchy = MemoryHierarchy(l1, l2, cfg.latency)
    for bseq, wpos, ridx, want_l1, want_l2, want_dram, is_store in rec.memlog:
        record = blocks[bseq].warps[wpos].records[ridx]
        acc = hierarchy.access(record.lines, is_store=is_store)
        if (
            acc.l1_hits != want_l1
            or acc.l2_hits != want_l2
            or acc.dram_accesses != want_dram
        ):
            l2.restore(snap)
            return False
    result.issued_simd += rec.d_simd
    result.issued_scalar += rec.d_scalar
    result.skipped += rec.d_skipped
    result.thread_ops += rec.d_threads
    result.prologue_cycles += rec.d_prologue
    result.dram_accesses += rec.d_dram
    result.l1.accesses += rec.l1_accesses
    result.l1.hits += rec.l1_hits
    energy = result.energy
    for key, pj in rec.energy_subtotal:
        energy.add(key, pj)
    return True


def _run_sm(
    sim,
    prep: _Prep,
    sm_id: int,
    blocks: List[BlockTrace],
    result: TimingResult,
    record: bool = False,
) -> Tuple[int, Optional[_SMRecord]]:
    """Simulate one SM; with ``record``, also return the
    :class:`_SMRecord` that lets later same-signature SMs clone it."""
    if not blocks:
        return 0, None
    cfg = sim.config
    policy = sim.policy
    l1 = Cache(cfg.l1)
    hierarchy = MemoryHierarchy(l1, sim.l2, cfg.latency)
    resident = sim.resident_blocks_limit()
    n_sched = cfg.num_schedulers
    n_regs = prep.n_regs
    do_scalar_pass = prep.any_scalar
    use_gto = cfg.scheduler_policy == "gto"
    e_l2_pj = cfg.energy.l2_access_pj
    e_dram_pj = cfg.energy.dram_access_pj
    evals = result.energy.values

    if record:
        pre_energy = dict(evals)
        pre_simd = result.issued_simd
        pre_scalar = result.issued_scalar
        pre_skipped = result.skipped
        pre_threads = result.thread_ops
        pre_prologue = result.prologue_cycles
        pre_dram = result.dram_accesses
        memlog: Optional[list] = []
    else:
        memlog = None

    prologue = policy.sm_prologue_cycles(sm_id)
    result.prologue_cycles += prologue

    pending = list(blocks)
    scheds: List[List[_EW]] = [[] for _ in range(n_sched)]
    slot_counter = 0
    active_count = 0
    nlive = 0

    def activate_block(now: int) -> None:
        nonlocal slot_counter, active_count, nlive
        bseq = len(blocks) - len(pending)
        block_trace = pending.pop(0)
        bprologue, groups = prep.block_info[id(block_trace)]
        result.prologue_cycles += bprologue
        start = now + bprologue
        fb = _EB()
        for wpos, wtrace in enumerate(block_trace.warps):
            grp = groups[wpos]
            ew = _EW(slot_counter, fb, grp, wtrace.records, n_regs,
                     bseq, wpos)
            ew.start = start
            slot_counter += 1
            # Leading skip run (mirrors _advance_skips at activation).
            n_sk = grp.skip_count[0] if grp.n else 0
            if n_sk:
                reg = ew.reg
                for dst in grp.skip_dsts[0]:
                    reg[dst] = start
                result.skipped += n_sk
                ew.idx = grp.skip_next[0]
                if ew.idx >= grp.n:
                    ew.done = True
            if not ew.done:
                fb.warps.append(ew)
                scheds[ew.slot % n_sched].append(ew)
                nlive += 1
                _refresh(ew)
        fb.remaining = len(fb.warps)
        if fb.remaining:
            active_count += 1

    t = prologue
    while pending and active_count < resident:
        activate_block(t)
    lsu_free = t
    last_issued: List[Optional[_EW]] = [None] * n_sched
    rr_cursor = [0] * n_sched

    def finish(w: _EW, now: int) -> None:
        nonlocal active_count, nlive
        grp = w.grp
        i = w.idx + 1
        n_sk = grp.skip_count[i]
        if n_sk:
            t1 = now + 1
            reg = w.reg
            for dst in grp.skip_dsts[i]:
                reg[dst] = t1
            result.skipped += n_sk
            i = grp.skip_next[i]
        w.idx = i
        if i >= grp.n:
            w.done = True
            w.rt = _FAR
            w.nsc = False
            scheds[w.slot % n_sched].remove(w)
            nlive -= 1
            fb = w.fb
            fb.remaining -= 1
            if fb.remaining == 0:
                active_count -= 1
                if pending:
                    activate_block(now + 1)
        else:
            _refresh(w)

    def issue(w: _EW, now: int) -> None:
        nonlocal lsu_free
        grp = w.grp
        i = w.idx
        for key, pj in grp.eadds[i]:
            evals[key] = evals.get(key, 0.0) + pj
        kind = grp.kind[i]
        if kind == _K_SCALAR:
            result.issued_scalar += 1
            result.thread_ops += 1
            dst = grp.dst[i]
            if dst >= 0:
                w.reg[dst] = now + grp.lat[i] + grp.extra[i]
            finish(w, now)
            return
        result.issued_simd += 1
        result.thread_ops += grp.active[i]
        if kind == _K_BARRIER:
            fb = w.fb
            fb.barrier_count += 1
            if fb.barrier_count >= fb.remaining:
                fb.barrier_count = 0
                t1 = now + 1
                for x in fb.warps:
                    if not x.done:
                        x.at_bar = False
                        if x.bu < t1:
                            x.bu = t1
                        if x is not w:
                            _refresh(x)
            else:
                w.at_bar = True
            finish(w, now)
            return
        if kind == _K_GMEM:
            rec = w.recs[i]
            start = now if now > lsu_free else lsu_free
            lsu_free = start + grp.lsu_slots[i]
            acc = hierarchy.access(rec.lines, is_store=grp.is_store[i])
            completion = start + acc.latency + grp.extra[i]
            result.dram_accesses += acc.dram_accesses
            n_l2 = grp.n_lines[i] - acc.l1_hits
            evals["l2"] = evals.get("l2", 0.0) + e_l2_pj * (
                n_l2 if n_l2 > 0 else 0
            )
            evals["dram"] = (
                evals.get("dram", 0.0) + e_dram_pj * acc.dram_accesses
            )
            if memlog is not None:
                memlog.append((
                    w.bseq, w.wpos, i, acc.l1_hits, acc.l2_hits,
                    acc.dram_accesses, grp.is_store[i],
                ))
        else:  # _K_SMEM and _K_ALU share the static-latency shape
            completion = now + grp.lat[i] + grp.extra[i]
        dst = grp.dst[i]
        if dst >= 0:
            w.reg[dst] = completion
        finish(w, now)

    def issue_quick(w: _EW, now: int) -> None:
        """Burst-path issue: non-memory, non-barrier, and guaranteed by
        the caller not to complete the warp (so no block bookkeeping)."""
        grp = w.grp
        i = w.idx
        for key, pj in grp.eadds[i]:
            evals[key] = evals.get(key, 0.0) + pj
        if grp.kind[i] == _K_SCALAR:
            result.issued_scalar += 1
            result.thread_ops += 1
        else:
            result.issued_simd += 1
            result.thread_ops += grp.active[i]
        dst = grp.dst[i]
        if dst >= 0:
            w.reg[dst] = now + grp.lat[i] + grp.extra[i]
        j = i + 1
        n_sk = grp.skip_count[j]
        if n_sk:
            t1 = now + 1
            reg = w.reg
            for dst2 in grp.skip_dsts[j]:
                reg[dst2] = t1
            result.skipped += n_sk
            j = grp.skip_next[j]
        w.idx = j
        _refresh(w)

    def burst(w: _EW, t: int, horizon: int) -> int:
        """Retire consecutive records of ``w`` while it is the only
        schedulable warp on the SM (every other ready time is
        ``>= horizon``).  Stops before the clock reaches ``horizon``,
        before a global-memory or barrier record (shared LSU / block
        state), and before the record whose issue would complete the
        warp (block-retirement bookkeeping) — those hand back to the
        main loop with the clock positioned exactly where the reference
        loop would have it."""
        grp = w.grp
        sched = w.slot % n_sched
        simd_issued = False
        while True:
            i = w.idx
            k = grp.kind[i]
            if (
                k == _K_GMEM
                or k == _K_BARRIER
                or grp.skip_next[i + 1] >= grp.n
            ):
                break
            rt = w.rt
            nt = rt if rt > t else t
            if nt >= horizon:
                break
            t = nt
            was_scalar = w.nsc
            issue_quick(w, t)
            if was_scalar:
                # The reference's SIMD pass runs in the same cycle after
                # the scalar pass and may co-issue the next record.
                j = w.idx
                if not w.nsc and w.rt <= t:
                    kj = grp.kind[j]
                    if (
                        kj == _K_GMEM
                        or kj == _K_BARRIER
                        or grp.skip_next[j + 1] >= grp.n
                    ):
                        # The reference would co-issue this record in
                        # cycle t; hand the half-finished cycle back to
                        # the main loop (its SIMD pass at the same t
                        # issues it with full bookkeeping).
                        if simd_issued:
                            last_issued[sched] = w
                        if not use_gto:
                            rr_cursor[sched] = 0
                        return t
                    issue_quick(w, t)
                    simd_issued = True
            else:
                simd_issued = True
            t += 1
        if simd_issued:
            last_issued[sched] = w
        if not use_gto:
            # Reference cursor arithmetic with a single-warp filtered
            # list lands on 0 after every successful pick; bursts only
            # run under round-robin when the warp is alone in its
            # scheduler partition.
            rr_cursor[sched] = 0
        return t

    def pick(lst: List[_EW], sched: int, want: bool) -> Optional[_EW]:
        if use_gto:
            last = last_issued[sched]
            if (
                last is not None
                and not last.done
                and not last.at_bar
                and last.nsc == want
                and last.rt <= t
            ):
                return last
            for w in lst:
                if w.nsc == want and w.rt <= t:
                    return w
            return None
        # Round-robin: the reference filters live warps per pass and
        # indexes its cursor into that ephemeral list.
        mine = [w for w in lst if w.nsc == want]
        if not mine:
            return None
        n = len(mine)
        start = rr_cursor[sched] % n
        for k in range(n):
            w = mine[(start + k) % n]
            if w.rt <= t:
                rr_cursor[sched] = (start + k + 1) % n
                return w
        return None

    while nlive or pending:
        if not nlive:
            activate_block(t + 1)
            continue
        # Two smallest cached ready times across the SM decide the next
        # step: jump, burst, or a full reference-order issue pass.
        w1 = None
        m1 = _FAR
        m2 = _FAR
        for lst in scheds:
            for w in lst:
                rt = w.rt
                if rt < m1:
                    m2 = m1
                    m1 = rt
                    w1 = w
                elif rt < m2:
                    m2 = rt
        if m1 > t:
            # Nothing can issue this cycle: the reference loop's pick
            # passes come up empty and it jumps to the next event.
            if m1 >= _FAR:
                t += 1
                continue
            t = m1
        if m2 > t:
            i = w1.idx
            grp = w1.grp
            k = grp.kind[i]
            if (
                k != _K_GMEM
                and k != _K_BARRIER
                and grp.skip_next[i + 1] < grp.n
                and (use_gto or len(scheds[w1.slot % n_sched]) == 1)
            ):
                t = burst(w1, t, m2)
                continue
        issued_any = False
        for sched in range(n_sched):
            lst = scheds[sched]
            if do_scalar_pass:
                w = pick(lst, sched, True)
                if w is not None:
                    issue(w, t)
                    issued_any = True
            w = pick(lst, sched, False)
            if w is not None:
                issue(w, t)
                last_issued[sched] = w
                issued_any = True
        if nlive == 0 and pending:
            activate_block(t + 1)
        if issued_any:
            t += 1
        elif nlive:
            nxt = _FAR
            for lst in scheds:
                for w in lst:
                    rt = w.rt
                    if t < rt < nxt:
                        nxt = rt
            t = nxt if nxt < _FAR else t + 1
    result.l1.merge(l1.stats)

    if not record:
        return t, None
    smrec = _SMRecord()
    smrec.cycles = t
    smrec.d_simd = result.issued_simd - pre_simd
    smrec.d_scalar = result.issued_scalar - pre_scalar
    smrec.d_skipped = result.skipped - pre_skipped
    smrec.d_threads = result.thread_ops - pre_threads
    smrec.d_prologue = result.prologue_cycles - pre_prologue
    smrec.d_dram = result.dram_accesses - pre_dram
    smrec.l1_accesses = l1.stats.accesses
    smrec.l1_hits = l1.stats.hits
    smrec.energy_subtotal = tuple(
        (key, pj - pre_energy.get(key, 0.0))
        for key, pj in evals.items()
        if pj != pre_energy.get(key, 0.0)
    )
    smrec.memlog = memlog
    return t, smrec
