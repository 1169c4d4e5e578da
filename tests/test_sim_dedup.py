"""SM cloning in the event-driven timing engine, against the reference loop.

The clone layer (``repro.sim.timing_fast.run_fast``) must be *exact* for
every integer observable of a ``TimingResult`` / ``ArchStats``: cycles,
issue counts, skip counts, thread ops, cache events, DRAM accesses.
Energy is bit-exact whenever no SM is cloned; a cloned SM adds its
recorded per-component subtotals instead of replaying every
floating-point accumulation, which reorders additions and may differ in
the last ULP — hence energy is compared with a tight relative
tolerance.  See docs/PERFORMANCE.md §6 ("SM cloning").
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.harness.runner import run_workload
from repro.isa import CmpOp, DType, KernelBuilder, Param
from repro.sim import Device, TimingSimulator, tiny
from repro.sim import timing_fast
from repro.workloads import factory

# Mixed coverage on purpose: barrier-heavy (LUD, BP), divergent /
# data-dependent (BFS, MUM), and regular near-100%-duplicate streams
# (NN, GEM).
WORKLOADS = ("LUD", "BP", "BFS", "MUM", "NN", "GEM")

TIMING_INT_FIELDS = (
    "cycles",
    "issued_simd",
    "issued_scalar",
    "skipped",
    "thread_ops",
    "prologue_cycles",
    "dram_accesses",
    "sms_used",
)

STATS_INT_FIELDS = (
    "warp_instructions",
    "thread_instructions",
    "cycles",
    "linear_warp_instructions",
    "linear_cycles",
    "scalar_instructions",
    "skipped_instructions",
    "fallback_launches",
    "launches",
    "sms_used",
)


def _assert_timing_equal(fast, ref):
    for name in TIMING_INT_FIELDS:
        assert getattr(fast, name) == getattr(ref, name), name
    assert (fast.l1.accesses, fast.l1.hits) == (ref.l1.accesses,
                                                ref.l1.hits)
    assert (fast.l2.accesses, fast.l2.hits) == (ref.l2.accesses,
                                                ref.l2.hits)
    assert fast.energy.total() == pytest.approx(
        ref.energy.total(), rel=1e-9
    )
    for key, value in ref.energy.values.items():
        assert fast.energy.values.get(key, 0.0) == pytest.approx(
            value, rel=1e-9
        ), key


def _fast_and_reference(config, trace):
    fast = TimingSimulator(config, trace, timing="fast").run()
    ref = TimingSimulator(config, trace, timing="reference").run()
    return fast, ref


@pytest.mark.parametrize("abbr", WORKLOADS)
def test_run_workload_dedup_equivalence(abbr, monkeypatch):
    """All timing architectures, default engine vs reference loop, on
    real workloads."""
    arches = ("baseline", "dac", "darsie", "darsie+scalar", "r2d2")

    def sweep(timing):
        monkeypatch.setenv("R2D2_TIMING", timing)
        return run_workload(
            factory(abbr, "tiny"), arch_names=arches, verify=False
        )

    ref = sweep("reference")
    fast = sweep("fast")
    for arch in arches:
        r, f = ref.stats[arch], fast.stats[arch]
        for name in STATS_INT_FIELDS:
            assert getattr(f, name) == getattr(r, name), (arch, name)
        assert f.energy_pj == pytest.approx(r.energy_pj, rel=1e-9), arch


def _traces_for(abbr, config):
    workload = factory(abbr, "tiny")()
    device = Device(config)
    launches = workload.prepare(device)
    return [
        device.launch(spec.kernel, spec.grid, spec.block, spec.args)
        for spec in launches
    ]


@pytest.mark.parametrize("abbr", ("LUD", "BFS", "NN"))
def test_timing_simulator_dedup_equivalence(abbr):
    """Direct TimingSimulator comparison, per launch, tiny config."""
    config = tiny()
    for trace in _traces_for(abbr, config):
        _assert_timing_equal(*_fast_and_reference(config, trace))


def _vadd_trace(config, n=4096, shared_input=False):
    """A vadd-style stream (>90% duplicate warps).  With
    ``shared_input`` every block reads the same ``a[threadIdx]`` slice,
    so SMs after the first find its lines in the shared L2."""
    b = KernelBuilder(
        "vadd",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True),
                Param("n", DType.S32)],
    )
    a_p, c_p, n_p = b.param(0), b.param(1), b.param(2)
    i = b.global_tid_x()
    ok = b.setp(CmpOp.LT, i, n_p)
    with b.if_then(ok):
        src = b.tid_x() if shared_input else i
        v = b.ld_global(b.addr(a_p, src, 4), DType.F32)
        b.st_global(b.addr(c_p, i, 4), b.mul(v, 2.0, DType.F32),
                    DType.F32)
    kernel = b.build()
    dev = Device(config)
    da = dev.upload(np.ones(n, dtype=np.float32))
    dc = dev.alloc(4 * n)
    return dev.launch(kernel, n // 256, 256, (da, dc, n))


def test_dedup_many_identical_warps_is_exact_and_engaged():
    """A vadd-style stream (>90% duplicate warps) is a regular multi-SM
    GTO kernel: the clone layer fires, and every integer field plus the
    L1/L2 stats equal the reference loop's."""
    config = tiny()
    trace = _vadd_trace(config)
    obs.reset()
    fast, ref = _fast_and_reference(config, trace)
    assert obs.counter_value("dedup.sms.cloned", kernel="vadd") > 0
    _assert_timing_equal(fast, ref)


def test_natural_clone_reject_rolls_back_and_matches():
    """SMs whose inputs the first SM already pulled into L2 replay to
    different outcomes: the clone is rejected, the L2 rolled back, and
    the SM simulated in full — still matching the reference."""
    config = tiny()
    trace = _vadd_trace(config, shared_input=True)
    obs.reset()
    fast, ref = _fast_and_reference(config, trace)
    assert obs.counter_value("dedup.clone_rejects", kernel="vadd") > 0
    _assert_timing_equal(fast, ref)


def test_forced_clone_reject_rolls_back_l2(monkeypatch):
    """Corrupt the last recorded outcome so every clone attempt replays
    all of its accesses into the shared L2 before failing: the rollback
    must leave L2 contents and stats exactly as the reference has them."""
    real = timing_fast._try_clone

    def corrupted(sim, rec, blocks, result):
        if rec.memlog:
            *head, last = rec.memlog
            rec.memlog = head + [(*last[:3], last[3] + 1, *last[4:])]
        return real(sim, rec, blocks, result)

    monkeypatch.setattr(timing_fast, "_try_clone", corrupted)
    config = tiny()
    trace = _vadd_trace(config)
    obs.reset()
    fast, ref = _fast_and_reference(config, trace)
    assert obs.counter_value("dedup.clone_rejects", kernel="vadd") > 0
    assert obs.counter_value("dedup.sms.cloned", kernel="vadd") == 0
    _assert_timing_equal(fast, ref)
    # With no clone committed, energy is the exact float sequence.
    assert fast.energy.values == ref.energy.values


def test_dedup_falls_back_on_non_gto_scheduler():
    """Cloning is GTO-only: a round-robin run simulates every SM and is
    bit-identical to the reference, energy included."""
    config = dataclasses.replace(tiny(), scheduler_policy="rr")
    obs.reset()
    for trace in _traces_for("NN", config) + [_vadd_trace(config)]:
        fast, ref = _fast_and_reference(config, trace)
        _assert_timing_equal(fast, ref)
        assert fast.energy.values == ref.energy.values
    assert obs.counter_total("dedup.sms.cloned") == 0
    assert obs.counter_total("dedup.runs") == 0


def test_verify_passes_where_clones_fire(monkeypatch):
    """``R2D2_TIMING=verify`` runs the exact (clone-free) path against
    the reference loop on a trace where the default run clones."""
    config = tiny()
    trace = _vadd_trace(config)
    obs.reset()
    TimingSimulator(config, trace, timing="fast").run()
    assert obs.counter_value("dedup.sms.cloned", kernel="vadd") > 0
    monkeypatch.setenv("R2D2_TIMING", "verify")
    verified = TimingSimulator(config, trace).run()
    ref = TimingSimulator(config, trace, timing="reference").run()
    _assert_timing_equal(verified, ref)
    assert obs.counter_value(
        "timing.engine", kernel="vadd", engine="verify"
    ) == 1
