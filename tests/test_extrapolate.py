"""Block-trace extrapolation: eligibility pass, fallback behaviour on
irregular workloads, verify-mode equivalence, and harness/report
plumbing (see docs/PERFORMANCE.md)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.isa import AtomOp, CmpOp, DType, KernelBuilder, Param
from repro.isa.kernel import Dim3, LaunchConfig
from repro.oracle.diff import check_spec
from repro.sim import (
    Device,
    ExtrapolationReport,
    FunctionalExecutor,
    TimingSimulator,
    check_eligibility,
    extrapolation_mode,
    tiny,
)
from repro.workloads import factory

CORPUS = Path(__file__).parent / "corpus"


# ----------------------------------------------------------------------
# Kernel factories
# ----------------------------------------------------------------------
def _vadd_kernel():
    b = KernelBuilder(
        "vadd",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True),
                Param("n", DType.S32)],
    )
    a_p, c_p, n_p = b.param(0), b.param(1), b.param(2)
    i = b.global_tid_x()
    ok = b.setp(CmpOp.LT, i, n_p)
    with b.if_then(ok):
        v = b.ld_global(b.addr(a_p, i, 4), DType.F32)
        b.st_global(b.addr(c_p, i, 4), b.mul(v, 2.0, DType.F32),
                    DType.F32)
    return b.build()


def _smem_kernel(threads):
    b = KernelBuilder(
        "smem",
        params=[Param("x", is_pointer=True), Param("o", is_pointer=True),
                Param("n", DType.S32)],
        shared_mem_bytes=4 * threads,
    )
    x_p, o_p, n_p = b.param(0), b.param(1), b.param(2)
    i = b.global_tid_x()
    t = b.tid_x()
    ok = b.setp(CmpOp.LT, i, n_p)
    with b.if_then(ok):
        v = b.ld_global(b.addr(x_p, i, 4), DType.F32)
        b.st_shared(b.shl(t, 2, DType.S64), v, DType.F32)
    b.bar()
    with b.if_then(ok):
        rev = b.shl(b.sub(threads - 1, t, DType.S64), 2, DType.S64)
        b.st_global(b.addr(o_p, i, 4), b.ld_shared(rev, DType.F32),
                    DType.F32)
    return b.build()


def _data_dependent_kernel():
    """Branch predicate computed from a loaded value: not affine."""
    b = KernelBuilder(
        "datadep",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    v = b.ld_global(b.addr(a_p, i, 4), DType.S32)
    ok = b.setp(CmpOp.GT, v, 10)
    with b.if_then(ok):
        b.st_global(b.addr(c_p, i, 4), v, DType.S32)
    return b.build()


def _loop_kernel():
    """Single-trip do/while: every predicate is affine, so the backward
    branch itself is what makes the kernel ineligible."""
    b = KernelBuilder(
        "loopy",
        params=[Param("c", is_pointer=True)],
    )
    c_p = b.param(0)
    i = b.global_tid_x()
    always = b.setp(CmpOp.GE, i, 0)
    with b.while_loop() as loop:
        b.st_global(b.addr(c_p, i, 4), i, DType.S32)
        loop.break_if(always)
    return b.build()


def _atomic_kernel():
    b = KernelBuilder(
        "atomy",
        params=[Param("c", is_pointer=True)],
    )
    c_p = b.param(0)
    i = b.global_tid_x()
    b.atom_global(AtomOp.ADD, b.addr(c_p, i, 4, disp=0), 1, DType.S32)
    return b.build()


def _launch(blocks=8, threads=128, args=()):
    return LaunchConfig(grid=Dim3(blocks), block=Dim3(threads), args=args)


def _run(kernel, mode, blocks=8, threads=128, n=1000, fill=None):
    """Execute on a fresh device with two float32 buffers; returns
    (trace, memory snapshot)."""
    dev = Device(tiny())
    rng = np.random.default_rng(3)
    total = blocks * threads
    data = (fill if fill is not None
            else rng.standard_normal(total).astype(np.float32))
    p0 = dev.upload(data)
    p1 = dev.alloc(4 * total)
    launch = _launch(blocks, threads, (p0, p1, n))
    trace = FunctionalExecutor(
        kernel, launch, dev.memory, extrapolate=mode
    ).run()
    return trace, dev.memory.buf.copy()


# ----------------------------------------------------------------------
# Eligibility pass
# ----------------------------------------------------------------------
class TestEligibility:
    def test_affine_kernel_is_eligible(self):
        ok, reason, _ = check_eligibility(
            _vadd_kernel(), _launch(args=(0, 4096, 1000))
        )
        assert ok and reason == ""

    def test_shared_memory_barrier_is_eligible(self):
        ok, reason, _ = check_eligibility(
            _smem_kernel(128), _launch(args=(0, 4096, 1000))
        )
        assert ok and reason == ""

    def test_data_dependent_branch_rejected(self):
        ok, reason, detail = check_eligibility(
            _data_dependent_kernel(), _launch(args=(0, 4096))
        )
        assert not ok and reason == "data-dependent-branch"
        assert "pc" in detail

    def test_backward_branch_rejected(self):
        ok, reason, _ = check_eligibility(
            _loop_kernel(), _launch(args=(0,))
        )
        assert not ok and reason == "backward-branch"

    def test_global_atomic_rejected(self):
        ok, reason, _ = check_eligibility(
            _atomic_kernel(), _launch(args=(0,))
        )
        assert not ok and reason == "global-atomics"

    def test_mode_knob(self, monkeypatch):
        assert extrapolation_mode("0") == "0"
        assert extrapolation_mode("off") == "0"
        assert extrapolation_mode("verify") == "verify"
        assert extrapolation_mode("1") == "1"
        monkeypatch.setenv("R2D2_EXTRAPOLATE", "verify")
        assert extrapolation_mode(None) == "verify"
        monkeypatch.delenv("R2D2_EXTRAPOLATE")
        assert extrapolation_mode(None) == "1"


# ----------------------------------------------------------------------
# Commit path: identical results, synthesized trace quality
# ----------------------------------------------------------------------
class TestCommitPath:
    def test_memory_identical_to_serial(self):
        kernel = _vadd_kernel()
        _, serial = _run(kernel, "0")
        trace, batched = _run(kernel, "1")
        assert np.array_equal(serial, batched)
        assert trace.extrapolation.eligible
        assert trace.extrapolation.blocks_extrapolated == 8

    def test_disabled_mode_reports_reason(self):
        trace, _ = _run(_vadd_kernel(), "0")
        report = trace.extrapolation
        assert not report.eligible and report.reason == "disabled"

    def test_grid_too_small_falls_back(self):
        trace, _ = _run(_vadd_kernel(), "1", blocks=2, n=250)
        assert trace.extrapolation.reason == "grid-too-small"

    def test_ineligible_kernel_reports_reason(self):
        kernel = _data_dependent_kernel()
        dev = Device(tiny())
        p0 = dev.upload(np.arange(1024, dtype=np.int32))
        p1 = dev.alloc(4 * 1024)
        trace = FunctionalExecutor(
            kernel, _launch(args=(p0, p1)), dev.memory, extrapolate="1"
        ).run()
        report = trace.extrapolation
        assert not report.eligible
        assert report.reason == "data-dependent-branch"
        d = report.to_dict()
        assert d["kernel"] == "datadep" and d["blocks_extrapolated"] == 0

    def test_sig_base_matches_static_issue_keys(self):
        trace, _ = _run(_vadd_kernel(), "1")
        bases = set()
        for block in trace.blocks:
            for warp in block.warps:
                assert warp.sig_base is not None
                assert warp.sig_base == tuple(
                    r.static_issue_key() for r in warp.records
                )
                bases.add(id(warp.sig_base))
        # Interning: identical streams share one tuple object.
        assert len(bases) < sum(len(b.warps) for b in trace.blocks)

    def test_timing_replay_agrees_on_synthesized_trace(self):
        trace, _ = _run(_vadd_kernel(), "1")
        fast = TimingSimulator(tiny(), trace, timing="fast").run()
        ref = TimingSimulator(tiny(), trace, timing="reference").run()
        assert fast.cycles == ref.cycles
        assert fast.issued_total == ref.issued_total


# ----------------------------------------------------------------------
# Verify mode
# ----------------------------------------------------------------------
class TestVerifyMode:
    def test_vadd_verifies(self):
        trace, _ = _run(_vadd_kernel(), "verify")
        report = trace.extrapolation
        assert report.verified and report.blocks_extrapolated == 8

    def test_shared_memory_barrier_verifies(self):
        trace, _ = _run(_smem_kernel(128), "verify")
        assert trace.extrapolation.verified

    def test_partial_tail_block_verifies(self):
        # n strictly inside the last block exercises the guard columns.
        trace, _ = _run(_vadd_kernel(), "verify", n=1000 - 17)
        assert trace.extrapolation.verified

    def test_corpus_specs_pass_with_verification(self):
        paths = sorted(CORPUS.glob("*.json"))
        assert paths, "regression corpus is empty"
        for path in paths:
            case = json.loads(path.read_text())
            report = check_spec(case["spec"])
            expect = case.get("expect")
            if expect:
                # generator-bug case: the spec itself is unsound and
                # must keep failing in exactly the recorded way
                got = sorted({v.kind for v in report.violations})
                assert got == sorted(expect), (
                    f"{path.name}: expected {sorted(expect)}, got {got}"
                )
            else:
                assert report.ok, (
                    f"{path.name}: "
                    + "; ".join(v.kind for v in report.violations)
                )


# ----------------------------------------------------------------------
# Irregular-workload fallback (bfs / btree / mummer)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "abbr,reasons",
    [
        ("BFS", {"data-dependent-branch"}),
        ("BTR", {"nonaffine-address", "backward-branch"}),
        ("MUM", {"nonaffine-address", "backward-branch"}),
    ],
)
def test_irregular_workload_falls_back(monkeypatch, abbr, reasons):
    outs = {}
    for mode in ("0", "1"):
        monkeypatch.setenv("R2D2_EXTRAPOLATE", mode)
        workload = factory(abbr)()
        dev = Device(tiny())
        launches = workload.prepare(dev)
        traces = [
            dev.launch(s.kernel, s.grid, s.block, s.args)
            for s in launches
        ]
        workload.check(dev)
        outs[mode] = dev.memory.buf.copy()
        if mode == "1":
            for trace in traces:
                report = trace.extrapolation
                assert isinstance(report, ExtrapolationReport)
                assert not report.eligible
                assert report.reason in reasons
                assert report.blocks_extrapolated == 0
    assert np.array_equal(outs["0"], outs["1"])


# ----------------------------------------------------------------------
# Harness plumbing
# ----------------------------------------------------------------------
def test_run_workload_collects_reports(monkeypatch):
    from repro.harness.runner import run_workload

    monkeypatch.setenv("R2D2_EXTRAPOLATE", "1")
    result = run_workload(
        factory("BFS"), config=tiny(), arch_names=("baseline",),
        jobs=1, cache=False,
    )
    decisions = [
        d for d in result.engine_decisions
        if d["engine"] == "extrapolate"
    ]
    assert decisions, "no extrapolate decisions collected"
    for entry in decisions:
        # BFS is loop-carried: every launch must carry a
        # machine-readable skip/bail reason.
        assert entry["decision"] in ("skip", "bail")
        assert entry["reason"]
