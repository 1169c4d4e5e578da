"""Megawarp vector engine: bit-identity with the serial interpreter on
divergent kernels, hazard-driven fallback, verify mode, and report
plumbing (see docs/PERFORMANCE.md)."""

from dataclasses import asdict

import numpy as np
import pytest

from repro import obs
from repro.arch.r2d2 import R2D2Arch
from repro.harness.report import format_fallbacks, obs_kernel_table
from repro.isa import (
    AtomOp,
    CmpOp,
    DType,
    Instruction,
    Kernel,
    KernelBuilder,
    Opcode,
    Param,
)
from repro.isa.kernel import Dim3, LaunchConfig
from repro.isa.operands import (
    CoeffRegOperand,
    LinearRef,
    LinearRegOperand,
    MemRef,
    Reg,
)
from repro.oracle.diff import check_spec
from repro.oracle.kernelgen import KernelGen
from repro.sim import (
    Device,
    ExtrapolationMismatch,
    FunctionalExecutor,
    VectorMismatch,
    tiny,
    vector_mode,
)
from repro.sim.caches import Cache
from repro.sim.vector import MIN_WARPS
from repro.transform.decouple import r2d2_transform
from repro.transform.values import R2D2Values
from repro.workloads import factory
import random


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
        v = b.ld_global(b.addr(a_p, i, 4), DType.S32)
        b.st_global(b.addr(c_p, i, 4), b.add(v, 7), DType.S32)
    return b.build()


def _collatz_kernel():
    """Data-dependent while loop with an if/else inside — maximally
    divergent trip counts and per-lane control flow."""
    b = KernelBuilder(
        "collatz",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    v = b.ld_global(b.addr(a_p, i, 4), DType.S32)
    steps = b.mov(0)
    with b.while_loop() as loop:
        done = b.setp(CmpOp.LE, v, 1)
        loop.break_if(done)
        odd = b.setp(CmpOp.EQ, b.and_(v, 1), 1)
        with b.if_else(odd) as (then, otherwise):
            with then:
                b.mov_to(v, b.add(b.mul(v, 3), 1))
            with otherwise:
                b.mov_to(v, b.shr(v, 1))
        b.add_to(steps, steps, 1)
    b.st_global(b.addr(c_p, i, 4), steps, DType.S32)
    return b.build()


def _dyntrip_kernel():
    """Loop whose trip count is a masked loaded value: non-uniform
    across lanes (the shape kernelgen's ``dynloop`` op generates)."""
    b = KernelBuilder(
        "dyntrip",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    v = b.ld_global(b.addr(a_p, i, 4), DType.S32)
    n = b.and_(v, 7)
    acc = b.mov(0)
    with b.for_range(0, n) as k:
        b.add_to(acc, acc, k)
    b.st_global(b.addr(c_p, i, 4), acc, DType.S32)
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
        v = b.ld_global(b.addr(x_p, i, 4), DType.S32)
        b.st_shared(b.shl(t, 2, DType.S64), v, DType.S32)
    b.bar()
    with b.if_then(ok):
        rev = b.shl(b.sub(threads - 1, t, DType.S64), 2, DType.S64)
        b.st_global(b.addr(o_p, i, 4), b.ld_shared(rev, DType.S32),
                    DType.S32)
    return b.build()


def _atomic_counter_kernel():
    """All lanes of all warps atomically bump one word; the returned
    old values depend on the exact lane order, which must match the
    serial schedule bit-for-bit."""
    b = KernelBuilder(
        "atomcnt",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    old = b.atom_global(AtomOp.ADD, b.addr(c_p, 0, 4, disp=0), 1,
                        DType.S32)
    b.st_global(b.addr(c_p, b.add(i, 1), 4), old, DType.S32)
    return b.build()


def _rw_conflict_kernel():
    """Every thread writes its own slot, then reads slot 0 (written by
    another warp at a different step): a true cross-warp read/write
    hazard the megawarp cannot reorder safely."""
    b = KernelBuilder(
        "rwconf",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    b.st_global(b.addr(c_p, i, 4), i, DType.S32)
    v = b.ld_global(b.addr(c_p, 0, 4, disp=0), DType.S32)
    b.st_global(b.addr(a_p, i, 4), b.add(v, i), DType.S32)
    return b.build()


def _past_extent_kernel():
    """vadd whose store lands 1 MiB past its output buffer: beyond the
    allocation high-water mark, which is legal serially (the device is
    64 MiB) but outside every speculative engine's fork."""
    b = KernelBuilder(
        "pastext",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True),
                Param("n", DType.S32)],
    )
    a_p, c_p, n_p = b.param(0), b.param(1), b.param(2)
    i = b.global_tid_x()
    ok = b.setp(CmpOp.LT, i, n_p)
    with b.if_then(ok):
        v = b.ld_global(b.addr(a_p, i, 4), DType.S32)
        b.st_global(b.addr(c_p, i, 4, disp=1 << 20), b.add(v, 7),
                    DType.S32)
    return b.build()


def _block_indexed_kernel():
    """``c[gid] = a[ctaid.x]``: R2D2 turns the load address into a
    block-only ``%lr`` (no thread part) and the store into a
    thread+block one."""
    b = KernelBuilder(
        "blkidx",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    v = b.ld_global(b.addr(a_p, b.ctaid_x(), 4), DType.S32)
    b.st_global(b.addr(c_p, i, 4), v, DType.S32)
    return b.build()


def _linear_operand_kernel(a_addr, c_addr):
    """A hand-written stream over vadd's R2D2 plan (``%lr0`` = &a[i],
    ``%lr1`` = i, ``%cr0`` = n, ``%cr1`` = c - a) using the operand
    shapes the transform emits rarely: ``%lr`` with ``disp`` and a
    ``%cr`` delta as an arithmetic source, and a ``LinearRef`` with no
    ``%lr`` at all.  Computes ``c[i] = a[3] + i + 100`` for ``i < n``."""
    p1 = Reg("%p1", DType.PRED)
    r1, r2 = Reg("%r1", DType.S32), Reg("%r2", DType.S32)
    rd1 = Reg("%rd1", DType.S64)
    instrs = [
        Instruction(Opcode.SETP, DType.S32, dst=p1, cmp=CmpOp.LT,
                    srcs=(LinearRegOperand(1), CoeffRegOperand(0))),
        Instruction(Opcode.BRA, pred=p1, pred_negated=True,
                    target="END"),
        # %cr1 + disp = (c - a) + (2a - c + 12) = &a[3]
        Instruction(Opcode.LD_GLOBAL, DType.S32, dst=r1, srcs=(
            LinearRef(None, cr_id=1, disp=2 * a_addr - c_addr + 12),
        )),
        # &a[i] + (c - a) + 4 = &c[i + 1]
        Instruction(Opcode.MOV, DType.S64, dst=rd1,
                    srcs=(LinearRegOperand(0, cr_id=1, disp=4),)),
        Instruction(Opcode.ADD, DType.S32, dst=r2,
                    srcs=(r1, LinearRegOperand(1, disp=100))),
        Instruction(Opcode.ST_GLOBAL, DType.S32,
                    srcs=(MemRef(rd1, -4), r2)),
        Instruction(Opcode.EXIT),
    ]
    params = [Param("a", is_pointer=True), Param("c", is_pointer=True),
              Param("n", DType.S32)]
    return Kernel("linops.r2d2", params, instrs, {"END": 6})


def _launch(blocks=8, threads=128, args=()):
    return LaunchConfig(grid=Dim3(blocks), block=Dim3(threads), args=args)


def _run(kernel, mode, blocks=8, threads=128, n=1000, fill=None,
         extrapolate="0"):
    """Execute on a fresh device with an int32 input buffer and an
    output buffer; returns (trace, memory snapshot)."""
    dev = Device(tiny())
    rng = np.random.default_rng(7)
    total = blocks * threads
    data = (fill if fill is not None
            else rng.integers(1, 60, total).astype(np.int32))
    p0 = dev.upload(data)
    p1 = dev.alloc(4 * (total + 8))
    args = (p0, p1, n)[: len(kernel.params)]
    launch = _launch(blocks, threads, args)
    trace = FunctionalExecutor(
        kernel, launch, dev.memory, extrapolate=extrapolate, vector=mode
    ).run()
    return trace, dev.memory.buf.copy()


def _r2d2_run(abbr, mode, monkeypatch):
    """One tiny-scale R2D2 run of a workload under ``R2D2_VECTOR=mode``;
    returns (traces, memory snapshot, ArchStats)."""
    monkeypatch.setenv("R2D2_VECTOR", mode)
    config = tiny()
    wl = factory(abbr, "tiny")()
    dev = Device(config)
    arch = R2D2Arch()
    stats = arch.make_stats()
    l2 = Cache(config.l2)
    traces = [
        arch.execute_launch(
            dev, spec.kernel, spec.grid, spec.block, spec.args, config,
            stats, l2=l2,
        )
        for spec in wl.prepare(dev)
    ]
    wl.check(dev)
    return traces, dev.memory.buf.copy(), stats


def _records(trace):
    return [
        (b.block_linear_id, w.warp_in_block, r.pc, r.active, r.uniform,
         r.affine, r.src_hash, r.lines, r.shared, r.bank_conflict)
        for b, w, r in trace.records()
    ]


# ----------------------------------------------------------------------
# Knob
# ----------------------------------------------------------------------
class TestModeKnob:
    def test_mode_values(self):
        assert vector_mode("0") == "0"
        assert vector_mode("off") == "0"
        assert vector_mode("FALSE") == "0"
        assert vector_mode("verify") == "verify"
        assert vector_mode("1") == "1"
        assert vector_mode("bogus") == "1"

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("R2D2_VECTOR", "verify")
        assert vector_mode(None) == "verify"
        monkeypatch.delenv("R2D2_VECTOR")
        assert vector_mode(None) == "1"


# ----------------------------------------------------------------------
# Commit path: bit-identical memory and traces
# ----------------------------------------------------------------------
class TestCommitPath:
    @pytest.mark.parametrize(
        "factory",
        [_vadd_kernel, _collatz_kernel, _dyntrip_kernel],
        ids=["regular", "collatz", "dyntrip"],
    )
    def test_memory_identical_to_serial(self, factory):
        kernel = factory()
        _, serial = _run(kernel, "0")
        trace, vectored = _run(kernel, "1")
        assert np.array_equal(serial, vectored)
        report = trace.vector
        assert report.engaged and not report.bailed
        assert report.warps_vectorized == report.warps_total

    def test_partial_warp_block(self):
        # 48 threads/block: the second warp of each block is half full.
        kernel = _collatz_kernel()
        _, serial = _run(kernel, "0", threads=48)
        trace, vectored = _run(kernel, "1", threads=48)
        assert np.array_equal(serial, vectored)
        assert trace.vector.engaged

    def test_disabled_mode_reports_reason(self):
        trace, _ = _run(_collatz_kernel(), "0")
        report = trace.vector
        assert not report.engaged and report.reason == "disabled"

    def test_launch_too_small_falls_back(self):
        trace, _ = _run(_collatz_kernel(), "1", blocks=2, threads=32)
        assert trace.vector.reason == "launch-too-small"

    def test_extrapolated_launch_is_left_alone(self):
        dev = Device(tiny())
        total = 8 * 128
        p0 = dev.upload(np.arange(total, dtype=np.int32))
        p1 = dev.alloc(4 * (total + 8))
        trace = FunctionalExecutor(
            _vadd_kernel(), _launch(args=(p0, p1, 1000)), dev.memory,
            extrapolate="1", vector="1",
        ).run()
        assert trace.extrapolation.blocks_extrapolated == 8
        assert trace.vector.reason == "extrapolated"

    def test_sig_base_matches_static_issue_keys(self):
        trace, _ = _run(_collatz_kernel(), "1")
        for block in trace.blocks:
            for warp in block.warps:
                assert warp.sig_base == tuple(
                    r.static_issue_key() for r in warp.records
                )

    def test_report_to_dict(self):
        trace, _ = _run(_collatz_kernel(), "1")
        d = trace.vector.to_dict()
        assert d["kernel"] == "collatz" and d["engaged"] is True
        assert d["warps_vectorized"] == d["warps_total"] > 0


# ----------------------------------------------------------------------
# Hazard net: fall back, never corrupt
# ----------------------------------------------------------------------
class TestHazardFallback:
    def test_cross_warp_rw_conflict_bails(self):
        kernel = _rw_conflict_kernel()
        _, serial = _run(kernel, "0")
        trace, vectored = _run(kernel, "1")
        report = trace.vector
        assert report.bailed
        assert report.reason.endswith("memory-conflict")
        # the serial rerun after the bail produced the exact serial
        # result
        assert np.array_equal(serial, vectored)

    def test_bail_counts_in_obs(self):
        obs.reset()
        _run(_rw_conflict_kernel(), "1")
        counters = obs.snapshot_and_reset()["counters"]
        assert any(
            key.startswith("vector.bailed") and "rwconf" in key
            for key in counters
        )


# ----------------------------------------------------------------------
# Verify mode
# ----------------------------------------------------------------------
class TestVerifyMode:
    @pytest.mark.parametrize(
        "factory",
        [_vadd_kernel, _collatz_kernel, _dyntrip_kernel],
        ids=["regular", "collatz", "dyntrip"],
    )
    def test_divergent_kernels_verify(self, factory):
        trace, _ = _run(factory(), "verify")
        report = trace.vector
        assert report.engaged and report.verified

    def test_shared_memory_barrier_verifies(self):
        trace, _ = _run(_smem_kernel(128), "verify")
        assert trace.vector.verified

    def test_atomic_lane_order_verifies(self):
        trace, _ = _run(_atomic_counter_kernel(), "verify")
        assert trace.vector.verified

    def test_single_warp_verifies(self):
        # verify mode drops the engagement floor to one warp
        trace, _ = _run(_collatz_kernel(), "verify", blocks=1, threads=32)
        assert trace.vector.engaged and trace.vector.verified

    def test_partial_tail_verifies(self):
        trace, _ = _run(_vadd_kernel(), "verify", n=1000 - 17)
        assert trace.vector.verified

    def test_chunked_execution_verifies(self, monkeypatch):
        # force multiple chunks so chunk boundaries are exercised
        monkeypatch.setenv("R2D2_VECTOR_CHUNK", "8")
        trace, _ = _run(_collatz_kernel(), "verify")
        assert trace.vector.verified

    def test_divergence_biased_specs_pass_oracle(self):
        """Generated divergent specs run the full oracle, whose vector
        section verifies and commit-compares the megawarp."""
        for k in range(6):
            gen = KernelGen(
                random.Random(f"vectest:{k}"), divergent_bias=1.0
            )
            spec = gen.generate(f"vd{k}")
            report = check_spec(spec)
            assert report.ok, (
                f"{spec['name']}: "
                + "; ".join(str(v) for v in report.violations)
            )


# ----------------------------------------------------------------------
# R2D2-transformed launches (%lr / %cr operands)
# ----------------------------------------------------------------------
class TestTransformedLaunches:
    @pytest.mark.parametrize("abbr", ["DWT", "NN", "BP", "LUD", "RED0"])
    def test_bit_identical_across_modes(self, abbr, monkeypatch):
        runs = {
            mode: _r2d2_run(abbr, mode, monkeypatch)
            for mode in ("0", "1", "verify")
        }
        ref_traces, ref_mem, ref_stats = runs["0"]
        for mode in ("1", "verify"):
            traces, mem, stats = runs[mode]
            assert np.array_equal(mem, ref_mem), mode
            assert [_records(t) for t in traces] == [
                _records(t) for t in ref_traces
            ], mode
            # every field, energy floats included
            assert asdict(stats) == asdict(ref_stats), mode
        transformed = [
            (t1, tv)
            for t1, tv in zip(runs["1"][0], runs["verify"][0])
            if t1.kernel.name.endswith(".r2d2")
        ]
        assert transformed
        for t1, tv in transformed:
            if t1.vector.warps_total >= MIN_WARPS:
                assert t1.vector.engaged and not t1.vector.bailed
                assert t1.vector.reason == ""
                assert t1.vector.warps_vectorized == t1.vector.warps_total
            else:
                assert t1.vector.reason == "launch-too-small"
            assert tv.vector.engaged and tv.vector.verified

    def test_only_the_extrapolator_skips_transformed(self, monkeypatch):
        traces, _, _ = _r2d2_run("NN", "1", monkeypatch)
        (trace,) = traces
        assert trace.extrapolation.reason == "transformed-kernel"
        assert trace.vector.engaged
        assert trace.vector.reason != "transformed-kernel"

    def test_lr_block_values_match_per_warp_reference(self):
        """The batched ``%lr`` matrix the megawarp uses equals
        ``lr_lane_values`` warp by warp, for thread+block and
        block-only entries, on a 2-D grid."""
        rk = r2d2_transform(_block_indexed_kernel())
        assert {e.tr_id is None for e in rk.plan.entries} == {True, False}
        launch = LaunchConfig(
            grid=Dim3(3, 2), block=Dim3(48), args=(4096, 1 << 16)
        )
        values = R2D2Values(rk.plan, launch)
        ex = FunctionalExecutor(
            rk.transformed, launch, Device(tiny()).memory,
            linear_values=values,
        )
        blocks = [launch.grid.linear_to_xyz(b) for b in range(6)]
        lanes = [ex._make_warp(w, (0, 0, 0)) for w in range(2)]
        for lr in range(len(rk.plan.entries)):
            expect = np.stack([
                values.lr_lane_values(lr, ex._make_warp(w, xyz))
                for xyz in blocks for w in range(2)
            ])
            got = values.lr_block_values(lr, lanes, blocks)
            assert got.dtype == np.int64
            assert np.array_equal(got, expect)

    def test_lr_disp_cr_and_lr_free_linear_ref(self):
        rk = r2d2_transform(_vadd_kernel())
        results = {}
        for mode in ("0", "1", "verify"):
            dev = Device(tiny())
            data = np.arange(1024, dtype=np.int32) * 3 + 5
            a = dev.upload(data)
            c = dev.alloc(4 * (1024 + 8))
            launch = _launch(args=(a, c, 1000))
            trace = FunctionalExecutor(
                _linear_operand_kernel(a, c), launch, dev.memory,
                linear_values=R2D2Values(rk.plan, launch),
                extrapolate="0", vector=mode,
            ).run()
            out = dev.download(c, 1024, np.int32)
            assert out[:1000].tolist() == [
                int(data[3]) + i + 100 for i in range(1000)
            ]
            results[mode] = (trace, dev.memory.buf.copy())
        ref_trace, ref_mem = results["0"]
        for mode in ("1", "verify"):
            trace, mem = results[mode]
            assert np.array_equal(mem, ref_mem)
            assert _records(trace) == _records(ref_trace)
            assert trace.vector.engaged and not trace.vector.bailed
        assert results["verify"][0].vector.verified


# ----------------------------------------------------------------------
# Extent forks: speculative engines copy only the allocated extent
# ----------------------------------------------------------------------
class TestExtentFork:
    @pytest.mark.parametrize("engine", ["extrapolate", "vector"])
    def test_store_past_extent_bails_to_serial(self, engine):
        kernel = _past_extent_kernel()
        _, serial = _run(kernel, "0")
        if engine == "extrapolate":
            trace, mem = _run(kernel, "0", extrapolate="1")
            report = trace.extrapolation
        else:
            trace, mem = _run(kernel, "1")
            report = trace.vector
        assert report.bailed and report.reason == "memory-error"
        assert np.array_equal(mem, serial)
        assert serial[1 << 20:].any()   # the store did land serially

    @pytest.mark.parametrize("engine", ["extrapolate", "vector"])
    @pytest.mark.parametrize("region", ["head", "tail"])
    def test_verify_raises_on_planted_divergence(
        self, engine, region, monkeypatch
    ):
        """A byte the serial run changes but the speculative fork did
        not — inside the fork's extent or past it — must be caught."""
        original = FunctionalExecutor._run_block

        def planted(self, block_id, block_xyz):
            out = original(self, block_id, block_xyz)
            if block_id == 0:
                mem = self.memory
                where = mem.extent - 1 if region == "head" else (
                    mem.extent + 4096
                )
                mem.buf[where] ^= 0x5A
            return out

        monkeypatch.setattr(FunctionalExecutor, "_run_block", planted)
        if engine == "extrapolate":
            with pytest.raises(ExtrapolationMismatch, match="memory"):
                _run(_vadd_kernel(), "0", extrapolate="verify")
        else:
            with pytest.raises(VectorMismatch, match="memory"):
                _run(_vadd_kernel(), "verify")


# ----------------------------------------------------------------------
# Report plumbing (harness fallback column)
# ----------------------------------------------------------------------
class TestReportPlumbing:
    def test_format_fallbacks_orders_and_counts(self):
        out = format_fallbacks(
            {"cross-warp-memory-conflict": 3, "deadlock": 1}
        )
        assert out == "cross-warp-memory-conflict x3, deadlock"
        assert format_fallbacks({}) == ""

    def test_obs_kernel_table_shows_vector_columns(self):
        obs.reset()
        _run(_collatz_kernel(), "1")
        _run(_rw_conflict_kernel(), "1")
        snapshot = obs.snapshot_and_reset()
        table = obs_kernel_table(snapshot)
        assert "vwarps" in table.columns and "vfallback" in table.columns
        by_kernel = {row[0]: row for row in table.rows}
        vfall = table.columns.index("vfallback")
        vwarps = table.columns.index("vwarps")
        assert "memory-conflict" in by_kernel["rwconf"][vfall]
        assert int(by_kernel["collatz"][vwarps]) > 0
