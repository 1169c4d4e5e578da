"""Unit tests for device memory models."""

import numpy as np
import pytest

from repro.isa import AtomOp, DType
from repro.sim import GlobalMemory, MemoryError_, SharedMemory


class TestAllocation:
    def test_alloc_respects_alignment(self):
        mem = GlobalMemory(1 << 16)
        a = mem.alloc(100)
        b = mem.alloc(100)
        assert a % 256 == 0
        assert b % 256 == 0
        assert b >= a + 100

    def test_address_zero_reserved(self):
        mem = GlobalMemory(1 << 16)
        assert mem.alloc(4) >= 256

    def test_oom_raises(self):
        mem = GlobalMemory(1 << 12)
        with pytest.raises(MemoryError_):
            mem.alloc(1 << 20)

    def test_alloc_array_roundtrip(self):
        mem = GlobalMemory(1 << 16)
        data = np.arange(100, dtype=np.float32)
        addr = mem.alloc_array(data)
        back = mem.read_array(addr, 100, np.float32)
        assert np.array_equal(back, data)


class TestGatherScatter:
    def setup_method(self):
        self.mem = GlobalMemory(1 << 16)
        self.base = self.mem.alloc_array(
            np.arange(64, dtype=np.int32)
        )

    def test_gather_int32(self):
        addrs = self.base + np.array([0, 4, 40])
        got = self.mem.gather(addrs, DType.S32)
        assert got.tolist() == [0, 1, 10]
        assert got.dtype == np.int64

    def test_gather_float_returns_float64(self):
        mem = GlobalMemory(1 << 16)
        addr = mem.alloc_array(np.array([1.5, 2.5], dtype=np.float32))
        got = mem.gather(np.array([addr, addr + 4]), DType.F32)
        assert got.dtype == np.float64
        assert got.tolist() == [1.5, 2.5]

    def test_scatter_then_gather(self):
        addrs = self.base + np.array([8, 12])
        self.mem.scatter(addrs, np.array([77, 88]), DType.S32)
        got = self.mem.gather(addrs, DType.S32)
        assert got.tolist() == [77, 88]

    def test_misaligned_access_raises(self):
        with pytest.raises(MemoryError_):
            self.mem.gather(np.array([self.base + 2]), DType.S32)

    def test_out_of_bounds_raises(self):
        with pytest.raises(MemoryError_):
            self.mem.gather(np.array([1 << 20]), DType.S32)

    def test_below_base_raises(self):
        with pytest.raises(MemoryError_):
            self.mem.gather(np.array([0]), DType.S32)

    def test_empty_access_is_noop(self):
        got = self.mem.gather(np.array([], dtype=np.int64), DType.S32)
        assert got.size == 0

    def test_wide_types(self):
        mem = GlobalMemory(1 << 16)
        addr = mem.alloc_array(np.array([1 << 40], dtype=np.int64))
        got = mem.gather(np.array([addr]), DType.S64)
        assert got[0] == 1 << 40


class TestAtomics:
    def test_atomic_add_returns_old(self):
        mem = GlobalMemory(1 << 16)
        addr = mem.alloc_array(np.array([10], dtype=np.int32))
        old = mem.atomic(
            AtomOp.ADD, np.array([addr, addr]), np.array([1, 2]),
            DType.S32,
        )
        assert old.tolist() == [10, 11]
        assert mem.read_array(addr, 1, np.int32)[0] == 13

    def test_atomic_min_lane_order(self):
        mem = GlobalMemory(1 << 16)
        addr = mem.alloc_array(np.array([100], dtype=np.int32))
        old = mem.atomic(
            AtomOp.MIN, np.array([addr, addr]), np.array([50, 70]),
            DType.S32,
        )
        assert old.tolist() == [100, 50]
        assert mem.read_array(addr, 1, np.int32)[0] == 50

    def test_atomic_float_add(self):
        mem = GlobalMemory(1 << 16)
        addr = mem.alloc_array(np.array([1.0], dtype=np.float32))
        mem.atomic(AtomOp.ADD, np.array([addr]), np.array([0.5]),
                   DType.F32)
        assert mem.read_array(addr, 1, np.float32)[0] == 1.5


class TestSharedMemory:
    def test_address_zero_valid(self):
        shared = SharedMemory(256)
        shared.scatter(np.array([0]), np.array([42]), DType.S32)
        assert shared.gather(np.array([0]), DType.S32)[0] == 42

    def test_minimum_size(self):
        shared = SharedMemory(0)
        assert shared.size >= 16


class TestExtentFork:
    """Speculative engines fork only the allocated extent of global
    memory; see docs/PERFORMANCE.md section 1."""

    def test_fork_covers_page_rounded_extent(self):
        mem = GlobalMemory(1 << 20)
        mem.alloc(5000)             # high-water mark 256 + 5000
        assert mem.extent == 8192
        fork = mem.fork()
        assert fork.buf.nbytes == fork.size == 8192

    def test_extent_capped_at_device_size(self):
        mem = GlobalMemory(6000)
        mem.alloc(5000)
        assert mem.extent == 6000

    def test_access_past_extent_faults_in_fork_only(self):
        mem = GlobalMemory(1 << 20)
        mem.alloc(64)
        past = np.array([mem.extent + 64])
        mem.scatter(past, np.array([5]), DType.S32)   # legal serially
        with pytest.raises(MemoryError_):
            mem.fork().gather(past, DType.S32)

    def test_commit_leaves_bytes_past_extent_untouched(self):
        mem = GlobalMemory(1 << 20)
        addr = mem.alloc_array(np.arange(16, dtype=np.int32))
        tail_addr = mem.extent + 128
        mem.write_bytes(tail_addr, np.array([77, 78], dtype=np.int32))
        fork = mem.fork()
        fork.scatter(np.array([addr]), np.array([-1]), DType.S32)
        mem.commit(fork)
        assert mem.read_array(addr, 2, np.int32).tolist() == [-1, 1]
        assert mem.read_array(tail_addr, 2, np.int32).tolist() == [77, 78]

    @pytest.mark.parametrize("dirty_tail", [False, True])
    def test_fork_mismatch_sees_head_and_tail(self, dirty_tail):
        mem = GlobalMemory(1 << 20)
        addr = mem.alloc_array(np.arange(16, dtype=np.int32))
        n = mem.extent
        if dirty_tail:
            mem.write_bytes(n + 8, np.array([3], dtype=np.int32))
        fork = mem.fork()
        tail = mem.tail_snapshot(fork.size)
        assert (tail is None) is not dirty_tail
        assert mem.fork_mismatch(fork, tail) is None
        mem.buf[n + 40] ^= 1
        assert "first at address %d" % (n + 40) in mem.fork_mismatch(
            fork, tail
        )
        mem.buf[n + 40] ^= 1
        mem.buf[addr] ^= 1
        assert "first at address %d" % addr in mem.fork_mismatch(
            fork, tail
        )
