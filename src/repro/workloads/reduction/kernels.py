"""Kernel builders for the classic CUDA reduction ladder.

The seven variants follow Mark Harris's "Optimizing Parallel Reduction
in CUDA" progression: each fixes one bottleneck of the previous one, and
together they sweep addressing from fully divergent (`tid % (2*s)`)
through strided shared-memory indexing to affine unrolled form — exactly
the regimes where R2D2's linearity analysis degrades step by step.

Every kernel computes per-block partial sums of an int32 array: block
``c`` writes ``sum(input[slice_c])`` to ``g_odata[c]``.  Summation is
integer, so results are bit-exact in any association order and the
serial/vector engines and the timing engines can be compared
bit-for-bit.

``block`` (threads per block) is a build-time parameter: the warp-unroll
and full-unroll variants specialize the tree on it, and all variants use
it to size shared memory.  It must be a power of two ≥ 64 so the last
warp of the tree is full.
"""

from __future__ import annotations

from ...isa import CmpOp, DType, Kernel, KernelBuilder, Param
from ...isa.operands import Reg

#: The lockstep warp width both interpreters guarantee; the warp-unroll
#: variant relies on it (no barrier inside the last warp's tree).
WARP = 32


def _check_block(block: int) -> None:
    if block < 2 * WARP or block & (block - 1):
        raise ValueError(
            f"reduction kernels need a power-of-two block >= {2 * WARP}, "
            f"got {block}"
        )


def _saddr(b: KernelBuilder, sidx) -> Reg:
    """Shared-memory byte address of int32 slot ``sidx`` (the canonical
    ``shl``+``cvt`` idiom, same as hotspot's tile staging)."""
    return b.cvt(b.shl(sidx, 2), DType.S64)


def _params():
    return [
        Param("g_idata", is_pointer=True),
        Param("g_odata", is_pointer=True),
    ]


def _stage_one(b: KernelBuilder):
    """sdata[tid] = g_idata[blockIdx.x*blockDim.x + threadIdx.x]."""
    g_in = b.param(0)
    tid = b.tid_x()
    i = b.mad(b.ctaid_x(), b.ntid_x(), tid)
    v = b.ld_global(b.addr(g_in, i, 4), DType.S32)
    sa = _saddr(b, tid)
    b.st_shared(sa, v, DType.S32)
    b.bar()
    return tid, sa


def _stage_two(b: KernelBuilder, block: int):
    """First add during global load: each thread folds two elements,
    ``sdata[tid] = g[i] + g[i + blockDim.x]`` with ``i`` spanning a
    double-width block slice."""
    g_in = b.param(0)
    tid = b.tid_x()
    span = b.shl(b.ntid_x(), 1)
    i = b.mad(b.ctaid_x(), span, tid)
    base = b.addr(g_in, i, 4)
    lo = b.ld_global(base, DType.S32)
    hi = b.ld_global(base, DType.S32, disp=4 * block)
    sa = _saddr(b, tid)
    b.st_shared(sa, b.add(lo, hi), DType.S32)
    b.bar()
    return tid, sa


def _write_result(b: KernelBuilder, tid, sa) -> None:
    """if (tid == 0) g_odata[blockIdx.x] = sdata[0] — inside the guard
    ``sa`` is the address of slot 0."""
    g_out = b.param(1)
    with b.if_then(b.setp(CmpOp.EQ, tid, 0)):
        total = b.ld_shared(sa, DType.S32)
        b.st_global(b.addr(g_out, b.ctaid_x(), 4), total, DType.S32)


def _sequential_tree(b: KernelBuilder, tid, sa, start: int,
                     down_to: int = 1) -> None:
    """for (s = start; s >= down_to; s >>= 1)
           { if (tid < s) sdata[tid] += sdata[tid+s]; barrier; }"""
    s = b.mov(start, DType.S32)
    with b.while_loop() as loop:
        loop.break_if(b.setp(CmpOp.LT, s, down_to))
        with b.if_then(b.setp(CmpOp.LT, tid, s)):
            mine = b.ld_shared(sa, DType.S32)
            partner = b.ld_shared(_saddr(b, b.add(tid, s)), DType.S32)
            b.st_shared(sa, b.add(mine, partner), DType.S32)
        b.bar()
        b.mov_to(s, b.shr(s, 1))


def _warp_tree(b: KernelBuilder, tid, sa) -> None:
    """Unrolled last-warp tree: all 32 lanes run every step with no
    barrier, relying on lockstep execution (each load completes across
    the warp before the store of the same step)."""
    with b.if_then(b.setp(CmpOp.LT, tid, WARP)):
        for s in (32, 16, 8, 4, 2, 1):
            mine = b.ld_shared(sa, DType.S32)
            partner = b.ld_shared(sa, DType.S32, disp=4 * s)
            b.st_shared(sa, b.add(mine, partner), DType.S32)


def reduce0_kernel(block: int) -> Kernel:
    """Interleaved addressing with divergent branching:
    ``if (tid % (2*s) == 0) sdata[tid] += sdata[tid + s]``."""
    _check_block(block)
    b = KernelBuilder("reduce0_divergent", params=_params(),
                      shared_mem_bytes=block * 4)
    tid, sa = _stage_one(b)
    s = b.mov(1, DType.S32)
    with b.while_loop() as loop:
        loop.break_if(b.setp(CmpOp.GE, s, block))
        stride = b.shl(s, 1)
        with b.if_then(b.setp(CmpOp.EQ, b.rem(tid, stride), 0)):
            mine = b.ld_shared(sa, DType.S32)
            partner = b.ld_shared(_saddr(b, b.add(tid, s)), DType.S32)
            b.st_shared(sa, b.add(mine, partner), DType.S32)
        b.bar()
        b.mov_to(s, stride)
    _write_result(b, tid, sa)
    return b.build()


def reduce1_kernel(block: int) -> Kernel:
    """Interleaved addressing without divergence (strided index
    ``2*s*tid`` — the bank-conflict variant)."""
    _check_block(block)
    b = KernelBuilder("reduce1_interleaved", params=_params(),
                      shared_mem_bytes=block * 4)
    tid, _sa = _stage_one(b)
    s = b.mov(1, DType.S32)
    with b.while_loop() as loop:
        loop.break_if(b.setp(CmpOp.GE, s, block))
        stride = b.shl(s, 1)
        index = b.mul(stride, tid)
        with b.if_then(b.setp(CmpOp.LT, index, block)):
            ia = _saddr(b, index)
            mine = b.ld_shared(ia, DType.S32)
            partner = b.ld_shared(_saddr(b, b.add(index, s)), DType.S32)
            b.st_shared(ia, b.add(mine, partner), DType.S32)
        b.bar()
        b.mov_to(s, stride)
    _write_result(b, tid, _sa)
    return b.build()


def reduce2_kernel(block: int) -> Kernel:
    """Sequential addressing: halving tree, consecutive threads active."""
    _check_block(block)
    b = KernelBuilder("reduce2_sequential", params=_params(),
                      shared_mem_bytes=block * 4)
    tid, sa = _stage_one(b)
    _sequential_tree(b, tid, sa, block // 2)
    _write_result(b, tid, sa)
    return b.build()


def reduce3_kernel(block: int) -> Kernel:
    """First add during global load: halves the block count by folding
    two elements per thread while staging."""
    _check_block(block)
    b = KernelBuilder("reduce3_firstadd", params=_params(),
                      shared_mem_bytes=block * 4)
    tid, sa = _stage_two(b, block)
    _sequential_tree(b, tid, sa, block // 2)
    _write_result(b, tid, sa)
    return b.build()


def reduce4_kernel(block: int) -> Kernel:
    """Warp unroll: sequential tree down to stride 64, then the last
    warp finishes without barriers (warp-synchronous)."""
    _check_block(block)
    b = KernelBuilder("reduce4_warpunroll", params=_params(),
                      shared_mem_bytes=block * 4)
    tid, sa = _stage_two(b, block)
    if block > 2 * WARP:
        _sequential_tree(b, tid, sa, block // 2, down_to=2 * WARP)
    _warp_tree(b, tid, sa)
    _write_result(b, tid, sa)
    return b.build()


def reduce5_kernel(block: int) -> Kernel:
    """Complete unroll: every tree stride is a compile-time immediate,
    so all shared addressing is affine in tid."""
    _check_block(block)
    b = KernelBuilder("reduce5_fullunroll", params=_params(),
                      shared_mem_bytes=block * 4)
    tid, sa = _stage_two(b, block)
    s = block // 2
    while s > WARP:
        with b.if_then(b.setp(CmpOp.LT, tid, s)):
            mine = b.ld_shared(sa, DType.S32)
            partner = b.ld_shared(sa, DType.S32, disp=4 * s)
            b.st_shared(sa, b.add(mine, partner), DType.S32)
        b.bar()
        s >>= 1
    _warp_tree(b, tid, sa)
    _write_result(b, tid, sa)
    return b.build()


def reduce6_kernel(block: int) -> Kernel:
    """Multiple elements per thread: grid-stride accumulation into a
    register, then one sequential tree.  ``n`` must be a multiple of
    ``2 * block`` so the paired load needs no tail guard."""
    _check_block(block)
    params = _params() + [Param("n", DType.S32)]
    b = KernelBuilder("reduce6_multielem", params=params,
                      shared_mem_bytes=block * 4)
    g_in, n = b.param(0), b.param(2)
    tid = b.tid_x()
    ntid = b.ntid_x()
    span = b.shl(ntid, 1)
    grid_size = b.mul(span, b.nctaid_x())
    i = b.mad(b.ctaid_x(), span, tid)
    acc = b.mov(0, DType.S32)
    with b.while_loop() as loop:
        loop.break_if(b.setp(CmpOp.GE, i, n))
        lo = b.ld_global(b.addr(g_in, i, 4), DType.S32)
        hi = b.ld_global(b.addr(g_in, b.add(i, ntid), 4), DType.S32)
        b.mov_to(acc, b.add(acc, b.add(lo, hi)))
        b.add_to(i, i, grid_size)
    sa = _saddr(b, tid)
    b.st_shared(sa, acc, DType.S32)
    b.bar()
    _sequential_tree(b, tid, sa, block // 2)
    _write_result(b, tid, sa)
    return b.build()
