"""SSSP's host-side check: the vectorized Bellman-Ford equals the
straightforward per-edge relaxation loop it replaced."""

import numpy as np
import pytest

from repro.workloads.graph.sssp import INF, SSSPWorkload
from repro.workloads.rodinia.bfs import make_graph


def _bellman_ford_loop(wl, rounds):
    """Per-vertex, per-edge relaxation rounds over a snapshot, no early
    exit: the reference the numpy routine must match."""
    dist = np.full(wl.n, np.int64(INF))
    dist[0] = 0
    for _ in range(rounds):
        snapshot = dist.copy()
        for u in range(wl.n):
            if snapshot[u] >= INF:
                continue
            for e in range(wl.row_ptr[u], wl.row_ptr[u + 1]):
                v = wl.col_idx[e]
                cand = snapshot[u] + wl.weights[e]
                if cand < dist[v]:
                    dist[v] = cand
    return dist


def _seeded_workload(seed, n, avg_deg, rounds):
    wl = SSSPWorkload("tiny")
    wl.n, wl.rounds = n, rounds
    rng = np.random.default_rng(seed)
    wl.row_ptr, wl.col_idx = make_graph(rng, n, avg_deg)
    wl.weights = rng.integers(1, 100, size=len(wl.col_idx),
                              dtype=np.int32)
    return wl


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n,avg_deg", [(64, 1), (200, 2), (300, 3)])
def test_numpy_bellman_ford_matches_loop(seed, n, avg_deg):
    wl = _seeded_workload(seed, n, avg_deg, rounds=3)
    # Both round counts check() uses: the launch count and n.
    for rounds in (wl.rounds, wl.n):
        got = wl._bellman_ford(rounds)
        want = _bellman_ford_loop(wl, rounds)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

