"""The benchmark's workloads: what one pass runs, and how it is checked.

Every pass calls only public entry points of ``repro``
(``harness.runner.run_workload``, ``harness.experiments.run_suite``)
and returns a :class:`Pass` with its wall and normalized times, the
results it delivered, per-job latencies, and every failed operation.  Why each
workload and app set was chosen is recorded in ``README.md``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import random
import statistics
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.harness import experiments, runner
from repro.harness.experiments import bench_config
from repro.perf import TraceCache
from repro.sim.config import tiny
from repro.workloads import factory
from repro.workloads.base import Workload

from hostspeed import HostClock

#: Fig-12/13 path at ``small``: megawarp-executed (DWT) and extrapolated
#: (NN, BP) originals, every R2D2 launch serial.  Three apps of similar
#: cost keep a pass near 3 s, so a run has about ten passes and each
#: request's median filters the host's load bursts.
AFFINE_APPS: Tuple[str, ...] = ("DWT", "NN", "BP")
#: Affine (GEM DWT NN BP), serial (MRG), mixed serial/megawarp (LUD),
#: divergent megawarp (RED0, RED6) and SSSP, at ``tiny``.  All but SSSP
#: do the same work for every seed; BFS, whose work varies 2x with its
#: seeded graph, is out.
SUITE_APPS: Tuple[str, ...] = (
    "GEM", "DWT", "NN", "BP", "MRG", "LUD", "RED0", "RED6", "SSSP",
)


def job_configs() -> Dict[str, object]:
    base = tiny()
    return {
        "gto4": base,
        "gto2": base.with_sms(2),
        "gto8": base.with_sms(8),
        "rr4": base.with_scheduler("rr"),
        "fetch7": base.with_latency(r2d2_fetch_extra=7),
    }


#: The distinct jobs of one job-stream pass, each requested twice (the
#: repeat is served from the result cache).  The set is fixed so every
#: seed does the same amount of work; the seed picks the inputs and the
#: request order.  ``rr4`` jobs are the only ones timed by the
#: event-driven engine, SSSP the only pure-Python reference check.
JOB_SET: Tuple[Tuple[str, str], ...] = (
    ("SSSP", "gto4"),
    ("MUM", "rr4"),
    ("GEM", "gto8"),
    ("NN", "gto2"),
    ("HSP", "fetch7"),
    ("RED0", "rr4"),
    ("BTR", "gto4"),
    ("BP", "rr4"),
    ("KM", "gto2"),
    ("DWT", "fetch7"),
    ("CCMP", "rr4"),
    ("LUD", "gto8"),
)


# ----------------------------------------------------------------------
# Inputs and checks
# ----------------------------------------------------------------------
#: Input sets a run cycles through, pass ``i`` using set ``i % 4``.
#: SSSP's work (and so a pass's time) varies with its seeded graph by up
#: to a third; a run that covers four graphs per app varies less from
#: seed to seed than one that covers one.  Passes on the same set must
#: agree on every ``ArchStats`` field.
INPUT_SETS = 4
_input_set = [0]


def install_reseed(seed: int) -> None:
    """Derive every workload's input generator from ``seed`` and the
    current input set (:func:`use_input_set`).

    Wraps ``Workload.__init__`` from outside so each instance's ``rng``
    is ``default_rng((seed, input_set, crc32(abbr)))`` before
    ``prepare`` runs — on every path, including the shard scheduler's
    workers, which fork from the run's process at each suite call.
    """
    original = Workload.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.rng = np.random.default_rng(
            (seed, _input_set[0], zlib.crc32(self.abbr.encode()))
        )

    Workload.__init__ = __init__


def use_input_set(pass_index: int) -> int:
    """Select the input set of pass ``pass_index``; returns it."""
    _input_set[0] = pass_index % INPUT_SETS
    return _input_set[0]


def result_problem(label: str, res) -> Optional[str]:
    """A delivered result fails unless it was verified against the
    numpy reference and the R2D2 outputs are bit-identical to the
    baseline device's."""
    if not res.verified:
        return f"{label}: result not verified"
    if "r2d2" in res.stats and not res.outputs_identical:
        return f"{label}: R2D2 outputs differ from baseline"
    return None


def same_result(a, b) -> bool:
    """Every ``ArchStats`` field equal, for the same architectures."""
    return (
        a.stats.keys() == b.stats.keys()
        and all(a.stats[k] == b.stats[k] for k in a.stats)
        and a.verified == b.verified
        and a.outputs_identical == b.outputs_identical
    )


def stats_digest(results: Dict[str, object]) -> str:
    """sha256 over every integer ``ArchStats`` field per (job, arch)."""
    h = hashlib.sha256()
    for label in sorted(results):
        for arch in sorted(results[label].stats):
            stats = results[label].stats[arch]
            for f in dataclasses.fields(stats):
                value = getattr(stats, f.name)
                if isinstance(value, int) and not isinstance(value, bool):
                    h.update(f"{label}|{arch}|{f.name}={value};".encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
@dataclass
class Pass:
    #: Wall and normalized times (see ``hostspeed.py``) of the pass's
    #: timed requests, summed.
    seconds: float = 0.0
    norm_seconds: float = 0.0
    #: Every result the pass delivered, cache hits included.
    delivered: List[object] = field(default_factory=list)
    #: The first computed result of each distinct job.
    distinct: Dict[str, object] = field(default_factory=dict)
    #: Normalized latency of each request of the pass, by a label
    #: unique in it.
    latency: Dict[str, float] = field(default_factory=dict)
    miss_s: List[float] = field(default_factory=list)
    hit_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    warm_rerun_s: Optional[float] = None
    shard_report: Optional[dict] = None
    warm_shard_report: Optional[dict] = None

    def fail(self, problem: Optional[str]) -> None:
        if problem:
            self.failures.append(problem)

    def record(self, label: str, wall: float, norm: float) -> None:
        self.latency[label] = norm
        self.seconds += wall
        self.norm_seconds += norm


def sweep_pass(apps, scratch: str, rng: random.Random,
               clock: HostClock) -> Pass:
    """Every app × all eight architectures at ``small`` on
    ``bench_config()``, verify on, cache off."""
    p = Pass()
    config = bench_config()
    for abbr in apps:
        p.attempted += 1
        try:
            res, wall, dt = clock.timed(lambda: runner.run_workload(
                factory(abbr, "small"), config=config, verify=True,
                cache=False,
            ))
        except Exception as exc:
            p.fail(f"{abbr}: {type(exc).__name__}: {exc}")
            continue
        p.miss_s.append(dt)
        p.record(abbr, wall, dt)
        p.delivered.append(res)
        p.distinct[abbr] = res
        p.fail(result_problem(abbr, res))
    return p


def job_stream_pass(scratch: str, rng: random.Random,
                    clock: HostClock) -> Pass:
    """Closed loop, one client: every job of :data:`JOB_SET` twice in a
    seeded order against a fresh result cache.  A hit must equal that
    job's first computed result field for field."""
    p = Pass()
    configs = job_configs()
    requests = [job for job in JOB_SET for _ in range(2)]
    rng.shuffle(requests)
    cache = TraceCache(tempfile.mkdtemp(prefix="jobs-", dir=scratch))
    for abbr, cfg in requests:
        label = f"{abbr}@{cfg}"
        p.attempted += 1
        hits_before = cache.session_hits
        try:
            res, wall, dt = clock.timed(lambda: runner.run_workload(
                factory(abbr, "tiny"), config=configs[cfg], verify=True,
                cache=cache,
            ))
        except Exception as exc:
            p.fail(f"{label}: {type(exc).__name__}: {exc}")
            continue
        p.delivered.append(res)
        first = p.distinct.get(label)
        if cache.session_hits > hits_before:
            p.hit_s.append(dt)
            p.record(label + " hit", wall, dt)
            if first is None:
                p.fail(f"{label}: cache hit before any run")
            elif not same_result(res, first):
                p.fail(f"{label}: cache hit differs from run")
        else:
            p.miss_s.append(dt)
            p.record(label + " miss", wall, dt)
            if first is not None:
                p.fail(f"{label}: repeat not served by cache")
            else:
                p.distinct[label] = res
                p.fail(result_problem(label, res))
    return p


WARM_RERUNS = 3


class ShardedSuite:
    """``run_suite`` with ``jobs=nproc`` on a fresh cache root per pass:
    one cold call (the pass time), then identical warm calls that must
    skip every cell and return the cold results unchanged.

    The shard scheduler's cell-cost history (``shard_costs.json`` beside
    the cache) is seeded by an untimed warm-up call and carries from one
    pass to the next within a run, so every timed pass places cells from
    measured costs, as on a user's second suite run; it never outlives
    the run.
    """

    #: Normalize by the reference on every CPU (``hostspeed.py``).
    parallel = True

    def __init__(self) -> None:
        self.cost_history: Optional[bytes] = None

    def __call__(self, scratch: str, rng: random.Random,
                 clock: HostClock) -> Pass:
        cache = TraceCache(tempfile.mkdtemp(prefix="suite-", dir=scratch))
        costs = cache.root / "shard_costs.json"
        if self.cost_history is not None:
            costs.write_bytes(self.cost_history)
        p = _sharded_suite_pass(cache, clock)
        if costs.is_file():
            self.cost_history = costs.read_bytes()
        return p

    def warm_up(self, scratch: str) -> None:
        """One untimed cold call on a fresh cache root, for its cost
        history."""
        cache = TraceCache(tempfile.mkdtemp(prefix="warmup-", dir=scratch))
        _run_suite(cache)
        costs = cache.root / "shard_costs.json"
        if costs.is_file():
            self.cost_history = costs.read_bytes()


def _run_suite(cache: TraceCache):
    return experiments.run_suite(
        SUITE_APPS, scale="tiny", config=bench_config(),
        jobs=len(os.sched_getaffinity(0)), cache=cache,
    )


def _sharded_suite_pass(cache: TraceCache, clock: HostClock) -> Pass:
    p = Pass()

    def call():
        return _run_suite(cache)

    p.attempted += len(SUITE_APPS)
    try:
        cold, wall, norm = clock.timed(call)
    except Exception as exc:
        p.fail(f"cold run_suite: {type(exc).__name__}: {exc}")
        return p
    p.shard_report = cold.shard_report
    p.record("cold suite", wall, norm)
    for abbr in SUITE_APPS:
        res = cold.results.get(abbr)
        if res is None:
            p.fail(f"{abbr}: missing from cold suite")
            continue
        p.delivered.append(res)
        p.distinct[abbr] = res
        p.fail(result_problem(abbr, res))
    for cell in (p.shard_report or {}).get("cells", []):
        if cell.get("status") in ("run", "serial"):
            p.miss_s.append(float(cell["seconds"]))

    warm_s = []
    for _ in range(WARM_RERUNS):
        p.attempted += len(SUITE_APPS)
        try:
            warm, _, dt = clock.timed(call)
        except Exception as exc:
            p.fail(f"warm run_suite: {type(exc).__name__}: {exc}")
            continue
        warm_s.append(dt)
        p.warm_shard_report = warm.shard_report
        for abbr, first in p.distinct.items():
            res = warm.results.get(abbr)
            if res is None or not same_result(res, first):
                p.fail(f"{abbr}: warm suite differs from cold")
    if warm_s:
        p.warm_rerun_s = statistics.median(warm_s)
    return p


#: Workload name -> factory of the run's pass function,
#: ``run_pass(scratch_dir, rng, clock) -> Pass``.
WORKLOADS: Dict[str, Callable[[], Callable[..., Pass]]] = {
    "affine-sweep": lambda: functools.partial(sweep_pass, AFFINE_APPS),
    "job-stream": lambda: job_stream_pass,
    "sharded-suite": ShardedSuite,
}
