"""Span tracer for the traced run, attached at layer boundaries from outside.

:class:`Tracer` wraps public callables of ``repro`` (class or module
attributes) for the duration of a traced pass and restores them after.
Each call records a :class:`Span` — name, start, end, parent, job id —
kept in memory; ``run.py`` writes them out when the run ends.  A span's
self time is its duration minus the time its child spans cover (calls
are nested on one thread, so children never overlap).

:func:`layer_metrics` turns one traced pass's spans, plus the public
reports on what the pass returned (``KernelTrace.extrapolation`` /
``.vector``, ``ArchStats``, ``SuiteResults.shard_report``) and the
``timing.engine`` counter of ``repro.obs``, into the per-layer metrics.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro import obs
from repro.arch import (
    BaselineArch,
    DACArch,
    DARSIEArch,
    IdealLN,
    IdealTB,
    IdealWP,
    R2D2Arch,
)
from repro.harness import experiments, runner
from repro.perf import TraceCache
from repro.sim.gpu import Device
from repro.sim.timing import TimingSimulator
from repro.workloads import REGISTRY

TIMING_ENGINES = ("dedup", "fast", "reference", "verify")
ARCH_NAMES = (
    "baseline", "wp", "tb", "ln", "dac", "darsie", "darsie-scalar", "r2d2",
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    job: int
    end: float = 0.0
    children_s: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def to_dict(self) -> dict:
        attrs = {k: v for k, v in self.attrs.items() if k != "l2"}
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "job": self.job, "attrs": attrs,
        }


class Tracer:
    """Records spans from wrappers it installs around ``repro``'s
    layer boundaries (:meth:`install` / :meth:`uninstall`)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._jobs = 0
        self._patches: List[tuple] = []

    # -- spans ----------------------------------------------------------
    def _open(self, name: str) -> int:
        if self._stack:
            parent = self._stack[-1]
            job = self.spans[parent].job
        else:
            parent = -1
            self._jobs += 1
            job = self._jobs
        self.spans.append(Span(name, time.perf_counter(), parent, job))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.duration
        return span

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    # -- patching -------------------------------------------------------
    def _wrap(self, owner, attr: str, name: Callable, before=None,
              after=None) -> None:
        # A class's own attribute, not the bound or inherited one, is
        # what uninstall must put back.
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx = tracer._open(name(args, kwargs))
            try:
                out = original(*args, **kwargs)
            finally:
                span = tracer._close(idx)
            if after:
                after(span, args, kwargs, out, state)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        fixed = lambda n: (lambda a, k: n)  # noqa: E731
        self._wrap(runner, "run_workload", fixed("harness.run_workload"))
        self._wrap(experiments, "run_workload",
                   fixed("harness.run_workload"))
        for attr in ("workload_result_key", "functional_trace_key"):
            self._wrap(runner, attr, fixed("perf.cache.key"))
        for method in ("prepare", "check"):
            for owner in _defining_classes(REGISTRY.values(), method):
                self._wrap(owner, method, fixed(f"workloads.{method}"))
        self._wrap(Device, "launch", fixed("sim.launch"),
                   after=_after_launch)
        self._wrap(R2D2Arch, "transform", fixed("transform.r2d2"))
        self._wrap(R2D2Arch, "execute_launch", fixed("arch.r2d2"))
        trace_arches = (BaselineArch, IdealWP, IdealTB, IdealLN, DACArch,
                        DARSIEArch)
        for owner in _defining_classes(trace_arches, "process_trace"):
            self._wrap(owner, "process_trace", _arch_span_name)
        self._wrap(TimingSimulator, "run", fixed("sim.timing"),
                   before=_timing_counters, after=_after_timing)
        self._wrap(TraceCache, "get", fixed("perf.cache.get"),
                   after=_after_cache_get)
        self._wrap(TraceCache, "put", fixed("perf.cache.put"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _defining_classes(classes, attr: str) -> List[type]:
    """The classes whose own ``__dict__`` defines ``attr`` for each of
    ``classes``, once each, so inherited methods are wrapped once."""
    owners: List[type] = []
    for cls in classes:
        for klass in cls.__mro__:
            if attr in klass.__dict__:
                if klass not in owners:
                    owners.append(klass)
                break
    return owners


def _arch_span_name(args, kwargs) -> str:
    return "arch." + args[0].name.replace("+", "-")


def _after_launch(span: Span, args, kwargs, trace, state) -> None:
    linear_values = kwargs.get(
        "linear_values", args[5] if len(args) > 5 else None
    )
    extrap = getattr(trace, "extrapolation", None)
    vector = getattr(trace, "vector", None)
    if extrap is not None and extrap.blocks_extrapolated > 0:
        engine = "extrapolate"
    elif vector is not None and vector.engaged:
        engine = "vector"
    else:
        engine = "serial"
    span.attrs.update(
        transformed=linear_values is not None,
        winst=trace.warp_instruction_count(),
        engine=engine,
        vector_engaged=bool(vector is not None and vector.engaged),
        vector_bailed=bool(vector is not None and vector.bailed),
    )


def _timing_counters(args, kwargs) -> tuple:
    kernel = args[0].kernel.name
    return kernel, _engine_counts(kernel), obs.counter_total(
        "dedup.fallback"
    )


def _engine_counts(kernel: str) -> List[float]:
    return [
        obs.counter_value("timing.engine", kernel=kernel, engine=e)
        for e in TIMING_ENGINES
    ]


def _after_timing(span: Span, args, kwargs, result, state) -> None:
    kernel, engines_before, declines_before = state
    engines_after = _engine_counts(kernel)
    engine = None
    for name, b, a in zip(TIMING_ENGINES, engines_before, engines_after):
        if a > b:
            engine = name
    span.attrs.update(
        engine=engine,
        dedup_declined=obs.counter_total("dedup.fallback")
        > declines_before,
        l1_accesses=result.l1.accesses,
        l1_hits=result.l1.hits,
        dram=result.dram_accesses,
        # The shared L2's stats object: its final value counts once.
        l2=result.l2,
    )


def _after_cache_get(span: Span, args, kwargs, out, state) -> None:
    namespace = kwargs.get("namespace", args[1] if len(args) > 1 else "")
    span.attrs.update(namespace=namespace, hit=out is not None)


# ----------------------------------------------------------------------
# Span consistency and per-layer metrics
# ----------------------------------------------------------------------
def span_violations(spans: List[Span], eps: float = 1e-6) -> List[str]:
    """Children must fit inside their parent: no child span longer than
    its parent, no negative self time."""
    bad = []
    for i, s in enumerate(spans):
        if s.self_s < -eps:
            bad.append(f"span {i} {s.name}: negative self time")
        if s.parent >= 0 and s.duration > spans[s.parent].duration + eps:
            bad.append(f"span {i} {s.name}: longer than its parent")
    return bad


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: List[Span], p) -> Dict[str, float]:
    """Per-layer metrics of one traced pass ``p`` (a ``Pass``)."""
    by: Dict[str, List[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(name: str, own: bool = False, pred=None) -> float:
        return sum(
            (s.self_s if own else s.duration)
            for s in by.get(name, ()) if pred is None or pred(s)
        )

    m: Dict[str, float] = {}
    m["harness.run_workload.self_s"] = total("harness.run_workload", True)
    m["workloads.prepare_s"] = total("workloads.prepare")
    m["workloads.check_s"] = total("workloads.check")
    m["transform.r2d2_transform_s"] = total("transform.r2d2")
    r2d2 = [r.stats["r2d2"] for r in p.distinct.values()
            if "r2d2" in r.stats]
    m["transform.fallback_launch_frac"] = _ratio(
        sum(s.fallback_launches for s in r2d2),
        sum(s.launches for s in r2d2),
    )

    launches = by.get("sim.launch", [])
    for kind, transformed in (("original", False),
                              ("transformed", True)):
        group = [s for s in launches if s.attrs["transformed"] is transformed]
        secs = sum(s.duration for s in group)
        m[f"sim.launch.{kind}_s"] = secs
        m[f"sim.launch.{kind}.kwinst_per_s"] = _ratio(
            sum(s.attrs["winst"] for s in group) / 1000.0, secs
        )
        engines = [s.attrs["engine"] for s in group]
        if kind == "original":
            for engine in ("extrapolate", "vector"):
                m[f"sim.launch.original.{engine}_frac"] = _ratio(
                    engines.count(engine), len(engines)
                )
        m[f"sim.launch.{kind}.serial_frac"] = _ratio(
            engines.count("serial"), len(engines)
        )
    attempts = [s for s in launches
                if s.attrs["vector_engaged"] or s.attrs["vector_bailed"]]
    m["sim.vector.bail_frac"] = _ratio(
        sum(s.attrs["vector_bailed"] for s in attempts), len(attempts)
    )

    timing = by.get("sim.timing", [])
    for engine in ("dedup", "fast", "reference"):
        m[f"sim.timing.{engine}_s"] = sum(
            s.duration for s in timing if s.attrs["engine"] == engine
        )
    for engine in ("dedup", "fast"):
        m[f"sim.timing.{engine}.calls"] = float(sum(
            1 for s in timing if s.attrs["engine"] == engine
        ))
    m["sim.timing.dedup_decline_frac"] = _ratio(
        sum(s.attrs["dedup_declined"] for s in timing), len(timing)
    )

    for arch in ARCH_NAMES:
        m[f"arch.{arch}.self_s"] = total(f"arch.{arch}", True)

    base = [r.stats["baseline"] for r in p.distinct.values()
            if "baseline" in r.stats]
    m["model.baseline.cycles"] = float(sum(s.cycles for s in base))
    m["model.r2d2.cycles"] = float(sum(s.cycles for s in r2d2))
    m["model.baseline.warp_insns"] = float(
        sum(s.warp_instructions for s in base)
    )
    m["model.r2d2.warp_insns"] = float(
        sum(s.warp_instructions for s in r2d2)
    )
    # Figure 15's per-app linear-phase cycle share, averaged.
    m["model.r2d2.linear_cycle_frac"] = _mean([
        min(1.0, s.linear_cycles / max(1, s.sms_used) / max(1, s.cycles))
        for s in r2d2
    ])
    base_timing = [s for s in timing
                   if s.parent >= 0
                   and spans[s.parent].name == "arch.baseline"]
    m["model.l1_hit_ratio"] = _ratio(
        sum(s.attrs["l1_hits"] for s in base_timing),
        sum(s.attrs["l1_accesses"] for s in base_timing),
    )
    l2 = {id(s.attrs["l2"]): s.attrs["l2"] for s in base_timing}
    m["model.l2_hit_ratio"] = _ratio(
        sum(c.hits for c in l2.values()),
        sum(c.accesses for c in l2.values()),
    )
    m["model.dram_accesses"] = float(
        sum(s.attrs["dram"] for s in base_timing)
    )

    gets = [s for s in by.get("perf.cache.get", [])
            if s.attrs["namespace"] == "result"]
    hits = [s.duration for s in gets if s.attrs["hit"]]
    m["perf.cache.key_s"] = _mean(
        [s.duration for s in by.get("perf.cache.key", [])]
    )
    m["perf.cache.get_hit_s"] = _mean(hits)
    m["perf.cache.get_miss_s"] = _mean(
        [s.duration for s in gets if not s.attrs["hit"]]
    )
    m["perf.cache.put_s"] = _mean(
        [s.duration for s in by.get("perf.cache.put", [])]
    )
    m["perf.cache.hit_ratio"] = _ratio(len(hits), len(gets))

    cold = p.shard_report or {}
    warm = p.warm_shard_report or {}
    m["perf.shard.utilization"] = float(cold.get("utilization", 0.0))
    m["perf.shard.steals"] = float(cold.get("steals", 0))
    m["perf.shard.busy_s"] = float(sum(
        w.get("busy_s", 0.0) for w in cold.get("per_worker", [])
    ))
    m["perf.shard.cells_skipped_frac"] = _ratio(
        warm.get("cells_skipped", 0), warm.get("cells_total", 0)
    )
    return {k: (v if math.isfinite(v) else 0.0) for k, v in m.items()}
