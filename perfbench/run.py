#!/usr/bin/env python3
"""End-to-end benchmark of the R2D2 reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Runs from the root of a source checkout and imports ``repro`` from its
``src/``.  One process runs one workload (see ``bench_workloads.py``
and ``README.md``) in passes for about ``--seconds``: at least one (two
with ``--trace 1``), then more until one more would end further past
``--seconds`` than stopping falls short of it.  Inputs derive from
``--seed``; pass ``i`` uses input set ``i % 4``.  Host times are
normalized to a reference host speed (``hostspeed.py``).

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced passes and prints every per-layer metric (spans are
written to ``.perfbench_out/`` at exit).  Human-readable lines go to
stdout first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The run is hermetic: every ``R2D2_*`` variable is cleared (and listed),
and all caches, temp files and ``shard_costs.json`` live in a fresh
directory under ``.perfbench_tmp/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9

#: The paper's full-suite headline (TITAN V, 80 SMs).  Printed beside
#: the model metrics as a reference only: the 4-SM subsets measured
#: here are not validated against it.
PAPER_HEADLINE = {
    "r2d2_insn_reduction": "28% mean warp-instruction reduction (Fig. 12)",
    "r2d2_speedup": "1.25x geomean speedup (Fig. 13)",
    "r2d2_energy_reduction": "17% mean energy reduction (Fig. 16)",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def say(msg: str) -> None:
    print(f"perfbench: {msg}", flush=True)


def make_hermetic(scratch: str) -> list:
    """Clear every ``R2D2_*`` variable and keep temp files and any
    default-rooted cache inside ``scratch``.  Returns what was cleared."""
    cleared = sorted(k for k in os.environ if k.startswith("R2D2_"))
    for key in cleared:
        del os.environ[key]
    os.environ["R2D2_CACHE_DIR"] = os.path.join(scratch, "default-cache")
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    return cleared


def measure_setup(scratch: str, clock) -> float:
    """Median normalized time of fresh processes from start to ready."""
    times = []
    for i in range(SETUP_PROBES):
        root = os.path.join(scratch, f"setup-{i}")
        _, _, norm = clock.timed(lambda: subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), root],
            check=True, cwd=ROOT,
        ))
        times.append(norm)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or None when that is below the median."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def composed_pass_s(passes) -> float:
    """One pass's normalized time, robust to a burst of host load: each
    request's median normalized latency over the passes, summed."""
    keys = set.intersection(*(set(p.latency) for p in passes))
    return sum(
        statistics.median(p.latency[k] for p in passes) for k in keys
    )


def job_metrics(passes) -> dict:
    """Job-level latency and throughput over the pooled passes (the
    per-job figures only some workloads have, reported per layer)."""
    miss = [s for p in passes for s in p.miss_s]
    hit = [s for p in passes for s in p.hit_s]
    warm = [p.warm_rerun_s for p in passes if p.warm_rerun_s is not None]
    miss_tail = tail(miss) or (0.0, 0.0)
    return {
        "jobs_per_s": statistics.median(
            len(p.delivered) / p.norm_seconds for p in passes),
        "job_miss_p50_s": statistics.median(miss) if miss else 0.0,
        "job_miss_tail_s": miss_tail[0],
        "job_miss_tail_pct": miss_tail[1],
        "job_miss_samples": len(miss),
        "job_hit_p50_s": statistics.median(hit) if hit else 0.0,
        "job_hit_samples": len(hit),
        "warm_rerun_s": statistics.median(warm) if warm else 0.0,
    }


def model_metrics(results) -> dict:
    """The Fig-12/13/16 summaries, aggregated as the figures do."""
    from repro.harness.report import geomean, mean

    return {
        "r2d2_insn_reduction": mean(
            r.instruction_reduction("r2d2") for r in results),
        "r2d2_speedup": geomean(r.speedup("r2d2") for r in results),
        "r2d2_energy_reduction": mean(
            r.energy_reduction("r2d2") for r in results),
    }


def warp_kinst(results) -> float:
    return sum(
        s.warp_instructions for r in results for s in r.stats.values()
    ) / 1000.0


def reap_children() -> None:
    """Wait for every child process (shard pool workers) to end; stop
    one that is still busy after 30 s (a run cut short mid-suite)."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join()


def run(args, scratch: str) -> dict:
    cleared = make_hermetic(scratch)
    say("cleared environment: " + (", ".join(cleared) or "(none)"))
    from hostspeed import HostClock

    setup_s = measure_setup(scratch, HostClock())

    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"repro imported from {repro.__file__}")
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(bw.WORKLOADS)}"
        )
    run_pass = bw.WORKLOADS[args.workload]()
    bw.install_reseed(args.seed)
    # Warm lazy imports and per-process caches outside the timed passes.
    from repro.harness.runner import run_workload
    from repro.sim.config import tiny
    from repro.workloads import factory

    run_workload(factory("BP", "tiny"), config=tiny(), cache=False)
    if hasattr(run_pass, "warm_up"):
        run_pass.warm_up(scratch)
    clock = HostClock(parallel=getattr(run_pass, "parallel", False))
    try:
        return measure(args, scratch, run_pass, clock, setup_s)
    finally:
        clock.close()


def measure(args, scratch: str, run_pass, clock, setup_s: float) -> dict:
    """Run passes for about ``--seconds`` and compute the result."""
    import bench_workloads as bw
    import tracing

    min_passes = 2 if args.trace else 1
    tracer = tracing.Tracer()
    untraced, traced, layer_runs, spans_out = [], [], [], []
    failures, attempted = [], 0
    digests = {}  # input set -> digests of its passes
    t_start = time.perf_counter()
    for i in itertools.count():
        traced_pass = bool(args.trace) and i % 2 == 1
        rng = random.Random(f"{args.seed}/{args.workload}/{i}")
        # A traced pass reuses the inputs of the untraced pass before it.
        input_set = bw.use_input_set(i // 2 if args.trace else i)
        pass_dir = tempfile.mkdtemp(prefix=f"pass{i}-", dir=scratch)
        if traced_pass:
            tracer.install()
        try:
            p = run_pass(pass_dir, rng, clock)
        finally:
            if traced_pass:
                tracer.uninstall()
        shutil.rmtree(pass_dir, ignore_errors=True)
        digests.setdefault(input_set, set()).add(bw.stats_digest(p.distinct))
        attempted += p.attempted
        failures += p.failures
        if traced_pass:
            spans = tracer.take()
            failures += tracing.span_violations(spans)
            layer_runs.append(tracing.layer_metrics(spans, p))
            spans_out.append(spans)
            traced.append(p)
        else:
            untraced.append(p)
        # Stop where one more pass would end further past --seconds
        # than stopping now falls short of it.
        elapsed = time.perf_counter() - t_start
        if i + 1 >= min_passes and elapsed + elapsed / (i + 1) / 2 > \
                args.seconds:
            break
    clock.close()
    reap_children()  # so RUSAGE_CHILDREN covers the shard workers

    if any(len(d) > 1 for d in digests.values()):
        failures.append("passes on one input set disagree on ArchStats")
    digest = sorted(digests[0])[0]
    say(f"workload={args.workload} seed={args.seed} "
        f"passes={len(untraced)} untraced, {len(traced)} traced")
    say("pass seconds, wall/normalized: " + " ".join(
        f"{'T' if p in traced else 'U'}{p.seconds:.3f}/{p.norm_seconds:.3f}"
        for p in untraced + traced))
    say(f"digest {args.workload} seed={args.seed}: {digest}")

    model = model_metrics(list(untraced[0].distinct.values()))
    metrics = {
        "setup_s": setup_s,
        "sweep_s": composed_pass_s(untraced),
        # Per pass, since the work differs between input sets.
        "sim_kwinst_per_s": statistics.median(
            warp_kinst(p.delivered) / p.norm_seconds if p.norm_seconds
            else 0.0 for p in untraced),
        "peak_rss_mb": peak_rss_mb(),
        **model,
    }
    jobs = job_metrics(untraced)
    for name, value in {**metrics, **jobs}.items():
        reference = PAPER_HEADLINE.get(name)
        say(f"{name} = {value:.6g}" + (
            f"   reference only: the paper reports {reference} over its "
            f"full suite at 80 SMs; this 4-SM subset is unvalidated"
            if reference else ""))
    say(f"failed_frac = {len(failures)}/{attempted}")
    for problem in failures[:20]:
        say(f"FAILED {problem}")

    if args.trace:
        layers = {
            name: statistics.median(run[name] for run in layer_runs)
            for name in layer_runs[0]
        }
        layers["obs.trace_overhead_frac"] = (
            statistics.median(p.norm_seconds for p in traced)
            / statistics.median(p.norm_seconds for p in untraced) - 1.0
        )
        layers.update(jobs)
        write_spans(spans_out, args.workload, args.seed)
        out = declared("per_layer", layers)
    else:
        out = declared("end_to_end", metrics)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": out,
    }


def declared(kind: str, values: dict) -> dict:
    """Exactly the metrics ``BENCHMARK.json`` declares under ``kind``,
    with its units; a declared metric the run did not compute is a bug
    in the benchmark and raises."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)[kind]
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec
    }


def write_spans(spans_by_pass, workload: str, seed: int) -> None:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, spans in enumerate(spans_by_pass):
            for span in spans:
                fh.write(json.dumps({"pass": i, **span.to_dict()}) + "\n")
    say(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    # A terminated run still stops its workers and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args, scratch)
    finally:
        reap_children()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
