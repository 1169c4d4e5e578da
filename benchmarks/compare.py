#!/usr/bin/env python3
"""Benchmark-regression gate over pytest-benchmark JSON artifacts.

Usage::

    PYTHONPATH=src python -m pytest benchmarks -q \
        --benchmark-json=BENCH_sim.json
    python benchmarks/compare.py BENCH_sim.json \
        benchmarks/baseline/BENCH_sim.json [--threshold 0.25]

Two independent checks, both of which must pass:

1. **Baseline regression** — every benchmark present in both files must
   not be more than ``threshold`` (fraction, default 0.25) slower than
   the committed baseline's mean.  Absolute times are machine-dependent,
   so CI sets a looser threshold via ``--threshold`` / the
   ``BENCH_COMPARE_THRESHOLD`` env var; the committed baseline gates
   like-for-like reruns on a developer machine.
2. **Timing replay speedup ratio** — when the current run contains
   both ``test_timing_replay_throughput`` (the default timing engine:
   event-driven with SM cloning) and
   ``test_timing_replay_reference_throughput`` (the reference loop),
   the default engine must be at least ``--min-replay-speedup``
   (default 3.0) times faster.  This is a same-machine, same-run
   ratio, so it is meaningful on any hardware and enforces the repo's
   headline acceptance criterion.
3. **Extrapolation speedup** — every ``test_<stem>_extrapolate_on`` /
   ``_off`` pair in the current run must show at least
   ``--min-extrapolate-speedup`` (default 5.0,
   ``$BENCH_MIN_EXTRAPOLATE_SPEEDUP`` overrides) batched-vs-serial
   speedup, and must not fall below 85%% of the speedup committed in
   ``benchmarks/baseline/BENCH_extrapolate.json`` (the >=15%%
   regression gate).  ``--extrapolate-out PATH`` merge-updates that
   artifact with the measured ``cold_s`` / ``extrapolated_s`` /
   ``speedup`` per workload stem.
4. **Megawarp vectorization speedup** — the same contract for every
   ``test_<stem>_vector_on`` / ``_off`` pair on divergent kernels:
   at least ``--min-vector-speedup`` (default 5.0,
   ``$BENCH_MIN_VECTOR_SPEEDUP`` overrides) megawarp-vs-serial, with
   the 85%% retain gate against
   ``benchmarks/baseline/BENCH_vector.json`` and ``--vector-out`` to
   merge-update it.
5. **Decision-provenance overhead** — when the current run contains
   the ``test_workload_provenance_on`` / ``_off`` pair, collecting the
   decision trace must cost at most ``--max-provenance-overhead``
   (fraction, default 0.05 = 5%%,
   ``$BENCH_MAX_PROVENANCE_OVERHEAD`` overrides) over the same
   workload with ``R2D2_PROVENANCE=0``.  Same-run, same-machine ratio.
6. **Sharded suite speedup** — every ``test_<stem>_shard_on`` /
   ``_off`` pair (sharded scheduler vs serial suite run) must show at
   least ``--min-shard-speedup`` (default 2.0,
   ``$BENCH_MIN_SHARD_SPEEDUP`` overrides), with the 85%% retain gate
   against ``benchmarks/baseline/BENCH_shard.json`` and
   ``--shard-out`` to merge-update it.  The ``warmrerun`` stem is the
   incremental-rerun acceptance ratio and holds on any machine; the
   ``minisuite`` stem needs real cores and skips itself on
   single-core boxes.
7. **Event-driven timing speedup** — every ``test_<stem>_timing_on`` /
   ``_off`` pair (event-driven engine vs reference loop on a divergent
   timing-replay trace) must show at least ``--min-timing-speedup``
   (default 5.0, ``$BENCH_MIN_TIMING_SPEEDUP`` overrides), with the
   85%% retain gate against ``benchmarks/baseline/BENCH_timing.json``
   and ``--timing-out`` to merge-update it.
8. **Reduction-tree engine speedup** — every
   ``test_<stem>_reduction_on`` / ``_off`` pair (megawarp vs serial on
   the divergent shared-memory reduction tree,
   ``benchmarks/test_reduction_engines.py``) must show at least
   ``--min-reduction-speedup`` (default 4.0,
   ``$BENCH_MIN_REDUCTION_SPEEDUP`` overrides), with the 85%% retain
   gate against ``benchmarks/baseline/BENCH_reduction.json`` and
   ``--reduction-out`` to merge-update it.

Exit status 0 on pass, 1 on regression, 2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional

REPLAY_BENCH = "test_timing_replay_throughput"
REFERENCE_BENCH = "test_timing_replay_reference_throughput"
EXTRAPOLATE_ON_SUFFIX = "_extrapolate_on"
EXTRAPOLATE_OFF_SUFFIX = "_extrapolate_off"
VECTOR_ON_SUFFIX = "_vector_on"
VECTOR_OFF_SUFFIX = "_vector_off"
SHARD_ON_SUFFIX = "_shard_on"
SHARD_OFF_SUFFIX = "_shard_off"
TIMING_ON_SUFFIX = "_timing_on"
TIMING_OFF_SUFFIX = "_timing_off"
REDUCTION_ON_SUFFIX = "_reduction_on"
REDUCTION_OFF_SUFFIX = "_reduction_off"
PROVENANCE_ON_BENCH = "test_workload_provenance_on"
PROVENANCE_OFF_BENCH = "test_workload_provenance_off"
#: Fraction of the committed speedup the current run must retain.
SPEEDUP_RETAIN = 0.85


def load_means(path: str) -> Dict[str, float]:
    with open(path) as fh:
        data = json.load(fh)
    means = {}
    for bench in data.get("benchmarks", []):
        means[bench["name"]] = float(bench["stats"]["mean"])
    return means


def _on_off_pairs(
    means: Dict[str, float], on_suffix: str, off_suffix: str,
    off_key: str, on_key: str,
) -> Dict[str, Dict[str, float]]:
    """``{stem: {off_key, on_key, speedup}}`` for every complete
    ``test_<stem><on_suffix>/<off_suffix>`` pair in a benchmark run."""
    pairs: Dict[str, Dict[str, float]] = {}
    for name, on_mean in means.items():
        if not name.endswith(on_suffix):
            continue
        stem = name[len("test_"):-len(on_suffix)]
        off_name = f"test_{stem}{off_suffix}"
        if off_name not in means:
            continue
        off_mean = means[off_name]
        pairs[stem] = {
            off_key: off_mean,
            on_key: on_mean,
            "speedup": round(off_mean / on_mean, 2),
        }
    return pairs


def extrapolate_pairs(means: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    return _on_off_pairs(
        means, EXTRAPOLATE_ON_SUFFIX, EXTRAPOLATE_OFF_SUFFIX,
        "cold_s", "extrapolated_s",
    )


def vector_pairs(means: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    return _on_off_pairs(
        means, VECTOR_ON_SUFFIX, VECTOR_OFF_SUFFIX,
        "serial_s", "vector_s",
    )


def shard_pairs(means: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    return _on_off_pairs(
        means, SHARD_ON_SUFFIX, SHARD_OFF_SUFFIX,
        "serial_s", "sharded_s",
    )


def timing_pairs(means: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    return _on_off_pairs(
        means, TIMING_ON_SUFFIX, TIMING_OFF_SUFFIX,
        "reference_s", "fast_s",
    )


def reduction_pairs(means: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    return _on_off_pairs(
        means, REDUCTION_ON_SUFFIX, REDUCTION_OFF_SUFFIX,
        "serial_s", "vector_s",
    )


def _gate_pairs(
    label: str,
    pairs: Dict[str, Dict[str, float]],
    off_key: str,
    on_key: str,
    min_speedup: float,
    baseline_path: str,
    out_path: Optional[str],
) -> bool:
    """Print and evaluate one speedup-pair family; returns True when
    any pair fails the minimum or the committed retain gate."""
    failed = False
    committed: Dict[str, Dict[str, float]] = {}
    if pairs:
        try:
            with open(baseline_path) as fh:
                committed = json.load(fh)
        except (OSError, ValueError):
            committed = {}  # first run: nothing committed yet
    for stem in sorted(pairs):
        cur = pairs[stem]
        ok = cur["speedup"] >= min_speedup
        detail = (
            f"{label} {stem}: {cur['speedup']:.2f}x"
            f" ({cur[off_key] * 1e3:.1f} ms serial ->"
            f" {cur[on_key] * 1e3:.1f} ms)"
            f" (required >= {min_speedup:.1f}x"
        )
        old = committed.get(stem, {}).get("speedup")
        if old is not None:
            floor = old * SPEEDUP_RETAIN
            ok = ok and cur["speedup"] >= floor
            detail += f", committed {old:.2f}x -> floor {floor:.2f}x"
        detail += ")"
        print(f"{'ok' if ok else 'REGRESSION':>10}  {detail}")
        failed = failed or not ok

    if out_path and pairs:
        merged: Dict[str, Dict[str, float]] = {}
        try:
            with open(out_path) as fh:
                merged = json.load(fh)
        except (OSError, ValueError):
            merged = {}
        merged.update(pairs)
        with open(out_path, "w") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{'wrote':>10}  {out_path}"
              f" ({len(pairs)} pair(s) updated)")
    return failed


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh BENCH_sim.json")
    parser.add_argument(
        "baseline", nargs="?", default="benchmarks/baseline/BENCH_sim.json",
        help="committed baseline JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("BENCH_COMPARE_THRESHOLD", "0.25")),
        help="max fractional slowdown vs baseline (default: 0.25, i.e. "
             "fail when >25%% slower; $BENCH_COMPARE_THRESHOLD overrides)",
    )
    parser.add_argument(
        "--min-replay-speedup", type=float, default=3.0,
        help="required default-engine-vs-reference timing replay "
             "speedup (default: 3.0)",
    )
    parser.add_argument(
        "--min-extrapolate-speedup",
        type=float,
        default=float(
            os.environ.get("BENCH_MIN_EXTRAPOLATE_SPEEDUP", "5.0")
        ),
        help="required batched-vs-serial extrapolation speedup per "
             "workload pair (default: 5.0; "
             "$BENCH_MIN_EXTRAPOLATE_SPEEDUP overrides)",
    )
    parser.add_argument(
        "--extrapolate-baseline",
        default="benchmarks/baseline/BENCH_extrapolate.json",
        help="committed extrapolation-speedup artifact "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--extrapolate-out", metavar="PATH", default=None,
        help="merge-update PATH with the measured extrapolation "
             "speedups from the current run",
    )
    parser.add_argument(
        "--min-vector-speedup",
        type=float,
        default=float(os.environ.get("BENCH_MIN_VECTOR_SPEEDUP", "5.0")),
        help="required megawarp-vs-serial vectorization speedup per "
             "kernel pair (default: 5.0; $BENCH_MIN_VECTOR_SPEEDUP "
             "overrides)",
    )
    parser.add_argument(
        "--vector-baseline",
        default="benchmarks/baseline/BENCH_vector.json",
        help="committed vectorization-speedup artifact "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--vector-out", metavar="PATH", default=None,
        help="merge-update PATH with the measured vectorization "
             "speedups from the current run",
    )
    parser.add_argument(
        "--min-shard-speedup",
        type=float,
        default=float(os.environ.get("BENCH_MIN_SHARD_SPEEDUP", "2.0")),
        help="required sharded-vs-serial suite speedup per pair "
             "(default: 2.0; $BENCH_MIN_SHARD_SPEEDUP overrides)",
    )
    parser.add_argument(
        "--shard-baseline",
        default="benchmarks/baseline/BENCH_shard.json",
        help="committed shard-speedup artifact (default: %(default)s)",
    )
    parser.add_argument(
        "--shard-out", metavar="PATH", default=None,
        help="merge-update PATH with the measured shard speedups from "
             "the current run",
    )
    parser.add_argument(
        "--min-timing-speedup",
        type=float,
        default=float(os.environ.get("BENCH_MIN_TIMING_SPEEDUP", "5.0")),
        help="required event-driven-vs-reference timing-replay speedup "
             "per pair (default: 5.0; $BENCH_MIN_TIMING_SPEEDUP "
             "overrides)",
    )
    parser.add_argument(
        "--timing-baseline",
        default="benchmarks/baseline/BENCH_timing.json",
        help="committed timing-speedup artifact (default: %(default)s)",
    )
    parser.add_argument(
        "--timing-out", metavar="PATH", default=None,
        help="merge-update PATH with the measured timing-engine "
             "speedups from the current run",
    )
    parser.add_argument(
        "--min-reduction-speedup",
        type=float,
        default=float(
            os.environ.get("BENCH_MIN_REDUCTION_SPEEDUP", "4.0")
        ),
        help="required megawarp-vs-serial speedup on the reduction-tree "
             "pair (default: 4.0; $BENCH_MIN_REDUCTION_SPEEDUP "
             "overrides)",
    )
    parser.add_argument(
        "--reduction-baseline",
        default="benchmarks/baseline/BENCH_reduction.json",
        help="committed reduction-speedup artifact (default: %(default)s)",
    )
    parser.add_argument(
        "--reduction-out", metavar="PATH", default=None,
        help="merge-update PATH with the measured reduction-tree "
             "speedups from the current run",
    )
    parser.add_argument(
        "--max-provenance-overhead",
        type=float,
        default=float(
            os.environ.get("BENCH_MAX_PROVENANCE_OVERHEAD", "0.05")
        ),
        help="max fractional cost of decision-provenance collection "
             "over the R2D2_PROVENANCE=0 run (default: 0.05; "
             "$BENCH_MAX_PROVENANCE_OVERHEAD overrides)",
    )
    parser.add_argument(
        "--allow-missing-baseline", action="store_true",
        help="pass the baseline check when the baseline file is absent",
    )
    args = parser.parse_args(argv)

    try:
        current = load_means(args.current)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read {args.current}: {exc}", file=sys.stderr)
        return 2

    failed = False

    # -- check 1: regression vs committed baseline ----------------------
    try:
        baseline = load_means(args.baseline)
    except OSError as exc:
        if args.allow_missing_baseline:
            print(f"note: no baseline ({exc}); skipping regression check")
            baseline = {}
        else:
            print(
                f"error: cannot read baseline {args.baseline}: {exc}",
                file=sys.stderr,
            )
            return 2
    except (ValueError, KeyError) as exc:
        print(
            f"error: malformed baseline {args.baseline}: {exc}",
            file=sys.stderr,
        )
        return 2

    for name in sorted(set(current) & set(baseline)):
        ratio = current[name] / baseline[name]
        status = "ok"
        if ratio > 1.0 + args.threshold:
            status = "REGRESSION"
            failed = True
        print(
            f"{status:>10}  {name}: {current[name] * 1e3:.3f} ms"
            f" vs baseline {baseline[name] * 1e3:.3f} ms"
            f" ({ratio:.2f}x)"
        )
    for name in sorted(set(current) - set(baseline)):
        print(f"{'new':>10}  {name}: {current[name] * 1e3:.3f} ms")

    # -- check 2: timing replay speedup ratio (same machine, same run) --
    if REPLAY_BENCH in current and REFERENCE_BENCH in current:
        speedup = current[REFERENCE_BENCH] / current[REPLAY_BENCH]
        ok = speedup >= args.min_replay_speedup
        print(
            f"{'ok' if ok else 'REGRESSION':>10}  timing replay speedup:"
            f" {speedup:.2f}x (required >= {args.min_replay_speedup:.1f}x)"
        )
        failed = failed or not ok

    # -- check 3: extrapolation speedup (ratio + committed gate) --------
    failed |= _gate_pairs(
        "extrapolate", extrapolate_pairs(current),
        "cold_s", "extrapolated_s",
        args.min_extrapolate_speedup,
        args.extrapolate_baseline, args.extrapolate_out,
    )

    # -- check 4: megawarp vectorization speedup ------------------------
    failed |= _gate_pairs(
        "vector", vector_pairs(current),
        "serial_s", "vector_s",
        args.min_vector_speedup,
        args.vector_baseline, args.vector_out,
    )

    # -- check 5: decision-provenance overhead (same machine, same run) -
    if PROVENANCE_ON_BENCH in current and PROVENANCE_OFF_BENCH in current:
        overhead = (
            current[PROVENANCE_ON_BENCH] / current[PROVENANCE_OFF_BENCH]
            - 1.0
        )
        ok = overhead <= args.max_provenance_overhead
        print(
            f"{'ok' if ok else 'REGRESSION':>10}  provenance overhead:"
            f" {overhead * 100:+.1f}%"
            f" (required <= {args.max_provenance_overhead * 100:.1f}%)"
        )
        failed = failed or not ok

    # -- check 6: sharded suite speedup ---------------------------------
    failed |= _gate_pairs(
        "shard", shard_pairs(current),
        "serial_s", "sharded_s",
        args.min_shard_speedup,
        args.shard_baseline, args.shard_out,
    )

    # -- check 7: event-driven timing speedup ---------------------------
    failed |= _gate_pairs(
        "timing", timing_pairs(current),
        "reference_s", "fast_s",
        args.min_timing_speedup,
        args.timing_baseline, args.timing_out,
    )

    # -- check 8: reduction-tree engine speedup -------------------------
    failed |= _gate_pairs(
        "reduction", reduction_pairs(current),
        "serial_s", "vector_s",
        args.min_reduction_speedup,
        args.reduction_baseline, args.reduction_out,
    )

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
