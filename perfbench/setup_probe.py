"""Set-up probe: one fresh process taken from start to "ready".

``run.py`` launches this script several times per run and reports the
median normalized time as ``setup_s``.  Ready means: ``repro`` imported, the
workload registry populated, every configuration the benchmark uses
built, and a cache root created.

    python3 perfbench/setup_probe.py <src-dir> <cache-root>
"""

import sys


def main() -> int:
    src, cache_root = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import bench_workloads
    from repro.harness.experiments import bench_config
    from repro.perf import TraceCache
    from repro.workloads import all_abbrs

    if not all_abbrs():
        return 1
    bench_config()
    bench_workloads.job_configs()
    TraceCache(cache_root).version_dir.mkdir(parents=True, exist_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
