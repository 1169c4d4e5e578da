"""Determinism of the benchmark's simulated results.

    python3 -m pytest perfbench/test_perfbench.py   # about 90 s

For the affine sweep and the job stream, two runs at one seed must print
the same digest of every integer ``ArchStats`` field per (job, arch), and
a second, held-back seed must also verify with no failed operation.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
DIGEST = re.compile(r"^perfbench: digest \S+ seed=\d+: ([0-9a-f]{64})$")


def run_bench(workload: str, seed: int):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=RUN.parent.parent, capture_output=True, text=True,
        timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    digests = [m.group(1) for m in map(DIGEST.match, lines) if m]
    assert len(digests) == 1, out.stdout
    return json.loads(lines[-1]), digests[0]


@pytest.mark.parametrize("workload", ["affine-sweep", "job-stream"])
def test_digest_repeats_and_held_back_seed_verifies(workload):
    first, digest1 = run_bench(workload, seed=1)
    second, digest2 = run_bench(workload, seed=1)
    assert digest1 == digest2
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0

    held_back, _ = run_bench(workload, seed=2)
    assert held_back["correct"]
    assert held_back["failed"] == 0
    assert held_back["attempted"] >= 1
