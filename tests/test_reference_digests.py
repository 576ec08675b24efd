"""Byte-identity gate: runs of the benchmark's `smoke`, `fedme-desk`,
`baselines-desk` and `fedme-many` workloads must write `rounds.csv` and checkpoints whose sha256 is the one
recorded in `perfbench/reference.json`.

A change that moves any output bit fails here. If the change is meant, record
new references with `python3 perfbench/make_reference.py` and state the
numeric change with the commit.
"""
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import worker  # noqa: E402
from fedme import harness  # noqa: E402


@pytest.mark.parametrize("name, seed", [("smoke", s) for s in range(4)]
                         + [("fedme-desk", 0), ("baselines-desk", 0),
                            ("fedme-many", 0), ("fedme-desk", 3),
                            ("fedme-many", 3)])
def test_outputs_match_reference_digest(name, seed, tmp_path):
    runner = worker.Runner(harness, name, [seed], str(tmp_path),
                           worker.load_reference())
    out = runner.execute(seed)
    assert out["problems"] == []
    assert out["digest_match"]
