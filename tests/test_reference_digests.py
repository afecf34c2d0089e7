"""The benchmark's standing gate: one round of each workload reproduces the
signature digest and total cost that ``perfbench/README.md`` records."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# A row of the README's reference table: | `workload` | ... | cost | `digest` |
_ROW = re.compile(r"^\| `([\w-]+)` \|.*\| ([0-9.]+) \| `([0-9a-f]{64})` \|$", re.MULTILINE)
WORKLOADS = ("agora-net", "nl-only-net", "http-desk")


def _references() -> dict[str, tuple[str, float]]:
    readme = (PERFBENCH / "README.md").read_text(encoding="utf-8")
    return {name: (digest, float(cost)) for name, cost, digest in _ROW.findall(readme)}


def _round(workload: str, *options: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "round.py"), "--workload", workload, *options],
        capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_reproduces_the_reference(workload):
    out = _round(workload)
    assert (out["digest"], round(out["total_cost"], 6)) == _references()[workload]


def test_traced_round_reproduces_the_reference(tmp_path):
    """The tracer wraps runtime names from outside the package: a rename
    that removes one, or tracing that changes an output, fails here."""
    spans = tmp_path / "spans.csv"
    out = _round("http-desk", "--trace", str(spans))
    assert (out["digest"], round(out["total_cost"], 6)) == _references()["http-desk"]
    assert spans.stat().st_size > 0
