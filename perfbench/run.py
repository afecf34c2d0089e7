"""Benchmark for agentmesh's simulator: closed-loop workloads.

    python3 perfbench/run.py --workload agora-net --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 1     # every workload once

Each round runs a whole workload in a fresh process (perfbench/round.py) and
checks every answer, the ledger and the workload's property. A run repeats
rounds for about ``--seconds`` and reports metrics over all of its rounds
(see ``whole_run_metrics``). With ``--trace 1`` it alternates untraced and
traced rounds and reports the layer metrics of the traced ones, plus the
tracing overhead. ``--seed`` sets each round's PYTHONHASHSEED; the scenario
seeds are fixed, so every round of every run must give the same signature
digest.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it that start with
``#`` give the workload's signature digest, total cost and rounds, and any
problem the checks found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "queries_per_s": "1/s",
              "query_p50_ms": "ms", "query_p99_ms": "ms", "peak_rss_mb": "MB"}


def rate(rounds: list[dict]) -> float:
    """Queries per second over the run phases of *rounds* taken together."""
    return sum(r["queries"] for r in rounds) / sum(r["run_s"] for r in rounds)


def whole_run_metrics(rounds: list[dict]) -> dict:
    """The end-to-end metrics of a run, over all of its untraced rounds.

    The throughput and the latency percentiles are taken over every query of
    the run rather than per round, so that each rests on the whole run:
    the rounds of a run are few on http-desk, and the machine's speed drifts
    from one round to the next. Set-up time and peak RSS are medians over the
    rounds, and the wall time is the mean round's.
    """
    latencies = [latency for r in rounds for latency in r["latencies_s"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.fmean(r["wall_s"] for r in rounds),
        "queries_per_s": rate(rounds),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p99_ms": statistics.quantiles(latencies, n=100)[98] * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}


class RoundError(Exception):
    """A round crashed or ran out of time."""


def run_round(workload: str, env: dict, deadline: float, *extra: str) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "round.py"), "--workload", workload, *extra]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload}: round did not finish in time") from exc
    if done.returncode != 0:
        raise RoundError(f"{workload}: round exited with {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(OUT)}
    started = time.monotonic()
    rounds: list[tuple[bool, dict]] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        env["PYTHONHASHSEED"] = str((seed * 1000 + len(rounds)) % 2**32)
        extra = ("--trace", str(OUT / f"spans-{name}.csv")) if traced else ()
        rounds.append((traced, run_round(name, env, deadline, *extra)))
        elapsed = time.monotonic() - started
        # Stop where the run ends nearest to `seconds`: another round would
        # overshoot by more than half a round.
        if elapsed + elapsed / len(rounds) / 2 > seconds and len(rounds) >= 1 + trace:
            break

    results = [result for _, result in rounds]
    problems = [p for result in results for p in result["problems"]]
    digests = {result["digest"] for result in results}
    if len(digests) != 1:
        problems.append(f"signature digests differ between rounds: {sorted(digests)}")
    if WORKLOADS[name].get("transport") == "http":
        reference = run_round(name, env, deadline, "--inprocess")
        problems += reference["problems"]
        if reference["digest"] not in digests:
            problems.append(f"signature {reference['digest']} in-process differs from {sorted(digests)}")

    timed = [result for traced, result in rounds if not traced]
    if trace:
        layered = [result for traced, result in rounds if traced]
        metrics = {key: {"value": statistics.median(r["layers"][key][0] for r in layered),
                         "unit": unit} for key, (_value, unit) in layered[0]["layers"].items()}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (1.0 - rate(layered) / rate(timed)),
                                         "unit": "%"}
    else:
        metrics = whole_run_metrics(timed)
    first = results[0]
    print(f"# {name}: rounds={len(results)} digest={first['digest']} "
          f"total_cost={first['total_cost']:.6f} model_invocations={first['model_invocations']} "
          f"paths={json.dumps(first['paths'])} mix={json.dumps(first['mix'])}")
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    return {"correct": not problems,
            "attempted": sum(r["queries"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="agentmesh simulator benchmark")
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "agentmesh" / "__init__.py").is_file():
        print(f"error: no agentmesh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except RoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
