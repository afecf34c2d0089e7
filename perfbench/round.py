"""One round of a workload, in a fresh process: set up, run, close, check.

    PYTHONPATH=src python3 perfbench/round.py --workload agora-net [--trace SPANS.csv]

Prints one JSON object as the last line of standard output: the round's
timings, its peak RSS, its signature digest, every problem the checks found
and, with ``--trace``, the layer metrics (the spans go to SPANS.csv).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter

from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", metavar="SPANS_CSV", help="record spans and layer metrics")
    parser.add_argument("--inprocess", action="store_true",
                        help="run the workload over mem:// only, to compare signatures")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import tracing
        recorder = tracing.Recorder()
        tracing.install(recorder)

    import checks
    from agentmesh.simulator import Scenario, ScenarioConfig, build_workload

    raw = dict(WORKLOADS[args.workload])
    if args.inprocess:
        raw["transport"] = "inprocess"
    config = ScenarioConfig.from_dict(raw)

    started = time.perf_counter()
    tasks, _ = build_workload(config)
    scenario = Scenario(config)
    set_up = time.perf_counter()

    # Keep each user's answer for the oracle. This runs inside the program's
    # own timing of send_task and adds one call and one append per query.
    answers = []
    for agent_id in {task.user_id for task in tasks}:
        agent = scenario.agents[agent_id]

        def send_task(*a, _send=agent.send_task, **k):
            answer = _send(*a, **k)
            answers.append(answer)
            return answer

        agent.send_task = send_task

    try:
        result = scenario.run(tasks)
        ran = time.perf_counter()
    finally:
        scenario.close()
    closed = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.freeze()

    problems = []
    failed = 0
    if len(answers) != len(tasks):
        problems.append(f"{len(answers)} answers for {len(tasks)} queries")
    for index, (task, (response, mode)) in enumerate(zip(tasks, answers)):
        problem = checks.answer_problem(task, response, mode)
        if problem is not None:
            failed += 1
            if len(problems) < 5:
                problems.append(f"query {index}: {problem}")
    failed += len(tasks) - len(answers)
    problems += checks.ledger_problems(scenario.ledger, result.summary, result.records)
    problems += checks.property_problems(config.mode, result.records)

    latencies = [record.duration_s for record in result.records]
    out = {
        "queries": len(tasks),
        "failed": failed,
        "problems": problems,
        "digest": checks.signature_digest(result),
        "total_cost": result.total_cost,
        "model_invocations": result.model_invocations,
        "paths": dict(Counter(record.mode for record in result.records)),
        "mix": dict(Counter(task.task_type for task in tasks).most_common()),
        "setup_s": set_up - started,
        "wall_s": closed - started,
        "run_s": ran - set_up,
        "close_s": closed - ran,
        "queries_per_s": len(tasks) / (ran - set_up),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p99_ms": statistics.quantiles(latencies, n=100)[98] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": latencies,
    }
    if recorder is not None:
        import tracing
        out["layers"] = tracing.layer_metrics(recorder)
        recorder.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
