"""Correctness checks applied to every round: the answer oracle, the ledger
recomputation and the property each workload must show.

The oracle does not trust the program's own resolver: it walks each task's
catalog step templates with the small ``$``-path resolver below, calls
``catalog.MOCK_TOOLS`` directly and, for a step that names an external tool,
evaluates the target task type the same way.
"""

from __future__ import annotations

import hashlib
import json
import math

from agentmesh import catalog
from agentmesh.envelope import STATUS_SUCCESS
from agentmesh.simulator import MODE_AGORA, MODE_NL_ONLY

NATURAL_LANGUAGE = "natural_language"


def _resolve(template, bindings: dict):
    if isinstance(template, str) and template.startswith("$"):
        head, *rest = template[1:].split(".")
        value = bindings[head]
        for key in rest:
            value = value[key]
        return value
    if isinstance(template, dict):
        return {key: _resolve(value, bindings) for key, value in template.items()}
    if isinstance(template, list):
        return [_resolve(value, bindings) for value in template]
    return template


def expected_answer(task_type: str, payload: dict) -> dict:
    """The fields a correct answer to *payload* carries."""
    task = catalog.CATALOG[task_type]
    externals = {tool["name"]: tool["task_type"] for tool in task.server_tools}
    bindings = {"input": payload}
    for step in task.steps:
        args = _resolve(step["args"], bindings)
        tool = step["tool"]
        if tool in externals:
            bindings[step["bind"]] = expected_answer(externals[tool], args)
        else:
            bindings[step["bind"]] = catalog.MOCK_TOOLS[tool](args)
    return _resolve(task.output_template, bindings)


def answer_problem(task, response, mode: str) -> str | None:
    """Why the answer the user got is wrong, or None when it is right."""
    if response.status != STATUS_SUCCESS:
        return f"status {response.status}"
    expected = expected_answer(task.task_type, task.payload)
    body = response.body or ""
    if mode == NATURAL_LANGUAGE:
        got = catalog.CATALOG[task.task_type].parse_answer(body)
    else:
        try:
            got = json.loads(body)
        except ValueError:
            got = None
    if got != expected:
        return f"{mode} answer {body[:120]!r} does not give {expected}"
    return None


def ledger_problems(ledger, summary, records) -> list[str]:
    """Recompute every record's cost from its usage and the price table, and
    check that activities, per-query costs and the total agree."""
    problems = []
    costs = []
    for position, record in enumerate(ledger.records()):
        price = ledger.prices[record.model_id]
        cost = (record.usage.prompt_tokens * price.prompt_per_million
                + record.usage.completion_tokens * price.completion_per_million) / 1e6
        if record.index != position or not math.isclose(record.cost, cost, rel_tol=1e-12):
            problems.append(f"ledger record {position}: cost {record.cost} != {cost}")
        costs.append(cost)
    total = math.fsum(costs)
    sums = {
        "summary total": summary.total,
        "activity totals": math.fsum(summary.activity_totals.values()),
        "per-query costs": math.fsum(r.cost for r in records),
    }
    for label, value in sums.items():
        if not math.isclose(value, total, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{label} {value} != recomputed total {total}")
    if sum(r.model_invocations for r in records) != len(costs):
        problems.append("per-query model invocations do not add up to the ledger length")
    return problems


def property_problems(mode: str, records) -> list[str]:
    """In agora mode the mean cost per query falls from the first tenth of the
    run to the last: protocols take over from language. In language-only mode
    every query is answered in language and no document appears."""
    if mode == MODE_AGORA:
        tenth = len(records) // 10
        first = math.fsum(r.cost for r in records[:tenth]) / tenth
        last = math.fsum(r.cost for r in records[-tenth:]) / tenth
        if not last < first:
            return [f"mean cost per query did not fall: first tenth {first}, last tenth {last}"]
        return []
    if mode == MODE_NL_ONLY:
        problems = [f"query {r.index}: path {r.mode}, {r.model_invocations} model calls"
                    for r in records if r.mode != NATURAL_LANGUAGE or r.model_invocations < 1]
        if records and records[-1].pd_count != 0:
            problems.append(f"run ended with pd_count {records[-1].pd_count}")
        return problems[:5]
    raise ValueError(f"unknown mode: {mode}")


def signature_digest(result) -> str:
    return hashlib.sha256(repr(result.signature()).encode("utf-8")).hexdigest()
