"""Each task type's natural-language templates read back what they write."""

from __future__ import annotations

import json
import random

import pytest

from agentmesh import catalog
from agentmesh.documents import compute_hash
from agentmesh.routines import RECEIVER, run_routine

TASK_NAMES = sorted(catalog.CATALOG)
DRAWS = 200


def receiver_result(task: catalog.TaskType, payload: dict) -> dict:
    """What the task's receiver routine answers, with each external step
    answered by its target task type's receiver routine."""
    routine = catalog.routine_for(task, RECEIVER, compute_hash(catalog.pd_text(task)))
    tools = dict(catalog.MOCK_TOOLS)
    for tool in task.server_tools:
        target = catalog.CATALOG[tool["task_type"]]
        tools[tool["name"]] = lambda args, target=target: receiver_result(target, args)
    return json.loads(run_routine(routine, payload, tools))


def payloads(task: catalog.TaskType) -> list[dict]:
    rng = random.Random(f"catalog-{task.name}")
    return [dict(task.example_input)] + [task.make_payload(rng) for _ in range(DRAWS)]


@pytest.mark.parametrize("name", TASK_NAMES)
def test_question_round_trip(name):
    task = catalog.CATALOG[name]
    for payload in payloads(task):
        assert task.parse_question(catalog.format_question(task, payload)) == payload


@pytest.mark.parametrize("name", TASK_NAMES)
def test_example_answer_round_trip(name):
    task = catalog.CATALOG[name]
    text = catalog.format_answer(task, task.example_input, task.example_output)
    assert task.parse_answer(text) == task.example_output


@pytest.mark.parametrize("name", TASK_NAMES)
def test_routine_answer_round_trip(name):
    task = catalog.CATALOG[name]
    for payload in payloads(task):
        result = receiver_result(task, payload)
        assert task.parse_answer(catalog.format_answer(task, payload, result)) == result


@pytest.mark.parametrize("name", TASK_NAMES)
def test_non_template_text_parses_to_none(name):
    task = catalog.CATALOG[name]
    assert task.parse_answer("Sorry, the request failed: x") is None
    assert task.parse_question("Sorry, the request failed: x") is None


_NOT_A = {"number": "many", "integer": "many", "boolean": "maybe"}


@pytest.mark.parametrize("name", TASK_NAMES)
def test_mistyped_field_parses_to_none(name):
    task = catalog.CATALOG[name]
    checked = 0
    for field, prop in task.output_schema["properties"].items():
        if prop["type"] in _NOT_A:
            result = {**task.example_output, field: _NOT_A[prop["type"]]}
            assert task.parse_answer(catalog.format_answer(task, task.example_input, result)) is None
            checked += 1
    for field, prop in task.input_schema["properties"].items():
        if prop["type"] in _NOT_A:
            payload = {**task.example_input, field: _NOT_A[prop["type"]]}
            assert task.parse_question(catalog.format_question(task, payload)) is None
    assert checked


# ── integrity: the fixtures, the worked examples and the derived steps ──

@pytest.mark.parametrize("name", TASK_NAMES)
def test_receiver_routine_answers_the_worked_example(name):
    task = catalog.CATALOG[name]
    assert receiver_result(task, task.example_input) == task.example_output


@pytest.mark.parametrize("name", TASK_NAMES)
def test_steps_name_known_tools(name):
    task = catalog.CATALOG[name]
    external = {tool["name"] for tool in task.server_tools}
    assert task.steps
    for step in task.steps:
        assert step["tool"] in catalog.MOCK_TOOLS or step["tool"] in external
    for tool in task.server_tools:
        assert tool["task_type"] in catalog.CATALOG


@pytest.mark.parametrize("name", [name for name in TASK_NAMES if catalog.CATALOG[name].tool])
def test_one_step_task_passes_every_input_field(name):
    task = catalog.CATALOG[name]
    inputs, outputs = task.input_schema["properties"], task.output_schema["properties"]
    assert task.steps == ({"tool": task.tool, "args": {f: f"$input.{f}" for f in inputs},
                           "bind": "result"},)
    assert task.output_template == {f: f"$result.{f}" for f in outputs}
    assert catalog.MOCK_TOOLS[task.tool](task.example_input) == task.example_output
