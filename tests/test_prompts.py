"""Each prompt reader reads back exactly what its builder wrote."""

import pytest
from hypothesis import given, strategies as st

from agentmesh import catalog, prompts
from agentmesh.documents import compute_hash
from agentmesh.runtime import ToolDescriptor

# A value on one line of a prompt: any text without a line break.
_line = st.text(st.characters(exclude_characters="\n", exclude_categories=("Cs",)), max_size=30)
_digests = st.text("0123456789abcdef", min_size=40, max_size=40)
# The candidate separator cannot be told apart from a name holding " ::".
_names = _line.filter(lambda name: " ::" not in name)
_candidates = st.lists(st.tuples(_digests, _names, _line), max_size=4)

TOOLS = tuple(ToolDescriptor(task.tool, "database", task.purpose, task.name)
              for task in catalog.CATALOG.values() if task.tool)


def _headers(message, expected: dict) -> None:
    for label, value in expected.items():
        assert prompts.read_header(message.content, label) == value


@given(agent=_line, side=_line, task_type=_line, task=_line)
def test_negotiation_system_headers(agent, side, task_type, task):
    _headers(prompts.negotiation_system(agent, side, task_type, task), {
        prompts.AGENT: agent, prompts.SIDE: side, prompts.TASK_TYPE: task_type, prompts.TASK: task})


@given(agent=_line)
def test_suitability_and_server_system_headers(agent):
    _headers(prompts.suitability_system(agent), {prompts.AGENT: agent})
    _headers(prompts.server_system(agent, TOOLS, None), {prompts.AGENT: agent})
    _headers(prompts.server_system(agent, TOOLS, catalog.WEATHER_PD_TEXT), {prompts.AGENT: agent})


@given(agent=_line, task_type=_line, task=_line, with_protocol=st.booleans())
def test_compose_and_parse_system_headers(agent, task_type, task, with_protocol):
    expected = {prompts.AGENT: agent, prompts.TASK_TYPE: task_type, prompts.TASK: task}
    text = catalog.WEATHER_PD_TEXT if with_protocol else None
    _headers(prompts.compose_system(agent, task_type, task, text), expected)
    _headers(prompts.parse_system(agent, task_type, task), expected)


@given(agent=_line, side=_line, digest=_digests)
def test_synthesis_headers(agent, side, digest):
    _headers(prompts.synthesis_system(agent, side, TOOLS), {prompts.AGENT: agent, prompts.SIDE: side})
    _headers(prompts.synthesis_request(catalog.WEATHER_PD_TEXT, digest),
             {prompts.PROTOCOL_HASH: digest})


def test_missing_header_reads_empty():
    assert prompts.read_header("ROLE: parse\nAgent: a", prompts.SIDE) == ""


@given(task=_line, candidates=_candidates)
def test_suitability_request_round_trip(task, candidates):
    request = prompts.suitability_request(task, candidates)
    assert prompts.read_suitability_request(request.content) == (task, candidates)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_suitability_request_of_catalog_candidates(count):
    tasks = list(catalog.CATALOG.values())[:count]
    candidates = [(compute_hash(catalog.pd_text(t)), t.title, t.purpose) for t in tasks]
    request = prompts.suitability_request("book a taxi", candidates)
    assert prompts.read_suitability_request(request.content) == ("book a taxi", candidates)


@pytest.mark.parametrize("name", sorted(catalog.CATALOG))
def test_protocol_text_round_trip(name):
    text = catalog.pd_text(catalog.CATALOG[name])
    assert text.endswith("\n")
    carried = [
        (prompts.server_system("bob", TOOLS, text).content, prompts.SERVER_PROTOCOL),
        (prompts.compose_system("alice", name, "t", text).content, prompts.COMPOSE_PROTOCOL),
        (prompts.synthesis_request(text, compute_hash(text)).content, prompts.SYNTHESIS_PROTOCOL),
    ]
    for content, marker in carried:
        assert prompts.read_protocol_text(content, marker) == text


def test_language_prompts_carry_no_protocol_text():
    assert prompts.read_protocol_text(
        prompts.server_system("bob", TOOLS, None).content, prompts.SERVER_PROTOCOL) is None
    assert prompts.read_protocol_text(
        prompts.compose_system("alice", "taxi", "t", None).content, prompts.COMPOSE_PROTOCOL) is None
