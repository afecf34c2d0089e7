"""The routine interpreter: schemas, templates, execution, persistence."""

import enum
import json
from collections.abc import Mapping
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from agentmesh import catalog
from agentmesh.documents import compute_hash
from agentmesh.routines import (RECEIVER, SENDER, Routine, RoutineExecutionError,
                                RoutineInputError, RoutineSpecError, RoutineStep,
                                as_decoded_json, compile_template, execute_routine,
                                load_routine, routine_from_spec, run_routine,
                                save_routine)

WEATHER_HASH = compute_hash(catalog.WEATHER_PD_TEXT)


@pytest.fixture
def receiver_routine():
    task = catalog.CATALOG["weather"]
    return catalog.routine_for(task, RECEIVER, WEATHER_HASH)


@pytest.fixture
def sender_routine():
    task = catalog.CATALOG["weather"]
    return catalog.routine_for(task, SENDER, WEATHER_HASH)


class TestSpecParsing:
    def test_round_trip(self, receiver_routine):
        again = routine_from_spec(receiver_routine.to_json())
        assert again == receiver_routine

    def test_bad_side(self):
        with pytest.raises(RoutineSpecError):
            routine_from_spec({"protocol_hash": "x", "side": "middle"})

    def test_missing_field(self):
        with pytest.raises(RoutineSpecError):
            routine_from_spec({"side": "sender"})

    def test_not_json(self):
        with pytest.raises(RoutineSpecError):
            routine_from_spec("not json at all")

    @pytest.mark.parametrize("extra", [
        {"input": 5},
        {"input": [["a", "b"]]},
        {"steps": 5},
        {"steps": {"tool": "t"}},
        {"steps": [5]},
        {"steps": [{"tool": ["t"], "args": {}}]},
        {"steps": [{"tool": "t", "args": {}, "bind": 3}]},
        {"input": {"properties": {"date": 5}}},
        {"input": {"properties": ["date"]}},
        {"input": {"properties": {"date": {"type": ["string", "null"]}}}},
        {"input": {"required": "date"}},
        {"input": {"required": [["date"]]}},
    ])
    def test_every_malformed_spec_is_a_spec_error(self, extra):
        with pytest.raises(RoutineSpecError):
            routine_from_spec({"protocol_hash": "x", "side": "sender", **extra})

    def test_replace_recompiles(self, sender_routine):
        moved = replace(sender_routine, output_template="$input.location")
        body = json.dumps({"date": "2024-09-27", "location": "London, UK"})
        assert execute_routine(moved, body, {}) == "London, UK"
        assert moved != sender_routine
        assert replace(sender_routine) == sender_routine


def validate_input(schema: dict, value: dict) -> None:
    """Run *value* through the schema check of a routine that takes *schema*."""
    routine = routine_from_spec({"protocol_hash": WEATHER_HASH, "side": SENDER,
                                 "input": schema, "output": "$input"})
    run_routine(routine, value, {})


class TestValidateInput:
    SCHEMA = {"required": ["date", "location"],
              "properties": {"date": {"type": "string"}, "location": {"type": "string"}}}

    def test_accepts_valid(self):
        validate_input(self.SCHEMA, {"date": "2023-10-01", "location": "New York"})

    def test_missing_required(self):
        with pytest.raises(RoutineInputError, match="date"):
            validate_input(self.SCHEMA, {"location": "New York"})

    def test_wrong_type(self):
        with pytest.raises(RoutineInputError, match="location"):
            validate_input(self.SCHEMA, {"date": "x", "location": 7})

    def test_bool_is_not_number(self):
        with pytest.raises(RoutineInputError):
            validate_input({"properties": {"n": {"type": "number"}}, "required": []},
                           {"n": True})


class TestTemplates:
    def test_nested_lookup(self):
        assert compile_template("$a.b.c")({"a": {"b": {"c": 5}}}) == 5

    def test_literal_passthrough(self):
        assert compile_template({"x": "plain", "n": 3})({}) == {"x": "plain", "n": 3}

    def test_dollar_escape(self):
        assert compile_template("$$literal")({}) == "$literal"

    def test_unknown_binding(self):
        with pytest.raises(RoutineExecutionError):
            compile_template("$nope.x")({"input": {}})

    def test_missing_field(self):
        with pytest.raises(RoutineExecutionError):
            compile_template("$input.absent")({"input": {}})


# The recursive interpreter that resolved templates on every call before
# routines were compiled; the compiled resolver must agree with it.

def _reference_lookup(path, bindings):
    parts = path.split(".")
    if parts[0] not in bindings:
        raise RoutineExecutionError(f"unknown binding in reference: ${path}")
    value = bindings[parts[0]]
    for part in parts[1:]:
        if isinstance(value, Mapping) and part in value:
            value = value[part]
        else:
            raise RoutineExecutionError(f"cannot resolve ${path}: no field {part!r}")
    return value


def _reference_resolve(template, bindings):
    if isinstance(template, str):
        if template.startswith("$$"):
            return template[1:]
        if template.startswith("$"):
            return _reference_lookup(template[1:], bindings)
        return template
    if isinstance(template, dict):
        return {k: _reference_resolve(v, bindings) for k, v in template.items()}
    if isinstance(template, list):
        return [_reference_resolve(v, bindings) for v in template]
    return template


def _outcome(resolve, template, bindings):
    try:
        return "value", resolve(template, bindings)
    except RoutineExecutionError as exc:
        return "error", str(exc)


_NAMES = st.sampled_from(["input", "wx", "cp", "nope"])
_FIELDS = st.sampled_from(["a", "b", "c", ""])
_SCALARS = st.none() | st.booleans() | st.integers(-5, 5) | st.text("ab $.", max_size=4)
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(_FIELDS, inner, max_size=3), max_leaves=12)
_REFERENCES = st.builds(lambda head, fields: "$" + ".".join([head, *fields]),
                        _NAMES, st.lists(_FIELDS, max_size=4))
_LEAVES = (_SCALARS | _REFERENCES | st.text("ab$.", max_size=4).map(lambda t: "$$" + t)
           | st.just("$") | st.just("$.a"))
_TEMPLATES = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(_FIELDS, inner, max_size=3), max_leaves=12)
_BINDINGS = st.dictionaries(_NAMES.filter(lambda n: n != "nope"), _VALUES, max_size=3)


class TestCompiledResolverMatchesInterpreter:
    @given(_TEMPLATES, _BINDINGS)
    def test_resolve_template(self, template, bindings):
        assert (_outcome(lambda t, b: compile_template(t)(b), template, bindings)
                == _outcome(_reference_resolve, template, bindings))

    @given(_TEMPLATES, st.dictionaries(_FIELDS, _VALUES, max_size=3))
    def test_routine_output(self, template, value):
        def run(output_template, bindings):
            routine = Routine("h", SENDER, {}, output_template=output_template)
            return execute_routine(routine, json.dumps(bindings["input"]), {})

        kind, expected = _outcome(_reference_resolve, template, {"input": value})
        if kind == "value" and not isinstance(expected, str):
            expected = json.dumps(expected)
        assert _outcome(run, template, {"input": value}) == (kind, expected)


class TestExecution:
    def test_weather_receiver_maps_example(self, receiver_routine):
        body = json.dumps({"date": "2023-10-01", "location": "New York"})
        out = execute_routine(receiver_routine, body, catalog.MOCK_TOOLS)
        assert json.loads(out) == {"temperature": 22.5, "precipitation": 5.0,
                                   "weatherCondition": "cloudy"}

    def test_weather_sender_serializes_payload(self, sender_routine):
        body = json.dumps({"date": "2024-09-27", "location": "London, UK"})
        out = execute_routine(sender_routine, body, {})
        assert json.loads(out) == {"date": "2024-09-27", "location": "London, UK"}

    def test_missing_date_raises_input_error(self, receiver_routine):
        with pytest.raises(RoutineInputError):
            execute_routine(receiver_routine, json.dumps({"location": "New York"}),
                            catalog.MOCK_TOOLS)

    def test_non_json_body_raises_input_error(self, receiver_routine):
        with pytest.raises(RoutineInputError):
            execute_routine(receiver_routine, "what is the weather?", catalog.MOCK_TOOLS)

    def test_unknown_tool(self, receiver_routine):
        with pytest.raises(RoutineExecutionError, match="weather_db"):
            execute_routine(receiver_routine,
                            json.dumps({"date": "2023-10-01", "location": "New York"}), {})

    def test_unknown_tool_is_reported_before_its_args(self):
        routine = Routine("h", SENDER, {}, steps=(RoutineStep("ghost", {"x": "$nope.x"}, "r"),))
        with pytest.raises(RoutineExecutionError, match="unknown tool 'ghost'"):
            execute_routine(routine, "{}", {})

    def test_bad_reference_is_reported_before_a_later_unknown_tool(self):
        routine = Routine("h", SENDER, {}, steps=(
            RoutineStep("echo", {"x": "$input.absent"}, "r"),
            RoutineStep("ghost", {}, "s"),
        ))
        with pytest.raises(RoutineExecutionError, match=r"cannot resolve \$input.absent"):
            execute_routine(routine, "{}", {"echo": lambda args: args})

    def test_same_input_same_output(self, receiver_routine):
        body = json.dumps({"date": "2024-10-14", "location": "Berlin"})
        outputs = {execute_routine(receiver_routine, body, catalog.MOCK_TOOLS)
                   for _ in range(10)}
        assert len(outputs) == 1


class _Seats(enum.IntEnum):
    TWO = 2


# Sends the whole decoded payload back, so the body shows what the routine saw.
_ECHO = Routine("h", SENDER, {"required": ["a"], "properties": {"a": {"type": "string"}}},
                output_template={"a": "$input.a", "all": "$input"})


def _deep(depth):
    value = "leaf"
    for _ in range(depth):
        value = {"a": "x", "next": [value]}
    return value


def _sent(run):
    """The body a sender routine gives, or the error it raises."""
    try:
        return "body", run()
    except Exception as exc:
        return type(exc), str(exc)


def _assert_shortcut_matches_round_trip(routine, payload, tools):
    shortcut = _sent(lambda: run_routine(routine, as_decoded_json(payload), tools))
    round_trip = _sent(lambda: execute_routine(routine, json.dumps(payload), tools))
    assert shortcut == round_trip


_KEYS = st.text("ab", max_size=2) | st.integers(-2, 2) | st.booleans() | st.none()
_PAYLOAD_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                    | st.text(max_size=4) | st.just(_Seats.TWO))
_PAYLOADS = st.recursive(
    _PAYLOAD_SCALARS,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=12)


class TestSenderShortcut:
    """A sender runs its routine on the payload as JSON would give it back;
    the body, or the error, must be what encoding the payload and executing
    the routine on that text gives."""

    @pytest.mark.parametrize("payload", [
        {"a": "Paris", "date": "2024-10-14", "days": 3, "price": 45.0, "ok": True, "x": None},
        {"a": "Paris", "items": ["pad thai", {"qty": [1, 2.5]}], "meta": {"b": {"c": None}}},
        {"a": "Paris", "items": ("pad thai", "sushi set"), "pair": [("x", 1)]},
        {"a": "Paris", 1: "one", "n": {2: [3]}},
        {"a": "Paris", "seats": _Seats.TWO, "all": [_Seats.TWO]},
        {"a": "Paris", "price": float("nan"), "cap": float("inf")},
        {"a": "Paris", "big": 10 ** 5000},
        {"a": "Paris", "deep": _deep(40)},
        {"a": _Seats.TWO},
        {"date": "2024-10-14"},
        {"a": 5},
        ["a"],
        "a",
    ], ids=["flat", "nested", "tuple", "int-key", "intenum", "nan", "big-int", "deep",
            "intenum-typed", "missing-field", "wrong-type", "list", "str"])
    def test_body_or_error_matches_round_trip(self, payload):
        _assert_shortcut_matches_round_trip(_ECHO, payload, {})

    def test_set_raises_the_round_trips_type_error(self):
        payload = {"a": "Paris", "items": {"pad thai"}}
        with pytest.raises(TypeError) as expected:
            json.dumps(payload)
        with pytest.raises(TypeError) as raised:
            as_decoded_json(payload)
        assert str(raised.value) == str(expected.value)

    def test_circular_payload_raises_the_round_trips_error(self):
        payload = {"a": "Paris"}
        payload["self"] = payload
        _assert_shortcut_matches_round_trip(_ECHO, payload, {})

    def test_decoded_payload_is_passed_as_it_is(self):
        payload = {"a": "Paris", "items": ["x", {"y": 1.5}]}
        assert as_decoded_json(payload) is payload

    def test_other_payload_is_converted(self):
        payload = {"a": "Paris", "items": ("x",)}
        decoded = as_decoded_json(payload)
        assert decoded == {"a": "Paris", "items": ["x"]}
        assert payload == {"a": "Paris", "items": ("x",)}

    @given(_PAYLOADS)
    def test_any_payload_matches_round_trip(self, payload):
        _assert_shortcut_matches_round_trip(_ECHO, payload, {})


class TestPersistence:
    def test_save_load(self, tmp_path, receiver_routine):
        path = save_routine(receiver_routine, str(tmp_path))
        assert path.endswith(f"{WEATHER_HASH}.receiver.routine")
        assert load_routine(path) == receiver_routine

    def test_non_utf8_file_is_a_spec_error(self, tmp_path):
        path = tmp_path / f"{WEATHER_HASH}.receiver.routine"
        path.write_bytes(b'{"side": "\xff"}')
        with pytest.raises(RoutineSpecError, match="UTF-8"):
            load_routine(str(path))


class TestCatalogSpecsValidateEverywhere:
    """Every catalog task's routines must reproduce its worked example."""

    @pytest.mark.parametrize("name", [n for n in catalog.CATALOG
                                      if n not in ("food_order", "delivery")])
    def test_receiver_reproduces_example(self, name):
        task = catalog.CATALOG[name]
        routine = catalog.routine_for(task, RECEIVER, "0" * 40)
        out = execute_routine(routine, json.dumps(task.example_input), catalog.MOCK_TOOLS)
        assert json.loads(out) == task.example_output

    @pytest.mark.parametrize("name", list(catalog.CATALOG))
    def test_sender_reproduces_example_input(self, name):
        task = catalog.CATALOG[name]
        routine = catalog.routine_for(task, SENDER, "0" * 40)
        out = execute_routine(routine, json.dumps(task.example_input), {})
        assert json.loads(out) == task.example_input
