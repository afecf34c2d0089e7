"""Declarative routines: deterministic handlers bound to one side of a protocol.

A routine is a small spec (input schema, ordered tool invocations, output
mapping). Building a ``Routine`` compiles the spec once into a plan of
closures: the schema check, each step's argument template and the output
template. ``run_routine`` runs that plan on an already decoded value, so no
request walks the spec again; ``execute_routine`` decodes a JSON request
body and runs it. A sender runs its routine on the task payload itself, as
JSON would give it back (``as_decoded_json``), so it does not encode the
payload only to decode it again. Executing a routine never touches a
completion backend, so exchanges handled by routines on both sides cost
nothing.

Templates reference earlier values with ``$``-paths: ``$input.date`` is the
``date`` field of the (JSON-decoded) request body, ``$wx.temperature``
descends into the result a step bound to ``wx``. A string that starts with
``$$`` stands for the literal text after the first ``$``; any other string
that does not start with ``$`` is a literal.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable

from .documents import write_file_atomically

SENDER = "sender"
RECEIVER = "receiver"
SIDES = (SENDER, RECEIVER)

ToolRunner = Callable[[dict], Any]
Resolver = Callable[[Mapping], Any]


class RoutineError(Exception):
    """Base class for routine failures."""


class RoutineSpecError(RoutineError):
    """The routine spec itself is malformed."""


class RoutineInputError(RoutineError):
    """The request body does not satisfy the routine's input schema.

    Callers fall back to model handling when they see this.
    """


class RoutineExecutionError(RoutineError):
    """A step failed: unknown tool, unknown binding, or bad reference."""


@dataclass(frozen=True)
class RoutineStep:
    tool: str
    args: dict
    bind: str


@dataclass(frozen=True)
class Routine:
    """A routine spec plus the plan compiled from it when it is built.

    The plan reads the spec's templates and schema once, at construction;
    mutating them afterwards does not change what the routine executes."""

    protocol_hash: str
    side: str
    input_schema: dict
    steps: tuple[RoutineStep, ...] = ()
    output_template: Any = field(default_factory=dict)
    _plan: Callable[[Any, Mapping[str, ToolRunner]], str] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_plan", _compile_routine(self))

    def to_spec(self) -> dict:
        return {
            "protocol_hash": self.protocol_hash,
            "side": self.side,
            "input": self.input_schema,
            "steps": [{"tool": s.tool, "args": s.args, "bind": s.bind} for s in self.steps],
            "output": self.output_template,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), indent=2)


def routine_from_spec(spec: dict | str) -> Routine:
    """Parse and validate a routine spec (dict or JSON text). Every
    malformed spec raises RoutineSpecError."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except ValueError as exc:
            raise RoutineSpecError(f"routine spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise RoutineSpecError("routine spec must be a JSON object")
    try:
        side = spec["side"]
        if side not in SIDES:
            raise RoutineSpecError(f"side must be one of {SIDES}, got {side!r}")
        input_schema = spec.get("input", {})
        if not isinstance(input_schema, dict):
            raise RoutineSpecError("routine input schema must be an object")
        raw_steps = spec.get("steps", [])
        if not isinstance(raw_steps, list):
            raise RoutineSpecError("routine steps must be a list")
        steps = []
        for raw in raw_steps:
            if not isinstance(raw, dict):
                raise RoutineSpecError("each routine step must be an object")
            if not isinstance(raw.get("args", {}), dict):
                raise RoutineSpecError("step args must be an object")
            steps.append(RoutineStep(
                tool=raw["tool"],
                args=dict(raw.get("args", {})),
                bind=raw.get("bind", "result"),
            ))
        return Routine(
            protocol_hash=spec["protocol_hash"],
            side=side,
            input_schema=dict(input_schema),
            steps=tuple(steps),
            output_template=spec.get("output", {}),
        )
    except KeyError as exc:
        raise RoutineSpecError(f"routine spec missing field: {exc}") from exc


# ── schema validation ────────────────────────────────────────────────

_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
}


def _compile_schema(schema: dict) -> Callable[[Any], None]:
    """Compile a minimal object schema (required keys plus per-property
    type names) into a check that raises RoutineInputError on violation.
    A schema of the wrong shape raises RoutineSpecError."""
    if not isinstance(schema, dict):
        raise RoutineSpecError("routine input schema must be an object")
    required = schema.get("required", [])
    if not isinstance(required, list) or not all(isinstance(k, str) for k in required):
        raise RoutineSpecError("schema 'required' must be a list of field names")
    properties = schema.get("properties", {})
    if not isinstance(properties, dict):
        raise RoutineSpecError("schema 'properties' must be an object")
    typed = []
    for key, prop in properties.items():
        if not isinstance(prop, dict):
            raise RoutineSpecError(f"schema property {key!r} must be an object")
        expected = prop.get("type")
        if expected is not None and not isinstance(expected, str):
            raise RoutineSpecError(f"schema property {key!r} has a type that is not a name")
        check = _TYPE_CHECKS.get(expected)
        if check is not None:
            typed.append((key, check, expected))
    required = tuple(required)
    typed = tuple(typed)

    def validate(value: Any) -> None:
        if not isinstance(value, dict):
            raise RoutineInputError("request body must decode to a JSON object")
        for key in required:
            if key not in value:
                raise RoutineInputError(f"missing required field: {key}")
        for key, check, expected in typed:
            if key in value and not check(value[key]):
                raise RoutineInputError(f"field {key!r} is not of type {expected}")
    return validate


# ── template resolution ──────────────────────────────────────────────

def _compile_reference(path: str) -> Resolver:
    head, *fields = path.split(".")

    def lookup(bindings: Mapping) -> Any:
        if head not in bindings:
            raise RoutineExecutionError(f"unknown binding in reference: ${path}")
        value = bindings[head]
        for part in fields:
            # Values are decoded JSON, so the exact-type test almost always
            # decides; the ABC test keeps other mappings working.
            if (type(value) is dict or isinstance(value, Mapping)) and part in value:
                value = value[part]
            else:
                raise RoutineExecutionError(f"cannot resolve ${path}: no field {part!r}")
        return value
    return lookup


def compile_template(template: Any) -> Resolver:
    """Compile *template* once into a function of the bindings that
    builds the resolved value, raising RoutineExecutionError on a bad
    reference."""
    if isinstance(template, str):
        if template.startswith("$$"):
            literal = template[1:]
            return lambda bindings: literal
        if template.startswith("$"):
            return _compile_reference(template[1:])
        return lambda bindings: template
    if isinstance(template, dict):
        items = tuple((k, compile_template(v)) for k, v in template.items())
        return lambda bindings: {k: resolve(bindings) for k, resolve in items}
    if isinstance(template, list):
        parts = tuple(compile_template(v) for v in template)
        return lambda bindings: [resolve(bindings) for resolve in parts]
    return lambda bindings: template


# ── execution ────────────────────────────────────────────────────────

def _compile_routine(routine: Routine) -> Callable[[Any, Mapping[str, ToolRunner]], str]:
    validate = _compile_schema(routine.input_schema)
    steps = []
    for step in routine.steps:
        if not isinstance(step.tool, str) or not isinstance(step.bind, str):
            raise RoutineSpecError("step tool and bind must be strings")
        steps.append((step.tool, compile_template(step.args), step.bind))
    steps = tuple(steps)
    output = compile_template(routine.output_template)

    def run(parsed: Any, tools: Mapping[str, ToolRunner]) -> str:
        validate(parsed)
        bindings: dict[str, Any] = {"input": parsed}
        for tool, args, bind in steps:
            if tool not in tools:
                raise RoutineExecutionError(f"routine references unknown tool {tool!r}")
            bindings[bind] = tools[tool](args(bindings))
        result = output(bindings)
        if isinstance(result, str):
            return result
        return json.dumps(result)
    return run


def run_routine(routine: Routine, value: Any, tools: Mapping[str, ToolRunner]) -> str:
    """Run *routine* on a decoded JSON value; returns the output body.

    Deterministic given tool results, and never invokes a completion
    backend. RoutineInputError means the value failed schema validation and
    the caller should handle the request with the model instead. The value
    is not copied: tools must not mutate their arguments.
    """
    return routine._plan(value, tools)


def execute_routine(routine: Routine, body: str, tools: Mapping[str, ToolRunner]) -> str:
    """Decode a JSON request body and run *routine* on it (``run_routine``)."""
    try:
        parsed = json.loads(body)
    except (ValueError, RecursionError) as exc:
        raise RoutineInputError(f"request body is not valid JSON: {exc}") from exc
    return run_routine(routine, parsed, tools)


_JSON_SCALARS = frozenset({str, float, bool, type(None)})
# Below 2**2048 an int has fewer digits than any int_max_str_digits limit
# allows (640), so encoding it cannot fail.
_INT_BITS = 2048
# Deeper (or circular) values take the round trip, which reports them.
_DECODED_DEPTH = 32


def _is_decoded(value: Any, depth: int) -> bool:
    kind = type(value)
    if kind in _JSON_SCALARS:
        return True
    if kind is int:
        return value.bit_length() < _INT_BITS
    if depth == _DECODED_DEPTH:
        return False
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str or not (type(item) in _JSON_SCALARS
                                            or _is_decoded(item, depth + 1)):
                return False
        return True
    if kind is list:
        for item in value:
            if not (type(item) in _JSON_SCALARS or _is_decoded(item, depth + 1)):
                return False
        return True
    return False


def as_decoded_json(value: Any) -> Any:
    """*value* as ``json.loads(json.dumps(value))`` gives it back.

    A value that already is decoded JSON (exact dicts with str keys, lists,
    strs, ints, floats, bools and None) is returned as it is, uncopied; any
    other value takes the round trip, so tuples become lists, keys become
    strings and an unencodable value raises what ``json.dumps`` raises.
    """
    if _is_decoded(value, 0):
        return value
    return json.loads(json.dumps(value))


# ── file store ───────────────────────────────────────────────────────

def routine_filename(protocol_hash: str, side: str) -> str:
    return f"{protocol_hash}.{side}.routine"


def save_routine(routine: Routine, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, routine_filename(routine.protocol_hash, routine.side))
    write_file_atomically(path, routine.to_json())
    return path


def load_routine(path: str) -> Routine:
    """Read a routine file; raises RoutineSpecError for bytes that are not
    UTF-8 or a spec that is malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise RoutineSpecError(f"{path} is not UTF-8: {exc}") from exc
    return routine_from_spec(text)
