"""Deterministic scripted backends for offline runs and tests.

A scripted backend is a pure function of the conversation: it recognizes
the prompt kind by the role marker in the system message and replays the
catalog's canned behaviour: negotiations converge on the catalog's
canonical protocol text, the suitability judge does word-overlap matching
on protocol metadata, the server walks the catalog's tool steps, and the
routine author emits the catalog's routine specs.

Token usage defaults to the package tokenizer over prompt and reply;
``usage_overrides`` pins per-reply-kind usage instead, which is how the
two-agent demo calibrates its ledger. An optional injected failure rate
simulates flaky model APIs (default 0; nonzero rates draw from a private
seeded generator).
"""

from __future__ import annotations

import json
import random
import re
import threading

from . import catalog, prompts
from .documents import parse_document
from .gateway import BackendError, CompletionBackend, Message, TokenUsage, count_tokens
from .routines import RoutineError

_WORD_RE = re.compile(r"[a-z]{4,}")
MIN_OVERLAP = 2    # shared content words that make a protocol suit a task

# Generic words that shouldn't count as evidence of a protocol matching a task.
_STOPWORDS = frozenset({
    "protocol", "service", "query", "querying", "request", "with", "that", "this",
    "from", "given", "between", "city", "date", "time", "address", "addresses",
    "place", "places", "pickup", "dropoff", "format", "json", "object", "number",
    "string", "several",
})


def content_words(text: str) -> set[str]:
    return set(_WORD_RE.findall(text.lower())) - _STOPWORDS


def metadata_matches(task_description: str, name: str, description: str) -> bool:
    """Word-overlap suitability rule used by the scripted judge."""
    overlap = content_words(task_description) & content_words(f"{name} {description}")
    return len(overlap) >= MIN_OVERLAP


def _field(text: str, label: str) -> str:
    for line in text.splitlines():
        if line.startswith(label):
            return line[len(label):].strip()
    return ""


def _last_user_message(conversation: list[Message]) -> str | None:
    for message in reversed(conversation):
        if message.role == "user":
            return message.content
    return None


class ScriptedBackend(CompletionBackend):
    """Catalog-driven deterministic backend for both user and server agents."""

    def __init__(self, usage_overrides: dict[str, TokenUsage] | None = None,
                 failure_rate: float = 0.0, failure_seed: int = 0):
        self.usage_overrides = dict(usage_overrides or {})
        self.failure_rate = failure_rate
        self._fail_rng = random.Random(failure_seed)
        self._fail_lock = threading.Lock()

    # -- entry point ----------------------------------------------------

    def complete(self, conversation: list[Message]) -> tuple[str, TokenUsage]:
        self._maybe_fail()
        system = conversation[0].content if conversation else ""
        if prompts.ROLE_NEGOTIATION in system:
            kind, reply = self._negotiation(system, conversation)
        elif prompts.ROLE_SUITABILITY in system:
            kind, reply = self._suitability(conversation)
        elif prompts.ROLE_SERVER in system:
            kind, reply = self._server(system, conversation)
        elif prompts.ROLE_COMPOSE in system:
            kind, reply = self._compose(system, conversation)
        elif prompts.ROLE_SYNTHESIS in system:
            kind, reply = self._synthesis(system, conversation)
        elif prompts.ROLE_PARSE in system:
            kind, reply = self._parse(system, conversation)
        else:
            kind, reply = "chat", "OK."
        return reply, self._usage(kind, conversation, reply)

    def _maybe_fail(self) -> None:
        if self.failure_rate <= 0:
            return
        with self._fail_lock:
            if self._fail_rng.random() < self.failure_rate:
                raise BackendError("injected backend failure")

    def _usage(self, kind: str, conversation: list[Message], reply: str) -> TokenUsage:
        override = self.usage_overrides.get(kind)
        if override is not None:
            return override
        prompt_tokens = sum(count_tokens(m.content) for m in conversation)
        return TokenUsage(prompt_tokens, count_tokens(reply))

    # -- negotiation -----------------------------------------------------

    def _negotiation(self, system: str, conversation: list[Message]) -> tuple[str, str]:
        side = _field(system, "Side: ")
        task_type = _field(system, "Task type: ")
        task = catalog.CATALOG.get(task_type)
        last_peer = _last_user_message(conversation)

        if side == "receiver":
            if last_peer and "I agree" in last_peer and task is not None:
                text = "Great. Finalizing the protocol now.\n" + prompts.make_finalized(
                    catalog.pd_text(task))
                return "negotiation_finalize", text
            return "negotiation_proposal", self._proposal(task_type, task)

        if last_peer and "proposal" in last_peer.lower():
            return "negotiation_agree", "I agree. Please finalize the protocol."
        return "negotiation_ask", (
            f"Could you propose a message format for this task? Task type: {task_type}.")

    @staticmethod
    def _proposal(task_type: str, task) -> str:
        if task is None:
            return ("Here is my proposal: exchange JSON objects whose fields we still "
                    "need to pin down. Reply 'I agree' to finalize.")
        in_fields = ", ".join(task.input_schema.get("properties", {}))
        out_fields = ", ".join(task.output_schema.get("properties", {}))
        return (f"Here is my proposal for task type {task_type}: the request is a JSON "
                f"object with fields {in_fields}; the response is a JSON object with "
                f"fields {out_fields}. Reply 'I agree' to finalize.")

    # -- suitability judging ----------------------------------------------

    def _suitability(self, conversation: list[Message]) -> tuple[str, str]:
        request = _last_user_message(conversation) or ""
        task_description = _field(request, "Task: ")
        for line in request.splitlines():
            if not line.startswith("- "):
                continue
            parts = line[2:].split(" :: ")
            if len(parts) != 3:
                continue
            digest, name, description = parts
            if metadata_matches(task_description, name, description):
                return "suitability", digest
        return "suitability", "NONE"

    # -- server handling (tool loop) ----------------------------------------

    def _server(self, system: str, conversation: list[Message]) -> tuple[str, str]:
        protocol_mode = "The request follows this protocol document:" in system
        body = conversation[1].content if len(conversation) > 1 else ""

        if protocol_mode:
            title = _field(system.split("The request follows this protocol document:", 1)[1],
                           "Name: ")
            task = catalog.task_for_protocol_title(title)
        else:
            task_name = catalog.classify(body)
            task = catalog.CATALOG.get(task_name) if task_name else None
        if task is None:
            return "final_reply", "I cannot handle this request."

        if protocol_mode:
            try:
                payload = json.loads(body)
            except (ValueError, RecursionError):
                return "final_reply", json.dumps({"error": "request body is not valid JSON"})
        else:
            payload = task.parse_question(body)
            if payload is None:
                return "final_reply", "I could not understand the question."

        tool_results = []
        for message in conversation:
            if message.role == "tool":
                try:
                    tool_results.append(json.loads(message.content))
                except ValueError:
                    tool_results.append({"error": "unreadable tool result"})

        if tool_results and isinstance(tool_results[-1], dict) and "error" in tool_results[-1]:
            if protocol_mode:
                return "final_reply", json.dumps(tool_results[-1])
            return "final_reply", f"Sorry, the request failed: {tool_results[-1]['error']}"

        bindings = {"input": payload}
        for (_, _, bind), result in zip(task.plan, tool_results):
            bindings[bind] = result

        try:
            if len(tool_results) < len(task.plan):
                tool, args, _ = task.plan[len(tool_results)]
                return "tool_call", prompts.format_tool_call(tool, args(bindings))
            result = task.resolve_output(bindings)
        except RoutineError as exc:
            message = {"error": f"cannot assemble reply: {exc}"}
            if protocol_mode:
                return "final_reply", json.dumps(message)
            return "final_reply", f"Sorry, the request failed: {message['error']}"

        if protocol_mode:
            return "final_reply", json.dumps(result)
        return "final_reply", catalog.format_answer(task, payload, result)

    # -- outbound composition ---------------------------------------------

    def _compose(self, system: str, conversation: list[Message]) -> tuple[str, str]:
        payload = prompts.parse_task_data(_last_user_message(conversation) or "")
        if payload is None:
            return "compose", "{}"
        if "Format the request body exactly" in system:
            return "compose", json.dumps(payload)
        task = catalog.CATALOG.get(_field(system, "Task type: "))
        if task is None:
            return "compose", json.dumps(payload)
        return "compose", catalog.format_question(task, payload)

    # -- reply parsing --------------------------------------------------------

    def _parse(self, system: str, conversation: list[Message]) -> tuple[str, str]:
        task = catalog.CATALOG.get(_field(system, "Task type: "))
        reply = _last_user_message(conversation) or ""
        parsed = task.parse_answer(reply) if task else None
        if parsed is None:
            return "parse", json.dumps({"error": "could not extract the task result"})
        return "parse", json.dumps(parsed)

    # -- routine authoring ---------------------------------------------------

    def _synthesis(self, system: str, conversation: list[Message]) -> tuple[str, str]:
        side = _field(system, "Side: ")
        request = _last_user_message(conversation) or ""
        digest = _field(request, "Protocol hash: ")
        pd_marker = "Protocol document:\n"
        if pd_marker not in request:
            return "synthesis", "{}"
        doc = parse_document(request.split(pd_marker, 1)[1])
        task = catalog.task_for_protocol_title(doc.name)
        if task is None:
            return "synthesis", "{}"
        if side == "sender":
            spec = catalog.sender_routine_spec(task, digest)
        else:
            spec = catalog.receiver_routine_spec(task, digest)
        return "synthesis", json.dumps(spec)


# ── demo calibration ─────────────────────────────────────────────────

DEMO_MODEL_ID = "demo-model"


def calibrated_usage_profile() -> dict[str, TokenUsage]:
    """Per-reply-kind usage making, at flat 1.0/1.0 USD-per-million prices,
    a natural-language exchange cost 0.020 USD and a negotiation plus both
    routine implementations cost 0.043 USD."""
    return {
        "compose": TokenUsage(2000, 1000),              # user formats a request
        "tool_call": TokenUsage(4000, 2000),            # server decides the tool call
        "final_reply": TokenUsage(5000, 2000),          # server formats the reply
        "parse": TokenUsage(3000, 1000),                # user extracts the result
        "negotiation_ask": TokenUsage(2000, 1000),
        "negotiation_proposal": TokenUsage(6000, 6000),
        "negotiation_agree": TokenUsage(3000, 3000),
        "negotiation_finalize": TokenUsage(5000, 10000),
        "suitability": TokenUsage(2500, 500),
        "synthesis": TokenUsage(4000, 1000),            # per side
    }
