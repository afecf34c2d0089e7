"""Prompt builders and reply markers shared by the runtime and backends.

The runtime talks to completion backends through conversations built here;
scripted backends key their behaviour off the same marker lines, so the
formats below are load-bearing: a `Task type:` line names the workload
task, `TOOL_CALL ` prefixes a tool invocation request, and a fenced
FINALIZED block carries the byte-exact text of a negotiated protocol.
"""

from __future__ import annotations

import json

from .gateway import Message

TOOL_CALL_PREFIX = "TOOL_CALL "
FINALIZED_OPEN = "```FINALIZED\n"
FINALIZED_CLOSE = "\n```"

ROLE_NEGOTIATION = "ROLE: negotiation"
ROLE_SUITABILITY = "ROLE: suitability"
ROLE_SERVER = "ROLE: server"
ROLE_COMPOSE = "ROLE: compose"
ROLE_SYNTHESIS = "ROLE: synthesis"
ROLE_PARSE = "ROLE: parse"

# Standing instructions included in every request-handling prompt. Live
# deployments carry presets like this; the simulator charges for them like
# any other prompt tokens.
SERVER_PREAMBLE = (
    "Follow the rules of the service you provide. Be precise about units, "
    "identifiers and formats; never invent data you did not obtain from a "
    "tool. If a tool reports an error, relay that error instead of guessing. "
    "Keep replies minimal: answer only what was asked, with no greetings or "
    "commentary. When a protocol document governs the exchange, the reply "
    "must match its output schema exactly, with no extra fields. When "
    "replying in natural language, state every value the requester needs in "
    "one unambiguous sentence."
)
COMPOSE_PREAMBLE = (
    "You are the requester side of an agent-to-agent exchange. Produce a "
    "request another automated service can act on without clarification: "
    "include every task datum, keep names and dates exactly as given, and "
    "add nothing that is not in the task data. When a protocol document "
    "governs the exchange, emit a body that matches its input schema "
    "exactly; otherwise write one plain, self-contained question or "
    "instruction."
)


def make_finalized(pd_text: str) -> str:
    """Wrap protocol text in the negotiation-ending fenced block.

    The text must end with a newline and must not contain a fence itself.
    """
    if not pd_text.endswith("\n"):
        pd_text += "\n"
    return f"{FINALIZED_OPEN}{pd_text}```"


def extract_finalized(text: str) -> str | None:
    """Return the exact contents of the first FINALIZED block, or None.

    The trailing newline before the closing fence belongs to the contents,
    so documents round-trip byte-for-byte.
    """
    start = text.find(FINALIZED_OPEN)
    if start < 0:
        return None
    start += len(FINALIZED_OPEN)
    end = text.find(FINALIZED_CLOSE, start - 1)
    if end < 0:
        return None
    return text[start:end + 1]


def parse_tool_call(reply: str) -> tuple[str, dict] | None:
    if not reply.startswith(TOOL_CALL_PREFIX):
        return None
    try:
        payload = json.loads(reply[len(TOOL_CALL_PREFIX):])
        tool, args = payload["tool"], payload.get("args", {})
    except (ValueError, KeyError, TypeError, RecursionError):
        return None
    if not isinstance(tool, str) or not isinstance(args, dict):
        return None
    return tool, args


def format_tool_call(tool: str, args: dict) -> str:
    return TOOL_CALL_PREFIX + json.dumps({"tool": tool, "args": args})


def _tool_lines(tools) -> str:
    lines = []
    for tool in tools:
        lines.append(f"- {tool.name} ({tool.kind}): {tool.description}")
    return "\n".join(lines) if lines else "(none)"


def negotiation_system(agent_id: str, side: str, task_type: str, task_description: str) -> Message:
    return Message("system", (
        f"{ROLE_NEGOTIATION}\n"
        f"Agent: {agent_id}\n"
        f"Side: {side}\n"
        f"Task type: {task_type}\n"
        f"Task: {task_description}\n"
        "Negotiate a simple, unambiguous message protocol for this task. "
        "When the protocol is final, include its full text in a fenced block "
        "opened by ```FINALIZED and closed by ``` on its own line."
    ))


def negotiation_opening(task_type: str, task_description: str, initiator_is_sender: bool) -> str:
    direction = "I will send the queries." if initiator_is_sender else "You will send the queries."
    return (
        f"I would like to negotiate a protocol. Task type: {task_type}. "
        f"Task: {task_description}. Direction: {direction}"
    )


def parse_opening(message: str) -> tuple[str, str, bool] | None:
    """Recover (task_type, task_description, initiator_is_sender) from an
    opening message."""
    if "Task type: " not in message or "Direction: " not in message:
        return None
    task_type = message.split("Task type: ", 1)[1].split(".", 1)[0].strip()
    task_description = ""
    if "Task: " in message:
        task_description = message.split("Task: ", 1)[1].split(". Direction:", 1)[0].strip()
    initiator_is_sender = "Direction: I will send" in message
    return task_type, task_description, initiator_is_sender


def suitability_system(agent_id: str) -> Message:
    return Message("system", (
        f"{ROLE_SUITABILITY}\n"
        f"Agent: {agent_id}\n"
        "Judge whether any candidate protocol fits the task. Reply with the "
        "hash of the one suitable protocol, or NONE."
    ))


def suitability_request(task_description: str, candidates) -> Message:
    lines = [f"Task: {task_description}", "Candidates:"]
    for digest, name, description in candidates:
        lines.append(f"- {digest} :: {name} :: {description}")
    return Message("user", "\n".join(lines))


def server_system(agent_id: str, tools, protocol_text: str | None) -> Message:
    context = (
        "The request follows this protocol document:\n" + protocol_text
        if protocol_text else
        "The request is plain natural language; answer in natural language."
    )
    return Message("system", (
        f"{ROLE_SERVER}\n"
        f"Agent: {agent_id}\n"
        "You answer requests using your tools.\n"
        f"{SERVER_PREAMBLE}\n"
        f"Tools:\n{_tool_lines(tools)}\n"
        f"To call a tool, reply exactly: {TOOL_CALL_PREFIX}{{\"tool\": \"<name>\", \"args\": {{...}}}}\n"
        "Otherwise your reply is the final response body.\n"
        + context
    ))


def compose_system(agent_id: str, task_type: str, task_description: str,
                   protocol_text: str | None) -> Message:
    context = (
        "Format the request body exactly as this protocol document specifies:\n" + protocol_text
        if protocol_text else
        "Write the request as a single natural-language question."
    )
    return Message("system", (
        f"{ROLE_COMPOSE}\n"
        f"Agent: {agent_id}\n"
        f"Task type: {task_type}\n"
        f"Task: {task_description}\n"
        f"{COMPOSE_PREAMBLE}\n"
        "Compose the outbound request body for the task data in the next message.\n"
        + context
    ))


def parse_system(agent_id: str, task_type: str, task_description: str) -> Message:
    return Message("system", (
        f"{ROLE_PARSE}\n"
        f"Agent: {agent_id}\n"
        f"Task type: {task_type}\n"
        f"Task: {task_description}\n"
        "Extract the reply's facts into the task's result schema and answer "
        "with a single JSON object, nothing else. Preserve numbers exactly; "
        "do not convert units or round."
    ))


def compose_request(payload: dict) -> Message:
    return Message("user", "Task data: " + json.dumps(payload))


def parse_task_data(message: str) -> dict | None:
    if "Task data: " not in message:
        return None
    try:
        return json.loads(message.split("Task data: ", 1)[1])
    except ValueError:
        return None


def synthesis_system(agent_id: str, side: str, tools) -> Message:
    return Message("system", (
        f"{ROLE_SYNTHESIS}\n"
        f"Agent: {agent_id}\n"
        f"Side: {side}\n"
        f"Tools:\n{_tool_lines(tools)}\n"
        "Write a declarative routine spec as a single JSON object with keys "
        "protocol_hash, side, input, steps, output. Reply with JSON only."
    ))


def synthesis_request(pd_text: str, protocol_hash: str) -> Message:
    return Message("user", f"Protocol hash: {protocol_hash}\nProtocol document:\n{pd_text}")
