"""The agent runtime: dispatch, escalation, negotiation, and routines.

An agent serves the envelope endpoint and, on the client side, runs the
escalation policy per (peer, task type), whose state is one ``PairState``:
plain natural language first, a suitability check against
advertised/registered protocols once exchanges repeat, and negotiation of a
fresh protocol once they repeat further, when the agent has a registry to
name as the protocol's source.
Negotiated or adopted protocols are pinned; both sides then try to replace
model handling with synthesized routines, after which repeated exchanges
cost nothing. A sender runs its routine on the task payload as JSON would
decode it, without encoding it first; a receiver runs its routine on the
decoded request body. A peer that rejects a pinned protocol unpins it, and
the query goes out in language, parsed and reported as natural language.

Inbound requests are routed by protocol hash: a registered routine handles
the request without any model call; a known (or fetchable) document is
handled by the model under that protocol; an unresolvable or unsupported
hash is rejected; no hash means natural language. A server also counts
natural-language communications across all peers and initiates a
negotiation with the current sender when that count hits its threshold,
resetting the count after any successful negotiation. An agent never
starts a negotiation again for a pair whose negotiation failed, and without
a registry it neither starts nor accepts one as the sender. That guard is
read under the pair's lock, which its negotiation holds, so a query that
waited behind a failed negotiation goes on in language.

An agent builds its tool table from its config. An external tool sends the
task to a peer through the same escalation policy and returns the peer's
fields, parsing a natural-language reply with one more model call; every
other tool is the catalog's mock implementation. The catalog's classifier
decides which protocols the agent's tools serve (``_serves``); an agent with
tools advertises and accepts those and the ones it has receiver routines for.

A document is fetched one way (``resolve_protocol``): the local store, then
the agent's own registry, then the given sources, each URL once. A malformed
registry listing counts as no listing. Every model call goes one way too
(``_complete``), which charges the ledger for it.
"""

from __future__ import annotations

import enum
import json
import logging
import os
import threading
from dataclasses import dataclass, field, fields, replace

from . import catalog, prompts
from .documents import (DocumentError, ProtocolDocument, compute_hash,
                        extract_worked_example, load_document, parse_document,
                        save_document, verify_document)
from .envelope import (STATUS_FAILURE, STATUS_REJECTED, STATUS_SUCCESS,
                       DecodeError, RequestEnvelope, ResponseEnvelope,
                       build_wellknown, decode_request, decode_response,
                       encode_request, encode_response, parse_wellknown)
from .gateway import Activity, BackendError, CompletionBackend, CostLedger, Message
from .registry import RegistryClient
from .routines import (RECEIVER, SENDER, Routine, RoutineError,
                       RoutineSpecError, as_decoded_json, execute_routine,
                       load_routine, routine_from_spec, run_routine,
                       save_routine)
from .transport import PLAIN_TEXT, Network, TransportError

logger = logging.getLogger(__name__)

BOOTSTRAP_SOURCE = "builtin:conversation"
WELLKNOWN_PATH = "/.wellknown"

ROUTINE_AFTER_USES = 2    # model-handled uses of a PD before the server writes a routine
MAX_TOOL_ROUNDS = 5
NEGOTIATION_ROUNDS = 10

BOOTSTRAP_PD_TEXT = """Name: Multi-Round Conversation Protocol
Description: A protocol for multi-round natural-language conversations between two agents.

The request body is a JSON object with three fields:

  {
    "conversation_id": "string",
    "from": "string",
    "message": "string"
  }

- conversation_id: An identifier chosen by the conversation initiator and reused for every message of the conversation.
- from: The agent id of the message author.
- message: The natural-language message content.

The response body is a JSON object with two fields:

  {
    "conversation_id": "string",
    "message": "string"
  }
"""

BOOTSTRAP_HASH = compute_hash(BOOTSTRAP_PD_TEXT)


class ResolutionError(Exception):
    """No source produced the requested protocol document."""


class NegotiationError(Exception):
    """Negotiation ended without a finalized protocol."""


def _conversation_fields(body: str | None) -> tuple[str, str, str | None]:
    """The ``(conversation_id, message, from)`` of a conversation-protocol
    body. Raises ValueError unless it is a JSON object whose id and message
    are strings and whose ``from`` is a string or absent."""
    try:
        payload = json.loads(body or "")
    except RecursionError as exc:
        raise ValueError("nested too deeply") from exc
    if not isinstance(payload, dict):
        raise ValueError("not a JSON object")
    conv_id, message, from_id = (payload.get(key) for key in ("conversation_id", "message", "from"))
    if not (isinstance(conv_id, str) and isinstance(message, str)
            and isinstance(from_id, (str, type(None)))):
        raise ValueError("conversation_id and message must be strings, from a string or absent")
    return conv_id, message, from_id


class Mode(enum.Enum):
    NATURAL_LANGUAGE = "natural_language"
    CHECK_EXISTING = "check_existing"
    NEGOTIATE = "negotiate"


@dataclass(frozen=True)
class EscalationThresholds:
    use_existing_after: int = 3
    negotiate_after: int = 5
    server_negotiate_after: int = 10

    def __post_init__(self):
        counts = (self.use_existing_after, self.negotiate_after, self.server_negotiate_after)
        if any(type(count) is not int for count in counts):
            raise ValueError(f"escalation thresholds must be ints, not {counts!r}")
        if not (0 < self.use_existing_after <= self.negotiate_after):
            raise ValueError("need 0 < use_existing_after <= negotiate_after")

    @classmethod
    def unlimited(cls) -> "EscalationThresholds":
        """Thresholds that never trigger; pins every exchange to natural
        language (the counterfactual mode)."""
        big = 10 ** 9
        return cls(big, big, big)


def decide_mode(count: int, thresholds: EscalationThresholds) -> Mode:
    """Escalation policy for one (peer, task type) pair, as a function of
    its communication count (1-based: the count includes the communication
    being decided)."""
    if count >= thresholds.negotiate_after:
        return Mode.NEGOTIATE
    if count >= thresholds.use_existing_after:
        return Mode.CHECK_EXISTING
    return Mode.NATURAL_LANGUAGE


@dataclass(slots=True)
class PairState:
    """One (peer, task type) pair: its communication count, whether a
    suitability check ran or a negotiation failed, and the adopted protocol's
    ``(digest, sources)``. ``lock`` serializes its negotiations and their guard."""

    count: int = 0
    checked: bool = False
    failed: bool = False
    adopted: tuple[str, tuple[str, ...]] | None = None
    lock: threading.Lock = field(default_factory=threading.Lock, compare=False, repr=False)


class EscalationState:
    """One PairState per (peer, task type), plus the server-side NL counter.
    Counter updates are atomic: no increment is lost to concurrent requests."""

    def __init__(self):
        self._lock = threading.Lock()
        self._pairs: dict[tuple[str, str], PairState] = {}
        self._server_nl = 0

    def pair(self, key: tuple[str, str]) -> PairState:
        """The record of *key*, made on first use."""
        pair = self._pairs.get(key)
        if pair is None:
            with self._lock:
                pair = self._pairs.setdefault(key, PairState())
        return pair

    def record_interaction(self, key: tuple[str, str]) -> int:
        pair = self.pair(key)
        with self._lock:
            pair.count += 1
            return pair.count

    def count(self, key: tuple[str, str]) -> int:
        return self.pair(key).count

    def was_checked(self, key: tuple[str, str]) -> bool:
        return self.pair(key).checked

    def record_server_nl(self) -> int:
        with self._lock:
            self._server_nl += 1
            return self._server_nl

    @property
    def server_nl_count(self) -> int:
        with self._lock:
            return self._server_nl

    def reset_server_counter(self) -> None:
        with self._lock:
            self._server_nl = 0


@dataclass(frozen=True)
class ToolDescriptor:
    """A tool the agent can use: a database/mock callable, or an external
    peer reached through the envelope."""

    name: str
    kind: str = "mock"            # database | mock | external
    description: str = ""
    task_type: str = ""           # workload task type this tool serves/targets
    peer: str = ""                # external only: target agent id


@dataclass
class AgentConfig:
    agent_id: str
    model_id: str = "gpt-4o"
    thresholds: EscalationThresholds = field(default_factory=EscalationThresholds)
    tools: tuple[ToolDescriptor, ...] = ()
    known_peers: dict[str, str] = field(default_factory=dict)
    registry_url: str | None = None
    pd_store: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "AgentConfig":
        """Build from a ``serve-agent`` config. Raises ValueError on a key
        that is neither a field nor ``backend``, which the CLI reads, and on
        a value of the wrong type."""
        unknown = set(raw) - {f.name for f in fields(cls)} - {"backend"}
        if unknown:
            raise ValueError(f"unknown agent config keys: {', '.join(sorted(unknown))}")
        for key, types in (("agent_id", str), ("model_id", str),
                           ("registry_url", (str, type(None))), ("pd_store", (str, type(None)))):
            if key in raw and not isinstance(raw[key], types):
                need = "a string" if types is str else "a string or null"
                raise ValueError(f"{key} must be {need}, not {raw[key]!r}")
        peers = raw.get("known_peers", {})
        if not (isinstance(peers, dict) and all(
                isinstance(name, str) and isinstance(url, str) for name, url in peers.items())):
            raise ValueError(f"known_peers must be an object of string URLs, not {peers!r}")
        thresholds = EscalationThresholds(**raw.get("thresholds", {}))
        tools = tuple(ToolDescriptor(**t) for t in raw.get("tools", []))
        return cls(
            agent_id=raw["agent_id"],
            model_id=raw.get("model_id", "gpt-4o"),
            thresholds=thresholds,
            tools=tools,
            known_peers=dict(peers),
            registry_url=raw.get("registry_url"),
            pd_store=raw.get("pd_store"),
        )


class Agent:
    """One node: envelope endpoint, escalation state, documents, routines."""

    def __init__(self, config: AgentConfig, backend: CompletionBackend,
                 ledger: CostLedger, network: Network):
        self.config = config
        self.agent_id = config.agent_id
        self.backend = backend
        self.ledger = ledger
        self.network = network
        self.state = EscalationState()
        self._tool_impls = {desc.name: self._tool_impl(desc) for desc in config.tools}
        self._lock = threading.Lock()
        self._documents: dict[str, ProtocolDocument] = {}
        self._routines: dict[tuple[str, str], Routine] = {}
        self._conversations: dict[str, dict | None] = {}   # None once closed
        self._conv_counter = 0
        self._pd_model_uses: dict[str, int] = {}

        self.registry = RegistryClient(network, config.registry_url) if config.registry_url else None
        if config.pd_store:
            self._load_store(config.pd_store)

    # ── stores ─────────────────────────────────────────────────────────

    def _load_store(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        for fname in sorted(os.listdir(directory)):
            path = os.path.join(directory, fname)
            try:
                if fname.endswith(".pd"):
                    doc = load_document(path)
                    self._documents[doc.hash] = doc
                elif fname.endswith(".routine"):
                    routine = load_routine(path)
                    self._routines[(routine.protocol_hash, routine.side)] = routine
            except (DocumentError, RoutineSpecError, OSError) as exc:
                logger.warning("%s: skipping %s: %s", self.agent_id, fname, exc)

    def _store_document(self, doc: ProtocolDocument) -> None:
        with self._lock:
            self._documents[doc.hash] = doc
        if self.config.pd_store:
            save_document(doc, self.config.pd_store)

    def _register_routine(self, routine: Routine) -> None:
        with self._lock:
            self._routines[(routine.protocol_hash, routine.side)] = routine
        if self.config.pd_store:
            save_routine(routine, self.config.pd_store)

    def get_document(self, digest: str) -> ProtocolDocument | None:
        with self._lock:
            return self._documents.get(digest)

    def get_routine(self, digest: str, side: str) -> Routine | None:
        with self._lock:
            return self._routines.get((digest, side))

    # ── tools ──────────────────────────────────────────────────────────

    def _tool_impl(self, desc: ToolDescriptor):
        """The callable behind *desc*: a peer query for an external tool,
        the catalog's mock implementation otherwise."""
        if desc.kind == "external":
            if desc.peer not in self.config.known_peers:
                raise ValueError(f"external tool {desc.name!r} names unknown peer {desc.peer!r}")
            return self._external_runner(desc)
        if desc.name not in catalog.MOCK_TOOLS:
            raise ValueError(f"tool {desc.name!r} has no implementation in the catalog")
        return catalog.MOCK_TOOLS[desc.name]

    def _external_runner(self, desc: ToolDescriptor):
        """Query the peer and return structured fields, whether it answered
        in protocol JSON or in natural language."""
        task_type = desc.task_type or "general"
        task = catalog.CATALOG.get(desc.task_type)
        description = task.task_description if task else desc.description or desc.task_type

        def run(args: dict):
            resp, _path = self.send_task(desc.peer, task_type, args, description)
            if resp.status != STATUS_SUCCESS:
                return {"error": f"{desc.name}: {resp.status}: {resp.body or ''}"}
            parsed = self.parse_reply(task_type, description, resp.body or "")
            if parsed is None:
                return {"error": f"{desc.name}: unparseable reply"}
            return parsed
        return run

    def _serves(self, doc: ProtocolDocument) -> bool:
        """True iff one of the agent's tools has the task type of *doc*."""
        task_type = catalog.classify(f"{doc.name} {doc.description}")
        return any(tool.task_type == task_type for tool in self.config.tools)

    # ── wire host ──────────────────────────────────────────────────────

    def handle_request(self, method, path, query, body, sender_id) -> tuple[int, str, str]:
        if method == "POST" and path == "/":
            try:
                env = decode_request(body)
            except DecodeError as exc:
                return 400, PLAIN_TEXT, str(exc)
            return 200, "application/json", encode_response(self.dispatch(env, sender_id))
        if method == "GET" and path == WELLKNOWN_PATH:
            return 200, "application/json", build_wellknown(self.wellknown())
        return 404, PLAIN_TEXT, "not found"

    def wellknown(self) -> dict[str, list[str]]:
        """The bootstrap protocol and, with a registry to name as their source,
        each stored document that has a receiver routine or that it ``_serves``."""
        wellknown = {BOOTSTRAP_HASH: [BOOTSTRAP_SOURCE]}
        if self.registry is None:
            return wellknown
        with self._lock:
            docs = dict(self._documents)
            routine_keys = set(self._routines)
        for digest, doc in docs.items():
            if (digest, RECEIVER) in routine_keys or self._serves(doc):
                wellknown[digest] = [self.registry.pd_url(digest)]
        return wellknown

    # ── inbound dispatch ───────────────────────────────────────────────

    def dispatch(self, env: RequestEnvelope, sender_id: str | None = None) -> ResponseEnvelope:
        """Route one inbound envelope; always answers with an envelope."""
        try:
            return self._dispatch_inner(env, sender_id)
        except BackendError as exc:
            return ResponseEnvelope(STATUS_FAILURE, f"backend error: {exc}")
        except Exception as exc:  # noqa: BLE001 - a request must never hang or drop
            logger.exception("%s: dispatch error", self.agent_id)
            return ResponseEnvelope(STATUS_FAILURE, f"internal error: {exc}")

    def _dispatch_inner(self, env: RequestEnvelope, sender_id: str | None) -> ResponseEnvelope:
        if env.protocol_hash == BOOTSTRAP_HASH:
            return self._handle_conversation(env, sender_id)
        if env.protocol_hash is None:
            return self._model_response(env.body, None, sender_id)

        digest = env.protocol_hash
        routine = self.get_routine(digest, RECEIVER)
        if routine is not None:
            try:
                out = execute_routine(routine, env.body, self._tool_impls)
                return ResponseEnvelope(STATUS_SUCCESS, out)
            except RoutineError as exc:
                logger.info("%s: routine for %.8s failed (%s); falling back to model",
                            self.agent_id, digest, exc)

        try:
            doc = self.resolve_protocol(digest, env.protocol_sources)
        except (ResolutionError, DocumentError) as exc:
            logger.info("%s: cannot resolve %.8s (%s); rejecting", self.agent_id, digest, exc)
            return ResponseEnvelope(STATUS_REJECTED)
        if self.config.tools and not self._serves(doc):
            return ResponseEnvelope(STATUS_REJECTED)

        return self._model_response(env.body, doc, sender_id)

    def _model_response(self, body: str, doc: ProtocolDocument | None,
                        sender_id: str | None) -> ResponseEnvelope:
        nl_count = self.state.record_server_nl()
        reply = self.handle_with_model(body, doc)
        response = ResponseEnvelope(STATUS_SUCCESS, reply)

        if doc is not None:
            with self._lock:
                self._pd_model_uses[doc.hash] = self._pd_model_uses.get(doc.hash, 0) + 1
                uses = self._pd_model_uses[doc.hash]
            if uses >= ROUTINE_AFTER_USES and self.get_routine(doc.hash, RECEIVER) is None:
                self.synthesize_routine(doc, RECEIVER)

        if (nl_count >= self.config.thresholds.server_negotiate_after
                and sender_id and sender_id in self.config.known_peers):
            task_type = catalog.classify(doc.name if doc else body)
            if task_type:
                self._try_negotiate(sender_id, task_type, task_type, RECEIVER)
        return response

    def handle_with_model(self, body: str, doc: ProtocolDocument | None) -> str:
        """Model handling with a bounded tool-call loop; the reply conforms
        to the protocol when one is given."""
        conversation = [
            prompts.server_system(self.agent_id, self.config.tools,
                                  doc.raw_text if doc else None),
            Message("user", body),
        ]
        for _ in range(MAX_TOOL_ROUNDS):
            reply = self._complete(conversation, Activity.NATURAL_LANGUAGE)
            call = prompts.parse_tool_call(reply)
            if call is None:
                return reply
            tool, args = call
            conversation.append(Message("assistant", reply))
            if tool in self._tool_impls:
                try:
                    result = self._tool_impls[tool](args)
                except Exception as exc:  # noqa: BLE001 - surface tool faults to the model
                    result = {"error": f"tool {tool} failed: {exc}"}
            else:
                result = {"error": f"unknown tool: {tool}"}
            conversation.append(Message("tool", json.dumps(result)))
        raise BackendError(f"tool loop exceeded {MAX_TOOL_ROUNDS} rounds")

    # ── conversations (negotiation transport) ──────────────────────────

    def _next_conversation_id(self) -> str:
        with self._lock:
            self._conv_counter += 1
            return f"{self.agent_id}-{self._conv_counter}"

    def _handle_conversation(self, env: RequestEnvelope, sender_id: str | None) -> ResponseEnvelope:
        try:
            conv_id, message, from_id = _conversation_fields(env.body)
        except ValueError as exc:
            return ResponseEnvelope(STATUS_FAILURE, f"malformed conversation body: {exc}")
        from_id = from_id or sender_id or "peer"

        with self._lock:
            if conv_id in self._conversations:
                conv = self._conversations[conv_id]
            else:
                opening = prompts.parse_opening(message)
                task_type, task_description, initiator_is_sender = (
                    opening if opening else ("general", message[:80], True))
                my_side = RECEIVER if initiator_is_sender else SENDER
                if my_side == SENDER and self.registry is None:
                    # As in _try_negotiate: no registry to adopt the result from.
                    return ResponseEnvelope(STATUS_REJECTED)
                conv = {
                    "messages": [prompts.negotiation_system(
                        self.agent_id, my_side, task_type, task_description)],
                    "peer": from_id,
                    "task_type": task_type,
                    "my_side": my_side,
                }
                self._conversations[conv_id] = conv

        if conv is None:
            return self._conversation_reply(conv_id, "This conversation is closed.")

        conv["messages"].append(Message("user", message))
        block = prompts.extract_finalized(message)
        if block is not None:
            return self._close_conversation(conv_id, conv, block,
                                            "Acknowledged; the protocol is finalized.")

        reply = self._complete(conv["messages"], Activity.NEGOTIATION)
        conv["messages"].append(Message("assistant", reply))
        block = prompts.extract_finalized(reply)
        if block is not None:
            return self._close_conversation(conv_id, conv, block, reply)
        return self._conversation_reply(conv_id, reply)

    def _close_conversation(self, conv_id: str, conv: dict, block: str,
                            reply: str) -> ResponseEnvelope:
        """Keep only a closed marker, since a finished negotiation's history
        is never read again, then finalize the protocol and answer *reply*.
        A final text that does not parse is answered with ``failure``."""
        with self._lock:
            self._conversations[conv_id] = None
        try:
            self._finalize(block, conv["peer"], conv["task_type"], conv["my_side"])
        except DocumentError as exc:
            return ResponseEnvelope(STATUS_FAILURE, f"malformed protocol: {exc}")
        return self._conversation_reply(conv_id, reply)

    @staticmethod
    def _conversation_reply(conv_id: str, message: str) -> ResponseEnvelope:
        return ResponseEnvelope(STATUS_SUCCESS,
                                json.dumps({"conversation_id": conv_id, "message": message}))

    # ── negotiation (initiator side) ───────────────────────────────────

    def _try_negotiate(self, peer_id: str, task_type: str, task_description: str,
                       my_side: str) -> bool:
        """Negotiate unless the pair already failed or, as the sender, there
        is no registry to adopt from. True on success; a failure marks the pair.
        The guard is read under the pair's lock, so no waiter retries a failure."""
        pair = self.state.pair((peer_id, task_type))
        with pair.lock:
            if (my_side == SENDER and self.registry is None) or pair.failed:
                return False
            try:
                self._negotiate(pair, peer_id, task_type, task_description, my_side)
            except NegotiationError as exc:
                logger.info("%s: negotiation with %s for %s failed: %s",
                            self.agent_id, peer_id, task_type, exc)
                pair.failed = True
                return False
        return True

    def negotiate(self, peer_id: str, task_type: str, task_description: str,
                  my_side: str = SENDER) -> ProtocolDocument:
        """Negotiate a protocol with *peer_id* over the conversation
        protocol; on success both sides hold byte-identical text.

        Concurrent triggers for the same (peer, task_type) collapse into one
        negotiation; late arrivals reuse its result.
        """
        pair = self.state.pair((peer_id, task_type))
        with pair.lock:
            return self._negotiate(pair, peer_id, task_type, task_description, my_side)

    def _negotiate(self, pair: PairState, peer_id: str, task_type: str,
                   task_description: str, my_side: str) -> ProtocolDocument:
        """``negotiate``'s body; the caller holds ``pair.lock``."""
        adopted = pair.adopted
        if my_side == SENDER and adopted:
            doc = self.get_document(adopted[0])
            if doc is not None:
                return doc
        conv_id = self._next_conversation_id()
        conversation = [prompts.negotiation_system(
            self.agent_id, my_side, task_type, task_description)]
        pending_opening = prompts.negotiation_opening(
            task_type, task_description, initiator_is_sender=(my_side == SENDER))

        for round_no in range(NEGOTIATION_ROUNDS):
            if round_no == 0:
                message = pending_opening
            else:
                try:
                    message = self._complete(conversation, Activity.NEGOTIATION)
                except BackendError as exc:
                    raise NegotiationError(f"backend failure: {exc}") from exc
            conversation.append(Message("assistant", message))

            body = json.dumps({"conversation_id": conv_id,
                               "from": self.agent_id, "message": message})
            env = RequestEnvelope(BOOTSTRAP_HASH, (BOOTSTRAP_SOURCE,), body)
            resp = self._send(peer_id, env)
            if resp.status != STATUS_SUCCESS:
                reason = (resp.body or "")[:200]
                raise NegotiationError(f"peer answered {resp.status}: {reason}")
            try:
                _, reply, _ = _conversation_fields(resp.body)
            except ValueError as exc:
                raise NegotiationError(f"malformed conversation reply: {exc}") from exc
            conversation.append(Message("user", reply))

            block = prompts.extract_finalized(message) or prompts.extract_finalized(reply)
            if block is not None:
                try:
                    return self._finalize(block, peer_id, task_type, my_side)
                except DocumentError as exc:
                    raise NegotiationError(f"malformed protocol: {exc}") from exc
        raise NegotiationError(
            f"no finalized protocol after {NEGOTIATION_ROUNDS} rounds")

    def _finalize(self, block: str, peer_id: str, task_type: str, my_side: str) -> ProtocolDocument:
        doc = parse_document(block)
        self._store_document(doc)
        if self.registry is not None:
            try:
                self.registry.submit(doc.raw_text)
            except TransportError as exc:
                logger.warning("%s: registry submit failed: %s", self.agent_id, exc)
        self.state.reset_server_counter()
        if my_side == SENDER and self.registry is not None:
            self.state.pair((peer_id, task_type)).adopted = (
                doc.hash, (self.registry.pd_url(doc.hash),))
        self.synthesize_routine(doc, my_side)
        return doc

    # ── suitability ────────────────────────────────────────────────────

    def gather_candidates(self, peer_id: str) -> list[tuple[str, str, str, tuple[str, ...]]]:
        """Candidate protocols from the peer's wellknown plus the reference
        registry, as (hash, name, description, sources), deterministically
        ordered."""
        found: dict[str, tuple[str, str, tuple[str, ...]]] = {}
        url = self.config.known_peers.get(peer_id)
        if url:
            try:
                wellknown = parse_wellknown(
                    self.network.call("GET", url.rstrip("/") + WELLKNOWN_PATH))
                for digest, sources in wellknown.items():
                    if digest == BOOTSTRAP_HASH:
                        continue
                    try:
                        doc = self.resolve_protocol(digest, sources)
                    except (ResolutionError, DocumentError):
                        continue
                    found[digest] = (doc.name, doc.description, sources)
            except (TransportError, DecodeError) as exc:
                logger.info("%s: wellknown fetch from %s failed: %s", self.agent_id, peer_id, exc)
        if self.registry is not None:
            try:
                for digest, name, description in self.registry.query(""):
                    if digest != BOOTSTRAP_HASH:
                        found.setdefault(digest, (name, description,
                                                  (self.registry.pd_url(digest),)))
            except (TransportError, ValueError) as exc:
                logger.info("%s: registry query failed: %s", self.agent_id, exc)
        return [(digest, *info) for digest, info in sorted(found.items())]

    def check_suitability(self, task_description: str, candidates) -> str | None:
        """Ask the backend whether any candidate fits; None on no match or
        backend failure (the caller falls back to natural language)."""
        if not candidates:
            return None
        conversation = [
            prompts.suitability_system(self.agent_id),
            prompts.suitability_request(task_description,
                                        [(d, n, desc) for d, n, desc, _ in candidates]),
        ]
        try:
            reply = self._complete(conversation, Activity.SUITABILITY_CHECK)
        except BackendError as exc:
            logger.info("%s: suitability check failed: %s", self.agent_id, exc)
            return None
        answer = reply.strip().lower()
        if answer in {d for d, _, _, _ in candidates}:
            return answer
        return None

    # ── protocol resolution ────────────────────────────────────────────

    def resolve_protocol(self, digest: str, sources) -> ProtocolDocument:
        """The agent's one way to get a document: the local store, then each
        URL once, in order: the agent's own registry, then the given sources.
        Tampered bytes abort the resolution outright."""
        cached = self.get_document(digest)
        if cached is not None:
            return cached
        own = [self.registry.pd_url(digest)] if self.registry is not None else []
        attempts = []
        for url in dict.fromkeys([*own, *sources]):
            if url.startswith(("builtin:", "urn:")):
                continue
            try:
                text = self.network.call("GET", url)
            except TransportError as exc:
                attempts.append(f"{url}: {exc}")
                continue
            doc = verify_document(text, digest)   # TamperError propagates
            self._store_document(doc)
            return doc
        raise ResolutionError(f"could not resolve {digest}: {attempts}")

    # ── routine synthesis ──────────────────────────────────────────────

    def synthesize_routine(self, doc: ProtocolDocument, side: str) -> Routine | None:
        """Have the backend author a routine spec for *side* of *doc*,
        validate it against the document's worked example, and register it.
        Returns None when synthesis is rejected; the agent keeps using the
        model in that case."""
        existing = self.get_routine(doc.hash, side)
        if existing is not None:
            return existing
        conversation = [
            prompts.synthesis_system(self.agent_id, side, self.config.tools),
            prompts.synthesis_request(doc.raw_text, doc.hash),
        ]
        try:
            reply = self._complete(conversation, Activity.ROUTINE_IMPLEMENTATION)
        except BackendError as exc:
            logger.info("%s: synthesis backend failure: %s", self.agent_id, exc)
            return None
        try:
            routine = routine_from_spec(reply)
        except RoutineSpecError as exc:
            logger.info("%s: unusable routine spec: %s", self.agent_id, exc)
            return None
        routine = replace(routine, protocol_hash=doc.hash, side=side)

        example = extract_worked_example(doc)
        if example is None:
            logger.info("%s: %.8s has no worked example; registering unvalidated routine",
                        self.agent_id, doc.hash)
        else:
            example_input, example_output = example
            expected = example_input if side == SENDER else example_output
            try:
                produced = run_routine(routine, as_decoded_json(example_input),
                                       self._tool_impls)
                if json.loads(produced) != expected:
                    logger.info("%s: routine failed its example (%s side); rejected",
                                self.agent_id, side)
                    return None
            except (RoutineError, ValueError) as exc:
                logger.info("%s: routine example execution failed: %s", self.agent_id, exc)
                return None
        self._register_routine(routine)
        return routine

    # ── outbound queries ───────────────────────────────────────────────

    def send_task(self, peer_id: str, task_type: str, payload: dict,
                  task_description: str = "") -> tuple[ResponseEnvelope, str]:
        """Run the escalation policy and send one query; returns the
        response plus the path taken ("protocol", "negotiate",
        "check_existing" or "natural_language")."""
        try:
            return self._send_task_inner(peer_id, task_type, payload,
                                         task_description or task_type)
        except BackendError as exc:
            return (ResponseEnvelope(STATUS_FAILURE, f"backend error: {exc}"),
                    "natural_language")

    def _send_task_inner(self, peer_id: str, task_type: str, payload: dict,
                         task_description: str) -> tuple[ResponseEnvelope, str]:
        key = (peer_id, task_type)
        pair = self.state.pair(key)
        path = "protocol"
        adopted = pair.adopted
        if adopted is None:
            mode = decide_mode(self.state.record_interaction(key), self.config.thresholds)
            if ((mode is Mode.NEGOTIATE
                 and self._try_negotiate(peer_id, task_type, task_description, SENDER))
                    or (mode is Mode.CHECK_EXISTING
                        and self._adopt_existing(peer_id, pair, task_description))):
                path = mode.value
            adopted = pair.adopted
        if adopted:
            response = self._query_via_protocol(peer_id, pair, adopted, task_type,
                                                task_description, payload)
            if response is not None:
                return response, path

        body = self.compose_body(task_type, task_description, payload, None)
        response = self._send(peer_id, RequestEnvelope(None, (), body))
        if response.status == STATUS_SUCCESS and response.body:
            # The requester owes structured output, so a language reply
            # costs one more model call to extract the fields.
            self.parse_reply(task_type, task_description, response.body)
        return response, "natural_language"

    def _adopt_existing(self, peer_id: str, pair: PairState, task_description: str) -> bool:
        """Adopt a protocol the peer or the registry has if the backend judges
        it suitable, and write its sender routine. True when one was adopted."""
        pair.checked = True
        candidates = self.gather_candidates(peer_id)
        digest = self.check_suitability(task_description, candidates)
        if digest is None:
            return False
        sources = next(s for d, _, _, s in candidates if d == digest)
        try:
            doc = self.resolve_protocol(digest, sources)
        except (ResolutionError, DocumentError) as exc:
            logger.info("%s: adopting %.8s failed: %s", self.agent_id, digest, exc)
            return False
        pair.adopted = (digest, sources)
        self.synthesize_routine(doc, SENDER)
        return True

    def _query_via_protocol(self, peer_id, pair: PairState, adopted, task_type,
                            task_description, payload) -> ResponseEnvelope | None:
        """Send *payload* under the *adopted* protocol; None when the peer
        rejects it, which drops the pair's adoption."""
        digest, sources = adopted
        routine = self.get_routine(digest, SENDER)
        body = None
        if routine is not None:
            try:
                body = run_routine(routine, as_decoded_json(payload), self._tool_impls)
            except RoutineError as exc:
                logger.info("%s: sender routine failed (%s); composing with model",
                            self.agent_id, exc)
        if body is None:
            body = self.compose_body(task_type, task_description, payload,
                                     self.get_document(digest))

        resp = self._send(peer_id, RequestEnvelope(digest, sources, body))
        if resp.status == STATUS_REJECTED:
            # Advertisement is advisory; the peer may refuse a protocol.
            logger.info("%s: peer %s rejected %.8s; dropping adoption", self.agent_id, peer_id, digest)
            pair.adopted = None
            return None
        return resp

    def compose_body(self, task_type: str, task_description: str, payload: dict,
                     doc: ProtocolDocument | None) -> str:
        conversation = [
            prompts.compose_system(self.agent_id, task_type, task_description,
                                   doc.raw_text if doc else None),
            prompts.compose_request(payload),
        ]
        return self._complete(conversation, Activity.NATURAL_LANGUAGE)

    def parse_reply(self, task_type: str, task_description: str, reply: str) -> dict | None:
        """Turn a natural-language reply into the structured fields the task
        expects. Protocol-mode replies decode as JSON directly and never need
        this; that asymmetry is most of the routine savings."""
        try:
            return json.loads(reply)
        except (ValueError, RecursionError):
            pass
        conversation = [
            prompts.parse_system(self.agent_id, task_type, task_description),
            Message("user", reply),
        ]
        try:
            return json.loads(self._complete(conversation, Activity.NATURAL_LANGUAGE))
        except (BackendError, ValueError) as exc:
            logger.info("%s: could not parse reply (%s)", self.agent_id, exc)
            return None

    def _send(self, peer_id: str, env: RequestEnvelope) -> ResponseEnvelope:
        url = self.config.known_peers.get(peer_id)
        if url is None:
            return ResponseEnvelope(STATUS_FAILURE, f"unknown peer: {peer_id}")
        try:
            text = self.network.call("POST", url.rstrip("/") + "/", encode_request(env),
                                     self.agent_id)
            return decode_response(text)
        except (TransportError, DecodeError) as exc:
            return ResponseEnvelope(STATUS_FAILURE, f"transport error: {exc}")

    def _complete(self, conversation: list[Message], activity: Activity) -> str:
        """The agent's one model call: ask the backend, then charge the
        ledger for it. A call that raises charges nothing."""
        reply, usage = self.backend.complete(conversation)
        self.ledger.charge(self.config.model_id, usage, activity)
        return reply
