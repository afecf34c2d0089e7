"""Agent runtime: dispatch routing, escalation, negotiation, synthesis."""

import copy
import enum
import json
import os
import threading
import time

import pytest

from agentmesh import catalog, prompts
from agentmesh.documents import ProtocolMetadata, TamperError, compute_hash, render_document
from agentmesh.envelope import (RequestEnvelope, ResponseEnvelope, decode_request,
                                encode_response, parse_wellknown)
from agentmesh.gateway import Activity, CompletionBackend, CostLedger, TokenUsage
from agentmesh.registry import RegistryStore
from agentmesh.routines import RECEIVER, SENDER, RoutineError, execute_routine
from agentmesh.runtime import (BOOTSTRAP_HASH, Agent, AgentConfig,
                               EscalationThresholds, Mode, NegotiationError,
                               ResolutionError, ToolDescriptor, decide_mode)
from agentmesh.scripted import ScriptedBackend
from conftest import DEEP, WEATHER_TEXT

WEATHER_HASH = compute_hash(WEATHER_TEXT)
NY_BODY = json.dumps({"date": "2023-10-01", "location": "New York"})
NY_REPLY = {"temperature": 22.5, "precipitation": 5.0, "weatherCondition": "cloudy"}


class StubbornBackend(ScriptedBackend):
    """Keeps proposing and never finalizes a protocol."""

    def _negotiation(self, system, conversation):
        kind, reply = super()._negotiation(system, conversation)
        if kind == "negotiation_finalize":
            return "negotiation_proposal", "Here is my proposal: let us keep talking."
        return kind, reply


class GatedStubbornBackend(StubbornBackend):
    """A StubbornBackend whose every completion waits until *gate* is set."""

    def __init__(self, gate: threading.Event):
        super().__init__()
        self.gate = gate

    def complete(self, conversation):
        self.gate.wait(10)
        return super().complete(conversation)


class MalformedFinalBackend(ScriptedBackend):
    """Finalizes a protocol text whose preamble has two ``Name:`` lines."""

    def _negotiation(self, system, conversation):
        kind, reply = super()._negotiation(system, conversation)
        if kind == "negotiation_finalize":
            reply = reply.replace("Name: ", "Name: Twice\nName: ", 1)
        return kind, reply


MALFORMED_FINAL = prompts.make_finalized("Name: One\nName: Two\n\nA protocol.\n")


def negotiation_records(world) -> int:
    return sum(1 for r in world.ledger.records() if r.activity is Activity.NEGOTIATION)


def language_records(world) -> int:
    return sum(1 for r in world.ledger.records() if r.activity is Activity.NATURAL_LANGUAGE)


class FixedReplyBackend(CompletionBackend):
    def __init__(self, reply: str):
        self.reply = reply

    def complete(self, conversation):
        return self.reply, TokenUsage(10, 10)


# ── decide_mode ──────────────────────────────────────────────────────

class TestDecideMode:
    DEFAULTS = EscalationThresholds()

    @pytest.mark.parametrize("count,expected", [
        (1, Mode.NATURAL_LANGUAGE),
        (2, Mode.NATURAL_LANGUAGE),
        (3, Mode.CHECK_EXISTING),
        (4, Mode.CHECK_EXISTING),
        (5, Mode.NEGOTIATE),
        (50, Mode.NEGOTIATE),
    ])
    def test_default_thresholds(self, count, expected):
        assert decide_mode(count, self.DEFAULTS) == expected

    def test_monotone_in_count(self):
        order = [Mode.NATURAL_LANGUAGE, Mode.CHECK_EXISTING, Mode.NEGOTIATE]
        ranks = [order.index(decide_mode(c, self.DEFAULTS)) for c in range(1, 30)]
        assert ranks == sorted(ranks)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            EscalationThresholds(use_existing_after=0)
        with pytest.raises(ValueError):
            EscalationThresholds(use_existing_after=6, negotiate_after=5)


# ── dispatch routing ─────────────────────────────────────────────────

class TestDispatch:
    def test_routine_path_zero_model_calls(self, world):
        bob = world.add_weather_server()
        world.registry.submit(WEATHER_TEXT)
        doc = bob.resolve_protocol(WEATHER_HASH, ())
        assert bob.synthesize_routine(doc, RECEIVER) is not None
        before = len(world.ledger)
        resp = bob.dispatch(RequestEnvelope(
            WEATHER_HASH, (f"mem://db1/pd/{WEATHER_HASH}",), NY_BODY))
        assert resp.status == "success"
        assert json.loads(resp.body) == NY_REPLY
        assert len(world.ledger) == before

    def test_unknown_hash_unreachable_sources_rejected(self, world):
        bob = world.add_weather_server()
        ghost = compute_hash("no such protocol")
        resp = bob.dispatch(RequestEnvelope(ghost, ("mem://nowhere/pd/x",), "{}"))
        assert resp.status == "rejected"
        assert resp.body is None

    def test_nl_with_failing_backend_is_failure(self, world):
        bob = world.add_weather_server("bob2", backend=ScriptedBackend(failure_rate=1.0))
        resp = bob.dispatch(RequestEnvelope(None, (), "What is the weather?"))
        assert resp.status == "failure"
        assert "backend" in resp.body

    def test_nl_request_answered_by_model(self, world):
        bob = world.add_weather_server()
        resp = bob.dispatch(RequestEnvelope(
            None, (), "What is the weather forecast for London, UK on 2024-09-27?"))
        assert resp.status == "success"
        assert resp.body == ('The weather forecast for London, UK, on 2024-09-27 is as '
                             'follows: "Rainy, 11 degrees Celsius, with a precipitation '
                             'of 12 mm."')

    def test_pd_known_no_routine_handled_by_model(self, world):
        bob = world.add_weather_server()
        world.registry.submit(WEATHER_TEXT)
        before = len(world.ledger)
        resp = bob.dispatch(RequestEnvelope(
            WEATHER_HASH, (f"mem://db1/pd/{WEATHER_HASH}",), NY_BODY))
        assert resp.status == "success"
        assert json.loads(resp.body) == NY_REPLY
        assert len(world.ledger) > before

    def test_unsupported_protocol_rejected(self, world):
        bob = world.add_weather_server()
        taxi_text = catalog.pd_text(catalog.CATALOG["taxi"])
        world.registry.submit(taxi_text)
        resp = bob.dispatch(RequestEnvelope(
            compute_hash(taxi_text), (f"mem://db1/pd/{compute_hash(taxi_text)}",), "{}"))
        assert resp.status == "rejected"

    def test_protocol_level_error_is_success(self, world):
        bob = world.add_weather_server()
        world.registry.submit(WEATHER_TEXT)
        body = json.dumps({"date": "2024-01-01", "location": "Atlantis"})
        resp = bob.dispatch(RequestEnvelope(
            WEATHER_HASH, (f"mem://db1/pd/{WEATHER_HASH}",), body))
        assert resp.status == "success"
        assert "unknown location" in json.loads(resp.body)["error"]

    def test_routine_schema_fallback_still_answers(self, world):
        bob = world.add_weather_server()
        world.registry.submit(WEATHER_TEXT)
        doc = bob.resolve_protocol(WEATHER_HASH, ())
        bob.synthesize_routine(doc, RECEIVER)
        body = json.dumps({"location": "New York"})        # date missing
        before = len(world.ledger)
        resp = bob.dispatch(RequestEnvelope(
            WEATHER_HASH, (f"mem://db1/pd/{WEATHER_HASH}",), body))
        assert resp.status == "success"
        assert len(world.ledger) > before                  # model engaged

    def test_server_counter_counts_nl_and_pd_model_paths_only(self, world):
        bob = world.add_weather_server()
        world.registry.submit(WEATHER_TEXT)
        assert bob.state.server_nl_count == 0
        bob.dispatch(RequestEnvelope(None, (), "What is the weather forecast for Paris on 2024-10-14?"))
        assert bob.state.server_nl_count == 1
        bob.dispatch(RequestEnvelope(WEATHER_HASH, (f"mem://db1/pd/{WEATHER_HASH}",), NY_BODY))
        assert bob.state.server_nl_count == 2
        bob.dispatch(RequestEnvelope(WEATHER_HASH, (f"mem://db1/pd/{WEATHER_HASH}",), NY_BODY))
        assert bob.state.server_nl_count == 3
        # second model-handled use of the document triggered routine synthesis
        assert bob.get_routine(WEATHER_HASH, RECEIVER) is not None
        bob.dispatch(RequestEnvelope(WEATHER_HASH, (f"mem://db1/pd/{WEATHER_HASH}",), NY_BODY))
        assert bob.state.server_nl_count == 3              # routine path does not count

    def test_server_writes_routine_after_repeated_model_use(self, world):
        bob = world.add_weather_server()
        world.registry.submit(WEATHER_TEXT)
        env = RequestEnvelope(WEATHER_HASH, (f"mem://db1/pd/{WEATHER_HASH}",), NY_BODY)
        bob.dispatch(env)
        assert bob.get_routine(WEATHER_HASH, RECEIVER) is None
        bob.dispatch(env)
        assert bob.get_routine(WEATHER_HASH, RECEIVER) is not None


# ── resolve_protocol ─────────────────────────────────────────────────

class _WrongBytesHost:
    def handle_request(self, method, path, query, body, sender_id):
        return 200, "text/plain", "these are not the bytes you expect\n"


class TestResolveProtocol:
    def test_cache_hit_no_network(self, world):
        alice = world.add_agent("alice", registry_url=None)
        world.registry.submit(WEATHER_TEXT)
        first = alice.resolve_protocol(WEATHER_HASH, (f"mem://db1/pd/{WEATHER_HASH}",))
        # no reachable source the second time; the local store must answer
        second = alice.resolve_protocol(WEATHER_HASH, ("mem://gone/pd/x",))
        assert first.raw_text == second.raw_text == WEATHER_TEXT

    def test_first_source_fails_second_succeeds(self, world):
        alice = world.add_agent("alice", registry_url=None)
        world.registry.submit(WEATHER_TEXT)
        empty = world.registry.__class__("db2", world.network)
        world.network.register("db2", empty)
        doc = alice.resolve_protocol(WEATHER_HASH, (
            f"mem://db2/pd/{WEATHER_HASH}",       # 404
            f"mem://db1/pd/{WEATHER_HASH}",       # correct bytes
        ))
        assert doc.hash == WEATHER_HASH
        assert alice.get_document(WEATHER_HASH) is not None

    def test_tampered_source_aborts_and_stores_nothing(self, world):
        alice = world.add_agent("alice", registry_url=None)
        world.network.register("evil", _WrongBytesHost())
        with pytest.raises(TamperError):
            alice.resolve_protocol(WEATHER_HASH, (f"mem://evil/pd/{WEATHER_HASH}",))
        assert alice.get_document(WEATHER_HASH) is None

    def test_all_sources_fail(self, world):
        alice = world.add_agent("alice", registry_url=None)
        with pytest.raises(ResolutionError):
            alice.resolve_protocol(WEATHER_HASH, ("mem://gone/pd/x",))

    def test_registry_preferred_before_sources(self, world):
        alice = world.add_agent("alice")   # registry_url=mem://db1
        world.registry.submit(WEATHER_TEXT)
        doc = alice.resolve_protocol(WEATHER_HASH, ("mem://gone/pd/x",))
        assert doc.hash == WEATHER_HASH

    def test_registry_url_among_sources_is_fetched_once(self, world):
        alice = world.add_agent("alice")   # registry_url=mem://db1, which lacks the document
        db1 = _Counting(world.registry)
        world.network.register("db1", db1)
        db2 = world.registry.__class__("db2", world.network)
        db2.submit(WEATHER_TEXT)
        world.network.register("db2", db2)
        doc = alice.resolve_protocol(WEATHER_HASH, (
            f"mem://db1/pd/{WEATHER_HASH}", f"mem://db2/pd/{WEATHER_HASH}"))
        assert doc.hash == WEATHER_HASH
        assert db1.paths == [f"/pd/{WEATHER_HASH}"]


class _Counting:
    """A wire host in front of *host* that keeps the paths of its requests;
    it answers ``GET /pd`` with *listing* when one is given."""

    def __init__(self, host, listing: str | None = None):
        self.host = host
        self.listing = listing
        self.paths = []

    def handle_request(self, method, path, query, body, sender_id):
        self.paths.append(path)
        if self.listing is not None and (method, path) == ("GET", "/pd"):
            return 200, "application/json", self.listing
        return self.host.handle_request(method, path, query, body, sender_id)


# ── negotiation ──────────────────────────────────────────────────────

class TestNegotiation:
    def test_scripted_negotiation_converges_to_canonical_text(self, world):
        alice = world.add_agent("alice")
        bob = world.add_weather_server()
        doc = alice.negotiate("bob", "weather", "query the weather forecast for a given "
                              "date and location", my_side=SENDER)
        assert doc.raw_text == WEATHER_TEXT
        assert doc.hash == WEATHER_HASH
        assert alice.get_document(WEATHER_HASH).raw_text == bob.get_document(WEATHER_HASH).raw_text

    def test_both_sides_write_their_routines(self, world):
        alice = world.add_agent("alice")
        bob = world.add_weather_server()
        alice.negotiate("bob", "weather", "weather", my_side=SENDER)
        assert alice.get_routine(WEATHER_HASH, SENDER) is not None
        assert bob.get_routine(WEATHER_HASH, RECEIVER) is not None

    def test_initiator_submits_to_registry(self, world):
        alice = world.add_agent("alice")
        world.add_weather_server()
        alice.negotiate("bob", "weather", "weather", my_side=SENDER)
        assert world.registry.get(WEATHER_HASH) is not None

    def test_server_counter_resets_after_negotiation(self, world):
        alice = world.add_agent("alice")
        bob = world.add_weather_server()
        for _ in range(4):
            bob.dispatch(RequestEnvelope(None, (), "What is the weather forecast for "
                                         "Paris on 2024-10-14?"))
        assert bob.state.server_nl_count == 4
        alice.negotiate("bob", "weather", "weather", my_side=SENDER)
        assert bob.state.server_nl_count == 0

    def test_stubborn_responder_hits_round_limit(self, world):
        alice = world.add_agent("alice")
        world.add_weather_server("bob", backend=StubbornBackend())
        with pytest.raises(NegotiationError, match="10 rounds"):
            alice.negotiate("bob", "weather", "weather", my_side=SENDER)

    def test_unknown_peer_fails_without_a_model_call(self, world):
        alice = world.add_agent("alice")
        with pytest.raises(NegotiationError, match="failure"):
            alice.negotiate("ghost", "weather", "weather", my_side=SENDER)
        assert len(world.ledger) == 0

    def test_failed_negotiation_logs_the_peers_reason(self, world, caplog):
        alice = world.add_agent("alice", thresholds=EscalationThresholds(1, 1))
        with caplog.at_level("INFO"):
            alice.send_task("ghost", "weather", {"location": "Paris", "date": "2024-10-14"},
                            "weather")
        assert alice.state.pair(("ghost", "weather")).failed
        assert any("peer answered failure: unknown peer: ghost" in m for m in caplog.messages)

    def test_repeated_negotiation_identical_hash(self, world):
        bob = world.add_weather_server()
        digests = []
        for name in ("alice1", "alice2"):
            agent = world.add_agent(name)
            digests.append(agent.negotiate("bob", "weather", "weather", my_side=SENDER).hash)
        assert digests[0] == digests[1] == WEATHER_HASH

    def test_wellknown_advertises_negotiated_protocol(self, world):
        alice = world.add_agent("alice")
        bob = world.add_weather_server()
        assert parse_wellknown(world.network.call("GET", "mem://bob/.wellknown")) == {
            BOOTSTRAP_HASH: ("builtin:conversation",)}
        alice.negotiate("bob", "weather", "weather", my_side=SENDER)
        wk = parse_wellknown(world.network.call("GET", "mem://bob/.wellknown"))
        assert WEATHER_HASH in wk

    def test_concurrent_triggers_collapse_to_one_negotiation(self, world):
        world.add_weather_server()
        alice = world.add_agent("alice")
        # measure a single negotiation's ledger footprint first
        alice.negotiate("bob", "weather", "weather", my_side=SENDER)
        single = sum(1 for r in world.ledger.records()
                     if r.activity == Activity.NEGOTIATION)

        world2 = type(world)()
        world2.add_weather_server()
        alice2 = world2.add_agent("alice")
        docs = []
        threads = [threading.Thread(
            target=lambda: docs.append(alice2.negotiate("bob", "weather", "weather",
                                                        my_side=SENDER)))
            for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({d.hash for d in docs}) == 1
        concurrent = sum(1 for r in world2.ledger.records()
                         if r.activity == Activity.NEGOTIATION)
        assert concurrent == single

    def test_send_that_waited_behind_a_failed_negotiation_goes_on_in_language(self, world):
        payload = {"location": "Paris", "date": "2024-10-14"}
        single = type(world)()
        single.add_weather_server("bob", backend=StubbornBackend())
        single.add_agent("alice", thresholds=EscalationThresholds(1, 1)).send_task(
            "bob", "weather", payload, "weather")
        one_failure = negotiation_records(single)

        gate = threading.Event()
        world.add_weather_server("bob", backend=GatedStubbornBackend(gate))
        alice = world.add_agent("alice", thresholds=EscalationThresholds(1, 1))
        sent = []
        threads = [threading.Thread(target=lambda: sent.append(
            alice.send_task("bob", "weather", payload, "weather"))) for _ in range(2)]
        for thread in threads:      # the second waits behind the first's negotiation
            thread.start()
            time.sleep(0.2)
        gate.set()
        for thread in threads:
            thread.join()
        assert [resp.status for resp, _ in sent] == ["success"] * 2
        assert [mode for _, mode in sent] == ["natural_language"] * 2
        assert negotiation_records(world) == one_failure
        assert alice.state.pair(("bob", "weather")).failed

    def test_registry_fault_over_mem_does_not_fail_the_negotiation(self, world, tmp_path, caplog):
        root = tmp_path / "registry"
        world.registry = RegistryStore("db1", world.network, root=str(root))
        world.network.register("db1", world.registry)
        world.add_weather_server()
        alice = world.add_agent("alice", thresholds=EscalationThresholds(1, 1))
        root.rmdir()
        root.write_text("", encoding="utf-8")               # the root can no longer be written
        with caplog.at_level("WARNING"):
            resp, mode = alice.send_task("bob", "weather", {"location": "Paris",
                                                            "date": "2024-10-14"}, "weather")
        assert (resp.status, mode) == ("success", "negotiate")
        assert any("registry submit failed" in m and "500" in m for m in caplog.messages)
        assert not alice.state.pair(("bob", "weather")).failed

    def test_finished_conversation_keeps_no_history(self, world):
        alice = world.add_agent("alice")
        bob = world.add_weather_server()
        alice.negotiate("bob", "weather", "weather", my_side=SENDER)
        assert list(bob._conversations.values()) == [None]   # a closed marker only
        late = json.dumps({"conversation_id": "alice-1", "from": "alice", "message": "one more"})
        resp = bob.dispatch(RequestEnvelope(BOOTSTRAP_HASH, ("builtin:conversation",), late))
        assert json.loads(resp.body) == {"conversation_id": "alice-1",
                                         "message": "This conversation is closed."}


class TestMalformedFinalText:
    PAYLOAD = {"location": "Paris", "date": "2024-10-14"}

    def test_responder_model_fails_the_negotiation_not_the_query(self, world):
        bob = world.add_weather_server("bob", backend=MalformedFinalBackend())
        alice = world.add_agent("alice", thresholds=EscalationThresholds(1, 1))
        first = alice.send_task("bob", "weather", self.PAYLOAD, "weather")
        negotiated = negotiation_records(world)
        second = alice.send_task("bob", "weather", self.PAYLOAD, "weather")
        assert [(resp.status, path) for resp, path in (first, second)] == [
            ("success", "natural_language")] * 2
        assert negotiation_records(world) == negotiated
        assert alice.state.pair(("bob", "weather")).failed
        assert list(bob._conversations.values()) == [None]
        assert bob.get_document(WEATHER_HASH) is None

    def test_initiator_fails_the_negotiation_on_a_peers_final_text(self, world):
        bob = world.add_weather_server()
        world.network.register("bob", _ConversationAnswers(bob, json.dumps(
            {"conversation_id": "bob-1", "message": MALFORMED_FINAL})))
        alice = world.add_agent("alice", thresholds=EscalationThresholds(1, 1))
        sent = [alice.send_task("bob", "weather", self.PAYLOAD, "weather") for _ in range(2)]
        assert [(resp.status, path) for resp, path in sent] == [
            ("success", "natural_language")] * 2
        assert alice.state.pair(("bob", "weather")).failed
        assert negotiation_records(world) == 0     # the peer's answers were not model calls

    def test_responder_answers_failure_and_closes(self, world, caplog):
        bob = world.add_weather_server()
        body = json.dumps({"conversation_id": "alice-1", "from": "alice",
                           "message": MALFORMED_FINAL})
        with caplog.at_level("INFO"):
            resp = bob.dispatch(RequestEnvelope(BOOTSTRAP_HASH, ("builtin:conversation",), body))
        assert resp.status == "failure"
        assert resp.body == "malformed protocol: line 2: duplicate 'Name:' line"
        assert bob._conversations == {"alice-1": None}
        assert not [r for r in caplog.records if r.levelname == "ERROR"]


class _ConversationAnswers:
    """A wire host in front of *host* that answers every conversation
    message with ``success`` and *body*."""

    def __init__(self, host, body):
        self.host = host
        self.body = body

    def handle_request(self, method, path, query, body, sender_id):
        if method == "POST" and decode_request(body).protocol_hash == BOOTSTRAP_HASH:
            return 200, "application/json", encode_response(ResponseEnvelope("success", self.body))
        return self.host.handle_request(method, path, query, body, sender_id)


class TestMalformedConversation:
    @pytest.mark.parametrize("reply", ["[1]", '{"message": 5}', None,
                                       pytest.param(DEEP, id="deep")])
    def test_malformed_reply_fails_the_negotiation(self, world, reply):
        bob = world.add_weather_server()
        world.network.register("bob", _ConversationAnswers(bob, reply))
        alice = world.add_agent("alice", thresholds=EscalationThresholds(1, 1))
        resp, path = alice.send_task("bob", "weather",
                                     {"location": "Paris", "date": "2024-10-14"}, "weather")
        assert (resp.status, path) == ("success", "natural_language")
        assert alice.state.pair(("bob", "weather")).failed

    @pytest.mark.parametrize("body", [
        "[1,2]", '"text"', '{"conversation_id": [1], "message": "hi"}',
        '{"conversation_id": "c", "message": 5}',
        '{"conversation_id": "c", "message": "hi", "from": 5}',
        pytest.param(DEEP, id="deep")])
    def test_malformed_body_gets_a_failure(self, world, caplog, body):
        bob = world.add_weather_server()
        with caplog.at_level("INFO"):
            resp = bob.dispatch(RequestEnvelope(BOOTSTRAP_HASH, ("builtin:conversation",), body))
        assert resp.status == "failure"
        assert resp.body.startswith("malformed conversation body: ")
        assert not [r for r in caplog.records if r.levelname == "ERROR"]


class _AnswersPosts:
    """A wire host in front of *host* that answers every POST with 200 and
    *text*."""

    def __init__(self, host, text):
        self.host = host
        self.text = text

    def handle_request(self, method, path, query, body, sender_id):
        if method == "POST":
            return 200, "application/json", self.text
        return self.host.handle_request(method, path, query, body, sender_id)


class TestHostilePeerText:
    """Text from a peer that no decoder accepts is a failure, never an
    exception out of the agent."""

    @pytest.mark.parametrize("answer", ['{"status": []}', DEEP],
                             ids=["unhashable-status", "deep"])
    def test_send_task_answers_failure(self, world, answer):
        bob = world.add_weather_server()
        world.network.register("bob", _AnswersPosts(bob, answer))
        alice = world.add_agent("alice")
        resp, path = alice.send_task("bob", "weather", {"location": "Paris", "date": "2024-10-14"})
        assert (resp.status, path) == ("failure", "natural_language")
        assert resp.body.startswith("transport error: ")

    def test_deep_language_reply_goes_to_the_model(self, world):
        bob = world.add_weather_server()
        answer = encode_response(ResponseEnvelope("success", DEEP))
        world.network.register("bob", _AnswersPosts(bob, answer))
        alice = world.add_agent("alice", backend=FixedReplyBackend('{"temperature": 1}'))
        assert alice.parse_reply("weather", "weather", DEEP) == {"temperature": 1}
        resp, path = alice.send_task("bob", "weather", {"location": "Paris", "date": "2024-10-14"})
        assert (resp.status, path) == ("success", "natural_language")

    def test_deep_protocol_body_goes_to_the_model(self, world, caplog):
        bob = world.add_weather_server()
        world.registry.submit(WEATHER_TEXT)
        assert bob.synthesize_routine(bob.resolve_protocol(WEATHER_HASH, ()), RECEIVER)
        with caplog.at_level("INFO"):
            resp = bob.dispatch(RequestEnvelope(
                WEATHER_HASH, (f"mem://db1/pd/{WEATHER_HASH}",), DEEP))
        assert resp == ResponseEnvelope(
            "success", json.dumps({"error": "request body is not valid JSON"}))
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_deep_request_is_400(self, world):
        world.add_weather_server()
        status, text = world.network.request("POST", "mem://bob/", DEEP)
        assert status == 400 and text.startswith("request is not valid JSON: ")


class TestToolCall:
    @pytest.mark.parametrize("reply, call", [
        ('TOOL_CALL {"tool": "weather_db", "args": {"a": 1}}', ("weather_db", {"a": 1})),
        ('TOOL_CALL {"tool": "weather_db"}', ("weather_db", {})),
        ('TOOL_CALL {"tool": ["weather_db"]}', None),
        ('TOOL_CALL {"tool": null}', None),
        ('TOOL_CALL {"tool": "weather_db", "args": [1]}', None),
        ('TOOL_CALL {"tool": "weather_db", "args": null}', None),
        ("TOOL_CALL [1]", None),
        ("TOOL_CALL " + DEEP, None),
        ("TOOL_CALL {", None),
        ("no call", None),
    ], ids=["call", "no-args", "list-tool", "null-tool", "list-args", "null-args",
            "array", "deep", "bad-json", "not-a-call"])
    def test_parse_tool_call(self, reply, call):
        assert prompts.parse_tool_call(reply) == call

    def test_non_string_tool_is_answered_as_a_reply(self, world):
        reply = 'TOOL_CALL {"tool": ["weather_db"], "args": {}}'
        bob = world.add_weather_server(backend=FixedReplyBackend(reply))
        assert bob.dispatch(RequestEnvelope(None, (), "hi")) == ResponseEnvelope("success", reply)


# ── suitability ──────────────────────────────────────────────────────

class TestSuitability:
    def _candidates(self, *tasks):
        out = []
        for name in tasks:
            task = catalog.CATALOG[name]
            text = catalog.pd_text(task)
            out.append((compute_hash(text), task.title, task.purpose, ("mem://db1/pd/x",)))
        return out

    def test_weather_task_finds_weather_pd(self, world):
        alice = world.add_agent("alice")
        found = alice.check_suitability(
            "query the weather forecast for a given date and location",
            self._candidates("weather", "taxi"))
        assert found == WEATHER_HASH

    def test_empty_candidates(self, world):
        alice = world.add_agent("alice")
        assert alice.check_suitability("anything", []) is None

    def test_food_task_rejects_weather_pd(self, world):
        alice = world.add_agent("alice")
        assert alice.check_suitability(
            "place a food order from a restaurant menu for delivery",
            self._candidates("weather")) is None

    def test_backend_failure_treated_as_none(self, world):
        alice = world.add_agent("alice", backend=ScriptedBackend(failure_rate=1.0))
        assert alice.check_suitability("weather", self._candidates("weather")) is None

    def test_cost_charged_to_suitability(self, world):
        alice = world.add_agent("alice")
        alice.check_suitability("query the weather forecast",
                                self._candidates("weather"))
        activities = {r.activity for r in world.ledger.records()}
        assert activities == {Activity.SUITABILITY_CHECK}

    def test_every_task_matches_its_own_protocol_only(self, world):
        alice = world.add_agent("alice")
        names = list(catalog.CATALOG)
        candidates = self._candidates(*names)
        for name in names:
            task = catalog.CATALOG[name]
            found = alice.check_suitability(task.task_description, candidates)
            expected = compute_hash(catalog.pd_text(task))
            assert found == expected, f"{name} matched {found}"


# ── escalation trace (client side) ───────────────────────────────────

class TestEscalationTrace:
    def test_full_trace_with_unhelpful_registry(self, world):
        bob = world.add_weather_server()
        world.registry.submit(catalog.pd_text(catalog.CATALOG["taxi"]))   # nothing suitable
        alice = world.add_agent("alice")
        payload = {"location": "Paris", "date": "2024-10-14"}
        desc = catalog.CATALOG["weather"].task_description

        def suitability_calls():
            return sum(1 for r in world.ledger.records()
                       if r.activity == Activity.SUITABILITY_CHECK)

        modes = []
        for step in range(6):
            resp, mode = alice.send_task("bob", "weather", payload, desc)
            assert resp.status == "success"
            modes.append(mode)
            if step == 1:
                assert not alice.state.was_checked(("bob", "weather"))
                assert suitability_calls() == 0
            if step == 2:
                assert alice.state.was_checked(("bob", "weather"))
                assert suitability_calls() == 1

        assert modes[0] == modes[1] == "natural_language"      # counts 1-2
        assert modes[2] == "natural_language"                  # count 3: check found nothing
        assert modes[3] == "natural_language"                  # count 4
        assert modes[4] == "negotiate"                         # count 5
        assert modes[5] == "protocol"                          # pinned afterwards
        assert alice.state.count(("bob", "weather")) == 5      # protocol sends do not count

    def test_check_existing_adopts_from_registry(self, world):
        world.add_weather_server()
        world.registry.submit(WEATHER_TEXT)
        alice = world.add_agent("alice")
        payload = {"location": "Paris", "date": "2024-10-14"}
        desc = catalog.CATALOG["weather"].task_description
        modes = [alice.send_task("bob", "weather", payload, desc)[1] for _ in range(4)]
        assert modes == ["natural_language", "natural_language", "check_existing", "protocol"]

    @pytest.mark.parametrize("listing", ["not json", '[{"name": "x"}]',
                                         pytest.param(DEEP, id="deep")])
    def test_malformed_registry_listing_counts_as_no_listing(self, world, listing):
        world.network.register("db1", _Counting(world.registry, listing))
        world.add_weather_server()
        alice = world.add_agent("alice")
        payload = {"location": "Paris", "date": "2024-10-14"}
        desc = catalog.CATALOG["weather"].task_description
        sent = [alice.send_task("bob", "weather", payload, desc) for _ in range(4)]
        assert [(resp.status, path) for resp, path in sent[2:]] == [
            ("success", "natural_language")] * 2

    def test_failed_negotiation_falls_back_to_nl(self, world):
        world.add_weather_server("bob", backend=StubbornBackend())
        alice = world.add_agent("alice")
        payload = {"location": "Paris", "date": "2024-10-14"}
        modes = [alice.send_task("bob", "weather", payload, "weather")[1] for _ in range(6)]
        assert modes[4] == "natural_language"                  # negotiation failed
        assert modes[5] == "natural_language"                  # no retry thrash
        responses = [alice.send_task("bob", "weather", payload, "weather")[0]]
        assert all(r.status == "success" for r in responses)

    def test_sender_without_registry_stays_on_language(self, world):
        # As configs/agent_weather.json: no registry, and a server that
        # knows no peers, so it starts no negotiation either.
        bob = world.add_weather_server(registry_url=None)
        alice = world.add_agent("alice", registry_url=None)
        bob.config.known_peers.clear()
        payload = {"location": "Paris", "date": "2024-10-14"}
        desc = catalog.CATALOG["weather"].task_description
        sent = [alice.send_task("bob", "weather", payload, desc) for _ in range(12)]
        assert [resp.status for resp, _ in sent] == ["success"] * 12
        assert [mode for _, mode in sent] == ["natural_language"] * 12
        assert not [r for r in world.ledger.records() if r.activity is Activity.NEGOTIATION]

    def test_sender_without_registry_refuses_server_negotiation(self, world):
        # Both agents know each other, so the server's trigger fires at its
        # 10th language query; the sender could never adopt the result.
        bob = world.add_weather_server(registry_url=None)
        alice = world.add_agent("alice", registry_url=None)
        payload = {"location": "Paris", "date": "2024-10-14"}
        desc = catalog.CATALOG["weather"].task_description
        sent = [alice.send_task("bob", "weather", payload, desc) for _ in range(24)]
        assert [resp.status for resp, _ in sent] == ["success"] * 24
        assert [mode for _, mode in sent] == ["natural_language"] * 24
        paid = {r.activity for r in world.ledger.records()}
        assert Activity.NEGOTIATION not in paid
        assert Activity.ROUTINE_IMPLEMENTATION not in paid
        assert bob.state.pair(("alice", "weather")).failed
        assert alice._conversations == {}

    def test_server_does_not_renegotiate_a_failed_pair(self, world):
        bob = world.add_weather_server("bob", backend=StubbornBackend())
        alice = world.add_agent("alice", thresholds=EscalationThresholds.unlimited())
        payload = {"location": "Paris", "date": "2024-10-14"}
        desc = catalog.CATALOG["weather"].task_description

        def negotiations():
            return sum(1 for r in world.ledger.records() if r.activity is Activity.NEGOTIATION)

        for _ in range(10):
            alice.send_task("bob", "weather", payload, desc)
        failed = negotiations()
        assert failed > 0                                      # the 10th query triggered one
        sent = [alice.send_task("bob", "weather", payload, desc) for _ in range(13)]
        assert [(resp.status, mode) for resp, mode in sent] == [
            ("success", "natural_language")] * 13
        assert negotiations() == failed
        assert bob.state.pair(("alice", "weather")).failed

    def test_server_initiated_negotiation_after_ten_nl(self, world):
        bob = world.add_weather_server()
        alice = world.add_agent("alice", thresholds=EscalationThresholds.unlimited())
        payload = {"location": "Paris", "date": "2024-10-14"}
        desc = catalog.CATALOG["weather"].task_description
        for i in range(10):
            resp, mode = alice.send_task("bob", "weather", payload, desc)
            assert resp.status == "success"
            assert mode == ("natural_language" if i < 9 else "natural_language")
        # the 10th NL communication pushed the server over its threshold
        assert bob.state.server_nl_count == 0                  # reset after negotiation
        assert bob.get_routine(WEATHER_HASH, RECEIVER) is not None
        assert alice.get_routine(WEATHER_HASH, SENDER) is not None
        resp, mode = alice.send_task("bob", "weather", payload, desc)
        assert mode == "protocol"

    def test_no_model_on_hot_path(self, world):
        world.add_weather_server()
        alice = world.add_agent("alice")
        payload = {"location": "Paris", "date": "2024-10-14"}
        desc = catalog.CATALOG["weather"].task_description
        for _ in range(5):
            alice.send_task("bob", "weather", payload, desc)
        before = len(world.ledger)
        for _ in range(20):
            resp, mode = alice.send_task("bob", "weather", payload, desc)
            assert mode == "protocol" and resp.status == "success"
        assert len(world.ledger) == before

    def test_rejected_protocol_falls_back_and_unadopts(self, world):
        world.add_weather_server()                              # weather only
        alice = world.add_agent("alice")
        taxi_text = catalog.pd_text(catalog.CATALOG["taxi"])
        taxi_hash = world.registry.submit(taxi_text)
        alice.resolve_protocol(taxi_hash, ())
        alice.state.pair(("bob", "taxi")).adopted = (taxi_hash, (f"mem://db1/pd/{taxi_hash}",))
        payload = {"pickup": "Opera House", "dropoff": "Tech Park", "time": "09:00"}
        resp, mode = alice.send_task("bob", "taxi", payload, "book a taxi ride")
        assert mode == "natural_language"                       # answered in language
        assert resp.status == "success"
        assert alice.state.pair(("bob", "taxi")).adopted is None  # adoption dropped
        # The fallback is charged as a language send, parse included, plus
        # the compose under the rejected protocol.
        plain = type(world)()
        plain.add_weather_server()
        plain.add_agent("alice").send_task("bob", "taxi", payload, "book a taxi ride")
        assert language_records(world) == language_records(plain) + 1


class _Seats(enum.IntEnum):
    TWO = 2


class _RecordsBodies:
    """Forwards to an agent and records the body of each request envelope."""

    def __init__(self, host):
        self.host = host
        self.bodies = []

    def handle_request(self, method, path, query, body, sender_id):
        if method == "POST" and path == "/":
            self.bodies.append(decode_request(body).body)
        return self.host.handle_request(method, path, query, body, sender_id)


class TestSenderRoutine:
    """The sender runs its routine on the payload without encoding it; the
    body it sends must be what the routine gives on ``json.dumps(payload)``,
    and a payload the routine refuses must still be composed by the model."""

    @pytest.fixture
    def pair(self, world):
        bob = world.add_weather_server()
        alice = world.add_agent("alice")
        desc = catalog.CATALOG["weather"].task_description
        for _ in range(5):
            alice.send_task("bob", "weather", {"location": "Paris", "date": "2024-10-14"}, desc)
        assert alice.state.pair(("bob", "weather")).adopted
        recorder = _RecordsBodies(bob)
        world.network.register("bob", recorder)
        return alice, recorder, desc

    @pytest.mark.parametrize("payload", [
        {"location": "Paris", "date": "2024-10-14"},
        {"location": "Paris", "date": "2024-10-14", "extra": {"legs": [1, {"x": None}]}},
        {"location": "Paris", "date": "2024-10-14", "stops": ("Lyon", "Nice")},
        {"location": "Paris", "date": "2024-10-14", 3: "int key"},
        {"location": "Paris", "date": _Seats.TWO},
        {"location": "Paris", "date": "2024-10-14", "score": float("nan")},
        {"location": "Paris"},
    ], ids=["flat", "nested", "tuple", "int-key", "intenum", "nan", "missing-field"])
    def test_body_matches_routine_on_encoded_payload(self, pair, monkeypatch, payload):
        alice, recorder, desc = pair
        digest, _ = alice.state.pair(("bob", "weather")).adopted
        try:
            expected = execute_routine(alice.get_routine(digest, SENDER), json.dumps(payload),
                                       alice._tool_impls)
        except RoutineError:
            expected = None                                     # the model composes it
        composed = []
        compose = alice.compose_body

        def recording_compose(*args):
            composed.append(compose(*args))
            return composed[-1]
        monkeypatch.setattr(alice, "compose_body", recording_compose)
        before = copy.deepcopy(payload)
        resp, mode = alice.send_task("bob", "weather", payload, desc)
        assert mode == "protocol" and resp.status == "success"
        if expected is None:
            assert recorder.bodies == composed and len(composed) == 1
        else:
            assert recorder.bodies == [expected] and composed == []
        assert repr(payload) == repr(before)                    # the caller's payload is unchanged

    def test_set_payload_raises_the_encoders_type_error(self, pair):
        alice, recorder, desc = pair
        payload = {"location": "Paris", "date": "2024-10-14", "stops": {"Lyon"}}
        with pytest.raises(TypeError) as expected:
            json.dumps(payload)
        with pytest.raises(TypeError) as raised:
            alice.send_task("bob", "weather", payload, desc)
        assert str(raised.value) == str(expected.value)
        assert recorder.bodies == []


# ── synthesis edge cases ─────────────────────────────────────────────

class TestSynthesis:
    def test_rejects_spec_that_fails_the_example(self, world):
        wrong_spec = json.dumps({
            "protocol_hash": WEATHER_HASH, "side": "receiver",
            "input": {"required": [], "properties": {}},
            "steps": [],
            "output": {"temperature": 0, "precipitation": 0, "weatherCondition": "fog"},
        })
        bob = world.add_weather_server("bob", backend=FixedReplyBackend(wrong_spec))
        world.registry.submit(WEATHER_TEXT)
        doc = bob.resolve_protocol(WEATHER_HASH, ())
        assert bob.synthesize_routine(doc, RECEIVER) is None
        assert bob.get_routine(WEATHER_HASH, RECEIVER) is None

    def test_unusable_spec_rejected(self, world):
        bob = world.add_weather_server("bob", backend=FixedReplyBackend("{}"))
        world.registry.submit(WEATHER_TEXT)
        doc = bob.resolve_protocol(WEATHER_HASH, ())
        assert bob.synthesize_routine(doc, RECEIVER) is None

    @pytest.mark.parametrize("reply", [
        '{"protocol_hash": "x", "side": "receiver", "input": 5}',
        '{"protocol_hash": "x", "side": "receiver", "steps": [5]}',
    ])
    def test_malformed_spec_rejected(self, world, reply):
        bob = world.add_weather_server("bob", backend=FixedReplyBackend(reply))
        world.registry.submit(WEATHER_TEXT)
        doc = bob.resolve_protocol(WEATHER_HASH, ())
        assert bob.synthesize_routine(doc, RECEIVER) is None

    def test_no_worked_example_registers_unvalidated(self, world, caplog):
        bob = world.add_weather_server()
        text = render_document(
            "\nExchange JSON weather queries; no example given.\n",
            ProtocolMetadata("Weather Forecast Query Protocol", "Weather queries."))
        digest = world.registry.submit(text)
        doc = bob.resolve_protocol(digest, ())
        with caplog.at_level("INFO"):
            routine = bob.synthesize_routine(doc, RECEIVER)
        assert routine is not None
        assert any("no worked example" in m for m in caplog.messages)

    def test_cost_charged_to_implementation(self, world):
        bob = world.add_weather_server()
        world.registry.submit(WEATHER_TEXT)
        doc = bob.resolve_protocol(WEATHER_HASH, ())
        bob.synthesize_routine(doc, RECEIVER)
        assert any(r.activity == Activity.ROUTINE_IMPLEMENTATION
                   for r in world.ledger.records())


# ── external tools ───────────────────────────────────────────────────

LONDON = {"location": "London, UK", "date": "2024-09-27"}


def _forecasting_agent(world, backend=None) -> Agent:
    """An agent whose one tool queries the weather server "bob", with
    escalation off so that the query stays in natural language."""
    config = AgentConfig(
        agent_id="carol",
        thresholds=EscalationThresholds.unlimited(),
        tools=(ToolDescriptor("forecast", "external", task_type="weather", peer="bob"),),
        known_peers={"bob": "mem://bob"},
        registry_url="mem://db1",
    )
    agent = Agent(config, backend or ScriptedBackend(), world.ledger, world.network)
    world.network.register("carol", agent)
    return agent


def _nl_records(world) -> int:
    return sum(1 for r in world.ledger.records() if r.activity == Activity.NATURAL_LANGUAGE)


class TestExternalTool:
    def test_language_reply_is_parsed_into_fields(self, world):
        world.add_weather_server(thresholds=EscalationThresholds.unlimited())
        carol = _forecasting_agent(world)
        before = _nl_records(world)
        resp, mode = carol.send_task("bob", "weather", LONDON,
                                     catalog.CATALOG["weather"].task_description)
        assert mode == "natural_language" and not resp.body.startswith("{")
        per_query = _nl_records(world) - before

        before = _nl_records(world)
        result = carol._tool_impls["forecast"](LONDON)
        assert result == catalog.MOCK_TOOLS["weather_db"](LONDON)
        assert _nl_records(world) - before == per_query + 1     # the tool's own parse call

    def test_failing_peer_gives_error(self, world):
        world.add_weather_server(backend=ScriptedBackend(failure_rate=1.0))
        carol = _forecasting_agent(world)
        result = carol._tool_impls["forecast"](LONDON)
        assert set(result) == {"error"} and result["error"].startswith("forecast: failure:")

    def test_unparseable_reply_gives_error(self, world):
        world.add_weather_server()
        carol = _forecasting_agent(world, backend=FixedReplyBackend("no idea"))
        assert carol._tool_impls["forecast"](LONDON) == {"error": "forecast: unparseable reply"}


# ── configuration validation ─────────────────────────────────────────

class TestConfigValidation:
    def test_external_tool_must_name_known_peer(self, world):
        config = AgentConfig(
            agent_id="broken",
            tools=(ToolDescriptor("ext", "external", task_type="weather", peer="ghost"),),
        )
        with pytest.raises(ValueError, match="unknown peer"):
            Agent(config, ScriptedBackend(), CostLedger(), world.network)

    def test_tool_without_catalog_implementation_rejected(self, world):
        config = AgentConfig(
            agent_id="broken",
            tools=(ToolDescriptor("barometer", "database", task_type="weather"),),
        )
        with pytest.raises(ValueError, match="barometer"):
            Agent(config, ScriptedBackend(), CostLedger(), world.network)

    def test_from_dict_round_trip(self):
        raw = {
            "agent_id": "a", "model_id": "gpt-4o",
            "thresholds": {"use_existing_after": 2, "negotiate_after": 4},
            "tools": [{"name": "weather_db", "kind": "database", "task_type": "weather"}],
            "known_peers": {"b": "mem://b"},
            "registry_url": "mem://db1",
        }
        config = AgentConfig.from_dict(raw)
        assert config.thresholds.use_existing_after == 2
        assert config.tools[0].name == "weather_db"
        assert config.known_peers == {"b": "mem://b"}


# ── persistence ──────────────────────────────────────────────────────

class TestAgentStores:
    def test_documents_and_routines_persist_across_restarts(self, world, tmp_path):
        world.add_weather_server()
        store = str(tmp_path / "alice-store")
        alice = world.add_agent("alice", pd_store=store)
        alice.negotiate("bob", "weather", "weather", my_side=SENDER)

        files = sorted(os.listdir(store))
        assert f"{WEATHER_HASH}.pd" in files
        assert f"{WEATHER_HASH}.sender.routine" in files

        reborn = world.add_agent("alice2", pd_store=store)
        assert reborn.get_document(WEATHER_HASH).raw_text == WEATHER_TEXT
        assert reborn.get_routine(WEATHER_HASH, SENDER) is not None

    def test_corrupt_store_files_are_skipped(self, world, tmp_path, caplog):
        store = tmp_path / "store"
        store.mkdir()
        (store / f"{WEATHER_HASH}.pd").write_text("wrong bytes", encoding="utf-8")
        with caplog.at_level("WARNING"):
            agent = world.add_agent("alice", pd_store=str(store))
        assert agent.get_document(WEATHER_HASH) is None
        assert any("skipping" in m for m in caplog.messages)

    def test_non_utf8_store_files_are_skipped(self, world, tmp_path, caplog):
        store = tmp_path / "store"
        store.mkdir()
        (store / f"{WEATHER_HASH}.pd").write_bytes(b"Name: \xff\xfe\n")
        (store / f"{WEATHER_HASH}.sender.routine").write_bytes(b'{"side": "\xff"}')
        with caplog.at_level("WARNING"):
            agent = world.add_agent("alice", pd_store=str(store))
        assert agent.get_document(WEATHER_HASH) is None
        assert agent.get_routine(WEATHER_HASH, SENDER) is None
        assert sum("skipping" in m and "UTF-8" in m for m in caplog.messages) == 2

    @pytest.mark.parametrize("spec", [
        {"protocol_hash": WEATHER_HASH, "side": "sender", "input": 5},
        {"protocol_hash": WEATHER_HASH, "side": "sender", "steps": [5]},
        {"protocol_hash": WEATHER_HASH, "side": "sender",
         "input": {"properties": {"date": "string"}}},
    ])
    def test_malformed_routine_file_is_skipped(self, world, tmp_path, caplog, spec):
        store = tmp_path / "store"
        store.mkdir()
        (store / f"{WEATHER_HASH}.sender.routine").write_text(json.dumps(spec), encoding="utf-8")
        with caplog.at_level("WARNING"):
            agent = world.add_agent("alice", pd_store=str(store))
        assert agent.get_routine(WEATHER_HASH, SENDER) is None
        assert any("skipping" in m for m in caplog.messages)


# ── concurrency contracts ────────────────────────────────────────────

class TestConcurrency:
    def test_no_lost_server_counter_increments(self, world):
        bob = world.add_weather_server(
            "bob", thresholds=EscalationThresholds(3, 5, 10 ** 9))
        question = "What is the weather forecast for Paris on 2024-10-14?"

        def worker():
            for _ in range(25):
                bob.dispatch(RequestEnvelope(None, (), question))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert bob.state.server_nl_count == 200

    def test_wire_decode_errors_are_400(self, world):
        bob = world.add_weather_server()
        status, text = world.network.request("POST", "mem://bob/", "not json")
        assert status == 400

    def test_envelope_round_trip_over_wire(self, world):
        world.add_weather_server()
        env = RequestEnvelope(None, (), "What is the weather forecast for Paris on 2024-10-14?")
        from agentmesh.envelope import decode_response, encode_request
        text = world.network.call("POST", "mem://bob/", encode_request(env), "tester")
        assert decode_response(text).status == "success"
