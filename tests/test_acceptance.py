"""Acceptance criteria, one test per criterion, run with `pytest -s -v`.

Each test prints a PASS line when its assertions hold; the expensive
scenario runs are shared module-scoped fixtures so the suite stays fast.
"""

import json
import os
import random
import time

import pytest

from agentmesh import catalog
from agentmesh.documents import TamperError, compute_hash, verify_document
from agentmesh.envelope import (DecodeError, RequestEnvelope, ResponseEnvelope,
                                decode_request, decode_response, encode_request,
                                encode_response)
from agentmesh.registry import RegistryIntegrityError, RegistryStore
from agentmesh.routines import RECEIVER, SENDER, execute_routine
from agentmesh.runtime import EscalationThresholds
from agentmesh.simulator import (ScenarioConfig, chain_config, run_paired, run_scenario,
                                 run_two_agent_demo)
from agentmesh.transport import Network
from agentmesh.workload import WorkloadSpec, generate_workload, user_facing_types
from conftest import WEATHER_TEXT, World

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
WEATHER_HASH = compute_hash(WEATHER_TEXT)


def _config(name: str) -> ScenarioConfig:
    with open(os.path.join(CONFIG_DIR, name), "r", encoding="utf-8") as fh:
        return ScenarioConfig.from_dict(json.load(fh))


def _pass(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS ({detail})")


@pytest.fixture(scope="module")
def desk_pair():
    started = time.monotonic()
    pair = run_paired(_config("desk_scale.json"))
    return pair, time.monotonic() - started


@pytest.fixture(scope="module")
def network100_pair():
    started = time.monotonic()
    pair = run_paired(_config("network_100.json"))
    return pair, time.monotonic() - started


def test_criterion_01_break_even_reproduction():
    started = time.monotonic()
    report = run_two_agent_demo(protocol_uses=10, calibrated=True)
    elapsed = time.monotonic() - started
    assert report.setup_cost == pytest.approx(0.043, abs=1e-12)
    assert report.nl_cost_per_exchange == pytest.approx(0.020, abs=1e-12)
    assert report.break_even_uses == 3
    assert elapsed < 5.0
    _pass(1, f"break-even at 3 protocol uses (setup {report.setup_cost:.3f}, "
             f"exchange {report.nl_cost_per_exchange:.3f}, {elapsed:.2f}s)")


def test_criterion_02_cost_ratio_desk_scale(desk_pair):
    (agora, nl_only), elapsed = desk_pair
    assert agora.total_cost <= nl_only.total_cost / 2
    assert elapsed < 300.0
    _pass(2, f"desk scale: {agora.total_cost:.4f} <= {nl_only.total_cost:.4f}/2 "
             f"(ratio {nl_only.total_cost / agora.total_cost:.2f}x, {elapsed:.1f}s)")


def test_criterion_02_cost_ratio_100_agents(network100_pair):
    (agora, nl_only), elapsed = network100_pair
    assert agora.total_cost <= nl_only.total_cost / 3
    assert elapsed < 1800.0
    _pass(2, f"100 agents / 1000 queries: {agora.total_cost:.4f} <= "
             f"{nl_only.total_cost:.4f}/3 "
             f"(ratio {nl_only.total_cost / agora.total_cost:.2f}x, {elapsed:.1f}s)")


def test_criterion_03_declining_model_usage(desk_pair):
    (agora, _), _ = desk_pair
    quarter = len(agora.records) // 4
    first = sum(r.model_invocations for r in agora.records[:quarter])
    last = sum(r.model_invocations for r in agora.records[-quarter:])
    assert last <= first
    pd_series = [r.pd_count for r in agora.records]
    assert pd_series == sorted(pd_series)
    _pass(3, f"model invocations {first} (first quarter) -> {last} (last quarter); "
             f"distinct PDs non-decreasing up to {pd_series[-1]}")


def test_criterion_04_wire_conformance():
    def golden(name):
        with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8", newline="") as fh:
            return fh.read()

    nl_env = RequestEnvelope(None, (),
                             "What is the weather forecast for London, UK on 2024-09-27?")
    assert encode_request(nl_env) == golden("alice_nl_request.json")
    pd_env = RequestEnvelope(WEATHER_HASH, (f"mem://db1/pd/{WEATHER_HASH}",),
                             '{"location": "London, UK", "date": "2024-09-27"}')
    assert encode_request(pd_env) == golden("alice_pd_request.json")
    ok_env = ResponseEnvelope("success",
                              'The weather forecast for London, UK, on 2024-09-27 is as '
                              'follows: "Rainy, 11 degrees Celsius, with a precipitation '
                              'of 12 mm."')
    assert encode_response(ok_env) == golden("bob_success_response.json")

    with pytest.raises(DecodeError):
        decode_request('{"protocolHash":"%s","protocolSources":[],"body":""}' % WEATHER_HASH)
    with pytest.raises(DecodeError):
        decode_response('{"status":"maybe"}')
    _pass(4, "three golden fixtures byte-identical; malformed envelopes rejected")


def test_criterion_05_integrity(tmp_path):
    rng = random.Random(20260810)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    rejected = 0
    for _ in range(100):
        pos = rng.randrange(len(WEATHER_TEXT))
        repl = rng.choice([c for c in alphabet if c != WEATHER_TEXT[pos]])
        mutated = WEATHER_TEXT[:pos] + repl + WEATHER_TEXT[pos + 1:]
        try:
            verify_document(mutated, WEATHER_HASH)
        except TamperError:
            rejected += 1
    assert rejected == 100

    root = str(tmp_path / "db")
    RegistryStore("db1", Network(), root=root).submit(WEATHER_TEXT)
    RegistryStore("db1", Network(), root=root)          # clean store loads
    with open(os.path.join(root, f"{WEATHER_HASH}.pd"), "w", encoding="utf-8") as fh:
        fh.write(WEATHER_TEXT.replace("cloudy", "stormy"))
    with pytest.raises(RegistryIntegrityError):
        RegistryStore("db1", Network(), root=root)
    _pass(5, "100/100 mutations rejected; registry load check passes clean, fails corrupt")


def test_criterion_06_escalation_state_machine():
    world = World()
    bob = world.add_weather_server()
    world.registry.submit(catalog.pd_text(catalog.CATALOG["taxi"]))   # unsuitable noise
    alice = world.add_agent("alice")
    payload = {"location": "Paris", "date": "2024-10-14"}
    description = catalog.CATALOG["weather"].task_description

    modes = []
    for step in range(5):
        _, mode = alice.send_task("bob", "weather", payload, description)
        modes.append(mode)
        if step == 1:
            assert not alice.state.was_checked(("bob", "weather"))
        if step == 2:
            assert alice.state.was_checked(("bob", "weather"))
    assert modes[:2] == ["natural_language", "natural_language"]    # counts 1-2
    assert modes[2] == "natural_language"                           # checked at 3, none fit
    assert modes[4] == "negotiate"                                  # count 5

    # server-initiated negotiation after 10 NL messages, then counter reset
    world2 = World()
    bob2 = world2.add_weather_server()
    passive = world2.add_agent("passive", thresholds=EscalationThresholds.unlimited())
    for _ in range(9):
        passive.send_task("bob", "weather", payload, description)
    assert bob2.state.server_nl_count == 9
    passive.send_task("bob", "weather", payload, description)       # 10th trips it
    assert bob2.state.server_nl_count == 0
    assert bob2.get_routine(WEATHER_HASH, RECEIVER) is not None
    _pass(6, "NL at 1-2, check at 3, negotiate at 5, server-initiated at 10, counter reset")


def test_criterion_07_registry_propagation():
    network = Network()
    registries = {}
    peers = {"db1": ("mem://db2",), "db2": ("mem://db3",), "db3": ()}
    for rid in ("db1", "db2", "db3"):
        registries[rid] = RegistryStore(rid, network, peers=peers[rid])
        network.register(rid, registries[rid])
    registries["db1"].submit(WEATHER_TEXT)
    registries["db1"].share_with_peers()
    assert registries["db2"].get(WEATHER_HASH) is not None
    assert registries["db3"].get(WEATHER_HASH) is None
    registries["db2"].share_with_peers()
    assert registries["db3"].get(WEATHER_HASH) is not None
    _pass(7, "chain propagation: absent from DB3 after DB1 round, present after DB2 round")


def test_criterion_08_emergent_chain():
    result = run_scenario(chain_config(orders=9))
    assert all(r.status == "success" for r in result.records)
    final = result.records[-1]
    assert final.model_invocations == 0 and final.cost == 0.0
    _pass(8, f"repeated order after warm-up: 0 model invocations across 3 hops, "
             f"all {len(result.records)} orders succeeded")


def test_criterion_09_workload_properties():
    servers = {t: ["srv-1"] for t in user_facing_types()}
    for seed in range(20):
        spec = WorkloadSpec(seed=seed, n_users=17, total_query_cap=200)
        tasks = generate_workload(spec, servers)
        per_user: dict[str, dict[str, int]] = {}
        for task in tasks:
            per_user.setdefault(task.user_id, {}).setdefault(task.task_type, 0)
            per_user[task.user_id][task.task_type] += 1
        assert len(per_user) == 17
        for types in per_user.values():
            budget = sum(types.values())
            assert budget >= 1
            if budget >= 3:
                assert len(types) == 3
                assert all(count >= 1 for count in types.values())
        assert tasks == generate_workload(spec, servers)
    _pass(9, "20 seeds: every user >= 1 query, 3 types per big budget, seed-stable")


def test_criterion_10_negotiation_fixture():
    world = World()
    bob = world.add_weather_server()
    alice = world.add_agent("alice")
    doc = alice.negotiate("bob", "weather",
                          catalog.CATALOG["weather"].task_description, my_side=SENDER)
    assert doc.raw_text == WEATHER_TEXT

    routine = bob.get_routine(WEATHER_HASH, RECEIVER)
    assert routine is not None
    out = execute_routine(routine, json.dumps({"date": "2023-10-01", "location": "New York"}),
                          {"weather_db": catalog.MOCK_TOOLS["weather_db"]})
    assert json.loads(out) == {"temperature": 22.5, "precipitation": 5.0,
                               "weatherCondition": "cloudy"}
    _pass(10, "negotiation reproduces the canonical weather protocol; receiver routine "
              "maps the worked example through the stubbed tool")
