"""Scenario runs: the demo walkthrough, paired counterfactuals, the chain,
determinism, and report emission."""

import csv
import gc
import json
import math
import os
import sys
import threading
import time
import warnings
from collections import Counter
from dataclasses import replace

import pytest

from agentmesh import catalog, simulator
from agentmesh.documents import compute_hash
from agentmesh.envelope import STATUS_REJECTED, STATUS_SUCCESS, RequestEnvelope
from agentmesh.gateway import Activity, CostLedger
from agentmesh.simulator import (Scenario, ScenarioConfig, break_even_point,
                                 build_workload, chain_config, emit_report, run_paired,
                                 run_scenario, run_two_agent_demo, window_average)

DESK = ScenarioConfig(seed=13)
SMALL = ScenarioConfig(name="small", seed=3, n_users=5, total_queries=60)


@pytest.fixture(scope="module")
def desk_pair():
    return run_paired(DESK)


@pytest.fixture(scope="module")
def demo():
    return run_two_agent_demo(protocol_uses=10)


class TestBreakEvenArithmetic:
    def test_paper_figures_give_three(self):
        assert break_even_point(0.043, 0.020) == 3

    def test_free_setup_breaks_even_immediately(self):
        assert break_even_point(0.0, 0.020) == 1

    def test_no_saving_never_breaks_even(self):
        assert break_even_point(0.043, 0.0) is None

    def test_exact_divisibility_needs_one_more(self):
        # saving exactly equal after m uses is not yet cheaper
        assert break_even_point(0.06, 0.02) == 4


class TestTwoAgentDemo:
    def test_calibrated_phase_costs(self, demo):
        assert demo.nl_cost_per_exchange == pytest.approx(0.020, abs=1e-9)
        assert demo.setup_cost == pytest.approx(0.043, abs=1e-9)

    def test_break_even_at_three(self, demo):
        assert demo.break_even_uses == 3

    def test_protocol_phase_is_free(self, demo):
        assert demo.protocol_phase_cost == 0.0

    def test_zero_uses_leaves_setup_uncompensated(self):
        report = run_two_agent_demo(protocol_uses=0)
        assert report.total_cost > report.nl_equivalent_cost

    def test_hundred_uses_cost_less_than_half_of_nl(self):
        report = run_two_agent_demo(protocol_uses=100)
        assert report.total_cost < report.nl_equivalent_cost / 2

    def test_categories_partition_total(self, demo):
        summary = demo.summary
        assert sum(summary.activity_totals.values()) == pytest.approx(summary.total)
        assert sum(summary.activity_percentages.values()) == pytest.approx(100.0, abs=0.1)


class TestScenarioRuns:
    def test_agora_beats_nl_only(self, desk_pair):
        agora, nl_only = desk_pair
        assert agora.total_cost < nl_only.total_cost

    def test_agora_at_most_half_of_nl(self, desk_pair):
        agora, nl_only = desk_pair
        assert agora.total_cost <= nl_only.total_cost / 2

    def test_same_seed_identical_streams(self):
        first = run_scenario(SMALL)
        second = run_scenario(SMALL)
        assert first.signature() == second.signature()

    def test_routine_hits_share_one_zero_cost(self):
        records = run_scenario(SMALL).records
        hits = [r for r in records if r.routine_hit]
        assert hits and all(r.cost == 0.0 for r in hits)
        assert len({id(r.cost) for r in hits}) == 1
        assert len({id(r.status) for r in records if r.status == STATUS_SUCCESS}) == 1

    def test_run_task_reads_the_ledger_twice(self, monkeypatch):
        tasks, _ = build_workload(SMALL)
        reads = Counter()

        def spy(name, read):
            def counted(self, *args):
                reads[name] += 1
                return read(self, *args)
            return counted

        scenario = Scenario(SMALL)
        try:
            monkeypatch.setattr(CostLedger, "tally", spy("tally", CostLedger.tally))
            monkeypatch.setattr(CostLedger, "__len__", spy("len", CostLedger.__len__))
            monkeypatch.setattr(CostLedger, "total", property(spy("total", CostLedger.total.fget)))
            for index, task in enumerate(tasks[:10]):
                scenario.run_task(index, task)
        finally:
            scenario.close()
        assert reads == {"tally": 20}

    def test_declining_model_usage(self, desk_pair):
        agora, _ = desk_pair
        quarter = len(agora.records) // 4
        first = sum(r.model_invocations for r in agora.records[:quarter])
        last = sum(r.model_invocations for r in agora.records[-quarter:])
        assert last <= first

    def test_pd_count_non_decreasing(self, desk_pair):
        agora, _ = desk_pair
        counts = [r.pd_count for r in agora.records]
        assert counts == sorted(counts)

    def test_cumulative_cost_non_decreasing(self, desk_pair):
        agora, _ = desk_pair
        series = [r.cumulative_cost for r in agora.records]
        assert series == sorted(series)

    def test_nl_only_mode_never_escalates(self, desk_pair):
        _, nl_only = desk_pair
        assert {r.mode for r in nl_only.records} == {"natural_language"}
        assert nl_only.final_pd_count == 0

    def test_all_four_activities_present(self, desk_pair):
        agora, _ = desk_pair
        for activity in Activity:
            assert agora.summary.activity_totals[activity.value] > 0, activity

    @pytest.mark.parametrize("mode", [simulator.MODE_AGORA, simulator.MODE_NL_ONLY])
    def test_every_model_call_is_charged_once(self, mode):
        config = replace(DESK, mode=mode)
        tasks, _ = build_workload(config)
        scenario = Scenario(config)
        calls = Counter()
        for agent in scenario.agents.values():
            def counted(conversation, complete=agent.backend.complete,
                        model_id=agent.config.model_id):
                calls[model_id] += 1
                return complete(conversation)
            agent.backend.complete = counted
        try:
            scenario.run(tasks)
        finally:
            scenario.close()
        assert calls == Counter(r.model_id for r in scenario.ledger.records())
        assert calls.total() > 0

    def test_individual_failures_do_not_abort(self):
        config = ScenarioConfig(name="flaky", seed=3, n_users=5, total_queries=60,
                                failure_rate=0.05)
        result = run_scenario(config)
        statuses = {r.status for r in result.records}
        assert len(result.records) == 60
        assert "failure" in statuses          # some queries failed...
        assert "success" in statuses          # ...and the run continued


class TestScenarioConfigFile:
    def test_from_dict_parses_thresholds_prices_and_topology(self):
        raw = {
            "kind": "network", "name": "custom", "seed": 2, "n_users": 4,
            "total_queries": 40,
            "thresholds": {"use_existing_after": 2, "negotiate_after": 3,
                           "server_negotiate_after": 6},
            "prices": {"gpt-4o": {"prompt_per_million": 1.0, "completion_per_million": 1.0},
                       "llama-3-405b": {"prompt_per_million": 1.0, "completion_per_million": 1.0},
                       "gemini-1.5-pro": {"prompt_per_million": 1.0, "completion_per_million": 1.0}},
            "registry_peers": {"db1": ["db2"], "db2": [], "db3": []},
        }
        config = ScenarioConfig.from_dict(raw)
        assert config.thresholds.negotiate_after == 3
        assert config.prices["gpt-4o"].completion_per_million == 1.0
        assert config.registry_peers["db1"] == ("db2",)
        result = run_scenario(config)
        assert len(result.records) == 40

    def test_from_dict_refuses_an_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            ScenarioConfig.from_dict({"mode": "bogus"})
        assert ScenarioConfig.from_dict({"mode": "natural_language_only"}).mode == \
            "natural_language_only"

    def test_price_table_scales_costs(self):
        base = ScenarioConfig(name="p", seed=3, n_users=4, total_queries=30)
        cheap = run_scenario(base)
        from agentmesh.gateway import ModelPrice
        doubled = ScenarioConfig(
            name="p", seed=3, n_users=4, total_queries=30,
            prices={m: ModelPrice(p.prompt_per_million * 2, p.completion_per_million * 2)
                    for m, p in base.prices.items()})
        pricey = run_scenario(doubled)
        assert pricey.total_cost == pytest.approx(cheap.total_cost * 2)


class TestShareCadence:
    def test_documents_replicate_during_a_run(self):
        from agentmesh.simulator import Scenario, build_workload
        config = ScenarioConfig(name="cadence", seed=13, share_period=5)
        tasks, _ = build_workload(config)
        scenario = Scenario(config)
        try:
            scenario.run(tasks)
            per_registry = [len(r) for r in scenario.registries]
            distinct = scenario.pd_count()
        finally:
            scenario.close()
        # share rounds copied documents beyond wherever they were submitted
        assert sum(per_registry) > distinct > 0


class TestPdCount:
    def test_document_stored_between_queries_is_counted(self):
        tasks, _ = build_workload(SMALL)
        scenario = Scenario(SMALL)
        try:
            scenario.run_task(0, tasks[0])
            scenario.run_task(1, tasks[1])
            probe = scenario.registries[-1].submit("Name: Probe\n\nStored outside any query.\n")
            record = scenario.run_task(2, tasks[2])
            stored = set().union(*(registry.hashes() for registry in scenario.registries))
        finally:
            scenario.close()
        assert probe in stored
        assert record.pd_count == len(stored)


class TestChainScenario:
    def test_warm_chain_completes_without_model_calls(self):
        result = run_scenario(chain_config(orders=9))
        assert all(r.status == "success" for r in result.records)
        final = result.records[-1]
        assert final.model_invocations == 0
        assert final.routine_hit
        assert final.cost == 0.0

    def test_chain_negotiates_three_protocols(self):
        result = run_scenario(chain_config(orders=9))
        assert result.final_pd_count >= 3     # food order, courier, traffic


class TestEmitReport:
    def test_csv_columns_and_rows(self, tmp_path, desk_pair):
        agora, _ = desk_pair
        paths = emit_report(agora, str(tmp_path))
        with open(paths["metrics"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "mode", "cost", "cumulative_cost",
                           "model_invocations", "pd_count"]
        assert len(rows) == len(agora.records) + 1

    def test_cumulative_column_non_decreasing(self, tmp_path, desk_pair):
        agora, _ = desk_pair
        paths = emit_report(agora, str(tmp_path))
        with open(paths["metrics"], newline="") as fh:
            values = [float(row["cumulative_cost"]) for row in csv.DictReader(fh)]
        assert values == sorted(values)

    def test_empty_metrics_header_only(self, tmp_path):
        empty = run_scenario(ScenarioConfig(name="tiny", seed=1, n_users=1,
                                            total_queries=1))
        empty.records = []
        paths = emit_report(empty, str(tmp_path))
        with open(paths["metrics"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1

    def test_summary_contains_ratio_for_paired_runs(self, tmp_path, desk_pair):
        agora, nl_only = desk_pair
        paths = emit_report(agora, str(tmp_path), baseline=nl_only)
        with open(paths["summary"]) as fh:
            text = fh.read()
        assert "cost_ratio_baseline_over_this:" in text
        ratio = float(next(line.split(": ")[1] for line in text.splitlines()
                           if line.startswith("cost_ratio_baseline_over_this")))
        assert ratio == pytest.approx(nl_only.total_cost / agora.total_cost, abs=1e-3)

    def test_window_average_series_in_summary(self, tmp_path, desk_pair):
        agora, _ = desk_pair
        paths = emit_report(agora, str(tmp_path))
        with open(paths["summary"]) as fh:
            line = next(l for l in fh if l.startswith("window_average_cost:"))
        assert len(line.split(":", 1)[1].split()) == len(agora.records)


class TestWindowAverage:
    def test_window_larger_than_series(self):
        assert window_average([2.0, 4.0]) == [2.0, 3.0]

    def test_sliding_window(self, monkeypatch):
        monkeypatch.setattr(simulator, "AVERAGE_WINDOW", 2)
        out = window_average([1.0, 1.0, 4.0, 4.0])
        assert out == [1.0, 1.0, 2.5, 4.0]

    def test_empty(self):
        assert window_average([]) == []


class TestHttpTransportMode:
    CONFIG = ScenarioConfig(name="http", seed=3, n_users=2, total_queries=8, transport="http")

    def test_small_scenario_over_real_sockets(self):
        result = run_scenario(self.CONFIG)
        assert len(result.records) == 8
        assert all(r.status == "success" for r in result.records)
        in_process = run_scenario(replace(self.CONFIG, transport="inprocess"))
        assert result.signature() == in_process.signature()

    def test_escalation_over_real_sockets(self, desk_pair):
        # Negotiation, suitability checks and adoption each cross a
        # HostServer here, and must leave the same trace as in process.
        result = run_scenario(replace(DESK, transport="http"))
        paths = Counter(r.mode for r in result.records)
        assert paths["negotiate"] and paths["check_existing"], paths
        assert result.signature() == desk_pair[0].signature()

    def test_every_address_is_a_socket(self):
        scenario = Scenario(self.CONFIG)
        try:
            addresses = [url for registry in scenario.registries for url in registry.peers]
            for agent in scenario.agents.values():
                addresses += [*agent.config.known_peers.values(),
                              agent.config.registry_url, agent.registry.base_url]
            assert addresses
            assert all(url.startswith("http://127.0.0.1:") for url in addresses), addresses
        finally:
            scenario.close()

    def test_close_is_prompt_and_ends_every_thread(self):
        before = threading.active_count()
        scenario = Scenario(self.CONFIG)
        try:
            scenario.run(build_workload(self.CONFIG)[0])
        finally:
            started = time.perf_counter()
            scenario.close()
            closing = time.perf_counter() - started
        assert closing < 1
        deadline = time.monotonic() + 2
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before

    def test_failed_build_closes_its_sockets(self):
        config = replace(self.CONFIG, registry_peers={"db1": ("db9",)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(KeyError):
                Scenario(config)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestServeRule:
    def test_desk_server_advertises_exactly_what_it_accepts(self):
        scenario = Scenario(DESK)
        try:
            texts = [catalog.pd_text(task) for task in catalog.CATALOG.values()]
            for registry in scenario.registries:
                for text in texts:
                    registry.submit(text)
            verdicts = set()
            for agent_id, agent in scenario.agents.items():
                if not agent.config.tools:
                    continue
                for task, text in zip(catalog.CATALOG.values(), texts):
                    digest = compute_hash(text)
                    sources = (agent.registry.pd_url(digest),)
                    agent.resolve_protocol(digest, sources)
                    advertised = digest in agent.wellknown()
                    response = agent.dispatch(RequestEnvelope(
                        digest, sources, json.dumps(task.example_input)))
                    assert advertised == (response.status != STATUS_REJECTED), (
                        agent_id, task.name)
                    verdicts.add(advertised)
            assert verdicts == {True, False}
        finally:
            scenario.close()


class TestConcurrentSends:
    """Eight threads share one scenario's agents, with thread switches forced
    often enough that queries overlap."""

    @pytest.mark.parametrize("transport", ["inprocess", "http"])
    def test_every_query_is_answered_and_the_ledger_adds_up(self, transport):
        config = replace(DESK, total_queries=400, transport=transport)
        tasks, _ = build_workload(config)
        scenario = Scenario(config)
        statuses = []

        def send(share):
            for task in share:
                response, _path = scenario.agents[task.user_id].send_task(
                    task.target_server_id, task.task_type, task.payload,
                    catalog.CATALOG[task.task_type].task_description)
                statuses.append(response.status)

        threads = [threading.Thread(target=send, args=(tasks[i::8],)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            scenario.close()
        assert not any(thread.is_alive() for thread in threads)
        assert Counter(statuses) == {STATUS_SUCCESS: 400}
        ledger = scenario.ledger
        assert math.fsum(record.cost for record in ledger.records()) == pytest.approx(
            ledger.total, rel=0, abs=1e-9)


class TestTopology:
    def test_workload_targets_servers_that_host_the_task(self):
        tasks, hosted = build_workload(SMALL)
        scenario = Scenario(SMALL)
        for task in tasks:
            assert task.target_server_id in hosted[task.task_type]
            server = scenario.agents[task.target_server_id]
            assert task.task_type in {tool.task_type for tool in server.config.tools}
            assert task.user_id in scenario.agents
