"""Token counting, pricing, the cost ledger, and scripted determinism."""

import functools
import math
import operator
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from agentmesh.catalog import WEATHER_PD_TEXT
from agentmesh.gateway import (Activity, CostLedger, ModelPrice, TokenUsage,
                               UnknownModelError, count_tokens, summarize)
from agentmesh.scripted import ScriptedBackend
from agentmesh import prompts


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_eight_bytes(self):
        assert count_tokens("abcdefgh") == 2

    def test_weather_fixture_matches_ceil(self):
        n_bytes = len(WEATHER_PD_TEXT.encode("utf-8"))
        assert count_tokens(WEATHER_PD_TEXT) == math.ceil(n_bytes / 4)

    @given(st.text(max_size=400))
    def test_matches_ceil_everywhere(self, text):
        assert count_tokens(text) == math.ceil(len(text.encode("utf-8")) / 4)

    @given(st.text(max_size=200), st.text(max_size=200))
    def test_monotone_in_length(self, a, b):
        assert count_tokens(a + b) >= count_tokens(a)


class TestCharge:
    def test_gpt4o_prompt_million(self):
        ledger = CostLedger()
        cost = ledger.charge("gpt-4o", TokenUsage(1_000_000, 0), Activity.NATURAL_LANGUAGE)
        assert cost == 5.00

    def test_gemini_completion_million(self):
        ledger = CostLedger()
        cost = ledger.charge("gemini-1.5-pro", TokenUsage(0, 1_000_000), Activity.NEGOTIATION)
        assert cost == 10.50

    def test_llama_zero_usage(self):
        ledger = CostLedger()
        assert ledger.charge("llama-3-405b", TokenUsage(0, 0), Activity.NEGOTIATION) == 0.0

    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            CostLedger().charge("no-such-model", TokenUsage(1, 1), Activity.NEGOTIATION)

    def test_negative_usage_rejected(self):
        with pytest.raises(ValueError):
            TokenUsage(-1, 0)


def added_in_record_order(ledger: CostLedger) -> float:
    """The record costs added left to right, as ``sum`` does on Python 3.11
    (3.12's ``sum`` compensates rounding, so it is not used here)."""
    return functools.reduce(operator.add, (r.cost for r in ledger.records()), 0.0)


def activity_sums_in_record_order(ledger: CostLedger) -> dict[str, float]:
    """Each activity's record costs added left to right in record order."""
    sums = {activity.value: 0.0 for activity in Activity}
    for record in ledger.records():
        sums[record.activity.value] += record.cost
    return sums


class TestLedger:
    def test_total_is_sum_of_records(self):
        ledger = CostLedger()
        costs = [ledger.charge("gpt-4o", TokenUsage(1000 * i, 500), Activity.NATURAL_LANGUAGE)
                 for i in range(1, 6)]
        assert ledger.total == pytest.approx(sum(costs))

    def test_running_total_is_exact_after_mixed_charges(self):
        ledger = CostLedger()
        models = ("gpt-4o", "llama-3-405b", "gemini-1.5-pro")
        for i in range(300):
            ledger.charge(models[i % 3], TokenUsage(17 * i + 3, 7 * i % 101),
                          list(Activity)[i % len(Activity)])
        assert ledger.total == added_in_record_order(ledger)
        assert summarize(ledger).total == ledger.total
        assert summarize(ledger).activity_totals == activity_sums_in_record_order(ledger)

    def test_tally_reads_count_and_total_together(self):
        ledger = CostLedger()
        assert ledger.tally() == (0, 0.0)
        for i in range(5):
            ledger.charge("gpt-4o", TokenUsage(100 * i, 7), Activity.NATURAL_LANGUAGE)
        assert ledger.tally() == (len(ledger), ledger.total) == (5, added_in_record_order(ledger))

    def test_append_only_indexing(self):
        ledger = CostLedger()
        for _ in range(4):
            ledger.charge("gpt-4o", TokenUsage(10, 10), Activity.NEGOTIATION)
        assert [r.index for r in ledger.records()] == [0, 1, 2, 3]

    def test_concurrent_appends_lose_nothing(self):
        ledger = CostLedger()

        def worker(activity):
            for i in range(200):
                ledger.charge("gpt-4o", TokenUsage(100 + i, 100), activity)

        threads = [threading.Thread(target=worker, args=(list(Activity)[k % len(Activity)],))
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(ledger) == 1600
        assert sorted(r.index for r in ledger.records()) == list(range(1600))
        assert ledger.total == added_in_record_order(ledger)
        assert summarize(ledger).total == ledger.total
        assert summarize(ledger).activity_totals == activity_sums_in_record_order(ledger)


class TestSummarize:
    def test_empty_ledger(self):
        summary = summarize(CostLedger())
        assert summary.total == 0
        assert all(v == 0.0 for v in summary.activity_percentages.values())

    def test_two_records_partition(self):
        ledger = CostLedger({"m": ModelPrice(1.0, 1.0)})
        ledger.charge("m", TokenUsage(10_000, 0), Activity.NATURAL_LANGUAGE)   # 0.01
        ledger.charge("m", TokenUsage(30_000, 0), Activity.NEGOTIATION)        # 0.03
        summary = summarize(ledger)
        assert summary.activity_percentages[Activity.NATURAL_LANGUAGE.value] == pytest.approx(25.0)
        assert summary.activity_percentages[Activity.NEGOTIATION.value] == pytest.approx(75.0)
        assert sum(summary.activity_percentages.values()) == pytest.approx(100.0, abs=0.1)



class TestScriptedDeterminism:
    CONVERSATION = [
        prompts.compose_system("a", "weather", "query the weather forecast", None),
        prompts.compose_request({"location": "Paris", "date": "2024-10-14"}),
    ]

    def test_same_conversation_same_reply_and_usage(self):
        backend = ScriptedBackend()
        first = backend.complete(self.CONVERSATION)
        assert all(backend.complete(self.CONVERSATION) == first for _ in range(20))

    def test_deterministic_across_instances(self):
        assert (ScriptedBackend().complete(self.CONVERSATION)
                == ScriptedBackend().complete(self.CONVERSATION))

    def test_deterministic_across_threads(self):
        backend = ScriptedBackend()
        reference = backend.complete(self.CONVERSATION)
        results = []

        def worker():
            for _ in range(50):
                results.append(backend.complete(self.CONVERSATION))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == reference for r in results)

    def test_injected_failure(self):
        from agentmesh.gateway import BackendError
        backend = ScriptedBackend(failure_rate=1.0)
        with pytest.raises(BackendError):
            backend.complete(self.CONVERSATION)
