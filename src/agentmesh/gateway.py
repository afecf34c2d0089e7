"""Completion backends, token counting, and the cost ledger.

Backends are pluggable: the simulator uses deterministic scripted backends,
while ``LiveChatBackend`` speaks the common chat-completion HTTP shape for
real deployments. Costs are tracked per activity so a run can be broken
down into natural-language traffic, negotiation, suitability checks, and
routine implementation.

Token counting is fixed as ``ceil(utf8_bytes / 4)`` so scripted runs are
reproducible without vendor tokenizers; live backends report their own
usage instead.
"""

from __future__ import annotations

import enum
import json
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple
from urllib.parse import urlsplit

from .transport import ConnectError, HttpClient, TransportError

# A completion request is made at most COMPLETION_ATTEMPTS times,
# COMPLETION_BACKOFF_S apart, each waiting at most COMPLETION_TIMEOUT_S.
COMPLETION_ATTEMPTS = 3
COMPLETION_BACKOFF_S = 0.1
COMPLETION_TIMEOUT_S = 60.0


class Message(NamedTuple):
    """One role-tagged message of a conversation."""

    role: str
    content: str


@dataclass(frozen=True, slots=True)
class TokenUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be non-negative")


class BackendError(Exception):
    """A completion backend failed to produce a reply."""


class CompletionBackend:
    """Contract for completion backends.

    Implementations must be deterministic for scripted use: the same
    conversation yields the same reply and usage, across runs and threads.
    """

    def complete(self, conversation: list[Message]) -> tuple[str, TokenUsage]:
        raise NotImplementedError


def count_tokens(text: str) -> int:
    """Deterministic token estimate: ceil(utf8_byte_length / 4)."""
    return (len(text.encode("utf-8")) + 3) // 4


# ── pricing ──────────────────────────────────────────────────────────

@dataclass(frozen=True)
class ModelPrice:
    """USD per million prompt/completion tokens."""

    prompt_per_million: float
    completion_per_million: float

    def __post_init__(self):
        if self.prompt_per_million < 0 or self.completion_per_million < 0:
            raise ValueError("prices must be non-negative")


DEFAULT_PRICES: dict[str, ModelPrice] = {
    "gpt-4o": ModelPrice(5.00, 15.00),
    "llama-3-405b": ModelPrice(5.00, 10.00),
    "gemini-1.5-pro": ModelPrice(3.50, 10.50),
}


def parse_price_table(raw) -> dict[str, ModelPrice]:
    """Read a decoded price table of
    ``{model_id: {"prompt_per_million": x, "completion_per_million": y}}``;
    any other shape raises ValueError."""
    if not isinstance(raw, dict):
        raise ValueError("a price table must be an object")
    table = {}
    for model_id, prices in raw.items():
        try:
            table[model_id] = ModelPrice(float(prices["prompt_per_million"]),
                                         float(prices["completion_per_million"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"price of {model_id!r} must be an object with numeric "
                             f"prompt_per_million and completion_per_million") from exc
    return table


class Activity(str, enum.Enum):
    """Cost categories; together they partition a run's spend."""

    NATURAL_LANGUAGE = "natural_language"
    NEGOTIATION = "negotiation"
    SUITABILITY_CHECK = "suitability_check"
    ROUTINE_IMPLEMENTATION = "routine_implementation"


class UnknownModelError(Exception):
    """model_id missing from the price table."""


@dataclass(frozen=True, slots=True)
class LedgerRecord:
    index: int
    model_id: str
    usage: TokenUsage
    activity: Activity
    cost: float


class CostLedger:
    """Append-only record of priced token usage.

    Appends are serialized so concurrent writers cannot lose records. The
    total and each activity's total are running sums, added to under the
    same lock as each append, so they add the record costs one by one in
    record order, and a read costs the same however long the ledger is.
    """

    def __init__(self, prices: dict[str, ModelPrice] | None = None):
        self.prices = dict(DEFAULT_PRICES if prices is None else prices)
        self._records: list[LedgerRecord] = []
        self._total = 0.0
        self._activity_totals = {activity.value: 0.0 for activity in Activity}
        self._lock = threading.Lock()

    def charge(self, model_id: str, usage: TokenUsage, activity: Activity) -> float:
        if model_id not in self.prices:
            raise UnknownModelError(f"no prices configured for model {model_id!r}")
        price = self.prices[model_id]
        cost = (usage.prompt_tokens * price.prompt_per_million
                + usage.completion_tokens * price.completion_per_million) / 1e6
        activity = Activity(activity)
        with self._lock:
            self._records.append(LedgerRecord(len(self._records), model_id, usage, activity, cost))
            self._total += cost
            self._activity_totals[activity.value] += cost
        return cost

    def records(self) -> list[LedgerRecord]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    def tally(self) -> tuple[int, float]:
        """The record count and the total, read together."""
        with self._lock:
            return len(self._records), self._total

    def totals(self) -> tuple[float, dict[str, float]]:
        """The total and a copy of the per-activity totals, read together."""
        with self._lock:
            return self._total, dict(self._activity_totals)


@dataclass(frozen=True)
class CostSummary:
    total: float
    activity_totals: dict[str, float]
    activity_percentages: dict[str, float]


def summarize(ledger: CostLedger) -> CostSummary:
    """Aggregate a ledger into its total and a per-activity breakdown."""
    total, activity_totals = ledger.totals()
    if total > 0:
        percentages = {k: 100.0 * v / total for k, v in activity_totals.items()}
    else:
        percentages = {k: 0.0 for k in activity_totals}
    return CostSummary(
        total=total,
        activity_totals=activity_totals,
        activity_percentages=percentages,
    )


# ── live backend ─────────────────────────────────────────────────────

class LiveChatBackend(CompletionBackend):
    """Chat-completion client for a real model endpoint.

    Sends the OpenAI-style ``{"model", "messages"}`` payload and prefers the
    vendor-reported usage over the local token estimate.
    """

    def __init__(self, endpoint: str, api_key: str, model_id: str):
        self.endpoint = endpoint
        self.api_key = api_key
        self.model_id = model_id
        self._client = HttpClient()

    def complete(self, conversation: list[Message]) -> tuple[str, TokenUsage]:
        payload = json.dumps({
            "model": self.model_id,
            "messages": [{"role": role, "content": content} for role, content in conversation],
        }).encode("utf-8")
        headers = {"Authorization": f"Bearer {self.api_key}", "Content-Type": "application/json"}
        parts = urlsplit(self.endpoint)
        last_error: object = None
        for attempt in range(COMPLETION_ATTEMPTS):
            if attempt:
                time.sleep(COMPLETION_BACKOFF_S)
            try:
                status, text = self._client.send("POST", parts, payload, headers,
                                                 COMPLETION_TIMEOUT_S)
            except ConnectError as exc:
                last_error = exc
                continue
            except TransportError as exc:
                # A completion the endpoint received may be billed, so only a
                # request that never left is sent again.
                raise BackendError(f"completion request failed: {exc}") from exc
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                continue
            if not 200 <= status < 300:
                raise BackendError(f"completion request failed: HTTP {status}: {text[:200]}")
            try:
                data = json.loads(text)
                reply = data["choices"][0]["message"]["content"]
                if not isinstance(reply, str):
                    raise TypeError(f"reply content is {type(reply).__name__}, not a string")
                usage = data.get("usage", {})
                counts = (usage.get("prompt_tokens",
                                    sum(count_tokens(m.content) for m in conversation)),
                          usage.get("completion_tokens", count_tokens(reply)))
                # A count the ledger can price: a whole number, not a bool,
                # and exact as a float.
                if not all(type(n) is int and 0 <= n <= 2 ** 53 for n in counts):
                    raise ValueError("usage token counts must be whole numbers from 0 to 2**53")
                return reply, TokenUsage(*counts)
            except (ValueError, LookupError, TypeError, AttributeError, RecursionError) as exc:
                raise BackendError(f"completion request failed: {exc}") from exc
        raise BackendError(f"completion request failed after {COMPLETION_ATTEMPTS} attempts: {last_error}")
