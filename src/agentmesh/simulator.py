"""Deterministic multi-agent scenarios and their reports.

A scenario wires users, servers, and three protocol registries onto one
network in a single pass: in-process ``mem://`` addresses by default, or,
for integration runs, one loopback ``HostServer`` per node, bound before
any node is built so that every node gets its final address. A server is
given only tool descriptors: its catalog tools and, for a chained task, an
external tool naming the replica that hosts the next hop; the agent builds
the implementations itself. The scenario generates a seeded workload,
executes it in order on a single logical worker, and records one metrics
row per query. The natural-language-only counterfactual runs the same
workload with escalation disabled; comparing the two ledgers gives the cost
ratio.

Included scenario presets:
  * the two-agent walkthrough (natural language, failed suitability check,
    negotiation, routine synthesis, then free protocol exchanges) with a
    calibrated ledger and break-even arithmetic;
  * the desk-scale network (20 agents / 200 queries) and its 100-agent /
    1000-query variant;
  * the three-hop chain (restaurant -> courier -> traffic) that ends up
    fully automated after warm-up.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

from . import catalog
from .envelope import STATUS_SUCCESS
from .gateway import (Activity, CostLedger, CostSummary, DEFAULT_PRICES, ModelPrice,
                      parse_price_table, summarize)
from .registry import RegistryStore
from .routines import SENDER
from .runtime import Agent, AgentConfig, EscalationThresholds, ToolDescriptor
from .scripted import DEMO_MODEL_ID, ScriptedBackend, calibrated_usage_profile
from .serve import HostServer
from .transport import Network
from .workload import QueryTask, WorkloadSpec, generate_workload, user_facing_types, user_id

MODELS = ("gpt-4o", "llama-3-405b", "gemini-1.5-pro")

# Which server kind hosts which task types; replicas append an index.
SERVER_KINDS: dict[str, tuple[str, ...]] = {
    "svc-a": ("weather", "taxi", "traffic"),
    "svc-b": ("hotel", "delivery", "movie_tickets"),
    "svc-c": ("food_order", "restaurant_booking", "flight", "car_rental"),
}
_KIND_MODELS = {"svc-a": "gpt-4o", "svc-b": "llama-3-405b", "svc-c": "gemini-1.5-pro"}

MODE_AGORA = "agora"
MODE_NL_ONLY = "natural_language_only"
MODES = (MODE_AGORA, MODE_NL_ONLY)
TRANSPORTS = ("inprocess", "http")

# Per scenario kind, the keys of a scenario file whose values are checked
# here: the type of each and, for a count, its least value. A demo kind takes
# only the keys in its row; a network file takes any ScenarioConfig field.
SCENARIO_KEYS: dict[str, dict[str, tuple[type, int | None]]] = {
    "network": {"seed": (int, None), "n_users": (int, 1), "server_replicas": (int, 1),
                "total_queries": (int, 1), "types_per_user": (int, 1),
                "share_period": (int, 0)},
    "two_agent": {"protocol_uses": (int, 0), "nl_exchanges": (int, 0),
                  "calibrated": (bool, None)},
    "chain": {"orders": (int, 1), "seed": (int, None)},
}


def check_scenario_keys(kind: str, raw: dict) -> None:
    """Raise ValueError on an unknown *kind*, on a value in *raw* that its
    row of SCENARIO_KEYS refuses, and, for a demo kind, on a key not in
    that row."""
    if not isinstance(kind, str) or kind not in SCENARIO_KEYS:
        raise ValueError(f"unknown kind: {kind!r}")
    row = SCENARIO_KEYS[kind]
    unknown = sorted(set(raw) - set(row))
    if unknown and kind != "network":
        raise ValueError(f"unknown {kind} keys: {', '.join(unknown)}")
    for key, (expected, least) in row.items():
        if key not in raw:
            continue
        value = raw[key]
        if type(value) is not expected or (least is not None and value < least):
            need = "a bool" if expected is bool else "an int"
            if least is not None:
                need += f" >= {least}"
            raise ValueError(f"{key} must be {need}, not {value!r}")


# Default registry topology: a three-database chain, each peered with its
# neighbours.
DEFAULT_REGISTRY_PEERS: dict[str, tuple[str, ...]] = {
    "db1": ("db2",),
    "db2": ("db1", "db3"),
    "db3": ("db2",),
}


@dataclass
class ScenarioConfig:
    name: str = "desk"
    seed: int = 7
    mode: str = MODE_AGORA
    n_users: int = 17
    server_replicas: int = 1
    total_queries: int = 200
    types_per_user: int = 3
    task_filter: tuple[str, ...] = ()       # restrict workload to these types
    thresholds: EscalationThresholds = field(default_factory=EscalationThresholds)
    share_period: int = 10
    transport: str = "inprocess"            # one of TRANSPORTS
    failure_rate: float = 0.0
    prices: dict[str, ModelPrice] = field(default_factory=lambda: dict(DEFAULT_PRICES))
    registry_peers: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_REGISTRY_PEERS))

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Build a config from a scenario file's object. An unknown key
        raises TypeError; a value the scenario cannot use raises ValueError."""
        raw = dict(raw)
        raw.pop("kind", None)
        check_scenario_keys("network", raw)
        if raw.get("mode", MODE_AGORA) not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, not {raw['mode']!r}")
        if raw.get("transport", "inprocess") not in TRANSPORTS:
            raise ValueError(f"transport must be one of {', '.join(TRANSPORTS)}, "
                             f"not {raw['transport']!r}")
        rate = raw.get("failure_rate", 0.0)
        if type(rate) not in (int, float) or not 0 <= rate <= 1:
            raise ValueError(f"failure_rate must be a number in [0, 1], not {rate!r}")
        if "thresholds" in raw:
            raw["thresholds"] = EscalationThresholds(**raw["thresholds"])
        if "task_filter" in raw:
            raw["task_filter"] = tuple(raw["task_filter"])
        if "prices" in raw:
            raw["prices"] = parse_price_table(raw["prices"])
        if "registry_peers" in raw:
            peer_map = raw["registry_peers"]
            if not isinstance(peer_map, dict) or not peer_map:
                raise ValueError(f"registry_peers must be a non-empty object, not {peer_map!r}")
            raw["registry_peers"] = {rid: tuple(peers) for rid, peers in peer_map.items()}
        config = cls(**raw)
        if config.total_queries < config.n_users:
            raise ValueError(f"total_queries must be at least n_users ({config.n_users}), "
                             f"not {config.total_queries}")
        for task_type in config.task_filter:
            if task_type not in catalog.CATALOG:
                raise ValueError(f"task_filter names no catalog task type: {task_type!r}")
        for rid, peers in config.registry_peers.items():
            for peer in peers:
                if peer not in config.registry_peers:
                    raise ValueError(f"registry_peers: {rid} names no registry: {peer!r}")
        return config


@dataclass(frozen=True, slots=True)
class MetricsRecord:
    index: int
    user_id: str
    server_id: str
    task_type: str
    mode: str                 # client path used for this query
    status: str
    cost: float
    cumulative_cost: float
    model_invocations: int    # ledger records added by this query
    routine_hit: bool         # answered without any model call
    pd_count: int             # distinct documents across registries
    duration_s: float

    def signature(self) -> tuple:
        """Deterministic fields only (wall-clock excluded)."""
        return (self.index, self.user_id, self.server_id, self.task_type,
                self.mode, self.status, round(self.cost, 12),
                self.model_invocations, self.routine_hit, self.pd_count)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    records: list[MetricsRecord]
    summary: CostSummary

    @property
    def total_cost(self) -> float:
        return self.summary.total

    @property
    def model_invocations(self) -> int:
        return sum(r.model_invocations for r in self.records)

    @property
    def failed_queries(self) -> int:
        return sum(r.status != STATUS_SUCCESS for r in self.records)

    @property
    def final_pd_count(self) -> int:
        return self.records[-1].pd_count if self.records else 0

    def signature(self) -> tuple:
        return tuple(r.signature() for r in self.records)


class _NetworkHost:
    """The host the network registers under *name*, looked up per request,
    so that a socket can be bound before its host exists."""

    def __init__(self, network: Network, name: str):
        self.network = network
        self.name = name

    def handle_request(self, *request) -> tuple[int, str, str]:
        return self.network.host(self.name).handle_request(*request)


def servers_by_type(server_replicas: int) -> dict[str, list[str]]:
    """The server topology: each task type mapped to the ids of the servers
    hosting it, one per replica, in replica order."""
    return {task_type: [f"{kind}-{replica}" for replica in range(1, server_replicas + 1)]
            for kind, types in SERVER_KINDS.items() for task_type in types}


class Scenario:
    """A wired network of agents and registries, ready to execute tasks."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.network = Network()
        self.ledger = CostLedger(dict(config.prices))
        self.registries: list[RegistryStore] = []
        self.agents: dict[str, Agent] = {}
        self._servers: list[HostServer] = []
        # pd_count's cache, keyed on the registries' sizes.
        self._pd_sizes: tuple[int, ...] = ()
        self._pd_count = 0
        try:
            self._build()
        except BaseException:
            self.close()
            raise

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        peer_map = cfg.registry_peers
        registry_ids = sorted(peer_map)
        hosted = servers_by_type(cfg.server_replicas)
        # Each replica's servers in kind order: svc-a-1, svc-b-1, ..., svc-a-2, ...
        server_ids = list(dict.fromkeys(s for replica in zip(*hosted.values()) for s in replica))
        user_ids = [user_id(i) for i in range(cfg.n_users)]
        agent_ids = server_ids + user_ids

        names = registry_ids + agent_ids
        if cfg.transport == "http":
            self._servers = [HostServer(_NetworkHost(self.network, name)) for name in names]
            addresses = {name: server.url for name, server in zip(names, self._servers)}
        else:
            addresses = {name: f"mem://{name}" for name in names}

        for rid in registry_ids:
            peers = tuple(addresses[p] for p in peer_map[rid])
            registry = RegistryStore(rid, self.network, peers=peers)
            self.registries.append(registry)
            self.network.register(rid, registry)

        thresholds = (EscalationThresholds.unlimited()
                      if cfg.mode == MODE_NL_ONLY else cfg.thresholds)

        for index, agent_id in enumerate(agent_ids):
            if agent_id in server_ids:
                kind, replica = agent_id.rsplit("-", 1)
                tools = self._server_tools(kind, int(replica), hosted)
                model_id = _KIND_MODELS[kind]
            else:
                tools = ()
                model_id = MODELS[index % len(MODELS)]

            config = AgentConfig(
                agent_id=agent_id,
                model_id=model_id,
                thresholds=thresholds,
                tools=tools,
                known_peers={p: addresses[p] for p in agent_ids if p != agent_id},
                registry_url=addresses[registry_ids[index % len(registry_ids)]],
            )
            backend = ScriptedBackend(failure_rate=cfg.failure_rate, failure_seed=cfg.seed + index)
            agent = Agent(config, backend, self.ledger, self.network)
            self.agents[agent_id] = agent
            self.network.register(agent_id, agent)

        for server in self._servers:
            server.start_background()

    @staticmethod
    def _server_tools(kind: str, replica: int, hosted: dict[str, list[str]]):
        tools: list[ToolDescriptor] = []
        for task_type in SERVER_KINDS[kind]:
            task = catalog.CATALOG[task_type]
            external = {raw["name"] for raw in task.server_tools}
            # Each task has one step tool of its own; the rest call peers.
            own = next(step["tool"] for step in task.steps if step["tool"] not in external)
            tool_kind = "database" if own.endswith("_db") else "mock"
            tools.append(ToolDescriptor(own, tool_kind, description=task.purpose,
                                        task_type=task_type))
            for raw in task.server_tools:
                tools.append(ToolDescriptor(
                    name=raw["name"], kind="external", description=raw["description"],
                    task_type=raw["task_type"], peer=hosted[raw["task_type"]][replica - 1]))
        return tuple(tools)

    def close(self) -> None:
        # The client's kept-alive connections first, so that the servers'
        # handler threads see EOF; then the servers, each of which stops at
        # once, so stopping them one after another costs little.
        self.network.close()
        for server in self._servers:
            server.shutdown()

    # -- execution ---------------------------------------------------------

    def pd_count(self) -> int:
        """Distinct documents across the registries. A registry never drops
        a document, so the union can change only when some registry grows;
        it is recounted only then."""
        # Sizes first: a document stored meanwhile shows as growth next time.
        sizes = tuple(map(len, self.registries))
        if sizes != self._pd_sizes:
            hashes: set[str] = set()
            for registry in self.registries:
                hashes |= registry.hashes()
            self._pd_sizes, self._pd_count = sizes, len(hashes)
        return self._pd_count

    def run_task(self, index: int, task: QueryTask) -> MetricsRecord:
        agent = self.agents[task.user_id]
        description = catalog.CATALOG[task.task_type].task_description
        before_records, before_cost = self.ledger.tally()
        started = time.perf_counter()
        response, mode = agent.send_task(task.target_server_id, task.task_type,
                                         task.payload, description)
        duration = time.perf_counter() - started
        after_records, cumulative_cost = self.ledger.tally()
        invocations = after_records - before_records
        return MetricsRecord(
            index=index,
            user_id=task.user_id,
            server_id=task.target_server_id,
            task_type=task.task_type,
            mode=mode,
            status=response.status,
            # A query that charged nothing shares one 0.0 rather than keeping
            # its own copy of the same difference.
            cost=cumulative_cost - before_cost if invocations else 0.0,
            cumulative_cost=cumulative_cost,
            model_invocations=invocations,
            routine_hit=invocations == 0,
            pd_count=self.pd_count(),
            duration_s=duration,
        )

    def run(self, tasks: list[QueryTask]) -> ScenarioResult:
        records = []
        share_round = 0
        for index, task in enumerate(tasks):
            records.append(self.run_task(index, task))
            if self.config.share_period and (index + 1) % self.config.share_period == 0:
                self.registries[share_round % len(self.registries)].share_with_peers()
                share_round += 1
        return ScenarioResult(self.config, records, summarize(self.ledger))


def build_workload(config: ScenarioConfig) -> tuple[list[QueryTask], dict[str, list[str]]]:
    hosted = servers_by_type(config.server_replicas)
    spec = WorkloadSpec(
        seed=config.seed,
        n_users=config.n_users,
        total_query_cap=config.total_queries,
        types_per_user=config.types_per_user,
        task_types=config.task_filter or tuple(t for t in user_facing_types()),
    )
    return generate_workload(spec, hosted), hosted


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    tasks, _ = build_workload(config)
    scenario = Scenario(config)
    try:
        return scenario.run(tasks)
    finally:
        scenario.close()


def run_paired(config: ScenarioConfig) -> tuple[ScenarioResult, ScenarioResult]:
    """The same workload under escalation and under the natural-language
    counterfactual."""
    agora = run_scenario(replace(config, mode=MODE_AGORA))
    nl_only = run_scenario(replace(config, mode=MODE_NL_ONLY))
    return agora, nl_only


# ── two-agent walkthrough ────────────────────────────────────────────

@dataclass
class DemoReport:
    nl_exchanges: int
    protocol_uses: int
    nl_phase_cost: float
    suitability_cost: float
    negotiation_cost: float
    implementation_cost: float
    protocol_phase_cost: float
    nl_cost_per_exchange: float
    setup_cost: float
    break_even_uses: int | None
    total_cost: float
    nl_equivalent_cost: float
    summary: CostSummary


def break_even_point(setup_cost: float, nl_exchange_cost: float) -> int | None:
    """Smallest number of protocol uses whose cumulative saving exceeds the
    setup cost, a protocol exchange costing nothing; None when a language
    exchange costs nothing either."""
    if nl_exchange_cost <= 0:
        return None
    return math.floor(setup_cost / nl_exchange_cost) + 1


def run_two_agent_demo(protocol_uses: int = 10, nl_exchanges: int = 5,
                       calibrated: bool = True) -> DemoReport:
    """Replay the canonical weather walkthrough between one user and one
    weather server and report phase costs plus the break-even point."""
    network = Network()
    if calibrated:
        prices = {DEMO_MODEL_ID: ModelPrice(1.0, 1.0)}
        model_id = DEMO_MODEL_ID
        overrides = calibrated_usage_profile()
    else:
        prices = dict(DEFAULT_PRICES)
        model_id = "gpt-4o"
        overrides = None
    ledger = CostLedger(prices)

    registry = RegistryStore("db1", network)
    network.register("db1", registry)
    addresses = {"alice": "mem://alice", "bob": "mem://bob"}

    def make_agent(agent_id, tools):
        config = AgentConfig(
            agent_id=agent_id, model_id=model_id,
            thresholds=EscalationThresholds.unlimited(),   # the walkthrough drives phases itself
            tools=tools,
            known_peers={p: a for p, a in addresses.items() if p != agent_id},
            registry_url="mem://db1",
        )
        backend = ScriptedBackend(usage_overrides=overrides)
        agent = Agent(config, backend, ledger, network)
        network.register(agent_id, agent)
        return agent

    weather = catalog.CATALOG["weather"]
    alice = make_agent("alice", ())
    make_agent("bob", (ToolDescriptor("weather_db", "database", weather.purpose, "weather"),))

    payload = {"location": "London, UK", "date": "2024-09-27"}
    description = weather.task_description

    for _ in range(nl_exchanges):
        response, _mode = alice.send_task("bob", "weather", payload, description)
        assert response.status == STATUS_SUCCESS, response
    nl_cost = ledger.total

    candidates = alice.gather_candidates("bob")
    found = alice.check_suitability(description, candidates)
    assert found is None, "walkthrough expects no pre-existing protocol"
    check_cost = ledger.total - nl_cost

    alice.negotiate("bob", "weather", description, my_side=SENDER)
    cost_after_setup = ledger.total

    for _ in range(protocol_uses):
        response, mode = alice.send_task("bob", "weather", payload, description)
        assert response.status == STATUS_SUCCESS, response
        assert mode == "protocol", mode
    protocol_cost = ledger.total - cost_after_setup

    summary = summarize(ledger)
    negotiation_cost = summary.activity_totals[Activity.NEGOTIATION.value]
    implementation_cost = summary.activity_totals[Activity.ROUTINE_IMPLEMENTATION.value]
    setup_cost = negotiation_cost + implementation_cost
    per_exchange = nl_cost / nl_exchanges if nl_exchanges else 0.0
    return DemoReport(
        nl_exchanges=nl_exchanges,
        protocol_uses=protocol_uses,
        nl_phase_cost=nl_cost,
        suitability_cost=check_cost,
        negotiation_cost=negotiation_cost,
        implementation_cost=implementation_cost,
        protocol_phase_cost=protocol_cost,
        nl_cost_per_exchange=per_exchange,
        setup_cost=setup_cost,
        break_even_uses=break_even_point(setup_cost, per_exchange),
        total_cost=ledger.total,
        nl_equivalent_cost=per_exchange * (nl_exchanges + protocol_uses),
        summary=summary,
    )


# ── three-hop chain ─────────────────────────────────────────────────

def chain_config(orders: int = 9, seed: int = 5) -> ScenarioConfig:
    """Repeated food orders through restaurant -> courier -> traffic; after
    warm-up the whole chain answers without model calls."""
    return ScenarioConfig(
        name="chain", seed=seed, n_users=1, total_queries=orders,
        types_per_user=1, task_filter=("food_order",),
    )


# ── reports ──────────────────────────────────────────────────────────

CSV_COLUMNS = ("index", "mode", "cost", "cumulative_cost", "model_invocations", "pd_count")
AVERAGE_WINDOW = 100


def window_average(values: list[float]) -> list[float]:
    """The mean of each value and the ones before it, at most
    ``AVERAGE_WINDOW`` in all."""
    window = min(AVERAGE_WINDOW, len(values)) or 1
    out = []
    running = 0.0
    for i, value in enumerate(values):
        running += value
        if i >= window:
            running -= values[i - window]
        out.append(running / min(i + 1, window))
    return out


def emit_report(result: ScenarioResult, out_dir: str,
                baseline: ScenarioResult | None = None) -> dict[str, str]:
    """Write metrics.csv and summary.txt under *out_dir*; returns the paths.

    With a natural-language baseline, the summary also carries the cost
    ratio between the two runs.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in result.records:
            writer.writerow([r.index, r.mode, f"{r.cost:.8f}",
                             f"{r.cumulative_cost:.8f}", r.model_invocations, r.pd_count])

    averaged = window_average([r.cost for r in result.records])
    lines = [
        f"scenario: {result.config.name}",
        f"mode: {result.config.mode}",
        f"seed: {result.config.seed}",
        f"queries: {len(result.records)}",
        f"failed_queries: {result.failed_queries}",
        f"total_cost_usd: {result.total_cost:.6f}",
        f"model_invocations: {result.model_invocations}",
        f"distinct_pds: {result.final_pd_count}",
    ]
    for activity, total in sorted(result.summary.activity_totals.items()):
        pct = result.summary.activity_percentages[activity]
        lines.append(f"cost[{activity}]: {total:.6f} ({pct:.1f}%)")
    if baseline is not None and result.total_cost > 0:
        lines.append(f"baseline_total_cost_usd: {baseline.total_cost:.6f}")
        lines.append(f"cost_ratio_baseline_over_this: {baseline.total_cost / result.total_cost:.3f}")
    lines.append("window_average_cost: " + " ".join(f"{v:.8f}" for v in averaged))
    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"metrics": csv_path, "summary": summary_path}


# ── scenario files ───────────────────────────────────────────────────

def load_scenario_file(path: str) -> tuple[str, dict]:
    """Read a scenario file: its `kind` (``network`` when absent) and its
    other keys, checked unless the kind is ``network``, whose keys
    ``ScenarioConfig.from_dict`` checks. Raises OSError or ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("scenario file must contain a JSON object")
    kind = raw.pop("kind", "network")
    if kind != "network":
        check_scenario_keys(kind, raw)
    return kind, raw
