"""Shared fixtures: canonical texts and a wired two-agent world."""

from __future__ import annotations

import errno
import os

import pytest
from hypothesis import settings

from agentmesh import catalog, documents
from agentmesh.gateway import CostLedger, ModelPrice
from agentmesh.registry import RegistryStore
from agentmesh.runtime import Agent, AgentConfig, EscalationThresholds, ToolDescriptor
from agentmesh.scripted import ScriptedBackend
from agentmesh.transport import Network

WEATHER_TEXT = catalog.WEATHER_PD_TEXT
# JSON nested far deeper than the decoder can follow.
DEEP = "[" * 100_000 + "]" * 100_000
FLAT_PRICES = {"gpt-4o": ModelPrice(5.0, 15.0)}

# HYPOTHESIS_PROFILE=long runs every property test without an example count
# of its own on many more examples than tier-1 does.
settings.register_profile("long", max_examples=5_000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def write_fails_halfway(monkeypatch):
    """Files the document store opens take half of the first text written
    to them and then fail, as on a disk that fills up mid-write."""
    def open_failing(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def write_half(text):
            write(text[:len(text) // 2])
            fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        fh.write = write_half
        return fh
    monkeypatch.setattr(documents, "open", open_failing, raising=False)


@pytest.fixture
def weather_task():
    return catalog.CATALOG["weather"]


class World:
    """One network, one ledger, one registry, agents on demand."""

    def __init__(self):
        self.network = Network()
        self.ledger = CostLedger()
        self.registry = RegistryStore("db1", self.network)
        self.network.register("db1", self.registry)
        self.agents: dict[str, Agent] = {}

    def add_agent(self, agent_id: str, tools=(),
                  thresholds: EscalationThresholds | None = None,
                  backend: ScriptedBackend | None = None,
                  registry_url: str | None = "mem://db1", **config_kw) -> Agent:
        config = AgentConfig(
            agent_id=agent_id,
            thresholds=thresholds or EscalationThresholds(),
            tools=tuple(tools),
            known_peers={},
            registry_url=registry_url,
            **config_kw,
        )
        agent = Agent(config, backend or ScriptedBackend(), self.ledger, self.network)
        self.network.register(agent_id, agent)
        for other in self.agents.values():
            other.config.known_peers[agent_id] = f"mem://{agent_id}"
            agent.config.known_peers[other.agent_id] = f"mem://{other.agent_id}"
        self.agents[agent_id] = agent
        return agent

    def add_weather_server(self, agent_id: str = "bob", **kw) -> Agent:
        weather = catalog.CATALOG["weather"]
        return self.add_agent(
            agent_id,
            tools=(ToolDescriptor("weather_db", "database", weather.purpose, "weather"),),
            **kw,
        )


@pytest.fixture
def world():
    return World()
