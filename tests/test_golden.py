"""Golden signatures: short network_100-shaped runs whose signature digest
and total cost are pinned, so that a change meant only for speed cannot
change behaviour without failing here."""

import hashlib

import pytest

from agentmesh.simulator import MODE_AGORA, MODE_NL_ONLY, ScenarioConfig, run_scenario

# The network_100 topology (configs/network_100.json) at its seed.
NETWORK_100 = dict(seed=7, n_users=85, server_replicas=5, types_per_user=3, share_period=10)

GOLDEN = [
    (MODE_AGORA, 1000,
     "7192955908b65635971d295e026aa2ff7400bf90721e9667b01d917e779f0d97", 0.8717734999999991),
    (MODE_NL_ONLY, 300,
     "54d111de4e5d0cd579ab673396826a488c9ce265224fe945e25c72d600bb90f8", 3.889412499999979),
]


@pytest.mark.parametrize("mode, queries, digest, total_cost", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_signature_and_total_cost_are_pinned(mode, queries, digest, total_cost):
    result = run_scenario(ScenarioConfig(name="golden", mode=mode, total_queries=queries,
                                         **NETWORK_100))
    assert len(result.records) == queries
    assert hashlib.sha256(repr(result.signature()).encode("utf-8")).hexdigest() == digest
    assert result.total_cost == total_cost
    assert result.records[-1].cumulative_cost == total_cost
