"""The benchmark's workloads: fixed scenario configs.

The scenario seeds are constants, not derived from ``--seed``: every run of a
workload must replay the same queries, so that its signature digest can be
compared across runs and the query mix recorded in the README holds.
"""

# network_100 topology: 85 users, 5 replicas of the 3 server kinds (15
# servers), 3 registries.
_NETWORK_100 = {"n_users": 85, "server_replicas": 5, "types_per_user": 3, "share_period": 10}
# desk topology: 17 users, 3 servers, 3 registries.
_DESK = {"n_users": 17, "server_replicas": 1, "types_per_user": 3, "share_period": 10}

WORKLOADS = {
    # Steady-state Agora: most queries take the routine path on both sides.
    "agora-net": {"name": "agora-net", "seed": 7, "mode": "agora",
                  "total_queries": 8000, **_NETWORK_100},
    # Every query goes through scripted completions and the cost ledger. Not
    # in BENCHMARK.json: run it by name (see README.md, "Workloads").
    "nl-only-net": {"name": "nl-only-net", "seed": 7, "mode": "natural_language_only",
                    "total_queries": 2000, **_NETWORK_100},
    # 23 HostServers on loopback: the HTTP client, server and teardown.
    "http-desk": {"name": "http-desk", "seed": 13, "mode": "agora", "transport": "http",
                  "total_queries": 1000, **_DESK},
}
