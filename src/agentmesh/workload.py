"""Seeded heavy-tailed workload generation.

Each user draws a query budget from a Pareto distribution (shape 0.5),
adapted so everyone gets at least one query and rescaled to the scenario's
total query cap. A budget is then split across three randomly chosen task
types with Pareto(1) weights and a minimum of one query per type (fewer
types when the budget is below three). The resulting tasks are
interleaved by a seeded shuffle, so a (spec, seed) pair fully determines
the task list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import catalog

BUDGET_PARETO_SHAPE = 0.5
SPLIT_PARETO_SHAPE = 1.0
MIN_QUERIES_PER_USER = 1


@dataclass(frozen=True)
class WorkloadSpec:
    seed: int = 0
    n_users: int = 17
    total_query_cap: int = 200
    types_per_user: int = 3
    task_types: tuple[str, ...] = ()   # empty: every user-facing catalog type

    def __post_init__(self):
        if self.total_query_cap < self.n_users:
            raise ValueError("total_query_cap must cover at least one query per user")


@dataclass(frozen=True, slots=True)
class QueryTask:
    user_id: str
    target_server_id: str
    task_type: str
    payload: dict


def user_id(index: int) -> str:
    """The id of the *index*-th user, counting from 0: user-01, user-02, ..."""
    return f"user-{index + 1:02d}"


def pareto_sample(rng: random.Random, shape: float, minimum: float = 1.0) -> float:
    """Inverse-CDF Pareto draw with the given shape and minimum."""
    return minimum * (1.0 - rng.random()) ** (-1.0 / shape)


def _rebalance(counts: list[int], target: int, minimum: int = 1) -> list[int]:
    """Nudge counts (each >= minimum) until they sum to target; deterministic."""
    counts = list(counts)
    while sum(counts) > target:
        idx = max(range(len(counts)), key=lambda i: (counts[i], -i))
        if counts[idx] <= minimum:
            break
        counts[idx] -= 1
    while sum(counts) < target:
        idx = max(range(len(counts)), key=lambda i: (counts[i], -i))
        counts[idx] += 1
    return counts


def draw_budgets(rng: random.Random, spec: WorkloadSpec) -> list[int]:
    """Per-user query budgets: Pareto draws, floored at one query each, then
    rescaled to the total cap."""
    raw = [max(MIN_QUERIES_PER_USER, math.floor(pareto_sample(rng, BUDGET_PARETO_SHAPE)))
           for _ in range(spec.n_users)]
    factor = spec.total_query_cap / sum(raw)
    scaled = [max(MIN_QUERIES_PER_USER, math.floor(b * factor)) for b in raw]
    return _rebalance(scaled, spec.total_query_cap, MIN_QUERIES_PER_USER)


def split_budget(rng: random.Random, budget: int, pool: list[str],
                 spec: WorkloadSpec) -> list[tuple[str, int]]:
    """Split one budget across randomly chosen task types; at least one query
    per type unless the budget is smaller than the type count."""
    k = min(spec.types_per_user, len(pool), budget)
    chosen = rng.sample(pool, k)
    if budget <= k:
        return [(t, 1) for t in chosen[:budget]]
    weights = [pareto_sample(rng, SPLIT_PARETO_SHAPE) for _ in chosen]
    total_w = sum(weights)
    counts = [max(1, math.floor(budget * w / total_w)) for w in weights]
    counts = _rebalance(counts, budget)
    return list(zip(chosen, counts))


def user_facing_types() -> tuple[str, ...]:
    """Task types users query directly; courier dispatch is server-internal."""
    return tuple(name for name in catalog.CATALOG if name != "delivery")


def generate_workload(spec: WorkloadSpec,
                      servers_by_type: dict[str, list[str]]) -> list[QueryTask]:
    """Deterministically expand a spec into an interleaved task list."""
    rng = random.Random(spec.seed)
    pool = sorted(spec.task_types or user_facing_types())
    for task_type in pool:
        if task_type not in catalog.CATALOG:
            raise ValueError(f"unknown task type: {task_type}")
        if not servers_by_type.get(task_type):
            raise ValueError(f"no server hosts task type: {task_type}")

    tasks: list[QueryTask] = []
    budgets = draw_budgets(rng, spec)
    for user_index, budget in enumerate(budgets):
        user = user_id(user_index)
        for task_type, count in split_budget(rng, budget, pool, spec):
            task = catalog.CATALOG[task_type]
            target = rng.choice(sorted(servers_by_type[task_type]))
            for _ in range(count):
                tasks.append(QueryTask(
                    user_id=user,
                    target_server_id=target,
                    task_type=task_type,
                    payload=task.make_payload(rng),
                ))
    rng.shuffle(tasks)
    return tasks
