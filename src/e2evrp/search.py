"""Shared solver state: working solutions, context, first-level reconstruction.

The metaheuristic and the local search operate on a mutable working
representation; the immutable :class:`~e2evrp.model.Solution` is only
materialized for the best solutions handed back to callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .charging import InsertionResult, best_insertion, visits_with_stations
from .model import (
    DEPOT_ID,
    CostBreakdown,
    FirstLevelRoute,
    Instance,
    SecondLevelRoute,
    Solution,
    evaluate_cost,
)
from .multigraph import Multigraph, reduced_multigraph

# plans the per-run plan cache may hold before it is emptied wholesale.  At
# about 620 bytes a plan the limit is about 300 MB.  A 150 s solve at 200
# customers cached 366k plans, so at default budgets the clear does not fire.
CACHE_LIMIT = 500_000


def build_neighbor_lists(inst: Instance, gamma: int) -> dict[int, tuple[int, ...]]:
    """For each customer its gamma closest customers, nearest first.

    This is the one ranking of customers by distance: it gives the granular
    move lists of local search, the peers that ``lns.destroy_related``
    removes with a seed customer, and the ng memories of
    :meth:`~e2evrp.ngpricing.NgSets.build`.  Distance ties break on id so
    the lists are reproducible.
    """
    ids = inst.customer_ids
    out: dict[int, tuple[int, ...]] = {}
    for i in ids:
        row = inst.dist[i]
        ranked = sorted((row[j], j) for j in ids if j != i)
        out[i] = tuple(j for _, j in ranked[:gamma])
    return out


@dataclass
class SolverContext:
    """Per-run data shared by destroy, repair and local search.

    The instance and the neighbour lists stay fixed for the run.  The graph
    builds each arc bundle on its first read, and the two memos below fill
    in as the search runs; both are pure functions of the instance, so they
    save work without changing any result.
    """

    inst: Instance
    graph: Multigraph
    sorted_neighbors: dict[int, tuple[int, ...]]  # all peers by distance
    granular: dict[int, tuple[int, ...]]  # first gamma of the above
    granular_set: dict[int, frozenset]  # same, for membership tests
    plan_cache: dict = field(default_factory=dict)
    # local search's memo of failed move evaluations, tagged with the plans
    # of the routes they ran on; the relocate handler also reads the entries
    # of i's pairs with j's neighbours; see ``localsearch``
    failed_moves: dict = field(default_factory=dict)

    @classmethod
    def build(cls, inst: Instance, gamma: int) -> "SolverContext":
        graph = reduced_multigraph(inst)
        full = build_neighbor_lists(inst, max(0, len(inst.customers) - 1))
        granular = {c: nbs[:gamma] for c, nbs in full.items()}
        gset = {c: frozenset(nbs) for c, nbs in granular.items()}
        return cls(inst, graph, full, granular, gset)

    def plan(self, satellite: int, customers: tuple[int, ...]) -> InsertionResult:
        """Charging plan for a fixed sequence, memoized (it is a pure function)."""
        key = (satellite, customers)
        hit = self.plan_cache.get(key)
        if hit is None:
            hit = best_insertion(self.inst, self.graph, satellite, customers)
            if len(self.plan_cache) > CACHE_LIMIT:
                self.plan_cache.clear()
            self.plan_cache[key] = hit
        return hit


class WorkingRoute:
    """One second-level route under construction: customer order plus the
    cached charging plan for exactly that order (``plan is None`` = stale).

    ``view`` is local search's arrays of the route, built from ``plan`` and
    current while ``view[0] is plan`` (``localsearch._route_view``); clones
    share it.
    """

    __slots__ = ("satellite", "customers", "load", "plan", "view")

    def __init__(
        self,
        satellite: int,
        customers: list[int],
        load: int,
        plan: Optional[InsertionResult] = None,
    ):
        self.satellite = satellite
        self.customers = customers
        self.load = load
        self.plan = plan
        self.view: Optional[tuple] = None

    def clone(self) -> "WorkingRoute":
        copy = WorkingRoute(self.satellite, self.customers[:], self.load, self.plan)
        copy.view = self.view
        return copy


class WorkingSolution:
    __slots__ = ("routes", "first_level", "l1_distance")

    def __init__(
        self,
        routes: Optional[list[WorkingRoute]] = None,
        first_level: Optional[list[FirstLevelRoute]] = None,
        l1_distance: int = 0,
    ):
        self.routes = routes if routes is not None else []
        self.first_level = first_level if first_level is not None else []
        self.l1_distance = l1_distance

    def clone(self) -> "WorkingSolution":
        return WorkingSolution(
            [r.clone() for r in self.routes], list(self.first_level), self.l1_distance
        )

    def sat_demand(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.routes:
            out[r.satellite] = out.get(r.satellite, 0) + r.load
        return out

    def routes_at(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.routes:
            out[r.satellite] = out.get(r.satellite, 0) + 1
        return out

    def total_excess(self) -> int:
        return sum(r.plan.excess for r in self.routes)

    def objective(self, inst: Instance) -> int:
        """Total cost including battery penalties; requires complete plans."""
        l2 = sum(r.plan.cost + r.plan.penalty for r in self.routes)
        fixed = inst.fixed_cost_l1 * len(self.first_level) + inst.fixed_cost_l2 * len(
            self.routes
        )
        return self.l1_distance + l2 + fixed

    def ensure_plans(self, ctx: SolverContext) -> None:
        for r in self.routes:
            if r.plan is None:
                r.plan = ctx.plan(r.satellite, tuple(r.customers))

    def to_solution(self, inst: Instance) -> Solution:
        routes = tuple(
            SecondLevelRoute(
                r.satellite, visits_with_stations(r.customers, r.plan.stations), r.load
            )
            for r in self.routes
        )
        first = tuple(self.first_level)
        shell = Solution(first, routes, CostBreakdown(0, 0, 0, 0))
        return Solution(first, routes, evaluate_cost(inst, shell))


def _cheapest_stop(
    dist: dict[int, dict[int, int]], routes: list, loads: list[int], most: int, k: int
) -> Optional[tuple[int, int, int]]:
    """(added distance, truck, position) of the cheapest place for a stop at
    satellite ``k`` in a truck loaded at most ``most``; ``None`` if no truck is."""
    best: Optional[tuple[int, int, int]] = None
    for ri, stops in enumerate(routes):
        if loads[ri] > most:
            continue
        seq = [DEPOT_ID, *(s for s, _ in stops), DEPOT_ID]
        for pos in range(len(stops) + 1):
            delta = dist[seq[pos]][k] + dist[k][seq[pos + 1]] - dist[seq[pos]][seq[pos + 1]]
            if best is None or delta < best[0]:
                best = (delta, ri, pos)
    return best


def build_first_level(
    inst: Instance, demands: dict[int, int]
) -> tuple[list[FirstLevelRoute], int]:
    """Reconstruct the first level from scratch for given satellite demands.

    Satellites needing more than a truckload first get dedicated full
    round trips; the residual quantities are then placed by cheapest
    insertion, in satellite-id order.  Deliveries may be split: where every
    truck is out and none has room for a residual, its cheapest truck with
    room takes what fits and the rest is placed again.  A vector whose total
    fits ``m1`` loads of Q1 therefore always gets at most ``m1`` trucks
    (:func:`~e2evrp.model.unservable_reason` refuses instances where it
    cannot); on a larger total this raises ``ValueError``.  Returns the
    routes and their distance.
    """
    q1 = inst.q1_capacity
    carried = sum(demands.values())
    if carried > inst.m1_fleet * q1:
        raise ValueError(f"demands of {carried} exceed {inst.m1_fleet} first-level load(s) of {q1}")
    routes: list[list[tuple[int, int]]] = []
    loads: list[int] = []
    residual: dict[int, int] = {}
    for k in sorted(demands):
        d = demands[k]
        if d <= 0:
            continue
        while d > q1:
            routes.append([(k, q1)])
            loads.append(q1)
            d -= q1
        residual[k] = d

    dist = inst.dist
    for k in sorted(residual):
        q = residual[k]
        while q:
            best = _cheapest_stop(dist, routes, loads, q1 - q, k)
            if len(routes) < inst.m1_fleet:
                open_delta = 2 * dist[DEPOT_ID][k] + inst.fixed_cost_l1
                if best is None or open_delta < best[0]:
                    best = (open_delta, -1, 0)
                    routes.append([])
                    loads.append(0)
            if best is None:  # every truck is out and none has room for q: split it
                best = _cheapest_stop(dist, routes, loads, q1 - 1, k)
            _, ri, pos = best
            part = min(q, q1 - loads[ri])
            routes[ri].insert(pos, (k, part))
            loads[ri] += part
            q -= part

    total = 0
    for stops in routes:
        prev = DEPOT_ID
        for s, _ in stops:
            total += dist[prev][s]
            prev = s
        total += dist[prev][DEPOT_ID]
    return [FirstLevelRoute(tuple(stops)) for stops in routes], total
