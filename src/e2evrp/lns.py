"""Ruin-and-recreate metaheuristic with restarts.

Each iteration picks one of three destroy operators with equal probability
(related-customer removal, whole-route removal, satellite closing), possibly
followed by two independent extra operators (re-open all satellites, dissolve
single-customer routes).  The three-step repair then rebuilds the solution:
greedy reinsertion of pending customers into second-level routes, first-level
reconstruction from the realized satellite demands, and exact charging-stop
insertion per route (penalized when no feasible placement exists).  A local
search polishes every candidate; only strictly better solutions are accepted,
and after ``i_max`` non-improving iterations the search restarts from a fresh
random construction until the time or restart budget runs out.

Battery-penalized solutions may circulate as the current solution (the
penalty is large enough that any feasible solution beats them) but are never
recorded as the global best.

Runs are fully reproducible: every stochastic choice flows through one seeded
generator, and with a restart-bounded budget (``t_max=None``) two runs with
the same seed produce identical solutions and counters.  Under a wall-clock
budget the iteration count where the cutoff lands is inherently
timing-dependent.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from math import inf
from typing import Optional

from .localsearch import local_search
from .model import CostBreakdown, Instance, Solution, check_feasibility
from .model import second_level_capacity, unservable_reason
from .search import SolverContext, WorkingRoute, WorkingSolution, build_first_level


@dataclass(frozen=True)
class LnsParams:
    """Tuning knobs; the defaults are the calibrated values used throughout."""

    p1: int = 11  # related removal, max % of customers
    p2: int = 37  # route removal, % of the fleet lower bound
    p3_hat: int = 12  # % chance to re-open all satellites
    p4_hat: int = 18  # % chance to dissolve single-customer routes
    granularity: int = 25  # neighbor-list size for move generation
    i_max: int = 385  # non-improving iterations before restart
    t_max: Optional[float] = 150.0  # wall-clock budget in seconds
    max_restarts: Optional[int] = None  # deterministic alternative budget
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p3_hat", "p4_hat"):
            v = getattr(self, name)
            if not 0 <= v <= 100:
                raise ValueError(f"{name} must be an integer percentage in [0, 100]")
        if self.granularity < 1:
            raise ValueError("granularity must be >= 1")
        if self.i_max < 1:
            raise ValueError("i_max must be >= 1")
        if self.t_max is None and self.max_restarts is None:
            raise ValueError("set at least one of t_max / max_restarts")
        # refuses NaN too; an infinite budget without a restart budget would
        # never end, and None already means no time limit
        if self.t_max is not None and not 0 < self.t_max < inf:
            raise ValueError(
                f"t_max must be a positive, finite number of seconds (or None), got {self.t_max}"
            )
        if self.max_restarts is not None and self.max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")


@dataclass
class RunStats:
    best_cost: int
    iterations: int
    restarts: int
    construction_failures: int
    best_iteration: int  # iteration at which the returned solution was found
    time_to_best: float  # seconds; wall-clock twin of best_iteration
    total_time: float

    def deterministic_fields(self) -> tuple:
        return (
            self.best_cost,
            self.iterations,
            self.restarts,
            self.construction_failures,
            self.best_iteration,
        )

    def to_json_dict(self) -> dict:
        return {
            **asdict(self),
            "time_to_best": round(self.time_to_best, 3),
            "total_time": round(self.total_time, 3),
        }


class ConstructionError(RuntimeError):
    """No feasible solution could be constructed within the run budget."""


# ---------------------------------------------------------------------------
# destroy operators
# ---------------------------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def destroy_related(
    ctx: SolverContext, sol: WorkingSolution, pending: list[int], rng: random.Random, p1: int
) -> None:
    """Remove a random seed customer plus its ``count - 1`` nearest neighbors.

    ``sol`` routes every customer: destroy runs only on repaired solutions,
    and local search never drops a customer.  The seed is drawn from the
    customers in route order.
    """
    cap = _ceil_div(p1 * len(ctx.inst.customers), 100)
    if cap < 1:
        return
    count = rng.randint(1, cap)
    seed = rng.choice([c for r in sol.routes for c in r.customers])
    _remove_customers(ctx, sol, [seed, *ctx.sorted_neighbors[seed][: count - 1]], pending)


def destroy_routes(
    ctx: SolverContext, sol: WorkingSolution, pending: list[int], rng: random.Random, p2: int
) -> None:
    """Remove whole routes, up to a fraction of the fleet-size lower bound."""
    inst = ctx.inst
    hi = _ceil_div(p2 * inst.total_demand, 100 * inst.q2_capacity)
    r = rng.randint(0, hi)
    if r <= 0 or not sol.routes:
        return
    _drop_routes(sol, pending, rng.sample(range(len(sol.routes)), min(r, len(sol.routes))))


def close_satellite(
    ctx: SolverContext,
    sol: WorkingSolution,
    pending: list[int],
    closed: set[int],
    rng: random.Random,
) -> None:
    """Close one random satellite when the remaining ones can still carry the
    demand (:func:`~e2evrp.model.second_level_capacity`)."""
    inst = ctx.inst
    k = rng.choice(inst.satellite_ids)
    if k in closed:
        return
    rest = [s for s in inst.satellites if s.id != k and s.id not in closed]
    if second_level_capacity(inst, rest) < inst.total_demand:
        return
    closed.add(k)
    _drop_routes(sol, pending, [i for i, route in enumerate(sol.routes) if route.satellite == k])


def open_all_satellites(closed: set[int], rng: random.Random, p3_hat: int) -> None:
    if rng.randrange(100) < p3_hat:
        closed.clear()


def remove_singleton_routes(
    sol: WorkingSolution, pending: list[int], rng: random.Random, p4_hat: int
) -> None:
    if rng.randrange(100) >= p4_hat:
        return
    _drop_routes(sol, pending, [i for i, route in enumerate(sol.routes) if len(route.customers) == 1])


def _drop_routes(sol: WorkingSolution, pending: list[int], indices: list[int]) -> None:
    """Move the routes at ``indices`` to ``pending``, highest index first."""
    for idx in sorted(indices, reverse=True):
        pending.extend(sol.routes[idx].customers)
        del sol.routes[idx]


def _remove_customers(
    ctx: SolverContext, sol: WorkingSolution, targets: list[int], pending: list[int]
) -> None:
    wanted = set(targets)
    demand = ctx.inst.demand
    for route in sol.routes:
        if wanted.isdisjoint(route.customers):
            continue
        kept, removed = [], []
        for c in route.customers:
            (removed if c in wanted else kept).append(c)
        pending.extend(removed)
        route.customers = kept
        route.load -= sum(demand[c] for c in removed)
        route.plan = None
    sol.routes = [r for r in sol.routes if r.customers]


def _destroy(
    ctx: SolverContext,
    sol: WorkingSolution,
    pending: list[int],
    closed: set[int],
    rng: random.Random,
    params: LnsParams,
) -> None:
    op = rng.randrange(3)
    if op == 0:
        destroy_related(ctx, sol, pending, rng, params.p1)
    elif op == 1:
        destroy_routes(ctx, sol, pending, rng, params.p2)
    else:
        close_satellite(ctx, sol, pending, closed, rng)
    open_all_satellites(closed, rng, params.p3_hat)
    remove_singleton_routes(sol, pending, rng, params.p4_hat)


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def _insert_all(
    ctx: SolverContext, sol: WorkingSolution, order: list[int], closed: set[int]
) -> bool:
    """Place each customer at its single cheapest feasible position."""
    inst = ctx.inst
    dist = inst.dist
    q2 = inst.q2_capacity
    f2 = inst.fixed_cost_l2
    sat_dem = sol.sat_demand()
    routes_at = sol.routes_at()
    open_sats = [s for s in inst.satellite_ids if s not in closed]
    for c in order:
        q = inst.demand[c]
        best: Optional[tuple[int, int, int]] = None  # (delta, route idx, pos) / (delta, -1, sat)
        for ri, route in enumerate(sol.routes):
            if route.load + q > q2:
                continue
            k = route.satellite
            cap = inst.satellite_by_id[k].capacity
            if cap is not None and sat_dem.get(k, 0) + q > cap:
                continue
            custs = route.customers
            prev = k
            for pos in range(len(custs) + 1):
                nxt = custs[pos] if pos < len(custs) else k
                delta = dist[prev][c] + dist[c][nxt] - dist[prev][nxt]
                if best is None or delta < best[0]:
                    best = (delta, ri, pos)
                prev = nxt
        if len(sol.routes) < inst.m2_global:
            for k in open_sats:
                sat = inst.satellite_by_id[k]
                if routes_at.get(k, 0) >= sat.m2_local:
                    continue
                if sat.capacity is not None and sat_dem.get(k, 0) + q > sat.capacity:
                    continue
                delta = 2 * dist[k][c] + f2
                if best is None or delta < best[0]:
                    best = (delta, -1, k)
        if best is None:
            return False
        _, ri, where = best
        if ri < 0:
            sol.routes.append(WorkingRoute(where, [c], q))
            routes_at[where] = routes_at.get(where, 0) + 1
            sat_dem[where] = sat_dem.get(where, 0) + q
        else:
            route = sol.routes[ri]
            route.customers.insert(where, c)
            route.load += q
            route.plan = None
            sat_dem[route.satellite] = sat_dem.get(route.satellite, 0) + q
    return True


def repair(
    ctx: SolverContext,
    sol: WorkingSolution,
    pending: list[int],
    closed: set[int],
    rng: random.Random,
) -> Optional[WorkingSolution]:
    """Three-step reconstruction; ``None`` when both insertion orderings fail.

    The input solution is left untouched; the repaired clone is returned.
    """
    shuffled = pending[:]
    rng.shuffle(shuffled)
    for order in (shuffled, _by_demand(ctx, pending)):
        cand = sol.clone()
        if not _insert_all(ctx, cand, order, closed):
            continue
        cand.first_level, cand.l1_distance = build_first_level(ctx.inst, cand.sat_demand())
        cand.ensure_plans(ctx)
        return cand
    return None


def _by_demand(ctx: SolverContext, customers: list[int]) -> list[int]:
    return sorted(customers, key=lambda c: (-ctx.inst.demand[c], c))


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------


def lns_run(inst: Instance, params: LnsParams) -> tuple[Solution, RunStats]:
    """Run the metaheuristic; returns the best feasible solution found.

    Raises :class:`ConstructionError` when no feasible solution could be
    built before the budget ran out, and before the first restart when
    :func:`~e2evrp.model.unservable_reason` refuses the instance.
    """
    start = time.monotonic()
    if not inst.customers:
        empty = Solution((), (), CostBreakdown(0, 0, 0, 0))
        return empty, RunStats(0, 0, 0, 0, -1, 0.0, time.monotonic() - start)
    reason = unservable_reason(inst)
    if reason:
        raise ConstructionError(f"construction failed before any restart: {reason}")

    ctx = SolverContext.build(inst, params.granularity)
    rng = random.Random(params.seed)

    best: Optional[WorkingSolution] = None
    best_obj: float = inf
    best_time = 0.0
    best_iter = -1
    iterations = 0
    restarts = 0
    failures = 0
    constructed = False

    deadline = None if params.t_max is None else start + params.t_max

    def in_budget() -> bool:
        return deadline is None or time.monotonic() < deadline

    while True:
        if restarts > 0:
            if not in_budget():
                break
            if params.max_restarts is not None and restarts >= params.max_restarts:
                break
        restarts += 1
        closed: set[int] = set()
        cur = repair(ctx, WorkingSolution(), list(inst.customer_ids), closed, rng)
        if cur is None:
            failures += 1
            continue
        constructed = True
        local_search(ctx, cur, rng, deadline)
        cur_obj = cur.objective(inst)
        cur_time = time.monotonic() - start
        cur_iter = iterations

        non_improving = 0
        while non_improving < params.i_max and in_budget():
            iterations += 1
            cand = cur.clone()
            pend: list[int] = []
            _destroy(ctx, cand, pend, closed, rng, params)
            repaired = repair(ctx, cand, pend, closed, rng)
            if repaired is None:
                failures += 1
                non_improving += 1
                continue
            local_search(ctx, repaired, rng, deadline)
            obj = repaired.objective(inst)
            if obj < cur_obj:
                cur, cur_obj = repaired, obj
                cur_time = time.monotonic() - start
                cur_iter = iterations
                non_improving = 0
            else:
                non_improving += 1

        if cur.total_excess() == 0 and cur_obj < best_obj:
            best, best_obj = cur, cur_obj
            best_time, best_iter = cur_time, cur_iter

    if not constructed:
        raise ConstructionError(
            f"construction failed in all {restarts} restart(s): second-level insertion "
            "could not place every customer within the vehicle capacity, the satellite "
            "capacities and the second-level fleet"
        )
    if best is None:
        raise ConstructionError(
            f"no battery-feasible solution found in {restarts} restart(s) "
            f"({failures} construction failures); the instance may need a longer "
            "budget or may be infeasible beyond the structural screen"
        )
    solution = best.to_solution(inst)
    violations = check_feasibility(inst, solution)
    if violations:  # pragma: no cover - internal consistency guard
        raise AssertionError(f"solver produced an infeasible solution: {violations}")
    stats = RunStats(
        best_cost=solution.cost.total,
        iterations=iterations,
        restarts=restarts,
        construction_failures=failures,
        best_iteration=best_iter,
        time_to_best=best_time,
        total_time=time.monotonic() - start,
    )
    return solution, stats
