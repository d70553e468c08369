"""Optimal insertion of charging stops into a fixed customer sequence.

Given a route ``satellite, c1, ..., cK-1, satellite`` the choice of at most
one charging stop per leg reduces to a shortest path with one resource
(battery consumption) on a small acyclic multigraph whose parallel arcs are
the surviving multigraph arcs of each leg.  One pass walks the legs in
order and keeps one list of labels ``(consumption, key, stops)``, those of
the current leg, mutually nondominated in consumption and key; ``stops``
holds the ``(leg, station)`` pairs the label took, so the best label at the
end is the placement and nothing is traced back.  Each unit of consumption
beyond the battery capacity adds one big-M to the key and the consumption
is capped at the capacity, so ``key = distance + big_m * excess``.  A leg
with no admissible arc rides its raw direct leg and pays for any overrun;
the lower bound reads such a leg the same way.

The big-M exceeds any achievable route distance, so comparing keys compares
``(excess, distance)`` lexicographically.  Future excess only grows with
consumption and the big-M outweighs any difference in distance, so a label
no better in consumption and key can never complete better and pruning it
is exact.  An over-limit label never prunes one within the limit, so a
feasible placement, when one exists, is found as a battery-hard DP would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import Instance
from .multigraph import Multigraph


@dataclass(frozen=True, eq=False)
class InsertionResult:
    """Outcome of a charging-insertion run.

    ``stations`` holds ``(leg, charging location id)`` pairs where leg ``l``
    joins sequence position ``l-1`` to ``l`` (position 0 and K being the
    satellite).  ``excess`` is the total battery overrun in scaled units and
    ``penalty`` its big-M cost equivalent; both are 0 for feasible results.

    A plan compares and hashes by identity.  The plan cache gives each route
    content its own plan object, so local search uses a route's plan as the
    route's name in its memo tags; two different routes can have plans that
    are equal field for field, and those must not compare equal.
    """

    feasible: bool
    cost: int
    stations: tuple[tuple[int, int], ...]
    excess: int
    penalty: int


_EMPTY = InsertionResult(True, 0, (), 0, 0)


def _raw_leg(inst: Instance, i: int, j: int) -> tuple[tuple, ...]:
    """The one row of a leg with no admissible arc: the raw direct leg."""
    return ((inst.distance(i, j), inst.consumption(i, j), None, 0),)


def best_insertion(
    inst: Instance, graph: Multigraph, satellite: int, customers: Sequence[int]
) -> InsertionResult:
    """Least-cost placement of at most one charging stop per leg.

    Feasible whenever some placement keeps the battery trace within capacity;
    otherwise the placement of least excess, then least distance.
    """
    if not customers:
        return _EMPTY
    limit = inst.battery_limit
    m = inst.big_m
    # labels mutually nondominated in (w, key); exact ties keep the
    # first-inserted label (arc order is deterministic)
    labels: list[tuple] = [(0, 0, ())]
    prev = satellite
    for leg, v in enumerate((*customers, satellite), 1):
        options = graph.arcs(prev, v) or _raw_leg(inst, prev, v)
        nxt: list[tuple] = []
        for w, key, stops in labels:
            for cost, cons, station, station_leg in options:
                key2 = key + cost
                if station is None:
                    w2 = w + cons
                    if limit is not None and w2 > limit:
                        key2 += (w2 - limit) * m
                        w2 = limit
                else:
                    entry = w + station_leg
                    if limit is not None and entry > limit:
                        key2 += (entry - limit) * m
                    w2 = cons
                dominated = False
                for l in nxt:
                    if l[0] <= w2 and l[1] <= key2:
                        dominated = True
                        break
                if dominated:
                    continue
                nxt[:] = [l for l in nxt if not (w2 <= l[0] and key2 <= l[1])]
                nxt.append((w2, key2, stops if station is None else (*stops, (leg, station))))
        labels = nxt
        prev = v

    best = min(labels, key=lambda l: (l[1], l[0]))
    excess, cost = divmod(best[1], m)
    return InsertionResult(
        feasible=excess == 0,
        cost=cost,
        stations=best[2],
        excess=excess,
        penalty=excess * m,
    )


def insertion_lower_bound(
    inst: Instance, graph: Multigraph, satellite: int, customers: Sequence[int]
) -> int:
    """A lower bound on ``cost + penalty`` of :func:`best_insertion`, without the DP.

    Every plan, feasible or not, pays one row of each leg's bundle, or the
    raw leg where the bundle is empty, and its penalty is never negative; so
    the cheapest row of each leg (bundles are sorted by cost) bounds it from
    below.  With an unconstrained battery the bound is the plan's cost.
    """
    if not customers:
        return 0
    arcs = graph.arcs
    total = 0
    prev = satellite
    for v in (*customers, satellite):
        total += (arcs(prev, v) or _raw_leg(inst, prev, v))[0][0]
        prev = v
    return total


def visits_with_stations(
    customers: Sequence[int], stations: Sequence[tuple[int, int]]
) -> tuple[int, ...]:
    """Interleave charging stops into the customer sequence of a route."""
    by_leg = dict(stations)
    out: list[int] = []
    for leg in range(1, len(customers) + 2):
        if leg in by_leg:
            out.append(by_leg[leg])
        if leg <= len(customers):
            out.append(customers[leg - 1])
    return tuple(out)
