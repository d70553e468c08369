"""Optimal insertion of charging stops into a fixed customer sequence.

Given a route ``satellite, c1, ..., cK-1, satellite`` the choice of at most
one charging stop per leg reduces to a shortest path with one resource
(battery consumption) on a small acyclic multigraph whose parallel arcs are
the surviving multigraph arcs of each leg.  Labels ``(consumption, cost)``
are propagated in topological order with componentwise dominance, which is
exact because both resources only accumulate.

Two variants share the propagation engine:

* the hard variant discards any label whose consumption would exceed the
  battery capacity and reports infeasibility when no label survives;
* the penalized variant converts each unit of excess consumption into a
  penalty of one big-M, then caps the consumption at the capacity, so the
  total penalty counts exactly the consumption that could not be covered.
  Legs whose arc bundle is empty fall back to the raw direct leg.

The big-M exceeds any achievable route distance, so minimizing
``distance + penalty`` is lexicographic: least excess first, then distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .model import Instance
from .multigraph import Multigraph


@dataclass(frozen=True)
class InsertionResult:
    """Outcome of a charging-insertion run.

    ``stations`` holds ``(leg, charging location id)`` pairs where leg ``l``
    joins sequence position ``l-1`` to ``l`` (position 0 and K being the
    satellite).  ``excess`` is the total battery overrun in scaled units and
    ``penalty`` its big-M cost equivalent; both are 0 for feasible results.
    """

    feasible: bool
    cost: Optional[int]
    stations: tuple[tuple[int, int], ...]
    excess: int
    penalty: int


_EMPTY = InsertionResult(True, 0, (), 0, 0)


def _propagate(
    inst: Instance,
    graph: Multigraph,
    satellite: int,
    customers: Sequence[int],
    penalized: bool,
) -> Optional[InsertionResult]:
    limit = inst.battery_limit
    seq = (satellite, *customers, satellite)
    # label: (w, dist, excess, parent index, station or None); layers kept
    # mutually nondominated componentwise in (w, dist, excess) -- the objective
    # is monotone in each, so a dominated label can never complete better.
    # Exact ties keep the first-inserted label (arc order is deterministic).
    layers: list[list[tuple]] = [[(0, 0, 0, -1, None)]]
    for leg in range(1, len(seq)):
        i, j = seq[leg - 1], seq[leg]
        options = graph.arcs(i, j)
        if not options:
            if not penalized:
                return None
            # no admissible arc at all: ride the raw direct leg and pay for it
            options = ((inst.distance(i, j), inst.consumption(i, j), None, 0),)
        prev = layers[-1]
        nxt: list[tuple] = []
        for li, (w, dist, exc, _, _) in enumerate(prev):
            for cost, cons, station, station_leg in options:
                if station is None:
                    w2 = w + cons
                    exc2 = exc
                    if limit is not None and w2 > limit:
                        if not penalized:
                            continue
                        exc2 = exc + (w2 - limit)
                        w2 = limit
                else:
                    entry = w + station_leg
                    exc2 = exc
                    if limit is not None and entry > limit:
                        if not penalized:
                            continue
                        exc2 = exc + (entry - limit)
                    w2 = cons
                d2 = dist + cost
                dominated = False
                for l in nxt:
                    if l[0] <= w2 and l[1] <= d2 and l[2] <= exc2:
                        dominated = True
                        break
                if dominated:
                    continue
                nxt[:] = [
                    l for l in nxt if not (w2 <= l[0] and d2 <= l[1] and exc2 <= l[2])
                ]
                nxt.append((w2, d2, exc2, li, station))
        if not nxt:
            return None
        layers.append(nxt)

    m = inst.big_m
    best = min(layers[-1], key=lambda l: (l[1] + l[2] * m, l[0]))
    stations: list[tuple[int, int]] = []
    label = best
    for leg in range(len(seq) - 1, 0, -1):
        if label[4] is not None:
            stations.append((leg, label[4]))
        label = layers[leg - 1][label[3]]
    stations.reverse()
    excess = best[2]
    return InsertionResult(
        feasible=excess == 0,
        cost=best[1],
        stations=tuple(stations),
        excess=excess,
        penalty=excess * m,
    )


def optimal_insertion(
    inst: Instance, graph: Multigraph, satellite: int, customers: Sequence[int]
) -> InsertionResult:
    """Least-cost feasible placement of at most one charging stop per leg.

    Returns ``feasible=False`` (cost ``None``) when no placement keeps the
    battery trace within capacity.
    """
    if not customers:
        return _EMPTY
    res = _propagate(inst, graph, satellite, customers, penalized=False)
    if res is None:
        return InsertionResult(False, None, (), 0, 0)
    return res


def penalized_insertion(
    inst: Instance, graph: Multigraph, satellite: int, customers: Sequence[int]
) -> InsertionResult:
    """Soft-constrained variant: always returns a route, charging excess at big-M."""
    if not customers:
        return _EMPTY
    res = _propagate(inst, graph, satellite, customers, penalized=True)
    assert res is not None  # penalized propagation cannot dead-end
    return res


def best_insertion(
    inst: Instance, graph: Multigraph, satellite: int, customers: Sequence[int]
) -> InsertionResult:
    """Hard DP first, penalized rerun only when no feasible placement exists."""
    res = optimal_insertion(inst, graph, satellite, customers)
    if res.feasible:
        return res
    return penalized_insertion(inst, graph, satellite, customers)


def insertion_lower_bound(
    inst: Instance, graph: Multigraph, satellite: int, customers: Sequence[int]
) -> int:
    """A lower bound on ``cost + penalty`` of :func:`best_insertion`, without the DP.

    Every plan, hard or penalized, pays one row of each leg's bundle, or the
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
        bundle = arcs(prev, v)
        total += bundle[0][0] if bundle else inst.distance(prev, v)
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
