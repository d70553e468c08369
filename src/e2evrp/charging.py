"""Optimal insertion of charging stops into a fixed customer sequence.

Given a route ``satellite, c1, ..., cK-1, satellite`` the choice of at most
one charging stop per leg reduces to a shortest path with one resource
(battery consumption) on a small acyclic multigraph whose parallel arcs are
the surviving multigraph arcs of each leg.  One pass propagates labels
``(consumption, key)`` in topological order with componentwise dominance.
Each unit of consumption beyond the battery capacity adds one big-M to the
key and the consumption is capped at the capacity, so
``key = distance + big_m * excess``; legs whose arc bundle is empty ride the
raw direct leg.

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


@dataclass(frozen=True)
class InsertionResult:
    """Outcome of a charging-insertion run.

    ``stations`` holds ``(leg, charging location id)`` pairs where leg ``l``
    joins sequence position ``l-1`` to ``l`` (position 0 and K being the
    satellite).  ``excess`` is the total battery overrun in scaled units and
    ``penalty`` its big-M cost equivalent; both are 0 for feasible results.
    """

    feasible: bool
    cost: int
    stations: tuple[tuple[int, int], ...]
    excess: int
    penalty: int


_EMPTY = InsertionResult(True, 0, (), 0, 0)


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
    seq = (satellite, *customers, satellite)
    # label: (w, key, parent index, station or None) with key = distance +
    # big_m * excess; layers kept mutually nondominated in (w, key).  Exact
    # ties keep the first-inserted label (arc order is deterministic).
    layers: list[list[tuple]] = [[(0, 0, -1, None)]]
    for leg in range(1, len(seq)):
        i, j = seq[leg - 1], seq[leg]
        options = graph.arcs(i, j)
        if not options:
            # no admissible arc at all: ride the raw direct leg and pay for it
            options = ((inst.distance(i, j), inst.consumption(i, j), None, 0),)
        nxt: list[tuple] = []
        for li, (w, key, _, _) in enumerate(layers[-1]):
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
                nxt.append((w2, key2, li, station))
        layers.append(nxt)

    best = min(layers[-1], key=lambda l: (l[1], l[0]))
    stations: list[tuple[int, int]] = []
    label = best
    for leg in range(len(seq) - 1, 0, -1):
        if label[3] is not None:
            stations.append((leg, label[3]))
        label = layers[leg - 1][label[2]]
    stations.reverse()
    excess, cost = divmod(best[1], m)
    return InsertionResult(
        feasible=excess == 0,
        cost=cost,
        stations=tuple(stations),
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
