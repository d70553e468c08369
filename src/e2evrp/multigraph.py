"""Reformulated multigraph: parallel arcs encoding direct or via-one-station legs.

Between every admissible ordered vertex pair (satellite↔customer or
customer→customer) the graph carries one *direct* arc plus one arc per
charging location k reachable within battery range on both half-legs.  A
via-station arc costs the full detour ``d(i,k) + d(k,j)`` but its arrival
consumption is only ``c(k,j)`` because the battery is fully restored at k.

Arcs are plain named tuples.  Every bundle is sorted by
:meth:`MultiArc.sort_key` -- cost, then arrival consumption, then station id
with the direct arc as -1 -- and holds at most one arc per station, so that
order is total.  The build computes once, per satellite and customer, its
*reach map*: the charging locations within battery range of it, with their
distances.  Distances are symmetric, so the via arcs of pair (i, j) are the
entries k of i's reach map that also lie in j's, and no pair × station
distance is queried.

Arc bundles are then thinned by a dominance rule that is sensitive to the
tail type: leaving a satellite the battery is always full, so only (cost,
arrival consumption) matter; leaving a customer the approach leg to the
station also matters, and direct arcs are never compared against via arcs.
Of arcs tied on every compared field the one with the smallest sort key
survives.  The reduction is a sort-and-sweep over each bundle:

* satellite tail: in sort-key order, keep an arc iff its consumption is
  strictly below that of the last arc kept;
* customer tail: keep every direct arc; take the via arcs in
  (cost, consumption, station leg, station) order and keep one iff no arc
  kept before it has both consumption and station leg at most its own.

Survivors are emitted in their original bundle order.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

from .model import Instance, SecondLevelRoute


class MultiArc(NamedTuple):
    tail: int
    head: int
    cost: int
    consumption: int  # arrival consumption at head, scaled units
    station: Optional[int]  # charging location id, None = direct leg
    station_leg: int = 0  # consumption tail -> station (0 for direct arcs)

    def sort_key(self) -> tuple[int, int, int]:
        return (self.cost, self.consumption, -1 if self.station is None else self.station)


class Multigraph:
    """Per ordered pair, the surviving arcs sorted by cost ascending."""

    def __init__(self, inst: Instance, bundles: dict[tuple[int, int], tuple[MultiArc, ...]]):
        self.instance = inst
        self._bundles = bundles
        self._empty: tuple[MultiArc, ...] = ()

    def arcs(self, tail: int, head: int) -> tuple[MultiArc, ...]:
        return self._bundles.get((tail, head), self._empty)

    def pairs(self) -> Iterator[tuple[int, int]]:
        return iter(self._bundles)

    def arc_count(self) -> int:
        return sum(len(b) for b in self._bundles.values())


def build_multigraph(inst: Instance) -> Multigraph:
    """Construct all admissible arcs, pre-filtered by battery range.

    With an unconstrained battery only direct arcs are generated: charging
    stops can never be required, and keeping via arcs would only let the
    integer rounding of detour legs masquerade as shortcuts.
    """
    limit = inst.battery_limit
    sats = inst.satellite_ids
    custs = inst.customer_ids
    scale = inst.consumption_scale[0]
    dist = inst.distance

    pairs: list[tuple[int, int]] = []
    for s in sats:
        for c in custs:
            pairs.append((s, c))
            pairs.append((c, s))
    for a in custs:
        for b in custs:
            if a != b:
                pairs.append((a, b))

    # reach[v]: {k: (d(v,k), c(v,k))} over the charging locations k != v within
    # range; charging at an endpoint adds nothing over the direct arc
    reach: dict[int, dict[int, tuple[int, int]]] = {}
    for v in (*sats, *custs):
        near: dict[int, tuple[int, int]] = {}
        if limit is not None:
            for k in inst.charging_ids:
                d = dist(v, k)
                if k != v and scale * d <= limit:
                    near[k] = (d, scale * d)
        reach[v] = near

    bundles: dict[tuple[int, int], tuple[MultiArc, ...]] = {}
    for i, j in pairs:
        d_ij = dist(i, j)
        c_ij = scale * d_ij
        # (cost, consumption, station or -1, station leg) sorts as sort_key
        rows = [(d_ij, c_ij, -1, 0)] if limit is None or c_ij <= limit else []
        near_j = reach[j]
        for k, (d_ik, c_ik) in reach[i].items():
            kj = near_j.get(k)
            if kj is not None:
                rows.append((d_ik + kj[0], kj[1], k, c_ik))
        if rows:
            rows.sort()
            bundles[i, j] = tuple(
                MultiArc(i, j, cost, cons, None if k < 0 else k, leg)
                for cost, cons, k, leg in rows
            )
    return Multigraph(inst, bundles)


def _sweep_satellite_tail(bundle: Sequence[MultiArc]) -> list[int]:
    """Positions of the survivors in a bundle leaving a satellite."""
    keep = []
    last = None
    for p in sorted(range(len(bundle)), key=lambda p: bundle[p].sort_key()):
        cons = bundle[p].consumption
        if last is None or cons < last:
            keep.append(p)
            last = cons
    return keep


def _sweep_customer_tail(bundle: Sequence[MultiArc]) -> list[int]:
    """Positions of the survivors in a bundle leaving a customer."""
    keep = []
    via = []
    for p, (_, _, cost, cons, station, leg) in enumerate(bundle):
        if station is None:
            keep.append(p)
        else:
            via.append((cost, cons, leg, station, p))
    via.sort()
    front: list[tuple[int, int]] = []  # (consumption, station leg) of kept via arcs
    for _, cons, leg, _, p in via:
        for f_cons, f_leg in front:
            if f_cons <= cons and f_leg <= leg:
                break
        else:
            keep.append(p)
            front.append((cons, leg))
    return keep


def reduce_by_dominance(graph: Multigraph) -> Multigraph:
    """Drop arcs that some parallel arc renders useless in any optimal route."""
    inst = graph.instance
    sat_set = set(inst.satellite_ids)
    reduced: dict[tuple[int, int], tuple[MultiArc, ...]] = {}
    for (i, j) in graph.pairs():
        bundle = graph.arcs(i, j)
        if len(bundle) == 1:
            reduced[i, j] = bundle
            continue
        keep = (_sweep_satellite_tail if i in sat_set else _sweep_customer_tail)(bundle)
        keep.sort()
        reduced[i, j] = tuple([bundle[p] for p in keep])
    return Multigraph(inst, reduced)


def expand_arc_route(inst: Instance, arcs: Sequence[MultiArc]) -> SecondLevelRoute:
    """Map a chained arc route in the multigraph back to an explicit route.

    Via-station arcs expand to (tail, station, head); costs and the battery
    trace are preserved exactly.
    """
    if not arcs:
        raise ValueError("empty arc route")
    sat = arcs[0].tail
    if sat not in inst.satellite_by_id:
        raise ValueError(f"arc route must start at a satellite, got {sat}")
    if arcs[-1].head != sat:
        raise ValueError("arc route must return to its starting satellite")
    visits: list[int] = []
    load = 0
    prev_head = sat
    for idx, arc in enumerate(arcs):
        if arc.tail != prev_head:
            raise ValueError(f"arc {idx} tail {arc.tail} does not chain from {prev_head}")
        if arc.station is not None:
            visits.append(arc.station)
        if idx < len(arcs) - 1:
            visits.append(arc.head)
            load += inst.demand.get(arc.head, 0)
        prev_head = arc.head
    return SecondLevelRoute(sat, tuple(visits), load)
