"""Reformulated multigraph: parallel arcs encoding direct or via-one-station legs.

Between every admissible ordered vertex pair (satellite↔customer or
customer→customer) the graph carries one *direct* arc plus one arc per
charging location k reachable within battery range on both half-legs.  A
via-station arc costs the full detour ``d(i,k) + d(k,j)`` but its arrival
consumption is only ``d(k,j)`` because the battery is fully restored at k.

Each arc is a plain row ``(cost, consumption, station, station_leg)``:
``consumption`` is the distance driven since the last charge, at the head,
``station`` the charging location id or ``None`` for the direct leg, and
``station_leg`` the distance from the tail to the station (0 for the
direct leg).  A graph maps each ordered pair ``(tail, head)`` to a tuple of
such rows, its *bundle*; the charging DP and the ng pricing read the rows
as they are.  Every bundle is sorted by cost, then arrival consumption,
then station id with the direct arc as -1, and holds at most one arc per
station, so that order is total.  The graph computes once, per satellite
and customer, its *reach map*: the charging locations within battery range
of it, with their distances.  Distances are symmetric, so the via arcs of
pair (i, j) are the entries k of i's reach map that also lie in j's, and no
pair × station distance is queried.

Arc bundles are then thinned by one dominance rule whose only tail
sensitivity is the approach leg: leaving a satellite the battery is always
full, so every station leg is read as 0 there; leaving a customer the leg
matters, and direct arcs are never compared against via arcs.  The
reduction is a sort-and-sweep over each bundle: at a customer tail every
direct arc is kept; every other arc is ranked by (cost, consumption, leg,
station), with the direct arc as station -1, and kept iff no arc kept
before it has both consumption and leg at most its own.  With zero legs
this keeps an arc iff its consumption is strictly below that of the last
arc kept.  Of arcs tied on every compared field the one first in the rank
survives.  Survivors are emitted in their original bundle order.

One class, :class:`Multigraph`, serves every use: a memo over a per-pair
row builder.  It builds an admissible pair's bundle (satellite↔customer or
customer→customer) on the first ``arcs`` call for that pair and memoizes
it.  Every other pair (sat→sat, i→i, the depot, stations) reads as ``()``
and is memoized without appearing in ``pairs()``; ``pairs()`` and
``arc_count()`` cover the bundles built so far, in the order they were
built.  The solver and the ``bound`` command read the lazy reduced graph of
:func:`reduced_multigraph`: it computes only the reach maps up front and
reduces each bundle as it builds it, so a bundle the search never reads is
never built.  The benchmark and the tests time and count the two steps
apart, on the eager form of the memo: :func:`build_multigraph` fills every
admissible pair's raw rows in one fixed order -- per satellite s and
customer c, (s, c) then (c, s), then every customer pair -- and
:func:`reduce_by_dominance` fills the reduced graph with every bundle a
graph has built, in its order, and reduces any other pair on its first read.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator, Optional

from .model import Instance

# (cost, consumption, station or None, station leg) -- see the module docstring
Arc = tuple[int, int, Optional[int], int]


class Multigraph:
    """Per ordered pair, the arc rows sorted by cost ascending, built on first read.

    ``rows(tail, head)`` gives an admissible pair's bundle; ``bundles``
    memoizes every pair read so far, an inadmissible one as ``()``, and the
    eager builders below fill it directly.
    """

    def __init__(self, inst: Instance, rows: Callable[[int, int], tuple[Arc, ...]]):
        self.instance = inst
        self.bundles: dict[tuple[int, int], tuple[Arc, ...]] = {}
        self._rows = rows
        custs = frozenset(inst.customer_ids)
        # the heads each tail may have: a satellite's are the customers, a
        # customer's the satellites and the customers
        self._heads = dict.fromkeys(inst.satellite_ids, custs)
        self._heads.update(dict.fromkeys(custs, custs | frozenset(inst.satellite_ids)))

    def arcs(self, tail: int, head: int) -> tuple[Arc, ...]:
        bundle = self.bundles.get((tail, head))
        if bundle is None:
            admissible = tail != head and head in self._heads.get(tail, ())
            bundle = self._rows(tail, head) if admissible else ()
            self.bundles[tail, head] = bundle
        return bundle

    def pairs(self) -> Iterator[tuple[int, int]]:
        return (pair for pair, bundle in self.bundles.items() if bundle)

    def arc_count(self) -> int:
        return sum(len(b) for b in self.bundles.values())


def _pair_builder(inst: Instance) -> Callable[[int, int], tuple[Arc, ...]]:
    """The unreduced bundle of an admissible pair, read off reach maps computed here.

    With an unconstrained battery the reach maps are empty, so only direct
    arcs are generated: charging stops can never be required, and keeping via
    arcs would only let the integer rounding of detour legs masquerade as
    shortcuts.
    """
    limit = inst.battery_capacity
    dist = inst.dist

    # reach[v]: {k: d(v,k)} over the charging locations k != v within range;
    # charging at an endpoint adds nothing over the direct arc
    reach: dict[int, dict[int, int]] = {}
    for v in (*inst.satellite_ids, *inst.customer_ids):
        row = dist[v]
        reach[v] = {
            k: row[k] for k in inst.charging_ids if limit is not None and k != v and row[k] <= limit
        }

    def rows(i: int, j: int) -> tuple[Arc, ...]:
        near_j = reach[j]
        out: list[Arc] = []
        for k, d_ik in reach[i].items():
            d_kj = near_j.get(k)
            if d_kj is not None:
                out.append((d_ik + d_kj, d_kj, k, d_ik))
        out.sort()
        d_ij = dist[i][j]
        if limit is None or d_ij <= limit:
            # the direct arc sorts as station -1: ahead of the via arcs it
            # ties with on (cost, consumption)
            out.insert(bisect_left(out, (d_ij, d_ij)), (d_ij, d_ij, None, 0))
        return tuple(out)

    return rows


def build_multigraph(inst: Instance) -> Multigraph:
    """Every admissible pair's bundle, pre-filtered by battery range, in a fixed order."""
    rows = _pair_builder(inst)
    graph = Multigraph(inst, rows)
    custs = inst.customer_ids
    order = [pair for s in inst.satellite_ids for c in custs for pair in ((s, c), (c, s))]
    order += [(i, j) for i in custs for j in custs if i != j]
    graph.bundles.update({pair: rows(*pair) for pair in order})
    return graph


def reduced_multigraph(inst: Instance) -> Multigraph:
    """The reduced multigraph, each bundle built and reduced on its first read."""
    rows = _pair_builder(inst)
    sats = frozenset(inst.satellite_ids)
    return Multigraph(inst, lambda i, j: _reduce_bundle(rows(i, j), i in sats))


def _reduce_bundle(bundle: tuple[Arc, ...], satellite_tail: bool) -> tuple[Arc, ...]:
    """The bundle's arcs that no parallel arc dominates, in bundle order."""
    if len(bundle) <= 1:
        return bundle
    keep = []
    ranked = []  # (cost, consumption, leg, station, position); the direct arc is station -1
    for p, (cost, cons, station, leg) in enumerate(bundle):
        if station is not None:
            ranked.append((cost, cons, 0 if satellite_tail else leg, station, p))
        elif satellite_tail:
            ranked.append((cost, cons, 0, -1, p))
        else:
            keep.append(p)
    ranked.sort()
    front: list[tuple[int, int]] = []  # (consumption, leg) of the ranked arcs kept
    for _, cons, leg, _, p in ranked:
        for f_cons, f_leg in front:
            if f_cons <= cons and f_leg <= leg:
                break
        else:
            keep.append(p)
            front.append((cons, leg))
    keep.sort()
    return tuple([bundle[p] for p in keep])


def reduce_by_dominance(graph: Multigraph) -> Multigraph:
    """Drop arcs that some parallel arc renders useless in any optimal route.

    The bundles ``graph`` has built are reduced at once, in its order, and
    any other on its first read: the reduction of a forced graph is forced.
    """
    arcs = graph.arcs
    sats = frozenset(graph.instance.satellite_ids)
    reduced = Multigraph(graph.instance, lambda i, j: _reduce_bundle(arcs(i, j), i in sats))
    reduced.bundles.update(
        {pair: _reduce_bundle(bundle, pair[0] in sats) for pair, bundle in graph.bundles.items()}
    )
    return reduced
