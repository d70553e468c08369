"""Reformulated multigraph: parallel arcs encoding direct or via-one-station legs.

Between every admissible ordered vertex pair (satellite↔customer or
customer→customer) the graph carries one *direct* arc plus one arc per
charging location k reachable within battery range on both half-legs.  A
via-station arc costs the full detour ``d(i,k) + d(k,j)`` but its arrival
consumption is only ``c(k,j)`` because the battery is fully restored at k.

Each arc is a plain row ``(cost, consumption, station, station_leg)``:
``consumption`` is the arrival consumption at the head in scaled units,
``station`` the charging location id or ``None`` for the direct leg, and
``station_leg`` the consumption from the tail to the station (0 for the
direct leg).  A graph maps each ordered pair ``(tail, head)`` to a tuple of
such rows, its *bundle*; the charging DP and the ng pricing read the rows
as they are.  Every bundle is sorted by cost, then arrival consumption,
then station id with the direct arc as -1, and holds at most one arc per
station, so that order is total.  The graph computes once, per satellite
and customer, its *reach map*: the charging locations within battery range
of it, with their distances.  Distances are symmetric, so the via arcs of
pair (i, j) are the entries k of i's reach map that also lie in j's, and no
pair × station distance is queried.

Arc bundles are then thinned by a dominance rule that is sensitive to the
tail type: leaving a satellite the battery is always full, so only (cost,
arrival consumption) matter; leaving a customer the approach leg to the
station also matters, and direct arcs are never compared against via arcs.
Of arcs tied on every compared field the one first in the sort order above
survives.  The reduction is a sort-and-sweep over each bundle:

* satellite tail: in that sort order, keep an arc iff its consumption is
  strictly below that of the last arc kept;
* customer tail: keep every direct arc; take the via arcs in
  (cost, consumption, station leg, station) order and keep one iff no arc
  kept before it has both consumption and station leg at most its own.

Survivors are emitted in their original bundle order.

One class, :class:`Multigraph`, serves every use.  It is given a per-pair
row builder; it builds an admissible pair's bundle (satellite↔customer or
customer→customer) on the first ``arcs`` call for that pair and memoizes
it.  Every other pair (sat→sat, i→i, the depot, stations) reads as ``()``
and is memoized without appearing in ``pairs()``; ``pairs()`` and
``arc_count()`` cover the bundles built so far, in the order they were
built.  The solver and the ``bound`` command read the lazy reduced graph of
:func:`reduced_multigraph`: it computes only the reach maps up front and
reduces each bundle as it builds it, so a bundle the search never reads is
never built.  The benchmark and the tests time and count the two steps
apart, on eager graphs: :func:`build_multigraph` forces every admissible
pair's raw rows in one fixed order -- per satellite s and customer c,
(s, c) then (c, s), then every customer pair -- and
:func:`reduce_by_dominance` reduces every bundle a graph has built, in its
order, so the reduction of a forced graph is forced too.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .model import Instance

# (cost, consumption, station or None, station leg) -- see the module docstring
Arc = tuple[int, int, Optional[int], int]


class Multigraph:
    """Per ordered pair, the arc rows sorted by cost ascending, built on first read.

    ``rows(tail, head)`` gives an admissible pair's bundle; ``bundles``
    memoizes every pair read so far, an inadmissible one as ``()``.
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

    def _admissible(self, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        """The pairs that carry arcs, satellite↔customer or customer→customer."""
        heads = self._heads
        return [p for p in pairs if p[0] != p[1] and p[1] in heads.get(p[0], ())]

    def arcs(self, tail: int, head: int) -> tuple[Arc, ...]:
        bundle = self.bundles.get((tail, head))
        if bundle is None:
            bundle = self._rows(tail, head) if self._admissible([(tail, head)]) else ()
            self.bundles[tail, head] = bundle
        return bundle

    def pairs(self) -> Iterator[tuple[int, int]]:
        return (pair for pair, bundle in self.bundles.items() if bundle)

    def arc_count(self) -> int:
        return sum(len(b) for b in self.bundles.values())

    def force(self) -> "Multigraph":
        """Build every admissible bundle and return the graph.

        The order is fixed: per satellite s and customer c, (s, c) then
        (c, s), then every customer pair.
        """
        custs = self.instance.customer_ids
        order = []
        for s in self.instance.satellite_ids:
            for c in custs:
                order += (s, c), (c, s)
        order += product(custs, custs)
        return self._build(order)

    def _build(self, pairs: Iterable[tuple[int, int]]) -> "Multigraph":
        """Build the bundles of the admissible ones among ``pairs``, in order."""
        rows = self._rows
        self.bundles.update({pair: rows(*pair) for pair in self._admissible(pairs)})
        return self


def _pair_builder(inst: Instance) -> Callable[[int, int], tuple[Arc, ...]]:
    """The unreduced bundle of an admissible pair, read off reach maps computed here.

    With an unconstrained battery the reach maps are empty, so only direct
    arcs are generated: charging stops can never be required, and keeping via
    arcs would only let the integer rounding of detour legs masquerade as
    shortcuts.
    """
    limit = inst.battery_limit
    scale = inst.consumption_scale[0]
    dist = inst._dist  # the table itself: the checked accessor costs a call per lookup

    # reach[v]: {k: (d(v,k), c(v,k))} over the charging locations k != v within
    # range; charging at an endpoint adds nothing over the direct arc
    reach: dict[int, dict[int, tuple[int, int]]] = {}
    for v in (*inst.satellite_ids, *inst.customer_ids):
        near: dict[int, tuple[int, int]] = {}
        if limit is not None:
            row = dist[v]
            for k in inst.charging_ids:
                d = row[k]
                if k != v and scale * d <= limit:
                    near[k] = (d, scale * d)
        reach[v] = near

    def rows(i: int, j: int) -> tuple[Arc, ...]:
        near_j = reach[j]
        out: list[Arc] = []
        for k, (d_ik, c_ik) in reach[i].items():
            kj = near_j.get(k)
            if kj is not None:
                out.append((d_ik + kj[0], kj[1], k, c_ik))
        out.sort()
        d_ij = dist[i][j]
        c_ij = scale * d_ij
        if limit is None or c_ij <= limit:
            # the direct arc sorts as station -1: ahead of the via arcs it
            # ties with on (cost, consumption)
            out.insert(bisect_left(out, (d_ij, c_ij)), (d_ij, c_ij, None, 0))
        return tuple(out)

    return rows


def build_multigraph(inst: Instance) -> Multigraph:
    """Every admissible pair's bundle, pre-filtered by battery range."""
    return Multigraph(inst, _pair_builder(inst)).force()


def reduced_multigraph(inst: Instance) -> Multigraph:
    """The reduced multigraph, each bundle built and reduced on its first read."""
    rows = _pair_builder(inst)
    sats = frozenset(inst.satellite_ids)
    return Multigraph(inst, lambda i, j: _reduce_bundle(rows(i, j), i in sats))


def _sweep_satellite_tail(bundle: Sequence[Arc]) -> list[int]:
    """Positions of the survivors in a bundle leaving a satellite."""
    keep = []
    last = None
    for _, cons, _, p in sorted([
        (cost, cons, -1 if station is None else station, p)
        for p, (cost, cons, station, _) in enumerate(bundle)
    ]):
        if last is None or cons < last:
            keep.append(p)
            last = cons
    return keep


def _sweep_customer_tail(bundle: Sequence[Arc]) -> list[int]:
    """Positions of the survivors in a bundle leaving a customer."""
    keep = []
    via = []
    for p, (cost, cons, station, leg) in enumerate(bundle):
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


def _reduce_bundle(bundle: tuple[Arc, ...], satellite_tail: bool) -> tuple[Arc, ...]:
    """The bundle's arcs that no parallel arc dominates, in bundle order."""
    if len(bundle) <= 1:
        return bundle
    keep = (_sweep_satellite_tail if satellite_tail else _sweep_customer_tail)(bundle)
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
    return reduced._build(graph.bundles)
