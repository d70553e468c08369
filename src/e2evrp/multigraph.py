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

A graph is either eager or lazy.  ``build_multigraph`` builds every
admissible pair's bundle and ``reduce_by_dominance`` reduces them all; the
``bound`` command, the benchmark set-up and the tests use these.  The solver
uses a :class:`LazyMultigraph`: it computes only the reach maps up front,
and builds, reduces and memoizes a pair's bundle on the first ``arcs`` call
for it, with the same per-pair builder and the same sweep.  A search reads
a small share of the pairs, so most bundles are never built.  On a lazy
graph ``pairs()`` and ``arc_count()`` cover only the bundles built so far;
pairs without an admissible arc (sat→sat and i→i among them) read as ``()``
and are memoized without appearing in ``pairs()``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator, Optional, Sequence

from .model import Instance

# (cost, consumption, station or None, station leg) -- see the module docstring
Arc = tuple[int, int, Optional[int], int]


class Multigraph:
    """Per ordered pair, the arc rows sorted by cost ascending.

    ``bundles`` maps ``(tail, head)`` to the pair's rows; pairs without an
    admissible arc are absent or map to ``()``.
    """

    def __init__(self, inst: Instance, bundles: dict[tuple[int, int], tuple[Arc, ...]]):
        self.instance = inst
        self.bundles = bundles

    def arcs(self, tail: int, head: int) -> tuple[Arc, ...]:
        return self.bundles.get((tail, head), ())

    def pairs(self) -> Iterator[tuple[int, int]]:
        return (pair for pair, bundle in self.bundles.items() if bundle)

    def arc_count(self) -> int:
        return sum(len(b) for b in self.bundles.values())


class LazyMultigraph(Multigraph):
    """The reduced multigraph, each bundle built and reduced on its first read."""

    def __init__(self, inst: Instance):
        super().__init__(inst, {})
        self._rows = _pair_builder(inst)
        self._satellites = frozenset(inst.satellite_ids)
        self._customers = frozenset(inst.customer_ids)

    def arcs(self, tail: int, head: int) -> tuple[Arc, ...]:
        bundle = self.bundles.get((tail, head))
        if bundle is None:
            bundle = self._build(tail, head)
        return bundle

    def _build(self, tail: int, head: int) -> tuple[Arc, ...]:
        sats, custs = self._satellites, self._customers
        if tail != head and (
            tail in custs and (head in custs or head in sats)
            or tail in sats and head in custs
        ):
            bundle = _reduce_bundle(self._rows(tail, head), tail in sats)
        else:
            bundle = ()
        self.bundles[tail, head] = bundle
        return bundle


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
    """Construct every admissible pair's bundle, pre-filtered by battery range."""
    rows = _pair_builder(inst)
    pairs: list[tuple[int, int]] = []
    for s in inst.satellite_ids:
        for c in inst.customer_ids:
            pairs.append((s, c))
            pairs.append((c, s))
    for a in inst.customer_ids:
        for b in inst.customer_ids:
            if a != b:
                pairs.append((a, b))

    bundles: dict[tuple[int, int], tuple[Arc, ...]] = {}
    for i, j in pairs:
        bundle = rows(i, j)
        if bundle:
            bundles[i, j] = bundle
    return Multigraph(inst, bundles)


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
    """Drop arcs that some parallel arc renders useless in any optimal route."""
    inst = graph.instance
    sat_set = set(inst.satellite_ids)
    return Multigraph(inst, {
        (i, j): _reduce_bundle(bundle, i in sat_set)
        for (i, j), bundle in graph.bundles.items()
    })
