"""Least-cost ng-route pricing on the multigraph, used as a lower-bound utility.

An ng-path may revisit a customer once it has left the path's bounded memory,
so its least cost per (load, last customer) never exceeds the cost of any
elementary route with the same signature; with full memory the relaxation
collapses to elementary optima.  A label is (consumption, cost); labels are
kept per load bucket, ``by_load[q][(vertex, memory mask)]``.

Each label list is nondominated and kept in rising consumption, so in
strictly falling cost.  One bisection places a new label: the label just
before it is the cheapest that consumes no more, the only one that can
dominate it, and the labels it dominates follow it in one run.  Three reads
stop early on that order:

* a direct arc extends the labels up to the first that the arc would take
  over the battery;
* a via-station arc takes the last label that can reach the station, which
  is the cheapest one that can;
* a closing arc back to the satellite takes the last label that can reach
  the satellite, directly or through the arc's station.

Dominance (Baldacci, Mingozzi & Roberti 2011, Operations Research 59(5)): a
label dominates another at the same vertex and load when its memory is a
subset of the other's and its consumption and cost are no higher.  Labels
under an identical key are compared as they are stored; across keys, one pass
at the start of each load bucket, before any label of that load is extended,
drops every label that a label with a proper-subset memory dominates.  Every
memory at a vertex holds the vertex's own bit, so the pass looks a key's
rivals up by enumerating its proper submasks that keep that bit.  The pass is
exact and loses nothing:

* every demand is >= 1, so each transition strictly raises the load, and every
  label of load q exists before bucket q is swept (this is also the processing
  order);
* any extension open to the dominated label is open to the dominating one at
  no more cost or consumption, its next memory ``(m & N(j)) | {j}`` stays a
  subset, and the closing arc back to the satellite keeps the order too.

So the tables are those of the identical-key recursion; only the label count
falls.  ``NgRouteTable.label_count`` counts the labels stored at the end;
``max_states`` caps the live labels, which can exceed that final count just
before a bucket is pruned.

:func:`bound_report` prices every satellite and assembles from the tables a
simple combinatorial bound on the full two-echelon problem (per-unit route
cost covering the total demand, plus fleet fixed-cost floors).  It is
deliberately unsophisticated: a verification aid, not a competitive bounding
procedure.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, inf
from typing import Optional

from .model import DEPOT_ID, Instance, unservable_reason
from .multigraph import Multigraph
from .search import build_neighbor_lists


class NgStateSpaceExceeded(RuntimeError):
    """The configurable label cap was hit; results would be incomplete."""


@dataclass(frozen=True)
class NgSets:
    """Per customer, the memory neighborhood: the customer plus its nearest peers."""

    delta: int
    neighbors: dict[int, frozenset[int]]

    @classmethod
    def build(cls, inst: Instance, delta: int) -> "NgSets":
        """Memories of ``delta`` members: each customer and its ``delta - 1``
        nearest peers, as ranked by :func:`~e2evrp.search.build_neighbor_lists`."""
        if delta < 1:
            raise ValueError("delta must be >= 1")
        nbs = build_neighbor_lists(inst, delta - 1)
        return cls(delta, {i: frozenset([i, *peers]) for i, peers in nbs.items()})


@dataclass(frozen=True)
class NgRouteTable:
    """Minimum closed ng-route cost per (load, last customer) for one satellite."""

    satellite: int
    by_load_last: dict[tuple[int, int], int]
    label_count: int

    @property
    def by_load(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (q, _i), cost in self.by_load_last.items():
            if q not in out or cost < out[q]:
                out[q] = cost
        return out


def price_ng_routes(
    inst: Instance,
    graph: Multigraph,
    satellite: int,
    ng: NgSets,
    *,
    max_states: int = 2_000_000,
) -> NgRouteTable:
    """Run the pricing recursion from one satellite.

    Raises :class:`NgStateSpaceExceeded` instead of silently truncating when
    the number of live labels passes ``max_states``.
    """
    custs = inst.customer_ids
    if satellite not in inst.satellite_by_id:
        raise ValueError(f"unknown satellite {satellite}")
    bit = {c: 1 << k for k, c in enumerate(custs)}
    nmask = {c: sum(bit[j] for j in ng.neighbors[c]) for c in custs}
    demand = inst.demand
    q2 = inst.q2_capacity
    # no battery: no via-station rows, and every label fits every row
    limit = inst.battery_capacity if inst.battery_capacity is not None else inf

    def fits(bundle: tuple) -> list[tuple[int, int, float, bool]]:
        """Each row as (cost, consumption, room, direct): a label reaches the
        head, or the station of a via row, when it consumes at most room."""
        return [
            (arc_cost, arc_cons, limit - (arc_cons if station is None else leg), station is None)
            for arc_cost, arc_cons, station, leg in bundle
        ]

    # every leg the recursion reads, through ``arcs`` so that a lazy graph
    # builds the ones it has not built yet: per customer, its successors
    # (j, bit, demand, memory mask, rows) in customer order, and its closing
    # rows back to the satellite
    succ: dict[int, list[tuple[int, int, int, int, list]]] = {}
    closing: dict[int, list[tuple[int, int, float, bool]]] = {}
    for i in custs:
        succ[i] = [
            (j, bit[j], demand[j], nmask[j], fits(bundle))
            for j in custs
            if (bundle := graph.arcs(i, j))
        ]
        closing[i] = fits(graph.arcs(i, satellite))

    # by_load[load][(vertex, memory mask)] -> nondominated [(w, cost)] in
    # rising consumption, so in strictly falling cost
    by_load: defaultdict[int, dict[tuple[int, int], list[tuple[int, int]]]] = defaultdict(dict)
    count = 0

    def insert(bucket: dict, key: tuple[int, int], cands: list[tuple[int, int]]) -> None:
        """Add each candidate label to ``bucket[key]`` in turn, unless a label
        there dominates it, and drop the labels that it dominates."""
        nonlocal count
        if not cands:
            return
        labs = bucket.get(key)
        if labs is None:
            labs = bucket[key] = []
        for lab in cands:
            cost = lab[1]
            # labs[:at] sort at or below the candidate; the last of them is
            # the cheapest label that consumes no more than it does
            at = bisect_right(labs, lab)
            if at and labs[at - 1][1] <= cost:
                continue
            # labs[at:] consume at least as much; those that cost no less
            # come first
            end = at
            while end < len(labs) and labs[end][1] >= cost:
                end += 1
            labs[at:end] = [lab]
            count += 1 - (end - at)
            if count > max_states:
                raise NgStateSpaceExceeded(f"more than {max_states} labels")

    for c in custs:
        # leaving the satellite fully charged, arrival consumption is the
        # arc's own consumption for both arc kinds
        insert(
            by_load[demand[c]],
            (c, bit[c]),
            [(arc_cons, arc_cost) for arc_cost, arc_cons, _, _ in graph.arcs(satellite, c)],
        )

    # transitions strictly increase the load, so sweeping loads upward visits
    # every reachable state after all its predecessors
    for q in range(1, q2 + 1):
        bucket = by_load.get(q)
        if not bucket:
            continue
        count -= _drop_subset_dominated(bucket, bit)
        for (i, mask), labs in sorted(bucket.items()):
            for j, bj, dj, nmj, rows in succ[i]:
                if mask & bj:
                    continue  # memory forbids an immediate revisit
                qn = q + dj
                if qn > q2:
                    continue
                cands = []
                for arc_cost, arc_cons, room, direct in rows:
                    if direct:
                        # the labels that fit before the first one over the battery
                        for w, cost in labs:
                            if w > room:
                                break
                            cands.append((w + arc_cons, cost + arc_cost))
                    else:
                        # the cheapest label that reaches the station
                        for w, cost in reversed(labs):
                            if w <= room:
                                cands.append((arc_cons, cost + arc_cost))
                                break
                insert(by_load[qn], (j, (mask & nmj) | bj), cands)

    table: dict[tuple[int, int], int] = {}
    for q, bucket in by_load.items():
        for (i, _mask), labs in bucket.items():
            entry = table.get((q, i), None)
            for arc_cost, _, room, _ in closing[i]:
                for w, cost in reversed(labs):
                    if w <= room:
                        total = cost + arc_cost
                        if entry is None or total < entry:
                            entry = total
                        break
            if entry is not None:
                table[(q, i)] = entry
    return NgRouteTable(satellite, table, count)


def _drop_subset_dominated(
    bucket: dict[tuple[int, int], list[tuple[int, int]]], bit: dict[int, int]
) -> int:
    """Drop the labels of one load bucket that a label at the same vertex with
    a subset memory dominates; return how many were dropped.

    Every memory at a vertex holds the vertex's own bit, so the keys that can
    dominate a key are those of its proper submasks that keep that bit.  The
    order in which keys are filtered does not matter: a label dropped earlier
    was dominated by a label with a still smaller memory, which dominates all
    that the dropped one did.  Keys left without labels leave the bucket.
    """
    dropped = 0
    emptied = []
    for key, labs in bucket.items():
        v, mask = key
        own = bit[v]
        rest = mask ^ own
        doms = []
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            found = bucket.get((v, sub | own))
            if found:
                doms += found
        if not doms:
            continue
        keep = []
        for w, cost in labs:
            for dw, dc in doms:
                if dw <= w and dc <= cost:
                    break
            else:
                keep.append((w, cost))
        if len(keep) < len(labs):
            dropped += len(labs) - len(keep)
            labs[:] = keep
            if not keep:
                emptied.append(key)
    for key in emptied:
        del bucket[key]
    return dropped


def _bound_from_tables(inst: Instance, tables: dict[int, NgRouteTable]) -> int:
    """Valid lower bound on the optimal total cost from the per-satellite tables.

    Combines two floors and keeps the larger: (a) total demand times the best
    per-unit closed-route cost plus fleet fixed-cost floors, and (b) the cost
    of the single cheapest route plus the first-level trip that must reach its
    satellite.  Raises ``ValueError`` when every table is empty.
    """
    if not inst.customers:
        return 0
    q_tot = inst.total_demand
    f1, f2 = inst.fixed_cost_l1, inst.fixed_cost_l2
    d0 = inst.dist[DEPOT_ID]
    first_floor = ceil(q_tot / inst.q1_capacity) * (f1 + 2 * min(d0[k] for k in tables))

    unit_best: Optional[Fraction] = None
    joint: Optional[int] = None
    for k, tbl in tables.items():
        per_load = tbl.by_load
        for q, cost in per_load.items():
            u = Fraction(cost + f2, q)
            if unit_best is None or u < unit_best:
                unit_best = u
        if per_load:
            jk = min(per_load.values()) + f2 + f1 + 2 * d0[k]
            if joint is None or jk < joint:
                joint = jk

    if unit_best is None:
        # the tables relax every feasible second-level route: none exists
        raise ValueError("no satellite has a closed route within the battery")
    amortized = (q_tot * unit_best).__floor__() + first_floor
    return max(amortized, joint)


def bound_report(
    inst: Instance,
    graph: Multigraph,
    ng: NgSets,
    *,
    max_states: int = 2_000_000,
) -> dict:
    """JSON-friendly summary: per-satellite pricing digests plus the global bound.

    Only satellites with a second-level vehicle are priced and reported.
    Raises ``ValueError`` before any pricing when
    :func:`~e2evrp.model.unservable_reason` refuses the instance as
    ``lns_run`` does, with the same words (no satellite vehicle, which
    includes no satellite at all, a customer out of battery range, or a
    total demand that the first- or second-level fleet cannot carry); and
    after pricing when no satellite has a closed route within the battery.
    """
    reason = unservable_reason(inst)
    if reason:
        raise ValueError(reason)
    tables = {
        s.id: price_ng_routes(inst, graph, s.id, ng, max_states=max_states)
        for s in inst.satellites
        if s.m2_local > 0
    }
    per_sat = {}
    for k, tbl in tables.items():
        loads = tbl.by_load
        per_sat[str(k)] = {
            "entries": len(tbl.by_load_last),
            "labels": tbl.label_count,
            "min_route_cost": min(loads.values()) if loads else None,
            "best_unit_cost": (
                min(float(Fraction(c + inst.fixed_cost_l2, q)) for q, c in loads.items())
                if loads
                else None
            ),
        }
    return {
        "instance": inst.name,
        "delta": ng.delta,
        "satellites": per_sat,
        "lower_bound": _bound_from_tables(inst, tables),
    }
