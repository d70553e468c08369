"""Least-cost ng-route pricing on the multigraph, used as a lower-bound utility.

An ng-path may revisit a customer once it has left the path's bounded memory,
so its least cost per (load, last customer) never exceeds the cost of any
elementary route with the same signature; with full memory the relaxation
collapses to elementary optima.  A label is (consumption, cost) stored under
the key (vertex, load, memory mask).

Dominance (Baldacci, Mingozzi & Roberti 2011, Operations Research 59(5)): a
label dominates another at the same vertex and load when its memory is a
subset of the other's and its consumption and cost are no higher.  Labels
under an identical key are compared as they are stored; across keys, one pass
at the start of each load bucket, before any label of that load is extended,
drops every label that a label with a proper-subset memory dominates.  The
pass is exact and loses nothing:

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

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Optional

from .model import DEPOT_ID, Instance
from .multigraph import Multigraph


class NgStateSpaceExceeded(RuntimeError):
    """The configurable label cap was hit; results would be incomplete."""


@dataclass(frozen=True)
class NgSets:
    """Per customer, the memory neighborhood: the customer plus its nearest peers."""

    delta: int
    neighbors: dict[int, frozenset[int]]

    @classmethod
    def build(cls, inst: Instance, delta: int = 12) -> "NgSets":
        if delta < 1:
            raise ValueError("delta must be >= 1")
        ids = inst.customer_ids
        nb: dict[int, frozenset[int]] = {}
        for i in ids:
            ranked = sorted((inst.distance(i, j), j) for j in ids if j != i)
            nb[i] = frozenset([i, *(j for _, j in ranked[: delta - 1])])
        return cls(delta, nb)


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
    limit = inst.battery_limit

    # every leg the recursion reads, through ``arcs`` so that a lazy graph
    # builds the ones it has not built yet
    bundles = {(i, j): graph.arcs(i, j) for i in custs for j in (*custs, satellite)}

    # labels[(vertex, load, memory mask)] -> nondominated [(w, cost)]
    labels: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    buckets: dict[int, set[tuple[int, int, int]]] = {}
    count = 0

    def push(key: tuple[int, int, int], w: int, cost: int) -> None:
        nonlocal count
        labs = labels.get(key)
        if labs is None:
            labels[key] = [(w, cost)]
            buckets.setdefault(key[1], set()).add(key)
            count += 1
            if count > max_states:
                raise NgStateSpaceExceeded(f"more than {max_states} labels")
            return
        keep = []
        for lw, lc in labs:
            if lw <= w and lc <= cost:
                return
            if not (w <= lw and cost <= lc):
                keep.append((lw, lc))
        keep.append((w, cost))
        count += len(keep) - len(labs)
        if count > max_states:
            raise NgStateSpaceExceeded(f"more than {max_states} labels")
        labs[:] = keep

    for c in custs:
        if demand[c] > q2:
            continue
        for arc_cost, arc_cons, _, _ in graph.arcs(satellite, c):
            # leaving the satellite fully charged, arrival consumption is the
            # arc's own consumption for both arc kinds
            push((c, demand[c], bit[c]), arc_cons, arc_cost)

    # transitions strictly increase the load, so sweeping loads upward visits
    # every reachable state after all its predecessors
    for q in range(1, q2 + 1):
        keys = buckets.get(q)
        if not keys:
            continue
        count -= _drop_subset_dominated(labels, keys)
        for key in sorted(keys):
            i, _q, mask = key
            labs = labels[key]
            for j in custs:
                if mask & bit[j]:
                    continue  # memory forbids an immediate revisit
                qn = q + demand[j]
                if qn > q2:
                    continue
                opts = bundles.get((i, j))
                if not opts:
                    continue
                nkey = (j, qn, (mask & nmask[j]) | bit[j])
                for arc_cost, arc_cons, station, station_leg in opts:
                    if station is None:
                        for w, cost in labs:
                            w2 = w + arc_cons
                            if limit is not None and w2 > limit:
                                continue
                            push(nkey, w2, cost + arc_cost)
                    else:
                        best = None
                        for w, cost in labs:
                            if w + station_leg <= limit and (
                                best is None or cost < best
                            ):
                                best = cost
                        if best is not None:
                            push(nkey, arc_cons, best + arc_cost)

    table: dict[tuple[int, int], int] = {}
    for (i, q, _mask), labs in labels.items():
        entry = table.get((q, i), None)
        for arc_cost, arc_cons, station, station_leg in bundles.get((i, satellite), ()):
            for w, cost in labs:
                if limit is not None:
                    need = w + (arc_cons if station is None else station_leg)
                    if need > limit:
                        continue
                total = cost + arc_cost
                if entry is None or total < entry:
                    entry = total
        if entry is not None:
            table[(q, i)] = entry
    return NgRouteTable(satellite, table, count)


def _drop_subset_dominated(
    labels: dict[tuple[int, int, int], list[tuple[int, int]]],
    keys: set[tuple[int, int, int]],
) -> int:
    """Drop the labels of one load bucket that a label at the same vertex with
    a subset memory dominates; return how many were dropped.

    Keys left without labels leave both ``labels`` and ``keys``.
    """
    by_vertex: dict[int, list[tuple[int, tuple[int, int, int]]]] = {}
    for key in keys:
        by_vertex.setdefault(key[0], []).append((key[2].bit_count(), key))
    dropped = 0
    emptied = []
    for ranked in by_vertex.values():
        # a proper subset has fewer members, so only masks of an earlier size
        # can dominate; first is where the current size starts
        ranked.sort()
        first = 0
        for b in range(1, len(ranked)):
            size, kb = ranked[b]
            if size != ranked[b - 1][0]:
                first = b
            mb = kb[2]
            doms = [
                lab
                for _, ka in ranked[:first]
                if not ka[2] & ~mb
                for lab in labels[ka]
            ]
            if not doms:
                continue
            labs = labels[kb]
            keep = [
                (w, cost)
                for w, cost in labs
                if not any(dw <= w and dc <= cost for dw, dc in doms)
            ]
            if len(keep) < len(labs):
                dropped += len(labs) - len(keep)
                labs[:] = keep
                if not keep:
                    emptied.append(kb)
    for kb in emptied:
        del labels[kb]
        keys.discard(kb)
    return dropped


def _bound_from_tables(inst: Instance, tables: dict[int, NgRouteTable]) -> int:
    """Valid lower bound on the optimal total cost from the per-satellite tables.

    Combines two floors and keeps the larger: (a) total demand times the best
    per-unit closed-route cost plus fleet fixed-cost floors, and (b) the cost
    of the single cheapest route plus the first-level trip that must reach its
    satellite.
    """
    if not inst.customers:
        return 0
    q_tot = inst.total_demand
    f1, f2 = inst.fixed_cost_l1, inst.fixed_cost_l2
    d0 = {k: inst.distance(DEPOT_ID, k) for k in inst.satellite_ids}
    first_floor = ceil(q_tot / inst.q1_capacity) * (f1 + 2 * min(d0.values()))

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
        # no closed route exists at all; fall back to pure fixed-cost floors
        return ceil(q_tot / inst.q2_capacity) * f2 + first_floor
    amortized = (q_tot * unit_best).__floor__() + first_floor
    return max(amortized, joint if joint is not None else 0)


def bound_report(
    inst: Instance,
    graph: Multigraph,
    ng: NgSets,
    *,
    max_states: int = 2_000_000,
) -> dict:
    """JSON-friendly summary: per-satellite pricing digests plus the global bound."""
    tables = {
        k: price_ng_routes(inst, graph, k, ng, max_states=max_states)
        for k in inst.satellite_ids
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
