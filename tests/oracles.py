"""Independent reference implementations used to pin expected test values.

Nothing here may call into the solver paths under test: charging results come
from exhaustive enumeration over per-leg station choices (with sound
branch-and-bound pruning only), elementary route optima from exhaustive
sequence enumeration on top of that, ng-route tables from the pricing
recursion without its subset-memory dominance, that dominance pass from a
pairwise scan of the keys, and multigraph bundles from the definition of
their arcs, with the pairwise dominance rule.  The charging
reference is the two-pass DP that the one-pass ``best_insertion`` replaced:
a battery-hard pass, then a penalized rerun on three-field labels when the
hard pass finds no placement.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from math import ceil
from typing import Optional, Sequence

from e2evrp.bench import MetroGenConfig, generate_metro_instance
from e2evrp.charging import InsertionResult
from e2evrp.model import (
    DEPOT_ID,
    Customer,
    FirstLevelRoute,
    Instance,
    Satellite,
    SecondLevelRoute,
    Station,
    parse_instance,
    write_instance,
)
from e2evrp.multigraph import Arc, Multigraph
from e2evrp.ngpricing import NgRouteTable, NgSets, NgStateSpaceExceeded


def make_instance(
    *,
    name: str = "test",
    depot=(0, 0),
    satellites: Sequence[tuple] = ((1, (0, 0), None, 10),),
    customers: Sequence[tuple] = (),
    stations: Sequence[tuple] = (),
    q1: int = 1000,
    m1: int = 10,
    q2: int = 500,
    m2: int = 50,
    battery: Optional[int] = None,
    f1: int = 0,
    f2: int = 0,
) -> Instance:
    """Compact literal instance builder for tests."""
    return Instance(
        name=name,
        depot=depot,
        satellites=tuple(Satellite(i, loc, cap, m) for i, loc, cap, m in satellites),
        customers=tuple(Customer(i, loc, q) for i, loc, q in customers),
        stations=tuple(Station(i, loc) for i, loc in stations),
        q1_capacity=q1,
        m1_fleet=m1,
        q2_capacity=q2,
        m2_global=m2,
        battery_capacity=battery,
        fixed_cost_l1=f1,
        fixed_cost_l2=f2,
    )


def random_instance(
    rng: random.Random,
    *,
    n_c: int,
    n_s: int = 1,
    n_r: int = 2,
    span: int = 100,
    battery: Optional[int] = 150,
    q2: int = 100,
    q1: Optional[int] = None,
    demand_max: int = 25,
    m2_local: int = 25,
    m1: int = 10,
    m2: int = 50,
    f1: int = 0,
    f2: int = 0,
) -> Instance:
    def pt():
        return (rng.randrange(span + 1), rng.randrange(span + 1))

    next_id = 1
    sats = []
    for _ in range(n_s):
        sats.append((next_id, pt(), None, m2_local))
        next_id += 1
    custs = []
    for _ in range(n_c):
        custs.append((next_id, pt(), rng.randint(1, min(demand_max, q2))))
        next_id += 1
    stat = []
    for _ in range(n_r):
        stat.append((next_id, pt()))
        next_id += 1
    return make_instance(
        name=f"rand-{rng.randrange(10**6)}",
        depot=pt(),
        satellites=sats,
        customers=custs,
        stations=stat,
        q1=q1 if q1 is not None else q2 * 4,
        m1=m1,
        q2=q2,
        m2=m2,
        battery=battery,
        f1=f1,
        f2=f2,
    )


def metro_instance(customers: int, stations: int) -> Instance:
    """The perfbench metro workload instance: battery 1000, instance seed 1,
    read back from its text as the benchmark reads it."""
    inner = customers * 4 // 5
    cfg = MetroGenConfig(
        n_stations=stations,
        battery=1000,
        seed=1,
        n_customers_inner=inner,
        n_customers_outer=customers - inner,
    )
    demand = generate_metro_instance(cfg).total_demand
    cfg = replace(cfg, m1_fleet=ceil(demand / cfg.q1_capacity) + cfg.n_satellites - 1)
    return parse_instance(write_instance(generate_metro_instance(cfg)))


# ---------------------------------------------------------------------------
# Charging enumeration oracle
# ---------------------------------------------------------------------------


def brute_force_insertion(
    inst: Instance, satellite: int, customers: Sequence[int], penalized: bool = False
) -> tuple[int, Optional[int]]:
    """Exhaustive search over all <=1-station-per-leg assignments.

    Returns ``(excess, distance)`` of the lexicographically best assignment,
    or ``(0, None)`` when the hard variant has no feasible assignment.
    Pruning is limited to provably safe bounds (cost so far plus the sum of
    per-leg minima can never overestimate a completion).
    """
    if not customers:
        return (0, 0)
    limit = inst.battery_capacity
    seq = (satellite, *customers, satellite)
    legs = len(seq) - 1
    cons = inst.dist
    dist = inst.dist

    # per leg: list of (cost, entry requirement or None, arrival consumption)
    options: list[list[tuple[int, Optional[int], int]]] = []
    for ln in range(legs):
        i, j = seq[ln], seq[ln + 1]
        opts: list[tuple[int, Optional[int], int]] = []
        if limit is None or cons[i][j] <= limit:
            opts.append((dist[i][j], None, cons[i][j]))
        if limit is not None:
            for k in inst.charging_ids:
                if k in (i, j):
                    continue
                if cons[i][k] <= limit and cons[k][j] <= limit:
                    opts.append((dist[i][k] + dist[k][j], cons[i][k], cons[k][j]))
        if not opts:
            if not penalized:
                return (0, None)
            opts.append((dist[i][j], None, cons[i][j]))
        opts.sort(key=lambda o: (o[0], -1 if o[1] is None else o[1], o[2]))
        options.append(opts)

    tail_min = [0] * (legs + 1)
    for ln in range(legs - 1, -1, -1):
        tail_min[ln] = tail_min[ln + 1] + options[ln][0][0]

    big = inst.big_m
    best: list[Optional[int]] = [None]  # best objective = excess*big + distance

    def explore(ln: int, w: int, exc: int, cost: int) -> None:
        obj_floor = exc * big + cost + tail_min[ln]
        if best[0] is not None and obj_floor >= best[0]:
            return
        if ln == legs:
            best[0] = exc * big + cost
            return
        for c, entry, arrive in options[ln]:
            if entry is None:
                w2 = w + arrive
                e2 = exc
                if limit is not None and w2 > limit:
                    if not penalized:
                        continue
                    e2 = exc + (w2 - limit)
                    w2 = limit
            else:
                need = w + entry
                e2 = exc
                if limit is not None and need > limit:
                    if not penalized:
                        continue
                    e2 = exc + (need - limit)
                w2 = arrive
            explore(ln + 1, w2, e2, cost + c)

    explore(0, 0, 0, 0)
    if best[0] is None:
        return (0, None)
    return (best[0] // big, best[0] % big)


def dense_insertion_cost(
    inst: Instance, satellite: int, customers: Sequence[int]
) -> Optional[int]:
    """Dense consumption-indexed table variant of the hard insertion DP.

    Only usable for small battery limits; serves as the reference the
    label-based implementation must match exactly.
    """
    limit = inst.battery_capacity
    assert limit is not None and limit <= 5000, "dense table reference needs a small limit"
    if not customers:
        return 0
    seq = (satellite, *customers, satellite)
    INF = float("inf")
    f = [0.0] + [INF] * limit
    cons = inst.dist
    dist = inst.dist
    for ln in range(len(seq) - 1):
        i, j = seq[ln], seq[ln + 1]
        g = [INF] * (limit + 1)
        c_ij = cons[i][j]
        if c_ij <= limit:
            d_ij = dist[i][j]
            for w in range(limit - c_ij + 1):
                if f[w] + d_ij < g[w + c_ij]:
                    g[w + c_ij] = f[w] + d_ij
        for k in inst.charging_ids:
            if k in (i, j):
                continue
            c_ik, c_kj = cons[i][k], cons[k][j]
            if c_ik > limit or c_kj > limit:
                continue
            d_via = dist[i][k] + dist[k][j]
            feed = min((f[w] for w in range(limit - c_ik + 1)), default=INF)
            if feed + d_via < g[c_kj]:
                g[c_kj] = feed + d_via
        f = g
    val = min(f)
    return None if val == INF else int(val)


# ---------------------------------------------------------------------------
# Two-pass charging DP reference
# ---------------------------------------------------------------------------

_EMPTY = InsertionResult(True, 0, (), 0, 0)


def _propagate_reference(
    inst: Instance,
    graph: Multigraph,
    satellite: int,
    customers: Sequence[int],
    penalized: bool,
) -> Optional[InsertionResult]:
    limit = inst.battery_capacity
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
            options = ((inst.dist[i][j], inst.dist[i][j], None, 0),)
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


def _optimal_insertion_reference(
    inst: Instance, graph: Multigraph, satellite: int, customers: Sequence[int]
) -> InsertionResult:
    """Least-cost feasible placement of at most one charging stop per leg.

    Returns ``feasible=False`` (cost ``None``) when no placement keeps the
    battery trace within capacity.
    """
    if not customers:
        return _EMPTY
    res = _propagate_reference(inst, graph, satellite, customers, penalized=False)
    if res is None:
        return InsertionResult(False, None, (), 0, 0)
    return res


def _penalized_insertion_reference(
    inst: Instance, graph: Multigraph, satellite: int, customers: Sequence[int]
) -> InsertionResult:
    """Soft-constrained variant: always returns a route, charging excess at big-M."""
    if not customers:
        return _EMPTY
    res = _propagate_reference(inst, graph, satellite, customers, penalized=True)
    assert res is not None  # penalized propagation cannot dead-end
    return res


def best_insertion_reference(
    inst: Instance, graph: Multigraph, satellite: int, customers: Sequence[int]
) -> InsertionResult:
    """Hard DP first, penalized rerun only when no feasible placement exists."""
    res = _optimal_insertion_reference(inst, graph, satellite, customers)
    if res.feasible:
        return res
    return _penalized_insertion_reference(inst, graph, satellite, customers)


# ---------------------------------------------------------------------------
# Elementary route enumeration
# ---------------------------------------------------------------------------


def elementary_route_optima(
    inst: Instance, satellite: int
) -> dict[tuple[int, int], int]:
    """Minimum feasible cost per (load, last customer) over all elementary routes.

    Exhaustive over ordered subsets of customers within the vehicle capacity;
    each sequence is costed with the enumeration oracle above (hard variant),
    infeasible sequences contribute nothing.
    """
    best: dict[tuple[int, int], int] = {}
    ids = list(inst.customer_ids)
    demand = inst.demand
    q2 = inst.q2_capacity

    def extend(seq: list[int], load: int) -> None:
        if seq:
            exc, cost = brute_force_insertion(inst, satellite, seq)
            if cost is not None and exc == 0:
                key = (load, seq[-1])
                if key not in best or cost < best[key]:
                    best[key] = cost
        for c in ids:
            if c in seq:
                continue
            q = demand[c]
            if load + q > q2:
                continue
            seq.append(c)
            extend(seq, load + q)
            seq.pop()

    extend([], 0)
    return best


# ---------------------------------------------------------------------------
# ng-pricing reference
# ---------------------------------------------------------------------------


def price_ng_routes_reference(
    inst: Instance,
    graph: Multigraph,
    satellite: int,
    ng: NgSets,
    *,
    max_states: int = 2_000_000,
) -> NgRouteTable:
    """``price_ng_routes`` without subset-memory dominance: labels are compared
    only under an identical key (vertex, load, memory mask)."""
    custs = inst.customer_ids
    if satellite not in inst.satellite_by_id:
        raise ValueError(f"unknown satellite {satellite}")
    bit = {c: 1 << k for k, c in enumerate(custs)}
    nmask = {c: sum(bit[j] for j in ng.neighbors[c]) for c in custs}
    demand = inst.demand
    q2 = inst.q2_capacity
    limit = inst.battery_capacity

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
        for key in sorted(keys):
            i, _q, mask = key
            labs = labels[key]
            for j in custs:
                if mask & bit[j]:
                    continue  # memory forbids an immediate revisit
                qn = q + demand[j]
                if qn > q2:
                    continue
                opts = graph.arcs(i, j)
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
        for arc_cost, arc_cons, station, station_leg in graph.arcs(i, satellite):
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


def drop_subset_dominated_reference(
    bucket: dict[tuple[int, int], list[tuple[int, int]]],
) -> int:
    """The pairwise subset-memory pass: every key of a vertex is checked
    against every key of that vertex with fewer members.  Drops the labels
    that a label with a proper-subset memory dominates, deletes the keys it
    empties and returns how many labels it dropped."""
    by_vertex: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for key in bucket:
        by_vertex.setdefault(key[0], []).append((key[1].bit_count(), key))
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
            mb = kb[1]
            doms = [
                lab
                for _, ka in ranked[:first]
                if not ka[1] & ~mb
                for lab in bucket[ka]
            ]
            if not doms:
                continue
            labs = bucket[kb]
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
        del bucket[kb]
    return dropped


# ---------------------------------------------------------------------------
# Multigraph references
# ---------------------------------------------------------------------------


def sort_key(row: Arc) -> tuple[int, int, int]:
    """Bundle order: cost, arrival consumption, station id (direct arc -1)."""
    cost, cons, station, _ = row
    return (cost, cons, -1 if station is None else station)


def removable(r1: Arc, r2: Arc, tail_is_satellite: bool) -> bool:
    """The paper's dominance rule, pairwise: whether r2 justifies dropping r1."""
    cost1, cons1, station1, leg1 = r1
    cost2, cons2, station2, leg2 = r2
    if tail_is_satellite:
        if cost2 > cost1 or cons2 > cons1:
            return False
    else:
        # customer tail: the rule only relates two via-station arcs
        if station1 is None or station2 is None:
            return False
        if cost2 > cost1 or cons2 > cons1 or leg2 > leg1:
            return False
    if (cost2, cons2) != (cost1, cons1) or (not tail_is_satellite and leg2 != leg1):
        return True
    # full tie: keep exactly one arc, the lexicographically smallest
    return sort_key(r2) < sort_key(r1)


def reduce_bundle(bundle: Sequence[Arc], tail_is_satellite: bool) -> tuple[Arc, ...]:
    """O(b²) reference reduction: keep each arc no other arc of the bundle removes."""
    return tuple(
        r1
        for r1 in bundle
        if not any(r2 is not r1 and removable(r1, r2, tail_is_satellite) for r2 in bundle)
    )


def multigraph_reference(inst: Instance, reduced: bool) -> dict[tuple[int, int], tuple[Arc, ...]]:
    """Every admissible pair's bundle, built from the definition.

    The admissible pairs are satellite→customer, customer→satellite and
    customer→customer with distinct ends.  A pair (i, j) carries the direct
    arc if its consumption is within range, and one via arc per charging
    location k not in {i, j} whose two half-legs are both within range.  With
    an unconstrained battery only direct arcs exist.  Rows are sorted by
    :func:`sort_key` and, when ``reduced``, thinned by :func:`reduce_bundle`.
    """
    limit = inst.battery_capacity
    sats, custs = inst.satellite_ids, inst.customer_ids
    pairs = [(s, c) for s in sats for c in custs]
    pairs += [(c, s) for s in sats for c in custs]
    pairs += [(a, b) for a in custs for b in custs if a != b]
    out: dict[tuple[int, int], tuple[Arc, ...]] = {}
    for i, j in pairs:
        rows = []
        if limit is None or inst.dist[i][j] <= limit:
            rows.append((inst.dist[i][j], inst.dist[i][j], None, 0))
        if limit is not None:
            for k in inst.charging_ids:
                leg, last = inst.dist[i][k], inst.dist[k][j]
                if k not in (i, j) and leg <= limit and last <= limit:
                    rows.append((inst.dist[i][k] + inst.dist[k][j], last, k, leg))
        bundle = tuple(sorted(rows, key=sort_key))
        out[i, j] = reduce_bundle(bundle, i in sats) if reduced else bundle
    return out


def multigraph_csv(graph: Multigraph) -> str:
    """Debug dump: one `tail,head,p,cost,consumption,station` row per arc."""
    rows = ["tail,head,p,cost,consumption,station"]
    for (i, j) in sorted(graph.pairs()):
        for p, (cost, cons, station, _) in enumerate(graph.arcs(i, j), 1):
            st = "" if station is None else station
            rows.append(f"{i},{j},{p},{cost},{cons},{st}")
    return "\n".join(rows) + "\n"


def omega(w: int, arc: Arc, battery_capacity: int) -> frozenset[int]:
    """Admissible predecessor consumptions for arriving along ``arc`` with ``w``.

    Direct arc: the single value ``w - c`` when the leg fits; via station k:
    any charge state that still reaches k, provided ``w`` equals the fixed
    station-to-head consumption; empty otherwise.
    """
    _, cons, station, station_leg = arc
    if station is None:
        if cons <= w:
            return frozenset({w - cons})
        return frozenset()
    if w == cons:
        hi = battery_capacity - station_leg
        if hi >= 0:
            return frozenset(range(hi + 1))
    return frozenset()


def expand_arc_route(inst: Instance, legs: Sequence[tuple[int, int, Arc]]) -> SecondLevelRoute:
    """Map a chained arc route in the multigraph back to an explicit route.

    Each leg is ``(tail, head, row)``.  Via-station arcs expand to (tail,
    station, head); costs and the battery trace are preserved exactly.
    """
    if not legs:
        raise ValueError("empty arc route")
    sat = legs[0][0]
    if sat not in inst.satellite_by_id:
        raise ValueError(f"arc route must start at a satellite, got {sat}")
    if legs[-1][1] != sat:
        raise ValueError("arc route must return to its starting satellite")
    visits: list[int] = []
    load = 0
    prev_head = sat
    for idx, (tail, head, (_, _, station, _)) in enumerate(legs):
        if tail != prev_head:
            raise ValueError(f"arc {idx} tail {tail} does not chain from {prev_head}")
        if station is not None:
            visits.append(station)
        if idx < len(legs) - 1:
            visits.append(head)
            load += inst.demand.get(head, 0)
        prev_head = head
    return SecondLevelRoute(sat, tuple(visits), load)


# ---------------------------------------------------------------------------
# First-level reference
# ---------------------------------------------------------------------------


def first_level_greedy_reference(
    inst: Instance, demands: dict[int, int]
) -> Optional[tuple[list[FirstLevelRoute], int]]:
    """The first level of full round trips plus the cheapest-insertion
    packing of the residuals, without splitting any residual: ``None`` when
    that packing needs more than ``m1`` trucks.  Where it returns a first
    level, ``build_first_level`` must return the same one."""
    q1, dist = inst.q1_capacity, inst.dist
    routes: list[list[tuple[int, int]]] = []
    residual: dict[int, int] = {}
    for k in sorted(demands):
        d = demands[k]
        while d > q1:
            routes.append([(k, q1)])
            d -= q1
        if d > 0:
            residual[k] = d
    for k, q in sorted(residual.items()):
        options = [
            (dist[a][k] + dist[k][b] - dist[a][b], ri, pos)
            for ri, stops in enumerate(routes)
            if sum(x for _, x in stops) + q <= q1
            for pos, (a, b) in enumerate(
                zip([DEPOT_ID, *(s for s, _ in stops)], [*(s for s, _ in stops), DEPOT_ID])
            )
        ]
        if len(routes) < inst.m1_fleet:
            # an insertion wins ties with opening a truck
            options.append((2 * dist[DEPOT_ID][k] + inst.fixed_cost_l1, len(routes), 0))
        if not options:
            return None
        _, ri, pos = min(options)
        if ri == len(routes):
            routes.append([])
        routes[ri].insert(pos, (k, q))
    if len(routes) > inst.m1_fleet:
        return None
    total = sum(
        dist[a][b]
        for stops in routes
        for a, b in zip([DEPOT_ID, *(s for s, _ in stops)], [*(s for s, _ in stops), DEPOT_ID])
    )
    return [FirstLevelRoute(tuple(stops)) for stops in routes], total


# ---------------------------------------------------------------------------
# Local-search reference
# ---------------------------------------------------------------------------


def _structurally_admissible(ctx, st, nb, i, j) -> bool:
    """The structural preconditions ``local_search`` tests before calling a
    handler: 2-opt within one route, 2-opt* across two routes of one
    satellite, and 2-opt and swap left to the pair's canonical direction when
    the reverse pair is granular too."""
    (ri, pi), (rj, pj) = st.loc[i], st.loc[j]
    routes = st.sol.routes
    if nb == "two_opt" and ri != rj:
        return False
    if nb == "two_opt_star" and (ri == rj or routes[ri].satellite != routes[rj].satellite):
        return False
    if nb in ("two_opt", "swap") and (rj, pj) < (ri, pi) and i in ctx.granular_set[j]:
        return False
    return True


def local_search_reference(ctx, sol, rng: random.Random, deadline=None):
    """``local_search`` without its failed-move memo or its mirrored entries:
    every pass evaluates every structurally admissible granular pair of every
    neighborhood again.  The context's memo stays empty, so the relocate
    handler skips no edge either."""
    from e2evrp import localsearch as ls

    if not sol.routes:
        return sol
    sol.ensure_plans(ctx)
    st = ls._LsState(ctx, sol)
    customers = list(ctx.inst.customer_ids)
    improved = True
    while improved:
        improved = False
        order = list(ls._NEIGHBORHOODS)
        rng.shuffle(order)
        for nb in order:
            scan = customers[:]
            rng.shuffle(scan)
            handler = ls._HANDLERS[nb]
            for i in scan:
                for j in ctx.granular[i]:
                    if i != j and _structurally_admissible(ctx, st, nb, i, j) and handler(
                        ctx, st, i, j
                    ):
                        improved = True
            if deadline is not None and time.monotonic() >= deadline:
                return sol
    return sol


# ---------------------------------------------------------------------------
# Local-search handlers by segment concatenation
# ---------------------------------------------------------------------------
#
# The five neighborhood handlers as they stood before each came to price its
# candidate from the legs it changes: every candidate describes each touched
# route as a list of segments ``(route, first unit, last unit, reversed)``,
# ``segment_cost`` prices the concatenation in O(segments), and
# ``propose_reference`` applies the distance filter and hands the spliced
# routes to ``localsearch._commit`` (tests 3 and 4 of the module docstring,
# shared with the package).  ``HANDLERS_REFERENCE`` may stand in for
# ``localsearch._HANDLERS``: the search must then take the same path.


def segment_cost(st, segs) -> int:
    """Frozen-station distance of the concatenation of ``segs``."""
    D, units, fwd, bwd = st.dist, st.units, st.fwd, st.bwd
    total = 0
    prev = None
    for ri, a, b, rev in segs:
        if rev:
            total += bwd[ri][b] - bwd[ri][a]
            enter, leave = units[ri][b], units[ri][a]
        else:
            total += fwd[ri][b] - fwd[ri][a]
            enter, leave = units[ri][a], units[ri][b]
        if prev is not None:
            v, s = prev
            w = enter[0]
            total += D[v][w] if s is None else D[v][s] + D[s][w]
        prev = leave
    return total


def propose_reference(ctx, st, cands) -> bool:
    """Distance filter over ``(route, segments, new load)`` candidates; the
    spliced routes of a move that passes it go on to ``_commit``."""
    from e2evrp import localsearch as ls

    old = new = 0
    for ri, segs, _load in cands:
        old += st.fwd[ri][-1]
        new += segment_cost(st, segs)
    if new * ls.FILTER_DEN > ls.FILTER_NUM * old:
        return False
    moves = []
    for ri, segs, load in cands:
        seq = []
        for rs, a, b, rev in segs:
            part = st.units[rs][a : b + 1]
            seq += part[::-1] if rev else part
        moves.append((ri, seq[1:-1], load))  # drop the two satellite units
    return ls._commit(ctx, st, moves)


def _two_opt_reference(ctx, st, i, j) -> bool:
    ri, pi = st.loc[i]
    _, pj = st.loc[j]
    lo, hi = (pi, pj) if pi < pj else (pj, pi)
    segs = [(ri, 0, lo - 1, False), (ri, lo, hi, True), (ri, hi + 1, st.last[ri], False)]
    return propose_reference(ctx, st, [(ri, segs, st.sol.routes[ri].load)])


def _two_opt_star_reference(ctx, st, i, j) -> bool:
    ri, pi = st.loc[i]
    rj, pj = st.loc[j]
    routes = st.sol.routes
    h1 = st.pref[ri][pi]
    h2 = st.pref[rj][pj]
    l1 = h1 + routes[rj].load - h2
    l2 = h2 + routes[ri].load - h1
    q2 = ctx.inst.q2_capacity
    if l1 > q2 or l2 > q2:
        return False
    return propose_reference(ctx, st, [
        (ri, [(ri, 0, pi, False), (rj, pj + 1, st.last[rj], False)], l1),
        (rj, [(rj, 0, pj, False), (ri, pi + 1, st.last[ri], False)], l2),
    ])


def _relocate_reference(ctx, st, i, j) -> bool:
    ri, pi = st.loc[i]
    rj, pj = st.loc[j]
    routes = st.sol.routes
    q = ctx.inst.demand[i]
    l1 = routes[ri].load - q
    l2 = routes[rj].load + q
    if ri != rj and l2 > ctx.inst.q2_capacity:
        return False
    moved = (ri, pi, pi, False)
    # the shared relocate edges of the module docstring
    done = ctx.failed_moves["relocate"][i] if ctx.failed_moves else {}
    tag = st.tags[ri][rj]
    units = st.units[rj]
    edges = (pj - 1,) if done.get(units[pj - 1][0]) != tag else ()
    if done.get(units[pj + 1][0]) != tag:
        edges += (pj,)
    if ri == rj:
        load = routes[ri].load
        end = st.last[ri]
        for g in edges:
            if g == pi - 1 or g == pi:
                continue  # i already sits there
            if g < pi:
                segs = [(ri, 0, g, False), moved, (ri, g + 1, pi - 1, False), (ri, pi + 1, end, False)]
            else:
                segs = [(ri, 0, pi - 1, False), (ri, pi + 1, g, False), moved, (ri, g + 1, end, False)]
            if propose_reference(ctx, st, [(ri, segs, load)]):
                return True
        return False
    removed = [(ri, 0, pi - 1, False), (ri, pi + 1, st.last[ri], False)]
    for g in edges:
        inserted = [(rj, 0, g, False), moved, (rj, g + 1, st.last[rj], False)]
        if propose_reference(ctx, st, [(ri, removed, l1), (rj, inserted, l2)]):
            return True
    return False


def _exchange_reference(ctx, st, i, j, len1) -> bool:
    """Exchange the ``len1`` customers starting at i with customer j."""
    r1, s1 = st.loc[i]
    r2, s2 = st.loc[j]
    e1 = st.last[r1]
    if s1 + len1 > e1:
        return False
    routes = st.sol.routes
    if r1 == r2:
        a, la, b, lb = (s1, len1, s2, 1) if s1 < s2 else (s2, 1, s1, len1)
        if a + la > b:
            return False  # overlapping segments
        segs = [(r1, 0, a - 1, False), (r1, b, b + lb - 1, False)]
        if a + la < b:
            segs.append((r1, a + la, b - 1, False))
        segs += [(r1, a, a + la - 1, False), (r1, b + lb, e1, False)]
        return propose_reference(ctx, st, [(r1, segs, routes[r1].load)])
    pref1 = st.pref[r1]
    d1 = pref1[s1 + len1 - 1] - pref1[s1 - 1]
    d2 = ctx.inst.demand[j]
    l1 = routes[r1].load - d1 + d2
    l2 = routes[r2].load - d2 + d1
    q2cap = ctx.inst.q2_capacity
    if l1 > q2cap or l2 > q2cap:
        return False
    seg1 = (r1, s1, s1 + len1 - 1, False)
    seg2 = (r2, s2, s2, False)
    return propose_reference(ctx, st, [
        (r1, [(r1, 0, s1 - 1, False), seg2, (r1, s1 + len1, e1, False)], l1),
        (r2, [(r2, 0, s2 - 1, False), seg1, (r2, s2 + 1, st.last[r2], False)], l2),
    ])


HANDLERS_REFERENCE = {
    "two_opt": _two_opt_reference,
    "two_opt_star": _two_opt_star_reference,
    "relocate": _relocate_reference,
    "swap": lambda ctx, st, i, j: _exchange_reference(ctx, st, i, j, 1),
    "swap21": lambda ctx, st, i, j: (
        _exchange_reference(ctx, st, i, j, 2) or _exchange_reference(ctx, st, j, i, 2)
    ),
}
