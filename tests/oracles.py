"""Independent reference implementations used to pin expected test values.

Nothing here may call into the solver paths under test: charging results come
from exhaustive enumeration over per-leg station choices (with sound
branch-and-bound pruning only), elementary route optima from exhaustive
sequence enumeration on top of that, and ng-route tables from the pricing
recursion without its subset-memory dominance, and multigraph bundles from
the definition of their arcs, with the pairwise dominance rule.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from math import ceil
from typing import Optional, Sequence

from e2evrp.bench import MetroGenConfig, generate_metro_instance
from e2evrp.model import (
    Customer,
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
    factor=None,
) -> Instance:
    """Compact literal instance builder for tests."""
    from fractions import Fraction

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
        consumption_factor=Fraction(factor) if factor is not None else Fraction(1),
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
    limit = inst.battery_limit
    seq = (satellite, *customers, satellite)
    legs = len(seq) - 1
    cons = inst.consumption
    dist = inst.distance

    # per leg: list of (cost, entry requirement or None, arrival consumption)
    options: list[list[tuple[int, Optional[int], int]]] = []
    for ln in range(legs):
        i, j = seq[ln], seq[ln + 1]
        opts: list[tuple[int, Optional[int], int]] = []
        if limit is None or cons(i, j) <= limit:
            opts.append((dist(i, j), None, cons(i, j)))
        if limit is not None:
            for k in inst.charging_ids:
                if k in (i, j):
                    continue
                if cons(i, k) <= limit and cons(k, j) <= limit:
                    opts.append((dist(i, k) + dist(k, j), cons(i, k), cons(k, j)))
        if not opts:
            if not penalized:
                return (0, None)
            opts.append((dist(i, j), None, cons(i, j)))
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
    limit = inst.battery_limit
    assert limit is not None and limit <= 5000, "dense table reference needs a small limit"
    if not customers:
        return 0
    seq = (satellite, *customers, satellite)
    INF = float("inf")
    f = [0.0] + [INF] * limit
    cons = inst.consumption
    dist = inst.distance
    for ln in range(len(seq) - 1):
        i, j = seq[ln], seq[ln + 1]
        g = [INF] * (limit + 1)
        c_ij = cons(i, j)
        if c_ij <= limit:
            d_ij = dist(i, j)
            for w in range(limit - c_ij + 1):
                if f[w] + d_ij < g[w + c_ij]:
                    g[w + c_ij] = f[w] + d_ij
        for k in inst.charging_ids:
            if k in (i, j):
                continue
            c_ik, c_kj = cons(i, k), cons(k, j)
            if c_ik > limit or c_kj > limit:
                continue
            d_via = dist(i, k) + dist(k, j)
            feed = min((f[w] for w in range(limit - c_ik + 1)), default=INF)
            if feed + d_via < g[c_kj]:
                g[c_kj] = feed + d_via
        f = g
    val = min(f)
    return None if val == INF else int(val)


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
    limit = inst.battery_limit

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
    limit = inst.battery_limit
    sats, custs = inst.satellite_ids, inst.customer_ids
    pairs = [(s, c) for s in sats for c in custs]
    pairs += [(c, s) for s in sats for c in custs]
    pairs += [(a, b) for a in custs for b in custs if a != b]
    out: dict[tuple[int, int], tuple[Arc, ...]] = {}
    for i, j in pairs:
        rows = []
        if limit is None or inst.consumption(i, j) <= limit:
            rows.append((inst.distance(i, j), inst.consumption(i, j), None, 0))
        if limit is not None:
            for k in inst.charging_ids:
                leg, last = inst.consumption(i, k), inst.consumption(k, j)
                if k not in (i, j) and leg <= limit and last <= limit:
                    rows.append((inst.distance(i, k) + inst.distance(k, j), last, k, leg))
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


def omega(w: int, arc: Arc, battery_limit: int) -> frozenset[int]:
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
        hi = battery_limit - station_leg
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
# Local-search reference
# ---------------------------------------------------------------------------


def local_search_reference(ctx, sol, rng: random.Random, deadline=None):
    """``local_search`` without its failed-move memo: every pass evaluates
    every granular pair of every neighborhood again."""
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
                    if i != j and handler(ctx, st, i, j):
                        improved = True
            if deadline is not None and time.monotonic() >= deadline:
                return sol
    return sol
