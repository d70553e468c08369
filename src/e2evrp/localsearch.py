"""Granular first-improvement local search on the second-level routes.

Five neighborhoods (2-opt, 2-opt*, relocate, swap, swap2-1) are scanned in
random order over granular customer pairs.  Each route is mirrored as a unit
list ``[(satellite, anchor stop), (c1, stop), ..., (satellite, None)]`` in
which every charging stop stays glued to the customer (or satellite) it
follows, with prefix sums of this frozen-station distance walked forward and
backward and of the demand.  These arrays are a function of the route's plan
object (below), so they are built once per plan and travel with the route,
into its clones too, as its view.

A candidate move describes each route it touches as a concatenation of up to
five segments ``(route, first unit, last unit, reversed)`` of the current
routes.  Its handler prices it in O(1) before any list exists: a route's new
frozen-station distance is its old one plus the few legs the move creates,
each leg out of a unit taken through the unit's glued stop, minus the legs
it breaks, read as differences of the prefix sums (the backward ones for a
reversed run).  A candidate runs through four tests, cheapest first, and is
applied only when it passes all of them; only one that passes the filter
builds its segment lists, which are then spliced into the new routes:

1. load: every new route fits the vehicle;
2. filter: the frozen-station distance of the touched routes, as the handler
   prices it, may not grow by more than the filter percentage;
3. lower bound: demand moved across satellites must fit the receiving
   satellite, and the first level is then rebuilt from scratch; the move
   must improve the full objective, fixed costs and first level included,
   even with each new route costed at
   :func:`~e2evrp.charging.insertion_lower_bound`, the cheapest arc of each
   of its legs;
4. exact re-price: the routes are spliced and re-priced one by one with the
   charging recursion (battery overrun priced at big-M), each plan replacing its
   route's bound, and the move is rejected as soon as the remaining bounds
   cannot make up the loss; it is applied only when the full objective
   strictly improves.

The bound never exceeds the plan's ``cost + penalty``, so test 3 rejects only
moves that test 4 would reject: it saves charging runs and leaves the search
path as it is.  Tail exchanges (2-opt*) stay within one satellite.

Most evaluations repeat one that already failed on unchanged routes, within
a call and across the calls of one run, so failures are memoized exactly.
``SolverContext.failed_moves`` maps neighborhood, i and j to the tag of the
last failed evaluation of the pair.  The tag is the content of the route
holding i when j sits in the same route; otherwise it is the contents of
both routes and, when the two routes sit at different satellites, the
satellite-demand map (every first level a working solution holds is
``build_first_level`` of that map).  A handler's result depends on nothing
else (plans are the memoized charging plans of the contents; the memo
entries that relocate reads only spare it evaluations that would fail, see
below) and it draws no random numbers, so skipping a pair whose tag is
unchanged leaves the search path, the random stream and the result exactly
as without the memo.

A route's content is named by its plan object, which compares by identity:
``SolverContext.plan`` hands out one object per content, and every route
holds the plan of its own content.  A tag holds references to its plans, so
a plan it names stays alive and no other content can come to own it.  A
content priced again after the plan cache is emptied gets a new plan, so its
old entries merely miss.  The memo needs no clearing of its own: an entry is
written only for a granular pair or its mirror, so it holds at most one
entry per neighborhood and granular pair.

Three more skips leave out handler calls whose result is already known, so
the search path stays the same:

- structural preconditions: the scan itself tests that a 2-opt pair shares a
  route, that a 2-opt* pair sits in two routes of one satellite, and that a
  2-opt or swap pair is in its canonical direction (a symmetric move is left
  to the reverse pair when that pair is granular too).  These are tested
  before the memo lookup and write nothing to it, so an entry of the pair
  from an earlier, admissible state stays in place; the handlers assume them.
- mirrored entries: 2-opt*(i, j) and 2-opt*(j, i) propose the same two routes
  in the opposite order, and swap2-1(i, j) and swap2-1(j, i) try the same two
  exchanges.  The order does not matter: ``_commit`` applies a move exactly
  when its full delta is negative, and each of its early rejections is
  taken on lower bounds of that delta (route bounds that never exceed the
  plans, summed in any order).  So when (i, j) fails, (j, i) is recorded as
  failed under its own tag, when i is in j's granular list: the memo keeps
  its bound.
- shared relocate edges: inserting i before j is inserting i after j's
  predecessor, and after j is before j's successor.  A relocate entry for i
  and that neighbour under the current tag means both of its edges failed on
  these same routes, so ``_try_relocate`` skips that edge.  With an empty memo
  it skips none.
"""

from __future__ import annotations

import random
import time
from typing import Optional

from .charging import insertion_lower_bound
from .model import Instance
from .search import SolverContext, WorkingRoute, WorkingSolution, build_first_level

# approximate-filter slack: moves may deteriorate the frozen-station distance
# of the touched routes by at most 3% before the exact re-evaluation
FILTER_NUM = 103
FILTER_DEN = 100

Unit = tuple[int, Optional[int]]  # (customer or satellite id, trailing stop or None)
Seg = tuple[int, int, int, bool]  # (route, first unit, last unit, reversed)

_NEIGHBORHOODS = ("two_opt", "two_opt_star", "relocate", "swap", "swap21")


def _route_view(inst: Instance, route: WorkingRoute) -> tuple:
    """``(plan, units, fwd, bwd, pref)`` of a route that holds its plan: the
    arrays of ``_LsState`` for this one route."""
    D = inst.dist
    demand = inst.demand
    sat = route.satellite
    by_leg = dict(route.plan.stations)
    # the stop on leg l trails unit l-1 (unit 0 is the satellite)
    units = [(sat, by_leg.get(1))]
    pref = [0]
    for k, c in enumerate(route.customers, 1):
        units.append((c, by_leg.get(k + 1)))
        pref.append(pref[-1] + demand[c])
    units.append((sat, None))
    fwd, bwd = [0], [0]
    for (pv, ps), (v, s) in zip(units, units[1:]):
        fwd.append(fwd[-1] + (D[pv][v] if ps is None else D[pv][ps] + D[ps][v]))
        bwd.append(bwd[-1] + (D[v][pv] if s is None else D[v][s] + D[s][pv]))
    return route.plan, units, fwd, bwd, pref


class _LsState:
    """Unit-list mirror of a working solution, gathered from its routes' views
    at the start of each call and after each applied move.

    Per route ``ri``: ``units[ri]`` as in the module docstring; ``fwd[ri][k]``
    is the frozen-station distance from unit 0 to unit k, ``bwd[ri][k]`` the
    same sum walked backwards (unit k, its stop, then unit k-1, ...), and
    ``pref[ri][k]`` the demand of units 1..k.  ``loc`` maps a customer to its
    (route, unit index), ``last[ri]`` is the index of the closing unit and
    ``sats[ri]`` the route's satellite.  ``tags[ri][rj]`` is the memo tag
    (module docstring) of a pair with i in route ri and j in route rj.
    Every route must hold its current plan: ``local_search`` completes the
    plans first, and ``_commit`` gives each route it changes its new plan.
    A route's view (``_route_view``) is built again only when its plan
    object changes.
    """

    __slots__ = (
        "sol", "dist", "units", "fwd", "bwd", "pref", "last", "loc", "sats", "dem", "tags"
    )

    def __init__(self, ctx: SolverContext, sol: WorkingSolution):
        self.sol = sol
        self.refresh(ctx)

    def refresh(self, ctx: SolverContext) -> None:
        inst = ctx.inst
        self.dist = inst.dist
        sol = self.sol
        loc: dict[int, tuple[int, int]] = {}
        for ri, route in enumerate(sol.routes):
            if route.view is None or route.view[0] is not route.plan:
                route.view = _route_view(inst, route)
            loc.update((c, (ri, k)) for k, c in enumerate(route.customers, 1))
        self.loc = loc
        plans, self.units, self.fwd, self.bwd, self.pref = zip(*(r.view for r in sol.routes))
        self.last = [len(units) - 1 for units in self.units]
        self.dem: dict[int, int] = sol.sat_demand()
        sats = self.sats = [route.satellite for route in sol.routes]
        demand_key = tuple(sorted(self.dem.items()))
        self.tags: list[list] = [
            [
                pa if a == b
                else (pa, pb) if sats[a] == sats[b]
                else (pa, pb, demand_key)
                for b, pb in enumerate(plans)
            ]
            for a, pa in enumerate(plans)
        ]


def local_search(
    ctx: SolverContext,
    sol: WorkingSolution,
    rng: random.Random,
    deadline: Optional[float] = None,
) -> WorkingSolution:
    """Improve ``sol`` in place until no move in any neighborhood helps.

    With a ``deadline`` (a ``time.monotonic()`` value) the clock is read once
    after each neighborhood scan, and the search returns there once the
    deadline has passed; every route's plan is then current.  Without one the
    clock is never read.
    """
    if not sol.routes:
        return sol
    sol.ensure_plans(ctx)
    customers = list(ctx.inst.customer_ids)
    memo = ctx.failed_moves
    if not memo:
        memo.update((nb, {c: {} for c in customers}) for nb in _NEIGHBORHOODS)
    st = _LsState(ctx, sol)
    granular, gset = ctx.granular, ctx.granular_set
    improved = True
    while improved:
        improved = False
        order = list(_NEIGHBORHOODS)
        rng.shuffle(order)
        for nb in order:
            scan = customers[:]
            rng.shuffle(scan)
            handler = _HANDLERS[nb]
            failed = memo[nb]
            # structural preconditions, tested before the memo lookup, and
            # whether a failure also fails the reverse pair (module docstring)
            same_route = nb == "two_opt"
            same_satellite = nb == "two_opt_star"
            deferred = same_route or nb == "swap"
            mirrored = same_satellite or nb == "swap21"
            for i in scan:
                row = failed[i]
                seen = row.get
                loc, sats = st.loc, st.sats
                li = loc[i]
                ri = li[0]
                tags = st.tags[ri]
                for j in granular[i]:
                    lj = loc[j]
                    rj = lj[0]
                    if same_route and rj != ri:
                        continue
                    if same_satellite and (rj == ri or sats[rj] != sats[ri]):
                        continue
                    if deferred and lj < li and i in gset[j]:
                        continue
                    tag = tags[rj]
                    if seen(j) == tag:
                        continue
                    if handler(ctx, st, i, j):
                        improved = True
                        loc, sats = st.loc, st.sats
                        li = loc[i]
                        ri = li[0]
                        tags = st.tags[ri]
                    else:
                        row[j] = tag
                        if mirrored and i in gset[j]:
                            failed[j][i] = st.tags[rj][ri]
            if deadline is not None and time.monotonic() >= deadline:
                return sol
    return sol


# ---------------------------------------------------------------------------
# candidate moves: each handler prices its candidate's new frozen-station
# distance from the few legs it changes, applies the filter, and builds the
# segment lists only for a candidate that passes; the handlers assume the
# structural preconditions that ``local_search`` tests
# ---------------------------------------------------------------------------


def _leg(D: dict, unit: Unit, w: int) -> int:
    """Distance from ``unit`` (its vertex, then its glued stop if any) to vertex w."""
    v, s = unit
    return D[v][w] if s is None else D[v][s] + D[s][w]


def _splice(
    ctx: SolverContext, st: _LsState, cands: list[tuple[int, list[Seg], int, int]]
) -> bool:
    """Splice each ``(route, segments, new load, new distance)`` of a candidate
    that passed the filter and hand the routes to ``_commit``.  The new
    frozen-station distance that the handler priced travels with the segments,
    so that the two can be checked against each other; splicing reads only
    the segments."""
    moves = []
    for ri, segs, load, _dist in cands:
        seq: list[Unit] = []
        for rs, a, b, rev in segs:
            part = st.units[rs][a : b + 1]
            seq += part[::-1] if rev else part
        moves.append((ri, seq[1:-1], load))  # drop the two satellite units
    return _commit(ctx, st, moves)


def _try_two_opt(ctx: SolverContext, st: _LsState, i: int, j: int) -> bool:
    ri, pi = st.loc[i]
    _, pj = st.loc[j]
    lo, hi = (pi, pj) if pi < pj else (pj, pi)
    D, units, fwd, bwd = st.dist, st.units[ri], st.fwd[ri], st.bwd[ri]
    old = fwd[-1]
    # units lo..hi are walked backwards, each still followed by its stop
    new = (
        old + _leg(D, units[lo - 1], units[hi][0]) + bwd[hi] - bwd[lo]
        + _leg(D, units[lo], units[hi + 1][0]) - fwd[hi + 1] + fwd[lo - 1]
    )
    if new * FILTER_DEN > FILTER_NUM * old:
        return False
    segs = [(ri, 0, lo - 1, False), (ri, lo, hi, True), (ri, hi + 1, st.last[ri], False)]
    return _splice(ctx, st, [(ri, segs, st.sol.routes[ri].load, new)])


def _try_two_opt_star(ctx: SolverContext, st: _LsState, i: int, j: int) -> bool:
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
    D, ui, uj, fi, fj = st.dist, st.units[ri], st.units[rj], st.fwd[ri], st.fwd[rj]
    new1 = fi[pi] + _leg(D, ui[pi], uj[pj + 1][0]) + fj[-1] - fj[pj + 1]
    new2 = fj[pj] + _leg(D, uj[pj], ui[pi + 1][0]) + fi[-1] - fi[pi + 1]
    if (new1 + new2) * FILTER_DEN > FILTER_NUM * (fi[-1] + fj[-1]):
        return False
    return _splice(ctx, st, [
        (ri, [(ri, 0, pi, False), (rj, pj + 1, st.last[rj], False)], l1, new1),
        (rj, [(rj, 0, pj, False), (ri, pi + 1, st.last[ri], False)], l2, new2),
    ])


def _try_relocate(ctx: SolverContext, st: _LsState, i: int, j: int) -> bool:
    ri, pi = st.loc[i]
    rj, pj = st.loc[j]
    routes = st.sol.routes
    q = ctx.inst.demand[i]
    l1 = routes[ri].load - q
    l2 = routes[rj].load + q
    if ri != rj and l2 > ctx.inst.q2_capacity:
        return False
    moved = (ri, pi, pi, False)
    # insert i between unit g and unit g + 1, just before or after j; either
    # edge is also one of the pair of i and j's neighbour on that side, and is
    # skipped when that pair failed on these same routes
    done = ctx.failed_moves["relocate"][i] if ctx.failed_moves else {}
    tag = st.tags[ri][rj]
    units = st.units[rj]
    edges = (pj - 1,) if done.get(units[pj - 1][0]) != tag else ()
    if done.get(units[pj + 1][0]) != tag:
        edges += (pj,)
    D, ui, fi, fj = st.dist, st.units[ri], st.fwd[ri], st.fwd[rj]
    unit = ui[pi]
    # taking i out joins its two neighbours; the same for either edge
    removal = _leg(D, ui[pi - 1], ui[pi + 1][0]) - fi[pi + 1] + fi[pi - 1]
    if ri == rj:
        load = routes[ri].load
        end = st.last[ri]
        old = fi[-1]
        for g in edges:
            if g == pi - 1 or g == pi:
                continue  # i already sits there
            # the edge g, g + 1 shares no leg with i's two legs
            new = (
                old + removal + _leg(D, units[g], i) + _leg(D, unit, units[g + 1][0])
                - fi[g + 1] + fi[g]
            )
            if new * FILTER_DEN > FILTER_NUM * old:
                continue
            if g < pi:
                segs = [(ri, 0, g, False), moved, (ri, g + 1, pi - 1, False), (ri, pi + 1, end, False)]
            else:
                segs = [(ri, 0, pi - 1, False), (ri, pi + 1, g, False), moved, (ri, g + 1, end, False)]
            if _splice(ctx, st, [(ri, segs, load, new)]):
                return True
        return False
    new1 = fi[-1] + removal
    old = fi[-1] + fj[-1]
    for g in edges:
        new2 = fj[-1] + _leg(D, units[g], i) + _leg(D, unit, units[g + 1][0]) - fj[g + 1] + fj[g]
        if (new1 + new2) * FILTER_DEN > FILTER_NUM * old:
            continue
        removed = [(ri, 0, pi - 1, False), (ri, pi + 1, st.last[ri], False)]
        inserted = [(rj, 0, g, False), moved, (rj, g + 1, st.last[rj], False)]
        if _splice(ctx, st, [(ri, removed, l1, new1), (rj, inserted, l2, new2)]):
            return True
    return False


def _try_swap(ctx: SolverContext, st: _LsState, i: int, j: int) -> bool:
    return _exchange(ctx, st, i, j, 1)


def _try_swap21(ctx: SolverContext, st: _LsState, i: int, j: int) -> bool:
    if _exchange(ctx, st, i, j, 2):
        return True
    return _exchange(ctx, st, j, i, 2)


def _exchange(ctx: SolverContext, st: _LsState, i: int, j: int, len1: int) -> bool:
    """Exchange the ``len1`` customers starting at i with customer j."""
    r1, s1 = st.loc[i]
    r2, s2 = st.loc[j]
    e1 = st.last[r1]
    if s1 + len1 > e1:
        return False
    routes = st.sol.routes
    D, u1, f1 = st.dist, st.units[r1], st.fwd[r1]
    if r1 == r2:
        a, la, b, lb = (s1, len1, s2, 1) if s1 < s2 else (s2, 1, s1, len1)
        if a + la > b:
            return False  # overlapping segments
        # the runs a..ea and b..eb change places around the run between them
        ea, eb = a + la - 1, b + lb - 1
        mid, into_a = 0, u1[eb]
        if ea + 1 < b:
            mid, into_a = _leg(D, u1[eb], u1[ea + 1][0]) + f1[b - 1] - f1[ea + 1], u1[b - 1]
        new = (
            f1[a - 1] + _leg(D, u1[a - 1], u1[b][0]) + f1[eb] - f1[b] + mid
            + _leg(D, into_a, u1[a][0]) + f1[ea] - f1[a]
            + _leg(D, u1[ea], u1[eb + 1][0]) + f1[-1] - f1[eb + 1]
        )
        if new * FILTER_DEN > FILTER_NUM * f1[-1]:
            return False
        segs = [(r1, 0, a - 1, False), (r1, b, eb, False)]
        if ea + 1 < b:
            segs.append((r1, ea + 1, b - 1, False))
        segs += [(r1, a, ea, False), (r1, eb + 1, e1, False)]
        return _splice(ctx, st, [(r1, segs, routes[r1].load, new)])
    pref1 = st.pref[r1]
    t1 = s1 + len1 - 1  # the last unit of i's run
    d1 = pref1[t1] - pref1[s1 - 1]
    d2 = ctx.inst.demand[j]
    l1 = routes[r1].load - d1 + d2
    l2 = routes[r2].load - d2 + d1
    q2cap = ctx.inst.q2_capacity
    if l1 > q2cap or l2 > q2cap:
        return False
    u2, f2 = st.units[r2], st.fwd[r2]
    new1 = f1[-1] + _leg(D, u1[s1 - 1], j) + _leg(D, u2[s2], u1[t1 + 1][0]) - f1[t1 + 1] + f1[s1 - 1]
    new2 = (
        f2[-1] + _leg(D, u2[s2 - 1], i) + f1[t1] - f1[s1] + _leg(D, u1[t1], u2[s2 + 1][0])
        - f2[s2 + 1] + f2[s2 - 1]
    )
    if (new1 + new2) * FILTER_DEN > FILTER_NUM * (f1[-1] + f2[-1]):
        return False
    seg1 = (r1, s1, t1, False)
    seg2 = (r2, s2, s2, False)
    return _splice(ctx, st, [
        (r1, [(r1, 0, s1 - 1, False), seg2, (r1, t1 + 1, e1, False)], l1, new1),
        (r2, [(r2, 0, s2 - 1, False), seg1, (r2, s2 + 1, st.last[r2], False)], l2, new2),
    ])


_HANDLERS = {
    "two_opt": _try_two_opt,
    "two_opt_star": _try_two_opt_star,
    "relocate": _try_relocate,
    "swap": _try_swap,
    "swap21": _try_swap21,
}


# ---------------------------------------------------------------------------
# exact evaluation and application
# ---------------------------------------------------------------------------


def _commit(
    ctx: SolverContext,
    st: _LsState,
    moves: list[tuple[int, list[Unit], int]],
) -> bool:
    """Tests 3 and 4 of the module docstring; apply the move if it passes."""
    inst = ctx.inst
    sol = st.sol

    delta_dem: dict[int, int] = {}
    for ri, _pairs, load in moves:
        k = sol.routes[ri].satellite
        delta_dem[k] = delta_dem.get(k, 0) + load - sol.routes[ri].load

    # when demand moves between satellites, the receiving satellites must
    # hold it and the first level is rebuilt from scratch
    delta = 0
    new_first = None
    if any(delta_dem.values()):
        demands = dict(st.dem)
        for k, dv in delta_dem.items():
            demands[k] = demands.get(k, 0) + dv
            cap = inst.satellite_by_id[k].capacity
            if dv > 0 and cap is not None and demands[k] > cap:
                return False
        new_first = build_first_level(inst, demands)
        f1 = inst.fixed_cost_l1
        delta = (
            new_first[1] + f1 * len(new_first[0]) - sol.l1_distance - f1 * len(sol.first_level)
        )

    # a lower bound on each new route (an emptied route costs nothing): most
    # moves that pass the filter cannot improve even at the bound
    f2 = inst.fixed_cost_l2
    seqs = []
    bounds = []
    for ri, pairs, _load in moves:
        route = sol.routes[ri]
        delta -= route.plan.cost + route.plan.penalty + f2
        seq = tuple(c for c, _ in pairs)
        seqs.append(seq)
        bounds.append(
            insertion_lower_bound(inst, ctx.graph, route.satellite, seq) + f2 if seq else 0
        )
    if delta + sum(bounds) >= 0:
        return False

    # exact re-pricing, route by route: each plan replaces its route's bound,
    # and the move is rejected as soon as the rest cannot make up the loss
    new_plans: list = []
    for k, ((ri, _pairs, _load), seq) in enumerate(zip(moves, seqs)):
        plan = None
        if seq:
            plan = ctx.plan(sol.routes[ri].satellite, seq)
            delta += plan.cost + plan.penalty + f2
        if delta + sum(bounds[k + 1 :]) >= 0:
            return False
        new_plans.append(plan)

    for (ri, pairs, load), plan in zip(moves, new_plans):
        route = sol.routes[ri]
        route.customers = [c for c, _ in pairs]
        route.load = load
        route.plan = plan
    sol.routes = [r for r in sol.routes if r.customers]
    if new_first is not None:
        sol.first_level, sol.l1_distance = new_first
    st.refresh(ctx)
    return True
