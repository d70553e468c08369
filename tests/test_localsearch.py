import random
import time
from dataclasses import astuple, replace
from math import ceil, inf

from e2evrp import lns, search
from e2evrp import localsearch as ls
from e2evrp.lns import LnsParams, lns_run, repair
from e2evrp.localsearch import local_search
from e2evrp.model import check_feasibility, unservable_customers, write_solution
from e2evrp.search import SolverContext, WorkingRoute, WorkingSolution, build_first_level

from oracles import local_search_reference, make_instance, random_instance


def _ctx(inst, gamma=25):
    return SolverContext.build(inst, gamma)


def _complete(ctx, sol):
    sol.ensure_plans(ctx)
    first = build_first_level(ctx.inst, sol.sat_demand())
    assert first is not None
    sol.first_level, sol.l1_distance = first
    return sol


def test_two_opt_uncrosses_route():
    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=(
            (2, (100, 0), 5),
            (3, (0, 100), 5),
            (4, (100, 100), 5),
        ),
        q2=50,
        q1=100,
        battery=None,
    )
    ctx = _ctx(inst, gamma=3)
    crossed = _complete(ctx, WorkingSolution([WorkingRoute(1, [4, 2, 3], 15)]))
    before = crossed.objective(inst)
    local_search(ctx, crossed, random.Random(1))
    after = crossed.objective(inst)
    assert after < before
    # optimal tour visits the square corners without crossing
    assert crossed.routes[0].customers in ([2, 4, 3], [3, 4, 2])


def test_local_search_monotone_and_fixed_point():
    rng = random.Random(23)
    for trial in range(30):
        inst = random_instance(
            rng, n_c=rng.randint(6, 14), n_s=2, n_r=2, span=200,
            battery=rng.choice([250, 400, None]), q2=60, m2_local=10, m2=20,
        )
        ctx = _ctx(inst)
        sol = repair(ctx, WorkingSolution(), list(inst.customer_ids), set(), rng)
        if sol is None:
            continue
        before = sol.objective(inst)
        local_search(ctx, sol, rng)
        mid = sol.objective(inst)
        assert mid <= before
        local_search(ctx, sol, rng)
        assert sol.objective(inst) == mid  # fixed point on re-application


def test_improvement_preserves_structural_feasibility():
    rng = random.Random(31)
    for _ in range(10):
        inst = random_instance(
            rng, n_c=12, n_s=2, n_r=3, span=250, battery=500, q2=60, m2_local=10, m2=20
        )
        ctx = _ctx(inst)
        sol = repair(ctx, WorkingSolution(), list(inst.customer_ids), set(), rng)
        assert sol is not None
        local_search(ctx, sol, rng)
        if sol.total_excess() == 0:
            assert check_feasibility(inst, sol.to_solution(inst)) == []
        else:
            covered = sorted(c for r in sol.routes for c in r.customers)
            assert covered == sorted(inst.customer_ids)


def test_satellite_capacity_blocks_cross_moves():
    # satellite 2 is saturated at its capacity: customer 5 sits right next to
    # it but must stay at satellite 1 because relocating would overload it
    inst = make_instance(
        satellites=((1, (0, 0), None, 5), (2, (200, 0), 10, 5)),
        customers=((3, (190, 0), 10), (4, (10, 0), 10), (5, (180, 10), 10)),
        q2=30,
        q1=100,
        battery=None,
    )
    ctx = _ctx(inst, gamma=2)
    sol = _complete(
        ctx,
        WorkingSolution(
            [WorkingRoute(1, [4], 10), WorkingRoute(1, [5], 10), WorkingRoute(2, [3], 10)]
        ),
    )
    local_search(ctx, sol, random.Random(2))
    dem = sol.sat_demand()
    assert dem.get(2, 0) <= 10
    sat_of_5 = next(r.satellite for r in sol.routes if 5 in r.customers)
    assert sat_of_5 == 1


def test_first_level_recosted_on_cross_satellite_moves():
    inst = make_instance(
        depot=(0, -100),
        satellites=((1, (0, 0), None, 5), (2, (300, 0), None, 5)),
        customers=((3, (290, 0), 10), (4, (10, 0), 10)),
        q2=30,
        q1=100,
        battery=None,
    )
    ctx = _ctx(inst, gamma=1)
    # deliberately assign each customer to the far satellite
    sol = _complete(
        ctx, WorkingSolution([WorkingRoute(2, [4], 10), WorkingRoute(1, [3], 10)])
    )
    before = sol.objective(inst)
    local_search(ctx, sol, random.Random(3))
    after = sol.objective(inst)
    assert after < before
    # demands changed across satellites, so the first level must match them
    delivered = {}
    for fr in sol.first_level:
        for s, q in fr.stops:
            delivered[s] = delivered.get(s, 0) + q
    assert delivered == {k: v for k, v in sol.sat_demand().items() if v > 0}
    # the dropped satellite no longer receives anything
    assert 2 not in delivered or delivered[2] == sol.sat_demand().get(2)


def test_gamma_one_still_works():
    rng = random.Random(41)
    inst = random_instance(rng, n_c=8, n_s=1, n_r=1, span=120, battery=300, q2=60)
    ctx = _ctx(inst, gamma=1)
    sol = repair(ctx, WorkingSolution(), list(inst.customer_ids), set(), rng)
    before = sol.objective(inst)
    local_search(ctx, sol, rng)
    assert sol.objective(inst) <= before


def test_paired_comparison_exact_filter_never_worse():
    rng = random.Random(57)
    worse = 0
    for _ in range(50):
        inst = random_instance(
            rng, n_c=10, n_s=2, n_r=2, span=200, battery=rng.choice([300, 600]), q2=60
        )
        ctx = _ctx(inst)
        sol = repair(ctx, WorkingSolution(), list(inst.customer_ids), set(), rng)
        if sol is None:
            continue
        before = sol.objective(inst)
        local_search(ctx, sol, rng)
        worse += sol.objective(inst) > before
    assert worse == 0


def _frozen_distance(inst, satellite, anchor, pairs):
    """From-scratch length of a route whose charging stops keep their places:
    ``anchor`` right after the satellite, each other stop after its customer."""
    visits = [satellite] + ([anchor] if anchor is not None else [])
    for c, stop in pairs:
        visits += [c] if stop is None else [c, stop]
    visits.append(satellite)
    return sum(inst.distance(a, b) for a, b in zip(visits, visits[1:]))


def test_segment_evaluator_matches_spliced_routes(monkeypatch):
    """For every candidate of every neighborhood, the distance the filter
    computes from segments equals the from-scratch distance of the route it
    splices.  The filter is opened and ``_commit`` stubbed to record and
    reject, so one pass sees every granular pair in all five neighborhoods."""
    monkeypatch.setattr(ls, "FILTER_NUM", 10**9)
    costs, current = [], [None]
    seen = dict.fromkeys(ls._NEIGHBORHOODS, 0)
    covered = {"anchored": 0, "emptied": 0, "reversed_stops": 0}
    real_cost = ls._cost

    def cost(st, segs):
        value = real_cost(st, segs)
        costs.append(value)
        return value

    def commit(ctx, st, moves):
        inst = ctx.inst
        values = costs[:]
        costs.clear()
        assert len(values) == len(moves)
        seen[current[0]] += 1
        before = sorted(c for ri, _, _ in moves for c in st.sol.routes[ri].customers)
        assert sorted(c for _, pairs, _ in moves for c, _ in pairs) == before
        for (ri, pairs, load), value in zip(moves, values):
            route = st.sol.routes[ri]
            anchor = anchors[id(route)]
            current_pairs = [(c, trailing[c]) for c in route.customers]
            assert st.fwd[ri][-1] == _frozen_distance(inst, route.satellite, anchor, current_pairs)
            assert value == _frozen_distance(inst, route.satellite, anchor, pairs)
            assert all(stop == trailing[c] for c, stop in pairs)  # stops stay glued
            assert load == sum(inst.demand[c] for c, _ in pairs)
            covered["anchored"] += anchor is not None
            covered["emptied"] += not pairs
            if current[0] == "two_opt" and any(s is not None for _, s in pairs):
                covered["reversed_stops"] += 1
        return False

    monkeypatch.setattr(ls, "_cost", cost)
    monkeypatch.setattr(ls, "_commit", commit)
    for nb, handler in list(ls._HANDLERS.items()):
        def labelled(ctx, st, i, j, nb=nb, handler=handler):
            current[0] = nb
            return handler(ctx, st, i, j)

        monkeypatch.setitem(ls._HANDLERS, nb, labelled)

    rng = random.Random(7)
    for _ in range(12):
        inst = random_instance(
            rng, n_c=rng.randint(8, 14), n_s=2, n_r=3, span=300,
            battery=rng.choice([350, 450]), q2=60, m2_local=10, m2=20,
        )
        ctx = _ctx(inst)
        sol = repair(ctx, WorkingSolution(), list(inst.customer_ids), set(), rng)
        assert sol is not None
        sol = _complete(ctx, sol)
        anchors, trailing = {}, {}
        for r in sol.routes:
            by_leg = dict(r.plan.stations)
            anchors[id(r)] = by_leg.get(1)
            trailing.update((c, by_leg.get(k + 2)) for k, c in enumerate(r.customers))
        before = sol.objective(inst)
        local_search(ctx, sol, rng)
        assert sol.objective(inst) == before  # every move was rejected
    assert all(seen.values()), seen
    assert all(covered.values()), covered


def _same_runs(monkeypatch, inst, params, memoized=local_search):
    """Run ``lns_run`` with the memoized and with the reference scan, require
    the same solution text and counters, and return the solution."""
    runs = []
    for scan in (memoized, local_search_reference):
        monkeypatch.setattr(lns, "local_search", scan)
        sol, stats = lns_run(inst, params)
        runs.append((write_solution(sol), stats.deterministic_fields()))
    assert runs[0] == runs[1]
    return sol


def test_memo_matches_reference_scan(monkeypatch):
    """The failed-move memo only skips evaluations that would fail again: a
    search with it and one with the reference scan, which evaluates every pair
    on every pass, end in the same solution (and, in ``lns_run``, the same
    counters)."""
    # satellite 2 is full, so customer 3 cannot join route [4] there until
    # customer 5 leaves for satellite 1; routes [3] and [4] stay as they were,
    # and only the satellite-demand part of the tag tells the memo to retry
    inst = make_instance(
        depot=(50, -50),
        satellites=((1, (0, 0), None, 5), (2, (100, 0), 20, 5)),
        customers=((3, (60, 0), 10), (4, (100, 20), 10), (5, (-10, 0), 10), (6, (-10, 10), 10)),
        q2=50,
        q1=100,
        battery=None,
    )
    for seed in range(20):
        ends = []
        for scan in (local_search, local_search_reference):
            ctx = _ctx(inst, gamma=2)
            sol = _complete(ctx, WorkingSolution([
                WorkingRoute(1, [3], 10), WorkingRoute(2, [4], 10),
                WorkingRoute(2, [5], 10), WorkingRoute(1, [6], 10),
            ]))
            scan(ctx, sol, random.Random(seed))
            ends.append(sorted((r.satellite, r.customers) for r in sol.routes))
        assert ends[0] == ends[1], seed
        assert any(sat == 2 and 3 in route for sat, route in ends[0])

    rng = random.Random(2025)
    covered = {"capped": 0, "multi_satellite": 0, "unconstrained": 0, "charging_stops": 0}
    draws = 0
    while draws < 40:
        n_s = rng.randint(1, 3)
        inst = random_instance(
            rng, n_c=rng.randint(8, 30), n_s=n_s, n_r=3, span=200,
            battery=rng.choice([None, 300, 400, 600]), q2=60, m2_local=8, m2=24,
            q1=100, f1=30,
        )
        if unservable_customers(inst):
            continue
        draws += 1
        if n_s > 1:
            # no satellite can serve more than its share plus a tenth, so
            # moves across satellites depend on the satellite-demand map
            cap = ceil(inst.total_demand * 1.1 / n_s)
            assert cap < inst.total_demand
            inst = replace(
                inst, satellites=tuple(replace(s, capacity=cap) for s in inst.satellites)
            )
            covered["capped"] += 1
        params = LnsParams(t_max=None, max_restarts=2, i_max=10, seed=draws)
        sol = _same_runs(monkeypatch, inst, params)
        covered["multi_satellite"] += len({r.satellite for r in sol.second_level_routes}) > 1
        covered["unconstrained"] += inst.battery_capacity is None
        customers = set(inst.customer_ids)
        covered["charging_stops"] += any(
            v not in customers for r in sol.second_level_routes for v in r.visits
        )
    assert min(covered.values()) >= 5, covered


def test_lower_bound_rejects_only_what_repricing_rejects(monkeypatch):
    """``_commit`` rejects a move at its lower bound only where the exact
    re-pricing would reject it too: with the bound at minus infinity, so that
    every move reaching ``_commit`` is re-priced, ``lns_run`` ends in the same
    solution and counters, on multi-satellite draws with capped satellites,
    tight batteries (penalized plans included) and unconstrained ones."""
    real_plan = SolverContext.plan
    plan_calls = {"bound": 0, "no_bound": 0}
    penalized = set()
    side = ["bound"]

    def counted(self, satellite, customers):
        plan_calls[side[0]] += 1
        result = real_plan(self, satellite, customers)
        if not result.feasible:
            penalized.add(draws)
        return result

    monkeypatch.setattr(SolverContext, "plan", counted)
    bounds = {"bound": ls.insertion_lower_bound, "no_bound": lambda *args: -inf}
    rng = random.Random(1803)
    covered = {"capped": 0, "tight": 0, "unconstrained": 0}
    draws = 0
    while draws < 24:
        n_s = rng.randint(1, 3)
        inst = random_instance(
            rng, n_c=rng.randint(8, 20), n_s=n_s, n_r=3, span=200,
            battery=rng.choice([None, 180, 200, 400]), q2=60, m2_local=8, m2=24,
            q1=100, f1=30, f2=rng.choice([0, 40]),
        )
        if unservable_customers(inst):
            continue
        draws += 1
        if n_s > 1:
            cap = ceil(inst.total_demand * 1.1 / n_s)
            inst = replace(
                inst, satellites=tuple(replace(s, capacity=cap) for s in inst.satellites)
            )
            covered["capped"] += 1
        params = LnsParams(t_max=None, max_restarts=2, i_max=10, seed=draws)
        runs = []
        for name, bound in bounds.items():
            side[0] = name
            monkeypatch.setattr(ls, "insertion_lower_bound", bound)
            sol, stats = lns_run(inst, params)
            runs.append((write_solution(sol), stats.deterministic_fields()))
        assert runs[0] == runs[1], draws
        customers = set(inst.customer_ids)
        covered["tight"] += draws in penalized or any(
            v not in customers for r in sol.second_level_routes for v in r.visits
        )
        covered["unconstrained"] += inst.battery_capacity is None
    assert min(covered.values()) >= 5, covered
    assert len(penalized) >= 3, penalized
    assert plan_calls["bound"] < plan_calls["no_bound"], plan_calls


def test_memo_hazards(monkeypatch):
    """Routes are named by their plan objects, not by plan values; emptying
    the plan cache while the memo holds older plans keeps the search exact;
    the memo keeps its bound."""
    # two different routes with equal plans are different plans with different tags
    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (10, 0), 5), (3, (0, 10), 5)),
        q2=50,
        q1=100,
        battery=None,
    )
    ctx = _ctx(inst)
    sol = _complete(ctx, WorkingSolution([WorkingRoute(1, [2], 5), WorkingRoute(1, [3], 5)]))
    a, b = sol.routes[0].plan, sol.routes[1].plan
    assert astuple(a) == astuple(b) and a is not b
    st = ls._LsState(ctx, sol)
    assert st.tags[0][0] != st.tags[1][1]

    # with a limit of 10 plans, the plan cache is emptied many times a run
    # while the memo still holds plans from before
    monkeypatch.setattr(search, "CACHE_LIMIT", 10)
    contexts = []

    def memoized(ctx, sol, rng, deadline):
        contexts.append(ctx)
        return local_search(ctx, sol, rng, deadline)

    def plans(tag):
        return tag[:2] if isinstance(tag, tuple) else (tag,)

    rng = random.Random(99)
    stale = 0
    for seed in range(6):
        inst = random_instance(
            rng, n_c=rng.randint(10, 20), n_s=2, n_r=3, span=200, battery=400, q2=60,
        )
        params = LnsParams(t_max=None, max_restarts=2, i_max=10, seed=seed)
        _same_runs(monkeypatch, inst, params, memoized)
        ctx = contexts[-1]
        gamma = len(ctx.granular[inst.customer_ids[0]])
        tags = [tag for rows in ctx.failed_moves.values() for row in rows.values() for tag in row.values()]
        assert len(tags) <= len(ls._NEIGHBORHOODS) * len(inst.customers) * gamma
        cached = set(ctx.plan_cache.values())
        stale += any(plan not in cached for tag in tags for plan in plans(tag))
    assert stale == 6, stale


def test_no_candidate_is_proposed_twice_between_refreshes(monkeypatch):
    """Between two refreshes of the scan state (an applied move or a new
    call) no 2-opt*, swap2-1 or inter-route relocate candidate reaches the
    filter twice, keyed by its segment lists: the mirrored memo entries and
    the shared relocate edges leave out every repeat.  Intra-route relocates
    are left out of the check, because an adjacent relocate can be proposed
    again as a swap."""
    version = [0]
    current = [None]
    proposed: dict = {}
    checked = dict.fromkeys(("two_opt_star", "swap21", "relocate"), 0)
    real_refresh = ls._LsState.refresh
    real_propose = ls._propose

    def refresh(self, ctx):
        version[0] += 1
        real_refresh(self, ctx)

    def propose(ctx, st, cands):
        nb = current[0]
        if nb in checked and not (nb == "relocate" and len(cands) == 1):
            key = tuple(sorted((ri, tuple(segs)) for ri, segs, _load in cands))
            assert proposed.get(key) != version[0], (nb, key)
            proposed[key] = version[0]
            checked[nb] += 1
        return real_propose(ctx, st, cands)

    monkeypatch.setattr(ls._LsState, "refresh", refresh)
    monkeypatch.setattr(ls, "_propose", propose)
    for nb, handler in list(ls._HANDLERS.items()):
        def labelled(ctx, st, i, j, nb=nb, handler=handler):
            current[0] = nb
            return handler(ctx, st, i, j)

        monkeypatch.setitem(ls._HANDLERS, nb, labelled)

    rng = random.Random(4242)
    covered = {"capped": 0, "tight": 0, "unconstrained": 0}
    draws = 0
    while draws < 20:
        n_s = rng.randint(1, 3)
        inst = random_instance(
            rng, n_c=rng.randint(10, 24), n_s=n_s, n_r=3, span=200,
            battery=rng.choice([None, 200, 250, 400]), q2=60, m2_local=8, m2=24, q1=100, f1=30,
        )
        if unservable_customers(inst):
            continue
        draws += 1
        if n_s > 1:
            cap = ceil(inst.total_demand * 1.1 / n_s)
            inst = replace(
                inst, satellites=tuple(replace(s, capacity=cap) for s in inst.satellites)
            )
            covered["capped"] += 1
        covered["unconstrained"] += inst.battery_capacity is None
        sol, _ = lns_run(inst, LnsParams(t_max=None, max_restarts=1, i_max=10, seed=draws))
        customers = set(inst.customer_ids)
        covered["tight"] += any(
            v not in customers for r in sol.second_level_routes for v in r.visits
        )
    assert min(covered.values()) >= 4, covered
    assert min(checked.values()) >= 1000, checked


def _repaired(seed):
    rng = random.Random(seed)
    inst = random_instance(
        rng, n_c=14, n_s=2, n_r=3, span=250, battery=400, q2=60, m2_local=10, m2=20
    )
    ctx = _ctx(inst)
    sol = repair(ctx, WorkingSolution(), list(inst.customer_ids), set(), rng)
    assert sol is not None
    return inst, ctx, sol, rng


def test_passed_deadline_returns_after_one_scan():
    inst, ctx, sol, rng = _repaired(41)
    before = sol.objective(inst)
    probe = random.Random()
    probe.setstate(rng.getstate())
    local_search(ctx, sol, rng, deadline=time.monotonic() - 1.0)
    # one scan draws two shuffles, the neighborhood order and the scan order
    probe.shuffle(list(ls._NEIGHBORHOODS))
    probe.shuffle(list(inst.customer_ids))
    assert rng.getstate() == probe.getstate()
    # the working solution is whole and its plans, loads and first level current
    assert sol.objective(inst) <= before
    assert sorted(c for r in sol.routes for c in r.customers) == sorted(inst.customer_ids)
    for r in sol.routes:
        assert r.plan == ctx.plan(r.satellite, tuple(r.customers))
        assert r.load == sum(inst.demand[c] for c in r.customers)
    assert build_first_level(inst, sol.sat_demand()) == (sol.first_level, sol.l1_distance)


def test_no_deadline_never_reads_the_clock(monkeypatch):
    inst, ctx, sol, rng = _repaired(43)
    probe = _repaired(43)

    def no_clock():
        raise AssertionError("local_search read the clock without a deadline")

    monkeypatch.setattr(time, "monotonic", no_clock)
    local_search(ctx, sol, rng)
    monkeypatch.undo()
    # a deadline that never passes changes nothing but the clock reads
    local_search(probe[1], probe[2], probe[3], deadline=float("inf"))
    assert [r.customers for r in sol.routes] == [r.customers for r in probe[2].routes]
    assert rng.getstate() == probe[3].getstate()
