import random

import pytest

from e2evrp.lns import (
    ConstructionError,
    LnsParams,
    close_satellite,
    destroy_related,
    destroy_routes,
    lns_run,
    open_all_satellites,
    remove_singleton_routes,
    repair,
)
from e2evrp.model import check_feasibility
from e2evrp.search import SolverContext, WorkingRoute, WorkingSolution, build_first_level

import golden
from oracles import first_level_greedy_reference, make_instance, random_instance


def _ctx(inst, gamma=25):
    return SolverContext.build(inst, gamma)


def _built(ctx, rng=None):
    rng = rng or random.Random(0)
    sol = repair(ctx, WorkingSolution(), list(ctx.inst.customer_ids), set(), rng)
    assert sol is not None
    return sol


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        LnsParams(p1=101)
    with pytest.raises(ValueError):
        LnsParams(i_max=0)
    with pytest.raises(ValueError):
        LnsParams(t_max=None, max_restarts=None)
    p = LnsParams()
    assert (p.p1, p.p2, p.p3_hat, p.p4_hat, p.granularity, p.i_max) == (11, 37, 12, 18, 25, 385)


@pytest.mark.parametrize("t_max", [-1.0, 0.0, float("nan"), float("-inf"), float("inf")])
def test_params_refuse_nonpositive_time_limit(t_max):
    with pytest.raises(ValueError, match="t_max"):
        LnsParams(t_max=t_max)
    with pytest.raises(ValueError, match="t_max"):
        LnsParams(t_max=t_max, max_restarts=1)  # a restart budget does not excuse it
    assert LnsParams(t_max=1e-9).t_max == 1e-9
    assert LnsParams(t_max=None, max_restarts=1).t_max is None


# ---------------------------------------------------------------------------
# destroy operators
# ---------------------------------------------------------------------------


def _mk_state(n_c=21, seed=1, n_s=2):
    rng = random.Random(seed)
    inst = random_instance(
        rng, n_c=n_c, n_s=n_s, n_r=3, span=200, battery=600, q2=60, m2_local=15, m2=30
    )
    ctx = _ctx(inst)
    return ctx, _built(ctx, rng), rng


def test_related_removal_cap_and_partition():
    ctx, sol, rng = _mk_state(n_c=21)
    # ceil(11 * 21 / 100) = 3
    counts = set()
    for _ in range(200):
        trial = sol.clone()
        pending = []
        destroy_related(ctx, trial, pending, rng, 11)
        counts.add(len(pending))
        assert 1 <= len(pending) <= 3
        assert len(set(pending)) == len(pending)
        routed = [c for r in trial.routes for c in r.customers]
        assert sorted(routed + pending) == sorted(ctx.inst.customer_ids)
    assert counts == {1, 2, 3}  # removal count spans [1, cap]


def test_related_removal_removes_nearest_neighbors():
    ctx, sol, _ = _mk_state(n_c=12)
    rng = random.Random(9)
    for _ in range(20):
        trial = sol.clone()
        pending = []
        destroy_related(ctx, trial, pending, rng, 100)  # cap = n_c
        kept = [c for r in trial.routes for c in r.customers]
        if len(pending) <= 1 or not kept:
            continue
        # some removed customer is the seed: everything removed sits at least
        # as close to it as anything kept
        def is_seed(s):
            d_removed = max(ctx.inst.dist[s][c] for c in pending if c != s)
            return d_removed <= min(ctx.inst.dist[s][c] for c in kept)

        assert any(is_seed(s) for s in pending)


def test_route_removal_bounds():
    ctx, sol, rng = _mk_state()
    inst = ctx.inst
    hi = -(-37 * inst.total_demand // (100 * inst.q2_capacity))
    for _ in range(100):
        trial = sol.clone()
        pending = []
        destroy_routes(ctx, trial, pending, rng, 37)
        removed_routes = len(sol.routes) - len(trial.routes)
        assert 0 <= removed_routes <= min(hi, len(sol.routes))
        assert len(pending) == sum(len(r.customers) for r in sol.routes) - sum(
            len(r.customers) for r in trial.routes
        )


def test_close_satellite_single_satellite_is_noop():
    rng = random.Random(3)
    inst = random_instance(rng, n_c=8, n_s=1, n_r=2, span=100, battery=400, q2=60)
    ctx = _ctx(inst)
    sol = _built(ctx, rng)
    closed = set()
    for _ in range(20):
        trial = sol.clone()
        pending = []
        close_satellite(ctx, trial, pending, closed, rng)
        assert closed == set() and pending == []


def test_close_satellite_guard_and_effect():
    ctx, sol, rng = _mk_state(n_s=3)
    closed = set()
    for _ in range(50):
        trial = sol.clone()
        pending = []
        close_satellite(ctx, trial, pending, closed, rng)
        if closed:
            k = next(iter(closed))
            assert all(r.satellite != k for r in trial.routes)
            # remaining capacity still covers the demand
            rest = [s for s in ctx.inst.satellite_ids if s not in closed]
            cover = sum(
                ctx.inst.satellite_by_id[s].m2_local * ctx.inst.q2_capacity for s in rest
            )
            assert cover >= ctx.inst.total_demand
            break


def test_open_all_satellites_probability_edges():
    rng = random.Random(11)
    closed = {1, 2}
    open_all_satellites(closed, rng, 0)
    assert closed == {1, 2}
    open_all_satellites(closed, rng, 100)
    assert closed == set()


def test_remove_singletons():
    inst = make_instance(
        satellites=((1, (0, 0), None, 9),),
        customers=((2, (10, 0), 5), (3, (20, 0), 5), (4, (30, 0), 5)),
        q2=50,
        q1=100,
        battery=None,
    )
    ctx = _ctx(inst)
    sol = WorkingSolution(
        [WorkingRoute(1, [2], 5), WorkingRoute(1, [3], 5), WorkingRoute(1, [4, 2], 10)]
    )
    rng = random.Random(0)
    pending = []
    remove_singleton_routes(sol, pending, rng, 100)
    assert sorted(pending) == [2, 3]
    assert len(sol.routes) == 1
    sol2 = WorkingSolution([WorkingRoute(1, [4, 2], 10)])
    pending2 = []
    remove_singleton_routes(sol2, pending2, rng, 100)
    assert pending2 == []  # no singletons: no-op


def test_probability_frequency():
    rng = random.Random(5)
    fires = 0
    trials = 4000
    for _ in range(trials):
        closed = {1}
        open_all_satellites(closed, rng, 18)
        fires += not closed
    assert abs(fires / trials - 0.18) < 0.02


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def test_repair_from_empty_covers_all_customers():
    rng = random.Random(2)
    inst = random_instance(rng, n_c=10, n_s=2, n_r=2, span=150, battery=400, q2=50)
    ctx = _ctx(inst)
    sol = repair(ctx, WorkingSolution(), list(inst.customer_ids), set(), rng)
    assert sol is not None
    covered = sorted(c for r in sol.routes for c in r.customers)
    assert covered == sorted(inst.customer_ids)
    assert all(r.plan is not None for r in sol.routes)
    # flow balance: first level delivers exactly the dispatched quantities
    dem = sol.sat_demand()
    delivered = {}
    for fr in sol.first_level:
        for s, q in fr.stops:
            delivered[s] = delivered.get(s, 0) + q
    assert delivered == {k: v for k, v in dem.items() if v > 0}


def test_repair_result_battery_clean_or_penalized():
    rng = random.Random(6)
    for _ in range(20):
        inst = random_instance(rng, n_c=8, n_s=1, n_r=1, span=200, battery=250, q2=60)
        ctx = _ctx(inst)
        sol = repair(ctx, WorkingSolution(), list(inst.customer_ids), set(), rng)
        if sol is None:
            continue
        for r in sol.routes:
            assert r.plan.feasible or r.plan.excess > 0


def test_repair_respects_closed_satellites():
    ctx, sol, rng = _mk_state(n_s=3)
    closed = {ctx.inst.satellite_ids[0]}
    rebuilt = repair(ctx, WorkingSolution(), list(ctx.inst.customer_ids), closed, rng)
    assert rebuilt is not None
    assert all(r.satellite not in closed for r in rebuilt.routes)


def test_full_truckload_preprocessing():
    inst = make_instance(
        satellites=((1, (100, 0), None, 30), (2, (0, 100), None, 30)),
        customers=tuple((i, (100 + i, i), 60) for i in range(10, 20)),
        q2=120,
        q1=250,
        m1=6,
        m2=60,
        battery=None,
    )
    routes, dist = build_first_level(inst, {1: 600, 2: 100})
    full_trips = [r for r in routes if r.stops == ((1, 250),)]
    assert len(full_trips) == 2  # 600 = 250 + 250 + residual 100
    assert sum(q for r in routes for s, q in r.stops if s == 1) == 600
    assert sum(q for r in routes for s, q in r.stops if s == 2) == 100
    assert dist > 0


def test_first_level_fleet_limit():
    inst = make_instance(
        satellites=((1, (50, 0), None, 30),),
        customers=((9, (60, 0), 10),),
        q2=100,
        q1=120,
        m1=1,
        battery=None,
    )
    with pytest.raises(ValueError, match="exceed 1 first-level load"):
        build_first_level(inst, {1: 500})  # needs 5 trips, fleet has 1


def _random_vector(rng, satellites, total):
    """``total`` spread over ``satellites`` at random cut points (zeros allowed)."""
    cuts = sorted(rng.randint(0, total) for _ in satellites[1:])
    return {k: b - a for k, a, b in zip(satellites, [0, *cuts], [*cuts, total])}


def test_first_level_carries_every_vector_that_fits_the_fleet():
    """With split deliveries a demand vector has a first level with at most
    m1 trucks iff its total fits m1 loads of Q1; where the cheapest-insertion
    packing alone finds one, that packing is kept."""
    rng = random.Random(26)
    split = kept = 0
    for _ in range(400):
        q1, m1, n_s = rng.randint(2, 30), rng.randint(1, 5), rng.randint(1, 6)
        inst = make_instance(
            satellites=tuple(
                (k, (rng.randint(-300, 300), rng.randint(-300, 300)), None, 1)
                for k in range(1, n_s + 1)
            ),
            q1=q1,
            q2=1,
            m1=m1,
            f1=rng.choice((0, 50)),
        )
        fleet = m1 * q1
        total = rng.choice((fleet, fleet - rng.randint(0, q1), rng.randint(0, fleet)))
        demands = _random_vector(rng, inst.satellite_ids, total)
        routes, distance = build_first_level(inst, demands)
        assert len(routes) <= m1
        delivered = dict.fromkeys(inst.satellite_ids, 0)
        for r in routes:
            assert all(q > 0 for _, q in r.stops)
            assert sum(q for _, q in r.stops) <= q1
            assert len({s for s, _ in r.stops}) == len(r.stops)
            for s, q in r.stops:
                delivered[s] += q
        assert delivered == demands
        tours = [[0, *(s for s, _ in r.stops), 0] for r in routes]
        assert distance == sum(inst.dist[a][b] for t in tours for a, b in zip(t, t[1:]))
        greedy = first_level_greedy_reference(inst, demands)
        if greedy is None:
            split += 1
        else:
            kept += 1
            assert (routes, distance) == greedy
        over = _random_vector(rng, inst.satellite_ids, fleet + rng.randint(1, q1))
        with pytest.raises(ValueError):
            build_first_level(inst, over)
    assert split >= 20 and kept >= 100  # both paths ran


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_zero_customer_instance_returns_empty():
    inst = make_instance(customers=(), q2=50, q1=100)
    sol, stats = lns_run(inst, LnsParams(t_max=None, max_restarts=1))
    assert sol.cost.total == 0 and sol.second_level_routes == ()
    assert stats.best_cost == 0


def test_outputs_always_feasible():
    rng = random.Random(14)
    for seed in range(3):
        inst = random_instance(
            rng, n_c=12, n_s=2, n_r=2, span=150, battery=300, q2=60, m2_local=8, m2=16
        )
        sol, _ = lns_run(inst, LnsParams(t_max=None, max_restarts=1, i_max=25, seed=seed))
        assert check_feasibility(inst, sol) == []


def test_determinism_same_seed():
    rng = random.Random(15)
    inst = random_instance(rng, n_c=14, n_s=2, n_r=3, span=200, battery=400, q2=60)
    params = LnsParams(t_max=None, max_restarts=2, i_max=30, seed=42)
    sol1, st1 = lns_run(inst, params)
    sol2, st2 = lns_run(inst, params)
    assert sol1 == sol2
    assert st1.deterministic_fields() == st2.deterministic_fields()


def test_different_seeds_usually_differ():
    rng = random.Random(16)
    inst = random_instance(rng, n_c=14, n_s=2, n_r=3, span=200, battery=400, q2=60)
    sols = set()
    for seed in range(4):
        sol, _ = lns_run(inst, LnsParams(t_max=None, max_restarts=1, i_max=15, seed=seed))
        sols.add(sol.cost.total)
    assert len(sols) >= 1  # smoke: runs complete; costs may legitimately tie


def test_construction_error_when_fleet_impossible():
    inst = make_instance(
        satellites=((1, (0, 0), None, 1),),
        customers=((2, (10, 0), 40), (3, (20, 0), 40)),
        q2=50,
        q1=100,
        m2=1,  # one vehicle, two routes needed
        battery=None,
    )
    with pytest.raises(
        ConstructionError, match="before any restart: the second-level fleet can carry at most 50 "
    ):
        lns_run(inst, LnsParams(t_max=None, max_restarts=2, i_max=5))
    # three second-level routes fit, but their 120 units need two trucks
    inst = make_instance(
        satellites=((1, (0, 0), None, 3),),
        customers=((2, (10, 0), 40), (3, (20, 0), 40), (4, (30, 0), 40)),
        q2=50,
        q1=100,
        m1=1,
        battery=None,
    )
    with pytest.raises(ConstructionError, match="before any restart: the first-level fleet of 1 "):
        lns_run(inst, LnsParams(t_max=None, max_restarts=2, i_max=5))
    # 90 units pass both fleet checks (two vehicles carry 100), but no two
    # customers of 30 share a vehicle of 50: the packing needs three routes
    inst = make_instance(
        satellites=((1, (0, 0), None, 3),),
        customers=((2, (10, 0), 30), (3, (20, 0), 30), (4, (30, 0), 30)),
        q2=50,
        q1=100,
        m2=2,
        battery=None,
    )
    with pytest.raises(
        ConstructionError, match=r"failed in all 2 restart\(s\): second-level insertion"
    ):
        lns_run(inst, LnsParams(t_max=None, max_restarts=2, i_max=5))


def test_unreachable_customer_fails_fast():
    from e2evrp.model import unservable_customers

    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (10, 0), 5), (3, (500, 0), 5)),  # 3 is out of range
        stations=((4, (40, 0)),),
        q2=50,
        q1=100,
        battery=200,
    )
    assert unservable_customers(inst) == [3]
    with pytest.raises(ConstructionError, match="customer.*3.*cannot be reached"):
        lns_run(inst, LnsParams(t_max=None, max_restarts=1, i_max=5))


def test_time_budget_respected():
    import time

    rng = random.Random(17)
    inst = random_instance(rng, n_c=25, n_s=2, n_r=4, span=400, battery=700, q2=80)
    t0 = time.monotonic()
    lns_run(inst, LnsParams(t_max=1.0, seed=1))
    assert time.monotonic() - t0 < 8.0  # budget plus construction slack


def test_golden_first_fit_solve():
    """The split first level is pinned: FIRST_FIT is solved only through it."""
    restarts, i_max, seed, fields, digest, work = golden.FIRST_FIT_SOLVE
    assert golden.first_fit(restarts, i_max, seed) == (fields, digest, work)


# The ids name a solve by its instance, seeds and solution digest alone, so
# that pinning more of a run (the work column) keeps the names of the tests.
@pytest.mark.parametrize(
    "customers, stations, seed, i_max, fields, digest, work",
    golden.SOLVES,
    ids=[f"{c}-{s}-{seed}-{i}-fields{n}-{d}" for n, (c, s, seed, i, _, d, _) in enumerate(golden.SOLVES)],
)
def test_golden_metro_solves(customers, stations, seed, i_max, fields, digest, work):
    """The benchmark's metro solves (instance seed 1, one restart) are pinned,
    with the handler calls and charging-DP runs of local search on the way: a
    change to the search that should keep its path must keep these."""
    got_fields, got_digest, got_work = golden.solve(customers, stations, seed, i_max)
    assert got_fields == fields
    assert got_digest == digest
    assert got_work == work
