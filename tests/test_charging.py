import random
from dataclasses import astuple

from e2evrp import search
from e2evrp.charging import (
    best_insertion,
    insertion_lower_bound,
    visits_with_stations,
)
from e2evrp.lns import LnsParams, lns_run
from e2evrp.multigraph import build_multigraph, reduce_by_dominance, reduced_multigraph

from oracles import (
    best_insertion_reference,
    brute_force_insertion,
    dense_insertion_cost,
    make_instance,
    metro_instance,
    random_instance,
)


def _graph(inst, reduced=True):
    g = build_multigraph(inst)
    return reduce_by_dominance(g) if reduced else g


def test_no_detour_needed_when_direct_trace_fits():
    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (30, 0), 5), (3, (60, 0), 5)),
        stations=((4, (30, 30)),),
        q2=50,
        q1=100,
        battery=150,
    )
    res = best_insertion(inst, _graph(inst), 1, [2, 3])
    assert res.feasible and res.stations == ()
    assert res.cost == 30 + 30 + 60


def test_empty_sequence_costs_nothing():
    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (30, 0), 5),),
        q2=50,
        q1=100,
        battery=100,
    )
    res = best_insertion(inst, _graph(inst), 1, [])
    assert res.feasible and res.cost == 0 and res.stations == ()


def test_two_leg_corridor_against_enumeration():
    # satellite (0,0), customers (90,0) and (180,0), station (90,10)
    def build(battery):
        return make_instance(
            satellites=((1, (0, 0), None, 5),),
            customers=((2, (90, 0), 10), (3, (180, 0), 10)),
            stations=((4, (90, 10)),),
            q2=50,
            q1=100,
            battery=battery,
        )

    tight = build(100)
    res = best_insertion(tight, _graph(tight), 1, [2, 3])
    exc, cost = brute_force_insertion(tight, 1, [2, 3])
    assert cost is None and not res.feasible
    exc_p, cost_p = brute_force_insertion(tight, 1, [2, 3], penalized=True)
    assert (res.excess, res.cost) == (exc_p, cost_p)

    wide = build(200)
    res = best_insertion(wide, _graph(wide), 1, [2, 3])
    exc, cost = brute_force_insertion(wide, 1, [2, 3])
    assert exc == 0 and res.feasible and res.cost == cost
    # reconstruction must pass the model battery check
    from e2evrp.model import SecondLevelRoute, Solution, FirstLevelRoute, CostBreakdown, check_feasibility, evaluate_cost

    visits = visits_with_stations([2, 3], res.stations)
    route = SecondLevelRoute(1, visits, 20)
    sol = Solution((FirstLevelRoute(((1, 20),)),), (route,), CostBreakdown(0, 0, 0, 0))
    sol = Solution(sol.first_level_routes, sol.second_level_routes, evaluate_cost(wide, sol))
    assert check_feasibility(wide, sol) == []
    assert sol.cost.level2_distance == res.cost


def test_randomized_equality_with_enumeration():
    rng = random.Random(2024)
    for trial in range(150):
        n_c = rng.randint(1, 6)
        inst = random_instance(
            rng,
            n_c=n_c,
            n_s=1,
            n_r=rng.randint(0, 3),
            span=80,
            battery=rng.randint(40, 400),
        )
        sat = inst.satellite_ids[0]
        seq = list(inst.customer_ids)
        rng.shuffle(seq)
        seq = seq[: rng.randint(1, n_c)]
        g = _graph(inst)
        res = best_insertion(inst, g, sat, seq)
        exc, cost = brute_force_insertion(inst, sat, seq)
        if cost is None or exc > 0:
            assert not res.feasible
        else:
            assert res.feasible and res.cost == cost
        exc_p, cost_p = brute_force_insertion(inst, sat, seq, penalized=True)
        assert (res.excess, res.cost) == (exc_p, cost_p)


def test_dense_table_equivalence():
    rng = random.Random(99)
    for _ in range(40):
        inst = random_instance(
            rng, n_c=rng.randint(1, 5), n_s=1, n_r=2, span=60, battery=rng.randint(30, 250)
        )
        sat = inst.satellite_ids[0]
        seq = list(inst.customer_ids)
        rng.shuffle(seq)
        res = best_insertion(inst, _graph(inst), sat, seq)
        dense = dense_insertion_cost(inst, sat, seq)
        assert (res.cost if res.feasible else None) == dense


def test_reduced_and_unreduced_bundles_agree():
    rng = random.Random(41)
    for _ in range(60):
        inst = random_instance(
            rng, n_c=5, n_s=2, n_r=3, span=90, battery=rng.randint(60, 300)
        )
        sat = rng.choice(inst.satellite_ids)
        seq = list(inst.customer_ids)
        rng.shuffle(seq)
        seq = seq[: rng.randint(1, 5)]
        full = best_insertion(inst, _graph(inst, reduced=False), sat, seq)
        red = best_insertion(inst, _graph(inst, reduced=True), sat, seq)
        assert full.feasible == red.feasible
        assert full.cost == red.cost


def test_unreachable_pair_penalty_formula():
    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (10, 0), 5), (3, (200, 0), 5)),
        q2=50,
        q1=100,
        battery=50,
    )
    pen = best_insertion(inst, _graph(inst), 1, [2, 3])
    total = 10 + 190 + 200
    assert pen.cost == total
    assert pen.excess == total - 50
    assert pen.penalty == (total - 50) * inst.big_m


def test_penalty_lexicographically_dominates_distance():
    rng = random.Random(4)
    for _ in range(20):
        inst = random_instance(rng, n_c=5, n_s=1, n_r=2, span=90, battery=100)
        # any assignment with excess costs more than any feasible route can
        longest_possible = sum(
            inst.dist[a][b] for a in inst.positions for b in inst.positions
        )
        assert inst.big_m > longest_possible


def test_adding_station_never_increases_cost():
    rng = random.Random(31)
    for _ in range(30):
        inst = random_instance(rng, n_c=4, n_s=1, n_r=1, span=80, battery=150)
        sat = inst.satellite_ids[0]
        seq = list(inst.customer_ids)
        rng.shuffle(seq)
        base = best_insertion(inst, _graph(inst), sat, seq)
        from e2evrp.model import Station

        richer = make_instance(
            satellites=tuple((s.id, s.location, s.capacity, s.m2_local) for s in inst.satellites),
            customers=tuple((c.id, c.location, c.demand) for c in inst.customers),
            stations=tuple((r.id, r.location) for r in inst.stations)
            + ((99, (rng.randrange(80), rng.randrange(80))),),
            q2=inst.q2_capacity,
            q1=inst.q1_capacity,
            battery=inst.battery_capacity,
        )
        more = best_insertion(richer, _graph(richer), sat, seq)
        if base.feasible:
            assert more.feasible and more.cost <= base.cost


def test_best_insertion_falls_back_to_penalized():
    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (10, 0), 5), (3, (200, 0), 5)),
        q2=50,
        q1=100,
        battery=50,
    )
    res = best_insertion(inst, _graph(inst), 1, [2, 3])
    assert not res.feasible and res.cost is not None and res.excess > 0


def test_insertion_lower_bound_never_exceeds_the_plan():
    """The cheapest row of each leg bounds ``cost + penalty`` of the plan from
    below: on roomy and tight batteries, on legs whose bundle is empty (the
    penalized fallback rides the raw leg), and on eager and lazy graphs.  With
    an unconstrained battery it is the plan's cost."""
    rng = random.Random(1803)
    covered = {"penalized": 0, "empty_leg": 0, "below": 0, "unconstrained": 0}
    for _ in range(300):
        battery = rng.choice([None, 40, 80, 150, 400])
        inst = random_instance(
            rng, n_c=rng.randint(1, 7), n_s=rng.randint(1, 2), n_r=rng.randint(0, 3),
            span=100, battery=battery,
        )
        sat = rng.choice(inst.satellite_ids)
        seq = list(inst.customer_ids)
        rng.shuffle(seq)
        seq = seq[: rng.randint(0, len(seq))]
        for graph in (_graph(inst), reduced_multigraph(inst), _graph(inst, reduced=False)):
            plan = best_insertion(inst, graph, sat, seq)
            bound = insertion_lower_bound(inst, graph, sat, seq)
            assert bound <= plan.cost + plan.penalty
            if battery is None:
                assert bound == plan.cost and plan.penalty == 0
            if not seq:
                assert bound == 0
        legs = list(zip([sat, *seq], [*seq, sat]))
        covered["penalized"] += not plan.feasible
        covered["empty_leg"] += bool(seq) and any(not graph.arcs(i, j) for i, j in legs)
        covered["below"] += bound < plan.cost
        covered["unconstrained"] += battery is None and bool(seq)
    assert min(covered.values()) >= 10, covered

    # two legs of this route are out of range: the bound rides them raw, as the plan does
    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (10, 0), 5), (3, (200, 0), 5)),
        q2=50,
        q1=100,
        battery=50,
    )
    plan = best_insertion(inst, _graph(inst), 1, [2, 3])
    assert insertion_lower_bound(inst, _graph(inst), 1, [2, 3]) == plan.cost == 10 + 190 + 200


def test_one_pass_matches_two_pass_reference(monkeypatch):
    """The one-pass DP returns what the two-pass reference returns on every
    field, stations included, so a changed tie-break between equal-cost
    placements fails here: on random draws with no, tight and roomy batteries,
    legs with empty bundles and 1-3 satellites, each on eager, lazy and raw
    graphs, and on every plan ``lns_run`` requests on the ``bound-m10`` and
    ``solve-m50`` benchmark instances."""
    rng = random.Random(1107)
    covered = {"penalized": 0, "empty_leg": 0, "stations": 0, "unconstrained": 0}
    for _ in range(1000):
        battery = rng.choice([None, 40, 80, 150, 400])
        inst = random_instance(
            rng, n_c=rng.randint(1, 7), n_s=rng.randint(1, 3), n_r=rng.randint(0, 3),
            span=rng.choice([30, 100]), battery=battery,
        )
        sat = rng.choice(inst.satellite_ids)
        seq = list(inst.customer_ids)
        rng.shuffle(seq)
        seq = seq[: rng.randint(0, len(seq))]
        for graph in (_graph(inst), reduced_multigraph(inst), _graph(inst, reduced=False)):
            plan = best_insertion(inst, graph, sat, seq)
            reference = best_insertion_reference(inst, graph, sat, seq)
            assert astuple(plan) == astuple(reference), (inst.name, seq)
        legs = list(zip([sat, *seq], [*seq, sat]))
        covered["penalized"] += not plan.feasible
        covered["empty_leg"] += bool(seq) and any(not graph.arcs(i, j) for i, j in legs)
        covered["stations"] += bool(plan.stations)
        covered["unconstrained"] += battery is None and bool(seq)
    assert min(covered.values()) >= 40, covered

    compared = []

    def both(inst, graph, satellite, customers):
        plan = best_insertion(inst, graph, satellite, customers)
        assert astuple(plan) == astuple(best_insertion_reference(inst, graph, satellite, customers))
        compared.append(plan)
        return plan

    monkeypatch.setattr(search, "best_insertion", both)
    for customers, stations, seeds in ((10, 5, (1,)), (50, 20, (2, 3, 4))):
        inst = metro_instance(customers, stations)
        for seed in seeds:
            lns_run(inst, LnsParams(t_max=None, max_restarts=1, i_max=20, seed=seed))
    assert len(compared) >= 3000
    assert sum(bool(plan.stations) for plan in compared) >= 1000


def test_visits_with_stations_interleaving():
    assert visits_with_stations([7, 8], [(1, 40), (3, 41)]) == (40, 7, 8, 41)
    assert visits_with_stations([7], []) == (7,)
    assert visits_with_stations([], []) == ()
