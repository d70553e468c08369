import random

import pytest

from e2evrp.model import DEPOT_ID, SecondLevelRoute, evaluate_cost, Solution, FirstLevelRoute, CostBreakdown
from e2evrp.multigraph import Multigraph, build_multigraph, reduce_by_dominance, reduced_multigraph
from e2evrp.search import SolverContext

import golden
from oracles import (
    expand_arc_route,
    make_instance,
    metro_instance,
    multigraph_csv,
    multigraph_reference,
    random_instance,
    reduce_bundle,
    removable,
    sort_key,
)


def _corner_instance(battery):
    return make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (100, 0), 10),),
        stations=((3, (50, 50)),),
        q2=50,
        q1=100,
        battery=battery,
    )


def test_direct_and_via_arcs_from_definition():
    inst = _corner_instance(200)
    g = build_multigraph(inst)
    bundle = g.arcs(1, 2)
    assert len(bundle) == 2
    by_station = {station: (cost, cons, leg) for cost, cons, station, leg in bundle}
    assert by_station[None][:2] == (100, 100)
    assert by_station[3] == (71 + 71, 71, 71)


def test_range_filter_empties_bundle():
    inst = _corner_instance(60)  # direct needs 100, via approach needs 71
    g = build_multigraph(inst)
    assert g.arcs(1, 2) == ()


def test_admissible_pairs_only():
    inst = make_instance(
        satellites=((1, (0, 0), None, 5), (2, (10, 0), None, 5)),
        customers=((3, (5, 5), 10),),
        stations=((4, (2, 2)),),
        q2=50,
        q1=100,
        battery=1000,
    )
    g = build_multigraph(inst)
    pairs = set(g.pairs())
    assert (1, 2) not in pairs and (2, 1) not in pairs  # satellite-satellite excluded
    assert all(4 not in p for p in pairs)  # stations only live inside arcs
    assert (3, 3) not in pairs
    assert (1, 3) in pairs and (3, 2) in pairs


def test_bundle_size_bound():
    rng = random.Random(11)
    for _ in range(10):
        inst = random_instance(rng, n_c=5, n_s=2, n_r=3, battery=400)
        g = build_multigraph(inst)
        cap = len(inst.stations) + len(inst.satellites) + 1
        for i, j in g.pairs():
            assert 1 <= len(g.arcs(i, j)) <= cap


def test_arc_invariants_hold():
    rng = random.Random(5)
    for _ in range(10):
        inst = random_instance(rng, n_c=6, n_s=2, n_r=3, battery=180)
        limit = inst.battery_capacity
        g = build_multigraph(inst)
        for i, j in g.pairs():
            for cost, consumption, station, station_leg in g.arcs(i, j):
                if station is None:
                    assert cost == inst.dist[i][j]
                    assert consumption == inst.dist[i][j] <= limit
                else:
                    k = station
                    assert cost == inst.dist[i][k] + inst.dist[k][j]
                    assert consumption == inst.dist[k][j] <= limit
                    assert station_leg == inst.dist[i][k] <= limit


def test_unconstrained_battery_builds_direct_only():
    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (100, 0), 10),),
        stations=((3, (50, 50)),),
        q2=50,
        q1=100,
        battery=None,
    )
    g = build_multigraph(inst)
    assert all(station is None for i, j in g.pairs() for _, _, station, _ in g.arcs(i, j))


# ---------------------------------------------------------------------------
# dominance reduction
# ---------------------------------------------------------------------------


def test_satellite_tail_componentwise_domination():
    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (100, 0), 10),),
        stations=((3, (50, 10)), (4, (50, 40))),
        q2=50,
        q1=100,
        battery=400,
    )
    g = reduce_by_dominance(build_multigraph(inst))
    kept = {station for _, _, station, _ in g.arcs(1, 2)}
    assert 4 not in kept  # strictly worse in both cost and consumption
    assert None in kept and 3 in kept


def test_customer_tail_rule_needs_all_three_comparisons():
    # synthetic (cost, consumption, station, station_leg) rows: equal (cost,
    # consumption), different approach legs
    r1 = (100, 40, 5, 60)
    r2 = (100, 40, 6, 30)
    assert removable(r1, r2, tail_is_satellite=False)  # all three hold for r2
    assert not removable(r2, r1, tail_is_satellite=False)
    r3 = (100, 50, 7, 20)
    # r3 has higher consumption but lower approach: incomparable both ways
    assert not removable(r3, r2, tail_is_satellite=False)
    assert not removable(r2, r3, tail_is_satellite=False)


def test_customer_tail_rule_never_touches_direct_arcs():
    direct = (100, 100, None, 0)
    via = (100, 10, 5, 10)
    assert not removable(direct, via, tail_is_satellite=False)
    assert not removable(via, direct, tail_is_satellite=False)
    # at a satellite tail the comparison is allowed
    assert removable(direct, via, tail_is_satellite=True)


def test_full_tie_keeps_exactly_one():
    a = (80, 30, 5, 50)
    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (10, 0), 10),),
        q2=50,
        q1=100,
        battery=500,
    )
    # b first ties a on every compared field, then differs from it only by a
    # smaller station leg, which only a customer tail compares
    for b, kept_at_customer in (((80, 30, 6, 50), a), ((80, 30, 6, 10), (80, 30, 6, 10))):
        g = reduce_by_dominance(Multigraph(inst, lambda i, j: (a, b)))
        assert g.arcs(1, 2) == (a,)  # lexicographically smallest station id wins
        assert g.arcs(2, 1) == (kept_at_customer,)


def test_single_arc_bundle_unchanged():
    inst = _corner_instance(120)
    g = build_multigraph(inst)
    red = reduce_by_dominance(g)
    for i, j in g.pairs():
        if len(g.arcs(i, j)) == 1:
            assert red.arcs(i, j) == g.arcs(i, j)


def test_reduction_is_subset_and_deterministic():
    rng = random.Random(3)
    for _ in range(8):
        inst = random_instance(rng, n_c=6, n_s=2, n_r=4, battery=250)
        g = build_multigraph(inst)
        r1 = reduce_by_dominance(g)
        r2 = reduce_by_dominance(build_multigraph(inst))
        for i, j in g.pairs():
            assert set(r1.arcs(i, j)) <= set(g.arcs(i, j))
            assert r1.arcs(i, j) == r2.arcs(i, j)
            assert len(r1.arcs(i, j)) >= 1


# ---------------------------------------------------------------------------
# arc-route expansion
# ---------------------------------------------------------------------------


def _expandable_instance():
    return make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (60, 0), 10), (3, (120, 0), 15)),
        stations=((4, (90, 10)),),
        q2=50,
        q1=100,
        battery=200,
        f1=0,
        f2=0,
    )


def test_expand_direct_route_is_identity():
    inst = _expandable_instance()
    g = build_multigraph(inst)
    legs = [(i, j, next(a for a in g.arcs(i, j) if a[2] is None)) for i, j in ((1, 2), (2, 3), (3, 1))]
    route = expand_arc_route(inst, legs)
    assert route.visits == (2, 3)
    assert route.load == 25


def test_expand_via_arc_inserts_station_and_preserves_cost():
    inst = _expandable_instance()
    g = build_multigraph(inst)
    via = next(a for a in g.arcs(2, 3) if a[2] == 4)
    direct_12 = next(a for a in g.arcs(1, 2) if a[2] is None)
    direct_31 = next(a for a in g.arcs(3, 1) if a[2] is None)
    legs = [(1, 2, direct_12), (2, 3, via), (3, 1, direct_31)]
    route = expand_arc_route(inst, legs)
    assert route.visits == (2, 4, 3)
    sol = Solution(
        (FirstLevelRoute(((1, 25),)),),
        (route,),
        CostBreakdown(0, 0, 0, 0),
    )
    cost = evaluate_cost(inst, sol)
    assert cost.level2_distance == sum(arc_cost for _, _, (arc_cost, _, _, _) in legs)


def test_expansion_never_yields_adjacent_stations():
    rng = random.Random(19)
    for _ in range(20):
        inst = random_instance(rng, n_c=5, n_s=1, n_r=3, battery=300)
        g = reduce_by_dominance(build_multigraph(inst))
        sat = inst.satellite_ids[0]
        custs = list(inst.customer_ids)
        rng.shuffle(custs)
        custs = custs[: rng.randint(1, len(custs))]
        seq = [sat, *custs, sat]
        legs = []
        ok = True
        for a, b in zip(seq, seq[1:]):
            bundle = g.arcs(a, b)
            if not bundle:
                ok = False
                break
            legs.append((a, b, rng.choice(bundle)))
        if not ok:
            continue
        route = expand_arc_route(inst, legs)
        charging = set(inst.charging_ids)
        for u, v in zip(route.visits, route.visits[1:]):
            assert not (u in charging and v in charging)


def test_expand_rejects_broken_chain():
    inst = _expandable_instance()
    g = build_multigraph(inst)
    with pytest.raises(ValueError, match="chain"):
        expand_arc_route(inst, [(1, 2, g.arcs(1, 2)[0]), (3, 1, g.arcs(3, 1)[0])])
    with pytest.raises(ValueError, match="empty"):
        expand_arc_route(inst, [])


def test_csv_dump_format():
    inst = _corner_instance(200)
    g = build_multigraph(inst)
    lines = multigraph_csv(g).strip().splitlines()
    assert lines[0] == "tail,head,p,cost,consumption,station"
    assert any(line.startswith("1,2,1,") for line in lines[1:])


# ---------------------------------------------------------------------------
# sweep against the pairwise reference, and golden bundles
# ---------------------------------------------------------------------------


def _synthetic_bundle(rng):
    """Random bundle with at most one arc per station, as built graphs have.

    Small value ranges force full ties and equal (cost, consumption) with
    different approach legs; costs are drawn apart from leg + consumption.
    """
    stations = rng.sample(range(1, 40), rng.randint(1, 10))
    if rng.random() < 0.6:
        stations.append(None)
    arcs = []
    for st in stations:
        cost, cons = rng.randint(0, 5), rng.randint(0, 5)
        if st is None:
            arcs.append((cost, cons, None, 0))
        else:
            arcs.append((cost, cons, st, rng.randint(0, 5)))
    if rng.random() < 0.5:
        arcs.sort(key=sort_key)
    else:
        rng.shuffle(arcs)
    return tuple(arcs)


def test_sweep_matches_pairwise_reference():
    inst = _corner_instance(500)
    rng = random.Random(23)
    seen = {"full_tie": 0, "leg_only_differs": 0, "satellite_leg_only_differs": 0, "customer_direct": 0}
    # a full tie: equal on every field the rule compares at that tail kind
    for n in range(3000):
        tail_is_satellite = n % 2 == 0
        tail, head = (1, 2) if tail_is_satellite else (2, 1)
        bundle = _synthetic_bundle(rng)
        got = reduce_by_dominance(Multigraph(inst, lambda i, j: bundle)).arcs(tail, head)
        assert got == reduce_bundle(bundle, tail_is_satellite), (tail_is_satellite, bundle)
        via = [a for a in bundle if a[2] is not None]
        if tail_is_satellite:
            fields = [(cost, cons) for cost, cons, _, _ in bundle]
        else:
            fields = [(cost, cons, leg) for cost, cons, _, leg in via]
        seen["full_tie"] += len(set(fields)) < len(fields)
        leg_only_differs = any(a[:2] == b[:2] and a[3] != b[3] for a in via for b in via)
        seen["leg_only_differs"] += leg_only_differs
        seen["satellite_leg_only_differs"] += tail_is_satellite and leg_only_differs
        seen["customer_direct"] += not tail_is_satellite and len(via) < len(bundle)
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("customers, stations, built, kept, digest", golden.MULTIGRAPH)
def test_golden_metro_multigraph(customers, stations, built, kept, digest):
    got_built, got_kept, got_digest = golden.multigraph(customers, stations)
    assert (got_built, got_kept) == (built, kept)
    assert got_digest == digest


# ---------------------------------------------------------------------------
# the graphs against their definition, and the lazy graph
# ---------------------------------------------------------------------------


def _assert_forced_lazy_equals_eager(inst):
    """Read every ordered vertex pair from a fresh lazy graph and compare it,
    row for row, with the eagerly built and reduced graph and with the
    bundles built from the definition (the raw graph too); returns the
    number of pairs whose reduction dropped an arc."""
    full = build_multigraph(inst)
    eager = reduce_by_dominance(full)
    lazy = reduced_multigraph(inst)
    want_full = multigraph_reference(inst, reduced=False)
    want = multigraph_reference(inst, reduced=True)
    ids = [DEPOT_ID, *inst.satellite_ids, *inst.customer_ids, *inst.station_ids]
    for i in ids:
        for j in ids:
            assert lazy.arcs(i, j) == eager.arcs(i, j) == want.get((i, j), ()), (i, j)
            assert full.arcs(i, j) == want_full.get((i, j), ()), (i, j)
    for graph, ref in ((full, want_full), (eager, want), (lazy, want)):
        assert {p: graph.arcs(*p) for p in graph.pairs()} == {p: b for p, b in ref.items() if b}
        assert graph.arc_count() == sum(map(len, ref.values()))
    return sum(len(full.arcs(*p)) > len(eager.arcs(*p)) for p in full.pairs())


@pytest.mark.parametrize("customers, stations", [(10, 5), (50, 20), (100, 20)])
def test_forced_lazy_graph_equals_eager_on_benchmark_instances(customers, stations):
    assert _assert_forced_lazy_equals_eager(metro_instance(customers, stations)) > 0


def test_forced_lazy_graph_equals_eager_on_random_draws():
    rng = random.Random(808)
    thinned = 0
    for n in range(60):
        inst = random_instance(
            rng, n_c=rng.randint(3, 9), n_s=rng.randint(1, 3), n_r=rng.randint(1, 5),
            battery=(None, 120, 160, 220, 400)[n % 5],  # unconstrained to tight
        )
        thinned += _assert_forced_lazy_equals_eager(inst)
    assert thinned > 0


def test_fresh_solver_context_has_built_no_bundle():
    ctx = SolverContext.build(metro_instance(10, 5), 25)
    assert ctx.graph.bundles == {}
    assert list(ctx.graph.pairs()) == [] and ctx.graph.arc_count() == 0


def test_inadmissible_pair_reads_empty_without_becoming_a_pair():
    inst = metro_instance(10, 5)
    g = reduced_multigraph(inst)
    s1, s2 = inst.satellite_ids[:2]
    c = inst.customer_ids[0]
    k = inst.station_ids[0]
    for pair in ((s1, s2), (c, c), (s1, s1), (DEPOT_ID, c), (c, k), (k, c)):
        assert g.arcs(*pair) == ()
        assert pair in g.bundles  # memoized
    assert list(g.pairs()) == []
    assert g.arcs(s1, c) and list(g.pairs()) == [(s1, c)]
