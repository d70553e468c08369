import hashlib
import random

import pytest

from e2evrp import ngpricing
from e2evrp.multigraph import build_multigraph, reduce_by_dominance, reduced_multigraph
from e2evrp.ngpricing import (
    NgRouteTable,
    NgSets,
    NgStateSpaceExceeded,
    bound_report,
    price_ng_routes,
)

from oracles import (
    elementary_route_optima,
    make_instance,
    metro_instance,
    omega,
    price_ng_routes_reference,
    random_instance,
)


def _graph(inst):
    return reduce_by_dominance(build_multigraph(inst))


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------


def test_omega_direct_case():
    arc = (30, 30, None, 0)  # (cost, consumption, station, station_leg)
    assert omega(50, arc, 100) == frozenset({20})
    assert omega(10, arc, 100) == frozenset()


def test_omega_via_case_interval():
    arc = (70, 40, 9, 25)
    assert omega(40, arc, 100) == frozenset(range(76))
    assert omega(39, arc, 100) == frozenset()


def test_omega_cases_mutually_exclusive():
    rng = random.Random(8)
    for _ in range(200):
        limit = rng.randint(10, 120)
        w = rng.randint(0, limit)
        if rng.random() < 0.5:
            consumption = rng.randint(0, limit)
            out = omega(w, (10, consumption, None, 0), limit)
            assert out == (frozenset({w - consumption}) if consumption <= w else frozenset())
        else:
            consumption, station_leg = rng.randint(0, limit), rng.randint(0, limit)
            out = omega(w, (10, consumption, 9, station_leg), limit)
            if w != consumption:
                assert out == frozenset()
            else:
                assert out == frozenset(range(limit - station_leg + 1))


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------


def test_single_customer_out_and_back():
    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (40, 0), 5),),
        q2=50,
        q1=100,
        battery=100,
    )
    tbl = price_ng_routes(inst, _graph(inst), 1, NgSets.build(inst, delta=12))
    assert tbl.by_load_last == {(5, 2): 80}
    assert tbl.by_load == {5: 80}


def test_ng_sets_contain_self_and_respect_delta():
    rng = random.Random(3)
    inst = random_instance(rng, n_c=8, n_s=1, n_r=1, battery=300)
    ng = NgSets.build(inst, delta=4)
    for c in inst.customer_ids:
        assert c in ng.neighbors[c]
        assert len(ng.neighbors[c]) == min(4, len(inst.customers))


def test_ng_lower_bounds_elementary_optima():
    rng = random.Random(12)
    for _ in range(15):
        inst = random_instance(
            rng, n_c=rng.randint(2, 6), n_s=1, n_r=2, span=70,
            battery=rng.randint(80, 250), q2=45, demand_max=20,
        )
        sat = inst.satellite_ids[0]
        elem = elementary_route_optima(inst, sat)
        tbl = price_ng_routes(inst, _graph(inst), sat, NgSets.build(inst, delta=2))
        for key, cost in elem.items():
            assert key in tbl.by_load_last
            assert tbl.by_load_last[key] <= cost


def test_full_memory_equals_elementary_optima():
    rng = random.Random(13)
    for _ in range(15):
        inst = random_instance(
            rng, n_c=rng.randint(2, 6), n_s=1, n_r=2, span=70,
            battery=rng.randint(80, 250), q2=45, demand_max=20,
        )
        sat = inst.satellite_ids[0]
        ng = NgSets.build(inst, delta=len(inst.customers))
        tbl = price_ng_routes(inst, _graph(inst), sat, ng)
        assert tbl.by_load_last == elementary_route_optima(inst, sat)


def test_table_monotone_in_delta():
    rng = random.Random(14)
    for _ in range(10):
        inst = random_instance(rng, n_c=6, n_s=1, n_r=2, span=70, battery=200, q2=60)
        sat = inst.satellite_ids[0]
        g = _graph(inst)
        prev = None
        for delta in (1, 3, 6):
            tbl = price_ng_routes(inst, g, sat, NgSets.build(inst, delta=delta))
            if prev is not None:
                for key, cost in tbl.by_load_last.items():
                    assert key in prev and prev[key] <= cost
            prev = tbl.by_load_last


def test_state_space_guard_refuses():
    rng = random.Random(15)
    inst = random_instance(rng, n_c=8, n_s=1, n_r=2, span=70, battery=400, q2=200)
    with pytest.raises(NgStateSpaceExceeded):
        price_ng_routes(
            inst, _graph(inst), inst.satellite_ids[0], NgSets.build(inst, delta=8), max_states=5
        )


def test_bound_empty_instance_is_zero():
    inst = make_instance(customers=(), q2=50, q1=100, battery=100)
    assert bound_report(inst, _graph(inst), NgSets.build(inst))["lower_bound"] == 0


def test_bound_exact_on_single_customer():
    inst = make_instance(
        depot=(-30, 0),
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (40, 0), 5),),
        q2=50,
        q1=100,
        battery=100,
        f1=3,
        f2=7,
    )
    # only possible solution: one route 1->2->1 (cost 80 + F2), first level
    # depot->1->depot (cost 60 + F1)
    bound = bound_report(inst, _graph(inst), NgSets.build(inst))["lower_bound"]
    assert bound == 80 + 7 + 60 + 3


def test_bound_report_shape():
    rng = random.Random(16)
    inst = random_instance(rng, n_c=4, n_s=2, n_r=1, span=60, battery=200)
    rep = bound_report(inst, _graph(inst), NgSets.build(inst, delta=4))
    assert set(rep) == {"instance", "delta", "satellites", "lower_bound"}
    assert len(rep["satellites"]) == 2
    assert isinstance(rep["lower_bound"], int)


def test_bound_report_prices_each_satellite_once(monkeypatch):
    rng = random.Random(17)
    inst = random_instance(rng, n_c=6, n_s=3, n_r=2, span=80, battery=250)
    graph, ng = _graph(inst), NgSets.build(inst, delta=3)
    priced = []

    def counting(inst_, graph_, satellite, ng_, **kw):
        priced.append(satellite)
        return price_ng_routes(inst_, graph_, satellite, ng_, **kw)

    monkeypatch.setattr(ngpricing, "price_ng_routes", counting)
    rep = bound_report(inst, graph, ng)
    assert sorted(priced) == sorted(inst.satellite_ids)
    tables = {k: price_ng_routes(inst, graph, k, ng) for k in inst.satellite_ids}
    assert rep["lower_bound"] == ngpricing._bound_from_tables(inst, tables)


# ---------------------------------------------------------------------------
# subset-memory dominance
# ---------------------------------------------------------------------------


def test_subset_dominance_matches_reference():
    # hand-built: 2 and 3 lie on the segment from satellite 1 to customer 4,
    # and a route carries two customers.  With delta 2, 2 and 4 remember each
    # other, 3 remembers 2.  Of the 9 labels, two meet a label at the same
    # vertex whose memory is a proper subset: 1-2-4 (memory {2, 4}) ties 1-3-4
    # ({4}) at cost and consumption 100, and 1-4-2 ({2, 4}, 110) loses to
    # 1-3-2 ({2}, 90).
    inst = make_instance(
        satellites=((1, (0, 0), None, 5),),
        customers=((2, (90, 0), 5), (3, (50, 0), 5), (4, (100, 0), 5)),
        q2=10,
        q1=100,
    )
    graph, ng = _graph(inst), NgSets.build(inst, delta=2)
    assert (ng.neighbors[2], ng.neighbors[3], ng.neighbors[4]) == ({2, 4}, {2, 3}, {2, 4})
    got = price_ng_routes(inst, graph, 1, ng)
    ref = price_ng_routes_reference(inst, graph, 1, ng)
    assert got.by_load_last == ref.by_load_last
    assert got.by_load_last[(10, 4)] == 100 + 100
    assert (got.label_count, ref.label_count) == (7, 9)

    # random draws: no battery, a tight one and a loose one, every delta
    rng = random.Random(21)
    for _ in range(15):
        n_c = rng.randint(4, 12)
        inst = random_instance(
            rng, n_c=n_c, n_s=rng.randint(1, 3), battery=rng.choice([None, 120, 400]),
            q2=20, demand_max=10,
        )
        graph = _graph(inst)
        for delta in range(1, n_c + 1):
            ng = NgSets.build(inst, delta=delta)
            for sat in inst.satellite_ids:
                got = price_ng_routes(inst, graph, sat, ng)
                ref = price_ng_routes_reference(inst, graph, sat, ng)
                assert got.by_load_last == ref.by_load_last, (inst.name, delta, sat)
                assert got.label_count <= ref.label_count


def test_golden_metro_pricing():
    """ng tables at delta 3 on the perfbench bound-m10 instance."""
    inst = metro_instance(10, 5)
    graph, ng = _graph(inst), NgSets.build(inst, delta=3)
    tables = {k: price_ng_routes(inst, graph, k, ng) for k in inst.satellite_ids}
    rows = [(k, sorted(tbl.by_load_last.items())) for k, tbl in sorted(tables.items())]
    assert hashlib.sha1(repr(rows).encode()).hexdigest() == "b429a99a15f11f8fd85ce890fa5904a005b6f71f"
    assert ngpricing._bound_from_tables(inst, tables) == 3034


def test_lazy_graph_prices_like_eager():
    """Pricing reads its legs through ``arcs``, so the lazy reduced graph,
    filled by the pricing itself, gives the eager graph's tables."""
    rng = random.Random(61)
    instances = [metro_instance(10, 5)] + [
        random_instance(rng, n_c=7, n_s=2, n_r=3, battery=battery, q2=60)
        for battery in (None, 160, 400)
    ]
    for inst in instances:
        ng = NgSets.build(inst, delta=3)
        lazy = reduced_multigraph(inst)
        for sat in inst.satellite_ids:
            got = price_ng_routes(inst, lazy, sat, ng)
            ref = price_ng_routes(inst, _graph(inst), sat, ng)
            assert (got.by_load_last, got.label_count) == (ref.by_load_last, ref.label_count)
