import math
import random

import pytest
from hypothesis import given, strategies as st

from e2evrp.model import (
    CostBreakdown,
    FirstLevelRoute,
    Instance,
    InstanceError,
    SecondLevelRoute,
    Solution,
    check_feasibility,
    count_station_visits,
    evaluate_cost,
    parse_instance,
    parse_solution,
    rounded_distance,
    second_level_capacity,
    unservable_reason,
    write_instance,
    write_solution,
)

from oracles import make_instance, metro_instance, random_instance


# ---------------------------------------------------------------------------
# rounded_distance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((0, 0), (30, 40), 50),  # Pythagorean triple
        ((0, 0), (0, 0), 0),
        ((0, 0), (10, 10), 14),  # sqrt(200) = 14.142...
        ((0, 0), (1, 1), 1),  # sqrt(2) = 1.414...
        ((0, 0), (1, 2), 2),  # sqrt(5) = 2.236...
    ],
)
def test_rounded_distance_examples(a, b, expected):
    assert rounded_distance(a, b) == expected


def test_rounding_is_half_up():
    # sqrt(2)+sqrt(2) vs sqrt(8): regression guard for the exact integer form
    assert rounded_distance((0, 0), (2, 2)) == 3


coords = st.integers(min_value=-10**6, max_value=10**6)


@given(ax=coords, ay=coords, bx=coords, by=coords)
def test_rounded_distance_symmetric_and_accurate(ax, ay, bx, by):
    a, b = (ax, ay), (bx, by)
    r = rounded_distance(a, b)
    assert r == rounded_distance(b, a)
    d2 = (ax - bx) ** 2 + (ay - by) ** 2
    # |r - sqrt(d2)| <= 1/2  <=>  (2r-1)^2 <= 4*d2 and 4*d2 <= (2r+1)^2
    assert 4 * d2 <= (2 * r + 1) ** 2
    if r > 0:
        assert (2 * r - 1) ** 2 <= 4 * d2


@pytest.mark.parametrize(
    "inst",
    [random_instance(random.Random(11), n_c=8, n_s=2, n_r=3), metro_instance(10, 5)],
    ids=["random", "metro"],
)
def test_dist_is_the_metric(inst):
    dist, pos = inst.dist, inst.positions
    assert sorted(dist) == sorted(pos)
    for a in pos:
        assert sorted(dist[a]) == sorted(pos)
        assert dist[a][a] == 0
        for b in pos:
            assert dist[a][b] == dist[b][a] == rounded_distance(pos[a], pos[b])
    assert inst.big_m == 1 + sum(dist[a][b] for a in pos for b in pos)


# ---------------------------------------------------------------------------
# instance validation and file I/O
# ---------------------------------------------------------------------------

SAMPLE = """\
# toy instance
NAME toy
LEVEL1 3 200 5
LEVEL2 4 125 7 300 1
DEPOT -10 0
SATELLITES 2
1 0 0 - 2
2 100 0 150 2
CUSTOMERS 4
3 10 10 20
4 20 -5 30
5 80 10 25
6 90 -10 40
STATIONS 1
7 50 0
"""


def test_parse_sample_instance():
    inst = parse_instance(SAMPLE)
    assert inst.name == "toy"
    assert len(inst.customers) == 4 and len(inst.satellites) == 2
    assert inst.battery_capacity == 300
    assert inst.satellite_by_id[1].capacity is None
    assert inst.satellite_by_id[2].capacity == 150
    assert inst.total_demand == 115
    assert inst.charging_ids == (1, 2, 7)
    # a LEVEL2 line without the factor reads as factor 1
    no_factor = parse_instance(SAMPLE.replace("LEVEL2 4 125 7 300 1", "LEVEL2 4 125 7 300"))
    assert no_factor == inst


@pytest.mark.parametrize(
    "battery, factor, folded",
    [("300", "3/2", "200"), ("301", "3/2", "200"), ("300", "0.7", "428"), ("7", "7", "1"),
     ("inf", "5/4", "inf")],
)
def test_factored_battery_parses_as_its_folded_range(battery, factor, folded):
    factored = parse_instance(SAMPLE.replace("300 1", f"{battery} {factor}"))
    twin = parse_instance(SAMPLE.replace("300 1", folded))
    assert factored == twin
    # the factor is folded away, so it is not written back
    assert f"LEVEL2 4 125 7 {folded}\n" in write_instance(factored)


def test_folded_range_agrees_with_the_scaled_check():
    """``S <= floor(q L / p)`` iff ``p S <= q L`` for every integer leg sum S."""
    rng = random.Random(23)
    draws = 0
    for _ in range(2000):
        p, q, battery = rng.randint(1, 60), rng.randint(1, 60), rng.randint(1, 5000)
        text = SAMPLE.replace("300 1", f"{battery} {p}/{q}")
        if q * battery < p:
            with pytest.raises(InstanceError, match="is a range below 1"):
                parse_instance(text)
            continue
        folded = parse_instance(text).battery_capacity
        edge = q * battery // p
        for _ in range(100):
            s = rng.randint(max(0, edge - 3), edge + 3) if rng.random() < 0.5 else rng.randint(0, 2 * edge + 2)
            assert (s <= folded) == (p * s <= q * battery)
            draws += 1
    assert draws > 150_000


def test_roundtrip_is_byte_stable():
    inst = parse_instance(SAMPLE)
    text = write_instance(inst)
    assert parse_instance(text) == inst
    assert write_instance(parse_instance(text)) == text


def test_writer_conventions():
    inst = parse_instance(SAMPLE)
    text = write_instance(inst)
    assert "1 0 0 - 2" in text  # unbounded capacity sentinel
    zero_fix = make_instance(customers=((3, (5, 5), 10),), q2=50, q1=100)
    out = write_instance(zero_fix)
    assert "LEVEL1 10 100 0" in out  # zeros written explicitly
    assert " inf\n" in out  # unconstrained battery, the last LEVEL2 field


def test_demand_exceeding_q2_rejected_with_line_number():
    bad = SAMPLE.replace("4 20 -5 30", "4 20 -5 200")
    with pytest.raises(InstanceError, match=r"line 11: customer demand exceeds Q2"):
        parse_instance(bad)


def test_duplicate_id_rejected():
    bad = SAMPLE.replace("5 80 10 25", "3 80 10 25")
    with pytest.raises(InstanceError, match="duplicate"):
        parse_instance(bad)


def test_malformed_section_reports_line():
    bad = SAMPLE.replace("DEPOT -10 0", "DEPOT -10")
    with pytest.raises(InstanceError, match="line 5"):
        parse_instance(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        (SAMPLE[: SAMPLE.index("STATIONS")], "unexpected end of file, expected STATIONS"),
        (SAMPLE[: SAMPLE.index("5 80 10 25")], "unexpected end of file inside customer section"),
        (SAMPLE.replace("DEPOT -10 0", "DEPOTS -10 0"), "line 5: expected DEPOT section, got 'DEPOTS'"),
        (SAMPLE.replace("7 50 0", "7 50 0 1"), "line 15: station row expects 3 fields"),
        (SAMPLE.replace("300 1", "300 x"), "line 4: bad consumption factor 'x'"),
        (SAMPLE.replace("300 1", "300 1/0"), "line 4: bad consumption factor '1/0'"),
        (SAMPLE.replace("300 1", "300 0"), "line 4: consumption factor must be positive"),
        (SAMPLE.replace("300 1", "300 301"), "line 4: battery 300 / factor 301 is a range below 1"),
        (SAMPLE + "STATIONS 0\n", "line 16: unexpected trailing content 'STATIONS'"),
    ],
    ids=["eof-before-section", "eof-in-section", "section-name", "row-width",
         "bad-factor", "factor-over-zero", "zero-factor", "fold-below-one", "trailing"],
)
def test_parse_instance_errors_name_the_line(text, message):
    with pytest.raises(InstanceError) as err:
        parse_instance(text)
    assert str(err.value) == message


def test_negative_demand_rejected():
    bad = SAMPLE.replace("3 10 10 20", "3 10 10 -2")
    with pytest.raises(InstanceError, match="demand"):
        parse_instance(bad)


def test_empty_stations_section_ok():
    text = SAMPLE.replace("STATIONS 1\n7 50 0\n", "STATIONS 0\n")
    inst = parse_instance(text)
    assert inst.stations == ()
    assert inst.charging_ids == (1, 2)  # satellites still charge


def test_q2_not_below_q1_rejected():
    bad = SAMPLE.replace("LEVEL2 4 125 7 300 1", "LEVEL2 4 200 7 300 1")
    with pytest.raises(InstanceError, match="Q2"):
        parse_instance(bad)


@st.composite
def instances(draw):
    n_s = draw(st.integers(1, 3))
    n_c = draw(st.integers(0, 6))
    n_r = draw(st.integers(0, 3))
    q2 = draw(st.integers(10, 200))
    pt = st.tuples(st.integers(-500, 500), st.integers(-500, 500))
    next_id = 1
    sats, custs, stats = [], [], []
    for _ in range(n_s):
        cap = draw(st.one_of(st.none(), st.integers(0, 5000)))
        sats.append((next_id, draw(pt), cap, draw(st.integers(0, 9))))
        next_id += 1
    for _ in range(n_c):
        custs.append((next_id, draw(pt), draw(st.integers(1, q2))))
        next_id += 1
    for _ in range(n_r):
        stats.append((next_id, draw(pt)))
        next_id += 1
    return make_instance(
        name=draw(st.text(alphabet="abcdefg123", min_size=1, max_size=8)),
        depot=draw(pt),
        satellites=sats,
        customers=custs,
        stations=stats,
        q1=q2 + draw(st.integers(1, 500)),
        m1=draw(st.integers(1, 6)),
        q2=q2,
        m2=draw(st.integers(1, 20)),
        battery=draw(st.one_of(st.none(), st.integers(1, 4000))),
        f1=draw(st.integers(0, 100)),
        f2=draw(st.integers(0, 100)),
    )


@given(instances())
def test_roundtrip_random_instances(inst):
    assert parse_instance(write_instance(inst)) == inst


# ---------------------------------------------------------------------------
# cost evaluation and feasibility
# ---------------------------------------------------------------------------


def _one_route_instance(f2=0):
    return make_instance(
        satellites=((1, (0, 0), None, 3),),
        customers=((2, (50, 0), 10),),
        q2=50,
        q1=100,
        f2=f2,
        battery=None,
    )


def _solution_for(inst, visits=(2,), load=10):
    routes = (SecondLevelRoute(1, tuple(visits), load),)
    first = (FirstLevelRoute(((1, load),)),)
    sol = Solution(first, routes, CostBreakdown(0, 0, 0, 0))
    cost = evaluate_cost(inst, sol)
    return Solution(first, routes, cost)


def test_evaluate_cost_additivity():
    inst = _one_route_instance(f2=0)
    sol = _solution_for(inst)
    assert sol.cost.level2_distance == 100
    inst7 = _one_route_instance(f2=7)
    sol7 = _solution_for(inst7)
    assert sol7.cost.total == sol7.cost.level1_distance + 100 + 7


def test_evaluate_cost_unknown_id():
    inst = _one_route_instance()
    bad = Solution((), (SecondLevelRoute(1, (99,), 0),), CostBreakdown(0, 0, 0, 0))
    with pytest.raises(ValueError, match="unknown"):
        evaluate_cost(inst, bad)


def test_empty_solution_on_empty_instance_is_ok():
    inst = make_instance(customers=(), q2=50, q1=100)
    sol = Solution((), (), CostBreakdown(0, 0, 0, 0))
    assert check_feasibility(inst, sol) == []


def test_feasible_roundtrip_solution():
    inst = _one_route_instance()
    sol = _solution_for(inst)
    assert check_feasibility(inst, sol) == []
    # serialize both, reparse, costs must be identical integers
    inst2 = parse_instance(write_instance(inst))
    sol2 = parse_solution(write_solution(sol), inst2)
    assert check_feasibility(inst2, sol2) == []
    assert evaluate_cost(inst2, sol2) == sol.cost


def test_battery_exceeded_detected():
    inst = make_instance(
        satellites=((1, (0, 0), None, 3),),
        customers=((2, (60, 0), 10),),
        q2=50,
        q1=100,
        battery=119,  # return leg pushes the trace to 120 = L + 1
    )
    sol = _solution_for(inst)
    assert any("battery exceeded" in v for v in check_feasibility(inst, sol))


def test_consecutive_stations_detected():
    inst = make_instance(
        satellites=((1, (0, 0), None, 3),),
        customers=((2, (50, 0), 10),),
        stations=((7, (10, 0)), (8, (20, 0))),
        q2=50,
        q1=100,
        battery=1000,
    )
    sol = _solution_for(inst, visits=(7, 8, 2), load=10)
    assert any("consecutive stations" in v for v in check_feasibility(inst, sol))


def test_station_reset_allows_long_route():
    inst = make_instance(
        satellites=((1, (0, 0), None, 3),),
        customers=((2, (100, 0), 10),),
        stations=((7, (50, 0)),),
        q2=50,
        q1=200,
        battery=110,
    )
    sol = _solution_for(inst, visits=(7, 2, 7), load=10)
    assert check_feasibility(inst, sol) == []
    assert count_station_visits(inst, sol) == 2


def test_coverage_violations():
    inst = make_instance(
        satellites=((1, (0, 0), None, 3),),
        customers=((2, (50, 0), 10), (3, (60, 0), 10)),
        q2=50,
        q1=100,
    )
    sol = _solution_for(inst, visits=(2, 2), load=20)
    msgs = check_feasibility(inst, sol)
    assert any("customer 2 visited 2" in v for v in msgs)
    assert any("customer 3 visited 0" in v for v in msgs)


def test_fleet_and_flow_violations():
    inst = make_instance(
        satellites=((1, (0, 0), 15, 1),),
        customers=((2, (50, 0), 10), (3, (60, 0), 10)),
        q2=50,
        q1=100,
        m2=1,
    )
    routes = (
        SecondLevelRoute(1, (2,), 10),
        SecondLevelRoute(1, (3,), 10),
    )
    first = (FirstLevelRoute(((1, 10),)),)
    sol = Solution(first, routes, CostBreakdown(0, 0, 0, 0))
    sol = Solution(first, routes, evaluate_cost(inst, sol))
    msgs = check_feasibility(inst, sol)
    assert any("exceed fleet" in v or "exceed local fleet" in v or "routes exceed" in v for v in msgs)
    assert any("received 10 != dispatched 20" in v for v in msgs)
    assert any("exceeds capacity 15" in v for v in msgs)


@pytest.mark.parametrize(
    "first, second, message",
    [
        (None, [(9, (2,), 10)], "route 0 (satellite 9): unknown satellite"),
        (None, [(1, (2, 99), 10)], "route 0 (satellite 1): unknown vertex 99"),
        (None, [(1, (0, 2), 10)], "route 0 (satellite 1): unknown vertex 0"),
        (None, [(1, (2,), 7)], "route 0 (satellite 1): stored load 7 != visited demand 10"),
        ([((9, 10),)], None, "first-level route 0: unknown satellite 9"),
        ([((1, 10), (1, 0))], None, "first-level route 0: non-positive delivery 0"),
        ([((1, 150),)], None, "first-level route 0: load 150 exceeds Q1=100"),
        ([((1, 1),)] * 11, None, "11 first-level routes exceed fleet 10"),
    ],
    ids=["l2-satellite", "l2-vertex", "l2-depot", "l2-load",
         "l1-satellite", "l1-delivery", "l1-load", "l1-fleet"],
)
def test_route_violations_are_named(first, second, message):
    inst = _one_route_instance()
    sol = _solution_for(inst)
    routes = sol.second_level_routes if second is None else tuple(
        SecondLevelRoute(*r) for r in second
    )
    trips = sol.first_level_routes if first is None else tuple(
        FirstLevelRoute(stops) for stops in first
    )
    assert message in check_feasibility(inst, Solution(trips, routes, sol.cost))


def test_cost_mismatch_detected():
    inst = _one_route_instance()
    sol = _solution_for(inst)
    tampered = Solution(
        sol.first_level_routes,
        sol.second_level_routes,
        CostBreakdown(0, 42, 0, 42),
    )
    assert any("cost breakdown mismatch" in v for v in check_feasibility(inst, tampered))


def test_overload_detected():
    inst = make_instance(
        satellites=((1, (0, 0), None, 3),),
        customers=((2, (50, 0), 30), (3, (60, 0), 30)),
        q2=50,
        q1=100,
    )
    sol = _solution_for(inst, visits=(2, 3), load=60)
    assert any("exceeds Q2" in v for v in check_feasibility(inst, sol))


def test_battery_trace_prefixes_within_limit():
    # randomized: any accepted solution's battery prefixes stay within [0, L]
    rng = random.Random(7)
    inst = make_instance(
        satellites=((1, (0, 0), None, 9),),
        customers=tuple((10 + i, (rng.randrange(80), rng.randrange(80)), 5) for i in range(5)),
        stations=((30, (40, 40)),),
        q2=100,
        q1=200,
        battery=200,
    )
    order = [10, 11, 12, 13, 14]
    sol = _solution_for(inst, visits=tuple(order), load=25)
    if check_feasibility(inst, sol) == []:
        limit = inst.battery_capacity
        w, prev = 0, 1
        for v in order:
            w += inst.dist[prev][v]
            assert 0 <= w <= limit
            prev = v


def test_solution_parse_rejects_malformed():
    from e2evrp.model import SolutionFormatError

    with pytest.raises(SolutionFormatError):
        parse_solution("L1: 0 1:5 0\n")  # missing COSTS
    with pytest.raises(SolutionFormatError):
        parse_solution("COSTS 0 0 0 0\nL2: 1 5 2\n")  # mismatched endpoints
    for text, message in (
        ("COSTS 1 2 3\n", "line 1: COSTS expects 4 integers"),
        ("COSTS 0 0 0 0\nL1: 1 1:5 0\n", "line 2: L1 route must start and end at depot"),
        ("COSTS 0 0 0 0\nL1: 0 1 0\n", "line 2: expected sat:qty, got '1'"),
        ("COSTS 0 0 0 0\nL2: 1\n", "line 2: L2 route needs satellite ids"),
        ("COSTS 0 0 0 0\nL3: 1 5 1\n", "line 2: unknown record 'L3:'"),
        ("COSTS 0 0 0 0\nL2: 1 5 1\nCOSTS 1 1 1 1\n", "line 3: duplicate COSTS record"),
    ):
        with pytest.raises(SolutionFormatError) as err:
            parse_solution(text)
        assert str(err.value) == message


def test_fleet_checks_bound_what_the_fleets_carry():
    # satellite 1 holds 30 of its two loads of 25, satellite 2 three loads
    sats = ((1, (0, 0), 30, 2), (2, (50, 0), None, 3))
    custs = ((3, (10, 0), 20), (4, (40, 0), 20))
    inst = make_instance(satellites=sats, customers=custs, q1=60, q2=25, m1=1, m2=4)
    one, two = inst.satellites
    assert second_level_capacity(inst, [one]) == 30
    assert second_level_capacity(inst, [two]) == 75
    assert second_level_capacity(inst, [one, two]) == 100  # four vehicles in all
    assert second_level_capacity(inst, []) == 0
    assert unservable_reason(inst) is None  # 40 units: one truck, two vehicles
    thin = make_instance(satellites=sats, customers=custs, q1=60, q2=25, m2=1)
    assert "can carry at most 25 of the total demand of 40" in unservable_reason(thin)
    short = make_instance(satellites=sats, customers=custs, q1=30, q2=25, m1=1)
    assert "first-level fleet of 1 vehicle(s) of capacity 30" in unservable_reason(short)
