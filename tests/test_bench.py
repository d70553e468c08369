import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from e2evrp import bench
from e2evrp.bench import (
    BATTERY_LEVELS,
    DENSITY_LEVELS,
    EllipseSpec,
    MetroGenConfig,
    SWEEP_CSV_HEADER,
    _inside,
    augment_2evrp_instance,
    fit_power_law,
    generate_metro_instance,
    metro_family,
    sweep,
    write_sweep_csv,
)
from e2evrp.lns import LnsParams
from e2evrp.model import parse_instance, unservable_customers, write_instance

from oracles import make_instance


def test_generator_is_deterministic():
    cfg = MetroGenConfig(n_stations=10, battery=1000, seed=4)
    a = write_instance(generate_metro_instance(cfg))
    b = write_instance(generate_metro_instance(cfg))
    assert a == b


def test_generator_counts_and_fleet():
    inst = generate_metro_instance(MetroGenConfig(n_stations=15, battery=1000, seed=2))
    assert len(inst.customers) == 50
    assert len(inst.satellites) == 4
    assert len(inst.stations) == 15
    assert inst.m2_global == 40
    assert inst.m1_fleet == 6 and inst.q1_capacity == 250 and inst.q2_capacity == 125
    assert all(1 <= c.demand <= 25 for c in inst.customers)


def test_regions_respected():
    cfg = MetroGenConfig(n_stations=20, battery=1000, seed=7)
    inst = generate_metro_instance(cfg)
    inner, outer, semi = cfg.inner, cfg.outer, cfg.extent_is_semi_axis
    for c in inst.customers:
        assert _inside(c.location, outer, semi)
    # the first 40 customers were drawn inside the inner ellipse
    for c in inst.customers[:40]:
        assert _inside(c.location, inner, semi)
    for s in inst.satellites:
        assert _inside(s.location, outer, semi) and not _inside(s.location, inner, semi)
    # 80/20 station split: every fifth station lives in the outer ellipse
    for t, s in enumerate(inst.stations, 1):
        if t % 5 != 0:
            assert _inside(s.location, inner, semi)
        else:
            assert _inside(s.location, outer, semi)


def test_station_prefix_extension():
    small = generate_metro_instance(MetroGenConfig(n_stations=2, battery=1000, seed=9))
    large = generate_metro_instance(MetroGenConfig(n_stations=5, battery=1000, seed=9))
    assert [s.location for s in large.stations[:2]] == [s.location for s in small.stations]
    assert [c.location for c in large.customers] == [c.location for c in small.customers]


def test_battery_variation_changes_nothing_else():
    lo = generate_metro_instance(MetroGenConfig(n_stations=20, battery=800, seed=3))
    hi = generate_metro_instance(MetroGenConfig(n_stations=20, battery=1700, seed=3))
    assert (lo.battery_capacity, hi.battery_capacity) == (800, 1700)
    assert lo.customers == hi.customers
    assert lo.satellites == hi.satellites
    assert lo.stations == hi.stations
    assert lo.depot == hi.depot


def test_axis_interpretation_switch_shrinks_regions():
    semi = generate_metro_instance(MetroGenConfig(n_stations=5, battery=1000, seed=5))
    full = generate_metro_instance(
        MetroGenConfig(n_stations=5, battery=1000, seed=5, extent_is_semi_axis=False)
    )
    def spread(inst):
        xs = [c.location[0] for c in inst.customers]
        return max(xs) - min(xs)
    assert spread(semi) > spread(full)
    # the two layouts never share a name; the default name is unchanged
    assert semi.name == "metro-r5-L1000-s5" and full.name == "metro-r5-L1000-s5-full"
    # default outer ellipse spans the full 2000 x 1000 metropolitan area
    xs = [c.location[0] for c in semi.customers]
    assert max(xs) > 1500 or min(xs) < 500


def test_set_configs():
    s7 = metro_family("density", DENSITY_LEVELS, 5)
    assert len(s7) == 50
    assert sorted({c.n_stations for c in s7}) == sorted(DENSITY_LEVELS)
    assert {c.battery for c in s7} == {1000}
    seeds_per_level = {c.n_stations: [] for c in s7}
    for c in s7:
        seeds_per_level[c.n_stations].append(c.seed)
    assert len({tuple(v) for v in seeds_per_level.values()}) == 1  # shared seed list
    s8 = metro_family("battery", BATTERY_LEVELS, 3)
    assert len(s8) == 30
    assert sorted({c.battery for c in s8}) == sorted(BATTERY_LEVELS)
    assert {c.n_stations for c in s8} == {20}
    with pytest.raises(ValueError):
        metro_family("speed", DENSITY_LEVELS, 3)
    # the exact names (levels, screened seeds, order) of the two benchmark sets
    def digest(configs):
        return hashlib.sha1("\n".join(c.name for c in configs).encode()).hexdigest()
    assert digest(metro_family("density", DENSITY_LEVELS, 3)) == "e89481bab9db314646eea116ed28da23bebc3c15"
    assert digest(s8) == "93bac2c5020ef4d820da895cef33764411b0d7e7"


@pytest.mark.parametrize("mode, level", [("density", -2), ("battery", 0)])
def test_family_levels_below_the_least_are_refused(monkeypatch, mode, level):
    # refused before any seed is screened, so no instance is generated
    def must_not_generate(cfg):
        raise AssertionError(f"generated {cfg.name}")

    monkeypatch.setattr(bench, "generate_metro_instance", must_not_generate)
    with pytest.raises(bench.FamilyError, match=f"{mode} levels must be >= .*got {level}"):
        metro_family(mode, [level], 1)


def test_feasible_seed_screening():
    from e2evrp.bench import feasible_metro_seeds
    from e2evrp.model import unservable_customers

    binding = MetroGenConfig(n_stations=2, battery=1000)
    seeds = feasible_metro_seeds(binding, 5)
    assert seeds == feasible_metro_seeds(binding, 5)  # deterministic
    for s in seeds:
        inst = generate_metro_instance(MetroGenConfig(n_stations=2, battery=1000, seed=s))
        assert unservable_customers(inst) == []
        # adding stations keeps the screen satisfied (monotone improvement)
        richer = generate_metro_instance(MetroGenConfig(n_stations=10, battery=1000, seed=s))
        assert unservable_customers(richer) == []


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def _classic_base(n_c=40, seed=1):
    rng = random.Random(seed)
    sats = [(1, (rng.randrange(100), rng.randrange(100)), None, 25), (2, (rng.randrange(100), rng.randrange(100)), None, 25)]
    custs = [(10 + i, (rng.randrange(100), rng.randrange(100)), rng.randint(1, 20)) for i in range(n_c)]
    return make_instance(
        name="classic", depot=(50, 50), satellites=sats, customers=custs,
        q2=80, q1=200, m1=4, m2=50, battery=None,
    )


def test_augment_scales_and_stations():
    base = _classic_base()
    inst = augment_2evrp_instance(base, gamma1=120.0, station_ratio=0.15, seed=2)
    assert inst.depot == (500, 500)  # x10
    assert all(c.location == (b.location[0] * 10, b.location[1] * 10) for c, b in zip(inst.customers, base.customers))
    locs = {s.location for s in inst.stations}
    assert inst.depot in locs
    for s in inst.satellites:
        assert s.location in locs
    n_c = len(base.customers)
    assert math.ceil(n_c / 10) <= len(inst.stations) <= max(math.ceil(n_c / 10), n_c // 5)


def test_augment_battery_rule():
    base = _classic_base()
    inst = augment_2evrp_instance(base, gamma1=120.0, seed=2)
    gamma2 = max(
        min(inst.dist[c.id][s.id] for s in inst.stations) for c in inst.customers
    )
    assert inst.battery_capacity >= 2 * gamma2
    assert inst.battery_capacity >= math.ceil(0.6 * 120.0 * 10)
    assert inst.battery_capacity == max(math.ceil(0.6 * 120.0 * 10), 2 * gamma2)


def test_augment_is_deterministic_and_ratio_validated():
    base = _classic_base()
    a = write_instance(augment_2evrp_instance(base, gamma1=100.0, seed=5))
    b = write_instance(augment_2evrp_instance(base, gamma1=100.0, seed=5))
    assert a == b
    with pytest.raises(ValueError):
        augment_2evrp_instance(base, gamma1=100.0, station_ratio=0.5)
    with pytest.raises(ValueError):
        augment_2evrp_instance(base, gamma1=0.0)


def test_augment_keeps_a_factored_base_servable():
    """The base's consumption factor is folded into its range when it is read,
    so the augmented battery and the consumption it is checked against are
    both in distance."""
    base = _classic_base()
    lines = write_instance(base).splitlines()
    lines[2] = " ".join(lines[2].split()[:5] + ["3/2"])  # LEVEL2 ... inf 3/2
    factored = parse_instance("\n".join(lines) + "\n")
    inst = augment_2evrp_instance(factored, gamma1=120.0, seed=2)
    assert unservable_customers(inst) == []
    assert inst == augment_2evrp_instance(base, gamma1=120.0, seed=2)


def test_augmented_instance_parses_back():
    base = _classic_base(n_c=20)
    inst = augment_2evrp_instance(base, gamma1=80.0, seed=3)
    assert parse_instance(write_instance(inst)) == inst


# ---------------------------------------------------------------------------
# power-law fit
# ---------------------------------------------------------------------------


def test_fit_recovers_noiseless_power_law():
    pts = [(x, 8.0 / x**1.24) for x in (2, 3, 5, 10, 15, 20, 25, 30, 40, 50)]
    alpha, beta, rss = fit_power_law(pts)
    assert abs(beta - 1.24) <= 1e-9
    assert abs(alpha - 8.0) <= 1e-8
    assert rss <= 1e-18


def test_fit_two_points_interpolates_exactly():
    alpha, beta, rss = fit_power_law([(2, 10.0), (8, 2.5)])
    assert rss <= 1e-18
    assert abs(alpha * 2 ** (-beta) - 10.0) < 1e-9
    assert abs(alpha * 8 ** (-beta) - 2.5) < 1e-9


def test_halving_interpretation_of_beta():
    # a density exponent of 1.24 means doubling the station count removes
    # about 58% of the recharging detour
    reduction = 1 - 2 ** (-1.24)
    assert round(100 * reduction) == 58


@given(
    scale=st.floats(min_value=0.1, max_value=50, allow_nan=False),
    beta=st.floats(min_value=0.2, max_value=2.5, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_fit_scale_equivariance(scale, beta):
    xs = (2, 5, 11, 23)
    base = [(x, 3.0 / x**beta) for x in xs]
    scaled = [(x, scale * y) for x, y in base]
    a1, b1, _ = fit_power_law(base)
    a2, b2, _ = fit_power_law(scaled)
    assert abs(b1 - b2) < 1e-7
    assert abs(a2 - scale * a1) < 1e-6 * max(1.0, a2)


def test_fit_drops_nonpositive_with_warning():
    with pytest.warns(UserWarning, match="dropping 1 non-positive"):
        fit_power_law([(2, 4.0), (4, 0.0), (8, 1.0)])
    with pytest.warns(UserWarning, match="dropping 2 non-positive"), pytest.raises(ValueError):
        fit_power_law([(2, 0.0), (4, -1.0)])


# ---------------------------------------------------------------------------
# sweep machinery (smoke scale)
# ---------------------------------------------------------------------------


def _tiny_cfg():
    # a miniature metropolitan layout that solves in well under a second
    return MetroGenConfig(
        n_stations=2,
        battery=400,
        seed=1,
        inner=EllipseSpec((200, 100), 160, 80),
        outer=EllipseSpec((200, 100), 200, 100),
        n_customers_inner=6,
        n_customers_outer=2,
        n_satellites=2,
        depot=(60, 0),
        q1_capacity=120,
        q2_capacity=55,
        m2_per_satellite=6,
        m1_fleet=4,
    )


def _tiny_params():
    return LnsParams(t_max=None, max_restarts=1, i_max=10, granularity=8)


def test_sweep_smoke_and_csv(tmp_path):
    records = sweep(
        [1, 3],
        "density",
        instances_per_level=1,
        runs_per_instance=1,
        params=_tiny_params(),
        base_config=_tiny_cfg(),
    )
    assert [r.level for r in records] == [1, 3]
    for rec in records:
        for run in rec.runs:
            assert run.cost_constrained >= run.cost_unconstrained or run.detour_pct < 0
            assert run.station_visits >= 0
    out = tmp_path / "sweep.csv"
    write_sweep_csv(records, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 1 + sum(len(r.runs) for r in records)


def test_sweep_battery_mode_and_worker_determinism(tmp_path):
    kwargs = dict(
        instances_per_level=1,
        runs_per_instance=2,
        params=_tiny_params(),
        base_config=_tiny_cfg(),
    )
    seq = sweep([300, 500], "battery", workers=1, **kwargs)
    par = sweep([300, 500], "battery", workers=2, **kwargs)
    assert seq == par  # ordering and content deterministic across pool sizes


def test_sweep_asks_for_no_more_processes_than_jobs(monkeypatch):
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", InProcessPool)
    kwargs = dict(params=_tiny_params(), base_config=_tiny_cfg(), workers=8)
    two = sweep([300], "battery", instances_per_level=1, runs_per_instance=2, **kwargs)
    assert pools == [2]
    one = sweep([300], "battery", instances_per_level=1, runs_per_instance=1, **kwargs)
    assert pools == [2]  # one job runs in-process: no pool is opened
    assert one[0].runs == two[0].runs[:1]


def test_unconstrained_run_never_visits_stations():
    from dataclasses import replace as dc_replace

    from e2evrp.lns import lns_run
    from e2evrp.model import count_station_visits

    inst = generate_metro_instance(dc_replace(_tiny_cfg(), battery=None))
    sol, _ = lns_run(inst, _tiny_params())
    assert count_station_visits(inst, sol) == 0
    # detour of the unconstrained configuration against itself is zero
    assert 100.0 * (sol.cost.total - sol.cost.total) / sol.cost.total == 0.0


def test_detour_reference_never_exceeds_stripped_constrained_cost():
    from dataclasses import replace as dc_replace

    from e2evrp.lns import lns_run
    from e2evrp.model import check_feasibility, count_station_visits, evaluate_cost

    params = _tiny_params()
    stops = 0
    for cfg in bench.metro_family("battery", [300, 400, 600], 2, _tiny_cfg()):
        for seed in (1, 2):
            rec = bench._sweep_job((cfg.battery, cfg, seed, params))
            inst = generate_metro_instance(cfg)
            free = dc_replace(inst, battery_capacity=None)
            sol_c, _ = lns_run(inst, dc_replace(params, seed=seed))
            sol_u, _ = lns_run(free, dc_replace(params, seed=seed))
            stripped = bench.without_stops(free, sol_c)
            assert check_feasibility(free, stripped) == []
            assert count_station_visits(free, stripped) == 0
            assert stripped.cost == evaluate_cost(free, stripped)
            assert rec.cost_unconstrained == min(sol_u.cost.total, stripped.cost.total)
            assert rec.cost_unconstrained <= stripped.cost.total
            stops += rec.station_visits
    assert stops > 0


def test_sweep_rejects_bad_mode(monkeypatch):
    with pytest.raises(ValueError):
        sweep([1], "speed", instances_per_level=1, runs_per_instance=1, params=_tiny_params())
    # repeated levels, zero counts and an unservable tightest level are
    # refused before any solver run starts
    monkeypatch.setattr(bench, "_sweep_job", _no_solver_run)
    monkeypatch.setattr(bench, "SEED_WINDOW", range(1, 4))
    for values, mode, instances, runs, message in [
        ([5, 5], "density", 2, 1, "distinct"),
        ([5], "density", 0, 1, "instances_per_level"),
        ([5], "density", 1, 0, "runs_per_instance"),
        ([100], "battery", 1, 1, "battery 100"),
    ]:
        with pytest.raises(ValueError, match=message):
            sweep(values, mode, instances_per_level=instances, runs_per_instance=runs)


def _no_solver_run(args):
    raise AssertionError("a sweep job started")
