"""Acceptance suite: one test per criterion, each printing a PASS/SKIP line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Two long-running experiment criteria (density and battery sweeps at
their stated scale, several CPU-hours combined) only run when
``E2EVRP_RUN_SWEEPS=1``; the benchmark-reproduction criterion needs the six
converted benchmark files in ``data/benchmarks`` (or ``$E2EVRP_DATA``).
"""

import os
import random
import time
from pathlib import Path

import pytest

from e2evrp.bench import fit_power_law, sweep
from e2evrp.charging import best_insertion
from e2evrp.lns import LnsParams, lns_run, repair
from e2evrp.localsearch import local_search
from e2evrp.model import check_feasibility, parse_instance
from e2evrp.multigraph import build_multigraph, reduce_by_dominance
from e2evrp.ngpricing import NgSets, price_ng_routes
from e2evrp.search import SolverContext, WorkingSolution

from oracles import brute_force_insertion, elementary_route_optima, random_instance


def _report(n: int, message: str) -> None:
    print(f"\n[PASS] criterion {n}: {message}")


def _skip(n: int, message: str) -> None:
    print(f"\n[SKIP] criterion {n}: {message}")
    pytest.skip(message)


# ---------------------------------------------------------------------------


def test_criterion_1_charging_dp_matches_enumeration():
    """1,000 random routes, exact equality with brute-force enumeration, < 60 s."""
    rng = random.Random(101)
    t0 = time.monotonic()
    checked = 0
    for _ in range(1000):
        n_c = rng.randint(1, 8)
        inst = random_instance(
            rng,
            n_c=n_c,
            n_s=1,
            n_r=rng.randint(0, 5),
            span=rng.choice([60, 120, 300, 800]),
            battery=rng.randint(50, 2000),
            q2=300,
        )
        sat = inst.satellite_ids[0]
        seq = list(inst.customer_ids)
        rng.shuffle(seq)
        graph = reduce_by_dominance(build_multigraph(inst))
        res = best_insertion(inst, graph, sat, seq)
        exc, cost = brute_force_insertion(inst, sat, seq)
        oracle_feasible = cost is not None and exc == 0
        assert res.feasible == oracle_feasible, (inst.name, seq)
        if oracle_feasible:
            assert res.cost == cost, (inst.name, seq, res.cost, cost)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    _report(1, f"{checked}/1000 routes equal to enumeration in {elapsed:.1f}s")


def test_criterion_2_dominance_reduction_is_lossless():
    """500 routes over 20 instances: identical cost on reduced vs full bundles."""
    rng = random.Random(202)
    routes = 0
    for _ in range(20):
        inst = random_instance(
            rng,
            n_c=rng.randint(4, 9),
            n_s=rng.randint(1, 3),
            n_r=rng.randint(1, 5),
            span=rng.choice([80, 200, 500]),
            battery=rng.randint(60, 1200),
            q2=300,
        )
        full = build_multigraph(inst)
        reduced = reduce_by_dominance(full)
        for _ in range(25):
            sat = rng.choice(inst.satellite_ids)
            k = rng.randint(1, len(inst.customers))
            seq = rng.sample(inst.customer_ids, k)
            a = best_insertion(inst, full, sat, seq)
            b = best_insertion(inst, reduced, sat, seq)
            assert a.feasible == b.feasible
            assert a.cost == b.cost, (inst.name, seq)
            routes += 1
    assert routes == 500
    _report(2, "500/500 routes identical on reduced and unreduced bundles")


def test_criterion_3_ng_routes_lower_bound_elementary():
    """200 small instances: table <= elementary optima; equality at full memory."""
    rng = random.Random(303)
    for trial in range(200):
        n_c = rng.randint(2, 8)
        inst = random_instance(
            rng,
            n_c=n_c,
            n_s=1,
            n_r=rng.randint(0, 3),
            span=rng.choice([70, 150]),
            battery=rng.choice([120, 250, 600]),
            q2=45,
            demand_max=22,
        )
        sat = inst.satellite_ids[0]
        graph = reduce_by_dominance(build_multigraph(inst))
        elem = elementary_route_optima(inst, sat)
        small_delta = max(1, min(3, n_c))
        tbl = price_ng_routes(inst, graph, sat, NgSets.build(inst, delta=small_delta))
        for key, cost in elem.items():
            assert key in tbl.by_load_last, (trial, key)
            assert tbl.by_load_last[key] <= cost, (trial, key)
        full = price_ng_routes(inst, graph, sat, NgSets.build(inst, delta=n_c))
        assert full.by_load_last == elem, trial
    _report(3, "200/200 instances: ng table bounds elementary optima, ties at full memory")


def test_criterion_4_feasibility_and_determinism():
    """Outputs pass the full audit; same seed twice is bit-identical."""
    rng = random.Random(404)
    checked = 0
    for trial in range(2):
        inst = random_instance(
            rng,
            n_c=16,
            n_s=2,
            n_r=3,
            span=300,
            battery=500,
            q2=60,
            m2_local=10,
            m2=20,
            f1=20,
            f2=10,
        )
        for seed in (1, 2):
            params = LnsParams(t_max=None, max_restarts=2, i_max=40, seed=seed)
            sol1, st1 = lns_run(inst, params)
            sol2, st2 = lns_run(inst, params)
            assert check_feasibility(inst, sol1) == []
            assert sol1 == sol2
            assert st1.deterministic_fields() == st2.deterministic_fields()
            checked += 1
    _report(4, f"{checked} (instance, seed) pairs feasible and bit-identical across reruns")


BENCHMARKS = {
    "n22-k4-s6-17": 5229,
    "n22-k4-s8-14": 5094,
    "n22-k4-s9-19": 5236,
    "n22-k4-s10-14": 5561,
    "n22-k4-s11-12": 5793,
    "n22-k4-s12-16": 4125,
}


def test_criterion_5_benchmark_reproduction():
    """Best-of-5 at 150 s matches the best-known value on >= 4/6 instances."""
    data_dir = Path(os.environ.get("E2EVRP_DATA", "data/benchmarks"))
    paths = {name: data_dir / f"{name}.txt" for name in BENCHMARKS}
    missing = [name for name, p in paths.items() if not p.exists()]
    if missing:
        _skip(
            5,
            "requires the six converted benchmark instances in "
            f"{data_dir} (missing: {', '.join(missing)})",
        )
    matches = 0
    gaps = []
    for name, target in BENCHMARKS.items():
        inst = parse_instance(paths[name].read_text(encoding="utf-8"))
        costs = []
        for seed in range(1, 6):
            sol, _ = lns_run(inst, LnsParams(t_max=150.0, seed=seed))
            assert check_feasibility(inst, sol) == []
            costs.append(sol.cost.total)
        best = min(costs)
        avg = sum(costs) / len(costs)
        gaps.append(100.0 * (avg - target) / target)
        matches += best == target
        print(f"  {name}: best {best} avg {avg:.1f} target {target}")
    mean_gap = sum(gaps) / len(gaps)
    assert matches >= 4, f"only {matches}/6 best-known values matched"
    assert mean_gap <= 2.0, f"mean average-cost gap {mean_gap:.2f}% exceeds 2%"
    _report(5, f"{matches}/6 best values matched, mean gap {mean_gap:.2f}%")


def _sweep_gate(n: int) -> int:
    if os.environ.get("E2EVRP_RUN_SWEEPS") != "1":
        _skip(
            n,
            "multi-hour experiment; set E2EVRP_RUN_SWEEPS=1 (and optionally "
            "E2EVRP_SWEEP_WORKERS=<n>) to run it at the stated scale",
        )
    return int(os.environ.get("E2EVRP_SWEEP_WORKERS", os.cpu_count() or 1))


def test_criterion_6_station_density_trend():
    """Set-7-style sweep: detour falls with station density, power-law exponent sane."""
    workers = _sweep_gate(6)
    levels = [2, 5, 10, 15, 25, 50]
    records = sweep(
        levels,
        "density",
        instances_per_level=10,
        runs_per_instance=3,
        params=LnsParams(t_max=60.0),
        workers=workers,
    )
    means = {r.level: r.mean_detour_pct for r in records}
    print(f"  level means: {means}")
    for a, b in zip(levels, levels[1:]):
        assert means[a] > means[b], f"detour did not decrease from n_r={a} to n_r={b}"
    assert means[5] >= 2.0 * means[15], f"5-station mean {means[5]:.2f}% not >= 2x {means[15]:.2f}%"
    alpha, beta, _ = fit_power_law([(r.level, r.mean_detour_pct) for r in records])
    assert 0.8 <= beta <= 1.7, f"power-law exponent {beta:.3f} outside [0.8, 1.7]"
    _report(6, f"means strictly decreasing, ratio {means[5]/means[15]:.2f}, beta {beta:.2f}")


def test_criterion_7_battery_capacity_trend():
    """Set-8-style sweep: detour non-increasing in range, near zero at 1700."""
    workers = _sweep_gate(7)
    levels = [800, 1100, 1400, 1700]
    records = sweep(
        levels,
        "battery",
        instances_per_level=10,
        runs_per_instance=3,
        params=LnsParams(t_max=60.0),
        workers=workers,
    )
    means = {r.level: r.mean_detour_pct for r in records}
    print(f"  level means: {means}")
    for a, b in zip(levels, levels[1:]):
        assert means[a] >= means[b], f"detour increased from L={a} to L={b}"
    assert means[1700] < 0.5, f"detour at L=1700 is {means[1700]:.2f}%, expected < 0.5%"
    _report(7, f"means non-increasing, {means[1700]:.3f}% at L=1700")


def test_criterion_8_power_law_exactness():
    """Noiseless synthetic data recovered to 1e-9 in the exponent."""
    xs = (2, 3, 5, 10, 15, 20, 25, 30, 40, 50)
    for alpha_true, beta_true in ((8.0, 1.24), (3.5, 0.8), (20.0, 1.7)):
        alpha, beta, rss = fit_power_law([(x, alpha_true / x**beta_true) for x in xs])
        assert abs(beta - beta_true) <= 1e-9
        assert abs(alpha - alpha_true) <= 1e-7
        assert rss <= 1e-18
    _report(8, "three synthetic exponents recovered to 1e-9")


def test_criterion_9_local_search_monotone_fixed_point():
    """200 repaired solutions: search never hurts, re-running changes nothing."""
    rng = random.Random(909)
    done = 0
    while done < 200:
        inst = random_instance(
            rng,
            n_c=rng.randint(6, 14),
            n_s=rng.randint(1, 3),
            n_r=rng.randint(0, 3),
            span=rng.choice([150, 400]),
            battery=rng.choice([250, 500, None]),
            q2=60,
            m2_local=10,
            m2=30,
        )
        ctx = SolverContext.build(inst, gamma=25)
        sol = repair(ctx, WorkingSolution(), list(inst.customer_ids), set(), rng)
        if sol is None:
            continue
        before = sol.objective(inst)
        local_search(ctx, sol, rng)
        after = sol.objective(inst)
        assert after <= before
        local_search(ctx, sol, rng)
        assert sol.objective(inst) == after, "local search is not a fixed point"
        done += 1
    _report(9, "200/200 repaired solutions: monotone improvement and stable fixed point")
