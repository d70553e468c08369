"""Metropolitan instance generation, station augmentation, sensitivity sweeps.

The metropolitan generator places 40 customers uniformly in an inner ellipse
and 10 more in an outer one, satellites in the ring between them, the depot
at a fixed position, and charging stations 80%/20% across the two ellipses.
Every random draw comes from a stream keyed by (seed, role), and stations
additionally by their index, so instances that differ only in the station
count share a common station-list prefix and instances that differ only in
the battery capacity are otherwise byte-identical.

Sweeps solve each instance twice with paired seeds, once as given and once
with unlimited range, and report the relative detour caused by the battery
constraint together with the number of charging stops.
"""

from __future__ import annotations

import math
import random
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Optional, Sequence

from .lns import LnsParams, lns_run
from .model import (
    CostBreakdown,
    Customer,
    Instance,
    Point,
    Satellite,
    SecondLevelRoute,
    Solution,
    Station,
    count_station_visits,
    evaluate_cost,
    rounded_distance,
    unservable_customers,
)

DENSITY_LEVELS = (2, 3, 5, 10, 15, 20, 25, 30, 40, 50)
BATTERY_LEVELS = tuple(range(800, 1701, 100))
FAMILY_LEVELS = {"density": DENSITY_LEVELS, "battery": BATTERY_LEVELS}
VARIED_FIELD = {"density": "n_stations", "battery": "battery"}
LEAST_LEVEL = {"density": 0, "battery": 1}  # a station count, or a battery capacity
SEED_WINDOW = range(1, 10_001)  # instance seeds the structural screen may try

DEMAND_LO, DEMAND_HI = 1, 25  # every metro customer's demand is drawn from this range

SWEEP_CSV_HEADER = "level,instance_seed,run_seed,cost_L,cost_inf,detour_pct,station_visits"


@dataclass(frozen=True)
class EllipseSpec:
    center: Point
    x_extent: int
    y_extent: int


@dataclass(frozen=True)
class MetroGenConfig:
    """Everything the metropolitan generator needs; defaults give the standard layout.

    ``x_extent``/``y_extent`` are read as semi-axes: the outer ellipse then
    spans 2000 x 1000 units and covers pi * 1000 * 500 ~ 1.5708e6 unit^2,
    i.e. 15708 km^2 at 0.1 km per unit, about the size of a large
    metropolitan region.  Clearing ``extent_is_semi_axis`` reads the values
    as full axis lengths instead (a quarter of the area), for robustness
    comparisons.
    """

    n_stations: int
    battery: Optional[int]
    seed: int = 1
    inner: EllipseSpec = EllipseSpec((1000, 500), 800, 400)
    outer: EllipseSpec = EllipseSpec((1000, 500), 1000, 500)
    extent_is_semi_axis: bool = True
    n_customers_inner: int = 40
    n_customers_outer: int = 10
    n_satellites: int = 4
    depot: Point = (300, 0)
    m1_fleet: int = 6
    q1_capacity: int = 250
    q2_capacity: int = 125
    m2_per_satellite: int = 10

    @property
    def name(self) -> str:
        """``metro-r<stations>-L<battery>-s<seed>``, with ``-full`` appended
        when the extents are full axes, so the two layouts never share a name."""
        battery = "inf" if self.battery is None else self.battery
        full = "" if self.extent_is_semi_axis else "-full"
        return f"metro-r{self.n_stations}-L{battery}-s{self.seed}{full}"


STANDARD_METRO = MetroGenConfig(n_stations=20, battery=1000)


def _semi_axes(e: EllipseSpec, semi: bool) -> tuple[float, float]:
    if semi:
        return float(e.x_extent), float(e.y_extent)
    return e.x_extent / 2.0, e.y_extent / 2.0


def _inside(p: Point, e: EllipseSpec, semi: bool) -> bool:
    a, b = _semi_axes(e, semi)
    dx, dy = p[0] - e.center[0], p[1] - e.center[1]
    return (dx / a) ** 2 + (dy / b) ** 2 <= 1.0


def _sample(
    rng: random.Random,
    region: EllipseSpec,
    semi: bool,
    exclude: Optional[EllipseSpec] = None,
) -> Point:
    """Uniform integer point inside ``region`` (and outside ``exclude``).

    Rejection sampling on the bounding box; membership is tested on the
    rounded point so the result always lies in its declared region.
    """
    a, b = _semi_axes(region, semi)
    cx, cy = region.center
    while True:
        p = (round(cx + (rng.random() * 2 - 1) * a), round(cy + (rng.random() * 2 - 1) * b))
        if not _inside(p, region, semi):
            continue
        if exclude is not None and _inside(p, exclude, semi):
            continue
        return p


def generate_metro_instance(cfg: MetroGenConfig) -> Instance:
    semi = cfg.extent_is_semi_axis
    rc = random.Random(f"{cfg.seed}:customers")
    points = [_sample(rc, cfg.inner, semi) for _ in range(cfg.n_customers_inner)]
    points += [_sample(rc, cfg.outer, semi) for _ in range(cfg.n_customers_outer)]
    rd = random.Random(f"{cfg.seed}:demands")
    demands = [rd.randint(DEMAND_LO, DEMAND_HI) for _ in points]
    rs = random.Random(f"{cfg.seed}:satellites")
    sat_points = [
        _sample(rs, cfg.outer, semi, exclude=cfg.inner) for _ in range(cfg.n_satellites)
    ]
    # station t lives in the inner ellipse except every fifth one (80% / 20%);
    # a per-index stream makes station lists prefix-stable across n_stations
    stat_points = []
    for t in range(1, cfg.n_stations + 1):
        rt = random.Random(f"{cfg.seed}:station:{t}")
        region = cfg.outer if t % 5 == 0 else cfg.inner
        stat_points.append(_sample(rt, region, semi))

    sats = tuple(
        Satellite(1 + i, p, None, cfg.m2_per_satellite) for i, p in enumerate(sat_points)
    )
    base_c = 1 + cfg.n_satellites
    custs = tuple(
        Customer(base_c + i, p, q) for i, (p, q) in enumerate(zip(points, demands))
    )
    base_r = base_c + len(custs)
    stats = tuple(Station(base_r + i, p) for i, p in enumerate(stat_points))
    # metro vehicles carry no fixed cost: the Instance default of 0
    return Instance(
        name=cfg.name,
        depot=cfg.depot,
        satellites=sats,
        customers=custs,
        stations=stats,
        q1_capacity=cfg.q1_capacity,
        m1_fleet=cfg.m1_fleet,
        q2_capacity=cfg.q2_capacity,
        m2_global=cfg.m2_per_satellite * cfg.n_satellites,
        battery_capacity=cfg.battery,
    )


class FamilyError(ValueError):
    """An instance family that cannot be built: bad levels or too few servable seeds."""


def feasible_metro_seeds(binding: MetroGenConfig, count: int) -> list[int]:
    """First ``count`` seeds in ``SEED_WINDOW`` whose instance passes the structural screen.

    ``binding`` should be the tightest member of an instance family (fewest
    stations, smallest battery): adding stations or battery can only help, so
    a seed accepted there is servable at every other level, and all levels
    share one seed list, keeping everything but the varied feature identical.
    """
    servable = (
        s
        for s in SEED_WINDOW
        if not unservable_customers(generate_metro_instance(replace(binding, seed=s)))
    )
    seeds = list(islice(servable, count))
    if len(seeds) < count:
        raise FamilyError(
            f"only {len(seeds)} seeds in {SEED_WINDOW.start}..{SEED_WINDOW.stop - 1} give a "
            f"servable instance with {binding.n_stations} stations and battery "
            f"{binding.battery}; {count} needed"
        )
    return seeds


def metro_family(
    mode: str,
    levels: Sequence[int],
    instances_per_level: int,
    base: MetroGenConfig = STANDARD_METRO,
) -> list[MetroGenConfig]:
    """One instance family: ``mode`` picks the varied field, ``base`` gives the rest.

    ``"density"`` varies the station count, ``"battery"`` the battery
    capacity.  Seeds are screened at ``min(levels)``, so every member of the
    family is structurally servable and all levels share one seed list.
    Configs come level-major, seed-minor.
    """
    if mode not in VARIED_FIELD:
        raise FamilyError("mode must be 'density' or 'battery'")
    if not levels or len(set(levels)) < len(levels):
        raise FamilyError(f"{mode} levels must be distinct and non-empty, got {list(levels)}")
    if min(levels) < LEAST_LEVEL[mode]:
        raise FamilyError(f"{mode} levels must be >= {LEAST_LEVEL[mode]}, got {min(levels)}")
    if instances_per_level < 1:
        raise FamilyError("instances_per_level must be >= 1")
    field = VARIED_FIELD[mode]
    seeds = feasible_metro_seeds(replace(base, **{field: min(levels)}), instances_per_level)
    return [replace(base, **{field: level}, seed=s) for level in levels for s in seeds]


# ---------------------------------------------------------------------------
# station augmentation of classical two-echelon instances
# ---------------------------------------------------------------------------


def _roulette_without_replacement(
    rng: random.Random, items: list[Point], weights: list[int], k: int
) -> list[Point]:
    pool = [(p, w) for p, w in zip(items, weights) if w > 0]
    if not pool:
        pool = [(p, 1) for p in items]
    chosen: list[Point] = []
    for _ in range(min(k, len(pool))):
        total = sum(w for _, w in pool)
        x = rng.random() * total
        acc = 0.0
        for idx, (p, w) in enumerate(pool):
            acc += w
            if x < acc:
                chosen.append(p)
                del pool[idx]
                break
        else:  # floating-point edge: take the last entry
            chosen.append(pool[-1][0])
            del pool[-1]
    return chosen


def augment_2evrp_instance(
    base: Instance,
    gamma1: float,
    station_ratio: float = 0.15,
    seed: int = 1,
) -> Instance:
    """Extend a classical two-echelon instance with charging infrastructure.

    Coordinates are scaled by ten to soften integer rounding.  ``gamma1`` is
    the average second-level route length of the reference solution in the
    base instance's (unscaled) units; it controls both the proximity radius
    used to weight candidate station sites and the battery capacity
    ``max(0.6 * gamma1, 2 * gamma2)`` (in scaled units), where ``gamma2`` is
    the largest customer-to-nearest-station distance after placement.
    """
    scale = 10
    if not (gamma1 > 0 and math.isfinite(0.6 * gamma1 * scale)):
        raise ValueError(
            f"gamma1 must be finite and positive, and small enough that the scaled "
            f"battery 0.6 * gamma1 * {scale} is finite, got {gamma1}"
        )
    if not 0.1 <= station_ratio <= 0.2:
        raise ValueError("station/customer ratio must lie in [1/10, 1/5]")

    def sc(p: Point) -> Point:
        return (p[0] * scale, p[1] * scale)

    depot = sc(base.depot)
    sats = tuple(
        Satellite(s.id, sc(s.location), s.capacity, s.m2_local) for s in base.satellites
    )
    custs = tuple(Customer(c.id, sc(c.location), c.demand) for c in base.customers)

    next_id = max(v.id for v in (*sats, *custs, *base.stations)) + 1 if (
        sats or custs or base.stations
    ) else 1
    stations: list[Station] = [Station(s.id, sc(s.location)) for s in base.stations]
    stations.append(Station(next_id, depot))
    next_id += 1
    for s in sats:
        stations.append(Station(next_id, s.location))
        next_id += 1

    n_c = len(custs)
    lo = math.ceil(n_c / 10)
    hi = n_c // 5
    target = min(max(round(station_ratio * n_c), lo), max(lo, hi))
    remaining = target - len(stations)

    if remaining > 0:
        all_pts = [depot, *(s.location for s in sats), *(c.location for c in custs)]
        xs = [p[0] for p in all_pts]
        ys = [p[1] for p in all_pts]
        grid: list[Point] = []
        for ti in range(100):
            gx = round(min(xs) + ti * (max(xs) - min(xs)) / 99)
            for tj in range(100):
                gy = round(min(ys) + tj * (max(ys) - min(ys)) / 99)
                grid.append((gx, gy))
        radius = gamma1 * scale / 2
        weights = [
            sum(1 for c in custs if rounded_distance(g, c.location) <= radius) for g in grid
        ]
        rng = random.Random(f"{seed}:augment")
        for p in _roulette_without_replacement(rng, grid, weights, remaining):
            stations.append(Station(next_id, p))
            next_id += 1

    gamma2 = 0
    for c in custs:
        nearest = min(rounded_distance(c.location, s.location) for s in stations)
        gamma2 = max(gamma2, nearest)
    battery = max(math.ceil(0.6 * gamma1 * scale), 2 * gamma2)

    return Instance(
        name=f"{base.name}-ev",
        depot=depot,
        satellites=sats,
        customers=custs,
        stations=tuple(stations),
        q1_capacity=base.q1_capacity,
        m1_fleet=base.m1_fleet,
        q2_capacity=base.q2_capacity,
        m2_global=base.m2_global,
        battery_capacity=battery,
        fixed_cost_l1=base.fixed_cost_l1,
        fixed_cost_l2=base.fixed_cost_l2,
        consumption_factor=base.consumption_factor,
    )


# ---------------------------------------------------------------------------
# sensitivity sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRunRecord:
    level: int
    instance_seed: int
    run_seed: int
    cost_constrained: int
    cost_unconstrained: int
    detour_pct: float
    station_visits: int


@dataclass(frozen=True)
class SweepRecord:
    """Aggregate of one sweep level: the varied value plus per-run raw costs."""

    level: int
    runs: tuple[SweepRunRecord, ...]
    mean_detour_pct: float
    mean_station_visits: float


def without_stops(inst: Instance, sol: Solution) -> Solution:
    """``sol`` with every charging stop dropped, costed by ``evaluate_cost`` on ``inst``."""
    customers = set(inst.customer_ids)
    routes = tuple(
        SecondLevelRoute(r.satellite, tuple(v for v in r.visits if v in customers), r.load)
        for r in sol.second_level_routes
    )
    shell = Solution(sol.first_level_routes, routes, CostBreakdown(0, 0, 0, 0))
    return replace(shell, cost=evaluate_cost(inst, shell))


def _sweep_job(args: tuple) -> SweepRunRecord:
    level, cfg, run_seed, params = args
    inst = generate_metro_instance(cfg)
    run_params = replace(params, seed=run_seed)
    sol_c, _ = lns_run(inst, run_params)
    free = replace(inst, battery_capacity=None)
    sol_u, _ = lns_run(free, run_params)
    # the constrained solution without its stops is an unconstrained solution
    # too, so the better of the two bounds the battery-free cost from above
    cost_c = sol_c.cost.total
    cost_u = min(sol_u.cost.total, without_stops(free, sol_c).cost.total)
    detour = 100.0 * (cost_c - cost_u) / cost_u if cost_u else 0.0
    return SweepRunRecord(
        level=level,
        instance_seed=cfg.seed,
        run_seed=run_seed,
        cost_constrained=cost_c,
        cost_unconstrained=cost_u,
        detour_pct=detour,
        station_visits=count_station_visits(inst, sol_c),
    )


def sweep(
    values: Sequence[int],
    mode: str,
    *,
    instances_per_level: int = 10,
    runs_per_instance: int = 3,
    params: Optional[LnsParams] = None,
    workers: int = 1,
    base_config: MetroGenConfig = STANDARD_METRO,
) -> list[SweepRecord]:
    """Solve paired (constrained, unconstrained) runs over a parameter grid.

    The instances are ``metro_family(mode, values, instances_per_level,
    base_config)``: ``"density"`` varies the station count, ``"battery"`` the
    battery capacity, and every other field comes from ``base_config``
    (default: 20 stations, battery 1000).  Every run uses ``params`` with its
    own seed, so the budget is ``params.t_max`` and/or ``params.max_restarts``
    (default: 60 s).  The desk-scale defaults keep a full sweep tractable;
    the full benchmark scale is 20 instances per level with budgets up to
    900 s.
    """
    if runs_per_instance < 1:
        raise ValueError("runs_per_instance must be >= 1")
    params = params or LnsParams(t_max=60.0)
    jobs = [
        (getattr(cfg, VARIED_FIELD[mode]), cfg, rseed, params)
        for cfg in metro_family(mode, values, instances_per_level, base_config)
        for rseed in range(1, runs_per_instance + 1)
    ]

    # a process pool forks all its workers at once, so it asks for no more
    # than there are jobs
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_sweep_job, jobs))
    else:
        raw = [_sweep_job(j) for j in jobs]

    by_level: dict[int, list[SweepRunRecord]] = {v: [] for v in values}
    for rec in raw:
        if rec.detour_pct < 0:
            warnings.warn(
                f"negative detour {rec.detour_pct:.3f}% at level {rec.level} "
                f"(instance seed {rec.instance_seed}, run seed {rec.run_seed}): "
                "the unconstrained run and the constrained solution without its stops "
                "both cost more (rounded distances can break the triangle inequality)",
                stacklevel=2,
            )
        by_level[rec.level].append(rec)
    return [
        SweepRecord(
            level=level,
            runs=tuple(runs),
            mean_detour_pct=sum(r.detour_pct for r in runs) / len(runs),
            mean_station_visits=sum(r.station_visits for r in runs) / len(runs),
        )
        for level, runs in by_level.items()
    ]


def write_sweep_csv(records: Iterable[SweepRecord], path: str) -> None:
    lines = [SWEEP_CSV_HEADER]
    for rec in records:
        for r in rec.runs:
            lines.append(
                f"{r.level},{r.instance_seed},{r.run_seed},{r.cost_constrained},"
                f"{r.cost_unconstrained},{r.detour_pct:.6f},{r.station_visits}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# power-law regression
# ---------------------------------------------------------------------------


def fit_power_law(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Least-squares fit of ``f(x) = alpha / x**beta`` on the log-log plane.

    Non-positive observations cannot be log-transformed and are dropped with
    a warning.  Returns ``(alpha, beta, rss)`` with the residual sum of
    squares taken in log space.
    """
    usable = [(x, y) for x, y in points if x > 0 and y > 0]
    dropped = len(points) - len(usable)
    if dropped:
        warnings.warn(f"dropping {dropped} non-positive point(s) from power-law fit", stacklevel=2)
    if len(usable) < 2:
        raise ValueError("need at least two positive points to fit a power law")
    xs = [math.log(x) for x, _ in usable]
    ys = [math.log(y) for _, y in usable]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("all x values are identical")
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    rss = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    return math.exp(intercept), -slope, rss
