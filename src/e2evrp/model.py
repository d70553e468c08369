"""Problem data model: instances, solutions, distances, feasibility, file I/O.

All vertices live on an integer grid and travel cost between two vertices is
the Euclidean distance rounded half-up to the nearest integer.  Every module
reads this metric from one table, ``Instance.dist``: ``dist[a][b]`` for any
two vertex ids, the depot and the stations included.  It checks no id, so
code that reads ids from outside (a solution file) checks them first.  Battery
consumption is travel distance: ``battery_capacity`` is the driving range,
and a leg consumes its distance.  An instance file may scale consumption by a
rational factor f; distances are integers, so a leg sum S fits the battery L
iff ``S <= floor(L / f)``, and :func:`parse_instance` folds the factor into
the range once.

A ``battery_capacity`` of ``None`` models vehicles with unlimited range
(used as the unconstrained reference configuration in sweeps); in that case
no battery checks apply and charging stops are never needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Iterator, Optional, Sequence

Point = tuple[int, int]

DEPOT_ID = 0


class InstanceError(ValueError):
    """Malformed or inconsistent instance data."""


class SolutionFormatError(ValueError):
    """Malformed solution file content."""


def rounded_distance(a: Point, b: Point) -> int:
    """Euclidean distance between two grid points, rounded half-up.

    Computed entirely in integer arithmetic:
    ``floor(sqrt(d2) + 1/2) == (isqrt(4*d2) + 1) // 2``.
    """
    d2 = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
    return (math.isqrt(4 * d2) + 1) // 2


@dataclass(frozen=True)
class Satellite:
    id: int
    location: Point
    capacity: Optional[int] = None  # None = unbounded
    m2_local: int = 0


@dataclass(frozen=True)
class Customer:
    id: int
    location: Point
    demand: int


@dataclass(frozen=True)
class Station:
    id: int
    location: Point


@dataclass(frozen=True)
class Instance:
    """Immutable problem data.

    Satellites double as charging locations; the ``stations`` tuple holds the
    additional stand-alone charging stations only.
    """

    name: str
    depot: Point
    satellites: tuple[Satellite, ...]
    customers: tuple[Customer, ...]
    stations: tuple[Station, ...]
    q1_capacity: int
    m1_fleet: int
    q2_capacity: int
    m2_global: int
    battery_capacity: Optional[int]
    fixed_cost_l1: int = 0
    fixed_cost_l2: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise InstanceError("instance name must be non-empty")
        if self.q2_capacity >= self.q1_capacity:
            raise InstanceError("Q2 must be strictly smaller than Q1")
        if self.m1_fleet < 1 or self.m2_global < 1:
            raise InstanceError("fleet sizes must be at least 1")
        if self.battery_capacity is not None and self.battery_capacity <= 0:
            raise InstanceError("battery capacity must be positive")
        if self.fixed_cost_l1 < 0 or self.fixed_cost_l2 < 0:
            raise InstanceError("fixed costs must be non-negative")
        seen = {DEPOT_ID}
        for v in (*self.satellites, *self.customers, *self.stations):
            if v.id in seen:
                raise InstanceError(f"duplicate or reserved vertex id {v.id}")
            seen.add(v.id)
        for s in self.satellites:
            if s.capacity is not None and s.capacity < 0:
                raise InstanceError(f"satellite {s.id}: negative capacity")
            if s.m2_local < 0:
                raise InstanceError(f"satellite {s.id}: negative vehicle count")
        for c in self.customers:
            if c.demand < 1:
                raise InstanceError(f"customer {c.id}: demand must be >= 1")
            if c.demand > self.q2_capacity:
                raise InstanceError(f"customer {c.id}: customer demand exceeds Q2")

    # -- vertex lookups ----------------------------------------------------

    @cached_property
    def positions(self) -> dict[int, Point]:
        pos = {DEPOT_ID: self.depot}
        for v in (*self.satellites, *self.customers, *self.stations):
            pos[v.id] = v.location
        return pos

    @cached_property
    def satellite_ids(self) -> tuple[int, ...]:
        return tuple(s.id for s in self.satellites)

    @cached_property
    def customer_ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.customers)

    @cached_property
    def station_ids(self) -> tuple[int, ...]:
        return tuple(s.id for s in self.stations)

    @cached_property
    def charging_ids(self) -> tuple[int, ...]:
        """All charging locations: satellites first, then stand-alone stations."""
        return self.satellite_ids + self.station_ids

    @cached_property
    def demand(self) -> dict[int, int]:
        return {c.id: c.demand for c in self.customers}

    @cached_property
    def total_demand(self) -> int:
        return sum(c.demand for c in self.customers)

    @cached_property
    def satellite_by_id(self) -> dict[int, Satellite]:
        return {s.id: s for s in self.satellites}

    # -- metric ------------------------------------------------------------

    @cached_property
    def dist(self) -> dict[int, dict[int, int]]:
        """The metric: ``dist[a][b]`` for every pair of vertex ids, depot included."""
        pos = self.positions
        ids = list(pos)
        d: dict[int, dict[int, int]] = {i: {} for i in ids}
        # the metric is symmetric: each unordered pair is computed once
        for n, a in enumerate(ids):
            pa = pos[a]
            row = d[a]
            for b in ids[n:]:
                row[b] = d[b][a] = rounded_distance(pa, pos[b])
        return d

    @cached_property
    def big_m(self) -> int:
        """Penalty weight strictly exceeding any achievable route distance.

        A route traverses each ordered vertex pair at most once, so one plus
        the sum of all pairwise distances is a safe bound.
        """
        return 1 + sum(sum(row.values()) for row in self.dist.values())


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FirstLevelRoute:
    """Depot round trip: ordered (satellite id, delivered quantity) stops."""

    stops: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SecondLevelRoute:
    """Closed route of one electric vehicle.

    ``visits`` holds customer and charging-location ids in visit order; the
    home satellite is implicit at both ends.  Charging stops may reference
    stand-alone stations or satellite-hosted chargers.
    """

    satellite: int
    visits: tuple[int, ...]
    load: int


@dataclass(frozen=True)
class CostBreakdown:
    level1_distance: int
    level2_distance: int
    fixed: int
    total: int


@dataclass(frozen=True)
class Solution:
    first_level_routes: tuple[FirstLevelRoute, ...]
    second_level_routes: tuple[SecondLevelRoute, ...]
    cost: CostBreakdown


def evaluate_cost(inst: Instance, sol: Solution) -> CostBreakdown:
    """Recompute the integer cost decomposition of a solution.

    Raises ``ValueError`` on ids unknown to the instance.
    """
    l1 = 0
    for route in sol.first_level_routes:
        prev = DEPOT_ID
        for sat, _qty in route.stops:
            if sat not in inst.satellite_by_id:
                raise ValueError(f"unknown satellite id {sat} in first-level route")
            l1 += inst.dist[prev][sat]
            prev = sat
        l1 += inst.dist[prev][DEPOT_ID]
    l2 = 0
    for route in sol.second_level_routes:
        if route.satellite not in inst.satellite_by_id:
            raise ValueError(f"unknown satellite id {route.satellite}")
        prev = route.satellite
        for v in route.visits:
            if v not in inst.positions or v == DEPOT_ID:
                raise ValueError(f"unknown vertex id {v} in second-level route")
            l2 += inst.dist[prev][v]
            prev = v
        l2 += inst.dist[prev][route.satellite]
    fixed = inst.fixed_cost_l1 * len(sol.first_level_routes) + inst.fixed_cost_l2 * len(
        sol.second_level_routes
    )
    return CostBreakdown(l1, l2, fixed, l1 + l2 + fixed)


def check_feasibility(inst: Instance, sol: Solution) -> list[str]:
    """Full feasibility audit; returns a list of violations (empty = ok)."""
    out: list[str] = []
    known = inst.positions
    charging = set(inst.charging_ids)
    customers = set(inst.customer_ids)

    # coverage: each customer exactly once over all second-level routes
    seen: dict[int, int] = {}
    for route in sol.second_level_routes:
        for v in route.visits:
            if v in customers:
                seen[v] = seen.get(v, 0) + 1
    for c in inst.customer_ids:
        n = seen.get(c, 0)
        if n != 1:
            out.append(f"customer {c} visited {n} times (expected exactly once)")

    # second-level route structure
    sat_dispatch: dict[int, int] = {s: 0 for s in inst.satellite_ids}
    sat_routes: dict[int, int] = {s: 0 for s in inst.satellite_ids}
    limit = inst.battery_capacity
    for idx, route in enumerate(sol.second_level_routes):
        tag = f"route {idx} (satellite {route.satellite})"
        if route.satellite not in inst.satellite_by_id:
            out.append(f"{tag}: unknown satellite")
            continue
        sat_routes[route.satellite] += 1
        load = 0
        prev_station = False
        w = 0
        prev = route.satellite
        ok_ids = True
        for v in route.visits:
            if v not in known or v == DEPOT_ID:
                out.append(f"{tag}: unknown vertex {v}")
                ok_ids = False
                break
            is_charge = v in charging and v not in customers
            if is_charge and prev_station:
                out.append(f"{tag}: consecutive stations at {v}")
            if v in customers:
                load += inst.demand[v]
            if limit is not None:
                w += inst.dist[prev][v]
                if w > limit:
                    out.append(f"{tag}: battery exceeded at {v}")
            if is_charge:
                w = 0
            prev_station = is_charge
            prev = v
        if not ok_ids:
            continue
        if limit is not None:
            w += inst.dist[prev][route.satellite]
            if w > limit:
                out.append(f"{tag}: battery exceeded on return leg")
        if load != route.load:
            out.append(f"{tag}: stored load {route.load} != visited demand {load}")
        if load > inst.q2_capacity:
            out.append(f"{tag}: load {load} exceeds Q2={inst.q2_capacity}")
        sat_dispatch[route.satellite] += load

    # first level: loads, deliveries
    sat_received: dict[int, int] = {s: 0 for s in inst.satellite_ids}
    for idx, route in enumerate(sol.first_level_routes):
        load = 0
        for sat, qty in route.stops:
            if sat not in inst.satellite_by_id:
                out.append(f"first-level route {idx}: unknown satellite {sat}")
                continue
            if qty <= 0:
                out.append(f"first-level route {idx}: non-positive delivery {qty}")
            load += qty
            sat_received[sat] = sat_received.get(sat, 0) + qty
        if load > inst.q1_capacity:
            out.append(f"first-level route {idx}: load {load} exceeds Q1={inst.q1_capacity}")

    # satellite flow balance and capacity
    for s in inst.satellite_ids:
        if sat_received[s] != sat_dispatch[s]:
            out.append(
                f"satellite {s}: received {sat_received[s]} != dispatched {sat_dispatch[s]}"
            )
        cap = inst.satellite_by_id[s].capacity
        if cap is not None and sat_dispatch[s] > cap:
            out.append(f"satellite {s}: demand {sat_dispatch[s]} exceeds capacity {cap}")
        if sat_routes[s] > inst.satellite_by_id[s].m2_local:
            out.append(
                f"satellite {s}: {sat_routes[s]} routes exceed local fleet "
                f"{inst.satellite_by_id[s].m2_local}"
            )

    # fleet limits
    if len(sol.first_level_routes) > inst.m1_fleet:
        out.append(
            f"{len(sol.first_level_routes)} first-level routes exceed fleet {inst.m1_fleet}"
        )
    if len(sol.second_level_routes) > inst.m2_global:
        out.append(
            f"{len(sol.second_level_routes)} second-level routes exceed fleet {inst.m2_global}"
        )

    # cost decomposition must match exactly
    try:
        cost = evaluate_cost(inst, sol)
    except ValueError:
        cost = None
    if cost is not None and cost != sol.cost:
        out.append(f"cost breakdown mismatch: stored {sol.cost}, recomputed {cost}")
    return out


# ---------------------------------------------------------------------------
# Instance file format
# ---------------------------------------------------------------------------
#
#   NAME <string>
#   LEVEL1 <m1> <Q1> [<F1>]
#   LEVEL2 <m2_global> <Q2> <F2> <L|inf> [<consumption_factor>]
#   DEPOT <x> <y>
#   SATELLITES <n_s>
#   <id> <x> <y> <capacity|-> <m2_local>
#   CUSTOMERS <n_c>
#   <id> <x> <y> <demand>
#   STATIONS <n_r>
#   <id> <x> <y>
#
# `#` starts a comment; blank lines are ignored.  Ids are globally unique
# positive integers (0 is the depot).  A consumption factor f is folded into
# the range, L becoming floor(L / f), and is not written back.


def _tokens(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_int(
    tok: str,
    lineno: int,
    what: str,
    minimum: Optional[int] = None,
    error: type[ValueError] = InstanceError,
) -> int:
    try:
        value = int(tok)
    except ValueError:
        raise error(f"line {lineno}: {what} must be an integer, got {tok!r}") from None
    if minimum is not None and value < minimum:
        raise error(f"line {lineno}: {what} must be >= {minimum}, got {value}")
    return value


def parse_instance(text: str) -> Instance:
    """Parse instance file content; raises :class:`InstanceError` with line numbers."""
    it = _tokens(text)

    def take(section: str, n_min: int, n_max: int) -> tuple[int, list[str]]:
        try:
            lineno, toks = next(it)
        except StopIteration:
            raise InstanceError(f"unexpected end of file, expected {section}") from None
        if toks[0].upper() != section:
            raise InstanceError(f"line {lineno}: expected {section} section, got {toks[0]!r}")
        if not (n_min <= len(toks) - 1 <= n_max):
            raise InstanceError(f"line {lineno}: {section} expects {n_min}..{n_max} fields")
        return lineno, toks[1:]

    def take_row(kind: str, n_fields: int) -> tuple[int, list[str]]:
        try:
            lineno, toks = next(it)
        except StopIteration:
            raise InstanceError(f"unexpected end of file inside {kind} section") from None
        if len(toks) != n_fields:
            raise InstanceError(f"line {lineno}: {kind} row expects {n_fields} fields")
        return lineno, toks

    _, name_toks = take("NAME", 1, 1)
    name = name_toks[0]

    ln, l1 = take("LEVEL1", 2, 3)
    m1 = _parse_int(l1[0], ln, "m1", 1)
    q1 = _parse_int(l1[1], ln, "Q1", 1)
    f1 = _parse_int(l1[2], ln, "F1", 0) if len(l1) == 3 else 0

    ln, l2 = take("LEVEL2", 4, 5)
    m2 = _parse_int(l2[0], ln, "m2", 1)
    q2 = _parse_int(l2[1], ln, "Q2", 1)
    f2 = _parse_int(l2[2], ln, "F2", 0)
    if l2[3].lower() == "inf":
        battery: Optional[int] = None
    else:
        battery = _parse_int(l2[3], ln, "battery capacity", 1)
    if len(l2) == 5:
        try:
            factor = Fraction(l2[4])
        except (ValueError, ZeroDivisionError):
            raise InstanceError(f"line {ln}: bad consumption factor {l2[4]!r}") from None
        if factor <= 0:
            raise InstanceError(f"line {ln}: consumption factor must be positive")
        if battery is not None:
            # f * S <= L iff S <= floor(L / f) for an integer leg sum S
            battery = battery * factor.denominator // factor.numerator
            if battery < 1:
                raise InstanceError(f"line {ln}: battery {l2[3]} / factor {l2[4]} is a range below 1")

    ln, dep = take("DEPOT", 2, 2)
    depot = (_parse_int(dep[0], ln, "x"), _parse_int(dep[1], ln, "y"))

    ln, ns = take("SATELLITES", 1, 1)
    n_s = _parse_int(ns[0], ln, "satellite count", 0)
    satellites = []
    for _ in range(n_s):
        ln, row = take_row("satellite", 5)
        cap = None if row[3] == "-" else _parse_int(row[3], ln, "satellite capacity", 0)
        satellites.append(
            Satellite(
                id=_parse_int(row[0], ln, "satellite id", 1),
                location=(_parse_int(row[1], ln, "x"), _parse_int(row[2], ln, "y")),
                capacity=cap,
                m2_local=_parse_int(row[4], ln, "satellite fleet", 0),
            )
        )

    ln, nc = take("CUSTOMERS", 1, 1)
    n_c = _parse_int(nc[0], ln, "customer count", 0)
    customers = []
    for _ in range(n_c):
        ln, row = take_row("customer", 4)
        demand = _parse_int(row[3], ln, "demand", 1)
        if demand > q2:
            raise InstanceError(f"line {ln}: customer demand exceeds Q2")
        customers.append(
            Customer(
                id=_parse_int(row[0], ln, "customer id", 1),
                location=(_parse_int(row[1], ln, "x"), _parse_int(row[2], ln, "y")),
                demand=demand,
            )
        )

    ln, nr = take("STATIONS", 1, 1)
    n_r = _parse_int(nr[0], ln, "station count", 0)
    stations = []
    for _ in range(n_r):
        ln, row = take_row("station", 3)
        stations.append(
            Station(
                id=_parse_int(row[0], ln, "station id", 1),
                location=(_parse_int(row[1], ln, "x"), _parse_int(row[2], ln, "y")),
            )
        )

    for lineno, toks in it:
        raise InstanceError(f"line {lineno}: unexpected trailing content {toks[0]!r}")

    return Instance(
        name=name,
        depot=depot,
        satellites=tuple(satellites),
        customers=tuple(customers),
        stations=tuple(stations),
        q1_capacity=q1,
        m1_fleet=m1,
        q2_capacity=q2,
        m2_global=m2,
        battery_capacity=battery,
        fixed_cost_l1=f1,
        fixed_cost_l2=f2,
    )


def write_instance(inst: Instance) -> str:
    """Serialize an instance; ``parse_instance(write_instance(x)) == x``."""
    lines = [
        f"NAME {inst.name}",
        f"LEVEL1 {inst.m1_fleet} {inst.q1_capacity} {inst.fixed_cost_l1}",
        "LEVEL2 {} {} {} {}".format(
            inst.m2_global,
            inst.q2_capacity,
            inst.fixed_cost_l2,
            "inf" if inst.battery_capacity is None else inst.battery_capacity,
        ),
        f"DEPOT {inst.depot[0]} {inst.depot[1]}",
        f"SATELLITES {len(inst.satellites)}",
    ]
    for s in inst.satellites:
        cap = "-" if s.capacity is None else s.capacity
        lines.append(f"{s.id} {s.location[0]} {s.location[1]} {cap} {s.m2_local}")
    lines.append(f"CUSTOMERS {len(inst.customers)}")
    for c in inst.customers:
        lines.append(f"{c.id} {c.location[0]} {c.location[1]} {c.demand}")
    lines.append(f"STATIONS {len(inst.stations)}")
    for r in inst.stations:
        lines.append(f"{r.id} {r.location[0]} {r.location[1]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Solution file format
# ---------------------------------------------------------------------------
#
#   COSTS <level1_distance> <level2_distance> <fixed> <total>
#   L1: 0 <sat_id>:<qty> ... 0
#   L2: <sat_id> <vertex_id> ... <sat_id>
#
# One L1/L2 line per route, `#` comments allowed.  L2 vertex ids are customer
# or charging-location ids; the home satellite opens and closes the line.


def write_solution(sol: Solution) -> str:
    lines = [
        "COSTS {} {} {} {}".format(
            sol.cost.level1_distance, sol.cost.level2_distance, sol.cost.fixed, sol.cost.total
        )
    ]
    for route in sol.first_level_routes:
        mid = " ".join(f"{sat}:{qty}" for sat, qty in route.stops)
        lines.append(f"L1: {DEPOT_ID} {mid} {DEPOT_ID}".replace("  ", " "))
    for route in sol.second_level_routes:
        mid = " ".join(str(v) for v in route.visits)
        body = f"{route.satellite} {mid} {route.satellite}".replace("  ", " ")
        lines.append(f"L2: {body}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str, inst: Optional[Instance] = None) -> Solution:
    """Parse solution file content.

    Route loads are not stored in the file; pass ``inst`` to fill them in
    from customer demands (required before :func:`check_feasibility`).
    """
    num = partial(_parse_int, error=SolutionFormatError)
    costs: Optional[CostBreakdown] = None
    first: list[FirstLevelRoute] = []
    second: list[SecondLevelRoute] = []
    for lineno, toks in _tokens(text):
        head = toks[0].upper()
        if head == "COSTS":
            if costs is not None:
                raise SolutionFormatError(f"line {lineno}: duplicate COSTS record")
            if len(toks) != 5:
                raise SolutionFormatError(f"line {lineno}: COSTS expects 4 integers")
            vals = [num(t, lineno, "cost") for t in toks[1:]]
            costs = CostBreakdown(*vals)
        elif head == "L1:":
            if len(toks) < 3 or toks[1] != str(DEPOT_ID) or toks[-1] != str(DEPOT_ID):
                raise SolutionFormatError(f"line {lineno}: L1 route must start and end at depot")
            stops = []
            for tok in toks[2:-1]:
                if ":" not in tok:
                    raise SolutionFormatError(f"line {lineno}: expected sat:qty, got {tok!r}")
                sat_s, qty_s = tok.split(":", 1)
                stops.append(
                    (num(sat_s, lineno, "satellite id"), num(qty_s, lineno, "qty"))
                )
            first.append(FirstLevelRoute(tuple(stops)))
        elif head == "L2:":
            if len(toks) < 3:
                raise SolutionFormatError(f"line {lineno}: L2 route needs satellite ids")
            sat = num(toks[1], lineno, "satellite id")
            end = num(toks[-1], lineno, "satellite id")
            if sat != end:
                raise SolutionFormatError(
                    f"line {lineno}: L2 route must start and end at the same satellite"
                )
            visits = tuple(num(t, lineno, "vertex id") for t in toks[2:-1])
            load = 0
            if inst is not None:
                load = sum(inst.demand.get(v, 0) for v in visits)
            second.append(SecondLevelRoute(sat, visits, load))
        else:
            raise SolutionFormatError(f"line {lineno}: unknown record {toks[0]!r}")
    if costs is None:
        raise SolutionFormatError("missing COSTS record")
    return Solution(tuple(first), tuple(second), costs)


def count_station_visits(inst: Instance, sol: Solution) -> int:
    """Number of charging stops (stand-alone or satellite-hosted) in a solution."""
    customers = set(inst.customer_ids)
    return sum(
        1 for route in sol.second_level_routes for v in route.visits if v not in customers
    )


def unservable_customers(inst: Instance) -> list[int]:
    """Customers no route can ever reach within the battery capacity.

    Between two consecutive full charges the vehicle travels from one
    charging location (or the home satellite) to the next; a visit to
    customer c therefore costs at least the distance to c from its
    nearest charging location plus the distance from c to the nearest
    one, which must fit in one battery charge.  Instances with a non-empty
    result are provably infeasible.  The converse does not always hold: a
    customer can pass this screen and still lie on no closed route within
    the battery.
    """
    limit = inst.battery_capacity
    if limit is None or not inst.charging_ids:
        return [] if limit is None else list(inst.customer_ids)
    out = []
    for c in inst.customer_ids:
        nearest = min(inst.dist[c][k] for k in inst.charging_ids)
        if 2 * nearest > limit:
            out.append(c)
    return out


def second_level_capacity(inst: Instance, satellites: Sequence[Satellite]) -> int:
    """The most that second-level vehicles based at ``satellites`` can deliver.

    A satellite sends out at most its capacity and at most ``m2_local``
    loads of Q2; the whole fleet carries at most ``min(sum of m2_local,
    m2_global)`` loads.  A run can serve every customer from these
    satellites only if the result is at least the total demand.
    """
    q2 = inst.q2_capacity
    held = sum(
        s.m2_local * q2 if s.capacity is None else min(s.capacity, s.m2_local * q2)
        for s in satellites
    )
    return min(held, min(sum(s.m2_local for s in satellites), inst.m2_global) * q2)


def unservable_reason(inst: Instance) -> Optional[str]:
    """Why no solution can exist, read off the instance alone, or ``None``.

    Refuses an instance with customers when no satellite has a second-level
    vehicle, when :func:`unservable_customers` is non-empty, when the total
    demand exceeds what the first-level fleet carries (``m1`` loads of Q1,
    split deliveries allowed), or when it exceeds
    :func:`second_level_capacity` of all satellites.  Every demand vector a
    run builds has that total, so past this check ``build_first_level``
    always succeeds.  Both ``lns_run`` and ``bound_report`` call it before
    any search or pricing.
    """
    if not inst.customers:
        return None
    if not any(s.m2_local for s in inst.satellites):
        return "no satellite has a second-level vehicle to serve the customers"
    dead = unservable_customers(inst)
    if dead:
        return f"customer(s) {dead} cannot be reached within one battery charge from any charging location"
    total = inst.total_demand
    if total > inst.m1_fleet * inst.q1_capacity:
        return (
            f"the first-level fleet of {inst.m1_fleet} vehicle(s) of capacity "
            f"{inst.q1_capacity} cannot carry the total demand of {total}"
        )
    room = second_level_capacity(inst, inst.satellites)
    if room < total:
        return f"the second-level fleet can carry at most {room} of the total demand of {total}"
    return None
