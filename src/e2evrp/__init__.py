"""Solver toolkit for the electric two-echelon vehicle routing problem."""

from .bench import (
    BATTERY_LEVELS,
    DENSITY_LEVELS,
    MetroGenConfig,
    SweepRecord,
    SweepRunRecord,
    augment_2evrp_instance,
    feasible_metro_seeds,
    fit_power_law,
    generate_metro_instance,
    metro_family,
    sweep,
    write_sweep_csv,
)
from .charging import (
    InsertionResult,
    best_insertion,
    visits_with_stations,
)
from .lns import ConstructionError, LnsParams, RunStats, lns_run
from .localsearch import local_search
from .model import (
    CostBreakdown,
    Customer,
    FirstLevelRoute,
    Instance,
    InstanceError,
    Satellite,
    SecondLevelRoute,
    Solution,
    SolutionFormatError,
    Station,
    check_feasibility,
    count_station_visits,
    evaluate_cost,
    parse_instance,
    parse_solution,
    rounded_distance,
    unservable_customers,
    write_instance,
    write_solution,
)
from .multigraph import Multigraph, build_multigraph, reduce_by_dominance, reduced_multigraph
from .ngpricing import (
    NgRouteTable,
    NgSets,
    NgStateSpaceExceeded,
    bound_report,
    price_ng_routes,
)
from .search import SolverContext, build_first_level, build_neighbor_lists

__version__ = "0.1.0"
