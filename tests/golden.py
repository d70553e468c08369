"""Pinned results on the benchmark's metro instances (instance seed 1), and
on one instance whose first level needs a split delivery.

A change that should keep the search path, the graphs and the ng tables
must keep every pin.  A solve pin also holds the work of the run: the calls
of the local-search move handlers and the runs of the charging DP.  The
pytest tests take their parameters from here; the file also checks every
pin with the standard library alone:

    PYTHONPATH=src python tests/golden.py

prints one line per pin and exits 1 on any mismatch.
"""

from __future__ import annotations

import hashlib
import sys

from e2evrp import localsearch, search
from e2evrp.lns import LnsParams, lns_run
from e2evrp.model import parse_instance, write_solution
from e2evrp.multigraph import build_multigraph, reduce_by_dominance
from e2evrp.ngpricing import NgSets, _bound_from_tables, price_ng_routes

from oracles import metro_instance

# one restart of lns_run: (customers, stations, seed, i_max,
# deterministic_fields(), sha1 of the write_solution text, (handler calls,
# charging-DP runs))
SOLVES = [
    (50, 20, 2, 20, (15028, 26, 1, 0, 6), "199ae6852a143f5bbe660230d7fa5fc1ec76678f", (98523, 1119)),
    (10, 5, 1, 20, (5763, 29, 1, 0, 9), "c4645bf72d95051400b7c00a8e2b9b938b621ced", (3997, 147)),
    (50, 20, 3, 20, (16278, 43, 1, 0, 23), "0f43d60cd9d2c1561b8f9ae87f3e69497872ae68", (142312, 1593)),
    (50, 20, 4, 20, (15716, 20, 1, 0, 0), "e81513aa6fc9a18b3ed3f8354c209771591a4ee4", (66396, 585)),
    (100, 20, 1, 1, (25637, 4, 1, 0, 3), "734f7a8068867ef318ce4e22ff7add52c9dc2e98", (87055, 1059)),
]

# four satellites 1000 from the depot, each with one customer 10 beyond it;
# the residual demands 4, 4, 6, 6 fit two trucks of 10 only when one of
# them is split, which the cheapest-insertion packing alone never does
FIRST_FIT = """\
NAME first-fit
LEVEL1 2 10 0
LEVEL2 8 8 0 100
DEPOT 0 0
SATELLITES 4
1 1000 0 - 2
2 0 1000 - 2
3 -1000 0 - 2
4 0 -1000 - 2
CUSTOMERS 4
5 1010 0 4
6 0 1010 4
7 -1010 0 6
8 0 -1010 6
STATIONS 0
"""

# lns_run on FIRST_FIT: (restarts, i_max, seed, deterministic_fields(), sha1
# of the write_solution text, (handler calls, charging-DP runs)); a solution
# of cost 6908 exists
FIRST_FIT_SOLVE = (
    5, 20, 1, (8322, 100, 5, 0, 0), "d6efbbc065411b606a7d7c7b2fccaeb9f7a151c7", (1041, 12),
)

# ng tables of the bound-m10 instance: (customers, stations, delta, sha1 of
# the tables, label_count per satellite in id order, lower bound)
PRICING = (
    10, 5, 3, "b429a99a15f11f8fd85ce890fa5904a005b6f71f", (6126, 6043, 5529, 5970), 3034,
)

# the eager graphs: (customers, stations, arcs built, arcs kept, sha1 of the
# reduced rows)
MULTIGRAPH = [
    (10, 5, 1276, 550, "0b1d9a2ebd27cc3255dfc4edbe3be1bf4f4ad249"),
    (50, 20, 53714, 15454, "a03d690ff85d54fb736149cc45d791b2d6d07182"),
]


def _sha1(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()


def _counted_run(inst, params: LnsParams) -> tuple[tuple, str, tuple[int, int]]:
    """``deterministic_fields()``, the solution text's sha1 and the work of
    ``lns_run``: the move handlers of local search are counted as they are
    called, and the charging DP as the plan cache runs it.  Both are put
    back as they were afterwards."""
    counts = [0, 0]

    def counting(fn, slot):
        def counted(*args):
            counts[slot] += 1
            return fn(*args)

        return counted

    handlers, dp = dict(localsearch._HANDLERS), search.best_insertion
    localsearch._HANDLERS.update((nb, counting(fn, 0)) for nb, fn in handlers.items())
    search.best_insertion = counting(dp, 1)
    try:
        sol, stats = lns_run(inst, params)
    finally:
        localsearch._HANDLERS.update(handlers)
        search.best_insertion = dp
    digest = hashlib.sha1(write_solution(sol).encode()).hexdigest()
    return stats.deterministic_fields(), digest, tuple(counts)


def solve(customers: int, stations: int, seed: int, i_max: int) -> tuple[tuple, str, tuple]:
    """Fields, sha1 and work (``_counted_run``) of one restart."""
    params = LnsParams(t_max=None, max_restarts=1, i_max=i_max, seed=seed)
    return _counted_run(metro_instance(customers, stations), params)


def first_fit(restarts: int, i_max: int, seed: int) -> tuple[tuple, str, tuple]:
    """Fields, sha1 and work (``_counted_run``) on FIRST_FIT."""
    params = LnsParams(t_max=None, max_restarts=restarts, i_max=i_max, seed=seed)
    return _counted_run(parse_instance(FIRST_FIT), params)


def pricing(customers: int, stations: int, delta: int) -> tuple[str, tuple[int, ...], int]:
    """The sha1 of every satellite's ng table on the eager graph, the label
    counts and the bound."""
    inst = metro_instance(customers, stations)
    graph = reduce_by_dominance(build_multigraph(inst))
    ng = NgSets.build(inst, delta=delta)
    tables = {k: price_ng_routes(inst, graph, k, ng) for k in inst.satellite_ids}
    rows = [(k, sorted(tbl.by_load_last.items())) for k, tbl in sorted(tables.items())]
    labels = tuple(tbl.label_count for _, tbl in sorted(tables.items()))
    return _sha1(rows), labels, _bound_from_tables(inst, tables)


def multigraph(customers: int, stations: int) -> tuple[int, int, str]:
    """Arcs built and kept by the eager graphs, and the sha1 of the kept rows."""
    g = build_multigraph(metro_instance(customers, stations))
    red = reduce_by_dominance(g)
    rows = [((i, j), tuple((i, j, *row) for row in red.arcs(i, j))) for (i, j) in red.pairs()]
    return g.arc_count(), red.arc_count(), _sha1(rows)


def main() -> int:
    checks = [
        (f"solve {c}x{s} seed {seed} i_max {i_max}", solve(c, s, seed, i_max), (fields, digest, work))
        for c, s, seed, i_max, fields, digest, work in SOLVES
    ]
    restarts, i_max, seed, fields, digest, work = FIRST_FIT_SOLVE
    checks.append(
        (
            f"solve first-fit restarts {restarts} i_max {i_max} seed {seed}",
            first_fit(restarts, i_max, seed),
            (fields, digest, work),
        )
    )
    c, s, delta, digest, labels, bound = PRICING
    checks.append(
        (f"pricing {c}x{s} delta {delta}", pricing(c, s, delta), (digest, labels, bound))
    )
    checks += [
        (f"multigraph {c}x{s}", multigraph(c, s), (built, kept, digest))
        for c, s, built, kept, digest in MULTIGRAPH
    ]
    failed = 0
    for name, got, want in checks:
        ok = got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got}" + ("" if ok else f" != {want}"))
    print(f"python {sys.version.split()[0]}: {len(checks) - failed} of {len(checks)} pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
