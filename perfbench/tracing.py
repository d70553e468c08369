"""Span tracing of e2evrp's public functions, installed from outside the package.

``Tracer.installed()`` rebinds each traced function wherever the package
binds it (module globals, the package's own exports, class attributes) to a
wrapper that records a span, and puts the originals back on exit.  The
solver itself is not modified.  Spans are kept in memory as rows of
``(name, start, end, parent, op)`` and written once by :meth:`Tracer.write`.
The wrappers draw no random numbers and pass arguments and results through
unchanged, so a traced run must reproduce the untraced run exactly.

Span names are ``<module>.<function>``; the module is the layer.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from e2evrp import charging, lns, localsearch, model, multigraph, ngpricing, search

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("model.parse_s", "s", "lower"),
    ("model.unservable_s", "s", "lower"),
    ("multigraph.build_s", "s", "lower"),
    ("multigraph.reduce_s", "s", "lower"),
    ("multigraph.arcs_built", "count", "lower"),
    ("multigraph.arcs_kept", "count", "lower"),
    ("search.neighbors_s", "s", "lower"),
    ("search.context_build_s", "s", "lower"),
    ("search.plan_calls", "count", "lower"),
    ("search.plan_hit_ratio", "frac", "higher"),
    ("search.first_level_calls", "count", "lower"),
    ("search.first_level_s", "s", "lower"),
    ("charging.calls", "count", "lower"),
    ("charging.us_per_call", "us", "lower"),
    ("charging.infeasible_frac", "frac", "lower"),
    ("localsearch.calls", "count", "lower"),
    ("localsearch.self_s", "s", "lower"),
    ("localsearch.share", "frac", "lower"),
    ("localsearch.reprices_per_call", "count", "lower"),
    ("localsearch.improving_frac", "frac", "higher"),
    ("lns.iterations", "count", "higher"),
    ("lns.restarts", "count", "higher"),
    ("lns.repair_calls", "count", "higher"),
    ("lns.repair_fail_frac", "frac", "lower"),
    ("lns.repair_self_s", "s", "lower"),
    ("lns.search_it_per_s", "1/s", "higher"),
    ("ngpricing.ngsets_s", "s", "lower"),
    ("ngpricing.price_calls", "count", "lower"),
    ("ngpricing.price_s", "s", "lower"),
    ("ngpricing.labels", "count", "lower"),
    ("ngpricing.labels_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.uncovered_frac", "frac", "lower"),
)

# root spans the benchmark opens around the public entry points it calls
LNS_RUN = "lns.lns_run"
BOUND_REPORT = "ngpricing.bound_report"

_NAME, _START, _END, _PARENT, _OP, _CHILD = range(6)


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, child time]
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.op = 0
        self.counts: Counter = Counter()

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self._open[name] += 1
        self.spans.append([name, 0.0, 0.0, parent, self.op, 0.0])
        self.spans[idx][_START] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        t = time.perf_counter()
        span = self.spans[idx]
        span[_END] = t
        self._stack.pop()
        self._open[span[_NAME]] -= 1
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += t - span[_START]

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def new_op(self) -> None:
        """Later spans belong to a new operation (one set-up, solve or bound)."""
        self.op += 1

    # -- installation --------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(token, args, result)
            return result

        return traced

    def _targets(self):
        """(original function, span name, before hook, after hook) per traced function."""
        c = self.counts

        def arcs(key):
            def after(_token, _args, graph):
                c[key] = graph.arc_count()

            return after

        def plan_before(_args):
            if self._open["localsearch.local_search"]:
                c["localsearch.reprices"] += 1
            return c["charging.calls"]

        def plan_after(charging_before, _args, _result):
            if c["charging.calls"] == charging_before:
                c["search.plan_hits"] += 1

        def charging_after(_token, _args, result):
            c["charging.calls"] += 1
            c["charging.infeasible"] += not result.feasible

        def repair_after(_token, _args, result):
            c["lns.repair_fail"] += result is None

        def objective(sol, ctx):
            if any(r.plan is None for r in sol.routes):
                return None
            return sol.objective(ctx.inst)

        def ls_before(args):
            ctx, sol = args[0], args[1]
            return objective(sol, ctx)

        def ls_after(before, args, _result):
            after = objective(args[1], args[0])
            c["localsearch.improving"] += (
                before is not None and after is not None and after < before
            )

        def price_after(_token, _args, table):
            c["ngpricing.labels"] += table.label_count

        return [
            (model.parse_instance, "model.parse_instance", None, None),
            (model.unservable_customers, "model.unservable_customers", None, None),
            (multigraph.build_multigraph, "multigraph.build_multigraph", None,
             arcs("multigraph.arcs_built")),
            (multigraph.reduce_by_dominance, "multigraph.reduce_by_dominance", None,
             arcs("multigraph.arcs_kept")),
            (search.build_neighbor_lists, "search.build_neighbor_lists", None, None),
            (search.build_first_level, "search.build_first_level", None, None),
            (charging.best_insertion, "charging.best_insertion", None, charging_after),
            (lns.repair, "lns.repair", None, repair_after),
            (localsearch.local_search, "localsearch.local_search", ls_before, ls_after),
            (ngpricing.price_ng_routes, "ngpricing.price_ng_routes", None, price_after),
            (search.SolverContext.plan, "search.SolverContext.plan", plan_before, plan_after),
        ]

    @contextmanager
    def installed(self):
        """Trace the package's public functions for the duration of the block."""
        saved: list[tuple[object, str, object]] = []

        def rebind(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            modules = [m for k, m in sys.modules.items() if k == "e2evrp" or k.startswith("e2evrp.")]
            for fn, name, before, after in self._targets():
                wrapper = self._wrap(fn, name, before, after)
                if name == "search.SolverContext.plan":
                    rebind(search.SolverContext, "plan", wrapper)
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            rebind(mod, attr, wrapper)
            for cls, name in (
                (search.SolverContext, "search.SolverContext.build"),
                (ngpricing.NgSets, "ngpricing.NgSets.build"),
            ):
                rebind(cls, "build", classmethod(self._wrap(cls.__dict__["build"].__func__, name)))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Per span name: call count, total time, self time and call durations."""
        out: dict[str, dict] = {}
        for name, start, end, _parent, _op, child in self.spans:
            agg = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})
            agg["calls"] += 1
            agg["total"] += end - start
            agg["self"] += end - start - child
            agg["durations"].append(end - start)
        return out

    def write(self, path: Path) -> None:
        """Write every span once, with times relative to the first span."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        rows = [
            [name, round(start - t0, 9), round(end - t0, 9), parent, op]
            for name, start, end, parent, op, _child in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": rows}, fh)


def layer_metrics(tracer: Tracer, run_stats: list, untraced_solve_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Set-up steps (parse, screen, graph build and reduce, neighbour lists,
    context build, ng sets) report the median seconds per call; search and
    pricing layers report totals over the pass.  ``run_stats`` are the
    ``RunStats`` of the traced solves and ``untraced_solve_s`` the summed
    wall time of the same solves without tracing.
    """
    agg = tracer.by_name()
    c = tracer.counts

    def get(name):
        return agg.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})

    def median_s(name):
        d = get(name)["durations"]
        return statistics.median(d) if d else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    plan = get("search.SolverContext.plan")
    charge = get("charging.best_insertion")
    ls = get("localsearch.local_search")
    repair = get("lns.repair")
    price = get("ngpricing.price_ng_routes")
    first = get("search.build_first_level")
    runs = get(LNS_RUN)
    roots = [runs, get(BOUND_REPORT)]
    root_total = sum(r["total"] for r in roots)
    iterations = sum(s.iterations for s in run_stats)
    return {
        "model.parse_s": median_s("model.parse_instance"),
        "model.unservable_s": median_s("model.unservable_customers"),
        "multigraph.build_s": median_s("multigraph.build_multigraph"),
        "multigraph.reduce_s": median_s("multigraph.reduce_by_dominance"),
        "multigraph.arcs_built": c["multigraph.arcs_built"],
        "multigraph.arcs_kept": c["multigraph.arcs_kept"],
        "search.neighbors_s": median_s("search.build_neighbor_lists"),
        "search.context_build_s": median_s("search.SolverContext.build"),
        "search.plan_calls": plan["calls"],
        "search.plan_hit_ratio": ratio(c["search.plan_hits"], plan["calls"]),
        "search.first_level_calls": first["calls"],
        "search.first_level_s": first["total"],
        "charging.calls": charge["calls"],
        "charging.us_per_call": 1e6 * ratio(charge["total"], charge["calls"]),
        "charging.infeasible_frac": ratio(c["charging.infeasible"], charge["calls"]),
        "localsearch.calls": ls["calls"],
        "localsearch.self_s": ls["self"],
        "localsearch.share": ratio(ls["self"], runs["total"]),
        "localsearch.reprices_per_call": ratio(c["localsearch.reprices"], ls["calls"]),
        "localsearch.improving_frac": ratio(c["localsearch.improving"], ls["calls"]),
        "lns.iterations": iterations,
        "lns.restarts": sum(s.restarts for s in run_stats),
        "lns.repair_calls": repair["calls"],
        "lns.repair_fail_frac": ratio(c["lns.repair_fail"], repair["calls"]),
        "lns.repair_self_s": repair["self"],
        # iterations per second of lns_run time outside its context build
        "lns.search_it_per_s": ratio(
            iterations, runs["total"] - get("search.SolverContext.build")["total"]
        ),
        "ngpricing.ngsets_s": median_s("ngpricing.NgSets.build"),
        "ngpricing.price_calls": price["calls"],
        "ngpricing.price_s": price["total"],
        "ngpricing.labels": c["ngpricing.labels"],
        "ngpricing.labels_per_s": ratio(c["ngpricing.labels"], price["total"]),
        "trace.overhead_frac": ratio(runs["total"], untraced_solve_s) - 1.0,
        # share of the entry points' time that no named inner span covers
        "trace.uncovered_frac": ratio(sum(r["self"] for r in roots), root_total),
    }
