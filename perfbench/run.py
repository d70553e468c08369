"""Benchmark of the e2evrp solver on generated metro instances.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-m50 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all     # every workload, untraced then traced

Each workload generates its instance with the metro generator, writes it
to text and parses it back, so the solver sees only text.  ``--trace 0``
times the public entry points with nothing installed and reports the
end-to-end metrics; ``--trace 1`` repeats the same calls untraced and then
traced, checks that both give identical results, and reports the per-layer
metrics.  Every solution and bound is checked; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 1 when any check failed and 2 when the instance is refused.  perfbench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "e2evrp" / "__init__.py").is_file():
    sys.exit(f"perfbench: solver sources not found under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import e2evrp  # noqa: E402  (needs the path set above)
from e2evrp.bench import MetroGenConfig, generate_metro_instance  # noqa: E402

from tracing import BOUND_REPORT, LNS_RUN, PER_LAYER, Tracer, layer_metrics  # noqa: E402

if Path(e2evrp.__file__).resolve().parent != SRC / "e2evrp":
    sys.exit(f"perfbench: imported e2evrp from {e2evrp.__file__}, not from {SRC}")

# (name, unit) of every end-to-end metric, in report order
E2E = (
    ("setup_s", "s"),
    ("call_rel", "ref"),
    ("best_cost_mean", "cost"),
    ("peak_rss_mb", "MB"),
)

BATTERY = 1000
MAX_RESTARTS = 1
REFERENCE = HERE / "reference.json"
TRACE_DIR = HERE / "out"


@dataclass(frozen=True)
class Workload:
    customers: int
    stations: int
    solver_seeds: tuple[int, ...]  # lns_run per seed, max_restarts=1, t_max=None
    i_max: int
    setups: int  # set-ups per run, one in each of the first rounds; setup_s is their median
    bound_delta: int = 0  # > 0: the workload times bound_report at this delta


# Every timed call is short (about 0.5-2 s) and repeated while --seconds
# lasts, each right after a timing of reference_loop; see README.
WORKLOADS = {
    "solve-m50": Workload(50, 20, (2, 3, 4), i_max=20, setups=10),
    "solve-m100": Workload(100, 20, (1,), i_max=1, setups=3),
    "bound-m10": Workload(10, 5, (1,), i_max=20, setups=40, bound_delta=3),
}


def reference_loop() -> dict:
    """Fixed pure-Python work, independent of the solver, that takes about 50 ms.

    It is timed right before every timed call, and ``call_rel`` is the call's
    time over it: the call's cost in units of this loop, on the same machine
    a moment earlier.  It allocates no container after its first, so the
    garbage collector never runs inside it and the solver's heap cannot
    change its time.
    """
    counts = dict.fromkeys(range(64), 0)
    for i in range(600_000):
        counts[i & 63] += i % 7
    return counts


def reference_s() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class RefusedInput(ValueError):
    """The requested instance cannot be served; no measurement is made."""


def instance_text(w: Workload, instance_seed: int) -> str:
    """Metro instance for the workload, as instance-file text.

    ``m1_fleet`` is ceil(total demand / Q1) + satellites - 1: whatever the
    split of demand over satellites, the full truckloads plus one partial
    load per satellite then fit, so first-level construction cannot fail.
    """
    inner = w.customers * 4 // 5
    cfg = MetroGenConfig(
        n_stations=w.stations,
        battery=BATTERY,
        seed=instance_seed,
        n_customers_inner=inner,
        n_customers_outer=w.customers - inner,
    )
    demand = generate_metro_instance(cfg).total_demand
    cfg = replace(cfg, m1_fleet=math.ceil(demand / cfg.q1_capacity) + cfg.n_satellites - 1)
    inst = generate_metro_instance(cfg)
    dead = e2evrp.unservable_customers(inst)
    if dead:
        raise RefusedInput(
            f"instance seed {instance_seed} gives an unservable instance: customer(s) "
            f"{dead} lie beyond half the battery range ({BATTERY}) of every charging "
            "location; choose another --instance-seed"
        )
    return e2evrp.write_instance(inst)


def reference_bound(w: Workload, instance_seed: int) -> dict | None:
    """Recorded ``{"delta", "value"}`` lower bound of the workload's instance, or None."""
    key = f"c{w.customers}-r{w.stations}-s{instance_seed}"
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["lower_bounds"].get(key)


class Run:
    """Operations of one benchmark run, with their checks and failure count."""

    def __init__(self, w: Workload, text: str, instance_seed: int):
        self.w = w
        self.text = text
        self.attempted = 0
        self.failed = 0
        self.ref_bound = reference_bound(w, instance_seed)

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        for p in problems:
            print(f"FAIL {what}: {p}", file=sys.stderr)

    # -- operations (each counts once toward attempted) -----------------------

    def setup(self):
        """Parse, screen and build what the workload's entry point needs.

        Returns (seconds, built objects).
        """
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        inst = e2evrp.parse_instance(self.text)
        if self.w.bound_delta:
            graph = e2evrp.reduce_by_dominance(e2evrp.build_multigraph(inst))
            delta = min(self.w.bound_delta, max(1, len(inst.customers)))
            built = (inst, graph, e2evrp.NgSets.build(inst, delta=delta))
        else:
            dead = e2evrp.unservable_customers(inst)
            built = (inst, e2evrp.SolverContext.build(inst, e2evrp.LnsParams().granularity))
            if dead:
                self.fail("setup", [f"unservable customers {dead}"])
        return time.perf_counter() - t0, built

    def solve(self, seed: int, tracer: Tracer | None = None):
        """One lns_run on a freshly parsed instance; None when it failed."""
        self.attempted += 1
        try:
            inst = e2evrp.parse_instance(self.text)
            params = e2evrp.LnsParams(
                t_max=None, max_restarts=MAX_RESTARTS, i_max=self.w.i_max, seed=seed
            )
            gc.collect()
            t0 = time.perf_counter()
            if tracer is None:
                sol, stats = e2evrp.lns_run(inst, params)
            else:
                with tracer.span(LNS_RUN):
                    sol, stats = e2evrp.lns_run(inst, params)
            elapsed = time.perf_counter() - t0
        except Exception:  # a crashing solve is a failed operation, not a crashed run
            self.fail(f"solve seed {seed}", [traceback.format_exc()])
            return None
        problems = [f"infeasible: {v}" for v in e2evrp.check_feasibility(inst, sol)]
        if sol.cost != e2evrp.evaluate_cost(inst, sol):
            problems.append(f"reported cost {sol.cost} != evaluate_cost")
        if stats.best_cost != sol.cost.total:
            problems.append(f"RunStats.best_cost {stats.best_cost} != {sol.cost.total}")
        if self.ref_bound and sol.cost.total < self.ref_bound["value"]:
            problems.append(f"cost {sol.cost.total} below the proven bound {self.ref_bound}")
        if problems:
            self.fail(f"solve seed {seed}", problems)
            return None
        return elapsed, sol, stats

    def bound(self, built, tracer: Tracer | None = None):
        """One bound_report on set-up objects; (seconds, lower bound) or None."""
        self.attempted += 1
        inst, graph, ng = built
        try:
            gc.collect()
            t0 = time.perf_counter()
            if tracer is None:
                report = e2evrp.bound_report(inst, graph, ng)
            else:
                with tracer.span(BOUND_REPORT):
                    report = e2evrp.bound_report(inst, graph, ng)
            elapsed = time.perf_counter() - t0
        except Exception:  # e.g. NgStateSpaceExceeded: a failed operation
            self.fail("bound", [traceback.format_exc()])
            return None
        lb = report["lower_bound"]
        ref = self.ref_bound
        if self.has_reference_bound() and lb != ref["value"]:
            self.fail("bound", [f"lower bound {lb} != recorded reference {ref}"])
            return None
        return elapsed, lb

    def has_reference_bound(self) -> bool:
        return bool(self.ref_bound) and self.ref_bound["delta"] == self.w.bound_delta

    def check_bound_below(self, lb: int, solves: dict) -> None:
        best = min((r[1].cost.total for r in solves.values() if r), default=None)
        if best is not None and lb > best:
            self.fail("bound", [f"lower bound {lb} exceeds solved cost {best}"])


def outcome(solve_result: tuple) -> tuple:
    """What a deterministic solve must reproduce: the solution and counters."""
    _, sol, stats = solve_result
    return sol, stats.deterministic_fields()


def measure(run: Run, seconds: float) -> tuple[dict, list[str]]:
    """Untraced measurement: the end-to-end metrics plus report lines.

    Whole rounds are repeated while another round fits in ``seconds``.  A
    round is a set-up (in the first ``setups`` rounds), the bound call of a
    bound workload, and one solve per solver seed (in the first round only,
    on a bound workload).  Each bound call and solve is preceded by a timing
    of ``reference_loop``; the ratio of the two is taken per call, so that
    it compares them at nearly the same machine speed.
    """
    w = run.w
    start = time.perf_counter()
    setup_times: list[float] = []
    bound_times: list[float] = []
    bound_rel: list[float] = []
    ref_times: list[float] = []
    bound_lb = None
    times: dict[int, list[float]] = {s: [] for s in w.solver_seeds}
    rel: dict[int, list[float]] = {s: [] for s in w.solver_seeds}
    first: dict[int, tuple | None] = {}
    built = None
    round_start = start
    while True:
        if len(setup_times) < w.setups:
            built = None  # let the previous set-up's objects go before the next is built
            elapsed, built = run.setup()
            setup_times.append(elapsed)
        if w.bound_delta:
            ref = reference_s()
            res = run.bound(built)
            if res is not None:
                ref_times.append(ref)
                bound_times.append(res[0])
                bound_rel.append(res[0] / ref)
                bound_lb = res[1]
        else:
            built = None  # each lns_run builds its own context
        for seed in w.solver_seeds:
            if w.bound_delta and seed in first:
                continue
            ref = reference_s()
            res = run.solve(seed)
            if res is not None:
                ref_times.append(ref)
                times[seed].append(res[0])
                rel[seed].append(res[0] / ref)
            if seed not in first:
                first[seed] = res
            elif res and first[seed] and outcome(res) != outcome(first[seed]):
                run.fail(f"solve seed {seed}", ["repeated solve differs from the first"])
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
        round_start = now
    del built
    if bound_lb is not None:
        run.check_bound_below(bound_lb, first)

    ok = [s for s in w.solver_seeds if first[s]]
    metrics: dict[str, float] = {"setup_s": statistics.median(setup_times)}
    if bound_rel:
        metrics["call_rel"] = statistics.median(bound_rel)
    if ok:
        solve_s = statistics.fmean(statistics.median(times[s]) for s in ok)
        if not w.bound_delta:
            metrics["call_rel"] = statistics.fmean(statistics.median(rel[s]) for s in ok)
        it_per_s = sum(first[s][2].iterations for s in ok) / (solve_s * len(ok))
        metrics["best_cost_mean"] = statistics.fmean(first[s][2].best_cost for s in ok)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lines = [f"setup_s {metrics['setup_s']:.4f} s (median of {len(setup_times)} set-ups)"]
    if ref_times:
        lines.append(
            f"reference_s {statistics.median(ref_times):.4f} s (median of {len(ref_times)} "
            f"timings of reference_loop; fastest {min(ref_times):.4f} s)"
        )
    if ok:
        n = sum(len(times[s]) for s in ok)
        fastest = statistics.fmean(min(times[s]) for s in ok)
        lines.append(
            f"solve_s {solve_s:.4f} s (mean over {len(ok)} solver seeds of the median "
            f"lns_run time; fastest {fastest:.4f} s; {n} solves)"
        )
        lines.append(f"lns_it_per_s {it_per_s:.4f} 1/s (iterations / median lns_run time)")
    if bound_times:
        lines.append(
            f"bound_s {statistics.median(bound_times):.4f} s (median of {len(bound_times)} "
            f"calls; fastest {min(bound_times):.4f} s), lower bound {bound_lb}"
        )
    for s in ok:
        st = first[s][2]
        lines.append(
            f"seed {s}: best_cost {st.best_cost}, iterations {st.iterations}, "
            f"restarts {st.restarts}, best_iteration {st.best_iteration}"
        )
    return metrics, lines


def measure_traced(run: Run, trace_path: Path) -> tuple[dict, list[str]]:
    """Untraced then traced pass over the same calls; the per-layer metrics."""
    w = run.w
    untraced: dict[int, tuple | None] = {s: run.solve(s) for s in w.solver_seeds}
    lb_untraced = None
    if w.bound_delta:
        if run.has_reference_bound():
            # every bound, traced or not, must equal the reference: skip the rerun
            lb_untraced = run.ref_bound["value"]
        else:
            res = run.bound(run.setup()[1])
            lb_untraced = res[1] if res else None

    tracer = Tracer()
    traced: dict[int, tuple | None] = {}
    lb_traced = None
    with tracer.installed():
        if w.bound_delta:
            tracer.new_op()
            built = run.setup()[1]
            tracer.new_op()
            res = run.bound(built, tracer)
            lb_traced = res[1] if res else None
            del built
        for seed in w.solver_seeds:
            tracer.new_op()
            traced[seed] = run.solve(seed, tracer)

    for seed in w.solver_seeds:
        a, b = untraced[seed], traced[seed]
        if a and b and outcome(a) != outcome(b):
            run.fail(f"solve seed {seed}", ["traced run differs from the untraced run"])
    if w.bound_delta and lb_traced != lb_untraced:
        run.fail("bound", [f"traced bound {lb_traced} != untraced {lb_untraced}"])
    if lb_traced is not None:
        run.check_bound_below(lb_traced, traced)

    ok = [s for s in w.solver_seeds if untraced[s] and traced[s]]
    metrics = layer_metrics(
        tracer, [traced[s][2] for s in ok], sum(untraced[s][0] for s in ok)
    )
    tracer.write(trace_path)
    lines = [f"trace: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}"]
    return metrics, lines


def seed_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


def run_one(name: str, trace: int, args: argparse.Namespace) -> int:
    """Measure one workload and print its report; returns the exit code."""
    w = WORKLOADS[name]
    if args.solver_seeds:
        w = replace(w, solver_seeds=args.solver_seeds)
    try:
        text = instance_text(w, args.instance_seed)
    except RefusedInput as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    run = Run(w, text, args.instance_seed)
    if trace:
        trace_path = TRACE_DIR / f"trace-{name}-seed{args.seed}.json"
        metrics, lines = measure_traced(run, trace_path)
        table = [(metric, unit) for metric, unit, _ in PER_LAYER]
    else:
        metrics, lines = measure(run, args.seconds)
        table = E2E

    print(f"workload {name} --trace {trace} (instance seed {args.instance_seed}, solver "
          f"seeds {','.join(map(str, w.solver_seeds))}, run seed {args.seed})")
    for line in lines:
        print("  " + line)
    print(f"  failed_frac {run.failed / max(1, run.attempted):.4f} "
          f"({run.failed} of {run.attempted} operations)")
    out = {}
    for metric, unit in table:
        if metric in metrics:
            print(f"  {metric} {metrics[metric]:.6g} {unit}")
            out[metric] = {"value": metrics[metric], "unit": unit}
    correct = run.failed == 0 and len(out) == len(table)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="'all' runs every workload untraced and then traced")
    ap.add_argument("--seed", type=int, default=1,
                    help="recorded with the result; the inputs are pinned, see README")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="repeat the workload's calls while another round fits")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instance-seed", type=int, default=1)
    ap.add_argument("--solver-seeds", type=seed_list, default=None,
                    help="comma-separated solver seeds; the default depends on the workload")
    args = ap.parse_args(argv)
    if args.workload != "all":
        return run_one(args.workload, args.trace, args)
    return max(run_one(name, trace, args) for name in WORKLOADS for trace in (0, 1))


if __name__ == "__main__":
    sys.exit(main())
