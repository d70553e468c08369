"""Command-line interface: solve, generate, augment, check, sweep, bound."""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional

import click
from click.core import ParameterSource

from . import bench
from .lns import ConstructionError, LnsParams, lns_run
from .model import (
    InstanceError,
    SolutionFormatError,
    check_feasibility,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from .multigraph import reduced_multigraph
from .ngpricing import NgSets, NgStateSpaceExceeded, bound_report

SOLVE_CSV_HEADER = "instance,avg,best,t_star_avg,runs"
SET_MODE = {"7": "density", "8": "battery"}
VARIED_OPTION = {"density": "stations", "battery": "battery"}
# generate options that one of its two forms would ignore, and why
IGNORED_BY_FORM = {
    "with": {"seed": "a set screens its own seeds", "out": "a set writes to --out-dir"},
    "without": {"instances": "it writes one instance", "out_dir": "one instance goes to --out or stdout"},
}


def _fail(message: str, as_json: bool, code: int = 2) -> None:
    if as_json:
        click.echo(json.dumps({"error": message}))
    else:
        click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _given(name: str) -> bool:
    """Whether the current command's option ``name`` was set, not left at its default."""
    return click.get_current_context().get_parameter_source(name) is not ParameterSource.DEFAULT


def _refuse_varied_option(mode: str, family: str) -> None:
    """Exit 2 if the option that ``mode`` varies was given: its levels say what it is."""
    name = VARIED_OPTION[mode]
    if _given(name):
        _fail(f"--{name} is what a {family} varies; drop it", False)


def _read_input(path: str, kind: str, as_json: bool) -> str:
    """The text of an input file, or exit 2 with one line saying why it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        _fail(f"{kind} file not found: {path}", as_json)
    except OSError as exc:  # a directory, or no permission
        _fail(f"cannot read {kind} file {path}: {exc.strerror}", as_json)
    except UnicodeDecodeError as exc:
        _fail(f"{kind} file {path} is not UTF-8 text (byte {exc.start})", as_json)


def _load_instance(path: str, as_json: bool):
    text = _read_input(path, "instance", as_json)
    try:
        return parse_instance(text)
    except InstanceError as exc:
        _fail(f"invalid instance {path}: {exc}", as_json)


def _check_output(path: Optional[str], option: str, as_json: bool = False) -> None:
    """Exit 2, before any work starts, when ``path`` cannot be created as a file."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        _fail(f"{option} {path} is a directory", as_json)
    if not target.parent.is_dir():
        _fail(f"{option} {path}: no directory {target.parent}", as_json)


@click.group()
def main() -> None:
    """Electric two-echelon vehicle routing toolkit."""


@main.command()
@click.argument("instance_path", metavar="INSTANCE")
@click.option("--time-limit", "-t", type=float, default=None, help="Wall-clock budget per run in seconds [default: 150 unless --restarts is given].")
@click.option("--restarts", type=int, default=None, help="Deterministic restart budget; combinable with a time limit.")
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--runs", type=click.IntRange(min=1), default=1, show_default=True, help="Independent runs with seeds seed..seed+runs-1.")
@click.option("--param", "params_kv", multiple=True, metavar="KEY=VALUE", help="Override a search parameter (p1, p2, p3_hat, p4_hat, granularity, i_max).")
@click.option("--json-out", type=click.Path(), default=None, help="Write run records and the aggregate as JSON.")
@click.option("--csv-out", type=click.Path(), default=None, help="Append the aggregate row as CSV.")
@click.option("--solution-out", type=click.Path(), default=None, help="Write the best solution file.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output and errors.")
def solve(instance_path, time_limit, restarts, seed, runs, params_kv, json_out, csv_out, solution_out, as_json):
    """Run the metaheuristic on INSTANCE."""
    inst = _load_instance(instance_path, as_json)
    for path, option in (
        (json_out, "--json-out"), (csv_out, "--csv-out"), (solution_out, "--solution-out")
    ):
        _check_output(path, option, as_json)
    overrides = {}
    for kv in params_kv:
        if "=" not in kv:
            _fail(f"bad --param {kv!r}, expected KEY=VALUE", as_json)
        key, value = kv.split("=", 1)
        if key not in ("p1", "p2", "p3_hat", "p4_hat", "granularity", "i_max"):
            _fail(f"unknown parameter {key!r}", as_json)
        if key in overrides:
            _fail(f"--param {key} given more than once", as_json)
        try:
            overrides[key] = int(value)
        except ValueError:
            _fail(f"bad --param {kv!r}, {key} must be an integer", as_json)
    if time_limit is None and restarts is None:
        time_limit = 150.0
    try:
        base = LnsParams(t_max=time_limit, max_restarts=restarts, **overrides)
    except ValueError as exc:
        _fail(str(exc), as_json)

    records = []
    best_solution = None
    for k in range(runs):
        params = dataclasses.replace(base, seed=seed + k)
        try:
            sol, stats = lns_run(inst, params)
        except ConstructionError as exc:
            _fail(f"run with seed {seed + k} failed: {exc}", as_json, code=3)
        records.append({"seed": seed + k, **stats.to_json_dict()})
        if best_solution is None or sol.cost.total < best_solution.cost.total:
            best_solution = sol

    avg = sum(r["best_cost"] for r in records) / len(records)
    t_star_avg = sum(r["time_to_best"] for r in records) / len(records)
    aggregate = {
        "instance": inst.name,
        "avg": round(avg, 1),
        "best": min(r["best_cost"] for r in records),
        "t_star_avg": round(t_star_avg, 1),
        "runs": runs,
    }
    payload = {"instance": inst.name, "runs": records, "aggregate": aggregate}
    if as_json:
        click.echo(json.dumps(payload, indent=2))
    else:
        for r in records:
            click.echo(
                f"seed {r['seed']}: cost {r['best_cost']} "
                f"(T* {r['time_to_best']}s, {r['iterations']} iterations, "
                f"{r['restarts']} restarts)"
            )
        click.echo(
            f"{aggregate['instance']}: avg {aggregate['avg']} best {aggregate['best']} "
            f"T* {aggregate['t_star_avg']}s over {runs} run(s)"
        )
    if json_out:
        Path(json_out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if csv_out:
        new = not os.path.exists(csv_out) or os.path.getsize(csv_out) == 0
        with open(csv_out, "a", encoding="utf-8") as fh:
            if new:
                fh.write(SOLVE_CSV_HEADER + "\n")
            fh.write(
                f"{aggregate['instance']},{aggregate['avg']},{aggregate['best']},"
                f"{aggregate['t_star_avg']},{runs}\n"
            )
    if solution_out and best_solution is not None:
        Path(solution_out).write_text(write_solution(best_solution), encoding="utf-8")


@main.command()
@click.option("--set", "which", type=click.Choice(["7", "8"]), default=None, help="Generate a full benchmark-style set: 7 varies --stations, 8 varies --battery.")
@click.option("--out-dir", type=click.Path(), default="instances", show_default=True)
@click.option("--instances", type=click.IntRange(min=1), default=20, show_default=True, help="Instances per level when generating a set.")
@click.option("--stations", type=click.IntRange(min=0), default=20, show_default=True)
@click.option("--battery", default="1000", show_default=True, help="Battery capacity or 'inf'.")
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Single-instance output file (default: stdout).")
@click.option("--full-axis", is_flag=True, help="Read ellipse extents as full axis lengths (quarter-area variant).")
def generate(which, out_dir, instances, stations, battery, seed, out, full_axis):
    """Generate metropolitan instances (one, or a full set with --set)."""
    try:
        cap = None if battery.lower() == "inf" else int(battery)
        if cap is not None and cap < 1:
            raise ValueError(battery)
    except ValueError:
        _fail(f"bad --battery {battery!r}, expected a positive integer or 'inf'", False)
    form = "without" if which is None else "with"
    for name, reason in IGNORED_BY_FORM[form].items():
        if _given(name):
            _fail(f"--{name.replace('_', '-')} does not apply {form} --set: {reason}", False)
    _check_output(out, "--out")
    cfg = bench.MetroGenConfig(
        n_stations=stations, battery=cap, seed=seed, extent_is_semi_axis=not full_axis
    )
    if which is not None:
        mode = SET_MODE[which]
        _refuse_varied_option(mode, f"set {which}")
        if Path(out_dir).exists() and not Path(out_dir).is_dir():
            _fail(f"--out-dir {out_dir} is not a directory", False)
        try:
            configs = bench.metro_family(mode, bench.FAMILY_LEVELS[mode], instances, cfg)
        except bench.FamilyError as exc:
            _fail(f"set {which}: {exc}", False)
        outp = Path(out_dir)
        outp.mkdir(parents=True, exist_ok=True)
        for member in configs:
            inst = bench.generate_metro_instance(member)
            (outp / f"{inst.name}.txt").write_text(write_instance(inst), encoding="utf-8")
        click.echo(f"wrote {len(configs)} instances to {outp}")
        return
    text = write_instance(bench.generate_metro_instance(cfg))
    if out:
        Path(out).write_text(text, encoding="utf-8")
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("base_path", metavar="BASE_INSTANCE")
@click.option("--gamma1", type=float, required=True, help="Average second-level route length of the reference solution (unscaled units).")
@click.option("--ratio", type=float, default=0.15, show_default=True, help="Station/customer ratio, within [0.1, 0.2].")
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True)
def augment(base_path, gamma1, ratio, seed, out, as_json):
    """Add charging stations and a battery capacity to a classical instance."""
    base = _load_instance(base_path, as_json)
    _check_output(out, "--out", as_json)
    try:
        inst = bench.augment_2evrp_instance(base, gamma1, station_ratio=ratio, seed=seed)
    except ValueError as exc:
        _fail(str(exc), as_json)
    text = write_instance(inst)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        click.echo(f"wrote {out} (battery {inst.battery_capacity}, {len(inst.stations)} stations)")
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("instance_path", metavar="INSTANCE")
@click.argument("solution_path", metavar="SOLUTION")
@click.option("--json", "as_json", is_flag=True)
def check(instance_path, solution_path, as_json):
    """Verify a solution file against an instance; exit 1 on violations."""
    inst = _load_instance(instance_path, as_json)
    text = _read_input(solution_path, "solution", as_json)
    try:
        sol = parse_solution(text, inst)
    except SolutionFormatError as exc:
        _fail(f"invalid solution {solution_path}: {exc}", as_json)
    violations = check_feasibility(inst, sol)
    if as_json:
        click.echo(json.dumps({"instance": inst.name, "ok": not violations, "violations": violations}))
    elif violations:
        for v in violations:
            click.echo(f"violation: {v}")
    else:
        click.echo(f"{inst.name}: ok (total cost {sol.cost.total})")
    sys.exit(1 if violations else 0)


@main.command()
@click.option("--mode", type=click.Choice(["density", "battery"]), required=True)
@click.option("--levels", default=None, help="Comma-separated level values, e.g. 2,5,10,15,25,50 [default: the mode's full family].")
@click.option("--instances", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--runs", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--budget", type=float, default=60.0, show_default=True, help="Seconds per solver run.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--battery", type=click.IntRange(min=1), default=1000, show_default=True, help="Fixed battery for density sweeps.")
@click.option("--stations", type=click.IntRange(min=0), default=20, show_default=True, help="Fixed station count for battery sweeps.")
@click.option("--out", type=click.Path(), required=True, help="CSV output path.")
def sweep(mode, levels, instances, runs, budget, workers, battery, stations, out):
    """Paired battery-constrained / unconstrained sweep; writes a CSV."""
    _refuse_varied_option(mode, f"{mode} sweep")
    _check_output(out, "--out")
    if levels is None:
        levels = ",".join(map(str, bench.FAMILY_LEVELS[mode]))
    try:
        values = [int(v) for v in levels.split(",") if v.strip()]
    except ValueError:
        _fail(f"bad --levels {levels!r}, expected comma-separated integers", False)
    if not values:
        _fail(f"bad --levels {levels!r}, expected at least one integer", False)
    try:
        params = LnsParams(t_max=budget)
    except ValueError as exc:
        _fail(f"bad --budget {budget!r}: {exc}", False)
    try:
        records = bench.sweep(
            values,
            mode,
            instances_per_level=instances,
            runs_per_instance=runs,
            params=params,
            workers=workers,
            base_config=bench.MetroGenConfig(n_stations=stations, battery=battery),
        )
    except bench.FamilyError as exc:  # levels too low or repeated, or too few servable seeds
        _fail(f"bad --levels {levels!r}: {exc}", False)
    bench.write_sweep_csv(records, out)
    for rec in records:
        click.echo(
            f"level {rec.level}: mean detour {rec.mean_detour_pct:.2f}% "
            f"mean station visits {rec.mean_station_visits:.2f}"
        )
    if mode == "density":
        # a power law is fitted on the log-log plane: name what it cannot take
        fit = [r for r in records if r.level > 0 and r.mean_detour_pct > 0]
        dropped = ", ".join(str(r.level) for r in records if r not in fit)
        note = f"; dropped level(s) {dropped}: level or mean detour not positive" if dropped else ""
        try:
            alpha, beta, _ = bench.fit_power_law([(r.level, r.mean_detour_pct) for r in fit])
        except ValueError as exc:
            click.echo(f"power-law fit skipped: {exc}{note}")
        else:
            click.echo(f"power-law fit: alpha {alpha:.3f} beta {beta:.3f}{note}")
            click.echo(f"doubling the station count cuts detours by {100 * (1 - 2**-beta):.0f}%")
    click.echo(f"wrote {out}")


@main.command()
@click.argument("instance_path", metavar="INSTANCE")
@click.option("--delta", type=click.IntRange(min=1), default=8, show_default=True, help="Neighborhood memory size.")
@click.option("--max-states", type=click.IntRange(min=1), default=2_000_000, show_default=True)
@click.option("--json-out", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True)
def bound(instance_path, delta, max_states, json_out, as_json):
    """Lower-bound report from the pricing relaxation."""
    inst = _load_instance(instance_path, as_json)
    _check_output(json_out, "--json-out", as_json)
    graph = reduced_multigraph(inst)
    ng = NgSets.build(inst, delta=min(delta, max(1, len(inst.customers))))
    try:
        report = bound_report(inst, graph, ng, max_states=max_states)
    except NgStateSpaceExceeded as exc:
        _fail(f"state space too large: {exc} (lower --delta or raise --max-states)", as_json, code=4)
    except ValueError as exc:
        _fail(f"no bound for {instance_path}: {exc}", as_json)
    text = json.dumps(report, indent=2)
    if json_out:
        Path(json_out).write_text(text + "\n", encoding="utf-8")
    click.echo(text if as_json or not json_out else f"lower bound {report['lower_bound']} -> {json_out}")


if __name__ == "__main__":
    main()
