import json
import warnings

import pytest
from click.testing import CliRunner

from e2evrp import bench, cli, lns, ngpricing
from e2evrp.cli import main
from e2evrp.model import parse_instance, parse_solution, unservable_customers, write_instance
from e2evrp.multigraph import build_multigraph, reduce_by_dominance
from e2evrp.ngpricing import NgSets, bound_report

import golden
from oracles import metro_instance

TINY = """\
NAME tiny
LEVEL1 4 120 0
LEVEL2 12 55 0 400 1
DEPOT 60 0
SATELLITES 2
1 40 60 - 6
2 360 140 - 6
CUSTOMERS 6
3 120 80 10
4 160 120 15
5 240 60 9
6 280 140 12
7 200 100 8
8 90 140 11
STATIONS 2
9 200 90
10 300 60
"""


def _write_tiny(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text(TINY)
    return str(p)


def test_generate_single_instance_roundtrips(tmp_path):
    out = tmp_path / "gen.txt"
    res = CliRunner().invoke(
        main, ["generate", "--stations", "4", "--battery", "900", "--seed", "2", "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    inst = parse_instance(out.read_text())
    assert len(inst.stations) == 4 and inst.battery_capacity == 900


def test_generate_set_writes_files(tmp_path):
    res = CliRunner().invoke(
        main, ["generate", "--set", "8", "--out-dir", str(tmp_path / "s8"), "--instances", "1"]
    )
    assert res.exit_code == 0, res.output
    files = sorted((tmp_path / "s8").glob("*.txt"))
    assert len(files) == 10  # one instance per battery level
    parse_instance(files[0].read_text())


def test_generate_set_honours_the_fixed_option(tmp_path):
    res = CliRunner().invoke(
        main, ["generate", "--set", "8", "--out-dir", str(tmp_path / "s8"), "--instances", "1", "--stations", "3"]
    )
    assert res.exit_code == 0, res.output
    files = sorted((tmp_path / "s8").glob("*.txt"))
    assert len(files) == 10 and all(f.name.startswith("metro-r3-") for f in files)
    assert len(parse_instance(files[0].read_text()).stations) == 3
    # set 7 with the quarter-area layout: seeds are screened on what is written
    res = CliRunner().invoke(
        main,
        ["generate", "--set", "7", "--out-dir", str(tmp_path / "s7"), "--instances", "2",
         "--battery", "900", "--full-axis"],
    )
    assert res.exit_code == 0, res.output
    files = sorted((tmp_path / "s7").glob("*.txt"))
    assert len(files) == 20
    for f in files:
        inst = parse_instance(f.read_text())
        assert inst.battery_capacity == 900 and unservable_customers(inst) == []
        # named apart from the default layout, so the two sets never overwrite
        assert inst.name == f.stem and inst.name.endswith("-full")


def test_solve_runs_and_reports(tmp_path):
    inst = _write_tiny(tmp_path)
    sol_out = tmp_path / "best.sol"
    json_out = tmp_path / "runs.json"
    csv_out = tmp_path / "agg.csv"
    res = CliRunner().invoke(
        main,
        [
            "solve", inst, "--restarts", "1", "--runs", "2", "--seed", "5",
            "--param", "i_max=15", "--param", "granularity=5",
            "--solution-out", str(sol_out), "--json-out", str(json_out),
            "--csv-out", str(csv_out),
        ],
    )
    assert res.exit_code == 0, res.output
    payload = json.loads(json_out.read_text())
    assert len(payload["runs"]) == 2
    agg = payload["aggregate"]
    assert set(agg) == {"instance", "avg", "best", "t_star_avg", "runs"}
    assert agg["best"] <= min(r["best_cost"] for r in payload["runs"])
    assert csv_out.read_text().splitlines()[0] == "instance,avg,best,t_star_avg,runs"
    # emitted solution verifies clean
    chk = CliRunner().invoke(main, ["check", inst, str(sol_out)])
    assert chk.exit_code == 0, chk.output
    assert "ok" in chk.output


def test_check_rejects_corrupted_solution(tmp_path):
    inst_path = _write_tiny(tmp_path)
    sol_out = tmp_path / "best.sol"
    res = CliRunner().invoke(
        main, ["solve", inst_path, "--restarts", "1", "--param", "i_max=5", "--solution-out", str(sol_out)]
    )
    assert res.exit_code == 0, res.output
    inst = parse_instance(TINY)
    sol = parse_solution(sol_out.read_text(), inst)
    # drop one customer visit
    routes = list(sol.second_level_routes)
    victim = next(i for i, r in enumerate(routes) if len(r.visits) >= 1)
    broken = sol_out.read_text().replace(f" {routes[victim].visits[0]} ", " ", 1)
    (tmp_path / "broken.sol").write_text(broken)
    chk = CliRunner().invoke(main, ["check", inst_path, str(tmp_path / "broken.sol"), "--json"])
    assert chk.exit_code == 1
    report = json.loads(chk.output)
    assert report["ok"] is False and report["violations"]
    # text mode lists the same violations, one a line
    plain = CliRunner().invoke(main, ["check", inst_path, str(tmp_path / "broken.sol")])
    assert plain.exit_code == 1
    assert plain.output.splitlines() == [f"violation: {v}" for v in report["violations"]]


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize(
    "text",
    ["COSTS 1 2 3 x\n", "COSTS 0 0 0 0\nL1: 0 1:zz 0\n", "COSTS 0 0 0 0\nL2: 1 q 1\n"],
)
def test_check_non_integer_solution_token_is_a_clean_error(tmp_path, text, as_json):
    sol = tmp_path / "bad.sol"
    sol.write_text(text)
    res = CliRunner().invoke(main, ["check", _write_tiny(tmp_path), str(sol), *(["--json"] * as_json)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    message = json.loads(res.output)["error"] if as_json else res.output
    assert "must be an integer" in message


def test_check_missing_file_is_machine_readable():
    res = CliRunner().invoke(main, ["check", "/nonexistent/file.txt", "/also/missing.sol", "--json"])
    assert res.exit_code == 2
    assert "error" in json.loads(res.output)


def test_sweep_cli_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    res = CliRunner().invoke(
        main,
        [
            "sweep", "--mode", "battery", "--levels", "1000,1400", "--instances", "1",
            "--runs", "1", "--budget", "1", "--stations", "10", "--out", str(out),
        ],
    )
    assert res.exit_code == 0, res.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,instance_seed,run_seed,cost_L,cost_inf,detour_pct,station_visits"
    assert len(lines) == 3


def _power_law_sweep(calls):
    def fake_sweep(values, mode, **kwargs):
        calls.append((list(values), mode))
        return [bench.SweepRecord(v, (), 10 / v**1.25 if v else 0.0, 0.0) for v in values]
    return fake_sweep


def test_sweep_fit_and_full_family(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "sweep", _power_law_sweep(calls))
    out = str(tmp_path / "s.csv")
    res = CliRunner().invoke(main, ["sweep", "--mode", "density", "--levels", "2,5,10", "--out", out])
    assert res.exit_code == 0, res.output
    assert "beta 1.250" in res.output
    assert "doubling the station count cuts detours by 58%" in res.output
    # omitted levels run the mode's full family; battery sweeps fit nothing
    res = CliRunner().invoke(main, ["sweep", "--mode", "battery", "--out", out])
    assert res.exit_code == 0, res.output
    assert calls[-1] == (list(bench.BATTERY_LEVELS), "battery")
    assert "power-law" not in res.output
    # a level without a positive mean detour is named on the fit line, not
    # warned about; one positive mean is not enough for a fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = CliRunner().invoke(main, ["sweep", "--mode", "density", "--levels", "0,2,5,10", "--out", out])
        assert res.exit_code == 0, res.output
        assert "beta 1.250; dropped level(s) 0: level or mean detour not positive" in res.output
        res = CliRunner().invoke(main, ["sweep", "--mode", "density", "--levels", "0,5", "--out", out])
    assert res.exit_code == 0, res.output
    assert calls[-1] == ([0, 5], "density")
    assert "power-law fit skipped" in res.output
    assert "dropped level(s) 0" in res.output


def test_bound_cli(tmp_path):
    inst = _write_tiny(tmp_path)
    res = CliRunner().invoke(main, ["bound", inst, "--delta", "4", "--json"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["lower_bound"] >= 0
    solve = CliRunner().invoke(main, ["solve", inst, "--restarts", "1", "--json"])
    cost = json.loads(solve.output)["aggregate"]["best"]
    assert report["lower_bound"] <= cost


def test_bound_cli_pins_the_benchmark_bound(tmp_path):
    inst = metro_instance(10, 5)
    path = tmp_path / "m10.txt"
    path.write_text(write_instance(inst))
    res = CliRunner().invoke(main, ["bound", str(path), "--delta", "3", "--json"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["lower_bound"] == 3034
    eager = bound_report(inst, reduce_by_dominance(build_multigraph(inst)), NgSets.build(inst, delta=3))
    assert report["satellites"] == eager["satellites"]


def test_augment_cli(tmp_path):
    base = tmp_path / "base.txt"
    base.write_text(TINY.replace("400 1", "999999 1"))  # battery irrelevant for the base
    out = tmp_path / "aug.txt"
    res = CliRunner().invoke(
        main, ["augment", str(base), "--gamma1", "120", "--ratio", "0.2", "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    inst = parse_instance(out.read_text())
    assert inst.depot == (600, 0)
    assert len(inst.stations) >= 1


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("gamma1", ["inf", "nan", "0", "1e308"])
def test_augment_non_finite_gamma1_is_a_clean_error(tmp_path, gamma1, as_json):
    base = tmp_path / "base.txt"
    base.write_text(TINY)
    out = tmp_path / "aug.txt"
    res = CliRunner().invoke(
        main, ["augment", str(base), "--gamma1", gamma1, "--out", str(out), *(["--json"] * as_json)]
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    message = json.loads(res.output)["error"] if as_json else res.output
    assert "gamma1 must be finite and positive" in message
    assert not out.exists()


def test_solve_missing_instance_errors():
    res = CliRunner().invoke(main, ["solve", "/no/such/file", "--json"])
    assert res.exit_code == 2
    assert "error" in json.loads(res.output)


def test_solve_non_integer_param_is_a_clean_error(tmp_path):
    inst = _write_tiny(tmp_path)
    res = CliRunner().invoke(main, ["solve", inst, "--param", "i_max=abc", "--json"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "i_max" in json.loads(res.output)["error"]
    plain = CliRunner().invoke(main, ["solve", inst, "--param", "i_max=abc"])
    assert plain.exit_code == 2 and "Traceback" not in plain.output
    assert "i_max" in plain.output


def test_sweep_non_integer_level_is_a_clean_error(tmp_path):
    res = CliRunner().invoke(
        main, ["sweep", "--mode", "battery", "--levels", "2,x", "--out", str(tmp_path / "s.csv")]
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "--levels" in res.output
    assert not (tmp_path / "s.csv").exists()


def test_generate_non_integer_battery_is_a_clean_error():
    res = CliRunner().invoke(main, ["generate", "--battery", "lots"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "--battery" in res.output


def test_solve_zero_runs_is_a_clean_error(tmp_path):
    inst = _write_tiny(tmp_path)
    res = CliRunner().invoke(main, ["solve", inst, "--runs", "0"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "--runs" in res.output


def test_bound_zero_delta_is_a_clean_error(tmp_path):
    inst = _write_tiny(tmp_path)
    res = CliRunner().invoke(main, ["bound", inst, "--delta", "0"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "--delta" in res.output


NO_SATELLITE = """\
NAME nosat
LEVEL1 1 100
LEVEL2 1 50 0 400
DEPOT 0 0
SATELLITES 0
CUSTOMERS 1
1 10 10 5
STATIONS 0
"""


def _one_line_error(res, as_json, code=2):
    """The message of a clean error exit: one line, plain or as JSON."""
    assert res.exit_code == code, res.output
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    return json.loads(res.output)["error"] if as_json else res.output


@pytest.mark.parametrize("as_json", [False, True])
def test_bound_without_satellites_is_a_clean_error(tmp_path, as_json):
    path = tmp_path / "nosat.txt"
    path.write_text(NO_SATELLITE)
    res = CliRunner().invoke(main, ["bound", str(path), *(["--json"] * as_json)])
    assert "no satellite has a second-level vehicle" in _one_line_error(res, as_json)
    # with no customer either there is nothing to serve: the bound is 0
    path.write_text(NO_SATELLITE.replace("CUSTOMERS 1\n1 10 10 5\n", "CUSTOMERS 0\n"))
    res = CliRunner().invoke(main, ["bound", str(path), "--json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["lower_bound"] == 0


# customers and a station, but no satellite with a vehicle to serve them
NO_VEHICLE = {
    "no-satellite": NO_SATELLITE.replace("STATIONS 0\n", "STATIONS 1\n2 20 20\n"),
    "empty-local-fleet": NO_SATELLITE.replace("SATELLITES 0\n", "SATELLITES 1\n3 0 0 - 0\n")
    .replace("STATIONS 0\n", "STATIONS 1\n2 20 20\n"),
}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("name", list(NO_VEHICLE))
def test_solve_without_a_satellite_vehicle_fails_before_any_restart(tmp_path, monkeypatch, name, as_json):
    def repair(*args):
        pytest.fail("lns_run started a restart on an instance no vehicle can serve")

    monkeypatch.setattr(lns, "repair", repair)
    path = tmp_path / f"{name}.txt"
    path.write_text(NO_VEHICLE[name])
    res = CliRunner().invoke(main, ["solve", str(path), "--time-limit", "2", *(["--json"] * as_json)])
    assert "no satellite has a second-level vehicle" in _one_line_error(res, as_json, code=3)


# satellite 1 reaches station 3 but not customer 2 through it; station 4 lies
# near the customer but out of the satellite's range: no route fits the battery
NO_CLOSED_ROUTE = """\
NAME rand-107473
LEVEL1 1 80 0
LEVEL2 7 20 0 60 1
DEPOT 86 94
SATELLITES 1
1 81 14 - 1
CUSTOMERS 1
2 3 94 3
STATIONS 2
3 31 28
4 17 94
"""


@pytest.mark.parametrize("as_json", [False, True])
def test_bound_without_a_closed_route_is_a_clean_error(tmp_path, as_json):
    path = tmp_path / "noroute.txt"
    path.write_text(NO_CLOSED_ROUTE)
    res = CliRunner().invoke(main, ["bound", str(path), *(["--json"] * as_json)])
    assert "no satellite has a closed route within the battery" in _one_line_error(res, as_json)


# one satellite with a vehicle; customer 4 lies further than half the battery
# range (100) from every charging location
FAR_CUSTOMER = """\
NAME far
LEVEL1 1 100
LEVEL2 1 50 0 100
DEPOT 0 0
SATELLITES 1
3 0 0 - 1
CUSTOMERS 2
1 10 10 5
4 300 300 5
STATIONS 1
2 20 20
"""

BOUND_REFUSED = {
    "empty-local-fleet": (NO_VEHICLE["empty-local-fleet"], "no satellite has a second-level vehicle"),
    "far-customer": (FAR_CUSTOMER, "customer(s) [4] cannot be reached within one battery charge"),
}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("name", list(BOUND_REFUSED))
def test_bound_refuses_what_solve_refuses(tmp_path, monkeypatch, name, as_json):
    def price(*args, **kwargs):
        pytest.fail("bound priced an instance that solve refuses")

    monkeypatch.setattr(ngpricing, "price_ng_routes", price)
    text, message = BOUND_REFUSED[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    flags = ["--json"] * as_json
    res = CliRunner().invoke(main, ["bound", str(path), *flags])
    assert message in _one_line_error(res, as_json)
    res = CliRunner().invoke(main, ["solve", str(path), "--time-limit", "2", *flags])
    assert message in _one_line_error(res, as_json, code=3)


@pytest.mark.parametrize("as_json", [False, True])
def test_solve_splits_a_first_level_delivery(tmp_path, as_json):
    """Two trucks of 10 carry FIRST_FIT's 4, 4, 6, 6 only with a split."""
    path, out = tmp_path / "first-fit.txt", tmp_path / "first-fit.sol"
    path.write_text(golden.FIRST_FIT)
    flags = ["--json"] * as_json
    res = CliRunner().invoke(
        main, ["solve", str(path), "--restarts", "5", "--solution-out", str(out), *flags]
    )
    assert res.exit_code == 0, res.output
    res = CliRunner().invoke(main, ["check", str(path), str(out), *flags])
    assert res.exit_code == 0, res.output


# FIRST_FIT's 20 units with one truck of 10, or with two vehicles of 8
FLEET_REFUSED = {
    "one-truck": (
        golden.FIRST_FIT.replace("LEVEL1 2 10 0", "LEVEL1 1 10 0"),
        "the first-level fleet of 1 vehicle(s) of capacity 10 cannot carry the total demand of 20",
    ),
    "two-vehicles": (
        golden.FIRST_FIT.replace("LEVEL2 8 8 0 100", "LEVEL2 2 8 0 100"),
        "the second-level fleet can carry at most 16 of the total demand of 20",
    ),
}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("name", list(FLEET_REFUSED))
def test_fleet_that_cannot_carry_the_demand_is_refused(tmp_path, monkeypatch, name, as_json):
    def repair(*args):
        pytest.fail("lns_run started a restart on an instance no fleet can carry")

    def price(*args, **kwargs):
        pytest.fail("bound priced an instance no fleet can carry")

    monkeypatch.setattr(lns, "repair", repair)
    monkeypatch.setattr(ngpricing, "price_ng_routes", price)
    text, message = FLEET_REFUSED[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    flags = ["--json"] * as_json
    res = CliRunner().invoke(main, ["solve", str(path), *flags])
    assert message in _one_line_error(res, as_json, code=3)
    res = CliRunner().invoke(main, ["bound", str(path), *flags])
    assert message in _one_line_error(res, as_json)


def test_bound_prices_only_satellites_with_a_vehicle():
    inst = parse_instance(TINY.replace("2 360 140 - 6\n", "2 360 140 - 0\n"))
    report = bound_report(inst, reduce_by_dominance(build_multigraph(inst)), NgSets.build(inst, delta=3))
    assert list(report["satellites"]) == ["1"]
    assert report["lower_bound"] > 0


@pytest.mark.parametrize("as_json", [False, True])
def test_bound_state_cap_exits_4(tmp_path, as_json):
    res = CliRunner().invoke(
        main, ["bound", _write_tiny(tmp_path), "--max-states", "1", *(["--json"] * as_json)]
    )
    assert "state space too large" in _one_line_error(res, as_json, code=4)


def test_bound_json_out_writes_the_report(tmp_path):
    inst = _write_tiny(tmp_path)
    out = tmp_path / "bound.json"
    res = CliRunner().invoke(main, ["bound", inst, "--delta", "3", "--json-out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    assert res.output.strip() == f"lower bound {report['lower_bound']} -> {out}"
    shown = CliRunner().invoke(main, ["bound", inst, "--delta", "3", "--json"])
    assert json.loads(shown.output) == report


@pytest.mark.parametrize("as_json", [False, True])
def test_solve_construction_failure_names_the_seed(tmp_path, as_json):
    path = tmp_path / "no-l2-fleet.txt"
    path.write_text(TINY.replace(" - 6\n", " - 0\n"))  # no satellite may send a vehicle
    res = CliRunner().invoke(
        main, ["solve", str(path), "--restarts", "1", "--seed", "7", *(["--json"] * as_json)]
    )
    message = _one_line_error(res, as_json, code=3)
    assert "run with seed 7 failed: construction failed" in message


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize(
    "kv, expected", [("i_max", "expected KEY=VALUE"), ("foo=1", "unknown parameter 'foo'")]
)
def test_solve_bad_param_is_a_clean_error(tmp_path, monkeypatch, kv, expected, as_json):
    monkeypatch.setattr(cli, "lns_run", _sweep_must_not_start)
    res = CliRunner().invoke(
        main, ["solve", _write_tiny(tmp_path), "--param", kv, *(["--json"] * as_json)]
    )
    assert expected in _one_line_error(res, as_json)


@pytest.mark.parametrize("as_json", [False, True])
def test_solve_repeated_param_is_a_clean_error(tmp_path, monkeypatch, as_json):
    monkeypatch.setattr(cli, "lns_run", _sweep_must_not_start)
    res = CliRunner().invoke(
        main,
        ["solve", _write_tiny(tmp_path), "--param", "i_max=1", "--param", "granularity=5",
         "--param", "i_max=2", *(["--json"] * as_json)],
    )
    assert "--param i_max given more than once" in _one_line_error(res, as_json)


def test_solve_csv_out_writes_the_header_into_an_empty_file(tmp_path):
    inst = _write_tiny(tmp_path)
    csv_out = tmp_path / "agg.csv"
    csv_out.touch()
    args = ["solve", inst, "--restarts", "1", "--param", "i_max=1", "--csv-out", str(csv_out)]
    for _ in range(2):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0, res.output
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "instance,avg,best,t_star_avg,runs"
    assert len(lines) == 3 and lines[1] == lines[2] and lines[1].startswith("tiny,")


@pytest.mark.parametrize("as_json", [False, True])
def test_solve_malformed_instance_is_a_clean_error(tmp_path, monkeypatch, as_json):
    monkeypatch.setattr(cli, "lns_run", _sweep_must_not_start)
    path = tmp_path / "bad.txt"
    path.write_text(TINY.replace("DEPOT 60 0", "DEPOT 60"))
    res = CliRunner().invoke(main, ["solve", str(path), *(["--json"] * as_json)])
    assert f"invalid instance {path}: line 4" in _one_line_error(res, as_json)


def test_sweep_empty_levels_is_a_clean_error(tmp_path):
    res = CliRunner().invoke(
        main, ["sweep", "--mode", "battery", "--levels", ",", "--out", str(tmp_path / "s.csv")]
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "--levels" in res.output
    assert not (tmp_path / "s.csv").exists()


def _sweep_must_not_start(*args, **kwargs):
    raise AssertionError("a sweep or a sweep job was started")


OUT_OPTION = {"sweep": "--out", "generate": "--out-dir", "bound": "--json-out"}


@pytest.mark.parametrize(
    "args, option",
    [
        (["sweep", "--mode", "battery", "--levels", "1000", "--instances", "0"], "--instances"),
        (["sweep", "--mode", "battery", "--levels", "1000", "--runs", "0"], "--runs"),
        (["generate", "--set", "8", "--instances", "0"], "--instances"),
        (["generate", "--stations", "-1"], "--stations"),
        (["generate", "--battery", "0"], "--battery"),
        (["generate", "--battery", "-5"], "--battery"),
        (["sweep", "--mode", "battery", "--levels", "0"], "--levels"),
        (["sweep", "--mode", "density", "--levels", "-2"], "--levels"),
        (["sweep", "--mode", "battery", "--levels", "1000", "--workers", "0"], "--workers"),
        (["sweep", "--mode", "density", "--levels", "5", "--battery", "0"], "--battery"),
        (["sweep", "--mode", "battery", "--levels", "1000", "--stations", "-1"], "--stations"),
        (["bound", "TINY", "--max-states", "0"], "--max-states"),
        (["sweep", "--mode", "density", "--levels", "5,5"], "--levels"),
        (["sweep", "--mode", "battery", "--levels", "100"], "battery 100"),
        (["sweep", "--mode", "density", "--levels", "5", "--stations", "10"], "--stations"),
        (["generate", "--set", "7", "--stations", "3"], "--stations"),
        (["generate", "--set", "8", "--battery", "900"], "--battery"),
        (["generate", "--set", "7", "--battery", "0"], "--battery"),
        (["generate", "--set", "8", "--stations", "0"], "0 stations"),
    ],
)
def test_bad_counts_are_a_clean_error(tmp_path, monkeypatch, args, option):
    monkeypatch.setattr(bench, "_sweep_job", _sweep_must_not_start)
    # a short seed window makes the unservable cases fail fast
    monkeypatch.setattr(bench, "SEED_WINDOW", range(1, 4), raising=False)
    out = tmp_path / "out"
    args = [_write_tiny(tmp_path) if a == "TINY" else a for a in args]
    args += [OUT_OPTION[args[0]], str(out)]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert option in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--set", "8", "--instances", "1", "--seed", "5"], "--seed does not apply with --set"),
        (["--set", "7", "--out", "one.txt"], "--out does not apply with --set"),
        (["--instances", "2", "--out", "one.txt"], "--instances does not apply without --set"),
        (["--out-dir", "sets"], "--out-dir does not apply without --set"),
        (["--seed", "5", "--out-dir", "sets"], "--out-dir does not apply without --set"),
    ],
)
def test_generate_refuses_options_of_the_other_form(tmp_path, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    res = CliRunner().invoke(main, ["generate", *args])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith(f"error: {message}: ")
    assert len(res.output.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, option",
    [
        (["solve", "TINY", "--time-limit", "-1", "--restarts", "1"], "t_max"),
        (["solve", "TINY", "--time-limit", "0"], "t_max"),
        (["solve", "TINY", "--time-limit", "nan"], "t_max"),
        (["sweep", "--mode", "battery", "--levels", "1000", "--budget", "-1"], "--budget"),
        (["sweep", "--mode", "battery", "--levels", "1000", "--budget", "nan"], "--budget"),
        (["solve", "TINY", "--time-limit", "inf"], "t_max"),
        (["sweep", "--mode", "battery", "--levels", "1000", "--budget", "inf"], "--budget"),
    ],
)
def test_nonpositive_budgets_are_a_clean_error(tmp_path, monkeypatch, args, option):
    monkeypatch.setattr(bench, "sweep", _sweep_must_not_start)
    monkeypatch.setattr(cli, "lns_run", _sweep_must_not_start)  # an infinite run never returns
    args = [_write_tiny(tmp_path) if a == "TINY" else a for a in args]
    if args[0] == "sweep":
        args += ["--out", str(tmp_path / "s.csv")]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert option in res.output
    assert len(res.output.strip().splitlines()) == 1
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("bad", ["directory", "binary"])
@pytest.mark.parametrize(
    "args, kind",
    [
        (["solve", "BAD"], "instance"),
        (["augment", "BAD", "--gamma1", "3"], "instance"),
        (["bound", "BAD"], "instance"),
        (["check", "BAD", "TINY"], "instance"),
        (["check", "TINY", "BAD"], "solution"),
    ],
)
def test_unreadable_input_file_is_a_clean_error(tmp_path, args, kind, bad, as_json):
    if bad == "directory":
        path = tmp_path / "dir.txt"
        path.mkdir()
    else:
        path = tmp_path / "latin1.txt"
        path.write_bytes(TINY.replace("tiny", "caf\xe9").encode("latin-1"))
    tiny = _write_tiny(tmp_path)
    args = [str(path) if a == "BAD" else tiny if a == "TINY" else a for a in args]
    res = CliRunner().invoke(main, [*args, *(["--json"] * as_json)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    message = json.loads(res.output)["error"] if as_json else res.output
    assert f"{kind} file" in message and str(path) in message


MISSING = "no-such-dir/out.txt"


@pytest.mark.parametrize(
    "args, option",
    [
        (["solve", "TINY", "--restarts", "1", "--json-out", MISSING], "--json-out"),
        (["solve", "TINY", "--restarts", "1", "--csv-out", MISSING, "--json"], "--csv-out"),
        (["solve", "TINY", "--restarts", "1", "--solution-out", MISSING], "--solution-out"),
        (["solve", "TINY", "--restarts", "1", "--solution-out", "."], "--solution-out"),
        (["bound", "TINY", "--json-out", MISSING], "--json-out"),
        (["bound", "TINY", "--json-out", MISSING, "--json"], "--json-out"),
        (["sweep", "--mode", "battery", "--levels", "1000", "--out", MISSING], "--out"),
        (["generate", "--out", MISSING], "--out"),
        (["augment", "TINY", "--gamma1", "3", "--out", MISSING], "--out"),
        (["generate", "--set", "8", "--instances", "1", "--out-dir", "TINY"], "--out-dir"),
    ],
)
def test_output_path_is_checked_before_the_work(tmp_path, monkeypatch, args, option):
    """An output path that cannot be written is refused before any solve,
    pricing, sweep or generation starts."""
    for owner, name in (
        (cli, "lns_run"), (cli, "bound_report"), (bench, "sweep"),
        (bench, "generate_metro_instance"), (bench, "augment_2evrp_instance"),
        (bench, "metro_family"),
    ):
        monkeypatch.setattr(owner, name, _sweep_must_not_start)
    monkeypatch.chdir(tmp_path)
    args = [_write_tiny(tmp_path) if a == "TINY" else a for a in args]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    message = json.loads(res.output)["error"] if "--json" in args else res.output
    assert message.startswith(option) or message.startswith(f"error: {option}")
    assert {p.name for p in tmp_path.iterdir()} <= {"tiny.txt"}
