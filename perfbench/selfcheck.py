"""Fast self-check of the benchmark harness on tiny generated instances.

    python3 perfbench/selfcheck.py

Runs a solve and a bound workload of 10 customers through ``run.main``
with ``--trace 0`` and ``--trace 1`` and asserts that

* every end-to-end and per-layer metric of BENCHMARK.json is emitted, with
  its declared unit, and nothing else;
* the traced counts agree with untraced solves of the same seeds and with
  each other (every iteration and restart repairs once, every repaired
  solution is polished once, every plan-cache miss runs the charging DP);
* an unservable instance seed is refused before anything is measured.

Takes a few seconds; exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = {
    "tiny-solve": run.Workload(10, 5, (1, 2), i_max=20, setups=2),
    "tiny-bound": run.Workload(10, 5, (1,), i_max=20, setups=2, bound_delta=3),
}


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")


def invoke(workload: str, trace: int, instance_seed: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([
            "--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", str(trace), "--instance-seed", str(instance_seed),
        ])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    check(code == 0 and result["correct"] and result["failed"] == 0,
          f"{workload} --trace {trace} failed: {result}")
    return result["metrics"]


def servable_seed(w: run.Workload) -> int:
    for seed in range(1, 100):
        try:
            run.instance_text(w, seed)
            return seed
        except run.RefusedInput:
            continue
    raise SystemExit("selfcheck FAILED: no servable tiny instance seed")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == dict(run.E2E), "run.E2E differs from BENCHMARK.json end_to_end")
    check(per_layer == {n: u for n, u, _ in run.PER_LAYER},
          "tracing.PER_LAYER differs from BENCHMARK.json per_layer")

    run.WORKLOADS.update(TINY)
    for name, w in TINY.items():
        seed = servable_seed(w)
        for trace, declared in ((0, e2e), (1, per_layer)):
            metrics = invoke(name, trace, seed)
            check({k: v["unit"] for k, v in metrics.items()} == declared,
                  f"{name} --trace {trace} metric names or units differ from BENCHMARK.json")
        m = {k: v["value"] for k, v in metrics.items()}

        r = run.Run(w, run.instance_text(w, seed), seed)
        untraced = [r.solve(s)[2] for s in w.solver_seeds]
        check(m["lns.iterations"] == sum(s.iterations for s in untraced),
              f"{name}: traced iterations differ from untraced")
        check(m["lns.restarts"] == sum(s.restarts for s in untraced),
              f"{name}: traced restarts differ from untraced")
        check(m["lns.repair_calls"] == m["lns.iterations"] + m["lns.restarts"],
              f"{name}: repair calls != iterations + restarts")
        repaired = round(m["lns.repair_calls"] * (1 - m["lns.repair_fail_frac"]))
        check(m["localsearch.calls"] == repaired, f"{name}: local searches != repairs")
        misses = round(m["search.plan_calls"] * (1 - m["search.plan_hit_ratio"]))
        check(m["charging.calls"] == misses, f"{name}: charging calls != plan-cache misses")
        if w.bound_delta:
            check(m["ngpricing.price_calls"] >= 4, f"{name}: a satellite was not priced")
            check(m["ngpricing.labels"] > 0, f"{name}: no ng labels counted")

    refused = 0
    for seed in range(1, 30):
        try:
            run.instance_text(run.Workload(10, 0, (1,), i_max=1, setups=1), seed)
        except run.RefusedInput as exc:
            check("--instance-seed" in str(exc), "refusal message names the way out")
            refused += 1
    check(refused > 0, "no unservable instance seed was refused")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
