#!/usr/bin/env python3
"""Station-density experiment: detour caused by the battery constraint vs n_r.

Desk profile by default (10 instances per level, 3 runs x 60 s); pass
--full for the full benchmark scale (20 instances per level, 10 levels).
"""

import argparse
import os

from e2evrp.bench import DENSITY_LEVELS, fit_power_law, sweep, write_sweep_csv
from e2evrp.lns import LnsParams


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", default="2,5,10,15,25,50", help="comma-separated station counts")
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--budget", type=float, default=60.0, help="seconds per solver run")
    ap.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--battery", type=int, default=1000)
    ap.add_argument("--out", default="density_sweep.csv")
    ap.add_argument("--full", action="store_true", help="full benchmark scale: all 10 levels, 20 instances each")
    args = ap.parse_args()

    levels = list(DENSITY_LEVELS) if args.full else [int(v) for v in args.levels.split(",")]
    instances = 20 if args.full else args.instances
    records = sweep(
        levels,
        "density",
        instances_per_level=instances,
        runs_per_instance=args.runs,
        params=LnsParams(t_max=args.budget),
        workers=args.workers,
        density_battery=args.battery,
    )
    write_sweep_csv(records, args.out)
    for rec in records:
        print(
            f"n_r={rec.level:>3}: mean detour {rec.mean_detour_pct:6.2f}%   "
            f"mean station visits {rec.mean_station_visits:5.2f}"
        )
    alpha, beta, rss = fit_power_law([(r.level, r.mean_detour_pct) for r in records])
    print(f"power-law fit: detour ~ {alpha:.2f} / n_r^{beta:.3f}  (log-space RSS {rss:.4f})")
    print(f"doubling the station count cuts detours by ~{100 * (1 - 2**-beta):.0f}%")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
