#!/usr/bin/env python3
"""Battery-capacity experiment: detour caused by the battery constraint vs L.

Desk profile by default; pass --full for the full benchmark scale
(L in 800..1700 step 100, 20 instances per level).
"""

import argparse
import os

from e2evrp.bench import BATTERY_LEVELS, sweep, write_sweep_csv
from e2evrp.lns import LnsParams


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", default="800,1100,1400,1700")
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--budget", type=float, default=60.0)
    ap.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--stations", type=int, default=20)
    ap.add_argument("--out", default="battery_sweep.csv")
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args()

    levels = list(BATTERY_LEVELS) if args.full else [int(v) for v in args.levels.split(",")]
    instances = 20 if args.full else args.instances
    records = sweep(
        levels,
        "battery",
        instances_per_level=instances,
        runs_per_instance=args.runs,
        params=LnsParams(t_max=args.budget),
        workers=args.workers,
        battery_stations=args.stations,
    )
    write_sweep_csv(records, args.out)
    for rec in records:
        print(
            f"L={rec.level:>4}: mean detour {rec.mean_detour_pct:6.2f}%   "
            f"mean station visits {rec.mean_station_visits:5.2f}"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
