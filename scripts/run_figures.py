#!/usr/bin/env python3
"""Run every canned replication experiment.

Usage: python scripts/run_figures.py [out_dir]

Each experiment runs as ``klsmooth figures NAME out_dir`` and writes
<name>_trace.csv and <name>_report.json. The trace holds every plotted
series, one row per iteration k: plot mu_k and c_k against k, and error,
lower_bound and upper_bound against residual on log-log axes.
"""

import sys
import time

from klsmooth import cli


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "figures_out"
    for name in cli.FIGURE_NAMES:
        t0 = time.perf_counter()
        status = cli.main(["figures", name, out_dir])
        if status != 0:
            print(f"{name}: FAILED with exit status {status}")
            return status
        print(f"{name}: done in {time.perf_counter() - t0:.2f}s -> {out_dir}/{name}_*")
    return 0


if __name__ == "__main__":
    sys.exit(main())
