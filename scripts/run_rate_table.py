#!/usr/bin/env python3
"""Predicted vs. observed Tikhonov convergence rates across benchmarks.

Usage: python scripts/run_rate_table.py [out_dir]

Builds configs for a diagonal reference problem and the two kernel
benchmarks, runs the estimation pipeline on each, and cross-checks the
estimated smoothness exponent through the a-priori-rate experiment. The
gravity analog is expected to be flagged as a misfit: its estimate looks
stable but fails the spectral summability test.
"""

import sys
from pathlib import Path

from klsmooth import cli

CONFIGS = {
    "diag2.cfg": ("problem.kind = power_law\nproblem.n = 10000\n"
                  "problem.eta = 2\nproblem.beta = 2\n"),
    "deriv2.cfg": "problem.kind = deriv2\nproblem.n = 256\n",
    "gravity.cfg": "problem.kind = gravity\nproblem.n = 256\n",
}


def main() -> int:
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "rate_table_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, body in CONFIGS.items():
        path = out_dir / name
        path.write_text(body + "landweber.max_iters = 2000\n")
        paths.append(str(path))
    table_path = out_dir / "tikhonov_table.csv"
    status = cli.main(["tikhonov-table", *paths, "--out", str(table_path)])
    if status == 0:
        print(table_path.read_text().strip())
    return status


if __name__ == "__main__":
    sys.exit(main())
