#!/usr/bin/env python3
"""Full-scale AoI/energy tradeoff sweep: both CSI cases, the three reference
channel pairs, budgets 0.1..1.0, N=1000, 1e5 simulated slots.

Takes 10 to 16 s with ``--workers 2`` on two shared cores. Any CLI flag can be
appended to override the defaults, e.g. ``--bound-N 200`` for a quick pass.
"""

import pathlib
import sys

from aoisched.cli import main

if __name__ == "__main__":
    pathlib.Path("results").mkdir(exist_ok=True)
    sys.exit(main([
        "tradeoff",
        "--case", "both",
        "--frame-K", "3",
        "--workers", "4",
        "--out", "results/tradeoff.csv",
        *sys.argv[1:],
    ]))
