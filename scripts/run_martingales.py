#!/usr/bin/env python3
"""Drift-test suite for the four reference flow configurations.

Usage: run_martingales.py [--n-paths N] [extra slitflow flags...]
Defaults match the acceptance setup (10^4 paths, T=0.3, dt=1e-4).
"""

import sys

from slitflow.cli import echo, main

CONFIGS = (
    ("chordal", "4", "0"),
    ("chordal", "4", "1"),
    ("dipolar", "6", "0"),
    ("dipolar", "6", "0.3"),
)

if __name__ == "__main__":
    rc = 0
    for geometry, kappa, alpha in CONFIGS:
        echo(f"# {geometry} kappa={kappa} alpha={alpha}\n")
        rc |= main(["verify-martingales", "--geometry", geometry,
                    "--kappa", kappa, "--alpha", alpha, "--seed", "0",
                    *sys.argv[1:]])
    sys.exit(rc)
