#!/usr/bin/env python3
"""Strip hitting-probability tables against the triangle-map oracle.

Usage: run_hitting_probabilities.py [--n-paths N] [extra slitflow flags...]
Covers (kappa, alpha) in {(6,0), (6,0.3), (8,0.2)} at three strip points,
and prints the oracle's own ODE residuals first.
"""

import sys

from slitflow.cli import echo, main

POINTS = ["0.5+0.8i", "-0.3+1.5708i", "1+2.2i"]
CONFIGS = (("6", "0"), ("6", "0.3"), ("8", "0.2"))

if __name__ == "__main__":
    rc = 0
    for kappa, alpha in CONFIGS:
        echo(f"# oracle residuals kappa={kappa} alpha={alpha}\n")
        rc |= main(["sc-residual", "--kappa", kappa, "--alpha", alpha,
                    *[f"--z={z}" for z in POINTS]])
        echo(f"# monte carlo kappa={kappa} alpha={alpha}\n")
        rc |= main(["cardy-zhan", "--kappa", kappa, "--alpha", alpha,
                    "--seed", "0",
                    *[f"--z={z}" for z in POINTS],
                    *sys.argv[1:]])
    sys.exit(rc)
