#!/usr/bin/env python3
"""Closed-form residual tables: Green's-function Lie derivatives and
generator annihilation for every family at kappa in {3, 4, 6}.

Usage: run_identity_checks.py [extra slitflow flags...]
"""

import sys

from slitflow.cli import echo, main

if __name__ == "__main__":
    rc = 0
    for kappa in ("3", "4", "6"):
        echo(f"# kappa = {kappa}\n")
        rc |= main(["check-identities", "--kappa", kappa, "--alpha", "0.3",
                    "--seed", "1", *sys.argv[1:]])
    sys.exit(rc)
