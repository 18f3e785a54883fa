#!/usr/bin/env python3
"""Emit the drift-family catalogue with round-trip residuals for a kappa grid.

Usage: run_classification.py [extra slitflow flags...]
"""

import sys

from slitflow.cli import echo, main

if __name__ == "__main__":
    rc = 0
    for kappa in ("2", "3", "4", "5", "6"):
        echo(f"# kappa = {kappa}\n")
        rc |= main(["classify", "--kappa", kappa, "--alpha", "0.3",
                    *sys.argv[1:]])
    sys.exit(rc)
