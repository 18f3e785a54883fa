"""The three workloads: their operations, sizes, per-job seeds and output checks.

Every operation returns an ``Outcome``: the checks it made, each judged by
the benchmark's gate, the program's own verdict, and a digest of its
deterministic outputs.  Statistical checks are gated at ``Z_GATE`` standard
errors (or the matching tail probability) rather than at the program's
3-sigma / 5 % / 1 % gates: at the reduced sizes used here those gates fail
by chance on a few seeds in a hundred, and the benchmark must pass on every
seed.  The program's verdict is still recorded and counted.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass

Z_GATE = 5.0
KS_ALPHA = 1e-6  # tail probability of a 5-sigma normal deviate, to one digit


def job_seed(seed: int, name: str) -> int:
    """Per-job seed derived from the workload seed; stable across platforms."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def ks_c(alpha: float) -> float:
    """Asymptotic Kolmogorov critical constant: P(sqrt(n) D > c) = alpha."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0))


@dataclass
class Check:
    label: str
    ok: bool                 # within the benchmark's gate
    err_se: float = None     # |estimate - target| / se, for max_err_se


@dataclass
class Outcome:
    checks: list
    verdict: bool            # the program's own pass flag
    digest: str
    paths: int = 0
    output_bytes: int = 0
    spans: dict = None       # spans recorded by a traced CLI child


# -- statistical gates shared by in-process and CLI operations -------------------


def drift_check(label, z):
    z = float(z)
    return Check(label, math.isfinite(z) and abs(z) < Z_GATE, abs(z))


def coupling_checks(n, mean, se, mean_target, variance, var_target, ks_stat,
                    ks_crit, flagged):
    """Criterion-7 statistics at the benchmark's gate."""
    z_mean = abs(mean - mean_target) / se
    z_var = abs(variance - var_target) / (var_target * math.sqrt(2.0 / (n - 1)))
    ks_gate = ks_crit * ks_c(KS_ALPHA) / ks_c(0.01)
    return [
        Check("coupling-mean", z_mean < Z_GATE, z_mean),
        Check("coupling-var", z_var < Z_GATE),
        Check("coupling-ks", ks_stat < ks_gate),
        Check("coupling-flagged", flagged == 0),
    ]


def cardy_checks(label, mc, oracle, se, ambiguous_frac):
    checks = []
    for name, m, o, s in zip(("swallow", "right", "left"), mc, oracle, se):
        err = abs(m - o) / s
        checks.append(Check(f"{label}-{name}", err < Z_GATE, err))
    checks.append(Check(f"{label}-ambiguous", ambiguous_frac < 0.05))
    return checks


# -- ensemble -------------------------------------------------------------------
# Criteria 5-7 at reduced path counts.  Martingale states are 2000 x 5
# complex (160 KB per array); coupling chunks are 500 x 148 (1.2 MB per
# array, about 20 live temporaries per step) against a 2 MiB per-core L2.

MG_CONFIGS = (("chordal", 4.0, 0.0), ("dipolar", 6.0, 0.3))
MG = dict(n_paths=2000, T=0.05, dt=1e-4)
QV = dict(n_paths=200, T=0.1, dt=5e-4)
QV_BUMP = (2.0j, 0.3)
CP = dict(n_samples=1000, T=0.1, dt=1e-3, chunk=500)
CP_BUMP = (1.5j, 0.3)


def ensemble_ops(seed, threads, patch_points):
    """(name, run, path·point·steps) per operation; ``run()`` gives an Outcome."""
    from slitflow import observables as obs
    from slitflow.gff import TestFn

    ops = []
    for geometry, kappa, alpha in MG_CONFIGS:
        name = f"martingale-{geometry}-k{kappa:g}-a{alpha:g}"

        def run(geometry=geometry, kappa=kappa, alpha=alpha, s=job_seed(seed, name)):
            reports = obs.martingale_suite(geometry, kappa, alpha, seed=s, **MG)
            checks = [
                drift_check(r.name, r.zscore)
                for r in reports if "degenerate" not in r.name
            ]
            checks += [Check(r.name, False) for r in reports if "degenerate" in r.name]
            return Outcome(
                checks, all(r.passed for r in reports),
                digest([(r.name, r.n, r.mean, r.variance) for r in reports]),
                paths=MG["n_paths"],
            )

        ops.append((name, run, MG["n_paths"] * 5 * round(MG["T"] / MG["dt"])))

    def qv(s=job_seed(seed, "qv")):
        res = obs.qv_check(seed=s, bump=TestFn(*QV_BUMP), kappa=4.0, **QV)
        ok = res.rel_error < 0.1  # the criterion-6 gate, far from chance
        return Outcome(
            [Check("qv-rel-error", ok)], ok,
            digest(res.qv_mean, res.qv_se, res.e0, res.e_terminal_mean),
            paths=QV["n_paths"],
        )

    ops.append(("qv", qv, QV["n_paths"] * patch_points["qv"]
                * round(QV["T"] / QV["dt"])))

    def coupling(s=job_seed(seed, "coupling")):
        res = obs.run_coupling(seed=s, bump=TestFn(*CP_BUMP), threads=threads, **CP)
        ks_stat, ks_crit = res.ks()
        checks = coupling_checks(res.n, res.mean, res.se, res.mean_target,
                                 res.variance, res.var_target, ks_stat,
                                 ks_crit, res.flagged)
        verdict = (abs(res.mean - res.mean_target) < 3.0 * res.se
                   and abs(res.variance - res.var_target) < 0.05 * res.var_target
                   and ks_stat < ks_crit and res.flagged == 0)
        return Outcome(
            checks, verdict,
            digest(hashlib.sha256(res.samples.tobytes()).hexdigest(), res.flagged),
            paths=CP["n_samples"],
        )

    ops.append(("coupling", coupling, CP["n_samples"] * patch_points["coupling"]
                * round(CP["T"] / CP["dt"])))
    return ops


# -- hitting --------------------------------------------------------------------
# One criterion-8 point per acceptance config.  (8, 0.2) has the largest
# known escape bias, which stays visible in max_err_se.

HIT_CONFIGS = (((6.0, 0.0), 0.5 + 0.8j), ((6.0, 0.3), -0.3 + 1.5708j),
               ((8.0, 0.2), 1.0 + 2.2j))
HIT = dict(n_paths=500, t_max=30.0, dt=1e-3)
BPZ_POINT = 0.4 + 1.1j


def hitting_ops(seed):
    from slitflow import observables as obs

    ops = []
    for (kappa, alpha), z in HIT_CONFIGS:
        name = f"cardy-k{kappa:g}-a{alpha:g}"

        def run(kappa=kappa, alpha=alpha, z=z, name=name, s=job_seed(seed, name)):
            res = obs.cardy_zhan(kappa, alpha, z, seed=s, **HIT)
            return Outcome(
                cardy_checks(name, res.mc, res.oracle, res.se, res.ambiguous_frac),
                res.passed, digest(res.mc, res.oracle, res.ambiguous_frac),
                paths=res.n,
            )

        ops.append((name, run, 0))

    def bpz():
        checks = []
        values = []
        for (kappa, alpha), _ in HIT_CONFIGS:
            res = obs.bpz_sc_residual(kappa, alpha, BPZ_POINT)
            ok = res["map_residual"] < 1e-8 and res["vertex_residual"] < 1e-8
            checks.append(Check(f"bpz-k{kappa:g}-a{alpha:g}", ok))
            values.append((res["map_residual"], res["vertex_residual"]))
        return Outcome(checks, all(c.ok for c in checks), digest(values))

    ops.append(("bpz-sc-residual", bpz, 0))
    return ops


# -- cli ------------------------------------------------------------------------
# Fresh `python -m slitflow.cli` processes, one after another: start-up
# dominates every call.  One call per subcommand: classify and
# check-identities do 4-15 ms of work at any kappa, so further kappas would
# only repeat the start-up.  Sizes are chosen so each statistical check
# passes the benchmark's gate on every seed; the simulate dump is large
# enough (2000 paths x 3 points) that CSV emission is measurable.

TEXT_COLUMNS = {"family", "check", "name", "note"}
KAPPA = 6
SIM = dict(n_paths=2000, T=0.1, dt=1e-3, z=("0.5+1.2i", "1i", "-0.7+0.9i"))
VM = dict(n_paths=1000, T=0.05, dt=1e-3)
GC = dict(n_samples=500, T=0.05, dt=1e-3)
CZ = dict(n_paths=300, dt=2e-3, z="0.5+0.8i")


def parse_csv(text):
    """Rows of a slitflow CSV table as dicts of floats, bools and names."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = []
    for raw in csv.DictReader(lines):
        row = {}
        for key, cell in raw.items():
            if key in TEXT_COLUMNS:
                row[key] = cell
            elif cell in ("True", "False"):
                row[key] = cell == "True"
            else:
                value = float(cell)
                if not math.isfinite(value):
                    raise ValueError(f"non-finite {key}={cell}")
                row[key] = value
        rows.append(row)
    if not rows:
        raise ValueError("no rows")
    return rows


def _flags(rows):
    return [v for r in rows for k, v in r.items()
            if k in ("passed", "pass") or k.endswith("_pass")]


def _check_flags(rows):
    """Closed-form checks are deterministic: the program's own flags are the gate."""
    return [Check("pass-flags", all(_flags(rows)))]


def _check_simulate(rows):
    n = SIM["n_paths"] * len(SIM["z"])
    return [Check("simulate-rows", len(rows) == n)]


def _check_drift(rows):
    return [drift_check(r["name"], r["zscore"]) for r in rows]


def _check_coupling(rows):
    (r,) = rows
    return coupling_checks(int(r["n"]), r["mean"], r["se"], r["mean_target"],
                           r["variance"], r["var_target"], r["ks_stat"],
                           r["ks_crit"], r["flagged"])


def _check_cardy(rows):
    checks = []
    for r in rows:
        checks += cardy_checks(
            "cardy-zhan", (r["a_mc"], r["b_mc"], r["c_mc"]),
            (r["a_sc"], r["b_sc"], r["c_sc"]), (r["se_a"], r["se_b"], r["se_c"]),
            r["ambiguous_frac"])
    return checks


def _steps(d):
    return round(d["T"] / d["dt"])


def cli_calls(seed, patch_points):
    """(name, argv, row check, paths, path·point·steps) for one pass."""
    name = f"check-identities-k{KAPPA}"
    calls = [
        (f"classify-k{KAPPA}", ["classify", "--kappa", str(KAPPA)], _check_flags, 0, 0),
        (name, ["check-identities", "--kappa", str(KAPPA), "--seed",
                str(job_seed(seed, name))], _check_flags, 0, 0),
    ]
    calls.append(("sc-residual", ["sc-residual"], _check_flags, 0, 0))
    calls.append(("simulate", [
        "simulate", "--seed", str(job_seed(seed, "simulate")),
        "--n-paths", str(SIM["n_paths"]), "--T", str(SIM["T"]),
        "--dt", str(SIM["dt"]), *(f"--z={z}" for z in SIM["z"]),
    ], _check_simulate, SIM["n_paths"],
        SIM["n_paths"] * len(SIM["z"]) * _steps(SIM)))
    calls.append(("verify-martingales", [
        "verify-martingales", "--seed", str(job_seed(seed, "verify-martingales")),
        "--n-paths", str(VM["n_paths"]), "--T", str(VM["T"]), "--dt", str(VM["dt"]),
    ], _check_drift, VM["n_paths"], VM["n_paths"] * 5 * _steps(VM)))
    calls.append(("gff-couple", [
        "gff-couple", "--seed", str(job_seed(seed, "gff-couple")),
        "--n-samples", str(GC["n_samples"]), "--T", str(GC["T"]),
        "--dt", str(GC["dt"]),
    ], _check_coupling, GC["n_samples"],
        GC["n_samples"] * patch_points["coupling"] * _steps(GC)))
    calls.append(("cardy-zhan", [
        "cardy-zhan", "--seed", str(job_seed(seed, "cardy-zhan")),
        "--n-paths", str(CZ["n_paths"]), "--dt", str(CZ["dt"]), f"--z={CZ['z']}",
    ], _check_cardy, CZ["n_paths"], 0))
    return calls


def cli_ops(seed, patch_points, traced_runner=None, spans_dir=None):
    """One op per CLI call; traced ops run ``traced_runner`` and read its spans."""
    ops = []
    for name, argv, row_check, paths, pps in cli_calls(seed, patch_points):

        def run(name=name, argv=argv, row_check=row_check, paths=paths):
            if traced_runner is None:
                cmd = [sys.executable, "-m", "slitflow.cli", *argv]
            else:
                spans_path = spans_dir / f"{name}.json"
                cmd = [sys.executable, str(traced_runner), str(spans_path), *argv]
            proc = subprocess.run(cmd, capture_output=True, timeout=150)
            out = proc.stdout.decode()
            checks = [Check("exit-code", proc.returncode in (0, 1))]
            rows = parse_csv(out)
            flags = _flags(rows)
            # documented contract: 0 when every pass flag holds, 1 otherwise
            checks.append(Check("exit-matches-flags",
                                proc.returncode == (0 if all(flags) else 1)))
            checks += row_check(rows)
            spans = None
            if traced_runner is not None:
                spans = json.loads(spans_path.read_text())
                spans_path.unlink()
            return Outcome(checks, proc.returncode == 0,
                           digest(proc.returncode, out), paths=paths,
                           output_bytes=len(proc.stdout), spans=spans)

        ops.append((name, run, pps))
    return ops
