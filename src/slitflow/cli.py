"""Command-line front end: reproducible experiment tables from configs.

Every subcommand accepts --config (JSON file), --seed, --threads, --out and
--format; outputs carry a header block with the resolved config, the seed
and the package version.  A config file sets options by their flag names
with dashes as underscores (n_paths for --n-paths); a flag given on the
command line wins over the file.  Flags arrive as strings, and every value
is converted and checked once, by _convert.  Exit status: 0 when all pass
flags are true, 1 when a check fails, 2 on usage and configuration errors.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .classify import (
    IDENTITY_TOL,
    check_annihilation,
    check_bsigma,
    enumerate_families,
    roundtrip_residual,
)
from .errors import InputError, SlitflowError
from .fields import HADAMARD_TOL, FieldCoeffs, hadamard_residual
from .flow import simulate_ensemble
from .gff import TestFn
from .observables import (
    _family_model,
    bpz_sc_residual,
    cardy_zhan,
    martingale_suite,
    run_coupling,
)

FORMATS = ("csv", "ndjson", "json")
GEOMETRIES = ("chordal", "dipolar")
B_CATALOGUE = 0.5  # B = beta sqrt(kappa) of the beta-families listed and checked
POSITIVE = ("T", "dt", "t_max", "n_paths", "n_pairs", "n_samples", "threads")


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _parse_complex(s: str) -> complex:
    t = s.replace(" ", "")
    if t.endswith("i"):  # the imaginary unit; the i of 'inf' stays
        t = t[:-1] + "j"
    try:
        z = complex(t)
    except ValueError as exc:
        raise InputError(f"cannot parse complex number {s!r}") from exc
    if not cmath.isfinite(z):
        raise InputError(f"complex number {s!r} must be finite")
    return z


def echo(text: str) -> None:
    """Write text to stdout now; a reader that has gone away ends the run.

    When the reader closes the pipe early (``| head``), stdout is pointed at
    the null device, so that the interpreter's last flush cannot fail again,
    and the process exits 1 without a traceback.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def _emit(rows, config, out_path, fmt):
    """Write rows (list of dicts) with an auditable header block."""
    # runtime-only knobs must not leak into the output so that reruns with a
    # different pool size or destination stay byte-identical
    config = {k: v for k, v in config.items() if k not in ("threads", "out")}
    header = {
        "tool": "slitflow",
        "version": __version__,
        "config": config,
    }
    lines = []
    if fmt == "json":
        payload = {"header": header, "rows": rows}
        text = json.dumps(payload, sort_keys=True, default=_fmt, indent=1)
        lines = [text]
    elif fmt == "ndjson":
        lines.append(json.dumps({"header": header}, sort_keys=True, default=_fmt))
        lines.extend(json.dumps(r, sort_keys=True, default=_fmt) for r in rows)
    else:
        lines.append(f"# slitflow {__version__}")
        lines.append("# config " + json.dumps(config, sort_keys=True, default=_fmt))
        if rows:
            # rows may differ in keys (a note-only row for a family whose
            # coefficients raise): the columns are their union in first-seen
            # order, and a row's missing cells are left empty
            cols = list(dict.fromkeys(c for r in rows for c in r))
            lines.append(",".join(cols))
            for r in rows:
                lines.append(",".join(_fmt(r[c]) if c in r else "" for c in cols))
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out: {exc}") from exc
    else:
        echo(text)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decoding errors
        raise InputError(f"bad config file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config file must hold a JSON object")
    return cfg


def _convert(options: dict, key: str, value):
    """One value of the merged config, converted to its option's type and checked."""
    if key not in options:
        raise InputError(f"unknown option {key!r}")
    kind, default = options[key]
    if value is None and default is None:
        return None
    if kind is list:
        # a config file may name one point without a list
        value = [value] if isinstance(value, str) else value
        if not (isinstance(value, list)
                and all(isinstance(v, str) for v in value)):
            raise InputError(f"{key} must be a string or a list of strings")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise InputError(f"{key} must be a string")
        return value
    if isinstance(kind, tuple):
        if value not in kind:
            raise InputError(f"{key} must be one of {', '.join(kind)}")
        return value
    try:
        value = kind(str(value))
    except ValueError as exc:
        raise InputError(f"invalid {kind.__name__} {key}: {value!r}") from exc
    if not math.isfinite(value):
        raise InputError(f"{key} must be finite")
    if key in POSITIVE and value <= 0:
        raise InputError(f"{key} must be positive")
    if key == "seed" and value < 0:
        raise InputError("seed must not be negative")
    return value


def _merge_config(options: dict, path, flags: dict) -> dict:
    """Defaults under the config file under the flags given, all converted."""
    merged = {key: default for key, (_, default) in options.items()}
    if path is not None:
        merged.update(_load_config(path))
    merged.update(flags)
    return {key: _convert(options, key, val) for key, val in merged.items()}


def _require_seed(cfg):
    if cfg["seed"] is None:
        raise InputError("stochastic commands need --seed")
    return cfg["seed"]


# -- subcommand bodies ---------------------------------------------------------


def _cmd_classify(cfg):
    rows = []
    ok = True
    for spec in enumerate_families(cfg["kappa"]):
        try:
            b, al, B = spec.coefficients(cfg["alpha"], B_CATALOGUE)
        except SlitflowError as exc:
            rows.append({"family": spec.name, "note": str(exc)})
            continue
        resid = roundtrip_residual(spec, cfg["alpha"], B_CATALOGUE)
        ok = ok and resid == 0
        rows.append({
            "family": spec.name,
            "b_m1": float(b.c1), "b_0": float(b.c2), "b_1": float(b.c3),
            "sigma_0": float(spec.sigma.c1), "sigma_1": float(spec.sigma.c2),
            "alpha": float(al), "B": float(B),
            "roundtrip_residual": float(resid),
            "passed": resid == 0,
        })
    return rows, ok


def _gated(check, value, tol):
    return {"check": check, "value": value, "tol": tol, "passed": value < tol}


def _cmd_check_identities(cfg):
    seed = _require_seed(cfg)
    rng = np.random.default_rng(seed)
    rows = []
    # Hadamard closed forms on random pairs
    n = cfg["n_pairs"]
    z1 = rng.uniform(-3, 3, n) + 1j * rng.uniform(0.2, 3, n)
    z2 = rng.uniform(-3, 3, n) + 1j * rng.uniform(0.2, 3, n)
    for check, v in (("lie_sigma_green", FieldCoeffs("sigma", 0.3, -0.2)),
                     ("lie_b_green", FieldCoeffs("b", 0.1, -0.4, 0.2))):
        res = float(np.max(hadamard_residual(v, z1, z2)))
        rows.append(_gated(check, res, HADAMARD_TOL[v.kind]))
    # annihilation and the b-sigma relation per family
    pts = rng.uniform(-2.5, 2.5, 100) + 1j * rng.uniform(0.3, 3, 100)
    for spec in enumerate_families(cfg["kappa"]):
        try:
            model = spec.instantiate(cfg["alpha"], B_CATALOGUE)
            ann = check_annihilation(model, pts)
        except SlitflowError as exc:
            # a family that degenerates at this kappa: a note-only row, as
            # classify writes
            rows.append({"check": f"annihilation-{spec.name}",
                         "note": str(exc)})
            continue
        rows.append(_gated(f"annihilation-{spec.name}", ann, IDENTITY_TOL))
        rows.append(_gated(f"bsigma-{spec.name}", check_bsigma(model, pts),
                           IDENTITY_TOL))
    return rows, all(r["passed"] for r in rows if "passed" in r)


def _cmd_simulate(cfg):
    seed = _require_seed(cfg)
    model = _family_model(cfg["geometry"], cfg["kappa"], cfg["alpha"])
    pts = [_parse_complex(s) for s in cfg["z"]]
    res = simulate_ensemble(model, pts, cfg["n_paths"], cfg["T"], cfg["dt"],
                            seed)
    rows = []
    for i in range(res.w.shape[0]):
        for j, z in enumerate(res.points):
            rows.append({
                "path": i, "z_re": z.real, "z_im": z.imag,
                "w_re": res.w[i, j].real, "w_im": res.w[i, j].imag,
                "log_wp_re": res.log_wp[i, j].real,
                "log_wp_im": res.log_wp[i, j].imag,
                "alive": bool(res.alive[i, j]),
            })
    return rows, True


def _cmd_verify_martingales(cfg):
    seed = _require_seed(cfg)
    reports = martingale_suite(
        cfg["geometry"], cfg["kappa"], cfg["alpha"],
        n_paths=cfg["n_paths"], T=cfg["T"], dt=cfg["dt"], seed=seed,
    )
    rows = [r.csv_row() for r in reports]
    return rows, all(r.passed for r in reports)


def _cmd_gff_couple(cfg):
    seed = _require_seed(cfg)
    res = run_coupling(
        n_samples=cfg["n_samples"], T=cfg["T"], dt=cfg["dt"], seed=seed,
        bump=TestFn(_parse_complex(cfg["center"]), cfg["radius"]),
        threads=cfg["threads"],
    )
    ks_stat, ks_crit = res.ks()
    rows = [{
        "n": res.n, "mean": res.mean, "se": res.se,
        "mean_target": res.mean_target, "variance": res.variance,
        "var_target": res.var_target, "ks_stat": ks_stat,
        "ks_crit": ks_crit, "flagged": res.flagged,
        "mean_pass": res.mean_pass, "var_pass": res.var_pass,
        "ks_pass": res.ks_pass,
    }]
    # the verdict is the law's three gates; flagged samples are reported
    return rows, res.passed


def _cmd_cardy_zhan(cfg):
    seed = _require_seed(cfg)
    rows = []
    ok = True
    for zs in cfg["z"]:
        z = _parse_complex(zs)
        res = cardy_zhan(
            cfg["kappa"], cfg["alpha"], z,
            n_paths=cfg["n_paths"], t_max=cfg["t_max"], dt=cfg["dt"],
            seed=seed,
        )
        ok = ok and res.passed
        rows.append({
            "re_z": z.real, "im_z": z.imag,
            "a_mc": res.mc[0], "b_mc": res.mc[1], "c_mc": res.mc[2],
            "a_sc": res.oracle[0], "b_sc": res.oracle[1],
            "c_sc": res.oracle[2],
            "se_a": res.se[0], "se_b": res.se[1], "se_c": res.se[2],
            "ambiguous_frac": res.ambiguous_frac, "passed": res.passed,
        })
    return rows, ok


def _cmd_sc_residual(cfg):
    rows = []
    ok = True
    for zs in cfg["z"]:
        z = _parse_complex(zs)
        res = bpz_sc_residual(cfg["kappa"], cfg["alpha"], z)
        ok = ok and res["passed"]
        rows.append({"re_z": z.real, "im_z": z.imag, **res})
    return rows, ok


# -- parser --------------------------------------------------------------------

# Per subcommand: body, help, and each option's dest -> (type, default).  A
# tuple type is the option's choices, list a repeatable string.  The parser
# is built from this table, and _merge_config converts every value with it.
COMMON = {
    "seed": (int, None),
    "threads": (int, 1),
    "out": (str, None),
    "format": (FORMATS, "csv"),
}
COMMANDS = {
    "classify": (_cmd_classify, "family catalogue", {
        "kappa": (float, 4.0), "alpha": (float, 0.0),
    }),
    "check-identities": (_cmd_check_identities, "closed-form residuals", {
        "kappa": (float, 4.0), "alpha": (float, 0.0), "n_pairs": (int, 1000),
    }),
    "simulate": (_cmd_simulate, "flow ensemble dump", {
        "kappa": (float, 4.0), "alpha": (float, 0.0),
        "geometry": (GEOMETRIES, "chordal"), "z": (list, ["1i"]),
        "T": (float, 0.1), "dt": (float, 1e-3), "n_paths": (int, 8),
    }),
    "verify-martingales": (_cmd_verify_martingales, "drift-test suite", {
        "kappa": (float, 4.0), "alpha": (float, 0.0),
        "geometry": (GEOMETRIES, "chordal"),
        "T": (float, 0.3), "dt": (float, 1e-4), "n_paths": (int, 10_000),
    }),
    "gff-couple": (_cmd_gff_couple, "flow/field coupling statistics", {
        "n_samples": (int, 5000), "T": (float, 0.25), "dt": (float, 2.5e-4),
        "center": (str, "1.5i"), "radius": (float, 0.3),
    }),
    "cardy-zhan": (_cmd_cardy_zhan, "hitting-probability table", {
        "kappa": (float, 6.0), "alpha": (float, 0.0),
        "z": (list, ["1.5708i"]), "n_paths": (int, 20_000),
        "t_max": (float, 30.0), "dt": (float, 2e-4),
    }),
    "sc-residual": (_cmd_sc_residual, "triangle-map ODE residuals", {
        "kappa": (float, 6.0), "alpha": (float, 0.0),
        "z": (list, ["0.5+0.5i", "2i"]),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="slitflow")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        # an option left off the command line stays out of the namespace,
        # so a flag given always wins over the config file
        sp = sub.add_parser(name, help=help_text,
                            argument_default=argparse.SUPPRESS)
        for dest, (kind, _) in {**options, **COMMON}.items():
            flag = "--" + dest.replace("_", "-")
            if kind is list:
                sp.add_argument(flag, action="append",
                                help="point, repeatable (e.g. 0.5+1.2i)")
            else:
                sp.add_argument(flag)
        sp.add_argument("--config", help="JSON config file")
    return ap


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command = flags.pop("command")
    func, _, options = COMMANDS[command]
    try:
        cfg = _merge_config({**options, **COMMON}, flags.pop("config", None),
                            flags)
        cfg["command"] = command
        rows, ok = func(cfg)
        _emit(rows, cfg, cfg["out"], cfg["format"])
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SlitflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
