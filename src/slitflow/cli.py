"""Command-line front end: reproducible experiment tables from configs.

Every subcommand accepts --config (JSON file), --seed, --threads, --out and
--format; outputs carry a header block with the resolved config, the seed
and the package version.  A config file sets options by their flag names
with dashes as underscores (n_paths for --n-paths); a flag given on the
command line wins over the file.  Every value is converted and checked once,
as argparse converts its flag.  Exit status: 0 when all pass flags are
true, 1 when a check fails, 2 on usage and configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .classify import (
    build_u,
    check_annihilation,
    check_bsigma,
    enumerate_families,
    solve_system,
    system_residuals,
)
from .errors import (
    ConfigError,
    DomainError,
    ParameterRangeError,
    SlitflowError,
    SupportViolationError,
)
from .fields import FieldCoeffs, lie_green_closed
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
B_CATALOGUE = 0.5  # B = beta sqrt(kappa) of the families classify lists by B
POSITIVE = ("T", "dt", "t_max", "n_paths", "n_pairs", "n_samples", "threads")


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return str(x)


def _parse_complex(s: str) -> complex:
    try:
        return complex(s.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {s!r}") from exc


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
            cols = list(rows[0].keys())
            lines.append(",".join(cols))
            for r in rows:
                lines.append(",".join(_fmt(r[c]) for c in cols))
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}") from exc
    else:
        echo(text)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decoding errors
        raise ConfigError(f"bad config file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _convert(options: dict, key: str, value):
    """One value of the merged config, converted and checked as its flag."""
    if key not in options:
        raise ConfigError(f"unknown option {key!r}")
    kind, default = options[key]
    if value is None and default is None:
        return None
    if kind is list:
        # a config file may name one point without a list
        value = [value] if isinstance(value, str) else value
        if not (isinstance(value, list)
                and all(isinstance(v, str) for v in value)):
            raise ConfigError(f"{key} must be a string or a list of strings")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string")
        return value
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{key} must be one of {', '.join(kind)}")
        return value
    try:
        value = kind(str(value))
    except ValueError as exc:
        raise ConfigError(f"invalid {kind.__name__} {key}: {value!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite")
    if key in POSITIVE and value <= 0:
        raise ConfigError(f"{key} must be positive")
    if key == "seed" and value < 0:
        raise ConfigError("seed must not be negative")
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
        raise ConfigError("stochastic commands need --seed")
    return cfg["seed"]


# -- subcommand bodies ---------------------------------------------------------


def _cmd_classify(cfg):
    kappa = cfg["kappa"]
    rows = []
    ok = True
    for spec in enumerate_families(kappa):
        try:
            if spec.parameter == "alpha":
                b, al, B = spec.coefficients(alpha=cfg["alpha"])
            else:
                b, al, B = spec.coefficients(B=B_CATALOGUE)
        except SlitflowError as exc:
            rows.append({"family": spec.name, "note": str(exc)})
            continue
        s0, s1 = float(spec.sigma.c1), float(spec.sigma.c2)
        sol = solve_system(kappa, s0, s1, float(al), B=float(B))
        # the family's own b must solve the system, and be its unique solution
        errs = [*sol.residuals,
                *system_residuals(kappa, s0, s1, float(al), float(B), b)]
        if sol.status == "unique":
            errs += [x - y for x, y in zip(sol.b.coeffs, b.coeffs)]
        resid = max(abs(float(e)) for e in errs)
        ok = ok and resid < 1e-12
        rows.append({
            "family": spec.name,
            "b_m1": float(b.c1), "b_0": float(b.c2), "b_1": float(b.c3),
            "sigma_0": float(spec.sigma.c1), "sigma_1": float(spec.sigma.c2),
            "alpha": float(al), "B": float(B),
            "roundtrip_residual": resid,
            "passed": resid < 1e-12,
        })
    return rows, ok


def _cmd_check_identities(cfg):
    seed = _require_seed(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    kappa = cfg["kappa"]
    rows = []
    # Hadamard closed forms on random pairs
    n = cfg["n_pairs"]
    z1 = rng.uniform(-3, 3, n) + 1j * rng.uniform(0.2, 3, n)
    z2 = rng.uniform(-3, 3, n) + 1j * rng.uniform(0.2, 3, n)
    sig_f = FieldCoeffs.sigma_field(0.3, -0.2)
    b_f = FieldCoeffs.b_field(0.1, -0.4, 0.2)
    sig_res = float(np.max(np.abs(lie_green_closed(sig_f, z1, z2))))
    b_res = float(np.max(np.abs(lie_green_closed(b_f, z1, z2)
                                - 4.0 * np.imag(1 / z1) * np.imag(1 / z2))))
    rows.append({"check": "lie_sigma_green", "value": sig_res,
                 "tol": 1e-12, "passed": sig_res < 1e-12})
    rows.append({"check": "lie_b_green", "value": b_res,
                 "tol": 1e-10, "passed": b_res < 1e-10})
    # annihilation and the b-sigma relation per family
    pts = rng.uniform(-2.5, 2.5, 100) + 1j * rng.uniform(0.3, 3, 100)
    for spec in enumerate_families(kappa):
        try:
            model = spec.instantiate(alpha=cfg["alpha"])
            u = build_u(model)
        except SlitflowError as exc:
            rows.append({"check": f"annihilation-{spec.name}",
                         "value": float("nan"), "tol": 1e-8,
                         "passed": False, "note": str(exc)})
            continue
        ann = check_annihilation(model, u, pts)["max"]
        bs = check_bsigma(model, pts)["max"]
        rows.append({"check": f"annihilation-{spec.name}", "value": ann,
                     "tol": 1e-8, "passed": ann < 1e-8})
        rows.append({"check": f"bsigma-{spec.name}", "value": bs,
                     "tol": 1e-8, "passed": bs < 1e-8})
    return rows, all(r["passed"] for r in rows)


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
    mean_ok = abs(res.mean - res.mean_target) < 3.0 * res.se
    var_ok = abs(res.variance - res.var_target) < 0.05 * res.var_target
    ks_ok = ks_stat < ks_crit
    rows = [{
        "n": res.n, "mean": res.mean, "se": res.se,
        "mean_target": res.mean_target, "variance": res.variance,
        "var_target": res.var_target, "ks_stat": ks_stat,
        "ks_crit": ks_crit, "flagged": res.flagged,
        "mean_pass": mean_ok, "var_pass": var_ok, "ks_pass": ks_ok,
    }]
    return rows, mean_ok and var_ok and ks_ok


def _cmd_cardy_zhan(cfg):
    seed = _require_seed(cfg)
    rows = []
    ok = True
    for zs in cfg["z"]:
        res = cardy_zhan(
            cfg["kappa"], cfg["alpha"], _parse_complex(zs),
            n_paths=cfg["n_paths"], t_max=cfg["t_max"], dt=cfg["dt"],
            seed=seed,
        )
        ok = ok and res.passed
        rows.append({
            "re_z": res.z.real, "im_z": res.z.imag,
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
        passed = res["map_residual"] < 1e-8 and res["vertex_residual"] < 1e-8
        ok = ok and passed
        rows.append({
            "re_z": z.real, "im_z": z.imag,
            "map_residual": res["map_residual"],
            "vertex_residual": res["vertex_residual"],
            "passed": passed,
        })
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
            elif isinstance(kind, tuple):
                sp.add_argument(flag, choices=kind)
            else:
                sp.add_argument(flag, type=kind)
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
    except (ConfigError, DomainError, ParameterRangeError,
            SupportViolationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SlitflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
