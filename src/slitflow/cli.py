"""Command-line front end: reproducible experiment tables from configs.

Every subcommand accepts --config (JSON file, flags win), --seed, --threads,
--out and --format; outputs carry a header block with the resolved config,
the seed and the package version.  Exit status: 0 when all pass flags are
true, 1 when a check fails, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .classify import (
    build_u,
    check_annihilation,
    check_bsigma,
    enumerate_families,
    solve_system,
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


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return str(x)


def _parse_complex(s: str) -> complex:
    if not isinstance(s, str):
        raise ConfigError(f"complex numbers are given as strings, not {s!r}")
    try:
        return complex(s.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {s!r}") from exc


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
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> dict:
    """JSON config file merged under explicit flags (flags win)."""
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad config file: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    merged = dict(parser_defaults)
    merged.update(cfg)
    for key, val in vars(args).items():
        if key in ("config", "func") or val is None:
            continue
        if key not in parser_defaults or val != parser_defaults[key]:
            merged[key] = val
    merged.pop("config", None)
    merged.pop("func", None)
    return merged


def _require_seed(cfg):
    if cfg.get("seed") is None:
        raise ConfigError("stochastic commands need --seed")
    return int(cfg["seed"])


def _positive(cfg, *names):
    for nm in names:
        if nm in cfg and cfg[nm] is not None and float(cfg[nm]) <= 0:
            raise ConfigError(f"{nm} must be positive")


# -- subcommand bodies ---------------------------------------------------------


def _cmd_classify(cfg):
    kappa = float(cfg["kappa"])
    rows = []
    ok = True
    for spec in enumerate_families(kappa):
        try:
            if spec.parameter == "alpha":
                b, al, B = spec.coefficients(alpha=float(cfg["alpha"]))
            else:
                b, al, B = spec.coefficients(B=float(cfg.get("B", 0.5)))
        except SlitflowError as exc:
            rows.append({"family": spec.name, "note": str(exc)})
            continue
        sol = solve_system(
            kappa, float(spec.sigma.c1), float(spec.sigma.c2),
            float(al), B=float(B),
        )
        resid = max(abs(r) for r in sol.residuals) if sol.residuals else 0.0
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
    _positive(cfg, "n_pairs")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    kappa = float(cfg["kappa"])
    rows = []
    # Hadamard closed forms on random pairs
    n = int(cfg["n_pairs"])
    z1 = rng.uniform(-3, 3, n) + 1j * rng.uniform(0.2, 3, n)
    z2 = rng.uniform(-3, 3, n) + 1j * rng.uniform(0.2, 3, n)
    sig_f = FieldCoeffs.sigma_field(0.3, -0.2)
    b_f = FieldCoeffs.b_field(0.1, -0.4, 0.2)
    sig_res = max(
        abs(lie_green_closed(sig_f, a, b)) for a, b in zip(z1, z2)
    )
    b_res = max(
        abs(lie_green_closed(b_f, a, b)
            - 4.0 * np.imag(1 / a) * np.imag(1 / b))
        for a, b in zip(z1, z2)
    )
    rows.append({"check": "lie_sigma_green", "value": sig_res,
                 "tol": 1e-12, "passed": sig_res < 1e-12})
    rows.append({"check": "lie_b_green", "value": b_res,
                 "tol": 1e-10, "passed": b_res < 1e-10})
    # annihilation and the b-sigma relation per family
    pts = rng.uniform(-2.5, 2.5, 100) + 1j * rng.uniform(0.3, 3, 100)
    for spec in enumerate_families(kappa):
        try:
            model = spec.instantiate(alpha=float(cfg["alpha"]))
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
    _positive(cfg, "T", "dt", "n_paths")
    model = _family_model(cfg["geometry"], float(cfg["kappa"]),
                          float(cfg["alpha"]))
    pts = [_parse_complex(s) for s in cfg["z"]]
    res = simulate_ensemble(
        model, pts, int(cfg["n_paths"]), float(cfg["T"]), float(cfg["dt"]),
        seed,
    )
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
    _positive(cfg, "T", "dt", "n_paths")
    reports = martingale_suite(
        cfg["geometry"], float(cfg["kappa"]), float(cfg["alpha"]),
        n_paths=int(cfg["n_paths"]), T=float(cfg["T"]), dt=float(cfg["dt"]),
        seed=seed,
    )
    rows = [r.csv_row() for r in reports]
    return rows, all(r.passed for r in reports)


def _cmd_gff_couple(cfg):
    seed = _require_seed(cfg)
    _positive(cfg, "T", "dt", "n_samples")
    res = run_coupling(
        n_samples=int(cfg["n_samples"]), T=float(cfg["T"]),
        dt=float(cfg["dt"]), seed=seed,
        bump=TestFn(_parse_complex(cfg["center"]), float(cfg["radius"])),
        threads=int(cfg.get("threads") or 1),
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
    _positive(cfg, "t_max", "dt", "n_paths")
    rows = []
    ok = True
    for zs in cfg["z"]:
        res = cardy_zhan(
            float(cfg["kappa"]), float(cfg["alpha"]), _parse_complex(zs),
            n_paths=int(cfg["n_paths"]), t_max=float(cfg["t_max"]),
            dt=float(cfg["dt"]), seed=seed,
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
        res = bpz_sc_residual(float(cfg["kappa"]), float(cfg["alpha"]), z)
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


def _add_common(sp):
    sp.add_argument("--config", default=None, help="JSON config file")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=FORMATS, default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="slitflow")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="family catalogue")
    sp.add_argument("--kappa", type=float, default=4.0)
    sp.add_argument("--alpha", type=float, default=0.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("check-identities", help="closed-form residuals")
    sp.add_argument("--kappa", type=float, default=4.0)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--n-pairs", dest="n_pairs", type=int, default=1000)
    _add_common(sp)
    sp.set_defaults(func=_cmd_check_identities)

    sp = sub.add_parser("simulate", help="flow ensemble dump")
    sp.add_argument("--kappa", type=float, default=4.0)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--geometry", choices=("chordal", "dipolar"),
                    default="chordal")
    sp.add_argument("--z", action="append", default=None,
                    help="seed point, repeatable (e.g. 0.5+1.2i)")
    sp.add_argument("--T", type=float, default=0.1)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--n-paths", dest="n_paths", type=int, default=8)
    _add_common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify-martingales", help="drift-test suite")
    sp.add_argument("--kappa", type=float, default=4.0)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--geometry", choices=("chordal", "dipolar"),
                    default="chordal")
    sp.add_argument("--T", type=float, default=0.3)
    sp.add_argument("--dt", type=float, default=1e-4)
    sp.add_argument("--n-paths", dest="n_paths", type=int, default=10_000)
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify_martingales)

    sp = sub.add_parser("gff-couple", help="flow/field coupling statistics")
    sp.add_argument("--n-samples", dest="n_samples", type=int, default=5000)
    sp.add_argument("--T", type=float, default=0.25)
    sp.add_argument("--dt", type=float, default=2.5e-4)
    sp.add_argument("--center", default="1.5i")
    sp.add_argument("--radius", type=float, default=0.3)
    _add_common(sp)
    sp.set_defaults(func=_cmd_gff_couple)

    sp = sub.add_parser("cardy-zhan", help="hitting-probability table")
    sp.add_argument("--kappa", type=float, default=6.0)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--z", action="append", default=None)
    sp.add_argument("--n-paths", dest="n_paths", type=int, default=20_000)
    sp.add_argument("--t-max", dest="t_max", type=float, default=30.0)
    sp.add_argument("--dt", type=float, default=2e-4)
    _add_common(sp)
    sp.set_defaults(func=_cmd_cardy_zhan)

    sp = sub.add_parser("sc-residual", help="triangle-map ODE residuals")
    sp.add_argument("--kappa", type=float, default=6.0)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--z", action="append", default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_sc_residual)

    return ap


_DEFAULT_Z = {
    "simulate": ["1i"],
    "cardy-zhan": ["1.5708i"],
    "sc-residual": ["0.5+0.5i", "2i"],
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    defaults = vars(ap.parse_args([args.command]))
    defaults.pop("func")
    try:
        cfg = _merge_config(args, defaults)
        cfg["command"] = args.command
        threads = cfg.get("threads")
        if threads is not None and (not isinstance(threads, int) or threads < 1):
            raise ConfigError("threads must be a positive integer")
        if args.command in _DEFAULT_Z:
            if cfg.get("z") is None:
                cfg["z"] = _DEFAULT_Z[args.command]
            elif isinstance(cfg["z"], str):
                # a config file may name one point without a list
                cfg["z"] = [cfg["z"]]
            elif not isinstance(cfg["z"], list):
                raise ConfigError("z must be a string or a list of strings")
        rows, ok = args.func(cfg)
        _emit(rows, cfg, cfg.get("out"), cfg.get("format", "csv"))
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
