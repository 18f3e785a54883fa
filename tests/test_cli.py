"""Command-line interface: exit codes, formats, and rerun determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from slitflow import cli, fields
from slitflow.classify import FamilySpec, enumerate_families
from slitflow.cli import main

RUN = [sys.executable, "-m", "slitflow.cli"]


def _run(args, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True, **kw)


def test_classify_exits_zero_and_emits_csv(capsys):
    rc = main(["classify", "--kappa", "4", "--alpha", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# slitflow")
    assert lines[1].startswith("# config")
    assert "family" in lines[2]
    assert any("chordal-drift" in ln for ln in lines[3:])


def test_classify_csv_keeps_note_only_rows():
    # at kappa = 8 three families degenerate and write a note-only row; the
    # CSV takes the union of the columns and leaves the missing cells empty
    proc = _run(["classify", "--kappa", "8"])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    header, *rows = [r.split(",") for r in proc.stdout.splitlines()[2:]]
    assert header[-1] == "note" and all(len(r) == len(header) for r in rows)
    assert [r[0] for r in rows] == [f.name for f in enumerate_families(8.0)]
    notes = [r for r in rows if r[-1]]
    assert len(notes) == 3 and all(c == "" for r in notes for c in r[1:-1])


@pytest.mark.parametrize("kappa", ["7.999999", "6.00000000001"])
def test_classify_is_exact_near_degenerate_kappa(kappa, capsys):
    # the round trip runs in Fractions, so near kappa = 8 and kappa = 6 no
    # pivot is lost to a tolerance and a right family b leaves residual 0
    rc = main(["classify", "--kappa", kappa, "--alpha", "0.3"])
    lines = capsys.readouterr().out.splitlines()[2:]
    header, *rows = [ln.split(",") for ln in lines]
    assert rc == 0
    col = header.index("roundtrip_residual")
    assert len(rows) == 5 and all(r[col] == "0" for r in rows)
    assert not any(c == "-0" for r in rows for c in r)


def test_classify_json_format(capsys):
    rc = main(["classify", "--kappa", "6", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    names = {r["family"] for r in payload["rows"]}
    assert "radial6-drift" in names
    assert payload["header"]["tool"] == "slitflow"


def test_classify_fails_when_the_family_b_is_wrong(monkeypatch, capsys):
    # the round trip compares each family's own b with the system, not only
    # the solver with its own solution: shifting every b_{-1} by 1 must fail
    coefficients = FamilySpec.coefficients

    def shifted(self, *args, **kwargs):
        b, alpha, B = coefficients(self, *args, **kwargs)
        return fields.FieldCoeffs("b", b.c1 + 1, b.c2, b.c3), alpha, B

    monkeypatch.setattr(FamilySpec, "coefficients", shifted)
    rc = main(["classify", "--kappa", "4", "--alpha", "0.3", "--format",
               "json"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rc == 1
    assert len(rows) == 5 and not any(r["passed"] for r in rows)


def test_check_identities_checks_beta_families_at_catalogue_b(monkeypatch,
                                                               capsys):
    # the beta-families are checked at the B that classify lists them by;
    # at B = 0 parabolic-beta is plain chordal SLE and its b-sigma residual
    # would vanish by construction
    seen = []
    check_bsigma = cli.check_bsigma

    def record(model, samples):
        seen.append(model.B)
        return check_bsigma(model, samples)

    monkeypatch.setattr(cli, "check_bsigma", record)
    rc = main(["check-identities", "--kappa", "3", "--seed", "1",
               "--alpha", "0.3"])
    capsys.readouterr()
    assert rc == 0
    names = [f.name for f in enumerate_families(3.0)]
    betas = [B for name, B in zip(names, seen, strict=True) if "beta" in name]
    assert betas == [cli.B_CATALOGUE] * 3 == [0.5] * 3


def test_ndjson_format(capsys):
    rc = main(["classify", "--kappa", "3", "--format", "ndjson"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert "header" in json.loads(out[0])
    json.loads(out[-1])


def test_stochastic_command_requires_seed():
    proc = _run(["simulate"])
    assert proc.returncode == 2
    assert "seed" in proc.stderr


def test_bad_flag_value_exits_two(capsys):
    proc = _run(["simulate", "--seed", "1", "--T", "-0.5"])
    assert proc.returncode == 2
    # out-of-range values caught by the library, not the CLI, are usage
    # errors too, and so are values of the wrong type or outside an
    # option's choices, which the one conversion pass rejects; in-process
    # calls avoid an interpreter start-up per case
    for argv in (
        ["simulate", "--seed", "1", "--T", "abc"],
        ["simulate", "--seed", "1", "--n-paths", "2.7"],
        ["classify", "--format", "xml"],
        ["simulate", "--seed", "1", "--geometry", "radial"],
        ["simulate", "--seed", "1", "--dt", "1", "--T", "0.1"],
        ["simulate", "--seed", "1", "--z=-1i"],
        ["cardy-zhan", "--seed", "1", "--kappa", "4"],
        ["cardy-zhan", "--seed", "1", "--alpha", "1.5"],
        ["classify", "--kappa", "-1"],
        ["gff-couple", "--seed", "1", "--center", "0.1i"],
        ["simulate", "--seed", "1", "--T", "0.1", "--dt", "0.07"],
        ["simulate", "--seed", "1", "--T", "inf"],
        ["check-identities", "--seed", "1", "--n-pairs", "0"],
        ["gff-couple", "--seed", "1", "--radius", "0"],
        ["gff-couple", "--seed", "1", "--radius", "-0.3"],
        ["gff-couple", "--seed", "1", "--threads", "0"],
        ["gff-couple", "--seed", "1", "--threads", "-3"],
        ["classify", "--threads", "0"],
        ["gff-couple", "--seed", "1", "--n-samples", "1"],
        ["simulate", "--seed", "1", "--n-paths", "2",
         "--out", "/nonexistent/x.csv"],
        ["sc-residual", "--z", "1"],
        ["sc-residual", "--z", "0.0001i"],
        ["gff-couple", "--seed", "1", "--n-samples", "10", "--T", "0.01",
         "--dt", "1e-3", "--radius", "0.01"],
        ["simulate", "--seed", "1", "--z", "nan+1i"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "config error" in err, argv
    # only a trailing i is the imaginary unit, so 'inf' parses as infinity
    for z in ("inf+1i", "1+infi"):
        assert main(["simulate", "--seed", "1", f"--z={z}"]) == 2, z
        out, err = capsys.readouterr()
        assert out == "" and f"complex number '{z}' must be finite" in err, z


def test_non_finite_point_exits_two_without_hanging():
    # with a NaN real part no stop condition of cardy_zhan ever holds, so
    # the point must be refused before the run starts
    proc = _run(["cardy-zhan", "--seed", "1", "--z", "nan+1i", "--t-max", "1"],
                timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == "" and "config error" in proc.stderr


@pytest.mark.parametrize("command, code", [
    ("simulate", 2), ("verify-martingales", 2),
    ("classify", 0), ("check-identities", 0),
])
def test_huge_alpha_exits_without_traceback(command, code):
    # B = alpha^2 does not fit in a float past |alpha| ~ 1.3e154: simulate
    # and verify-martingales exit 2, and classify and check-identities write
    # note-only rows for the drift families
    proc = _run([command, "--seed", "1", "--alpha", "1e300"])
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert "coefficients overflow a float" in proc.stdout
    else:
        assert "config error" in proc.stderr


@pytest.mark.parametrize("command", ["sc-residual", "cardy-zhan"])
def test_angle_rounded_to_zero_exits_two_without_traceback(command):
    # float64 rounds a triangle angle to 0 at kappa = 5e16 and at alpha =
    # 1 - 2^-53; at alpha = 1 - 2^-52 the angle is 1 ulp, and at kappa =
    # 3e16 it is 1e-16 pi: all four lie below ANGLE_MIN
    extra = ["--seed", "1", "--n-paths", "20"] if command == "cardy-zhan" else []
    for flag in ("--kappa=5e16", "--alpha=0.9999999999999999",
                 "--alpha=0.9999999999999998", "--kappa=3e16"):
        proc = _run([command, flag] + extra)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "config error" in proc.stderr
        assert "smallest triangle angle" in proc.stderr


@pytest.mark.parametrize("flags", ["--z=800+1.5i", "--kappa=1e8 --dt=0.01",
                                   "--kappa=3e16"])
def test_cardy_zhan_ends_at_the_edge_of_float64(flags):
    # a path past |Re Z| ~ 710 once stepped on an overflowing drift until
    # its state was NaN, which no stop test holds on, and the run never
    # ended; kappa = 1e8 with dt = 0.01 still carries paths past 710 (to
    # 1303 at seed 1), and kappa = 3e16 is refused before the loop
    proc = _run(["cardy-zhan", "--seed", "1", "--n-paths", "20", *flags.split()],
                timeout=60)
    if flags == "--kappa=3e16":
        assert proc.returncode == 2 and "config error" in proc.stderr, proc.stderr
    else:
        assert proc.returncode in (0, 1), proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_bad_complex_exits_two():
    proc = _run(["simulate", "--seed", "1", "--z", "zebra"])
    assert proc.returncode == 2


def test_unknown_subcommand_exits_two():
    proc = _run(["frobnicate"])
    assert proc.returncode == 2


def test_simulate_deterministic_rerun(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--seed", "7", "--z", "0.5+1.2i", "--n-paths", "6"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--threads", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_merge_flags_win(tmp_path, capsys):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"kappa": 6.0, "alpha": 0.25}))
    rc = main(["classify", "--config", str(cfgf), "--kappa", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    header = json.loads(out.splitlines()[1].removeprefix("# config "))
    assert header["kappa"] == 3          # flag overrides file
    assert header["alpha"] == 0.25       # file overrides default
    assert "threads" not in header       # runtime knob stripped
    # a flag given wins even when it repeats its default
    cfgf.write_text(json.dumps({"kappa": 6}))
    assert main(["classify", "--config", str(cfgf), "--kappa", "4"]) == 0
    out = capsys.readouterr().out
    header = json.loads(out.splitlines()[1].removeprefix("# config "))
    assert header["kappa"] == 4


@pytest.mark.parametrize("argv, config, key", [
    (["simulate"], {"seed": 1, "T": "abc"}, "T"),
    (["simulate"], {"seed": "x"}, "seed"),
    (["simulate"], {"seed": 1, "n-paths": 3}, "n-paths"),
    (["simulate"], {"seed": 1, "geometry": "radial"}, "geometry"),
    (["simulate"], {"seed": 1, "n_paths": 2.7}, "n_paths"),
    (["simulate"], {"seed": 1, "n_paths": True}, "n_paths"),
    (["classify"], {"kappa": "x"}, "kappa"),
    (["classify"], {"format": "xml"}, "format"),
    (["classify"], {"B": 0.7}, "B"),
    (["simulate", "--seed", "-1"], None, "seed"),
    (["simulate", "--seed", "1", "--alpha", "nan"], None, "alpha"),
])
def test_bad_config_value_exits_two(tmp_path, capsys, argv, config, key):
    # a config-file value is converted and checked as its flag would be;
    # in process, a traceback would fail the test instead of returning 2
    if config is not None:
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfgf)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error" in err and key in err


@pytest.mark.parametrize("command", [
    ["sc-residual"],
    ["simulate", "--seed", "1", "--n-paths", "2"],
])
def test_config_file_string_z_is_one_point(tmp_path, capsys, command):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"z": "2i"}))
    assert main(command + ["--config", str(cfgf), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows and {r.get("z_im", r.get("im_z")) for r in rows} == {2.0}
    for bad in (5, {"re": 0, "im": 2}, [2.0]):
        cfgf.write_text(json.dumps({"z": bad}))
        assert main(command + ["--config", str(cfgf)]) == 2, bad
        assert "config error" in capsys.readouterr().err


def test_config_file_invalid_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    proc = _run(["classify", "--config", str(bad)])
    assert proc.returncode == 2
    bad.write_bytes(b"\xff\xfe{")  # not UTF-8
    assert main(["classify", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_sc_residual_passes(capsys):
    rc = main(["sc-residual", "--kappa", "6", "--alpha", "0.3",
               "--z", "0.5+0.8i"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "True" in out


def test_check_identities_exits_zero(capsys):
    rc = main(["check-identities", "--kappa", "4", "--alpha", "0.3",
               "--seed", "1", "--n-pairs", "50"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lie_b_green" in out


def test_check_identities_writes_note_rows_for_degenerate_families(capsys):
    # at kappa = 8 parabolic-beta and hyperbolic-beta(+-) do not exist:
    # note-only rows, as classify writes, and the exit code follows the
    # rows that carry a pass flag
    rc = main(["check-identities", "--kappa", "8", "--seed", "1",
               "--n-pairs", "10"])
    out = capsys.readouterr().out
    header, *rows = [ln.split(",") for ln in out.splitlines()[2:]]
    assert rc == 0
    assert header[-1] == "note" and "nan" not in out
    notes = [r for r in rows if r[-1]]
    assert len(notes) == 3 and all(c == "" for r in notes for c in r[1:-1])


def test_check_identities_catches_a_wrong_b_field(monkeypatch, capsys):
    # the lie_*_green rows compute the Lie derivative of G from the field
    # values; a b-field perturbed by 1e-3 z^3 leaves the b-field shape, so
    # its Lie derivative is no longer 4 Im(1/z1) Im(1/z2) and the row fails
    eval_field = fields.eval_field

    def perturbed(c, z):
        v = eval_field(c, z)
        return v + 1e-3 * np.asarray(z) ** 3 if c.kind == "b" else v

    monkeypatch.setattr(fields, "eval_field", perturbed)
    rc = main(["check-identities", "--kappa", "4", "--alpha", "0.3",
               "--seed", "1", "--n-pairs", "50", "--format", "json"])
    rows = {r["check"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    assert rc == 1
    assert not rows["lie_b_green"]["passed"]
    assert rows["lie_sigma_green"]["passed"]


def test_gff_couple_deterministic_across_threads(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["gff-couple", "--seed", "3", "--n-samples", "60",
            "--T", "0.05", "--dt", "1e-3"]
    assert main(base + ["--threads", "1", "--out", str(a)]) in (0, 1)
    assert main(base + ["--threads", "3", "--out", str(b)]) in (0, 1)
    assert a.read_bytes() == b.read_bytes()
