"""The scripts/ wrappers, each run in a fresh interpreter at tiny sizes.

A wrapper prints a ``# ...`` line before each slitflow call; the call's own
``# slitflow``/``# config`` header and CSV table follow it.  Every call must
parse its flags (exit 0 or 1, never 2, and no usage message) and emit at
least one CSV row.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLI_HEADER = ("# slitflow ", "# config ")

SCRIPTS = {
    "run_classification.py": [],
    "run_identity_checks.py": [],
    "run_martingales.py": ["--n-paths", "200", "--T", "0.01", "--dt", "1e-3"],
    "run_coupling.py": ["--n-samples", "50", "--T", "0.01", "--dt", "1e-3"],
    "run_hitting_probabilities.py": ["--n-paths", "20", "--dt", "2e-2",
                                     "--t-max", "1"],
}


def _blocks(stdout):
    """The non-comment lines of each slitflow call, grouped.

    A call's block starts at the wrapper's own ``#`` line or, for a wrapper
    that prints none, at the call's ``# slitflow`` header; a call that
    printed nothing leaves its block empty.
    """
    blocks = []
    after_wrapper = False
    for line in stdout.splitlines():
        wrapper = line.startswith("#") and not line.startswith(CLI_HEADER)
        if wrapper or (line.startswith(CLI_HEADER[0]) and not after_wrapper):
            blocks.append([])
        elif not line.startswith("#"):
            assert blocks, f"output before any header: {line!r}"
            blocks[-1].append(line)
        after_wrapper = wrapper
    return blocks


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs_and_prints_csv(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script]],
        capture_output=True, text=True, env=_env(), timeout=300,
    )
    assert proc.returncode in (0, 1), proc.stderr
    assert "usage:" not in proc.stderr
    blocks = _blocks(proc.stdout)
    assert blocks, proc.stdout
    for lines in blocks:
        rows = list(csv.DictReader(lines))
        assert rows, proc.stdout
        assert all(None not in row and None not in row.values() for row in rows)


def test_closed_stdout_ends_quietly():
    # a reader that stops after one line, as `| head -1` does: the rest of
    # the output meets a closed pipe, which must not end in a traceback
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "run_classification.py")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    rc = proc.wait(timeout=300)
    assert first.startswith(b"# kappa = 2")
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert rc in (0, 1)
