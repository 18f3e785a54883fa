"""Every name a slitflow module imports is used in that module, every
module-level definition and constant is reachable from the CLI, the
acceptance criteria, the scripts or the benchmark, every raise names
``InputError`` or ``NumericalError``, importing the package loads no
submodule, no module imports scipy, every subcommand runs with scipy
blocked (slitflow needs numpy alone at run time), and every name the
benchmark's span wrappers patch exists."""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import slitflow

PACKAGE = Path(slitflow.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def _modules() -> list:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = []
    for path in _modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert not found, "unused imports: " + ", ".join(found)


def _names(node: ast.AST) -> set:
    """Every name and attribute that the code of ``node`` reads."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _stored(node: ast.AST) -> set:
    """The plain names a module-level assignment binds."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return set()
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def test_no_orphan_definitions():
    # every module-level def, class or assigned name (a constant) is
    # reachable from a use: module-level code such as the CLI entry point,
    # the acceptance criteria, the scripts, the benchmark, or a tests/ helper
    # such as the reference evaluators the unit tests compare against.  Unit
    # tests do not count, nor do imports.  The package __init__ is not
    # scanned: it holds only its docstring and __version__.
    # Definitions are keyed by place, as two modules may bind one name
    # (flow's aliases of the fields evaluators)
    defs = {}
    reached = set()
    for path in _modules():
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            where = f"{path.name}:{node.lineno}"
            stored = _stored(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[where, node.name] = _names(node)
            elif stored:
                for name in stored:
                    defs[where, name] = _names(node) - stored
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _names(node)
    uses = [p for p in (REPO / "tests").glob("*.py")
            if p.name == "test_acceptance.py" or not p.name.startswith("test_")]
    uses += [p for d in ("scripts", "perfbench") for p in (REPO / d).glob("*.py")]
    for path in uses:
        reached |= set(re.findall(r"\w+", path.read_text()))
    grown = True
    while grown:
        grown = False
        for (_, name), body in defs.items():
            if name in reached and not body <= reached:
                reached |= body
                grown = True
    found = sorted(f"{where} {name}" for where, name in defs
                   if name not in reached)
    assert not found, "definitions nothing reaches: " + ", ".join(found)


def test_errors_are_input_or_numerical():
    # the exception's class alone decides the CLI's exit code: InputError
    # exits 2, NumericalError 1, so every raise names one of the two
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [n.name for n in tree.body if isinstance(n, ast.ClassDef)]
    assert classes == ["SlitflowError", "InputError", "NumericalError"]
    found = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name)
                    and exc.id in ("InputError", "NumericalError")):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "raises of other exceptions: " + ", ".join(found)


def test_family_parameter_is_read_only_by_the_family():
    # which of alpha or B a family takes is decided in FamilySpec alone:
    # no other module, no script and no acceptance criterion reads
    # .parameter to choose the argument for it
    paths = [p for p in _modules() if p.name != "classify.py"]
    paths += sorted((REPO / "scripts").glob("*.py"))
    paths.append(REPO / "tests" / "test_acceptance.py")
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "parameter"
    ]
    assert not found, "reads of .parameter outside FamilySpec: " + ", ".join(found)


def _run_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_does_not_load_scipy_stats():
    # the package root holds only __version__: importing it loads no
    # submodule, so neither numpy nor scipy
    out = _run_python("import slitflow, sys\nprint(sorted(m for m in sys.modules"
                      " if m.split('.')[0] in ('slitflow', 'numpy', 'scipy')))")
    assert ast.literal_eval(out) == ["slitflow"], out


def test_no_src_module_imports_scipy():
    # scipy is a test-only reference; the package runs on numpy alone
    found = [
        f"{path.name}:{node.lineno}"
        for path in _modules()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "scipy")
    ]
    assert not found, "scipy imported at: " + ", ".join(found)


@pytest.mark.parametrize("argv", [
    ["classify", "--kappa", "6"],
    ["check-identities", "--kappa", "6", "--seed", "1", "--n-pairs", "10"],
    ["simulate", "--seed", "1", "--n-paths", "4"],
    ["verify-martingales", "--seed", "1", "--n-paths", "100", "--T", "0.05"],
    ["gff-couple", "--seed", "1", "--n-samples", "60", "--T", "0.05",
     "--dt", "1e-3"],
    ["sc-residual", "--kappa", "8", "--alpha", "0.2", "--z", "2i"],
    ["cardy-zhan", "--seed", "1", "--n-paths", "20", "--dt", "2e-3",
     "--t-max", "20"],
], ids=lambda argv: argv[0])
def test_subcommands_run_with_scipy_blocked(argv, tmp_path):
    # one fresh interpreter per subcommand, with sys.modules["scipy"] = None
    # set first so that any import of scipy fails.  The verdicts of
    # gff-couple at 60 samples and cardy-zhan at 20 paths are coin flips,
    # so their exit codes are checked against the CLI contract: 0 when
    # every pass flag in the CSV holds, 1 otherwise
    expect = "0"
    if argv[0] in ("gff-couple", "cardy-zhan"):
        out = str(tmp_path / "out.csv")
        argv = argv + ["--out", out]
        expect = (f"(0 if all(v == 'True' for r in csv.DictReader("
                  f"line for line in open({out!r}) if line[0] != '#') "
                  f"for k, v in r.items() if k.endswith(('pass', 'passed')))"
                  f" else 1)")
    _run_python(f"import sys\nsys.modules['scipy'] = None\n"
                f"import csv\nfrom slitflow.cli import main\n"
                f"rc = main({argv!r})\nassert rc == {expect}, rc")


def test_benchmark_span_wrappers_install_and_restore():
    # perfbench/spans.py wraps slitflow names where their callers look them
    # up; a renamed one must fail here, not only in a traced benchmark run.
    # A fresh interpreter, so a failed install leaves no wrapper behind
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(REPO / "perfbench")!r})
        import importlib, spans
        from slitflow import observables

        def current():
            out = [(m, a, getattr(importlib.import_module(m), a))
                   for m, names in spans.WRAPPED_NAMES for a in names]
            return out + [(m, c + "." + a,
                           vars(getattr(importlib.import_module(m), c))[a])
                          for m, c, a in spans.WRAPPED_METHODS]

        before = current()
        rec = spans.Recorder()
        restore = spans.install(rec)
        wrapped = sum(x[2] is not y[2] for x, y in zip(before, current()))
        observables.bpz_sc_residual(6.0, 0.0, 2j)
        restore()
        print((len(before), wrapped, current() == before, sorted(rec.totals())))
    """)
    n, wrapped, restored, traced = ast.literal_eval(_run_python(code))
    assert wrapped == n and restored
    assert traced == ["conformal.sc_map_build", "observables.bpz_sc_residual"]
