"""Every name a slitflow module imports is used in that module, and every
module-level definition is named somewhere outside its own definition."""

import ast
import re
from pathlib import Path

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


def test_no_orphan_definitions():
    # a def or class whose name appears only at its definition is reached by
    # no module, test, script or benchmark; the package __init__ re-exports
    # names and does not count as a use
    sources = _modules() + [
        p for d in ("tests", "scripts", "perfbench") for p in (REPO / d).glob("*.py")
    ]
    texts = [p.read_text() for p in sources]
    found = []
    for path in _modules():
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                word = re.compile(rf"\b{node.name}\b")
                if sum(len(word.findall(t)) for t in texts) <= 1:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert not found, "definitions nothing names: " + ", ".join(found)
