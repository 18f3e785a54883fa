"""In-memory spans around calls into slitflow, and the per-layer metrics they give.

The wrappers are installed where each caller looks a name up, because the
slitflow modules import one another by name: ``simulate_ensemble`` is
wrapped in ``slitflow.observables`` (and ``slitflow.cli``), ``eval_field``
in ``slitflow.flow``, and so on.  Nothing under ``src/`` is changed; the
wrappers are removed again after the traced pass.
"""

from __future__ import annotations

import functools
import inspect
import time

# (module, names looked up there); the experiment functions themselves are
# wrapped in slitflow.observables, where the benchmark looks them up
WRAPPED_NAMES = (
    ("slitflow.observables", (
        "simulate_ensemble", "energy_from_map", "eigen_basis",
        "patch_from_testfn", "sc_map_build", "green_half_plane_grid",
        "drift_test", "ks_normality", "enumerate_families", "build_u",
        "martingale_suite", "qv_check", "run_coupling", "cardy_zhan",
        "bpz_sc_residual",
    )),
    ("slitflow.flow", ("eval_field", "eval_field_prime")),
    ("slitflow.gff", ("cell_log_avg",)),
)
WRAPPED_METHODS = (
    ("slitflow.conformal", "ScMap", "exit_probabilities"),
    ("slitflow.gff", "EigenBasis", "field_at_points"),
    ("slitflow.fields", "FieldCoeffs", "second"),
)


def span_name(fn) -> str:
    """``<module>.<qualname>`` with the package prefix and ``<locals>`` dropped."""
    module = fn.__module__.rpartition(".")[2]
    return f"{module}.{fn.__qualname__.replace('.<locals>', '')}"


class Recorder:
    """Spans (name, start, end, parent index) plus counts taken at the same calls."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.ensemble_calls = []  # (n_paths, points, steps) per simulate_ensemble
        self._stack = []

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name, fn, *args, **kwargs):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "ensemble_calls": self.ensemble_calls}

    def merge(self, data: dict) -> None:
        """Append the spans and counts another process recorded."""
        base = len(self.spans)
        for name, start, end, parent in data["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1])
        for key, value in data["counts"].items():
            self.count(key, value)
        self.ensemble_calls.extend(tuple(c) for c in data["ensemble_calls"])

    def totals(self) -> dict:
        """name -> [calls, busy seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
        return out

    def child_calls(self, parent_name, child_name) -> int:
        """Spans named ``child_name`` whose direct parent is named ``parent_name``."""
        return sum(
            1 for name, _, _, parent in self.spans
            if name == child_name and parent >= 0
            and self.spans[parent][0] == parent_name
        )


def _after_ensemble(rec, bound, result):
    a = bound.arguments
    steps = int(round(a["T"] / a["dt"]))  # the step count simulate_ensemble takes
    rec.ensemble_calls.append((int(a["n_paths"]), int(result.points.size), steps))
    rec.count("flow.frozen", int(result.alive.size - result.alive.sum()))
    rec.count("flow.entries", int(result.alive.size))


def _after_cardy(rec, bound, result):
    rec.count("cardy.paths", result.n)
    rec.count("cardy.ambiguous", result.ambiguous_frac * result.n)


def _after_field_at_points(rec, bound, result):
    rec.count("gff.field_points", int(getattr(bound.arguments["pts"], "size", 1)))


AFTER = {
    "flow.simulate_ensemble": _after_ensemble,
    "observables.cardy_zhan": _after_cardy,
    "gff.EigenBasis.field_at_points": _after_field_at_points,
}


def wrap(rec: Recorder, fn):
    name = span_name(fn)
    after = AFTER.get(name)
    if after is None:
        @functools.wraps(fn)
        def plain(*args, **kwargs):
            return rec.call(name, fn, *args, **kwargs)
        return plain
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        cb = bound.arguments.get("callback")
        if name == "flow.simulate_ensemble" and cb is not None:
            cb_name = span_name(cb)
            bound.arguments["callback"] = (
                lambda *a, **k: rec.call(cb_name, cb, *a, **k))
        result = rec.call(name, fn, *bound.args, **bound.kwargs)
        after(rec, bound, result)
        return result

    return wrapper


def install(rec: Recorder):
    """Wrap every traced name; returns a function that restores the originals."""
    import importlib

    undo = []

    def patch(owner, attr):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        undo.append((owner, attr, orig))
        setattr(owner, attr, wrap(rec, orig))

    for modname, names in WRAPPED_NAMES:
        mod = importlib.import_module(modname)
        for attr in names:
            patch(mod, attr)
    for modname, cls, attr in WRAPPED_METHODS:
        patch(getattr(importlib.import_module(modname), cls), attr)
    cli = importlib.import_module("slitflow.cli")
    for attr, obj in list(vars(cli).items()):
        if (inspect.isfunction(obj) and obj.__module__.startswith("slitflow.")
                and obj.__module__ != "slitflow.cli"):
            patch(cli, attr)

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore
