"""slitflow benchmark: one command per workload, validated outputs, JSON result.

    python3 perfbench/run.py --workload {ensemble,hitting,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; slitflow is imported from ``src/``.  A run
first times the set-up probes, then runs passes until ``--seconds`` (probes
included) is used up, and always at least one pass.  Each pass runs the
workload's fixed list of operations once, with per-job seeds derived from
``--seed``.  Every operation's outputs are checked and hashed, and every
pass at one seed must give the same digests.  So must every run of the same
code: the digests of a run without failures are kept in the build directory
(``$CARGO_TARGET_DIR`` or ``.bench_build``), keyed by workload, seed and
hashes of the slitflow sources and of ``workloads.py``.

``--trace 0`` prints the end-to-end metrics:

    wall_s       median wall time of one pass
    setup_s      median of 7 fresh-interpreter set-ups, spawn to ready:
                 import slitflow, build the families, SC maps and the
                 eigenbasis
    peak_rss_mb  peak resident memory of this process plus its largest child
    paths_per_s  Monte Carlo paths one pass simulates, divided by wall_s

``--trace 1`` alternates
untraced and traced passes, the traced ones with span wrappers around the
calls into each slitflow module, and prints the per-layer metrics.  In the
traced run the ensemble's coupling step runs in-process (``threads=1``) in
both kinds of pass, because spans recorded in pool workers never reach this
process.  The last line of stdout is the JSON result; the lines before it
(prefixed ``#``) are the machine record and per-operation details.
"""

from __future__ import annotations

import os

# one BLAS thread in this process, its pool workers and CLI children, so
# processes x BLAS threads never exceeds the two busy processes allowed
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
POOL_THREADS = 2  # the ensemble's run_coupling pool; nproc on the reference box

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "paths_per_s")


# -- machine record ---------------------------------------------------------------


def cache_sizes() -> dict:
    """Per-core data/unified cache sizes of cpu0 from sysfs, in bytes."""
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
        out[f"l{level}_bytes"] = int(size.rstrip("KM")) * mult
    return out


def machine_record(probe: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "slitflow").glob("*.py")):
        src_hash.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **probe["versions"],
        **cache_sizes(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
        "blas_threads_env": BLAS_ENV,
    }


# -- set-up -------------------------------------------------------------------------


def measure_setup(importtime: bool, work_dir: Path):
    """Fresh-interpreter set-up times; with importtime, the import breakdown too."""
    times, probes, imports = [], [], []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd.append(str(HERE / "setup_probe.py"))
        err_path = work_dir / f"importtime-{i}.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or not line:
                raise RuntimeError(f"setup probe failed: {err_path.read_text()[-2000:]}")
        probes.append(json.loads(line))
        if importtime:
            imports.append(cumulative_imports(err_path.read_text()))
        err_path.unlink()
    return times, probes[0], imports


def cumulative_imports(text: str) -> dict:
    """Cumulative seconds per module from ``-X importtime`` output."""
    out = {}
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) * 1e-6
    return out


# -- passes -------------------------------------------------------------------------


def run_pass(ops, rec=None, install=False):
    """Every op once, in order; returns (pass seconds, [(name, seconds, outcome)])."""
    restore = spans.install(rec) if install else None
    results = []
    try:
        for name, run, _ in ops:
            t0 = time.perf_counter()
            try:
                out = run()
            except Exception as exc:  # a raising op is a counted failure
                traceback.print_exc()
                out = exc
            results.append((name, time.perf_counter() - t0, out))
    finally:
        if restore is not None:
            restore()
    if rec is not None:
        for _, _, out in results:
            if not isinstance(out, Exception) and out.spans is not None:
                rec.merge(out.spans)
    return sum(secs for _, secs, _ in results), results


class Tally:
    """Checks attempted and failed, program verdicts and digests over all passes."""

    def __init__(self, known_digests: dict):
        self.attempted = self.failed = self.verdict_fail = self.passes = 0
        self.max_err_se = 0.0
        self.digests = known_digests
        self.op_times = {}

    def add(self, results, timed=True):
        self.passes += 1
        for name, secs, out in results:
            if timed:
                self.op_times.setdefault(name, []).append(secs)
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                continue
            # the digest check: every pass at this seed gives the same outputs
            if self.digests.setdefault(name, out.digest) != out.digest:
                self.failed += 1
                print(f"# digest mismatch: {name}")
            self.verdict_fail += not out.verdict
            for c in out.checks:
                self.attempted += 1
                if not c.ok:
                    self.failed += 1
                    print(f"# check failed: {name} {c.label}")
                if c.err_se is not None:
                    self.max_err_se = max(self.max_err_se, c.err_se)


def load_digests(path: Path, key: str) -> dict:
    try:
        return json.loads(path.read_text()).get(key, {})
    except (OSError, ValueError):
        return {}


def save_digests(path: Path, key: str, digests: dict) -> None:
    try:
        table = json.loads(path.read_text())
    except (OSError, ValueError):
        table = {}
    table[key] = digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(table, sort_keys=True, indent=1))
    tmp.replace(path)


# -- metrics ------------------------------------------------------------------------

# (span name, stats reported) for every wrapped function the per-layer table names
LAYER_SPANS = (
    ("flow.simulate_ensemble", ("calls", "busy_s", "self_s")),
    ("fields.eval_field", ("calls", "busy_s")),
    ("fields.eval_field_prime", ("calls", "busy_s")),
    ("fields.FieldCoeffs.second", ("calls", "busy_s")),
    ("fields.lie_green_closed", ("calls", "busy_s")),
    ("gff.eigen_basis", ("calls", "busy_s")),
    ("gff.EigenBasis.field_at_points", ("busy_s",)),
    ("gff.energy_from_map", ("calls", "busy_s")),
    ("gff.cell_log_avg", ("calls", "busy_s")),
    ("observables.martingale_suite", ("busy_s", "self_s")),
    ("observables.qv_check", ("busy_s", "self_s")),
    ("observables.run_coupling", ("busy_s", "self_s")),
    ("observables.cardy_zhan", ("busy_s", "self_s")),
    ("observables.bpz_sc_residual", ("busy_s", "self_s")),
    ("conformal.sc_map_build", ("calls", "busy_s")),
    ("conformal.ScMap.exit_probabilities", ("calls", "busy_s")),
    ("conformal.green_half_plane_grid", ("busy_s",)),
    ("classify.enumerate_families", ("calls", "busy_s")),
    ("classify.solve_system", ("calls", "busy_s")),
    ("classify.build_u", ("calls", "busy_s")),
    ("classify.check_annihilation", ("calls", "busy_s")),
    ("stats.drift_test", ("calls", "busy_s")),
    ("stats.ks_normality", ("calls", "busy_s")),
    ("cli.main", ("calls", "busy_s", "self_s")),
)
STAT_UNIT = {"calls": "count", "busy_s": "s", "self_s": "s"}


def layer_metrics(rec, n_traced, imports, ref_wall, traced_wall, pps_per_pass,
                  tally, output_bytes, cli_call_s, l2_bytes):
    """Per-layer metrics, per traced pass."""
    totals = rec.totals()
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for span, stats in LAYER_SPANS:
        calls, busy, self_s = totals.get(span, (0, 0.0, 0.0))
        values = {"calls": calls / n_traced, "busy_s": busy / n_traced,
                  "self_s": self_s / n_traced}
        for stat in stats:
            put(f"{span}.{stat}", values[stat], STAT_UNIT[stat])

    calls = rec.ensemble_calls
    pps = sum(n * p * s for n, p, s in calls)
    ens_busy = totals.get("flow.simulate_ensemble", (0, 0.0, 0.0))[1]
    put("flow.simulate_ensemble.path_point_steps", pps / n_traced, "count")
    put("flow.simulate_ensemble.pps_per_s", pps / ens_busy if ens_busy else 0.0, "1/s")
    entries = rec.counts.get("flow.entries", 0)
    put("flow.simulate_ensemble.frozen_frac",
        rec.counts.get("flow.frozen", 0) / entries if entries else 0.0, "ratio")
    put("flow.simulate_ensemble.array_bytes",
        max((16 * n * p for n, p, _ in calls), default=0), "bytes")
    put("flow.path_steps_per_s", pps_per_pass / ref_wall if pps_per_pass else 0.0, "1/s")
    put("gff.EigenBasis.field_at_points.points",
        rec.counts.get("gff.field_points", 0) / n_traced, "count")
    put("observables.qv_check.callback_s",
        totals.get("observables.qv_check.callback", (0, 0.0, 0.0))[1] / n_traced, "s")
    cz_paths = rec.counts.get("cardy.paths", 0)
    put("observables.cardy_zhan.ambiguous_frac",
        rec.counts.get("cardy.ambiguous", 0) / cz_paths if cz_paths else 0.0, "ratio")
    put("observables.max_err_se", tally.max_err_se, "se")
    put("observables.verdict_fail", tally.verdict_fail / tally.passes, "count")
    # oracle calls beyond the one exact value per point, per path classified
    extra = (rec.child_calls("observables.cardy_zhan", "conformal.ScMap.exit_probabilities")
             - totals.get("observables.cardy_zhan", (0,))[0])
    put("conformal.oracle_alloc_frac", extra / cz_paths if cz_paths else 0.0, "ratio")
    put("setup.import.slitflow_s",
        statistics.median(t.get("slitflow", 0.0) for t in imports), "s")
    put("setup.import.slitflow.stats_s",
        statistics.median(t.get("slitflow.stats", 0.0) for t in imports), "s")
    put("cli.output_bytes", output_bytes, "bytes")
    # every invocation of the untraced passes, start-up included
    put("cli.call_s", statistics.median(cli_call_s) if cli_call_s else 0.0, "s")
    put("cli.call_max_s", max(cli_call_s, default=0.0), "s")
    put("trace.overhead_frac", traced_wall / ref_wall - 1.0, "ratio")

    # computed kernel work and working set of each distinct call shape
    shapes = {}
    for call in calls:
        shapes[call] = shapes.get(call, 0) + 1
    for (n, p, s), count in sorted(shapes.items()):
        print(f"# computed simulate_ensemble n_paths={n} points={p} steps={s} "
              f"calls={count / n_traced:g} path_point_steps={n * p * s} "
              f"array_bytes={16 * n * p} exceeds_l2={16 * n * p > l2_bytes}")
    return m


# -- main ---------------------------------------------------------------------------


def build_ops(args, probe, traced, work_dir):
    patch_points = probe["patch_points"]
    if args.workload == "ensemble":
        # spans in pool workers never reach this process: no pool when tracing
        return workloads.ensemble_ops(args.seed, 1 if args.trace else POOL_THREADS,
                                      patch_points)
    if args.workload == "hitting":
        return workloads.hitting_ops(args.seed)
    runner = HERE / "cli_traced.py" if traced else None
    return workloads.cli_ops(args.seed, patch_points, runner, work_dir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("ensemble", "hitting", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "slitflow" / "__init__.py").is_file():
        print(f"perfbench: no slitflow sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work_dir = (ROOT / build / "perfbench").resolve()
    work_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    setup_times, probe, imports = measure_setup(bool(args.trace), work_dir)
    machine = machine_record(probe)
    print("# machine " + json.dumps(machine, sort_keys=True))

    spec = hashlib.sha256((HERE / "workloads.py").read_bytes()).hexdigest()[:12]
    digest_key = f"{args.workload}/{args.seed}/{machine['src_sha256']}/{spec}"
    digest_path = work_dir / "digests.json"
    tally = Tally(load_digests(digest_path, digest_key))
    plain_ops = build_ops(args, probe, False, work_dir)
    traced_ops = build_ops(args, probe, True, work_dir) if args.trace else None
    pps_per_pass = sum(pps for _, _, pps in plain_ops)
    in_process = args.workload != "cli"

    rec = spans.Recorder()
    walls, traced_walls, paths, output_bytes = [], [], 0, 0
    loop_start = time.perf_counter()
    while True:
        wall, results = run_pass(plain_ops)
        walls.append(wall)
        tally.add(results)
        if args.trace:
            n_before = len(rec.ensemble_calls)
            wall, traced = run_pass(traced_ops, rec, install=in_process)
            traced_walls.append(wall)
            tally.add(traced, timed=False)
            got = sum(n * p * s for n, p, s in rec.ensemble_calls[n_before:])
            if got != pps_per_pass:  # traced work must equal the computed work
                print(f"# work mismatch: traced {got} computed {pps_per_pass}")
                tally.failed += 1
            tally.attempted += 1
        ok_outs = [out for _, _, out in results if not isinstance(out, Exception)]
        paths = sum(out.paths for out in ok_outs)
        output_bytes = sum(out.output_bytes for out in ok_outs)
        now = time.perf_counter()
        per_round = (now - loop_start) / len(walls)
        if now - start + per_round > args.seconds:
            break
    if tally.failed == 0:  # a failed run must not become the reference
        save_digests(digest_path, digest_key, tally.digests)

    print(f"# setup_s {[round(t, 4) for t in setup_times]}")
    for name, times in tally.op_times.items():
        print(f"# op {name} median_s={statistics.median(times):.4f} n={len(times)}")
    run_digest = workloads.digest(sorted(tally.digests.items()))
    print(f"# passes {len(walls)} walls {[round(w, 4) for w in walls]} "
          f"max_err_se={tally.max_err_se:.4f} verdict_fail={tally.verdict_fail} "
          f"digest={run_digest}")

    wall_s = statistics.median(walls)
    if args.trace:
        metrics = layer_metrics(
            rec, len(traced_walls), imports, wall_s,
            statistics.median(traced_walls), pps_per_pass, tally, output_bytes,
            [t for ts in tally.op_times.values() for t in ts]
            if args.workload == "cli" else [],
            machine.get("l2_bytes", 0))
    else:
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "paths_per_s": (paths / wall_s, "1/s"),
        }
        metrics = {k: {"value": values[k][0], "unit": values[k][1]} for k in END_TO_END}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
