"""lowmach benchmark: the CLI driven in-process, one unit of work at a time.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The loop is closed with a single client: one process,
one thread, the next unit starting when the previous one has returned.  Each
unit calls ``lowmach.cli.main(argv)`` on configurations this script writes.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced units and reports the
per-layer split (see tracing.py).  The last line of stdout is one JSON
object; the line before it carries the samples, the checks and the
environment.  See README.md for the choice of workloads.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS threads give no gain on the mesh sizes here but widen the spread.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

WORKLOADS = ("sweep-default", "ladder", "forced")
# Every member converges with the cut-off removed at every level used, in
# two Newton iterations, so seeds differ in input but not in cost.
EPS_SET = (0.05, 0.1, 0.15, 0.2)
# geometry.refined family: each level doubles n and takes the square root
# of the grading.
LADDER = ((48, 1.15), (96, math.sqrt(1.15)), (192, math.sqrt(math.sqrt(1.15))))
FORCED = {"cutoff": {"theta": 0.45, "eps0": 0.3},
          "force": {"kind": "newtonian", "mass": 0.3, "source_radius": 0.5}}
WARMUP_N = 12

HEADLINE = ("mach_max", "rho_diff_inf", "u_diff_l2", "dp_gap_radial",
            "dp_gap_aligned", "dp_gap_quadrupole", "dp_gap_max")
# Relative tolerance of the headline values against reference.json.
REL_TOL = 1e-6

SETUP_SAMPLES = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import lowmach; "
                "print(repr(time.perf_counter() - t))")

MIN_UNITS = {0: 3, 1: 2}
# Stop starting units past this many seconds so a run ends within 180 s.
HARD_CAP_S = 120.0


@dataclass
class Call:
    """One CLI invocation of a unit: a label, the argv tail and a config."""

    label: str
    argv: list
    config: dict
    reference: str = None       # key of the expected values in reference.json


def plan(workload, seed, n=None):
    """The calls of one unit, and the epsilon the seed picked (or None).

    ``n`` replaces the mesh size, for the untimed warm-up unit.
    """
    if workload == "sweep-default":
        cfg = {"geometry": {"n_r": n, "n_t": n}} if n else {}
        return [Call("sweep", ["sweep", "--assert-rates"], cfg)], None
    eps = random.Random(seed).choice(EPS_SET)
    solve = ["solve-compressible", "--epsilon", repr(eps)]
    if workload == "ladder":
        levels = [(n, 1.15)] if n else LADDER
        return [Call(f"n{m}", solve, {"geometry": {"n_r": m, "n_t": m, "grading": g}},
                     reference=f"ladder/n{m}/eps{eps!r}")
                for m, g in levels], eps
    if workload == "forced":
        cfg = dict(FORCED, geometry={"n_r": n, "n_t": n}) if n else FORCED
        return [Call("n48", solve, cfg, reference=f"forced/n48/eps{eps!r}")], eps
    raise ValueError(f"unknown workload {workload!r}")


def _digests(out_dir):
    out = {}
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(out_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def check_headline(values, expected):
    """Problems with a state summary against its reference values."""
    problems = []
    for key in HEADLINE:
        got, want = values.get(key), expected[key]
        if got is None or abs(got - want) > REL_TOL * abs(want):
            problems.append(f"{key}={got!r}, reference {want!r}")
    return problems


def check_outputs(call, out_dir, reference):
    """Problems with the artifacts of a call that exited 0."""
    problems = []
    pattern = "*/report.json" if call.argv[0] == "sweep" else "*/state_eps*.json"
    found = list(Path(out_dir).glob(pattern))
    if len(found) != 1:
        return [f"{call.label}: {len(found)} files match {pattern}"]
    values = json.loads(found[0].read_text())
    if call.argv[0] == "sweep":
        for row in values["rows"]:
            if not (row.get("converged") and row.get("cutoff_removed")):
                problems.append(f"sweep row eps={row['epsilon']} not removed/converged")
        return problems
    if not values.get("cutoff_removed"):
        problems.append("cut-off not removed")
    expected = reference["solves"].get(call.reference)
    if expected is None:
        problems.append(f"no reference values for {call.reference}")
    else:
        problems += check_headline(values, expected)
    return problems


class Runner:
    """Runs units and checks their artifacts."""

    def __init__(self, cli, workdir, reference):
        self.cli = cli
        self.workdir = Path(workdir)
        self.reference = reference
        self.digests = {}
        self.counter = 0

    def run_call(self, call, check=True):
        """(seconds, problems) of one CLI call."""
        self.counter += 1
        cfg_path = self.workdir / f"cfg-{self.counter}.json"
        cfg_path.write_text(json.dumps(call.config))
        out_dir = self.workdir / f"out-{self.counter}"
        argv = call.argv + ["--config", str(cfg_path), "--out", str(out_dir)]
        problems = []
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:   # a failed unit, not a crash
            traceback.print_exc(file=sys.stderr)
            rc = None
            problems.append(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        if rc is not None and rc != 0:
            problems.append(f"exit code {rc}")
        if check and not problems:
            try:
                problems += check_outputs(call, out_dir, self.reference)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{call.label}: unreadable artifacts ({exc!r})")
            key = json.dumps([call.label, call.argv, call.config], sort_keys=True)
            digests = _digests(out_dir)
            first = self.digests.setdefault(key, digests)
            if digests != first:
                problems.append(f"{call.label}: artifacts differ from the first repetition")
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg_path.unlink()
        return seconds, problems

    def run_unit(self, calls, check=True):
        """(wall seconds, {label: seconds}, problems) of one unit; the wall
        time is that of the CLI calls, without the benchmark's checks."""
        per_call, problems = {}, []
        for call in calls:
            seconds, probs = self.run_call(call, check)
            per_call[call.label] = seconds
            problems += probs
        return sum(per_call.values()), per_call, problems


def measure_setup(samples):
    """Seconds a fresh interpreter spends in ``import lowmach``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    out = []
    for _ in range(samples):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def environment():
    import numpy
    import scipy

    def blas(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config),
        "scipy_openblas": blas(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def measure(runner, calls, seconds, trace):
    """Closed loop over units; with ``trace`` every second unit is traced."""
    outcomes, walls, traced_walls, per_call, layers = [], [], [], {}, []
    counts0 = None
    start = time.perf_counter()
    k = 0
    while True:
        if trace and k % 2 == 1:
            tracer = tracing.Tracer()
            with tracing.instrument(tracer) as missing:
                wall, calls_s, problems = runner.run_unit(calls)
            metrics = tracing.layer_metrics(tracer.spans)
            uncovered = set(tracing.LAYERS) - tracing.layers_called(tracer.spans)
            if uncovered:
                problems.append(f"no traced call in layers {sorted(uncovered)}")
            if missing:
                print(f"entry points not found: {missing}", file=sys.stderr)
            counts = {key: v for key, v in metrics.items() if not key.endswith(".s")}
            counts0 = counts0 or counts
            if counts != counts0:
                problems.append("counts differ from the first traced unit")
            # time inside the traced unit that no span covers
            metrics["trace.untraced.s"] = wall - metrics.pop("traced.s")
            traced_walls.append(wall)
            layers.append(metrics)
        else:
            wall, calls_s, problems = runner.run_unit(calls)
            walls.append(wall)
            for label, s in calls_s.items():
                per_call.setdefault(label, []).append(s)
        outcomes.append(problems)
        for p in problems:
            print(f"unit {k}: {p}", file=sys.stderr)
        k += 1
        elapsed = time.perf_counter() - start
        typical = median(walls + traced_walls)
        if elapsed + typical > HARD_CAP_S:
            break
        if k >= MIN_UNITS[int(trace)] and elapsed + typical > seconds:
            break
    return outcomes, walls, traced_walls, per_call, layers


def per_layer_metrics(walls, traced_walls, layers):
    out = {}
    for key in layers[0]:
        out[key] = median([m[key] for m in layers])
    out["trace.overhead_frac"] = median(traced_walls) / median(walls) - 1.0
    return out


def per_layer_unit(name):
    if ".iterations_per_call." in name:
        return "iter/call"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "lowmach" / "__init__.py").is_file():
        print(f"no lowmach sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)         # before numpy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    from lowmach import cli

    reference = json.loads((HERE / "reference.json").read_text())
    calls, eps = plan(args.workload, args.seed)
    # Half the import samples before the units and half after, so that
    # their median spans the run rather than one moment of the machine's
    # load.  The import above has written the bytecode cache.
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES // 2)

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(cli, workdir, reference)
        warm_calls, _ = plan(args.workload, args.seed, n=WARMUP_N)
        _, _, warm_problems = runner.run_unit(warm_calls, check=False)
        outcomes, walls, traced_walls, per_call, layers = measure(
            runner, calls, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setup += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    if warm_problems:
        outcomes.append(warm_problems)
        print(f"warm-up: {warm_problems}", file=sys.stderr)

    failed = sum(1 for o in outcomes if o)
    detail = {
        "workload": args.workload, "seed": args.seed, "epsilon": eps,
        "trace": args.trace, "environment": environment(),
        "units": len(outcomes), "fail_frac": stats.fail_frac(outcomes),
        "problems": [p for o in outcomes for p in o],
        "wall_s_samples": walls,
        "wall_s_tail": stats.tail_percentile(walls),
        "call_s_median": {label: median(v) for label, v in per_call.items()},
    }
    if args.trace:
        detail["traced_wall_s_samples"] = traced_walls
        metrics = {name: {"value": v, "unit": per_layer_unit(name)}
                   for name, v in per_layer_metrics(walls, traced_walls, layers).items()}
    else:
        detail["setup_s_samples"] = setup
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": median(walls), "unit": "s"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
