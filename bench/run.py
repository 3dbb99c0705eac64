"""Benchmark for recsolve: one workload, timed end to end, with its outputs
checked; with `--trace 1`, per-layer times and counts instead.

    python3 bench/run.py --workload lasso|symreg|check --seed N --seconds S --trace 0|1

Run it from the repository root (any directory works; paths resolve from
this file). The workloads are described in `bench/workloads.py`.

A run:
1. exports the repository's `src` on PYTHONPATH, so that the bundled
   solver (`python -m recsolve_lia`) can import in its subprocess;
2. stamps the environment (nproc, numba, solver command, versions);
3. runs the resolved solver on one trivial unsat and one trivial sat script,
   and exits 1 if either answer is wrong;
4. times set-up: fresh interpreters importing `recsolve` and `recsolve.cli`;
5. cycles through the workload's operations in an order drawn from `--seed`
   until `--seconds` have passed (always at least one full pass);
6. checks every output independently (proved candidates against the
   evaluator on a grid, confirmed counterexamples against the evaluator,
   the known answer never refuted and the known answer + 1 never proved);
7. with `--trace 1`, runs one more pass with every layer wrapped (see
   `bench/tracing.py`), then the fixed-input layer probes (`bench/probes.py`)
   under the same wrappers. The per-layer metrics are totals over both; the
   pass alone is printed beside them and kept in the record.

Output: metric lines, a `record` line holding every outcome, and as the
last line one JSON object with the keys correct, attempted, failed and
metrics. `attempted` is the number of operations in the workload and
`failed` the number of them that failed in any timed run, so both are the
same on every machine however many times an operation was repeated.
The exit code is 1 when the preflight fails or any output is wrong, 2 when
the repository is not there.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "corpus")
SETUP_REPEATS = 5
CLASS_LADDER = ("exact", "theta", "exp-theta", "nontrivial", "none")

END_TO_END_UNITS = {
    "wall_s": "s",
    "verdict_max_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "exact": "count",
    "theta_or_better": "count",
    "nontrivial_or_better": "count",
    "proved": "count",
    "refuted": "count",
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["lasso", "symreg", "check"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (os.path.isfile(os.path.join(SRC, "recsolve", "__init__.py")) and os.path.isdir(CORPUS)):
        print(f"bench: no recsolve sources under {ROOT}", file=sys.stderr)
        return 2
    # the solver's script files go to a temporary directory inside the tree
    tmp = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )

    import workloads
    from recsolve import smt

    command = smt.SolverConfig().resolved_command()
    env = environment(command)
    print("environment " + json.dumps(env))
    problem = preflight(command)
    if problem:
        print(f"bench: solver preflight failed: {problem}", file=sys.stderr)
        return 1

    setup, imports = measure_setup()
    ops = workloads.operations(args.workload, CORPUS)
    random.Random(args.seed).shuffle(ops)
    runs = measure(ops, args.seconds)

    wrong = []
    for op in ops:
        for _, out in runs[op.name]:
            wrong.extend(f"{op.name}: {msg}" for msg in op.check(out))
    unsteady = sorted(
        op.name for op in ops
        if len({(o.classification, o.verdict) for _, o in runs[op.name]}) > 1
    )
    # Failures are counted per operation, not per timed repeat: how many
    # repeats fit in `--seconds` depends on the machine, whether an
    # operation fails does not. An operation fails if any repeat failed.
    attempted = len(runs)
    failed = sum(1 for v in runs.values() if any(o.failed for _, o in v))
    repeats = sum(len(v) for v in runs.values())
    e2e = end_to_end(runs, statistics.median(setup))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "setup_s": setup,
        "outcomes": {
            name: [
                {
                    "seconds": dt,
                    "candidate": o.candidate,
                    "score": o.score,
                    "class": o.classification,
                    "verdict": o.verdict,
                    "failed": o.failed,
                    "detail": o.detail,
                }
                for dt, o in v
            ]
            for name, v in runs.items()
        },
        "unsteady_within_run": unsteady,
        "failed_share": failed / attempted,
        "repeats": repeats,
    }
    if args.trace:
        metrics, in_pass = traced_metrics(
            ops, command, e2e["wall_s"], statistics.median(imports), record, wrong
        )
        units = dict(_layer_units(metrics))
    else:
        metrics, units = e2e, END_TO_END_UNITS
    record["wrong_verdicts"] = wrong

    for name, value in e2e.items():
        print(f"{args.workload}.{name:22s} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"{args.workload}.{'wrong_verdicts':22s} {len(wrong):12d} count")
    print(f"{args.workload}.{'failed_share':22s} {failed / attempted:12.4f} share ({failed}/{attempted} operations, {repeats} timed runs)")
    if args.trace:
        print(f"{'layer metric':34s} {'pass':>14s} {'pass+probes':>14s}")
        for name, value in metrics.items():
            alone = f"{in_pass[name]:14.4f}" if name in in_pass else f"{'':14s}"
            print(f"{name:34s} {alone} {value:14.4f} {units[name]}")
    for msg in wrong:
        print(f"WRONG {msg}")
    for name in unsteady:
        print(f"UNSTEADY {name}: class or verdict differs between passes")
    print("record " + json.dumps(record, default=str))
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def environment(command) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "numba": importlib.util.find_spec("numba") is not None,
        # "python" stands for this interpreter, so records from two installs compare
        "solver": ["python" if c == sys.executable else c for c in command],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def preflight(command) -> str:
    """'' when the solver answers a trivial unsat and a trivial sat script
    right, otherwise what went wrong."""
    from recsolve import smt

    def job(assertion):
        return smt.SmtJob(
            logic="ALL",
            declarations=["(declare-fun x () Int)"],
            assertion=assertion,
            command=command,
            variables=("x",),
            name="preflight",
        )

    try:
        unsat = smt.check(job("(and (> x 0) (< x 0))"))
        sat = smt.check(job("(> x 5)"))
    except Exception as exc:
        return f"{' '.join(command)}: {type(exc).__name__}: {exc}"
    if not isinstance(unsat, smt.Proved):
        return f"expected unsat, got {unsat}"
    if not (isinstance(sat, smt.Disproved) and sat.counterexample.get("x", 0) > 5):
        return f"expected sat with x > 5, got {sat}"
    return ""


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to import recsolve and recsolve.cli,
    and the import part alone, SETUP_REPEATS times each."""
    code = (
        "import time; t = time.perf_counter(); import recsolve, recsolve.cli; "
        "print(time.perf_counter() - t)"
    )
    setup, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        setup.append(time.perf_counter() - t0)
        imports.append(float(out.stdout))
    return setup, imports


def measure(ops, seconds: float) -> dict:
    """Cycle through the operations until `seconds` have passed. The first
    pass always completes; later an operation starts only if its first
    time still fits, and the run stops at the first one that does not."""
    runs = {op.name: [] for op in ops}
    start = time.perf_counter()
    for i in itertools.count():
        op = ops[i % len(ops)]
        if i >= len(ops) and time.perf_counter() - start + runs[op.name][0][0] > seconds:
            break
        t0 = time.perf_counter()
        out = op.run()
        runs[op.name].append((time.perf_counter() - t0, out))
    return runs


def end_to_end(runs: dict, setup_s: float) -> dict:
    med = {name: statistics.median(dt for dt, _ in v) for name, v in runs.items()}
    first = [v[0][1] for v in runs.values()]
    rank = {c: i for i, c in enumerate(CLASS_LADDER)}
    return {
        "wall_s": sum(med.values()),
        "verdict_max_s": max(med.values()),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exact": sum(1 for o in first if o.classification == "exact"),
        "theta_or_better": sum(1 for o in first if rank[o.classification] <= rank["theta"]),
        "nontrivial_or_better": sum(1 for o in first if rank[o.classification] <= rank["nontrivial"]),
        "proved": sum(1 for o in first if o.verdict == "proved"),
        "refuted": sum(1 for o in first if o.verdict == "refuted"),
    }


def traced_metrics(ops, command, untraced_wall, import_s, record, wrong) -> tuple[dict, dict]:
    """One pass with every layer wrapped, then the fixed-input probes, still
    wrapped. Returns the layer totals over both, and the totals of the pass
    alone; probe output problems are added to `wrong`.

    The probes run under the tracer so that every layer has measured work
    in every workload, and the probe.* metrics give the fixed part of each
    layer total."""
    import probes
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed(command):
        t_start = time.perf_counter()
        for op in ops:
            tracer.op = op.name
            op.run()
        traced_wall = time.perf_counter() - t_start
        stages = tracer.stage_seconds()
        in_pass = tracer.metrics()
        tracer.op = "probes"
        probe_metrics, problems = probes.run_all(CORPUS)
    metrics = tracer.metrics()
    metrics["setup.import_s"] = import_s
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.stage_coverage_share"] = sum(stages.values()) / traced_wall
    metrics.update(probe_metrics)
    wrong.extend(problems)
    record["stages_s"] = stages
    record["layers_in_pass"] = in_pass
    record["cv_lasso_overrun_s"] = tracer.counts["linear.cv_lasso_overrun_s"]
    record["trace_events"] = tracer.events
    return metrics, in_pass


def _layer_units(metrics: dict):
    for name in metrics:
        if name.endswith("_s"):
            yield name, "s"
        elif name.endswith("_share"):
            yield name, "share"
        else:
            yield name, "count"


if __name__ == "__main__":
    sys.exit(main())
