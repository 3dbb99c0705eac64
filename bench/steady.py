"""Repeat the benchmark over several seeds and report how steady it is.

    python3 bench/steady.py --workload lasso --runs 10 [--seconds 20] [--first-seed 1] [--out FILE]

For each end-to-end metric it prints the median, the quartiles and the
quartile spread as a share of the median, next to the bound in
BENCHMARK.json. It then lists every operation whose class or verdict
differs between runs, and every candidate whose score moved while its
class held (fib's R^2 under lasso is the known case: ROADMAP item 4, a
result that depends on the wall clock). Last it makes one traced run and
prints its per-layer metrics. With `--out`, the summary, every run's
outcomes and the traced run's layer totals are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    record = next(json.loads(l[7:]) for l in lines if l.startswith("record "))
    return json.loads(lines[-1]), record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results, records = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        res, rec = run_once(args.workload, seed, seconds)
        results.append(res)
        records.append(rec)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    summary = {}
    print(f"\n{'metric':22s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        flag = "" if spread < bounds.get(name, 0) / 3 else "  <-- above a third of the bound"
        print(f"{name:22s} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:8.4f} {bounds.get(name, 0):6.2f}{flag}")

    differing, drifting = [], []
    for op in records[0]["outcomes"]:
        firsts = [rec["outcomes"][op][0] for rec in records]
        if len({(o["class"], o["verdict"]) for o in firsts}) > 1:
            differing.append(op)
        elif len({round(o["score"], 6) for o in firsts}) > 1:
            drifting.append(op)
    print("\nclass or verdict differs between runs:", ", ".join(differing) or "none")
    for op in drifting:
        scores = [round(rec["outcomes"][op][0]["score"], 4) for rec in records]
        print(f"score drifts with the class held: {op} {scores}")
    print("failed/attempted operations per run:", ", ".join(
        f"{r['failed']}/{r['attempted']}" for r in results))
    wrong = sum(len(rec["wrong_verdicts"]) for rec in records)
    print(f"wrong verdicts over all runs: {wrong}")

    traced, trace_rec = run_once(args.workload, args.first_seed, seconds, trace=1)
    print(f"\ntraced run, seed {args.first_seed}: stage seconds {trace_rec['stages_s']}")
    for name, m in traced["metrics"].items():
        print(f"{name:36s} {m['value']:14.4f} {m['unit']}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "workload": args.workload,
                "seconds": seconds,
                "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
                "environment": records[0]["environment"],
                "metrics": summary,
                "attempted": [r["attempted"] for r in results],
                "failed": [r["failed"] for r in results],
                "wrong_verdicts": [rec["wrong_verdicts"] for rec in records],
                "differing": differing,
                "traced": {
                    "metrics": {k: m["value"] for k, m in traced["metrics"].items()},
                    "layers_in_pass": trace_rec["layers_in_pass"],
                    "stages_s": trace_rec["stages_s"],
                    "cv_lasso_overrun_s": trace_rec["cv_lasso_overrun_s"],
                    "events": trace_rec["trace_events"],
                },
                "drifting": drifting,
                "outcomes": {
                    op: [
                        {k: rec["outcomes"][op][0][k] for k in ("seconds", "candidate", "score", "class", "verdict", "detail")}
                        for rec in records
                    ]
                    for op in records[0]["outcomes"]
                },
            }, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
