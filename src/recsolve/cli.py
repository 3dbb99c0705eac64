"""Command line front end: solve one benchmark, run a corpus directory, or
check a hand-written closed form.

Exit codes: 0 success, 1 usage error, 2 internal error.  Classification
outcomes never affect the exit code.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from typing import TYPE_CHECKING

# each command imports the pipeline modules it uses, so that `check` loads
# no fitting code and `import recsolve.cli` loads no submodule
if TYPE_CHECKING:
    from .harness import RunConfig
    from .model import PiecewiseClosedForm
    from .smt import SolverConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_solver_options(p: _Parser):
    p.add_argument("--solver", default=None, help="SMT solver command (overrides RECSOLVE_SMT_CMD)")
    p.add_argument("--smt-timeout", type=float, default=10.0, metavar="S",
                   help="seconds per query for an external solver; the bundled solver runs in"
                   " process, bounded by counted work, not by this timeout")
    p.add_argument("--debug-smt", action="store_true",
                   help="persist SMT scripts (beside --out, else in the working directory)")


def _solver_config(args, debug_dir: str) -> SolverConfig:
    from .smt import SolverConfig

    return SolverConfig(
        command=tuple(shlex.split(args.solver)) if args.solver else None,
        timeout=args.smt_timeout,
        debug_dir=debug_dir if args.debug_smt else None,
    )


def _add_common(p: _Parser):
    p.add_argument("--method", choices=["lasso", "symreg", "auto"], default="lasso")
    p.add_argument("--domsplit", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--bound", default="auto", help="'auto' for the 20/10/5/3 ladder, or a single integer")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--lambda-grid", default="0.001:1:100", metavar="LO:HI:COUNT")
    p.add_argument("--repeat", type=int, default=2)
    p.add_argument("--verify", action="store_true")
    _add_solver_options(p)
    p.add_argument("--out", default=None, help="report path (.jsonl; a .csv sits beside it)")
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default: available CPUs)")
    p.add_argument("--gp-populations", type=int, default=45)
    p.add_argument("--gp-size", type=int, default=33)
    p.add_argument("--gp-iterations", type=int, default=40)


def _config(args) -> RunConfig:
    import numpy as np

    from .harness import RunConfig
    from .linear import LassoConfig
    from .sampler import SampleConfig
    from .symbolic import GPConfig, available_cpus

    lo, hi, count = args.lambda_grid.split(":")
    grid = tuple(np.geomspace(float(lo), float(hi), int(count)))
    ladder = (20, 10, 5, 3) if args.bound == "auto" else (int(args.bound),)
    return RunConfig(
        method=args.method,
        domsplit=args.domsplit,
        seed=args.seed,
        repeat=args.repeat,
        sample=SampleConfig(n=args.samples, bound_ladder=ladder, seed=args.seed, folds=args.folds),
        lasso=LassoConfig(lambda_grid=grid, folds=args.folds, epsilon=args.epsilon, seed=args.seed),
        gp=GPConfig(
            populations=args.gp_populations,
            population_size=args.gp_size,
            iterations=args.gp_iterations,
            seed=args.seed,
        ),
        verify=args.verify,
        solver=_solver_config(args, os.path.dirname(args.out or "") or "."),
        jobs=available_cpus() if args.jobs is None else args.jobs,
    )


def main(argv=None) -> int:
    parser = _Parser(prog="recsolve", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_solve = sub.add_parser("solve", help="solve a single .rec benchmark")
    p_solve.add_argument("file")
    _add_common(p_solve)

    p_corpus = sub.add_parser("corpus", help="run every .rec benchmark in a directory")
    p_corpus.add_argument("dir")
    _add_common(p_corpus)

    p_check = sub.add_parser("check", help="verify a hand-written closed form")
    p_check.add_argument("file")
    p_check.add_argument("--candidate", required=True, help='e.g. "x" or "piece x>0 -> x piece x=0 -> 0"')
    _add_solver_options(p_check)

    args = parser.parse_args(argv)
    from .dsl import ParseError, parse_candidate

    try:  # a bad option value is a usage error
        prepared = parse_candidate(args.candidate) if args.cmd == "check" else _config(args)
    except ValueError as exc:
        parser.error(f"bad option value: {exc}")
    except ParseError as exc:
        parser.error(f"bad option value: --candidate {args.candidate!r}: {exc}")
    out = getattr(args, "out", None)
    if out:
        # fail before any benchmark runs, not after the whole corpus
        out_dir = os.path.dirname(os.path.abspath(out))
        if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK | os.X_OK)):
            print(f"recsolve: cannot write report {out}: {out_dir} is not a writable directory",
                  file=sys.stderr)
            return 2
    try:
        if args.cmd == "solve":
            return _cmd_solve(args, prepared)
        if args.cmd == "corpus":
            return _cmd_corpus(args, prepared)
        return _cmd_check(args, prepared)
    except SystemExit:
        raise
    except BrokenPipeError:
        return 0
    except Exception as exc:  # internal error contract
        print(f"recsolve: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _read(path: str) -> str | None:
    """The text of `path`, or None after reporting why it cannot be read."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        print(f"recsolve: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        return None


def _cmd_solve(args, cfg: RunConfig) -> int:
    from .harness import run_benchmark
    from .report import write_report

    source = _read(args.file)
    if source is None:
        return 2
    result = run_benchmark(source, cfg, name=os.path.splitext(os.path.basename(args.file))[0])
    print(f"benchmark:      {result.name} [{result.category}]")
    print(f"method:         {result.method}")
    print(f"candidate:      {result.candidate or '(none)'}")
    print(f"score:          {result.score:.6g}")
    print(f"verification:   {result.verification}")
    print(f"classification: {result.classification}")
    if result.error:
        print(f"error:          {result.error}")
    if args.out:
        write_report([result], args.out)
        print(f"report:         {args.out}")
    return 2 if result.error else 0


def _cmd_corpus(args, cfg: RunConfig) -> int:
    from .harness import has_internal_errors, iter_corpus
    from .report import summarize, write_report

    # each benchmark is printed, and with --out recorded, as it finishes
    stream = (_print_row(r) for r in iter_corpus(args.dir, cfg))
    results = write_report(stream, args.out) if args.out else list(stream)
    summary = summarize(results)
    print(f"-- {summary['benchmarks']} benchmarks: " + ", ".join(f"{k}={v}" for k, v in summary["classes"].items()))
    if args.out:
        print(f"report: {args.out}")
    return 2 if has_internal_errors(results) else 0


def _print_row(r):
    print(f"{r.name:24s} {r.category:10s} {r.classification:10s} {r.verification:12s} {r.score:.4g}")
    return r


def _cmd_check(args, cand: PiecewiseClosedForm) -> int:
    from .dsl import parse, print_piecewise
    from .smt import verify

    source = _read(args.file)
    if source is None:
        return 2
    result = verify(parse(source).system, cand, _solver_config(args, "."))
    print(f"candidate: {print_piecewise(cand)}")
    print(f"result:    {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
