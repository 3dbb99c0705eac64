"""Command line front end: solve one benchmark, run a corpus directory, or
check a hand-written closed form.

`solve` and `corpus` sample, fit and search with the library's defaults
(`SampleConfig()`, `LassoConfig()`, `GPConfig()`); their flags set only the
method, domain splitting, seed, repeats, checking, solver, workers and report
path.  A caller who tunes the sample count, bound ladder, penalty grid,
epsilon, folds or search size builds a `RunConfig` in Python.

Exit codes: 0 success, 1 usage error, 2 a file that cannot be read or
parsed, a solver that cannot be found or run, a verify or classify stage
that raised, or an internal error.  Classification outcomes never affect
the exit code.
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
    p.add_argument("--repeat", type=int, default=2)
    p.add_argument("--verify", action="store_true")
    _add_solver_options(p)
    p.add_argument("--out", default=None, help="report path (.jsonl; a .csv sits beside it)")
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default: available CPUs)")


def _config(args) -> RunConfig:
    from .harness import RunConfig
    from .symbolic import available_cpus

    return RunConfig(
        method=args.method,
        domsplit=args.domsplit,
        seed=args.seed,
        repeat=args.repeat,
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
        if args.cmd == "check":
            prepared = parse_candidate(args.candidate), _solver_config(args, ".")
        else:
            prepared = _config(args)
    except ValueError as exc:
        parser.error(f"bad option value: {exc}")
    except ParseError as exc:
        parser.error(f"bad option value: --candidate {args.candidate!r}: {exc}")
    out = getattr(args, "out", None)
    if out:
        # fail before any benchmark runs, not after the whole corpus
        if os.path.isdir(out) or not os.path.basename(out):  # a trailing separator names a directory
            return _cannot("write report", out, "it is a directory")
        out_dir = os.path.dirname(os.path.abspath(out))
        if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK | os.X_OK)):
            return _cannot("write report", out, f"{out_dir} is not a writable directory")
    try:
        if args.cmd == "solve":
            return _cmd_solve(args, prepared)
        if args.cmd == "corpus":
            return _cmd_corpus(args, prepared)
        return _cmd_check(args, *prepared)
    except SystemExit:
        raise
    except BrokenPipeError:
        return 0
    except Exception as exc:  # internal error contract
        print(f"recsolve: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _cmd_solve(args, cfg: RunConfig) -> int:
    from .harness import run_file
    from .report import STAGE_ERRORS, has_error, write_report

    result = run_file(args.file, cfg)
    print(f"benchmark:      {result.name} [{result.category}]")
    print(f"method:         {result.method}")
    print(f"candidate:      {result.candidate or '(none)'}")
    print(f"score:          {result.score:.6g}")
    print(f"verification:   {result.verification}")
    print(f"classification: {result.classification}")
    if args.out:
        write_report([result], args.out)
        print(f"report:         {args.out}")
    if result.error:
        internal = "internal error: " if "internal-error" in result.flags else ""
        print(f"recsolve: {internal}{result.error}", file=sys.stderr)
    for flag in result.flags:
        if flag.startswith(STAGE_ERRORS):
            print(f"recsolve: {flag}", file=sys.stderr)
    return 2 if has_error(result) else 0


def _cmd_corpus(args, cfg: RunConfig) -> int:
    from .harness import iter_corpus
    from .report import has_error, summarize, write_report

    try:
        pending = iter_corpus(args.dir, cfg)
    except OSError as exc:
        return _cannot("read", args.dir, exc.strerror or exc)
    # each benchmark is printed, and with --out recorded, as it finishes
    stream = map(_print_row, pending)
    results = write_report(stream, args.out) if args.out else list(stream)
    summary = summarize(results)
    print(f"-- {summary['benchmarks']} benchmarks: " + ", ".join(f"{k}={v}" for k, v in summary["classes"].items()))
    if args.out:
        print(f"report: {args.out}")
    failed = sum(map(has_error, results))
    if failed:
        print(f"recsolve: {failed} of {len(results)} benchmarks failed; see their error and flags",
              file=sys.stderr)
    return 2 if failed else 0


def _cannot(verb: str, path: str, reason) -> int:
    print(f"recsolve: cannot {verb} {path}: {reason}", file=sys.stderr)
    return 2


def _print_row(r):
    print(f"{r.name:24s} {r.category:10s} {r.classification:10s} {r.verification:12s} {r.score:.4g}")
    return r


def _cmd_check(args, cand: PiecewiseClosedForm, solver: SolverConfig) -> int:
    from .dsl import ParseError, load, print_piecewise
    from .smt import SolverCrashed, SolverNotFound, verify

    try:
        bf = load(args.file)
    except OSError as exc:
        return _cannot("read", args.file, exc.strerror or exc)
    except ParseError as exc:
        return _cannot("parse", args.file, exc)
    try:
        result = verify(bf.system, cand, solver)
    except SolverNotFound as exc:
        print(f"recsolve: solver not found: {exc}", file=sys.stderr)
        return 2
    except SolverCrashed as exc:
        print(f"recsolve: solver failed: {exc}", file=sys.stderr)
        return 2
    print(f"candidate: {print_piecewise(cand)}")
    print(f"result:    {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
