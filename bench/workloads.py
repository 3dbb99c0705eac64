"""Workloads: which corpus files each one runs, how one operation runs, and
the independent checks on its output.

Every workload runs the library at seed 7 with repeat=1 and verification on,
in one process (`--jobs 1`), so at most one solver subprocess is alive at a
time. The benchmark's own `--seed` only orders the operations of a pass;
outcomes do not depend on that order, because every operation builds its
own evaluator and solver state.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from recsolve import dsl, harness, smt
from recsolve.evaluator import BudgetExceeded, Evaluator, NoMatchingCase
from recsolve.linear import LassoConfig
from recsolve.model import Add, Const, EvalError, Piece, PiecewiseClosedForm, eval_bool
from recsolve.sampler import SampleConfig
from recsolve.symbolic import GPConfig

SEED = 7
SMT_TIMEOUT = 10.0  # the CLI default

# lasso: where the fit layer (`linear`) does most of the work. One pass
# takes about 37 s on a 2-core machine. Left out for run length: sum_osc
# (8 s), nonterm_q (8.5 s), highdim1 (15 s), lba_ex_viap (29 s), poly5.
LASSO_FILES = {
    "nested": "the paper's worked example, exact and proved",
    "nondet_max": "exact and proved",
    "mccarthy91": "candidate 91 is refuted with a confirmed counterexample: the solver's sat path",
    "bin_search": "all three tiers finish well inside the 10 s tier deadline",
    "exp1": "the large tier always times out (10 s); classification raises NameError",
    "fib": "the medium tier needs about 11 s against the 10 s deadline, so its R^2 "
    "depends on load while its class stays nontrivial (ROADMAP item 4)",
}

# symreg: where symbolic regression (`symbolic.evolve`) does most of the
# work with the CLI-default GP settings; the lasso fit does none. One pass
# takes about 25 s; fib (13 s) and bin_search (16 s) are left out for run
# length.
SYMREG_FILES = {
    "nested": "the worked example, found and proved",
    "merge": "its global form x + y - 1 is refuted on the axes: the sat path",
    "exp1": "2*2^x is refuted; classification raises NameError",
}

# check: every corpus file with an `expect`, checked as written and with +1
# on every piece. Proofs (unsat) and refutations (sat, model parse,
# evaluator confirmation) use the smt layer two ways; nothing is fitted.


def run_config(method: str) -> harness.RunConfig:
    """The CLI defaults for `--seed 7 --repeat 1 --verify --jobs 1`."""
    return harness.RunConfig(
        method=method,
        seed=SEED,
        repeat=1,
        sample=SampleConfig(n=100, bound_ladder=(20, 10, 5, 3), seed=SEED, folds=2),
        lasso=LassoConfig(
            lambda_grid=tuple(np.geomspace(0.001, 1.0, 100)), folds=2, epsilon=0.05, seed=SEED
        ),
        gp=GPConfig(populations=45, population_size=33, iterations=40, seed=SEED),
        verify=True,
        solver=smt.SolverConfig(timeout=SMT_TIMEOUT),
        jobs=1,
    )


@dataclass
class Outcome:
    candidate: str
    score: float
    classification: str
    verdict: str  # proved | refuted | disproved-unconfirmed | unknown | unsupported | not-run | error
    failed: bool
    detail: str = ""
    counterexample: dict | None = field(default=None, repr=False)


@dataclass
class Operation:
    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], list[str]]  # problems with an outcome; empty when right


def load(corpus_dir: str, name: str) -> dsl.BenchmarkFile:
    with open(os.path.join(corpus_dir, name + ".rec")) as fh:
        return dsl.parse(fh.read())


def operations(workload: str, corpus_dir: str) -> list[Operation]:
    if workload in ("lasso", "symreg"):
        cfg = run_config(workload)
        files = LASSO_FILES if workload == "lasso" else SYMREG_FILES
        return [_pipeline_op(name, load(corpus_dir, name), cfg) for name in files]
    if workload == "check":
        ops = []
        for name in sorted(f[:-4] for f in os.listdir(corpus_dir) if f.endswith(".rec")):
            bf = load(corpus_dir, name)
            if bf.expect is None:
                continue
            ops.append(_check_op(name + ":expect", bf, bf.expect, right=True))
            ops.append(_check_op(name + ":expect+1", bf, _plus_one(bf.expect), right=False))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _pipeline_op(name: str, bf: dsl.BenchmarkFile, cfg: harness.RunConfig) -> Operation:
    def run() -> Outcome:
        r = harness.run_benchmark(bf, cfg, name=name)
        # flags read "<stage>-error:<exception>" or "<stage>-failed"
        failed = bool(r.error) or any(
            f.split(":")[0].endswith(("-error", "-failed")) for f in r.flags
        )
        detail = ";".join(f for f in r.flags if f != "reconstructed")
        if r.error:
            detail = (detail + ";" if detail else "") + r.error
        verdict = {"disproved": "refuted"}.get(r.verification, r.verification.split(":")[0])
        return Outcome(r.candidate, r.score, r.classification, verdict, failed, detail)

    def check(out: Outcome) -> list[str]:
        if out.verdict != "proved":
            return []
        try:
            cand = dsl.parse_candidate(out.candidate)
        except dsl.ParseError as exc:
            return [f"proved candidate does not reparse: {exc}"]
        return _grid_mismatch(bf, cand)

    return Operation(name, run, check)


def _check_op(name: str, bf: dsl.BenchmarkFile, cand: PiecewiseClosedForm, right: bool) -> Operation:
    """`recsolve check FILE --candidate C`, then the accuracy class of C
    against the known answer, as `run_benchmark` grades a guess."""
    text = dsl.print_piecewise(cand)

    def run() -> Outcome:
        try:
            v = smt.verify(bf.system, cand, smt.SolverConfig(timeout=SMT_TIMEOUT))
        except Exception as exc:  # recorded as a failed operation
            return Outcome(text, 1.0, "none", "error", True, f"{type(exc).__name__}: {exc}")
        verdict = _label(v)
        try:
            cls = harness.classify(cand, bf.expect, v, bf.system.entry_func, SEED)
            failed, detail = False, ""
        except Exception as exc:
            cls, failed, detail = "none", True, f"classify-error:{type(exc).__name__}"
        point = v.counterexample if isinstance(v, smt.Disproved) else None
        return Outcome(text, 1.0, cls, verdict, failed, detail, point)

    def check(out: Outcome) -> list[str]:
        problems = []
        if right and out.verdict in ("refuted", "disproved-unconfirmed"):
            problems.append("the known answer was refuted")
        if not right and out.verdict == "proved":
            problems.append("a wrong form (known answer + 1) was proved")
        if out.verdict == "refuted" and not _confirms(bf, cand, out.counterexample):
            problems.append(f"counterexample {out.counterexample} does not hold")
        if right and out.verdict == "proved":
            problems.extend(_grid_mismatch(bf, cand))
        return problems

    return Operation(name, run, check)


def _plus_one(pcf: PiecewiseClosedForm) -> PiecewiseClosedForm:
    one = Const(Fraction(1))
    return PiecewiseClosedForm(
        tuple(Piece(p.domain, Add(p.body, one), p.score, p.exact_coeffs) for p in pcf.pieces)
    )


def _label(v) -> str:
    if isinstance(v, smt.Proved):
        return "proved"
    if isinstance(v, smt.Disproved):
        return "refuted" if v.confirmed else "disproved-unconfirmed"
    if isinstance(v, smt.Unknown):
        return "unknown"
    return "unsupported"


# ---------------------------------------------------------------------------
# Independent correctness checks
# ---------------------------------------------------------------------------


def _grid(bf: dsl.BenchmarkFile):
    """A fixed in-domain grid of about 200 points or fewer."""
    f = bf.system.entry_func
    hi = min(30, max(1, int(round(200 ** (1 / f.arity))) - 1))
    for tup in itertools.product(range(hi + 1), repeat=f.arity):
        env = dict(zip(f.params, tup))
        if eval_bool(f.precondition, env):
            yield tup, env


def _grid_mismatch(bf: dsl.BenchmarkFile, cand: PiecewiseClosedForm) -> list[str]:
    """A proved candidate must agree with the memoized evaluator on the grid."""
    f = bf.system.entry_func
    points = list(_grid(bf))
    results = Evaluator(bf.system).batch_eval(f.name, [t for t, _ in points])
    for (tup, env), r in zip(points, results):
        if r.error is not None:
            continue  # outside what the evaluator's budget can decide
        try:
            got = smt.eval_piecewise(cand, env)
        except EvalError:
            got = None
        if got is None or not _same(got, r.value):
            return [f"proved candidate gives {got} at {tup}, the recurrence {r.value}"]
    return []


def _confirms(bf: dsl.BenchmarkFile, cand: PiecewiseClosedForm, point: dict | None) -> bool:
    """A confirmed counterexample: an in-domain point where the candidate and
    the recurrence differ."""
    f = bf.system.entry_func
    if point is None or not eval_bool(f.precondition, point):
        return False
    try:
        actual = Evaluator(bf.system).eval_fun(f.name, tuple(point[p] for p in f.params))
    except (EvalError, NoMatchingCase, BudgetExceeded):
        return False
    got = smt.eval_piecewise(cand, point)
    return got is None or not _same(got, actual)


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
    return a == b
