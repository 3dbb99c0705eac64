"""Benchmark runner: guess, optionally check, and classify against the
expected solution; corpus runs aggregate per-category counts."""

from __future__ import annotations

import itertools
import math
import os
import random
import time
import traceback
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .dsl import BenchmarkFile, parse, print_piecewise
from .linear import GuessOutcome, LassoConfig, guess_linear
from .model import (
    Add,
    Ceil,
    Const,
    Div,
    EvalError,
    Expr,
    Factorial,
    Floor,
    FuncDef,
    Log2,
    Max,
    Min,
    Mul,
    PiecewiseClosedForm,
    Pow,
    Sub,
    Var,
    eval_bool,
    eval_ground,
)
from .sampler import SampleConfig
from .smt import (
    Disproved,
    Proved,
    SolverConfig,
    Unknown,
    Unsupported,
    VerificationResult,
    eval_piecewise,
    piece_at,
    values_agree,
    verify,
)
from .symbolic import GPConfig, guess_symbolic

CLASSES = ("exact", "theta", "exp-theta", "nontrivial", "none")

# held-out R^2 below which `auto` also tries symreg
AUTO_THRESHOLD = 0.999999


@dataclass
class RunConfig:
    """One run's settings.  `run_benchmark` seeds attempt `attempt` (from 0)
    with `seed + 1009*attempt` and writes that seed over the `seed` of
    `sample`, `lasso` and `gp`, so their own seeds matter only to direct
    callers of `guess_linear` and `guess_symbolic`."""

    method: str = "lasso"  # "lasso" | "symreg" | "auto"
    domsplit: bool = False
    seed: int = 0
    repeat: int = 2
    sample: SampleConfig = field(default_factory=SampleConfig)
    lasso: LassoConfig = field(default_factory=LassoConfig)
    gp: GPConfig = field(default_factory=GPConfig)
    verify: bool = False
    solver: SolverConfig = field(default_factory=SolverConfig)
    jobs: int = 1

    def __post_init__(self):
        if self.method not in ("lasso", "symreg", "auto"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.repeat < 1:
            raise ValueError(f"repeat must be at least 1, got {self.repeat}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


@dataclass
class BenchmarkResult:
    name: str
    category: str
    method: str
    candidate: str
    score: float
    verification: str  # proved | disproved | unknown | unsupported | not-run
    classification: str  # exact | theta | exp-theta | nontrivial | none
    time_sample: float = 0.0
    time_fit: float = 0.0
    time_verify: float = 0.0
    seed: int = 0
    flags: tuple[str, ...] = ()
    error: str = ""


# ---------------------------------------------------------------------------
# Accuracy classification
# ---------------------------------------------------------------------------

_LOG_BAND = math.log(8.0)
_ZERO = ("zero",)


def _log_of_number(v) -> tuple[int, float] | None:
    """(sign, log|v|) without converting huge integers through floats."""
    if v == 0:
        return None
    try:
        if isinstance(v, float):
            return (1 if v > 0 else -1, math.log(abs(v)))
        if isinstance(v, Fraction):
            sign = 1 if v > 0 else -1
            return (sign, math.log(abs(v.numerator)) - math.log(v.denominator))
        sign = 1 if v > 0 else -1
        return (sign, math.log(abs(v)))
    except (ValueError, OverflowError):
        return None


def _log_eval(e: Expr, env) -> tuple[int, float] | tuple[str] | None:
    """Sign/log-magnitude evaluation, used where exact evaluation overflows
    (exponential and factorial growth along probe rays).  It stands in for
    guarded evaluation, so it keeps the same conventions: log2 of anything
    below 1 is 0, division by zero is 0, and floor/ceil are exact wherever
    their argument evaluates without overflow."""

    def lin(node) -> float | None:
        # plain float value for subterms that stay small (exponents, args)
        try:
            v = eval_ground(node, env, guarded=True)
        except (EvalError, OverflowError):
            return None
        try:
            return float(v)
        except (OverflowError, ValueError):
            return None

    def go(node) -> tuple | None:
        if isinstance(node, Const):
            return _ZERO if node.value == 0 else _log_of_number(node.value)
        if isinstance(node, Var):
            v = env[node.name]
            return _ZERO if v == 0 else _log_of_number(v)
        if isinstance(node, (Add, Sub)):
            a, b = go(node.lhs), go(node.rhs)
            if a is None or b is None:
                return None
            if isinstance(node, Sub) and b != _ZERO:
                b = (-b[0], b[1])
            if a == _ZERO:
                return b
            if b == _ZERO:
                return a
            sa, la = a
            sb, lb = b
            if sa == sb:
                return (sa, max(la, lb) + math.log1p(math.exp(-abs(la - lb))))
            hi, lo = (a, b) if la >= lb else (b, a)
            if abs(la - lb) < 1e-12:
                return _ZERO
            return (hi[0], hi[1] + math.log1p(-math.exp(lo[1] - hi[1])))
        if isinstance(node, Mul):
            a, b = go(node.lhs), go(node.rhs)
            if a is None or b is None:
                return None
            if a == _ZERO or b == _ZERO:
                return _ZERO
            return (a[0] * b[0], a[1] + b[1])
        if isinstance(node, Div):
            a, b = go(node.lhs), go(node.rhs)
            if a is None or b is None:
                return None
            if a == _ZERO or b == _ZERO:
                return _ZERO  # guarded convention: x/0 is 0
            return (a[0] * b[0], a[1] - b[1])
        if isinstance(node, Pow):
            base = go(node.base)
            ev = lin(node.exp)
            if base is None or ev is None:
                return None
            if base == _ZERO:
                return _ZERO if ev > 0 else None
            if base[0] < 0:
                return None
            return (1, base[1] * ev)
        if isinstance(node, (Floor, Ceil)):
            try:
                v = eval_ground(node, env, guarded=True)
            except EvalError as exc:
                if exc.kind != "overflow":
                    return None
                return go(node.arg)  # negligible shift at these magnitudes
            return _ZERO if v == 0 else _log_of_number(v)
        if isinstance(node, Log2):
            a = go(node.arg)
            if a is None:
                return None
            if a == _ZERO or a[0] < 0 or a[1] <= 0:
                return _ZERO  # guarded convention: log2 below 1 is 0
            v = a[1] / math.log(2)
            return _ZERO if v == 0 else _log_of_number(v)
        if isinstance(node, Factorial):
            v = lin(node.arg)
            if v is None or v < 0:
                return None
            return (1, math.lgamma(v + 1.0))
        if isinstance(node, (Max, Min)):
            a, b = go(node.lhs), go(node.rhs)
            if a is None or b is None:
                return None
            # (sign, sign * log|v|) orders the values as the numbers
            ka = (0, 0.0) if a == _ZERO else (a[0], a[0] * a[1])
            kb = (0, 0.0) if b == _ZERO else (b[0], b[0] * b[1])
            if isinstance(node, Max):
                return a if ka >= kb else b
            return a if ka <= kb else b
        return None

    return go(e)


def _point_value(pcf: PiecewiseClosedForm, env) -> tuple | None:
    """Evaluate at a point as ('zero',) or (sign, log|v|), on the piece that
    eval_piecewise would choose; None if evaluation fails outright."""
    body = piece_at(pcf, env).body
    try:
        v = eval_ground(body, env, guarded=True)
    except EvalError as exc:
        return _log_eval(body, env) if exc.kind == "overflow" else None
    return _ZERO if v == 0 else _log_of_number(v)


def _probe_grid(func: FuncDef, seed: int, limit: int = 40_000, hi: int = 30):
    m = func.arity
    total = (hi + 1) ** m
    rng = random.Random(seed)
    if total <= limit:
        pts = itertools.product(range(hi + 1), repeat=m)
    else:
        pts = (tuple(rng.randint(0, hi) for _ in range(m)) for _ in range(limit))
    for tup in pts:
        env = dict(zip(func.params, tup))
        if eval_bool(func.precondition, env):
            yield env


def _rays(func: FuncDef, seed: int):
    m = func.arity
    rng = random.Random(seed)
    bases = [tuple(0 for _ in range(m))]
    for _ in range(3):
        bases.append(tuple(rng.randint(1, 4) for _ in range(m)))
    dirs = []
    for b in bases:
        for j in range(m):
            d = tuple(1 if k == j else 0 for k in range(m))
            dirs.append((b, d))
    dirs.append((tuple(0 for _ in range(m)), tuple(1 for _ in range(m))))
    return dirs


_RAY_T = [2**k for k in range(4, 21)]
_TAIL = 6


def _ray_ok(cand, expect, func, base, direction, use_log: bool) -> bool:
    tail = []
    for t in _RAY_T[-_TAIL:]:
        pt = tuple(b + t * d for b, d in zip(base, direction))
        env = dict(zip(func.params, pt))
        if not eval_bool(func.precondition, env):
            return True  # ray leaves the domain; vacuous
        vc = _point_value(cand, env)
        ve = _point_value(expect, env)
        tail.append((vc, ve))
    logs: list[tuple[float, float]] = []
    for vc, ve in tail:
        if vc is None or ve is None:
            return False
        if vc == _ZERO and ve == _ZERO:
            continue  # both identically nothing: agreement
        if vc == _ZERO or ve == _ZERO:
            return False
        if use_log:
            lc, le = vc[1], ve[1]
            if lc <= 1e-9 or le <= 1e-9:
                return False
            if not (1 / 8 <= lc / le <= 8):
                return False
            logs.append((lc, le))
        else:
            if vc[0] != ve[0]:
                return False
            if abs(vc[1] - ve[1]) > _LOG_BAND:
                return False
    if use_log and len(logs) >= 2:
        # the relaxation is only meant for superpolynomial growth: both logs
        # must themselves grow markedly along the tail, otherwise a constant
        # would pass against anything of moderate size
        (lc0, le0), (lc1, le1) = logs[0], logs[-1]
        if le1 < 2.0 * le0 or lc1 < 2.0 * lc0:
            return False
    return True


def classify(
    cand: PiecewiseClosedForm | None,
    expect: PiecewiseClosedForm | None,
    verification: VerificationResult | None,
    func: FuncDef,
    seed: int = 0,
) -> str:
    """Accuracy class of a candidate: exact, theta (asymptotically within a
    constant factor along every probe ray), exp-theta (the same after taking
    logs), nontrivial, or none.

    The ray family and the [1/8, 8] band are a finite stand-in for the
    limit-based definition: axis rays from the origin and three seeded base
    points plus the all-ones diagonal, t geometric up to 2^20, judged on the
    last six points in log space."""
    proved = isinstance(verification, Proved)
    refuted = isinstance(verification, Disproved) and verification.confirmed
    if cand is None or not cand.pieces:
        return "none"
    if proved:
        return "exact"
    if expect is None:
        return _fallback_class(cand, func, seed)
    if not refuted:  # a confirmed counterexample rules the exact class out
        if cand == expect:
            return "exact"
        grid_equal = True
        covered = 0
        for env in _probe_grid(func, seed):
            try:
                ve = eval_piecewise(expect, env)
            except EvalError:
                ve = None  # e.g. overflow: the grid cannot show equality here
            try:
                vc = eval_piecewise(cand, env)
            except EvalError:
                vc = None
            covered += 1
            if vc is None or ve is None or not values_agree(vc, ve):
                grid_equal = False
                break
        if grid_equal and covered > 0:
            return "exact"
    rays = _rays(func, seed)
    if all(_ray_ok(cand, expect, func, b, d, use_log=False) for b, d in rays):
        return "theta"
    if all(_ray_ok(cand, expect, func, b, d, use_log=True) for b, d in rays):
        return "exp-theta"
    return _fallback_class(cand, func, seed)


def _fallback_class(cand: PiecewiseClosedForm, func: FuncDef, seed: int) -> str:
    values = set()
    n = 0
    for env in _probe_grid(func, seed, limit=2000):
        try:
            v = eval_piecewise(cand, env)
        except EvalError:
            return "none"
        if v is None:
            return "none"
        if isinstance(v, float) and not math.isfinite(v):
            return "none"
        values.add(float(v))
        n += 1
        if n >= 500:
            break
    if n == 0 or len(values) <= 1:
        return "none"
    return "nontrivial"


# ---------------------------------------------------------------------------
# Benchmark execution
# ---------------------------------------------------------------------------


def _guess_once(bf: BenchmarkFile, cfg: RunConfig, method: str, attempt: int) -> GuessOutcome:
    seed = cfg.seed + 1009 * attempt
    sample = replace(cfg.sample, seed=seed)
    if method == "lasso":
        lasso = replace(cfg.lasso, seed=seed)
        return guess_linear(
            bf.system,
            lasso_cfg=lasso,
            sample_cfg=sample,
            domsplit=cfg.domsplit,
        )
    gp = replace(cfg.gp, seed=seed)
    return guess_symbolic(
        bf.system,
        gp_cfg=gp,
        sample_cfg=sample,
        domsplit=cfg.domsplit,
    )


def _best_guess(
    bf: BenchmarkFile, cfg: RunConfig, method: str, attempts: list[GuessOutcome]
) -> GuessOutcome:
    """The best-scoring of `repeat` guesses, the first of them on a tie.
    Every guess is appended to `attempts`, so that its time is counted."""
    outs = [_guess_once(bf, cfg, method, attempt) for attempt in range(cfg.repeat)]
    attempts += outs
    return max(outs, key=lambda o: o.score)


def run_benchmark(source, cfg: RunConfig, name: str = "") -> BenchmarkResult:
    """Sample, guess (best of `repeat` runs by test R^2), optionally verify,
    classify; per-stage failures are recorded in the result, never raised.
    The sample and fit times sum over every guess run, kept or not.
    With `verify` on, every candidate with at least one piece is checked,
    whatever its R^2."""
    try:
        if isinstance(source, BenchmarkFile):
            bf = source
        elif os.path.exists(source):
            name = name or os.path.splitext(os.path.basename(source))[0]
            with open(source) as fh:
                bf = parse(fh.read())
        else:
            bf = parse(source)
    except Exception as exc:
        return BenchmarkResult(
            name=name or str(source)[:40],
            category="misc",
            method=cfg.method,
            candidate="",
            score=0.0,
            verification="not-run",
            classification="none",
            seed=cfg.seed,
            flags=("parse-failed",),
            error=f"{type(exc).__name__}: {exc}",
        )
    name = name or bf.system.entry
    flags: list[str] = []
    if bf.reconstructed:
        flags.append("reconstructed")

    method = cfg.method
    outcome: GuessOutcome | None = None
    attempts: list[GuessOutcome] = []
    used = method
    t0 = time.monotonic()
    try:
        if method == "auto":
            outcome = _best_guess(bf, cfg, "lasso", attempts)
            used = "lasso"
            if outcome.score < AUTO_THRESHOLD:
                alt = _best_guess(bf, cfg, "symreg", attempts)
                if alt.score > outcome.score:
                    outcome = alt
                    used = "symreg"
        else:
            outcome = _best_guess(bf, cfg, method, attempts)
        guess_error = ""
    except Exception as exc:  # recorded, not raised: corpus keeps going
        guess_error = f"{type(exc).__name__}: {exc}"
        flags.append("guess-failed")
    elapsed = time.monotonic() - t0

    cand = outcome.candidate if outcome else None
    score = outcome.score if outcome else 0.0
    if outcome and outcome.failed_domains:
        flags.append(f"missing-pieces:{outcome.failed_domains}")
    for fit in outcome.fits if outcome else ():
        flags.extend(f for f in fit.flags if f not in flags)

    verification: VerificationResult | None = None
    verification_str = "not-run"
    t_verify = 0.0
    if cfg.verify and cand is not None and cand.pieces:
        solver = cfg.solver
        if solver.debug_dir:
            solver = replace(solver, debug_dir=os.path.join(solver.debug_dir, name))
        t0 = time.monotonic()
        try:
            verification = verify(bf.system, cand, solver)
        except Exception as exc:
            verification = None
            flags.append(f"verify-error:{type(exc).__name__}")
        t_verify = time.monotonic() - t0
        verification_str = _verification_label(verification)

    classification = "none"
    try:
        classification = classify(cand, bf.expect, verification, bf.system.entry_func, cfg.seed)
    except Exception as exc:
        flags.append(f"classify-error:{type(exc).__name__}")

    return BenchmarkResult(
        name=name,
        category=bf.category or "misc",
        method=used,
        candidate=print_piecewise(cand) if cand and cand.pieces else "",
        score=score,
        verification=verification_str,
        classification=classification,
        time_sample=sum(o.sample_seconds for o in attempts) if outcome else 0.0,
        time_fit=sum(o.fit_seconds for o in attempts) if outcome else elapsed,
        time_verify=t_verify,
        seed=cfg.seed,
        flags=tuple(flags),
        error=guess_error,
    )


def _verification_label(v: VerificationResult | None) -> str:
    if isinstance(v, Proved):
        return "proved"
    if isinstance(v, Disproved):
        return "disproved" + ("" if v.confirmed else "-unconfirmed")
    if isinstance(v, Unknown):
        return f"unknown:{v.reason}"
    if isinstance(v, Unsupported):
        return "unsupported:" + ",".join(v.offending)
    return "error"


def _corpus_entry(args) -> BenchmarkResult:
    path, cfg = args
    try:
        return run_benchmark(path, cfg)
    except Exception as exc:
        return BenchmarkResult(
            name=os.path.splitext(os.path.basename(path))[0],
            category="misc",
            method=cfg.method,
            candidate="",
            score=0.0,
            verification="not-run",
            classification="none",
            seed=cfg.seed,
            flags=("internal-error",),
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}",
        )


def run_corpus(directory: str, cfg: RunConfig) -> list[BenchmarkResult]:
    """Run every .rec file (sorted by name); entries are isolated, failures
    are recorded per file, and result order is stable by file name."""
    return list(iter_corpus(directory, cfg))


def iter_corpus(directory: str, cfg: RunConfig) -> Iterator[BenchmarkResult]:
    """run_corpus's results, each yielded as soon as it and every file
    before it have finished."""
    files = sorted(
        os.path.join(directory, f)
        for f in os.listdir(directory)
        if f.endswith(".rec")
    )
    jobs = min(cfg.jobs, len(files))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(_corpus_entry, [(f, cfg) for f in files])
    else:
        for f in files:
            yield _corpus_entry((f, cfg))


def has_internal_errors(results) -> bool:
    return any("internal-error" in r.flags or r.error for r in results)
