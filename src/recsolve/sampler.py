"""Random input generation, bound selection and domain partitioning.

Inputs are drawn by rejection sampling of at most REJECTION_CAP draws per
sample set."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .evaluator import BatchResult, Evaluator
from .model import (
    And,
    BoolExpr,
    Cmp,
    Const,
    FuncDef,
    Not,
    RecurrenceSystem,
    TRUE,
    Var,
    eval_bool,
)
from .rewrite import simplify

REJECTION_CAP = 10**5

# held-out tuples drawn per fit domain after its SampleConfig.n training tuples
TEST_SIZE = 30


class EmptyDomain(Exception):
    """No satisfying tuple was found within the rejection cap."""


@dataclass(frozen=True)
class SampleConfig:
    n: int = 100
    bound_ladder: tuple[int, ...] = (20, 10, 5, 3)
    seed: int = 0
    folds: int = 2

    def __post_init__(self):
        if self.n < 2 * self.folds:
            raise ValueError("need n >= 2*folds")
        ladder = tuple(self.bound_ladder)
        if not ladder or any(b <= 0 for b in ladder):
            raise ValueError("bounds must be positive")
        if any(a <= b for a, b in zip(ladder, ladder[1:])):
            raise ValueError("bound ladder must be decreasing")
        object.__setattr__(self, "bound_ladder", ladder)


@dataclass(frozen=True)
class Subdomain:
    constraint: BoolExpr


@dataclass
class SampleSet:
    tuples: list[tuple[int, ...]]
    shortfall: bool = False


def sample_for_function(
    func: FuncDef,
    cfg: SampleConfig,
    bound: int,
    constraint: BoolExpr = TRUE,
    seed: int | None = None,
    n: int | None = None,
) -> SampleSet:
    """Distinct tuples drawn uniformly from [0, bound]^arity, rejection-filtered
    by the function's precondition and `constraint`.  Drawing stops once every
    tuple of the box has been drawn.  Deterministic for a given seed; short
    domains are reported via the shortfall flag rather than padded."""
    b = bound
    want = n if n is not None else cfg.n
    rng = random.Random(cfg.seed if seed is None else seed)
    pre = And(func.precondition, constraint) if constraint != TRUE else func.precondition
    found: dict[tuple[int, ...], None] = {}
    seen: set[tuple[int, ...]] = set()
    box = (b + 1) ** func.arity
    attempts = 0
    while len(found) < want and attempts < REJECTION_CAP and len(seen) < box:
        attempts += 1
        tup = tuple(rng.randint(0, b) for _ in range(func.arity))
        if tup in seen:
            continue
        seen.add(tup)
        if eval_bool(pre, dict(zip(func.params, tup))):
            found[tup] = None
    if not found:
        raise EmptyDomain(
            f"{func.name}: no point of [0,{b}]^{func.arity} satisfies the constraint"
        )
    return SampleSet(list(found), shortfall=len(found) < want)


@dataclass
class BoundChoice:
    bound: int
    samples: SampleSet
    results: list[BatchResult]
    held_out: list[tuple[int, ...]]  # drawn after the samples, not evaluated
    fell_through: bool = False  # even the smallest bound misbehaved

    @property
    def any_budget_failure(self) -> bool:
        return any(r.error and r.error.startswith("budget-exceeded") for r in self.results)


def choose_bound(
    system: RecurrenceSystem,
    func: str,
    cfg: SampleConfig,
    constraint: BoolExpr = TRUE,
    evaluator: Evaluator | None = None,
    seed: int | None = None,
) -> BoundChoice:
    """Largest ladder bound whose sample batch evaluates without exceeding
    the evaluation budget (evaluator.MAX_CALLS and MAX_DEPTH); a budget
    failure pushes down the ladder, and the smallest bound is always
    accepted (flagged).  Every rung but the last stops evaluating at its
    first budget failure, which already rejects it.

    Each rung draws cfg.n + TEST_SIZE tuples once and evaluates the first
    cfg.n.  The draw stops only on count, cap or a drawn-out box, so its
    first cfg.n tuples are those a draw of cfg.n would give, and the rest
    are held-out tuples that no training tuple repeats."""
    f = system.functions[func]
    ev = evaluator or Evaluator(system)
    last: BoundChoice | None = None
    for i, b in enumerate(cfg.bound_ladder):
        is_last = i == len(cfg.bound_ladder) - 1
        try:
            drawn = sample_for_function(
                f, cfg, b, constraint=constraint, seed=seed, n=cfg.n + TEST_SIZE
            ).tuples
        except EmptyDomain:
            if is_last and last is None:
                raise
            continue
        ss = SampleSet(drawn[: cfg.n], shortfall=len(drawn) < cfg.n)
        results = ev.batch_eval(func, ss.tuples, stop_at_budget_failure=not is_last)
        choice = BoundChoice(b, ss, results, held_out=drawn[cfg.n :])
        if not choice.any_budget_failure:
            return choice
        last = choice
    assert last is not None
    # a rung that stopped early is the fallback when the smaller ones were empty
    done = len(last.results)
    last.results += ev.batch_eval(func, last.samples.tuples[done:])
    last.fell_through = True
    return last


def split_domains(func: FuncDef) -> list[Subdomain]:
    """One subdomain per case: the i-th constraint is the case guard minus
    everything earlier guards already claimed (purely syntactic)."""
    out: list[Subdomain] = []
    preceding: BoolExpr | None = None
    for case in func.cases:
        constraint: BoolExpr = case.guard
        if preceding is not None:
            constraint = And(constraint, preceding)
        out.append(Subdomain(simplify(constraint)))
        neg = Not(case.guard)
        preceding = neg if preceding is None else And(preceding, neg)
    return out


def positive_orthant(func: FuncDef) -> BoolExpr:
    """x_i >= 1 for every parameter: the regression domain when splitting is
    off (verification still covers the full precondition)."""
    c: BoolExpr | None = None
    for p in func.params:
        atom = Cmp(">=", Var(p), Const(Fraction(1)))
        c = atom if c is None else And(c, atom)
    return c if c is not None else TRUE
