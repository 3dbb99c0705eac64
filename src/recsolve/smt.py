"""The check stage: list what a candidate closed form must satisfy as
labelled obligations over the integers, ask an SMT solver for a point that
breaks one, and interpret the answer.

A piecewise candidate is substituted one branch at a time: each choice of
piece for a case's left side and for each of its recursive calls gives a
branch, with the chosen pieces' domains as its conditions.  Each branch's
difference is simplified on its own, with the variables its context pins
to constants substituted, so the rewriter sees only the chosen bodies.

The solver speaks SMT-LIB2 text.  Its command is taken from the --solver
flag or RECSOLVE_SMT_CMD, falling back to z3 on PATH and then to the bundled
linear-integer-arithmetic solver.  An external solver runs as a separate
process under the per-query timeout (--smt-timeout).  The bundled solver,
when it is the command, runs in this process through
`recsolve_lia.run_script`; it is bounded by counted work, not by the clock.
Both answers go through the same verdict and model parsing.  unsat means
the candidate is an exact solution; sat yields a counterexample that
`verify` re-checks against the evaluator before it is trusted.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import recsolve_lia

from .evaluator import BudgetExceeded, Evaluator, NoMatchingCase
from .model import (
    Add,
    And,
    BoolExpr,
    Call,
    Ceil,
    Cmp,
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
    Not,
    Or,
    Piece,
    PiecewiseClosedForm,
    Pow,
    RecurrenceSystem,
    Sub,
    TrueExpr,
    Var,
    eval_bool,
    eval_ground,
    substitute,
    walk,
)
from .rewrite import _FLIP, FALSE, _collect_terms, _flatten, simplify


_ZERO = Const(Fraction(0))
_ONE = Const(Fraction(1))


class SolverNotFound(Exception):
    pass


class SolverCrashed(Exception):
    """The solver exited non-zero without printing a verdict, or the bundled
    solver raised."""


class MalformedSolverOutput(Exception):
    pass


# -- results ------------------------------------------------------------------


@dataclass(frozen=True)
class Proved:
    pass


@dataclass(frozen=True)
class Disproved:
    counterexample: dict
    confirmed: bool


@dataclass(frozen=True)
class Unknown:
    reason: str  # "timeout" | "solver-unknown" | ...


@dataclass(frozen=True)
class Unsupported:
    offending: tuple[str, ...]


VerificationResult = Proved | Disproved | Unknown | Unsupported


@dataclass
class SolverConfig:
    command: tuple[str, ...] | None = None  # None: resolve automatically
    timeout: float = 10.0
    debug_dir: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"solver timeout must be a finite number of seconds > 0, got {self.timeout}")

    def resolved_command(self) -> tuple[str, ...]:
        if self.command:
            return tuple(self.command)
        return default_solver_command()


# The command of the bundled solver; `check` runs it in process instead.
_BUNDLED_COMMAND = (sys.executable, "-m", "recsolve_lia")


def default_solver_command() -> tuple[str, ...]:
    env = os.environ.get("RECSOLVE_SMT_CMD")
    if env:
        return tuple(shlex.split(env))
    if shutil.which("z3"):
        return ("z3",)
    return _BUNDLED_COMMAND


@dataclass
class SmtJob:
    logic: str
    declarations: list[str]
    assertion: str
    command: tuple[str, ...]
    timeout: float = 10.0
    axioms: list[str] = field(default_factory=list)
    variables: tuple[str, ...] = ()
    name: str = "query"

    @property
    def script(self) -> str:
        lines = [f"(set-logic {self.logic})"]
        lines.extend(self.declarations)
        lines.extend(self.axioms)
        lines.append(f"(assert {self.assertion})")
        lines.append("(check-sat)")
        lines.append("(get-model)")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Branches: the candidate's piece chosen at each side and at each call
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Branch:
    """One way through a case with the candidate in place of `f`: a piece
    chosen for the left side and for each recursive call.  `conditions` say
    where those choices hold (each earlier piece's domain false, the chosen
    piece's own true; the last piece is the default), and `preconditions`
    are the precondition at each recursive call's arguments.  `choice`
    holds the piece indices, left side first, then the calls innermost
    first."""

    lhs: Expr
    rhs: Expr
    conditions: tuple[BoolExpr, ...]
    preconditions: tuple[BoolExpr, ...]
    choice: tuple[int, ...]


def _recursive_calls(func: FuncDef, body: Expr) -> int:
    return sum(isinstance(n, Call) and n.func == func.name for n in walk(body))


def branches(func: FuncDef, cand: PiecewiseClosedForm, body: Expr) -> Iterator[Branch]:
    """Every branch of a case body of `func` under a non-empty candidate,
    trying the pieces in piece_at order: the left side's choice outermost,
    then each recursive call's, innermost first."""
    calls = _recursive_calls(func, body)
    for choice in itertools.product(range(len(cand.pieces)), repeat=calls + 1):
        yield _branch(func, cand, body, choice)


def _branch(func, cand, body, choice, pins=None) -> Branch:
    """The branch `choice` names.  With `pins` (variable to constant), they
    are substituted into the parameters and the body first, so that a
    candidate's divisor they zero folds away."""
    pins = pins or {}
    params = func.params
    conditions: list[BoolExpr] = []
    preconditions: list[BoolExpr] = []
    picks = iter(choice)

    def instance(args: tuple[Expr, ...]) -> Expr:
        bindings = dict(zip(params, args))
        i = next(picks)
        pieces = cand.pieces
        conditions.extend(Not(substitute(p.domain, bindings)) for p in pieces[:i])
        if i < len(pieces) - 1:
            conditions.append(substitute(pieces[i].domain, bindings))
        return _guarded(substitute(pieces[i].body, bindings))

    def go(node: Expr) -> Expr:
        if isinstance(node, (Const, Var)):
            return node
        if isinstance(node, Call):
            args = tuple(go(a) for a in node.args)
            if node.func != func.name:
                return Call(node.func, args)
            preconditions.append(substitute(func.precondition, dict(zip(params, args))))
            return instance(args)
        if isinstance(node, (Floor, Ceil, Log2, Factorial)):
            return type(node)(go(node.arg))
        return type(node)(go(node.lhs), go(node.rhs))

    lhs = instance(tuple(pins.get(p, Var(p)) for p in params))
    rhs = go(substitute(body, pins) if pins else body)
    return Branch(lhs, rhs, tuple(conditions), tuple(preconditions), tuple(choice))


def _guarded(e: Expr) -> Expr:
    """A candidate instance with each division by a divisor that simplifies
    to 0 replaced by 0: the guarded x/0 = 0 candidates are evaluated under.
    A recurrence body's own division is never passed here."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Div) and simplify(e.rhs) == _ZERO:
        return _ZERO
    if isinstance(e, (Floor, Ceil, Log2, Factorial)):
        return type(e)(_guarded(e.arg))
    return type(e)(_guarded(e.lhs), _guarded(e.rhs))


# ---------------------------------------------------------------------------
# SMT-LIB2 encoding
# ---------------------------------------------------------------------------


class EncodingError(Exception):
    def __init__(self, offending: str):
        self.offending = offending
        super().__init__(offending)


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


class _Encoder:
    """Expressions become integer-scaled terms (text, positive denominator);
    rounding introduces fresh quotient variables with defining bounds, and
    constant-base exponentials become axiomatized recursive power functions.
    """

    def __init__(self, variables: tuple[str, ...]):
        self.variables = frozenset(variables)
        self.aux: list[str] = []
        self.fresh_vars: list[str] = []
        self._cache: dict = {}
        self.pow_bases: set[int] = set()
        self._counter = 0

    def lit(self, v: int) -> str:
        return str(v) if v >= 0 else f"(- {-v})"

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        name = f".{prefix}{self._counter}"
        self.fresh_vars.append(name)
        return name

    # -- terms ---------------------------------------------------------------
    def term(self, e: Expr) -> tuple[str, int]:
        if isinstance(e, Const):
            return self.lit(e.value.numerator), e.value.denominator
        if isinstance(e, Var):
            if e.name not in self.variables:  # it would be an undeclared symbol
                raise EncodingError(f"unknown-variable:{e.name}")
            return e.name, 1
        if isinstance(e, (Add, Sub)):
            (ta, da), (tb, db) = self.term(e.lhs), self.term(e.rhs)
            L = _lcm(da, db)
            ta = _scaled(ta, L // da)
            tb = _scaled(tb, L // db)
            op = "+" if isinstance(e, Add) else "-"
            return f"({op} {ta} {tb})", L
        if isinstance(e, Mul):
            (ta, da), (tb, db) = self.term(e.lhs), self.term(e.rhs)
            return f"(* {ta} {tb})", da * db
        if isinstance(e, Div):
            if isinstance(e.rhs, Const):
                c = e.rhs.value
                if c == 0:
                    raise EncodingError("division-by-zero")
                ta, da = self.term(e.lhs)
                num = c.numerator
                t = _scaled(ta, abs(c.denominator))
                if num < 0:
                    t = f"(- {t})"
                return t, da * abs(num)
            raise EncodingError("variable-division")
        if isinstance(e, Pow):
            return self._pow(e)
        if isinstance(e, Floor):
            return self._rounding(e.arg, "floor")
        if isinstance(e, Ceil):
            return self._rounding(e.arg, "ceil")
        if isinstance(e, (Max, Min)):
            (ta, da), (tb, db) = self.term(e.lhs), self.term(e.rhs)
            L = _lcm(da, db)
            ta = _scaled(ta, L // da)
            tb = _scaled(tb, L // db)
            rel = ">=" if isinstance(e, Max) else "<="
            return f"(ite ({rel} {ta} {tb}) {ta} {tb})", L
        if isinstance(e, Log2):
            raise EncodingError("Log2")
        if isinstance(e, Factorial):
            raise EncodingError("Factorial")
        if isinstance(e, Call):
            raise EncodingError("unresolved-call")
        raise EncodingError(type(e).__name__)

    def _pow(self, e: Pow) -> tuple[str, int]:
        if isinstance(e.base, Const) and not isinstance(e.exp, Const):
            c = e.base.value
            if c.denominator != 1 or c < 2:
                raise EncodingError("Pow")
            te, de = self.term(e.exp)
            if de != 1:
                raise EncodingError("fractional-exponent")
            self.pow_bases.add(int(c))
            return f"(pow{c} {te})", 1
        if isinstance(e.exp, Const):
            k = e.exp.value
            if k.denominator != 1 or k < 0 or k > 8:
                raise EncodingError("Pow")
            k = int(k)
            if k == 0:
                return "1", 1
            tb, db = self.term(e.base)
            if k == 1:
                return tb, db
            return "(* " + " ".join([tb] * k) + ")", db**k
        raise EncodingError("Pow")

    def _rounding(self, arg: Expr, kind: str) -> tuple[str, int]:
        # floor/ceil of a variable-divisor quotient: where b >= 1, q with
        # q*b <= a < q*b + b; elsewhere q is unconstrained, which can only
        # add models, so unsat stays a proof
        if isinstance(arg, Div) and not isinstance(arg.rhs, Const):
            ta, da = self.term(arg.lhs)
            tb, db = self.term(arg.rhs)
            if da != 1 or db != 1:
                raise EncodingError("variable-division")
            key = (kind, ta, tb)
            if key in self._cache:
                return self._cache[key]
            q = self._fresh("q")
            if kind == "floor":
                bounds = f"(<= (* {q} {tb}) {ta}) (< {ta} (+ (* {q} {tb}) {tb}))"
            else:
                bounds = f"(>= (* {q} {tb}) {ta}) (< (- (* {q} {tb}) {tb}) {ta})"
            self.aux.append(f"(=> (>= {tb} 1) (and {bounds}))")
            self._cache[key] = (q, 1)
            return (q, 1)
        t, d = self.term(arg)
        if d == 1:
            return t, 1
        key = (kind, t, d)
        if key in self._cache:
            return self._cache[key]
        q = self._fresh("q")
        dl = self.lit(d)
        if kind == "floor":
            # d*q <= t < d*q + d
            self.aux.append(f"(<= (* {dl} {q}) {t})")
            self.aux.append(f"(< {t} (+ (* {dl} {q}) {dl}))")
        else:
            # d*q - d < t <= d*q
            self.aux.append(f"(>= (* {dl} {q}) {t})")
            self.aux.append(f"(< (- (* {dl} {q}) {dl}) {t})")
        self._cache[key] = (q, 1)
        return (q, 1)

    # -- constraints ------------------------------------------------------------
    def boolean(self, b: BoolExpr) -> str:
        if isinstance(b, TrueExpr):
            return "true"
        if isinstance(b, Not):
            return f"(not {self.boolean(b.arg)})"
        if isinstance(b, (And, Or)):
            # one n-ary node per chain: a long chain of obligations must not
            # nest as deep as it is long, here or in the solver's parser
            parts = " ".join(self.boolean(p) for p in _flatten(b, type(b)))
            return f"({'and' if isinstance(b, And) else 'or'} {parts})"
        if isinstance(b, Cmp):
            (ta, da), (tb, db) = self.term(b.lhs), self.term(b.rhs)
            L = _lcm(da, db)
            ta = _scaled(ta, L // da)
            tb = _scaled(tb, L // db)
            if b.op == "=":
                return f"(= {ta} {tb})"
            if b.op == "!=":
                return f"(not (= {ta} {tb}))"
            return f"({b.op} {ta} {tb})"
        raise EncodingError(type(b).__name__)


def _scaled(t: str, m: int) -> str:
    return t if m == 1 else f"(* {m} {t})"


_POW_AXIOMS = """\
(declare-fun pow{c} (Int) Int)
(assert (= (pow{c} 0) 1))
(assert (forall ((n Int)) (=> (>= n 0) (= (pow{c} (+ n 1)) (* {c} (pow{c} n))))))
(assert (forall ((n Int)) (=> (>= n 0) (>= (pow{c} n) 1))))"""


def build_job(
    variables: tuple[str, ...],
    assertion_bool: BoolExpr,
    solver: SolverConfig,
    name: str = "query",
) -> SmtJob:
    enc = _Encoder(variables)
    body = enc.boolean(assertion_bool)
    decls = [f"(declare-fun {v} () Int)" for v in list(variables) + enc.fresh_vars]
    axioms = [_POW_AXIOMS.format(c=c) for c in sorted(enc.pow_bases)]
    if enc.aux:
        body = "(and " + " ".join(enc.aux + [body]) + ")"
    return SmtJob(
        logic="ALL",
        declarations=decls,
        assertion=body,
        command=solver.resolved_command(),
        timeout=solver.timeout,
        axioms=axioms,
        variables=variables,
        name=name,
    )


# ---------------------------------------------------------------------------
# Solver driver
# ---------------------------------------------------------------------------

def check(job: SmtJob, debug_dir: str | None = None) -> VerificationResult:
    """Run one batch solver query: unsat proves the candidate; sat yields
    the model's values of `job.variables` as an unconfirmed counterexample;
    unknown or a timeout is Unknown.  The bundled solver runs in process,
    any other command as a process under `job.timeout`.  A missing solver
    raises SolverNotFound; one that exits non-zero without a verdict, or a
    bundled solver that raises, raises SolverCrashed.  With `debug_dir` the
    script is kept there, numbered after the scripts already in it."""
    script = job.script
    if debug_dir:
        os.makedirs(debug_dir, exist_ok=True)
        seq = sum(n.endswith(".smt2") for n in os.listdir(debug_dir)) + 1
        path = os.path.join(debug_dir, f"{job.name}-{seq:03d}.smt2")
        with open(path, "w") as fh:
            fh.write(script)
    if tuple(job.command) == _BUNDLED_COMMAND:
        try:
            stdout = recsolve_lia.run_script(script)
        except Exception as exc:
            raise SolverCrashed(f"bundled solver: {type(exc).__name__}: {exc}") from exc
    else:
        proc = _run_process(job, script)
        if proc is None:
            return Unknown("timeout")
        stdout = proc.stdout
        if proc.returncode != 0 and _verdict(stdout) is None:
            raise SolverCrashed(f"{' '.join(job.command)} exited {proc.returncode}: {proc.stderr[-300:]}")
    verdict = _verdict(stdout)
    if verdict is None:
        raise MalformedSolverOutput(stdout[:500])
    if verdict == "unsat":
        return Proved()
    if verdict == "unknown":
        return Unknown("solver-unknown")
    model = _parse_model(stdout)
    return Disproved({v: model.get(v, 0) for v in job.variables}, confirmed=False)


def _run_process(job: SmtJob, script: str) -> subprocess.CompletedProcess | None:
    """The external solver run on the script in a temporary file; None when
    it outlives `job.timeout`."""
    with tempfile.NamedTemporaryFile(
        "w", suffix=".smt2", prefix="recsolve-", delete=False
    ) as fh:
        fh.write(script)
        tmp = fh.name
    try:
        return subprocess.run(
            list(job.command) + [tmp],
            capture_output=True,
            text=True,
            timeout=job.timeout,
        )
    except FileNotFoundError as exc:
        raise SolverNotFound(" ".join(job.command)) from exc
    except subprocess.TimeoutExpired:
        return None
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _verdict(stdout: str) -> str | None:
    for line in stdout.splitlines():
        line = line.strip()
        if line in ("sat", "unsat", "unknown"):
            return line
    return None


def _parse_model(stdout: str) -> dict:
    idx = stdout.find("sat")
    rest = stdout[idx + 3 :]
    model: dict = {}
    try:
        forms = recsolve_lia.parse_sexprs(recsolve_lia.tokenize(rest))
    except Exception as exc:
        raise MalformedSolverOutput(stdout[:500]) from exc

    def visit(form):
        if not isinstance(form, list):
            return
        if form and form[0] == "define-fun" and len(form) >= 5:
            name, args, _sort, value = form[1], form[2], form[3], form[4]
            if args == []:
                v = _parse_value(value)
                if v is not None:
                    model[name] = v
        else:
            for x in form:
                visit(x)

    for f in forms:
        visit(f)
    return model


def _parse_value(v):
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            try:
                return int(float(v))
            except ValueError:
                return None
    if isinstance(v, list) and len(v) == 2 and v[0] == "-":
        inner = _parse_value(v[1])
        return -inner if inner is not None else None
    if isinstance(v, list) and len(v) == 3 and v[0] == "/":
        a, b = _parse_value(v[1]), _parse_value(v[2])
        if a is not None and b:
            return a // b
    return None


# ---------------------------------------------------------------------------
# Verification pipeline
# ---------------------------------------------------------------------------


def verify(
    system: RecurrenceSystem,
    cand: PiecewiseClosedForm,
    solver: SolverConfig | None = None,
) -> VerificationResult:
    """Check a candidate closed form against a single-equation system: ask
    the solver, in one query, for a point of the precondition that breaks
    one of the candidate's obligations.  A node the encoding cannot express
    makes the result Unsupported, naming the node.  A counterexample is
    confirmed against the evaluator, within its budget, before it is
    trusted; an unconfirmed one is reported as the Unsupported label of the
    first obligation other than an equation that it breaks."""
    solver = solver or SolverConfig()
    if not system.is_single_equation():
        return Unsupported(("system-of-equations",))
    if not cand.exact_coeffs:
        return Unsupported(("non-rational-coefficients",))
    obs = obligations(system, cand)
    if isinstance(obs, (Unsupported, Unknown)):
        return obs
    f = system.entry_func
    broken = functools.reduce(Or, [o.formula for o in obs]) if obs else FALSE
    try:
        job = build_job(
            tuple(f.params), And(f.precondition, broken), solver, name=f"verify-{f.name}"
        )
    except EncodingError as exc:
        return Unsupported((exc.offending,))
    try:
        result = check(job, solver.debug_dir)
    except MalformedSolverOutput:
        return Unknown("malformed-solver-output")
    if not isinstance(result, Disproved):
        return result
    point = result.counterexample
    if _confirms(system, cand, point):
        return Disproved(point, confirmed=True)
    for o in obs:
        if o.label != "equation" and _holds_at(o.formula, point):
            return Unsupported((o.label,))
    return result


def _confirms(system: RecurrenceSystem, cand: PiecewiseClosedForm, point: dict) -> bool:
    """Whether `point` is in the precondition and the recurrence's value
    there, within the evaluator's budget, differs from the candidate's."""
    f = system.entry_func
    env = {p: point[p] for p in f.params}
    if not eval_bool(f.precondition, env):
        return False
    try:
        actual = Evaluator(system).eval_fun(f.name, tuple(env.values()))
    except (EvalError, NoMatchingCase, BudgetExceeded):
        return False
    return not values_agree(actual, eval_piecewise(cand, env))


def _holds_at(b: BoolExpr, point: dict) -> bool:
    try:
        return eval_bool(b, point, guarded=True)
    except EvalError:
        return False


def values_agree(a, b) -> bool:
    """Equal values: exactly for exact numbers, within 1e-9 (relative or
    absolute) once either is a float."""
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def piece_at(cand: PiecewiseClosedForm, env: dict) -> Piece:
    """The piece that applies at a point of a non-empty candidate.  Pieces
    are tried in order and the last one is the default branch, as in the
    branches that verification enumerates (a single-piece candidate is a
    global expression; its recorded domain only documents where it was
    fitted)."""
    for p in cand.pieces[:-1]:
        if eval_bool(p.domain, env):
            return p
    return cand.pieces[-1]


def eval_piecewise(cand: PiecewiseClosedForm, env: dict):
    """Value of the candidate at a point (see piece_at), or None when it has
    no pieces.  Evaluation is guarded, matching the feature semantics
    candidates were fitted under."""
    if not cand.pieces:
        return None
    return eval_ground(piece_at(cand, env).body, env, guarded=True)


def _integer_bounds(atoms: list[BoolExpr], bounds: dict | None = None) -> dict:
    """`bounds` (variable to integer (lo, hi), infinite where open) narrowed
    by the comparisons among `atoms` in one variable, a*x + b op 0 with any
    op but !=.  A range with lo > hi holds no integer."""
    out = dict(bounds or {})
    for b in atoms:
        if not isinstance(b, Cmp) or b.op == "!=":
            continue
        terms = _collect_terms(Sub(b.lhs, b.rhs))
        shift = terms.pop((), Fraction(0))
        if len(terms) != 1:
            continue
        (factors, coef), = terms.items()
        if not (len(factors) == 1 and isinstance(factors[0], Var)):
            continue
        name, root = factors[0].name, -shift / coef
        op = b.op if coef > 0 else _FLIP[b.op]
        lo, hi = out.get(name, (-math.inf, math.inf))
        if op in ("=", ">=", ">"):
            lo = max(lo, math.floor(root) + 1 if op == ">" else math.ceil(root))
        if op in ("=", "<=", "<"):
            hi = min(hi, math.ceil(root) - 1 if op == "<" else math.floor(root))
        out[name] = (lo, hi)
    return out


def _guard_bindings(ctx: BoolExpr, pre: dict) -> dict | None:
    """Variables a simplified context pins to integers, where the bounds of
    its top-level comparisons in one variable, narrowed from the
    precondition's `pre`, meet (x = 3, x - 1 <= 0 with x >= 1).
    Substituting them specializes a branch's sides so that exponential
    subterms constant-fold away.  None when some variable's bounds leave no
    integer: then the context is false under the precondition."""
    pins: dict = {}
    for name, (lo, hi) in _integer_bounds(_flatten(ctx, And), pre).items():
        if lo > hi:
            return None
        if lo == hi:
            pins[name] = Const(lo)
    return pins


_LABELS = ("equation", "unresolved-call", "variable-division")


@dataclass(frozen=True)
class Obligation:
    """`formula` is a branch's simplified context and a negated condition,
    which `label` names: "equation" (the two sides are equal),
    "unresolved-call" (a recursive call's arguments are in the
    precondition) or "variable-division" (a floor/ceil divisor is >= 1)."""

    label: str
    formula: BoolExpr


def obligations(
    system: RecurrenceSystem, cand: PiecewiseClosedForm
) -> list[Obligation] | Unsupported | Unknown:
    """A candidate's obligations on a single-equation system: equations,
    then calls, then divisors, each without repeats.  A branch (see
    `branches`) holds under its context: earlier guards false, its case's
    guard true, and its piece conditions.  A context that is false, or that
    bounds a variable to no integer under the precondition, gives none; a
    variable it bounds to one integer is pinned there (`_guard_bindings`);
    a difference that simplifies to 0 gives no equation.  Unknown when the
    cases have more branches than recsolve_lia.MAX_DISJUNCTS."""
    if not cand.pieces:
        return Unsupported(("empty-candidate",))
    f = system.entry_func
    total = sum(len(cand.pieces) ** (1 + _recursive_calls(f, c.body)) for c in f.cases)
    if total > recsolve_lia.MAX_DISJUNCTS:
        return Unknown("branch-limit")
    found: list[Obligation] = []
    earlier: list[BoolExpr] = []
    pre = _integer_bounds(_flatten(simplify(f.precondition), And))
    for case in f.cases:
        for branch in branches(f, cand, case.body):
            ctx = simplify(functools.reduce(And, earlier + [case.guard, *branch.conditions]))
            pins = None if ctx == FALSE else _guard_bindings(ctx, pre)
            if pins is None:
                continue
            sides = _branch(f, cand, case.body, branch.choice, pins) if pins else branch
            lhs, rhs = simplify(sides.lhs), simplify(sides.rhs)
            diff = simplify(Sub(lhs, rhs))
            if diff != _ZERO:
                found.append(Obligation("equation", And(ctx, Not(Cmp("=", diff, _ZERO)))))
            calls = [
                And(ctx, Not(o))
                for o in dict.fromkeys(branch.preconditions)
                if not isinstance(o, TrueExpr)
            ]
            found.extend(Obligation("unresolved-call", c) for c in calls)
            # from the context and sides, not the difference: a divisor that
            # cancels in a difference still divides where the case is evaluated
            found.extend(
                Obligation("variable-division", And(ctx, Not(Cmp(">=", node.arg.rhs, _ONE))))
                for b in [ctx, lhs, rhs] + calls
                for node in walk(b)
                if isinstance(node, (Floor, Ceil))
                and isinstance(node.arg, Div)
                and not isinstance(node.arg.rhs, Const)
            )
        earlier.append(Not(case.guard))
    return sorted(dict.fromkeys(found), key=lambda o: _LABELS.index(o.label))
