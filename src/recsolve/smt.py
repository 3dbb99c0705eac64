"""The check stage: encode the recurrence with the candidate substituted in
as a first-order formula over the integers, ask an SMT solver for models of
its negation, and interpret the answer.

The solver speaks SMT-LIB2 text.  Its command is taken from the --solver
flag or RECSOLVE_SMT_CMD, falling back to z3 on PATH and then to the bundled
linear-integer-arithmetic solver.  An external solver runs as a separate
process under the per-query timeout (--smt-timeout).  The bundled solver,
when it is the command, runs in this process through
`recsolve_lia.run_script`; it is bounded by counted work, not by the clock.
Both answers go through the same verdict and model parsing.  unsat means
the candidate is an exact solution; sat yields a counterexample that is
re-checked against the evaluator before it is trusted.
"""

from __future__ import annotations

import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

import recsolve_lia

from .evaluator import BudgetExceeded, EvalBudget, Evaluator, NoMatchingCase
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
    Ite,
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
    TRUE,
    TrueExpr,
    Var,
    eval_bool,
    eval_ground,
    free_vars,
    substitute,
    walk,
)
from .rewrite import simplify


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

    def resolved_command(self) -> tuple[str, ...]:
        if self.command:
            return tuple(self.command)
        return default_solver_command()


# The command that runs the bundled solver as a process, by file path so
# that the child needs no import path; `check` runs it in process instead.
_BUNDLED_COMMAND = (sys.executable, os.path.abspath(recsolve_lia.__file__))


def default_solver_command() -> tuple[str, ...]:
    env = os.environ.get("RECSOLVE_SMT_CMD")
    if env:
        return tuple(shlex.split(env))
    if shutil.which("z3"):
        return ("z3",)
    return _BUNDLED_COMMAND


def _is_bundled(command: tuple[str, ...]) -> bool:
    return len(command) == 2 and all(
        os.path.abspath(given) == os.path.abspath(bundled)
        for given, bundled in zip(command, _BUNDLED_COMMAND)
    )


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
# Candidate inlining and call replacement
# ---------------------------------------------------------------------------


def inline_candidate(cand: PiecewiseClosedForm, args: tuple[Expr, ...], params) -> Expr:
    """The candidate applied to argument expressions; multiple pieces become
    a nested conditional over their subdomains."""
    bindings = dict(zip(params, args))
    pieces = cand.pieces
    out = substitute(pieces[-1].body, bindings)
    for p in reversed(pieces[:-1]):
        out = Ite(substitute(p.domain, bindings), substitute(p.body, bindings), out)
    return out


def replace_calls(
    e: Expr, func: FuncDef, cand: PiecewiseClosedForm, obligations: list[BoolExpr]
) -> Expr:
    """Innermost-first replacement of every call to `func` by the candidate.
    The replacement is sound only where the call stays inside the
    precondition, so each call with arguments a appends pre(a) to
    `obligations` for the verification query to check."""

    def go(node: Expr) -> Expr:
        if isinstance(node, (Const, Var)):
            return node
        if isinstance(node, (Add, Sub, Mul, Div, Pow, Max, Min)):
            pair = (
                (go(node.base), go(node.exp))
                if isinstance(node, Pow)
                else (go(node.lhs), go(node.rhs))
            )
            return type(node)(*pair)
        if isinstance(node, (Floor, Ceil, Log2, Factorial)):
            return type(node)(go(node.arg))
        if isinstance(node, Ite):
            return Ite(node.cond, go(node.then), go(node.orelse))
        if isinstance(node, Call):
            args = tuple(go(a) for a in node.args)
            if node.func != func.name:
                return Call(node.func, args)
            obligations.append(substitute(func.precondition, dict(zip(func.params, args))))
            return inline_candidate(cand, args, func.params)
        raise TypeError(f"cannot replace calls in {type(node).__name__}")

    return go(e)


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

    def __init__(self):
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
        if isinstance(e, Ite):
            cond = self.boolean(e.cond)
            (ta, da), (tb, db) = self.term(e.then), self.term(e.orelse)
            L = _lcm(da, db)
            ta = _scaled(ta, L // da)
            tb = _scaled(tb, L // db)
            return f"(ite {cond} {ta} {tb})", L
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
        if isinstance(b, And):
            return f"(and {self.boolean(b.lhs)} {self.boolean(b.rhs)})"
        if isinstance(b, Or):
            return f"(or {self.boolean(b.lhs)} {self.boolean(b.rhs)})"
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
    enc = _Encoder()
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

def check(job: SmtJob, confirmer=None, debug_dir: str | None = None) -> VerificationResult:
    """Run one batch solver query: unsat proves the candidate; sat yields a
    counterexample (confirmed through `confirmer` when given); unknown or a
    timeout is Unknown.  The bundled solver runs in process, any other
    command as a process under `job.timeout`.  A missing solver raises
    SolverNotFound; one that exits non-zero without a verdict, or a bundled
    solver that raises, raises SolverCrashed.  With `debug_dir` the script
    is kept there, numbered after the scripts already in it."""
    script = job.script
    if debug_dir:
        os.makedirs(debug_dir, exist_ok=True)
        seq = sum(n.endswith(".smt2") for n in os.listdir(debug_dir)) + 1
        path = os.path.join(debug_dir, f"{job.name}-{seq:03d}.smt2")
        with open(path, "w") as fh:
            fh.write(script)
    if _is_bundled(job.command):
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
    point = {v: model.get(v, 0) for v in job.variables}
    confirmed = bool(confirmer(point)) if confirmer is not None else False
    return Disproved(point, confirmed)


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
    budget: EvalBudget | None = None,
) -> VerificationResult:
    """Check a candidate closed form against a single-equation system:
    replace calls, simplify each case's difference, then ask the solver, in
    one query, for a point where a difference is not 0, a recursive call
    leaves the precondition, or a divisor is below 1.  A node the encoding
    cannot express makes the result Unsupported, naming the node.
    Counterexamples are confirmed against the evaluator before being
    trusted; an unconfirmed one that breaks a side condition is reported as
    that condition's Unsupported label."""
    solver = solver or SolverConfig()
    if not system.is_single_equation():
        return Unsupported(("system-of-equations",))
    if not cand.pieces:
        return Unsupported(("empty-candidate",))
    if not cand.exact_coeffs:
        return Unsupported(("non-rational-coefficients",))
    f = system.entry_func
    params = tuple(f.params)
    pre = f.precondition

    encoded = _encode_only(system, cand, solver)
    if isinstance(encoded, Unsupported):
        return encoded
    job, side_conditions = encoded

    def confirmer(point: dict) -> bool:
        ev = Evaluator(system, budget or EvalBudget())
        args = tuple(point[p] for p in params)
        if not eval_bool(pre, dict(zip(params, args))):
            return False
        try:
            actual = ev.eval_fun(f.name, args)
        except (EvalError, NoMatchingCase, BudgetExceeded):
            return False
        got = eval_piecewise(cand, dict(zip(params, args)))
        if got is None:
            return True  # no piece covers an in-domain point
        return not values_agree(actual, got)

    try:
        result = check(job, confirmer, solver.debug_dir)
    except MalformedSolverOutput:
        return Unknown("malformed-solver-output")
    if isinstance(result, Disproved) and not result.confirmed:
        for label, broken in side_conditions:
            if _holds_at(broken, result.counterexample):
                return Unsupported((label,))
    return result


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
    are tried in order and the last one is the default branch, mirroring the
    nested-conditional inlining used for verification (a single-piece
    candidate is a global expression; its recorded domain only documents
    where it was fitted)."""
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


def encode(
    func: FuncDef,
    cand: PiecewiseClosedForm,
    solver: SolverConfig | None = None,
) -> SmtJob | Unsupported:
    """Build the solver job for a single function definition and candidate
    (the full replace/simplify/encode pipeline, without running the check)."""
    system = RecurrenceSystem({func.name: func}, func.name)
    encoded = _encode_only(system, cand, solver or SolverConfig())
    return encoded if isinstance(encoded, Unsupported) else encoded[0]


def _guard_bindings(guard: BoolExpr, exprs) -> dict:
    """Variables a conjunctive guard pins to constants (x = 3 conjuncts);
    substituting them specializes base-case equations so that exponential
    subterms constant-fold away.  A pin that zeroes a variable divisor in
    `exprs` is left out: it would turn the candidate's guarded x/0 = 0 into a
    constant division by zero, which the encoder refuses."""
    out: dict = {}

    def collect(b):
        if isinstance(b, And):
            collect(b.lhs)
            collect(b.rhs)
        elif isinstance(b, Cmp) and b.op == "=":
            if isinstance(b.lhs, Var) and isinstance(b.rhs, Const):
                out[b.lhs.name] = b.rhs
            elif isinstance(b.rhs, Var) and isinstance(b.lhs, Const):
                out[b.rhs.name] = b.lhs

    collect(guard)
    if not out:
        return out
    zeroed = {
        v
        for e in exprs
        for node in walk(e)
        if isinstance(node, Div)
        and not isinstance(node.rhs, Const)
        and simplify(substitute(node.rhs, out)) == Const(Fraction(0))
        for v in free_vars(node.rhs)
    }
    return {v: c for v, c in out.items() if v not in zeroed}


def _encode_only(system, cand, solver):
    """The verification job and its side conditions, or Unsupported.  Each
    case's equation is simplify(lhs - rhs) = 0 over its simplified sides.
    The job asks for a point of the precondition where some case fires
    (earlier guards false, its own true) and its equation fails or one of
    its recursive calls leaves the precondition, or where a variable divisor
    of a floor/ceil is below 1.  Each side condition is one of those
    disjuncts other than a failed equation, paired with the Unsupported
    label of a model that satisfies it.  A node the encoder refuses gives
    Unsupported with the encoder's label."""
    f = system.entry_func
    params = tuple(f.params)
    lhs_raw = inline_candidate(cand, tuple(Var(p) for p in params), params)
    refutations: list[BoolExpr] = []
    sides: list[Expr | BoolExpr] = []
    side_conditions: list[tuple[str, BoolExpr]] = []
    prev_ctx: BoolExpr = TRUE
    for case in f.cases:
        ctx = case.guard if isinstance(prev_ctx, TrueExpr) else And(prev_ctx, case.guard)
        prev_ctx = (
            Not(case.guard)
            if isinstance(prev_ctx, TrueExpr)
            else And(prev_ctx, Not(case.guard))
        )
        obligations: list[BoolExpr] = []
        rhs_raw = replace_calls(case.body, f, cand, obligations)
        bindings = _guard_bindings(case.guard, (lhs_raw, rhs_raw))
        lhs_case = substitute(lhs_raw, bindings) if bindings else lhs_raw
        rhs_case = substitute(rhs_raw, bindings) if bindings else rhs_raw
        lhs_s, rhs_s = simplify(lhs_case), simplify(rhs_case)
        sides.extend((ctx, lhs_s, rhs_s))
        eq = Cmp("=", simplify(Sub(lhs_s, rhs_s)), Const(Fraction(0)))
        refutations.append(And(ctx, Not(eq)))
        side_conditions.extend(
            ("unresolved-call", And(ctx, Not(o)))
            for o in dict.fromkeys(obligations)
            if not isinstance(o, TrueExpr)
        )
    # from the guards and sides, not the differences: a divisor that cancels
    # in a difference still divides where the case is evaluated
    divisors = dict.fromkeys(
        node.arg.rhs
        for b in sides + [c for _, c in side_conditions]
        for node in walk(b)
        if isinstance(node, (Floor, Ceil))
        and isinstance(node.arg, Div)
        and not isinstance(node.arg.rhs, Const)
    )
    side_conditions.extend(
        ("variable-division", Not(Cmp(">=", d, Const(Fraction(1))))) for d in divisors
    )
    negformula = refutations[0]
    for d in refutations[1:] + [c for _, c in side_conditions]:
        negformula = Or(negformula, d)
    try:
        job = build_job(params, And(f.precondition, negformula), solver, name=f"verify-{f.name}")
    except EncodingError as exc:
        return Unsupported((exc.offending,))
    return job, side_conditions
