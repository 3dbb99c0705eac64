"""Expression trees, guard constraints and recurrence systems.

Everything here is immutable and purely functional: expressions are frozen
dataclasses, evaluation never mutates state, so values can be shared freely
across threads.  Only the array evaluation (eval_array and its rules) uses
numpy, which it loads at its first call; the exact evaluation (eval_ground,
eval_bool) runs without it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping, Union

if TYPE_CHECKING:
    import numpy as np

# Values on the exact path are int/Fraction; Log2 and irrational Pow fall
# back to float.  Magnitudes beyond OVERFLOW_LIMIT raise instead of wrapping.
Number = Union[int, Fraction, float]

OVERFLOW_LIMIT = 2 ** 512


class EvalError(Exception):
    """Arithmetic failure during ground evaluation; `kind` is machine-readable."""

    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}" if detail else kind)


# ---------------------------------------------------------------------------
# Arithmetic expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Sub:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Mul:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Div:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exp: "Expr"

    # aliases so generic binary-node code can treat Pow uniformly
    @property
    def lhs(self) -> "Expr":
        return self.base

    @property
    def rhs(self) -> "Expr":
        return self.exp


@dataclass(frozen=True)
class Floor:
    arg: "Expr"


@dataclass(frozen=True)
class Ceil:
    arg: "Expr"


@dataclass(frozen=True)
class Log2:
    arg: "Expr"


@dataclass(frozen=True)
class Factorial:
    arg: "Expr"


@dataclass(frozen=True)
class Max:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Min:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


Expr = Union[
    Const, Var, Add, Sub, Mul, Div, Pow, Floor, Ceil, Log2, Factorial, Max, Min, Call
]

_BINOPS = (Add, Sub, Mul, Div, Pow, Max, Min)
_UNOPS = (Floor, Ceil, Log2, Factorial)


def const(v) -> Const:
    return Const(Fraction(v))


# ---------------------------------------------------------------------------
# Boolean expressions (guards / preconditions)
# ---------------------------------------------------------------------------

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Cmp:
    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"bad comparison op {self.op!r}")


@dataclass(frozen=True)
class And:
    lhs: "BoolExpr"
    rhs: "BoolExpr"


@dataclass(frozen=True)
class Or:
    lhs: "BoolExpr"
    rhs: "BoolExpr"


@dataclass(frozen=True)
class Not:
    arg: "BoolExpr"


@dataclass(frozen=True)
class TrueExpr:
    pass


TRUE = TrueExpr()

BoolExpr = Union[Cmp, And, Or, Not, TrueExpr]


# ---------------------------------------------------------------------------
# Recurrence systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseDef:
    guard: BoolExpr
    body: Expr

    def __post_init__(self):
        if contains_call(self.guard):
            raise ValueError("case guard must be call-free")


@dataclass(frozen=True)
class FuncDef:
    name: str
    params: tuple[str, ...]
    precondition: BoolExpr
    cases: tuple[CaseDef, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "cases", tuple(self.cases))
        if len(self.params) < 1:
            raise ValueError(f"{self.name}: arity must be >= 1")
        if contains_call(self.precondition):
            raise ValueError(f"{self.name}: precondition must be call-free")
        if not self.cases:
            raise ValueError(f"{self.name}: needs at least one case")

    @property
    def arity(self) -> int:
        return len(self.params)

    def is_base_case(self, case: CaseDef) -> bool:
        return not contains_call(case.body)


@dataclass(frozen=True)
class RecurrenceSystem:
    functions: Mapping[str, FuncDef]
    entry: str

    def __post_init__(self):
        object.__setattr__(self, "functions", dict(self.functions))
        if self.entry not in self.functions:
            raise ValueError(f"entry function {self.entry!r} is not defined")
        arities = {name: f.arity for name, f in self.functions.items()}
        for f in self.functions.values():
            for e in _function_exprs(f):
                for node in walk(e):
                    if isinstance(node, Call):
                        if node.func not in arities:
                            raise ValueError(
                                f"{f.name}: call to undefined function {node.func!r}"
                            )
                        if len(node.args) != arities[node.func]:
                            raise ValueError(
                                f"{f.name}: call {node.func}/{len(node.args)} does not"
                                f" match declared arity {arities[node.func]}"
                            )
        # Functions on a call cycle (including self-recursion) must have a
        # call-free base case; acyclic wrappers are exempt.
        for name in self.functions:
            if self._on_cycle(name):
                fd = self.functions[name]
                if not any(fd.is_base_case(c) for c in fd.cases):
                    raise ValueError(f"{name}: recursive definition lacks a base case")

    @property
    def entry_func(self) -> FuncDef:
        return self.functions[self.entry]

    def is_single_equation(self) -> bool:
        return len(self.functions) == 1

    def _callees(self, name: str) -> set[str]:
        out: set[str] = set()
        for e in _function_exprs(self.functions[name]):
            for node in walk(e):
                if isinstance(node, Call):
                    out.add(node.func)
        return out

    def _on_cycle(self, name: str) -> bool:
        seen: set[str] = set()
        stack = list(self._callees(name))
        while stack:
            cur = stack.pop()
            if cur == name:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._callees(cur))
        return False


def _function_exprs(f: FuncDef) -> Iterator[Expr]:
    for c in f.cases:
        yield c.body


@dataclass(frozen=True)
class Piece:
    """One branch of a piecewise closed form."""

    domain: BoolExpr
    body: Expr
    score: float
    exact_coeffs: bool = True

    def __post_init__(self):
        if contains_call(self.body):
            raise ValueError("closed-form piece must be call-free")


@dataclass(frozen=True)
class PiecewiseClosedForm:
    pieces: tuple[Piece, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @property
    def score(self) -> float:
        if not self.pieces:
            return 0.0
        return min(p.score for p in self.pieces)

    @property
    def exact_coeffs(self) -> bool:
        return all(p.exact_coeffs for p in self.pieces)


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------


def walk(e: Expr | BoolExpr) -> Iterator[Expr | BoolExpr]:
    """Yield every node of an expression tree, root first."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _BINOPS):
            stack.append(node.lhs)
            stack.append(node.rhs)
        elif isinstance(node, _UNOPS):
            stack.append(node.arg)
        elif isinstance(node, Call):
            stack.extend(node.args)
        elif isinstance(node, Cmp):
            stack.append(node.lhs)
            stack.append(node.rhs)
        elif isinstance(node, (And, Or)):
            stack.append(node.lhs)
            stack.append(node.rhs)
        elif isinstance(node, Not):
            stack.append(node.arg)


def contains_call(e: Expr | BoolExpr) -> bool:
    return any(isinstance(n, Call) for n in walk(e))


def free_vars(e: Expr | BoolExpr) -> set[str]:
    return {n.name for n in walk(e) if isinstance(n, Var)}


def substitute(e, bindings: Mapping[str, Expr]):
    """Simultaneous capture-free substitution; unbound variables unchanged."""
    if isinstance(e, Var):
        return bindings.get(e.name, e)
    if isinstance(e, (Const, TrueExpr)):
        return e
    if isinstance(e, _BINOPS):
        return type(e)(substitute(e.lhs, bindings), substitute(e.rhs, bindings))
    if isinstance(e, _UNOPS):
        return type(e)(substitute(e.arg, bindings))
    if isinstance(e, Call):
        return Call(e.func, tuple(substitute(a, bindings) for a in e.args))
    if isinstance(e, Cmp):
        return Cmp(e.op, substitute(e.lhs, bindings), substitute(e.rhs, bindings))
    if isinstance(e, (And, Or)):
        return type(e)(substitute(e.lhs, bindings), substitute(e.rhs, bindings))
    if isinstance(e, Not):
        return Not(substitute(e.arg, bindings))
    raise TypeError(f"cannot substitute into {type(e).__name__}")


# ---------------------------------------------------------------------------
# Ground evaluation
# ---------------------------------------------------------------------------


def _check_overflow(v: Number) -> Number:
    if isinstance(v, float):
        if math.isinf(v) or math.isnan(v):
            raise EvalError("overflow", "non-finite float result")
        return v
    mag = v if v >= 0 else -v
    if isinstance(mag, Fraction):
        mag = max(abs(mag.numerator), mag.denominator)
    if mag > OVERFLOW_LIMIT:
        raise EvalError("overflow", "magnitude exceeds 2**512")
    return v


def _as_exact_int(v: Number) -> int | None:
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return None


def _normalize(v: Number) -> Number:
    i = _as_exact_int(v)
    return i if i is not None else v


def eval_ground(
    e: Expr, env: Mapping[str, int], *, guarded: bool = False, on_call=None
) -> Number:
    """Evaluate a call-free expression at an integer point.

    Exact (int/Fraction) wherever possible; Log2 and irrational Pow return
    floats.  With guarded=True the feature-evaluation conventions apply:
    log2(x) is 0 for x < 1 and division by zero yields 0.  `on_call` is an
    internal hook used by the recurrence evaluator to resolve Call nodes;
    without it, Call nodes are an error.
    """
    v = _eval(e, env, guarded, on_call)
    return _normalize(v)


def _eval(e: Expr, env: Mapping[str, int], g: bool, cb=None) -> Number:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError("unbound-variable", e.name) from None
    if isinstance(e, Add):
        return _check_overflow(_eval(e.lhs, env, g, cb) + _eval(e.rhs, env, g, cb))
    if isinstance(e, Sub):
        return _check_overflow(_eval(e.lhs, env, g, cb) - _eval(e.rhs, env, g, cb))
    if isinstance(e, Mul):
        return _check_overflow(_eval(e.lhs, env, g, cb) * _eval(e.rhs, env, g, cb))
    if isinstance(e, Div):
        num = _eval(e.lhs, env, g, cb)
        den = _eval(e.rhs, env, g, cb)
        if den == 0:
            if g:
                return 0
            raise EvalError("division-by-zero")
        if isinstance(num, float) or isinstance(den, float):
            return _check_overflow(float(num) / float(den))
        return _check_overflow(Fraction(num) / Fraction(den))
    if isinstance(e, Pow):
        return _eval_pow(e, env, g, cb)
    if isinstance(e, Floor):
        v = _eval(e.arg, env, g, cb)
        return math.floor(v)
    if isinstance(e, Ceil):
        v = _eval(e.arg, env, g, cb)
        return math.ceil(v)
    if isinstance(e, Log2):
        v = _eval(e.arg, env, g, cb)
        if v < 1 and g:
            return 0
        if v <= 0:
            raise EvalError("log2-domain", f"log2 of {v}")
        if isinstance(v, int) and v > 0 and v & (v - 1) == 0:
            return v.bit_length() - 1
        return math.log2(v)
    if isinstance(e, Factorial):
        v = _eval(e.arg, env, g, cb)
        i = _as_exact_int(v)
        if i is None or i < 0:
            raise EvalError("factorial-domain", f"factorial of {v}")
        if i > 300:  # 300! already far beyond the overflow limit
            raise EvalError("overflow", "factorial operand too large")
        return _check_overflow(math.factorial(i))
    if isinstance(e, Max):
        return max(_eval(e.lhs, env, g, cb), _eval(e.rhs, env, g, cb))
    if isinstance(e, Min):
        return min(_eval(e.lhs, env, g, cb), _eval(e.rhs, env, g, cb))
    if isinstance(e, Call):
        if cb is None:
            raise EvalError("call-in-ground", e.func)
        return cb(e, env)
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def _eval_pow(e: Pow, env, g, cb=None) -> Number:
    base = _eval(e.base, env, g, cb)
    exp = _eval(e.exp, env, g, cb)
    exp_i = _as_exact_int(exp) if not isinstance(exp, float) else None
    if exp_i is not None and not isinstance(base, float):
        if exp_i < 0 and base == 0:
            raise EvalError("division-by-zero", "0 to a negative power")
        # the numerator or the denominator of the base is at least
        # 2^(bits - 1), so past this the result surely overflows
        if abs(exp_i) * (_bits(base) - 1) > 512:
            raise EvalError("overflow", "power result too large")
        return _check_overflow(Fraction(base) ** exp_i)
    # Exact square root when it exists, otherwise float.
    if (
        not isinstance(base, float)
        and not isinstance(exp, float)
        and exp == Fraction(1, 2)
        and base >= 0
    ):
        i = _as_exact_int(base)
        if i is not None:
            r = math.isqrt(i)
            if r * r == i:
                return r
            return math.sqrt(i)
    if base < 0 and not float(exp).is_integer():
        raise EvalError("pow-domain", "negative base with non-integer exponent")
    try:
        return _check_overflow(float(base) ** float(exp))
    except OverflowError:
        raise EvalError("overflow", "float power overflow") from None
    except ZeroDivisionError:
        raise EvalError("division-by-zero", "0 to a negative power") from None


def _bits(v: Number) -> int:
    if isinstance(v, Fraction):
        return max(abs(v.numerator), v.denominator).bit_length()
    return abs(v).bit_length()


@functools.cache
def _factorials() -> np.ndarray:
    """float(k!) for k = 0..170, then inf: 171! and beyond overflow a double."""
    import numpy as np

    return np.array([float(math.factorial(k)) for k in range(171)] + [math.inf])


_FLOAT_LIMIT = float(OVERFLOW_LIMIT)


def eval_array(e: Expr, cols: Mapping[str, np.ndarray], *, guarded: bool = False) -> np.ndarray:
    """Evaluate a call-free expression at many integer points at once.

    `cols` maps each variable to a float64 column holding its integer values.
    Where eval_ground succeeds the result is its value in float64; where it
    raises EvalError the entry is nan or inf.  Magnitudes above
    OVERFLOW_LIMIT are checked on the final value only.  `guarded` has the
    meaning it has for eval_ground.  Each node is computed by its rule in
    `array_rules` (see `array_operator`), a leaf by `array_leaf`.
    """
    import numpy as np

    n = len(next(iter(cols.values())))
    with np.errstate(all="ignore"):
        v = _eval_array(np, array_rules(guarded), e, cols)
        v = np.where(np.abs(v) > _FLOAT_LIMIT, np.nan, v)
    return v if v.shape == (n,) else np.full(n, v)


def _eval_array(np, rules, e: Expr, cols):
    """Array (or, for constant subtrees, scalar) value of `e` before the
    final overflow check; see eval_array."""
    t = type(e)
    if t is Var or t is Const:
        return array_leaf(np, e, cols)
    if t is Call:
        raise EvalError("call-in-ground", e.func)
    op, operands = array_operator(e)
    if len(operands) == 2:
        a, b = operands
        return rules[op](_eval_array(np, rules, a, cols), _eval_array(np, rules, b, cols))
    return rules[op](_eval_array(np, rules, operands[0], cols))


# node type -> array operator and operand count (Pow is classified apart)
_ARRAY_OPERATORS = {Var: ("var", 0), Const: ("const", 0), Add: ("add", 2), Sub: ("sub", 2),
                    Mul: ("mul", 2), Div: ("div", 2), Max: ("max", 2), Min: ("min", 2),
                    Floor: ("floor", 1), Ceil: ("ceil", 1), Log2: ("log2", 1),
                    Factorial: ("fact", 1)}


def array_operator(e: Expr) -> tuple[str, tuple[Expr, ...]]:
    """The operator that eval_array applies at `e`, and its operands.  x^2
    and x^3 are the unary square and cube, computed as products, and 2^e
    (e not a constant) is pow2, computed as exp2; other powers are pow.  A
    variable or constant is "var" or "const", with no operands."""
    if type(e) is Pow:
        base, exp = e.base, e.exp
        if type(exp) is Const:
            if exp.value == 2:
                return "square", (base,)
            if exp.value == 3:
                return "cube", (base,)
        elif type(base) is Const and base.value == 2:
            return "pow2", (exp,)
        return "pow", (base, exp)
    try:
        op, arity = _ARRAY_OPERATORS[type(e)]
    except KeyError:
        raise TypeError(f"cannot evaluate {type(e).__name__} on arrays") from None
    if arity == 2:
        return op, (e.lhs, e.rhs)
    return op, (e.arg,) if arity else ()


def array_leaf(np, e: Var | Const, cols: Mapping[str, np.ndarray]):
    """The array value of a variable (its column) or a constant (a float64
    scalar); `np` is the numpy module."""
    if type(e) is Const:
        return np.float64(float(e.value))
    try:
        return cols[e.name]
    except KeyError:
        raise EvalError("unbound-variable", e.name) from None


@functools.cache
def array_rules(guarded: bool) -> dict:
    """Array operator (see array_operator) -> its numpy rule: a function of
    its operands' values, each a float64 column or, for a constant subtree,
    a float64 scalar.  Where eval_ground raises EvalError a rule gives nan
    or inf; `guarded` has the meaning it has for eval_ground.  Call the
    rules under np.errstate(all="ignore")."""
    import numpy as np

    def div(num, den):
        # guarded x/0 is 0, or nan where x itself failed
        return np.where(den == 0, np.abs(num) * 0.0 if guarded else np.nan, num / den)

    def power(a, b):
        bad = ((a < 0) & (b != np.round(b))) | ((a == 0) & (b < 0))
        # np.power(nan, 0) and np.power(1, nan) are 1: keep a failure failed
        bad |= np.isnan(a) | np.isnan(b)
        return np.where(bad, np.nan, np.power(a, b))

    def log2(a):
        if guarded:
            return np.where(a < 1, 0.0, np.log2(a))
        return np.where(a > 0, np.log2(a), np.nan)

    def fact(a):
        ok = (a >= 0) & (a == np.round(a))
        table = _factorials()
        k = np.where(ok, np.minimum(a, len(table) - 1), 0).astype(int)
        return np.where(ok, table[k], np.nan)

    return {
        "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": div,
        "max": np.maximum, "min": np.minimum, "pow": power,
        "square": lambda a: a * a, "cube": lambda a: a * a * a, "pow2": np.exp2,
        "floor": np.floor, "ceil": np.ceil, "log2": log2, "fact": fact,
    }


def array_valid(np, v) -> bool:
    """Whether each entry of `v`, an expression's value by the array rules,
    is a number of magnitude at most OVERFLOW_LIMIT: that is, whether
    eval_array's value of that expression has no nan."""
    return bool(np.abs(v).max() <= _FLOAT_LIMIT)


def eval_bool(c: BoolExpr, env: Mapping[str, int], *, guarded: bool = False) -> bool:
    """Standard boolean semantics; comparisons are exact on the exact path.
    Guards and preconditions are call-free (CaseDef and FuncDef check)."""
    if isinstance(c, TrueExpr):
        return True
    if isinstance(c, Not):
        return not eval_bool(c.arg, env, guarded=guarded)
    if isinstance(c, And):
        return eval_bool(c.lhs, env, guarded=guarded) and eval_bool(c.rhs, env, guarded=guarded)
    if isinstance(c, Or):
        return eval_bool(c.lhs, env, guarded=guarded) or eval_bool(c.rhs, env, guarded=guarded)
    if isinstance(c, Cmp):
        a = eval_ground(c.lhs, env, guarded=guarded)
        b = eval_ground(c.rhs, env, guarded=guarded)
        if c.op == "=":
            return a == b
        if c.op == "!=":
            return a != b
        if c.op == "<":
            return a < b
        if c.op == "<=":
            return a <= b
        if c.op == ">":
            return a > b
        return a >= b
    raise TypeError(f"cannot evaluate {type(c).__name__}")
