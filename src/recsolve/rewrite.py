"""Bounded algebraic rewriting of expressions and constraints.

The simplifier normalizes linear combinations (constant folding, identity
and annihilator elimination, like-term collection), applies power laws for
constant bases so that differences of exponentials cancel (2^(x+1) - 2*2^x
becomes 0), removes rounding of provably-integer arguments, and cleans up
boolean guards.  Rules run leftmost-innermost in one pass, whose result is
already normal; idempotence is the tested contract, not confluence.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import (
    Add,
    And,
    BoolExpr,
    Call,
    Ceil,
    Cmp,
    Const,
    Div,
    Expr,
    Factorial,
    Floor,
    Log2,
    Max,
    Min,
    Mul,
    Not,
    Or,
    Pow,
    Sub,
    TRUE,
    TrueExpr,
    Var,
)

FALSE = Not(TRUE)


def simplify(e):
    """Simplify an Expr or BoolExpr; semantics-preserving on integer points."""
    if isinstance(e, (Cmp, And, Or, Not, TrueExpr)):
        return _simp_bool(e)
    return _simp(e)


# ---------------------------------------------------------------------------
# Arithmetic side
# ---------------------------------------------------------------------------


def is_integer_valued(e: Expr) -> bool:
    """Provably integer on integer environments (variables range over ints)."""
    if isinstance(e, Const):
        return e.value.denominator == 1
    if isinstance(e, Var):
        return True
    if isinstance(e, (Add, Sub, Mul)):
        return is_integer_valued(e.lhs) and is_integer_valued(e.rhs)
    if isinstance(e, (Floor, Ceil, Factorial)):
        return True
    if isinstance(e, (Max, Min)):
        return is_integer_valued(e.lhs) and is_integer_valued(e.rhs)
    if isinstance(e, Pow):
        return (
            is_integer_valued(e.base)
            and isinstance(e.exp, Const)
            and e.exp.value.denominator == 1
            and e.exp.value >= 0
        )
    return False


def _sort_key(e: Expr) -> str:
    from .dsl import print_expr

    return print_expr(e)


def _simp(e: Expr) -> Expr:
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, (Add, Sub)):
        return _rebuild_linear(_collect_terms(e))
    if isinstance(e, (Mul, Div)):
        coef, factors = _term_parts(e)
        return _rebuild_term(coef, factors)
    if isinstance(e, Pow):
        return _simp_pow(Pow(_simp(e.base), _simp(e.exp)))
    if isinstance(e, Floor):
        a = _simp(e.arg)
        if is_integer_valued(a):
            return a
        if isinstance(a, Const):
            return Const(Fraction(math.floor(a.value)))
        return Floor(a)
    if isinstance(e, Ceil):
        a = _simp(e.arg)
        if is_integer_valued(a):
            return a
        if isinstance(a, Const):
            return Const(Fraction(math.ceil(a.value)))
        return Ceil(a)
    if isinstance(e, Log2):
        a = _simp(e.arg)
        # log2(2^e) = e holds for every real e; wider constant bases reduce
        # to a multiple when the base is itself a power of two.
        if isinstance(a, Pow) and isinstance(a.base, Const):
            j = _exact_log2(a.base.value)
            if j == 1:
                return a.exp
            if j is not None:
                return _simp(Mul(Const(Fraction(j)), a.exp))
        if isinstance(a, Const) and a.value > 0:
            j = _exact_log2(a.value)
            if j is not None:
                return Const(Fraction(j))
        return Log2(a)
    if isinstance(e, Factorial):
        a = _simp(e.arg)
        if isinstance(a, Const) and a.value.denominator == 1 and 0 <= a.value <= 20:
            return Const(Fraction(math.factorial(int(a.value))))
        return Factorial(a)
    if isinstance(e, Max):
        a, b = _simp(e.lhs), _simp(e.rhs)
        if a == b:
            return a
        if isinstance(a, Const) and isinstance(b, Const):
            return a if a.value >= b.value else b
        return Max(a, b)
    if isinstance(e, Min):
        a, b = _simp(e.lhs), _simp(e.rhs)
        if a == b:
            return a
        if isinstance(a, Const) and isinstance(b, Const):
            return a if a.value <= b.value else b
        return Min(a, b)
    if isinstance(e, Call):
        return Call(e.func, tuple(_simp(a) for a in e.args))
    raise TypeError(f"cannot simplify {type(e).__name__}")


def _exact_log2(v: Fraction) -> int | None:
    if v.denominator == 1:
        n = v.numerator
        if n > 0 and n & (n - 1) == 0:
            return n.bit_length() - 1
    elif v.numerator == 1:
        d = v.denominator
        if d & (d - 1) == 0:
            return -(d.bit_length() - 1)
    return None


def _simp_pow(e: Pow) -> Expr:
    base, exp = e.base, e.exp
    if isinstance(exp, Const):
        if exp.value == 0:
            return Const(Fraction(1))
        if exp.value == 1:
            return base
        if isinstance(base, Const) and exp.value.denominator == 1:
            k = int(exp.value)
            if base.value == 0 and k < 0:
                return e
            if abs(k) * _const_bits(base.value) <= 256:
                return Const(base.value**k)
    if isinstance(base, Const):
        # pull additive constants out of the exponent: c^(t + k) = c^k * c^t
        terms = _collect_terms(exp)
        shift = terms.pop((), Fraction(0))
        if shift.denominator == 1 and shift != 0 and terms:
            k = int(shift)
            if abs(k) * _const_bits(base.value) <= 256 and base.value != 0:
                rest = _rebuild_linear(terms)
                return _rebuild_term(
                    base.value**k, [Pow(base, rest)] if rest != Const(Fraction(0)) else []
                )
    if isinstance(base, Pow) and isinstance(base.base, Const):
        # (c^a)^b = c^(a*b)
        return _simp_pow(Pow(base.base, _simp(Mul(base.exp, exp))))
    return Pow(base, exp)


def _const_bits(v: Fraction) -> int:
    return max(abs(v.numerator), v.denominator).bit_length()


def _collect_terms(e: Expr) -> dict:
    """Flatten an additive chain into {factor-tuple: coefficient}.

    The empty tuple keys the constant term.  Factors inside each term are
    simplified and sorted, products distribute over embedded sums, and equal
    factor products merge by adding coefficients.
    """
    acc: dict[tuple, Fraction] = {}

    def add_term(coef: Fraction, factors: tuple):
        acc[factors] = acc.get(factors, Fraction(0)) + coef
        if acc[factors] == 0:
            del acc[factors]

    def emit(coef: Fraction, factors: list):
        if coef == 0:
            return
        for i, f in enumerate(factors):
            if isinstance(f, (Add, Sub)):
                rest = factors[:i] + factors[i + 1 :]
                for sfac, scoef in _collect_terms(f).items():
                    merged = _merge_const_base_powers(rest + list(sfac))
                    merged.sort(key=_sort_key)
                    emit(coef * scoef, merged)
                return
        add_term(coef, tuple(factors))

    def visit(node: Expr, sign: int):
        if isinstance(node, Add):
            visit(node.lhs, sign)
            visit(node.rhs, sign)
        elif isinstance(node, Sub):
            visit(node.lhs, sign)
            visit(node.rhs, -sign)
        else:
            coef, factors = _term_parts(node)
            emit(coef * sign, factors)

    visit(e, 1)
    return acc


def _term_parts(e: Expr) -> tuple[Fraction, list[Expr]]:
    """Split a multiplicative chain into (rational coefficient, factor list).

    Division folds into the coefficient only for non-zero constant divisors;
    a variable divisor keeps its Div node intact (floor(a/b) relies on the
    shape downstream)."""
    coef = Fraction(1)
    factors: list[Expr] = []

    def visit(node: Expr):
        nonlocal coef
        if isinstance(node, Mul):
            visit(node.lhs)
            visit(node.rhs)
            return
        if isinstance(node, Div):
            den = _simp(node.rhs)
            if isinstance(den, Const) and den.value != 0:
                coef /= den.value
                visit(node.lhs)
            else:
                factors.append(Div(_simp(node.lhs), den))
            return
        node = _simp(node)
        if isinstance(node, Const):
            coef *= node.value
            return
        if isinstance(node, (Mul, Div)):
            visit(node)
            return
        factors.append(node)

    visit(e)
    if coef == 0:
        return Fraction(0), []
    factors = _merge_const_base_powers(factors)
    factors.sort(key=_sort_key)
    return coef, factors


def _merge_const_base_powers(factors: list[Expr]) -> list[Expr]:
    """a^b * a^c -> a^(b+c) for constant a; constant shifts join the coefficient."""
    by_base: dict[Fraction, list[Expr]] = {}
    rest: list[Expr] = []
    for f in factors:
        if isinstance(f, Pow) and isinstance(f.base, Const):
            by_base.setdefault(f.base.value, []).append(f.exp)
        else:
            rest.append(f)
    for base_v, exps in sorted(by_base.items(), key=lambda kv: str(kv[0])):
        total = exps[0]
        for x in exps[1:]:
            total = Add(total, x)
        merged = _simp_pow(Pow(Const(base_v), _simp(total)))
        rest.append(merged)
    return rest


def _rebuild_term(coef: Fraction, factors) -> Expr:
    factors = list(factors)
    if coef == 0:
        return Const(Fraction(0))
    out: Expr | None = None
    for f in factors:
        out = f if out is None else Mul(out, f)
    if out is None:
        return Const(coef)
    if coef == 1:
        return out
    return Mul(Const(coef), out)


def _rebuild_linear(terms: dict) -> Expr:
    if not terms:
        return Const(Fraction(0))
    items = sorted(terms.items(), key=lambda kv: (len(kv[0]) == 0, [_sort_key(f) for f in kv[0]]))
    out: Expr | None = None
    for factors, coef in items:
        piece = _rebuild_term(coef, factors)
        if out is None:
            out = piece
        elif isinstance(piece, Mul) and isinstance(piece.lhs, Const) and piece.lhs.value < 0:
            out = Sub(out, _rebuild_term(-coef, factors))
        elif isinstance(piece, Const) and piece.value < 0:
            out = Sub(out, Const(-piece.value))
        else:
            out = Add(out, piece)
    return out


# ---------------------------------------------------------------------------
# Boolean side
# ---------------------------------------------------------------------------

# Sign sets of (lhs - rhs) admitted by each comparison operator.
_REL = {
    "=": frozenset("0"),
    "!=": frozenset("-+"),
    "<": frozenset("-"),
    "<=": frozenset("-0"),
    ">": frozenset("+"),
    ">=": frozenset("0+"),
}
_NEG = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_FLIP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _simp_bool(b: BoolExpr) -> BoolExpr:
    if isinstance(b, TrueExpr):
        return b
    if isinstance(b, Cmp):
        lhs, rhs = _simp(b.lhs), _simp(b.rhs)
        if isinstance(lhs, Const) and isinstance(rhs, Const):
            return TRUE if _cmp_consts(b.op, lhs.value, rhs.value) else FALSE
        return Cmp(b.op, lhs, rhs)
    if isinstance(b, Not):
        a = _simp_bool(b.arg)
        if isinstance(a, Not):
            return a.arg
        if isinstance(a, Cmp):
            return Cmp(_NEG[a.op], a.lhs, a.rhs)
        if isinstance(a, TrueExpr):
            return FALSE
        # De Morgan keeps guards in a shape the subsumption pass can use.
        if isinstance(a, And):
            return _simp_bool(Or(Not(a.lhs), Not(a.rhs)))
        if isinstance(a, Or):
            return _simp_bool(And(Not(a.lhs), Not(a.rhs)))
        return Not(a)
    if isinstance(b, And):
        return _simp_junction(b, And, Or)
    if isinstance(b, Or):
        return _simp_junction(b, Or, And)
    raise TypeError(f"cannot simplify {type(b).__name__}")


def _cmp_consts(op: str, a: Fraction, c: Fraction) -> bool:
    return {
        "=": a == c,
        "!=": a != c,
        "<": a < c,
        "<=": a <= c,
        ">": a > c,
        ">=": a >= c,
    }[op]


def _flatten(b: BoolExpr, junction) -> list[BoolExpr]:
    """The operands of a chain of `junction` nodes, left to right, however
    deep the chain (no recursion)."""
    out: list[BoolExpr] = []
    stack = [b]
    while stack:
        b = stack.pop()
        if isinstance(b, junction):
            stack += (b.rhs, b.lhs)
        else:
            out.append(b)
    return out


def _same_sides(a: Cmp, b: Cmp) -> str | None:
    """If b compares the same two expressions as a, return b's op oriented
    like a; otherwise None."""
    if a.lhs == b.lhs and a.rhs == b.rhs:
        return b.op
    if a.lhs == b.rhs and a.rhs == b.lhs:
        return _FLIP[b.op]
    return None


def _simp_junction(b: BoolExpr, junction, dual) -> BoolExpr:
    conj = junction is And
    unit, absorber = (TRUE, FALSE) if conj else (FALSE, TRUE)
    parts: list[BoolExpr] = []
    for p in _flatten(b, junction):
        p = _simp_bool(p)
        if p == unit:
            continue
        if p == absorber:
            return absorber
        parts.extend(_flatten(p, junction))
    # structural dedup, then pairwise comparison subsumption
    seen: list[BoolExpr] = []
    for p in parts:
        if p not in seen:
            seen.append(p)
    parts = seen
    # absorption: A and (A or B) -> A ; A or (A and B) -> A
    def absorbed(p):
        if isinstance(p, dual):
            sub = _flatten(p, dual)
            return any(q in parts and q != p for q in sub)
        return False

    parts = [p for p in parts if not absorbed(p)]
    drop: set[int] = set()
    for i, p in enumerate(parts):
        if not isinstance(p, Cmp):
            continue
        for j, q in enumerate(parts):
            if i == j or j in drop or i in drop or not isinstance(q, Cmp):
                continue
            q_op = _same_sides(p, q)
            if q_op is None:
                continue
            sp, sq = _REL[p.op], _REL[q_op]
            if conj:
                if not (sp & sq):
                    return FALSE
                if sp <= sq:
                    drop.add(j)  # p is stronger, q is implied
            else:
                if sp | sq == frozenset("-0+"):
                    return TRUE
                if sq <= sp:
                    drop.add(j)  # p is weaker, q is absorbed
    parts = [p for k, p in enumerate(parts) if k not in drop]
    if conj:
        # a disjunction is redundant once a conjunct implies one of its arms
        def redundant(p):
            if not isinstance(p, Or):
                return False
            arms = _flatten(p, Or)
            for q in parts:
                if not isinstance(q, Cmp):
                    continue
                for arm in arms:
                    if isinstance(arm, Cmp):
                        arm_op = _same_sides(q, arm)
                        if arm_op is not None and _REL[q.op] <= _REL[arm_op]:
                            return True
            return False

        parts = [p for p in parts if not redundant(p)]
    if not parts:
        return unit
    out = parts[0]
    for p in parts[1:]:
        out = junction(out, p)
    return out
