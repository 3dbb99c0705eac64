import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recsolve.dsl import parse_bool, parse_expr
from recsolve.model import (
    Add,
    Call,
    Ceil,
    Const,
    Div,
    EvalError,
    Factorial,
    Floor,
    Log2,
    Max,
    Min,
    Mul,
    Pow,
    Sub,
    Var,
    eval_array,
    eval_bool,
    eval_ground,
    free_vars,
    substitute,
    walk,
)


def test_square_at_five():
    assert eval_ground(parse_expr("x^2"), {"x": 5}) == 25


def test_ceil_log2_at_five():
    assert eval_ground(parse_expr("ceil(log2(x))"), {"x": 5}) == 3


def test_additive_identity_with_zero_coefficient():
    assert eval_ground(parse_expr("x + 0*y"), {"x": 7, "y": 9}) == 7


def test_exact_integer_results_on_exact_ops():
    e = parse_expr("floor(3*x) + ceil(y) + max(x, y) + fact(x) - min(x, y)")
    v = eval_ground(e, {"x": 4, "y": 2})
    assert isinstance(v, int)
    assert v == 12 + 2 + 4 + 24 - 2


def test_division_keeps_exact_rationals():
    v = eval_ground(parse_expr("1/3"), {})
    assert v == Fraction(1, 3)


def test_log2_power_of_two_is_exact_int():
    assert eval_ground(parse_expr("log2(x)"), {"x": 8}) == 3


def test_log2_domain_error_and_guard():
    with pytest.raises(EvalError):
        eval_ground(parse_expr("log2(x)"), {"x": 0})
    assert eval_ground(parse_expr("log2(x)"), {"x": 0}, guarded=True) == 0


def test_division_by_zero_error_and_guard():
    with pytest.raises(EvalError):
        eval_ground(parse_expr("x/y"), {"x": 3, "y": 0})
    assert eval_ground(parse_expr("x/y"), {"x": 3, "y": 0}, guarded=True) == 0


def test_factorial_domain_errors():
    with pytest.raises(EvalError):
        eval_ground(parse_expr("fact(x)"), {"x": -1})
    with pytest.raises(EvalError):
        eval_ground(parse_expr("(1/2)!"), {})


def test_overflow_is_an_error_not_a_wrap():
    with pytest.raises(EvalError) as exc:
        eval_ground(parse_expr("2^x"), {"x": 1000})
    assert exc.value.kind == "overflow"


def test_integer_sqrt_exact_on_perfect_squares():
    assert eval_ground(parse_expr("floor(x^(1/2))"), {"x": 16}) == 4
    assert eval_ground(parse_expr("floor(x^(1/2))"), {"x": 17}) == 4


def test_eval_bool_examples():
    assert eval_bool(parse_bool("x = 0"), {"x": 0}) is True
    assert eval_bool(parse_bool("x > 0 and y > 0"), {"x": 3, "y": 0}) is False
    assert eval_bool(parse_bool("x + y >= 1"), {"x": 0, "y": 1}) is True


def test_substitute_examples():
    e = parse_expr("f(x-1)")
    out = substitute(e, {"x": parse_expr("y+1")})
    assert out == parse_expr("f((y+1)-1)")
    x = parse_expr("x")
    assert substitute(x, {}) == x


def test_substitution_then_eval_matches_merged_env():
    e = parse_expr("x*y + 2*x")
    bound = substitute(e, {"x": Const(Fraction(3))})
    assert eval_ground(bound, {"y": 4}) == eval_ground(e, {"x": 3, "y": 4})


def test_free_vars_examples():
    assert free_vars(parse_expr("f(f(x-1)) + 1")) == {"x"}
    assert free_vars(parse_expr("7")) == set()
    assert free_vars(parse_expr("max(x, y*z)")) == {"x", "y", "z"}


def test_call_in_ground_eval_is_an_error():
    with pytest.raises(EvalError):
        eval_ground(Call("f", (Var("x"),)), {"x": 1})


_SIMPLE = st.sampled_from(
    [
        "x + y",
        "x*y - 3",
        "max(x, y) + min(x, y)",
        "floor((x + y)/2)",
        "x^2 + 2*x + 1",
        "fact(min(x, 6))",
        "ceil(x/3) * y",
    ]
)


@given(_SIMPLE, st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_eval_ground_is_deterministic(src, x, y):
    e = parse_expr(src)
    env = {"x": x, "y": y}
    assert eval_ground(e, env) == eval_ground(e, env)


@given(st.integers(0, 20), st.integers(0, 20))
@settings(max_examples=40, deadline=None)
def test_substitute_commutes_with_eval(x, y):
    e = parse_expr("x*y + max(x, 3) - min(y, 2)")
    partial = substitute(e, {"x": Const(Fraction(x))})
    assert eval_ground(partial, {"y": y}) == eval_ground(e, {"x": x, "y": y})


def test_exactness_closure_on_integer_ops():
    e = parse_expr("floor(x) + ceil(y) + fact(min(x,5)) + max(x,y) - x*y")
    v = eval_ground(e, {"x": 6, "y": 3})
    assert isinstance(v, int)


def test_negative_float_base_with_integer_exponent():
    # log2(3) - 2 is a negative float; its square is defined
    v = eval_ground(parse_expr("(log2(x) - 2)^2"), {"x": 3})
    assert v == (math.log2(3) - 2) ** 2
    with pytest.raises(EvalError) as exc:
        eval_ground(parse_expr("(log2(x) - 2)^(1/2)"), {"x": 3})
    assert exc.value.kind == "pow-domain"
    with pytest.raises(EvalError) as exc:
        eval_ground(parse_expr("(0/log2(x))^(-1)"), {"x": 3})
    assert exc.value.kind == "division-by-zero"


def test_power_overflow_precheck_is_exact():
    # a base of magnitude 1 never overflows, whatever the exponent
    e = parse_expr("x^600")
    for x in (1, -1):
        assert eval_ground(e, {"x": x}) == 1
        assert eval_array(e, {"x": np.array([float(x)])})[0] == 1.0
    # 3^300 < 2^512: in range although the base takes two bits
    assert eval_ground(parse_expr("(3/2)^300"), {}) == Fraction(3, 2) ** 300
    with pytest.raises(EvalError) as exc:
        eval_ground(parse_expr("(3/2)^400"), {})
    assert exc.value.kind == "overflow"
    # negative exponents are checked before the power is computed
    t0 = time.monotonic()
    with pytest.raises(EvalError) as exc:
        eval_ground(parse_expr("3^(0 - x)"), {"x": 2**24})
    assert exc.value.kind == "overflow"
    assert time.monotonic() - t0 < 0.1
    assert eval_ground(parse_expr("2^(0 - x)"), {"x": 512}) == Fraction(1, 2**512)


# -- eval_array against eval_ground ---------------------------------------------

# Leaves are x, y in [0, 12] and small constants; factorial and the general
# power take leaves only, floor and ceil take leaves, leaf quotients or leaf
# logarithms, and trees are at most three operators deep.  Exact values then
# stay below 2^400, so no intermediate result overflows (eval_array checks the
# final value only), and no float rounding moves a value across a floor, a
# sign test or a zero test.
_CONSTS = [Fraction(v) for v in (-2, -1, 0, 1, 2, 3)] + [Fraction(1, 2), Fraction(3, 2)]
_LEAF = st.one_of(st.sampled_from([Var("x"), Var("y")]), st.sampled_from(_CONSTS).map(Const))
_EXPONENT = st.sampled_from([Fraction(v) for v in (-1, 0, 2, 3)] + [Fraction(1, 2)]).map(Const)
_ROUNDED = st.one_of(_LEAF, st.builds(Div, _LEAF, _LEAF), st.builds(Log2, _LEAF))


def _exprs(depth: int):
    if depth == 0:
        return _LEAF
    sub = _exprs(depth - 1)
    return st.one_of(
        _LEAF,
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub),
        st.builds(Max, sub, sub),
        st.builds(Min, sub, sub),
        st.builds(Pow, sub, _EXPONENT),
        st.builds(Pow, _LEAF, _LEAF),
        st.builds(Log2, sub),
        st.builds(Factorial, _LEAF),
        st.builds(Floor, _ROUNDED),
        st.builds(Ceil, _ROUNDED),
    )


@given(
    _exprs(3),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=8),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_eval_array_agrees_with_eval_ground(e, points, guarded):
    cols = {
        "x": np.array([float(x) for x, _ in points]),
        "y": np.array([float(y) for _, y in points]),
    }
    got = eval_array(e, cols, guarded=guarded)
    assert got.shape == (len(points),)
    for (x, y), v in zip(points, got):
        env = {"x": x, "y": y}
        try:
            want = float(eval_ground(e, env, guarded=guarded))
        except EvalError:
            assert not math.isfinite(v), (e, env, v)
            continue
        # float rounding of an intermediate value bounds the error: relative
        # to the result, or to the largest intermediate where terms cancel
        scale = max(
            abs(float(eval_ground(n, env, guarded=guarded)))
            for n in walk(e)
        )
        assert math.isclose(v, want, rel_tol=1e-12, abs_tol=1e-12 * scale), (e, env, v, want)


def test_eval_array_overflow_and_guards():
    cols = {"x": np.array([0.0, 3.0, 100.0, 600.0])}

    def arr(src, guarded=False):
        return list(eval_array(parse_expr(src), cols, guarded=guarded))

    # beyond 2^512 a value is an error, as exact evaluation says
    assert [math.isfinite(v) for v in arr("2^x")] == [True, True, True, False]
    assert [math.isfinite(v) for v in arr("x!")] == [True, True, False, False]
    assert arr("log2(x)", guarded=True)[0] == 0.0
    assert arr("x/(x - 3)", guarded=True)[1] == 0.0
    assert not math.isfinite(arr("x/(x - 3)")[1])
    # a guarded quotient by zero stays an error where its numerator is one
    assert not math.isfinite(arr("(x - 4)^(1/2)/(x - 3)", guarded=True)[1])
    assert arr("7") == [7.0] * 4
