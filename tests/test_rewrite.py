import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recsolve.dsl import parse_bool, parse_expr, print_bool, print_expr
from recsolve.model import EvalError, eval_bool, eval_ground, free_vars
from recsolve.rewrite import simplify

from conftest import corpus_files


def test_exponential_difference_cancels():
    assert simplify(parse_expr("2^(x+1) - 2*2^x")) == parse_expr("0")


def test_additive_identity():
    assert simplify(parse_expr("x + 0")) == parse_expr("x")


def test_multiplicative_identity_and_annihilator():
    assert simplify(parse_expr("1*x")) == parse_expr("x")
    assert simplify(parse_expr("0*x + 5")) == parse_expr("5")


def test_log2_of_power():
    assert simplify(parse_expr("log2(2^x)")) == parse_expr("x")


def test_power_laws_constant_base():
    assert simplify(parse_expr("2^x * 2^y")) == simplify(parse_expr("2^(x+y)"))
    assert simplify(parse_expr("(2^x)^2")) == simplify(parse_expr("2^(2*x)"))


def test_like_term_collection():
    assert simplify(parse_expr("3*x + 2*x - 5*x")) == parse_expr("0")
    assert simplify(parse_expr("x + x")) == parse_expr("2*x")


def test_rounding_of_integer_arguments_removed():
    assert simplify(parse_expr("floor(x)")) == parse_expr("x")
    assert simplify(parse_expr("ceil(x*y + 3)")) == simplify(parse_expr("x*y + 3"))
    # a genuine fraction keeps its floor
    assert "floor" in print_expr(simplify(parse_expr("floor(x/2)")))


def test_boolean_rules():
    assert print_bool(simplify(parse_bool("not not x > 0"))) == "x > 0"
    assert print_bool(simplify(parse_bool("x > 0 and not x = 0"))) == "x > 0"
    assert print_bool(simplify(parse_bool("x >= 0 and x > 0"))) == "x > 0"
    assert print_bool(simplify(parse_bool("true and x > 0"))) == "x > 0"
    assert simplify(parse_bool("x > 0 and x = 0")) == simplify(parse_bool("not true"))


def test_disjunction_absorbed_by_conjunct():
    got = simplify(parse_bool("x > 0 and (x != 0 or y != 0)"))
    assert print_bool(got) == "x > 0"


_EXPRS = [
    "2^(x+1) - 2*2^x",
    "x*(y + 1) - x*y - x",
    "3*(x - 1) + 3",
    "max(x, x)",
    "floor((2*x)/2)",
    "(x + y)^0",
    "x^1 + 0*y",
    "2^x * 2^2",
    "log2(4^x)",
    "min(x + 0, 1*x)",
    "x/2 + x/2",
    "fact(3) + x",
]


@pytest.mark.parametrize("src", _EXPRS)
def test_idempotence(src):
    e = parse_expr(src)
    s1 = simplify(e)
    assert simplify(s1) == s1


@pytest.mark.parametrize("src", _EXPRS)
def test_soundness_on_random_points(src):
    e = parse_expr(src)
    s = simplify(e)
    rng = random.Random(4)
    names = sorted(free_vars(e)) or ["x"]
    for _ in range(300):
        env = {n: rng.randint(0, 40) for n in names}
        try:
            before = eval_ground(e, env)
        except EvalError:
            continue
        after = eval_ground(s, env)
        if isinstance(before, float) or isinstance(after, float):
            assert abs(float(before) - float(after)) <= 1e-9 * max(1.0, abs(float(before)))
        else:
            assert before == after


def test_soundness_on_corpus_expressions():
    """Every case body and expected form across the corpus evaluates the
    same before and after rewriting (exact on integer paths)."""
    rng = random.Random(7)
    exprs = []
    for bf in corpus_files().values():
        for f in bf.system.functions.values():
            names = f.params
            for c in f.cases:
                exprs.append((c.body, names))
        if bf.expect:
            for p in bf.expect.pieces:
                exprs.append((p.body, bf.system.entry_func.params))
    assert exprs
    for e, names in exprs:
        s = simplify(e)
        for _ in range(40):
            env = {n: rng.randint(0, 25) for n in names}
            try:
                before = eval_ground(e, env, guarded=True)
            except EvalError:
                continue
            after = eval_ground(s, env, guarded=True)
            if isinstance(before, float) or isinstance(after, float):
                assert abs(float(before) - float(after)) <= 1e-9 * max(1.0, abs(float(before)))
            else:
                assert before == after, print_expr(e)


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_simplify_preserves_bool_semantics(x, y, z):
    env = {"x": x, "y": y, "z": z}
    for src in [
        "x > 0 and not (x = 0)",
        "not (x > 0 and y > 0)",
        "x = 0 or (x != 0 and y <= z)",
        "not not (x >= y)",
    ]:
        b = parse_bool(src)
        assert eval_bool(simplify(b), env) == eval_bool(b, env)


def test_pass_bound_respected():
    # one rewriting pass collects a 60-term sum, and its result is normal
    s = simplify(parse_expr(" + ".join(["(x + 1)"] * 60)))
    assert s == parse_expr("60*x + 60")
    assert simplify(s) == s


# expression text over the operators the .rec parser reads; exponents and
# factorial arguments stay small so that every value is cheap to compute
_LEAF = st.sampled_from(["x", "y", "0", "1", "2", "3", "1/2"])
_EXPR_TEXT = st.recursive(
    _LEAF,
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, st.sampled_from(["0", "1", "2", "3", "x"])).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(["floor", "ceil", "log2"]), sub).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["max", "min"]), sub, sub).map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
        st.sampled_from(["x", "y", "3"]).map(lambda a: f"{a}!"),
    ),
    max_leaves=12,
)
_BOOL_TEXT = st.recursive(
    st.tuples(_EXPR_TEXT, st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]), _EXPR_TEXT)
    .map(" ".join) | st.just("true"),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(["and", "or"]), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        sub.map(lambda b: f"not ({b})"),
    ),
    max_leaves=3,
)
_POINTS = [{"x": x, "y": y} for x, y in [(0, 0), (1, 0), (0, 2), (3, 1), (2, 5), (6, 4)]]


def _same_value(before, after):
    if isinstance(before, float) or isinstance(after, float):
        return math.isclose(float(before), float(after), rel_tol=1e-9, abs_tol=1e-9)
    return before == after


@given(st.one_of(
    _EXPR_TEXT.map(lambda t: (parse_expr(t), eval_ground)),
    _BOOL_TEXT.map(lambda t: (parse_bool(t), eval_bool)),
))
@settings(max_examples=300, deadline=None)
def test_simplify_is_one_idempotent_sound_pass(drawn):
    e, evaluate = drawn
    s = simplify(e)
    assert simplify(s) == s
    for env in _POINTS:
        try:
            before = evaluate(e, env)
        except (EvalError, OverflowError):
            continue
        assert _same_value(before, evaluate(s, env)), env
