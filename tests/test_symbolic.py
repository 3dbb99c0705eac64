import collections
import gc
import math
import multiprocessing
import os
import random
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recsolve import dsl, symbolic
from recsolve.dsl import parse_expr, print_expr
from recsolve.evaluator import Evaluator
from recsolve.linear import guess_linear
from recsolve.model import Const, EvalError, Var, _eval_array, array_rules, eval_array, eval_ground
from recsolve.symbolic import (
    _BUILD,
    COSTS,
    _build,
    _const_leaf,
    GPConfig,
    OperatorSet,
    _at,
    _crossover,
    _mutate,
    _nelder_mead,
    _node,
    _perturb_const,
    _random_tree,
    _replace,
    _Tree,
    evolve,
    guess_symbolic,
    optimize_constants_tree,
    tree_loss,
)


def test_constant_targets_front():
    front = evolve(
        [(i,) for i in range(10)],
        [5.0] * 10,
        ("x",),
        cfg=GPConfig(populations=4, population_size=12, iterations=8, seed=1),
    )
    best = front.pareto()[0]
    assert best.complexity == 1
    assert best.loss < 1e-9
    assert abs(eval_array(best.tree, {"x": np.array([0.0])})[0] - 5.0) < 1e-3


def test_exp_sum_found_with_restricted_operators():
    ops = OperatorSet(binary=("add", "mul"), unary=("pow2",))
    rng = random.Random(3)
    ins = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(60)]
    ys = [float(2 ** (a + b)) for a, b in ins]
    hit = False
    for seed in range(5):
        front = evolve(
            ins, ys, ("x", "y"), ops,
            GPConfig(populations=10, population_size=25, iterations=20, seed=seed),
        )
        if min(e.loss for e in front.pareto()) == 0.0:
            hit = True
            break
    assert hit


def test_optimize_constants_linear_scale():
    xs = np.arange(1.0, 20.0)
    tuned = optimize_constants_tree(parse_expr("17/10*x"), {"x": xs}, 2.0 * xs)
    v = eval_ground(tuned, {"x": 1})
    assert abs(float(v) - 2.0) < 1e-3


def test_optimize_constants_no_constants_is_identity():
    e = parse_expr("x + y")
    cols = {"x": np.array([1.0, 2.0]), "y": np.array([2.0, 3.0])}
    assert optimize_constants_tree(e, cols, np.array([3.0, 5.0])) == e


def test_optimize_constants_affine():
    xs = np.arange(12.0)
    tuned = optimize_constants_tree(parse_expr("1 + 2*x"), {"x": xs}, 3.0 + 5.0 * xs)
    a = float(eval_ground(tuned, {"x": 0}))
    b = float(eval_ground(tuned, {"x": 1})) - a
    # independent normal-equations oracle for the same data
    X = np.array([[1.0, i] for i in range(12)])
    y = np.array([3.0 + 5.0 * i for i in range(12)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert abs(a - coef[0]) < 1e-3
    assert abs(b - coef[1]) < 1e-3


def test_optimize_constants_never_worse():
    cols = {"x": np.arange(1.0, 15.0)}
    ys = 3.0 * cols["x"]
    before = parse_expr("3*x")  # already optimal
    after = optimize_constants_tree(before, cols, ys)
    la = tree_loss(after, cols, ys)
    lb = tree_loss(before, cols, ys)
    assert la <= lb + 1e-12


def _smooth_objective(rng: random.Random, n: int):
    """A seeded objective in `n` variables whose values do not tie: a
    weighted quadratic bowl with a sine and a cosine ripple, computed in
    Python floats whether it is given a list or a numpy array."""
    centre = [rng.uniform(-3, 3) for _ in range(n)]
    weight = [rng.uniform(0.1, 5) for _ in range(n)]
    ripple = rng.uniform(0, 2)

    def f(x):
        x = [float(v) for v in x]
        s = 0.0
        for v, c, w in zip(x, centre, weight):
            s += w * (v - c) * (v - c)
        return s + ripple * math.sin(3 * x[0]) + 0.1 * math.cos(sum(x))

    return f


def test_nelder_mead_is_scipys_bit_for_bit():
    """The port returns scipy's Nelder-Mead point, bit for bit, in 1 to 6
    variables and at budgets of 5, 40 and 200 evaluations.  Among these
    cases the budget runs out in the initial simplex, in an expansion and
    in the middle of a shrink, and a zero start coordinate takes the
    0.00025 step.  scipy is the oracle here only; it is in the test extra,
    not a dependency."""
    minimize = pytest.importorskip("scipy.optimize").minimize

    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        f = _smooth_objective(rng, n)
        x0 = [rng.choice([0.0, rng.uniform(-4, 4)]) for _ in range(n)]
        for maxfev in (5, 40, 200):
            opts = {"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-12}
            want = minimize(f, np.array(x0), method="Nelder-Mead", options=opts).x
            got = _nelder_mead(f, x0, maxfev, 1e-10, 1e-12)
            assert [v.hex() for v in got] == [float(v).hex() for v in want], (seed, maxfev)


def test_nelder_mead_keeps_tied_vertices_in_order():
    """On a plateau objective vertices tie.  Ties keep their order (a stable
    sort), so the point is the same on every machine; ordering ties the
    other way returns (0.000229..., 3.9667...) here instead."""
    def plateau(x):
        return float(sum(abs(math.floor((v - c) / 0.5)) for v, c in zip(x, (3, 0))))

    got = _nelder_mead(plateau, [0.0, 4.0], 40, 1e-10, 1e-12)
    assert [v.hex() for v in got] == ["0x1.0624dd2f1a9fcp-12", "0x1.e666666666666p+1"]


def test_tree_loss_range_pass_is_skipped_only_where_it_cannot_matter():
    """Below 2^460 a target cannot bring a value past 2^512 back into the
    float range of a squared residual; at 2^511 it can, and there the loss
    is still inf, as eval_array's nan makes it."""
    cols = {"x": np.ones(5)}
    below = 2.0 ** 460 * (1 - 2.0 ** -53)
    for value in (2 ** 512, 2 ** 512 + 2 ** 460, -(2 ** 512 + 2 ** 460), 2 ** 600):
        tree = Const(Fraction(value))
        for target in (0.0, below, -below, 2.0 ** 460, 2.0 ** 511, -(2.0 ** 511)):
            ys = np.full(5, target)
            with np.errstate(over="ignore"):
                got = tree_loss(tree, cols, ys)
            assert got == _old_loss(tree, cols, ys), (value, target)
    assert tree_loss(Const(Fraction(2 ** 512 + 2 ** 460)), cols, np.full(5, 2.0 ** 511)) == math.inf


def test_front_respects_complexity_cap_and_operator_set(monkeypatch):
    monkeypatch.setattr(symbolic, "MAX_COMPLEXITY", 12)
    ops = OperatorSet(binary=("add", "mul"), unary=("square",))
    front = evolve(
        [(i,) for i in range(12)],
        [float(i * i + 1) for i in range(12)],
        ("x",),
        ops,
        GPConfig(populations=6, population_size=16, iterations=12, seed=2),
    )
    allowed = {"add", "mul", "square", "var", "const"}
    for entry in front.pareto():
        assert entry.complexity <= 12
        t = _Tree(entry.tree)
        tags = {_at(t, i).tag for i in range(t.size)}
        assert tags <= allowed


def test_front_is_pareto():
    front = evolve(
        [(i,) for i in range(15)],
        [float(2 * i + 1) for i in range(15)],
        ("x",),
        cfg=GPConfig(populations=6, population_size=20, iterations=12, seed=4),
    )
    entries = front.pareto()
    for a in entries:
        for b in entries:
            if a is b:
                continue
            assert not (b.loss <= a.loss and b.complexity < a.complexity and b.loss < a.loss)
    comps = [e.complexity for e in entries]
    losses = [e.loss for e in entries]
    assert comps == sorted(comps)
    assert losses == sorted(losses, reverse=True)


def test_node_costs():
    assert _Tree(Var("x")).complexity == 1
    assert _Tree(parse_expr("floor(x)")).complexity == 3  # floor costs 2
    assert _Tree(parse_expr("x^4")).complexity == 5  # pow costs 3
    assert _Tree(parse_expr("2^(x + y)")).complexity == 4


def test_fitness_matches_tree_walking_oracle():
    """Vectorized evaluation agrees with a direct per-row interpreter over
    the ground semantics."""
    rng = random.Random(9)
    exprs = [
        "x + 2*y",
        "max(x, y) * 3",
        "floor(x/2) + ceil(y/3)",
        "2^x - y^2",
        "x^2 + y",
    ]
    rows = [(rng.randint(0, 10), rng.randint(1, 10)) for _ in range(30)]
    cols = {
        "x": np.array([float(a) for a, _ in rows]),
        "y": np.array([float(b) for _, b in rows]),
    }
    for src in exprs:
        e = parse_expr(src)
        vec = eval_array(e, cols)
        for i, (a, b) in enumerate(rows):
            direct = float(eval_ground(e, {"x": a, "y": b}))
            assert math.isclose(vec[i], direct, rel_tol=1e-12, abs_tol=1e-9), src


def test_invalid_rows_score_infinite_loss():
    cols = {"x": np.array([0.0, 2.0])}
    assert tree_loss(parse_expr("log2(x)"), cols, np.array([0.0, 1.0])) == math.inf
    assert tree_loss(parse_expr("1/x"), cols, np.array([0.0, 0.5])) == math.inf


def _tags(src):
    t = _Tree(parse_expr(src))
    return [_at(t, i).tag for i in range(t.size)]


def test_gp_node_at_replace_roundtrip():
    """Every GP node can be put back in place; square, cube and pow2 carry
    their constant inside the node."""
    for src in ["x + y", "2^x", "x^2", "x^3", "x^y", "x!", "floor(x/2)", "max(x, 3)"]:
        t = _Tree(parse_expr(src))
        for i in range(t.size):
            assert _replace(t, i, _at(t, i)).expr == t.expr
    assert _tags("x^2 + 2^x") == ["add", "square", "var", "pow2", "var"]
    assert _tags("x^4") == ["pow", "var", "const"]
    assert _replace(_Tree(parse_expr("x^2 + y")), 1, _Tree(Var("y"))).expr == parse_expr("y + y")


def _walk(e):
    """(tag, size, complexity, preorder) of `e` by a plain walk over _node."""
    tag, kids = _node(e)
    subs = [_walk(k) for k in kids]
    comp = COSTS.get(tag, 1) + sum(s[2] for s in subs) if kids else 1
    return tag, 1 + sum(s[1] for s in subs), comp, [e] + [n for s in subs for n in s[3]]


def _rebuild(e, index, repl):
    """`e` with its preorder-index-th GP node replaced, rebuilt from the root."""

    def go(node, i):
        # (new node, preorder index after the old node)
        if i == index:
            return repl, i + _walk(node)[1]
        tag, kids = _node(node)
        i += 1
        new = []
        for k in kids:
            sub, i = go(k, i)
            new.append(sub)
        return _BUILD[tag](*new) if kids else node, i

    return go(e, 0)[0]


def _check_node(t):
    tag, size, comp, pre = _walk(t.expr)
    assert (t.tag, t.size, t.complexity) == (tag, size, comp)
    assert [_at(t, i).expr for i in range(t.size)] == pre
    assert t.consts == sum(_node(n)[0] == "const" for n in pre)
    for i in range(t.size):
        node = _at(t, i)
        assert (node.tag, node.size, node.complexity) == _walk(node.expr)[:3]
        assert [k.expr for k in node.kids] == list(_node(node.expr)[1])


@pytest.mark.parametrize("ops", [OperatorSet(), OperatorSet(("add", "mul"), ("pow2",))])
def test_gp_node_matches_a_walk_over_node(ops):
    """Each node's tag, size, complexity and preorder match a plain walk,
    for a random tree built node by node as for one derived from its
    expression, and replacing at every index with every node of a second
    tree gives the tree rebuilt from the root, with its cached data right."""
    for seed in range(60):
        rng = random.Random(seed)
        ta = _random_tree(rng, ("x", "y"), ops, 3)
        tb = _random_tree(rng, ("x", "y"), ops, 2)
        a, b = ta.expr, tb.expr
        for t in (ta, tb):
            _check_node(t)
            assert t == _Tree(t.expr) and hash(t) == hash(_Tree(t.expr))
        for i in range(ta.size):
            for j in range(tb.size):
                got = _replace(ta, i, _at(tb, j))
                want = _rebuild(a, i, _walk(b)[3][j])
                assert got.expr == want
                assert got == _Tree(want) and hash(got) == hash(_Tree(want))
                _check_node(got)


def test_gp_node_pow_transitions():
    """A replacement that changes how a power decomposes re-derives the node
    from its expression: 2^x becomes square, cube or pow, x^y becomes square
    or pow2."""
    two, three, five = (Const(Fraction(v)) for v in (2, 3, 5))
    pow2 = _Tree(parse_expr("2^x"))
    assert pow2.tag == "pow2"
    for c, tag, size, comp in [(two, "square", 2, 2), (three, "cube", 2, 2), (five, "pow", 3, 5)]:
        t = _replace(pow2, 1, _Tree(c))
        assert (t.tag, t.size, t.complexity) == (tag, size, comp)
        _check_node(t)
    xy = _Tree(parse_expr("x^y"))
    assert (xy.tag, xy.size, xy.complexity) == ("pow", 3, 5)
    t = _replace(xy, 2, _Tree(two))
    assert (t.tag, t.size, t.complexity, t.expr) == ("square", 2, 2, parse_expr("x^2"))
    t = _replace(xy, 1, _Tree(two))
    assert (t.tag, t.size, t.complexity, t.expr) == ("pow2", 2, 2, parse_expr("2^y"))
    _check_node(t)
    # inside a larger tree only the path is rebuilt; the sibling is shared
    t = _Tree(parse_expr("x^y + (x + 1)"))
    u = _replace(t, 3, _Tree(two))
    assert u.kids[1] is t.kids[1]
    assert (u.kids[0].tag, u.size, u.complexity) == ("square", 6, 6)


def _same_node(got, want):
    """`got` and `want` agree in every cached field, in equality and in
    their expressions."""
    assert (got.tag, got.size, got.complexity, got.consts) == (
        want.tag, want.size, want.complexity, want.consts
    )
    assert hash(got) == hash(want) and got == want and got.kids == want.kids
    assert got.expr == want.expr and print_expr(got.expr) == print_expr(want.expr)


def test_build_gives_pow_and_pow2_the_operator_their_expression_has():
    """A pow or pow2 node built from its operand nodes is the node derived
    from its expression (model.array_operator): for constant operands 2, 3,
    1/2 and -1, made from a Fraction or from a float, and for others."""
    consts = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1)]
    operands = [_Tree(Const(v)) for v in consts] + [_const_leaf(float(v)) for v in consts]
    operands += [_Tree(parse_expr(src)) for src in ("x", "x + 1", "2^x", "x^2", "5")]
    tags = {"pow": collections.Counter(), "pow2": collections.Counter()}
    for a in operands:
        for tag, kids in [("pow2", (a,))] + [("pow", (a, b)) for b in operands]:
            got = _build(tag, kids)
            _same_node(got, _Tree(_BUILD[tag](*[k.expr for k in kids])))
            _check_node(got)
            tags[tag][got.tag] += 1
    assert set(tags["pow"]) == set(tags["pow2"]) == {"square", "cube", "pow2", "pow"}


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]))
def test_float_constant_leaf_is_the_node_of_its_const(value):
    _same_node(_const_leaf(value), _Tree(Const(Fraction(value))))
    assert hash(_const_leaf(value)) == hash(Const(Fraction(value)))


def _old_loss(tree, cols, targets):
    pred = eval_array(tree, cols)
    if not np.all(np.isfinite(pred)):
        return math.inf
    with np.errstate(all="ignore"):
        loss = float(np.mean((pred - targets) ** 2))
    return loss if math.isfinite(loss) else math.inf


def test_tree_loss_is_the_mean_bit_for_bit():
    """The fused loss equals the mean over finite predictions bit for bit,
    and is inf where a row is nan or inf, or squares past the float range."""
    rng = random.Random(5)
    # 0 and negatives give nan (log2, division, factorial); 600 and 2^(8^3)
    # give magnitudes at and above 2^512
    pool = [0, 1, 2, 3, 5, 8, 13, 20, -1, -4, 600]
    checked = {"finite": 0, "inf": 0}
    for seed in range(400):
        ops = OperatorSet() if seed % 2 else OperatorSet(("add", "mul"), ("pow2", "cube"))
        tree = _random_tree(random.Random(seed), ("x", "y"), ops, 3).expr
        n = rng.randint(5, 40)
        cols = {v: np.array([float(rng.choice(pool)) for _ in range(n)]) for v in ("x", "y")}
        scale = rng.choice([1.0, 1e3, 1e150, 2.0 ** 512])
        targets = np.array([rng.uniform(-1, 1) * scale for _ in range(n)])
        with np.errstate(over="ignore"):
            got = tree_loss(tree, cols, targets)
        assert got == _old_loss(tree, cols, targets)
        checked["finite" if math.isfinite(got) else "inf"] += 1
    assert min(checked.values()) > 50
    x8 = {"x": np.array([8.0] * 5)}
    assert eval_array(parse_expr("2^(x^3)"), x8)[0] == 2.0 ** 512
    with np.errstate(over="ignore"):
        assert tree_loss(parse_expr("2^(x^3)"), x8, np.zeros(5)) == math.inf


def test_gp_node_is_not_equal_to_a_non_node():
    x = _Tree(Var("x"))
    assert x.__eq__(Var("x")) is NotImplemented
    assert x != Var("x") and Var("x") != x and x != "x"
    assert x == _Tree(Var("x")) and {_Tree(Var("x")): 1}[x] == 1


def _check_scored(t, cols, y):
    """tree_loss of node `t` is _old_loss of its expression, and the column
    kept on each node of `t` is eval_array's value before its final
    overflow check, both bit for bit."""
    loss = tree_loss(t, cols, y)
    assert loss == _old_loss(t.expr, cols, y)
    assert t._cols is cols
    with np.errstate(all="ignore"):
        for node in (_at(t, i) for i in range(t.size)):
            want = _eval_array(np, array_rules(False), node.expr, cols)
            assert node._cols is cols
            assert np.asarray(node._col).tobytes() == np.asarray(want).tobytes()
    return loss


def test_node_scoring_is_eval_array_bit_for_bit():
    """Children of crossover, mutation and constant perturbation are scored
    from the columns kept on the nodes they share with scored trees, yet
    each loss and column is eval_array's bit for bit: where rows give nan or
    inf, and where a replaced operand turns a power into square, cube, pow2
    or pow."""
    rng = random.Random(11)
    params, ops, rows = ("x", "y"), OperatorSet(), 24
    # 0 and negatives give nan (log2, division, factorial, powers); 40 and
    # 600 give inf or magnitudes past 2^512
    pool = [0.0, 1.0, 2.0, 3.0, 5.0, 8.0, -1.0, -4.0, 40.0, 600.0]
    cols = {v: np.array([rng.choice(pool) for _ in range(rows)]) for v in params}
    y = np.array([rng.uniform(-50, 50) for _ in range(rows)])
    two, three = _Tree(Const(Fraction(2))), _Tree(Const(Fraction(3)))
    counts = collections.Counter()
    with np.errstate(over="ignore"):
        # (tree, index replaced, replacement, index of the power, its new operator)
        for src, index, repl, at, tag in [
            ("x^y", 2, two, 0, "square"),
            ("x^y", 2, three, 0, "cube"),
            ("x^y", 1, two, 0, "pow2"),
            ("x^y", 1, three, 0, "pow"),
            ("2^(x + y)", 1, two, 0, "square"),
            ("2^(x + y)", 1, three, 0, "cube"),
            ("(x - 1)^4 + y", 5, two, 1, "square"),
            ("(x - 1)^4 + y", 5, _Tree(Var("y")), 1, "pow"),
            ("x^y*y", 2, two, 1, "pow2"),
        ]:
            t = _Tree(parse_expr(src))
            _check_scored(t, cols, y)
            u = _replace(t, index, repl)
            assert _at(u, at).tag == tag
            _check_node(u)
            _check_scored(u, cols, y)
        pop = [_random_tree(random.Random(seed), params, ops, 3) for seed in range(40)]
        for t in pop:
            _check_scored(t, cols, y)
        for step in range(1200):
            a, b = rng.choice(pop), rng.choice(pop)
            kind = step % 4
            if kind == 0:
                child = _crossover(rng, a, b)
            elif kind == 1:
                child = _mutate(rng, a, params, ops)
            elif kind == 2:
                child = _perturb_const(rng, a)
            else:  # 2 or 3 in place of a node: powers change operator
                child = _replace(a, rng.randrange(a.size), rng.choice([two, three]))
            _check_node(child)
            counts["shares"] += child._cols is None and any(k._cols is cols for k in child.kids)
            loss = _check_scored(child, cols, y)
            counts["finite" if math.isfinite(loss) else "inf"] += 1
            pop.append(child)
    assert counts["shares"] > 300
    assert min(counts["finite"], counts["inf"]) > 200


def test_node_column_is_kept_for_its_own_columns_only():
    """A node scored on one dict of columns is computed afresh on another,
    even one of equal contents, and so are the nodes it shares with a tree
    scored on the first."""
    t = _Tree(parse_expr("x*x + floor(x/2)"))
    a = {"x": np.arange(1.0, 9.0)}
    b = {"x": np.arange(5.0, 13.0)}
    same_as_a = {"x": a["x"].copy()}
    y = np.zeros(8)
    assert _check_scored(t, a, y) != _check_scored(t, b, y)
    u = _replace(t, 1, _Tree(Var("x")))  # x + floor(x/2): its floor was scored on b
    assert u.kids[1] is t.kids[1] and t.kids[1]._cols is b
    _check_scored(u, a, y)
    assert t.kids[1]._cols is a
    assert _check_scored(t, same_as_a, y) == tree_loss(_Tree(t.expr), a, y)
    assert t._cols is same_as_a


def test_evolve_silences_overflow_whatever_the_callers_errstate():
    """Squares past the float range are no error inside evolve, even under a
    caller's errstate that raises on every floating-point error.  At this
    seed the search scores such trees: without its own errstate it raises."""
    ins = [(x,) for x in range(1, 9)]
    ys = [-(2.0 ** 508) * x for x in range(1, 9)]
    cols, y = {"x": np.arange(1.0, 9.0)}, np.array(ys)
    with np.errstate(all="raise"):
        # 2^(x^3) is 2^512 at x = 8, so its residual there squares past 2^1024
        with pytest.raises(FloatingPointError):
            tree_loss(parse_expr("2^(x^3)"), cols, y)
        front = evolve(ins, ys, ("x",), cfg=GPConfig(4, 16, 8, seed=1))
    assert front.pareto()


def test_evolve_deterministic():
    ins = [(i,) for i in range(12)]
    ys = [float(3 * i + 2) for i in range(12)]
    cfg = GPConfig(populations=5, population_size=14, iterations=10, seed=6)
    f1 = evolve(ins, ys, ("x",), cfg=cfg)
    f2 = evolve(ins, ys, ("x",), cfg=cfg)
    assert [(e.complexity, e.loss, e.tree) for e in f1.pareto()] == [
        (e.complexity, e.loss, e.tree) for e in f2.pareto()
    ]


def _front_key(front):
    return sorted((c, e.loss, e.tree) for c, e in front.entries.items())


def test_evolve_memo_lives_for_one_call():
    """A tree scored on one dataset is scored again on the next: the front on
    B after a run on A equals the front on B alone."""
    ins = [(i,) for i in range(12)]
    ys_a = [float(3 * i + 2) for i in range(12)]
    ys_b = [float(i * i - i) for i in range(12)]
    cfg = GPConfig(populations=5, population_size=14, iterations=10, seed=6)
    alone = evolve(ins, ys_b, ("x",), cfg=cfg)
    evolve(ins, ys_a, ("x",), cfg=cfg)
    after_a = evolve(ins, ys_b, ("x",), cfg=cfg)
    assert _front_key(after_a) == _front_key(alone)


def test_evolve_scores_and_tunes_each_tree_once(monkeypatch):
    """Offspring that repeat a recent tree are not scored again, and an
    island's best is not tuned twice.  One island block, so that every call
    is made in this process, where the counters are."""
    monkeypatch.setattr(symbolic, "available_cpus", lambda: 1)
    blocks = _record_blocks(monkeypatch)
    scored, tuned, tuning = [0], [], [False]
    real_loss, real_tune = symbolic.tree_loss, symbolic.optimize_constants_tree

    def counting_loss(tree, cols, y):
        scored[0] += not tuning[0]  # Nelder-Mead's own evaluations aside
        return real_loss(tree, cols, y)

    def counting_tune(tree, cols, y, max_evals=200):
        if max_evals == 40:
            tuned.append(tree)
        tuning[0] = True
        try:
            return real_tune(tree, cols, y, max_evals)
        finally:
            tuning[0] = False

    monkeypatch.setattr(symbolic, "tree_loss", counting_loss)
    monkeypatch.setattr(symbolic, "optimize_constants_tree", counting_tune)
    cfg = GPConfig(6, 16, 12, seed=2)
    evolve([(i,) for i in range(12)], [float(i * i + 1) for i in range(12)], ("x",), cfg=cfg)
    made = cfg.populations * (
        cfg.population_size + cfg.iterations * (cfg.population_size - 1)
    )
    assert 0 < scored[0] < made
    assert tuned and len(tuned) == len(set(tuned))
    assert blocks == [1]


def _record_blocks(monkeypatch) -> list[int]:
    """The number of island blocks of each evolve call from now on."""
    blocks, run_blocks = [], symbolic._run_blocks

    def recorded(n, run):
        blocks.append(n)
        return run_blocks(n, run)

    monkeypatch.setattr(symbolic, "_run_blocks", recorded)
    return blocks


_XS = [(i,) for i in range(12)]
_XYS = [(i, j) for i in range(5) for j in range(4)]
# name -> evolve's arguments
_BLOCK_CASES = {
    "square": (_XS, [i * i + 1.0 for (i,) in _XS], ("x",), None, GPConfig(6, 16, 12, seed=2)),
    "one-island": (_XS, [3 * i + 2.0 for (i,) in _XS], ("x",), None, GPConfig(1, 14, 10, seed=6)),
    "odd-islands": (_XS, [2.0 ** i for (i,) in _XS], ("x",), None, GPConfig(7, 12, 11, seed=3)),
    "restricted-ops": (
        _XS, [2.0 ** i + i for (i,) in _XS], ("x",),
        OperatorSet(("add", "mul"), ("pow2",)), GPConfig(5, 20, 15, seed=1),
    ),
    "two-variables": (
        _XYS, [a * b + a + 0.0 for a, b in _XYS], ("x", "y"), None, GPConfig(4, 10, 9, seed=9)
    ),
}


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_evolve_front_is_the_same_for_any_block_count(monkeypatch, case):
    """Islands evolved on 1 to 4 CPUs, in one block on one CPU and otherwise
    in two blocks (processes) per CPU, at most one per island, give the
    same front entries, bit for bit, and leave no process behind."""
    islands = _BLOCK_CASES[case][4].populations
    blocks = _record_blocks(monkeypatch)
    fronts = []
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(symbolic, "available_cpus", lambda: cpus)
        fronts.append(evolve(*_BLOCK_CASES[case]).entries)
        assert multiprocessing.active_children() == []
    assert blocks == [1] + [min(islands, 2 * cpus) for cpus in (2, 3, 4)]
    assert fronts[0]
    assert all(f == fronts[0] for f in fronts[1:])


# evolve's Pareto entries (complexity, loss as float.hex, printed tree),
# recorded from an earlier version of the search: a change that makes the
# search faster must reproduce them bit for bit
_XS1 = [(i,) for i in range(1, 13)]
_XYS1 = [(i, j) for i in range(1, 6) for j in range(4)]
_SEED7_XS = [(x,) for x in (10, 11, 14, 4, 13, 9, 8, 7, 18, 1, 16, 19, 2, 12, 15, 3, 5, 20, 6, 17)]
_PINNED = {
    "one-variable": (
        (_XS1, [2.5 * i * i - 1.5 * i + 0.75 for (i,) in _XS1], ("x",), None,
         GPConfig(6, 16, 12, seed=3)),
        [
            (1, "0x1.7b9871c71c71bp+13", "8895782068761987/70368744177664"),
            (2, "0x1.239a800000000p+13", "x^2"),
            (4, "0x1.e3d8fc962fc97p+10", "(1577168875172815/562949953421312)^3*x"),
            (5, "0x1.465d555555555p+9", "(x + x)*x"),
            (7, "0x1.60a5555555555p+8", "x^2 + x^2 + x"),
            (9, "0x1.261f258bf2589p+6",
             "(x + x - log2((725012901443533/2251799813685248)^2))*x"),
            (13, "0x1.585bdffc7ddb0p+2",
             "max(2010909554989207/2251799813685248, ceil(x)^2)"
             "/log2(1875939824389107/1125899906842624) + x*x"),
            (21, "0x1.4b5318fc7a32ep-1",
             "(x + 2272170995322913/2251799813685248"
             " - (x + x)^(-4369015458061185/18014398509481984))"
             "*log2(2849747320791447/1125899906842624)*(x + x - log2(x))"),
        ],
    ),
    "two-variables": (
        (_XYS1, [1.5 * a * b + 0.25 * b + 3.0 for a, b in _XYS1], ("x", "y"), None,
         GPConfig(5, 14, 10, seed=8)),
        [
            (1, "0x1.5ee0000000000p+6", "x"),
            (2, "0x1.01e0000000000p+6", "2^y"),
            (3, "0x1.1f31745d1745dp+5", "x*(3569614472114101/1125899906842624)"),
            (4, "0x1.2980000000000p+4", "y!*x"),
            (5, "0x1.6f00000000000p+3", "x + y*x"),
            (7, "0x1.5c00000000000p+1", "x + (y + y*x)"),
            (9, "0x1.7fffffffffffep-1", "x*y + (y*(3940649688615961/2251799813685248) + x)"),
        ],
    ),
    # constants 2, 3 and others under pow and pow2 turn them into square,
    # cube, pow2 and pow
    "pow-operators": (
        (_XS1, [3.0 * 2.0 ** i + i * i for (i,) in _XS1], ("x",),
         OperatorSet(("add", "mul", "pow"), ("pow2", "square", "cube")), GPConfig(6, 16, 12, seed=2)),
        [
            (1, "0x1.070ffe5555555p+24", "x"),
            (2, "0x1.dbeb74aaaaaabp+22", "2^x"),
            (4, "0x1.178a87bf923c5p+21", "727427712557497/140737488355328*x^3"),
            (5, "0x1.f15892aaaaaabp+20", "2^x + 2^x"),
            (6, "0x1.d9629730e706bp+8", "(2^x + x)*(6829432790952789/2251799813685248)"),
            (8, "0x1.6b04f9349cf9bp+7",
             "2^(4426535295208273/4503599627370496"
             "*(((163857542743359/140737488355328)^2)^2 + x))"),
        ],
    ),
    # the CLI defaults at seed 7 (GP seed 7*977 for the first fit domain) on
    # the training sets of nested and exp1 that `solve --seed 7` samples
    "nested-seed7": (
        (_SEED7_XS, [float(x) for (x,) in _SEED7_XS], ("x",), None, GPConfig(seed=7 * 977)),
        [(1, "0x0.0p+0", "x")],
    ),
    "exp1-seed7": (
        (_SEED7_XS, [2.0 ** (x + 1) - 1 for (x,) in _SEED7_XS], ("x",), None, GPConfig(seed=7 * 977)),
        [
            (1, "0x1.d036a740d7ffep+37", "1801429515667431/8589934592"),
            (2, "0x1.1110ddddf0000p+36", "2^x"),
            (4, "0x1.b3333cccafe02p-1", "2^(4503594980107801/4503599627370496 + x)"),
            (6, "0x0.0p+0", "floor(2^(1125899584719177/1125899906842624 + x))"),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_evolve_reproduces_pinned_fronts(case):
    args, want = _PINNED[case]
    front = evolve(*args)
    assert [(e.complexity, e.loss.hex(), print_expr(e.tree)) for e in front.pareto()] == want


def _fail_outside_this_process(monkeypatch):
    caller, real_loss = os.getpid(), symbolic.tree_loss

    def loss(tree, cols, y):
        if os.getpid() != caller:
            raise ArithmeticError("island block failure")
        return real_loss(tree, cols, y)

    monkeypatch.setattr(symbolic, "tree_loss", loss)


def test_evolve_raises_a_child_block_error_and_stops_every_child(monkeypatch):
    _fail_outside_this_process(monkeypatch)
    for cpus in (2, 3):
        monkeypatch.setattr(symbolic, "available_cpus", lambda: cpus)
        with pytest.raises(ArithmeticError, match="island block failure"):
            evolve(*_BLOCK_CASES["square"])
        assert multiprocessing.active_children() == []


def test_evolve_pauses_the_cyclic_gc_and_restores_it(monkeypatch):
    """The collector is off while the islands evolve, and afterwards is as
    the caller left it: after a run, and after a child block raises."""
    seen, real_loss = set(), symbolic.tree_loss

    def loss(tree, cols, y):
        seen.add(gc.isenabled())
        return real_loss(tree, cols, y)

    monkeypatch.setattr(symbolic, "tree_loss", loss)
    monkeypatch.setattr(symbolic, "available_cpus", lambda: 1)
    assert gc.isenabled()
    evolve(*_BLOCK_CASES["one-island"])
    assert False in seen and gc.isenabled()
    gc.disable()
    try:
        evolve(*_BLOCK_CASES["one-island"])
        assert not gc.isenabled()
    finally:
        gc.enable()
    _fail_outside_this_process(monkeypatch)
    monkeypatch.setattr(symbolic, "available_cpus", lambda: 2)
    with pytest.raises(ArithmeticError, match="island block failure"):
        evolve(*_BLOCK_CASES["square"])
    assert gc.isenabled()


def _assert_tree_loss_uses_its_own_errstate():
    """tree_loss computes the predictions under its own errstate, so that
    log2(0) is no error, and the squared residuals under the caller's: 2^(x^3)
    at x = 8 is 2^512, whose square overflows."""
    x8 = {"x": np.full(5, 8.0)}
    with np.errstate(all="raise"):
        assert tree_loss(parse_expr("log2(x - 8)"), x8, np.zeros(5)) == math.inf
        with pytest.raises(FloatingPointError):
            tree_loss(parse_expr("2^(x^3)"), x8, np.zeros(5))


def test_evolve_leaves_tree_loss_to_the_callers_errstate(monkeypatch):
    """Inside evolve tree_loss enters no errstate of its own; in this
    process and thread it does again after a run, and after a child block
    raises."""
    _assert_tree_loss_uses_its_own_errstate()
    evolve(*_BLOCK_CASES["one-island"])
    _assert_tree_loss_uses_its_own_errstate()
    _fail_outside_this_process(monkeypatch)
    monkeypatch.setattr(symbolic, "available_cpus", lambda: 2)
    with pytest.raises(ArithmeticError, match="island block failure"):
        evolve(*_BLOCK_CASES["square"])
    _assert_tree_loss_uses_its_own_errstate()


def test_evolve_runs_one_block_in_a_threaded_process(monkeypatch):
    """Forking a process that has threads is unsafe, so there all islands
    run here: a loss that fails in any other process is never called."""
    _fail_outside_this_process(monkeypatch)
    monkeypatch.setattr(symbolic, "available_cpus", lambda: 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert evolve(*_BLOCK_CASES["square"]).entries
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


@pytest.mark.parametrize("bad", [
    {"population_size": 0},
    {"iterations": 0},
    {"populations": -1},
    {"population_size": -1},
    {"iterations": -1},
    {"populations": 0, "population_size": 0},
    {"population_size": 0, "iterations": 0},
    {"populations": 3, "population_size": 8, "iterations": -5},
    {"populations": 0},
])
def test_gpconfig_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        GPConfig(**bad)


def test_gpconfig_accepts_edge_values():
    GPConfig(populations=1, population_size=1, iterations=1)
    GPConfig(populations=1, population_size=1, iterations=1, seed=-1)


def test_guess_symbolic_eq1_split(eq1):
    out = guess_symbolic(
        eq1.system,
        gp_cfg=GPConfig(populations=10, population_size=25, iterations=20, seed=1),
        domsplit=True,
    )
    assert out.score == 1.0
    bodies = {dsl.print_bool(p.domain): print_expr(p.body) for p in out.candidate.pieces}
    assert bodies["x = 0"] == "0"
    assert bodies["x > 0"] == "x"


def test_both_regressors_flag_constant_fits(corpus):
    """Both methods share one domain loop: the single-point subdomain x = 0
    of nested takes the constant fit and says so."""
    system = corpus["nested"].system
    lin = guess_linear(system, domsplit=True)
    sym = guess_symbolic(
        system,
        gp_cfg=GPConfig(populations=4, population_size=10, iterations=3, seed=1),
        domsplit=True,
    )
    assert [f.flags for f in sym.fits] == [f.flags for f in lin.fits] == [("constant-fit",), ()]
    assert [p.body for p in sym.candidate.pieces][:1] == [p.body for p in lin.candidate.pieces][:1]
