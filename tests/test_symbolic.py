import math
import multiprocessing
import os
import random
import threading
from fractions import Fraction

import numpy as np
import pytest

from recsolve import dsl, symbolic
from recsolve.dsl import parse_expr, print_expr
from recsolve.evaluator import Evaluator
from recsolve.linear import guess_linear
from recsolve.model import Const, EvalError, Var, eval_array, eval_ground
from recsolve.symbolic import (
    _BUILD,
    COSTS,
    GPConfig,
    OperatorSet,
    _at,
    _node,
    _random_tree,
    _replace,
    _Tree,
    complexity,
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
    assert complexity(Var("x")) == 1
    assert complexity(parse_expr("floor(x)")) == 3  # floor costs 2
    assert complexity(parse_expr("x^4")) == 5  # pow costs 3
    assert complexity(parse_expr("2^(x + y)")) == 4


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
    and replacing at every index with every node of a second tree gives the
    tree rebuilt from the root, with its cached data right."""
    for seed in range(60):
        rng = random.Random(seed)
        a = _random_tree(rng, ("x", "y"), ops, 3)
        b = _random_tree(rng, ("x", "y"), ops, 2)
        ta, tb = _Tree(a), _Tree(b)
        _check_node(ta)
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
        tree = _random_tree(random.Random(seed), ("x", "y"), ops, 3)
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
    """Islands evolved in 1, 2 or 3 blocks (processes) give the same front
    entries, bit for bit, and leave no process behind."""
    fronts = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(symbolic, "available_cpus", lambda: cpus)
        fronts.append(evolve(*_BLOCK_CASES[case]).entries)
        assert multiprocessing.active_children() == []
    assert fronts[0]
    assert fronts[1] == fronts[0] and fronts[2] == fronts[0]


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
