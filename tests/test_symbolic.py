import math
import random

import numpy as np
import pytest

from recsolve import dsl, symbolic
from recsolve.dsl import parse_expr, print_expr
from recsolve.evaluator import Evaluator
from recsolve.linear import guess_linear
from recsolve.model import EvalError, Var, eval_array, eval_ground
from recsolve.symbolic import (
    GPConfig,
    OperatorSet,
    _node,
    complexity,
    evolve,
    guess_symbolic,
    optimize_constants_tree,
    replace_at,
    tree_loss,
    tree_nodes,
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
        tags = {_node(t)[0] for t in tree_nodes(entry.tree)}
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


def test_tree_nodes_replace_at_roundtrip():
    """Every GP node can be put back in place; square, cube and pow2 carry
    their constant inside the node."""
    for src in ["x + y", "2^x", "x^2", "x^3", "x^y", "x!", "floor(x/2)", "max(x, 3)"]:
        e = parse_expr(src)
        for i, node in enumerate(tree_nodes(e)):
            assert replace_at(e, i, node) == e
    assert [_node(n)[0] for n in tree_nodes(parse_expr("x^2 + 2^x"))] == [
        "add", "square", "var", "pow2", "var"
    ]
    assert [_node(n)[0] for n in tree_nodes(parse_expr("x^4"))] == ["pow", "var", "const"]
    assert replace_at(parse_expr("x^2 + y"), 1, Var("y")) == parse_expr("y + y")


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
    island's best is not tuned twice."""
    from recsolve import symbolic

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
