import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from recsolve import dsl, linear
from recsolve.dsl import parse, parse_expr, print_expr, print_piecewise
from recsolve.linear import (
    AllPruned,
    FeatureSet,
    FitTimeout,
    LassoConfig,
    TrainingSet,
    build_training_set,
    catalog,
    cv_lasso,
    guess_linear,
    held_out_r2,
    ols_refit,
    prune,
    r2_score,
    rationalize,
    rationalize_value,
    _lasso_path,
)
from recsolve.model import eval_ground
from recsolve.rewrite import simplify
from recsolve.evaluator import Evaluator
from recsolve.sampler import SampleConfig

from conftest import EQ1, MAXVAR, MERGE, MINVAR, spy


# -- catalogs -----------------------------------------------------------------


def test_catalog_m1_large_has_eleven_functions():
    fs, flags = catalog(("x",))
    assert fs.count == 11 and flags == ()
    texts = [print_expr(t) for t in fs.base_functions]
    assert texts[:2] == ["x", "x^2"]
    assert "5^x" in texts
    assert "x!" in texts


def test_catalog_m2():
    fs, flags = catalog(("x", "y"))
    assert fs.count == 23 and flags == ()
    texts = [print_expr(t) for t in fs.base_functions]
    assert texts[:2] == ["x", "y"]
    assert "max(x, y)" in texts
    assert "floor(x/y)" in texts


def test_catalog_m3_small_is_variable_products():
    """The 3-ary catalog is the 314 monomials of depth 3, which hold the
    products of distinct variables."""
    fs, flags = catalog(("x", "y", "z"))
    assert fs.count == 314 and flags == ()
    texts = {print_expr(t) for t in fs.base_functions}
    assert {"x", "y", "z", "x*y", "x*z", "y*z", "x*y*z", "x^3*y^3*z^3"} <= texts
    assert len(texts) == fs.count  # distinct


# -- training sets ------------------------------------------------------------


def _section2_features():
    return FeatureSet(
        tuple(
            parse_expr(s)
            for s in ["x", "x^2", "x^3", "ceil(log2(x))", "2^x", "x*ceil(log2(x))"]
        ),
    )


def test_training_row_matches_worked_example(eq1):
    ev = Evaluator(eq1.system)
    value = ev.eval_fun("f", (5,))
    T = build_training_set(_section2_features(), ("x",), [(5,), (6,)], [value, 6])
    assert list(T.X[0]) == [5.0, 25.0, 125.0, 3.0, 32.0, 15.0]
    assert T.y[0] == 5.0


def test_guarded_log2_at_one_and_zero():
    fs = FeatureSet((parse_expr("x"), parse_expr("ceil(log2(x))")))
    T = build_training_set(fs, ("x",), [(1,), (0,), (4,)], [1, 0, 4])
    assert list(T.X[0]) == [1.0, 0.0]
    assert list(T.X[1]) == [0.0, 0.0]  # log2 guard keeps the row
    assert T.dropped_rows == 0


def test_nonfinite_rows_dropped_with_flag():
    """At x = 200 the x! column overflows: the column goes and every row
    stays.  A row whose target overflows is still dropped and counted."""
    fs = FeatureSet((parse_expr("x"), parse_expr("x!")))
    T = build_training_set(fs, ("x",), [(2,), (200,), (3,), (4,)], [1, 1, 2, 10**400])
    assert [print_expr(t) for t in T.features] == ["x"]
    assert T.X.shape == (3, 1)
    assert T.inputs == [(2,), (200,), (3,)]
    assert T.dropped_rows == 1


def test_feature_matrix_matches_exact_evaluation():
    """The catalog of each arity 1-5, column by column against exact
    guarded evaluation cell by cell: bit for bit where the exact value is an
    integer below 2^53, within 4e-16 relative elsewhere (products of several
    rounded factors).  The 5-ary catalog is cut to depth 2 by MAX_CATALOG."""
    rng = random.Random(5)
    for m in range(1, 6):
        names = ("x", "y", "z")[:m] if m <= 3 else tuple(f"x{i + 1}" for i in range(m))
        samples = [tuple(rng.randint(0, 20) for _ in range(m)) for _ in range(30)]
        fs, flags = catalog(names)
        assert flags == (("catalog-depth:2",) if m == 5 else ())
        T = build_training_set(fs, names, samples, [0] * len(samples))
        assert T.dropped_rows == 0 and T.features == fs.base_functions
        for row, tup in zip(T.X, T.inputs):
            env = dict(zip(names, tup))
            for v, t in zip(row, fs.base_functions):
                exact = eval_ground(t, env, guarded=True)
                if isinstance(exact, int) and abs(exact) < 2**53:
                    assert v == exact, (print_expr(t), env)
                else:
                    assert math.isclose(v, exact, rel_tol=4e-16), (print_expr(t), env)


# -- lasso / prune / refit ------------------------------------------------------


def _ols_oracle(X, y):
    """Independent least-squares via numpy lstsq on the augmented matrix."""
    A = np.hstack([np.ones((len(y), 1)), X])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return coef


def test_planted_quadratic_support_recovery():
    xs = [(i,) for i in range(1, 51)]
    ys = [2 * i * i + 3 for i in range(1, 51)]
    fs = FeatureSet((parse_expr("x"), parse_expr("x^2"), parse_expr("ceil(log2(x))")))
    T = build_training_set(fs, ("x",), xs, ys)
    res = cv_lasso(T, LassoConfig())
    fs2, T2 = prune(fs, T, res.beta, res.beta0, 0.05)
    assert [print_expr(t) for t in fs2.base_functions] == ["x^2"]
    model = ols_refit(T2, None)
    oracle = _ols_oracle(T2.X, T2.y)
    assert abs(model.coefficients[0] - 2) < 1e-3
    assert abs(model.coefficients[0] - oracle[1]) < 1e-9
    assert abs(model.intercept - oracle[0]) < 1e-9


def test_constant_targets_give_intercept_only():
    fs = FeatureSet((parse_expr("x"),))
    T = build_training_set(fs, ("x",), [(i,) for i in range(10)], [7] * 10)
    res = cv_lasso(T, LassoConfig())
    assert np.allclose(res.beta, 0)
    assert abs(res.beta0 - 7) < 1e-12


def test_lasso_path_sanity_all_zero_at_huge_lambda():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 6))
    y = X @ np.array([1.0, -2.0, 0, 0, 3.0, 0]) + 0.01 * rng.normal(size=60)
    fs = FeatureSet(tuple(parse_expr(f"x{i}") for i in range(6)))
    T = TrainingSet(fs.base_functions, X, y, [tuple(r) for r in X])
    big = cv_lasso(T, LassoConfig(lambda_grid=(1e9,)))
    assert np.allclose(big.beta, 0)
    assert abs(big.beta0 - y.mean()) < 1e-9


def test_lasso_support_nonincreasing_in_lambda():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(80, 5))
    y = X @ np.array([2.0, 0, 0, -1.0, 0]) + 0.01 * rng.normal(size=80)
    fs = tuple(parse_expr(f"x{i}") for i in range(5))
    counts = []
    for lam in [1e6, 1e3, 10.0, 0.1, 0.001]:
        T = TrainingSet(fs, X, y, [tuple(r) for r in X])
        res = cv_lasso(T, LassoConfig(lambda_grid=(lam,)))
        counts.append(int(np.sum(np.abs(res.beta) > 1e-10)))
    assert counts == sorted(counts)


def test_degenerate_feature_dropped():
    fs = FeatureSet((parse_expr("x"), parse_expr("0*x")))
    X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    T = TrainingSet(fs.base_functions, X, np.array([2.0, 4.0, 6.0, 8.0]), [(1,), (2,), (3,), (4,)])
    res = cv_lasso(T, LassoConfig())
    assert res.dropped_features == (1,)
    assert res.beta[1] == 0.0


def _gram(X, y):
    """The Gram form cv_lasso hands to the path: standardized columns and y
    in units of its standard deviation."""
    X = X[:, X.std(axis=0) > 0]
    Xs = (X - X.mean(axis=0)) / X.std(axis=0)
    ysd = float(y.std()) or 1.0
    yc = (y - y.mean()) / ysd
    return Xs.T @ Xs, Xs.T @ yc, ysd


def _kkt_violation(G, c, beta, alpha):
    """Largest breach of the lasso optimality conditions, relative to
    max|c|: c_j - (G b)_j equals alpha*sign(b_j) where b_j != 0 and lies in
    [-alpha, alpha] elsewhere."""
    r = c - G @ beta
    on = beta != 0
    worst = max(
        np.max(np.abs(r[on] - alpha * np.sign(beta[on])), initial=0.0),
        np.max(np.abs(r[~on]) - alpha, initial=0.0),
    )
    return worst / max(1.0, float(np.max(np.abs(c))))


def _catalog_data(fn, hi):
    """100 rows of the 1-ary catalog (ceil/floor(log2 x), 2^x, 5^x, x! ...)
    at x drawn from [1, hi]."""
    fs, _ = catalog(("x",))
    rng = random.Random(1)
    xs = [(rng.randint(1, hi),) for _ in range(100)]
    return fs, build_training_set(fs, ("x",), xs, [fn(x) for (x,) in xs])


_GRID = np.geomspace(0.001, 1.0, 100)[::-1]


def _kkt_cases():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 8))
    yield "random", X, X @ rng.normal(size=8) + rng.normal(size=60)
    X = rng.normal(size=(15, 40))
    yield "p>n", X, X[:, :3] @ np.array([2.0, -1.0, 0.5]) + 0.1 * rng.normal(size=15)
    X = rng.integers(0, 3, size=(12, 30)).astype(float)
    yield "p>n, repeated columns", X, X[:, 0] - X[:, 1] + rng.normal(size=12)
    for hi in (20, 5, 3):  # [1, 3] has 3 distinct points: centred rank 2
        for name, fn in (
            ("2^(x+1)", lambda x: 2 ** (x + 1)),
            ("x! + x", lambda x: math.factorial(x) + x),
            ("x*ceil(log2(x))", lambda x: x * math.ceil(math.log2(x))),
            ("5^x - x^2", lambda x: 5**x - x * x),
        ):
            _, T = _catalog_data(fn, hi)
            yield f"1-ary, {name}, x <= {hi}", T.X, T.y


def test_lasso_path_satisfies_kkt_at_every_grid_penalty():
    for name, X, y in _kkt_cases():
        G, c, ysd = _gram(X, y)
        alphas = _GRID / ysd / 2
        B = _lasso_path(G, c, alphas)
        assert B.shape == (len(alphas), G.shape[0])
        for beta, alpha in zip(B, alphas):
            assert _kkt_violation(G, c, beta, alpha) <= 1e-8, (name, alpha)
        # also off the grid, down to the least-squares end of the path
        for alpha in (0.0, float(np.max(np.abs(c))) * 1.5):
            beta = _lasso_path(G, c, [alpha])[0]
            assert _kkt_violation(G, c, beta, alpha) <= 1e-8, (name, alpha)


def test_lasso_path_keeps_collinear_columns_out():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 4))
    y = X @ np.array([3.0, 0.0, -2.0, 0.0]) + 0.1 * rng.normal(size=40)
    G, c, _ = _gram(X, y)
    # copies of columns 0 and 2 (one negated): the same problem, whose
    # solution is unique only up to how a coefficient is split between twins
    twin = np.hstack([X, X[:, [0]], -X[:, [2]]])
    Gt, ct, _ = _gram(twin, y)
    alphas = [10.0, 1.0, 0.01, 0.0]
    B, Bt = _lasso_path(G, c, alphas), _lasso_path(Gt, ct, alphas)
    for beta, beta_t, alpha in zip(B, Bt, alphas):
        assert _kkt_violation(Gt, ct, beta_t, alpha) <= 1e-8
        assert np.count_nonzero(beta_t[[0, 4]]) <= 1
        assert np.count_nonzero(beta_t[[2, 5]]) <= 1
        merged = beta_t[:4] + np.array([beta_t[4], 0.0, -beta_t[5], 0.0])
        assert np.allclose(merged, beta, atol=1e-9)
    # x in [1, 3]: every column of the 1-ary catalog is an affine
    # function of two indicators, so at most two can be active
    _, T = _catalog_data(lambda x: 2 ** (x + 1), 3)
    G3, c3, _ = _gram(T.X, T.y)
    assert all(np.count_nonzero(b) <= 2 for b in _lasso_path(G3, c3, [1.0, 1e-3, 0.0]))


def _cd_kernel_py(G, c, n, thr, beta, max_sweeps, tol):
    """Cyclic coordinate descent with soft thresholding on the Gram form
    (thr = alpha, n = the common diagonal of G): an independent reference
    solver, accurate on well-conditioned data."""
    p = len(c)
    v = G @ beta if beta.any() else np.zeros(p)
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(p):
            bj = beta[j]
            zj = c[j] - v[j] + n * bj
            new = math.copysign(max(abs(zj) - thr, 0.0), zj) / n
            if new != bj:
                v += G[:, j] * (new - bj)
                beta[j] = new
                delta = abs(new - bj)
                if delta > max_delta:
                    max_delta = delta
        if max_delta < tol:
            break
    return beta


def test_lasso_path_matches_coordinate_descent_oracle():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n, p = 50, 6
        X = rng.normal(size=(n, p)) + 0.3 * rng.normal(size=(n, 1))
        y = X @ rng.normal(size=p) * (trial % 2) + rng.normal(size=n)
        G, c, ysd = _gram(X, y)
        alphas = _GRID / ysd / 2 * n / 10
        B = _lasso_path(G, c, alphas)
        beta = np.zeros(p)
        for alpha, got in zip(alphas, B):
            beta = _cd_kernel_py(G, c, float(n), alpha, beta, 100_000, 1e-13)
            assert np.allclose(got, beta, atol=1e-9), (trial, alpha)


def test_cv_lasso_finds_power_of_two_on_large_catalog_quickly():
    fs, T = _catalog_data(lambda x: 2 ** (x + 1), 20)
    t0 = time.monotonic()
    res = cv_lasso(T, LassoConfig())
    assert time.monotonic() - t0 < 1.0
    chosen = {print_expr(t): b for t, b in zip(fs.base_functions, res.beta) if b != 0}
    assert list(chosen) == ["2^x"]
    assert abs(chosen["2^x"] - 2) < 1e-6
    assert abs(res.beta0) < 1e-4


def test_cv_lasso_past_deadline_raises():
    _, T = _catalog_data(lambda x: x * x, 20)
    with pytest.raises(FitTimeout):
        cv_lasso(T, LassoConfig(), deadline=time.monotonic() - 1.0)


def test_prune_threshold_semantics():
    fs = FeatureSet(tuple(parse_expr(s) for s in ["x", "x^2", "y"]))
    X = np.ones((4, 3))
    T = TrainingSet(fs.base_functions, X, np.ones(4), [(1, 1)] * 4)
    fs2, T2 = prune(fs, T, np.array([0.02, 1.0, 0.04]), 0.0, 0.05)
    assert [print_expr(t) for t in fs2.base_functions] == ["x^2"]
    assert T2.X.shape == (4, 1)


def test_prune_epsilon_zero_is_identity():
    fs = FeatureSet((parse_expr("x"),))
    X = np.ones((3, 1))
    T = TrainingSet(fs.base_functions, X, np.ones(3), [(1,)] * 3)
    fs2, _ = prune(fs, T, np.array([0.0]), 0.0, 0.0)
    assert fs2.base_functions == fs.base_functions


def test_prune_monotone_in_epsilon():
    fs = FeatureSet(tuple(parse_expr(s) for s in ["x", "y", "x*y"]))
    beta = np.array([0.03, 0.5, 0.08])
    X = np.ones((3, 3))
    T = TrainingSet(fs.base_functions, X, np.ones(3), [(1, 1)] * 3)
    survive = {}
    for eps in (0.01, 0.05, 0.2):
        fs2, _ = prune(fs, T, beta, 0.0, eps)
        survive[eps] = set(fs2.base_functions)
    assert survive[0.2] <= survive[0.05] <= survive[0.01]


def test_all_pruned_raises():
    fs = FeatureSet((parse_expr("x"),))
    X = np.ones((3, 1))
    T = TrainingSet(fs.base_functions, X, np.ones(3), [(1,)] * 3)
    with pytest.raises(AllPruned):
        prune(fs, T, np.array([0.01]), 0.0, 0.05)


def test_ols_exact_line():
    fs = FeatureSet((parse_expr("x"),))
    X = np.array([[float(i)] for i in range(10)])
    T = TrainingSet(fs.base_functions, X, 2 * X[:, 0] + 3, [(i,) for i in range(10)])
    model = ols_refit(T, None)
    assert abs(model.coefficients[0] - 2) < 1e-9
    assert abs(model.intercept - 3) < 1e-9


def test_r2_degenerate_convention():
    assert r2_score(np.array([7.0, 7.0]), np.array([7.0, 7.0])) == 1.0
    assert r2_score(np.array([7.0, 7.0]), np.array([8.0, 8.0])) == -math.inf


def test_intercept_only_on_constant_test_set():
    fs = FeatureSet(())
    T = TrainingSet((), np.zeros((4, 0)), np.full(4, 3.0), [(0,)] * 4)
    Ttest = TrainingSet((), np.zeros((5, 0)), np.full(5, 3.0), [(0,)] * 5)
    model = ols_refit(T, Ttest)
    assert model.score == 1.0


# -- rationalization ------------------------------------------------------------


def _cf_convergents(v, max_den):
    """Independent continued-fraction oracle: best rational approximations
    with denominator bounded by max_den."""
    from fractions import Fraction as F

    a = []
    x = v
    h_prev, h = 1, int(math.floor(x))
    k_prev, k = 0, 1
    best = F(h, 1)
    for _ in range(30):
        frac = x - math.floor(x)
        if frac < 1e-15:
            break
        x = 1.0 / frac
        ai = int(math.floor(x))
        h_prev, h = h, ai * h + h_prev
        k_prev, k = k, ai * k + k_prev
        if k > max_den:
            break
        best = F(h, k)
    return best


def test_rationalize_nearest_integer():
    assert rationalize_value(0.9999997) == 1


def test_rationalize_third_matches_cf_oracle():
    v = 0.3333339
    assert rationalize_value(v) == Fraction(1, 3)
    assert _cf_convergents(v, 64) == Fraction(1, 3)


def test_rationalize_nine_twentieths():
    v = 0.45
    assert rationalize_value(v) == Fraction(9, 20)
    assert _cf_convergents(v, 64) == Fraction(9, 20)


def test_rationalize_rejects_far_values():
    assert rationalize_value(0.337) is None  # no denominator <= 64 this close


def test_rationalize_model_drops_near_zero_and_marks_floats():
    from recsolve.linear import LinearModel

    m = LinearModel(
        intercept=1e-9,
        coefficients=np.array([1.0000000002, 0.337]),
        selected=(parse_expr("x"), parse_expr("y")),
        score=1.0,
    )
    body, exact = rationalize(m.expr())
    assert not exact
    text = print_expr(simplify(body))
    assert text.startswith("x") or "1*x" not in text


# -- end-to-end guesser -----------------------------------------------------------


def test_guess_linear_worked_example(eq1):
    out = guess_linear(eq1.system)
    assert out.score == 1.0
    assert len(out.candidate.pieces) == 1
    piece = out.candidate.pieces[0]
    assert print_expr(piece.body) == "x"
    assert dsl.print_bool(piece.domain) == "x >= 1"


def test_guess_linear_determinized_pair():
    mx = parse(MAXVAR)
    out = guess_linear(mx.system)
    assert print_expr(out.candidate.pieces[0].body) == "2*x"
    mn = parse(MINVAR)
    out = guess_linear(mn.system)
    assert print_expr(out.candidate.pieces[0].body) == "x"


def test_guess_linear_merge_split(merge):
    out = guess_linear(merge.system, domsplit=True)
    assert out.score == 1.0
    bodies = [print_expr(p.body) for p in out.candidate.pieces]
    assert bodies == ["x + y - 1", "0"]


def test_guess_linear_deterministic(eq1):
    a = guess_linear(eq1.system)
    b = guess_linear(eq1.system)
    assert print_piecewise(a.candidate) == print_piecewise(b.candidate)
    assert a.score == b.score


def test_guess_linear_fits_each_domain_once(eq1, monkeypatch):
    calls = spy(monkeypatch, linear, "cv_lasso")
    out = guess_linear(eq1.system)
    assert [len(args[0].features) for args, _ in calls] == [catalog(("x",))[0].count]
    assert out.fits[0].flags == ()


def test_guess_linear_walks_past_rows_that_all_overflow():
    """On x in [300, 340] every row overflows in the 5^x and x! columns, so
    those two columns are dropped and every row is kept."""
    src = (
        "def f(x) pre x >= 300 and x <= 340"
        " { case x = 300 -> 901 case x > 300 -> f(x - 1) + 3 } entry f"
    )
    out = guess_linear(parse(src).system, sample_cfg=SampleConfig(bound_ladder=(340,)))
    assert out.fits[0].flags == ("non-finite-columns:2",)
    assert print_expr(out.candidate.pieces[0].body) == "3*x + 1"


def test_fit_without_two_finite_targets_gives_no_fit():
    rows = [(x,) for x in range(1, 9)]
    data = linear.DomainData(8, rows, [10**400] * 7 + [1], [], [])
    assert linear._fit(("x",), data, LassoConfig()) == (None, ("empty-training-set",))


@pytest.mark.parametrize("name", ["incr1", "qsort_best", "fib", "noisy_strt1"])
def test_piece_score_is_held_out_r2_of_its_body(corpus, name, monkeypatch):
    calls = spy(monkeypatch, linear, "collect_domain_data")
    system = corpus[name].system
    out = guess_linear(system, lasso_cfg=LassoConfig(seed=7), sample_cfg=SampleConfig(seed=7))
    (piece,) = out.candidate.pieces
    ((_, data),) = calls
    assert piece.score == held_out_r2(piece.body, system.entry_func.params, data)


def test_test_rows_are_never_training_rows(corpus, monkeypatch):
    """merge's orthant [1, 20]^2 holds 400 points, so its test rows are
    TEST_SIZE points the fit never saw; nested's [1, 20] is drawn out by its
    training rows, so it has none and the piece is scored on the training
    rows."""
    calls = spy(monkeypatch, linear, "collect_domain_data")
    guess_linear(corpus["merge"].system)
    (piece,) = guess_linear(corpus["nested"].system).candidate.pieces
    (_, merge_data), (_, nested_data) = calls
    assert len(merge_data.test_inputs) == linear.TEST_SIZE
    assert not set(merge_data.test_inputs) & set(merge_data.train_inputs)
    assert nested_data.test_inputs == []
    pred = [float(eval_ground(piece.body, {"x": x}, guarded=True)) for (x,) in nested_data.train_inputs]
    assert piece.score == r2_score(np.asarray(nested_data.train_values, dtype=float), np.asarray(pred))


def test_r2_one_implies_pointwise_agreement(eq1):
    """Test-set R^2 of 1 transfers to fresh in-domain points."""
    out = guess_linear(eq1.system)
    assert out.score == 1.0
    ev = Evaluator(eq1.system)
    body = out.candidate.pieces[0].body
    rng = random.Random(0)
    for _ in range(200):
        x = rng.randint(1, 20)
        lhs = float(ev.eval_fun("f", (x,)))
        rhs = float(eval_ground(body, {"x": x}, guarded=True))
        assert math.isclose(lhs, rhs, rel_tol=1e-6, abs_tol=1e-9)
