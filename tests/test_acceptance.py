"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import os
import random
import time

import numpy as np
import pytest

from recsolve import dsl
from recsolve.dsl import parse, parse_candidate, parse_expr, print_expr
from recsolve.evaluator import Evaluator
from recsolve.harness import RunConfig, classify, run_benchmark, run_corpus
from recsolve.linear import (
    FeatureSet,
    LassoConfig,
    _monomials,
    build_training_set,
    catalog,
    cv_lasso,
    guess_linear,
    ols_refit,
    prune,
)
from recsolve.model import EvalError, eval_array, eval_bool, eval_ground, free_vars
from recsolve.rewrite import simplify
from recsolve.report import emit_report, strip_timings
from recsolve.sampler import SampleConfig
from recsolve.smt import Disproved, Proved, eval_piecewise, verify
from recsolve.symbolic import GPConfig, OperatorSet, evolve

from conftest import EQ1, MAXVAR, MINVAR, NONTERM, SUCC, corpus_files, corpus_paths
from test_evaluator import naive_eval

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")


def _ok(n, msg):
    print(f"ACCEPTANCE {n:2d} PASS  {msg}")


@pytest.fixture(scope="module")
def corpus_runs():
    """Two full corpus runs with identical seeds (shared by criteria 5/11)."""
    cfg = RunConfig(method="lasso", seed=7, repeat=1, verify=True, jobs=2,
                    sample=SampleConfig(seed=7))
    a = run_corpus(CORPUS_DIR, cfg)
    b = run_corpus(CORPUS_DIR, cfg)
    return a, b


def test_criterion_1_worked_example():
    """Eq.1 with lasso: candidate exactly x, R^2 = 1, proved, under 60 s,
    and the outcome does not depend on the seed."""
    t0 = time.monotonic()
    candidates = []
    for seed in (0, 1):
        cfg = RunConfig(method="lasso", seed=seed, repeat=1, verify=True)
        res = run_benchmark(os.path.join(CORPUS_DIR, "nested.rec"), cfg)
        assert res.score == 1.0
        assert res.verification == "proved"
        candidates.append(res.candidate)
    assert candidates[0] == candidates[1] == "piece x >= 1 -> x"
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    _ok(1, f"worked example: candidate x, R^2=1, proved ({elapsed:.1f}s for two seeds)")


def test_criterion_2_determinization_pair():
    for src, want in ((MAXVAR, "2*x"), (MINVAR, "x")):
        bf = parse(src)
        out = guess_linear(bf.system)
        assert print_expr(out.candidate.pieces[0].body) == want
        assert isinstance(verify(bf.system, out.candidate), Proved)
    _ok(2, "determinized max gives 2x, min gives x, both proved")


def test_criterion_3_domain_splitting():
    path = os.path.join(CORPUS_DIR, "merge.rec")
    split = run_benchmark(path, RunConfig(method="lasso", seed=0, repeat=1, verify=True, domsplit=True))
    assert split.classification == "exact"
    assert "x + y - 1" in split.candidate and "0" in split.candidate
    flat = run_benchmark(path, RunConfig(method="lasso", seed=0, repeat=1, verify=True))
    assert flat.classification != "exact"
    _ok(3, f"merge: split gives exact piecewise; without split: {flat.classification}")


def test_criterion_4_verification_suite():
    cases = [
        (EQ1, "x"),
        (SUCC, "n+1"),
        (MAXVAR, "2*x"),
        (MINVAR, "x"),
    ]
    for src, cand in cases:
        t0 = time.monotonic()
        res = verify(parse(src).system, parse_candidate(cand))
        dt = time.monotonic() - t0
        assert isinstance(res, Proved), (src, res)
        assert dt <= 10.0
    t0 = time.monotonic()
    res = verify(parse(EQ1).system, parse_candidate("x+1"))
    dt = time.monotonic() - t0
    assert isinstance(res, Disproved)
    assert res.counterexample == {"x": 0}
    assert res.confirmed
    assert dt <= 10.0
    _ok(4, "four known solutions proved; x+1 disproved with confirmed x=0")


def test_criterion_5_lasso_timing(corpus_runs):
    # desk-scale fit: 100 rows on the full two-variable catalog
    rng = random.Random(1)
    samples = [(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(100)]
    values = [3 * x + 2 * y + 1 for x, y in samples]
    fs, _ = catalog(("x", "y"))
    t0 = time.monotonic()
    T = build_training_set(fs, ("x", "y"), samples, values)
    res = cv_lasso(T, LassoConfig())
    fs2, T2 = prune(fs, T, res.beta, res.beta0, 0.05)
    ols_refit(T2, None)
    dt = time.monotonic() - t0
    assert dt <= 10.0
    # corpus-wide: only high-dimensional benchmarks (arity >= 5), as
    # reported for the highdim class, have catalogs cut below depth 3
    results, _ = corpus_runs
    arity = {
        name: bf.system.entry_func.arity for name, bf in corpus_files().items()
    }
    offenders = [
        r.name
        for r in results
        if any(f.startswith("catalog-depth:") for f in r.flags) and arity.get(r.name, 0) < 5
    ]
    assert offenders == [], offenders
    _ok(5, f"catalog fit in {dt:.2f}s; catalogs cut below depth 3 confined to arity>=5")


def test_criterion_6_planted_model_recovery():
    fs = FeatureSet(tuple(_monomials(("x1", "x2", "x3", "x4"), 1)))
    assert fs.count == 15
    texts = [print_expr(t) for t in fs.base_functions]
    hits = 0
    for trial in range(50):
        rng = random.Random(1000 + trial)
        support = rng.sample(range(15), 3)
        coefs = {}
        for j in support:
            c = 0
            while c == 0:
                c = rng.randint(-5, 5)
            coefs[j] = c
        samples = [tuple(rng.randint(0, 20) for _ in range(4)) for _ in range(100)]
        env_names = ("x1", "x2", "x3", "x4")
        values = []
        for tup in samples:
            env = dict(zip(env_names, tup))
            values.append(
                sum(c * float(eval_ground(fs.base_functions[j], env)) for j, c in coefs.items())
            )
        T = build_training_set(fs, env_names, samples, values)
        res = cv_lasso(T, LassoConfig(seed=trial))
        try:
            fs2, T2 = prune(fs, T, res.beta, res.beta0, 0.05)
        except Exception:
            continue
        model = ols_refit(T2, None)
        got = {texts.index(print_expr(t)): v for t, v in zip(model.selected, model.coefficients)}
        if set(got) == set(support) and all(
            abs(got[j] - coefs[j]) <= 1e-3 for j in support
        ) and abs(model.intercept) <= 1e-3:
            hits += 1
    assert hits >= 45, hits
    _ok(6, f"planted-model support and coefficients recovered in {hits}/50 trials")


def test_criterion_7_symbolic_regression_stochastic():
    # (a) data from 2^(x+y) with operators {+, *, 2^.}
    ops = OperatorSet(binary=("add", "mul"), unary=("pow2",))
    rng = random.Random(3)
    ins = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(60)]
    ys = [float(2 ** (a + b)) for a, b in ins]
    hit_a = 0
    for seed in range(5):
        t0 = time.monotonic()
        front = evolve(
            ins, ys, ("x", "y"), ops,
            GPConfig(populations=12, population_size=25, iterations=20, seed=seed),
        )
        assert time.monotonic() - t0 <= 180.0
        if min(e.loss for e in front.pareto()) == 0.0:
            hit_a += 1
    assert hit_a >= 1

    # (b) the x > 1 branch of the Fibonacci data: a*b^x with b near the
    # golden ratio.  One seed succeeds about one time in four (24 of seeds
    # 0-99), so the criterion is a hit count over 20 fixed seeds; at that
    # rate all 20 miss with probability 0.4%.
    bf = parse(open(os.path.join(CORPUS_DIR, "fib.rec")).read())
    ev = Evaluator(bf.system)
    xs = list(range(2, 21))
    fib_ys = [float(ev.eval_fun("f", (x,))) for x in xs]
    seeds_b = range(7, 27)
    hit_b = 0
    for seed in seeds_b:
        t0 = time.monotonic()
        front = evolve(
            [(x,) for x in xs], fib_ys, ("n",),
            cfg=GPConfig(populations=20, population_size=30, iterations=30, seed=seed),
        )
        assert time.monotonic() - t0 <= 180.0
        best = min(front.pareto(), key=lambda e: e.loss)
        cols = {"n": np.arange(10.0, 19.0)}
        v = eval_array(best.tree, cols)
        if np.all(np.isfinite(v)) and np.all(v[:-1] > 0):
            ratios = v[1:] / v[:-1]
            if np.all((ratios > 1.55) & (ratios < 1.65)):
                hit_b += 1
    assert hit_b >= 1
    _ok(7, f"2^(x+y) exact in {hit_a}/5 runs; fib base in [1.55,1.65] in "
        f"{hit_b}/{len(seeds_b)} runs")


def test_criterion_8_evaluator_oracle():
    rng = random.Random(11)
    checked = 0
    for name, bf in corpus_files().items():
        fn = bf.system.entry_func
        ev = Evaluator(bf.system)
        if fn.arity == 1:
            pts = [(i,) for i in range(11)]
        elif fn.arity == 2:
            import itertools

            pts = list(itertools.product(range(11), repeat=2))
        elif fn.arity == 3:
            pts = [tuple(rng.randint(0, 10) for _ in range(3)) for _ in range(100)]
        else:
            # the naive oracle is exponential in the evaluated value, so
            # higher arities take a bounded deterministic sample
            pts = [tuple(rng.randint(0, 6) for _ in range(fn.arity)) for _ in range(50)]
        for tup in pts:
            env = dict(zip(fn.params, tup))
            if not eval_bool(fn.precondition, env):
                continue
            try:
                expected = naive_eval(bf.system, bf.system.entry, tup)
            except Exception:
                continue
            assert ev.eval_fun(bf.system.entry, tup) == expected, (name, tup)
            checked += 1
    assert checked > 500
    q = parse(NONTERM)
    ev = Evaluator(q.system)
    for x in range(1, 6):
        r = ev.batch_eval("q", [(x,)])[0]
        assert r.error and r.error.startswith("budget-exceeded"), x
    _ok(8, f"memoized = naive on {checked} corpus points; q/1 blows the budget on [1,5]")


def test_criterion_9_rewriter_soundness():
    assert simplify(parse_expr("2^(x+1) - 2*2^x")) == parse_expr("0")
    rng = random.Random(19)
    exprs = []
    for bf in corpus_files().values():
        for f in bf.system.functions.values():
            for c in f.cases:
                exprs.append((c.body, f.params))
        if bf.expect:
            for p in bf.expect.pieces:
                exprs.append((p.body, bf.system.entry_func.params))
    total = 0
    for e, names in exprs:
        s = simplify(e)
        for _ in range(1000):
            env = {n: rng.randint(0, 30) for n in names}
            try:
                before = eval_ground(e, env, guarded=True)
            except EvalError:
                continue
            after = eval_ground(s, env, guarded=True)
            if isinstance(before, float) or isinstance(after, float):
                assert abs(float(before) - float(after)) <= 1e-9 * max(1.0, abs(float(before)))
            else:
                assert before == after
            total += 1
    assert total > 10_000
    _ok(9, f"rewrites preserve values on {total} corpus points; 2^(x+1)-2*2^x -> 0")


def test_criterion_10_classification_fidelity():
    two = parse("def f(x,y) pre x>=0 and y>=0 { case x>=0 -> 0 } entry f").system.entry_func
    assert classify(parse_candidate("max(x,y)"), parse_candidate("x+y"), None, two) == "theta"
    merge = parse(open(os.path.join(CORPUS_DIR, "merge.rec")).read())
    got = classify(parse_candidate("x+y-1"), merge.expect, None, merge.system.entry_func)
    assert got not in ("exact", "theta")
    for name, bf in corpus_files().items():
        if bf.expect is None:
            continue
        assert classify(bf.expect, bf.expect, None, bf.system.entry_func) == "exact", name
    _ok(10, "max/sum theta; global sum vs merge not theta; identity exact on all expects")


def test_criterion_11_determinism(corpus_runs):
    a, b = corpus_runs
    ra, rb = emit_report(a), emit_report(b)
    assert strip_timings(ra) == strip_timings(rb)
    _ok(11, f"two corpus runs identical modulo timings ({len(a)} benchmarks)")
