import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recsolve import dsl, evaluator, linear, sampler
from recsolve.dsl import parse, parse_bool, print_bool
from recsolve.evaluator import Evaluator
from recsolve.model import TRUE, eval_bool
from recsolve.sampler import (
    TEST_SIZE,
    EmptyDomain,
    SampleConfig,
    choose_bound,
    positive_orthant,
    sample_for_function,
    split_domains,
)

from conftest import EQ1, FIB, MERGE, NONTERM, SUCC, spy


def _func(pre: str, params: str = "x, y"):
    return parse(f"def f({params}) pre {pre} {{ case {pre} -> 0 }} entry f").system.entry_func


def test_box_sampling_in_bounds():
    cfg = SampleConfig(n=5, seed=1)
    ss = sample_for_function(_func("x >= 0 and y >= 0"), cfg, bound=3)
    assert len(ss.tuples) == 5
    assert len(set(ss.tuples)) == 5
    assert all(0 <= a <= 3 and 0 <= b <= 3 for a, b in ss.tuples)


def test_unsatisfiable_precondition_raises():
    cfg = SampleConfig(n=5, seed=1)
    with pytest.raises(EmptyDomain):
        sample_for_function(_func("x > 0 and x < 0", "x"), cfg, bound=3)


def test_pigeonhole_shortfall():
    cfg = SampleConfig(n=100, seed=2)
    ss = sample_for_function(_func("x >= 0", "x"), cfg, bound=20)
    assert ss.shortfall
    assert len(ss.tuples) <= 21


def test_samples_satisfy_precondition():
    cfg = SampleConfig(n=50, seed=3)
    pre = parse_bool("x > y")
    ss = sample_for_function(_func("x > y"), cfg, bound=10)
    assert all(eval_bool(pre, {"x": a, "y": b}) for a, b in ss.tuples)
    ss = sample_for_function(_func("x >= 0 and y >= 0"), cfg, bound=10, constraint=pre)
    assert all(eval_bool(pre, {"x": a, "y": b}) for a, b in ss.tuples)


def _draw_to_cap(func, cfg, bound):
    """Rejection sampling that always runs to the cap: the reference the
    early stop of sample_for_function must reproduce."""
    rng = random.Random(cfg.seed)
    found = {}
    for _ in range(sampler.REJECTION_CAP):
        if len(found) == cfg.n:
            break
        tup = tuple(rng.randint(0, bound) for _ in range(func.arity))
        if tup not in found and eval_bool(func.precondition, dict(zip(func.params, tup))):
            found[tup] = None
    return list(found)


@pytest.mark.parametrize("pre,params,bound", [
    ("x >= 1", "x", 20),
    ("x >= 0", "x", 3),
    ("x >= 0 and y >= 0", "x, y", 5),
    ("x > y and y >= 2", "x, y", 10),
    ("x >= 0 and y >= 0", "x, y", 20),
])
def test_early_stop_keeps_the_samples_of_a_full_draw(pre, params, bound, monkeypatch):
    monkeypatch.setattr(sampler, "REJECTION_CAP", 20_000)
    func = _func(pre, params)
    for seed in (0, 7):
        cfg = SampleConfig(n=100, seed=seed)
        assert sample_for_function(func, cfg, bound).tuples == _draw_to_cap(func, cfg, bound)


def test_sampling_stops_once_the_whole_box_is_drawn(monkeypatch):
    draws = []

    class CountingRandom(random.Random):
        def randint(self, a, b):
            draws.append(None)
            return super().randint(a, b)

    monkeypatch.setattr(sampler.random, "Random", CountingRandom)
    ss = sample_for_function(_func("x >= 1", "x"), SampleConfig(n=100, seed=3), bound=20)
    assert sorted(ss.tuples) == [(x,) for x in range(1, 21)]
    assert len(draws) < 1_000  # the cap is 10^5 draws


def test_determinism_given_seed():
    cfg = SampleConfig(n=30, seed=9)
    a = sample_for_function(_func("x >= 0"), cfg, bound=8)
    b = sample_for_function(_func("x >= 0"), cfg, bound=8)
    assert a.tuples == b.tuples
    c = sample_for_function(_func("x >= 0"), cfg, bound=8, seed=10)
    assert c.tuples != a.tuples


def test_split_domains_worked_example():
    bf = parse(EQ1)
    sd = split_domains(bf.system.entry_func)
    assert [print_bool(s.constraint) for s in sd] == ["x = 0", "x > 0"]


def test_split_domains_merge():
    bf = parse(MERGE)
    sd = split_domains(bf.system.entry_func)
    assert print_bool(sd[0].constraint) == "x > 0 and y > 0"
    # second subdomain excludes the first
    env_both = {"x": 1, "y": 1}
    assert not eval_bool(sd[1].constraint, env_both)
    assert eval_bool(sd[1].constraint, {"x": 0, "y": 2})


def test_split_domains_single_case():
    bf = parse("def f(x) pre x>=0 { case x>=0 -> 1 } entry f")
    sd = split_domains(bf.system.entry_func)
    assert len(sd) == 1
    assert print_bool(sd[0].constraint) == "x >= 0"


@given(st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_subdomains_pairwise_disjoint(x, y):
    bf = parse(MERGE)
    sd = split_domains(bf.system.entry_func)
    env = {"x": x, "y": y}
    hits = [s for s in sd if eval_bool(s.constraint, env)]
    assert len(hits) <= 1


def test_choose_bound_linear_recursion_takes_top():
    bf = parse(SUCC)
    bc = choose_bound(bf.system, "f", SampleConfig(seed=1))
    assert bc.bound == 20
    assert not bc.fell_through


def test_choose_bound_fib_memoized_takes_top():
    bf = parse(FIB)
    bc = choose_bound(bf.system, "f", SampleConfig(seed=1))
    assert bc.bound == 20


def test_choose_bound_nonterminating_falls_to_smallest():
    bf = parse(NONTERM)
    bc = choose_bound(bf.system, "q", SampleConfig(seed=1))
    assert bc.bound == 3
    assert bc.fell_through
    assert bc.any_budget_failure


def test_choose_bound_completes_an_early_stopped_fallback():
    # the smallest rung holds no point of x >= 4, so the rung of bound 8,
    # which stopped at its first budget failure, is evaluated in full
    bf = parse("def q(x) pre x>=4 { case x=4 -> 1 case x>4 -> 1+q(x+1) } entry q")
    bc = choose_bound(bf.system, "q", SampleConfig(n=10, bound_ladder=(20, 8, 3), seed=1))
    assert bc.bound == 8 and bc.fell_through
    assert sorted(bc.samples.tuples) == [(x,) for x in range(4, 9)]
    assert [r.input for r in bc.results] == bc.samples.tuples
    assert sum(r.error == "budget-exceeded:depth" for r in bc.results) == 4


def test_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(n=2, folds=2)
    with pytest.raises(ValueError):
        SampleConfig(bound_ladder=(5, 10))
    with pytest.raises(ValueError):
        SampleConfig(bound_ladder=())


def test_held_out_tuples_continue_the_training_draw():
    """merge's orthant [1, 20]^2 has room for TEST_SIZE held-out tuples
    after the training tuples; succ's [1, 20] is drawn out by them."""
    cfg = SampleConfig(seed=3)
    for src, held in ((MERGE, TEST_SIZE), (SUCC, 0)):
        system = parse(src).system
        f = system.entry_func
        bc = choose_bound(system, "f", cfg, constraint=positive_orthant(f), seed=11)
        longer = sample_for_function(
            f, cfg, bc.bound, constraint=positive_orthant(f), seed=11, n=cfg.n + TEST_SIZE
        ).tuples
        assert bc.samples.tuples + bc.held_out == longer
        assert len(bc.held_out) == held
        assert not set(bc.held_out) & set(bc.samples.tuples)


def test_collect_domain_data_draws_once_per_rung(monkeypatch):
    """merge keeps the first rung; nonterm's first rung exceeds the budget,
    so the second is taken.  Each rung's draw holds its held-out tuples."""
    monkeypatch.setattr(evaluator, "MAX_DEPTH", 50)
    draws = spy(monkeypatch, sampler, "sample_for_function")
    # a module that binds the sampler's function itself draws through the spy too
    monkeypatch.setattr(linear, "sample_for_function", sampler.sample_for_function, raising=False)
    cfg = SampleConfig(n=10, bound_ladder=(8, 3), seed=1)
    for src, rungs in ((MERGE, 1), (NONTERM, 2)):
        system = parse(src).system
        draws.clear()
        data = linear.collect_domain_data(system, system.entry, TRUE, cfg, Evaluator(system), seed=5)
        assert data.bound == cfg.bound_ladder[rungs - 1]
        assert len(draws) == rungs
