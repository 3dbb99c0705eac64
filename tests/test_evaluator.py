"""Evaluator behavior, checked against an independent naive recursion oracle."""

import itertools
import random
import sys
import threading

import pytest

from recsolve import dsl, evaluator
from recsolve.evaluator import BudgetExceeded, Evaluator, NoMatchingCase
from recsolve.model import Call, eval_bool, eval_ground

from conftest import NONTERM, corpus_files


def naive_eval(system, func, args, depth=0):
    """Plain unmemoized recursion, kept deliberately independent of the
    library's evaluator."""
    if depth > 10_000:
        raise RecursionError
    f = system.functions[func]
    env = dict(zip(f.params, args))

    def on_call(node: Call, call_env):
        vals = []
        for a in node.args:
            v = eval_ground(a, call_env, on_call=on_call)
            if not isinstance(v, int):
                import math

                v = math.floor(v)
            vals.append(v)
        return naive_eval(system, node.func, tuple(vals), depth + 1)

    for case in f.cases:
        if eval_bool(case.guard, env):
            return eval_ground(case.body, env, on_call=on_call)
    raise NoMatchingCase(func)


def test_eq1_values(eq1):
    ev = Evaluator(eq1.system)
    assert ev.eval_fun("f", (5,)) == 5
    assert [r.value for r in ev.batch_eval("f", [(0,), (1,), (2,), (3,)])] == [0, 1, 2, 3]


def test_fibonacci_base_and_ten(fib):
    ev = Evaluator(fib.system)
    assert ev.eval_fun("f", (0,)) == 1
    assert ev.eval_fun("f", (10,)) == 89
    assert ev.eval_fun("f", (10,)) == naive_eval(fib.system, "f", (10,))


def test_nonterminating_cost_recurrence_budget():
    bf = dsl.parse(NONTERM)
    ev = Evaluator(bf.system)
    with pytest.raises(BudgetExceeded):
        ev.eval_fun("q", (3,))
    results = ev.batch_eval("q", [(1,), (2,)])
    assert all(r.error and r.error.startswith("budget-exceeded") for r in results)


def test_nonterminating_batch_fails_on_depth_alone():
    # about 0.35 s per sample on a 2-vCPU machine; however long the batch
    # runs, the depth count alone decides every sample
    bf = dsl.parse(NONTERM)
    results = Evaluator(bf.system).batch_eval("q", [(x,) for x in range(1, 11)])
    assert {r.error for r in results} == {"budget-exceeded:depth"}


def test_batch_can_stop_at_first_budget_failure():
    bf = dsl.parse(NONTERM)
    rs = Evaluator(bf.system).batch_eval("q", [(0,), (1,), (2,)], stop_at_budget_failure=True)
    assert [(r.input, r.value, r.error) for r in rs] == [
        ((0,), 1, None), ((1,), None, "budget-exceeded:depth")
    ]


def test_batch_empty():
    bf = dsl.parse(NONTERM)
    assert Evaluator(bf.system).batch_eval("q", []) == []


def test_batch_flags_errors_without_dropping():
    bf = dsl.parse(NONTERM)
    ev = Evaluator(bf.system)
    rs = ev.batch_eval("q", [(0,), (1,)])
    assert rs[0].value == 1 and rs[0].error is None
    assert rs[1].value is None and rs[1].error is not None


def test_error_kinds_stable_on_repeat():
    bf = dsl.parse(NONTERM)
    ev = Evaluator(bf.system)
    r1 = ev.batch_eval("q", [(2,)])[0]
    r2 = ev.batch_eval("q", [(2,)])[0]
    assert r1.error == r2.error


def test_memo_shared_across_batch(fib, monkeypatch):
    monkeypatch.setattr(evaluator, "MAX_CALLS", 60)
    ev = Evaluator(fib.system)
    # 21 distinct subproblems; without sharing the budget would blow
    rs = ev.batch_eval("f", [(i,) for i in range(20)])
    assert all(r.error is None for r in rs)


def test_no_matching_case_reported():
    bf = dsl.parse("def f(x) pre x>=0 { case x=0 -> 0 case x>0 -> f(x-1)+1 } entry f")
    # bypass the parser's totality check by constructing a bad argument path
    ev = Evaluator(bf.system)
    with pytest.raises(NoMatchingCase):
        ev.eval_fun("f", (-1,))


def test_evaluation_starts_no_thread_and_keeps_the_recursion_limit(fib, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("evaluation must run on the caller's stack")

    monkeypatch.setattr(threading.Thread, "start", forbidden)
    monkeypatch.setattr(threading, "stack_size", forbidden)
    monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
    ev = Evaluator(fib.system)
    assert ev.eval_fun("f", (30,)) == 1346269
    assert ev.batch_eval("f", [(5,)])[0].value == 8


def test_depth_limit_is_exact(succ):
    """f(n) calls f(n-1) down to f(0): the innermost call of f(MAX_DEPTH)
    is MAX_DEPTH calls deep, the most the budget allows."""
    n = evaluator.MAX_DEPTH
    assert Evaluator(succ.system).eval_fun("f", (n,)) == n + 1
    ev = Evaluator(succ.system)
    (r,) = ev.batch_eval("f", [(n + 1,)])
    assert r.error == "budget-exceeded:depth"
    assert not ev.memo  # an exceeded budget is memoized for no call


def test_nested_noninteger_inner_value_floors_with_warning():
    bf = dsl.parse(
        "def g(x) pre x>=0 { case x=0 -> 1/2 case x>0 -> g(g(x-1)) + 1 } entry g"
    )
    ev = Evaluator(bf.system)
    rs = ev.batch_eval("g", [(1,)])
    assert rs[0].error is None
    assert rs[0].warned  # inner 1/2 floored to 0 before the outer call


def _oracle_points(arity, rng):
    if arity == 1:
        return [(i,) for i in range(11)]
    if arity == 2:
        return list(itertools.product(range(11), repeat=2))
    if arity == 3:
        return [tuple(rng.randint(0, 10) for _ in range(3)) for _ in range(120)]
    # higher arities: a bounded deterministic sample keeps the naive oracle
    # affordable (its run time is exponential in the evaluated value)
    return [tuple(rng.randint(0, 6) for _ in range(arity)) for _ in range(60)]


def test_memoized_matches_naive_recursion_on_corpus():
    rng = random.Random(11)
    for name, bf in corpus_files().items():
        fn = bf.system.entry_func
        ev = Evaluator(bf.system)
        for tup in _oracle_points(fn.arity, rng):
            env = dict(zip(fn.params, tup))
            if not eval_bool(fn.precondition, env):
                continue
            try:
                expected = naive_eval(bf.system, bf.system.entry, tup)
            except (RecursionError, NoMatchingCase):
                continue  # naive side does not terminate; nothing to compare
            got = ev.eval_fun(bf.system.entry, tup)
            assert got == expected, (name, tup, got, expected)

