import functools
import itertools
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import recsolve_lia
from recsolve import dsl, smt
from recsolve.dsl import parse, parse_candidate, parse_expr, print_bool, print_expr
from recsolve.evaluator import Evaluator
from recsolve.model import (
    Add, And, Cmp, Const, Or, PiecewiseClosedForm, Var, contains_call, eval_bool, eval_ground,
)
from recsolve.rewrite import simplify
from recsolve.smt import (
    Disproved,
    EncodingError,
    Proved,
    SmtJob,
    SolverConfig,
    SolverCrashed,
    SolverNotFound,
    Unknown,
    Unsupported,
    branches,
    build_job,
    check,
    eval_piecewise,
    obligations,
    verify,
)

from conftest import EQ1, MAXVAR, MERGE, MINVAR, SUCC, corpus_files, spy


def test_branches_worked_example(eq1):
    f = eq1.system.entry_func
    (branch,) = branches(f, parse_candidate("x"), f.cases[1].body)
    assert not contains_call(branch.rhs)
    assert branch.lhs == parse_expr("x")
    assert simplify(branch.rhs) == parse_expr("x")
    assert print_expr(branch.rhs) == "x - 1 + 1"
    assert branch.conditions == ()
    # innermost first: f(x - 1), then f applied to the candidate's x - 1
    assert [print_bool(o) for o in branch.preconditions] == ["x - 1 >= 0", "x - 1 >= 0"]


def test_branches_of_a_callfree_body(eq1):
    f = eq1.system.entry_func
    e = parse_expr("x + 2")
    (branch,) = branches(f, parse_candidate("x"), e)
    assert branch.rhs == e
    assert branch.preconditions == ()


def test_branches_of_a_piecewise_candidate(eq1):
    """One branch per choice of piece, the left side's outermost; the last
    piece is the default, so its condition only negates the earlier ones."""
    f = eq1.system.entry_func
    cand = parse_candidate("piece x>0 -> x piece x=0 -> 0")
    got = [
        (b.choice, [print_bool(c) for c in b.conditions], print_expr(b.lhs), print_expr(b.rhs))
        for b in branches(f, cand, parse_expr("f(x - 1) + 1"))
    ]
    assert got == [
        ((0, 0), ["x > 0", "x - 1 > 0"], "x", "x - 1 + 1"),
        ((0, 1), ["x > 0", "not x - 1 > 0"], "x", "0 + 1"),
        ((1, 0), ["not x > 0", "x - 1 > 0"], "0", "x - 1 + 1"),
        ((1, 1), ["not x > 0", "not x - 1 > 0"], "0", "0 + 1"),
    ]


@pytest.mark.parametrize("name,grid", [
    ("mccarthy91", [(x,) for x in range(0, 115)]),
    ("merge", list(itertools.product(range(6), repeat=2))),
    ("incr1", [(x,) for x in range(0, 15)]),
])
def test_exactly_one_branch_holds_at_each_point(corpus, name, grid):
    """In the case that fires at a point, exactly one branch's conditions
    hold there; its left side is the candidate's value, and its right side
    is the case body with the candidate's value at each call."""
    bf = corpus[name]
    f, cand = bf.system.entry_func, bf.expect

    def call(node, env):
        args = [eval_ground(a, env, on_call=call) for a in node.args]
        return eval_piecewise(cand, dict(zip(f.params, args)))

    for point in grid:
        env = dict(zip(f.params, point))
        if not eval_bool(f.precondition, env):
            continue
        case = next(c for c in f.cases if eval_bool(c.guard, env))
        held = [
            b for b in branches(f, cand, case.body)
            if all(eval_bool(c, env, guarded=True) for c in b.conditions)
        ]
        assert len(held) == 1, (name, point)
        (b,) = held
        assert eval_ground(b.lhs, env, guarded=True) == eval_piecewise(cand, env)
        assert eval_ground(b.rhs, env, guarded=True) == eval_ground(case.body, env, on_call=call)


def test_too_many_branches_is_unknown(eq1):
    # f(f(x - 1)) has n^3 branches under an n-piece candidate
    n = round(recsolve_lia.MAX_DISJUNCTS ** (1 / 3)) + 1
    cand = parse_candidate(
        " ".join(f"piece x = {k} -> {k}" for k in range(n - 1)) + f" piece x >= {n - 1} -> x"
    )
    assert verify(eq1.system, cand) == Unknown("branch-limit")


def test_verify_rejects_calls_outside_the_precondition():
    # f(x - 2) leaves the domain at x = 1, where no equation is violated
    bf = parse("def f(x) pre x >= 0 { case x = 0 -> 0 case x > 0 -> f(x - 2) + 2 } entry f")
    res = verify(bf.system, parse_candidate("x"))
    assert not isinstance(res, Proved)
    assert res == Unsupported(("unresolved-call",))


def test_verify_refutes_nested_x_minus_one(eq1):
    res = verify(eq1.system, parse_candidate("x - 1"))
    assert isinstance(res, Disproved) and res.confirmed, res
    assert res.counterexample == {"x": 0}


def test_verify_refutes_at_a_pinned_zero_divisor():
    """The base case pins the divisor y to 0, where the candidate's guarded
    floor(x/0) is 0, not 7."""
    bf = parse(
        "def f(x, y) pre x >= 0 and y >= 0"
        " { case y = 0 -> 7 case y > 0 -> floor(x/y) } entry f"
    )
    res = verify(bf.system, parse_candidate("floor(x/y)"))
    assert isinstance(res, Disproved) and res.confirmed, res
    assert res.counterexample["y"] == 0


@pytest.mark.parametrize("point", ["x = 0", "x <= 0", "x >= 0 and x <= 0"])
def test_a_guard_pins_its_variable_however_it_is_written(corpus, point):
    """Where f(x - 1) falls into the point piece, `x - 1 <= 0` with
    `x >= 1` pins x = 1 as an equation would, so 2^x folds away."""
    cand = parse_candidate(f"piece {point} -> 1 piece x >= 1 -> 2*2^x - 1")
    assert verify(corpus["exp1"].system, cand) == Proved()


def test_a_body_dividing_by_a_pinned_zero_is_refused():
    """Only the candidate's own x/0 folds to 0; the recurrence's stays a
    division by zero that the encoder refuses."""
    bf = parse(
        "def f(x, y) pre x >= 0 and y >= 0"
        " { case y = 0 -> floor(x/y) case y > 0 -> 0 } entry f"
    )
    assert verify(bf.system, parse_candidate("0")) == Unsupported(("division-by-zero",))


@pytest.mark.parametrize("name,wrong", [
    ("nested", "x + 1"), ("merge", "x + y - 1"), ("mccarthy91", "91"),
    ("highdim1", "x1"), ("div", "x"),
])
def test_verify_sends_one_solver_query(corpus, monkeypatch, name, wrong):
    real = smt.check
    calls = []
    monkeypatch.setattr(smt, "check", lambda job, *a, **kw: calls.append(job.name) or real(job, *a, **kw))
    bf = corpus[name]
    for cand in (bf.expect, parse_candidate(wrong)):
        calls.clear()
        verify(bf.system, cand)
        assert calls == ["verify-f"], (name, calls)


def _job(system, cand) -> SmtJob:
    """The job of `verify`'s query: the disjunction of the obligations
    under the precondition."""
    f = system.entry_func
    broken = functools.reduce(Or, [o.formula for o in obligations(system, cand)])
    return build_job(tuple(f.params), And(f.precondition, broken), SolverConfig(), name="verify-f")


def _script(system, cand, tmp_path) -> str:
    """The script of `verify`'s one query, kept through its debug_dir."""
    verify(system, cand, SolverConfig(debug_dir=str(tmp_path)))
    (path,) = tmp_path.iterdir()
    return path.read_text()


def test_variable_divisor_is_a_side_condition_of_the_query(corpus, tmp_path):
    script = _script(corpus["div"].system, corpus["div"].expect, tmp_path)
    # the quotient's bounds hold only where the divisor is positive, and a
    # divisor below 1 is itself a refutation
    assert "(=> (>= y 1) (and (<= (* .q1 y) x) (< x (+ (* .q1 y) y))))" in script
    assert "(not (>= y 1))" in script


def test_obligations_come_in_label_order_without_repeats(corpus, tmp_path):
    """div's expected form gives its equations, then its call, then its
    divisors, and verify's query is exactly their disjunction."""
    bf = corpus["div"]
    obs = obligations(bf.system, bf.expect)
    assert [(o.label, print_bool(o.formula)) for o in obs] == [
        ("equation", "x < y and not floor(x/y) = 0"),
        ("equation", "x >= y and not -floor((x - y)/y) + floor(x/y) - 1 = 0"),
        ("unresolved-call", "x >= y and not (x - y >= 0 and y >= 1)"),
        ("variable-division", "x < y and not y >= 1"),
        ("variable-division", "x >= y and not y >= 1"),
    ]
    assert len(set(obs)) == len(obs)
    assert _script(bf.system, bf.expect, tmp_path) == _job(bf.system, bf.expect).script


def test_unconfirmed_model_below_a_divisor_is_unsupported():
    bf = parse("def f(x, y) pre x >= 0 and y >= 0 { case true -> floor(x/y) } entry f")
    # a stand-in solver answering sat at y = 0, where the recurrence divides by zero
    model = "print('sat'); print('(model (define-fun x () Int 3) (define-fun y () Int 0))')"
    res = verify(bf.system, parse_candidate("floor(x/y) + 1"),
                 SolverConfig(command=(sys.executable, "-c", model)))
    assert res == Unsupported(("variable-division",))


def test_encode_worked_example(eq1, tmp_path):
    script = _script(eq1.system, parse_candidate("x"), tmp_path)
    assert "(declare-fun x () Int)" in script
    assert "(check-sat)" in script and "(get-model)" in script
    assert script.count("(assert") == 1  # one assertion of the negation


def test_encode_unsupported_factorial(eq1):
    out = verify(eq1.system, parse_candidate("x!"))
    assert isinstance(out, Unsupported)
    assert "Factorial" in out.offending


def test_candidate_over_a_non_parameter_is_unsupported(corpus, monkeypatch):
    """`y` is not a parameter of nested: the query would assert over an
    undeclared symbol, so it is refused before any solver runs."""
    calls = spy(monkeypatch, smt, "check")
    out = verify(corpus["nested"].system, parse_candidate("x + y"))
    assert out == Unsupported(("unknown-variable:y",))
    assert calls == []
    with pytest.raises(EncodingError, match="unknown-variable:y"):
        build_job(("x",), dsl.parse_bool("x + y = x"), SolverConfig())


def test_encode_max_uses_ite(tmp_path):
    bf = parse(MAXVAR)
    assert "(ite (>=" in _script(bf.system, parse_candidate("2*x"), tmp_path)
    # brute-force agreement of the ite encoding: the negation must have no
    # model on a small grid, matching pointwise evaluation
    ev = Evaluator(bf.system)
    for x in range(15):
        assert ev.eval_fun("f", (x,)) == 2 * x


def test_check_proved_and_disproved(eq1):
    """check returns the solver's model unconfirmed; verify confirms it."""
    assert isinstance(check(_job(eq1.system, parse_candidate("x"))), Proved)
    bad = parse_candidate("x+1")
    assert check(_job(eq1.system, bad)) == Disproved({"x": 0}, confirmed=False)
    assert verify(eq1.system, bad) == Disproved({"x": 0}, confirmed=True)


def test_check_solver_not_found(eq1):
    job = _job(eq1.system, parse_candidate("x"))
    job.command = ("definitely-not-a-solver-xyz",)
    with pytest.raises(SolverNotFound):
        check(job)


@pytest.mark.parametrize("command,error", [
    (("no-such-solver-xyz",), SolverNotFound),
    (("false",), SolverCrashed),  # exits 1 and prints no verdict
])
def test_verify_raises_on_missing_or_crashing_solver(corpus, command, error):
    bf = corpus["nested"]
    with pytest.raises(error):
        verify(bf.system, bf.expect, SolverConfig(command=command))


def test_bundled_solver_runs_without_pythonpath(corpus, monkeypatch):
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.delenv("RECSOLVE_SMT_CMD", raising=False)
    assert verify(corpus["nested"].system, parse_candidate("x")) == Proved()


def test_verify_with_the_default_solver_starts_no_process(corpus, monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError("a solver process was started")

    monkeypatch.delenv("RECSOLVE_SMT_CMD", raising=False)
    monkeypatch.setattr(smt.shutil, "which", lambda name: None)
    monkeypatch.setattr(smt.subprocess, "run", no_process)
    bf = corpus["nested"]
    assert verify(bf.system, bf.expect) == Proved()
    assert verify(bf.system, parse_candidate("x + 1")).confirmed


@pytest.mark.parametrize("assertion,verdict", [
    ("(and (> x 0) (< x 0))", "unsat"),
    ("(> x 5)", "sat"),
])
def test_bundled_solver_file_entry_point(tmp_path, assertion, verdict):
    script = tmp_path / "q.smt2"
    script.write_text(f"(declare-fun x () Int)(assert {assertion})(check-sat)(get-model)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, recsolve_lia.__file__, str(script)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == verdict
    if verdict == "sat":
        assert smt._parse_model(proc.stdout)["x"] > 5


def test_verify_worked_example(eq1):
    assert isinstance(verify(eq1.system, parse_candidate("x")), Proved)


def test_debug_dir_keeps_one_verify_script_per_verify(eq1, tmp_path):
    solver = SolverConfig(debug_dir=str(tmp_path))
    assert isinstance(verify(eq1.system, parse_candidate("x"), solver), Proved)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["verify-f-001.smt2"]
    assert isinstance(verify(eq1.system, parse_candidate("x + 1"), solver), Disproved)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["verify-f-001.smt2", "verify-f-002.smt2"]


def test_verify_succ():
    bf = parse(SUCC)
    assert isinstance(verify(bf.system, parse_candidate("n+1")), Proved)


def test_verify_determinized_pair():
    assert isinstance(verify(parse(MAXVAR).system, parse_candidate("2*x")), Proved)
    assert isinstance(verify(parse(MINVAR).system, parse_candidate("x")), Proved)


def test_verify_disproves_off_by_one(eq1):
    res = verify(eq1.system, parse_candidate("x+1"))
    assert isinstance(res, Disproved)
    assert res.counterexample == {"x": 0}
    assert res.confirmed


def test_verify_system_unsupported():
    bf = parse(
        "def f(x) pre x>=0 { case x=0 -> 0 case x>0 -> g(x-1)+1 }"
        " def g(x) pre x>=0 { case x=0 -> 0 case x>0 -> g(x-1)+1 } entry f"
    )
    res = verify(bf.system, parse_candidate("x"))
    assert isinstance(res, Unsupported)
    assert "system-of-equations" in res.offending


def test_verify_merge_piecewise(merge):
    cand = parse_candidate("piece x>0 and y>0 -> x+y-1 piece x=0 or y=0 -> 0")
    assert isinstance(verify(merge.system, cand), Proved)
    res = verify(merge.system, parse_candidate("x+y-1"))
    assert isinstance(res, Disproved) and res.confirmed


def test_verify_exponential_identity():
    bf = parse("def f(x) pre x>=0 { case x=0 -> 1 case x>0 -> 2*f(x-1)+1 } entry f")
    assert isinstance(verify(bf.system, parse_candidate("2^(x+1)-1")), Proved)
    res = verify(bf.system, parse_candidate("2^x"))
    assert isinstance(res, Disproved) and res.confirmed


def test_verify_float_coefficients_unsupported(eq1):
    from recsolve.model import Const, Piece, PiecewiseClosedForm, TRUE
    from fractions import Fraction

    pcf = PiecewiseClosedForm(
        (Piece(TRUE, parse_expr("x"), 1.0, exact_coeffs=False),)
    )
    res = verify(eq1.system, pcf)
    assert isinstance(res, Unsupported)


def test_verified_corpus_expects_and_soundness(corpus):
    """Every hand-written expected solution either proves or is honestly
    Unknown/Unsupported; Proved results agree with the evaluator on random
    in-domain points, and no Disproved appears at all."""
    rng = random.Random(23)
    for name, bf in corpus.items():
        if bf.expect is None or not bf.system.is_single_equation():
            continue
        res = verify(bf.system, bf.expect)
        assert not isinstance(res, Disproved), (name, res)
        if isinstance(res, Proved):
            fn = bf.system.entry_func
            ev = Evaluator(bf.system)
            checked = 0
            attempts = 0
            while checked < 60 and attempts < 3000:
                attempts += 1
                tup = tuple(rng.randint(0, 12) for _ in range(fn.arity))
                env = dict(zip(fn.params, tup))
                if not eval_bool(fn.precondition, env):
                    continue
                got = ev.eval_fun(bf.system.entry, tup)
                want = eval_piecewise(bf.expect, env)
                assert got == want, (name, tup)
                checked += 1
            assert checked > 0, name


# verdicts of every single-equation corpus `expect` and `expect+1` (1 added
# to every piece) with the bundled solver
VERDICTS = {
    "bin_search": ("unsupported:Log2", "unsupported:Log2"),
    "div": ("unknown:solver-unknown", "unknown:solver-unknown"),
    "exp1": ("proved", "refuted"),
    "exp2": ("proved", "refuted"),
    "exp3": ("proved", "refuted"),
    "fact": ("unsupported:Factorial", "unsupported:Factorial"),
    "highdim1": ("proved", "refuted"),
    "incr1": ("proved", "refuted"),
    "lba_ex_viap": ("proved", "refuted"),
    "mccarthy91": ("proved", "refuted"),
    "merge": ("proved", "refuted"),
    "merge_sz": ("proved", "refuted"),
    "nested": ("proved", "refuted"),
    "noisy_strt1": ("proved", "refuted"),
    "nondet_max": ("proved", "refuted"),
    "nondet_min": ("proved", "refuted"),
    "open_zip": ("proved", "refuted"),
    "succ": ("proved", "refuted"),
    "sum_osc": ("unknown:solver-unknown", "refuted"),
}


# split forms and a divisor system, each with its verdict and the verdict of
# its form plus 1; a corpus name stands for that file's system
MORE_VERDICTS = [
    ("exp1", "piece x = 0 -> 1 piece x > 0 -> 2*2^x - 1", ("proved", "refuted")),
    ("exp2", "piece x = 0 -> 3 piece x > 0 -> 4*2^x - 1", ("proved", "refuted")),
    ("merge_sz", "piece x = 0 -> y piece y = 0 and x != 0 -> x piece x > 0 and y > 0 -> x + y",
     ("proved", "refuted")),
    ("def f(x, y) pre x >= 0 and y >= 0 { case y = 0 -> 0 case y > 0 -> floor(x/y) } entry f",
     "floor(x/y)", ("proved", "refuted")),
]


def _plus_one(cand: PiecewiseClosedForm) -> PiecewiseClosedForm:
    return PiecewiseClosedForm(tuple(
        replace(p, body=Add(p.body, Const(Fraction(1)))) for p in cand.pieces
    ))


def _verdict(res) -> str:
    if isinstance(res, Proved):
        return "proved"
    if isinstance(res, Disproved):
        return "refuted" if res.confirmed else "disproved-unconfirmed"
    if isinstance(res, Unknown):
        return f"unknown:{res.reason}"
    return "unsupported:" + ",".join(res.offending)


def test_verify_expected_proved_set(corpus):
    """The verdict on each corpus expected form and on that form plus 1."""
    bundled = SolverConfig(command=smt._BUNDLED_COMMAND)
    single = {n: bf for n, bf in corpus.items() if bf.expect and bf.system.is_single_equation()}
    assert sorted(single) == sorted(VERDICTS)
    for name, bf in single.items():
        got = tuple(_verdict(verify(bf.system, c, bundled)) for c in (bf.expect, _plus_one(bf.expect)))
        assert got == VERDICTS[name], name
    for source, text, verdicts in MORE_VERDICTS:
        system = (corpus[source] if source in corpus else parse(source)).system
        cand = parse_candidate(text)
        got = tuple(_verdict(verify(system, c, bundled)) for c in (cand, _plus_one(cand)))
        assert got == verdicts, (source, text)


def _count_solve_conj(monkeypatch, limit: int) -> list[int]:
    """Count the bundled solver's solve_conj calls (recursive ones too) in
    calls[0]; fail the test at call number `limit`."""
    calls = [0]
    inner = recsolve_lia.solve_conj

    def counted(conj, budget):
        calls[0] += 1
        if calls[0] >= limit:
            pytest.fail(f"solve_conj ran {limit} times")
        return inner(conj, budget)

    monkeypatch.setattr(recsolve_lia, "solve_conj", counted)
    return calls


def test_solver_budget_bounds_every_solve_conj_call(corpus, monkeypatch):
    """Conjunctions refuted at once spend the budget too, so a query whose
    substitutions are all rejected still ends at MAX_BRANCHES calls."""
    calls = _count_solve_conj(monkeypatch, 2 * recsolve_lia.MAX_BRANCHES)
    bundled = SolverConfig(command=smt._BUNDLED_COMMAND)
    cand = parse_candidate("floor(288/55*(52/53*x3 + x4 + x5 + 52/53*x6))")
    assert verify(corpus["highdim1"].system, cand, bundled) == Unknown("solver-unknown")
    assert calls[0] == recsolve_lia.MAX_BRANCHES


def test_corpus_checks_stay_far_below_the_solver_budget(corpus, monkeypatch):
    """Each corpus `expect` and `expect+1` query makes fewer than a tenth of
    MAX_BRANCHES solve_conj calls, so a solver change that drifts toward the
    budget fails here before verdicts turn unknown."""
    limit = recsolve_lia.MAX_BRANCHES // 10
    calls = _count_solve_conj(monkeypatch, 2 * recsolve_lia.MAX_BRANCHES)
    bundled = SolverConfig(command=smt._BUNDLED_COMMAND)
    checked = 0
    for name, bf in corpus.items():
        if bf.expect is None:
            continue
        for cand in (bf.expect, _plus_one(bf.expect)):
            calls[0] = 0
            verify(bf.system, cand, bundled)
            assert calls[0] < limit, name
            checked += 1
    assert checked == 50


_UNSAT = 'unsat\n(error "model is not available")'

# the bundled solver's stdout on each `expect` and `expect+1` query of the
# corpus, recorded before the real-shadow prune: a solver change that makes
# it faster must print these byte for byte (None: no query is sent)
_CHECK_STDOUT = {
    "bin_search": (None, None),
    "div": ("unknown", "unknown"),
    "enqdeq1": (None, None),
    "enqdeq3": (None, None),
    "exp1": (_UNSAT, "sat\n(model\n  (define-fun x () Int 0)\n)"),
    "exp2": (_UNSAT, "sat\n(model\n  (define-fun x () Int 0)\n)"),
    "exp3": (_UNSAT, "sat\n(model\n  (define-fun x () Int 0)\n  (define-fun y () Int 0)\n)"),
    "fact": (None, None),
    "highdim1": (_UNSAT, "sat\n(model\n"
                 + "".join(f"  (define-fun x{i} () Int 0)\n" for i in range(1, 7)) + ")"),
    "incr1": (_UNSAT, "sat\n(model\n  (define-fun x () Int 10)\n)"),
    "lba_ex_viap": (_UNSAT, "sat\n(model\n  (define-fun x () Int 0)\n  (define-fun y () Int 1)\n"
                    "  (define-fun c () Int 0)\n  (define-fun .q1 () Int 0)\n"
                    "  (define-fun .q2 () Int (- 1))\n)"),
    "loop_tarjan": (None, None),
    "mccarthy91": (_UNSAT, "sat\n(model\n  (define-fun x () Int 101)\n)"),
    "merge": (_UNSAT, "sat\n(model\n  (define-fun x () Int 0)\n  (define-fun y () Int 0)\n)"),
    "merge_sz": (_UNSAT, "sat\n(model\n  (define-fun x () Int 0)\n  (define-fun y () Int 0)\n)"),
    "multiphase1": (None, None),
    "nested": (_UNSAT, "sat\n(model\n  (define-fun x () Int 0)\n)"),
    "noisy_strt1": (_UNSAT, "sat\n(model\n  (define-fun x () Int 0)\n)"),
    "nondet_max": (_UNSAT, "sat\n(model\n  (define-fun x () Int 0)\n)"),
    "nondet_min": (_UNSAT, "sat\n(model\n  (define-fun x () Int 0)\n)"),
    "open_zip": (_UNSAT, "sat\n(model\n  (define-fun x () Int 0)\n  (define-fun y () Int 0)\n)"),
    "poly2": (None, None),
    "poly5": (None, None),
    "succ": (_UNSAT, "sat\n(model\n  (define-fun n () Int 0)\n)"),
    "sum_osc": ("unknown", "sat\n(model\n  (define-fun x () Int 0)\n  (define-fun y () Int 0)\n)"),
}


def _check_queries(corpus):
    """(name, tag, system, candidate) of each query of the `check` bench
    workload: every corpus `expect`, and that form plus 1."""
    for name, bf in corpus.items():
        if bf.expect is not None:
            yield name, "expect", bf.system, bf.expect
            yield name, "expect+1", bf.system, _plus_one(bf.expect)


def test_check_queries_print_the_pinned_stdout(corpus, monkeypatch):
    outputs = spy(monkeypatch, recsolve_lia, "run_script")
    bundled = SolverConfig(command=smt._BUNDLED_COMMAND)
    got: dict = {}
    for name, _tag, system, cand in _check_queries(corpus):
        outputs.clear()
        verify(system, cand, bundled)
        assert len(outputs) <= 1, name
        got.setdefault(name, []).append(outputs[0][1] if outputs else None)
    assert {k: tuple(v) for k, v in got.items()} == _CHECK_STDOUT


def test_check_queries_make_few_solve_conj_calls(corpus, monkeypatch):
    """With the real-shadow prune, no `check` query makes 1,000 solve_conj
    calls, and highdim1's proof (3,270 calls without it) makes at most 500."""
    calls = _count_solve_conj(monkeypatch, 1000)
    bundled = SolverConfig(command=smt._BUNDLED_COMMAND)
    counts = {}
    for name, tag, system, cand in _check_queries(corpus):
        calls[0] = 0
        verify(system, cand, bundled)
        counts[f"{name}:{tag}"] = calls[0]
    assert len(counts) == 50
    assert counts["highdim1:expect"] <= 500


def test_shadow_refutes_lower_bounds_above_an_upper_one_in_flat_calls(monkeypatch):
    """k lower bounds on 2x, each above the upper bound x <= 3: without the
    shadow Cooper tries every lower bound (k + 2 calls); with it the count
    does not grow with k."""
    calls = _count_solve_conj(monkeypatch, 1000)
    counts = []
    for k in (1, 4, 16):
        lows = " ".join(f"(>= (* 2 x) (+ y {2 * i + 6}))" for i in range(1, k + 1))
        script = (f"(declare-fun x () Int)(declare-fun y () Int)"
                  f"(assert (and (<= x 3) (>= y 0) {lows}))(check-sat)")
        calls[0] = 0
        assert recsolve_lia.run_script(script) == "unsat"
        counts.append(calls[0])
    assert counts == [counts[0]] * 3


def test_shadow_adds_no_solve_conj_calls_to_a_satisfiable_chain(monkeypatch):
    """The shadow is projected on, not solved, so a satisfiable chain
    x0 >= 0, x(i+1) > xi, x13 <= 19 takes one call per variable plus the
    last, empty one, as with Cooper alone; solving each shadow with
    solve_conj would double the calls at every variable (32,767)."""
    calls = _count_solve_conj(monkeypatch, 1000)
    xs = [f"x{i}" for i in range(14)]
    chain = " ".join(f"(> {b} {a})" for a, b in zip(xs, xs[1:]))
    script = ("".join(f"(declare-fun {x} () Int)" for x in xs)
              + f"(assert (and (>= x0 0) {chain} (<= x13 19)))(check-sat)")
    assert recsolve_lia.run_script(script) == "sat"
    assert calls[0] == len(xs) + 1


def test_a_query_of_5000_obligations_is_encoded_flat_and_decided():
    """A long left-nested chain of obligations, as verify builds it, is one
    n-ary (or ...) in the script, so neither the encoder nor the solver
    recurses as deep as the chain is long."""
    x = Var("x")
    broken = functools.reduce(Or, [Cmp("=", x, Const(Fraction(-k))) for k in range(1, 5001)])
    job = build_job(("x",), And(Cmp(">=", x, Const(Fraction(0))), broken), SolverConfig())
    assert "(or (= x (- 1)) (= x (- 2))" in job.assertion
    assert recsolve_lia.run_script(job.script).splitlines()[0] == "unsat"


def test_encode_refuses_what_it_cannot_express():
    """The encoder alone names the node a query cannot express."""
    system = parse(
        "def f(x, y) pre x >= 0 and y >= 0"
        " { case x = 0 -> 1 case x > 0 -> f(x - 1, y) + 1 } entry f"
    ).system
    for src, label in [("x! + 1", "Factorial"), ("log2(x) + x", "Log2"), ("x^y", "Pow"),
                       ("x^(1/2)", "Pow"), ("x^9", "Pow")]:
        assert verify(system, parse_candidate(src)) == Unsupported((label,)), src
    for src in ("3*x + 2", "2^x"):
        assert not isinstance(verify(system, parse_candidate(src)), Unsupported), src
    assert verify(system, PiecewiseClosedForm()) == Unsupported(("empty-candidate",))
