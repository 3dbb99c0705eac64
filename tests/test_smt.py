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
from recsolve.dsl import parse, parse_bool, parse_candidate, parse_expr, print_bool, print_expr
from recsolve.evaluator import Evaluator
from recsolve.model import Add, Const, PiecewiseClosedForm, Var, contains_call, eval_bool
from recsolve.rewrite import simplify
from recsolve.smt import (
    Disproved,
    Proved,
    SmtJob,
    SolverConfig,
    SolverCrashed,
    SolverNotFound,
    Unknown,
    Unsupported,
    check,
    encode,
    eval_piecewise,
    inline_candidate,
    replace_calls,
    verify,
)

from conftest import EQ1, MAXVAR, MERGE, MINVAR, SUCC, corpus_files


def test_replace_calls_worked_example(eq1):
    f = eq1.system.entry_func
    obligations = []
    out = replace_calls(f.cases[1].body, f, parse_candidate("x"), obligations)
    assert not contains_call(out)
    assert simplify(out) == parse_expr("x")
    assert print_expr(out) == "x - 1 + 1"
    # innermost first: f(x - 1), then f applied to the candidate's x - 1
    assert [print_bool(o) for o in obligations] == ["x - 1 >= 0", "x - 1 >= 0"]


def test_replace_calls_callfree_unchanged(eq1):
    f = eq1.system.entry_func
    e = parse_expr("x + 2")
    obligations = []
    assert replace_calls(e, f, parse_candidate("x"), obligations) == e
    assert obligations == []


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


def test_variable_divisor_is_a_side_condition_of_the_query(corpus):
    job = encode(corpus["div"].system.entry_func, corpus["div"].expect)
    # the quotient's bounds hold only where the divisor is positive, and a
    # divisor below 1 is itself a refutation
    assert "(=> (>= y 1) (and (<= (* .q1 y) x) (< x (+ (* .q1 y) y))))" in job.script
    assert "(not (>= y 1))" in job.script


def test_unconfirmed_model_below_a_divisor_is_unsupported():
    bf = parse("def f(x, y) pre x >= 0 and y >= 0 { case true -> floor(x/y) } entry f")
    # a stand-in solver answering sat at y = 0, where the recurrence divides by zero
    model = "print('sat'); print('(model (define-fun x () Int 3) (define-fun y () Int 0))')"
    res = verify(bf.system, parse_candidate("floor(x/y) + 1"),
                 SolverConfig(command=(sys.executable, "-c", model)))
    assert res == Unsupported(("variable-division",))


def test_inline_piecewise_candidate():
    cand = parse_candidate("piece x>0 -> x piece x=0 -> 0")
    e = inline_candidate(cand, (parse_expr("y+1"),), ("x",))
    assert eval_bool(parse_bool("true"), {}) is not None
    from recsolve.model import Ite

    assert isinstance(e, Ite)


def test_encode_worked_example(eq1):
    job = encode(eq1.system.entry_func, parse_candidate("x"))
    assert isinstance(job, SmtJob)
    assert "(declare-fun x () Int)" in job.script
    assert "(check-sat)" in job.script and "(get-model)" in job.script
    assert job.script.count("(assert") == 1  # one assertion of the negation


def test_encode_unsupported_factorial(eq1):
    out = encode(eq1.system.entry_func, parse_candidate("x!"))
    assert isinstance(out, Unsupported)
    assert "Factorial" in out.offending


def test_encode_max_uses_ite():
    bf = parse(MAXVAR)
    job = encode(bf.system.entry_func, parse_candidate("2*x"))
    assert isinstance(job, SmtJob)
    assert "(ite (>=" in job.script
    # brute-force agreement of the ite encoding: the negation must have no
    # model on a small grid, matching pointwise evaluation
    ev = Evaluator(bf.system)
    for x in range(15):
        assert ev.eval_fun("f", (x,)) == 2 * x


def test_check_proved_and_disproved(eq1):
    job = encode(eq1.system.entry_func, parse_candidate("x"))
    assert isinstance(check(job), Proved)
    job_bad = encode(eq1.system.entry_func, parse_candidate("x+1"))
    res = check(job_bad, confirmer=lambda point: point == {"x": 0})
    assert isinstance(res, Disproved)
    assert res.counterexample == {"x": 0}
    assert res.confirmed


def test_check_solver_not_found(eq1):
    job = encode(eq1.system.entry_func, parse_candidate("x"))
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
    bundled = SolverConfig(command=(sys.executable, recsolve_lia.__file__))
    single = {n: bf for n, bf in corpus.items() if bf.expect and bf.system.is_single_equation()}
    assert sorted(single) == sorted(VERDICTS)
    for name, bf in single.items():
        plus_one = PiecewiseClosedForm(tuple(
            replace(p, body=Add(p.body, Const(Fraction(1)))) for p in bf.expect.pieces
        ))
        got = tuple(_verdict(verify(bf.system, c, bundled)) for c in (bf.expect, plus_one))
        assert got == VERDICTS[name], name


def test_encode_refuses_what_it_cannot_express():
    """The encoder alone names the node a query cannot express."""
    func = parse(
        "def f(x, y) pre x >= 0 and y >= 0"
        " { case x = 0 -> 1 case x > 0 -> f(x - 1, y) + 1 } entry f"
    ).system.entry_func
    for src, label in [("x! + 1", "Factorial"), ("log2(x) + x", "Log2"), ("x^y", "Pow"),
                       ("x^(1/2)", "Pow"), ("x^9", "Pow")]:
        assert encode(func, parse_candidate(src)) == Unsupported((label,)), src
    for src in ("3*x + 2", "2^x"):
        assert isinstance(encode(func, parse_candidate(src)), SmtJob), src
