from fractions import Fraction

import pytest

from recsolve import dsl
from recsolve.dsl import ParseError, parse, parse_candidate, parse_expr, print_expr
from recsolve.model import Const, Div, EvalError, Pow, Var, eval_bool

from conftest import EQ1, FIB, corpus_paths


def test_parse_worked_example():
    bf = parse(EQ1)
    f = bf.system.entry_func
    assert f.params == ("x",)
    assert len(f.cases) == 2
    assert dsl.print_expr(f.cases[1].body) == "f(f(x - 1)) + 1"


def test_parse_fibonacci():
    bf = parse(FIB)
    assert len(bf.system.entry_func.cases) == 3


def test_roundtrip_identity_on_corpus():
    for path in corpus_paths():
        with open(path) as fh:
            bf = parse(fh.read())
        text = dsl.print_benchmark(bf)
        bf2 = parse(text)
        assert bf2.system == bf.system, path
        assert bf2.expect == bf.expect, path
        assert bf2.category == bf.category, path
        # printing is deterministic: identical structures, identical bytes
        assert dsl.print_benchmark(bf2) == text, path


def test_rationals_print_as_fractions():
    assert print_expr(Const(Fraction(1, 3))) == "1/3"
    assert print_expr(Const(Fraction(9, 20))) == "9/20"
    assert "." not in print_expr(Const(Fraction(45, 100)))


def test_decimal_literals_become_exact_fractions():
    e = parse_expr("0.45")
    assert e == Const(Fraction(9, 20))


def test_literal_fraction_folds():
    assert parse_expr("1/3") == Const(Fraction(1, 3))
    assert parse_expr("x/2") == Div(Var("x"), Const(Fraction(2)))


def test_fraction_exponent_roundtrip():
    e = Pow(Var("x"), Const(Fraction(1, 2)))
    assert parse_expr(print_expr(e)) == e


def test_precedence():
    assert parse_expr("2^x!") == Pow(Const(Fraction(2)), parse_expr("x!"))
    assert print_expr(parse_expr("-x^2")) == "-x^2"
    assert parse_expr("-x^2") == parse_expr("-(x^2)")
    assert parse_expr("a - b - c") == parse_expr("(a - b) - c")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("def f(x) pre x>=0 {\n case x=0 -> (1+ }\nentry f")
    assert err.value.line == 2


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError):
        parse("def f(x) pre x>=0 { case x=0 -> 0 case x>0 -> f(x-1, 2) } entry f")


def test_unknown_function_rejected():
    with pytest.raises(ParseError):
        parse("def f(x) pre x>=0 { case x=0 -> 0 case x>0 -> g(x-1) } entry f")


def test_guard_containing_call_rejected():
    with pytest.raises(ParseError):
        parse("def f(x) pre x>=0 { case f(x)=0 -> 0 case x>=0 -> 1 } entry f")


def test_totality_violation_rejected():
    with pytest.raises(ParseError) as err:
        parse("def f(x) pre x>=0 { case x>3 -> f(x-1) case x=0 -> 1 } entry f")
    assert "totality" in str(err.value)


def test_totality_check_skips_a_point_whose_guard_fails_to_evaluate():
    text = "def f(x) pre x>=0 { case x>=1 and 1/(x-1) >= 0 -> f(x-1)+1 case x=0 -> 0 } entry f"
    f = parse(text).system.entry_func
    with pytest.raises(EvalError):
        eval_bool(f.cases[0].guard, {"x": 1})


def test_totality_check_lets_other_errors_through(monkeypatch):
    def broken(c, env, **kw):
        raise TypeError("bug in eval_bool")

    monkeypatch.setattr(dsl, "eval_bool", broken)
    with pytest.raises(TypeError, match="bug in eval_bool"):
        parse(EQ1)


def test_missing_base_case_rejected():
    with pytest.raises(ParseError):
        parse("def f(x) pre x>=0 { case x>=0 -> f(x)+1 } entry f")


def test_headers_parse():
    bf = parse("format-version: 1\nreconstructed: true\ncategory max-heavy\n" + EQ1)
    assert bf.format_version == 1
    assert bf.reconstructed
    assert bf.category == "max-heavy"


def test_parse_candidate_piecewise_and_bare():
    pcf = parse_candidate("piece x>0 -> x piece x=0 -> 0")
    assert len(pcf.pieces) == 2
    bare = parse_candidate("x + 1")
    assert len(bare.pieces) == 1


def test_comments_ignored():
    bf = parse("# header comment\n" + EQ1 + "\n# trailing")
    assert bf.system.entry == "f"
