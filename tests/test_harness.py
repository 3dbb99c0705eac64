import json
import os
import subprocess
import sys

import numpy as np
import pytest

import recsolve_lia
from recsolve import cli, dsl, harness, linear
from recsolve.dsl import parse, parse_candidate
from recsolve.harness import (
    BenchmarkResult,
    RunConfig,
    classify,
    run_benchmark,
    run_corpus,
)
from recsolve.linear import GuessOutcome
from recsolve.model import PiecewiseClosedForm
from recsolve.report import emit_csv, emit_report, strip_timings, summarize, write_report
from recsolve.sampler import SampleConfig
from recsolve.smt import Disproved, Proved, SolverConfig

from conftest import MERGE, spy


def _func(src):
    return parse(src).system.entry_func


_F2 = _func("def f(x,y) pre x>=0 and y>=0 { case x>=0 -> 0 } entry f")


def test_classify_max_vs_sum_is_theta():
    cand = parse_candidate("max(x, y)")
    expect = parse_candidate("x + y")
    assert classify(cand, expect, None, _F2) == "theta"


def test_classify_global_sum_vs_merge_not_theta(merge):
    cand = parse_candidate("x + y - 1")
    expect = merge.expect or parse_candidate(
        "piece x>0 and y>0 -> x+y-1 piece x=0 or y=0 -> 0"
    )
    got = classify(cand, expect, None, merge.system.entry_func)
    assert got not in ("exact", "theta")


def test_classify_identity_is_exact(corpus):
    for name, bf in corpus.items():
        if bf.expect is None:
            continue
        got = classify(bf.expect, bf.expect, None, bf.system.entry_func)
        assert got == "exact", name


def test_classify_scaled_by_constant_stays_theta(corpus):
    from fractions import Fraction

    from recsolve.model import Const, Mul, Piece, PiecewiseClosedForm

    for name, bf in corpus.items():
        if bf.expect is None:
            continue
        scaled = PiecewiseClosedForm(
            tuple(
                Piece(p.domain, Mul(Const(Fraction(3)), p.body), p.score, p.exact_coeffs)
                for p in bf.expect.pieces
            )
        )
        got = classify(scaled, bf.expect, None, bf.system.entry_func)
        assert got in ("exact", "theta"), name


@pytest.mark.parametrize("name, body", [("exp3", "3*2^(x + y)"), ("open_zip", "max(x, y) + 1")])
def test_classify_single_piece_is_global_on_rays(corpus, name, body):
    """A single piece is the default branch everywhere, so its recorded
    domain (here the positive orthant it was fitted on) does not change its
    class: probe rays along the axes leave that domain."""
    bf = corpus[name]
    f = bf.system.entry_func
    fitted = parse_candidate(f"piece x >= 1 and y >= 1 -> {body}")
    got = classify(fitted, bf.expect, None, f)
    assert got == classify(parse_candidate(body), bf.expect, None, f) == "theta"


def test_classify_proved_is_exact(eq1):
    assert classify(parse_candidate("x"), None, Proved(), eq1.system.entry_func) == "exact"


def test_classify_confirmed_disproof_never_exact():
    bf = parse("def f(x) pre x>=0 { case x>100 -> x-10 case x<=100 -> f(f(x+11)) } entry f")
    cand = parse_candidate("91")
    expect = parse_candidate("piece x > 100 -> x - 10 piece x <= 100 -> 91")
    got = classify(cand, expect, Disproved({"x": 112}, True), bf.system.entry_func)
    assert got != "exact"


def test_classify_without_expect_degrades(eq1):
    f = eq1.system.entry_func
    assert classify(parse_candidate("x"), None, None, f) == "nontrivial"
    assert classify(None, None, None, f) == "none"


def test_classify_exp_theta_superpolynomial():
    f = _func("def f(n) pre n>=0 { case n>=0 -> 0 } entry f")
    cand = parse_candidate("3^n")
    expect = parse_candidate("2^n")
    assert classify(cand, expect, None, f) == "exp-theta"


def test_classify_constant_vs_linear_is_not_exp_theta():
    f = _func("def f(n) pre n>=0 { case n>=0 -> 0 } entry f")
    # log(91)/log(n) sits inside the band at every probe point, but neither
    # side grows superpolynomially, so the relaxation must not fire; the
    # constant candidate then lands in the bottom class
    got = classify(parse_candidate("91"), parse_candidate("n + 1"), None, f)
    assert got == "none"


def test_log_eval_matches_guarded_evaluation():
    import math

    from recsolve.dsl import parse_expr
    from recsolve.harness import _ZERO, _log_eval, _log_of_number
    from recsolve.model import eval_ground

    exprs = [
        "2^(3*n) * (1 + log2(1/2))",
        "3^n + log2(n + 1)",
        "n! * log2(n/4)",
        "2^(n+1) - log2(1/(n+2))",
        "(n+1)! / 2^n + log2(0)",
        "5 * log2(n - 7)",
        "3^n * floor(n/2) + ceil(log2(n + 1))",
        "floor(log2(n + 2)) * ceil(n/3) - 2^n",
        "2^n / (n - 1) + (n + 1) / (n - 4)",
        "max(2^n, 3^n) - min(2^n, 3^n)",
        "max(3^n, 2^n) - min(3^n, 2^n)",
        "max(0, 7 - n) + min(n - 7, 0)",
        "max(7 - n, 0) + min(0, n - 7)",
    ]
    for text in exprs:
        e = parse_expr(text)
        for n in range(0, 15):
            env = {"n": n}
            v = eval_ground(e, env, guarded=True)
            want = _ZERO if v == 0 else _log_of_number(v)
            got = _log_eval(e, env)
            assert got is not None, (text, n)
            if want == _ZERO:
                assert got == _ZERO, (text, n, got)
            else:
                assert got != _ZERO, (text, n, want)
                assert got[0] == want[0], (text, n, got, want)
                assert math.isclose(got[1], want[1], rel_tol=1e-9, abs_tol=1e-9), (
                    text,
                    n,
                    got,
                    want,
                )
    # past the exact-evaluation limit (2^512): floor/ceil of a small argument
    # stays exact and x/0 stays 0
    big = lambda n, m: (1, (600 * n * math.log(2)) + math.log(m))
    cases = [
        ("2^(600*n) * floor(n/2)", 1, _ZERO),
        ("2^(600*n) * floor(n/2)", 3, big(3, 1)),
        ("2^(600*n) * ceil(n/2)", 3, big(3, 2)),
        ("2^(600*n) * floor(log2(3))", 1, big(1, 1)),
        ("2^(600*n) / (n - 1)", 1, _ZERO),
        ("2^(600*n) / (n - 1)", 3, big(3, 0.5)),
        ("floor(2^(600*n) / 3)", 1, big(1, 1 / 3)),
    ]
    for text, n, want in cases:
        got = _log_eval(parse_expr(text), {"n": n})
        assert got is not None, (text, n)
        if want == _ZERO:
            assert got == _ZERO, (text, n, got)
        else:
            assert got[0] == want[0] and math.isclose(got[1], want[1], rel_tol=1e-12), (
                text,
                n,
                got,
                want,
            )


@pytest.mark.parametrize("text,base", [
    ("max(2^n, 3^n)", 3), ("max(3^n, 2^n)", 3), ("min(2^n, 3^n)", 2), ("min(3^n, 2^n)", 2),
    ("-min(-(2^n), -(3^n))", 3), ("-max(-(3^n), -(2^n))", 2),
])
def test_log_eval_orders_max_min_past_the_float_range(text, base):
    import math

    from recsolve.dsl import parse_expr
    from recsolve.harness import _log_eval

    n = 2**15  # base^n is far above e^700
    sign, log = _log_eval(parse_expr(text), {"n": n})
    assert sign == 1 and math.isclose(log, n * math.log(base), rel_tol=1e-12)


def test_classify_expect_overflowing_on_grid_does_not_raise():
    f = _func("def f(n) pre n>=0 { case n>=0 -> 0 } entry f")
    # equal to the expected form, which overflows on the probe grid from n = 7
    cand = parse_candidate("2^(20*n) * 2^(20*n)")
    expect = parse_candidate("2^(40*n)")
    assert classify(cand, expect, None, f) in ("exact", "theta")


# -- reports ----------------------------------------------------------------


def _result(**kw):
    base = dict(
        name="b",
        category="misc",
        method="lasso",
        candidate="x",
        score=1.0,
        verification="proved",
        classification="exact",
        time_sample=0.1,
        time_fit=0.2,
        time_verify=0.3,
        seed=0,
    )
    base.update(kw)
    return BenchmarkResult(**base)


def test_report_empty():
    text = emit_report([])
    lines = text.strip().splitlines()
    assert json.loads(lines[0])["format-version"] == 1
    summary = json.loads(lines[-1])["summary"]
    assert summary["benchmarks"] == 0
    assert all(v == 0 for v in summary["classes"].values())


def test_report_schema_one_entry():
    text = emit_report([_result()])
    rec = json.loads(text.strip().splitlines()[1])
    assert rec["classification"] == "exact"
    assert rec["verification"] == "proved"
    assert set(rec["timings"]) == {"sample", "fit", "verify"}
    assert rec["seed"] == 0


def test_report_totals_match():
    rs = [_result(name="a"), _result(name="b", classification="theta"),
          _result(name="c", classification="none", verification="not-run")]
    summary = summarize(rs)
    assert summary["benchmarks"] == 3
    assert summary["classes"]["exact"] == 1
    assert summary["classes"]["theta"] == 1
    assert summary["classes"]["none"] == 1
    assert sum(summary["classes"].values()) == 3
    assert summary["errors"] == 0


def test_report_counts_stage_errors():
    rs = [
        _result(name="a"),
        _result(name="b", classification="none", flags=("classify-error:NameError",)),
        _result(name="c", verification="error", flags=("verify-error:EvalError",)),
        _result(name="d", classification="none", error="boom"),
        _result(name="e", flags=("reconstructed", "missing-pieces:1")),
    ]
    assert summarize(rs)["errors"] == 3


def test_csv_projection():
    text = emit_csv([_result()])
    lines = text.strip().splitlines()
    assert lines[0].startswith("format-version")
    assert "name" in lines[1]
    assert lines[2].startswith("b,misc,lasso,exact,proved")


def test_write_report_writes_both(tmp_path):
    out = tmp_path / "r.jsonl"
    rs = [_result(name="a"), _result(name="b", classification="theta")]
    assert write_report(iter(rs), str(out)) == rs
    assert out.read_bytes() == emit_report(rs).encode()
    assert (tmp_path / "r.csv").read_bytes() == emit_csv(rs).encode()


def test_strip_timings():
    a = emit_report([_result(time_fit=1.0)])
    b = emit_report([_result(time_fit=2.0)])
    assert a != b
    assert strip_timings(a) == strip_timings(b)


# -- benchmark runner ----------------------------------------------------------


def _fast_cfg(**kw):
    base = dict(
        method="lasso",
        seed=0,
        repeat=1,
        verify=True,
        sample=SampleConfig(n=60, seed=0),
    )
    base.update(kw)
    return RunConfig(**base)


def test_run_benchmark_worked_example(corpus_dir):
    res = run_benchmark(os.path.join(corpus_dir, "nested.rec"), _fast_cfg())
    assert res.classification == "exact"
    assert res.verification == "proved"
    assert res.candidate == "piece x >= 1 -> x"
    assert res.score == 1.0


def test_run_benchmark_merge_split_vs_global(corpus_dir):
    path = os.path.join(corpus_dir, "merge.rec")
    split = run_benchmark(path, _fast_cfg(domsplit=True))
    assert split.classification == "exact"
    flat = run_benchmark(path, _fast_cfg())
    assert flat.classification != "exact"


def test_run_benchmark_auto_falls_back_to_symreg(corpus_dir):
    """exp3's lasso fit falls below the auto threshold, so symbolic regression
    runs.  With this small GP a seed fits exp3 (score > 0.99) about four
    times in five (79 of seeds 0-99), so the fit is a hit count over 10
    fixed seeds; at that rate fewer than 5 hits has probability 0.8%."""
    from recsolve.symbolic import GPConfig

    hits = 0
    for seed in range(7, 17):
        cfg = _fast_cfg(method="auto", domsplit=True, verify=False, seed=seed)
        cfg.gp = GPConfig(populations=8, population_size=20, iterations=15)  # seeded by cfg.seed
        res = run_benchmark(os.path.join(corpus_dir, "exp3.rec"), cfg)
        assert res.method == "symreg"
        hits += res.score > 0.99
    assert hits >= 5


_SUM5 = (
    "def f(a,b,c,d,e) pre a>=0 and b>=0 and c>=0 and d>=0 and e>=0 {"
    " case a=0 -> b+c+d+e case a>0 -> f(a-1,b,c,d,e)+1 } entry f"
)


def test_run_benchmark_reports_tier_flags(monkeypatch):
    """The 5-ary catalog is cut to depth 2, its 967 monomials: one fit."""
    calls = spy(monkeypatch, linear, "cv_lasso")
    res = run_benchmark(_SUM5, _fast_cfg(verify=False))
    assert "catalog-depth:2" in res.flags
    assert [len(args[0].features) for args, _ in calls] == [967]


def test_run_benchmark_times_every_guess_attempt(monkeypatch):
    """The report's sample and fit times sum over every guess run, not only
    the kept one: both lasso runs, and under `auto` the symreg runs too."""

    def guess_once(bf, cfg, method, attempt):
        sample = {"lasso": 1.0, "symreg": 4.0}[method] * (attempt + 1)
        return GuessOutcome(PiecewiseClosedForm(), sample_seconds=sample, fit_seconds=10 * sample)

    monkeypatch.setattr(harness, "_guess_once", guess_once)
    res = run_benchmark(MERGE, _fast_cfg(verify=False, repeat=2))
    assert (res.time_sample, res.time_fit) == (1.0 + 2.0, 10.0 + 20.0)
    res = run_benchmark(MERGE, _fast_cfg(method="auto", verify=False, repeat=2))
    assert res.method == "lasso"
    assert (res.time_sample, res.time_fit) == (1.0 + 2.0 + 4.0 + 8.0, 10.0 + 20.0 + 40.0 + 80.0)


def test_verify_checks_a_candidate_below_the_auto_threshold(corpus_dir):
    res = run_benchmark(os.path.join(corpus_dir, "fib.rec"), RunConfig(seed=7, repeat=1, verify=True))
    assert res.score < harness.AUTO_THRESHOLD
    assert res.verification == "unsupported:non-rational-coefficients"


@pytest.mark.parametrize("command,error", [
    (("no-such-solver-xyz",), "SolverNotFound"),
    (("false",), "SolverCrashed"),
])
def test_run_benchmark_flags_solver_errors(corpus_dir, command, error):
    cfg = _fast_cfg(solver=SolverConfig(command=command))
    res = run_benchmark(os.path.join(corpus_dir, "nested.rec"), cfg)
    assert f"verify-error:{error}" in res.flags
    assert res.verification == "error"
    assert summarize([res])["errors"] == 1


def test_run_benchmark_flags_a_raising_bundled_solver(corpus_dir, monkeypatch):
    def boom(script):
        raise ValueError("boom")

    monkeypatch.setattr(recsolve_lia, "run_script", boom)
    cfg = _fast_cfg(solver=SolverConfig(command=(sys.executable, recsolve_lia.__file__)))
    res = run_benchmark(os.path.join(corpus_dir, "nested.rec"), cfg)
    assert "verify-error:SolverCrashed" in res.flags
    assert res.verification == "error"


def test_run_benchmark_never_raises_on_bad_input(tmp_path):
    bad = tmp_path / "bad.rec"
    bad.write_text("def f(x) pre x>=0 { case x=0 -> 0 case x>0 -> f(x-1)+ } entry f")
    res = run_benchmark(str(bad), _fast_cfg())
    assert res.error
    assert res.classification == "none"


def test_run_corpus_empty_dir(tmp_path):
    assert run_corpus(str(tmp_path), _fast_cfg()) == []


def test_run_corpus_worked_examples(tmp_path):
    for name in ["nested", "succ", "nondet_max", "nondet_min"]:
        src = os.path.join(os.path.dirname(__file__), "..", "corpus", f"{name}.rec")
        (tmp_path / f"{name}.rec").write_text(open(src).read())
    results = run_corpus(str(tmp_path), _fast_cfg())
    assert [r.name for r in results] == sorted(r.name for r in results)
    assert all(r.classification == "exact" for r in results), [
        (r.name, r.classification, r.verification) for r in results
    ]
    assert all(r.verification == "proved" for r in results)


def test_cli_corpus_keeps_earlier_records_when_a_later_benchmark_crashes(tmp_path, monkeypatch):
    corpus = _corpus_subset(tmp_path, ["nested", "succ"])
    run_entry = harness._corpus_entry

    def entry(args):
        if args[0].endswith("succ.rec"):
            raise MemoryError("late crash")
        return run_entry(args)

    monkeypatch.setattr(harness, "_corpus_entry", entry)
    out = tmp_path / "r.jsonl"
    assert cli.main(["corpus", corpus, "--seed", "7", "--repeat", "1", "--jobs", "1",
                     "--out", str(out)]) == 2
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "recsolve-report"
    assert [json.loads(line)["name"] for line in lines[1:]] == ["nested"]


# -- CLI ----------------------------------------------------------------------


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "recsolve.cli", *args],
        capture_output=True,
        text=True,
        cwd=os.path.join(os.path.dirname(__file__), ".."),
    )


def test_cli_solve_exit_zero(corpus_dir):
    p = _cli("solve", "corpus/nested.rec", "--verify", "--repeat", "1")
    assert p.returncode == 0, p.stderr
    assert "classification: exact" in p.stdout


def test_cli_usage_error_exit_one():
    p = _cli("solve")
    assert p.returncode == 1
    p2 = _cli("solve", "x.rec", "--method", "nonsense")
    assert p2.returncode == 1


@pytest.mark.parametrize("option", [
    ("--bound", "abc"), ("--bound", "0"), ("--lambda-grid", "1:2"),
    ("--samples", "1"), ("--folds", "1"),
    ("--jobs", "0"), ("--jobs", "-1"), ("--repeat", "0"),
])
def test_cli_bad_option_value_exit_one(option):
    p = _cli("solve", "corpus/succ.rec", "--repeat", "1", *option)
    assert p.returncode == 1, p.stderr
    assert "bad option value" in p.stderr
    assert p.stdout == ""


def test_cli_internal_error_exit_two(tmp_path):
    missing = "/nonexistent/definitely-missing.rec"
    for argv in (("solve", missing), ("check", missing, "--candidate", "x")):
        p = _cli(*argv)
        assert p.returncode == 2
        assert f"cannot read {missing}" in p.stderr


def test_cli_out_into_missing_directory_fails_before_running(tmp_path):
    out = str(tmp_path / "missing" / "r.jsonl")
    for cmd in (("corpus", "corpus"), ("solve", "corpus/nested.rec")):
        p = _cli(*cmd, "--repeat", "1", "--out", out)
        assert p.returncode == 2
        assert "cannot write report" in p.stderr
        assert p.stdout == ""  # no benchmark ran
    assert not os.path.exists(tmp_path / "missing")


def _corpus_subset(tmp_path, names):
    src_dir = os.path.join(os.path.dirname(__file__), "..", "corpus")
    sub = tmp_path / "corpus"
    sub.mkdir()
    for name in names:
        (sub / f"{name}.rec").write_text(open(os.path.join(src_dir, f"{name}.rec")).read())
    return str(sub)


def test_cli_debug_smt_keeps_every_script_under_jobs(tmp_path):
    corpus = _corpus_subset(tmp_path, ["nested", "succ", "nondet_max", "nondet_min"])
    kept = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        p = _cli("corpus", corpus, "--verify", "--seed", "7", "--repeat", "1", "--debug-smt",
                 "--jobs", jobs, "--out", str(out / "r.jsonl"))
        assert p.returncode == 0, p.stderr
        kept[jobs] = sorted(str(f.relative_to(out)) for f in out.rglob("*.smt2"))
    assert kept["1"] == kept["2"]
    for name in ("nested", "succ", "nondet_max", "nondet_min"):
        assert any(k.startswith(name + os.sep) for k in kept["1"]), kept["1"]


def test_cli_corpus_reports_match_across_jobs_under_load(tmp_path):
    corpus = _corpus_subset(tmp_path, ["nonterm_q", "nested", "merge", "fib"])
    reports = []
    for jobs in ("1", "2"):
        out = str(tmp_path / f"r{jobs}.jsonl")
        burner = None
        if jobs == "2":
            burner = subprocess.Popen([sys.executable, "-c", "while True: pass"])
        try:
            p = _cli("corpus", corpus, "--verify", "--seed", "7", "--repeat", "1",
                     "--jobs", jobs, "--out", out)
        finally:
            if burner is not None:
                burner.kill()
                burner.wait(timeout=10)
        assert p.returncode == 0, p.stderr
        with open(out) as fh:
            reports.append(strip_timings(fh.read()))
    assert reports[0] == reports[1]
    assert '"nonterm_q"' in reports[0]


def test_default_lambda_grid_is_numpys_geomspace(monkeypatch):
    """LassoConfig's default grid, built at first use, and the one the CLI
    builds from its default --lambda-grid are np.geomspace's, bit for bit."""
    expected = [float(v).hex() for v in np.geomspace(0.001, 1.0, 100)]
    assert [v.hex() for v in linear.LassoConfig().lambda_grid] == expected
    assert [v.hex() for v in RunConfig().lasso.lambda_grid] == expected
    seen = []
    monkeypatch.setattr(cli, "_cmd_solve", lambda args, cfg: seen.append(cfg) or 0)
    assert cli.main(["solve", "unread.rec"]) == 0
    assert [v.hex() for v in seen[0].lasso.lambda_grid] == expected


def test_cli_check(corpus_dir):
    p = _cli("check", "corpus/nested.rec", "--candidate", "x")
    assert p.returncode == 0
    assert "Proved" in p.stdout
    p2 = _cli("check", "corpus/nested.rec", "--candidate", "x+1")
    assert "Disproved" in p2.stdout and "confirmed=True" in p2.stdout
    p3 = _cli("check", "corpus/nested.rec", "--candidate", "x +")
    assert p3.returncode == 1 and "bad option value: --candidate" in p3.stderr
