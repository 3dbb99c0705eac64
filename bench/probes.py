"""Fixed-input layer probes for the traced run. Each times one layer call on
inputs that never change between runs and checks what the call returned."""

from __future__ import annotations

import random
import time

from recsolve import linear, sampler, smt, symbolic
from recsolve.evaluator import Evaluator

from workloads import SEED, load, run_config

# The deadline given to the second cv_lasso on the criterion-5 data, well
# below the several seconds the coordinate-descent solver needs there.
PROBE_DEADLINE_S = 1.0


def run_all(corpus_dir: str) -> tuple[dict[str, float], list[str]]:
    """Probe metrics in seconds, and problems with the probes' outputs."""
    metrics: dict[str, float] = {}
    problems: list[str] = []
    for probe in (_criterion5, _batch_eval, _choose_bound, _evolve_fib, _verify_expected):
        problems.extend(probe(corpus_dir, metrics))
    return metrics, problems


def _timed(metrics: dict, name: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    metrics[name] = time.perf_counter() - t0
    return out


def _criterion5(corpus_dir, metrics) -> list[str]:
    """build_training_set + cv_lasso: 100 rows on the 2-variable large
    catalog, the data of acceptance criterion 5."""
    rng = random.Random(1)
    samples = [(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(100)]
    values = [3 * x + 2 * y + 1 for x, y in samples]
    fs = linear.catalog_for(2)["large"]
    T = _timed(metrics, "probe.criterion5_build_s", linear.build_training_set, fs, ("x", "y"), samples, values)
    res = _timed(metrics, "probe.criterion5_cv_lasso_s", linear.cv_lasso, T, linear.LassoConfig())
    _, T2 = linear.prune(fs, T, res.beta, res.beta0, 0.05)
    score = linear.ols_refit(T2, None).score
    problems = [] if score > 0.999 else [f"criterion-5 probe: refit R^2 {score:.6f}"]
    # How far past its deadline cv_lasso gives up; negative when it finishes
    # before the deadline.
    deadline = time.monotonic() + PROBE_DEADLINE_S
    try:
        linear.cv_lasso(T, linear.LassoConfig(), deadline=deadline)
    except linear.FitTimeout:
        pass
    metrics["probe.criterion5_deadline_overrun_s"] = time.monotonic() - deadline
    return problems


def _batch_eval(corpus_dir, metrics) -> list[str]:
    """Evaluator.batch_eval on merge (all of [0,20]^2) and on nonterm_q,
    whose positive inputs all exhaust the budget."""
    problems = []
    bf = load(corpus_dir, "merge")
    pts = [(x, y) for x in range(21) for y in range(21)]
    res = _timed(metrics, "probe.batch_eval_merge_s", Evaluator(bf.system).batch_eval, "f", pts)
    want = [smt.eval_piecewise(bf.expect, {"x": x, "y": y}) for x, y in pts]
    if [r.value for r in res] != want:
        problems.append("batch_eval probe: merge values differ from its expected form")
    bf = load(corpus_dir, "nonterm_q")
    pts = [(x,) for x in range(21)]
    res = _timed(metrics, "probe.batch_eval_nonterm_q_s", Evaluator(bf.system).batch_eval, "q", pts)
    if res[0].value != 1 or not all((r.error or "").startswith("budget-exceeded") for r in res[1:]):
        problems.append("batch_eval probe: nonterm_q did not exhaust the budget off zero")
    return problems


def _choose_bound(corpus_dir, metrics) -> list[str]:
    """choose_bound on merge with the workloads' sampling settings: the
    first rung (20) evaluates cleanly."""
    bf = load(corpus_dir, "merge")
    cfg = run_config("lasso").sample
    bc = _timed(metrics, "probe.choose_bound_merge_s", sampler.choose_bound, bf.system, "f", cfg, seed=SEED)
    if bc.bound != cfg.bound_ladder[0] or bc.fell_through:
        return [f"choose_bound probe: merge chose bound {bc.bound}"]
    return []


def _evolve_fib(corpus_dir, metrics) -> list[str]:
    """One symbolic-regression run on fib(1..20) with GPConfig(20, 30, 30)."""
    bf = load(corpus_dir, "fib")
    inputs = [(n,) for n in range(1, 21)]
    targets = [float(r.value) for r in Evaluator(bf.system).batch_eval("f", inputs)]
    cfg = symbolic.GPConfig(populations=20, population_size=30, iterations=30, seed=SEED)
    front = _timed(metrics, "probe.evolve_fib_s", symbolic.evolve, inputs, targets, ("n",), None, cfg)
    return [] if front.pareto() else ["evolve probe: empty Pareto front on fib"]


def _verify_expected(corpus_dir, metrics) -> list[str]:
    """verify of the expected forms of nested and highdim1."""
    problems = []
    for name in ("nested", "highdim1"):
        bf = load(corpus_dir, name)
        v = _timed(metrics, f"probe.verify_{name}_s", smt.verify, bf.system, bf.expect)
        if not isinstance(v, smt.Proved):
            problems.append(f"verify probe: the expected form of {name} gave {v}")
    return problems
