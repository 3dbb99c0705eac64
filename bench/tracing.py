"""Per-layer tracing for the benchmark's traced run.

Layer functions are wrapped from outside the package. Each target is
replaced in every loaded recsolve module that bound it by name, so a call
through a `from .x import f` binding is seen as well as one through the
defining module. `evolve` looks up `tree_loss`, and `verify` looks up
`check`, at call time, so those module attributes are patched the same way.

A wrapper counts calls and adds inclusive time; some also read arguments or
results for layer counters (cells evaluated, tier flags, solver verdicts).
With the bundled solver, each query's script is also replayed in process
after its subprocess returns, to split `smt.check` into the solver's own
work and process overhead; the replay is outside `smt.check_s` but inside
the traced wall time. Everything is restored when the `installed()` block
ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from recsolve import evaluator, harness, linear, rewrite, sampler, smt, symbolic
import recsolve_lia

# (module, attribute, metric prefix); the metric gets `_s` for inclusive
# seconds and `_calls` for the call count.
TARGETS = (
    (linear, "guess_linear", "linear.guess_linear"),
    (linear, "collect_domain_data", "sampler.collect_domain_data"),
    (linear, "build_training_set", "linear.build_training_set"),
    (linear, "cv_lasso", "linear.cv_lasso"),
    (symbolic, "guess_symbolic", "symbolic.guess_symbolic"),
    (symbolic, "evolve", "symbolic.evolve"),
    (symbolic, "tree_loss", "symbolic.tree_loss"),
    (symbolic, "optimize_constants_tree", "symbolic.optimize_constants"),
    (evaluator.Evaluator, "batch_eval", "evaluator.batch_eval"),
    (sampler, "choose_bound", "sampler.choose_bound"),
    (smt, "verify", "smt.verify"),
    (smt, "build_job", "smt.build_job"),
    (smt, "check", "smt.check"),
    (rewrite, "simplify", "rewrite.simplify"),
    (harness, "classify", "harness.classify"),
)

_BUNDLED = "recsolve_lia"


class Tracer:
    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.events: list[tuple[str, str]] = []  # (operation, what happened)
        self.op = ""  # label of the operation running now
        self._replay = False

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self, solver_command: tuple[str, ...]):
        """Patch every target for the duration of the block. Captured solver
        scripts are replayed in process only for the bundled solver."""
        self._replay = _BUNDLED in solver_command
        patches = []
        try:
            for owner, attr, metric in TARGETS:
                original = getattr(owner, attr)
                hook = getattr(self, "_after_" + attr, None)
                wrapped = self._wrap(original, metric, hook)
                for target in _bindings(owner, attr, original):
                    patches.append((target, attr, original))
                    setattr(target, attr, wrapped)
            yield self
        finally:
            for target, attr, original in reversed(patches):
                setattr(target, attr, original)

    def _wrap(self, fn, metric, hook):
        seconds, calls = self.seconds, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                seconds[metric] += clock() - t0
                calls[metric] += 1
                if hook is not None:
                    hook(args, kwargs, result, error)

        traced.__wrapped__ = fn
        return traced

    # -- counters read from arguments and results ----------------------------

    def _after_build_training_set(self, args, kwargs, result, error):
        fs, samples = args[0], args[2]
        self.counts["linear.cells"] += len(samples) * fs.count

    def _after_cv_lasso(self, args, kwargs, result, error):
        deadline = kwargs.get("deadline")
        if isinstance(error, linear.FitTimeout) and deadline is not None:
            overrun = max(0.0, time.monotonic() - deadline)
            self.counts["linear.cv_lasso_overrun_s"] += overrun
            self.events.append((self.op, f"cv_lasso ran {overrun:.2f}s past fit_timeout"))

    def _after_guess_linear(self, args, kwargs, result, error):
        if result is None:
            return
        self._log_fits(result)
        for fit in result.fits:
            if fit.model is None and fit.error != "no-fit":
                continue  # the domain never reached the tier fits
            self.counts["linear.tiers_attempted"] += len(linear.TIERS)
            for flag in fit.flags:
                self.counts[f"linear.tier_{flag.split(':', 1)[-1]}"] += 1

    def _after_guess_symbolic(self, args, kwargs, result, error):
        if result is not None:
            self._log_fits(result)

    def _log_fits(self, outcome):
        """Fit flags and errors, which the benchmark report does not show."""
        for fit in outcome.fits:
            self.events.extend((self.op, flag) for flag in fit.flags)
            if fit.error:
                self.events.append((self.op, f"fit-error:{fit.error}"))

    def _after_batch_eval(self, args, kwargs, result, error):
        if result is None:
            return
        self.counts["evaluator.inputs"] += len(result)
        self.counts["evaluator.budget_failures"] += sum(
            1 for r in result if r.error and r.error.startswith("budget-exceeded")
        )

    def _after_choose_bound(self, args, kwargs, result, error):
        if result is None:
            return
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        self.counts["sampler.rungs_tried"] += cfg.bound_ladder.index(result.bound) + 1

    def _after_check(self, args, kwargs, result, error):
        job = args[0]
        kind = "entail" if job.name == "entail" else "verify"
        self.counts[f"smt.queries_{kind}"] += 1
        verdict = {
            smt.Proved: "unsat", smt.Disproved: "sat", smt.Unknown: "unknown"
        }.get(type(result), "error")
        self.counts[f"smt.{verdict}"] += 1
        if self._replay:
            script = job.script
            t0 = time.perf_counter()
            recsolve_lia.run_script(script)
            self.seconds["recsolve_lia.run_script"] += time.perf_counter() - t0

    # -- report -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals under their metric names (zeros included)."""
        s, c, n = self.seconds, self.calls, self.counts
        attempted = n["linear.tiers_attempted"]
        failed_tiers = (
            n["linear.tier_timeout"]
            + n["linear.tier_catalog-too-large"]
            + n["linear.tier_empty-training-set"]
        )
        return {
            "linear.cv_lasso_s": s["linear.cv_lasso"],
            "linear.cv_lasso_calls": c["linear.cv_lasso"],
            "linear.build_training_set_s": s["linear.build_training_set"],
            "linear.cells": n["linear.cells"],
            "linear.tier_timeouts": n["linear.tier_timeout"],
            "linear.tiers_completed_share": (attempted - failed_tiers) / attempted if attempted else 0.0,
            "linear.catalog_too_large": n["linear.tier_catalog-too-large"],
            "linear.all_pruned": n["linear.tier_all-pruned"],
            "symbolic.evolve_s": s["symbolic.evolve"],
            "symbolic.tree_loss_calls": c["symbolic.tree_loss"],
            "symbolic.tree_loss_s": s["symbolic.tree_loss"],
            "symbolic.optimize_constants_s": s["symbolic.optimize_constants"],
            "evaluator.batch_eval_s": s["evaluator.batch_eval"],
            "evaluator.inputs": n["evaluator.inputs"],
            "evaluator.budget_failures": n["evaluator.budget_failures"],
            "sampler.choose_bound_s": s["sampler.choose_bound"],
            "sampler.rungs_tried": n["sampler.rungs_tried"],
            "smt.verify_s": s["smt.verify"],
            "smt.build_job_s": s["smt.build_job"],
            "smt.check_s": s["smt.check"],
            "smt.queries": c["smt.check"],
            "smt.queries_entail": n["smt.queries_entail"],
            "smt.queries_verify": n["smt.queries_verify"],
            "smt.unsat": n["smt.unsat"],
            "smt.sat": n["smt.sat"],
            "smt.unknown": n["smt.unknown"],
            "recsolve_lia.run_script_s": s["recsolve_lia.run_script"],
            "smt.process_overhead_s": s["smt.check"] - s["recsolve_lia.run_script"],
            "rewrite.simplify_s": s["rewrite.simplify"],
            "rewrite.simplify_calls": c["rewrite.simplify"],
            "harness.classify_s": s["harness.classify"],
        }

    def stage_seconds(self) -> dict[str, float]:
        """Disjoint stage times: sampling inside the guessers, the rest of
        the guessers as fitting, then verification and classification."""
        s = self.seconds
        sample = s["sampler.collect_domain_data"]
        return {
            "sample": sample,
            "fit": s["linear.guess_linear"] + s["symbolic.guess_symbolic"] - sample,
            "verify": s["smt.verify"],
            "classify": s["harness.classify"],
        }


def _bindings(owner, attr, original):
    """The owner itself (a module or class) and every other loaded recsolve
    module that bound the same object under the same name."""
    found = [owner]
    for name, mod in list(sys.modules.items()):
        if mod is owner or not (name == "recsolve" or name.startswith("recsolve.") or name == _BUNDLED):
            continue
        if getattr(mod, attr, None) is original:
            found.append(mod)
    return found
