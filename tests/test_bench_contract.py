"""The benchmark under bench/ can still call the program: the names its
tracer wraps exist, its workload settings build, its solver preflight
passes, and the parts of its traced pass that read `linear` run.  Tier-1
never runs a whole traced benchmark pass, so an API change that breaks one
would otherwise go unnoticed."""

import os
import sys

import pytest

from recsolve import linear, smt
from recsolve.harness import RunConfig
from recsolve.smt import SolverConfig

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))

import probes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("owner,attr,metric", tracing.TARGETS, ids=[t[2] for t in tracing.TARGETS])
def test_every_traced_target_resolves(owner, attr, metric):
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("method", ["lasso", "symreg"])
def test_workload_run_config_builds(method):
    cfg = workloads.run_config(method)
    assert isinstance(cfg, RunConfig) and cfg.method == method


def test_tracer_recognises_the_bundled_solver():
    # the traced pass replays scripts in process only for the bundled solver
    assert tracing._BUNDLED in smt._BUNDLED_COMMAND


def test_preflight_passes_with_the_default_solver():
    assert run.preflight(SolverConfig().resolved_command()) == ""


def test_criterion5_probe_reports_no_problem(corpus_dir):
    assert probes._criterion5(corpus_dir, {}) == []


def test_traced_lasso_fit_completes_its_catalog(merge):
    tracer = tracing.Tracer()
    with tracer.installed(SolverConfig().resolved_command()):
        linear.guess_linear(merge.system)
    assert tracer.metrics()["linear.tiers_completed_share"] == 1.0
