"""recsolve: guess-and-check solving of constrained recurrence relations.

Recurrences are evaluated on sampled inputs, a closed form is guessed by
sparse linear regression or symbolic regression (optionally per subdomain),
and candidates are verified by refuting the negated equation with an SMT
solver after algebraic rewriting.

The names below are loaded from their submodule on first access (PEP 562),
so `import recsolve` loads no submodule and a command loads only the
modules it uses.
"""

import importlib

_EXPORTS = {
    "dsl": "BenchmarkFile ParseError parse parse_bool parse_candidate parse_expr"
    " print_benchmark print_bool print_expr print_piecewise",
    "evaluator": "BatchResult BudgetExceeded Evaluator NoMatchingCase",
    "harness": "BenchmarkResult RunConfig classify run_benchmark run_corpus",
    "linear": "FeatureSet GuessOutcome LassoConfig LinearModel TrainingSet"
    " build_training_set catalog cv_lasso guess_linear ols_refit prune rationalize"
    " rationalize_value",
    "model": "EvalError FuncDef Piece PiecewiseClosedForm RecurrenceSystem eval_bool"
    " eval_ground free_vars substitute",
    "report": "emit_csv emit_report summarize write_report",
    "rewrite": "simplify",
    "sampler": "EmptyDomain SampleConfig Subdomain choose_bound sample_for_function"
    " split_domains",
    "smt": "Disproved Proved SmtJob SolverConfig Unknown Unsupported check verify",
    "symbolic": "GPConfig OperatorSet ParetoFront evolve guess_symbolic",
}
# exported name -> the submodule that defines it
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted([*globals(), *_SOURCE])
