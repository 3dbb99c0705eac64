"""recsolve: guess-and-check solving of constrained recurrence relations.

Recurrences are evaluated on sampled inputs, a closed form is guessed by
sparse linear regression or symbolic regression (optionally per subdomain),
and candidates are verified by refuting the negated equation with an SMT
solver after algebraic rewriting.
"""

from .dsl import (
    BenchmarkFile,
    ParseError,
    parse,
    parse_bool,
    parse_candidate,
    parse_expr,
    print_benchmark,
    print_bool,
    print_expr,
    print_piecewise,
)
from .evaluator import BatchResult, BudgetExceeded, Evaluator, NoMatchingCase
from .harness import BenchmarkResult, RunConfig, classify, run_benchmark, run_corpus
from .linear import (
    FeatureSet,
    GuessOutcome,
    LassoConfig,
    LinearModel,
    TrainingSet,
    build_training_set,
    catalog,
    cv_lasso,
    guess_linear,
    ols_refit,
    prune,
    rationalize,
    rationalize_value,
)
from .model import (
    EvalError,
    FuncDef,
    Piece,
    PiecewiseClosedForm,
    RecurrenceSystem,
    eval_bool,
    eval_ground,
    free_vars,
    substitute,
)
from .report import emit_csv, emit_report, summarize, write_report
from .rewrite import simplify
from .sampler import (
    EmptyDomain,
    SampleConfig,
    Subdomain,
    choose_bound,
    sample_for_function,
    split_domains,
)
from .smt import (
    Disproved,
    Proved,
    SmtJob,
    SolverConfig,
    Unknown,
    Unsupported,
    check,
    verify,
)
from .symbolic import (
    GPConfig,
    OperatorSet,
    ParetoFront,
    evolve,
    guess_symbolic,
)

__version__ = "0.1.0"
