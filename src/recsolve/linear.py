"""Sparse linear guessing: fit an affine combination of base functions to
sampled recurrence values, select features by l1 regularization with
cross-validated penalty choice, epsilon-prune, then refit by plain least
squares and rationalize the surviving coefficients.  Each fit domain is
fitted once, on its function's one catalog of base functions (`catalog`);
the lasso path itself runs from sparse supports to dense ones.  A piece's
score is the held-out R^2 of the body it ships; whether the piece holds is
for the check to decide.
The lasso path solves its active Gram block with numpy alone.  numpy loads
at a process's first fit, in the function that first calls it, not with
this module.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .evaluator import Evaluator
from .model import (
    Add,
    BoolExpr,
    Ceil,
    Const,
    Div,
    Expr,
    Factorial,
    Floor,
    Log2,
    Max,
    Min,
    Mul,
    Piece,
    PiecewiseClosedForm,
    Pow,
    RecurrenceSystem,
    Sub,
    Var,
    eval_array,
)
from .rewrite import simplify
from .sampler import (
    EmptyDomain,
    SampleConfig,
    Subdomain,
    choose_bound,
    positive_orthant,
    split_domains,
)
from .sampler import TEST_SIZE as TEST_SIZE  # re-exported: linear.TEST_SIZE

if TYPE_CHECKING:
    import numpy as np

class EmptyTrainingSet(Exception):
    pass


class AllPruned(Exception):
    pass


class FitTimeout(Exception):
    pass


@dataclass(frozen=True)
class FeatureSet:
    base_functions: tuple[Expr, ...]

    @property
    def count(self) -> int:
        return len(self.base_functions)


def _default_lambda_grid() -> tuple[float, ...]:
    import numpy as np

    return tuple(np.geomspace(0.001, 1.0, 100))


@dataclass(frozen=True)
class LassoConfig:
    lambda_grid: tuple[float, ...] = field(default_factory=_default_lambda_grid)
    folds: int = 2
    epsilon: float = 0.05
    seed: int = 0

    def __post_init__(self):
        grid = tuple(float(v) for v in self.lambda_grid)
        if not grid or any(v < 0 for v in grid):
            raise ValueError("lambda grid must be non-empty and non-negative")
        object.__setattr__(self, "lambda_grid", grid)
        if self.folds < 2:
            raise ValueError("k-fold cross-validation needs k >= 2")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")


@dataclass
class TrainingSet:
    features: tuple[Expr, ...]
    X: np.ndarray
    y: np.ndarray
    inputs: list[tuple[int, ...]]
    dropped_rows: int = 0

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass
class LinearModel:
    intercept: float
    coefficients: np.ndarray
    selected: tuple[Expr, ...]
    score: float

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        if len(self.selected) == 0:
            import numpy as np

            return np.full(X.shape[0] if X.ndim == 2 else len(X), self.intercept)
        return self.intercept + X @ self.coefficients

    def expr(self) -> Expr:
        """intercept + sum of coefficient * base function, with the float
        coefficients as constants."""
        body: Expr = Const(Fraction(float(self.intercept)))
        for v, t in zip(self.coefficients, self.selected):
            body = Add(body, Mul(Const(Fraction(float(v))), t))
        return body


# ---------------------------------------------------------------------------
# Base-function catalogs
# ---------------------------------------------------------------------------


def _v(name: str) -> Var:
    return Var(name)


def _sq(e: Expr) -> Expr:
    return Pow(e, Const(Fraction(2)))


def _pow(e: Expr, k: int) -> Expr:
    return e if k == 1 else Pow(e, Const(Fraction(k)))


# At most 2048 columns keeps the p x p Gram matrices of cv_lasso within
# 32 MiB; it cuts 5-ary catalogs to depth 2 and 6-ary ones to depth 1.
MAX_CATALOG = 2_048


class CatalogTooLarge(Exception):
    pass


def catalog(params: tuple[str, ...]) -> tuple[FeatureSet, tuple[str, ...]]:
    """The base functions over the given parameters, with the flags that
    the fit reports for them.

    Arity 1 and 2 have explicit lists.  Arity 3 and up take the products of
    per-variable powers of the largest depth, at most 3, whose count fits
    MAX_CATALOG, flagged `catalog-depth:d` below 3; where not even depth 1
    fits, CatalogTooLarge is raised.
    """
    m = len(params)
    if m == 1:
        x = _v(params[0])
        return FeatureSet((
            x,
            _sq(x),
            Ceil(Log2(x)),
            Floor(Pow(x, Const(Fraction(1, 2)))),
            Mul(x, Ceil(Log2(x))),
            Floor(Log2(x)),
            Mul(x, Floor(Log2(x))),
            Pow(Const(Fraction(2)), x),
            Pow(Const(Fraction(5)), x),
            Mul(x, Pow(Const(Fraction(2)), x)),
            Factorial(x),
        )), ()
    if m == 2:
        x, y = _v(params[0]), _v(params[1])
        return FeatureSet((
            x,
            y,
            _sq(x),
            Mul(x, y),
            _sq(y),
            Mul(_sq(x), y),
            Mul(x, _sq(y)),
            Mul(_sq(x), _sq(y)),
            Floor(Div(x, y)),
            Floor(Div(y, x)),
            Ceil(Div(x, y)),
            Ceil(Div(y, x)),
            Pow(Const(Fraction(2)), x),
            Pow(Const(Fraction(2)), y),
            Max(x, y),
            Ceil(Log2(x)),
            Floor(Log2(x)),
            Mul(x, Ceil(Log2(x))),
            Mul(x, Floor(Log2(x))),
            Ceil(Log2(y)),
            Floor(Log2(y)),
            Mul(y, Ceil(Log2(y))),
            Mul(y, Floor(Log2(y))),
        )), ()
    for depth in (3, 2):
        try:
            fs = FeatureSet(tuple(_monomials(params, depth)))
        except CatalogTooLarge:
            continue
        return fs, (() if depth == 3 else (f"catalog-depth:{depth}",))
    return FeatureSet(tuple(_monomials(params, 1))), ("catalog-depth:1",)


# bench/ reads these two; the bench change under ROADMAP "Fix first" deletes them.
TIERS = ("large",)


def catalog_for(m: int) -> dict[str, FeatureSet]:
    return {"large": catalog(("x", "y", "z")[:m] if m <= 3 else tuple(f"x{i + 1}" for i in range(m)))[0]}


# Minimal number of distinct power factors {x, x^2, .., x^d} multiplying to
# each achievable exponent; caps the product length below.
_PARTS = {
    1: {0: 0, 1: 1},
    2: {0: 0, 1: 1, 2: 1, 3: 2},
    3: {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3},
}


def _monomials(params: tuple[str, ...], depth: int) -> list[Expr]:
    m = len(params)
    cap = m + depth  # product length limit: arity + |base set|
    parts = _PARTS[depth]
    exps = sorted(parts)
    out: list[tuple[int, tuple[int, ...]]] = []

    def grow(prefix: tuple[int, ...], used: int):
        if len(prefix) == m:
            if any(prefix):
                out.append((sum(prefix), prefix))
                if len(out) > MAX_CATALOG:
                    raise CatalogTooLarge(f"{len(params)}-ary {depth}")
            return
        for e in exps:
            cost = parts[e]
            if used + cost <= cap:
                grow(prefix + (e,), used + cost)

    grow((), 0)
    out.sort()
    exprs = []
    for _, combo in out:
        factors = [_pow(_v(p), e) for p, e in zip(params, combo) if e > 0]
        prod = factors[0]
        for f in factors[1:]:
            prod = Mul(prod, f)
        exprs.append(prod)
    return exprs


# ---------------------------------------------------------------------------
# Training sets
# ---------------------------------------------------------------------------


def build_training_set(
    fs: FeatureSet,
    params: tuple[str, ...],
    samples: list[tuple[int, ...]],
    values,
) -> TrainingSet:
    """Evaluate base functions at each sample under guarded semantics
    (log2 is 0 below 1, division by zero is 0), one column per base function.
    Rows whose target is not finite are dropped and counted; then each
    column with a non-finite entry (x! or 5^x past float range) is dropped,
    so the set's features are those of `fs` that stay finite."""
    import numpy as np

    cols = {p: np.array([t[i] for t in samples], dtype=float) for i, p in enumerate(params)}
    X = np.empty((len(samples), fs.count))
    for j, t in enumerate(fs.base_functions):
        X[:, j] = eval_array(t, cols, guarded=True)
    y = np.array([_target(v) for v in values], dtype=float)
    ok = np.isfinite(y)
    if np.count_nonzero(ok) < 2:
        raise EmptyTrainingSet(f"{np.count_nonzero(ok)} usable rows")
    X = X[ok]
    finite = np.isfinite(X).all(axis=0)
    return TrainingSet(
        features=tuple(t for t, k in zip(fs.base_functions, finite) if k),
        X=X[:, finite],
        y=y[ok],
        inputs=[t for t, k in zip(samples, ok) if k],
        dropped_rows=int(np.count_nonzero(~ok)),
    )


def _target(v) -> float:
    try:
        return float(v)
    except OverflowError:
        return math.nan


# ---------------------------------------------------------------------------
# Lasso by the exact homotopy path
# ---------------------------------------------------------------------------


@dataclass
class LassoResult:
    beta: np.ndarray  # raw feature scale, zeros for dropped features
    beta0: float
    chosen_lambda: float
    dropped_features: tuple[int, ...] = ()


# Join tolerance: a column whose Schur complement against the active Gram
# block (G_ee - G_eA G_AA^-1 G_Ae, by numpy solves) is at most this share
# of its own diagonal lies in the span of the active columns up to
# rounding.  Exactly collinear columns (a catalog sampled at a few distinct
# points, such as x in [1, 3]) land near 1e-15; ceil(log2 x) and
# floor(log2 x), which differ only at powers of two, stay near 1e-1 on
# samples that hold powers of two and others.
_PIVOT_TOL = 1e-10


def _lasso_path(G, c, alphas, deadline: float | None = None) -> np.ndarray:
    """Exact minimisers of 0.5*b'Gb - c'b + alpha*|b|_1, one row per entry of
    `alphas` (G positive semi-definite), by the homotopy of Osborne, Presnell
    & Turlach (2000), the lasso form of LARS (Efron et al. 2004).

    The path starts at b = 0 for alpha >= max|c| and is linear in alpha
    between breakpoints: with active set A and signs s fixed,
    b_A = G_AA^-1 (c_A - alpha*s_A).  A segment ends where an inactive
    correlation c_j - G_jA b_A reaches +-alpha (j joins) or an active
    coefficient reaches 0 (it drops).  A joining column in the span of the
    active ones (see _PIVOT_TOL) would make G_AA singular and cannot change
    the fit, so it stays out until some variable drops.
    """
    import numpy as np

    p = len(c)
    alphas = np.asarray(alphas, dtype=float)
    out = np.zeros((len(alphas), p))
    todo = list(np.argsort(-alphas, kind="stable"))  # descending penalties
    active: list[int] = []
    signs: list[float] = []
    parked: set[int] = set()
    cur = math.inf
    while todo:
        if deadline is not None and time.monotonic() > deadline:
            raise FitTimeout("lasso path exceeded its deadline")
        if active:
            G_AA = G[np.ix_(active, active)]
            u, w = np.linalg.solve(G_AA, np.column_stack([c[active], signs])).T
            GA = G[:, active]
            r0, a = c - GA @ u, GA @ w  # correlations c - Gb = r0 + alpha*a
        else:
            u = w = np.zeros(0)
            r0, a = c, np.zeros(p)
        # largest penalty below `cur` where an inequality of the KKT
        # conditions becomes tight
        nxt, event, sign = 0.0, -1, 0.0
        free = np.ones(p, dtype=bool)
        free[active] = False
        free[list(parked)] = False
        for s in (1.0, -1.0):
            slope = 1.0 - s * a  # s*r_j - alpha grows as alpha falls iff slope > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                hit = np.where(free & (slope > 0), s * r0 / slope, -np.inf)
            j = int(np.argmax(hit))
            if min(hit[j], cur) > nxt:
                nxt, event, sign = min(hit[j], cur), j, s
        for i, idx in enumerate(active):
            if signs[i] * w[i] < 0:  # |b_i| shrinks as alpha falls
                hit = min(u[i] / w[i], cur)
                if hit > nxt:
                    nxt, event, sign = hit, idx, 0.0
        while todo and alphas[todo[0]] >= nxt:
            k = todo.pop(0)
            out[k, active] = u - alphas[k] * w
        if event < 0:
            break
        cur = nxt
        if sign == 0.0:
            i = active.index(event)
            del active[i], signs[i]
            parked.clear()
            continue
        schur = G[event, event]
        if active:
            schur -= G[event, active] @ np.linalg.solve(G_AA, G[active, event])
        if schur <= _PIVOT_TOL * G[event, event]:
            parked.add(event)
        else:
            active.append(event)
            signs.append(sign)
    return out


def cv_lasso(T: TrainingSet, cfg: LassoConfig, deadline: float | None = None) -> LassoResult:
    """Pick the penalty by k-fold cross-validation (ties toward the sparser,
    larger penalty), then fit on all rows at the chosen value.

    The objective is sum((y - b0 - Xb)^2) + lam*sum|b| on standardized
    columns, solved in units of std(y): b = ysd*b' with penalty lam/ysd,
    which _lasso_path takes as alpha = lam/ysd/2 on the Gram form."""
    import numpy as np

    n, p = T.X.shape
    if n < cfg.folds:
        raise EmptyTrainingSet(f"{n} rows for {cfg.folds}-fold CV")
    sd = T.X.std(axis=0)
    keep = sd > 0.0
    dropped = tuple(int(i) for i in np.nonzero(~keep)[0])
    X = T.X[:, keep]
    p_eff = X.shape[1]

    order = list(range(n))
    random.Random(cfg.seed).shuffle(order)
    folds = [order[i :: cfg.folds] for i in range(cfg.folds)]

    def standardized(rows: np.ndarray, y: np.ndarray):
        mu, s = rows.mean(axis=0), rows.std(axis=0)
        s = np.where(s > 0, s, 1.0)
        Xs = (rows - mu) / s
        ysd = float(y.std()) or 1.0
        yc = (y - y.mean()) / ysd
        return Xs.T @ Xs, Xs.T @ yc, mu, s, ysd

    grid = sorted(set(cfg.lambda_grid), reverse=True)
    best_lam = grid[0]
    if p_eff > 0:
        lams = np.asarray(grid)
        mse = np.zeros(len(grid))
        for val_idx in folds:
            val = np.asarray(val_idx, dtype=int)
            mask = np.ones(n, dtype=bool)
            mask[val] = False
            ytr = T.y[mask]
            G, cvec, mu, s, ysd = standardized(X[mask], ytr)
            B = _lasso_path(G, cvec, lams / ysd / 2, deadline)
            pred = ytr.mean() + ((X[val] - mu) / s) @ (B.T * ysd)
            mse += np.mean((T.y[val][:, None] - pred) ** 2, axis=0)
        best_mse = math.inf
        for lam, m in zip(grid, mse):  # descending: first strict improvement wins ties upward
            if m < best_mse:
                best_mse, best_lam = m, lam

    # final fit on the full training set at the chosen penalty
    beta_raw = np.zeros(p)
    if p_eff > 0:
        G, cvec, mu, s, ysd = standardized(X, T.y)
        b = _lasso_path(G, cvec, [best_lam / ysd / 2], deadline)[0] * ysd / s
        beta0 = float(T.y.mean() - b @ mu)
        beta_raw[keep] = b
    else:
        beta0 = float(T.y.mean())
    return LassoResult(beta_raw, beta0, best_lam, dropped)


def prune(
    fs: FeatureSet, T: TrainingSet, beta: np.ndarray, beta0: float, epsilon: float
) -> tuple[FeatureSet, TrainingSet]:
    """Keep the base functions of T whose coefficient magnitude reaches
    epsilon; the intercept always survives.  Raises AllPruned when nothing
    is left.  The features are read from T, not from the catalog `fs` it
    was built from, which may hold columns build_training_set dropped."""
    import numpy as np

    keep = np.abs(beta) >= epsilon if epsilon > 0 else np.ones(len(beta), dtype=bool)
    if not keep.any():
        raise AllPruned("no coefficient reached the pruning threshold")
    feats = tuple(t for t, k in zip(T.features, keep) if k)
    T2 = TrainingSet(
        features=feats,
        X=T.X[:, keep],
        y=T.y,
        inputs=T.inputs,
        dropped_rows=T.dropped_rows,
    )
    return FeatureSet(feats), T2


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    import numpy as np

    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - np.mean(y_true)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res <= 1e-18 else -math.inf
    return 1.0 - ss_res / ss_tot


def ols_refit(T: TrainingSet, test: TrainingSet | None) -> LinearModel:
    """Ordinary least squares by normal equations (tiny ridge on singular
    designs); the score is R^2 on the held-out test set."""
    import numpy as np

    n, p = T.X.shape
    A = np.hstack([np.ones((n, 1)), T.X])
    G = A.T @ A
    rhs = A.T @ T.y
    try:
        coef = np.linalg.solve(G, rhs)
        if not np.all(np.isfinite(coef)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        coef = np.linalg.solve(G + 1e-10 * np.eye(p + 1), rhs)
    beta0, beta = float(coef[0]), coef[1:]
    model = LinearModel(intercept=beta0, coefficients=beta, selected=T.features, score=0.0)
    if test is not None and test.n > 0:
        pred = model.predict_rows(test.X)
        model.score = r2_score(test.y, pred)
    else:
        model.score = r2_score(T.y, model.predict_rows(T.X))
    return model


# ---------------------------------------------------------------------------
# Rationalization
# ---------------------------------------------------------------------------


# A fitted constant becomes the nearest fraction with a denominator of at
# most MAX_DENOMINATOR when that fraction lies within RATIONAL_TOL of it
# (relative, or absolute below 1).
RATIONAL_TOL = 1e-4
MAX_DENOMINATOR = 64


def rationalize_value(v: float):
    """Nearest rational with a small denominator via continued-fraction
    convergents, or None when no convergent is close enough."""
    if not math.isfinite(v):
        return None
    f = Fraction(v).limit_denominator(MAX_DENOMINATOR)
    err = abs(float(f) - v)
    if err <= RATIONAL_TOL * max(1.0, abs(v)):
        return f
    return None


def rationalize(e: Expr) -> tuple[Expr, bool]:
    """Replace each constant by its rationalize_value, so a constant within
    RATIONAL_TOL of zero becomes 0.  A constant with no such rational stays
    a float, and the flag returned with the expression is then False: the
    piece is not exactly verifiable."""
    exact = True

    def go(node: Expr) -> Expr:
        nonlocal exact
        if isinstance(node, Const):
            if node.value.denominator <= MAX_DENOMINATOR:
                return node
            f = rationalize_value(float(node.value))
            if f is None:
                exact = False
                return node
            return Const(f)
        if isinstance(node, (Add, Sub, Mul, Div, Pow, Max, Min)):
            return type(node)(go(node.lhs), go(node.rhs))
        if isinstance(node, (Floor, Ceil, Log2, Factorial)):
            return type(node)(go(node.arg))
        return node

    return go(e), exact


# ---------------------------------------------------------------------------
# End-to-end guesser
# ---------------------------------------------------------------------------


@dataclass
class DomainFit:
    subdomain: Subdomain | None
    piece: Piece | None
    model: LinearModel | None
    bound: int | None = None
    error: str | None = None
    flags: tuple[str, ...] = ()


@dataclass
class DomainData:
    bound: int
    train_inputs: list[tuple[int, ...]]
    train_values: list[float]
    test_inputs: list[tuple[int, ...]]
    test_values: list[float]


def collect_domain_data(
    system: RecurrenceSystem,
    fname: str,
    constraint: BoolExpr,
    sample_cfg: SampleConfig,
    evaluator: Evaluator,
    seed: int,
) -> DomainData | str:
    """Bound selection, training samples and up to TEST_SIZE test samples
    for one fit domain; returns an error string when the domain yields no
    usable data.  The test samples are the held-out tuples that
    choose_bound drew after the training samples at the chosen bound, so
    none of them is a training sample, and a box with no point beyond the
    training samples gives none."""
    try:
        bc = choose_bound(system, fname, sample_cfg, constraint=constraint, evaluator=evaluator, seed=seed)
    except EmptyDomain:
        return "empty-domain"
    ok_rows = [(r.input, r.value) for r in bc.results if r.error is None]
    if not ok_rows:
        return "all-samples-failed"
    test_results = evaluator.batch_eval(fname, bc.held_out)
    test_rows = [(r.input, r.value) for r in test_results if r.error is None]
    return DomainData(
        bound=bc.bound,
        train_inputs=[t for t, _ in ok_rows],
        train_values=[v for _, v in ok_rows],
        test_inputs=[t for t, _ in test_rows],
        test_values=[v for _, v in test_rows],
    )


@dataclass
class GuessOutcome:
    candidate: PiecewiseClosedForm
    fits: list[DomainFit] = field(default_factory=list)
    failed_domains: int = 0
    sample_seconds: float = 0.0
    fit_seconds: float = 0.0

    @property
    def score(self) -> float:
        if self.failed_domains or not self.candidate.pieces:
            return 0.0
        return self.candidate.score


def _fit(
    params: tuple[str, ...], data: DomainData, cfg: LassoConfig
) -> tuple[LinearModel | None, tuple[str, ...]]:
    """One lasso fit on the function's catalog, with the catalog's flags.
    Fewer than 2 rows with a finite target give no fit, flagged
    `empty-training-set`; catalog columns dropped as non-finite are counted
    in `non-finite-columns:n`; a fit pruned to nothing stays an
    intercept-only model, flagged `all-pruned`."""
    try:
        fs, flags = catalog(params)
    except CatalogTooLarge:
        return None, ("catalog-too-large",)
    try:
        T = build_training_set(fs, params, data.train_inputs, data.train_values)
        res = cv_lasso(T, cfg)
    except EmptyTrainingSet:
        return None, (*flags, "empty-training-set")
    if len(T.features) < fs.count:
        flags += (f"non-finite-columns:{fs.count - len(T.features)}",)
    try:
        _, T = prune(fs, T, res.beta, res.beta0, cfg.epsilon)
    except AllPruned:
        flags += ("all-pruned",)
        T = TrainingSet((), T.X[:, :0], T.y, T.inputs, T.dropped_rows)
    return ols_refit(T, None), flags


def held_out_r2(e: Expr, params: tuple[str, ...], data: DomainData) -> float:
    """R^2 of `e` on the domain's test rows, which the fit never saw, or on
    its training rows when it has no test rows, evaluated under the guarded
    conventions candidates are checked under (log2 below 1 is 0, x/0 is 0);
    -inf where `e` is not finite at some row."""
    import numpy as np

    inputs = data.test_inputs or data.train_inputs
    values = data.test_values if data.test_inputs else data.train_values
    cols = {p: np.asarray([t[i] for t in inputs], dtype=float) for i, p in enumerate(params)}
    pred = eval_array(e, cols, guarded=True)
    if not np.all(np.isfinite(pred)):
        return -math.inf
    return r2_score(np.asarray([float(v) for v in values]), pred)


def _guess_domains(
    system: RecurrenceSystem,
    fit,
    min_rows: int,
    func: str | None,
    sample_cfg: SampleConfig | None,
    domsplit: bool,
) -> GuessOutcome:
    """The guessing loop both regressors share.  Each fit domain (the split
    subdomains, or else the strictly positive orthant) is sampled with its
    own seed.  A domain with fewer than `min_rows` training rows takes the
    median as a constant; any other goes to `fit(params, data, index)`, which
    returns (expression or None, model or None, flags).  The expression is
    simplified, rationalized and simplified again, and the piece's score is
    the held-out R^2 of that final body."""
    sample_cfg = sample_cfg or SampleConfig()
    fname = func or system.entry
    f = system.functions[fname]
    evaluator = Evaluator(system)
    domains = split_domains(f) if domsplit else [Subdomain(positive_orthant(f))]

    fits: list[DomainFit] = []
    pieces: list[Piece] = []
    failed = 0
    sample_s = 0.0
    fit_s = 0.0
    for di, dom in enumerate(domains):
        seed = sample_cfg.seed * 7919 + di
        t0 = time.monotonic()
        data = collect_domain_data(system, fname, dom.constraint, sample_cfg, evaluator, seed)
        sample_s += time.monotonic() - t0
        if isinstance(data, str):
            fits.append(DomainFit(dom, None, None, error=data))
            failed += 1
            continue
        t0 = time.monotonic()
        if len(data.train_inputs) < min_rows:
            # tiny subdomains (down to a single point) take the constant fit
            import numpy as np

            c = Const(Fraction(float(np.median([float(v) for v in data.train_values]))))
            expr, model, flags = c, None, ("constant-fit",)
        else:
            expr, model, flags = fit(f.params, data, di)
        fit_s += time.monotonic() - t0
        if expr is None:
            fits.append(DomainFit(dom, None, None, bound=data.bound, error="no-fit", flags=flags))
            failed += 1
            continue
        body, exact = rationalize(simplify(expr))
        body = simplify(body)
        piece = Piece(dom.constraint, body, held_out_r2(body, f.params, data), exact)
        pieces.append(piece)
        fits.append(DomainFit(dom, piece, model, bound=data.bound, flags=flags))
    return GuessOutcome(
        PiecewiseClosedForm(tuple(pieces)), fits, failed,
        sample_seconds=sample_s, fit_seconds=fit_s,
    )


def guess_linear(
    system: RecurrenceSystem,
    func: str | None = None,
    lasso_cfg: LassoConfig | None = None,
    sample_cfg: SampleConfig | None = None,
    domsplit: bool = False,
) -> GuessOutcome:
    """Run the full lasso pipeline for the entry function: per-subdomain when
    splitting, otherwise once on the strictly positive orthant; each domain
    is fitted once (see _fit)."""
    lasso_cfg = lasso_cfg or LassoConfig()

    def fit(params, data, index):
        model, flags = _fit(params, data, lasso_cfg)
        return (model.expr() if model else None), model, flags

    return _guess_domains(system, fit, 2 * lasso_cfg.folds, func, sample_cfg, domsplit)
