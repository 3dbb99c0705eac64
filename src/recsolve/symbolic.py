"""Symbolic guessing: multi-population evolutionary search over expression
trees with node-cost complexity penalties and simplex-based constant tuning.

Trees are model expressions, evaluated by model.eval_array.  The search sees
x^2, x^3 and 2^e as the single unary nodes square, cube and pow2.  Inside the
search each GP node (`_Tree`) carries its size, complexity and hash, computed
once when it is built, so that variation rebuilds only the path to the node
it changes and a memo lookup reads a cached hash.  The search's shape is
fixed by the constants below; GPConfig sets only its size and seed.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from .linear import GuessOutcome, _guess_domains, held_out_r2
from .model import (
    Add,
    Ceil,
    Const,
    Div,
    Expr,
    Factorial,
    Floor,
    Log2,
    Max,
    Mul,
    Pow,
    RecurrenceSystem,
    Sub,
    Var,
    eval_array,
)
from .sampler import SampleConfig

BINARY = ("add", "sub", "max", "mul", "div", "pow")
UNARY = ("floor", "ceil", "square", "cube", "log2", "pow2", "fact")
# Node cost of each operator in a tree's complexity; the rest cost 1.
COSTS = {"floor": 2, "ceil": 2, "pow": 3}

MAX_COMPLEXITY = 30  # a tree above it is never scored
TOURNAMENT = 3  # entrants per selection
# An offspring is a crossover with probability P_CROSSOVER, a mutation with
# P_MUTATION, and otherwise a constant perturbation.
P_CROSSOVER = 0.6
P_MUTATION = 0.3
MIGRATION_INTERVAL = 5  # generations between ring migrations


@dataclass(frozen=True)
class OperatorSet:
    binary: tuple[str, ...] = BINARY
    unary: tuple[str, ...] = UNARY


@dataclass(frozen=True)
class GPConfig:
    populations: int = 45
    population_size: int = 33
    iterations: int = 40
    seed: int = 0

    def __post_init__(self):
        if min(self.populations, self.population_size, self.iterations) <= 0:
            raise ValueError("population/iteration counts must be positive")


@dataclass
class FrontEntry:
    complexity: int
    loss: float
    tree: Expr


@dataclass
class ParetoFront:
    """Best expression found at each complexity level; dominated levels are
    pruned so losses strictly improve as complexity grows."""

    entries: dict[int, FrontEntry] = field(default_factory=dict)

    def offer(self, tree: Expr, loss: float, complexity: int):
        if not math.isfinite(loss):
            return
        cur = self.entries.get(complexity)
        if cur is None or loss < cur.loss:
            self.entries[complexity] = FrontEntry(complexity, loss, tree)

    def pareto(self) -> list[FrontEntry]:
        out: list[FrontEntry] = []
        best = math.inf
        for c in sorted(self.entries):
            e = self.entries[c]
            if e.loss < best:
                out.append(e)
                best = e.loss
        return out


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------

_TWO = Const(Fraction(2))
_THREE = Const(Fraction(3))

# GP operator name -> constructor from its operands
_BUILD = {
    "add": Add,
    "sub": Sub,
    "mul": Mul,
    "div": Div,
    "max": Max,
    "pow": Pow,
    "floor": Floor,
    "ceil": Ceil,
    "log2": Log2,
    "fact": Factorial,
    "square": lambda a: Pow(a, _TWO),
    "cube": lambda a: Pow(a, _THREE),
    "pow2": lambda a: Pow(_TWO, a),
}
# node type -> GP operator name and operand count (Pow is classified apart)
_KINDS = {Var: ("var", 0), Const: ("const", 0), Add: ("add", 2), Sub: ("sub", 2),
          Mul: ("mul", 2), Div: ("div", 2), Max: ("max", 2), Floor: ("floor", 1),
          Ceil: ("ceil", 1), Log2: ("log2", 1), Factorial: ("fact", 1)}


def _node(e: Expr) -> tuple[str, tuple[Expr, ...]]:
    """The GP operator of a node and its operands.  x^2, x^3 and 2^e (e not
    a constant) are the unary square, cube and pow2, so their constant is
    neither a node nor tuned."""
    if type(e) is Pow:
        base, exp = e.base, e.exp
        if type(exp) is Const:
            if exp.value == 2:
                return "square", (base,)
            if exp.value == 3:
                return "cube", (base,)
        elif type(base) is Const and base.value == 2:
            return "pow2", (exp,)
        return "pow", (base, exp)
    try:
        tag, arity = _KINDS[type(e)]
    except KeyError:
        raise TypeError(f"{type(e).__name__} is not a GP operator") from None
    if arity == 2:
        return tag, (e.lhs, e.rhs)
    return tag, (e.arg,) if arity else ()


class _Tree:
    """A GP node: its model expression `expr`, its GP operator `tag` and
    operand nodes `kids` (from `_node`), and, computed once when it is
    built, its size in GP nodes, its complexity, its count of tunable
    constants and a structural hash.  Operands of `expr` that are the
    expression of a node in `known` reuse that node; the others are built.
    Nodes are equal when their expressions are."""

    __slots__ = ("expr", "tag", "kids", "size", "complexity", "consts", "_hash")

    def __init__(self, expr: Expr, known: Sequence[_Tree] = ()):
        tag, operands = _node(expr)
        kids = []
        size, comp, consts, hashes = 1, COSTS.get(tag, 1), int(tag == "const"), [tag]
        for o in operands:
            for k in known:
                if k.expr is o:
                    break
            else:
                k = _Tree(o)
            kids.append(k)
            size += k.size
            comp += k.complexity
            consts += k.consts
            hashes.append(k._hash)
        self.expr, self.tag, self.kids = expr, tag, tuple(kids)
        self.size, self.complexity, self.consts = size, comp, consts
        self._hash = hash(tuple(hashes)) if kids else hash(expr)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (self._hash == other._hash and self.expr == other.expr)


def _at(t: _Tree, index: int) -> _Tree:
    """The preorder-index-th GP node of `t`."""
    while index:
        index -= 1
        for k in t.kids:
            if index < k.size:
                t = k
                break
            index -= k.size
    return t


def _replace(t: _Tree, index: int, repl: _Tree) -> _Tree:
    """`t` with its preorder-index-th GP node replaced by `repl`; only the
    nodes on the path to it are rebuilt."""
    if index == 0:
        return repl
    index -= 1
    kids = list(t.kids)
    for j, k in enumerate(kids):
        if index < k.size:
            kids[j] = _replace(k, index, repl)
            return _Tree(_BUILD[t.tag](*(c.expr for c in kids)), kids)
        index -= k.size
    raise IndexError("GP node index out of range")


def _const_index(t: _Tree, k: int) -> int:
    """Preorder index of the k-th tunable constant of `t`."""
    index = 0
    while t.tag != "const":
        index += 1
        for c in t.kids:
            if k < c.consts:
                t = c
                break
            k -= c.consts
            index += c.size
    return index


def complexity(tree: Expr) -> int:
    return _Tree(tree).complexity


# ---------------------------------------------------------------------------
# Fitness
# ---------------------------------------------------------------------------


def tree_loss(tree: Expr, cols: dict[str, np.ndarray], targets: np.ndarray) -> float:
    """Mean squared error; invalid points (nan/inf) make the loss infinite.
    The sum and the division are those of np.mean, so the loss is np.mean
    of the squared residuals bit for bit.  A residual of magnitude 2^512 or
    more squares to inf, which numpy reports as an overflow; `evolve`
    silences that once for its whole run."""
    d = eval_array(tree, cols) - targets
    loss = float(np.add.reduce(d * d)) / len(d)
    return loss if math.isfinite(loss) else math.inf


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------


def _random_leaf(rng: random.Random, params: tuple[str, ...]) -> Expr:
    if rng.random() < 0.7:
        return Var(rng.choice(params))
    return Const(Fraction(rng.choice([1.0, 2.0, 3.0, 0.5, round(rng.uniform(-5, 5), 3)])))


def _random_tree(rng: random.Random, params, ops: OperatorSet, depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.3:
        return _random_leaf(rng, params)
    pool = ops.binary + ops.unary
    tag = rng.choice(pool)
    if tag in ops.binary:
        lhs = _random_tree(rng, params, ops, depth - 1)
        return _BUILD[tag](lhs, _random_tree(rng, params, ops, depth - 1))
    return _BUILD[tag](_random_tree(rng, params, ops, depth - 1))


def _mutate(rng: random.Random, tree: _Tree, params, ops: OperatorSet) -> _Tree:
    idx = rng.randrange(tree.size)
    if rng.random() < 0.5:
        return _replace(tree, idx, _Tree(_random_tree(rng, params, ops, 2)))
    # point mutation: swap the operator, keep children
    node = _at(tree, idx)
    kids = node.kids
    if node.tag in ops.binary:
        op = rng.choice(ops.binary)
    elif node.tag in ops.unary:
        op = rng.choice(ops.unary)
    else:
        return _replace(tree, idx, _Tree(_random_leaf(rng, params)))
    return _replace(tree, idx, _Tree(_BUILD[op](*(k.expr for k in kids)), kids))


def _perturb_const(rng: random.Random, tree: _Tree) -> _Tree:
    if not tree.consts:
        return tree
    # the same draw as rng.choice over the list of the constants' indices
    idx = _const_index(tree, rng.randrange(tree.consts))
    c = float(_at(tree, idx).expr.value)
    new = c * (1.0 + rng.gauss(0, 0.3)) + rng.gauss(0, 0.1)
    return _replace(tree, idx, _Tree(Const(Fraction(new))))


def _crossover(rng: random.Random, a: _Tree, b: _Tree) -> _Tree:
    ai = rng.randrange(a.size)
    return _replace(a, ai, _at(b, rng.randrange(b.size)))


@dataclass
class _Individual:
    tree: _Tree
    loss: float
    complexity: int

    def beats(self, other: "_Individual") -> bool:
        if self.loss != other.loss:
            return self.loss < other.loss
        return self.complexity < other.complexity


@np.errstate(over="ignore")  # residuals squared past the float range (tree_loss)
def evolve(
    inputs,
    targets,
    params: tuple[str, ...],
    ops: OperatorSet | None = None,
    cfg: GPConfig | None = None,
) -> ParetoFront:
    """Island-model GP: tournament selection, subtree crossover, mutation,
    constant perturbation and ring migration of the best individual, in the
    proportions of the module constants; `ops` restricts the operators
    that random trees and mutations draw.  Deterministic for a given seed.

    Each GP node carries its size, complexity and hash, computed once when
    it is built (`_Tree`), so variation rebuilds only the path to the node
    it changes, and a child's complexity is read from its root.  Each
    distinct tree is scored once per two-generation window: an offspring
    that repeats a tree made in this generation or the last reuses its
    individual.  The tuning of an island's best is memoized by tree for the
    whole call.  Neither memo changes a random draw or a result."""
    ops = ops or OperatorSet()
    cfg = cfg or GPConfig()
    if len(targets) < 5:
        raise ValueError("need at least 5 rows")
    cols = {p: np.asarray([t[i] for t in inputs], dtype=float) for i, p in enumerate(params)}
    y = np.asarray(targets, dtype=float)
    front = ParetoFront()
    # tree -> individual, made in this generation (seen) or the last (older)
    seen: dict[_Tree, _Individual] = {}
    older: dict[_Tree, _Individual] = {}
    tuned_of: dict[_Tree, _Tree] = {}

    def make(tree: _Tree) -> _Individual:
        ind = seen.get(tree)
        if ind is None:
            ind = older.get(tree)
            if ind is None:
                comp = tree.complexity
                loss = tree_loss(tree.expr, cols, y) if comp <= MAX_COMPLEXITY else math.inf
                ind = _Individual(tree, loss, comp)
                if comp <= MAX_COMPLEXITY:
                    front.offer(tree.expr, loss, comp)
            seen[tree] = ind
        return ind

    rngs = [random.Random(cfg.seed * 10_007 + i) for i in range(cfg.populations)]
    islands: list[list[_Individual]] = []
    for i in range(cfg.populations):
        trees = [_random_tree(rngs[i], params, ops, 3) for _ in range(cfg.population_size)]
        islands.append([make(_Tree(t)) for t in trees])

    def tournament(rng: random.Random, pop: list[_Individual]) -> _Individual:
        best = pop[rng.randrange(len(pop))]
        for _ in range(TOURNAMENT - 1):
            ch = pop[rng.randrange(len(pop))]
            if ch.beats(best):
                best = ch
        return best

    for it in range(cfg.iterations):
        older, seen = seen, {}
        for i, pop in enumerate(islands):
            rng = rngs[i]
            elite = min(pop, key=lambda d: (d.loss, d.complexity))
            newpop = [elite]
            while len(newpop) < cfg.population_size:
                r = rng.random()
                parent = tournament(rng, pop)
                if r < P_CROSSOVER:
                    other = tournament(rng, pop)
                    child = _crossover(rng, parent.tree, other.tree)
                elif r < P_CROSSOVER + P_MUTATION:
                    child = _mutate(rng, parent.tree, params, ops)
                else:
                    child = _perturb_const(rng, parent.tree)
                newpop.append(parent if child.complexity > MAX_COMPLEXITY else make(child))
            # short classical pass over the island's best: shapes like c^n
            # only become competitive once their constants are tuned
            bi = min(range(len(newpop)), key=lambda j: (newpop[j].loss, newpop[j].complexity))
            btree = newpop[bi].tree
            if math.isfinite(newpop[bi].loss) and btree.consts:
                tuned = tuned_of.get(btree)
                if tuned is None:
                    tuned = tuned_of[btree] = _Tree(
                        optimize_constants_tree(btree.expr, cols, y, max_evals=40)
                    )
                if tuned != btree:
                    cand = make(tuned)
                    if cand.beats(newpop[bi]):
                        newpop[bi] = cand
            islands[i] = newpop
        if (it + 1) % MIGRATION_INTERVAL == 0:
            bests = [min(pop, key=lambda d: (d.loss, d.complexity)) for pop in islands]
            for i in range(len(islands)):
                dst = islands[(i + 1) % len(islands)]
                worst = max(range(len(dst)), key=lambda j: (dst[j].loss, dst[j].complexity))
                dst[worst] = bests[i]

    # local constant tuning on the front survivors
    for entry in list(front.pareto()):
        tuned = optimize_constants_tree(entry.tree, cols, y)
        front.offer(tuned, tree_loss(tuned, cols, y), complexity(tuned))
    return front


# ---------------------------------------------------------------------------
# Constant optimization
# ---------------------------------------------------------------------------


def optimize_constants_tree(
    tree: Expr, cols: dict[str, np.ndarray], y: np.ndarray, max_evals: int = 200
) -> Expr:
    """Simplex search over the numeric leaves minimizing the training loss on
    the columns `cols`; the result is never worse than `tree`."""
    node = _Tree(tree)
    if not node.consts:
        return tree
    x0 = np.asarray([float(_at(node, _const_index(node, k)).expr.value)
                     for k in range(node.consts)])

    def with_consts(vals) -> Expr:
        return _set_consts(node, iter(vals))

    def objective(vals) -> float:
        loss = tree_loss(with_consts(vals), cols, y)
        return loss if math.isfinite(loss) else 1e300

    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"maxfev": max_evals, "xatol": 1e-10, "fatol": 1e-12},
    )
    tuned = with_consts(res.x)
    if tree_loss(tuned, cols, y) <= tree_loss(tree, cols, y):
        return tuned
    return tree


def _set_consts(t: _Tree, vals) -> Expr:
    """`t`'s expression with its tunable constants, in preorder, taken from
    `vals`."""
    if t.tag == "const":
        return Const(Fraction(float(next(vals))))
    if not t.consts:
        return t.expr
    return _BUILD[t.tag](*(_set_consts(k, vals) for k in t.kids))


# ---------------------------------------------------------------------------
# End-to-end guesser
# ---------------------------------------------------------------------------


def guess_symbolic(
    system: RecurrenceSystem,
    func: str | None = None,
    gp_cfg: GPConfig | None = None,
    sample_cfg: SampleConfig | None = None,
    domsplit: bool = False,
) -> GuessOutcome:
    """Evolve candidates in each fit domain (see linear._guess_domains) and
    pick from each front the entry with the best test-set R^2 (complexity
    breaks ties); constants are rationalized for verification eligibility."""
    gp_cfg = gp_cfg or GPConfig()

    def fit(params, data, index):
        front = evolve(
            data.train_inputs,
            [float(v) for v in data.train_values],
            params,
            cfg=replace(gp_cfg, seed=gp_cfg.seed * 977 + index),
        )
        entries = front.pareto()
        if not entries:
            return None, None, ()
        return _select_entry(entries, params, data), None, ()

    return _guess_domains(system, fit, 5, func, sample_cfg, domsplit)


def _select_entry(entries: list[FrontEntry], params, data) -> Expr:
    """The entry with the best held-out R^2 (lower complexity breaks ties)."""
    best = max(entries, key=lambda e: (round(held_out_r2(e.tree, params, data), 9), -e.complexity))
    return best.tree
