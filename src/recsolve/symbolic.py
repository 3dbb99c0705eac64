"""Symbolic guessing: multi-population evolutionary search over expression
trees with node-cost complexity penalties and simplex-based constant tuning.

Trees are model expressions, valued by eval_array's per-operator rules
(model.array_rules).  The search sees x^2, x^3 and 2^e as the single unary
nodes square, cube and pow2.  Inside the search each GP node (`_Tree`)
carries its size, complexity and hash, computed once when it is built, so
that variation rebuilds only the path to the node it changes and a memo
lookup reads a cached hash.  Variation builds a node from its operator and
operand nodes, not from its expression: a pow or pow2 node takes the
operator that its operands give it (`_build`).  All trees of one run share
one leaf node per parameter and per fixed constant.  Once scored,
a node also keeps its value on the training columns, so a child's score
computes only its rebuilt path.  The islands of one run are evolved in
contiguous blocks, two per available CPU (one on one CPU): block 0 in the
calling process, the others in forked children that swap migrants with
their neighbours through pipes; the front is the same for any number of
blocks.  Each block runs under one np.errstate (`_quiet`), not one per
score.  The search's shape is fixed by the constants below; GPConfig sets
only its size and seed.  Constants are tuned by a port of scipy's
Nelder–Mead (`_nelder_mead`), so no scipy module loads here; numpy and
multiprocessing load at a process's first `evolve` or constant tuning, not
with this module.
"""

from __future__ import annotations

import gc
import math
import os
import random
import threading
import traceback
from collections.abc import Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

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
    array_leaf,
    array_operator,
    array_rules,
    array_valid,
)
from .sampler import SampleConfig

if TYPE_CHECKING:
    import numpy as np

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
# Island blocks per available CPU.  Islands differ several-fold in CPU time,
# so a block that waits at a migration leaves its CPU to another block.
BLOCKS_PER_CPU = 2


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

def _node(e: Expr) -> tuple[str, tuple[Expr, ...]]:
    """The GP operator of a node and its operands: those of eval_array
    (model.array_operator).  x^2, x^3 and 2^e (e not a constant) are the
    unary square, cube and pow2, so their constant is neither a node nor
    tuned."""
    tag, operands = array_operator(e)
    if operands and tag not in _BUILD:
        raise TypeError(f"{type(e).__name__} is not a GP operator")
    return tag, operands


class _Tree:
    """A GP node: its model expression `expr`, its GP operator `tag` and
    operand nodes `kids` (from `_node`), and, computed once when it is
    built, its size in GP nodes, its complexity, its count of tunable
    constants and a structural hash.  A node built from its operands
    (`_build`) makes its expression when it is first read.  Once scored, a
    node also holds its value on the training columns, with those columns
    (see `_column`).  Nodes are equal when their expressions are: when
    their operators are and their operand nodes are equal, or, for leaves,
    their expressions."""

    __slots__ = ("_expr", "tag", "kids", "size", "complexity", "consts", "_hash", "_cols", "_col")

    def __init__(self, expr: Expr):
        tag, operands = _node(expr)
        self._fill(expr, tag, tuple(_Tree(o) for o in operands))

    def _fill(self, expr: Expr | None, tag: str, kids: tuple[_Tree, ...]):
        self._expr, self.tag, self.kids, self._cols = expr, tag, kids, None
        if len(kids) == 2:
            a, b = kids
            self.size = 1 + a.size + b.size
            self.complexity = COSTS.get(tag, 1) + a.complexity + b.complexity
            self.consts = a.consts + b.consts
            self._hash = hash((tag, a._hash, b._hash))
        elif kids:
            (a,) = kids
            self.size = 1 + a.size
            self.complexity = COSTS.get(tag, 1) + a.complexity
            self.consts = a.consts
            self._hash = hash((tag, a._hash))
        else:
            self.size = self.complexity = 1
            self.consts = int(tag == "const")
            self._hash = hash(expr)

    @property
    def expr(self) -> Expr:
        e = self._expr
        if e is None:
            e = self._expr = _BUILD[self.tag](*[k.expr for k in self.kids])
        return e

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if type(other) is not _Tree:
            return NotImplemented
        if self is other:
            return True
        if self._hash != other._hash or self.tag != other.tag:
            return False
        return self.kids == other.kids if self.kids else self._expr == other._expr


def _made(expr: Expr | None, tag: str, kids: tuple[_Tree, ...] = ()) -> _Tree:
    """The node of `expr`, given the GP operator and operand nodes that
    `_node` would derive from it; `expr` is None to make it when read."""
    t = _Tree.__new__(_Tree)
    t._fill(expr, tag, kids)
    return t


def _build(tag: str, kids: tuple[_Tree, ...]) -> _Tree:
    """The node of GP operator `tag` over the operand nodes `kids`, built
    from the tag and the operands' nodes, with no expression made.  A pow or
    pow2 node whose operands make it another operator is that operator, as
    model.array_operator decides it: x^2 and x^3 are square and cube, 2^e
    (e not a constant) is pow2, and 2^c for another constant c is pow."""
    if tag == "pow":
        base, exp = kids
        if exp.tag == "const":
            if exp._expr.value == 2:
                return _made(None, "square", (base,))
            if exp._expr.value == 3:
                return _made(None, "cube", (base,))
        elif base.tag == "const" and base._expr.value == 2:
            return _made(None, "pow2", (exp,))
    elif tag == "pow2" and kids[0].tag == "const":
        (exp,) = kids
        if exp._expr.value == 2:  # 2^2: the operand is also the base
            return _made(None, "square", kids)
        two = _const_leaf(2.0)
        return _made(None, "cube", (two,)) if exp._expr.value == 3 else _made(None, "pow", (two, exp))
    return _made(None, tag, kids)


def _const_leaf(value: float) -> _Tree:
    """The leaf node of the constant `value`, a finite float.  Its hash is
    hash((value,)), which is its Const's hash (Python hashes a float and
    the Fraction of equal value alike), read without Fraction.__hash__."""
    t = _Tree.__new__(_Tree)
    t._expr, t.tag, t.kids, t._cols = Const(Fraction(value)), "const", (), None
    t.size = t.complexity = t.consts = 1
    t._hash = hash((value,))
    return t


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
    kids = t.kids
    for j, k in enumerate(kids):
        if index < k.size:
            return _build(t.tag, kids[:j] + (_replace(k, index, repl),) + kids[j + 1:])
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


# ---------------------------------------------------------------------------
# Fitness
# ---------------------------------------------------------------------------


def tree_loss(tree: _Tree | Expr, cols: dict[str, np.ndarray], targets: np.ndarray) -> float:
    """Mean squared error of a GP node or an expression on the columns
    `cols`; invalid points (nan/inf) make the loss infinite.  The predictions
    are eval_array's, bit for bit, but a node computes only its nodes not yet
    scored on `cols` (see `_column`), so the dict `cols` must not change
    once a node is scored on it.  The sum and the division are those of
    np.mean, so the loss is np.mean of the squared residuals bit for bit.
    The predictions are computed under np.errstate(all="ignore"); the
    residuals are not, so a residual of magnitude 2^512 or more, which
    squares to inf, is an overflow to the caller's errstate.  `evolve`
    silences that once for its whole run (`_quiet`), and tree_loss then
    enters no errstate of its own.

    Where eval_array's value would have a nan (some value is nan or above
    2^512 in magnitude, see `array_valid`), the loss is inf.  That pass is
    skipped when every target is below 2^460 in magnitude: a value past
    2^512 is then at least 2^512 + 2^460, so its residual is 2^512 or more
    and the squared sum is not finite anyway.  Whether the targets are that
    small is computed once per targets array, so `targets`, like `cols`,
    must not change once a node is scored on it."""
    global _last_targets
    np, rules = _numeric or _load_numeric()
    node = tree if type(tree) is _Tree else _Tree(tree)
    seen, small = _last_targets
    if seen is not targets:
        small = bool(np.abs(targets).max() < _SMALL_TARGET)
        _last_targets = (targets, small)
    if _quiet_now.get():
        v = _column(np, rules, node, cols)
        valid = small or array_valid(np, v)
    else:
        with np.errstate(all="ignore"):
            v = _column(np, rules, node, cols)
            valid = small or array_valid(np, v)
    if not valid:  # eval_array's value has a nan
        return math.inf
    d = v - targets
    loss = float(np.add.reduce(d * d)) / len(d)
    return loss if math.isfinite(loss) else math.inf


# targets below this in magnitude need no `array_valid` pass (see tree_loss)
_SMALL_TARGET = 2.0 ** 460
# the targets array that tree_loss read last, and whether all are below
# _SMALL_TARGET in magnitude
_last_targets: tuple = (None, False)
# (numpy, eval_array's unguarded rules), set by tree_loss's first call
_numeric: tuple | None = None
# whether this context runs under `_quiet`
_quiet_now: ContextVar[bool] = ContextVar("recsolve_symbolic_quiet", default=False)


def _load_numeric() -> tuple:
    global _numeric
    import numpy as np

    _numeric = (np, array_rules(False))
    return _numeric


@contextmanager
def _quiet(np):
    """Run the body under one np.errstate(all="ignore"), with tree_loss
    entering no errstate of its own; both are as before on exit, also when
    the body raises."""
    token = _quiet_now.set(True)
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _quiet_now.reset(token)


def _column(np, rules, t: _Tree, cols):
    """The value of `t` on `cols` by eval_array's rules, before its final
    overflow check: computed from the operand nodes' values and kept on the
    node, to be read again for the same `cols` object only."""
    if t._cols is cols:
        return t._col
    kids = t.kids
    if len(kids) == 2:
        v = rules[t.tag](_column(np, rules, kids[0], cols), _column(np, rules, kids[1], cols))
    elif kids:
        v = rules[t.tag](_column(np, rules, kids[0], cols))
    else:
        v = array_leaf(np, t.expr, cols)
    t._cols, t._col = cols, v
    return v


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n) for n > 0, by the same draws, without its checks."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


_FIXED_CONSTS = (1.0, 2.0, 3.0, 0.5)


class _Leaves:
    """The leaf nodes that random trees draw: one node per parameter
    (`names` in order) and one per fixed constant of `_random_leaf`, shared
    by every tree of an `evolve` call, which builds this table."""

    __slots__ = ("vars", "consts")

    def __init__(self, names: Sequence[str]):
        self.vars = tuple(_made(Var(p), "var") for p in names)
        self.consts = tuple(_const_leaf(v) for v in _FIXED_CONSTS)


def _random_leaf(rng: random.Random, params: _Leaves | Sequence[str]) -> _Tree:
    """A parameter with probability 0.7, else one of the fixed constants
    or a uniform draw in [-5, 5] rounded to 3 places, with equal odds.
    `params` is the table of shared leaves, or the parameter names for a
    table of fresh ones.  The draws are those of rng.choice over the names
    and over [1.0, 2.0, 3.0, 0.5, round(rng.uniform(-5, 5), 3)]."""
    leaves = params if type(params) is _Leaves else _Leaves(params)
    if rng.random() < 0.7:
        return leaves.vars[_below(rng, len(leaves.vars))]
    drawn = rng.uniform(-5, 5)
    k = _below(rng, len(_FIXED_CONSTS) + 1)
    return leaves.consts[k] if k < len(_FIXED_CONSTS) else _const_leaf(round(drawn, 3))


def _random_tree(rng: random.Random, params, ops: OperatorSet, depth: int) -> _Tree:
    if depth <= 0 or rng.random() < 0.3:
        return _random_leaf(rng, params)
    pool = ops.binary + ops.unary
    tag = rng.choice(pool)
    if tag in ops.binary:
        lhs = _random_tree(rng, params, ops, depth - 1)
        return _build(tag, (lhs, _random_tree(rng, params, ops, depth - 1)))
    return _build(tag, (_random_tree(rng, params, ops, depth - 1),))


def _mutate(rng: random.Random, tree: _Tree, params, ops: OperatorSet) -> _Tree:
    idx = _below(rng, tree.size)
    if rng.random() < 0.5:
        return _replace(tree, idx, _random_tree(rng, params, ops, 2))
    # point mutation: swap the operator, keep children
    node = _at(tree, idx)
    kids = node.kids
    if node.tag in ops.binary:
        op = rng.choice(ops.binary)
    elif node.tag in ops.unary:
        op = rng.choice(ops.unary)
    else:
        return _replace(tree, idx, _random_leaf(rng, params))
    return _replace(tree, idx, _build(op, kids))


def _perturb_const(rng: random.Random, tree: _Tree) -> _Tree:
    if not tree.consts:
        return tree
    # the same draw as rng.choice over the list of the constants' indices
    idx = _const_index(tree, _below(rng, tree.consts))
    c = float(_at(tree, idx).expr.value)
    new = c * (1.0 + rng.gauss(0, 0.3)) + rng.gauss(0, 0.1)
    return _replace(tree, idx, _const_leaf(new))


def _crossover(rng: random.Random, a: _Tree, b: _Tree) -> _Tree:
    ai = _below(rng, a.size)
    return _replace(a, ai, _at(b, _below(rng, b.size)))


class _Individual:
    """A scored tree.  Of two individuals the one of lesser `key`, (loss,
    complexity), is the better; losses are never nan."""

    __slots__ = ("tree", "loss", "key")

    def __init__(self, tree: _Tree, loss: float):
        self.tree, self.loss, self.key = tree, loss, (loss, tree.complexity)


_key = attrgetter("key")


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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

    The islands are split into contiguous blocks, BLOCKS_PER_CPU per
    available CPU (`available_cpus`, at most one per island), so that while
    one block waits for a migrant another runs on its CPU.  On one CPU
    there is one block.  The calling process evolves block 0 and forked
    children evolve the others.  There is one block and no child inside a
    multiprocessing child, such as a
    `corpus --jobs N` worker, in a process with more than one thread
    (where forking is unsafe), or where "fork" is missing.  Islands meet
    only at migration, where each island takes the best of the one before
    it: so a block sends the best of its last island (expression and loss)
    to the next block and takes the previous block's in its
    first island.  Each block keeps, per complexity, its first offer of
    least loss with the (generation, island) where it was made; the caller
    merges the blocks by the least (loss, generation, island), which is the
    serial rule that the first offer wins a tie (no two blocks share an
    island, and a block keeps its own first), and then tunes the front's
    constants.  So the front is the same, bit for bit, for any number of
    blocks.  The search makes no reference cycles, so the cyclic garbage
    collector is off while a block evolves and restored afterwards.

    Each GP node carries its size, complexity and hash, computed once when
    it is built (`_Tree`), so variation rebuilds only the path to the node
    it changes, from the operator of each node on it, and a child's
    complexity is read from its root.  A scored node keeps its column of
    values on the training rows, so scoring a child, or a tuning of an
    island's best, computes only the nodes it does not share with a scored
    tree.  Each distinct tree is scored once per two-generation window in
    its block: an offspring that repeats a tree made there in this
    generation or the last reuses its individual.  The tuning of an
    island's best is memoized by tree for the whole call.  Neither memo
    changes a random draw or a result.  Random trees draw their leaves from
    one table (`_Leaves`) built per call, so each parameter and each fixed
    constant is one node, scored once.  Residuals squared past the float
    range are no error (see tree_loss): each block, and the tuning, runs
    under one np.errstate(all="ignore") (`_quiet`), whatever the caller's
    errstate, and tree_loss enters none of its own there."""
    import multiprocessing as mp

    import numpy as np

    ops = ops or OperatorSet()
    cfg = cfg or GPConfig()
    if len(targets) < 5:
        raise ValueError("need at least 5 rows")
    cols = {p: np.asarray([t[i] for t in inputs], dtype=float) for i, p in enumerate(params)}
    y = np.asarray(targets, dtype=float)
    # fork only a single-threaded process that no multiprocessing parent started
    forks = (
        "fork" in mp.get_all_start_methods()
        and mp.parent_process() is None
        and threading.active_count() == 1
    )
    cpus = available_cpus() if forks else 1
    n = min(cfg.populations, BLOCKS_PER_CPU * cpus) if cpus > 1 else 1
    cuts = [cfg.populations * k // n for k in range(n + 1)]

    leaves = _Leaves(params)

    def run(k: int, exchange) -> dict:
        enabled = gc.isenabled()
        gc.disable()
        try:
            with _quiet(np):
                return _evolve_islands(range(cuts[k], cuts[k + 1]), exchange, cols, y, leaves, ops, cfg)
        finally:
            if enabled:
                gc.enable()

    best: dict[int, tuple[float, tuple[int, int], Expr]] = {}
    for part in _run_blocks(n, run):
        for c, offer in part.items():
            if c not in best or offer[:2] < best[c][:2]:
                best[c] = offer
    front = ParetoFront({c: FrontEntry(c, loss, tree) for c, (loss, _, tree) in best.items()})
    # local constant tuning on the front survivors
    with _quiet(np):
        for entry in list(front.pareto()):
            tuned = optimize_constants_tree(_Tree(entry.tree), cols, y)
            front.offer(tuned.expr, tree_loss(tuned, cols, y), tuned.complexity)
    return front


def _evolve_islands(
    ids: range, exchange, cols, y, leaves: _Leaves, ops: OperatorSet, cfg: GPConfig
) -> dict[int, tuple[float, tuple[int, int], Expr]]:
    """Evolve the islands numbered `ids` of `evolve`'s ring, drawing leaves
    from `leaves`.  At each migration `exchange` takes the best of the last
    island and returns the migrant for the first.  Returns, per complexity,
    the first offer of least loss as (loss, (generation, island), tree);
    generation 0 is the initial population."""
    front: dict[int, tuple[float, tuple[int, int], Expr]] = {}
    # tree -> individual, made in this generation (seen) or the last (older)
    seen: dict[_Tree, _Individual] = {}
    older: dict[_Tree, _Individual] = {}
    tuned_of: dict[_Tree, _Tree] = {}
    gen = 0

    def make(tree: _Tree) -> _Individual:
        ind = seen.get(tree)
        if ind is None:
            ind = older.get(tree)
            if ind is None:
                comp = tree.complexity
                loss = tree_loss(tree, cols, y) if comp <= MAX_COMPLEXITY else math.inf
                ind = _Individual(tree, loss)
                cur = front.get(comp)
                if math.isfinite(loss) and (cur is None or loss < cur[0]):
                    front[comp] = (loss, (gen, i), tree.expr)
            seen[tree] = ind
        return ind

    rngs = {i: random.Random(cfg.seed * 10_007 + i) for i in ids}
    islands: list[list[_Individual]] = []
    for i in ids:
        trees = [_random_tree(rngs[i], leaves, ops, 3) for _ in range(cfg.population_size)]
        islands.append([make(t) for t in trees])

    def tournament(rng: random.Random, pop: list[_Individual]) -> _Individual:
        # each entrant is pop[_below(rng, n)], drawn inline
        n = len(pop)
        k, bits = n.bit_length(), rng.getrandbits
        r = bits(k)
        while r >= n:
            r = bits(k)
        best = pop[r]
        for _ in range(TOURNAMENT - 1):
            r = bits(k)
            while r >= n:
                r = bits(k)
            ch = pop[r]
            if ch.key < best.key:
                best = ch
        return best

    for gen in range(1, cfg.iterations + 1):
        older, seen = seen, {}
        for pos, i in enumerate(ids):
            pop, rng = islands[pos], rngs[i]
            newpop = [min(pop, key=_key)]
            while len(newpop) < cfg.population_size:
                r = rng.random()
                parent = tournament(rng, pop)
                if r < P_CROSSOVER:
                    other = tournament(rng, pop)
                    child = _crossover(rng, parent.tree, other.tree)
                elif r < P_CROSSOVER + P_MUTATION:
                    child = _mutate(rng, parent.tree, leaves, ops)
                else:
                    child = _perturb_const(rng, parent.tree)
                newpop.append(parent if child.complexity > MAX_COMPLEXITY else make(child))
            # short classical pass over the island's best: shapes like c^n
            # only become competitive once their constants are tuned
            best = min(newpop, key=_key)
            btree = best.tree
            if math.isfinite(best.loss) and btree.consts:
                tuned = tuned_of.get(btree)
                if tuned is None:
                    tuned = tuned_of[btree] = optimize_constants_tree(btree, cols, y, max_evals=40)
                if tuned != btree:
                    cand = make(tuned)
                    if cand.key < best.key:
                        newpop[newpop.index(best)] = cand
            islands[pos] = newpop
        if gen % MIGRATION_INTERVAL == 0:
            bests = [min(pop, key=_key) for pop in islands]
            bests.insert(0, exchange(bests.pop()))
            for dst, migrant in zip(islands, bests):
                dst[dst.index(max(dst, key=_key))] = migrant
    return front


# what a block's pipe raises when a neighbour block has stopped
_STOPPED = (EOFError, BrokenPipeError)


def _run_blocks(n: int, run) -> list:
    """[run(k, exchange) for k in range(n)], block 0 in this process and the
    others in forked daemonic children, joined in a ring of pipes so that
    `exchange` sends a migrant to block k + 1 and returns block k - 1's.
    One block exchanges with itself, with no child and no pipe.

    Each process keeps only its own pipe ends, so a block that stops gives
    its neighbours EOF or a broken pipe.  A child's exception is sent back
    and raised here; every child is joined before this returns or raises,
    and terminated first when it raises."""
    if n == 1:
        return [run(0, lambda migrant: migrant)]
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    ring = [ctx.Pipe(duplex=False) for _ in range(n)]  # ring[k]: block k -> k + 1
    results = [ctx.Pipe(duplex=False) for _ in range(n - 1)]  # results[k - 1]: block k
    ends = [c for pair in ring + results for c in pair]

    def keep_only(*mine):
        for c in ends:
            if c not in mine:
                c.close()

    def child(k: int):
        out = results[k - 1][1]
        keep_only(ring[k - 1][0], ring[k][1], out)
        try:
            value = run(k, _exchanger(ring[k - 1][0], ring[k][1]))
        except BaseException as exc:
            exc.add_note(f"in island block {k}:\n{traceback.format_exc()}")
            value = exc
        try:
            out.send(value)
        except BrokenPipeError:  # the caller has stopped
            pass

    procs = []
    try:
        for k in range(1, n):
            procs.append(ctx.Process(target=child, args=(k,), daemon=True))
            procs[-1].start()
        keep_only(ring[-1][0], ring[0][1], *(r for r, _ in results))
        try:
            parts = [run(0, _exchanger(ring[-1][0], ring[0][1]))]
        except _STOPPED as exc:  # a child stopped; its result says why
            parts = [exc]
        ring[-1][0].close()
        ring[0][1].close()
        for k, (r, _) in enumerate(results, 1):
            try:
                parts.append(r.recv())
            except EOFError:
                parts.append(RuntimeError(f"island block {k} stopped without a result"))
        errors = [p for p in parts if isinstance(p, BaseException)]
        if errors:
            raise next((e for e in errors if not isinstance(e, _STOPPED)), errors[0])
        return parts
    except BaseException:
        for p in procs:
            p.terminate()
        raise
    finally:
        for c in ends:
            c.close()
        for p in procs:
            p.join()


def _exchanger(recv, send):
    """Migration between blocks: send our migrant as (expression, loss) and
    rebuild the one received."""

    def exchange(migrant: _Individual) -> _Individual:
        send.send((migrant.tree.expr, migrant.loss))
        expr, loss = recv.recv()
        return _Individual(_Tree(expr), loss)

    return exchange


# ---------------------------------------------------------------------------
# Constant optimization
# ---------------------------------------------------------------------------


def optimize_constants_tree(
    tree: _Tree | Expr, cols: dict[str, np.ndarray], y: np.ndarray, max_evals: int = 200
) -> _Tree | Expr:
    """Nelder–Mead search (`_nelder_mead`, at most `max_evals` losses) over
    the numeric leaves of a GP node or an expression, minimizing the
    training loss on the columns `cols`; the result is of the same kind and
    never worse than `tree`."""
    node = tree if type(tree) is _Tree else _Tree(tree)
    if not node.consts:
        return tree
    x0 = [float(_at(node, _const_index(node, k)).expr.value) for k in range(node.consts)]

    def objective(vals: list[float]) -> float:
        loss = tree_loss(_set_consts(node, iter(vals)), cols, y)
        return loss if math.isfinite(loss) else 1e300

    tuned = _set_consts(node, iter(_nelder_mead(objective, x0, max_evals, 1e-10, 1e-12)))
    best = tuned if tree_loss(tuned, cols, y) <= tree_loss(node, cols, y) else node
    return best if tree is node else best.expr


class _Spent(Exception):
    """`_nelder_mead` has made its last evaluation."""


_value = itemgetter(0)


def _nelder_mead(f, x0: list[float], maxfev: int, xatol: float, fatol: float) -> list[float]:
    """The point that scipy.optimize.minimize(f, x0, method="Nelder-Mead",
    options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol}) returns:
    a port of scipy 1.17's `_minimize_neldermead` with no bounds and
    `adaptive=False` (Nelder & Mead, Comput. J. 1965), in Python floats and
    bit for bit, except that vertices of equal value keep their order (a
    stable sort), where numpy's argsort may order them by machine.  `f`
    takes a list of floats and must not return nan."""
    n, calls = len(x0), 0

    def value(x: list[float]) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _Spent
        calls += 1
        return f(x)

    # vertices [value, point]: x0, and x0 with one coordinate moved by 5%
    # (or set to 0.00025 where it is 0); unevaluated ones are worth inf
    verts = [[math.inf, x0]]
    for k in range(n):
        x = list(x0)
        x[k] = 1.05 * x[k] if x[k] != 0 else 0.00025
        verts.append([math.inf, x])
    try:
        for v in verts:
            v[0] = value(v[1])
    except _Spent:
        pass
    verts.sort(key=_value)
    while calls < maxfev:
        fb, b = verts[0]
        if all(abs(a - c) <= xatol for _, x in verts[1:] for a, c in zip(x, b)) and all(
            abs(fb - fx) <= fatol for fx, _ in verts[1:]
        ):
            break
        try:
            xbar = [0.0] * n  # the centroid of all but the worst, summed row by row
            for _, x in verts[:-1]:
                xbar = [s + a for s, a in zip(xbar, x)]
            xbar = [s / n for s in xbar]
            fw, w = verts[-1]
            # reflection (rho = 1), expansion (chi = 2), contractions (psi = 1/2)
            xr = [2 * c - a for c, a in zip(xbar, w)]
            fr = value(xr)
            if fr < fb:
                xe = [3 * c - 2 * a for c, a in zip(xbar, w)]
                fe = value(xe)
                verts[-1] = [fe, xe] if fe < fr else [fr, xr]
            elif fr < verts[-2][0]:
                verts[-1] = [fr, xr]
            else:
                if fr < fw:  # outside contraction
                    xc = [1.5 * c - 0.5 * a for c, a in zip(xbar, w)]
                    fc = value(xc)
                    kept = fc <= fr
                else:  # inside contraction
                    xc = [0.5 * c + 0.5 * a for c, a in zip(xbar, w)]
                    fc = value(xc)
                    kept = fc < fw
                if kept:
                    verts[-1] = [fc, xc]
                else:  # shrink toward the best (sigma = 1/2); a stop leaves a stale value
                    for v in verts[1:]:
                        v[1] = [c + 0.5 * (a - c) for a, c in zip(v[1], b)]
                        v[0] = value(v[1])
        except _Spent:
            pass
        verts.sort(key=_value)
    return verts[0][1]


def _set_consts(t: _Tree, vals) -> _Tree:
    """`t` with its tunable constants, in preorder, taken from `vals`.  A
    subtree without constants is kept, with its scored value."""
    if t.tag == "const":
        return _const_leaf(float(next(vals)))
    if not t.consts:
        return t
    return _build(t.tag, tuple(_set_consts(k, vals) for k in t.kids))


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
