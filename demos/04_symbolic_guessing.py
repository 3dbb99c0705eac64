"""Symbolic regression: search expression-tree space directly.

Linear guessing is limited to the span of its catalog. The evolutionary
guesser composes operators freely (complexity-penalized, constants tuned by
simplex search), so it reaches shapes like 2^(x+y) that no affine
combination of single-variable features can express.
"""

import random

from recsolve import dsl
from recsolve.dsl import print_bool, print_expr
from recsolve.symbolic import GPConfig, OperatorSet, evolve, guess_symbolic

# Direct use on raw data: targets are 2^(x+y), operators restricted to
# {+, *, 2^.}
rng = random.Random(3)
inputs = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(60)]
targets = [float(2 ** (a + b)) for a, b in inputs]
front = evolve(
    inputs, targets, ("x", "y"),
    OperatorSet(binary=("add", "mul"), unary=("pow2",)),
    GPConfig(populations=12, population_size=25, iterations=20, seed=0),
)
print("pareto front (complexity, train MSE, expression):")
for entry in front.pareto():
    print(f"  {entry.complexity:3d}  {entry.loss:12.4g}  {print_expr(entry.tree)}")

# Full pipeline on the two-way doubling recurrence, per subdomain
exp3 = dsl.parse(
    """
def f(x, y) pre x >= 0 and y >= 0 {
  case x = 0 and y = 0 -> 1
  case x > 0 -> 2*f(x - 1, y)
  case y > 0 -> 2*f(x, y - 1)
}
entry f
"""
)
out = guess_symbolic(
    exp3.system, gp_cfg=GPConfig(seed=1, populations=20, iterations=25), domsplit=True
)
print("\ntwo-way doubling, per subdomain:")
for p in out.candidate.pieces:
    print(f"  on {print_bool(p.domain)}: {print_expr(p.body)}   (R^2 = {p.score:.4g})")
