"""Guessing closed forms by sparse linear regression.

Sampled input/output pairs of the recurrence become a regression problem
over a catalog of base functions (powers, logs, exponentials, factorial...).
The l1 penalty drives most coefficients to zero, epsilon-pruning drops the
stragglers, and a plain least-squares refit on the survivors gives the
candidate; coefficients are then rationalized so the checker can work with
exact arithmetic.
"""

from recsolve import dsl
from recsolve.dsl import print_expr, print_piecewise
from recsolve.linear import catalog, guess_linear

print("one-variable catalog:")
print(" ", ", ".join(print_expr(t) for t in catalog(("x",))[0].base_functions))

nested = dsl.parse(
    "def f(x) pre x >= 0 { case x = 0 -> 0 case x > 0 -> f(f(x - 1)) + 1 } entry f"
)
out = guess_linear(nested.system)
print("\nnested recurrence:")
print("  candidate:", print_piecewise(out.candidate))
print("  test R^2: ", out.score)

exp1 = dsl.parse(
    "def f(x) pre x >= 0 { case x = 0 -> 1 case x > 0 -> 2*f(x - 1) + 1 } entry f"
)
out = guess_linear(exp1.system)
print("\ndoubling recurrence (needs the exponential feature):")
print("  candidate:", print_piecewise(out.candidate))
print("  test R^2: ", out.score)

# Worst-case and best-case determinizations of a two-branch step
for src, label in [
    ("max(f(x - 1) + 1, f(x - 1) + 2)", "upper (max)"),
    ("min(f(x - 1) + 1, f(x - 1) + 2)", "lower (min)"),
]:
    bf = dsl.parse(
        f"def f(x) pre x >= 0 {{ case x = 0 -> 0 case x > 0 -> {src} }} entry f"
    )
    out = guess_linear(bf.system)
    print(f"\n{label} determinization:")
    print("  candidate:", print_piecewise(out.candidate))
