"""The check stage: from candidate to proof or counterexample.

The candidate replaces every recursive call (innermost first), one branch
per choice of candidate piece, and the equation per branch is simplified.
Each branch gives labelled obligations: its equation, the precondition at
each recursive call, and each floor/ceil variable divisor at least 1. One
query goes to an SMT solver over the integers: is there a point of the
precondition that breaks one of them? unsat means the candidate solves
the equation exactly and every substitution stayed inside the domain; sat
gives a counterexample that is replayed through the evaluator before being
reported.
"""

from recsolve import dsl
from recsolve.dsl import parse_candidate, print_bool
from recsolve.smt import obligations, verify

nested = dsl.parse(
    "def f(x) pre x >= 0 { case x = 0 -> 0 case x > 0 -> f(f(x - 1)) + 1 } entry f"
)

# Both of nested's equations simplify to 0 = 0 under x, so the one left is
# that the inner call f(x - 1) stays in the precondition.
print("obligations of the correct candidate x, each negated:")
for o in obligations(nested.system, parse_candidate("x")):
    print(f"  {o.label}: {print_bool(o.formula)}")
print("verdict:", verify(nested.system, parse_candidate("x")))

print("\noff-by-one candidate:")
print("verdict:", verify(nested.system, parse_candidate("x + 1")))

# Algebra bridges what the solver cannot do alone: the difference of
# exponentials cancels during rewriting, so the solver only sees 0 = 0.
exp1 = dsl.parse(
    "def f(x) pre x >= 0 { case x = 0 -> 1 case x > 0 -> 2*f(x - 1) + 1 } entry f"
)
print("\nexponential closed form 2^(x+1) - 1:")
print("verdict:", verify(exp1.system, parse_candidate("2^(x+1) - 1")))

# A piecewise candidate is checked one branch at a time: each choice of
# piece for the left side and for each call is simplified on its own, under
# the conditions of the pieces it chose. In exp1's split form the call
# f(x - 1) at x = 1 takes the x = 0 piece, and the pin x = 1 folds 2^x away.
print("\nsplit form of exp1:")
print("verdict:", verify(exp1.system, parse_candidate("piece x = 0 -> 1 piece x > 0 -> 2*2^x - 1")))

merge = dsl.parse(
    "def f(x, y) pre x >= 0 and y >= 0 {"
    " case x > 0 and y > 0 -> 1 + max(f(x - 1, y), f(x, y - 1))"
    " case x = 0 or y = 0 -> 0 } entry f"
)
cand = parse_candidate("piece x > 0 and y > 0 -> x + y - 1 piece x = 0 or y = 0 -> 0")
print("\npiecewise merge candidate:")
print("verdict:", verify(merge.system, cand))
print("\nglobal x + y - 1 (wrong at the boundary):")
print("verdict:", verify(merge.system, parse_candidate("x + y - 1")))
