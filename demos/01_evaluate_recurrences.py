"""Evaluating recurrences as programs.

A recurrence definition is an executable object: scan the cases in order,
take the first guard that holds, and recurse on inner calls. Memoization
makes non-linear recursion affordable, and budgets turn non-termination
into a flagged sample instead of a hang.
"""

from recsolve import dsl
from recsolve.evaluator import Evaluator

nested = dsl.parse(
    """
def f(x) pre x >= 0 {
  case x = 0 -> 0
  case x > 0 -> f(f(x - 1)) + 1
}
entry f
"""
)

ev = Evaluator(nested.system)
print("nested self-application f(f(x-1)) + 1:")
print("  f(x) for x in 0..9:", [ev.eval_fun("f", (x,)) for x in range(10)])

fib = dsl.parse(
    "def f(n) pre n >= 0 { case n = 0 -> 1 case n = 1 -> 1"
    " case n >= 2 -> f(n - 1) + f(n - 2) } entry f"
)
ev = Evaluator(fib.system)
print("\nFibonacci with memoization:")
print("  f(90) =", ev.eval_fun("f", (90,)))

# A recurrence whose argument climbs away from the base case: every positive
# input exhausts the depth budget (evaluator.MAX_DEPTH), and the batch
# records that per sample.
runaway = dsl.parse(
    "def q(x) pre x >= 0 { case x = 0 -> 1 case x > 0 -> 1 + q(x + 1) } entry q"
)
ev = Evaluator(runaway.system)
print("\nnon-terminating cost recurrence:")
for r in ev.batch_eval("q", [(0,), (1,), (2,)]):
    print(f"  q{r.input} ->", r.value if r.error is None else r.error)
