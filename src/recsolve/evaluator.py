"""Memoizing evaluation of recurrence systems.

Cases are scanned in order and the first matching guard wins; inner calls
(including nested ones like f(f(x-1))) are evaluated innermost-first under
a shared budget: at most MAX_CALLS distinct calls per evaluator and a call
depth of at most MAX_DEPTH.  Memoization is essential: naive evaluation of
non-linear recursion is exponential.

Evaluation keeps its pending calls on an explicit stack, not on Python's:
a case body that meets a call not yet in the memo stops, the callee is
evaluated, and the body is evaluated again, now finding the callee's value
in the memo.  So only the MAX_DEPTH count bounds the depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    Call,
    EvalError,
    Number,
    RecurrenceSystem,
    eval_bool,
    eval_ground,
)

# The budget counts work, not time: calls that miss one Evaluator's memo,
# and the nesting depth of one evaluation.
MAX_CALLS = 10**6
MAX_DEPTH = 10**4


class NoMatchingCase(Exception):
    """No guard matched: the system violates totality at this point."""


class _Pending(Exception):
    """A case body needs the value of a call that is not in the memo."""

    def __init__(self, key: tuple[str, tuple[int, ...]]):
        self.key = key


class BudgetExceeded(Exception):
    def __init__(self, reason: str):
        self.reason = reason  # "depth" | "calls"
        super().__init__(reason)


@dataclass
class BatchResult:
    input: tuple[int, ...]
    value: Number | None = None
    error: str | None = None
    warned: bool = False  # a non-integral inner value was floored


class Evaluator:
    """Single-owner evaluator for one recurrence system.

    The memo table is keyed on (function name, argument tuple) and shared
    across batches; concurrent use needs separate instances.
    """

    def __init__(self, system: RecurrenceSystem):
        self.system = system
        self.memo: dict[tuple[str, tuple[int, ...]], Number | EvalError | NoMatchingCase] = {}
        self._calls_done = 0
        self._warned = False

    # -- public API ---------------------------------------------------------

    def eval_fun(self, func: str, args: tuple[int, ...]) -> Number:
        return self._call(func, tuple(args))

    def batch_eval(self, func: str, inputs, stop_at_budget_failure: bool = False) -> list[BatchResult]:
        """One result per input, in order.  With `stop_at_budget_failure`
        the batch ends after the first input that exceeds the budget, so the
        result list can be shorter than `inputs`."""
        out = []
        for inp in inputs:
            inp = tuple(inp)
            try:
                v = self._call(func, inp)
                out.append(BatchResult(inp, value=v, warned=self._warned))
            except (EvalError, NoMatchingCase, BudgetExceeded) as exc:
                out.append(BatchResult(inp, error=_error_kind(exc), warned=self._warned))
                if stop_at_budget_failure and isinstance(exc, BudgetExceeded):
                    break
        return out

    # -- internals ------------------------------------------------------------

    def _call(self, func: str, args: tuple[int, ...]) -> Number:
        """Value of one top-level call.  `stack` holds the calls under
        evaluation, each caller below its callee.  The top call's case body
        either gives its value, which is memoized and popped, or meets a
        call not in the memo (_Pending), which is pushed.  An EvalError or
        NoMatchingCase is memoized for every call on the stack; an exceeded
        budget is memoized for none."""
        self._warned = False
        stack: list[tuple[str, tuple[int, ...]]] = []

        def push(key):
            if len(stack) > MAX_DEPTH:
                raise BudgetExceeded("depth")
            if self._calls_done >= MAX_CALLS:
                raise BudgetExceeded("calls")
            self._calls_done += 1
            stack.append(key)

        try:
            return self._lookup((func, args))
        except _Pending as p:
            push(p.key)
        while True:
            try:
                value = self._eval_cases(*stack[-1])
            except _Pending as p:
                push(p.key)
                continue
            except (EvalError, NoMatchingCase) as exc:
                for key in stack:
                    self.memo[key] = exc
                raise
            self.memo[stack.pop()] = value
            if not stack:
                return value

    def _eval_cases(self, func: str, args: tuple[int, ...]) -> Number:
        f = self.system.functions[func]
        env = dict(zip(f.params, args))
        for case in f.cases:
            if eval_bool(case.guard, env):
                return eval_ground(case.body, env, on_call=self._on_call)
        raise NoMatchingCase(f"{func}{args}")

    def _on_call(self, node: Call, env) -> Number:
        args = tuple(self._coerce_arg(eval_ground(a, env, on_call=self._on_call)) for a in node.args)
        return self._lookup((node.func, args))

    def _lookup(self, key: tuple[str, tuple[int, ...]]) -> Number:
        """The memoized value of `key`; raises its memoized error, or
        _Pending when it has not been evaluated."""
        hit = self.memo.get(key)
        if hit is None:
            raise _Pending(key)
        if isinstance(hit, Exception):
            raise hit
        return hit

    def _coerce_arg(self, v: Number) -> int:
        if isinstance(v, int):
            return v
        if isinstance(v, Fraction) and v.denominator == 1:
            return v.numerator
        self._warned = True
        return math.floor(v)


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, BudgetExceeded):
        return f"budget-exceeded:{exc.reason}"
    if isinstance(exc, NoMatchingCase):
        return "no-matching-case"
    if isinstance(exc, EvalError):
        return exc.kind
    return type(exc).__name__
