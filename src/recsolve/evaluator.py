"""Memoizing evaluation of recurrence systems.

Cases are scanned in order and the first matching guard wins; inner calls
(including nested ones like f(f(x-1))) are evaluated innermost-first under
a shared budget: at most MAX_CALLS distinct calls per evaluator and a call
depth of at most MAX_DEPTH.  Memoization is essential: naive evaluation of
non-linear recursion is exponential.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    Call,
    EvalError,
    Expr,
    Number,
    RecurrenceSystem,
    eval_bool,
    eval_ground,
)

# Deep linear recursions (the non-terminating budget probe in particular)
# need far more interpreter frames than CPython's default allows.
_STACK_BYTES = 512 * 1024 * 1024
_RECURSION_LIMIT = 400_000

# The budget counts work, not time: calls that miss one Evaluator's memo,
# and the nesting depth of one evaluation.
MAX_CALLS = 10**6
MAX_DEPTH = 10**4


class NoMatchingCase(Exception):
    """No guard matched: the system violates totality at this point."""


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
        return _run_deep(lambda: self._eval_top(func, tuple(args)))

    def batch_eval(self, func: str, inputs, stop_at_budget_failure: bool = False) -> list[BatchResult]:
        """One result per input, in order.  With `stop_at_budget_failure`
        the batch ends after the first input that exceeds the budget, so the
        result list can be shorter than `inputs`."""

        def job():
            out = []
            for inp in inputs:
                inp = tuple(inp)
                self._warned = False
                try:
                    v = self._call(func, inp, 0)
                    out.append(BatchResult(inp, value=v, warned=self._warned))
                except (EvalError, NoMatchingCase, BudgetExceeded) as exc:
                    out.append(BatchResult(inp, error=_error_kind(exc), warned=self._warned))
                    if stop_at_budget_failure and isinstance(exc, BudgetExceeded):
                        break
            return out

        return _run_deep(job)

    # -- internals ------------------------------------------------------------

    def _eval_top(self, func: str, args: tuple[int, ...]) -> Number:
        self._warned = False
        return self._call(func, args, 0)

    def _call(self, func: str, args: tuple[int, ...], depth: int) -> Number:
        key = (func, args)
        hit = self.memo.get(key)
        if hit is not None:
            if isinstance(hit, Exception):
                raise hit
            return hit
        if depth > MAX_DEPTH:
            raise BudgetExceeded("depth")
        if self._calls_done >= MAX_CALLS:
            raise BudgetExceeded("calls")
        self._calls_done += 1

        f = self.system.functions[func]
        env = dict(zip(f.params, args))

        def on_call(node: Call, call_env) -> Number:
            inner_args = []
            for a in node.args:
                v = eval_ground(a, call_env, on_call=on_call)
                inner_args.append(self._coerce_arg(v))
            return self._call(node.func, tuple(inner_args), depth + 1)

        try:
            for case in f.cases:
                if eval_bool(case.guard, env):
                    value = eval_ground(case.body, env, on_call=on_call)
                    self.memo[key] = value
                    return value
        except RecursionError:
            raise BudgetExceeded("depth") from None
        except (EvalError, NoMatchingCase) as exc:
            self.memo[key] = exc
            raise
        err = NoMatchingCase(f"{func}{args}")
        self.memo[key] = err
        raise err

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


def _run_deep(job):
    """Run `job` on a thread with a large stack so deep recursion only ever
    surfaces as BudgetExceeded, never as a hard interpreter crash."""
    result: list = [None]
    error: list = [None]

    def wrapper():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_RECURSION_LIMIT)
        try:
            result[0] = job()
        except BaseException as exc:  # re-raised on the caller's thread
            error[0] = exc
        finally:
            sys.setrecursionlimit(old)

    old_size = threading.stack_size(_STACK_BYTES)
    try:
        t = threading.Thread(target=wrapper, daemon=True)
        t.start()
    finally:
        threading.stack_size(old_size)
    t.join()
    if error[0] is not None:
        raise error[0]
    return result[0]
