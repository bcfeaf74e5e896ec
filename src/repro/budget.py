"""Cooperative step/wall-clock budgets for the exact solvers.

The NP-hard baselines (:mod:`repro.coalescing.exact`,
:mod:`repro.reductions.sat`) explore exponential search trees; one hard
instance can stall an entire experiment sweep.  A :class:`Budget` lets
a caller bound such a search *cooperatively*: the solver calls
:meth:`Budget.check` inside its search loop and a typed
:exc:`BudgetExceeded` is raised the moment the step count or the
wall-clock deadline is spent.  Because the exception is raised by the
solver's own thread, the process stays healthy — no signals, no
threads, no killed workers — which is exactly what the
:mod:`repro.engine` worker pool needs for in-process timeouts (its
wall-clock *task* timeout, which does terminate the worker process, is
the uncooperative fallback).

``BudgetExceeded`` subclasses ``RuntimeError`` so existing callers that
already guard exact solvers with ``except RuntimeError`` keep working.

Usage::

    from repro.budget import Budget, BudgetExceeded

    budget = Budget(max_steps=100_000, max_seconds=2.0)
    try:
        result = optimal_coalescing(g, k, budget=budget)
    except BudgetExceeded as exc:
        ...  # exc.reason is "steps" or "deadline"
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["Budget", "BudgetExceeded"]

#: How many :meth:`Budget.check` steps pass between wall-clock reads.
#: Reading the clock costs far more than the step bookkeeping, so the
#: deadline is only polled every ``_CLOCK_MASK + 1`` steps.
_CLOCK_MASK = 0xFF


class BudgetExceeded(RuntimeError):
    """A cooperative budget ran out inside a solver's search loop.

    ``reason`` is ``"steps"`` or ``"deadline"``; ``steps`` and
    ``elapsed`` record how far the search got.
    """

    def __init__(self, reason: str, steps: int, elapsed: float) -> None:
        super().__init__(
            f"budget exceeded ({reason}) after {steps} steps, "
            f"{elapsed:.3f}s"
        )
        self.reason = reason
        self.steps = steps
        self.elapsed = elapsed


class Budget:
    """A step-count and/or wall-clock limit checked cooperatively.

    Either limit may be ``None`` (unlimited).  ``check()`` is designed
    to sit inside hot search loops: it adds to a counter, compares it
    against ``max_steps``, and reads the clock only once every
    ``_CLOCK_MASK + 1`` steps.  ``check(n)`` charges ``n`` steps at once,
    for loops that account whole rows or batches.
    """

    __slots__ = ("max_steps", "max_seconds", "steps", "_t0", "_deadline")

    def __init__(
        self,
        max_steps: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> None:
        if max_steps is not None and max_steps <= 0:
            raise ValueError("max_steps must be positive (or None)")
        if max_seconds is not None and max_seconds <= 0:
            raise ValueError("max_seconds must be positive (or None)")
        self.max_steps = max_steps
        self.max_seconds = max_seconds
        self.steps = 0
        self._t0 = time.monotonic()
        self._deadline = (
            None if max_seconds is None else self._t0 + max_seconds
        )

    @classmethod
    def from_deadline(
        cls,
        seconds: float,
        max_steps: Optional[int] = None,
    ) -> "Budget":
        """A budget expressed as a wall-clock deadline.

        ``seconds`` is how much wall time remains from *now* — the shape
        a serving layer hands down (``deadline`` minus queueing delay),
        as opposed to the raw step counts the solvers meter internally.
        An extra ``max_steps`` cap may be combined with it; a deadline
        that is already spent (``seconds <= 0``) is rejected here so the
        caller can turn it into an explicit timeout response instead of
        dispatching doomed work.
        """
        if seconds is None or seconds <= 0:
            raise ValueError(
                f"deadline must have time remaining, got {seconds!r}"
            )
        return cls(max_steps=max_steps, max_seconds=seconds)

    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return time.monotonic() - self._t0

    def check(self, steps: int = 1) -> None:
        """Account ``steps`` search steps; raise :exc:`BudgetExceeded`
        if spent.

        A bulk charge raises exactly when the same number of single
        checks would have, and polls the deadline whenever it crosses a
        multiple of ``_CLOCK_MASK + 1``, not only when it lands on one.
        """
        before = self.steps
        self.steps = after = before + steps
        if self.max_steps is not None and after > self.max_steps:
            raise BudgetExceeded("steps", after, self.elapsed())
        if (
            self._deadline is not None
            and (before | _CLOCK_MASK) < after
            and time.monotonic() > self._deadline
        ):
            raise BudgetExceeded("deadline", after, self.elapsed())

    def exhausted(self) -> bool:
        """True iff a limit is already over (without raising)."""
        if self.max_steps is not None and self.steps >= self.max_steps:
            return True
        if self._deadline is not None and time.monotonic() > self._deadline:
            return True
        return False
