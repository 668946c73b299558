"""Circuit breaker shedding BULK work under repeated faults.

When waves keep hitting faults, continuing to admit heavy analytical
work makes every failure mode worse: BULK queries hold the session for
many super-iterations, widening the window for the next fault and
starving the INTERACTIVE traffic the service exists to protect.  The
:class:`CircuitBreaker` counts consecutive faulty waves; once
:attr:`~CircuitBreaker.THRESHOLD` (3) is reached it *opens* and the
:class:`~repro.service.GraphService` sheds queued BULK requests (typed
``QueryFailed``, never silently dropped) while still serving the
cheaper classes.  After :attr:`~CircuitBreaker.COOLDOWN` (1) clean
wave the breaker closes again and BULK admission resumes.
"""

from __future__ import annotations

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Consecutive-faulty-wave breaker (open = shed BULK work)."""

    #: Consecutive faulty waves before the breaker opens.
    THRESHOLD = 3
    #: Consecutive clean waves before an open breaker closes again.
    COOLDOWN = 1

    def __init__(self):
        self._faulty_streak = 0
        self._clean_streak = 0
        self._open = False
        #: How many times the breaker tripped (monotonic).
        self.trips = 0

    @property
    def open(self) -> bool:
        """Whether BULK work is currently shed."""
        return self._open

    def record(self, faults: int) -> None:
        """Fold one served wave's injected-fault count into the state."""
        if faults > 0:
            self._clean_streak = 0
            self._faulty_streak += 1
            if not self._open and self._faulty_streak >= self.THRESHOLD:
                self._open = True
                self.trips += 1
        else:
            self._faulty_streak = 0
            if self._open:
                self._clean_streak += 1
                if self._clean_streak >= self.COOLDOWN:
                    self._open = False
                    self._clean_streak = 0

    def reset(self) -> None:
        """Back to closed with no history."""
        self._faulty_streak = 0
        self._clean_streak = 0
        self._open = False
