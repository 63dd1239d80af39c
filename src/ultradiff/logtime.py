"""Time window on a logarithmic clock.

Every operator in this package integrates against kernels of the form
``(log t/s)^{p}``; the natural variable is the log-time increment
``tau = log(t/s)``.  The window type centralizes the bookkeeping between
physical times ``t in [a, b]`` and log-time offsets measured from the start,
``tau = log(t/a)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogTimeWindow:
    """Physical time window [a, b] with 0 < a < b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"window start must be a positive finite time, got a={self.a}")
        if not (self.b > self.a and math.isfinite(self.b)):
            raise ValueError(f"window end must exceed the start, got a={self.a}, b={self.b}")

    @property
    def length(self) -> float:
        """Log-length L = log(b/a)."""
        return math.log(self.b / self.a)

    def require_inside(self, t, *, open_start: bool = False) -> None:
        """Refuse a time, or any of an array of times, outside the window."""
        t = np.asarray(t, dtype=float)
        lo_ok = np.all(t > self.a if open_start else t >= self.a)
        if not (lo_ok and np.all(t <= self.b) and np.all(np.isfinite(t))):
            lo = "(" if open_start else "["
            raise ValueError(
                f"t={t} outside the admissible window {lo}{self.a}, {self.b}]")

    # -- conversions between the physical clock and the log clock ----------

    def tau_from_start(self, t):
        """log(t/a); 0 at the initial time."""
        return np.log(np.asarray(t) / self.a)
