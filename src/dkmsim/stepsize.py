"""Power-law stepsize schedules and their summability conditions.

The iteration needs alpha_k in (0, 1], nonincreasing, with a divergent sum
and a convergent coupled sum  sum_k alpha_k * alpha_{floor(k/2)}.  For the
power-law family alpha_k = alpha0 / (k + k0)^gamma these conditions are
decidable in closed form:

  (i)   alpha_k in (0, 1] for all k     iff  alpha0 <= k0^gamma
  (ii)  sum alpha_k diverges            iff  gamma <= 1
  (iii) coupled sum converges           iff  gamma > 1/2

so the family passes exactly when gamma lies in (1/2, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .validation import ValidationReport, Violation, failed, passed


@dataclass(frozen=True)
class PowerLawStepsize:
    """alpha_k = alpha0 / (k + k0)^gamma for k = 0, 1, 2, ...

    The constructor enforces only well-formedness (alpha0 > 0, gamma >= 0,
    integer k0 >= 1, and alpha_0 <= 1); the summability conditions are the
    checker's job, so schedules that fail them can still be built and
    reported on.
    """

    alpha0: float = 1.0
    gamma: float = 0.7
    k0: int = 1

    def __post_init__(self):
        if not np.isfinite(self.alpha0) or self.alpha0 <= 0:
            raise ParameterError(f"alpha0 must be positive and finite, got {self.alpha0}")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ParameterError(f"gamma must be nonnegative and finite, got {self.gamma}")
        if int(self.k0) != self.k0 or self.k0 < 1:
            raise ParameterError(f"k0 must be an integer >= 1, got {self.k0}")
        object.__setattr__(self, "k0", int(self.k0))
        first = self.alpha(0)
        if first > 1.0:
            raise ParameterError(
                f"alpha_0 = alpha0 / k0^gamma = {first:.6g} exceeds 1; shrink alpha0 or raise k0"
            )

    def alpha(self, k: int) -> float:
        if k < 0:
            raise ParameterError(f"round index must be nonnegative, got {k}")
        try:
            return self.alpha0 / (k + self.k0) ** self.gamma
        except OverflowError:
            raise ParameterError(
                f"alpha_{k} is out of float range: (k + k0)^gamma = {k + self.k0}^{self.gamma:g} overflows"
            ) from None

    def alpha_half(self, k: int) -> float:
        """alpha_{floor(k/2)}, the lag factor in the coupled sum and rate fits."""
        return self.alpha(k // 2)

    def alphas(self, upto: int) -> np.ndarray:
        """Vector of alpha_0 .. alpha_{upto-1}, bit-identical to alpha(k)."""
        return np.array([self.alpha(k) for k in range(upto)])


def check_stepsize_conditions(schedule: PowerLawStepsize) -> ValidationReport:
    """Closed-form verdict on conditions (i)-(iii); (i) holds as PowerLawStepsize refuses alpha_0 > 1."""
    violations = []
    if schedule.gamma > 1.0:
        violations.append(
            Violation(
                "condition (ii)",
                f"sum of alpha_k converges for gamma = {schedule.gamma:g} > 1, but it must diverge",
            )
        )
    if schedule.gamma <= 0.5:
        violations.append(
            Violation(
                "condition (iii)",
                f"coupled sum of alpha_k * alpha_(k//2) diverges for gamma = {schedule.gamma:g} <= 1/2,"
                " but it must converge",
            )
        )
    name = "stepsize: summability conditions"
    if violations:
        return failed(name, violations, f"gamma = {schedule.gamma:g}")
    return passed(
        name,
        f"alpha_k = {schedule.alpha0:g}/(k + {schedule.k0})^{schedule.gamma:g} "
        "is in (0, 1], nonincreasing, divergent sum, convergent coupled sum",
    )
