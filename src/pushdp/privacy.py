"""Noise-intensity and learning-rate schedules, plus per-node noise calibration.

The injected noise at iteration t is alpha(T - t) * sigma, so the multiplier
decays over the run while alpha itself is non-decreasing.  The learning-rate
coefficient beta is piecewise: alpha(t) * alpha(T - t) up to the switch point
Xi*T, alpha(t)^2 afterwards; the step size is eta / beta(t).

Calibration picks the base scale sigma that exhausts a node's (epsilon,
delta) budget over the whole schedule; the moment-generating-function bound
provides the independent accountant-side check of that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import CalibrationError, ConfigurationError


@dataclass(frozen=True)
class NoiseSchedule:
    """Noise-intensity multiplier alpha over a horizon of T iterations.

    form "power":    alpha(t) = sqrt(K) * t^s, with alpha(0) defined as
                     alpha(1) so inverse-square sums stay finite.
    form "stepwise": alpha(t) = a1 * (floor(t / tau) + a2)^s, constant on
                     intervals of length tau.

    s >= 0 gives the non-decreasing multiplier the calibration formula
    expects; negative s is accepted to reproduce decreasing-form sums.
    """

    form: str
    T: int
    s: float
    tau: int = 1
    K: float = 1.0
    a1: float = 1.0
    a2: float = 10.0

    def __post_init__(self):
        if self.form not in ("power", "stepwise"):
            raise ConfigurationError(f"noise.form: unknown form {self.form!r}")
        if self.T < 1:
            raise ConfigurationError(f"noise.T: must be >= 1, got {self.T}")
        if self.tau < 1:
            raise ConfigurationError(f"noise.tau: must be >= 1, got {self.tau}")
        if self.form == "power" and self.K <= 0:
            raise ConfigurationError(f"noise.K: must be > 0, got {self.K}")
        if self.form == "stepwise" and (self.a1 <= 0 or self.a2 <= 0):
            raise ConfigurationError("noise.a1, noise.a2: stepwise form needs a1 > 0 and a2 > 0")


@dataclass(frozen=True)
class LrSchedule:
    """Base step size eta and the switch fraction Xi of the beta coefficient.

    p and K record the exponent and constant when eta was derived as
    K*sqrt(n)/T^p; they are informational here and consumed by the theory
    calculators.
    """

    eta: float
    xi: float = 0.5
    p: Optional[float] = None
    K: Optional[float] = None

    def __post_init__(self):
        if self.eta <= 0:
            raise ConfigurationError(f"lr.eta: must be > 0, got {self.eta}")
        if not (0.0 < self.xi < 1.0):
            raise ConfigurationError(f"lr.xi: must lie in (0,1), got {self.xi}")


def eta_from_exponent(K: float, n: int, T: int, p: float) -> float:
    """Resolve eta = K * sqrt(n) / T^p."""
    return float(K * np.sqrt(n) / float(T) ** p)


def alpha_at(schedule: NoiseSchedule, t: int) -> float:
    """alpha at iteration t.

    Accepts t in [0, T]: the closed end is needed because the injected
    multiplier at iteration 0 is alpha(T).
    """
    if not (0 <= t <= schedule.T):
        raise IndexError(f"t={t} outside [0, {schedule.T}]")
    if schedule.form == "power":
        base = max(t, 1)  # alpha(0) := alpha(1)
        return np.sqrt(schedule.K) * float(base) ** schedule.s
    return schedule.a1 * float(t // schedule.tau + schedule.a2) ** schedule.s


def starts_interval(schedule: NoiseSchedule, t: int) -> bool:
    """Whether iteration t starts a noise-constant interval: t == 0, or the
    injected multiplier alpha(T - t) differs from the previous iteration's
    alpha(T - t + 1).  Exact float comparison is safe: alpha values come from
    integer floor division, so equal intervals give bit-identical values."""
    T = schedule.T
    return t == 0 or alpha_at(schedule, T - t + 1) != alpha_at(schedule, T - t)


def beta_at(schedule: NoiseSchedule, lr: LrSchedule, t: int) -> float:
    """Piecewise learning-rate coefficient beta(t)."""
    if not (0 <= t < schedule.T):
        raise IndexError(f"t={t} outside [0, {schedule.T})")
    a_t = alpha_at(schedule, t)
    if t <= lr.xi * schedule.T:
        return a_t * alpha_at(schedule, schedule.T - t)
    return a_t * a_t


@lru_cache(maxsize=256)
def inverse_square_sum(schedule: NoiseSchedule) -> float:
    """Sum of 1/alpha(t)^2 over t = 0..T-1 (the calibration sum)."""
    return float(sum(1.0 / alpha_at(schedule, t) ** 2 for t in range(schedule.T)))


def beta_sum_dominance(schedule: NoiseSchedule, lr: LrSchedule) -> Tuple[float, float]:
    """Return (sum of 1/beta(t), sum of 1/alpha(t)^2) over the horizon.

    The first never exceeds the second for non-decreasing alpha; callers
    assert lhs <= rhs.
    """
    lhs = float(sum(1.0 / beta_at(schedule, lr, t) for t in range(schedule.T)))
    return lhs, inverse_square_sum(schedule)


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-node privacy budget.

    sampling_ratio is the per-sample inclusion probability of the node's
    batch draw.  c1 and c2 are the accountant constants; they have no
    canonical values, so both default to 1 and stay configurable.
    """

    epsilon: float
    delta: float
    sampling_ratio: float
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigurationError(f"privacy.epsilon: must be > 0, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise ConfigurationError(f"privacy.delta: must lie in (0,1), got {self.delta}")
        if not (0.0 < self.sampling_ratio <= 1.0):
            raise ConfigurationError(
                f"privacy.sampling_ratio: must lie in (0,1], got {self.sampling_ratio}"
            )
        if self.c1 <= 0 or self.c2 <= 0:
            raise ConfigurationError("privacy.c1, privacy.c2: must be > 0")


def calibrate_sigma(budget: PrivacyBudget, G: float, schedule: NoiseSchedule) -> float:
    """Base noise scale exhausting (epsilon, delta) over the whole schedule.

    sigma = G * c2 * varsigma * sqrt(ln(1/delta)) / epsilon
            * sqrt(sum_t 1/alpha(t)^2)

    Requires the regime condition epsilon < c1 * varsigma^2 * T.
    """
    if G <= 0:
        raise ValueError(f"clip threshold must be > 0, got {G}")
    limit = budget.c1 * budget.sampling_ratio**2 * schedule.T
    if not (budget.epsilon < limit):
        raise CalibrationError(
            f"epsilon={budget.epsilon:.6g} violates epsilon < c1*varsigma^2*T "
            f"= {limit:.6g}; raise c1, the sampling ratio, or T"
        )
    return float(
        G
        * budget.c2
        * budget.sampling_ratio
        * np.sqrt(np.log(1.0 / budget.delta))
        / budget.epsilon
        * np.sqrt(inverse_square_sum(schedule))
    )


def moments_bound(order: float, budget: PrivacyBudget, z: float, schedule: NoiseSchedule) -> float:
    """Log-MGF bound of the privacy loss at a given order.

    order*(order+1) * varsigma^2 / (2*z^2) * sum_t 1/alpha(t)^2, where
    z = sigma / G is the sensitivity-normalized noise multiplier.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if z == 0:
        raise CalibrationError("moments bound undefined for z = 0")
    return (
        order
        * (order + 1)
        * budget.sampling_ratio**2
        / (2.0 * z**2)
        * inverse_square_sum(schedule)
    )


DEFAULT_ORDERS = tuple(range(1, 65))


def delta_bound(budget: PrivacyBudget, z: float, schedule: NoiseSchedule) -> float:
    """Smallest delta certified at the budget's epsilon: min over
    DEFAULT_ORDERS of exp(moments_bound(order) - order * epsilon)."""
    # exp is monotone: exponentiate the smallest log to avoid overflow
    best = min(moments_bound(lam, budget, z, schedule) - lam * budget.epsilon
               for lam in DEFAULT_ORDERS)
    return float(np.exp(min(best, 700.0)))


def epsilon_spent(budget: PrivacyBudget, z: float, schedule: NoiseSchedule) -> float:
    """Smallest epsilon certified at the budget's delta: min over
    DEFAULT_ORDERS of (moments_bound(order) + ln(1/delta)) / order."""
    return min(
        float((moments_bound(lam, budget, z, schedule) + np.log(1.0 / budget.delta)) / lam)
        for lam in DEFAULT_ORDERS
    )
