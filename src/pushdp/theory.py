"""Closed-form theory calculators: iteration floor, convergence-bound terms,
regime-dependent refinements, and the optimal learning-rate exponent.

Everything here is an upper-bound evaluator built from the propagation
constants (lambda, q, C), so outputs are sound but deliberately loose; they
are never fed back into the algorithm.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import OutOfRegimeError
from .models import (
    Batch, Dataset, LogisticModel, MlpModel, Model, NodeRows, QuadraticModel, row_pass,
)
from .privacy import LrSchedule, NoiseSchedule, PrivacyBudget, alpha_at, beta_at, inverse_square_sum
from .pushsum import sq_deviations

# The optimal-exponent relation is implemented as p = 1/2 - 2*s, the only
# form consistent with both the schedule condition s = 1/4 - p/2 and the
# quoted optima (0.1, 0, -0.1 at s = 0.2, 0.25, 0.3); the source text also
# prints p = -1/2 - 2*s once, which contradicts both and is treated as an
# erratum.
OPTIMAL_P_ERRATUM = {
    "implemented": "p = 1/2 - 2s",
    "also_printed": "p = -1/2 - 2s",
    "reason": "only p = 1/2 - 2s matches s = 1/4 - p/2 and the quoted optima (0.1, 0, -0.1)",
}


def optimal_p(s: float) -> float:
    """Learning-rate exponent paired with noise-decay exponent s."""
    if not (0.0 < s < 0.5):
        raise OutOfRegimeError(f"s must lie in (0, 1/2), got {s}")
    return 0.5 - 2.0 * s


@dataclass
class TheoryParams:
    """Constants feeding the bound evaluators.

    L is the gradient Lipschitz constant, (a, m) the gradient-heterogeneity
    and sample-variance constants, (q, C) the propagation constants,
    F0 = f(x0) - f*, d the parameter dimension, x0_norm = ||x0||.  The
    defaults (unit L, C and d, every other constant zero) are those of the
    standalone `calc` flags.
    """

    L: float = 1.0
    a: float = 0.0
    m: float = 0.0
    C: float = 1.0
    q: float = 0.0
    F0: float = 0.0
    d: int = 1
    x0_norm: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.q < 1.0):
            raise OutOfRegimeError(f"q must lie in [0,1), got {self.q}")
        for name in ("L", "a", "m", "C", "F0"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def A2(self, n: int) -> float:
        """A2 = 6 C^2 (n + 9L) / (1 - q)^2, of the bound's noise term and of nu."""
        return 6 * self.C**2 * (n + 9 * self.L) / (1.0 - self.q) ** 2


@dataclass(frozen=True)
class IterationFloor:
    terms: dict
    floor: float  # ceil of the max term; inf when the network is degenerate


def _power(base: float, exponent: float) -> float:
    if base <= 0:
        return 0.0
    try:
        return float(base**exponent)
    except OverflowError:
        return math.inf


def min_iterations(theory: TheoryParams, n: int, p: float, K: float) -> IterationFloor:
    """Iteration floor: the max of the six admissibility terms.

    Returns the individual terms for audit.  q -> 1 drives the propagation
    term (and the floor) to infinity.
    """
    if p <= -0.5:
        raise OutOfRegimeError(f"p must be > -1/2, got {p}")
    L, C, q = theory.L, theory.C, theory.q
    e1 = 2.0 / (1.0 + 2.0 * p)
    e2 = 4.0 / (3.0 - 2.0 * p)
    one_minus_q2 = 1.0 - q * q
    terms = {
        "4nL^2": 4.0 * n * L**2,
        "(162nC^2L^2/(1-q^2))^(2/(1+2p))": (
            math.inf if one_minus_q2 <= 0 else _power(162.0 * n * C**2 * L**2 / one_minus_q2, e1)
        ),
        "(nL^2)^(2/(1+2p))": _power(n * L**2, e1),
        "n^(2/(1+2p))": _power(float(n), e1),
        "(2K/(nL))^(2/(1+2p))": math.inf if L == 0 else _power(2.0 * K / (n * L), e1),
        "(9/sqrt(n))^(4/(3-2p))": _power(9.0 / math.sqrt(n), e2),
    }
    worst = max(terms.values())
    return IterationFloor(terms=terms, floor=math.inf if math.isinf(worst) else float(math.ceil(worst)))


def _node_noise_terms(budgets: Sequence[PrivacyBudget], G: float) -> list:
    """Per-node G^2 c2_i^2 varsigma_i^2 ln(1/delta_i) / epsilon_i^2."""
    return [
        G**2 * b.c2**2 * b.sampling_ratio**2 * np.log(1.0 / b.delta) / b.epsilon**2
        for b in budgets
    ]


def budget_noise_term(budgets: Sequence[PrivacyBudget], G: float) -> float:
    """(1/n) sum_i G^2 c2_i^2 varsigma_i^2 ln(1/delta_i) / epsilon_i^2."""
    return float(np.mean(_node_noise_terms(budgets, G)))


def noise_sum_M(
    schedule: NoiseSchedule,
    lr: LrSchedule,
    budgets: Sequence[PrivacyBudget],
    G: float,
    n: int,
) -> float:
    """The aggregate noise moment M:

        (eta^2 / n^2) * sum_i G^2 c2^2 varsigma_i^2 ln(1/delta_i)/epsilon_i^2
        * sum_t (alpha(T-t)/beta(t))^2 * sum_t 1/alpha(t)^2
    """
    s1 = sum(
        (alpha_at(schedule, schedule.T - t) / beta_at(schedule, lr, t)) ** 2
        for t in range(schedule.T)
    )
    s2 = inverse_square_sum(schedule)
    per_node = sum(_node_noise_terms(budgets, G))
    return float(lr.eta**2 / n**2 * per_node * s1 * s2)


@dataclass(frozen=True)
class BoundBreakdown:
    fixed_term: float
    noise_term: float
    bias_term: float
    total: float
    A1: float
    A2: float
    A3: float
    M: float
    h: float

    def as_dict(self) -> dict:
        return asdict(self)


def convergence_bound(
    theory: TheoryParams,
    n: int,
    schedule: NoiseSchedule,
    lr: LrSchedule,
    budgets: Sequence[PrivacyBudget],
    G: float,
    h: float,
    upsilon_total: float,
    rho_total: float,
) -> BoundBreakdown:
    """Evaluate the three-term bound on the time-averaged mean squared
    gradient norm at the end of a run of n nodes over schedule.T rounds.

    G is the clip threshold and h the fused-noise factor h(theta, tau).
    upsilon_total and rho_total are the measured clipping-residual and
    staleness totals.
    """
    q, C, L = theory.q, theory.C, theory.L
    if q >= 1.0:
        raise OutOfRegimeError(f"q must be < 1, got {q}")
    T = schedule.T
    one_minus_q_sq = (1.0 - q) ** 2
    A1 = (6 * C**2 * theory.x0_norm + 108 * C**2 * theory.F0 + 18 * C**2 * (theory.m**2 + 3 * theory.a**2)) / one_minus_q_sq
    A2 = theory.A2(n)
    A3 = 110 * C**2 / one_minus_q_sq
    M = noise_sum_M(schedule, lr, budgets, G, n)
    root = math.sqrt(n * T)
    fixed = (4 * theory.F0 + 5 * L * A1) / root
    noise = 4 * h * theory.d * L * (5 * A2 + 1) * M / root
    bias = (4 + 5 * L * A3) * (rho_total + upsilon_total) / root
    return BoundBreakdown(fixed_term=fixed, noise_term=noise, bias_term=bias,
                          total=fixed + noise + bias, A1=A1, A2=A2, A3=A3, M=M, h=h)


REGIME_LABELS = {
    "positive": "sqrt(T/n)",
    "zero": "(log T)^2 / sqrt(nT)",
    "negative": "1/(sqrt(n) T^(1/2+2p))",
}


@dataclass(frozen=True)
class RegimeResult:
    label: str
    value: float
    prefactor: float
    H: float
    nu: float
    budget_term: float


def schedule_sum_envelope(T: int, s: float, a1: float, a2: float, a3: float) -> float:
    """Integral envelope of the stepped schedule sum:

        a3 * a1^2 * (1 + integral_0^(T-1) dt / (t + a2)^(2s))

    evaluated in closed form (log form at 2s = 1).
    """
    if a2 <= 0 or a3 <= 0:
        raise ValueError("a2 and a3 must be > 0")
    if T < 1:
        raise ValueError("T must be >= 1")
    upper = T - 1 + a2
    if abs(2 * s - 1.0) < 1e-12:
        integral = math.log(upper / a2)
    else:
        integral = (upper ** (1 - 2 * s) - a2 ** (1 - 2 * s)) / (1 - 2 * s)
    return a3 * a1**2 * (1.0 + integral)


def corollary_regime(
    p: float,
    n: int,
    T: int,
    s: float,
    budgets: Sequence[PrivacyBudget],
    G: float,
    h: float,
    theory: TheoryParams,
    a1: float = 1.0,
    a2: float = 10.0,
    a3: float = 1.0,
) -> RegimeResult:
    """Regime label and the evaluated noise term of the refined bound.

    The envelope constant H normalizes the schedule sum by its own growth
    class in s (T^(1-2s) for s < 1/2, log T at s = 1/2, constant above);
    the prefactor in T comes from the sign of p.  nu = 16 h d L (3 A2 + 1).
    """
    if not (-0.5 < p < 0.5):
        raise OutOfRegimeError(f"p must lie in (-1/2, 1/2), got {p}")
    if not (0.0 < s < 1.0):
        raise OutOfRegimeError(f"s must lie in (0, 1), got {s}")
    S = schedule_sum_envelope(T, s, a1, a2, a3)
    if s < 0.5:
        H = S / T ** (1 - 2 * s)
    elif s == 0.5:
        if T < 2:
            raise OutOfRegimeError(f"s = 1/2 normalizes by log T, which needs T >= 2, got T = {T}")
        H = S / math.log(T)
    else:
        H = S
    nu = 16.0 * h * theory.d * theory.L * (3 * theory.A2(n) + 1)
    bt = budget_noise_term(budgets, G)
    if p > 0:
        label, prefactor = REGIME_LABELS["positive"], math.sqrt(T / n)
    elif p == 0:
        label, prefactor = REGIME_LABELS["zero"], math.log(T) ** 2 / math.sqrt(n * T)
    else:
        label, prefactor = REGIME_LABELS["negative"], 1.0 / (math.sqrt(n) * T ** (0.5 + 2 * p))
    return RegimeResult(
        label=label,
        value=prefactor * nu * H**2 * bt,
        prefactor=prefactor,
        H=H,
        nu=nu,
        budget_term=bt,
    )


# ------------------------------------------------- empirical estimation


# The constants of summary.theory.estimated that are exact or closed upper
# bounds, per model type; the others are maxima over probe points.
CERTIFIED = {QuadraticModel: ("L", "a", "m", "F0"), LogisticModel: ("L", "F0"),
             MlpModel: ("F0",)}


def estimate_theory_params(
    model: Model, dataset: Dataset, batch: Batch, layout: NodeRows, x0: np.ndarray, propagation,
    rng: np.random.Generator, n_probe: int = 8,
) -> TheoryParams:
    """Estimate (L, a, m, F0) on the generated problem.

    batch holds the training rows of dataset sorted by node, as `layout`
    describes (see `models.node_sorted`).  L is exact for the quadratic model
    (max eigenvalue of A) and a closed bound for logistic; otherwise an
    empirical ratio over probe pairs.  The heterogeneity constants a and m
    are brute-force maxima over x0 and n_probe points x0 + N(0, I), each
    probe one model pass over the sorted rows (exact for the quadratic
    model, whose deviations do not depend on x).  F0 = f(x0) - f* takes
    f(x0) from the pass at x0 and f* from the exact minimizer for the
    quadratic model; the other losses are >= 0, so f* = 0.
    """
    spans = list(zip(layout.starts.tolist(), (layout.starts + layout.counts).tolist()))
    probes = [x0] + [x0 + rng.normal(size=x0.shape) for _ in range(n_probe)]

    def global_grad(params):
        rows = row_pass(model, params, batch)
        per_node = np.array([rows.grad(slice(a, b)) for a, b in spans])
        return per_node.mean(axis=0), per_node, rows

    L = F0 = 0.0
    if isinstance(model, QuadraticModel):
        L = model.lipschitz()
        x_star = np.linalg.solve(model.A, model.b - batch[0].mean(axis=0))
        F0 = -row_pass(model, x_star, batch, grad=False).loss()  # the pass at x0 adds f(x0)
    elif isinstance(model, LogisticModel):
        # over the rows in dataset order: the sorted rows sum in another order
        # and move the bound in its last bits
        L = model.lipschitz_bound(dataset.features)

    a_sq = 0.0
    m_sq = 0.0
    for x in probes:
        g, per_node, rows = global_grad(x)
        if x is x0:
            F0 += rows.loss()
        a_sq = max(a_sq, float(sq_deviations(per_node, g).max()))
        dev = rows.dev_sq(g)
        del rows  # free its row pieces before the pass at x_near
        m_sq = max(m_sq, float(np.mean(np.maximum.reduceat(dev, layout.starts))))
        if isinstance(model, MlpModel):  # no closed L: a ratio over probe pairs
            x_near = x + 0.5 * rng.normal(size=x.shape)
            denom = np.linalg.norm(x - x_near)
            if denom > 0:
                L = max(L, float(np.linalg.norm(g - global_grad(x_near)[0]) / denom))

    return TheoryParams(
        L=float(L),
        a=float(np.sqrt(a_sq)),
        m=float(np.sqrt(m_sq)),
        C=propagation.c_bound,
        q=propagation.q,
        F0=max(float(F0), 0.0),
        d=int(np.size(x0)),
        x0_norm=float(np.linalg.norm(x0)),
    )
