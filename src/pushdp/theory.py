"""Closed-form theory calculators: iteration floor, convergence-bound terms,
regime-dependent refinements, and the optimal learning-rate exponent.

Everything here is an upper-bound evaluator built from the propagation
constants (lambda, q, C), so outputs are sound but deliberately loose; they
are never fed back into the algorithm.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Sequence

import numpy as np

from .errors import OutOfRegimeError
from .fusion import noise_factor
from .models import Dataset, Model, QuadraticModel, LogisticModel, loss_and_grad
from .privacy import LrSchedule, NoiseSchedule, PrivacyBudget, alpha_at, beta_at, inverse_square_sum

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
    F0 = f(x0) - f*, d the parameter dimension, x0_norm = ||x0||.
    """

    L: float
    a: float
    m: float
    C: float
    q: float
    F0: float
    d: int
    x0_norm: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.q < 1.0):
            raise OutOfRegimeError(f"q must lie in [0,1), got {self.q}")
        for name in ("L", "a", "m", "C", "F0"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


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
    return float(lr.eta_base**2 / n**2 * per_node * s1 * s2)


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
    config,
    upsilon_total: float,
    rho_total: float,
) -> BoundBreakdown:
    """Evaluate the three-term bound on the time-averaged mean squared
    gradient norm at the end of a run.

    config supplies n, the schedules, budgets, clip threshold, and fusion
    parameters (any object with those attributes works, the engine passes
    its ExperimentConfig).  upsilon_total and rho_total are the measured
    clipping-residual and staleness totals.
    """
    q, C, L = theory.q, theory.C, theory.L
    if q >= 1.0:
        raise OutOfRegimeError(f"q must be < 1, got {q}")
    n, T = config.n, config.noise.T
    one_minus_q_sq = (1.0 - q) ** 2
    A1 = (6 * C**2 * theory.x0_norm + 108 * C**2 * theory.F0 + 18 * C**2 * (theory.m**2 + 3 * theory.a**2)) / one_minus_q_sq
    A2 = 6 * C**2 * (n + 9 * L) / one_minus_q_sq
    A3 = 110 * C**2 / one_minus_q_sq
    h = noise_factor(config.fusion.theta, config.fusion.tau)
    M = noise_sum_M(config.noise, config.lr, config.budgets, config.clip.g0, n)
    root = math.sqrt(n * T)
    fixed = (4 * theory.F0 + 5 * L * A1) / root
    noise = 4 * h * theory.d * L * (5 * A2 + 1) * M / root
    bias = (4 + 5 * L * A3) * (rho_total + upsilon_total) / root
    return BoundBreakdown(
        fixed_term=fixed,
        noise_term=noise,
        bias_term=bias,
        total=fixed + noise + bias,
        A1=A1,
        A2=A2,
        A3=A3,
        M=M,
        h=h,
    )


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
        H = S / math.log(T)
    else:
        H = S
    A2_const = 6 * theory.C**2 * (n + 9 * theory.L) / (1.0 - theory.q) ** 2
    nu = 16.0 * h * theory.d * theory.L * (3 * A2_const + 1)
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


def _node_grad(model: Model, params: np.ndarray, dataset: Dataset, idx: np.ndarray):
    return loss_and_grad(model, params, (dataset.features[idx], dataset.labels[idx]))[1]


def estimate_theory_params(
    model: Model,
    dataset: Dataset,
    node_indices: List[np.ndarray],
    x0: np.ndarray,
    propagation,
    rng: np.random.Generator,
    n_probe: int = 8,
    radius: float = 1.0,
    f_star_steps: int = 400,
) -> TheoryParams:
    """Estimate (L, a, m, F0) on the generated problem.

    L is exact for the quadratic model (max eigenvalue of A) and a closed
    bound for logistic; otherwise an empirical ratio over probe pairs.  The
    heterogeneity constants a and m are brute-force maxima over probe points
    near x0.  f* comes from the exact minimizer when available, else from a
    long noiseless full-batch descent.
    """
    occupied = [idx for idx in node_indices if len(idx)]
    probes = [x0] + [x0 + radius * rng.normal(size=x0.shape) for _ in range(n_probe)]

    def global_grad(params):
        gs = [_node_grad(model, params, dataset, idx) for idx in occupied]
        return np.mean(gs, axis=0), gs

    if isinstance(model, QuadraticModel):
        L = model.lipschitz()
    elif isinstance(model, LogisticModel):
        L = model.lipschitz_bound(dataset.features)
    else:
        L = 0.0
        for x in probes:
            y = x + 0.5 * radius * rng.normal(size=x.shape)
            gx, _ = global_grad(x)
            gy, _ = global_grad(y)
            denom = np.linalg.norm(x - y)
            if denom > 0:
                L = max(L, float(np.linalg.norm(gx - gy) / denom))

    a_sq = 0.0
    m_sq = 0.0
    for x in probes:
        g, per_node = global_grad(x)
        a_sq = max(a_sq, max(float(np.sum((gi - g) ** 2)) for gi in per_node))
        worst = []
        for idx in occupied:
            per_sample = [
                float(np.sum((_node_grad(model, x, dataset, np.array([j])) - g) ** 2))
                for j in idx
            ]
            worst.append(max(per_sample))
        m_sq = max(m_sq, float(np.mean(worst)))

    all_idx = np.concatenate(occupied)
    f0 = loss_and_grad(model, x0, (dataset.features[all_idx], dataset.labels[all_idx]))[0]
    if isinstance(model, QuadraticModel):
        c_bar = dataset.features[all_idx].mean(axis=0)
        x_star = np.linalg.solve(model.A, model.b - c_bar)
        f_star = model.loss_and_grad(x_star, dataset.features[all_idx], None)[0]
    else:
        params = x0.copy()
        step = 1.0 / max(L, 1e-9)
        f_star = f0
        for _ in range(f_star_steps):
            loss, g = loss_and_grad(
                model, params, (dataset.features[all_idx], dataset.labels[all_idx])
            )
            f_star = min(f_star, loss)
            params = params - step * g
        f_star = min(
            f_star,
            loss_and_grad(model, params, (dataset.features[all_idx], dataset.labels[all_idx]))[0],
        )

    return TheoryParams(
        L=float(L),
        a=float(np.sqrt(a_sq)),
        m=float(np.sqrt(m_sq)),
        C=propagation.c_bound,
        q=propagation.q,
        F0=max(float(f0 - f_star), 0.0),
        d=int(np.size(x0)),
        x0_norm=float(np.linalg.norm(x0)),
    )
