"""Gradient pipeline, one row per node: clipping, Gaussian perturbation,
and progressive fusion of noisy gradients within noise-constant intervals.

Fusion blends the current noisy clipped gradient with the previous fused one,
g_fused = (1 - theta) * g_noisy + theta * g_prev, but only while the injected
noise multiplier is unchanged; the first step of every interval passes
through.  The closed-form factor h(theta, tau) gives the residual fraction of
noise variance after a full interval of fusion, and doubles as the
coefficient of the staleness cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError

# Interval lengths quoted alongside the threshold rule in the original
# experiments, for theta in {0.3, 0.5, 0.7}.  They disagree with the strict
# scan below (which yields 3/5/8); both are always reported side by side.
REPORTED_TAU = {0.3: 12, 0.5: 6, 0.7: 4}


@dataclass(frozen=True)
class ClipConfig:
    """Initial clip threshold and its per-iteration geometric decay."""

    g0: float
    psi: float = 1.0

    def __post_init__(self):
        if not 0 < self.g0 < np.inf:
            raise ConfigurationError(f"clip.g0: must be finite and > 0, got {self.g0}")
        if not (0.0 < self.psi <= 1.0):
            raise ConfigurationError(f"clip.psi: must lie in (0,1], got {self.psi}")


@dataclass(frozen=True)
class FusionConfig:
    """Fusion weight theta.  Fusion runs over the noise schedule's intervals
    of length noise.tau, so that it resets exactly when the injected
    multiplier steps."""

    theta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.theta < 1.0):
            raise ConfigurationError(f"fusion.theta: must lie in [0,1), got {self.theta}")


def clip(g: np.ndarray, G: float) -> Tuple[np.ndarray, np.ndarray]:
    """Scale every row of the (m, d) array g onto the ball of radius G and
    record the removed mass.

    A row's scaling factor is G / fmax(||row||, G), min(1, G/||row||) in one
    divide (1 at a NaN norm), and its residual_sq is ||(1 - factor) * row||^2,
    0 whenever the row is not clipped.  Returns (clipped, residual_sq), of
    shapes (m, d) and (m,).  The norms are sqrt(np.vecdot(g, g)) over
    C-contiguous rows: vecdot then runs each row through the BLAS dot of its
    1-D np.linalg.norm, so the result is bit-identical to clipping the rows
    one at a time.  Strided rows (whose vecdot path differs in the last bits)
    are copied to C order first.
    """
    if not 0 < G < np.inf:  # G / G is 1 only for finite G
        raise ValueError(f"clip threshold must be finite and > 0, got {G}")
    g = np.asarray(g, dtype=float, order="C")
    if g.ndim != 2:
        raise ValueError(f"clip expects an (m, d) array of rows, got shape {g.shape}")
    norms = np.sqrt(np.vecdot(g, g))
    factor = G / np.fmax(norms, G)
    return factor[:, None] * g, ((1.0 - factor) * norms) ** 2


def decay_threshold(config: ClipConfig, current: float) -> float:
    """One geometric decay step of the clip threshold."""
    if current <= 0:
        raise ValueError(f"threshold must stay > 0, got {current}")
    return config.psi * current


def perturb(clipped: np.ndarray, multiplier: float, noise: np.ndarray) -> np.ndarray:
    """Add multiplier-scaled Gaussian noise to clipped gradients.

    noise holds the N(0, sigma^2 I) draws, shaped like clipped; a node with
    sigma = 0 draws nothing and has a zero row.
    """
    if multiplier <= 0:
        raise ValueError(f"multiplier must be > 0, got {multiplier}")
    return clipped + multiplier * noise


def fuse(noisy: np.ndarray, prev: Optional[np.ndarray], theta: float) -> np.ndarray:
    """One fusion step: (1 - theta) * noisy + theta * prev.

    prev is the previous fused gradient, or None at the first step of a
    noise-constant interval, where the noisy gradient passes through
    (returned as given).  The caller decides where intervals start
    (privacy.starts_interval).
    """
    if prev is None:
        return noisy
    return (1.0 - theta) * noisy + theta * prev


def noise_factor(theta: float, tau: int) -> float:
    """Residual noise-variance fraction after a tau-length fusion interval:

        h = (1 - theta)/(1 + theta) + 2 * theta^(2*tau - 1)/(1 + theta)

    h = 1 when theta = 0 or tau = 1 (no effective fusion), and decreases
    toward (1 - theta)/(1 + theta) as tau grows.
    """
    if not (0.0 <= theta < 1.0):
        raise ValueError(f"theta must lie in [0,1), got {theta}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    return (1.0 - theta) / (1.0 + theta) + 2.0 * theta ** (2 * tau - 1) / (1.0 + theta)


def staleness_bound(theta: float, tau: int, d_tau: float) -> float:
    """Cap on the expected squared staleness deviation: h(theta, tau) * d_tau,
    where d_tau bounds the squared gradient drift inside one interval."""
    if d_tau < 0:
        raise ValueError(f"d_tau must be >= 0, got {d_tau}")
    return noise_factor(theta, tau) * d_tau


def select_tau(theta: float, tol: float = 0.01) -> int:
    """Smallest interval tau with h within tol of its floor (1-theta)/(1+theta),
    i.e. the first tau with 2*theta^(2*tau-1)/(1+theta) < tol, by ascending scan."""
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not (0.0 <= theta < 1.0):
        raise ValueError(f"theta must lie in [0,1), got {theta}")
    if theta == 0.0:
        return 1
    for tau in range(1, 1_000_001):
        if 2.0 * theta ** (2 * tau - 1) / (1.0 + theta) < tol:
            return tau
    raise ValueError(f"no tau <= 1000000 meets tol={tol} at theta={theta}")
