"""Round-synchronous push-sum state machine.

Each node carries a parameter vector x, a positive scalar weight w, and the
debiased vector z = x / w; the n nodes are held as the rows of X (n, d),
w (n,) and Z = X / w.  A round is a local half-step X <- X - step * F with
the fused gradients F on every node, followed by simultaneous mixing of x and w through the
column-stochastic matrix of the current graph.  Column-stochasticity
conserves the totals of x and w, so z converges to the running network
average even though individual columns are not doubly stochastic.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import NumericalBreakdownError
from .topology import PropagationParams


def sq_deviations(Z: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    """||z_i - xbar||^2 of every debiased row of Z."""
    return np.add.reduce((Z - xbar) ** 2, axis=-1)  # np.sum's arithmetic, without its dispatch


def mix_round(
    X: np.ndarray, w: np.ndarray, P: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mix all nodes through P at a barrier: x <- P x, w <- P w, z = x / w.

    X is the (n, d) stack of node parameters and w the (n,) weights; returns
    the new (X, w, Z).  Summations run in fixed node order (matrix
    products), so the result is independent of any node evaluation order.
    """
    n = len(w)
    if P.shape != (n, n):
        raise ValueError(f"mixing matrix shape {P.shape} does not match {n} nodes")
    X = P @ X
    w = P @ w
    if w.min() <= 0:  # impossible for non-negative P with positive w
        bad = int(np.argmin(w))
        raise NumericalBreakdownError(f"node {bad}: push-sum weight {w[bad]} <= 0")
    return X, w, X / w[:, None]


def deviation_bound_eval(
    node: int,
    t: int,
    params: PropagationParams,
    eta_t: float,
    fused_norms: np.ndarray,
    x0_norm: float,
) -> float:
    """Upper bound on ||z_node(t) - xbar(t)||:

        C * q^t * ||x0|| + eta(t) * C * sum_{s=0..t} q^(t-s) * ||g_fused(s)||

    evaluated with c_bound standing in for C, from the (T, n) array of fused
    gradient norms per (round, node) and the norm of the shared start x0; a
    diagnostics-only upper-bound evaluator, never fed back into the
    algorithm.
    """
    if t >= len(fused_norms):
        raise ValueError(f"fused norms cover {len(fused_norms)} rounds, asked for t={t}")
    C, q = params.c_bound, params.q
    tail = float(q ** np.arange(t, -1, -1) @ fused_norms[: t + 1, node])
    return C * q**t * x0_norm + eta_t * C * tail
