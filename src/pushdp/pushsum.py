"""Round-synchronous push-sum state machine.

Each node carries a parameter vector x, a positive scalar weight w, and the
debiased vector z = x / w.  A round is a local half-step x <- x - step * g on
every node, followed by simultaneous mixing of x and w through the
column-stochastic matrix of the current graph.  Column-stochasticity
conserves the totals of x and w, so z converges to the running network
average even though individual columns are not doubly stochastic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .errors import NumericalBreakdownError
from .topology import PropagationParams

MASS_RTOL = 1e-10


@dataclass
class NodeState:
    """Push-sum triple of one node."""

    node_id: int
    x: np.ndarray
    w: float = 1.0
    z: np.ndarray = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.w <= 0:
            raise NumericalBreakdownError(f"node {self.node_id}: weight {self.w} <= 0")
        if self.z is None:
            self.z = self.x / self.w
        else:
            self.z = np.asarray(self.z, dtype=float)


def initial_states(n: int, x0: np.ndarray) -> List[NodeState]:
    """All nodes start from the shared x0 with unit weight, so z = x = x0."""
    x0 = np.asarray(x0, dtype=float)
    return [NodeState(node_id=i, x=x0.copy(), w=1.0, z=x0.copy()) for i in range(n)]


def local_half_step(state: NodeState, fused: np.ndarray, step: float) -> NodeState:
    """Gradient half-step on one node: x <- x - step * fused.

    w and z are untouched until the mixing step; pure (returns a new state).
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    return NodeState(
        node_id=state.node_id,
        x=state.x - step * np.asarray(fused, dtype=float),
        w=state.w,
        z=state.z.copy(),
    )


def consensus_error(states: Sequence[NodeState]) -> float:
    """Mean squared deviation of the debiased vectors from the x-average."""
    X = np.stack([s.x for s in states])
    Z = np.stack([s.z for s in states])
    xbar = X.mean(axis=0)
    return float(np.mean(np.sum((Z - xbar) ** 2, axis=1)))


def mix_round(states: Sequence[NodeState], P: np.ndarray) -> List[NodeState]:
    """Mix all nodes through P at a barrier: x <- P x, w <- P w, z = x / w.

    Summations run in fixed node order (matrix products), so the result is
    independent of any node evaluation order.
    """
    n = len(states)
    if P.shape != (n, n):
        raise ValueError(f"mixing matrix shape {P.shape} does not match {n} nodes")
    X = np.stack([s.x for s in states])
    w = np.array([s.w for s in states])
    new_X = P @ X
    new_w = P @ w
    if np.any(new_w <= 0):  # impossible for non-negative P with positive w
        bad = int(np.argmin(new_w))
        raise NumericalBreakdownError(f"node {bad}: push-sum weight {new_w[bad]} <= 0")
    new_Z = new_X / new_w[:, None]
    return [
        NodeState(node_id=s.node_id, x=new_X[i], w=float(new_w[i]), z=new_Z[i])
        for i, s in enumerate(states)
    ]


@dataclass
class RunHistory:
    """Per-run trace consumed by the deviation-bound evaluator: initial
    parameter norms per node, the step size eta(t) per round, and the fused
    gradient norm per (round, node)."""

    x0_norms: List[float]
    eta: List[float] = field(default_factory=list)
    fused_norms: List[List[float]] = field(default_factory=list)  # [t][node]

    def record(self, eta_t: float, fused_norms_t: Sequence[float]):
        self.eta.append(float(eta_t))
        self.fused_norms.append([float(v) for v in fused_norms_t])


def deviation_bound_eval(
    node: int, t: int, params: PropagationParams, history: RunHistory
) -> float:
    """Upper bound on ||z_node(t) - xbar(t)||:

        C * q^t * ||x0|| + eta(t) * C * sum_{s=0..t} q^(t-s) * ||g_fused(s)||

    evaluated with c_bound standing in for C; a diagnostics-only upper-bound
    evaluator, never fed back into the algorithm.
    """
    if t >= len(history.eta):
        raise ValueError(f"history covers {len(history.eta)} rounds, asked for t={t}")
    C, q = params.c_bound, params.q
    bound = C * q**t * history.x0_norms[node]
    tail = sum(q ** (t - s) * history.fused_norms[s][node] for s in range(t + 1))
    return bound + history.eta[t] * C * tail
