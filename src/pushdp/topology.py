"""Time-varying directed communication graphs and their mixing matrices.

Edges are ordered pairs (receiver, sender): (i, j) means node j transmits to
node i at that iteration.  Every node is always its own neighbor, so (i, i)
is present for all i.  Mixing matrices are column-stochastic: sender j splits
unit mass uniformly over its out-neighbors (self included), which is the
standard weight rule each node can compute from local information alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, OutOfRegimeError

COLUMN_SUM_TOL = 1e-12


def _adjacency(n: int, recv, send, dtype, value=1) -> np.ndarray:
    """n x n array of dtype: value (value[e] if an array) at [recv[e], send[e]]
    for every edge e, 0 elsewhere."""
    adj = np.zeros(n * n, dtype)
    adj[recv * n + send] = value
    return adj.reshape(n, n)


@dataclass(frozen=True, eq=False)
class DirectedEdgeSet:
    """Directed edge set for one iteration: edge e runs from node send[e] to
    node recv[e].  The arrays may come in any order and broadcastable shapes;
    they are stored flat, sorted by (recv, send), without repeats and with
    every self-loop added.
    """

    n: int
    recv: np.ndarray
    send: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        recv, send = np.broadcast_arrays(np.asarray(self.recv, int), np.asarray(self.send, int))
        bad = (recv < 0) | (recv >= self.n) | (send < 0) | (send >= self.n)
        if bad.any():
            raise ValueError(f"edge ({recv[bad][0]},{send[bad][0]}) out of range for n={self.n}")
        adj = _adjacency(self.n, recv, send, bool)
        np.fill_diagonal(adj, True)
        flat = np.flatnonzero(adj)  # contiguous, and faster than a 2-d nonzero
        recv = flat // self.n
        object.__setattr__(self, "recv", recv)
        object.__setattr__(self, "send", flat - recv * self.n)

    def pairs(self) -> frozenset:
        """The edges as a set of (receiver, sender) tuples."""
        return frozenset(zip(self.recv.tolist(), self.send.tolist()))

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node, self-loop included."""
        return np.bincount(self.send, minlength=self.n)

    def __eq__(self, other):  # the self-loops fix n
        return isinstance(other, DirectedEdgeSet) and np.array_equal(
            (self.recv, self.send), (other.recv, other.send))


def _circulant(n: int, offsets) -> DirectedEdgeSet:
    """Edge set in which every node j sends to (j + o) mod n for each offset o."""
    send = np.arange(n)[:, None]
    recv = send + np.asarray(offsets) % n  # below 2n - 1: one subtract of n wraps it
    np.subtract(recv, n, out=recv, where=recv >= n)
    return DirectedEdgeSet(n, recv, send)


def build_mixing_matrix(edges: DirectedEdgeSet) -> np.ndarray:
    """Column-stochastic mixing matrix for one edge set.

    Column j carries 1/outdeg(j) at each out-neighbor of j and 0 elsewhere.
    """
    P = _adjacency(edges.n, edges.recv, edges.send, float,
                   (1.0 / edges.out_degrees())[edges.send])
    sums = P.sum(axis=0)
    assert np.all(np.abs(sums - 1.0) <= COLUMN_SUM_TOL)
    return P


@dataclass(frozen=True)
class TopologySchedule:
    """Deterministic per-iteration edge sets, and the [topology] spec:
    edge_sets holds one period, cycled over t.

    kind is one of:
      static-ring           each node receives from its k predecessors
      exponential-periodic  out-offsets {j * 2^(t mod log2 n)}, n a power of 2
      explicit-list         the given edge_sets, read from the file path
    Other kinds drop k and path.  J is the connectivity window over which
    the theory block measures the window diameter kappa.
    """

    kind: str
    n: int
    k: Optional[int] = 1
    path: Optional[str] = None
    J: int = 1
    edge_sets: tuple = ()

    def __post_init__(self):
        if self.kind not in ("static-ring", "exponential-periodic", "explicit-list"):
            raise ConfigurationError(f"topology.kind: unknown kind {self.kind!r}")
        if self.J < 1:
            raise ConfigurationError(f"topology.J: must be >= 1, got {self.J}")
        if self.kind != "explicit-list":
            object.__setattr__(self, "path", None)
        if self.kind == "static-ring":
            if not (1 <= self.k < self.n):
                raise ConfigurationError(f"topology.k: static-ring needs 1 <= k < n, got "
                                         f"k={self.k}, n={self.n}")
            object.__setattr__(self, "edge_sets", (_circulant(self.n, np.arange(1, self.k + 1)),))
        else:
            object.__setattr__(self, "k", None)
        if self.kind == "exponential-periodic":
            if self.n < 2 or (self.n & (self.n - 1)) != 0:
                raise ConfigurationError(
                    f"topology.kind: exponential-periodic needs a power-of-2 n, got n={self.n}"
                )
            steps = 2 ** np.arange(int(np.log2(self.n)))
            sets = tuple(_circulant(self.n, np.arange(self.n // 2) * step) for step in steps)
            object.__setattr__(self, "edge_sets", sets)
        if not self.edge_sets:
            raise ConfigurationError("topology.path: explicit-list needs at least one edge set")

    def period(self) -> int:
        """Length after which the schedule repeats."""
        return len(self.edge_sets)


def topology_at(schedule: TopologySchedule, t: int) -> DirectedEdgeSet:
    """Edge set at iteration t; pure in (schedule, t)."""
    if t < 0:
        raise ValueError(f"iteration index must be >= 0, got {t}")
    return schedule.edge_sets[t % len(schedule.edge_sets)]


def load_edge_list(path, n: int) -> tuple:
    """Read the edge sets of an explicit-list schedule from a plain-text file.

    One line per iteration; each whitespace-separated token "i<j" is an edge
    where j transmits to i.  Self-loops are implicit.  Blank lines and lines
    starting with '#' are skipped.
    """
    sets = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            pairs = []
            for token in line.split():
                try:
                    recv, sender = (int(v) for v in token.split("<"))
                except ValueError as exc:
                    raise ConfigurationError(
                        f"{path}:{lineno}: bad edge token {token!r}, expected i<j"
                    ) from exc
                if not (0 <= recv < n and 0 <= sender < n):
                    raise ConfigurationError(
                        f"{path}:{lineno}: edge token {token!r} names a node outside [0, {n})"
                    )
                pairs.append((recv, sender))
            sets.append(DirectedEdgeSet(n, *zip(*pairs)))
    if not sets:
        raise ConfigurationError(f"{path}: no edge sets found")
    return tuple(sets)


def _strongly_connected(R: np.ndarray) -> bool:
    """Whether node 0 reaches every node and every node reaches node 0 in
    the float32 graph whose arc j -> i is a nonzero R[i, j]: one frontier
    sweep along the arcs and one against them, a step a matvec with the
    frontier's indicator (its sums of at most n ones are exact)."""
    for arcs in (R, R.T):
        seen = np.zeros(len(R), dtype=bool)
        seen[0] = True
        frontier = seen.astype(np.float32)
        while frontier.any():
            new = (arcs @ frontier > 0) & ~seen
            seen |= new
            frontier = new.astype(np.float32)
        if not seen.all():
            return False
    return True


def _hop_diameter(R: np.ndarray) -> int:
    """Largest hop distance from any node to any other in the strongly
    connected graph whose arc j -> i is R[i, j] = 1, self-loops included.

    R_h[i, j] = 1 when j reaches i within h hops, and R_(a+b) = R_a R_b.
    Squaring finds the first power of two with a full R; binary lifting then
    finds the largest h whose R_h is not full, in O(log diameter) products.
    In float32 the products' path counts, at most n, are exact.
    """
    n = len(R)
    powers = [R]  # powers[i] is R_(2^i)
    while not powers[-1].all():
        powers.append((powers[-1] @ powers[-1] > 0).astype(np.float32))
    reach, hops = np.eye(n, dtype=np.float32), 0
    for i in reversed(range(len(powers) - 1)):
        cand = (reach @ powers[i] > 0).astype(np.float32)
        if not cand.all():
            reach, hops = cand, hops + 2**i
    return hops + 1 if n > 1 else 0


def window_diameter(schedule: TopologySchedule, J: int) -> Optional[int]:
    """Largest diameter of any J-window union over one full schedule cycle,
    or None if some window union is not strongly connected.  Every window
    is checked for strong connectivity before any diameter is computed."""
    period = schedule.period()
    windows = []
    for l in range(period // np.gcd(period, J)):
        sets = [topology_at(schedule, t) for t in range(l * J, l * J + J)]
        R = _adjacency(schedule.n, np.concatenate([s.recv for s in sets]),
                      np.concatenate([s.send for s in sets]), np.float32)
        if not _strongly_connected(R):
            return None
        windows.append(R)
    return max(map(_hop_diameter, windows))


@dataclass(frozen=True)
class PropagationParams:
    """Geometric-decay constants for node-to-average deviation.

    lam = 1 - n * U^(-kappa*J), q = lam^(1/(kappa*J + 1)); c_bound is the
    strict upper bound on the deviation constant, returned as the value
    itself, so everything downstream is an upper-bound evaluator.
    """

    lam: float
    q: float
    c_bound: float
    U: int


def propagation_params(n: int, U: int, kappa: int, J: int, d: int) -> PropagationParams:
    """Evaluate (lambda, q, C) from the network size, the maximum out-degree
    U (self-loop included), the connectivity window J, the window diameter
    kappa, and the model dimension d."""
    if min(n, U, kappa, J, d) < 1:
        raise ValueError("n, U, kappa, J, d must all be >= 1")
    kb = kappa * J
    lam = 1.0 - n * float(U) ** (-kb)
    if lam <= 0.0:
        raise OutOfRegimeError(
            f"lambda = 1 - n*U^(-kappa*J) = {lam:.6g} <= 0: "
            f"requires U^(kappa*J) > n, got U^(kappa*J) = {float(U)**kb:.6g}, n = {n}"
        )
    q = lam ** (1.0 / (kb + 1))
    if not q < 1.0:  # n*U^(-kappa*J) is below double precision next to 1
        raise OutOfRegimeError(f"q = lambda^(1/(kappa*J+1)) rounds to 1, lambda = {lam!r}")
    c_bound = 2.0 * np.sqrt(d) * float(U) ** kb / lam ** ((kb + 2) / (kb + 1))
    return PropagationParams(lam=lam, q=q, c_bound=c_bound, U=U)


def max_out_degree(schedule: TopologySchedule) -> int:
    """Maximum out-degree (self included) over one period."""
    return max(int(edges.out_degrees().max()) for edges in schedule.edge_sets)
