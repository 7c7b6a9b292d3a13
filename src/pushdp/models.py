"""Desk-scale differentiable objectives, synthetic data, and heterogeneous
partitioning.

Three model kinds stand in for the training objectives:

  quadratic   0.5 x'Ax - b'x + c'x with a per-sample linear perturbation c,
              so batches matter but the Hessian (and hence the gradient
              Lipschitz constant, max eigenvalue of A) is exact.
  logistic    binary logistic regression with L2 on the weights and an
              unregularized intercept.
  mlp         one tanh hidden layer with softmax cross-entropy.

All gradients are analytic; the finite-difference oracle in the verification
suite checks every kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import rng as rngmod
from .errors import ConfigurationError

Batch = Tuple[np.ndarray, np.ndarray]  # (features, labels)


# ---------------------------------------------------------------- models


@dataclass(frozen=True)
class QuadraticModel:
    A: np.ndarray
    b: np.ndarray

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def loss_and_grad(self, params: np.ndarray, X: np.ndarray, y: np.ndarray):
        c = X.mean(axis=0)
        Ax = self.A @ params
        loss = 0.5 * params @ Ax - self.b @ params + c @ params
        return float(loss), Ax - self.b + c

    def predict(self, params, X):
        return None

    def lipschitz(self) -> float:
        return float(np.linalg.eigvalsh(self.A)[-1])


@dataclass(frozen=True)
class LogisticModel:
    n_features: int
    l2: float = 0.0

    @property
    def dim(self) -> int:
        return self.n_features + 1  # weights + intercept

    def _split(self, params):
        return params[:-1], params[-1]

    def loss_and_grad(self, params: np.ndarray, X: np.ndarray, y: np.ndarray):
        w, bias = self._split(params)
        margin = X @ w + bias
        # mean of log(1 + e^m) - y*m, numerically stable for large |m|
        loss = float(np.mean(np.logaddexp(0.0, margin) - y * margin))
        loss += 0.5 * self.l2 * float(w @ w)
        p = 1.0 / (1.0 + np.exp(-margin))
        resid = p - y
        grad = np.empty_like(params)
        grad[:-1] = X.T @ resid / len(y) + self.l2 * w
        grad[-1] = resid.mean()
        return loss, grad

    def predict(self, params, X):
        w, bias = self._split(params)
        return (X @ w + bias > 0).astype(int)

    def lipschitz_bound(self, X: np.ndarray) -> float:
        """0.25 * lambda_max of the mean augmented outer product, plus l2."""
        aug = np.hstack([X, np.ones((len(X), 1))])
        H = aug.T @ aug / len(X)
        return 0.25 * float(np.linalg.eigvalsh(H)[-1]) + self.l2


@dataclass(frozen=True)
class MlpModel:
    n_features: int
    hidden: int
    classes: int

    @property
    def dim(self) -> int:
        return (self.n_features + 1) * self.hidden + (self.hidden + 1) * self.classes

    def _unpack(self, params):
        f, h, c = self.n_features, self.hidden, self.classes
        i = 0
        W1 = params[i : i + f * h].reshape(f, h); i += f * h
        b1 = params[i : i + h]; i += h
        W2 = params[i : i + h * c].reshape(h, c); i += h * c
        b2 = params[i : i + c]
        return W1, b1, W2, b2

    def loss_and_grad(self, params: np.ndarray, X: np.ndarray, y: np.ndarray):
        W1, b1, W2, b2 = self._unpack(params)
        B = len(y)
        hid = np.tanh(X @ W1 + b1)
        logits = hid @ W2 + b2
        shifted = logits - logits.max(axis=1, keepdims=True)
        logZ = np.log(np.exp(shifted).sum(axis=1))
        loss = float(np.mean(logZ - shifted[np.arange(B), y]))
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        dlogits = probs
        dlogits[np.arange(B), y] -= 1.0
        dlogits /= B
        gW2 = hid.T @ dlogits
        gb2 = dlogits.sum(axis=0)
        dhid = (dlogits @ W2.T) * (1.0 - hid**2)
        gW1 = X.T @ dhid
        gb1 = dhid.sum(axis=0)
        grad = np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2])
        return loss, grad

    def predict(self, params, X):
        W1, b1, W2, b2 = self._unpack(params)
        return np.argmax(np.tanh(X @ W1 + b1) @ W2 + b2, axis=1)


Model = QuadraticModel | LogisticModel | MlpModel


def loss_and_grad(model: Model, params: np.ndarray, batch: Batch):
    """Mean loss and exact mean gradient of a model over a batch."""
    X, y = batch
    if len(X) == 0:
        raise ValueError("batch must be non-empty")
    return model.loss_and_grad(np.asarray(params, dtype=float), X, y)


# ---------------------------------------------------------------- data


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    node_indices: Optional[List[np.ndarray]] = None  # filled by partitioning
    test_features: Optional[np.ndarray] = None
    test_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels disagree in length")


def sample_batch(indices: np.ndarray, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson-style batch draw: each sample joins independently with
    probability ratio.  An empty draw is retried once; a second empty draw
    returns one uniformly chosen sample so no iteration ever silently skips.
    """
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must lie in (0,1], got {ratio}")
    indices = np.asarray(indices)
    if ratio == 1.0:
        return indices.copy()
    for _ in range(2):
        mask = rng.random(len(indices)) < ratio
        if mask.any():
            return indices[mask]
    return indices[[rng.integers(len(indices))]]


@dataclass(frozen=True)
class PartitionSpec:
    alpha_conc: float
    n: int
    seed: int

    def __post_init__(self):
        if self.alpha_conc <= 0:
            raise ConfigurationError(f"alpha_conc must be > 0, got {self.alpha_conc}")
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")


def dirichlet_partition(labels: np.ndarray, spec: PartitionSpec) -> List[np.ndarray]:
    """Split sample indices across nodes, one Dirichlet proportion draw per
    class; exhaustive, disjoint, and deterministic in the seed."""
    rng = rngmod.stream(spec.seed, 0, 0, rngmod.PARTITION)
    out = [[] for _ in range(spec.n)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        if spec.n == 1:
            out[0].extend(idx)
            continue
        props = rng.dirichlet(np.full(spec.n, spec.alpha_conc))
        cuts = np.floor(np.cumsum(props) * len(idx)).astype(int)[:-1]
        for node, part in enumerate(np.split(idx, cuts)):
            out[node].extend(part)
    return [np.sort(np.array(part, dtype=int)) for part in out]


def partition_report(labels: np.ndarray, node_indices: List[np.ndarray]) -> dict:
    """Per-node sample counts and class histograms, with empty nodes flagged."""
    classes = [int(c) for c in np.unique(labels)]
    nodes = []
    for i, idx in enumerate(node_indices):
        hist = {str(c): int(np.sum(labels[idx] == c)) for c in classes}
        nodes.append({"node": i, "count": int(len(idx)), "classes": hist})
    return {
        "n_nodes": len(node_indices),
        "n_samples": int(sum(len(i) for i in node_indices)),
        "empty_nodes": [i for i, idx in enumerate(node_indices) if len(idx) == 0],
        "nodes": nodes,
    }


def make_synthetic(
    kind: str,
    n_samples: int,
    d: int,
    seed: int,
    classes: int = 2,
    separation: float = 4.0,
    spread: float = 0.1,
) -> Dataset:
    """Deterministic synthetic dataset.

    kind "blobs":     `classes` Gaussian blobs of unit spread with centers
                      `separation` apart, for the classification models.
    kind "quadratic": zero-mean per-sample linear perturbations of scale
                      `spread` (labels all zero), for the quadratic model.
    """
    if n_samples < 1 or d < 1:
        raise ValueError("n_samples and d must be >= 1")
    rng = rngmod.stream(seed, 0, 0, rngmod.DATA)
    if kind == "blobs":
        if classes > d:
            raise ConfigurationError(f"blobs need classes <= d, got {classes} > {d}")
        # orthonormal directions scaled so every center pair is exactly
        # `separation` apart (unit-variance blobs around each)
        Q, _ = np.linalg.qr(rng.normal(size=(d, classes)))
        centers = (separation / np.sqrt(2.0)) * Q.T
        labels = rng.integers(classes, size=n_samples)
        features = centers[labels] + rng.normal(size=(n_samples, d))
        return Dataset(features=features, labels=labels)
    if kind == "quadratic":
        features = rng.normal(scale=spread, size=(n_samples, d))
        features -= features.mean(axis=0)  # exact zero mean, so f* is closed form
        return Dataset(features=features, labels=np.zeros(n_samples, dtype=int))
    raise ConfigurationError(f"unknown synthetic kind {kind!r}")


def make_quadratic_model(d: int, seed: int, eps: float = 0.1) -> QuadraticModel:
    """Random SPD quadratic objective: A = M'M / d + eps*I (min eigenvalue
    >= eps by construction), b standard normal."""
    rng = rngmod.stream(seed, 1, 0, rngmod.DATA)
    M = rng.normal(size=(d, d))
    A = M.T @ M / d + eps * np.eye(d)
    b = rng.normal(size=d)
    return QuadraticModel(A=A, b=b)


def split_test(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Hold out a deterministic test split; returns a new Dataset."""
    if not (0.0 <= fraction < 1.0):
        raise ConfigurationError(f"test fraction must lie in [0,1), got {fraction}")
    if fraction == 0.0:
        return dataset
    rng = rngmod.stream(seed, 2, 0, rngmod.DATA)
    N = len(dataset.labels)
    perm = rng.permutation(N)
    n_test = int(round(N * fraction))
    test, train = perm[:n_test], perm[n_test:]
    return Dataset(
        features=dataset.features[train],
        labels=dataset.labels[train],
        test_features=dataset.features[test],
        test_labels=dataset.labels[test],
    )


def load_csv(path) -> Dataset:
    """Tabular ingestion: header row, float feature columns, integer label
    in the final column."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] < 2:
        raise ConfigurationError(f"{path}: need at least one feature column plus a label")
    return Dataset(features=raw[:, :-1], labels=raw[:, -1].astype(int))


def accuracy(model: Model, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> Optional[float]:
    pred = model.predict(params, X)
    if pred is None:
        return None
    return float(np.mean(pred == y))
