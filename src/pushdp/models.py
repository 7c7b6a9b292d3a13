"""Desk-scale differentiable objectives, synthetic data, and heterogeneous
partitioning.

Three model kinds stand in for the training objectives:

  quadratic   0.5 x'Ax - b'x + c'x with a per-sample linear perturbation c,
              so batches matter but the Hessian (and hence the gradient
              Lipschitz constant, max eigenvalue of A) is exact.
  logistic    binary logistic regression with L2 on the weights and an
              unregularized intercept.
  mlp         one tanh hidden layer with softmax cross-entropy.

Each model makes one pass over a row block (`row_pass`): per-row losses and
the per-row pieces of the gradient.  Mean losses and gradients
(`Rows.loss`, `Rows.grad`), per-segment losses and per-row gradient distances
are reductions of it; the finite-difference, single-sample and per-node oracles
in the verification suite check every kind.  Per run, `NodeGrads` gives every
node's gradients at its own point, for logistic and quadratic in one
gathered, gradient-only pass, and `BatchDraws` draws every node's batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import rng as rngmod
from .errors import ConfigurationError

Batch = Tuple[np.ndarray, np.ndarray]  # (features, labels)


# ---------------------------------------------------------------- models


def _row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", A, B)


def _fold(ufunc, cols) -> np.ndarray:
    """ufunc folded over a sequence of columns left to right, into a new array."""
    acc = ufunc(cols[0], cols[1]) if len(cols) > 1 else cols[0].copy()
    for col in cols[2:]:
        ufunc(acc, col, out=acc)
    return acc


class Rows(NamedTuple):
    """One forward (and, unless loss-only, backward) pass of a model over a
    row block.

    Row j's loss is losses[j] + reg.  Its single-sample gradient is
    const + concat_k vec([A_k[j], 1] (x) E_k[j]) over the (A_k, E_k) pairs of
    `blocks`, where A_k = None stands for an empty A_k[j].  Means over any
    subset of the rows and each row's distance to a given gradient are
    reductions of these pieces.  A gathered pass (`NodeGrads`) is
    gradient-only: it has no losses and no reg, and one const row per node.
    """

    losses: "np.ndarray | None"
    reg: "float | np.ndarray | None"
    const: "np.ndarray | float | None" = None  # None for a loss-only pass
    blocks: tuple = ()

    def loss(self, sel=slice(None)) -> float:
        """Mean loss over the rows `sel` (all rows by default)."""
        return float(np.mean(self.losses[sel])) + self.reg

    def grad(self, sel=slice(None), out=None) -> np.ndarray:
        """Exact mean gradient over the rows `sel` (a slice or row indices, all
        rows by default), written into `out` if given."""
        take = not isinstance(sel, slice)
        if out is None:
            out = np.empty(sum((1 if A is None else A.shape[1] + 1) * E.shape[1]
                               for A, E in self.blocks))
        start = 0
        for A, E in self.blocks:  # row sums: the weights' block, then the bias row
            E = E.take(sel, axis=0) if take else E[sel]
            if A is not None:
                A = A.take(sel, axis=0) if take else A[sel]
                W = out[start : start + A.shape[1] * E.shape[1]].reshape(A.shape[1], -1)
                np.matmul(A.T, E, out=W)
                start += W.size
            np.add.reduce(E, 0, out=out[start : start + E.shape[1]])  # E.sum(axis=0)
            start += E.shape[1]
        out /= len(E)
        out += self.const
        return out

    def segment_losses(self, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Mean loss of every segment k of the rows, the counts[k] from
        starts[k] on, summed in row order; the segments cover the rows."""
        return np.add.reduceat(self.losses, starts) / counts + self.reg

    def dev_sq(self, g: np.ndarray) -> np.ndarray:
        """||g_j - g||^2 for every row j: blocks occupy disjoint coordinates,
        so it is ||u||^2 plus, per block, ||[a,1]||^2 ||e||^2 + 2 [a,1].U e,
        with u = const - g and U its block."""
        u = self.const - g
        out = np.full(len(self.losses), u @ u)
        start = 0
        for A, E in self.blocks:
            width = (1 if A is None else A.shape[1] + 1) * E.shape[1]
            U = u[start : start + width].reshape(-1, E.shape[1])
            start += width
            cross = E @ U[-1]
            if A is not None:
                cross += _row_dot(A @ U[:-1], E)
            out += (1.0 if A is None else _row_dot(A, A) + 1.0) * _row_dot(E, E) + 2.0 * cross
        return out


@dataclass(frozen=True)
class QuadraticModel:
    A: np.ndarray
    b: np.ndarray

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def rows(self, params, X, y, grad=True, owner=None) -> Rows:
        # row j's perturbation c_j is X[j]: its gradient is Ax - b + c_j.  With
        # owner, params holds one point per node, row j is at params[owner[j]]
        # and the pass is gradient-only
        if owner is None:
            Ax = self.A @ params
            return Rows(X @ params, 0.5 * params @ Ax - self.b @ params, Ax - self.b,
                        ((None, X),))
        return Rows(None, None, params @ self.A - self.b, ((None, X),))  # A is symmetric

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

    def rows(self, params, X, y, grad=True, owner=None) -> Rows:
        # row j's gradient is (r_j x_j + l2 w, r_j), r_j = p_j - y_j its residual.
        # With owner, params holds one point per node, row j is at
        # params[owner[j]] and the pass is gradient-only
        w, bias = params[..., :-1], params[..., -1]
        if owner is None:
            margin = X @ w + bias
            # log(1 + e^m) - y*m, numerically stable for large |m|
            losses, reg = np.logaddexp(0.0, margin) - y * margin, 0.5 * self.l2 * float(w @ w)
            if not grad:
                return Rows(losses, reg)
        else:
            losses = reg = None
            margin = _row_dot(X, np.take(w, owner, axis=0)) + np.take(bias, owner)
        with np.errstate(over="ignore"):  # exp(-m) = inf below m = -709: p_j is 0 there
            resid = 1.0 / (1.0 + np.exp(-margin)) - y
        const = self.l2 * params
        const[..., -1] = 0.0
        return Rows(losses, reg, const, ((X, resid[:, None]),))

    def predict(self, params, X):
        return (X @ params[:-1] + params[-1] > 0).astype(int)

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

    def _hidden(self, W1, b1, X, out=None):
        hid = np.matmul(X, W1, out=out)
        hid += b1
        return np.tanh(hid, out=hid)

    def rows(self, params, X, y, grad=True) -> Rows:
        # hid and dhid share one allocation, and tanh' takes one scratch block
        # of at most 512 rows: at a few thousand rows, page faults on fresh
        # (rows, hidden) arrays cost more than the arithmetic.  Over a handful
        # of classes so do row reductions and (row, label) gathers, so the
        # softmax works on the logits' class columns, one call per class, and
        # finds the labels through one flat index; the floats are those of
        # the row reductions
        W1, b1, W2, b2 = self._unpack(params)
        out = np.empty((2 if grad else 1, len(X), self.hidden))
        hid = self._hidden(W1, b1, X, out[0])
        shifted = hid @ W2
        shifted += b2
        cols = shifted.T
        shifted -= _fold(np.maximum, cols)[:, None]
        label = np.arange(len(X)) * self.classes + y  # flat index of every row's label
        flat = shifted.reshape(-1)
        at_label = flat.take(label)
        dl = np.exp(shifted, out=shifted)
        # sum(axis=1) adds fewer than 8 terms left to right, 8 or more in 8 partial sums
        total = _fold(np.add, cols) if self.classes < 8 else dl.sum(axis=1)
        if grad:
            dl /= total[:, None]
            flat[label] -= 1.0  # dlogits of one row: softmax - onehot
        losses = np.log(total, out=total)
        losses -= at_label
        if not grad:
            return Rows(losses, 0.0)
        dhid = np.matmul(dl, W2.T, out=out[1])
        slope = np.empty((min(len(X), 512), self.hidden))
        for s in range(0, len(X), 512):  # times tanh' = 1 - hid^2, in row blocks
            block = np.square(hid[s : s + 512], out=slope[: len(X) - s])
            np.subtract(1.0, block, out=block)
            dhid[s : s + 512] *= block
        return Rows(losses, 0.0, 0.0, ((X, dhid), (hid, dl)))

    def predict(self, params, X):
        W1, b1, W2, b2 = self._unpack(params)
        return np.argmax(self._hidden(W1, b1, X) @ W2 + b2, axis=1)


Model = QuadraticModel | LogisticModel | MlpModel


def row_pass(model: Model, params: np.ndarray, batch: Batch, grad: bool = True) -> Rows:
    """One pass of a model over a row block; grad=False skips the backward."""
    X, y = batch
    if len(X) == 0:
        raise ValueError("batch must be non-empty")
    return model.rows(np.asarray(params, dtype=float), X, y, grad)


class NodeGrads:
    """Every node's full-slice and batch mean gradient at its own Z[i], over
    one run's node-sorted rows (`layout`): `at(Z, sel, drawn)` takes the
    draws of `BatchDraws.draw` and gives two (n, dim) arrays, zero for empty
    nodes.  Logistic and quadratic take one gradient-only pass over all rows
    and `np.add.reduceat` of the row pieces, bit for bit as per segment:
    logistic pieces [x_j, 1] * r_j; the quadratic's are the rows, whose
    full-slice sums are taken once.  The MLP takes one pass per node (a
    gathered W1 would be rows x features x hidden), and `Rows.grad` writes
    the node's two means straight into its rows of the outputs."""

    def __init__(self, model: Model, batch: Batch, layout: NodeRows):
        self.model, self.batch, self.layout, X = model, batch, layout, batch[0]
        if isinstance(model, LogisticModel):
            self._aug = np.hstack([X, np.ones((len(X), 1))])
            self._pieces = np.empty((len(X), model.dim))
        elif isinstance(model, QuadraticModel):
            self._full_means = np.add.reduceat(X, layout.starts) / layout.counts[:, None]

    def at(self, Z: np.ndarray, sel: np.ndarray, drawn: np.ndarray):
        (X, y), (nodes, starts, counts, owner) = self.batch, self.layout
        if not 0 < len(drawn) == len(nodes) or drawn.min() < 1 or drawn.sum() != len(sel):
            raise ValueError(f"segments {drawn} do not split {len(sel)} rows")
        full, batch_mean = np.zeros(Z.shape), np.zeros(Z.shape)
        sel_starts = np.cumsum(drawn) - drawn
        if isinstance(self.model, MlpModel):
            for i, a, c, s, m in zip(nodes.tolist(), starts.tolist(), counts.tolist(),
                                     sel_starts.tolist(), drawn.tolist()):
                rows = row_pass(self.model, Z[i], (X[a : a + c], y[a : a + c]))
                rows.grad(out=full[i])
                rows.grad(sel[s : s + m] - a, out=batch_mean[i])
            return full, batch_mean
        rows = self.model.rows(Z[nodes], X, y, owner=owner)
        if isinstance(self.model, QuadraticModel):
            pieces, full_means = X, self._full_means
        else:  # the block is (X, resid column)
            pieces = np.multiply(self._aug, rows.blocks[0][1], out=self._pieces)
            full_means = np.add.reduceat(pieces, starts) / counts[:, None]
        full[nodes] = rows.const + full_means
        batch_mean[nodes] = rows.const + np.add.reduceat(
            pieces.take(sel, axis=0), sel_starts) / drawn[:, None]
        return full, batch_mean


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


class NodeRows(NamedTuple):
    """Where the occupied nodes' rows lie among node-sorted rows: node
    nodes[k] holds the counts[k] rows from starts[k] on, and row j belongs to
    node nodes[owner[j]]."""

    nodes: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    owner: np.ndarray


def node_rows(sizes) -> NodeRows:
    """The NodeRows of nodes holding sizes[i] consecutive rows each."""
    sizes = np.asarray(sizes, dtype=np.intp)
    nodes = np.flatnonzero(sizes)
    counts = sizes[nodes]
    return NodeRows(nodes, np.cumsum(counts) - counts, counts,
                    np.repeat(np.arange(len(nodes)), counts))


def node_sorted(dataset: Dataset) -> Tuple[np.ndarray, np.ndarray, NodeRows]:
    """The training rows sorted by node, as (features, labels, layout): node
    layout.nodes[k] holds the layout.counts[k] rows from layout.starts[k]
    on, in the order its dataset.node_indices entry lists."""
    order = np.concatenate(dataset.node_indices)
    layout = node_rows([len(idx) for idx in dataset.node_indices])
    return dataset.features[order], dataset.labels[order], layout


class BatchDraws:
    """Every occupied node's batch draw of a round, at once.

    Node layout.nodes[k] draws the same rows as `sample_batch` over its row
    positions at its ratio on the stream of its round-t slot.  One
    `streams.fill` makes every sampling node's first draw into its span of
    one uniform per row, and one mask over all rows selects.  An empty first
    draw is replayed on the node's slot, positioned again by `streams.at`,
    into its span of the mask: `random(2 * count)` is that draw, then the
    retry (a double takes one whole word), and `integers` forces the pick.
    """

    def __init__(self, layout: NodeRows, ratios, streams: rngmod.Streams):
        ratios = np.asarray(ratios, dtype=float)[layout.nodes]
        if not np.all((ratios > 0.0) & (ratios <= 1.0)):
            raise ValueError(f"ratios must lie in (0,1], got {ratios}")
        self.layout, self.streams = layout, streams
        self._row_ratio = np.repeat(ratios, layout.counts)
        # a ratio-1 node takes every row without a draw: its uniforms stay 0
        self._uniform = np.zeros(len(layout.owner))
        self._sampled = layout.nodes[ratios < 1.0].tolist()
        # (node, start, count, ratio) of every occupied node, and each sampling node's uniforms
        self._replay = list(zip(layout.nodes.tolist(), layout.starts.tolist(),
                                layout.counts.tolist(), ratios.tolist()))
        self._uniforms = [self._uniform[a : a + c] for _, a, c, ratio in self._replay
                          if ratio < 1.0]

    def draw(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """Round t's drawn rows of every occupied node, node after node, and
        how many each node drew (see `NodeGrads`)."""
        self.streams.fill(t, self._sampled, self._uniforms, "random")
        mask = self._uniform < self._row_ratio
        drawn = np.add.reduceat(mask, self.layout.starts, dtype=np.intp)
        if not drawn.all():
            for k in np.flatnonzero(drawn == 0).tolist():
                node, a, c, ratio = self._replay[k]
                gen = self.streams.at(t, node)
                rows = np.less(gen.random(2 * c)[c:], ratio, out=mask[a : a + c])
                if not rows.any():
                    rows[gen.integers(c)] = True
                drawn[k] = np.count_nonzero(rows)
        return np.flatnonzero(mask), drawn


def dirichlet_partition(labels: np.ndarray, n: int, alpha_conc: float,
                        seed: int) -> List[np.ndarray]:
    """Split sample indices across n nodes, one Dirichlet(alpha_conc)
    proportion draw per class; exhaustive, disjoint, and deterministic in
    the seed.  A class's shuffled rows go to the nodes in order, node k
    taking the floor(cumsum(proportions) * rows) cut k - 1 up to cut k; each
    node's indices come back sorted."""
    rng = rngmod.stream(seed, 0, 0, rngmod.PARTITION)
    owner = np.empty(len(labels), dtype=np.intp)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        cuts = np.floor(np.cumsum(rng.dirichlet(np.full(n, alpha_conc))) * len(idx))[:-1]
        owner[idx] = np.searchsorted(cuts, np.arange(len(idx)), side="right")
    order = np.argsort(owner, kind="stable")  # by node, then by index
    ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
    return [order[a:b] for a, b in zip([0] + ends, ends)]


def partition_report(labels: np.ndarray, node_indices: List[np.ndarray]) -> dict:
    """Per-node sample counts and class histograms, with empty nodes flagged."""
    classes, counts = np.unique(labels), [len(idx) for idx in node_indices]
    owner = np.repeat(np.arange(len(counts)), counts)  # one bincount over node * C + class
    codes = owner * len(classes) + np.searchsorted(classes, labels[np.concatenate(node_indices)])
    hists = np.bincount(codes, minlength=len(counts) * len(classes)).reshape(len(counts), -1)
    keys = [str(int(c)) for c in classes]
    nodes = [{"node": i, "count": count, "classes": dict(zip(keys, hist))}
             for i, (count, hist) in enumerate(zip(counts, hists.tolist()))]
    return {"n_nodes": len(counts), "n_samples": sum(counts),
            "empty_nodes": [i for i, count in enumerate(counts) if count == 0], "nodes": nodes}


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
        raise ConfigurationError(f"data.test_fraction: must lie in [0,1), got {fraction}")
    if fraction == 0.0:
        return dataset
    N = len(dataset.labels)
    n_test = int(round(N * fraction))
    if not 0 < n_test < N:
        side = "test" if n_test == 0 else "training"
        raise ConfigurationError(
            f"data.test_fraction: {fraction} leaves no {side} sample out of {N}"
        )
    perm = rngmod.stream(seed, 2, 0, rngmod.DATA).permutation(N)
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
    labels = raw[:, -1]
    fractional = labels[labels != np.round(labels)]
    if fractional.size:
        raise ConfigurationError(f"data.path: {path} has non-integer label {fractional[0]}")
    return Dataset(features=raw[:, :-1], labels=labels.astype(int))


def accuracy(model: Model, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> Optional[float]:
    pred = model.predict(params, X)
    if pred is None:
        return None
    return int(np.count_nonzero(pred == y)) / len(y)
