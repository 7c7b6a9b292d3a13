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
are reductions of it.  A loss-only pass and `predict` also take a leading
axis of points, one pass a point, each bit for bit the pass at that point.
The finite-difference, single-sample and per-node oracles in the
verification suite check every kind.  Per run, `NodeGrads` gives every
node's gradients at its own point, for logistic and quadratic in one
gathered, gradient-only pass, from the batches that `BatchDraws` draws.
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
    A loss-only pass at a leading axis of points has a row of losses and a
    reg per point.
    """

    losses: "np.ndarray | None"
    reg: "float | np.ndarray | None"
    const: "np.ndarray | float | None" = None  # None for a loss-only pass
    blocks: tuple = ()

    def loss(self, sel=slice(None)) -> float:
        """Mean loss over the rows `sel` (all rows by default)."""
        return float(np.mean(self.losses[sel]) + self.reg)

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
        starts[k] on, summed in row order, of every point; the segments
        cover the rows."""
        means = np.add.reduceat(self.losses, starts, axis=-1) / counts
        return means + np.asarray(self.reg)[..., None]

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

    row_width = 1  # doubles a row of a loss-only pass keeps at once

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def rows(self, params, X, y, grad=True, owner=None) -> Rows:
        # row j's perturbation c_j is X[j]: its gradient is Ax - b + c_j.  With
        # owner, params holds one point per node, row j is at params[owner[j]]
        # and the pass is gradient-only.  A product with a column of params is
        # one gemv a point, a dot of two vectors one dot, as at a single point
        if owner is None:
            Ax = np.matmul(self.A, params[..., None])[..., 0]
            return Rows(np.matmul(X, params[..., None])[..., 0],
                        np.vecdot(0.5 * params, Ax) - np.vecdot(self.b, params), Ax - self.b,
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
    row_width = 1

    @property
    def dim(self) -> int:
        return self.n_features + 1  # weights + intercept

    def rows(self, params, X, y, grad=True, owner=None) -> Rows:
        # row j's gradient is (r_j x_j + l2 w, r_j), r_j = p_j - y_j its residual.
        # With owner, params holds one point per node, row j is at
        # params[owner[j]] and the pass is gradient-only.  Without owner, one
        # gemv and one dot a point, as at a single point
        w, bias = params[..., :-1], params[..., -1]
        if owner is None:
            margin = np.matmul(X, w[..., None])[..., 0] + bias[..., None]
            # log(1 + e^m) - y*m, numerically stable for large |m|
            losses, reg = np.logaddexp(0.0, margin) - y * margin, 0.5 * self.l2 * np.vecdot(w, w)
            if not grad:
                return Rows(losses, reg)
        else:
            losses = reg = None
            margin = _row_dot(X, w.take(owner, axis=0)) + bias.take(owner)
        with np.errstate(over="ignore"):  # exp(-m) = inf below m = -709: p_j is 0 there
            resid = 1.0 / (1.0 + np.exp(-margin)) - y
        const = self.l2 * params
        const[..., -1] = 0.0
        return Rows(losses, reg, const, ((X, resid[:, None]),))

    def predict(self, params, X):
        return (np.matmul(X, params[..., :-1, None])[..., 0] + params[..., -1:] > 0).astype(int)

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

    @property
    def row_width(self) -> int:
        return max(self.hidden, self.classes)

    def _unpack(self, params):
        # views of params, with its leading axes; each bias is a row, which
        # broadcasts over the rows of a point
        f, h, c, lead = self.n_features, self.hidden, self.classes, params.shape[:-1]
        i = 0
        W1 = params[..., i : i + f * h].reshape(*lead, f, h); i += f * h
        b1 = params[..., None, i : i + h]; i += h
        W2 = params[..., i : i + h * c].reshape(*lead, h, c); i += h * c
        b2 = params[..., None, i : i + c]
        return W1, b1, W2, b2

    def _hidden(self, W1, b1, X, out=None):
        hid = np.matmul(X, W1, out=out)  # one gemm a point
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
        # hid and dhid, or hid at every point
        out = np.empty((2, len(X), self.hidden) if grad else (*W1.shape[:-2], len(X), self.hidden))
        hid = self._hidden(W1, b1, X, out[0] if grad else out)
        shifted = hid @ W2
        shifted += b2
        cols = shifted.transpose(-1, *range(shifted.ndim - 1))  # np.moveaxis, without its checks
        shifted -= _fold(np.maximum, cols)[..., None]
        label = np.arange(len(X)) * self.classes + y  # flat index of every row's label
        flat = shifted.reshape(*shifted.shape[:-2], -1)
        at_label = flat.take(label, axis=-1)
        dl = np.exp(shifted, out=shifted)
        # sum(axis=-1) adds fewer than 8 terms left to right, 8 or more in 8 partial sums
        total = _fold(np.add, cols) if self.classes < 8 else dl.sum(axis=-1)
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
        return np.argmax(self._hidden(W1, b1, X) @ W2 + b2, axis=-1)


Model = QuadraticModel | LogisticModel | MlpModel


def row_pass(model: Model, params: np.ndarray, batch: Batch, grad: bool = True) -> Rows:
    """One pass of a model over a row block; grad=False skips the backward."""
    X, y = batch
    if len(X) == 0:
        raise ValueError("batch must be non-empty")
    return model.rows(np.asarray(params, dtype=float), X, y, grad)


class NodeGrads:
    """Every node's full-slice and batch mean gradient at its own Z[i], over
    one run's node-sorted rows (`layout`): `load` checks a chunk's draws
    once, and `at(Z, r)` gives round r of it as two (n, dim) arrays, zero
    for empty nodes.  Logistic and quadratic take one gradient-only pass
    over all rows and `np.add.reduceat` of the row pieces, bit for bit as
    per segment: logistic pieces [x_j, 1] * r_j; the quadratic's are the
    rows, whose full-slice sums are taken once; with every node occupied, Z
    is the pass's points and the two means are the outputs.  The MLP takes
    one pass per node (a gathered W1 would be rows x features x hidden), and
    `Rows.grad` writes the node's two means straight into its rows of the
    outputs."""

    def __init__(self, model: Model, batch: Batch, layout: NodeRows):
        self.model, self.batch, self.layout, X = model, batch, layout, batch[0]
        self._counts = layout.counts[:, None].astype(float)  # the full means' divisor
        if isinstance(model, LogisticModel):
            self._aug = np.hstack([X, np.ones((len(X), 1))])
            self._pieces = np.empty((len(X), model.dim))
        elif isinstance(model, QuadraticModel):
            self._full_means = np.add.reduceat(X, layout.starts) / self._counts

    def load(self, sel: np.ndarray, drawn: np.ndarray) -> None:
        """Hand over a chunk's draws (`BatchDraws.draw`): every node must
        draw a row in every round, and the counts must sum to the rows."""
        if (not 0 < drawn.shape[1] == len(self.layout.nodes) or drawn.min() < 1
                or drawn.sum() != len(sel)):
            raise ValueError(f"segments {drawn} do not split {len(sel)} rows")
        # round r's rows, where each node's start among them, and the batch means' divisor
        self._sel, self._ends = sel, [0, *np.cumsum(drawn.sum(axis=1)).tolist()]
        self._starts, self._drawn = np.cumsum(drawn, axis=1) - drawn, drawn[..., None]

    def at(self, Z: np.ndarray, r: int):
        (X, y), (nodes, starts, counts, owner) = self.batch, self.layout
        sel = self._sel[self._ends[r] : self._ends[r + 1]]
        sel_starts, drawn = self._starts[r], self._drawn[r]
        if isinstance(self.model, MlpModel):
            full, batch_mean = np.zeros(Z.shape), np.zeros(Z.shape)
            for i, a, c, s, m in zip(nodes.tolist(), starts.tolist(), counts.tolist(),
                                     sel_starts.tolist(), drawn[:, 0].tolist()):
                rows = row_pass(self.model, Z[i], (X[a : a + c], y[a : a + c]))
                rows.grad(out=full[i])
                rows.grad(sel[s : s + m] - a, out=batch_mean[i])
            return full, batch_mean
        rows = self.model.rows(Z[nodes] if len(nodes) < len(Z) else Z, X, y, owner=owner)
        if isinstance(self.model, QuadraticModel):
            pieces, full_means = X, self._full_means
        else:  # the block is (X, resid column)
            pieces = np.multiply(self._aug, rows.blocks[0][1], out=self._pieces)
            full_means = np.add.reduceat(pieces, starts) / self._counts
        means = (rows.const + full_means, rows.const + np.add.reduceat(
            pieces.take(sel, axis=0), sel_starts) / drawn)
        if len(nodes) == len(Z):  # every node holds rows
            return means
        full, batch_mean = np.zeros(Z.shape), np.zeros(Z.shape)
        full[nodes], batch_mean[nodes] = means
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
    """Every occupied node's batch draws, a chunk of rounds at once.

    Node layout.nodes[k] draws the same rows as the tests' reference
    `sample_batch` (tests/reference.py) over its row positions at its ratio
    on the stream of its round-t slot.  Each sampling node's first draw is
    its span of one uniform per row, in a chunk of rounds of one
    `rng.RoundDraws`.  For the whole chunk, one compare makes the masks, one
    2-D `np.add.reduceat` the drawn counts and one `np.flatnonzero` the
    drawn rows.  An empty first draw is retried: on the node's slot,
    `random(2 * count)` is that draw, then the retry (a double takes one
    whole word), and `integers` forces the pick.  A multi-row node's empty
    first draw takes its retry at its slot, positioned by `streams.at`, and
    the chunk's retries, concatenated, set their rows in the chunk's mask
    with one compare; a one-row node takes its row, whatever its retry
    (`integers(1)` is 0), and a multi-row node whose retry is empty too
    draws its forced pick at its slot, positioned again.  The chunk is
    checked once: every node drew.
    """

    def __init__(self, layout: NodeRows, ratios, streams: rngmod.Streams):
        ratios = np.asarray(ratios, dtype=float)[layout.nodes]
        if not np.all((ratios > 0.0) & (ratios <= 1.0)):
            raise ValueError(f"ratios must lie in (0,1], got {ratios}")
        self.layout, self.streams = layout, streams
        self._row_ratio = np.repeat(ratios, layout.counts)
        # a ratio-1 node takes every row without a draw: its uniforms stay 0
        sampled = ratios < 1.0
        self.uniforms = rngmod.RoundDraws(streams, "random", layout.nodes[sampled],
                                          len(layout.owner), layout.starts[sampled],
                                          layout.counts[sampled])

    def draw(self, t: int) -> Tuple[int, int, np.ndarray, np.ndarray]:
        """(t0, t1, sel, drawn): the plan's chunk that holds round t, over one
        uniform a row.  Round t0 + r drew drawn[r, k] rows of node
        layout.nodes[k]; sel holds their positions, round after round."""
        layout = self.layout
        t0, t1 = self.streams.chunk(t, len(layout.owner))
        mask = self.uniforms.draw(t0, t1) < self._row_ratio
        drawn = np.add.reduceat(mask, layout.starts, axis=1, dtype=np.intp)
        r, k = np.nonzero(drawn == 0)
        if len(k):
            # the retries' rows of the empty first draws, node after node; a
            # one-row node's forced pick, integers(1) = 0, is its row, so a
            # uniform 0 stands in for its retry
            counts = layout.counts[k]
            firsts = np.cumsum(counts) - counts  # where each node's retry starts
            places = np.arange(counts.sum()) + np.repeat(layout.starts[k] - firsts, counts)
            retries = np.concatenate([
                self.streams.at(u, node).random(2 * c)[c:] if c > 1 else [0.0]
                for u, node, c in zip((t0 + r).tolist(), layout.nodes[k].tolist(),
                                      counts.tolist())])
            hit = retries < self._row_ratio[places]
            mask[np.repeat(r, counts)[hit], places[hit]] = True
            drawn[r, k] = np.add.reduceat(hit, firsts, dtype=np.intp)
        for r, k in np.argwhere(drawn == 0).tolist():
            a, c = layout.starts[k], layout.counts[k]
            gen = self.streams.at(t0 + r, layout.nodes[k])
            gen.random(2 * c)  # the empty first draw and retry
            mask[r, a + gen.integers(c)] = True
            drawn[r, k] = np.count_nonzero(mask[r, a : a + c])
        if not drawn.all():
            raise ValueError(f"nodes drew no rows in rounds {t0 + np.flatnonzero(~drawn.all(1))}")
        sel = np.flatnonzero(mask)
        sel %= mask.shape[1]  # from positions in the chunk to positions in a round
        return t0, t1, sel, drawn


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


def make_quadratic_model(d: int, seed: int) -> QuadraticModel:
    """Random SPD quadratic objective: A = M'M / d + 0.1 I (min eigenvalue
    >= 0.1 by construction), b standard normal."""
    rng = rngmod.stream(seed, 1, 0, rngmod.DATA)
    M = rng.normal(size=(d, d))
    A = M.T @ M / d + 0.1 * np.eye(d)
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


def accuracy(model: Model, params: np.ndarray, X: np.ndarray, y: np.ndarray):
    """The share of the rows X that the model at params labels y, a float,
    or a list of them at a leading axis of points; None if it predicts
    nothing."""
    pred = model.predict(params, X)
    if pred is None:
        return None
    return (np.count_nonzero(pred == y, axis=-1) / len(y)).tolist()
