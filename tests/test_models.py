import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pushdp import rng as rngmod
from pushdp.config import DataSpec, ModelSpec, load_config
from pushdp.engine import build_dataset, build_model
from pushdp.errors import ConfigurationError
from pushdp.models import (
    BatchDraws,
    LogisticModel,
    MlpModel,
    NodeGrads,
    QuadraticModel,
    Rows,
    accuracy,
    dirichlet_partition,
    load_csv,
    make_quadratic_model,
    make_synthetic,
    node_rows,
    node_sorted,
    partition_report,
    row_pass,
    split_test,
)
from pushdp.theory import estimate_theory_params
from pushdp.topology import PropagationParams
from pushdp.verify import (
    NODE_RATIOS, NODE_SIZES, finite_difference_grad, node_draws, per_node_grads,
    single_sample_dev_sq,
)

from conftest import make_config
from reference import sample_batch

BULK_ROWS = rngmod.BULK_DOUBLES["random"]  # the most rows a node takes from bulk blocks


def one_round(grads, Z, sel, drawn):
    """NodeGrads' two outputs at Z over one round's draws, handed over as
    a chunk of that round alone."""
    grads.load(sel, drawn[None])
    return grads.at(Z, 0)


def round_draws(draws, T):
    """(t, sel, starts, drawn) of every round t < T of a BatchDraws, drawn a
    chunk of the plan at a time: round t's drawn rows, where each node's
    rows start among them and how many each node drew."""
    t1 = 0
    while t1 < T:
        t0, t1, sel, drawn = draws.draw(t1)
        ends = np.cumsum(drawn.sum(axis=1)).tolist()
        for r, (a, b) in enumerate(zip([0, *ends], ends)):
            yield t0 + r, sel[a:b], np.cumsum(drawn[r]) - drawn[r], drawn[r]


def loss_and_grad(model, params, batch):
    """Mean loss and mean gradient of one row pass over the batch."""
    rows = row_pass(model, params, batch)
    return rows.loss(), rows.grad()


class TestLossAndGrad:
    def test_identity_quadratic(self):
        model = QuadraticModel(A=np.eye(3), b=np.zeros(3))
        params = np.array([1.0, -2.0, 0.5])
        batch = (np.zeros((4, 3)), np.zeros(4, dtype=int))  # zero perturbations
        loss, grad = loss_and_grad(model, params, batch)
        assert loss == pytest.approx(0.5 * params @ params, rel=1e-15)
        assert grad == pytest.approx(params, rel=1e-15)

    def test_duplicated_sample_mean_invariance(self, rng):
        model = LogisticModel(n_features=3, l2=0.1)
        params = rng.normal(size=model.dim)
        x = rng.normal(size=(1, 3))
        y = np.array([1])
        single = loss_and_grad(model, params, (x, y))
        stacked = loss_and_grad(model, params, (np.repeat(x, 5, axis=0), np.repeat(y, 5)))
        assert stacked[0] == pytest.approx(single[0], rel=1e-12)
        assert stacked[1] == pytest.approx(single[1], rel=1e-12)

    def test_empty_batch_rejected(self):
        model = LogisticModel(n_features=2)
        with pytest.raises(ValueError, match="non-empty"):
            loss_and_grad(model, np.zeros(3), (np.zeros((0, 2)), np.zeros(0, dtype=int)))

    @pytest.mark.parametrize(
        "model,features,classes",
        [
            (LogisticModel(n_features=4, l2=0.05), 4, 2),
            (MlpModel(n_features=3, hidden=4, classes=3), 3, 3),
        ],
    )
    def test_matches_finite_differences(self, model, features, classes, rng):
        data = make_synthetic("blobs", 30, features, seed=3, classes=classes)
        batch = (data.features, data.labels)
        for _ in range(5):
            params = rng.normal(size=model.dim)
            analytic = loss_and_grad(model, params, batch)[1]
            numeric = finite_difference_grad(model, params, batch)
            assert np.linalg.norm(analytic - numeric) <= 1e-5 * max(
                np.linalg.norm(numeric), 1e-12
            )


ROW_CASES = [
    (make_quadratic_model(4, seed=1), make_synthetic("quadratic", 30, 4, seed=1)),
    (LogisticModel(n_features=4, l2=0.05), make_synthetic("blobs", 30, 4, seed=2)),
    (MlpModel(n_features=3, hidden=5, classes=3), make_synthetic("blobs", 30, 3, seed=3, classes=3)),
]


class TestRowPass:
    @pytest.mark.parametrize("model, data", ROW_CASES + [
        (MlpModel(n_features=9, hidden=4, classes=9), make_synthetic("blobs", 40, 9, seed=4,
                                                                     classes=9))],
        ids=["quadratic", "logistic", "mlp", "mlp-9-classes"])
    def test_loss_pass_and_predict_at_a_leading_axis_of_points(self, model, data, rng):
        # bit for bit the pass, segment means, predict and accuracy at each point
        X, y = data.features, data.labels
        layout = node_rows([7, 0, 1, len(y) - 8])
        points = rng.normal(size=(4, model.dim))
        stacked = row_pass(model, points, (X, y), grad=False)
        segments = stacked.segment_losses(layout.starts, layout.counts)
        assert stacked.losses.shape == (4, len(y)) and segments.shape == (4, 3)
        preds, accs = model.predict(points, X), accuracy(model, points, X, y)
        assert (preds is None) == (accs is None) == isinstance(model, QuadraticModel)
        for c, point in enumerate(points):
            one = row_pass(model, point, (X, y), grad=False)
            assert np.array_equal(stacked.losses[c], one.losses)
            assert np.array_equal(segments[c], one.segment_losses(layout.starts, layout.counts))
            if preds is not None:
                assert np.array_equal(preds[c], model.predict(point, X))
                assert type(accs[c]) is float and accs[c] == accuracy(model, point, X, y)

    @pytest.mark.parametrize("model, data", ROW_CASES, ids=["quadratic", "logistic", "mlp"])
    def test_reductions_match_single_sample_loop(self, model, data, rng):
        batch = (data.features, data.labels)
        for _ in range(5):
            params = rng.normal(size=model.dim)
            rows = row_pass(model, params, batch)
            g = rows.grad()
            looped = single_sample_dev_sq(model, params, batch, g)
            assert rows.dev_sq(g) == pytest.approx(looped, rel=1e-10)
            # a subset's mean is the mean over the subset's own rows
            sel = np.flatnonzero(rng.random(len(data.labels)) < 0.5)
            loss, grad = loss_and_grad(model, params, (data.features[sel], data.labels[sel]))
            assert rows.loss(sel) == pytest.approx(loss, rel=1e-12)
            assert rows.grad(sel) == pytest.approx(grad, rel=1e-12)
            assert row_pass(model, params, batch, grad=False).loss() == rows.loss()

    @pytest.mark.parametrize("case, expected", [
        ("ring8", {"m": 4.305551487357075, "a": 1.357657190186812,
                   "L": 1.5892306979204425, "F0": np.log(2)}),
        ("mlp8", {"m": 40.256718671273454, "a": 2.7090955421309704,
                  "L": 0.13040623461464354, "F0": np.log(3)}),
    ])
    def test_theory_estimates_at_seed_zero(self, case, expected):
        # L, a and m are the estimates of the per-sample loop that the row
        # pass replaced; F0 = f(x0), the loss of 2 or 3 classes at x0 = 0
        if case == "ring8":
            cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs/logistic-ring.ini"))
        else:
            cfg = make_config(model=ModelSpec(kind="mlp", features=20, hidden=64, classes=3),
                              data=DataSpec(kind="blobs", n_samples=3000, test_fraction=0.2))
        model, dataset = build_model(cfg, 0), build_dataset(cfg, 0)
        X, y, layout = node_sorted(dataset)
        got = estimate_theory_params(
            model, dataset, (X, y), layout, np.zeros(model.dim),
            PropagationParams(lam=0.9, q=0.3, c_bound=10.0, U=3), rngmod.stream(0, 0, 0, rngmod.THEORY),
        )
        for name, value in expected.items():
            assert getattr(got, name) == pytest.approx(value, rel=1e-9, abs=0.0)


def reference_mlp_rows(model, params, X, y, grad=True):
    """Oracle: MlpModel.rows as a row pass over the (rows, classes) logits,
    as (losses, blocks): row max and row sum, (arange, y) label gathers and
    tanh' in 128-row blocks."""
    W1, b1, W2, b2 = model._unpack(params)
    out = np.empty((2 if grad else 1, len(X), model.hidden))
    hid = np.matmul(X, W1, out=out[0])
    hid += b1
    np.tanh(hid, out=hid)
    shifted = hid @ W2
    shifted += b2
    shifted -= shifted.max(axis=1, keepdims=True)
    label = (np.arange(len(X)), y)
    at_label = shifted[label]
    dl = np.exp(shifted, out=shifted)
    total = dl.sum(axis=1)
    losses = np.log(total) - at_label
    if not grad:
        return losses, ()
    dl /= total[:, None]
    dl[label] -= 1.0
    dhid = np.matmul(dl, W2.T, out=out[1])
    for s in range(0, len(X), 128):
        dhid[s : s + 128] *= 1.0 - np.square(hid[s : s + 128])
    return losses, ((X, dhid), (hid, dl))


def reference_grad(blocks, sel=slice(None)):
    """Oracle: the mean gradient of an MLP pass's blocks over the rows sel,
    one concatenated piece per block row."""
    parts = []
    for A, E in blocks:
        E = E[sel]
        parts.append((A[sel].T @ E / len(E)).ravel())
        parts.append(E.sum(axis=0) / len(E))
    return 0.0 + np.concatenate(parts)


def reference_predict(model, params, X):
    W1, b1, W2, b2 = model._unpack(params)
    return np.argmax(np.tanh(X @ W1 + b1) @ W2 + b2, axis=1)


MLP_PASS = dict(features=st.integers(1, 6), classes=st.integers(1, 12),
                hidden=st.integers(1, 70), rows=st.integers(1, 600),
                logit_scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0, 1e3]), tie=st.booleans(),
                seed=st.integers(0, 2**32 - 1))


class TestMlpPass:
    @settings(max_examples=150, deadline=None)
    @given(**MLP_PASS)
    @example(features=20, classes=3, hidden=64, rows=129, logit_scale=1.0, tie=False, seed=0)
    @example(features=20, classes=3, hidden=64, rows=300, logit_scale=30.0, tie=True, seed=1)
    @example(features=5, classes=9, hidden=7, rows=513, logit_scale=1e3, tie=False, seed=2)
    def test_equals_the_reference_pass(self, features, classes, hidden, rows, logit_scale, tie,
                                       seed):
        # bit for bit: losses, every block, the mean gradients over all rows,
        # a row span and a row subset, the row deviations and predict.  The
        # logits reach about logit_scale; scale 0 ties every class, and tie
        # makes the last class a copy of the first
        model = MlpModel(n_features=features, hidden=hidden, classes=classes)
        rng = np.random.default_rng(seed)
        X, y = rng.normal(size=(rows, features)), rng.integers(classes, size=rows)
        params = rng.normal(size=model.dim)
        _, _, W2, b2 = model._unpack(params)
        W2 *= logit_scale / np.sqrt(hidden)
        b2 *= logit_scale
        if tie:
            W2[:, -1], b2[..., -1] = W2[:, 0], b2[..., 0]
        got = row_pass(model, params, (X, y))
        losses, blocks = reference_mlp_rows(model, params, X, y)
        assert np.array_equal(got.losses, losses)
        assert len(got.blocks) == len(blocks)
        for pair, want in zip(got.blocks, blocks):
            assert all(np.array_equal(a, b) for a, b in zip(pair, want))
        sel = np.sort(rng.choice(rows, rng.integers(1, rows + 1), replace=False))
        span = slice(rows // 3, max(rows // 3 + 1, rows - rows // 4))
        for part in (slice(None), span, sel):
            assert np.array_equal(got.grad(part), reference_grad(blocks, part))
        rows_out = np.full((2, model.dim), np.nan)
        dest = rows_out[1]
        assert got.grad(sel, out=dest) is dest
        assert np.isnan(rows_out[0]).all()
        assert np.array_equal(dest, reference_grad(blocks, sel))
        g = got.grad()
        assert np.array_equal(got.dev_sq(g), Rows(losses, 0.0, 0.0, blocks).dev_sq(g))
        assert np.array_equal(row_pass(model, params, (X, y), grad=False).losses,
                              reference_mlp_rows(model, params, X, y, grad=False)[0])
        assert np.array_equal(model.predict(params, X), reference_predict(model, params, X))

    def test_pass_memory_in_rows_by_hidden_planes(self):
        # the grad pass keeps two planes (hid, dhid) and a small tanh' block;
        # the loss pass and predict make one plane
        model = MlpModel(n_features=20, hidden=64, classes=3)
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(2400, 20)), rng.integers(3, size=2400)
        params = rng.normal(size=model.dim)
        plane = X.shape[0] * model.hidden * X.itemsize

        def peak(f):
            tracemalloc.start()
            try:
                f()
                return tracemalloc.get_traced_memory()[1] / plane
            finally:
                tracemalloc.stop()

        assert peak(lambda: row_pass(model, params, (X, y))) <= 2.5
        assert peak(lambda: row_pass(model, params, (X, y), grad=False)) <= 1.2
        assert peak(lambda: model.predict(params, X)) <= 1.2


class TestNodeGrads:
    # 30 rows: an empty node, a one-row node, a full draw (ratio 1), a forced
    # single-sample draw and an ordinary draw
    SIZES, RATIOS = (0, 1, 8, 10, 11), (0.5, 0.5, 1.0, 1e-12, 0.3)

    @pytest.mark.parametrize("model, data", ROW_CASES, ids=["quadratic", "logistic", "mlp"])
    def test_matches_one_pass_per_node(self, model, data, rng):
        batch = (data.features, data.labels)
        for _ in range(5):
            Z = rng.normal(size=(len(self.SIZES), model.dim))
            draws = node_draws(rng, self.SIZES, self.RATIOS)
            assert draws[3][:3].tolist() == [1, 8, 1]  # per occupied node
            full, drawn = one_round(NodeGrads(model, batch, draws[0]), Z, draws[1], draws[3])
            ref_full, ref_drawn = per_node_grads(model, Z, batch, *draws)
            assert not full[0].any() and not drawn[0].any()
            for got, ref in ((full, ref_full), (drawn, ref_drawn)):
                err = np.linalg.norm(got[1:] - ref[1:], axis=1) / np.linalg.norm(ref[1:], axis=1)
                assert err.max() <= 1e-12
            # a one-row node's batch and full gradients are that row's, and
            # a ratio-1 node draws its whole slice
            assert np.array_equal(drawn[1], full[1]) and np.array_equal(drawn[2], full[2])

    @pytest.mark.parametrize("model, data", ROW_CASES[:2], ids=["quadratic", "logistic"])
    def test_gathered_pass_is_gradient_only(self, model, data, rng):
        layout = node_rows([10, 0, 20])
        rows = model.rows(rng.normal(size=(2, model.dim)), data.features, data.labels,
                          owner=layout.owner)
        assert rows.losses is None and rows.reg is None
        assert rows.const.shape == (2, model.dim)

    @staticmethod
    def separate_reductions(model, Z, batch, layout, sel, drawn):
        """The gathered means as separate per-segment reduceats, one per
        block part and per mean, over outer products of the chosen rows."""
        rows = model.rows(Z[layout.nodes], *batch, owner=layout.owner)

        def means(chosen, starts, counts):
            parts = []
            for A, E in rows.blocks:
                E = E[chosen]
                if A is not None:
                    outer = (A[chosen][:, :, None] * E[:, None, :]).reshape(len(E), -1)
                    parts.append(np.add.reduceat(outer, starts) / counts[:, None])
                parts.append(np.add.reduceat(E, starts) / counts[:, None])
            return rows.const + np.hstack(parts)

        return (means(slice(None), layout.starts, layout.counts),
                means(sel, np.cumsum(drawn) - drawn, drawn))

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.sampled_from([0, 1, 2, 7, 9, 16, 33]), min_size=1, max_size=6)
           .filter(any),
           ratio_picks=st.lists(st.sampled_from([1.0, 1e-12, 0.3, 0.8]), min_size=6, max_size=6),
           logistic=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(sizes=list(NODE_SIZES), ratio_picks=[*NODE_RATIOS, 0.3], logistic=True, seed=0)
    @example(sizes=list(NODE_SIZES), ratio_picks=[*NODE_RATIOS, 0.3], logistic=False, seed=0)
    def test_one_reduction_equals_separate_reductions(self, sizes, ratio_picks, logistic, seed):
        # empty, one-row, ratio-1 and forced-pick (ratio 1e-12, picked at an
        # `at` slot) nodes; one NodeGrads serves every round, as in a run, so
        # a round that read what the last one left in its buffers would differ
        rng = np.random.default_rng(seed)
        d, N, rounds = 3, sum(sizes), 3
        model = LogisticModel(n_features=d, l2=0.05) if logistic else make_quadratic_model(d, 5)
        batch = (rng.normal(size=(N, d)), rng.integers(2, size=N))
        layout = node_rows(sizes)
        draws = BatchDraws(layout, ratio_picks[: len(sizes)],
                           rngmod.Streams(seed, rngmod.BATCH, len(sizes), horizon=rounds))
        grads = NodeGrads(model, batch, layout)
        grads.load(*draws.draw(0)[2:])  # the one chunk of all rounds
        empty = np.flatnonzero(np.array(sizes) == 0)
        for t, sel, starts, drawn in round_draws(draws, rounds):
            Z = rng.normal(size=(len(sizes), model.dim))
            full, drawn_mean = grads.at(Z, t)
            ref_full, ref_drawn = self.separate_reductions(model, Z, batch, layout, sel, drawn)
            assert np.array_equal(full[layout.nodes], ref_full)
            assert np.array_equal(drawn_mean[layout.nodes], ref_drawn)
            assert not full[empty].any() and not drawn_mean[empty].any()

    @staticmethod
    def per_node_passes(model, Z, batch, layout, sel, sel_starts, drawn):
        """Oracle: one gradient-only pass a node over its own rows alone,
        owned by its own point, and its two means each reduced as one
        segment.  The pass is given every occupied node's point, copied out
        of Z, so the quadratic's const rows come from the same (k, d) matmul
        as in a run."""
        X, y = batch
        full, drawn_mean = np.zeros_like(Z), np.zeros_like(Z)
        for k, (i, a, c, s, m) in enumerate(zip(layout.nodes, layout.starts, layout.counts,
                                                sel_starts, drawn)):
            rows = model.rows(Z[layout.nodes], X[a : a + c], y[a : a + c],
                              owner=np.full(c, k, dtype=np.intp))
            A, E = rows.blocks[0]
            pieces = E if A is None else np.hstack([A, np.ones((c, 1))]) * E
            full[i] = rows.const[k] + np.add.reduceat(pieces, [0]) / c
            drawn_mean[i] = rows.const[k] + np.add.reduceat(pieces[sel[s : s + m] - a], [0]) / m
        return full, drawn_mean

    @pytest.mark.parametrize("sizes", [(2, 1, 8, 8, 11), SIZES], ids=["every-node", "empty-node"])
    @pytest.mark.parametrize("model, data", ROW_CASES[:2], ids=["quadratic", "logistic"])
    def test_both_paths_equal_one_pass_per_node(self, model, data, sizes, rng):
        # with every node occupied, Z itself is the gathered points and the
        # means come back as they are; with an empty node they are scattered
        # into zero rows.  Either way the outputs are new arrays: a run keeps
        # them, so they may share no memory with Z or with each other
        batch = (data.features, data.labels)
        grads = NodeGrads(model, batch, node_rows(sizes))
        for _ in range(5):
            Z = rng.normal(size=(len(sizes), model.dim))
            draws = node_draws(rng, sizes, self.RATIOS)
            got = one_round(grads, Z, draws[1], draws[3])
            want = self.per_node_passes(model, Z, batch, *draws)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert not any(np.shares_memory(a, b) for a, b in ((got[0], Z), (got[1], Z),
                                                                 (got[0], got[1])))
            before = Z.copy()
            for g in got:
                g += 1.0
            assert np.array_equal(Z, before)

    @pytest.mark.parametrize("counts", [[], [10, 0, 20], [10, 10, 11]])
    def test_segments_must_split_the_rows(self, counts, rng):
        # every node's segment holds at least one row, and together they hold them all
        model, data = ROW_CASES[1]
        grads = NodeGrads(model, (data.features, data.labels), node_rows([30]))
        drawn = np.array(counts, dtype=np.intp)
        with pytest.raises(ValueError, match="do not split 30 rows"):
            one_round(grads, rng.normal(size=(1, model.dim)), np.arange(30), drawn)

    @pytest.mark.parametrize("model, data", ROW_CASES, ids=["quadratic", "logistic", "mlp"])
    def test_a_chunk_is_checked_once_when_handed_over(self, model, data, rng):
        # a three-round chunk of two nodes: a node without a row in the last
        # round, or counts that do not sum to the chunk's rows, refuse the
        # whole chunk before any round's gradients; a chunk that passes gives
        # round r from its own rows, as that round handed over alone does
        grads = NodeGrads(model, (data.features, data.labels), node_rows([10, 20]))
        sel = np.array([0, 3, 12, 1, 10, 11, 29, 9, 15])
        for drawn in ([[2, 1], [1, 3], [2, 0]], [[2, 1], [1, 3], [1, 2]]):
            with pytest.raises(ValueError, match="do not split 9 rows"):
                grads.load(sel, np.array(drawn, dtype=np.intp))
        drawn = np.array([[2, 1], [1, 3], [1, 1]], dtype=np.intp)
        grads.load(sel, drawn)
        Z = rng.normal(size=(2, model.dim))
        got = [grads.at(Z, r) for r in range(3)]
        alone = NodeGrads(model, (data.features, data.labels), node_rows([10, 20]))
        for r, (a, b) in enumerate([(0, 3), (3, 7), (7, 9)]):
            assert all(np.array_equal(g, w) for g, w in zip(
                got[r], one_round(alone, Z, sel[a:b], drawn[r])))


class TestSampleBatch:
    def test_full_ratio(self):
        idx = np.arange(17)
        out = sample_batch(idx, 1.0, np.random.default_rng(0))
        assert np.array_equal(out, idx)

    def test_expected_size(self):
        # mean batch size over many draws: 100 * 0.1 = 10 within 2%
        idx = np.arange(100)
        rng = np.random.default_rng(42)
        sizes = [len(sample_batch(idx, 0.1, rng)) for _ in range(100_000)]
        assert abs(np.mean(sizes) - 10.0) <= 0.2

    def test_deterministic_given_seed(self):
        idx = np.arange(50)
        a = sample_batch(idx, 0.3, np.random.default_rng(7))
        b = sample_batch(idx, 0.3, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_empty_draw_forces_one_sample(self):
        # ratio tiny enough that both draws come up empty for this seed
        idx = np.arange(3)
        out = sample_batch(idx, 1e-12, np.random.default_rng(5))
        assert len(out) == 1 and out[0] in idx


class TestBatchDraws:
    # NODE_SIZES/NODE_RATIOS: an empty node, a one-row node, ratio 1, ratio
    # 1e-12 (two empty draws, so the pick is forced) and an ordinary ratio
    @pytest.mark.parametrize("seed", [0, 2**32 + 17])
    def test_matches_sample_batch_on_each_stream(self, monkeypatch, seed):
        monkeypatch.setattr(rngmod, "BLOCK_SLOTS", 2 * len(NODE_SIZES))  # two rounds a block
        n, T = len(NODE_SIZES), 7
        layout = node_rows(NODE_SIZES)
        draws = BatchDraws(layout, NODE_RATIOS, rngmod.Streams(seed, rngmod.BATCH, n, T))
        ends = np.cumsum(NODE_SIZES)
        for t, sel, _, drawn in round_draws(draws, T):
            ref = [sample_batch(np.arange(end - size, end), ratio,
                                rngmod.stream(seed, i, t, rngmod.BATCH))
                   for i, (size, end, ratio) in enumerate(zip(NODE_SIZES, ends, NODE_RATIOS))
                   if size]
            assert drawn.tolist() == [len(r) for r in ref]
            assert drawn[:3].tolist() == [1, 9, 1]  # one row, ratio 1, forced pick
            assert np.array_equal(sel, np.concatenate(ref))

    # node 0 of seed 28's layout comes up empty in every round: its retry
    # draws 2 rows in round 0, nothing in round 1 (a forced pick at ratio
    # 0.2) and 1 row in round 2; the ratio-1e-12 nodes always force the pick
    # with nodes on both sides of BULK_ROWS: ratio 0.02 empties a large
    # node's first draw about a third of the time
    @settings(max_examples=80, deadline=None)
    @given(nodes=st.lists(st.tuples(st.integers(0, 4) | st.sampled_from([BULK_ROWS, BULK_ROWS + 1]),
                                    st.sampled_from([1.0, 1e-12, 0.02, 0.2, 0.5])),
                          min_size=1, max_size=6).filter(lambda nodes: any(s for s, _ in nodes)),
           block_rounds=st.integers(1, 3), chunk_rounds=st.integers(1, 3),
           rounds=st.integers(3, 7), seed=st.integers(0, 2**64 - 1))
    @example(nodes=[(4, 0.2), (0, 0.5), (3, 1e-12), (2, 1.0), (1, 0.5)], block_rounds=1,
             chunk_rounds=1, rounds=3, seed=28)
    @example(nodes=[(4, 1e-12), (2, 1e-12)], block_rounds=2, chunk_rounds=3, rounds=3,
             seed=2**32 + 17)
    # a chunk edge inside a block (t = 2), a block edge (3) and a horizon cut (5)
    @example(nodes=[(BULK_ROWS + 1, 0.02), (3, 0.2), (BULK_ROWS, 0.02), (1, 1e-12)],
             block_rounds=3, chunk_rounds=2, rounds=5, seed=7)
    # the same edges with bulk retries, and forced picks, in every round: on
    # both sides of the chunk edge (t = 1, 2), the block edge (2, 3) and
    # in the horizon-cut block (3, 4)
    @example(nodes=[(BULK_ROWS + 1, 0.02), (3, 0.2), (BULK_ROWS, 0.02), (1, 1e-12)],
             block_rounds=3, chunk_rounds=2, rounds=5, seed=127)
    def test_draw_is_sample_batch_on_every_stream(self, nodes, block_rounds, chunk_rounds, rounds,
                                                  seed):
        # BLOCK_SLOTS and CHUNK_BYTES of one to three rounds: rounds cross
        # chunk edges, block edges and the horizon cut
        sizes, ratios = zip(*nodes)
        with mock.patch.object(rngmod, "BLOCK_SLOTS", block_rounds * len(sizes)), \
                mock.patch.object(rngmod, "CHUNK_BYTES", chunk_rounds * 8 * sum(sizes)):
            streams = rngmod.Streams(seed, rngmod.BATCH, len(sizes), horizon=rounds)
            draws, ends = BatchDraws(node_rows(sizes), ratios, streams), np.cumsum(sizes)
            chunks = list(round_draws(draws, rounds))
        assert [t for t, *_ in chunks] == list(range(rounds))
        for t, sel, starts, drawn in chunks:
            ref = [sample_batch(np.arange(end - size, end), ratio,
                                rngmod.stream(seed, i, t, rngmod.BATCH))
                   for i, (size, end, ratio) in enumerate(zip(sizes, ends, ratios)) if size]
            assert drawn.tolist() == [len(rows) for rows in ref]
            assert starts.tolist() == [0, *np.cumsum(drawn)[:-1].tolist()]
            assert np.array_equal(sel, np.concatenate(ref))

    @pytest.mark.parametrize("block_rounds", [1, 3])
    def test_bulk_and_fill_nodes_match_sample_batch(self, monkeypatch, block_rounds):
        # nodes of 1, BULK_ROWS and 2 * BULK_ROWS rows at ratio 1e-12 (forced
        # picks) and of BULK_ROWS and BULK_ROWS + 1 rows at 0.02 (retries):
        # first tries from the bulk block below BULK_ROWS + 1 rows, at `at`
        # slots round by round above, and retries at `at` slots on both
        # sides (node 0 is empty: only a block derivation's self-check
        # positions it)
        sizes = (0, BULK_ROWS, 1, BULK_ROWS + 1, BULK_ROWS, 2 * BULK_ROWS)
        ratios = (0.5, 0.02, 1e-12, 0.02, 1e-12, 1e-12)
        seed, T = 2**32 + 17, 7
        positioned = []
        real_at = rngmod.Streams.at
        monkeypatch.setattr(rngmod.Streams, "at", lambda streams, t, node: (
            positioned.append(node), real_at(streams, t, node))[1])
        with mock.patch.object(rngmod, "BLOCK_SLOTS", block_rounds * len(sizes)):
            streams = rngmod.Streams(seed, rngmod.BATCH, len(sizes), horizon=T)
        draws, ends = BatchDraws(node_rows(sizes), ratios, streams), np.cumsum(sizes)
        uniforms = draws.uniforms
        assert (uniforms._bulk_nodes, uniforms._bulk_counts) == ([1, 2, 4],
                                                                [BULK_ROWS, 1, BULK_ROWS])
        assert [node for node, _, _ in uniforms._at_spans] == [3, 5]
        for t, sel, _, drawn in round_draws(draws, T):
            ref = [sample_batch(np.arange(end - size, end), ratio,
                                rngmod.stream(seed, i, t, rngmod.BATCH))
                   for i, (size, end, ratio) in enumerate(zip(sizes, ends, ratios)) if size]
            assert drawn.tolist() == [len(rows) for rows in ref]
            assert np.array_equal(sel, np.concatenate(ref))
        # a multi-row node's retry makes one `at` call, and so does its
        # forced pick; a one-row node's (node 2) make none: node 1 comes up
        # empty in rounds 0, 3 and 4, and its retry too in rounds 3 and 4;
        # node 3 in rounds 0, 1, 3, 4 and 6, and its retry too in rounds 0,
        # 1 and 3; node 4 retries and forces its pick every round.  Node 3
        # takes its first tries at its slots
        tries = {node: [(rngmod.stream(seed, node, t, rngmod.BATCH).random(2 * c) < 0.02).reshape(
            2, -1).any(axis=1).tolist() for t in range(T)] for node, c in ((1, BULK_ROWS),
                                                                      (3, BULK_ROWS + 1))}
        empty = {node: [t for t, (first, _) in enumerate(both) if not first]
                 for node, both in tries.items()}
        forced = {node: sum(not any(two) for two in both) for node, both in tries.items()}
        assert empty == {1: [0, 3, 4], 3: [0, 1, 3, 4, 6]} and forced == {1: 2, 3: 3}
        assert positioned.count(1) == len(empty[1]) + forced[1]
        assert positioned.count(3) == T + len(empty[3]) + forced[3]
        assert positioned.count(2) == 0 and positioned.count(4) == 2 * T

    def test_bulk_block_is_stepped_once_in_its_first_round(self, monkeypatch):
        # no stepping when the draws are built (set-up), then one `bulk`
        # call a block, in the first round that draws from it
        calls, real_bulk = [], rngmod.Streams.bulk
        monkeypatch.setattr(rngmod.Streams, "bulk", lambda streams, t, nodes, counts, kind: (
            calls.append((t, nodes, counts)), real_bulk(streams, t, nodes, counts, kind))[1])
        with mock.patch.object(rngmod, "BLOCK_SLOTS", 3 * 4):
            streams = rngmod.Streams(5, rngmod.BATCH, 4, horizon=8)
        draws = BatchDraws(node_rows([2, 3, 0, BULK_ROWS + 1]), [0.5, 1.0, 0.5, 0.5], streams)
        assert calls == []
        for t in range(8):
            draws.draw(t)
        assert calls == [(t, [0], [2]) for t in (0, 3, 6)]

    def test_chunk_build_checks_every_node_drew_a_row(self):
        # a forced-pick stream that picks no row leaves node 1 (two rows at
        # ratio 1e-12, so its retry is empty too and its forced pick goes to
        # its `at` slot) without rows in every round: the one build of the
        # 4-round chunk refuses it
        class NoPick:
            def random(self, size):
                return np.ones(size)

            def integers(self, high):
                return np.array([], dtype=np.intp)

        streams = rngmod.Streams(0, rngmod.BATCH, 2, horizon=4)
        streams.at(0, 0)  # derives the block, whose self-check needs the real `at`
        streams.at = lambda t, node: NoPick()
        draws = BatchDraws(node_rows([3, 2]), [1.0, 1e-12], streams)
        with pytest.raises(ValueError, match=r"drew no rows in rounds \[0 1 2 3\]"):
            draws.draw(2)

    def test_layout_of_the_occupied_nodes(self):
        layout = node_rows([0, 2, 0, 3])
        assert [a.tolist() for a in layout] == [[1, 3], [0, 2], [2, 3], [0, 0, 1, 1, 1]]
        # node_sorted on a partition whose first and last nodes are empty
        data = make_synthetic("blobs", 9, 2, seed=3)
        data.node_indices = [np.array([], dtype=int), np.array([4, 7]), np.array([], dtype=int),
                             np.array([8, 0, 2]), np.array([5]), np.array([], dtype=int)]
        X, y, got = node_sorted(data)
        sizes = [len(idx) for idx in data.node_indices]
        assert all(np.array_equal(a, b) for a, b in zip(got, node_rows(sizes)))
        assert got.nodes.tolist() == [1, 3, 4]
        for i, a, c in zip(got.nodes, got.starts, got.counts):
            assert np.array_equal(X[a : a + c], data.features[data.node_indices[i]])
            assert np.array_equal(y[a : a + c], data.labels[data.node_indices[i]])

    @pytest.mark.parametrize("ratio", [0.0, 1.5])
    def test_rejects_ratio_outside_unit_interval(self, ratio):
        with pytest.raises(ValueError, match="ratios must lie in"):
            BatchDraws(node_rows([2, 3]), [0.5, ratio], rngmod.Streams(0, rngmod.BATCH, 2))


def loop_partition(labels, n, alpha_conc, seed):
    """Oracle: dirichlet_partition as a per-class loop that appends each
    class's shuffled indices, split at the cuts, node by node."""
    rng = rngmod.stream(seed, 0, 0, rngmod.PARTITION)
    out = [[] for _ in range(n)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        if n == 1:
            out[0].extend(idx)
            continue
        props = rng.dirichlet(np.full(n, alpha_conc))
        cuts = np.floor(np.cumsum(props) * len(idx)).astype(int)[:-1]
        for node, part in enumerate(np.split(idx, cuts)):
            out[node].extend(part)
    return [np.sort(np.array(part, dtype=int)) for part in out]


class TestDirichletPartition:
    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.integers(0, 5), max_size=300), n=st.integers(1, 40),
           alpha=st.sampled_from([0.05, 1.0, 50.0]), seed=st.integers(0, 2**32 - 1))
    @example(labels=[0, 1, 0, 1, 2], n=1, alpha=1.0, seed=0)
    @example(labels=[], n=3, alpha=1.0, seed=0)
    # classes 0, 2, 3 and 5 absent, and most of the 64 nodes empty
    @example(labels=[4] * 10 + [1] * 3, n=64, alpha=0.05, seed=3)
    def test_equals_the_per_class_loop(self, labels, n, alpha, seed):
        labels = np.array(labels, dtype=int)
        got = dirichlet_partition(labels, n, alpha, seed)
        want = loop_partition(labels, n, alpha, seed)
        assert len(got) == n
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_single_node_gets_everything(self):
        labels = np.array([0, 1, 0, 1, 2])
        parts = dirichlet_partition(labels, 1, 1.0, 0)
        assert np.array_equal(parts[0], np.arange(5))

    def test_deterministic(self):
        labels = np.random.default_rng(0).integers(0, 10, size=500)
        a = dirichlet_partition(labels, 6, 0.5, 9)
        b = dirichlet_partition(labels, 6, 0.5, 9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_exhaustive_and_disjoint(self):
        labels = np.random.default_rng(1).integers(0, 10, size=777)
        parts = dirichlet_partition(labels, 8, 0.3, 4)
        merged = np.concatenate(parts)
        assert len(merged) == 777
        assert np.array_equal(np.sort(merged), np.arange(777))

    def test_concentration_controls_heterogeneity(self):
        # mean total-variation distance to the global label distribution is
        # strictly smaller at alpha = 100 than at alpha = 0.1 (50 seeds)
        labels = np.random.default_rng(2).integers(0, 10, size=1000)
        global_dist = np.bincount(labels, minlength=10) / len(labels)

        def mean_tv(alpha, seed):
            parts = dirichlet_partition(labels, 8, alpha, seed)
            tvs = []
            for idx in parts:
                if len(idx) == 0:
                    tvs.append(1.0)
                    continue
                dist = np.bincount(labels[idx], minlength=10) / len(idx)
                tvs.append(0.5 * np.abs(dist - global_dist).sum())
            return np.mean(tvs)

        smooth = np.mean([mean_tv(100.0, s) for s in range(50)])
        skewed = np.mean([mean_tv(0.1, s) for s in range(50)])
        assert smooth < skewed

    def test_report_flags_empty_nodes(self):
        labels = np.array([0, 0, 0])
        parts = [np.array([0, 1, 2]), np.array([], dtype=int)]
        report = partition_report(labels, parts)
        assert report["empty_nodes"] == [1]
        assert report["nodes"][0]["count"] == 3

    def test_report_matches_per_pair_counts(self):
        # the same JSON as one count per (node, class), on classes 1, 3, 5, 7
        # and a partition with empty nodes at both ends and in between
        labels = np.random.default_rng(3).integers(0, 4, size=300) * 2 + 1
        parts = dirichlet_partition(labels, 12, 0.05, 4)
        parts = [np.array([], dtype=int), *parts, np.array([], dtype=int)]
        classes = [int(c) for c in np.unique(labels)]
        want = {
            "n_nodes": len(parts),
            "n_samples": sum(len(idx) for idx in parts),
            "empty_nodes": [i for i, idx in enumerate(parts) if len(idx) == 0],
            "nodes": [{"node": i, "count": len(idx),
                       "classes": {str(c): int(np.sum(labels[idx] == c)) for c in classes}}
                      for i, idx in enumerate(parts)],
        }
        inner_empty = [i for i in want["empty_nodes"] if 0 < i < len(parts) - 1]
        lacking = [n for n in want["nodes"] if n["count"] and 0 in n["classes"].values()]
        assert inner_empty and lacking
        assert json.dumps(partition_report(labels, parts)) == json.dumps(want)


class TestSynthetic:
    def test_deterministic(self):
        a = make_synthetic("blobs", 50, 3, seed=5)
        b = make_synthetic("blobs", 50, 3, seed=5)
        assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)

    def test_wide_separation_centroid_classifier(self):
        # separation 10 sigma: the nearest-centroid oracle gets everything right
        data = make_synthetic("blobs", 400, 3, seed=11, separation=10.0)
        centroids = np.stack(
            [data.features[data.labels == c].mean(axis=0) for c in (0, 1)]
        )
        d = np.linalg.norm(data.features[:, None, :] - centroids[None], axis=2)
        assert np.array_equal(np.argmin(d, axis=1), data.labels)

    def test_quadratic_model_is_spd(self):
        model = make_quadratic_model(6, seed=3)
        assert np.array_equal(model.A, model.A.T)
        assert np.linalg.eigvalsh(model.A)[0] > 0

    def test_quadratic_features_centered(self):
        data = make_synthetic("quadratic", 64, 4, seed=8, spread=0.2)
        assert np.abs(data.features.mean(axis=0)).max() < 1e-12


class TestCsvAndSplit:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,label\n0.5,1.5,0\n-1.0,2.0,1\n3.25,0.0,1\n")
        data = load_csv(path)
        assert data.features.shape == (3, 2)
        assert np.array_equal(data.labels, [0, 1, 1])
        assert data.features[2, 0] == 3.25

    def test_fractional_label_is_config_error(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = ["f1,label"] + [f"{0.1 * i},{0.5 * (i % 2)}" for i in range(40)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConfigurationError) as err:
            load_csv(path)
        assert str(err.value) == f"data.path: {path} has non-integer label 0.5"

    def test_split_test_partitions(self):
        data = make_synthetic("blobs", 100, 2, seed=1)
        split = split_test(data, 0.25, seed=1)
        assert len(split.labels) == 75 and len(split.test_labels) == 25


class TestLipschitzTie:
    def test_quadratic_L_matches_spectral_norm(self):
        model = make_quadratic_model(5, seed=2)
        data = make_synthetic("quadratic", 80, 5, seed=2)
        data.node_indices = dirichlet_partition(data.labels, 4, 5.0, 2)
        X, y, layout = node_sorted(data)
        prop = PropagationParams(lam=0.9, q=0.3, c_bound=10.0, U=3)
        params = estimate_theory_params(
            model, data, (X, y), layout, np.zeros(5), prop, np.random.default_rng(0), n_probe=3
        )
        # independent route: spectral norm via SVD
        assert abs(params.L - np.linalg.norm(model.A, 2)) <= 1e-8


def test_accuracy_none_for_quadratic():
    model = make_quadratic_model(3, seed=1)
    assert accuracy(model, np.zeros(3), np.zeros((2, 3)), np.zeros(2)) is None
