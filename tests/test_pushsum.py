import numpy as np
import pytest

from pushdp.errors import NumericalBreakdownError
from pushdp.pushsum import deviation_bound_eval, mix_round, sq_deviations
from pushdp.topology import (
    PropagationParams,
    TopologySchedule,
    build_mixing_matrix,
    max_out_degree,
    propagation_params,
    topology_at,
    window_diameter,
)

from conftest import make_config, observed_run


def ring_matrix(n, k=1):
    return build_mixing_matrix(topology_at(TopologySchedule(kind="static-ring", n=n, k=k), 0))


class TestMixRound:
    def test_symmetric_pair_averages_in_one_step(self):
        P = np.full((2, 2), 0.5)
        X, w, Z = mix_round(np.array([[0.0], [2.0]]), np.ones(2), P)
        assert np.array_equal(X, [[1.0], [1.0]])
        assert np.array_equal(w, [1.0, 1.0])
        assert np.array_equal(Z, [[1.0], [1.0]])
        assert np.mean(sq_deviations(Z, X.mean(axis=0))) == 0.0

    def test_identity_matrix_noop(self):
        X0, w0 = np.array([[1.0], [5.0]]), np.ones(2)
        X, w, _ = mix_round(X0, w0, np.eye(2))
        assert np.array_equal(X, X0) and np.array_equal(w, w0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            mix_round(np.zeros((3, 1)), np.ones(3), np.eye(2))

    def test_directed_ring_conserves_and_reaches_consensus(self):
        P = ring_matrix(3)
        X, w, Z = mix_round(np.array([[3.0], [0.0], [0.0]]), np.ones(3), P)
        assert X[:, 0].sum() == pytest.approx(3.0, rel=1e-12)
        assert w.sum() == pytest.approx(3.0, rel=1e-12)
        for _ in range(59):
            X, w, Z = mix_round(X, w, P)
        # power-iteration limit: z -> average of the initial x
        assert np.max(np.abs(Z[:, 0] - 1.0)) < 1e-8

    def test_mass_conserved_every_round(self, rng):
        P = ring_matrix(8, k=2)
        X, w = rng.normal(size=(8, 2)), np.ones(8)
        total_x = X.sum()
        for _ in range(200):
            X, w, _ = mix_round(X, w, P)
            assert w.sum() == pytest.approx(8.0, rel=1e-10)
            assert X.sum() == pytest.approx(total_x, rel=1e-10)

    def test_doubly_stochastic_keeps_unit_weights(self, rng):
        # complete graph with 1/8 weights is doubly stochastic and binary-exact
        P = ring_matrix(8, k=7)
        X, w = rng.normal(size=(8, 3)), np.ones(8)
        for _ in range(50):
            X, w, Z = mix_round(X, w, P)
            assert np.all(w == 1.0)
            assert np.array_equal(Z, X)

    def test_weight_positive_guard(self):
        bad = np.array([[1.0, 0.0], [-1.0, 1.0]])  # malformed on purpose
        with pytest.raises(NumericalBreakdownError, match="weight"):
            mix_round(np.ones((2, 1)), np.ones(2), bad)

    @pytest.mark.parametrize("n", [8, 16])
    def test_consensus_monotone_and_tiny(self, n, rng):
        P = ring_matrix(n, k=2)
        X, w = rng.normal(size=(n, 2)), np.ones(n)
        errors = []
        for _ in range(500):
            X, w, Z = mix_round(X, w, P)
            errors.append(np.mean(sq_deviations(Z, X.mean(axis=0))))
        assert errors[-1] < 1e-12
        # monotone after burn-in, modulo float dust once the error sits at
        # the representable floor (~1e-32)
        burn_in = 50
        tail = errors[burn_in:]
        assert all(b <= a * (1 + 1e-9) + 1e-30 for a, b in zip(tail, tail[1:]))


class TestDeviationBound:
    def test_all_zero(self):
        params = PropagationParams(lam=0.5, q=0.5, c_bound=2.0, U=2)
        assert deviation_bound_eval(0, 0, params, 0.1, np.zeros((1, 2)), 0.0) == 0.0

    def test_decay_term_only(self):
        params = PropagationParams(lam=0.5, q=0.5, c_bound=2.0, U=2)
        bound = deviation_bound_eval(0, 3, params, 0.1, np.zeros((4, 1)), 1.0)
        assert bound == pytest.approx(0.25, abs=1e-15)

    def test_gradient_term_against_literal_sum(self, rng):
        params = PropagationParams(lam=0.5, q=0.7, c_bound=3.0, U=2)
        norms = rng.uniform(0, 2, size=(6, 3))
        literal = 3.0 * 0.7**5 * 2.0 + 0.05 * 3.0 * sum(
            0.7 ** (5 - s) * norms[s, 1] for s in range(6)
        )
        bound = deviation_bound_eval(1, 5, params, 0.05, norms, 2.0)
        assert bound == pytest.approx(literal, rel=1e-12)

    def test_round_beyond_norms_rejected(self):
        params = PropagationParams(lam=0.5, q=0.5, c_bound=2.0, U=2)
        with pytest.raises(ValueError, match="cover 2 rounds"):
            deviation_bound_eval(0, 2, params, 0.1, np.zeros((2, 1)), 0.0)

    def test_run_harness_measured_below_bound(self):
        # quadratic model, in-regime ring: U = 3, kappa = 4, J = 1
        from pushdp.config import DataSpec, ModelSpec

        cfg = make_config(
            algorithm="sdlr",
            T=50,
            model=ModelSpec(kind="quadratic", features=3),
            data=DataSpec(kind="quadratic", n_samples=160, alpha_conc=5.0),
            sampling_ratio=1.0,
        )
        result, log = observed_run(cfg, 2)
        sched = cfg.topology
        params = propagation_params(
            cfg.n, max_out_degree(sched), window_diameter(sched, 1), 1, 3
        )
        for rec in result.records:
            for node in range(cfg.n):
                # every node starts from x0 = 0
                bound = deviation_bound_eval(
                    node, rec.t, params, rec.eta_t, log.fused_norms, x0_norm=0.0
                )
                assert log.node_deviations[rec.t, node] <= bound
