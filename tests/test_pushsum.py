import numpy as np
import pytest

from pushdp.engine import run
from pushdp.errors import NumericalBreakdownError
from pushdp.pushsum import (
    NodeState,
    RunHistory,
    consensus_error,
    deviation_bound_eval,
    initial_states,
    local_half_step,
    mix_round,
)
from pushdp.topology import (
    PropagationParams,
    TopologySchedule,
    build_mixing_matrix,
    max_out_degree,
    propagation_params,
    topology_at,
    window_diameter,
)

from conftest import make_config


def ring_matrix(n, k=1):
    return build_mixing_matrix(topology_at(TopologySchedule(kind="static-ring", n=n, k=k), 0))


class TestHalfStep:
    def test_zero_gradient(self):
        s = NodeState(node_id=0, x=np.array([1.0, 2.0]))
        out = local_half_step(s, np.zeros(2), 0.1)
        assert np.array_equal(out.x, s.x)

    def test_arithmetic(self):
        s = NodeState(node_id=0, x=np.array([1.0, 1.0]))
        out = local_half_step(s, np.array([1.0, -1.0]), 0.5)
        assert np.array_equal(out.x, [0.5, 1.5])
        assert out.w == s.w and np.array_equal(out.z, s.z)

    def test_purity(self):
        s = NodeState(node_id=0, x=np.array([3.0]))
        a = local_half_step(s, np.array([1.0]), 0.25)
        b = local_half_step(s, np.array([1.0]), 0.25)
        assert np.array_equal(a.x, b.x) and np.array_equal(s.x, [3.0])


class TestMixRound:
    def test_symmetric_pair_averages_in_one_step(self):
        P = np.full((2, 2), 0.5)
        states = [NodeState(0, np.array([0.0])), NodeState(1, np.array([2.0]))]
        out = mix_round(states, P)
        assert all(np.array_equal(s.x, [1.0]) for s in out)
        assert all(s.w == 1.0 for s in out)
        assert all(np.array_equal(s.z, [1.0]) for s in out)
        assert consensus_error(out) == 0.0

    def test_identity_matrix_noop(self):
        states = [NodeState(0, np.array([1.0])), NodeState(1, np.array([5.0]))]
        out = mix_round(states, np.eye(2))
        for before, after in zip(states, out):
            assert np.array_equal(before.x, after.x) and before.w == after.w

    def test_directed_ring_conserves_and_reaches_consensus(self):
        P = ring_matrix(3)
        states = [
            NodeState(0, np.array([3.0])),
            NodeState(1, np.array([0.0])),
            NodeState(2, np.array([0.0])),
        ]
        out = mix_round(states, P)
        assert sum(s.x[0] for s in out) == pytest.approx(3.0, rel=1e-12)
        assert sum(s.w for s in out) == pytest.approx(3.0, rel=1e-12)
        states = out
        for _ in range(59):
            states = mix_round(states, P)
        # power-iteration limit: z -> average of the initial x
        assert max(abs(s.z[0] - 1.0) for s in states) < 1e-8

    def test_mass_conserved_every_round(self, rng):
        P = ring_matrix(8, k=2)
        states = initial_states(8, np.zeros(2))
        for s in states:
            s.x = rng.normal(size=2)
        total_x = sum(s.x.sum() for s in states)
        for _ in range(200):
            states = mix_round(states, P)
            assert sum(s.w for s in states) == pytest.approx(8.0, rel=1e-10)
            assert sum(s.x.sum() for s in states) == pytest.approx(total_x, rel=1e-10)

    def test_doubly_stochastic_keeps_unit_weights(self, rng):
        # complete graph with 1/8 weights is doubly stochastic and binary-exact
        P = ring_matrix(8, k=7)
        states = initial_states(8, np.zeros(3))
        for s in states:
            s.x = rng.normal(size=3)
        for _ in range(50):
            states = mix_round(states, P)
            assert all(s.w == 1.0 for s in states)
            assert all(np.array_equal(s.z, s.x) for s in states)

    def test_weight_positive_guard(self):
        states = [NodeState(0, np.array([1.0])), NodeState(1, np.array([1.0]))]
        bad = np.array([[1.0, 0.0], [-1.0, 1.0]])  # malformed on purpose
        with pytest.raises(NumericalBreakdownError, match="weight"):
            mix_round(states, bad)

    @pytest.mark.parametrize("n", [8, 16])
    def test_consensus_monotone_and_tiny(self, n, rng):
        P = ring_matrix(n, k=2)
        states = initial_states(n, np.zeros(2))
        for s in states:
            s.x = rng.normal(size=2)
        errors = []
        for _ in range(500):
            states = mix_round(states, P)
            errors.append(consensus_error(states))
        assert errors[-1] < 1e-12
        # monotone after burn-in, modulo float dust once the error sits at
        # the representable floor (~1e-32)
        burn_in = 50
        tail = errors[burn_in:]
        assert all(b <= a * (1 + 1e-9) + 1e-30 for a, b in zip(tail, tail[1:]))


class TestDeviationBound:
    def test_all_zero(self):
        params = PropagationParams(lam=0.5, q=0.5, c_bound=2.0, U=2)
        hist = RunHistory(x0_norms=[0.0, 0.0])
        hist.record(0.1, [0.0, 0.0])
        assert deviation_bound_eval(0, 0, params, hist) == 0.0

    def test_decay_term_only(self):
        params = PropagationParams(lam=0.5, q=0.5, c_bound=2.0, U=2)
        hist = RunHistory(x0_norms=[1.0])
        for _ in range(4):
            hist.record(0.1, [0.0])
        assert deviation_bound_eval(0, 3, params, hist) == pytest.approx(0.25, abs=1e-15)

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
        result = run(cfg, master_seed=2)
        sched = cfg.topology
        params = propagation_params(
            cfg.n, max_out_degree(sched), window_diameter(sched, 1), 1, 3
        )
        for t in (5, 20, 49):
            for node in range(cfg.n):
                bound = deviation_bound_eval(node, t, params, result.history)
                assert result.node_deviations[t, node] <= bound
