import numpy as np
import pytest

from pushdp.errors import ConfigurationError, OutOfRegimeError
from pushdp.topology import (
    DirectedEdgeSet,
    TopologySchedule,
    build_mixing_matrix,
    load_edge_list,
    max_out_degree,
    propagation_params,
    topology_at,
    window_diameter,
)
from pushdp.verify import brute_force_window_diameter, random_explicit_schedule


def ring(n, k=1):
    return TopologySchedule(kind="static-ring", n=n, k=k)


def edge_set(n, pairs):
    """Edge set from (receiver, sender) pairs."""
    return DirectedEdgeSet(n, [i for i, _ in pairs], [j for _, j in pairs])


class TestEdgeSet:
    def test_self_loops_added(self):
        es = edge_set(3, {(0, 1)})
        assert {(0, 0), (1, 1), (2, 2), (0, 1)} == set(es.pairs())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            edge_set(2, {(0, 5)})


class TestMixingMatrix:
    def test_symmetric_complete_pair(self):
        es = edge_set(2, {(0, 0), (1, 1), (0, 1), (1, 0)})
        P = build_mixing_matrix(es)
        assert np.allclose(P, [[0.5, 0.5], [0.5, 0.5]], atol=0)

    def test_directed_ring_column(self):
        # node 0 sends to itself and node 1: its column splits 1/2 each
        P = build_mixing_matrix(topology_at(ring(3), 0))
        assert P[:, 0] == pytest.approx([0.5, 0.5, 0.0], abs=0)

    def test_exponential_step_one_columns(self):
        # at t % 3 == 0 the out-set of i is {i, i+1, i+2, i+3}: four 0.25 entries
        expo = TopologySchedule(kind="exponential-periodic", n=8)
        P = build_mixing_matrix(topology_at(expo, 3))
        for j in range(8):
            rows = np.flatnonzero(P[:, j])
            assert sorted(rows) == sorted((j + off) % 8 for off in range(4))
            assert np.all(P[rows, j] == 0.25)

    def test_columns_sum_to_one_across_kinds(self):
        schedules = [
            ring(8, k=2),
            TopologySchedule(kind="exponential-periodic", n=16),
            random_explicit_schedule(np.random.default_rng(0), 5, 4),
        ]
        for sched in schedules:
            for t in range(12):
                P = build_mixing_matrix(topology_at(sched, t))
                assert np.max(np.abs(P.sum(axis=0) - 1.0)) <= 1e-12

    def test_mass_conservation_under_mixing(self, rng):
        P = build_mixing_matrix(topology_at(ring(6, k=2), 0))
        v = rng.normal(size=6)
        assert (P @ v).sum() == pytest.approx(v.sum(), rel=1e-10)


class TestTopologyAt:
    def test_static_ring_k2_receivers(self):
        es = topology_at(ring(8, k=2), t=17)
        for i in range(8):
            assert {j for (r, j) in es.pairs() if r == i} == {i, (i - 1) % 8, (i - 2) % 8}

    def test_exponential_step_two_out_set(self):
        expo = TopologySchedule(kind="exponential-periodic", n=8)
        es = topology_at(expo, 1)
        assert sorted(i for (i, s) in es.pairs() if s == 0) == [0, 2, 4, 6]

    def test_explicit_list_is_cycled(self):
        single = edge_set(3, {(1, 0)})
        sched = TopologySchedule(kind="explicit-list", n=3, edge_sets=(single,))
        assert topology_at(sched, 0) == topology_at(sched, 99) == single

    def test_pure_function(self):
        expo = TopologySchedule(kind="exponential-periodic", n=8)
        assert topology_at(expo, 4).pairs() == topology_at(expo, 4).pairs()

    def test_power_of_two_required(self):
        with pytest.raises(ConfigurationError, match="power-of-2"):
            TopologySchedule(kind="exponential-periodic", n=6)


class TestConnectivity:
    def test_ring_single_window(self):
        # offsets 1 and 2 per hop: the farthest node, 7 ahead, takes 4 hops
        assert window_diameter(ring(8, k=2), 1) == 4

    def test_disjoint_cliques_unsatisfied(self):
        clique = (
            [(i, j) for i in range(4) for j in range(4)]
            + [(i, j) for i in range(4, 8) for j in range(4, 8)]
        )
        sched = TopologySchedule(
            kind="explicit-list", n=8, edge_sets=(edge_set(8, clique),)
        )
        assert window_diameter(sched, 2) is None

    def test_exponential_period_window_diameter_two(self):
        # direct offsets over one period are {1,2,3,4,6}: offsets 5 and 7
        # take two hops
        expo = TopologySchedule(kind="exponential-periodic", n=8)
        assert window_diameter(expo, 3) == 2

    def test_agrees_with_floyd_warshall_oracle(self):
        rng = np.random.default_rng(42)
        finite = []
        for _ in range(80):
            n = int(rng.integers(2, 7))
            sched = random_explicit_schedule(rng, n, int(rng.integers(1, 6)))
            J = int(rng.integers(1, 5))
            expected = brute_force_window_diameter(sched, J)
            assert window_diameter(sched, J) == expected
            finite += [] if expected is None else [expected]
        # most cases must compare finite diameters, and not only short ones
        assert len(finite) >= 40 and max(finite) >= 3


class TestPropagationParams:
    def test_ring_example_values(self):
        pp = propagation_params(n=8, U=3, kappa=2, J=1, d=1)
        assert pp.lam == pytest.approx(1.0 - 8.0 / 9.0, abs=1e-12)
        assert pp.q == pytest.approx((1.0 / 9.0) ** (1.0 / 3.0), abs=1e-12)
        assert pp.c_bound == pytest.approx(2.0 * 9.0 / (1.0 / 9.0) ** (4.0 / 3.0), rel=1e-12)

    def test_boundary_lambda_zero(self):
        with pytest.raises(OutOfRegimeError, match="lambda"):
            propagation_params(n=1, U=1, kappa=1, J=1, d=1)

    def test_negative_lambda_named(self):
        with pytest.raises(OutOfRegimeError, match="U\\^\\(kappa\\*J\\) > n"):
            propagation_params(n=8, U=2, kappa=2, J=1, d=1)

    def test_q_rounding_to_one_is_out_of_regime(self):
        # n*U^(-kappa*J) = 64 * 32^-12 vanishes next to 1, so lambda = q = 1.0
        with pytest.raises(OutOfRegimeError, match="rounds to 1"):
            propagation_params(n=64, U=32, kappa=2, J=6, d=6)


class TestEdgeListFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n0<1 1<2\n2<0\n")
        sched = load_edge_list(path, n=3)
        assert sched.period() == 2
        first = topology_at(sched, 0)
        assert (0, 1) in first.pairs() and (1, 2) in first.pairs()
        assert all((i, i) in first.pairs() for i in range(3))
        assert (2, 0) in topology_at(sched, 1).pairs()

    def test_bad_token(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0-1\n")
        with pytest.raises(ConfigurationError, match="bad edge token"):
            load_edge_list(path, n=2)


def test_max_out_degree_ring():
    assert max_out_degree(ring(8, k=2)) == 3
    assert max_out_degree(TopologySchedule(kind="exponential-periodic", n=8)) == 4


@pytest.mark.parametrize("sched", [ring(8, k=2), TopologySchedule(kind="exponential-periodic", n=16)])
def test_period_edge_sets_built_once(sched):
    for t in range(2 * sched.period()):
        assert topology_at(sched, t) is topology_at(sched, t + sched.period())


def old_ring_pairs(n, k):
    """The set-comprehension definition the index arrays replaced."""
    return {(i, (i - m) % n) for i in range(n) for m in range(1, k + 1)}


def old_expo_pairs(n, t):
    step = 2 ** (t % int(np.log2(n)))
    return {((i + j * step) % n, i) for i in range(n) for j in range(n // 2)}


def per_column_matrix(n, pairs):
    """Column j gets 1/len(outs) at each out-neighbor, one column at a time."""
    P = np.zeros((n, n))
    for j in range(n):
        outs = sorted(i for (i, s) in pairs if s == j)
        P[outs, j] = 1.0 / len(outs)
    return P


SET_DEFINITION_CASES = [
    (ring(n, k), 0, old_ring_pairs(n, k)) for n in (2, 3, 8, 16) for k in sorted({1, 2, n - 1}) if k < n
] + [
    (TopologySchedule(kind="exponential-periodic", n=n), t, old_expo_pairs(n, t))
    for n in (2, 8, 64)
    for t in range(int(np.log2(n)))
]


@pytest.mark.parametrize("sched, t, old_pairs", SET_DEFINITION_CASES)
def test_index_arrays_match_set_definition(sched, t, old_pairs):
    n = sched.n
    es = topology_at(sched, t)
    expected = old_pairs | {(i, i) for i in range(n)}
    assert es.pairs() == expected and len(es.recv) == len(expected)
    keys = es.recv * n + es.send
    assert np.all(np.diff(keys) > 0)  # sorted by (recv, send), no repeats
    assert np.array_equal(build_mixing_matrix(es), per_column_matrix(n, expected))
