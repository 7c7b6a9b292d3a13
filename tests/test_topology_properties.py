"""Property tests of the index-array topology on random edge arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushdp.topology import (
    COLUMN_SUM_TOL,
    DirectedEdgeSet,
    TopologySchedule,
    build_mixing_matrix,
    max_out_degree,
    _circulant,
    window_diameter,
)
from pushdp.verify import brute_force_window_diameter

MAX_N = 12


@st.composite
def edge_sets(draw, n=None):
    """A DirectedEdgeSet from random (recv, send) arrays, repeats allowed.

    Half of them contain a Hamiltonian cycle through a random node order, so
    strongly connected graphs of every diameter from 1 to n - 1 are drawn
    as well as disconnected ones.
    """
    if n is None:
        n = draw(st.integers(1, MAX_N))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=n * n))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        pairs += [(order[(k + 1) % n], order[k]) for k in range(n)]
    return DirectedEdgeSet(n, [i for i, _ in pairs], [j for _, j in pairs])


@st.composite
def schedules(draw):
    n = draw(st.integers(1, MAX_N))
    sets = draw(st.lists(edge_sets(n), min_size=1, max_size=4))
    return TopologySchedule(kind="explicit-list", n=n, edge_sets=tuple(sets))


@given(edge_sets())
def test_columns_sum_to_one(es):
    P = build_mixing_matrix(es)
    assert np.max(np.abs(P.sum(axis=0) - 1.0)) <= COLUMN_SUM_TOL


@given(edge_sets(), st.lists(st.floats(-1e3, 1e3), min_size=MAX_N, max_size=MAX_N))
def test_mixing_conserves_mass(es, values):
    w = np.array(values[: es.n])
    assert (build_mixing_matrix(es) @ w).sum() == pytest.approx(w.sum(), rel=1e-12, abs=1e-9)


@given(edge_sets())
def test_max_out_degree_is_largest_column_support(es):
    sched = TopologySchedule(kind="explicit-list", n=es.n, edge_sets=(es,))
    P = build_mixing_matrix(es)
    assert max_out_degree(sched) == np.count_nonzero(P, axis=0).max()


@settings(deadline=None)
@given(schedules(), st.integers(1, 4))
def test_window_diameter_agrees_with_floyd_warshall(sched, J):
    assert window_diameter(sched, J) == brute_force_window_diameter(sched, J)


@st.composite
def circulant_offsets(draw):
    """(n, offsets): random offsets on both sides of [0, n), or the j * 2^k
    offsets (j <= n/2) of an exponential-periodic edge set, at any k."""
    n = draw(st.integers(1, 600))
    if draw(st.booleans()):
        return n, np.arange(n // 2 + 1) << draw(st.integers(0, 12))
    return n, np.array(draw(st.lists(st.integers(-3 * n, 5 * n), min_size=1, max_size=40)))


@settings(deadline=None)
@given(circulant_offsets())
def test_circulant_matches_the_mod_formula(case):
    n, offsets = case
    send = np.arange(n)[:, None]
    assert _circulant(n, offsets) == DirectedEdgeSet(n, (send + offsets) % n, send)
