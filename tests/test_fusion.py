import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pushdp.fusion import (
    ClipConfig,
    clip,
    decay_threshold,
    fuse,
    noise_factor,
    perturb,
    select_tau,
    staleness_bound,
)
from pushdp.privacy import NoiseSchedule, alpha_at, starts_interval
from pushdp.verify import simulate_fused_noise


class TestClip:
    def test_on_boundary_untouched(self):
        clipped, residual_sq = clip(np.array([[0.06, 0.08]]), 0.1)
        assert np.array_equal(clipped, [[0.06, 0.08]])
        assert np.array_equal(residual_sq, [0.0])

    def test_scaled_with_residual(self):
        clipped, residual_sq = clip(np.array([[0.3, 0.4]]), 0.1)
        assert clipped[0] == pytest.approx([0.06, 0.08], abs=1e-15)
        # removed part is (0.24, 0.32), squared norm 0.16
        assert residual_sq[0] == pytest.approx(0.16, rel=1e-12)

    def test_zero_vector(self):
        clipped, residual_sq = clip(np.zeros((1, 3)), 0.5)
        assert np.array_equal(clipped, np.zeros((1, 3)))
        assert np.array_equal(residual_sq, [0.0])

    def test_rows_match_scalar_formula(self, rng):
        # a clipped row, a zero row and an unclipped row, then 256 random
        # rows, each against factor = min(1, G/||g||) and r * r with
        # r = (1 - factor) * ||g||, squared as clip squares (a scalar ** 2
        # goes through pow() and differs in the last bit on some rows)
        G = 0.5
        g = np.stack([rng.normal(size=4) * 3.0, np.zeros(4), np.full(4, 0.1)])
        clipped, residual_sq = clip(g, G)
        assert np.linalg.norm(clipped[0]) == pytest.approx(G, rel=1e-12)
        assert residual_sq[0] > 0 and residual_sq[1] == residual_sq[2] == 0.0
        for rows in (g, np.random.default_rng(0).normal(size=(256, 6))):
            clipped, residual_sq = clip(rows, G)
            for row, out, res in zip(rows, clipped, residual_sq):
                norm = np.linalg.norm(row)
                factor = min(1.0, G / norm) if norm > 0 else 1.0
                r = (1.0 - factor) * norm
                assert np.array_equal(out, factor * row)
                assert res == r * r

    def test_norm_never_exceeds_threshold(self, rng):
        for _ in range(300):
            g = rng.normal(size=(1, rng.integers(1, 8))) * rng.uniform(0, 10)
            G = rng.uniform(0.01, 2.0)
            (clipped,), (residual_sq,) = clip(g, G)
            g = g[0]
            assert np.linalg.norm(clipped) <= G + 1e-12
            if np.linalg.norm(g) <= G:
                assert np.array_equal(clipped, g)
                assert residual_sq == 0.0
            else:
                # direction preserved
                cos = g @ clipped / (np.linalg.norm(g) * np.linalg.norm(clipped))
                assert cos == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("G", [0.0, -1.0, np.inf, np.nan])
    def test_threshold_must_be_finite_and_positive(self, G):
        # G / max(norm, G) is 1 on an unclipped row only for a finite G
        with pytest.raises(ValueError, match="finite and > 0"):
            clip(np.ones((1, 2)), G)


def _rows(seed, m, d, scale, layout, zero_rows=(), inf_entries=()):
    """An (m, d) array of normal rows times scale, with the given rows zeroed
    and +-inf at the given (row, column) pairs, laid out C-ordered,
    F-ordered or as every other column of a wider array."""
    g = np.random.default_rng(seed).normal(size=(m, d)) * scale
    g[[r % m for r in zero_rows]] = 0.0
    for k, (r, c) in enumerate(inf_entries):
        g[r % m, c % d] = np.inf if k % 2 else -np.inf
    if layout == "F":
        return np.asfortranarray(g)
    if layout == "strided":
        wide = np.zeros((m, 2 * d))
        wide[:, ::2] = g
        return wide[:, ::2]
    return g


@st.composite
def clip_cases(draw):
    m, d = draw(st.integers(1, 40)), draw(st.sampled_from([1, 2, 3, 6, 17, 64, 1539]))
    scale = 10.0 ** draw(st.integers(-200, 200))
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, d - 1))
    g = _rows(draw(st.integers(0, 2**32 - 1)), m, d, scale,
              draw(st.sampled_from(["C", "F", "strided"])),
              draw(st.lists(st.integers(0, m - 1), max_size=3)), draw(st.lists(cells, max_size=3)))
    return g, scale * 10.0 ** draw(st.floats(-3.0, 1.0))


def _same_bits(got, want):
    return np.array_equal(np.asarray(got, dtype=float).view(np.uint64),
                          np.asarray(want, dtype=float).view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(case=clip_cases())
@example(case=(_rows(0, 256, 6, 1.0, "F"), 0.5))
@example(case=(_rows(1, 256, 6, 1.0, "strided"), 0.5))
@example(case=(_rows(2, 64, 1539, 1e-3, "F", zero_rows=(5,), inf_entries=((7, 9),)), 1e-3))
@example(case=(np.array([[3.0, 4.0]]), 5.0))  # the norm is G exactly
@example(case=(np.array([[np.nan, 1.0], [0.3, 0.4]]), 0.1))  # a NaN row
@example(case=(np.array([[0.0, 0.0], [3.0, 4.0]]), 0.5))  # a zero row by a clipped row
def test_clip_is_the_per_row_norm_formula_bit_for_bit(case):
    # clip against each row's own 1-D np.linalg.norm and the scalar formula,
    # whatever the memory layout of g: without clip's C-order copy, F-ordered
    # and strided rows take vecdot's strided loop.  Overflow and inf * 0 stay
    # silent here.
    # The residual is squared by a product, as numpy's array ** 2 does: the
    # scalar float64 ** 2 goes through pow() and can differ in the last bit.
    g, G = case
    with np.errstate(all="ignore"):
        clipped, residual_sq = clip(g, G)
        for row, out, res in zip(g, clipped, residual_sq):
            norm = np.linalg.norm(row)
            factor = min(1.0, G / norm) if norm > 0 else 1.0
            removed = (1.0 - factor) * norm
            assert _same_bits(out, factor * row)
            assert _same_bits(res, removed * removed)


class TestDecay:
    def test_single_step(self):
        assert decay_threshold(ClipConfig(g0=0.1, psi=0.99), 0.1) == pytest.approx(0.099)

    def test_identity_at_one(self):
        assert decay_threshold(ClipConfig(g0=0.1, psi=1.0), 0.07) == 0.07

    def test_hundred_steps(self):
        cfg = ClipConfig(g0=0.1, psi=0.99)
        G = 0.1
        for _ in range(100):
            G = decay_threshold(cfg, G)
        assert G == pytest.approx(0.1 * 0.99**100, rel=1e-12)
        assert G == pytest.approx(0.036603234, abs=1e-9)


class TestPerturb:
    def test_sigma_zero_exact(self):
        # a node with sigma = 0 draws no noise and has a zero noise row
        g = np.array([1.0, -2.0])
        out = perturb(g, 3.0, np.zeros(2))
        assert np.array_equal(out, g)

    def test_seed_determinism(self):
        g = np.zeros(3)
        a = perturb(g, 2.0, np.random.default_rng(123).normal(0.0, 0.5, size=3))
        b = perturb(g, 2.0, np.random.default_rng(123).normal(0.0, 0.5, size=3))
        assert np.array_equal(a, b)

    def test_monte_carlo_variance(self):
        # per-coordinate variance of multiplier*noise is (2 * 0.5)^2 = 1
        noise = np.random.default_rng(99).normal(0.0, 0.5, size=1_000_000)
        out = perturb(np.zeros(1_000_000), 2.0, noise)
        assert abs(np.var(out) - 1.0) < 0.005


class TestFuse:
    def test_theta_zero_passthrough(self):
        noisy = np.array([2.0])
        assert fuse(noisy, np.array([5.0]), 0.0) == pytest.approx([2.0], abs=0)

    def test_t_zero_passthrough(self):
        # the engine passes prev=None at t = 0, where the first interval starts
        assert starts_interval(NoiseSchedule(form="stepwise", T=10, s=0.2, tau=5), 0)
        out = fuse(np.array([2.0]), None, 0.9)
        assert np.array_equal(out, [2.0])

    def test_convex_combination(self):
        out = fuse(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        assert out == pytest.approx([0.5, 0.5], abs=0)

    def test_alpha_change_resets(self):
        # alpha(T - t) steps from alpha(6) to alpha(5) at t = 5 (T = 10, tau = 3),
        # so t = 5 starts an interval and the engine passes prev=None
        sched = NoiseSchedule(form="stepwise", T=10, s=0.2, tau=3, a1=1.0, a2=10.0)
        assert alpha_at(sched, 6) != alpha_at(sched, 5)
        assert starts_interval(sched, 5) and not starts_interval(sched, 4)
        out = fuse(np.array([1.0]), None, 0.5)
        assert np.array_equal(out, [1.0])

    def test_boundary_structure_against_schedule(self):
        # the step right after alpha(T-t) changes value must pass through
        T, tau = 40, 5
        sched = NoiseSchedule(form="stepwise", T=T, s=0.2, tau=tau, a1=1.0, a2=10.0)
        rng = np.random.default_rng(5)
        out = None
        for t in range(T):
            noisy = rng.normal(size=2)
            new_interval = starts_interval(sched, t)
            # the multiplier steps whenever T - t + 1 crosses a tau multiple
            assert new_interval == (t == 0 or (T - t + 1) % tau == 0)
            out = fuse(noisy, None if new_interval else out, 0.7)
            if new_interval:
                assert np.array_equal(out, noisy)
            else:
                assert not np.array_equal(out, noisy)
        boundaries = [t for t in range(1, T) if alpha_at(sched, T - t) != alpha_at(sched, T - t + 1)]
        assert boundaries == [t for t in range(1, T) if (T - t + 1) % tau == 0]


class TestNoiseFactor:
    def test_theta_zero_is_one(self):
        for tau in (1, 2, 9):
            assert noise_factor(0.0, tau) == 1.0

    def test_tau_one_is_one(self):
        for theta in (0.1, 0.5, 0.77):
            assert abs(noise_factor(theta, 1) - 1.0) <= 4 * np.finfo(float).eps

    def test_half_six(self):
        expected = (1 - 0.5) / 1.5 + 2 * 0.5**11 / 1.5
        assert noise_factor(0.5, 6) == pytest.approx(expected, abs=1e-15)
        assert noise_factor(0.5, 6) == pytest.approx(0.333984375, abs=1e-9)

    def test_decreasing_in_tau_with_floor(self):
        for theta in (0.3, 0.5, 0.7, 0.9):
            floor = (1 - theta) / (1 + theta)
            values = [noise_factor(theta, tau) for tau in range(1, 30)]
            assert all(b <= a for a, b in zip(values, values[1:]))
            assert all(v >= floor for v in values)


class TestStalenessBound:
    def test_zero_cap(self):
        assert staleness_bound(0.5, 6, 0.0) == 0.0

    def test_half_six_value(self):
        assert staleness_bound(0.5, 6, 0.01) == pytest.approx(0.00333984375, rel=1e-9)

    def test_tau_one_identity(self):
        assert staleness_bound(0.42, 1, 0.37) == pytest.approx(0.37, rel=1e-15)


class TestSelectTau:
    def test_examples_by_scan(self):
        # independent scan oracle: first tau with h - floor < tol
        def oracle(theta, tol):
            tau = 1
            while True:
                h = (1 - theta) / (1 + theta) + 2 * theta ** (2 * tau - 1) / (1 + theta)
                if h - (1 - theta) / (1 + theta) < tol:
                    return tau
                tau += 1

        for theta, expected in ((0.5, 5), (0.3, 3), (0.7, 8)):
            assert select_tau(theta, 0.01) == expected == oracle(theta, 0.01)

    def test_vanishing_theta(self):
        assert select_tau(0.0, 0.01) == 1
        assert select_tau(1e-9, 0.01) == 1


class TestFusedNoiseMonteCarlo:
    @pytest.mark.parametrize("theta,tau", [(0.3, 2), (0.5, 6), (0.7, 12)])
    def test_chain_matches_h(self, theta, tau):
        h = noise_factor(theta, tau)
        measured = simulate_fused_noise(theta, tau, trials=200_000, seed=31)
        assert abs(measured - h) <= 0.02 * h

    def test_scaled_multiplier_normalizes_out(self):
        h = noise_factor(0.5, 4)
        measured = simulate_fused_noise(0.5, 4, trials=200_000, seed=8, alpha=2.5, sigma=0.3)
        assert abs(measured - h) <= 0.02 * h


class TestStalenessMonteCarlo:
    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("tau", [2, 4, 6, 12])
    def test_mixture_under_bound(self, theta, tau):
        # clean clipped-gradient stream whose pairwise in-interval drift is
        # at most sqrt(d_tau): base + (sqrt(d_tau)/2) * random unit vectors
        d_tau, dim, trials = 0.04, 16, 10_000
        rng = np.random.default_rng(1000 + int(10 * theta) + tau)
        base = rng.normal(size=dim)
        bound = staleness_bound(theta, tau, d_tau)
        deviations = np.empty(trials)
        for trial in range(trials):
            u = rng.normal(size=(tau, dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            stream = base + 0.5 * math.sqrt(d_tau) * u
            fused = None  # the interval starts at k = 0
            for k in range(tau):
                fused = fuse(stream[k], fused, theta)
            deviations[trial] = np.sum((fused - stream[-1]) ** 2)
        assert deviations.mean() <= bound * 1.05
