import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pushdp.errors import OutOfRegimeError
from pushdp.fusion import ClipConfig, noise_factor
from pushdp.models import (
    LogisticModel, MlpModel, dirichlet_partition, make_quadratic_model, make_synthetic, node_sorted,
    row_pass,
)
from pushdp.privacy import LrSchedule, NoiseSchedule, PrivacyBudget
from pushdp.theory import (
    TheoryParams,
    budget_noise_term,
    convergence_bound,
    corollary_regime,
    estimate_theory_params,
    min_iterations,
    noise_sum_M,
    optimal_p,
    schedule_sum_envelope,
)
from pushdp.topology import PropagationParams


class TestOptimalP:
    @pytest.mark.parametrize("s,expected", [(0.2, 0.1), (0.25, 0.0), (0.3, -0.1)])
    def test_quoted_optima(self, s, expected):
        assert optimal_p(s) == pytest.approx(expected, abs=1e-12)

    def test_range_guard(self):
        with pytest.raises(OutOfRegimeError):
            optimal_p(0.0)
        with pytest.raises(OutOfRegimeError):
            optimal_p(0.5)


class TestMinIterations:
    def test_six_terms_individually(self):
        floor = min_iterations(TheoryParams(L=1.0, C=1.0, q=0.0), n=1, p=0.5, K=1.0)
        t = floor.terms
        assert t["4nL^2"] == pytest.approx(4.0)
        assert t["(162nC^2L^2/(1-q^2))^(2/(1+2p))"] == pytest.approx(162.0)
        assert t["(nL^2)^(2/(1+2p))"] == pytest.approx(1.0)
        assert t["n^(2/(1+2p))"] == pytest.approx(1.0)
        assert t["(2K/(nL))^(2/(1+2p))"] == pytest.approx(2.0)
        assert t["(9/sqrt(n))^(4/(3-2p))"] == pytest.approx(81.0)
        assert floor.floor == 162

    def test_network_term_scales_linearly_in_n(self):
        a = min_iterations(TheoryParams(L=2.0), n=4, p=0.5, K=1.0).terms["4nL^2"]
        b = min_iterations(TheoryParams(L=2.0), n=16, p=0.5, K=1.0).terms["4nL^2"]
        assert b == pytest.approx(4.0 * a, rel=0)

    def test_isolated_network_blows_up(self):
        # floor grows without bound as q -> 1, overflowing to the inf sentinel
        floors = [
            min_iterations(TheoryParams(q=q), n=4, p=-0.45, K=1.0).floor
            for q in (0.9, 0.99, 0.999999, 1.0 - 1e-16)
        ]
        assert all(b >= a for a, b in zip(floors, floors[1:]))
        assert math.isinf(floors[-1])
        # exactly degenerate q is rejected by the params type itself
        with pytest.raises(OutOfRegimeError):
            TheoryParams(q=1.0)

    def test_p_guard(self):
        with pytest.raises(OutOfRegimeError, match="p"):
            min_iterations(TheoryParams(), n=4, p=-0.5, K=1.0)

    def test_zero_L_zeroes_its_terms_and_the_floor_is_inf(self):
        # p = 1/2: the exponents are 2/(1+2p) = 1 and 4/(3-2p) = 2
        floor = min_iterations(TheoryParams(L=0.0, C=2.0, q=0.5), n=4, p=0.5, K=1.0)
        assert floor.terms == {
            "4nL^2": 0.0,
            "(162nC^2L^2/(1-q^2))^(2/(1+2p))": 0.0,
            "(nL^2)^(2/(1+2p))": 0.0,
            "n^(2/(1+2p))": 4.0,
            "(2K/(nL))^(2/(1+2p))": math.inf,
            "(9/sqrt(n))^(4/(3-2p))": 20.25,
        }
        assert floor.floor == math.inf


class TestConvergenceBound:
    def test_only_fixed_term_when_error_sources_vanish(self):
        n = 2
        breakdown = convergence_bound(
            TheoryParams(L=1.0, F0=2.0, q=0.5), n,
            schedule=NoiseSchedule(form="power", T=4, s=0.0, K=1.0, tau=1),
            lr=LrSchedule(eta=1.0),
            # epsilon = 1e12 drives the noise moment to ~0
            budgets=[PrivacyBudget(epsilon=1e12, delta=1e-5, sampling_ratio=0.5)] * n,
            G=0.1, h=1.0, upsilon_total=0.0, rho_total=0.0,
        )
        assert breakdown.bias_term == 0.0
        assert breakdown.noise_term < 1e-18
        assert breakdown.fixed_term > 0
        assert breakdown.total == pytest.approx(breakdown.fixed_term)

    def test_spreadsheet_audit(self):
        # independent longhand evaluation of every constant
        n, T, eps, delta, ratio, G, eta, xi = 2, 4, 1.0, math.exp(-1.0), 0.5, 1.0, 1.0, 0.5
        theta, tau = 0.5, 6
        th = TheoryParams(L=1.0, a=1.0, m=1.0, C=1.0, q=0.5, F0=1.0, d=1, x0_norm=1.0)
        upsilon, rho = 0.3, 0.2
        got = convergence_bound(
            th, n,
            schedule=NoiseSchedule(form="power", T=T, s=0.0, K=1.0, tau=tau),
            lr=LrSchedule(eta=eta, xi=xi),
            budgets=[PrivacyBudget(epsilon=eps, delta=delta, sampling_ratio=ratio)] * n,
            G=G, h=noise_factor(theta, tau), upsilon_total=upsilon, rho_total=rho,
        )

        A1 = (6 * 1 * 1.0 + 108 * 1 * 1.0 + 18 * 1 * (1.0 + 3 * 1.0)) / (1 - 0.5) ** 2
        A2 = 6 * 1 * (2 + 9 * 1.0) / (1 - 0.5) ** 2
        A3 = 110 * 1 / (1 - 0.5) ** 2
        h = (1 - theta) / (1 + theta) + 2 * theta ** (2 * tau - 1) / (1 + theta)
        per_node = G**2 * 1.0 * ratio**2 * math.log(1 / delta) / eps**2
        M = eta**2 / n**2 * (n * per_node) * T * T  # alpha = beta = 1
        root = math.sqrt(n * T)
        fixed = (4 * 1.0 + 5 * 1.0 * A1) / root
        noise = 4 * h * 1 * 1.0 * (5 * A2 + 1) * M / root
        bias = (4 + 5 * 1.0 * A3) * (rho + upsilon) / root

        assert got.A1 == pytest.approx(A1, rel=1e-9)
        assert got.A2 == pytest.approx(A2, rel=1e-9)
        assert got.A3 == pytest.approx(A3, rel=1e-9)
        assert got.M == pytest.approx(M, rel=1e-9)
        assert got.h == pytest.approx(h, rel=1e-9)
        assert got.fixed_term == pytest.approx(fixed, rel=1e-9)
        assert got.noise_term == pytest.approx(noise, rel=1e-9)
        assert got.bias_term == pytest.approx(bias, rel=1e-9)
        assert got.total == pytest.approx(fixed + noise + bias, rel=1e-9)

    def test_sqrt_nT_structure(self):
        th = TheoryParams(L=1.0, a=1.0, m=1.0, C=1.0, q=0.5, F0=1.0, x0_norm=1.0)

        def bound(T):
            return convergence_bound(
                th, 2, NoiseSchedule(form="power", T=T, s=0.0, K=1.0, tau=1), LrSchedule(eta=1.0),
                [PrivacyBudget(epsilon=1.0, delta=1e-5, sampling_ratio=0.5)] * 2,
                G=0.1, h=1.0, upsilon_total=0.5, rho_total=0.5,
            )

        b_small, b_large = bound(8), bound(16)
        assert b_large.fixed_term == pytest.approx(b_small.fixed_term / math.sqrt(2), rel=1e-12)
        assert b_large.bias_term == pytest.approx(b_small.bias_term / math.sqrt(2), rel=1e-12)
        # noise term carries M's own T growth on top of the 1/sqrt(nT) shell
        assert b_large.noise_term == pytest.approx(
            b_small.noise_term / math.sqrt(2) * (b_large.M / b_small.M), rel=1e-12
        )

    def test_q_guard(self):
        with pytest.raises(OutOfRegimeError):
            TheoryParams(q=1.2)


class TestCorollaryRegime:
    def budgets(self, n=8):
        return [PrivacyBudget(epsilon=6.0, delta=1e-5, sampling_ratio=0.5) for _ in range(n)]

    def test_labels(self):
        th = TheoryParams(q=0.5, C=1.0, L=1.0)
        h = noise_factor(0.5, 5)
        zero = corollary_regime(0.0, 8, 1000, 0.25, self.budgets(), 0.1, h, th)
        pos = corollary_regime(0.1, 8, 1000, 0.2, self.budgets(), 0.1, h, th)
        neg = corollary_regime(-0.1, 8, 1000, 0.3, self.budgets(), 0.1, h, th)
        assert zero.label == "(log T)^2 / sqrt(nT)"
        assert pos.label == "sqrt(T/n)"
        assert neg.label == "1/(sqrt(n) T^(1/2+2p))"

    def test_ordering_at_large_T(self):
        # evaluated second terms order as p=-0.1 < p=0 < p=+0.1 at T=1e4,
        # both with s tied to p and with s held fixed
        th = TheoryParams(q=0.5, C=1.0, L=1.0)
        h = noise_factor(0.5, 5)
        T = 10_000
        tied = [
            corollary_regime(p, 8, T, 0.25 - p / 2, self.budgets(), 0.1, h, th, a1=1, a2=10, a3=5).value
            for p in (-0.1, 0.0, 0.1)
        ]
        assert tied[0] < tied[1] < tied[2]
        fixed = [
            corollary_regime(p, 8, T, 0.25, self.budgets(), 0.1, h, th, a1=1, a2=10, a3=5).value
            for p in (-0.1, 0.0, 0.1)
        ]
        assert fixed[0] < fixed[1] < fixed[2]

    def test_envelope_closed_forms(self):
        # hand integral: a3*a1^2*(1 + ((T-1+a2)^(1-2s) - a2^(1-2s))/(1-2s))
        S = schedule_sum_envelope(101, 0.2, 1.5, 10.0, 5.0)
        hand = 5.0 * 1.5**2 * (1 + ((110.0**0.6 - 10.0**0.6) / 0.6))
        assert S == pytest.approx(hand, rel=1e-12)
        S_log = schedule_sum_envelope(101, 0.5, 1.0, 10.0, 1.0)
        assert S_log == pytest.approx(1 + math.log(110.0 / 10.0), rel=1e-12)

    def test_p_range_guard(self):
        with pytest.raises(OutOfRegimeError):
            corollary_regime(0.5, 8, 100, 0.25, self.budgets(), 0.1, 1.0, TheoryParams())

    @pytest.mark.parametrize("s, S, H", [
        # S = a3 a1^2 (1 + integral_0^(T-1) dt / (t + a2)^(2s)); H = S / log T at s = 1/2
        (0.5, 12.0 * (1 + math.log(10.9)), 12.0 * (1 + math.log(10.9)) / math.log(100)),
        # and H = S above it; 2s = 3/2 integrates to 2 (a2^-1/2 - (T - 1 + a2)^-1/2)
        (0.75, 12.0 * (1 + 2 * (10**-0.5 - 109**-0.5)), 12.0 * (1 + 2 * (10**-0.5 - 109**-0.5))),
    ])
    def test_envelope_normalization_at_and_above_one_half(self, s, S, H):
        th = TheoryParams(L=2.0, C=1.5, q=0.5, d=3)
        got = corollary_regime(0.0, 4, 100, s, self.budgets(4), 0.1, 0.8, th, a1=2.0, a2=10.0,
                               a3=3.0)
        assert schedule_sum_envelope(100, s, 2.0, 10.0, 3.0) == pytest.approx(S, rel=1e-12)
        # A2 = 6 C^2 (n + 9L) / (1 - q)^2 = 1188 and nu = 16 h d L (3 A2 + 1)
        nu = 16 * 0.8 * 3 * 2.0 * 3565
        bt = 0.1**2 * 0.5**2 * math.log(1e5) / 6.0**2
        assert got.H == pytest.approx(H, rel=1e-12)
        assert got.nu == pytest.approx(nu, rel=1e-12)
        assert got.budget_term == pytest.approx(bt, rel=1e-12)
        assert got.value == pytest.approx(math.log(100) ** 2 / math.sqrt(400) * nu * H**2 * bt,
                                          rel=1e-12)

    def test_budget_term_literal(self):
        buds = [
            PrivacyBudget(epsilon=2.0, delta=1e-5, sampling_ratio=0.5, c2=3.0),
            PrivacyBudget(epsilon=4.0, delta=1e-2, sampling_ratio=0.25, c2=1.0),
        ]
        got = budget_noise_term(buds, 0.1)
        hand = 0.5 * (
            0.1**2 * 9.0 * 0.25 * math.log(1e5) / 4.0
            + 0.1**2 * 1.0 * 0.0625 * math.log(1e2) / 16.0
        )
        assert got == pytest.approx(hand, rel=1e-12)


class TestNoiseSumM:
    def test_constant_schedule_literal(self):
        sched = NoiseSchedule(form="power", T=5, s=0.0, K=1.0)
        lr = LrSchedule(eta=2.0, xi=0.5)
        buds = [PrivacyBudget(epsilon=1.0, delta=math.exp(-1.0), sampling_ratio=0.5)] * 2
        got = noise_sum_M(sched, lr, buds, 1.0, 2)
        # alpha = beta = 1: both sums are T; per-node factor 0.25 each
        hand = 4.0 / 4.0 * (2 * 0.25) * 5 * 5
        assert got == pytest.approx(hand, rel=1e-12)


class TestEstimation:
    def test_quadratic_F0_exact(self):
        model = make_quadratic_model(4, seed=6)
        data = make_synthetic("quadratic", 120, 4, seed=6, spread=0.1)
        data.node_indices = dirichlet_partition(data.labels, 4, 5.0, 6)
        X, y, layout = node_sorted(data)
        prop = PropagationParams(lam=0.9, q=0.3, c_bound=7.0, U=3)
        x0 = np.zeros(4)
        est = estimate_theory_params(
            model, data, (X, y), layout, x0, prop, np.random.default_rng(0), n_probe=3
        )
        # hand solve: occupied nodes cover everything, features centered, so
        # x* = A^-1 b and F0 = f(0) - f(x*) = 0.5 b' A^-1 b
        x_star = np.linalg.solve(model.A, model.b)
        hand_F0 = 0.5 * model.b @ x_star
        assert est.F0 == pytest.approx(hand_F0, rel=1e-9)
        assert est.a >= 0 and est.m >= est.a * 0  # finite, non-negative
        assert est.C == prop.c_bound and est.q == prop.q

    @staticmethod
    def _problem(kind, seed=6):
        """A small problem of each model kind, split over 4 nodes, and its
        node-sorted rows."""
        if kind == "quadratic":
            model, data = make_quadratic_model(4, seed=seed), make_synthetic("quadratic", 120, 4, seed)
        elif kind == "logistic":
            model, data = LogisticModel(n_features=4, l2=0.05), make_synthetic("blobs", 120, 4, seed)
        else:
            model = MlpModel(n_features=3, hidden=5, classes=3)
            data = make_synthetic("blobs", 120, 3, seed, classes=3)
        data.node_indices = dirichlet_partition(data.labels, 4, 1.0, seed)
        X, y, layout = node_sorted(data)
        return model, data, (X, y), layout

    @pytest.mark.parametrize("kind, grad_passes, loss_passes",
                             [("quadratic", 4, 1), ("logistic", 4, 0), ("mlp", 8, 0)])
    def test_model_passes(self, kind, grad_passes, loss_passes, monkeypatch):
        # one pass per probe (the first at x0 also gives f(x0)), plus the MLP's
        # pass per probe for its empirical L and the quadratic's loss at x*
        model, data, batch, layout = self._problem(kind)
        passes, rows = [], type(model).rows

        def counted(self, params, X, y, grad=True, **kwargs):
            passes.append(grad)
            return rows(self, params, X, y, grad, **kwargs)

        monkeypatch.setattr(type(model), "rows", counted)
        estimate_theory_params(model, data, batch, layout, np.zeros(model.dim),
                               PropagationParams(lam=0.9, q=0.3, c_bound=7.0, U=3),
                               np.random.default_rng(0), n_probe=3)
        assert (passes.count(True), passes.count(False)) == (grad_passes, loss_passes)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["logistic", "mlp"]), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.0, 50.0))
    @example(kind="logistic", seed=39916799, scale=39.0)  # margins below -709 at x0
    def test_F0_is_f_x0_for_non_negative_losses(self, kind, seed, scale):
        # the certificate's premise: every row loss and the regulariser are
        # >= 0, so f* >= 0 and f(x0) bounds f(x0) - f*
        model, data, batch, layout = self._problem(kind, seed)
        x0 = np.random.default_rng(seed).normal(scale=scale, size=model.dim)
        rows = row_pass(model, x0, (data.features, data.labels), grad=False)
        assert rows.losses.min() >= 0.0 and rows.reg >= 0.0
        est = estimate_theory_params(model, data, batch, layout, x0,
                                     PropagationParams(lam=0.9, q=0.3, c_bound=7.0, U=3),
                                     np.random.default_rng(0), n_probe=1)
        assert est.F0 == pytest.approx(rows.loss(), rel=1e-12)

    def test_quadratic_a_and_m_are_exact(self, rng):
        # row j's gradient is Ax - b + c_j, so the deviations c_j - mean c,
        # and the probe maxima a and m built from them, do not depend on x
        model, data, batch, layout = self._problem("quadratic")

        def deviations(x):
            rows = row_pass(model, x, (data.features, data.labels))
            return rows.dev_sq(rows.grad())

        x = rng.normal(scale=3.0, size=model.dim)
        assert deviations(x) == pytest.approx(deviations(np.zeros(model.dim)), rel=1e-12)
        prop = PropagationParams(lam=0.9, q=0.3, c_bound=7.0, U=3)
        at_x0, probed = (estimate_theory_params(model, data, batch, layout, np.zeros(model.dim),
                                                prop, np.random.default_rng(0), n_probe=k)
                         for k in (0, 8))
        assert probed.a == pytest.approx(at_x0.a, rel=1e-12)
        assert probed.m == pytest.approx(at_x0.m, rel=1e-12)
