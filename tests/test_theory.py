import math

import numpy as np
import pytest

from pushdp.errors import OutOfRegimeError
from pushdp.fusion import ClipConfig, noise_factor
from pushdp.models import PartitionSpec, dirichlet_partition, make_quadratic_model, make_synthetic
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

from conftest import make_config


def theory(L=1.0, a=0.0, m=0.0, C=1.0, q=0.0, F0=0.0, d=1, x0_norm=0.0):
    return TheoryParams(L=L, a=a, m=m, C=C, q=q, F0=F0, d=d, x0_norm=x0_norm)


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
        floor = min_iterations(theory(L=1.0, C=1.0, q=0.0), n=1, p=0.5, K=1.0)
        t = floor.terms
        assert t["4nL^2"] == pytest.approx(4.0)
        assert t["(162nC^2L^2/(1-q^2))^(2/(1+2p))"] == pytest.approx(162.0)
        assert t["(nL^2)^(2/(1+2p))"] == pytest.approx(1.0)
        assert t["n^(2/(1+2p))"] == pytest.approx(1.0)
        assert t["(2K/(nL))^(2/(1+2p))"] == pytest.approx(2.0)
        assert t["(9/sqrt(n))^(4/(3-2p))"] == pytest.approx(81.0)
        assert floor.floor == 162

    def test_network_term_scales_linearly_in_n(self):
        a = min_iterations(theory(L=2.0), n=4, p=0.5, K=1.0).terms["4nL^2"]
        b = min_iterations(theory(L=2.0), n=16, p=0.5, K=1.0).terms["4nL^2"]
        assert b == pytest.approx(4.0 * a, rel=0)

    def test_isolated_network_blows_up(self):
        # floor grows without bound as q -> 1, overflowing to the inf sentinel
        floors = [
            min_iterations(theory(q=q), n=4, p=-0.45, K=1.0).floor
            for q in (0.9, 0.99, 0.999999, 1.0 - 1e-16)
        ]
        assert all(b >= a for a, b in zip(floors, floors[1:]))
        assert math.isinf(floors[-1])
        # exactly degenerate q is rejected by the params type itself
        with pytest.raises(OutOfRegimeError):
            theory(q=1.0)

    def test_p_guard(self):
        with pytest.raises(OutOfRegimeError, match="p"):
            min_iterations(theory(), n=4, p=-0.5, K=1.0)


class TestConvergenceBound:
    def test_only_fixed_term_when_error_sources_vanish(self):
        cfg = make_config(
            n=2, T=4, tau=1, theta=0.0,
            noise=NoiseSchedule(form="power", T=4, s=0.0, K=1.0, tau=1),
            epsilon=1e12,  # drives the noise moment to ~0
        )
        breakdown = convergence_bound(theory(L=1.0, F0=2.0, q=0.5), cfg, 0.0, 0.0)
        assert breakdown.bias_term == 0.0
        assert breakdown.noise_term < 1e-18
        assert breakdown.fixed_term > 0
        assert breakdown.total == pytest.approx(breakdown.fixed_term)

    def test_spreadsheet_audit(self):
        # independent longhand evaluation of every constant
        n, T, eps, delta, ratio, G, eta, xi = 2, 4, 1.0, math.exp(-1.0), 0.5, 1.0, 1.0, 0.5
        cfg = make_config(
            n=n, T=T, tau=6, theta=0.5,
            noise=NoiseSchedule(form="power", T=T, s=0.0, K=1.0, tau=6),
            lr=LrSchedule(eta_base=eta, xi=xi),
            budgets=[PrivacyBudget(epsilon=eps, delta=delta, sampling_ratio=ratio) for _ in range(n)],
            clip=ClipConfig(g0=1.0, psi=1.0),
        )
        th = theory(L=1.0, a=1.0, m=1.0, C=1.0, q=0.5, F0=1.0, d=1, x0_norm=1.0)
        upsilon, rho = 0.3, 0.2
        got = convergence_bound(th, cfg, upsilon, rho)

        A1 = (6 * 1 * 1.0 + 108 * 1 * 1.0 + 18 * 1 * (1.0 + 3 * 1.0)) / (1 - 0.5) ** 2
        A2 = 6 * 1 * (2 + 9 * 1.0) / (1 - 0.5) ** 2
        A3 = 110 * 1 / (1 - 0.5) ** 2
        h = (1 - 0.5) / (1 + 0.5) + 2 * 0.5 ** (2 * cfg.fusion.tau - 1) / (1 + 0.5)
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
        th = theory(L=1.0, a=1.0, m=1.0, C=1.0, q=0.5, F0=1.0, x0_norm=1.0)
        small = make_config(
            n=2, T=8, tau=1, theta=0.0,
            noise=NoiseSchedule(form="power", T=8, s=0.0, K=1.0, tau=1),
        )
        large = make_config(
            n=2, T=16, tau=1, theta=0.0,
            noise=NoiseSchedule(form="power", T=16, s=0.0, K=1.0, tau=1),
        )
        b_small = convergence_bound(th, small, 0.5, 0.5)
        b_large = convergence_bound(th, large, 0.5, 0.5)
        assert b_large.fixed_term == pytest.approx(b_small.fixed_term / math.sqrt(2), rel=1e-12)
        assert b_large.bias_term == pytest.approx(b_small.bias_term / math.sqrt(2), rel=1e-12)
        # noise term carries M's own T growth on top of the 1/sqrt(nT) shell
        assert b_large.noise_term == pytest.approx(
            b_small.noise_term / math.sqrt(2) * (b_large.M / b_small.M), rel=1e-12
        )

    def test_q_guard(self):
        with pytest.raises(OutOfRegimeError):
            theory(q=1.2)


class TestCorollaryRegime:
    def budgets(self, n=8):
        return [PrivacyBudget(epsilon=6.0, delta=1e-5, sampling_ratio=0.5) for _ in range(n)]

    def test_labels(self):
        th = theory(q=0.5, C=1.0, L=1.0)
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
        th = theory(q=0.5, C=1.0, L=1.0)
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
            corollary_regime(0.5, 8, 100, 0.25, self.budgets(), 0.1, 1.0, theory())

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
        lr = LrSchedule(eta_base=2.0, xi=0.5)
        buds = [PrivacyBudget(epsilon=1.0, delta=math.exp(-1.0), sampling_ratio=0.5)] * 2
        got = noise_sum_M(sched, lr, buds, 1.0, 2)
        # alpha = beta = 1: both sums are T; per-node factor 0.25 each
        hand = 4.0 / 4.0 * (2 * 0.25) * 5 * 5
        assert got == pytest.approx(hand, rel=1e-12)


class TestEstimation:
    def test_quadratic_F0_exact(self):
        model = make_quadratic_model(4, seed=6)
        data = make_synthetic("quadratic", 120, 4, seed=6, spread=0.1)
        parts = dirichlet_partition(data.labels, PartitionSpec(alpha_conc=5.0, n=4, seed=6))
        prop = PropagationParams(lam=0.9, q=0.3, c_bound=7.0, U=3)
        x0 = np.zeros(4)
        est = estimate_theory_params(
            model, data, parts, x0, prop, np.random.default_rng(0), n_probe=3
        )
        # hand solve: occupied nodes cover everything, features centered, so
        # x* = A^-1 b and F0 = f(0) - f(x*) = 0.5 b' A^-1 b
        x_star = np.linalg.solve(model.A, model.b)
        hand_F0 = 0.5 * model.b @ x_star
        assert est.F0 == pytest.approx(hand_F0, rel=1e-9)
        assert est.a >= 0 and est.m >= est.a * 0  # finite, non-negative
        assert est.C == prop.c_bound and est.q == prop.q
