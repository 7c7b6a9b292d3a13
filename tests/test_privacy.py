import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from pushdp.errors import CalibrationError
from pushdp.privacy import (
    LrSchedule,
    NoiseSchedule,
    PrivacyBudget,
    alpha_at,
    beta_at,
    beta_sum_dominance,
    calibrate_sigma,
    delta_bound,
    moments_bound,
)
from pushdp.verify import random_schedule


def stepwise(T=10, s=0.2, tau=5, a1=1.0, a2=10.0):
    return NoiseSchedule(form="stepwise", T=T, s=s, tau=tau, a1=a1, a2=a2)


def power(T=100, s=0.25, K=1.0):
    return NoiseSchedule(form="power", T=T, s=s, K=K)


class TestAlpha:
    def test_stepwise_first_interval(self):
        sched = stepwise()
        assert alpha_at(sched, 0) == pytest.approx(10**0.2, abs=1e-12)
        assert alpha_at(sched, 4) == alpha_at(sched, 0)  # interval-constant
        assert alpha_at(sched, 5) == pytest.approx(11**0.2, abs=1e-12)

    def test_power_direct(self):
        assert alpha_at(power(), 16) == pytest.approx(2.0, abs=1e-12)

    def test_power_zero_aliases_one(self):
        sched = power(K=4.0)
        assert alpha_at(sched, 0) == alpha_at(sched, 1) == 2.0

    def test_range_checked(self):
        sched = stepwise()
        with pytest.raises(IndexError):
            alpha_at(sched, -1)
        with pytest.raises(IndexError):
            alpha_at(sched, sched.T + 1)
        alpha_at(sched, sched.T)  # closed end: injected multiplier at t=0

    def test_monotone_for_nonneg_s(self):
        for sched in (stepwise(T=40), power(T=40, s=0.3), stepwise(T=40, s=0.0)):
            values = [alpha_at(sched, t) for t in range(sched.T)]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestBeta:
    def test_first_piece(self):
        val = beta_at(power(), LrSchedule(eta=1.0, xi=0.5), 40)
        assert val == pytest.approx((40 * 60) ** 0.25, abs=1e-12)

    def test_second_piece(self):
        val = beta_at(power(), LrSchedule(eta=1.0, xi=0.5), 80)
        assert val == pytest.approx(math.sqrt(80), abs=1e-12)

    def test_s_zero_collapses_to_K(self):
        sched = NoiseSchedule(form="power", T=50, s=0.0, K=3.0)
        lr = LrSchedule(eta=1.0, xi=0.3)
        assert all(beta_at(sched, lr, t) == pytest.approx(3.0) for t in range(50))

    def test_piecewise_matches_alpha_products(self):
        sched, lr = stepwise(T=30, tau=3), LrSchedule(eta=1.0, xi=0.4)
        for t in range(30):
            a_t = alpha_at(sched, t)
            expected = a_t * alpha_at(sched, 30 - t) if t <= lr.xi * 30 else a_t * a_t
            assert beta_at(sched, lr, t) == expected


class TestLr:
    def test_division(self):
        sched = NoiseSchedule(form="power", T=50, s=0.0, K=2.0)
        lr = LrSchedule(eta=0.1, xi=0.5)
        assert lr.eta / beta_at(sched, lr, 7) == pytest.approx(0.1 / 2.0, abs=1e-15)

    def test_constant_when_s_zero(self):
        sched = NoiseSchedule(form="power", T=50, s=0.0, K=1.0)
        lr = LrSchedule(eta=0.1, xi=0.5)
        assert {lr.eta / beta_at(sched, lr, t) for t in range(50)} == {0.1}

    def test_power_example(self):
        lr = LrSchedule(eta=1.0, xi=0.5)
        assert lr.eta / beta_at(power(), lr, 40) == pytest.approx(1.0 / (40 * 60) ** 0.25,
                                                                  rel=1e-12)


class TestCalibration:
    def test_constant_alpha_worked_example(self):
        budget = PrivacyBudget(epsilon=2.0, delta=1e-5, sampling_ratio=0.01, c1=25.0, c2=1.0)
        sched = NoiseSchedule(form="power", T=1000, s=0.0, K=1.0)
        sigma = calibrate_sigma(budget, 0.1, sched)
        closed = 0.1 * 0.01 * math.sqrt(math.log(1e5)) * math.sqrt(1000) / 2.0
        assert sigma == pytest.approx(closed, rel=1e-12)
        assert abs(sigma - 0.05364) < 1e-5

    def test_linear_in_G(self):
        sched = stepwise(T=20)
        b1 = PrivacyBudget(epsilon=0.5, delta=1e-5, sampling_ratio=0.5)
        b2 = PrivacyBudget(epsilon=0.5, delta=1e-5, sampling_ratio=0.5)
        assert calibrate_sigma(b2, 0.2, sched) == pytest.approx(
            2.0 * calibrate_sigma(b1, 0.1, sched), rel=0, abs=0
        )

    def test_inverse_in_epsilon(self):
        sched = stepwise(T=20)
        b1 = PrivacyBudget(epsilon=0.5, delta=1e-5, sampling_ratio=0.5)
        b2 = PrivacyBudget(epsilon=1.0, delta=1e-5, sampling_ratio=0.5)
        assert calibrate_sigma(b1, 0.1, sched) == pytest.approx(
            2.0 * calibrate_sigma(b2, 0.1, sched), rel=1e-15
        )

    def test_stepwise_sum_brute_force(self):
        # sum of 1/alpha^2 over T=10 with tau=5: five terms at 10^-0.4, five at 11^-0.4
        budget = PrivacyBudget(epsilon=0.5, delta=1e-5, sampling_ratio=0.5)
        sigma = calibrate_sigma(budget, 0.1, stepwise(T=10))
        brute = math.sqrt(5 * 10 ** (-0.4) + 5 * 11 ** (-0.4))
        closed = 0.1 * 0.5 * math.sqrt(math.log(1e5)) / 0.5 * brute
        assert sigma == pytest.approx(closed, rel=1e-12)

    def test_regime_violation_names_inequality(self):
        budget = PrivacyBudget(epsilon=2.0, delta=1e-5, sampling_ratio=0.01, c1=1.0)
        with pytest.raises(CalibrationError, match="c1\\*varsigma\\^2\\*T"):
            calibrate_sigma(budget, 0.1, NoiseSchedule(form="power", T=1000, s=0.0))


class TestMomentsBound:
    def test_order_one_example(self):
        budget = PrivacyBudget(epsilon=1.0, delta=1e-5, sampling_ratio=0.01)
        sched = NoiseSchedule(form="power", T=100, s=0.0, K=1.0)
        assert moments_bound(1, budget, 1.0, sched) == pytest.approx(
            1 * 2 * 1e-4 / 2.0 * 100, rel=1e-12
        )

    def test_vanishes_as_sigma_grows(self):
        budget = PrivacyBudget(epsilon=1.0, delta=1e-5, sampling_ratio=0.1)
        sched = NoiseSchedule(form="power", T=100, s=0.0, K=1.0)
        small = moments_bound(4, budget, 1e3, sched)
        tiny = moments_bound(4, budget, 1e9, sched)
        assert tiny < small and tiny < 1e-12

    def test_zero_multiplier_rejected(self):
        budget = PrivacyBudget(epsilon=1.0, delta=1e-5, sampling_ratio=0.1)
        with pytest.raises(CalibrationError, match="z = 0"):
            moments_bound(2, budget, 0.0, stepwise())

    def test_self_consistency_at_c2_two(self):
        # with unit sensitivity and c2=2, the grid-search delta' satisfies
        # delta' <= delta; c2=1 leaves a quantified gap (the constants are
        # inherited without values)
        sched = stepwise(T=1000, tau=5, s=0.2)
        tight = PrivacyBudget(epsilon=2.0, delta=1e-5, sampling_ratio=0.01, c1=25.0, c2=2.0)
        z = calibrate_sigma(tight, 1.0, sched)  # G = 1, so sigma is the multiplier z
        assert delta_bound(tight, z, sched) <= tight.delta
        loose = PrivacyBudget(epsilon=2.0, delta=1e-5, sampling_ratio=0.01, c1=25.0, c2=1.0)
        z = calibrate_sigma(loose, 1.0, sched)
        assert delta_bound(loose, z, sched) > tight.delta  # the c2=1 slack

    def test_budget_is_frozen(self):
        budget = PrivacyBudget(epsilon=1.0, delta=1e-5, sampling_ratio=0.1)
        with pytest.raises(FrozenInstanceError):
            budget.epsilon = 2.0


class TestBetaSumDominance:
    def test_equality_when_alpha_constant(self):
        # beta = alpha^2 = K when s = 0, so both sides are T/K exactly
        sched = NoiseSchedule(form="power", T=30, s=0.0, K=2.0)
        lhs, rhs = beta_sum_dominance(sched, LrSchedule(eta=1.0, xi=0.5))
        assert lhs == pytest.approx(30 / 2.0, rel=1e-12)
        assert rhs == pytest.approx(30 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("T,xi", [(100, 0.5), (10, 0.9)])
    def test_power_quarter_strict(self, T, xi):
        sched = NoiseSchedule(form="power", T=T, s=0.25, K=1.0)
        lhs, rhs = beta_sum_dominance(sched, LrSchedule(eta=1.0, xi=xi))
        brute_lhs = sum(1.0 / beta_at(sched, LrSchedule(eta=1.0, xi=xi), t) for t in range(T))
        brute_rhs = sum(1.0 / alpha_at(sched, t) ** 2 for t in range(T))
        assert lhs == pytest.approx(brute_lhs, rel=1e-12)
        assert rhs == pytest.approx(brute_rhs, rel=1e-12)
        assert lhs < rhs

    def test_two_hundred_random_schedules(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            sched, lr = random_schedule(rng)
            lhs, rhs = beta_sum_dominance(sched, lr)
            assert lhs <= rhs * (1 + 1e-12)
