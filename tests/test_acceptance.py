"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The statistical criteria are deterministic: every run derives all
randomness from the fixed seed lists below.
"""

import math
import time

import numpy as np

from pushdp.engine import build_dataset, build_model, run
from pushdp.fusion import REPORTED_TAU, noise_factor, select_tau
from pushdp.privacy import (
    LrSchedule,
    NoiseSchedule,
    PrivacyBudget,
    beta_sum_dominance,
    calibrate_sigma,
    eta_from_exponent,
)
from pushdp.fusion import ClipConfig, FusionConfig
from pushdp.config import DataSpec, ModelSpec
from pushdp.theory import TheoryParams, convergence_bound, min_iterations
from pushdp.topology import TopologySchedule
from pushdp.verify import (
    consensus_suite,
    gradients_suite,
    noise_factor_suite,
    random_schedule,
)

from conftest import make_config, observed_run, reference_dsgd

SEEDS = list(range(10))


def report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {description}" + (f" — {detail}" if detail else ""))
    assert passed, f"criterion {num}: {description} ({detail})"


def test_criterion_01_fused_noise_factor():
    start = time.monotonic()
    results = noise_factor_suite(trials=1_000_000)
    elapsed = time.monotonic() - start
    grid = [r for r in results if r.name.startswith("fused-noise")]
    exact = [r for r in results if r.name.startswith("exact")]
    worst = max(abs(r.measured - r.expected) / r.expected for r in grid)
    report(
        1,
        "Monte-Carlo fused-noise factor matches h on the 12-point grid within 2%, "
        "exact h(0,.)=h(.,1)=1, under 60 s",
        all(r.passed for r in results) and len(grid) == 12 and elapsed < 60.0,
        f"worst rel err {worst:.4f}, {len(exact)} exact checks, {elapsed:.1f}s",
    )


def test_criterion_02_calibration_reduction():
    sched = NoiseSchedule(form="power", T=1000, s=0.0, K=1.0)
    budget = PrivacyBudget(epsilon=2.0, delta=1e-5, sampling_ratio=0.01, c1=25.0, c2=1.0)
    sigma = calibrate_sigma(budget, 0.1, sched)
    closed = 1.0 * 0.01 * 0.1 * math.sqrt(1000 * math.log(1e5)) / 2.0
    rel = abs(sigma - closed) / closed
    report(
        2,
        "constant-alpha calibration equals c2*varsigma*G*sqrt(T ln(1/delta))/eps "
        "to 1e-12; worked example 0.05364 within 1e-5",
        rel <= 1e-12 and abs(sigma - 0.05364) < 1e-5,
        f"sigma={sigma:.8f}, rel={rel:.2e}",
    )


def test_criterion_03_beta_sum_dominance():
    rng = np.random.default_rng(77)
    violations = 0
    for _ in range(200):
        sched, lr = random_schedule(rng)
        lhs, rhs = beta_sum_dominance(sched, lr)
        if lhs > rhs * (1 + 1e-12):
            violations += 1
    report(
        3,
        "sum 1/beta <= sum 1/alpha^2 on 200 randomized schedules",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_04_pushsum_correctness():
    results = consensus_suite()
    mass, consensus = results[0], results[1]
    report(
        4,
        "mass conservation within 1e-10 over 1000 exponential-periodic rounds; "
        "ring consensus below 1e-8 within 500 rounds",
        all(r.passed for r in results),
        f"max mass drift {mass.measured:.2e}, final deviation {consensus.measured:.2e}",
    )


def test_criterion_05_degenerate_reduction():
    T = 200
    cfg = make_config(
        algorithm="sdlr",
        T=T,
        theta=0.0,
        tau=1,
        sampling_ratio=1.0,
        topology=TopologySchedule(kind="static-ring", n=8, k=7),
        noise=NoiseSchedule(form="power", T=T, s=0.0, K=1.0, tau=1),
        lr=LrSchedule(eta=0.05, xi=0.5),
        clip=ClipConfig(g0=1e9, psi=1.0),
        fusion=FusionConfig(theta=0.0),
        sigma_override=0.0,
        data=DataSpec(kind="blobs", n_samples=160, test_fraction=0.0, alpha_conc=5.0),
    )
    _, log = observed_run(cfg, 4)
    model = build_model(cfg, 4)
    dataset = build_dataset(cfg, 4)
    reference = reference_dsgd(
        model, dataset, dataset.node_indices, np.full((8, 8), 0.125), 0.05, T
    )
    worst = max(
        float(np.max(np.abs(a - b))) for a, b in zip(log.trajectory, reference)
    )
    report(
        5,
        "sigma=0 / no-fusion / no-clip run matches the plain decentralized-SGD "
        "reference within 1e-10 over 200 iterations",
        worst <= 1e-10,
        f"max abs deviation {worst:.2e}",
    )


def test_criterion_06_gradient_correctness():
    results = gradients_suite()
    worst = max(r.measured for r in results)
    report(
        6,
        "analytic vs central finite-difference gradients, 100 points per model kind, "
        "max relative error < 1e-5",
        all(r.passed for r in results),
        f"worst {worst:.2e} across {len(results)} kinds",
    )


def test_criterion_07_interval_rule():
    rule = {theta: select_tau(theta, 0.01) for theta in (0.5, 0.3, 0.7)}
    expected = {0.5: 5, 0.3: 3, 0.7: 8}
    reported = {0.5: 6, 0.3: 12, 0.7: 4}
    report(
        7,
        "threshold rule yields tau = 5/3/8 for theta = 0.5/0.3/0.7; quoted values "
        "6/12/4 emitted alongside as a documented discrepancy",
        rule == expected and {k: REPORTED_TAU[k] for k in reported} == reported,
        f"rule {rule}, quoted {REPORTED_TAU}",
    )


def _fig3_config(eps, theta, T=400):
    return make_config(
        algorithm="adp-vrsgp",
        T=T,
        tau=5,
        theta=theta,
        epsilon=eps,
        noise=NoiseSchedule(form="stepwise", T=T, s=0.2, tau=5, a1=1.0, a2=10.0),
        lr=LrSchedule(eta=1.0, xi=0.5),
    )


def test_criterion_08_fusion_and_privacy_direction():
    start = time.monotonic()
    tau_rule = select_tau(0.5, 0.01)
    assert tau_rule == 5

    def final_losses(eps, theta):
        return [
            run(_fig3_config(eps, theta), master_seed=s).summary["final_train_loss"]
            for s in SEEDS
        ]

    fused = np.mean(final_losses(1.0, 0.5))
    unfused = np.mean(final_losses(1.0, 0.0))
    eps_means = {eps: float(np.mean(final_losses(eps, 0.5))) for eps in (4.0, 2.0, 0.5)}
    eps_means[1.0] = float(fused)
    ordered = (
        eps_means[4.0] < eps_means[2.0] < eps_means[1.0] < eps_means[0.5]
    )
    elapsed = time.monotonic() - start
    report(
        8,
        "fusion (theta=0.5, tau from the interval rule) beats theta=0 on mean final "
        "loss at eps=1; loss degrades monotonically as eps halves 4 -> 0.5; under 5 min",
        fused < unfused and ordered and elapsed < 300.0,
        f"fused {fused:.3f} < unfused {unfused:.3f}; eps axis "
        + " < ".join(f"{eps_means[e]:.3f}@{e}" for e in (4.0, 2.0, 1.0, 0.5))
        + f"; {elapsed:.0f}s",
    )


def _optimal_p_config(p, T=2000, K=1.0):
    return make_config(
        algorithm="sdlr",
        T=T,
        tau=1,
        theta=0.0,
        epsilon=6.0,
        sampling_ratio=0.5,
        noise=NoiseSchedule(form="power", T=T, s=0.25, K=K, tau=1),
        lr=LrSchedule(eta=eta_from_exponent(K, 8, T, p), xi=0.5, p=p),
        clip=ClipConfig(g0=0.1, psi=1.0),
        fusion=FusionConfig(theta=0.0),
        model=ModelSpec(kind="quadratic", features=4),
        data=DataSpec(kind="quadratic", n_samples=240, spread=0.1, alpha_conc=5.0),
    )


def test_criterion_09_optimal_p_ordering():
    # "final" gradient norm = tail mean over the last 50 iterations, damping
    # the per-iteration jitter of the noisy endpoint
    stats = {}
    for p in (-0.1, 0.0, 0.1):
        finals = []
        for s in SEEDS:
            records = run(_optimal_p_config(p), master_seed=s).records
            finals.append(float(np.mean([r.mean_sq_grad_norm for r in records[-50:]])))
        stats[p] = (float(np.mean(finals)), float(np.std(finals) / math.sqrt(len(finals))))
    p0_worst = stats[0.0][0] > stats[-0.1][0] and stats[0.0][0] > stats[0.1][0]
    detail = ", ".join(f"p={p:+.1f}: {m:.4g} (se {se:.2g})" for p, (m, se) in stats.items())
    report(
        9,
        "optimal exponent p=0 at s=0.25: reported with confidence intervals; "
        "hard requirement is only that p=0 is not strictly worst",
        not p0_worst,
        detail,
    )


def test_criterion_10_theory_calculators():
    # (a) spreadsheet audit of A1, A2, A3, M, h on the all-ones input (q=1 is
    # degenerate, so the propagation decay sits at q=0.5)
    n, T = 2, 4
    th = TheoryParams(L=1.0, a=1.0, m=1.0, C=1.0, q=0.5, F0=1.0, d=1, x0_norm=1.0)
    got = convergence_bound(
        th, n,
        schedule=NoiseSchedule(form="power", T=T, s=0.0, K=1.0, tau=6),
        lr=LrSchedule(eta=1.0, xi=0.5),
        budgets=[PrivacyBudget(epsilon=1.0, delta=math.exp(-1.0), sampling_ratio=1.0)] * n,
        G=1.0,
        h=noise_factor(0.5, 6),
        upsilon_total=1.0,
        rho_total=1.0,
    )
    A1 = (6 + 108 + 18 * 4) / 0.25
    A2 = 6 * (2 + 9) / 0.25
    A3 = 110 / 0.25
    h = 0.5 / 1.5 + 2 * 0.5**11 / 1.5
    M = 1.0 / 4.0 * (2 * 1.0) * 4 * 4
    root = math.sqrt(8)
    audit_ok = (
        abs(got.A1 - A1) <= 1e-9 * A1
        and abs(got.A2 - A2) <= 1e-9 * A2
        and abs(got.A3 - A3) <= 1e-9 * A3
        and abs(got.M - M) <= 1e-9 * M
        and abs(got.h - h) <= 1e-9 * h
        and abs(got.fixed_term - (4 + 5 * A1) / root) <= 1e-9
        and abs(got.noise_term - 4 * h * (5 * A2 + 1) * M / root) <= 1e-9
        and abs(got.bias_term - (4 + 5 * A3) * 2.0 / root) <= 1e-9
    )

    # (b) the six iteration-floor terms individually
    floor = min_iterations(
        TheoryParams(L=1.0, a=0.0, m=0.0, C=1.0, q=0.0, F0=0.0, d=1),
        n=1,
        p=0.5,
        K=1.0,
    )
    hand_terms = {
        "4nL^2": 4.0,
        "(162nC^2L^2/(1-q^2))^(2/(1+2p))": 162.0,
        "(nL^2)^(2/(1+2p))": 1.0,
        "n^(2/(1+2p))": 1.0,
        "(2K/(nL))^(2/(1+2p))": 2.0,
        "(9/sqrt(n))^(4/(3-2p))": 81.0,
    }
    terms_ok = all(
        abs(floor.terms[k] - v) <= 1e-12 * max(v, 1.0) for k, v in hand_terms.items()
    ) and floor.floor == 162

    # (c) bound soundness on an in-regime quadratic run
    sound_cfg = make_config(
        T=120,
        model=ModelSpec(kind="quadratic", features=3),
        data=DataSpec(kind="quadratic", n_samples=160, alpha_conc=5.0),
        theory=True,
    )
    summary = run(sound_cfg, master_seed=7).summary
    theory = summary["theory"]
    lhs = summary["time_avg_mean_sq_grad_norm"]
    rhs = theory["convergence_bound"]["total"]
    sound_ok = theory["in_regime"] and lhs <= rhs

    report(
        10,
        "A1/A2/A3/M/h match the longhand audit to 1e-9; the six floor terms "
        "reproduce individually; measured LHS <= bound on the in-regime run",
        audit_ok and terms_ok and sound_ok,
        f"lhs {lhs:.3g} <= rhs {rhs:.3g}",
    )
