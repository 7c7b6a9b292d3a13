"""Run orchestration: execute full training runs of the two algorithms,
record per-round metrics, and assemble the run summary with calibration,
privacy-spent, and theory-calculator outputs.

Algorithm "sdlr" clips, perturbs with the decaying multiplier, and steps
with eta/beta(t).  Algorithm "adp-vrsgp" additionally decays the clip
threshold each round and fuses noisy gradients within noise-constant
intervals.  Both mix through the per-iteration column-stochastic matrix.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from functools import reduce
from typing import List, Optional

import numpy as np

from . import rng as rngmod
from .config import ExperimentConfig
from .errors import NumericalBreakdownError, OutOfRegimeError
from .fusion import (
    REPORTED_TAU,
    clip,
    decay_threshold,
    fuse,
    perturb,
    select_tau,
    staleness_bound,
)
from .models import (
    Dataset,
    LogisticModel,
    MlpModel,
    Model,
    PartitionSpec,
    accuracy,
    dirichlet_partition,
    load_csv,
    loss_and_grad,
    make_quadratic_model,
    make_synthetic,
    partition_report,
    sample_batch,
    split_test,
)
from .privacy import (
    alpha_at,
    beta_at,
    calibrate_sigma,
    delta_bound,
    epsilon_spent,
    starts_interval,
)
from .pushsum import consensus_error, mix_round
from .theory import (
    OPTIMAL_P_ERRATUM,
    convergence_bound,
    estimate_theory_params,
    min_iterations,
)
from .topology import build_mixing_matrix, max_out_degree, propagation_params, window_diameter


@dataclass
class MetricsRecord:
    """One row of per-iteration observables."""

    t: int
    mean_sq_grad_norm: float
    consensus_error: float
    train_loss: float
    test_accuracy: Optional[float]
    current_g: float
    alpha_injected: float
    eta_t: float
    clip_residual_mean: float
    empirical_d_tau: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunResult:
    records: List[MetricsRecord]
    summary: dict
    fused_norms: np.ndarray  # (T, n) ||g_fused|| per (round, node), 0 for empty nodes
    node_deviations: np.ndarray  # (T, n) measured ||z_i - xbar||
    partition: dict
    trajectory: Optional[List[np.ndarray]] = None  # (n, d) post-mix states


def build_model(config: ExperimentConfig, master_seed: int) -> Model:
    spec = config.model
    if spec.kind == "quadratic":
        return make_quadratic_model(spec.features, master_seed)
    if spec.kind == "logistic":
        return LogisticModel(n_features=spec.features, l2=spec.l2)
    return MlpModel(n_features=spec.features, hidden=spec.hidden, classes=spec.classes)


def build_dataset(config: ExperimentConfig, master_seed: int) -> Dataset:
    spec = config.data
    if spec.kind == "csv":
        dataset = load_csv(spec.path)
    else:
        kind = "quadratic" if spec.kind == "quadratic" else "blobs"
        dataset = make_synthetic(
            kind,
            spec.n_samples,
            config.model.features,
            master_seed,
            classes=config.model.classes if config.model.kind == "mlp" else 2,
            separation=spec.separation,
            spread=spec.spread,
        )
    dataset = split_test(dataset, spec.test_fraction, master_seed)
    dataset.node_indices = dirichlet_partition(
        dataset.labels, PartitionSpec(alpha_conc=spec.alpha_conc, n=config.n, seed=master_seed)
    )
    return dataset


def _node_sigmas(config: ExperimentConfig) -> List[float]:
    """Per-node base noise scale: the override, or each budget calibrated."""
    if config.sigma_override is not None:
        return [float(config.sigma_override)] * config.n
    return [calibrate_sigma(b, config.clip.g0, config.noise) for b in config.budgets]


def _theory_block(config, model, dataset, x0, master_seed):
    """Propagation constants plus estimated problem constants; returns
    (summary-dict, TheoryParams or None)."""
    block = {"enabled": True, "in_regime": False, "warning": None}
    try:
        U = max_out_degree(config.topology)
        kappa = config.diameter_kappa
        if kappa is None:
            kappa = window_diameter(config.topology, config.window_J)
            if kappa is None:
                raise OutOfRegimeError(
                    f"a window of length J={config.window_J} is not strongly connected"
                )
        prop = propagation_params(config.n, U, kappa, config.window_J, int(np.size(x0)))
    except OutOfRegimeError as exc:
        block["warning"] = f"theory calculators disabled: {exc}"
        return block, None
    params = estimate_theory_params(
        model,
        dataset,
        dataset.node_indices,
        x0,
        prop,
        rngmod.stream(master_seed, 0, 0, rngmod.THEORY),
    )
    block["in_regime"] = True
    block["propagation"] = {
        "lambda": prop.lam,
        "q": prop.q,
        "c_bound": prop.c_bound,
        "U": prop.U,
        "J": config.window_J,
        "kappa": kappa,
    }
    block["estimated"] = {
        "L": params.L,
        "a": params.a,
        "m": params.m,
        "F0": params.F0,
        "d": params.d,
        "x0_norm": params.x0_norm,
    }
    K = config.lr_K if config.lr_K is not None else config.noise.K
    if config.lr.p is not None:
        floor = min_iterations(params, config.n, config.lr.p, K)
        block["min_iterations"] = {"terms": floor.terms, "floor": floor.floor}
    else:
        block["min_iterations"] = None
    return block, params


def run(
    config: ExperimentConfig,
    master_seed: Optional[int] = None,
    record_states: bool = False,
) -> RunResult:
    """Execute one full run; a pure function of (config, master_seed).

    record_states keeps the post-mix (n, d) parameter stack of every round
    for trajectory-level diagnostics.
    """
    seed = config.master_seed if master_seed is None else int(master_seed)
    n, T = config.n, config.T
    vrsgp = config.algorithm == "adp-vrsgp"

    model = build_model(config, seed)
    dataset = build_dataset(config, seed)
    occupied = np.array([len(idx) > 0 for idx in dataset.node_indices])
    sigmas = _node_sigmas(config)

    # every node starts from the shared x0 with unit weight, so Z = X
    x0 = np.zeros(model.dim)
    X = np.tile(x0, (n, 1))
    w = np.ones(n)
    Z = X.copy()

    theory_summary, theory_params = (
        _theory_block(config, model, dataset, x0, seed)
        if config.theory_enabled
        else ({"enabled": False, "in_regime": False, "warning": None}, None)
    )

    matrices = [build_mixing_matrix(edges) for edges in config.topology.edge_sets]

    G = config.clip.g0
    F = None  # fused gradients of the previous round
    interval_clips: List[np.ndarray] = []  # clipped occupied rows, this interval
    records: List[MetricsRecord] = []
    fused_norms = np.zeros((T, n))
    deviations = np.zeros((T, n))
    trajectory: Optional[List[np.ndarray]] = [] if record_states else None

    for t in range(T):
        alpha_inj = alpha_at(config.noise, T - t)
        beta_t = beta_at(config.noise, config.lr, t)
        eta_t = config.lr.eta_base / beta_t
        new_interval = starts_interval(config.noise, t)
        if new_interval:
            interval_clips = []

        # observables at the current state, then each node's stochastic
        # gradient and noise draw; empty nodes keep zero rows
        xbar = X.mean(axis=0)
        cons = consensus_error(X, Z)
        full_sq = []
        losses_at_mean = []
        Grad = np.zeros_like(X)
        Noise = np.zeros_like(X)
        for i in np.flatnonzero(occupied):
            idx = dataset.node_indices[i]
            batch = (dataset.features[idx], dataset.labels[idx])
            _, g_full = loss_and_grad(model, Z[i], batch)
            full_sq.append(float(g_full @ g_full))
            losses_at_mean.append(loss_and_grad(model, xbar, batch)[0])
            batch_idx = sample_batch(
                idx, config.budgets[i].sampling_ratio, rngmod.stream(seed, i, t, rngmod.BATCH)
            )
            _, Grad[i] = loss_and_grad(
                model, Z[i], (dataset.features[batch_idx], dataset.labels[batch_idx])
            )
            if sigmas[i] > 0:
                noise_rng = rngmod.stream(seed, i, t, rngmod.NOISE)
                Noise[i] = noise_rng.normal(0.0, sigmas[i], size=X.shape[1])
        mean_sq = float(np.mean(full_sq))
        train_loss = float(np.mean(losses_at_mean))
        test_acc = None
        if dataset.test_features is not None:
            test_acc = accuracy(model, xbar, dataset.test_features, dataset.test_labels)
        deviations[t] = np.linalg.norm(Z - xbar, axis=1)

        # clip, perturb, fuse and half-step on all nodes at once
        clipped, resid = clip(Grad, G)
        active = clipped[occupied]
        d_tau_t = 0.0
        for past in interval_clips:
            d_tau_t = max(d_tau_t, float(np.max(np.sum((active - past) ** 2, axis=1))))
        interval_clips.append(active)
        noisy = perturb(clipped, alpha_inj, Noise)
        F = fuse(noisy, None if new_interval else F, config.fusion.theta) if vrsgp else noisy
        fused_norms[t] = np.linalg.norm(F, axis=1)
        X = X - eta_t * F

        X, w, Z = mix_round(X, w, matrices[t % len(matrices)])
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            raise NumericalBreakdownError(
                f"non-finite state at iteration {t} (node {int(np.argmin(finite))})"
            )
        if trajectory is not None:
            trajectory.append(X)

        records.append(
            MetricsRecord(
                t=t,
                mean_sq_grad_norm=mean_sq,
                consensus_error=cons,
                train_loss=train_loss,
                test_accuracy=test_acc,
                current_g=G,
                alpha_injected=alpha_inj,
                eta_t=eta_t,
                clip_residual_mean=float(np.mean(resid[occupied])),
                empirical_d_tau=d_tau_t,
            )
        )
        if vrsgp:
            G = decay_threshold(config.clip, G)

    summary = _summarize(config, seed, sigmas, records, theory_summary, theory_params, occupied)
    return RunResult(
        records=records,
        summary=summary,
        fused_norms=fused_norms,
        node_deviations=deviations,
        partition=partition_report(dataset.labels, dataset.node_indices),
        trajectory=trajectory,
    )


def _privacy_spent(config, sigmas):
    if config.sigma_override is not None:
        return None
    spent = []
    for i, (b, sigma) in enumerate(zip(config.budgets, sigmas)):
        # the accountant consumes the sensitivity-normalized multiplier
        z = sigma / config.clip.g0
        spent.append(
            {
                "node": i,
                "epsilon_bound": epsilon_spent(b, z, config.noise),
                "delta_at_epsilon": delta_bound(b, z, config.noise),
                "label": "bound, constants-dependent",
            }
        )
    return spent


def _running_sum(values) -> float:
    # left-to-right float addition, as a loop accumulator would do it;
    # the built-in sum() compensates rounding from Python 3.12 on
    return reduce(operator.add, values, 0.0)


def _summarize(config, seed, sigmas, records, theory_summary, theory_params, occupied):
    from .config import to_sections  # local import to keep module load light

    last = records[-1]
    upsilon_total = _running_sum(r.clip_residual_mean for r in records)
    rho_total = 0.0
    if config.algorithm == "adp-vrsgp" and config.fusion.theta > 0:
        rho_total = _running_sum(
            staleness_bound(config.fusion.theta, config.fusion.tau, r.empirical_d_tau)
            for r in records
        )
    time_avg_msg = _running_sum(r.mean_sq_grad_norm for r in records) / config.T
    summary = {
        "algorithm": config.algorithm,
        "n": config.n,
        "T": config.T,
        "master_seed": seed,
        "config": to_sections(config),
        "sigma_per_node": sigmas,
        "sigma_calibrated": config.sigma_override is None,
        "privacy_spent": _privacy_spent(config, sigmas),
        "time_avg_mean_sq_grad_norm": time_avg_msg,
        "final_train_loss": last.train_loss,
        "final_test_accuracy": last.test_accuracy,
        "final_consensus_error": last.consensus_error,
        "upsilon_total": upsilon_total,
        "rho_total_bound": rho_total,
        "empty_nodes": np.flatnonzero(~occupied).tolist(),
        "errata": {
            "optimal_p_relation": OPTIMAL_P_ERRATUM,
            "tau_intervals": {
                "rule_values": {str(th): select_tau(th) for th in (0.3, 0.5, 0.7)},
                "paper_reported": {str(th): v for th, v in REPORTED_TAU.items()},
            },
        },
    }
    theory_summary = dict(theory_summary)
    if theory_params is not None:
        bound = convergence_bound(theory_params, config, upsilon_total, rho_total)
        theory_summary["convergence_bound"] = bound.as_dict()
        theory_summary["bound_inputs"] = {
            "upsilon_total": upsilon_total,
            "rho_total": rho_total,
        }
        theory_summary["lhs_time_avg_mean_sq_grad_norm"] = time_avg_msg
    summary["theory"] = theory_summary
    return summary
