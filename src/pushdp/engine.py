"""Run orchestration: execute full training runs of the two algorithms,
record per-round metrics, and assemble the run summary with calibration,
privacy-spent, and theory-calculator outputs.

Algorithm "sdlr" clips, perturbs with the decaying multiplier, and steps
with eta/beta(t).  Algorithm "adp-vrsgp" additionally decays the clip
threshold each round and fuses noisy gradients within noise-constant
intervals.  Both mix through the per-iteration column-stochastic matrix.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import rng as rngmod
from .config import ExperimentConfig
from .errors import NumericalBreakdownError, OutOfRegimeError
from .fusion import (
    FusedGradientState,
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
from .privacy import PrivacyBudget, alpha_at, beta_at, calibrate_sigma, delta_bound, epsilon_spent
from .pushsum import RunHistory, consensus_error, initial_states, local_half_step, mix_round
from .theory import (
    OPTIMAL_P_ERRATUM,
    convergence_bound,
    estimate_theory_params,
    min_iterations,
)
from .topology import build_mixing_matrix, max_out_degree, propagation_params, topology_at, window_diameter


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
        return {
            "t": self.t,
            "mean_sq_grad_norm": self.mean_sq_grad_norm,
            "consensus_error": self.consensus_error,
            "train_loss": self.train_loss,
            "test_accuracy": self.test_accuracy,
            "current_g": self.current_g,
            "alpha_injected": self.alpha_injected,
            "eta_t": self.eta_t,
            "clip_residual_mean": self.clip_residual_mean,
            "empirical_d_tau": self.empirical_d_tau,
        }


@dataclass
class RunResult:
    records: List[MetricsRecord]
    summary: dict
    history: RunHistory
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


def _calibrated_budgets(config: ExperimentConfig) -> List[PrivacyBudget]:
    budgets = [copy.copy(b) for b in config.budgets]
    for b in budgets:
        if config.sigma_override is not None:
            b.sigma = float(config.sigma_override)
        else:
            calibrate_sigma(b, config.clip.g0, config.noise)
    return budgets


def _theory_block(config, model, dataset, x0, budgets, master_seed):
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
    occupied = [i for i in range(n) if len(dataset.node_indices[i])]
    budgets = _calibrated_budgets(config)

    x0 = np.zeros(model.dim)
    states = initial_states(n, x0)
    fusion_states = [FusedGradientState() for _ in range(n)]
    history = RunHistory(x0_norms=[float(np.linalg.norm(s.x)) for s in states])

    theory_summary, theory_params = (
        _theory_block(config, model, dataset, x0, budgets, seed)
        if config.theory_enabled
        else ({"enabled": False, "in_regime": False, "warning": None}, None)
    )

    period = config.topology.period()
    matrices = [build_mixing_matrix(topology_at(config.topology, t)) for t in range(period)]

    G = config.clip.g0
    interval_clips: List[list] = [[] for _ in range(n)]
    records: List[MetricsRecord] = []
    deviations = np.zeros((T, n))
    trajectory: Optional[List[np.ndarray]] = [] if record_states else None
    upsilon_total = 0.0
    rho_total = 0.0
    msg_sum = 0.0

    for t in range(T):
        alpha_inj = alpha_at(config.noise, T - t)
        beta_t = beta_at(config.noise, config.lr, t)
        eta_t = config.lr.eta_base / beta_t

        # interval boundary: the injected multiplier just changed value
        if t == 0 or alpha_at(config.noise, T - t + 1) != alpha_inj:
            interval_clips = [[] for _ in range(n)]

        # observables at the current state
        X = np.stack([s.x for s in states])
        xbar = X.mean(axis=0)
        cons = consensus_error(states)
        full_sq = []
        losses_at_mean = []
        for i in occupied:
            idx = dataset.node_indices[i]
            batch = (dataset.features[idx], dataset.labels[idx])
            _, g_full = loss_and_grad(model, states[i].z, batch)
            full_sq.append(float(g_full @ g_full))
            losses_at_mean.append(loss_and_grad(model, xbar, batch)[0])
        mean_sq = float(np.mean(full_sq))
        train_loss = float(np.mean(losses_at_mean))
        test_acc = None
        if dataset.test_features is not None:
            test_acc = accuracy(model, xbar, dataset.test_features, dataset.test_labels)
        Z = np.stack([s.z for s in states])
        deviations[t] = np.linalg.norm(Z - xbar, axis=1)

        # per-node gradient pipeline and half-step
        resid = []
        d_tau_t = 0.0
        fused_norms = []
        for i in range(n):
            if i not in occupied:
                fused_norms.append(0.0)
                continue
            idx = dataset.node_indices[i]
            batch_idx = sample_batch(
                idx, budgets[i].sampling_ratio, rngmod.stream(seed, i, t, rngmod.BATCH)
            )
            _, g = loss_and_grad(
                model, states[i].z, (dataset.features[batch_idx], dataset.labels[batch_idx])
            )
            cr = clip(g, G)
            resid.append(cr.residual_sq)
            for past in interval_clips[i]:
                d_tau_t = max(d_tau_t, float(np.sum((cr.clipped - past) ** 2)))
            interval_clips[i].append(cr.clipped)
            noisy = perturb(
                cr.clipped, alpha_inj, budgets[i].sigma, rngmod.stream(seed, i, t, rngmod.NOISE)
            )
            if vrsgp:
                fused = fuse(noisy, fusion_states[i], alpha_inj, config.fusion.theta, t)
            else:
                fused = noisy
            fused_norms.append(float(np.linalg.norm(fused)))
            states[i] = local_half_step(states[i], fused, eta_t)

        states = mix_round(states, matrices[t % period])
        bad = [s for s in states if not np.all(np.isfinite(s.x))]
        if bad:
            raise NumericalBreakdownError(
                f"non-finite state at iteration {t} (node {bad[0].node_id})"
            )
        if trajectory is not None:
            trajectory.append(np.stack([s.x for s in states]))

        clip_res_mean = float(np.mean(resid)) if resid else 0.0
        upsilon_total += clip_res_mean
        if vrsgp and config.fusion.theta > 0:
            rho_total += staleness_bound(config.fusion.theta, config.fusion.tau, d_tau_t)
        msg_sum += mean_sq
        history.record(eta_t, fused_norms)
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
                clip_residual_mean=clip_res_mean,
                empirical_d_tau=d_tau_t,
            )
        )
        if vrsgp:
            G = decay_threshold(config.clip, G)

    summary = _summarize(
        config, seed, budgets, records, theory_summary, theory_params,
        upsilon_total, rho_total, msg_sum / T, occupied,
    )
    return RunResult(
        records=records,
        summary=summary,
        history=history,
        node_deviations=deviations,
        partition=partition_report(dataset.labels, dataset.node_indices),
        trajectory=trajectory,
    )


def _privacy_spent(config, budgets):
    if config.sigma_override is not None:
        return None
    spent = []
    for i, b in enumerate(budgets):
        # the accountant consumes the sensitivity-normalized multiplier
        normalized = copy.copy(b)
        normalized.sigma = b.sigma / config.clip.g0
        spent.append(
            {
                "node": i,
                "epsilon_bound": epsilon_spent(normalized, config.noise),
                "delta_at_epsilon": delta_bound(normalized, config.noise),
                "label": "bound, constants-dependent",
            }
        )
    return spent


def _summarize(
    config, seed, budgets, records, theory_summary, theory_params,
    upsilon_total, rho_total, time_avg_msg, occupied,
):
    from .config import to_sections  # local import to keep module load light

    last = records[-1]
    summary = {
        "algorithm": config.algorithm,
        "n": config.n,
        "T": config.T,
        "master_seed": seed,
        "config": to_sections(config),
        "sigma_per_node": [b.sigma for b in budgets],
        "sigma_calibrated": config.sigma_override is None,
        "privacy_spent": _privacy_spent(config, budgets),
        "time_avg_mean_sq_grad_norm": time_avg_msg,
        "final_train_loss": last.train_loss,
        "final_test_accuracy": last.test_accuracy,
        "final_consensus_error": last.consensus_error,
        "upsilon_total": upsilon_total,
        "rho_total_bound": rho_total,
        "empty_nodes": [i for i in range(config.n) if i not in occupied],
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
