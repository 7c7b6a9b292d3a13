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
from dataclasses import dataclass
from functools import cache, reduce
from typing import List, Optional

import numpy as np

from . import rng as rngmod
from .config import ExperimentConfig, to_sections
from .errors import ConfigurationError, NumericalBreakdownError, OutOfRegimeError
from .fusion import (
    REPORTED_TAU, clip, decay_threshold, fuse, noise_factor, perturb, select_tau, staleness_bound,
)
from .models import (
    BatchDraws, Dataset, LogisticModel, MlpModel, Model, NodeGrads, accuracy, dirichlet_partition,
    load_csv, make_quadratic_model, make_synthetic, node_sorted, partition_report, row_pass,
    split_test,
)
from .privacy import alpha_at, beta_at, calibrate_sigma, delta_bound, epsilon_spent
from .pushsum import mix_round, sq_deviations
from .theory import (CERTIFIED, OPTIMAL_P_ERRATUM, convergence_bound, estimate_theory_params,
                     min_iterations)
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
        return dict(self.__dict__)  # every field is a scalar: no deep copy


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
    classes = config.model.classes if config.model.kind == "mlp" else 2
    if spec.kind == "csv":
        dataset = load_csv(spec.path)
        outside = dataset.labels[(dataset.labels < 0) | (dataset.labels >= classes)]
        if config.model.kind != "quadratic" and outside.size:
            raise ConfigurationError(
                f"data.path: {spec.path} has label {outside[0]}, but model.kind = "
                f"{config.model.kind} needs labels in [0, {classes})"
            )
    else:
        kind = "quadratic" if spec.kind == "quadratic" else "blobs"
        dataset = make_synthetic(kind, spec.n_samples, config.model.features, master_seed,
                                 classes=classes, separation=spec.separation, spread=spec.spread)
    dataset = split_test(dataset, spec.test_fraction, master_seed)
    dataset.node_indices = dirichlet_partition(dataset.labels, config.n, spec.alpha_conc,
                                               master_seed)
    return dataset


def _node_sigmas(config: ExperimentConfig) -> List[float]:
    """Per-node base noise scale: the override, or each distinct budget calibrated once."""
    if config.sigma_override is not None:
        return [float(config.sigma_override)] * config.n
    calibrated = cache(lambda b: calibrate_sigma(b, config.clip.g0, config.noise))
    return [calibrated(b) for b in config.budgets]


def _theory_block(config, model, dataset, batch, layout, x0, master_seed):
    """Propagation constants plus estimated problem constants; returns
    (summary-dict, TheoryParams or None)."""
    block = {"enabled": True, "in_regime": False, "warning": None}
    try:
        J = config.topology.J
        U = max_out_degree(config.topology)
        kappa = window_diameter(config.topology, J)
        if kappa is None:
            raise OutOfRegimeError(f"a window of length J={J} is not strongly connected")
        prop = propagation_params(config.n, U, kappa, J, int(np.size(x0)))
    except OutOfRegimeError as exc:
        block["warning"] = f"theory calculators disabled: {exc}"
        return block, None
    params = estimate_theory_params(model, dataset, batch, layout, x0, prop,
                                    rngmod.stream(master_seed, 0, 0, rngmod.THEORY))
    block["in_regime"] = True
    block["propagation"] = {"lambda": prop.lam, "q": prop.q, "c_bound": prop.c_bound,
                            "U": prop.U, "J": J, "kappa": kappa}
    block["estimated"] = {k: getattr(params, k) for k in ("L", "a", "m", "F0", "d", "x0_norm")}
    block["certified"] = list(CERTIFIED[type(model)])
    K = config.lr.K if config.lr.K is not None else config.noise.K
    if config.lr.p is not None:
        floor = min_iterations(params, config.n, config.lr.p, K)
        block["min_iterations"] = {"terms": floor.terms, "floor": floor.floor}
    else:
        block["min_iterations"] = None
    return block, params


def run(config: ExperimentConfig, master_seed: Optional[int] = None,
        record_states: bool = False) -> RunResult:
    """Execute one full run; a pure function of (config, master_seed).

    record_states keeps the post-mix (n, d) parameter stack of every round
    for trajectory-level diagnostics.
    """
    seed = config.run.master_seed if master_seed is None else int(master_seed)
    n, T = config.n, config.T
    vrsgp = config.run.algorithm == "adp-vrsgp"

    model = build_model(config, seed)
    dataset = build_dataset(config, seed)
    # the training rows sorted by node, and where each occupied node's lie
    train_X, train_y, layout = node_sorted(dataset)
    sigmas = _node_sigmas(config)

    # every node starts from the shared x0 with unit weight, so Z = X
    x0 = np.zeros(model.dim)
    X = np.tile(x0, (n, 1))
    w = np.ones(n)
    Z = X.copy()

    theory_summary, theory_params = (
        _theory_block(config, model, dataset, (train_X, train_y), layout, x0, seed)
        if config.run.theory
        else ({"enabled": False, "in_regime": False, "warning": None}, None)
    )

    matrices = [build_mixing_matrix(edges) for edges in config.topology.edge_sets]

    G = config.clip.g0
    F = None  # fused gradients of the previous round
    records: List[MetricsRecord] = []
    fused_norms = np.zeros((T, n))
    deviations = np.zeros((T, n))
    trajectory: Optional[List[np.ndarray]] = [] if record_states else None
    batches = BatchDraws(layout, [b.sampling_ratio for b in config.budgets],
                         rngmod.Streams(seed, rngmod.BATCH, n, horizon=T))
    grads = NodeGrads(model, (train_X, train_y), layout)
    noise_streams = rngmod.Streams(seed, rngmod.NOISE, n, horizon=T)
    sigma_column = np.array(sigmas)[:, None]
    noise_nodes = layout.nodes[sigma_column[layout.nodes, 0] > 0].tolist()
    Noise = np.zeros_like(X)  # rows of the nodes that draw no noise stay 0
    noise_rows = [Noise[i] for i in noise_nodes]  # views, filled every round
    # held[:kept]: this interval's clipped occupied rows so far
    held = np.empty((4, len(layout.nodes), model.dim))
    diff, drift, kept = np.empty(held.shape[1:]), np.empty(held.shape[:2]), 0
    alpha_inj = None

    for t in range(T):
        eta_t = config.lr.eta / beta_at(config.noise, config.lr, t)
        # an interval starts where the injected alpha(T - t) changes (privacy.starts_interval)
        last_alpha, alpha_inj = alpha_inj, alpha_at(config.noise, T - t)
        new_interval = t == 0 or alpha_inj != last_alpha
        if new_interval:
            kept = 0

        # observables at the current state; each occupied node's batch and
        # noise draws (one v1 slot each), then every node's full and batch
        # gradient at its z_i in one call; empty nodes keep zero rows.  A mean
        # is x.sum() / x.size, np.mean's own arithmetic without its dispatch
        xbar = X.sum(axis=0) / n
        sq_dev = sq_deviations(Z, xbar)
        cons = float(sq_dev.sum() / n)
        train_loss = float(row_pass(model, xbar, (train_X, train_y), grad=False)
                           .segment_losses(layout.starts, layout.counts).sum() / len(layout.nodes))
        sel, drawn = batches.draw(t)
        noise_streams.fill(t, noise_nodes, noise_rows, "standard_normal")
        Noise *= sigma_column  # as normal(0, sigma) draws it: 0.0 + sigma * z
        Full, Grad = grads.at(Z, sel, drawn)
        occupied = Full[layout.nodes]
        mean_sq = float(np.einsum("ij,ij->i", occupied, occupied).sum() / len(occupied))
        test_acc = (None if dataset.test_features is None
                    else accuracy(model, xbar, dataset.test_features, dataset.test_labels))
        np.sqrt(sq_dev, out=deviations[t])

        # clip, perturb, fuse and half-step on all nodes at once
        clipped, resid = clip(Grad, G)
        if kept == len(held):  # an interval may run to T rounds
            held, drift = np.concatenate([held, held]), np.concatenate([drift, drift])
        active = clipped.take(layout.nodes, axis=0, out=held[kept])
        for s in range(kept):  # every ||active_i - past_i||^2 of the interval
            np.square(np.subtract(active, held[s], out=diff), out=diff)
            np.add.reduce(diff, axis=1, out=drift[s])
        d_tau_t = float(drift[:kept].max(initial=0.0))
        kept += 1
        noisy = perturb(clipped, alpha_inj, Noise)
        F = fuse(noisy, None if new_interval else F, config.fusion.theta) if vrsgp else noisy
        np.sqrt(np.add.reduce(F * F, axis=1), out=fused_norms[t])  # np.linalg.norm's arithmetic
        X = X - eta_t * F

        X, w, Z = mix_round(X, w, matrices[t % len(matrices)])
        if not np.isfinite(X).all():
            bad = int(np.argmin(np.isfinite(X).all(axis=1)))
            raise NumericalBreakdownError(f"non-finite state at iteration {t} (node {bad})")
        if trajectory is not None:
            trajectory.append(X)

        records.append(MetricsRecord(
            t=t, mean_sq_grad_norm=mean_sq, consensus_error=cons, train_loss=train_loss,
            test_accuracy=test_acc, current_g=G, alpha_injected=alpha_inj, eta_t=eta_t,
            clip_residual_mean=float(resid[layout.nodes].sum() / len(layout.nodes)),
            empirical_d_tau=d_tau_t,
        ))
        if vrsgp:
            G = decay_threshold(config.clip, G)

    summary = _summarize(config, seed, sigmas, records, theory_summary, theory_params, layout)
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
    spent, bounds = [], {}  # bounds: (budget, sigma) -> (epsilon, delta), each evaluated once
    for i, (b, sigma) in enumerate(zip(config.budgets, sigmas)):
        if (b, sigma) not in bounds:
            # the accountant consumes the sensitivity-normalized multiplier
            z = sigma / config.clip.g0
            bounds[b, sigma] = epsilon_spent(b, z, config.noise), delta_bound(b, z, config.noise)
        eps, delta = bounds[b, sigma]
        spent.append({"node": i, "epsilon_bound": eps, "delta_at_epsilon": delta,
                      "label": "bound, constants-dependent"})
    return spent


def _running_sum(values) -> float:
    # left-to-right float addition, as a loop accumulator would do it;
    # the built-in sum() compensates rounding from Python 3.12 on
    return reduce(operator.add, values, 0.0)


def _summarize(config, seed, sigmas, records, theory_summary, theory_params, layout):
    last = records[-1]
    upsilon_total = _running_sum(r.clip_residual_mean for r in records)
    rho_total = 0.0
    if config.run.algorithm == "adp-vrsgp" and config.fusion.theta > 0:
        rho_total = _running_sum(
            staleness_bound(config.fusion.theta, config.noise.tau, r.empirical_d_tau)
            for r in records
        )
    time_avg_msg = _running_sum(r.mean_sq_grad_norm for r in records) / config.T
    summary = {
        "algorithm": config.run.algorithm,
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
        "empty_nodes": np.setdiff1d(np.arange(config.n), layout.nodes).tolist(),
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
        bound = convergence_bound(
            theory_params, config.n, config.noise, config.lr, config.budgets, config.clip.g0,
            noise_factor(config.fusion.theta, config.noise.tau), upsilon_total, rho_total,
        )
        theory_summary["convergence_bound"] = bound.as_dict()
        theory_summary["bound_inputs"] = {"upsilon_total": upsilon_total, "rho_total": rho_total}
        theory_summary["lhs_time_avg_mean_sq_grad_norm"] = time_avg_msg
    summary["theory"] = theory_summary
    return summary
