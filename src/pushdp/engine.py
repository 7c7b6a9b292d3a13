"""Run orchestration: execute full training runs of the two algorithms,
record per-round metrics, and assemble the run summary with calibration,
privacy-spent, and theory-calculator outputs.

Algorithm "sdlr" clips, perturbs with the decaying multiplier, and steps
with eta/beta(t).  Algorithm "adp-vrsgp" additionally decays the clip
threshold each round and fuses noisy gradients within noise-constant
intervals.  Both mix through the per-iteration column-stochastic matrix.

The round loop walks the chunks of one plan (`rng.Streams.chunk`): a
chunk's batch draws, which `NodeGrads.load` checks once, and noise rows
come in one call each, and its rounds index them.  After a chunk's last
round, and every CHUNK_BYTES of loss-pass plane, come the state check and
the records' observables (xbar, consensus error, train loss, test
accuracy, mean squared gradient norm, mean clip residual, drift) from
stacked calls, bit for bit as round by round, over the rounds' kept
pre-update X and Z, full gradients, clip residuals and clipped rows.
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
    partition: dict


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


def run(config: ExperimentConfig, master_seed: Optional[int] = None) -> RunResult:
    """Execute one full run; a pure function of (config, master_seed)."""
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
    batches = BatchDraws(layout, [b.sampling_ratio for b in config.budgets],
                         rngmod.Streams(seed, rngmod.BATCH, n, horizon=T))
    grads = NodeGrads(model, (train_X, train_y), layout)
    # each round's noise row, N(0, sigma^2) as normal(0, sigma) draws it: 0.0 + sigma * z;
    # the rows of the nodes that draw no noise stay 0
    noise_nodes = layout.nodes[np.array(sigmas)[layout.nodes] > 0]
    noise = rngmod.RoundDraws(rngmod.Streams(seed, rngmod.NOISE, n, horizon=T), "standard_normal",
                              noise_nodes, n * model.dim, noise_nodes * model.dim,
                              np.full(len(noise_nodes), model.dim), np.repeat(sigmas, model.dim))
    # the rounds whose observables one stacked call takes: CHUNK_BYTES over one round's
    # widest plane, the loss pass's (training or test rows times the model's row
    # width) or a state's (X, Z or the full gradients)
    test_rows = 0 if dataset.test_labels is None else len(dataset.test_labels)
    observed = max(1, rngmod.CHUNK_BYTES // (
        8 * max(max(len(train_X), test_rows) * model.row_width, n * model.dim)))
    # clipped occupied rows of the open interval's rounds so far, then of this
    # chunk's: round t's are rows[at], its interval's earlier rounds the lag before
    rows, at, lag = np.empty((0, len(layout.nodes), model.dim)), -1, -1
    alpha_inj, t1, pending = None, 0, []  # pending: the inputs of rounds not yet observed

    # a non-finite value runs on silently to the next state check
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            eta_t = config.lr.eta / beta_at(config.noise, config.lr, t)
            if t == t1:  # the plan's next chunk [t0, t1): its draws, which its rounds index
                t0, t1, *draws = batches.draw(t)
                grads.load(*draws)
                noise_rows = noise.draw(t0, t1).reshape(t1 - t0, n, -1)
                # the open interval's rows so far to the front, the buffer grown if need be
                need, kept = lag + 1 + t1 - t0, rows[at - lag : at + 1]
                if need > len(rows):
                    rows = np.empty((need, *rows.shape[1:]))
                rows[: lag + 1], at = kept, lag
            # an interval starts where alpha(T - t) changes (privacy.starts_interval)
            last_alpha, alpha_inj = alpha_inj, alpha_at(config.noise, T - t)
            new_interval = t == 0 or alpha_inj != last_alpha
            lag, at = 0 if new_interval else lag + 1, at + 1

            # every node's full and batch gradient at its z_i; empty nodes keep zero rows
            Full, Grad = grads.at(Z, t - t0)

            # clip, perturb, fuse and half-step on all nodes at once
            clipped, resid = clip(Grad, G)
            clipped.take(layout.nodes, axis=0, out=rows[at])
            noisy = perturb(clipped, alpha_inj, noise_rows[t - t0])
            F = fuse(noisy, None if new_interval else F, config.fusion.theta) if vrsgp else noisy
            # each round makes new arrays: none of these is written again
            pending.append((X, Z, Full, resid, (t, G, alpha_inj, eta_t), lag))
            X = X - eta_t * F

            X, w, Z = mix_round(X, w, matrices[t % len(matrices)])
            if len(pending) == observed or t == t1 - 1:
                post = _stacked([p[0] for p in pending[1:]] + [X])  # each round's post-mix X
                if not np.isfinite(post).all():
                    r, bad = divmod(int(np.argmin(np.isfinite(post).all(axis=2))), n)
                    raise NumericalBreakdownError(
                        f"non-finite state at iteration {t + 1 - len(post) + r} (node {bad})")
                records += _observe(model, (train_X, train_y), dataset, layout, pending,
                                    rows[: at + 1])
                pending = []
            if vrsgp:
                G = decay_threshold(config.clip, G)

    summary = _summarize(config, seed, sigmas, records, theory_summary, theory_params, layout)
    return RunResult(records, summary, partition_report(dataset.labels, dataset.node_indices))


def _drifts(rows: np.ndarray, lags) -> np.ndarray:
    """empirical_d_tau of the last len(lags) of the (rounds, k, d) clipped
    occupied rows: round r's largest ||row_i - earlier_i||^2 over the lags[r]
    rounds before it, 0.0 if none.  One offset at a time, over views of
    rows; a difference takes at most the CHUNK_BYTES that `run` observes
    at once (k <= n), and the exact max keeps a NaN."""
    lags, p = np.array(lags), len(rows) - len(lags)  # round r's rows are rows[p + r]
    out = np.zeros(len(lags))
    for o in range(1, int(lags.max()) + 1):
        a = max(0, o - p)
        sq = np.add.reduce((rows[p + a :] - rows[p + a - o : len(rows) - o]) ** 2, axis=2)
        np.maximum(out[a:], sq.max(axis=1), out=out[a:], where=lags[a:] >= o)
    return out


def _stacked(arrays):
    """The arrays along a new first axis: a view of a single one, else one
    copy (np.concatenate, without np.stack's per-array calls)."""
    first = arrays[0]
    return (first[None] if len(arrays) == 1
            else np.concatenate(arrays).reshape(len(arrays), *first.shape))


def _observe(model, train, dataset, layout, rounds, rows) -> List[MetricsRecord]:
    """The records of a chunk of rounds, each given as its pre-update X and
    Z, full gradients, clip residuals, (t, G, alpha, eta) and interval lag,
    whose clipped occupied rows end `rows`.  The stacked calls give every
    round's bits: the drift (_drifts), xbar, the consensus error, one
    loss-only pass at every xbar and its segment means, test accuracy, the
    mean squared gradient norm and the mean clip residual over the occupied
    nodes.  A mean is x.sum() / x.size, np.mean's own arithmetic without
    its dispatch.  A non-finite value, which a finite but huge state can
    give, is a NumericalBreakdownError naming the first such round and its
    field."""
    X, Z, Full, resid, scalars, lags = zip(*rounds)
    # np.take keeps the node axis in C order (a fancy index would put it
    # first in memory), so every sum over it runs as it did round by round
    k = len(layout.nodes)
    occupied = np.take(_stacked(Full), layout.nodes, axis=1)
    mean_sq = np.einsum("cij,cij->ci", occupied, occupied).sum(axis=1) / k
    del occupied  # before the loss pass makes its plane
    resid_mean = np.take(_stacked(resid), layout.nodes, axis=1).sum(axis=1) / k
    X, Z = _stacked(X), _stacked(Z)
    n = X.shape[1]
    xbar = np.add.reduce(X, axis=1) / n
    cons = sq_deviations(Z, xbar[:, None]).sum(axis=1) / n
    train_loss = (row_pass(model, xbar, train, grad=False)
                  .segment_losses(layout.starts, layout.counts).sum(axis=1) / k)
    test_acc = (None if dataset.test_features is None
                else accuracy(model, xbar, dataset.test_features, dataset.test_labels))
    fields = {"mean_sq_grad_norm": mean_sq, "consensus_error": cons, "train_loss": train_loss,
              "clip_residual_mean": resid_mean, "empirical_d_tau": _drifts(rows, lags)}
    values = np.stack(list(fields.values()), axis=1)  # a row a round
    if not np.isfinite(values).all():
        r = int(np.argmin(np.isfinite(values).all(axis=1)))
        name = list(fields)[int(np.argmin(np.isfinite(values[r])))]
        raise NumericalBreakdownError(f"non-finite {name} at iteration {scalars[r][0]}")
    return [MetricsRecord(t=t, mean_sq_grad_norm=m, consensus_error=c, train_loss=loss,
                          test_accuracy=acc, current_g=G, alpha_injected=alpha, eta_t=eta,
                          clip_residual_mean=r, empirical_d_tau=d)
            for (t, G, alpha, eta), acc, (m, c, loss, r, d) in zip(
                scalars, test_acc or [None] * len(scalars), values.tolist())]


def _privacy_spent(config, sigmas):
    if config.sigma_override is not None:
        return None
    # each distinct (budget, multiplier) evaluated once; the accountant
    # consumes the sensitivity-normalized multiplier z = sigma / G
    bound = cache(lambda b, z: (epsilon_spent(b, z, config.noise), delta_bound(b, z, config.noise)))
    spent = []
    for i, (b, sigma) in enumerate(zip(config.budgets, sigmas)):
        eps, delta = bound(b, sigma / config.clip.g0)
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
