from contextlib import contextmanager

import numpy as np
import pytest

from pushdp import engine
from pushdp.config import DataSpec, ExperimentConfig, ModelSpec, RunSpec
from pushdp.fusion import ClipConfig, FusionConfig
from pushdp.models import row_pass
from pushdp.privacy import LrSchedule, NoiseSchedule, PrivacyBudget
from pushdp.pushsum import sq_deviations
from pushdp.topology import TopologySchedule


def make_config(**overrides) -> ExperimentConfig:
    """Small, fast experiment config; override any field by keyword.
    algorithm and theory=True (the theory block on) set the run spec, and
    p sets lr.p."""
    n = overrides.pop("n", 8)
    T = overrides.pop("T", 60)
    tau = overrides.pop("tau", 5)
    theta = overrides.pop("theta", 0.5)
    epsilon = overrides.pop("epsilon", 1.0)
    ratio = overrides.pop("sampling_ratio", 0.5)
    run = RunSpec(algorithm=overrides.pop("algorithm", "adp-vrsgp"), n=n, T=T,
                  theory=overrides.pop("theory", False))
    defaults = dict(
        run=run,
        topology=TopologySchedule(kind="static-ring", n=n, k=min(2, n - 1)),
        noise=NoiseSchedule(form="stepwise", T=T, s=0.2, tau=tau, a1=1.0, a2=10.0),
        lr=LrSchedule(eta=1.0, xi=0.5, p=overrides.pop("p", None)),
        clip=ClipConfig(g0=0.1, psi=0.99),
        fusion=FusionConfig(theta=theta),
        budgets=[
            PrivacyBudget(epsilon=epsilon, delta=1e-5, sampling_ratio=ratio)
            for _ in range(n)
        ],
        model=ModelSpec(kind="logistic", features=5, l2=0.01),
        data=DataSpec(kind="blobs", n_samples=240, test_fraction=0.2, alpha_conc=1.0),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def reference_dsgd(model, dataset, node_indices, P, eta, T):
    """Plain decentralized SGD reference: full-batch local gradient step then
    one mixing pass, x <- P (x - eta * grad).  Independent of the engine's
    clip/perturb/fuse/push-sum machinery."""
    n = len(node_indices)
    X = np.zeros((n, model.dim))
    trajectory = []
    for _ in range(T):
        grads = np.stack([
            row_pass(model, X[i], (dataset.features[idx], dataset.labels[idx])).grad()
            for i, idx in enumerate(node_indices)
        ])
        X = P @ (X - eta * grads)
        trajectory.append(X.copy())
    return trajectory


class RoundLog:
    """What `observe_rounds` saw of every engine round, in round order."""

    def __init__(self):
        self.states = []  # the post-mix (X, w, Z)
        self.fused = []  # the fused rows F of the half-step X - eta * F

    @property
    def trajectory(self):
        """The post-mix (n, d) parameter stack X of every round."""
        return [X for X, _, _ in self.states]

    @property
    def fused_norms(self):
        """(T, n) ||g_fused|| per (round, node), np.linalg.norm's arithmetic."""
        return np.array([np.sqrt(np.add.reduce(F * F, axis=1)) for F in self.fused])

    @property
    def node_deviations(self):
        """(T, n) ||z_i - xbar|| at the state each round starts from: round
        0 at the shared start x0, where every deviation is 0."""
        n = len(self.states[0][1])
        return np.sqrt([np.zeros(n)] + [sq_deviations(Z, X.sum(axis=0) / n)
                                        for X, _, Z in self.states[:-1]])


@contextmanager
def observe_rounds():
    """Log the rounds of the engine runs made inside the block: the state
    returned by `engine.mix_round`, and the fused rows, which are the
    `engine.fuse` output under adp-vrsgp and the `engine.perturb` output
    otherwise.  Patches and restores the engine module itself, so that it
    works inside a test and in a plain script alike."""
    log = RoundLog()
    real = {name: getattr(engine, name) for name in ("mix_round", "perturb", "fuse")}

    def mix_round(X, w, P):
        out = real["mix_round"](X, w, P)
        log.states.append(tuple(a.copy() for a in out))
        return out

    def perturb(clipped, multiplier, noise):
        out = real["perturb"](clipped, multiplier, noise)
        log.fused.append(out.copy())
        return out

    def fuse(noisy, prev, theta):  # replaces the round's perturb output
        out = real["fuse"](noisy, prev, theta)
        log.fused[-1] = out.copy()
        return out

    for name, fn in (("mix_round", mix_round), ("perturb", perturb), ("fuse", fuse)):
        setattr(engine, name, fn)
    try:
        yield log
    finally:
        for name, fn in real.items():
            setattr(engine, name, fn)


def observed_run(config, master_seed):
    """`engine.run` under `observe_rounds`: (RunResult, RoundLog)."""
    with observe_rounds() as log:
        return engine.run(config, master_seed=master_seed), log


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
