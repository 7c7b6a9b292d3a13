import numpy as np
import pytest

from pushdp.config import DataSpec, ExperimentConfig, ModelSpec, RunSpec
from pushdp.fusion import ClipConfig, FusionConfig
from pushdp.models import row_pass
from pushdp.privacy import LrSchedule, NoiseSchedule, PrivacyBudget
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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
