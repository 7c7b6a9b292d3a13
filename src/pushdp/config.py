"""Experiment configuration: flat sectioned key-value files, validation with
field-path errors, and a canonical echo that reparses to an equal config.

Sections: [run], [topology], [noise], [lr], [clip], [fusion], [privacy],
[model], [data].  Scalar privacy keys broadcast across nodes; comma lists
give per-node values.
"""

from __future__ import annotations

import configparser
import os

import numpy as np
from dataclasses import dataclass
from typing import List, Optional

from .errors import ConfigurationError
from .fusion import ClipConfig, FusionConfig
from .privacy import LrSchedule, NoiseSchedule, PrivacyBudget, eta_from_exponent
from .topology import TopologySchedule, load_edge_list

ALGORITHMS = ("sdlr", "adp-vrsgp")


@dataclass(frozen=True)
class ModelSpec:
    kind: str  # quadratic | logistic | mlp
    features: int = 2
    l2: float = 0.0
    hidden: int = 8
    classes: int = 2

    def __post_init__(self):
        if self.kind not in ("quadratic", "logistic", "mlp"):
            raise ConfigurationError(f"model.kind: unknown kind {self.kind!r}")
        if self.features < 1:
            raise ConfigurationError(f"model.features: must be >= 1, got {self.features}")
        if self.classes < 1:
            raise ConfigurationError(f"model.classes: must be >= 1, got {self.classes}")


@dataclass(frozen=True)
class DataSpec:
    kind: str  # blobs | quadratic | csv
    n_samples: int = 400
    path: Optional[str] = None
    separation: float = 4.0
    spread: float = 0.1
    test_fraction: float = 0.0
    alpha_conc: float = 1.0

    def __post_init__(self):
        if self.kind not in ("blobs", "quadratic", "csv"):
            raise ConfigurationError(f"data.kind: unknown kind {self.kind!r}")
        if self.kind == "csv" and not self.path:
            raise ConfigurationError("data.path: required when data.kind = csv")
        if self.n_samples < 1:
            raise ConfigurationError(f"data.n_samples: must be >= 1, got {self.n_samples}")
        if self.alpha_conc <= 0:
            raise ConfigurationError(f"data.alpha_conc: must be > 0, got {self.alpha_conc}")


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    n: int
    T: int
    topology: TopologySchedule
    noise: NoiseSchedule
    lr: LrSchedule
    clip: ClipConfig
    fusion: FusionConfig
    budgets: List[PrivacyBudget]
    model: ModelSpec
    data: DataSpec
    master_seed: int = 0
    window_J: int = 1
    diameter_kappa: Optional[int] = None
    sigma_override: Optional[float] = None
    theory_enabled: bool = True
    lr_K: Optional[float] = None
    topology_path: Optional[str] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"run.algorithm: must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.n < 2:
            raise ConfigurationError(f"run.n: need at least 2 nodes, got {self.n}")
        if self.T < 1:
            raise ConfigurationError(f"run.T: must be >= 1, got {self.T}")
        if self.topology.n != self.n:
            raise ConfigurationError(
                f"topology: node count {self.topology.n} does not match run.n = {self.n}"
            )
        if self.noise.T != self.T:
            raise ConfigurationError(
                f"noise: schedule horizon {self.noise.T} does not match run.T = {self.T}"
            )
        if self.fusion.tau != self.noise.tau:
            raise ConfigurationError(
                f"fusion.tau = {self.fusion.tau} must equal noise.tau = {self.noise.tau}"
            )
        if len(self.budgets) != self.n:
            raise ConfigurationError(
                f"privacy: {len(self.budgets)} budgets for {self.n} nodes"
            )
        if self.window_J < 1:
            raise ConfigurationError(f"topology.J: must be >= 1, got {self.window_J}")
        if self.diameter_kappa is not None and self.diameter_kappa < 1:
            raise ConfigurationError(f"topology.kappa: must be >= 1, got {self.diameter_kappa}")
        if self.master_seed < 0:
            raise ConfigurationError(f"run.master_seed: must be >= 0, got {self.master_seed}")
        if self.sigma_override is not None and not self.sigma_override >= 0:
            raise ConfigurationError(f"privacy.sigma: must be >= 0, got {self.sigma_override}")


# ------------------------------------------------------------- parsing


def _get(sections: dict, section: str, key: str, cast, default=None, required=False):
    sec = sections.get(section, {})
    if key not in sec:
        if required:
            raise ConfigurationError(f"{section}.{key}: required key missing")
        return default
    raw = sec[key]
    try:
        if cast is bool:
            if str(raw).lower() in ("1", "true", "yes", "on"):
                return True
            if str(raw).lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{section}.{key}: cannot parse {raw!r} as {cast.__name__}") from exc


def _get_list(sections: dict, section: str, key: str, n: int, default=None):
    """Float value broadcast to n entries, or an n-length comma list."""
    sec = sections.get(section, {})
    if key not in sec:
        if default is None:
            raise ConfigurationError(f"{section}.{key}: required key missing")
        return [default] * n
    raw = str(sec[key])
    parts = [p for p in raw.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigurationError(f"{section}.{key}: cannot parse {raw!r}") from exc
    if len(values) == 1:
        return values * n
    if len(values) != n:
        raise ConfigurationError(
            f"{section}.{key}: got {len(values)} values for {n} nodes"
        )
    return values


def parse_sections(sections: dict, base_dir: str = ".") -> ExperimentConfig:
    """Build a validated ExperimentConfig from a dict of string sections."""
    sections = {
        str(sec).lower(): {str(k).lower(): v for k, v in body.items()}
        for sec, body in sections.items()
    }
    algorithm = _get(sections, "run", "algorithm", str, required=True)
    n = _get(sections, "run", "n", int, required=True)
    T = _get(sections, "run", "t", int, required=True)
    master_seed = _get(sections, "run", "master_seed", int, default=0)
    theory_enabled = _get(sections, "run", "theory", bool, default=True)

    kind = _get(sections, "topology", "kind", str, required=True)
    topo_path = _get(sections, "topology", "path", str)
    if kind == "explicit-list":
        if not topo_path:
            raise ConfigurationError("topology.path: required for explicit-list")
        resolved = topo_path if os.path.isabs(topo_path) else os.path.join(base_dir, topo_path)
        topology = load_edge_list(resolved, n)
    else:
        topology = TopologySchedule(kind=kind, n=n, k=_get(sections, "topology", "k", int, default=1))
    window_J = _get(sections, "topology", "j", int, default=1)
    diameter_kappa = _get(sections, "topology", "kappa", int)

    form = _get(sections, "noise", "form", str, required=True)
    noise = NoiseSchedule(
        form=form,
        T=T,
        s=_get(sections, "noise", "s", float, required=True),
        tau=_get(sections, "noise", "tau", int, default=1),
        K=_get(sections, "noise", "k", float, default=1.0),
        a1=_get(sections, "noise", "a1", float, default=1.0),
        a2=_get(sections, "noise", "a2", float, default=10.0),
    )

    xi = _get(sections, "lr", "xi", float, default=0.5)
    eta = _get(sections, "lr", "eta", float)
    lr_K = _get(sections, "lr", "k", float)
    p = _get(sections, "lr", "p", float)
    if eta is None:
        if lr_K is None or p is None:
            raise ConfigurationError("lr: give either lr.eta or both lr.K and lr.p")
        eta = eta_from_exponent(lr_K, n, T, p)
    lr = LrSchedule(eta_base=eta, xi=xi, p=p)

    clip = ClipConfig(
        g0=_get(sections, "clip", "g0", float, required=True),
        psi=_get(sections, "clip", "psi", float, default=1.0),
    )
    fusion = FusionConfig(
        theta=_get(sections, "fusion", "theta", float, default=0.0),
        tau=_get(sections, "fusion", "tau", int, default=noise.tau),
    )

    eps = _get_list(sections, "privacy", "epsilon", n)
    delta = _get_list(sections, "privacy", "delta", n)
    ratio = _get_list(sections, "privacy", "sampling_ratio", n)
    c1 = _get_list(sections, "privacy", "c1", n, default=1.0)
    c2 = _get_list(sections, "privacy", "c2", n, default=1.0)
    budgets = [
        PrivacyBudget(epsilon=eps[i], delta=delta[i], sampling_ratio=ratio[i], c1=c1[i], c2=c2[i])
        for i in range(n)
    ]
    sigma_override = _get(sections, "privacy", "sigma", float)

    model = ModelSpec(
        kind=_get(sections, "model", "kind", str, required=True),
        features=_get(sections, "model", "features", int, default=2),
        l2=_get(sections, "model", "l2", float, default=0.0),
        hidden=_get(sections, "model", "hidden", int, default=8),
        classes=_get(sections, "model", "classes", int, default=2),
    )
    data_kind = _get(sections, "data", "kind", str, required=True)
    data_path = _get(sections, "data", "path", str)
    if data_path and not os.path.isabs(data_path):
        data_path = os.path.join(base_dir, data_path)
    data = DataSpec(
        kind=data_kind,
        n_samples=_get(sections, "data", "n_samples", int, default=400),
        path=data_path,
        separation=_get(sections, "data", "separation", float, default=4.0),
        spread=_get(sections, "data", "spread", float, default=0.1),
        test_fraction=_get(sections, "data", "test_fraction", float, default=0.0),
        alpha_conc=_get(sections, "data", "alpha_conc", float, default=1.0),
    )

    return ExperimentConfig(
        algorithm=algorithm,
        n=n,
        T=T,
        topology=topology,
        noise=noise,
        lr=lr,
        clip=clip,
        fusion=fusion,
        budgets=budgets,
        model=model,
        data=data,
        master_seed=master_seed,
        window_J=window_J,
        diameter_kappa=diameter_kappa,
        sigma_override=sigma_override,
        theory_enabled=theory_enabled,
        lr_K=lr_K,
        topology_path=topo_path,
    )


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    return parse_sections(sections, base_dir=os.path.dirname(os.path.abspath(path)))


def _fmt(value) -> str:
    # repr of a python float round-trips exactly; coerce numpy scalars first
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def to_sections(cfg: ExperimentConfig) -> dict:
    """Canonical echo of a validated config; parse_sections() on the result
    reproduces an equal ExperimentConfig."""
    b0 = cfg.budgets[0]

    def per_node(attr):
        vals = [getattr(b, attr) for b in cfg.budgets]
        if all(v == vals[0] for v in vals):
            return _fmt(vals[0])
        return ",".join(_fmt(v) for v in vals)

    sections = {
        "run": {
            "algorithm": cfg.algorithm,
            "n": str(cfg.n),
            "t": str(cfg.T),
            "master_seed": str(cfg.master_seed),
            "theory": "true" if cfg.theory_enabled else "false",
        },
        "topology": {"kind": cfg.topology.kind, "j": str(cfg.window_J)},
        "noise": {
            "form": cfg.noise.form,
            "s": _fmt(cfg.noise.s),
            "tau": str(cfg.noise.tau),
            "k": _fmt(cfg.noise.K),
            "a1": _fmt(cfg.noise.a1),
            "a2": _fmt(cfg.noise.a2),
        },
        "lr": {"eta": _fmt(cfg.lr.eta_base), "xi": _fmt(cfg.lr.xi)},
        "clip": {"g0": _fmt(cfg.clip.g0), "psi": _fmt(cfg.clip.psi)},
        "fusion": {"theta": _fmt(cfg.fusion.theta), "tau": str(cfg.fusion.tau)},
        "privacy": {
            "epsilon": per_node("epsilon"),
            "delta": per_node("delta"),
            "sampling_ratio": per_node("sampling_ratio"),
            "c1": per_node("c1"),
            "c2": per_node("c2"),
        },
        "model": {
            "kind": cfg.model.kind,
            "features": str(cfg.model.features),
            "l2": _fmt(cfg.model.l2),
            "hidden": str(cfg.model.hidden),
            "classes": str(cfg.model.classes),
        },
        "data": {
            "kind": cfg.data.kind,
            "n_samples": str(cfg.data.n_samples),
            "separation": _fmt(cfg.data.separation),
            "spread": _fmt(cfg.data.spread),
            "test_fraction": _fmt(cfg.data.test_fraction),
            "alpha_conc": _fmt(cfg.data.alpha_conc),
        },
    }
    if cfg.topology.kind == "static-ring":
        sections["topology"]["k"] = str(cfg.topology.k)
    if cfg.topology.kind == "explicit-list":
        sections["topology"]["path"] = cfg.topology_path
    if cfg.diameter_kappa is not None:
        sections["topology"]["kappa"] = str(cfg.diameter_kappa)
    if cfg.lr.p is not None:
        sections["lr"]["p"] = _fmt(cfg.lr.p)
    if cfg.lr_K is not None:
        sections["lr"]["k"] = _fmt(cfg.lr_K)
    if cfg.sigma_override is not None:
        sections["privacy"]["sigma"] = _fmt(cfg.sigma_override)
    if cfg.data.path is not None:
        sections["data"]["path"] = cfg.data.path
    return sections


def write_config(cfg: ExperimentConfig, path: str):
    parser = configparser.ConfigParser()
    for name, body in to_sections(cfg).items():
        parser[name] = body
    with open(path, "w") as fh:
        parser.write(fh)
