"""Experiment configuration: flat sectioned key-value files, validation with
field-path errors, and a canonical echo that reparses to an equal config.

Sections: [run], [topology], [noise], [lr], [clip], [fusion], [privacy],
[model], [data].  Scalar privacy keys broadcast across nodes; comma lists
give per-node values.  An unknown section or key is an error.
"""

from __future__ import annotations

import configparser
import os
import typing
from dataclasses import MISSING, dataclass, fields
from typing import List, Optional

import numpy as np

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
#
# [noise], [clip], [fusion], [model], [data] and the per-node lists of
# [privacy] map one-to-one onto the fields of their spec dataclass: the key
# is the lower-cased field name, the cast comes from the annotation and the
# default from the field.  [run], [topology], [lr] and privacy.sigma are read
# by hand, because their keys differ from the fields they set.


def _cast(annotation):
    """Parse function for a field annotation; Optional[X] parses as X."""
    args = [a for a in typing.get_args(annotation) if a is not type(None)]
    return args[0] if args else annotation


class _Reader:
    """Lower-cased config sections that remember every (section, key) the
    parser asked for, so that the keys nobody asked for can be rejected."""

    def __init__(self, sections: dict):
        self.sections = {
            str(sec).lower(): {str(k).lower(): v for k, v in body.items()}
            for sec, body in sections.items()
        }
        self.asked = set()

    def _raw(self, section: str, key: str):
        self.asked.add((section, key))
        return self.sections.get(section, {}).get(key, MISSING)

    def get(self, section: str, key: str, cast, default=MISSING):
        """One value parsed by cast; without a default the key is required."""
        raw = self._raw(section, key)
        if raw is MISSING:
            if default is MISSING:
                raise ConfigurationError(f"{section}.{key}: required key missing")
            return default
        try:
            if cast is bool:
                if str(raw).lower() in ("1", "true", "yes", "on"):
                    return True
                if str(raw).lower() in ("0", "false", "no", "off"):
                    return False
                raise ValueError(raw)
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{section}.{key}: cannot parse {raw!r} as {cast.__name__}"
            ) from exc

    def get_list(self, section: str, key: str, n: int, default=MISSING):
        """Float value broadcast to n entries, or an n-length comma list."""
        raw = self._raw(section, key)
        if raw is MISSING:
            if default is MISSING:
                raise ConfigurationError(f"{section}.{key}: required key missing")
            return [default] * n
        parts = [p for p in str(raw).split(",") if p.strip()]
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigurationError(f"{section}.{key}: cannot parse {str(raw)!r}") from exc
        if len(values) == 1:
            return values * n
        if len(values) != n:
            raise ConfigurationError(
                f"{section}.{key}: got {len(values)} values for {n} nodes"
            )
        return values

    def spec(self, section: str, cls, given=None, defaults=None) -> dict:
        """Keyword arguments for the spec dataclass cls: the given values,
        plus one key of [section] per other field, whose default is
        defaults[name] if named there and the field's own otherwise."""
        hints = typing.get_type_hints(cls)
        values = dict(given or {})
        for f in fields(cls):
            if f.name not in values:
                default = (defaults or {}).get(f.name, f.default)
                values[f.name] = self.get(section, f.name.lower(), _cast(hints[f.name]), default)
        return values

    def reject_unknown(self):
        known = {section for section, _ in self.asked}
        for section, body in self.sections.items():
            if section not in known:
                raise ConfigurationError(f"[{section}]: unknown section")
            for key in body:
                if (section, key) not in self.asked:
                    raise ConfigurationError(f"{section}.{key}: unknown key")


def parse_sections(sections: dict, base_dir: str = ".") -> ExperimentConfig:
    """Build a validated ExperimentConfig from a dict of string sections."""
    r = _Reader(sections)
    algorithm = r.get("run", "algorithm", str)
    n = r.get("run", "n", int)
    T = r.get("run", "t", int)
    master_seed = r.get("run", "master_seed", int, 0)
    theory_enabled = r.get("run", "theory", bool, True)

    kind = r.get("topology", "kind", str)
    topo_path = r.get("topology", "path", str, None)
    k = r.get("topology", "k", int, 1)
    if kind == "explicit-list":
        if not topo_path:
            raise ConfigurationError("topology.path: required for explicit-list")
        resolved = topo_path if os.path.isabs(topo_path) else os.path.join(base_dir, topo_path)
        topology = load_edge_list(resolved, n)
    else:
        topology = TopologySchedule(kind=kind, n=n, k=k)
    window_J = r.get("topology", "j", int, 1)
    diameter_kappa = r.get("topology", "kappa", int, None)

    noise = NoiseSchedule(**r.spec("noise", NoiseSchedule, given={"T": T}))

    xi = r.get("lr", "xi", float, 0.5)
    eta = r.get("lr", "eta", float, None)
    lr_K = r.get("lr", "k", float, None)
    p = r.get("lr", "p", float, None)
    if eta is None:
        if lr_K is None or p is None:
            raise ConfigurationError("lr: give either lr.eta or both lr.K and lr.p")
        eta = eta_from_exponent(lr_K, n, T, p)
    lr = LrSchedule(eta_base=eta, xi=xi, p=p)

    clip = ClipConfig(**r.spec("clip", ClipConfig))
    fusion = FusionConfig(**r.spec("fusion", FusionConfig, defaults={"tau": noise.tau}))

    per_node = {
        f.name: r.get_list("privacy", f.name.lower(), n, f.default)
        for f in fields(PrivacyBudget)
    }
    budgets = [
        PrivacyBudget(**{name: values[i] for name, values in per_node.items()})
        for i in range(n)
    ]
    sigma_override = r.get("privacy", "sigma", float, None)

    model = ModelSpec(**r.spec("model", ModelSpec))
    data = r.spec("data", DataSpec)
    if data["path"] and not os.path.isabs(data["path"]):
        data["path"] = os.path.join(base_dir, data["path"])
    data = DataSpec(**data)
    r.reject_unknown()

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


def _echo(spec, skip=()) -> dict:
    """Section body for a spec dataclass: one lower-cased key per field not
    in skip, leaving out fields that are None."""
    return {
        f.name.lower(): _fmt(getattr(spec, f.name))
        for f in fields(spec)
        if f.name not in skip and getattr(spec, f.name) is not None
    }


def to_sections(cfg: ExperimentConfig) -> dict:
    """Canonical echo of a validated config; parse_sections() on the result
    reproduces an equal ExperimentConfig."""

    def per_node(name):
        vals = [getattr(b, name) for b in cfg.budgets]
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
        "noise": _echo(cfg.noise, skip=("T",)),
        "lr": {"eta": _fmt(cfg.lr.eta_base), "xi": _fmt(cfg.lr.xi)},
        "clip": _echo(cfg.clip),
        "fusion": _echo(cfg.fusion),
        "privacy": {f.name.lower(): per_node(f.name) for f in fields(PrivacyBudget)},
        "model": _echo(cfg.model),
        "data": _echo(cfg.data),
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
    return sections
