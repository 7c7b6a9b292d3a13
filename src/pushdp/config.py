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
from functools import cache
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
class RunSpec:
    algorithm: str  # sdlr | adp-vrsgp
    n: int
    T: int
    master_seed: int = 0
    theory: bool = True  # run the theory block

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"run.algorithm: must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.n < 2:
            raise ConfigurationError(f"run.n: need at least 2 nodes, got {self.n}")
        if self.T < 1:
            raise ConfigurationError(f"run.T: must be >= 1, got {self.T}")
        if self.master_seed < 0:
            raise ConfigurationError(f"run.master_seed: must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One spec per config section; sigma_override is the optional
    privacy.sigma."""

    run: RunSpec
    topology: TopologySchedule
    noise: NoiseSchedule
    lr: LrSchedule
    clip: ClipConfig
    fusion: FusionConfig
    budgets: List[PrivacyBudget]
    model: ModelSpec
    data: DataSpec
    sigma_override: Optional[float] = None

    @property
    def n(self) -> int:
        return self.run.n

    @property
    def T(self) -> int:
        return self.run.T

    def __post_init__(self):
        if self.topology.n != self.n:
            raise ConfigurationError(
                f"topology: node count {self.topology.n} does not match run.n = {self.n}"
            )
        if self.noise.T != self.T:
            raise ConfigurationError(
                f"noise: schedule horizon {self.noise.T} does not match run.T = {self.T}"
            )
        if len(self.budgets) != self.n:
            raise ConfigurationError(
                f"privacy: {len(self.budgets)} budgets for {self.n} nodes"
            )
        if self.sigma_override is not None and not self.sigma_override >= 0:
            raise ConfigurationError(f"privacy.sigma: must be >= 0, got {self.sigma_override}")


# ------------------------------------------------------------- parsing
#
# Every section maps one-to-one onto the fields of its spec dataclass: the
# key is the lower-cased field name, the cast comes from the annotation and
# the default from the field.  Only derived values are handled by hand:
# noise.T and topology.n (from run), the edge sets (from topology.path),
# lr.eta (from lr.K and lr.p when absent), the paths, the per-node
# [privacy] lists, the fusion.tau check and privacy.sigma.


@cache
def field_types(cls) -> dict:
    """Parse function per field of the dataclass cls, from its annotation;
    Optional[X] parses as X.  Computed once per class: the dict is shared,
    so callers must not change it."""
    types = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        types[name] = args[0] if args else hint
    return types


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
        types = field_types(cls)
        values = dict(given or {})
        for f in fields(cls):
            if f.name not in values:
                default = (defaults or {}).get(f.name, f.default)
                values[f.name] = self.get(section, f.name.lower(), types[f.name], default)
        return values

    def reject_unknown(self):
        known = {section for section, _ in self.asked}
        for section, body in self.sections.items():
            if section not in known:
                raise ConfigurationError(f"[{section}]: unknown section")
            for key in body:
                if (section, key) not in self.asked:
                    raise ConfigurationError(f"{section}.{key}: unknown key")


def _existing(key: str, base_dir: str, path: str) -> str:
    """path resolved against the config's directory, which must name a file."""
    full = os.path.join(base_dir, path)
    if not os.path.isfile(full):
        raise ConfigurationError(f"{key}: no such file {full}")
    return full


def parse_sections(sections: dict, base_dir: str = ".") -> ExperimentConfig:
    """Build a validated ExperimentConfig from a dict of string sections."""
    r = _Reader(sections)
    run = RunSpec(**r.spec("run", RunSpec))
    n, T = run.n, run.T

    topology = r.spec("topology", TopologySchedule, given={"n": n, "edge_sets": ()})
    if topology["kind"] == "explicit-list":
        if not topology["path"]:
            raise ConfigurationError("topology.path: required for explicit-list")
        topology["path"] = _existing("topology.path", base_dir, topology["path"])
        topology["edge_sets"] = load_edge_list(topology["path"], n)
    topology = TopologySchedule(**topology)

    noise = NoiseSchedule(**r.spec("noise", NoiseSchedule, given={"T": T}))

    lr = r.spec("lr", LrSchedule, defaults={"eta": None})
    if lr["eta"] is None:
        if lr["K"] is None or lr["p"] is None:
            raise ConfigurationError("lr: give either lr.eta or both lr.K and lr.p")
        lr["eta"] = eta_from_exponent(lr["K"], n, T, lr["p"])
    lr = LrSchedule(**lr)

    clip = ClipConfig(**r.spec("clip", ClipConfig))
    fusion = FusionConfig(**r.spec("fusion", FusionConfig))
    fusion_tau = r.get("fusion", "tau", int, noise.tau)
    if fusion_tau != noise.tau:
        raise ConfigurationError(f"fusion.tau = {fusion_tau} must equal noise.tau = {noise.tau}")

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
    if data["path"]:
        data["path"] = _existing("data.path", base_dir, data["path"])
    data = DataSpec(**data)
    r.reject_unknown()

    return ExperimentConfig(
        run=run, topology=topology, noise=noise, lr=lr, clip=clip, fusion=fusion,
        budgets=budgets, model=model, data=data, sigma_override=sigma_override,
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
    if isinstance(value, bool):
        return str(value).lower()
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
        "run": _echo(cfg.run),
        "topology": _echo(cfg.topology, skip=("n", "edge_sets")),
        "noise": _echo(cfg.noise, skip=("T",)),
        "lr": _echo(cfg.lr),
        "clip": _echo(cfg.clip),
        "fusion": {**_echo(cfg.fusion), "tau": _fmt(cfg.noise.tau)},
        "privacy": {f.name.lower(): per_node(f.name) for f in fields(PrivacyBudget)},
        "model": _echo(cfg.model),
        "data": _echo(cfg.data),
    }
    if cfg.sigma_override is not None:
        sections["privacy"]["sigma"] = _fmt(cfg.sigma_override)
    return sections
