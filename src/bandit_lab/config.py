"""Flat key-value experiment configuration.

A config file is lines of ``section.key = value`` with ``#`` comments.  Sweep
files may add ``variant.<label> = key=value key=value ...`` lines; each
variant is the base config with those overrides applied.  The same
``key=value`` tokens are accepted from the command line, so a file plus flags
always composes into one plain dictionary before being interpreted.

Each key is declared once, in ``_KEYS``, with the dataclass field it sets and
its parser; that table is also the list of known keys.  Defaults live only on
the dataclasses (``EnvSpec``, ``KernelSpec``, ``ExplorationSchedule``,
``RunConfig``, whose ``epsilon`` reads ``KorsParams``'s), which also check the
ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dictionary import KorsParams
from .environments import EnvSpec
from .kernels import KernelSpec
from .policies import ExplorationSchedule

POLICY_NAMES = ("kucb", "ekucb", "cbkb", "cbbkb", "random")


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment cell needs, resolved and validated."""

    env: EnvSpec
    kernel: KernelSpec
    policy: str
    lam: float = 1.0
    mu: float = 1.0
    gamma: float | None = None  # None: 12 log(T^3) budget at run time
    epsilon: float = KorsParams.epsilon
    schedule: ExplorationSchedule = field(default_factory=ExplorationSchedule)
    accumulation_threshold: float = 10.0
    horizon: int = 100
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "out"
    label: str = ""
    dump_dictionary: bool = False

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.horizon < 1:
            raise ValueError("run.T must be at least 1")
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("policy.lambda and policy.mu must be positive")
        if self.epsilon <= 0:
            raise ValueError("policy.epsilon must be positive")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("policy.gamma must be positive")
        if self.accumulation_threshold < 1:
            raise ValueError("policy.accumulation_threshold must be at least 1")
        if not self.seeds:
            raise ValueError("run.seeds must list at least one seed")
        if min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ValueError("run.seeds must be distinct and non-negative")
        if not self.label:
            object.__setattr__(self, "label", self.policy)


def _tokens(tokens: list[str], what: str) -> dict[str, str]:
    """``key=value`` tokens as a map; ``what`` names the source in errors."""
    out = {}
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"{what} {token!r} is not key=value")
        key, value = token.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_config_text(text: str) -> tuple[dict[str, str], dict[str, dict[str, str]]]:
    """Split config text into base keys and per-variant override maps."""
    base: dict[str, str] = {}
    variants: dict[str, dict[str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key.startswith("variant."):
            label = key[len("variant.") :]
            if not label:
                raise ValueError(f"line {lineno}: variant needs a label")
            overrides = _tokens(value.split(), f"line {lineno}: variant token")
            overrides.setdefault("run.label", label)
            variants[label] = overrides
        else:
            base[key] = value
    return base, variants


def _real(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        # every comparison with NaN is false, so it would pass each range check
        raise ValueError(f"expected a number, got {text!r}")
    return value


def _bool(text: str) -> bool:
    value = text.lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _seeds(text: str) -> tuple[int, ...]:
    return tuple(int(token) for token in text.split(",") if token.strip())


# key -> (constructor group, field, parser).  Groups: ``env`` (EnvSpec),
# ``kernel`` (KernelSpec), ``context``/``action`` (a tensor factor's
# KernelSpec), ``schedule`` (ExplorationSchedule) and ``run`` (RunConfig).
_KEYS = {
    "env.family": ("env", "family", str),
    "env.context_dim": ("env", "context_dim", int),
    "env.action_grid": ("env", "action_grid", int),
    "env.noise_sigma": ("env", "noise_sigma", _real),
    "env.seed": ("env", "seed", int),
    "env.chessboard_cells": ("env", "chessboard_cells", int),
    "env.band_width": ("env", "band_width", _real),
    "kernel.family": ("kernel", "family", str),
    "kernel.bandwidth": ("kernel", "bandwidth", _real),
    "kernel.kappa": ("kernel", "kappa", _real),
    "kernel.context_family": ("context", "family", str),
    "kernel.context_bandwidth": ("context", "bandwidth", _real),
    "kernel.action_family": ("action", "family", str),
    "kernel.action_bandwidth": ("action", "bandwidth", _real),
    "policy.name": ("run", "policy", str),
    "policy.lambda": ("run", "lam", _real),
    "policy.mu": ("run", "mu", _real),
    "policy.gamma": ("run", "gamma", _real),
    "policy.epsilon": ("run", "epsilon", _real),
    "policy.beta_mode": ("schedule", "mode", str),
    "policy.beta": ("schedule", "beta", _real),
    "policy.norm_bound": ("schedule", "norm_bound", _real),
    "policy.delta": ("schedule", "delta", _real),
    "policy.accumulation_threshold": ("run", "accumulation_threshold", _real),
    "run.T": ("run", "horizon", int),
    "run.seeds": ("run", "seeds", _seeds),
    "run.output_dir": ("run", "output_dir", str),
    "run.label": ("run", "label", str),
    "run.dump_dictionary": ("run", "dump_dictionary", _bool),
}


def build_run_config(kv: dict[str, str]) -> RunConfig:
    """Interpret a flat key map; unknown keys are errors, not typos to skip.

    Only the keys present are parsed; every other field keeps its dataclass
    default.  The environment family, each kernel family and the policy have
    none, so they default here.
    """
    groups = {"env": {"family": "bump"}, "schedule": {}, "run": {"policy": "kucb"}}
    groups.update({part: {"family": "gaussian"} for part in ("kernel", "context", "action")})
    for key, text in kv.items():
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r}")
        group, name, parse = _KEYS[key]
        try:
            groups[group][name] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    env = EnvSpec(**groups["env"])
    kernel = groups["kernel"]
    if kernel["family"] == "linear" and not kernel.get("kappa"):
        # joint states live in the unit cube, so sqrt(dim) bounds the feature norm
        kernel["kappa"] = math.sqrt(env.context_dim + 1)
    if kernel["family"] == "tensor":
        kernel.pop("bandwidth", None)
        for part, dim in (("context", env.context_dim), ("action", 1)):
            kernel[f"{part}_kernel"] = _factor_kernel(part, groups[part], dim)
    return RunConfig(
        env=env,
        kernel=KernelSpec(**kernel),
        schedule=ExplorationSchedule(**groups["schedule"]),
        **groups["run"],
    )


def _factor_kernel(part: str, fields: dict, dim: int) -> KernelSpec:
    """One factor of a tensor kernel; its errors name the ``kernel.<part>_*`` key."""
    family = fields["family"]
    # a gaussian factor can only fail on its bandwidth, any other on its family
    key = f"kernel.{part}_bandwidth" if family == "gaussian" else f"kernel.{part}_family"
    try:
        if family == "tensor":
            raise ValueError("tensor factors cannot be tensors")
        if family == "linear":
            # a linear factor has no bandwidth, and its inputs lie in [0, 1]^dim
            return KernelSpec(family="linear", kappa=math.sqrt(dim))
        return KernelSpec(**fields)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def apply_overrides(kv: dict[str, str], tokens: list[str]) -> dict[str, str]:
    return {**kv, **_tokens(tokens, "override")}


def expand_variants(
    base: dict[str, str], variants: dict[str, dict[str, str]]
) -> list[RunConfig]:
    """One RunConfig per variant; just the base when no variants exist."""
    if not variants:
        return [build_run_config(base)]
    configs = []
    for label, overrides in variants.items():
        merged = dict(base)
        merged.update(overrides)
        configs.append(build_run_config(merged))
    return configs
