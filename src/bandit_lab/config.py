"""Flat key-value experiment configuration.

A config file is lines of ``section.key = value`` with ``#`` comments.  Sweep
files may add ``variant.<label> = key=value key=value ...`` lines; each
variant is the base config with those overrides applied.  The same
``key=value`` tokens are accepted from the command line, so a file plus flags
always composes into one plain dictionary before being interpreted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    epsilon: float = 0.5
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
        if not self.label:
            object.__setattr__(self, "label", self.policy)


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
            overrides = {}
            for token in value.split():
                if "=" not in token:
                    raise ValueError(f"line {lineno}: variant tokens are key=value")
                k, v = token.split("=", 1)
                overrides[k.strip()] = v.strip()
            overrides.setdefault("run.label", label)
            variants[label] = overrides
        else:
            base[key] = value
    return base, variants


def _as_float(kv: dict[str, str], key: str, default: float | None) -> float | None:
    if key not in kv:
        return default
    value = float(kv[key])
    if math.isnan(value):
        # every comparison with NaN is false, so it would pass each range check
        raise ValueError(f"{key}: expected a number, got {kv[key]!r}")
    return value


def _as_int(kv: dict[str, str], key: str, default: int) -> int:
    return int(kv[key]) if key in kv else default

def _as_bool(kv: dict[str, str], key: str, default: bool) -> bool:
    if key not in kv:
        return default
    value = kv[key].lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"{key}: expected a boolean, got {kv[key]!r}")


_KNOWN_KEYS = frozenset(
    {
        "env.family",
        "env.context_dim",
        "env.action_grid",
        "env.noise_sigma",
        "env.seed",
        "env.chessboard_cells",
        "env.band_width",
        "kernel.family",
        "kernel.bandwidth",
        "kernel.kappa",
        "kernel.context_family",
        "kernel.context_bandwidth",
        "kernel.action_family",
        "kernel.action_bandwidth",
        "policy.name",
        "policy.lambda",
        "policy.mu",
        "policy.gamma",
        "policy.epsilon",
        "policy.beta_mode",
        "policy.beta",
        "policy.norm_bound",
        "policy.delta",
        "policy.accumulation_threshold",
        "run.T",
        "run.seeds",
        "run.output_dir",
        "run.label",
        "run.dump_dictionary",
    }
)


def build_run_config(kv: dict[str, str]) -> RunConfig:
    """Interpret a flat key map; unknown keys are errors, not typos to skip."""
    for key in kv:
        if key not in _KNOWN_KEYS:
            raise ValueError(f"unknown config key {key!r}")
    env = EnvSpec(
        family=kv.get("env.family", "bump"),
        context_dim=_as_int(kv, "env.context_dim", 0),
        action_grid=_as_int(kv, "env.action_grid", 50),
        noise_sigma=_as_float(kv, "env.noise_sigma", 0.1),
        seed=_as_int(kv, "env.seed", 0),
        chessboard_cells=_as_int(kv, "env.chessboard_cells", 4),
        band_width=_as_float(kv, "env.band_width", 0.1),
    )
    family = kv.get("kernel.family", "gaussian")
    kappa = _as_float(kv, "kernel.kappa", 0.0)
    if family == "linear" and kappa == 0.0:
        # joint states live in the unit cube, so sqrt(dim) bounds the feature norm
        kappa = math.sqrt(env.context_dim + 1)
    if family == "tensor":
        kernel = KernelSpec(
            family="tensor",
            kappa=kappa,
            context_kernel=_factor_kernel(kv, "context", env.context_dim),
            action_kernel=_factor_kernel(kv, "action", 1),
        )
    else:
        kernel = KernelSpec(
            family=family,
            bandwidth=_as_float(kv, "kernel.bandwidth", 0.2),
            kappa=kappa,
        )
    schedule = ExplorationSchedule(
        mode=kv.get("policy.beta_mode", "fixed"),
        beta=_as_float(kv, "policy.beta", 1.0),
        norm_bound=_as_float(kv, "policy.norm_bound", 1.0),
        delta=_as_float(kv, "policy.delta", 0.05),
    )
    seeds = tuple(
        int(token) for token in kv.get("run.seeds", "0").split(",") if token.strip()
    )
    if not seeds:
        raise ValueError("run.seeds must list at least one seed")
    return RunConfig(
        env=env,
        kernel=kernel,
        policy=kv.get("policy.name", "kucb"),
        lam=_as_float(kv, "policy.lambda", 1.0),
        mu=_as_float(kv, "policy.mu", 1.0),
        gamma=_as_float(kv, "policy.gamma", None),
        epsilon=_as_float(kv, "policy.epsilon", 0.5),
        schedule=schedule,
        accumulation_threshold=_as_float(kv, "policy.accumulation_threshold", 10.0),
        horizon=_as_int(kv, "run.T", 100),
        seeds=seeds,
        output_dir=kv.get("run.output_dir", "out"),
        label=kv.get("run.label", ""),
        dump_dictionary=_as_bool(kv, "run.dump_dictionary", False),
    )


def _factor_kernel(kv: dict[str, str], part: str, dim: int) -> KernelSpec:
    family = kv.get(f"kernel.{part}_family", "gaussian")
    if family == "linear":
        return KernelSpec(family="linear", kappa=math.sqrt(dim))
    return KernelSpec(
        family="gaussian", bandwidth=_as_float(kv, f"kernel.{part}_bandwidth", 0.2)
    )


def apply_overrides(kv: dict[str, str], tokens: list[str]) -> dict[str, str]:
    out = dict(kv)
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"override {token!r} is not key=value")
        key, value = token.split("=", 1)
        out[key.strip()] = value.strip()
    return out


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
