import math
import re
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from bandit_lab.config import (
    _KEYS,
    RunConfig,
    apply_overrides,
    build_run_config,
    expand_variants,
    parse_config_text,
)
from bandit_lab.environments import EnvSpec
from bandit_lab.kernels import KernelSpec

SAMPLE = """
# benchmark base
env.family = bump
env.action_grid = 25          # trailing comment
policy.name = ekucb
policy.lambda = 10
policy.mu = 10
run.T = 40
run.seeds = 0,1,2

variant.exact = policy.name=kucb
variant.sparse = policy.mu=100 run.label=very_sparse
"""


def test_parse_config_text():
    base, variants = parse_config_text(SAMPLE)
    assert base["env.family"] == "bump"
    assert base["env.action_grid"] == "25"
    assert set(variants) == {"exact", "sparse"}
    assert variants["exact"] == {"policy.name": "kucb", "run.label": "exact"}
    # an explicit label wins over the variant name
    assert variants["sparse"]["run.label"] == "very_sparse"


@pytest.mark.parametrize(
    "text, lines",
    [
        ("run.T = 5\nenv.seed = 1\nrun.T = 7\n", (1, 3)),
        ("run.T = 5\nvariant.a = policy.name=kucb\n\nvariant.a = policy.name=ekucb\n", (2, 4)),
    ],
)
def test_a_key_or_label_given_twice_is_an_error(text, lines):
    first, second = lines
    with pytest.raises(ValueError, match=rf"line {second}: .* line {first}\b"):
        parse_config_text(text)


@pytest.mark.parametrize(
    "text, where",
    [
        ("variant.a = run.T=5 run.T=7\n", "line 1: variant 'a'"),
        ("run.T = 5\n\nvariant.b = policy.name=kucb run.T=5 run.T=5\n", "line 3: variant 'b'"),
    ],
)
def test_a_key_repeated_in_a_variant_line_is_an_error(text, where):
    with pytest.raises(ValueError, match=rf"^{re.escape(where)}: run\.T is given twice$"):
        parse_config_text(text)


def test_a_key_repeated_in_the_overrides_is_an_error():
    # what --set run.T=5 --T 7 and --set a=1 --set a=2 build
    for tokens in (["run.T=5", "run.T=7"], ["policy.mu=1", "run.T=5", " policy.mu =1"]):
        with pytest.raises(ValueError, match="is given twice"):
            apply_overrides({"run.T": "3"}, tokens)
    # a key the base map already holds is overridden, once
    assert apply_overrides({"run.T": "3"}, ["run.T=5"]) == {"run.T": "5"}


def test_shipped_presets_have_no_repeated_lines():
    for preset in ("bump_sweep", "chessboard_sweep", "stepdiag_sweep"):
        text = resources.files("bandit_lab").joinpath("presets", f"{preset}.cfg").read_text()
        _, variants = parse_config_text(text)
        assert variants


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_config_text("env.family bump")
    with pytest.raises(ValueError):
        parse_config_text("variant. = policy.name=kucb")
    with pytest.raises(ValueError):
        parse_config_text("variant.a = policyname")


def test_build_run_config_defaults():
    config = build_run_config({})
    assert config.policy == "kucb"
    assert config.env.family == "bump"
    assert config.kernel.family == "gaussian"
    assert config.lam == 1.0
    assert config.horizon == 100
    assert config.seeds == (0,)
    assert config.gamma is None
    assert config.label == "kucb"  # defaults to the policy name
    # every other default comes from the dataclasses themselves
    assert config == RunConfig(
        env=EnvSpec("bump"), kernel=KernelSpec("gaussian"), policy="kucb"
    )


# key -> (a valid non-default value, keys that make the value take effect)
NON_DEFAULT = {
    "env.family": ("chessboard", {}),
    "env.context_dim": ("3", {}),
    "env.action_grid": ("7", {}),
    "env.noise_sigma": ("0.3", {}),
    "env.seed": ("4", {}),
    "env.chessboard_cells": ("3", {}),
    "env.band_width": ("0.2", {}),
    "kernel.family": ("linear", {}),
    "kernel.bandwidth": ("0.7", {}),
    "kernel.context_family": ("linear", {"kernel.family": "tensor"}),
    "kernel.context_bandwidth": ("0.3", {"kernel.family": "tensor"}),
    "kernel.action_family": ("linear", {"kernel.family": "tensor"}),
    "kernel.action_bandwidth": ("0.3", {"kernel.family": "tensor"}),
    "policy.name": ("ekucb", {}),
    "policy.lambda": ("2", {}),
    "policy.mu": ("2", {}),
    "policy.gamma": ("3", {}),
    "policy.beta_mode": ("theoretical", {}),
    "policy.beta": ("2", {}),
    "policy.norm_bound": ("2", {}),
    "policy.delta": ("0.1", {}),
    "policy.accumulation_threshold": ("5", {}),
    "run.T": ("7", {}),
    "run.seeds": ("1,2", {}),
    "run.output_dir": ("elsewhere", {}),
    "run.label": ("probe", {}),
    "run.dump_dictionary": ("true", {}),
}


@pytest.mark.parametrize("key", sorted(_KEYS))
def test_every_key_reaches_the_config(key):
    value, context = NON_DEFAULT[key]
    assert build_run_config({**context, key: value}) != build_run_config(context)


def test_readme_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = set(re.findall(r"^([a-z_]+\.[A-Za-z_]+) ", readme, re.MULTILINE))
    assert set(_KEYS) <= listed


def test_build_run_config_full():
    base, _ = parse_config_text(SAMPLE)
    config = build_run_config(base)
    assert config.policy == "ekucb"
    assert config.lam == 10.0
    assert config.mu == 10.0
    assert config.horizon == 40
    assert config.seeds == (0, 1, 2)
    assert config.env.action_grid == 25


def test_unknown_keys_are_errors():
    with pytest.raises(ValueError):
        build_run_config({"policy.lamda": "1.0"})
    with pytest.raises(ValueError):
        build_run_config({"simulation.T": "10"})
    # kappa follows from the kernel and the dimensions, and KORS's eps is fixed
    for key in ("kernel.kappa", "policy.epsilon"):
        with pytest.raises(ValueError, match=re.escape(f"unknown config key {key!r}")):
            build_run_config({key: "3"})


@pytest.mark.parametrize("policy", ["ekucb", "cbkb", "cbbkb"])
def test_default_budget_at_one_round_is_rejected_at_build_time(policy):
    # 12 log(T^3) is 0 at T = 1, which used to fail every run in build_policy
    with pytest.raises(ValueError, match=r"policy\.gamma.*run\.T"):
        build_run_config({"policy.name": policy, "run.T": "1"})
    set_budget = {"policy.name": policy, "run.T": "1", "policy.gamma": "2"}
    assert build_run_config(set_budget).horizon == 1
    assert build_run_config({"policy.name": policy, "run.T": "2"}).gamma is None


@pytest.mark.parametrize("policy", ["kucb", "random"])
def test_unbudgeted_policies_build_at_one_round(policy):
    assert build_run_config({"policy.name": policy, "run.T": "1"}).horizon == 1


def test_gamma_parsing():
    assert build_run_config({"policy.gamma": "2.5"}).gamma == 2.5
    assert build_run_config({"policy.gamma": "inf"}).gamma == math.inf
    assert build_run_config({}).gamma is None


FLOAT_KEYS = (
    "env.noise_sigma",
    "env.band_width",
    "kernel.bandwidth",
    "kernel.context_bandwidth",
    "kernel.action_bandwidth",
    "policy.lambda",
    "policy.mu",
    "policy.gamma",
    "policy.beta",
    "policy.norm_bound",
    "policy.delta",
    "policy.accumulation_threshold",
)


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_float_keys_reject_nan(key):
    # NaN fails every comparison, so no range check downstream would catch it
    kv = {key: "nan"}
    if key.startswith(("kernel.context_", "kernel.action_")):
        kv["kernel.family"] = "tensor"  # the factor bandwidths are read only there
    with pytest.raises(ValueError, match=re.escape(key)):
        build_run_config(kv)


@pytest.mark.parametrize(
    "key, text",
    [
        ("run.T", "ten"),
        ("env.action_grid", "1.5"),
        ("env.seed", ""),
        ("run.dump_dictionary", "maybe"),
        ("run.seeds", "1,x"),
        ("run.seeds", ","),
    ],
)
def test_parse_errors_name_their_key(key, text):
    with pytest.raises(ValueError, match=re.escape(key)):
        build_run_config({key: text})


@pytest.mark.parametrize(
    "key, text",
    [
        ("policy.gamma", "0"),
        ("policy.gamma", "-1"),
        ("policy.accumulation_threshold", "0.5"),
        ("policy.beta", "-3"),
        ("policy.norm_bound", "-1"),
        ("policy.delta", "0"),
        ("policy.delta", "1.5"),
        ("run.seeds", "-1"),
        ("run.seeds", "0,0"),
        ("env.seed", "-3"),
    ],
)
def test_out_of_range_values_are_rejected_at_build_time(key, text):
    # each of these used to build, then fail in every run or run silently wrong
    with pytest.raises(ValueError, match=re.escape(key)):
        build_run_config({"policy.name": "cbbkb", key: text})


@pytest.mark.parametrize("part", ["context", "action"])
@pytest.mark.parametrize("family", ["linaer", "tensor"])
def test_tensor_factor_families_are_checked(part, family):
    cause = {
        "linaer": "unknown kernel family 'linaer'",
        "tensor": "tensor factors cannot be tensors",
    }
    with pytest.raises(ValueError, match=re.escape(f"kernel.{part}_family: {cause[family]}")):
        build_run_config({"kernel.family": "tensor", f"kernel.{part}_family": family})


def test_tensor_factor_bandwidth_errors_name_their_key():
    with pytest.raises(ValueError, match=re.escape("kernel.action_bandwidth: gaussian")):
        build_run_config({"kernel.family": "tensor", "kernel.action_bandwidth": "-1"})


@pytest.mark.parametrize("text", ["inf", "Infinity"])
def test_float_keys_parse_infinity(text):
    config = build_run_config(
        {"policy.gamma": text, "policy.accumulation_threshold": text}
    )
    assert config.gamma == math.inf
    assert config.accumulation_threshold == math.inf


def test_bool_and_refactor_parsing():
    assert build_run_config({"run.dump_dictionary": "true"}).dump_dictionary
    assert not build_run_config({"run.dump_dictionary": "off"}).dump_dictionary
    with pytest.raises(ValueError):
        build_run_config({"run.dump_dictionary": "maybe"})
    # refactoring is drift recovery only; no key schedules it
    with pytest.raises(ValueError):
        build_run_config({"policy.refactor_every": "5"})


def test_linear_kernel_kappa_resolves_from_dimensions():
    config = build_run_config(
        {"env.family": "linear_sanity", "kernel.family": "linear"}
    )
    # 3 context coordinates plus the action, all in [0, 1]
    assert config.kernel.kappa == pytest.approx(2.0)
    assert build_run_config({}).kernel.kappa == 1.0
    tensor = build_run_config(
        {"kernel.family": "tensor", "kernel.context_family": "linear"}
    )
    # a linear factor on bump's 5 context coordinates times a gaussian action factor
    assert tensor.kernel.kappa == pytest.approx(math.sqrt(5))


def test_tensor_kernel_from_config():
    config = build_run_config(
        {
            "kernel.family": "tensor",
            "kernel.context_family": "gaussian",
            "kernel.context_bandwidth": "0.3",
            "kernel.action_family": "gaussian",
            "kernel.action_bandwidth": "0.1",
        }
    )
    assert config.kernel.family == "tensor"
    assert config.kernel.context_kernel.bandwidth == 0.3
    assert config.kernel.action_kernel.bandwidth == 0.1


def test_seed_list_validation():
    assert build_run_config({"run.seeds": "3,5, 7"}).seeds == (3, 5, 7)
    with pytest.raises(ValueError):
        build_run_config({"run.seeds": ","})


def test_run_config_validation():
    good = build_run_config({})
    with pytest.raises(ValueError):
        replace(good, policy="greedy")
    with pytest.raises(ValueError):
        replace(good, horizon=0)
    with pytest.raises(ValueError):
        replace(good, lam=0.0)
    with pytest.raises(ValueError):
        replace(good, mu=-1.0)


def test_apply_overrides():
    base, _ = parse_config_text(SAMPLE)
    merged = apply_overrides(base, ["policy.lambda=0.5", "run.T=7"])
    assert merged["policy.lambda"] == "0.5"
    assert merged["run.T"] == "7"
    assert base["policy.lambda"] == "10"  # input map untouched
    with pytest.raises(ValueError):
        apply_overrides(base, ["policy.lambda"])


def test_expand_variants():
    base, variants = parse_config_text(SAMPLE)
    configs = expand_variants(base, variants)
    assert [c.label for c in configs] == ["exact", "very_sparse"]
    assert configs[0].policy == "kucb"
    assert configs[0].lam == 10.0  # base values survive into variants
    assert configs[1].mu == 100.0
    solo = expand_variants(base, {})
    assert len(solo) == 1 and solo[0].policy == "ekucb"
