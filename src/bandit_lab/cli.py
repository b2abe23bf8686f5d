"""Command-line entry point.

Three verbs:

* ``bandit-lab run   --config FILE``  one policy, all seeds, outputs written
* ``bandit-lab sweep --config FILE``  every variant in the file, in order
* ``bandit-lab diag  --config FILE``  replay a run and write diagnostics.csv

``--config`` takes a path or the name of a shipped preset (``bump_sweep``,
``chessboard_sweep``, ``stepdiag_sweep``).  Any key can be overridden with
``--set section.key=value``; the common ones have dedicated flags, and a
``sweep`` rejects one for a key that a variant sets, whose value would win.
Failures print one machine-readable JSON line to stderr and exit nonzero; so
does a ``run`` or ``sweep`` in which any run aborted, after writing its outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .config import apply_overrides, build_run_config, expand_variants, parse_config_text
from .harness import emit_outputs, run_sweep, write_diagnostics


def _load_config_text(name: str) -> str:
    if os.path.exists(name):
        with open(name) as fh:
            return fh.read()
    candidate = name if name.endswith(".cfg") else name + ".cfg"
    preset = resources.files("bandit_lab").joinpath("presets", candidate)
    if preset.is_file():
        return preset.read_text()
    raise FileNotFoundError(f"no config file or preset named {name!r}")


# dedicated flag -> the config key it overrides
_FLAGS = {
    "--policy": "policy.name",
    "--lambda": "policy.lambda",
    "--mu": "policy.mu",
    "--T": "run.T",
    "--seeds": "run.seeds",
    "--env": "env.family",
    "--out": "run.output_dir",
}


def _flag_overrides(args: argparse.Namespace) -> list[str]:
    tokens = list(args.set or [])
    for key in _FLAGS.values():
        value = getattr(args, key)
        if value is not None:
            tokens.append(f"{key}={value}")
    if args.dump_dictionary:
        tokens.append("run.dump_dictionary=true")
    return tokens


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandit-lab",
        description="kernelized contextual-bandit benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "run one configuration across its seeds"),
        ("sweep", "run every variant in a sweep config"),
        ("diag", "replay a run and write complexity diagnostics"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="config file or preset name")
        cmd.add_argument("--set", action="append", metavar="KEY=VALUE")
        for flag, key in _FLAGS.items():
            cmd.add_argument(flag, dest=key, help=f"override {key}")
        cmd.add_argument(
            "--dump-dictionary",
            action="store_true",
            help="write anchor coordinates, probabilities, admission times",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        base, variants = parse_config_text(_load_config_text(args.config))
        overrides = apply_overrides({}, _flag_overrides(args))
        base.update(overrides)
        if args.command == "diag":
            config = build_run_config(base)
            print(write_diagnostics(config, config.output_dir))
        else:
            if args.command == "sweep":
                for label, kv in variants.items():
                    keys = ", ".join(sorted(overrides.keys() & kv.keys()))
                    if keys:
                        raise ValueError(f"variant {label!r} sets {keys}; overriding them is an error")
                configs = expand_variants(base, variants)
            else:
                configs = [build_run_config(base)]
            cells = run_sweep(configs)
            for path in emit_outputs(cells, configs[0].output_dir):
                print(path)
            failures = sum(r.error is not None for c in cells for r in c.records)
            if failures:
                raise RuntimeError(f"{failures} run(s) aborted; see summary.csv")
    except Exception as exc:  # noqa: BLE001 - single reporting point
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
