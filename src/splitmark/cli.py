"""Command line front end.

Subcommands mirror the experiment lifecycle: `run` trains and writes
artifacts, `verify` checks a saved checkpoint against a key file,
`calibrate` fits the null threshold from clean models, and `attack`
replays post-hoc attacks on a checkpoint. Configs are named one way:
`--config PATH` takes a file or a directory of .cfg files, and `--preset
NAME[/member]` resolves to the directory or file of a built-in preset.
Exit codes: 0 success, 2 configuration, argument or file problems, 3
numerical failure (divergence) during a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ATTACK_KINDS, SCHEMA, Config, ConfigError, load_config, parse_override
from .linalg import NumericalError, RngStream, StreamLabel
from .nn import load_model
from .runner import build_data, execute_calibration, execute_run, run_attacks, write_json
from .watermark import check_verify, load_key, verify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")


def preset_names() -> list[str]:
    if not os.path.isdir(_PRESET_DIR):
        return []
    return sorted(
        name
        for name in os.listdir(_PRESET_DIR)
        if os.path.isdir(os.path.join(_PRESET_DIR, name))
    )


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def preset_path(name: str) -> str:
    """The directory of preset NAME, or the file of one member with
    NAME/member. Both parts are matched against what is installed before
    any path is joined, so nothing outside the presets can be named."""
    group, sep, member = name.partition("/")
    if group not in preset_names():
        known = ", ".join(preset_names()) or "none installed"
        raise ConfigError(f"unknown preset {group!r} (available: {known})")
    root = os.path.join(_PRESET_DIR, group)
    if not sep:
        return root
    members = [_stem(p) for p in config_paths(root)]
    stem = member.removesuffix(".cfg")
    if stem not in members:
        raise ConfigError(
            f"preset {group!r} has no member {member!r} (members: {', '.join(members)})"
        )
    return os.path.join(root, stem + ".cfg")


def config_paths(path: str) -> list[str]:
    """A config file, or every *.cfg file of a directory in name order."""
    if os.path.isfile(path):
        return [path]
    if not os.path.isdir(path):
        raise ConfigError(f"config file not found: {path}")
    paths = sorted(os.path.join(path, fn) for fn in os.listdir(path) if fn.endswith(".cfg"))
    if not paths:
        raise ConfigError(f"no .cfg files in {path}")
    return paths


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        overrides[key] = parse_override(key, raw.strip())
    if args.seed is not None:
        overrides["run.seed"] = args.seed
    return overrides


def _config_sources(args: argparse.Namespace) -> list[str]:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    return config_paths(args.config or preset_path(args.preset))


def _load_one(path: str, overrides: dict) -> Config:
    try:
        return load_config(path, overrides)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _single_config(args: argparse.Namespace, overrides: dict) -> tuple[str, Config]:
    paths = _config_sources(args)
    if len(paths) != 1:
        raise ConfigError(f"{args.command} needs a single config (or preset member)")
    return paths[0], _load_one(paths[0], overrides)


def _run_paths(paths: list[str], out: str | None, overrides: dict) -> int:
    """Run each config: into `out`, into a subdirectory of `out` named
    after the file when there are several, or into its own run.out. Every
    config is loaded, and every destination checked distinct, before the
    first one trains."""
    cfgs = [_load_one(path, overrides) for path in paths]
    if out is None:
        dests = [cfg["run.out"] for cfg in cfgs]
    elif len(paths) > 1:
        dests = [os.path.join(out, _stem(p)) for p in paths]
    else:
        dests = [out]
    owners: dict = {}
    for path, dest in zip(paths, dests):
        other = owners.setdefault(os.path.abspath(dest), path)
        if other != path:
            raise ConfigError(f"{other} and {path} would both write to {dest}")
    for path, cfg, dest in zip(paths, cfgs, dests):
        results = execute_run(cfg, dest)
        line = {"config": path, "out": dest, "final_test_acc": results["final_test_acc"]}
        line.update((f, results[f]) for f in ("wsr", "wsr_passed") if f in results)
        print(json.dumps(line, sort_keys=True))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    return _run_paths(_config_sources(args), args.out, _collect_overrides(args))


def _load_artifact(load, path: str):
    """Read a checkpoint or key file; a file that fails its format or
    checksum check is a bad argument, named in one line."""
    try:
        return load(path)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_model_and_key(model_path: str, key_path: str | None):
    """Load a checkpoint and, if given, a key file whose width must match
    the checkpoint's split width."""
    model = _load_artifact(load_model, model_path)
    if key_path is None:
        return model, None
    key = _load_artifact(load_key, key_path)
    if key.d != model.bottom.out_dim:
        raise ConfigError(
            f"{key_path}: key width {key.d} does not match the split width "
            f"{model.bottom.out_dim} of {model_path}"
        )
    return model, key


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        check_verify(args.probes, args.tau)
    except ValueError as exc:
        raise ConfigError(f"--probes / --tau: {exc}") from None
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    model, key = _load_model_and_key(args.model, args.key)
    rng = RngStream(args.seed, StreamLabel.VERIFICATION, (2,))
    report = verify(model.bottom, key, rng, n_samples=args.probes, tau=args.tau)
    doc = {
        "wsr": report.wsr,
        "tau": report.threshold,
        "passed": report.passed,
        "n_samples": report.n_samples,
    }
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    _, cfg = _single_config(args, _collect_overrides(args))
    doc = execute_calibration(cfg, args.out)
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    overrides = _collect_overrides(args)
    if args.kind:
        overrides["attack.kinds"] = tuple(args.kind)
    cfg_path, cfg = _single_config(args, overrides)
    kinds = cfg["attack.kinds"]
    if not kinds:
        raise ConfigError("no attacks selected; set attack.kinds or pass --kind")
    if "adaptive" in kinds:
        raise ConfigError(
            "the adaptive attack estimates its subspace from gradients logged "
            "during training, so it only runs inside `run`; list it in "
            "attack.kinds of a run config instead"
        )
    model, key = _load_model_and_key(args.model, args.key)
    dims = (model.bottom.in_dim, model.head.out_dim)
    if dims != (cfg["data.input_dim"], cfg["data.classes"]):
        raise ConfigError(
            f"{args.model}: input width and classes {dims} do not match "
            f"data.input_dim = {cfg['data.input_dim']} and data.classes = "
            f"{cfg['data.classes']} of {cfg_path}"
        )
    shards, test = build_data(cfg)
    results = run_attacks(cfg, model, {}, key, shards, test)
    path = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "attacks.json")
    print(write_json(results, path), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitmark",
        description="Watermarked split federated learning experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument(
            "--config", help="a key=value config file, or a directory of .cfg files"
        )
        p.add_argument(
            "--preset",
            help="built-in config set, NAME or NAME/member (see `splitmark presets`)",
        )
        p.add_argument("--out", help="output directory (overrides run.out)")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )

    p_run = sub.add_parser("run", help="train a model and write artifacts")
    add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="check a checkpoint against a key file")
    p_verify.add_argument("--model", required=True, help="model checkpoint path")
    p_verify.add_argument("--key", required=True, help="key file path")
    p_verify.add_argument(
        "--probes", type=int, default=SCHEMA["verify.probes"][1], help="probe batch size"
    )
    p_verify.add_argument(
        "--tau", type=float, default=SCHEMA["verify.tau"][1], help="decision threshold"
    )
    p_verify.add_argument("--seed", type=int, default=0, help="probe stream seed")
    p_verify.set_defaults(func=cmd_verify)

    p_cal = sub.add_parser("calibrate", help="fit the null WSR threshold")
    add_config_flags(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_atk = sub.add_parser("attack", help="replay attacks on a saved checkpoint")
    add_config_flags(p_atk)
    p_atk.add_argument("--model", required=True, help="model checkpoint path")
    p_atk.add_argument("--key", help="key file path (omit to skip WSR reporting)")
    p_atk.add_argument(
        "--kind",
        action="append",
        choices=ATTACK_KINDS,
        help="attack to apply (repeatable; defaults to config attack.kinds)",
    )
    p_atk.set_defaults(func=cmd_attack)

    p_list = sub.add_parser("presets", help="list built-in presets")
    p_list.set_defaults(func=lambda a: print("\n".join(preset_names())) or EXIT_OK)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
