"""Command line front end.

Subcommands mirror the experiment lifecycle: `run` trains and writes
artifacts, `verify` checks a saved checkpoint against a key file,
`calibrate` fits the null threshold from clean models, `attack` replays
post-hoc attacks on a checkpoint, and `sweep` executes every config in a
preset or directory. Exit codes: 0 success, 2 configuration or argument
problems, 3 numerical failure (divergence) during a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ATTACK_KINDS, Config, ConfigError, load_config, parse_override
from .linalg import NumericalError, RngStream, StreamLabel
from .nn import load_model
from .runner import build_data, build_shards, execute_calibration, execute_run, run_attacks
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


def _cfg_files(root: str) -> list[str]:
    return sorted(
        os.path.join(root, fn) for fn in os.listdir(root) if fn.endswith(".cfg")
    )


def preset_configs(name: str) -> list[str]:
    """Return config paths for a preset; `name` may be a bare preset or
    `preset/member` to select one config out of it."""
    member = None
    if "/" in name:
        name, member = name.split("/", 1)
    root = os.path.join(_PRESET_DIR, name)
    if not os.path.isdir(root):
        known = ", ".join(preset_names()) or "none installed"
        raise ConfigError(f"unknown preset {name!r} (available: {known})")
    paths = _cfg_files(root)
    if member is not None:
        want = member if member.endswith(".cfg") else member + ".cfg"
        hits = [p for p in paths if os.path.basename(p) == want]
        if not hits:
            members = ", ".join(os.path.splitext(os.path.basename(p))[0] for p in paths)
            raise ConfigError(
                f"preset {name!r} has no member {member!r} (members: {members})"
            )
        return hits
    if not paths:
        raise ConfigError(f"preset {name!r} contains no config files")
    return paths


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        overrides[key] = parse_override(key, raw.strip())
    if getattr(args, "seed", None) is not None:
        overrides["run.seed"] = args.seed
    return overrides


def _config_sources(args: argparse.Namespace) -> list[str]:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    if args.config:
        if not os.path.isfile(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        return [args.config]
    return preset_configs(args.preset)


def _load_one(path: str, overrides: dict) -> Config:
    try:
        return load_config(path, overrides)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _run_paths(
    paths: list[str], out: str | None, overrides: dict, subdirs: bool = False
) -> int:
    """Run each config; multiple configs land in per-name subdirectories."""
    subdirs = subdirs or len(paths) > 1
    for path in paths:
        cfg = _load_one(path, overrides)
        if out is None:
            dest = cfg["run.out"]
        elif subdirs:
            dest = os.path.join(out, os.path.splitext(os.path.basename(path))[0])
        else:
            dest = out
        results = execute_run(cfg, dest)
        line = {
            "config": path,
            "out": dest,
            "final_test_acc": results.get("final_test_acc"),
        }
        for field in ("wsr", "wsr_passed"):
            if field in results:
                line[field] = results[field]
        print(json.dumps(line, sort_keys=True))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    return _run_paths(_config_sources(args), args.out, _collect_overrides(args))


def cmd_sweep(args: argparse.Namespace) -> int:
    if bool(args.config_dir) == bool(args.preset):
        raise ConfigError("exactly one of --config-dir or --preset is required")
    if args.config_dir:
        if not os.path.isdir(args.config_dir):
            raise ConfigError(f"not a directory: {args.config_dir}")
        paths = _cfg_files(args.config_dir)
        if not paths:
            raise ConfigError(f"no .cfg files in {args.config_dir}")
    else:
        paths = preset_configs(args.preset)
    out = args.out or "runs"
    return _run_paths(paths, out, _collect_overrides(args), subdirs=True)


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
    paths = _config_sources(args)
    if len(paths) != 1:
        raise ConfigError(
            "calibrate needs a single config; select a preset member like "
            f"--preset {args.preset}/<member>"
        )
    cfg = _load_one(paths[0], _collect_overrides(args))
    doc = execute_calibration(cfg, args.out)
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    paths = _config_sources(args)
    if len(paths) != 1:
        raise ConfigError("attack needs a single config (or preset member)")
    overrides = _collect_overrides(args)
    if args.kind:
        overrides["attack.kinds"] = tuple(args.kind)
    cfg = _load_one(paths[0], overrides)
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
            f"{cfg['data.classes']} of {paths[0]}"
        )
    train, test = build_data(cfg)
    shards = build_shards(cfg, train)
    results = run_attacks(cfg, model, {}, key, shards, test)
    text = json.dumps(results, indent=2, sort_keys=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "attacks.json")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitmark",
        description="Watermarked split federated learning experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, with_seed=True):
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument(
            "--preset",
            help="named built-in config set (NAME or NAME/member); see --list-presets",
        )
        p.add_argument("--out", help="output directory (overrides run.out)")
        if with_seed:
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

    p_sweep = sub.add_parser("sweep", help="run every config in a preset or directory")
    p_sweep.add_argument("--config-dir", help="directory of .cfg files")
    p_sweep.add_argument("--preset", help="named built-in config set")
    p_sweep.add_argument("--out", help="parent output directory (default: runs)")
    p_sweep.add_argument("--seed", type=int, help="override run.seed for every config")
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="check a checkpoint against a key file")
    p_verify.add_argument("--model", required=True, help="model checkpoint path")
    p_verify.add_argument("--key", required=True, help="key file path")
    p_verify.add_argument("--probes", type=int, default=256, help="probe batch size")
    p_verify.add_argument("--tau", type=float, default=0.7, help="decision threshold")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
