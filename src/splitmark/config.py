"""Flat key=value experiment configuration with dotted section names.

One file describes one run end to end: data, partition, model, protocol,
watermark, optional noise, attacks and detector. Parsing is strict in
both directions: unknown keys are rejected so typos cannot silently fall
back to defaults, and validation reports every violation at once instead
of stopping at the first.

Each key's bound lives once, in the library object or check that takes
its value, and validation reaches it through the builders below; the
config itself judges only rules across keys and what no library sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

from .attacks import (
    QUANT_SCHEMES,
    AdaptiveAttackConfig,
    NoiseSpec,
    check_finetune,
    check_prune_ratios,
    check_quant_schemes,
)
from .data import PartitionSpec, check_blobs, check_holdout
from .nn import LayerSpec, OptimizerConfig, SplitSpec
from .protocol import ProtocolConfig
from .watermark import EmbedConfig, check_calibration, check_key_dims, check_verify

__all__ = [
    "ConfigError",
    "Config",
    "parse_config",
    "parse_override",
    "load_config",
]

ATTACK_KINDS = ("finetune", "prune", "quantize", "adaptive")


class ConfigError(ValueError):
    """Parse or validation failure; message lists every problem found."""


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_list(item, raw: str) -> tuple:
    if not raw.strip():
        return ()
    return tuple(item(part.strip()) for part in raw.split(","))


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": str.strip,
    "ints": partial(_parse_list, int),
    "floats": partial(_parse_list, float),
    "strs": partial(_parse_list, str),
}


# name -> (type keyword, default).
SCHEMA: dict[str, tuple[str, object]] = {
    "run.seed": ("int", 0),
    "run.rounds": ("int", 30),
    "run.local_epochs": ("int", 2),
    "run.batch_size": ("int", 10),
    "run.probe_samples": ("int", 64),
    "run.out": ("str", "runs/out"),
    "data.classes": ("int", 4),
    "data.input_dim": ("int", 8),
    "data.train_per_class": ("int", 500),
    "data.test_per_class": ("int", 50),
    "data.spread": ("float", 0.5),
    "partition.clients": ("int", 10),
    "partition.mode": ("str", "iid"),
    "partition.beta": ("float", 0.5),
    "partition.sigma": ("float", 1.0),
    "model.widths": ("ints", (64, 64, 64)),
    "model.split": ("int", 2),
    "optimizer.lr": ("float", 0.05),
    "optimizer.momentum": ("float", 0.9),
    "embed.enabled": ("bool", False),
    "embed.strength": ("float", 0.1),
    "embed.bits": ("int", 16),
    "verify.probes": ("int", 256),
    "verify.tau": ("float", 0.7),
    "noise.enabled": ("bool", False),
    "noise.snr": ("float", 0.01),
    "attack.kinds": ("strs", ()),
    "attack.finetune_steps": ("int", 100),
    "attack.finetune_lr": ("float", 0.01),
    "attack.prune_ratios": ("floats", (0.2, 0.4, 0.6, 0.8)),
    "attack.quant_schemes": ("strs", QUANT_SCHEMES),
    "attack.rounds_early": ("ints", (0, 1)),
    "attack.early_rows": ("int", 200),
    "attack.rounds_late": ("ints", (20, 30)),
    "attack.n_main": ("int", 4),
    "attack.k_prime": ("int", 16),
    "attack.gamma": ("float", 1.0),
    "attack.ft_steps": ("int", 1000),
    "attack.ft_lr": ("float", 0.003),
    "attack.batch_size": ("int", 32),
    "attack.momentum": ("float", 0.9),
    "detector.enabled": ("bool", False),
    "calibrate.models": ("int", 5),
}

_DEFAULTS = {key: default for key, (_, default) in SCHEMA.items()}


@dataclass(frozen=True)
class Config:
    """Validated, fully defaulted experiment description."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    # --- builders for the library objects -------------------------------

    def split_spec(self) -> SplitSpec:
        # A split below 1 leaves the bottom empty, which SplitSpec rejects.
        split = max(self["model.split"], 0)
        dims = [self["data.input_dim"], *self["model.widths"], self["data.classes"]]
        layers = [LayerSpec(a, b) for a, b in zip(dims[:-2], dims[1:-1])]
        head = (LayerSpec(dims[-2], dims[-1], "identity"),)
        return SplitSpec(tuple(layers[:split]), tuple(layers[split:]), head)

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(self["optimizer.lr"], self["optimizer.momentum"])

    def protocol(self) -> ProtocolConfig:
        return ProtocolConfig(
            n_rounds=self["run.rounds"],
            local_epochs=self["run.local_epochs"],
            batch_size=self["run.batch_size"],
            opt=self.optimizer(),
            probe_samples=self["run.probe_samples"],
        )

    def partition_spec(self) -> PartitionSpec:
        return PartitionSpec(
            n_clients=self["partition.clients"],
            mode=self["partition.mode"],
            beta=self["partition.beta"],
            sigma=self["partition.sigma"],
            seed=self["run.seed"],
        )

    def embed(self) -> EmbedConfig | None:
        return EmbedConfig(self["embed.strength"]) if self["embed.enabled"] else None

    def noise(self) -> NoiseSpec | None:
        return NoiseSpec(self["noise.snr"]) if self["noise.enabled"] else None

    def adaptive_attack(self) -> AdaptiveAttackConfig:
        names = [f.name for f in fields(AdaptiveAttackConfig)]
        return AdaptiveAttackConfig(**{name: self[f"attack.{name}"] for name in names})


def parse_override(key: str, raw: str):
    """Parse one `key=value` pair given on the command line into the
    typed value `parse_config` expects in its overrides mapping."""
    if key not in SCHEMA:
        raise ConfigError(f"unknown override key {key!r}")
    kind, _ = SCHEMA[key]
    try:
        return _PARSERS[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def parse_config(text: str, overrides: dict | None = None) -> Config:
    """Parse key=value lines, apply defaults, and validate everything.

    Raises ConfigError with a line-numbered message for syntax problems
    and with one bullet per violation for semantic ones. `overrides` maps
    schema keys to already-typed values (CLI flags) applied after the
    file.
    """
    values: dict = {}
    problems: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, rhs = (part.strip() for part in line.partition("="))
        if key not in SCHEMA:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            values[key] = parse_override(key, rhs)
        except ConfigError as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        raise ConfigError("config parse failed:\n" + "\n".join(problems))

    values = {**_DEFAULTS, **values}
    if overrides:
        for key, val in overrides.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown override key {key!r}")
            values[key] = val

    _validate(values)
    return Config(values)


def _data(c: Config) -> None:
    n_per_class = c["data.train_per_class"] + c["data.test_per_class"]
    check_blobs(n_per_class, c["data.classes"], c["data.input_dim"], c["data.spread"])
    check_holdout(n_per_class, c["data.test_per_class"])


def _verify(c: Config) -> None:
    check_verify(c["verify.probes"], c["verify.tau"])


def _finetune(c: Config) -> None:
    check_finetune(c["attack.finetune_steps"], c["attack.batch_size"])
    OptimizerConfig(c["attack.finetune_lr"], c["attack.momentum"]).build()


# Each library check, run on a Config, and the keys whose bounds it holds.
_OWNERS = (
    (Config.protocol, "run.rounds run.local_epochs run.batch_size run.probe_samples"),
    (_data, "data.classes data.input_dim data.spread"),
    (_data, "data.train_per_class data.test_per_class"),
    (Config.partition_spec, "partition.clients partition.mode"),
    (Config.partition_spec, "partition.beta partition.sigma"),
    (lambda c: c.optimizer().build(), "optimizer.lr optimizer.momentum"),
    (lambda c: EmbedConfig(c["embed.strength"]), "embed.strength"),
    (lambda c: check_key_dims(c.split_spec().split_dim, c["embed.bits"]), "embed.bits"),
    (_verify, "verify.probes verify.tau"),
    (lambda c: NoiseSpec(c["noise.snr"]), "noise.snr"),
    (_finetune, "attack.finetune_steps attack.finetune_lr"),
    (_finetune, "attack.batch_size attack.momentum"),
    (lambda c: check_prune_ratios(c["attack.prune_ratios"]), "attack.prune_ratios"),
    (lambda c: check_quant_schemes(c["attack.quant_schemes"]), "attack.quant_schemes"),
    (Config.adaptive_attack, "attack.rounds_early attack.rounds_late attack.n_main"),
    (Config.adaptive_attack, "attack.k_prime attack.gamma attack.ft_steps attack.ft_lr"),
    (lambda c: check_calibration(c["calibrate.models"]), "calibrate.models"),
)


def _validate(v: dict) -> None:
    """Report every problem at once. Each owned key is checked by its owner
    on the defaults with only that key from v, so one bad key neither hides
    nor is blamed for another; a default passes (test_config checks it)."""
    bad: list[str] = []

    def owned(key: str, build, values: dict) -> bool:
        try:
            build(Config({**_DEFAULTS, **values}))
        except ValueError as exc:
            bad.append(f"{key}: {exc}")
            return False
        return True

    def check(cond: bool, msg: str) -> None:
        if not cond:
            bad.append(msg)

    ok = {
        key: v[key] == _DEFAULTS[key] or owned(key, build, {key: v[key]})
        for build, keys in _OWNERS
        for key in keys.split()
    }
    # SplitSpec bounds the split by the number of widths, whatever their
    # values, and the widths with split 1, which two or more valid widths take.
    widths = v["model.widths"]
    owned("model.widths", Config.split_spec, {"model.widths": widths, "model.split": 1})
    split = {"model.widths": (1,) * len(widths), "model.split": v["model.split"]}
    split_ok = owned("model.split", Config.split_spec, split)
    check(v["run.seed"] >= 0, "run.seed must be >= 0")
    check(bool(v["run.out"]), "run.out must not be empty")
    check(v["attack.early_rows"] >= 0, "attack.early_rows must be >= 0 (0 = all)")
    for kind in v["attack.kinds"]:
        check(kind in ATTACK_KINDS, f"unknown attack kind {kind!r}")
    n = v["data.classes"] * v["data.train_per_class"]
    check(v["partition.clients"] <= n, f"partition.clients exceeds {n} training samples")
    if "adaptive" in v["attack.kinds"]:
        # Only an adaptive run slices the logged rounds, fits PCA bases in the
        # split activations and caps the early window for a k_prime-component PCA.
        for name in ("attack.rounds_early", "attack.rounds_late"):
            if ok[name]:
                check(v[name][1] <= v["run.rounds"], f"{name} exceeds run.rounds")
        width = widths[v["model.split"] - 1] if split_ok else math.inf
        for name in ("attack.n_main", "attack.k_prime"):
            check(v[name] <= width, f"{name} exceeds the split width {width}")
        rows = v["attack.early_rows"]
        check(
            rows == 0 or rows >= max(2, v["attack.k_prime"]),
            "attack.early_rows must be 0 or at least max(2, attack.k_prime)",
        )
        check(v["embed.enabled"], "attack.kinds: 'adaptive' needs embed.enabled = true")
    if bad:
        raise ConfigError("config validation failed:\n" + "\n".join(bad))


def load_config(path: str, overrides: dict | None = None) -> Config:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read(), overrides)
