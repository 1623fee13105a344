"""Flat key=value experiment configuration with dotted section names.

One file describes one run end to end: data, partition, model, protocol,
watermark, optional noise, attacks and detector. Parsing is strict in
both directions: unknown keys are rejected so typos cannot silently fall
back to defaults, and validation reports every violation at once instead
of stopping at the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .attacks import QUANT_SCHEMES, AdaptiveAttackConfig, NoiseSpec
from .data import PARTITION_MODES, PartitionSpec
from .nn import LayerSpec, OptimizerConfig, SplitSpec
from .protocol import ProtocolConfig
from .watermark import EmbedConfig

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


def _parse_int_list(raw: str) -> tuple[int, ...]:
    if not raw.strip():
        return ()
    return tuple(int(part.strip()) for part in raw.split(","))


def _parse_float_list(raw: str) -> tuple[float, ...]:
    if not raw.strip():
        return ()
    return tuple(float(part.strip()) for part in raw.split(","))


def _parse_str_list(raw: str) -> tuple[str, ...]:
    if not raw.strip():
        return ()
    return tuple(part.strip() for part in raw.split(","))


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": str.strip,
    "ints": _parse_int_list,
    "floats": _parse_float_list,
    "strs": _parse_str_list,
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


@dataclass(frozen=True)
class Config:
    """Validated, fully defaulted experiment description."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    # --- builders for the library objects -------------------------------

    def split_spec(self) -> SplitSpec:
        widths = self["model.widths"]
        split = self["model.split"]
        dims = [self["data.input_dim"], *widths]
        layers = [LayerSpec(dims[i], dims[i + 1]) for i in range(len(widths))]
        bottom = tuple(layers[:split])
        middle = tuple(layers[split:])
        head = (LayerSpec(widths[-1], self["data.classes"], "identity"),)
        return SplitSpec(bottom=bottom, middle=middle, head=head)

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(
            lr=self["optimizer.lr"],
            momentum=self["optimizer.momentum"],
        )

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
        if not self["embed.enabled"]:
            return None
        return EmbedConfig(strength=self["embed.strength"])

    def noise(self) -> NoiseSpec | None:
        if not self["noise.enabled"]:
            return None
        return NoiseSpec(self["noise.snr"])

    def adaptive_attack(self) -> AdaptiveAttackConfig:
        return AdaptiveAttackConfig(
            rounds_early=tuple(self["attack.rounds_early"]),
            rounds_late=tuple(self["attack.rounds_late"]),
            n_main=self["attack.n_main"],
            k_prime=self["attack.k_prime"],
            gamma=self["attack.gamma"],
            ft_steps=self["attack.ft_steps"],
            ft_lr=self["attack.ft_lr"],
            batch_size=self["attack.batch_size"],
            momentum=self["attack.momentum"],
        )


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
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in SCHEMA:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        kind, _ = SCHEMA[key]
        try:
            values[key] = _PARSERS[kind](rhs)
        except ValueError as exc:
            problems.append(f"line {lineno}: bad value for {key}: {exc}")
    if problems:
        raise ConfigError("config parse failed:\n" + "\n".join(problems))

    for key, (_, default) in SCHEMA.items():
        values.setdefault(key, default)
    if overrides:
        for key, val in overrides.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown override key {key!r}")
            values[key] = val

    _validate(values)
    return Config(values)


def _validate(v: dict) -> None:
    bad: list[str] = []

    def check(cond: bool, msg: str) -> None:
        if not cond:
            bad.append(msg)

    check(v["run.seed"] >= 0, "run.seed must be >= 0")
    check(v["run.rounds"] >= 0, "run.rounds must be >= 0")
    check(v["run.local_epochs"] >= 1, "run.local_epochs must be >= 1")
    check(v["run.batch_size"] >= 1, "run.batch_size must be >= 1")
    check(v["run.probe_samples"] >= 1, "run.probe_samples must be >= 1")
    check(bool(v["run.out"]), "run.out must not be empty")
    check(v["data.classes"] >= 2, "data.classes must be >= 2")
    check(v["data.input_dim"] >= 1, "data.input_dim must be >= 1")
    check(v["data.train_per_class"] >= 1, "data.train_per_class must be >= 1")
    check(v["data.test_per_class"] >= 0, "data.test_per_class must be >= 0")
    check(v["data.spread"] >= 0.0, "data.spread must be >= 0")
    check(v["partition.clients"] >= 1, "partition.clients must be >= 1")
    check(
        v["partition.mode"] in PARTITION_MODES,
        f"partition.mode must be one of {PARTITION_MODES}",
    )
    check(0.0 < v["partition.beta"] < math.inf, "partition.beta must be finite and > 0")
    check(
        0.0 <= v["partition.sigma"] < math.inf, "partition.sigma must be finite and >= 0"
    )
    check(
        v["partition.clients"] <= v["data.classes"] * v["data.train_per_class"],
        "partition.clients exceeds the data.classes * data.train_per_class "
        "training samples",
    )
    widths = v["model.widths"]
    check(len(widths) >= 2, "model.widths needs at least 2 layers")
    check(all(w >= 1 for w in widths), "model.widths entries must be >= 1")
    if len(widths) >= 2:
        check(
            1 <= v["model.split"] <= len(widths) - 1,
            "model.split must leave at least one layer on each side",
        )
    check(v["optimizer.lr"] >= 0.0, "optimizer.lr must be >= 0")
    check(0.0 <= v["optimizer.momentum"] < 1.0, "optimizer.momentum must lie in [0, 1)")
    check(v["embed.strength"] >= 0.0, "embed.strength must be >= 0")
    check(v["embed.bits"] >= 1, "embed.bits must be >= 1")
    check(v["verify.probes"] >= 1, "verify.probes must be >= 1")
    check(0.0 <= v["verify.tau"] <= 1.0, "verify.tau must lie in [0, 1]")
    check(v["noise.snr"] > 0.0, "noise.snr must be > 0")
    for kind in v["attack.kinds"]:
        check(kind in ATTACK_KINDS, f"unknown attack kind {kind!r}")
    check(v["attack.finetune_steps"] >= 0, "attack.finetune_steps must be >= 0")
    check(v["attack.finetune_lr"] >= 0.0, "attack.finetune_lr must be >= 0")
    for r in v["attack.prune_ratios"]:
        check(0.0 <= r <= 1.0, f"prune ratio {r} outside [0, 1]")
    for s in v["attack.quant_schemes"]:
        check(s in QUANT_SCHEMES, f"unknown quantization scheme {s!r}")
    adaptive = "adaptive" in v["attack.kinds"]
    for name in ("attack.rounds_early", "attack.rounds_late"):
        rng = v[name]
        ok = len(rng) == 2 and rng[0] >= 0 and rng[1] > rng[0]
        check(ok, f"{name} must be two ints forming [start, stop)")
        # the windows slice logged rounds, so only an adaptive run binds them
        if ok and adaptive:
            check(rng[1] <= v["run.rounds"], f"{name} exceeds run.rounds")
    check(v["attack.early_rows"] >= 0, "attack.early_rows must be >= 0 (0 = all)")
    check(v["attack.n_main"] >= 1, "attack.n_main must be >= 1")
    check(v["attack.k_prime"] >= 1, "attack.k_prime must be >= 1")
    if adaptive and 1 <= v["model.split"] < len(widths):
        # the attack's PCA bases live in the split activations
        split_width = widths[v["model.split"] - 1]
        for name in ("attack.n_main", "attack.k_prime"):
            check(v[name] <= split_width, f"{name} exceeds the split width {split_width}")
    if adaptive:
        # the capped early window feeds a k_prime-component PCA
        rows = v["attack.early_rows"]
        check(
            rows == 0 or rows >= max(2, v["attack.k_prime"]),
            "attack.early_rows must be 0 or at least max(2, attack.k_prime)",
        )
    check(v["attack.gamma"] >= 0.0, "attack.gamma must be >= 0")
    check(v["attack.ft_steps"] >= 0, "attack.ft_steps must be >= 0")
    check(v["attack.ft_lr"] >= 0.0, "attack.ft_lr must be >= 0")
    check(v["attack.batch_size"] >= 1, "attack.batch_size must be >= 1")
    check(0.0 <= v["attack.momentum"] < 1.0, "attack.momentum must lie in [0, 1)")
    check(v["calibrate.models"] >= 2, "calibrate.models must be >= 2")

    if adaptive and not v["embed.enabled"]:
        bad.append("attack.kinds includes 'adaptive' but embed.enabled is false")

    if bad:
        raise ConfigError("config validation failed:\n" + "\n".join(bad))


def load_config(path: str, overrides: dict | None = None) -> Config:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read(), overrides)
