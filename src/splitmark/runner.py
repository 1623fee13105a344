"""Experiment orchestration: config in, artifacts on disk out.

A run directory holds metrics.csv (one row per round, fixed column
order, 9 significant digits), manifest.json (config echo plus results,
keys sorted, no timestamps so reruns are byte-identical), the watermark
key file when embedding is on, and the final model checkpoint. Attack
and calibration results are embedded in the manifest.
"""

from __future__ import annotations

import json
import os
from dataclasses import astuple, fields

import numpy as np

from .attacks import (
    adaptive_remove,
    estimate_subspace,
    finetune,
    prune,
    quantize,
)
from .config import Config, ConfigError
from .data import Dataset, make_blobs, partition, split_per_class
from .detect import DetectorState, build_reference
from .linalg import RngStream, StreamLabel
from .nn import SplitModel, accuracy, forward_full, forward_segment, save_model
from .protocol import ProtocolConfig, RoundMetrics, RunResult, run_experiment
from .watermark import (
    CALIBRATION_KEYS,
    WatermarkKey,
    calibrate_threshold,
    keygen,
    save_key,
    verify,
)

__all__ = [
    "METRIC_COLUMNS",
    "build_data",
    "build_shards",
    "build_detector",
    "execute_run",
    "execute_calibration",
    "run_attacks",
]

# The RoundMetrics fields in order, with round_idx written as "round".
METRIC_COLUMNS = ("round", *(f.name for f in fields(RoundMetrics)[1:]))


def build_data(cfg: Config) -> tuple[Dataset, Dataset]:
    """Synthesize the run's train/test datasets from the config."""
    rng = RngStream(cfg["run.seed"], StreamLabel.DATA, (0,))
    full = make_blobs(
        rng,
        cfg["data.train_per_class"] + cfg["data.test_per_class"],
        cfg["data.classes"],
        cfg["data.input_dim"],
        cfg["data.spread"],
    )
    return split_per_class(full, cfg["data.test_per_class"])


def build_shards(cfg: Config, train: Dataset) -> list[Dataset]:
    """Split train per the partition.* keys. A spec that leaves some client
    empty on every draw is a config problem and raises ConfigError."""
    try:
        idx = partition(train, cfg.partition_spec())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return [train.subset(i) for i in idx]


def build_detector(cfg: Config, shards: list[Dataset]) -> DetectorState:
    """Calibrate the detector client's detector by shadow training on its
    shard with the clients' optimizer, epochs and batch size. A shard too
    small to calibrate on is a config problem and raises ConfigError."""
    try:
        return build_reference(
            shards[ProtocolConfig.detector_client],
            cfg.split_spec(),
            RngStream(cfg["run.seed"], StreamLabel.MODEL_INIT, (5,)),
            opt=cfg.optimizer(),
            epochs=cfg["run.local_epochs"],
            batch_size=cfg["run.batch_size"],
        )
    except ValueError as exc:
        raise ConfigError(f"detector: {exc}") from None


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def write_metrics_csv(res: RunResult, path: str) -> None:
    lines = [",".join(METRIC_COLUMNS)]
    for m in res.metrics:
        lines.append(",".join(_fmt_cell(c) for c in astuple(m)))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_ready(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def write_manifest(cfg: Config, results: dict, path: str) -> None:
    doc = {
        "config": {k: _json_ready(v) for k, v in cfg.values.items()},
        "results": results,
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _surrogate_acc(bottom, head, test: Dataset) -> float:
    a, _ = forward_segment(bottom, test.inputs)
    logits, _ = forward_segment(head, a)
    return accuracy(logits, test.labels)


def run_attacks(
    cfg: Config,
    model: SplitModel,
    grad_rounds: dict[int, np.ndarray],
    key: WatermarkKey | None,
    shards: list[Dataset],
    test: Dataset,
) -> list[dict]:
    """Apply the configured attack list to the trained model.

    grad_rounds is the detector client's gradient log (RunResult.grad_rounds);
    only the adaptive attack reads it. Each entry reports the attack name
    and parameters plus pre/post test accuracy and (when a key exists)
    pre/post WSR measured on a probe stream shared between the pre and
    post checks, so the drop is a paired comparison.
    """
    seed = cfg["run.seed"]
    shard = shards[ProtocolConfig.detector_client]
    pre_acc = accuracy(forward_full(model, test.inputs), test.labels)

    def wsr_of(bottom) -> float | None:
        if key is None:
            return None
        probe = RngStream(seed, StreamLabel.VERIFICATION, (3,))
        return verify(
            bottom, key, probe, n_samples=cfg["verify.probes"], tau=cfg["verify.tau"]
        ).wsr

    pre_wsr = wsr_of(model.bottom)
    out: list[dict] = []
    # kind -> (attack on the bottom, record field, config key of its values)
    sweeps = {
        "prune": (prune, "ratio", "attack.prune_ratios"),
        "quantize": (quantize, "scheme", "attack.quant_schemes"),
    }

    for kind in cfg["attack.kinds"]:
        if kind == "finetune":
            rng = RngStream(seed, StreamLabel.ATTACK, (1,))
            nb, head = finetune(
                model.bottom,
                shard,
                cfg["attack.finetune_steps"],
                cfg["attack.finetune_lr"],
                rng,
                batch_size=cfg["attack.batch_size"],
                momentum=cfg["attack.momentum"],
            )
            out.append(
                {
                    "name": "finetune",
                    "steps": cfg["attack.finetune_steps"],
                    "lr": cfg["attack.finetune_lr"],
                    "pre_acc": pre_acc,
                    "post_acc": _surrogate_acc(nb, head, test),
                    "pre_wsr": pre_wsr,
                    "post_wsr": wsr_of(nb),
                }
            )
        elif kind == "adaptive":
            atk = cfg.adaptive_attack()
            early = np.vstack([grad_rounds[t] for t in range(*atk.rounds_early)])
            cap = cfg["attack.early_rows"]
            if cap:
                early = early[:cap]
            late = np.vstack([grad_rounds[t] for t in range(*atk.rounds_late)])
            est = estimate_subspace(early, late, atk.n_main, atk.k_prime)
            rng = RngStream(seed, StreamLabel.ATTACK, (2,))
            nb, head = adaptive_remove(model.bottom, shard, est, atk, rng)
            out.append(
                {
                    "name": "adaptive",
                    "n_main": atk.n_main,
                    "k_prime": atk.k_prime,
                    "gamma": atk.gamma,
                    "ft_steps": atk.ft_steps,
                    "ft_lr": atk.ft_lr,
                    "early_rows": int(len(early)),
                    "pre_acc": pre_acc,
                    "post_acc": _surrogate_acc(nb, head, test),
                    "pre_wsr": pre_wsr,
                    "post_wsr": wsr_of(nb),
                }
            )
        else:
            attack, field, values_key = sweeps[kind]
            for value in cfg[values_key]:
                nb = attack(model.bottom, value)
                attacked = SplitModel(nb, model.middle, model.head)
                out.append(
                    {
                        "name": kind,
                        field: value,
                        "pre_acc": pre_acc,
                        "post_acc": accuracy(
                            forward_full(attacked, test.inputs), test.labels
                        ),
                        "pre_wsr": pre_wsr,
                        "post_wsr": wsr_of(nb),
                    }
                )
    return out


def execute_run(cfg: Config, out_dir: str | None = None) -> dict:
    """Train per the config and write all artifacts; returns the results
    dict that was embedded in the manifest."""
    out = out_dir or cfg["run.out"]
    os.makedirs(out, exist_ok=True)
    seed = cfg["run.seed"]

    train, test = build_data(cfg)
    shards = build_shards(cfg, train)
    spec = cfg.split_spec()

    key = None
    embed = cfg.embed()
    if embed is not None:
        key = keygen(
            RngStream(seed, StreamLabel.WATERMARK_KEY), spec.split_dim, cfg["embed.bits"]
        )

    detector = build_detector(cfg, shards) if cfg["detector.enabled"] else None

    res = run_experiment(
        spec,
        cfg.protocol(),
        shards,
        test,
        seed,
        key=key,
        embed=embed,
        noise=cfg.noise(),
        detector=detector,
    )

    results: dict = {
        "rounds": cfg["run.rounds"],
        "final_train_acc": res.metrics[-1].train_acc if res.metrics else None,
        "final_test_acc": res.metrics[-1].test_acc if res.metrics else None,
    }
    if key is not None:
        report = verify(
            res.model.bottom,
            key,
            RngStream(seed, StreamLabel.VERIFICATION, (2,)),
            n_samples=cfg["verify.probes"],
            tau=cfg["verify.tau"],
        )
        results["wsr"] = report.wsr
        results["wsr_passed"] = report.passed
        results["tau"] = report.threshold
        save_key(key, os.path.join(out, "key.txt"))
    if detector is not None:
        counts = [m.outliers for m in res.metrics]
        results["detector"] = {
            "counts": counts,
            "mean": float(np.mean(counts)) if counts else None,
        }
    if cfg["attack.kinds"]:
        results["attacks"] = run_attacks(
            cfg, res.model, res.grad_rounds, key, shards, test
        )

    save_model(res.model, os.path.join(out, "model.ckpt"))
    write_metrics_csv(res, os.path.join(out, "metrics.csv"))
    write_manifest(cfg, results, os.path.join(out, "manifest.json"))
    return results


def execute_calibration(cfg: Config, out_dir: str | None = None) -> dict:
    """Train clean models on consecutive seeds and fit the null threshold.

    Embedding is forced off for the training runs; calibrate.models sets
    the number of models, each crossed with CALIBRATION_KEYS fresh keys.
    Writes calibration.json.
    """
    out = out_dir or cfg["run.out"]
    os.makedirs(out, exist_ok=True)
    base_seed = cfg["run.seed"]
    spec = cfg.split_spec()

    bottoms = []
    for i in range(cfg["calibrate.models"]):
        clean_values = dict(cfg.values)
        clean_values["run.seed"] = base_seed + i
        clean_values["embed.enabled"] = False
        clean_values["noise.enabled"] = False
        clean = Config(clean_values)
        train, test = build_data(clean)
        shards = build_shards(clean, train)
        res = run_experiment(
            spec, clean.protocol(), shards, test, base_seed + i
        )
        bottoms.append(res.model.bottom)

    calib = calibrate_threshold(
        bottoms,
        cfg["embed.bits"],
        RngStream(base_seed, StreamLabel.WATERMARK_KEY, (1,)),
        RngStream(base_seed, StreamLabel.VERIFICATION, (4,)),
        n_samples=cfg["verify.probes"],
    )
    doc = {
        "n_models": cfg["calibrate.models"],
        "n_keys": CALIBRATION_KEYS,
        "null_mean": calib.mean,
        "null_std": calib.std,
        "tau_5sigma": calib.tau_5sigma,
        "degenerate": calib.degenerate,
    }
    path = os.path.join(out, "calibration.json")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
