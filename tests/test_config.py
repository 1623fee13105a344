"""Strict key=value config parsing, validation, and object builders."""

import math
import re
from dataclasses import replace

import pytest

from splitmark.attacks import QUANT_SCHEMES
from splitmark.data import PARTITION_MODES, PartitionSpec, make_blobs
from splitmark.linalg import RngStream, StreamLabel
from splitmark.nn import OptimizerConfig
from splitmark.watermark import EmbedConfig
from splitmark.config import (
    SCHEMA,
    Config,
    ConfigError,
    load_config,
    parse_config,
    parse_override,
)

from helpers import RETIRED_KEYS


def test_empty_text_yields_all_defaults():
    cfg = parse_config("")
    assert set(cfg.values) == set(SCHEMA)
    assert cfg["run.rounds"] == 30
    assert cfg["model.widths"] == (64, 64, 64)
    assert cfg["optimizer.lr"] == 0.05
    assert cfg["attack.quant_schemes"] == QUANT_SCHEMES
    assert cfg["embed.enabled"] is False


def test_value_parsing_by_kind():
    cfg = parse_config(
        "model.widths = 32, 16,8\n"
        "embed.enabled = YES\n"
        "noise.enabled = off\n"
        "attack.prune_ratios = 0.1,0.9\n"
        "attack.kinds =\n"
        "run.out = runs/demo\n"
    )
    assert cfg["model.widths"] == (32, 16, 8)
    assert cfg["embed.enabled"] is True
    assert cfg["noise.enabled"] is False
    assert cfg["attack.prune_ratios"] == (0.1, 0.9)
    assert cfg["attack.kinds"] == ()
    assert cfg["run.out"] == "runs/demo"


def test_comments_and_blanks_ignored():
    cfg = parse_config(
        "# full-line comment\n"
        "\n"
        "run.rounds = 7  # trailing comment\n"
    )
    assert cfg["run.rounds"] == 7


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 2.*bogus\.key"):
        parse_config("run.rounds = 5\nbogus.key = 3\n")
    for key in RETIRED_KEYS:
        with pytest.raises(ConfigError, match=rf"line 2.*{re.escape(key)}"):
            parse_config(f"run.rounds = 5\n{key} = 1\n")


def test_duplicate_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 2.*duplicate.*run\.rounds"):
        parse_config("run.rounds = 5\nrun.rounds = 6\n")


def test_missing_equals_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("run.rounds 5\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match=r"line 1.*run\.rounds"):
        parse_config("run.rounds = soon\n")


def test_all_parse_problems_reported_at_once():
    text = "mystery = 1\nrun.rounds = x\nrun.seed 4\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "line 1" in msg and "line 2" in msg and "line 3" in msg


def test_validation_names_the_offending_field():
    with pytest.raises(ConfigError, match=r"embed\.strength"):
        parse_config("embed.strength = -1\n")


def test_all_validation_problems_reported_at_once():
    with pytest.raises(ConfigError) as err:
        parse_config("run.batch_size = 0\nverify.tau = 2.0\ndata.classes = 1\n")
    msg = str(err.value)
    assert "run.batch_size" in msg
    assert "verify.tau" in msg
    assert "data.classes" in msg


def test_cross_field_checks():
    with pytest.raises(ConfigError, match=r"model\.split"):
        parse_config("model.widths = 64,64\nmodel.split = 2\n")
    with pytest.raises(ConfigError, match=r"rounds_late.*run\.rounds"):
        parse_config(
            "run.rounds = 10\nattack.rounds_late = 5, 20\n"
            "attack.kinds = adaptive\nembed.enabled = true\n"
        )
    # the window bound only binds an adaptive run; short clean runs are fine
    parse_config("run.rounds = 10\nattack.rounds_late = 5, 20\n")
    # the subspace sizes are bounded by the split width, again only when adaptive
    wide = "model.widths = 16, 8\nmodel.split = 1\n"
    for name in ("attack.n_main", "attack.k_prime"):
        with pytest.raises(ConfigError, match=rf"{name}.*split width 16"):
            parse_config(
                wide + f"{name} = 17\nattack.kinds = adaptive\nembed.enabled = true\n"
            )
        parse_config(wide + f"{name} = 16\nattack.kinds = adaptive\nembed.enabled = true\n")
        parse_config(wide + f"{name} = 100000\n")
    # the capped early window must hold enough rows for a k_prime-component PCA
    adaptive = "attack.kinds = adaptive\nembed.enabled = true\nattack.k_prime = 4\n"
    for rows in (1, 3):
        with pytest.raises(ConfigError, match=r"attack\.early_rows.*k_prime"):
            parse_config(adaptive + f"attack.early_rows = {rows}\n")
        parse_config(f"attack.k_prime = 4\nattack.early_rows = {rows}\n")
    for rows in (0, 4, 200):
        parse_config(adaptive + f"attack.early_rows = {rows}\n")
    with pytest.raises(ConfigError, match=r"attack\.early_rows"):
        parse_config(
            "attack.kinds = adaptive\nembed.enabled = true\n"
            "attack.k_prime = 1\nattack.early_rows = 1\n"
        )
    # every client needs at least one of the training samples
    small = "data.classes = 4\ndata.train_per_class = 20\n"
    with pytest.raises(ConfigError, match=r"partition\.clients"):
        parse_config(small + "partition.clients = 81\n")
    parse_config(small + "partition.clients = 80\n")
    with pytest.raises(ConfigError, match="adaptive.*embed"):
        parse_config("attack.kinds = adaptive\n")
    parse_config("attack.kinds = adaptive\nembed.enabled = true\n")


def test_partition_mode_and_attack_kind_vocabulary():
    with pytest.raises(ConfigError, match=r"partition\.mode"):
        parse_config("partition.mode = sorted\n")
    with pytest.raises(ConfigError, match="attack kind"):
        parse_config("attack.kinds = finetune, melt\n")
    with pytest.raises(ConfigError, match="scheme"):
        parse_config("attack.quant_schemes = int2\n")


_NAN = float("nan")


def _partition_spec_in_every_mode(**kw) -> None:
    """The config bounds beta and sigma whatever partition.mode is, so every
    mode's PartitionSpec must accept or reject the value alike."""
    accepted = set()
    for mode in PARTITION_MODES:
        try:
            PartitionSpec(4, mode, **kw)
        except ValueError:
            accepted.add(False)
        else:
            accepted.add(True)
    assert len(accepted) == 1, f"partition modes disagree on {kw}"
    if not accepted.pop():
        raise ValueError(f"every partition mode rejects {kw}")


# config key -> the library object that must accept and reject alike
_LIBRARY = {
    "partition.sigma": lambda v: _partition_spec_in_every_mode(sigma=v),
    "partition.beta": lambda v: _partition_spec_in_every_mode(beta=v),
    "data.spread": lambda v: make_blobs(RngStream(0, StreamLabel.DATA), 1, 2, 1, v),
    "embed.strength": lambda v: EmbedConfig(strength=v),
    "attack.gamma": lambda v: replace(parse_config("").adaptive_attack(), gamma=v),
    "optimizer.momentum": lambda v: OptimizerConfig(momentum=v).build(),
}


@pytest.mark.parametrize(
    "key, value, accepted",
    [
        pytest.param("partition.sigma", -1.0, False, id="-1.0-False"),
        pytest.param("partition.sigma", 0.0, True, id="0.0-True"),
        pytest.param("partition.sigma", 1.0, True, id="1.0-True"),
        ("partition.sigma", _NAN, False),
        ("partition.sigma", math.inf, False),
        ("partition.beta", -1.0, False),
        ("partition.beta", 0.5, True),
        ("partition.beta", _NAN, False),
        ("partition.beta", math.inf, False),
        ("data.spread", 0.0, True),
        ("data.spread", -1.0, False),
        ("data.spread", _NAN, False),
        ("embed.strength", _NAN, False),
        ("attack.gamma", _NAN, False),
        ("optimizer.momentum", _NAN, False),
        ("optimizer.momentum", 1.5, False),
        ("optimizer.momentum", 0.9, True),
    ],
)
def test_partition_sigma_bound_agrees_with_the_library(key, value, accepted):
    def library_accepts():
        try:
            _LIBRARY[key](value)
        except ValueError:
            return False
        return True

    def config_accepts():
        try:
            parse_config(f"{key} = {value}\n")
        except ConfigError:
            return False
        return True

    assert library_accepts() is accepted
    assert config_accepts() is accepted


def test_parse_override_types_and_errors():
    assert parse_override("optimizer.lr", "0.1") == 0.1
    assert parse_override("embed.enabled", "true") is True
    assert parse_override("model.widths", "8,8") == (8, 8)
    with pytest.raises(ConfigError, match="unknown override"):
        parse_override("optimizer.speed", "0.1")
    with pytest.raises(ConfigError, match=r"optimizer\.lr"):
        parse_override("optimizer.lr", "fast")


def test_overrides_win_over_file_values():
    cfg = parse_config("run.rounds = 5\n", {"run.rounds": 7, "run.seed": 3})
    assert cfg["run.rounds"] == 7
    assert cfg["run.seed"] == 3
    with pytest.raises(ConfigError, match="unknown override"):
        parse_config("", {"runs.rounds": 7})
    with pytest.raises(ConfigError, match=r"run\.batch_size"):
        parse_config("", {"run.batch_size": 0})  # overrides are validated too


def test_split_spec_builder():
    spec = parse_config("").split_spec()
    assert len(spec.bottom) == 2 and len(spec.middle) == 1 and len(spec.head) == 1
    assert spec.in_dim == 8
    assert spec.split_dim == 64
    assert spec.n_classes == 4
    assert spec.head[0].activation == "identity"
    wide = parse_config("model.widths = 16,32,48,64\nmodel.split = 3\n").split_spec()
    assert [l.out_dim for l in wide.bottom] == [16, 32, 48]
    assert [l.out_dim for l in wide.middle] == [64]


def test_object_builders_pass_values_through():
    cfg = parse_config(
        "embed.enabled = true\n"
        "embed.strength = 0.7\n"
        "noise.enabled = true\n"
        "noise.snr = 0.25\n"
        "optimizer.lr = 0.02\n"
        "attack.gamma = 2.5\n"
        "run.seed = 11\n"
    )
    assert cfg.optimizer().lr == 0.02
    assert cfg.embed().strength == 0.7
    assert cfg.noise().snr == 0.25
    assert cfg.adaptive_attack().gamma == 2.5
    assert cfg.partition_spec().seed == 11
    assert cfg.protocol().n_rounds == 30
    off = parse_config("")
    assert off.embed() is None and off.noise() is None


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text("run.rounds = 3\nrun.out = runs/demo\n")
    cfg = load_config(str(path))
    assert cfg["run.rounds"] == 3
    cfg2 = load_config(str(path), {"run.rounds": 9})
    assert cfg2["run.rounds"] == 9


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)
    assert isinstance(Config({}), Config)
