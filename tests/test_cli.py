"""End-to-end command line behavior: exit codes, artifacts, determinism."""

import hashlib
import json
import os

import pytest

from splitmark.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    config_paths,
    main,
    preset_names,
    preset_path,
)
from splitmark.config import ConfigError, load_config
from splitmark.linalg import RngStream, StreamLabel
from splitmark.nn import init_split_model, save_model
from splitmark.watermark import keygen, save_key

from helpers import RETIRED_KEYS, blas_environment

TINY = """
run.rounds = 2
run.local_epochs = 1
run.batch_size = 10
run.probe_samples = 16
data.classes = 3
data.input_dim = 4
data.train_per_class = 30
data.test_per_class = 5
partition.clients = 2
model.widths = 8,8
model.split = 1
optimizer.lr = 0.05
embed.bits = 4
verify.probes = 32
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


@pytest.fixture()
def tiny_wm_cfg(tmp_path):
    path = tmp_path / "tiny_wm.cfg"
    path.write_text(TINY + "embed.enabled = true\nembed.strength = 0.5\n")
    return str(path)


def _json_lines(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_run_writes_artifacts_and_summary(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["run", "--config", tiny_cfg, "--out", out]) == EXIT_OK
    (line,) = _json_lines(capsys)
    assert line["out"] == out
    assert 0.0 <= line["final_test_acc"] <= 1.0
    assert "wsr" not in line  # no embedding requested
    for artifact in ("model.ckpt", "metrics.csv", "manifest.json"):
        assert os.path.isfile(os.path.join(out, artifact))


def test_run_with_embedding_saves_key_and_reports_wsr(tiny_wm_cfg, tmp_path, capsys):
    out = str(tmp_path / "wm")
    assert main(["run", "--config", tiny_wm_cfg, "--out", out]) == EXIT_OK
    (line,) = _json_lines(capsys)
    assert 0.0 <= line["wsr"] <= 1.0
    assert isinstance(line["wsr_passed"], bool)
    assert os.path.isfile(os.path.join(out, "key.txt"))


def test_verify_roundtrip_on_saved_run(tiny_wm_cfg, tmp_path, capsys):
    out = str(tmp_path / "wm")
    main(["run", "--config", tiny_wm_cfg, "--out", out])
    capsys.readouterr()
    code = main(
        [
            "verify",
            "--model",
            os.path.join(out, "model.ckpt"),
            "--key",
            os.path.join(out, "key.txt"),
            "--probes",
            "48",
            "--tau",
            "0.6",
        ]
    )
    assert code == EXIT_OK
    (doc,) = _json_lines(capsys)
    assert set(doc) == {"wsr", "tau", "passed", "n_samples"}
    assert doc["n_samples"] == 48
    assert doc["tau"] == 0.6


def test_verify_missing_files_exit_config(tmp_path, tiny_cfg, capsys):
    code = main(
        ["verify", "--model", str(tmp_path / "no.ckpt"), "--key", str(tmp_path / "no.key")]
    )
    assert code == EXIT_CONFIG
    # Out-of-range flags and files that fail their magic or checksum check
    # are bad arguments too: exit 2 with one line naming the flag or file.
    spec = load_config(tiny_cfg).split_spec()
    model = str(tmp_path / "model.ckpt")
    key = tmp_path / "key.txt"
    save_model(init_split_model(spec, RngStream(0, StreamLabel.MODEL_INIT)), model)
    save_key(keygen(RngStream(0, StreamLabel.WATERMARK_KEY), spec.split_dim, 4), str(key))
    garbage = tmp_path / "garbage"
    garbage.write_text("not an artifact\n")
    tampered = tmp_path / "tampered.txt"
    tampered.write_text(key.read_text().replace("\nseed ", "\nseed 1", 1))
    # a checkpoint that ends early, a key one unit wider than the split, and
    # checkpoints whose input width or class count differs from the config's
    cut = tmp_path / "cut.ckpt"
    with open(model) as fh:
        cut.write_text("".join(fh.readlines()[:10]))
    wide_key = str(tmp_path / "wide.txt")
    save_key(keygen(RngStream(0, StreamLabel.WATERMARK_KEY), spec.split_dim + 1, 4), wide_key)
    # checkpoints whose first weight is not finite or that go on after the
    # last segment, and a key whose header lacks d under a valid checksum
    with open(model) as fh:
        lines = fh.readlines()
    rest = lines[7].split(" ", 2)[2]  # the first w row without its first value
    inf, nan, trailing = (str(tmp_path / f"{n}.ckpt") for n in ("inf", "nan", "trailing"))
    for path, body_lines in (
        (inf, lines[:7] + [f"w inf {rest}"] + lines[8:]),
        (nan, lines[:7] + [f"w nan {rest}"] + lines[8:]),
        (trailing, lines + ["b 0x0p+0\n"]),
    ):
        with open(path, "w") as fh:
            fh.writelines(body_lines)
    after_end = f"line {len(lines) + 1}"
    # a checkpoint whose bottom segment claims no layers
    no_layers = str(tmp_path / "no_layers.ckpt")
    with open(no_layers, "w") as fh:
        fh.writelines(lines[:1] + ["segment bottom 0\n"] + lines[2:])
    body = key.read_text().rsplit("\nchecksum ", 1)[0].replace("\nd ", "\nx ", 1)
    no_d = tmp_path / "no_d.txt"
    no_d.write_text(body + f"\nchecksum {hashlib.sha256(body.encode()).hexdigest()}\n")
    # keys whose first or fourth m row (line 5 or 8) is one value short,
    # under a valid checksum
    key_lines = key.read_text().rsplit("\nchecksum ", 1)[0].split("\n")
    short_m, short_m8 = tmp_path / "short_m.txt", tmp_path / "short_m8.txt"
    for path, row in ((short_m, 4), (short_m8, 7)):
        cut_lines = list(key_lines)
        cut_lines[row] = cut_lines[row].rsplit(" ", 1)[0]
        body = "\n".join(cut_lines)
        path.write_text(body + f"\nchecksum {hashlib.sha256(body.encode()).hexdigest()}\n")
    # a key with a line between bits and checksum, under a valid checksum
    extra = tmp_path / "extra.txt"
    body = "\n".join(key_lines + ["extra line here"])
    extra.write_text(body + f"\nchecksum {hashlib.sha256(body.encode()).hexdigest()}\n")
    extra_line = f"line {len(key_lines) + 1}"
    # a key with a blank line inserted as line 5, its checksum left as saved
    blank_lines = key.read_text().split("\n")
    blank_lines.insert(4, "")
    blank = tmp_path / "blank.txt"
    blank.write_text("\n".join(blank_lines))
    # directories where a file belongs
    folder = str(tmp_path / "folder")
    os.mkdir(folder)
    narrow, five = str(tmp_path / "narrow.ckpt"), str(tmp_path / "five.ckpt")
    for path, override in ((narrow, {"data.input_dim": 3}), (five, {"data.classes": 5})):
        other = load_config(tiny_cfg, override).split_spec()
        save_model(init_split_model(other, RngStream(0, StreamLabel.MODEL_INIT)), path)
    verify = ["verify", "--model", model, "--key", str(key)]
    attack = ["attack", "--config", tiny_cfg, "--kind", "prune"]
    cases = [
        (verify + ["--probes", "0"], ["--probes"]),
        (verify + ["--tau", "2"], ["--tau"]),
        (verify + ["--seed", "-1"], ["--seed"]),
        (["verify", "--model", inf, "--key", str(key)], [inf, "line 8"]),
        (["verify", "--model", nan, "--key", str(key)], [nan, "line 8"]),
        (["verify", "--model", trailing, "--key", str(key)], [trailing, after_end]),
        (["verify", "--model", no_layers, "--key", str(key)], [no_layers, "line 2"]),
        (["verify", "--model", model, "--key", str(no_d)], [str(no_d), "lacks d"]),
        (["verify", "--model", model, "--key", str(short_m)], [str(short_m), "line 5"]),
        (["verify", "--model", model, "--key", str(short_m8)], [str(short_m8), "line 8"]),
        (["verify", "--model", model, "--key", str(blank)], [str(blank), "line 5"]),
        (["verify", "--model", model, "--key", str(extra)], [str(extra), extra_line]),
        (["verify", "--model", folder, "--key", str(key)], [folder]),
        (["verify", "--model", model, "--key", folder], [folder]),
        (["verify", "--model", str(garbage), "--key", str(key)], [str(garbage)]),
        (["verify", "--model", model, "--key", str(tampered)], [str(tampered)]),
        (["verify", "--model", str(cut), "--key", str(key)], [str(cut), "line 11"]),
        (["verify", "--model", model, "--key", wide_key], [wide_key, model]),
        (attack + ["--model", str(garbage)], [str(garbage)]),
        (attack + ["--model", folder], [folder]),
        (attack + ["--model", model, "--key", str(tampered)], [str(tampered)]),
        (attack + ["--model", model, "--key", wide_key], [wide_key, model]),
        (attack + ["--model", narrow], [narrow, tiny_cfg]),
        (attack + ["--model", five], [five, tiny_cfg]),
    ]
    capsys.readouterr()
    for argv, named in cases:
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert all(name in err for name in named), (err, named)
    assert main(verify) == EXIT_OK


def test_run_argument_validation(tiny_cfg, tmp_path):
    assert main(["run"]) == EXIT_CONFIG  # neither source
    assert main(["run", "--config", tiny_cfg, "--preset", "fidelity"]) == EXIT_CONFIG
    assert main(["run", "--config", str(tmp_path / "ghost.cfg")]) == EXIT_CONFIG
    assert main(["run", "--preset", "no-such-preset"]) == EXIT_CONFIG
    bad_set = ["run", "--config", tiny_cfg, "--set", "optimizer.lr"]
    assert main(bad_set) == EXIT_CONFIG  # missing '='
    assert (
        main(["run", "--config", tiny_cfg, "--set", "optimizer.gear=3"]) == EXIT_CONFIG
    )
    assert (
        main(["run", "--config", tiny_cfg, "--set", "optimizer.lr=slow"]) == EXIT_CONFIG
    )
    for key in RETIRED_KEYS:
        assert main(["run", "--config", tiny_cfg, "--set", f"{key}=1"]) == EXIT_CONFIG
    # a skew spec that leaves some client empty on every draw
    skewed = ["partition.clients=10", "partition.mode=unbalanced", "partition.sigma=30"]
    flags = [arg for item in skewed for arg in ("--set", item)]
    out = ["--out", str(tmp_path / "skewed")]
    assert main(["run", "--config", tiny_cfg, *out, *flags]) == EXIT_CONFIG
    # a detector on a client 0 with 3 samples, too few to calibrate on
    small = ["partition.clients=10", "partition.mode=unbalanced", "detector.enabled=true"]
    flags = [arg for item in small for arg in ("--set", item)]
    out = ["--out", str(tmp_path / "small"), "--seed", "1"]
    assert main(["run", "--config", tiny_cfg, *out, *flags]) == EXIT_CONFIG


def test_calibration_trains_clean_copies(tiny_cfg, tmp_path, capsys):
    # Embedding, noise and the detector are forced off in the clean runs, so
    # turning them on changes no byte of calibration.json. At seed 1 this
    # split leaves client 0 three samples, too few to build a detector on.
    split = ["calibrate.models=2", "partition.clients=10", "partition.mode=unbalanced"]
    extra = ["embed.enabled=true", "noise.enabled=true", "detector.enabled=true"]
    docs = []
    for i, items in enumerate((split, split + extra)):
        out = str(tmp_path / f"cal{i}")
        flags = [arg for item in items for arg in ("--set", item)]
        args = ["calibrate", "--config", tiny_cfg, "--out", out, "--seed", "1", *flags]
        assert main(args) == EXIT_OK
        with open(os.path.join(out, "calibration.json"), "rb") as fh:
            docs.append(fh.read())
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["n_models"] == 2
    lines = _json_lines(capsys)
    assert lines[0] == lines[1] == json.loads(docs[0])


def test_divergent_run_exits_numeric(tiny_cfg, tmp_path):
    import numpy as np

    # a learning rate of 1e200 sends the parameters past the float range
    # within a couple of batches
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(
            [
                "run",
                "--config",
                tiny_cfg,
                "--out",
                str(tmp_path / "boom"),
                "--set",
                "optimizer.lr=1e200",
            ]
        )
    assert code == EXIT_NUMERIC


def test_divergent_keyed_run_exits_numeric(tiny_wm_cfg, tmp_path):
    import numpy as np

    # the same divergence with the watermark term on: the server's keyed
    # reply must fail as a numerical error too, not as a crash
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(
            [
                "run",
                "--config",
                tiny_wm_cfg,
                "--out",
                str(tmp_path / "boom"),
                "--set",
                "optimizer.lr=1e200",
            ]
        )
    assert code == EXIT_NUMERIC


def test_divergent_adaptive_attack_exits_numeric(tmp_path):
    import numpy as np

    # a huge fine-tuning rate drives the attacker's surrogate training to
    # non-finite activations; the run must end as a numerical error, not
    # as a crash in the subspace penalty
    cfg = tmp_path / "adaptive.cfg"
    cfg.write_text(
        "run.rounds = 2\n"
        "data.train_per_class = 50\n"
        "partition.clients = 2\n"
        "embed.enabled = true\n"
        "embed.strength = 1.0\n"
        "attack.kinds = adaptive\n"
        "attack.rounds_early = 0, 1\n"
        "attack.rounds_late = 1, 2\n"
        "attack.ft_lr = 1e5\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "boom")])
    assert code == EXIT_NUMERIC


def test_same_seed_runs_are_byte_identical(tiny_wm_cfg, tmp_path, capsys):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["run", "--config", tiny_wm_cfg, "--out", out_a, "--seed", "5"])
    main(["run", "--config", tiny_wm_cfg, "--out", out_b, "--seed", "5"])
    capsys.readouterr()
    for name in ("metrics.csv", "model.ckpt", "key.txt"):
        with open(os.path.join(out_a, name), "rb") as fa:
            with open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name


# sha256 of the tiny keyed runs' artifacts, recorded before nn's per-layer
# parameter API was removed (strength 0.5, seed 0) and before the detector's
# counts moved to RoundMetrics (strength 5.0 with the detector on, 3
# rounds, seed 3; outlier counts [3, 0, 0]). The second run's manifest.json
# was re-recorded when seven single-valued settings left the config echo.
# The last two were recorded before clients with equally long shards began
# to train in lockstep groups, to pin runs whose groups are not one block
# of every client: 4 clients with shards of 23/23/22/22, two groups of two
# with a noise stream per client; and an unbalanced split of 10 clients
# with shards 3,3,3,3,39,3,3,3,27,3, a non-contiguous group of eight that
# holds client 0 plus two singletons.
# A change meant to keep artifacts byte-identical must reproduce them; one
# that changes them on purpose updates them here and tables the new digests.
FROZEN_TINY_RUNS = [
    (
        "embed.strength = 0.5\n",
        ["--seed", "0"],
        {
            "metrics.csv": "65808b6326ebf54247c6e2596140c5e7ee0a0c0b13c67e5d2d01ac23856db0ac",
            "model.ckpt": "d09f10eccf19226ab2b694b72cf2e8e3dc3f8bbf8eee7ddb8a50e6e7014e3858",
            "key.txt": "d722ce046a6fc092033c407ccf7877e356d087c894f35a18968216e6d1f42d6b",
        },
    ),
    (
        "embed.strength = 5.0\ndetector.enabled = true\n",
        ["--seed", "3", "--set", "run.rounds=3"],
        {
            "metrics.csv": "b76e68dbbf59a9bc636b797b19e9caac87d0b4bcd72dbf3086f37d4856d977b6",
            "manifest.json": "fa6df52b878f4047c35da0f6b2b506a9ab1197f0326e809b41c34696a866a18a",
            "model.ckpt": "485438416a47766c2c2173880066e2b733fe0a7265d108960fa5203c74c217b5",
            "key.txt": "248ff5ff07dfb9484a48004f273a503ec0057603883d60a22a4c311dfed6acfe",
        },
    ),
    (
        "embed.strength = 0.5\nnoise.enabled = true\nnoise.snr = 1.0\n",
        ["--seed", "1", "--set", "partition.clients=4"],
        {
            "metrics.csv": "2eb207a39a257f8a27ac44f6a20b96ed8ba251c85467f455ff67b6558efc5c4d",
            "manifest.json": "c920e516765e3f51a7b79d290d59898fcb2009751e6445a99777661e7db311bb",
            "model.ckpt": "aeb5e3ee27d7770007bd80cf559021892bb7b521c397ef6c43191f0b536a945c",
            "key.txt": "ef2214568c8d4b8366cdc80eea0ee63dcd1605d58bfaae077fb43b2e1331925a",
        },
    ),
    (
        "embed.strength = 0.5\npartition.mode = unbalanced\n",
        ["--seed", "1", "--set", "partition.clients=10"],
        {
            "metrics.csv": "0a94a97a0a5ab27612aee382e20ca371df3aeb40bae8182f969b5d4fca928684",
            "manifest.json": "23207004e7c4ebe3377939d3b726e0489d64b810cbee8b6da46e547533dc6e0e",
            "model.ckpt": "2f95df229af9667d490597bc6d258e7a1889d9072ef05f1502acf1ae94fdc2b4",
            "key.txt": "ef2214568c8d4b8366cdc80eea0ee63dcd1605d58bfaae077fb43b2e1331925a",
        },
    ),
]


def test_tiny_keyed_run_artifacts_are_frozen(tmp_path, capsys):
    # embedding on in every run; the second run also scores every round.
    # model.ckpt bits depend on the BLAS kernel (the digests were recorded
    # under OpenBLAS's SkylakeX kernel), so a mismatch names this host's.
    for i, (extra, flags, digests) in enumerate(FROZEN_TINY_RUNS):
        cfg, out = tmp_path / f"tiny{i}.cfg", str(tmp_path / f"run{i}")
        cfg.write_text(TINY + "embed.enabled = true\n" + extra)
        assert main(["run", "--config", str(cfg), "--out", out, *flags]) == EXIT_OK
        for name, digest in digests.items():
            with open(os.path.join(out, name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, (
                    f"run {i}: {name} differs from its pinned digest under "
                    f"{blas_environment()}"
                )
    capsys.readouterr()


def test_set_override_controls_the_run(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "short")
    main(["run", "--config", tiny_cfg, "--out", out, "--set", "run.rounds=1"])
    capsys.readouterr()
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["results"]["rounds"] == 1
    with open(os.path.join(out, "metrics.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 2  # header + one round


# attacks.json of the replay below, recorded when each attack branch wrote its
# own record fields.
ATTACKS_DIGEST = "eedad56a378b11b55c9f1d9b0c4bf00291a369347122a3090af91dcc10b4dd9e"


def test_attack_command_replays_saved_checkpoint(tiny_wm_cfg, tmp_path, capsys):
    out = str(tmp_path / "wm")
    main(["run", "--config", tiny_wm_cfg, "--out", out])
    capsys.readouterr()
    atk_out = str(tmp_path / "atk")
    code = main(
        [
            "attack",
            "--config",
            tiny_wm_cfg,
            "--model",
            os.path.join(out, "model.ckpt"),
            "--key",
            os.path.join(out, "key.txt"),
            "--kind",
            "finetune",
            "--kind",
            "prune",
            "--kind",
            "quantize",
            "--out",
            atk_out,
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    names = {entry["name"] for entry in doc}
    assert names == {"finetune", "prune", "quantize"}
    assert all("post_wsr" in entry for entry in doc)
    # Every record field of all three attack branches, as first written.
    with open(os.path.join(atk_out, "attacks.json"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == ATTACKS_DIGEST


def test_attack_command_rejects_adaptive_and_empty(tiny_wm_cfg, tmp_path):
    out = str(tmp_path / "wm")
    main(["run", "--config", tiny_wm_cfg, "--out", out])
    model = os.path.join(out, "model.ckpt")
    args = ["attack", "--config", tiny_wm_cfg, "--model", model]
    assert main(args) == EXIT_CONFIG  # no kinds anywhere
    assert (
        main(args + ["--set", "attack.kinds=adaptive"]) == EXIT_CONFIG
    )  # adaptive only lives inside `run`
    assert main(args + ["--kind", "adaptive"]) == EXIT_CONFIG


def test_run_config_dir_runs_each_config_into_subdirs(tiny_cfg, tmp_path, capsys):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for name in ("one", "two"):
        (cfg_dir / f"{name}.cfg").write_text(TINY.replace("rounds = 2", "rounds = 1"))
    out = str(tmp_path / "sweep")
    code = main(["run", "--config", str(cfg_dir), "--out", out])
    assert code == EXIT_OK
    lines = _json_lines(capsys)
    assert [os.path.basename(l["out"]) for l in lines] == ["one", "two"]
    for name in ("one", "two"):
        assert os.path.isfile(os.path.join(out, name, "metrics.csv"))
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["run", "--config", str(empty)]) == EXIT_CONFIG
    assert main(["run", "--config", str(tmp_path / "none")]) == EXIT_CONFIG
    assert main(["run"]) == EXIT_CONFIG


def test_run_config_dir_checks_every_config_before_training(tmp_path, capsys):
    # the valid config sorts first, so a run that trained as it loaded
    # would have written it before reaching the invalid one
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "a_good.cfg").write_text(TINY)
    (cfg_dir / "b_bad.cfg").write_text(TINY + "optimizer.gear = 3\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_dir), "--out", str(out)]) == EXIT_CONFIG
    assert "b_bad.cfg" in capsys.readouterr().err
    assert not out.exists()


def test_run_configs_sharing_an_output_directory_exit_config(tmp_path, capsys):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    shared = tmp_path / "shared"
    for name in ("one", "two"):
        (cfg_dir / f"{name}.cfg").write_text(TINY + f"run.out = {shared}\n")
    assert main(["run", "--config", str(cfg_dir)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "one.cfg" in err and "two.cfg" in err and str(shared) in err
    assert not shared.exists()


def test_run_out_on_a_file_exits_config(tiny_cfg, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert main(["run", "--config", tiny_cfg, "--out", str(taken)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert str(taken) in err


def test_preset_listing_and_member_selection(capsys):
    names = preset_names()
    for expected in (
        "fidelity", "removal", "adaptive", "detector", "noise", "heterogeneity"
    ):
        assert expected in names
    assert main(["presets"]) == EXIT_OK
    listed = capsys.readouterr().out.split()
    assert listed == names

    assert len(config_paths(preset_path("fidelity"))) == 4
    members = [os.path.basename(p) for p in config_paths(preset_path("adaptive"))]
    assert members == ["hi.cfg", "lo.cfg"]
    (one,) = config_paths(preset_path("fidelity/clean"))
    assert one.endswith("clean.cfg")
    with pytest.raises(ConfigError, match="no member"):
        preset_path("fidelity/missing")
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_path("imaginary")


def test_preset_names_cannot_leave_the_presets(tmp_path, capsys):
    # both parts are matched by name, so no path outside the presets resolves
    out = tmp_path / "never"
    names = ("../x", "fidelity/../../cli", "fidelity/../detector/clean", "", "fidelity/")
    for name in names:
        assert main(["run", "--preset", name, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
