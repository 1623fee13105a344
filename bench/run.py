"""splitmark benchmark: end-to-end and per-layer timings of whole experiments.

Usage, from the root of the repository:

    python3 bench/run.py --workload desk-embed --seed 1 --seconds 40 --trace 0
    python3 bench/run.py                 # every workload, each in its own process

One invocation runs one workload in-process, closed loop: one experiment
at a time, single-threaded BLAS. An experiment goes from the workload's
config file to the artifacts written (for `lifecycle` also verification
from disk and null calibration). Experiments repeat until `--seconds` is
used up; the run cycles through a fixed number of seeds derived from
`--seed`, then reruns them, and every rerun must reproduce the sha256 of
metrics.csv, model.ckpt and key.txt byte for byte.

With `--trace 0` the last stdout line carries the end-to-end metrics;
phase times come from timestamps at the three top-level calls (setup,
`run_experiment`, what follows). With `--trace 1` untraced and traced
experiments alternate and the last line carries per-layer metrics from
the outside-in tracer in tracer.py. The line before it records the
environment, the per-experiment figures and the digests.

The exit code is 1 when splitmark cannot be imported from `src/` next to
this directory, or when no experiment completed.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before NumPy loads: an unpinned run measures the scheduler.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# Setup-only passes before each untraced experiment, so that setup is
# sampled across the whole run; setup_s is the median of these passes
# and of every experiment's own setup phase.
SETUP_PASSES = 2

# Seeds per run. Quality guards are means over these seeds, so they stay
# deterministic for a given --seed whatever the machine speed.
WORKLOADS = {
    "desk-embed": {"seeds": 2, "owner_phases": False},
    "wide-noise": {"seeds": 8, "owner_phases": False},
    "lifecycle": {"seeds": 3, "owner_phases": True},
}

# Spans the tracer records: layer (splitmark module) -> traced names.
SPANS = {
    "protocol": [
        "train_batch",
        "ClientWorker.bottom_forward",
        "ServerWorker.middle_forward",
        "ClientWorker.head_step",
        "ServerWorker.grad_reply",
        "ClientWorker.apply_final",
        "MessageLog.append",
        "MessageLog.verify_ordering",
        "fedavg_segments",
    ],
    "nn": [
        "forward_segment",
        "backward_segment",
        "softmax_xent",
        "SgdOptimizer.step",
        "save_model",
        "load_model",
    ],
    "watermark": [
        "wm_gradient",
        "wm_loss",
        "adaptive_clip",
        "compose",
        "verify",
        "calibrate_threshold",
        "keygen",
    ],
    "linalg": [
        "RngStream.normal",
        "RngStream.permutation",
        "cosine",
        "pca",
        "sym_eig",
    ],
    "attacks": [
        "inject_noise",
        "finetune",
        "adaptive_remove",
        "estimate_subspace",
        "prune",
        "quantize",
    ],
    "detect": ["build_reference", "score_round"],
    "data": ["make_blobs", "partition"],
    "config": ["load_config"],
    "runner": ["run_attacks", "write_metrics_csv", "write_manifest", "save_key"],
}

# Spans every workload must exercise, then the ones only one workload does.
_SHARED = [
    *(f"protocol.{s}" for s in SPANS["protocol"]),
    "nn.forward_segment",
    "nn.backward_segment",
    "nn.softmax_xent",
    "nn.SgdOptimizer.step",
    "nn.save_model",
    "watermark.wm_gradient",
    "watermark.wm_loss",
    "watermark.adaptive_clip",
    "watermark.compose",
    "watermark.verify",
    "watermark.keygen",
    "linalg.RngStream.normal",
    "linalg.RngStream.permutation",
    "linalg.cosine",
    "data.make_blobs",
    "data.partition",
    "config.load_config",
    "runner.write_metrics_csv",
    "runner.write_manifest",
    "runner.save_key",
]
EXERCISED = {
    "desk-embed": _SHARED + ["detect.build_reference", "detect.score_round"],
    "wide-noise": _SHARED + ["attacks.inject_noise"],
    "lifecycle": _SHARED
    + [
        "nn.load_model",
        "watermark.calibrate_threshold",
        "linalg.pca",
        "linalg.sym_eig",
        *(f"attacks.{s}" for s in SPANS["attacks"] if s != "inject_noise"),
        "runner.run_attacks",
    ],
}

ARTIFACTS = ("metrics.csv", "model.ckpt", "key.txt")


def import_splitmark():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "splitmark" / "__init__.py").is_file():
        raise ImportError(f"no splitmark package under {SRC}")
    sys.path.insert(0, str(SRC))
    import splitmark
    from splitmark import config, linalg, nn, runner, watermark

    if Path(splitmark.__file__).resolve().parent != SRC / "splitmark":
        raise ImportError(f"splitmark was imported from {splitmark.__file__}")
    return config, linalg, nn, runner, watermark


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


class SetupDone(Exception):
    """Raised in place of training to end a setup-only pass."""


class Bench:
    def __init__(self, workload: str, seed: int, modules):
        self.spec = WORKLOADS[workload]
        self.config, self.linalg, self.nn, self.runner, self.watermark = modules
        self.cfg_path = str(BENCH_DIR / "workloads" / f"{workload}.cfg")
        n = self.spec["seeds"]
        self.seeds = [seed * n + i for i in range(n)]
        self.out = RUNS / f"{workload}-{os.getpid()}"

    def load(self, seed: int):
        return self.config.load_config(self.cfg_path, {"run.seed": seed})

    def setup_only(self, seed: int) -> float:
        """Time one pass of execute_run up to the point training would start."""
        runner = self.runner
        original = runner.run_experiment

        def stop(*args, **kwargs):
            raise SetupDone

        t0 = time.perf_counter()
        runner.run_experiment = stop
        try:
            runner.execute_run(self.load(seed), str(self.out))
        except SetupDone:
            return time.perf_counter() - t0
        finally:
            runner.run_experiment = original
        raise RuntimeError("execute_run returned without training")

    def experiment(self, seed: int) -> dict:
        """One timed experiment: config -> artifacts (-> owner phases)."""
        runner = self.runner
        original = runner.run_experiment
        stamps: dict = {}

        def clocked(*args, **kwargs):
            stamps["train_start"] = time.perf_counter()
            stamps["result"] = original(*args, **kwargs)
            stamps["train_end"] = time.perf_counter()
            return stamps["result"]

        shutil.rmtree(self.out, ignore_errors=True)
        t0 = time.perf_counter()
        cfg = self.load(seed)
        runner.run_experiment = clocked
        try:
            runner.execute_run(cfg, str(self.out))
        finally:
            runner.run_experiment = original
        disk_wsr = None
        if self.spec["owner_phases"]:
            disk_wsr = self.verify_from_disk(cfg)
            runner.execute_calibration(cfg, str(self.out))
        t_end = time.perf_counter()
        res = stamps["result"]
        return {
            "seed": seed,
            "cfg": cfg,
            "result": res,
            "disk_wsr": disk_wsr,
            "setup_s": stamps["train_start"] - t0,
            "train_s": stamps["train_end"] - stamps["train_start"],
            "posthoc_s": t_end - stamps["train_end"],
            "run_s": t_end - t0,
            "batches": len(res.batch_stats),
        }

    def verify_from_disk(self, cfg) -> float:
        """Owner-side verification from the written checkpoint and key."""
        model = self.nn.load_model(str(self.out / "model.ckpt"))
        key = self.watermark.load_key(str(self.out / "key.txt"))
        probe = self.linalg.RngStream(
            cfg["run.seed"], self.linalg.StreamLabel.VERIFICATION, (2,)
        )
        return self.watermark.verify(
            model.bottom, key, probe, n_samples=cfg["verify.probes"], tau=cfg["verify.tau"]
        ).wsr

    def check(self, rec: dict) -> list[str]:
        """Output checks on the artifacts of one experiment; returns problems."""
        cfg = rec["cfg"]
        problems = []
        with open(self.out / "metrics.csv", encoding="ascii") as fh:
            rows = len(fh.read().splitlines()) - 1
        if rows != cfg["run.rounds"]:
            problems.append(f"metrics.csv has {rows} rows, want {cfg['run.rounds']}")
        with open(self.out / "manifest.json", encoding="ascii") as fh:
            results = json.load(fh)["results"]
        rec["final_test_acc"] = results["final_test_acc"]
        rec["wsr"] = results["wsr"]
        disk_wsr = rec["disk_wsr"]
        if disk_wsr is None:
            disk_wsr = self.verify_from_disk(cfg)
        if disk_wsr != results["wsr"]:
            problems.append(f"reloaded wsr {disk_wsr} != manifest wsr {results['wsr']}")
        if self.spec["owner_phases"]:
            per_kind = {
                "finetune": 1,
                "prune": len(cfg["attack.prune_ratios"]),
                "quantize": len(cfg["attack.quant_schemes"]),
                "adaptive": 1,
            }
            want = {kind: per_kind[kind] for kind in cfg["attack.kinds"]}
            got = dict(Counter(entry["name"] for entry in results.get("attacks", [])))
            if got != want:
                problems.append(f"attack records {got}, want {want}")
            calib_path = self.out / "calibration.json"
            if not calib_path.is_file():
                problems.append("calibration.json missing")
            else:
                with open(calib_path, encoding="ascii") as fh:
                    calib = json.load(fh)
                if not math.isfinite(calib["tau_5sigma"]):
                    problems.append(f"calibration tau {calib['tau_5sigma']} not finite")
        rec["digest"] = {
            name: hashlib.sha256((self.out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS
        }
        return problems


def counts_from_result(res, cfg) -> dict:
    """Exact counts read from the run's own result objects."""
    messages = res.message_log.messages
    batches = len(res.batch_stats)
    payload = sum(8 * math.prod(m.shape) for m in messages)
    clipped = [
        s.g_wm_clipped_norm < s.g_wm_raw_norm
        for s in res.batch_stats
        if s.g_wm_raw_norm is not None
    ]
    detector_client = cfg.protocol().detector_client
    scored_rounds = {m.round_idx for m in res.metrics if m.outliers is not None}
    rows_scored = sum(
        m.shape[0]
        for m in messages
        if m.kind.value == "final_gradient"
        and m.client == detector_client
        and m.round_idx in scored_rounds
    )
    outliers = sum(m.outliers for m in res.metrics if m.outliers is not None)
    return {
        "protocol.boundary_messages": len(messages),
        "protocol.boundary_bytes_per_batch": payload / batches if batches else 0.0,
        "watermark.clip_binding_frac": sum(clipped) / len(clipped) if clipped else 0.0,
        "detect.outlier_frac": outliers / rows_scored if rows_scored else 0.0,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the workload for `seconds`; returns (summary line, result line)."""
    bench = Bench(workload, seed, import_splitmark())
    started = time.perf_counter()
    records: list[dict] = []
    traced: list[tuple[dict, Tracer]] = []
    first_digest: dict[int, dict] = {}
    attempted = failed = 0
    setup_samples: list[float] = []

    # Untraced: every seed once, the first again, then cycle while time
    # remains. Traced: the first seed only, untraced and traced in turn.
    schedule = [*bench.seeds, bench.seeds[0]] if not trace else [bench.seeds[0]] * 2
    cycle = bench.seeds if not trace else bench.seeds[:1]
    for i in itertools.count():
        if i < len(schedule):
            run_seed = schedule[i]
        else:
            typical = statistics.median(r["run_s"] for r in records) if records else 0.0
            if time.perf_counter() - started + typical > seconds:
                break
            run_seed = cycle[i % len(cycle)]
        tracing = trace and i % 2 == 1
        if not trace:
            for _ in range(SETUP_PASSES):
                setup_samples.append(bench.setup_only(run_seed))
        attempted += 1
        tracer = Tracer("splitmark", SPANS) if tracing else None
        try:
            if tracer is not None:
                with tracer.installed():
                    rec = bench.experiment(run_seed)
            else:
                rec = bench.experiment(run_seed)
            problems = bench.check(rec)
            # Keep only counts: holding every RunResult would inflate peak_rss_mb.
            rec["counts"] = counts_from_result(rec.pop("result"), rec["cfg"])
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        prior = first_digest.setdefault(run_seed, rec["digest"])
        if prior != rec["digest"]:
            problems.append(f"seed {run_seed}: artifacts differ from its first run")
        if problems:
            failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            continue
        rec["traced"] = tracing
        records.append(rec)
        if tracer is not None:
            traced.append((rec, tracer))
    shutil.rmtree(bench.out, ignore_errors=True)

    untraced = [r for r in records if not r["traced"]]
    if not untraced or (trace and not traced):
        raise RuntimeError("no experiment completed")

    info = {
        "workload": workload,
        "seed": seed,
        "seeds": bench.seeds,
        "env": environment(),
        "experiments": [
            {k: r[k] for k in ("seed", "traced", "setup_s", "train_s", "posthoc_s", "run_s")}
            for r in records
        ],
        "digests": {str(s): d for s, d in first_digest.items()},
    }
    if trace:
        metrics, coverage_problems = per_layer(workload, records, traced)
        for p in coverage_problems:
            print(f"check failed: {p}", file=sys.stderr)
        correct = failed == 0 and not coverage_problems
    else:
        metrics = end_to_end(untraced, setup_samples)
        correct = failed == 0
    return info, {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def end_to_end(records: list[dict], setup_samples: list[float]) -> dict:
    by_seed: dict[int, dict] = {}
    for r in records:
        by_seed.setdefault(r["seed"], r)
    quality = list(by_seed.values())
    return {
        "run_s": statistics.median(r["run_s"] for r in records),
        "setup_s": statistics.median(setup_samples + [r["setup_s"] for r in records]),
        "train_batches_per_s": statistics.median(r["batches"] / r["train_s"] for r in records),
        "posthoc_s": statistics.median(r["posthoc_s"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_test_acc": statistics.fmean(r["final_test_acc"] for r in quality),
        "wsr": statistics.fmean(r["wsr"] for r in quality),
    }


def per_layer(workload: str, records: list[dict], traced) -> tuple[dict, list[str]]:
    problems = []
    summaries = [tracer.summary() for _, tracer in traced]
    calls = {name: c for name, (c, _) in summaries[0].items()}
    for other in summaries[1:]:
        if {name: c for name, (c, _) in other.items()} != calls:
            problems.append("call counts differ between traced runs of one seed")
    for name in EXERCISED[workload]:
        if calls[name] == 0:
            problems.append(f"span {name} recorded no call on {workload}")
    metrics: dict = {}
    for name in calls:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_us"] = statistics.fmean(s[name][1] for s in summaries)
    tracers = [t for _, t in traced]
    metrics["protocol.train_batch.us_p50"] = statistics.median(
        t.percentile_us("protocol.train_batch", 50) for t in tracers
    )
    metrics["protocol.train_batch.us_p99"] = statistics.median(
        t.percentile_us("protocol.train_batch", 99) for t in tracers
    )
    metrics.update(traced[0][0]["counts"])
    plain = [r["run_s"] for r in records if not r["traced"]]
    metrics["trace.overhead_s"] = statistics.median(
        r["run_s"] for r, _ in traced
    ) - statistics.median(plain)
    tracers[-1].write(str(RUNS / f"trace-{workload}.csv"))
    return metrics, problems


def with_units(metrics: dict, trace: bool) -> dict:
    """Attach units from BENCHMARK.json and insist the names match it."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: {sorted(set(units) ^ set(metrics))}"
        )
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def run_all(args) -> int:
    """Run every workload in its own process and print a table."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}")
            status = 1
            continue
        print(lines[-2])
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        for name, m in result["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
        rows.append((workload, "failed/attempted", f"{result['failed']}/{result['attempted']}", ""))
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:<11} {name:<48} {shown:>14} {unit}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is None:
        return run_all(args)
    try:
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        result["metrics"] = with_units(result["metrics"], bool(args.trace))
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
