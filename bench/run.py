#!/usr/bin/env python3
"""deepconn benchmark: one workload per run, or every workload with `all`.

    python3 bench/run.py --workload train-cnn --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports deepconn from ./src, never
from an installed copy.  A run makes its inputs from --seed modulo
INPUT_SEEDS, so that every run has a committed reference, repeats the
workload for about --seconds, checks every output and prints, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics; with --trace 1
every deepconn call is wrapped in a span and the metrics are per layer.
The line before it holds the environment, the input properties, the
phase rates and the outputs of the run.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from checks import Checks, load_reference

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"    # generated inputs, removed when a run ends
OUT_DIR = ROOT / ".bench_out"      # span files of traced runs

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "items/s"),
    ("peak_rss_mb", "MB"),
    ("check_pass_rate", "fraction"),
)

# Inputs are made from --seed modulo this: bench/reference.json holds the
# outputs of input seeds 0..INPUT_SEEDS-1, so every run is checked against
# a committed reference, whatever seed it is given.
INPUT_SEEDS = 64

MIN_SETUPS = 10      # set-up samples per run, when SETUP_SHARE allows
SETUP_SHARE = 0.25   # of --seconds, spent at most on extra set-ups

LAYERS = ("conv1d", "maxpool", "dense", "dropout", "gru_step", "lstm_step")

PER_LAYER_UNITS = {"_s": "s", "_us": "us", "_share": "fraction",
                   "_bytes": "bytes", "_error": "ratio"}


def import_deepconn():
    """Import deepconn from this checkout's src/ only; None if it is missing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import deepconn
    except ImportError:
        return None
    if not Path(deepconn.__file__).resolve().is_relative_to(src):
        return None
    return deepconn


def environment(seed, input_seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "input_seed": input_seed,
    }


@dataclass
class Measurement:
    """Per-iteration samples of one run, its checks and its input properties."""
    setup_s: list = field(default_factory=list)
    run_s: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    checks: Checks = field(default_factory=Checks)
    properties: dict = None


def measure(workload, inputs, seconds, reference, tracer=None):
    """Repeat setup + body for about `seconds`, checking every iteration."""
    m = Measurement()
    wrap = tracer.wrap if tracer else (lambda name, fn: fn)
    setup = wrap("bench.setup", workload.setup)
    body = wrap("bench.body", workload.body)

    def iteration():
        started = time.perf_counter()
        state = setup(inputs)
        set_up = time.perf_counter()
        outcome = body(inputs, state)
        return state, outcome, set_up - started, time.perf_counter() - started

    iteration = wrap("bench.iteration", iteration)
    started = time.perf_counter()
    while True:
        state, outcome, setup_s, run_s = iteration()
        with untraced(tracer):
            workload.verify(inputs, state, outcome, m.checks, reference,
                            m.outcomes[0] if m.outcomes else None)
            if m.properties is None:
                m.properties = workload.properties(state, outcome)
        del state
        m.setup_s.append(setup_s)
        m.run_s.append(run_s)
        m.outcomes.append(outcome)
        if time.perf_counter() - started + statistics.median(m.run_s) > seconds:
            break
    # A short set-up gets extra repetitions, so that its median rests on
    # MIN_SETUPS samples even when few iterations fit in the run.
    deadline = time.perf_counter() + SETUP_SHARE * seconds
    with untraced(tracer):
        while len(m.setup_s) < MIN_SETUPS and time.perf_counter() < deadline:
            set_up = time.perf_counter()
            workload.setup(inputs)
            m.setup_s.append(time.perf_counter() - set_up)
    return m


@contextmanager
def untraced(tracer):
    if tracer:
        tracer.active = False
    try:
        yield
    finally:
        if tracer:
            tracer.active = True


def end_to_end_metrics(m):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(m.setup_s),
        "run_s": statistics.median(m.run_s),
        "items_per_s": statistics.median(o.items / o.work_s for o in m.outcomes),
        "peak_rss_mb": rss_mb,
        "check_pass_rate": m.checks.pass_rate,
    }


def per_layer_metrics(stats, measurement, checkpoint):
    """Per-iteration totals (_s), per-call means (_us), counts and shares."""
    properties = measurement.properties
    test_pairs = sum(measurement.outcomes[0].details.get("evaluate", {}).values())
    m = {
        "ingest.parse_s": stats.seconds("ingest.parse"),
        "ingest.records": properties.get("ingest.records", 0),
        "ingest.skipped": properties.get("ingest.skipped", 0),
        "ingest.split_s": stats.seconds("ingest.split"),
        "text.load_embeddings_s": stats.seconds("text.load_embeddings"),
        "text.build_document_us": stats.per_call_us("text.build_document"),
        "text.embed_us": stats.per_call_us("text.embed"),
        "text.pad_share": properties.get("text.pad_share", 0.0),
        "train.store_build_s": stats.seconds("train.store_build"),
        "train.store_entities": properties.get("train.store_entities", 0),
        "train.store_bytes": properties.get("train.store_bytes", 0),
        "train.fit_s": stats.seconds("train.fit"),
        "train.fit_self_s": stats.self_seconds("train.fit"),
        "train.validation_s": stats.seconds("train.evaluate", under="train.fit"),
        "train.evaluate_s": stats.seconds("train.evaluate", not_under="train.fit"),
        "train.evaluate_self_us": (
            stats.self_seconds("train.evaluate", not_under="train.fit") * 1e6
            / test_pairs if test_pairs else 0.0),
        "train.distinct_entity_share": properties.get("train.distinct_entity_share", 0.0),
        "train.cold_start_share": properties.get("train.cold_start_share", 0.0),
        "train.checkpoint_write_s": stats.seconds("train.checkpoint_write"),
        "train.checkpoint_load_s": stats.seconds("train.checkpoint_load"),
        "train.checkpoint_bytes": checkpoint.stat().st_size if checkpoint.exists() else 0,
    }
    for name in ("forward", "backward", "tower_fwd", "tower_bwd", "head_fwd", "head_bwd"):
        m[f"model.{name}_us"] = stats.per_call_us(f"model.{name}")
    for layer in LAYERS:
        m[f"layers.{layer}_fwd_us"] = stats.per_call_us(f"layers.{layer}_fwd")
        m[f"layers.{layer}_bwd_us"] = stats.per_call_us(f"layers.{layer}_bwd")
        m[f"layers.{layer}_calls"] = stats.calls(f"layers.{layer}_fwd")
    m.update({
        "optim.step_us": stats.per_call_us("optim.step"),
        "optim.steps": stats.calls("optim.step"),
        "baseline.matrix_s": stats.seconds("baseline.matrix"),
        "baseline.similarity_s": stats.seconds("baseline.similarity"),
        "baseline.evaluate_s": stats.seconds("baseline.evaluate"),
        "baseline.cf_share": properties.get("baseline.cf_share", 0.0),
        "gradcheck.loss_evals": stats.calls("gradcheck.loss_eval"),
        "gradcheck.loss_eval_us": stats.per_call_us("gradcheck.loss_eval"),
        "gradcheck.max_rel_error": properties.get("gradcheck.max_rel_error", 0.0),
        "trace.run_s": statistics.median(measurement.run_s),
        "trace.spans": stats.spans / stats.iterations,
    })
    return m


def per_layer_unit(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_one(args):
    from spans import SpanStats, Tracer, instrument
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = args.seed % INPUT_SEEDS
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR))
    try:
        inputs = workload.prepare(workdir, seed)
        reference = load_reference(args.workload, seed)
        tracer = Tracer() if args.trace else None
        undo = instrument(tracer) if tracer else None
        try:
            m = measure(workload, inputs, args.seconds, reference, tracer)
        finally:
            if undo:
                undo()
        if tracer:
            metrics = per_layer_metrics(SpanStats(tracer, len(m.outcomes)), m,
                                        workdir / "model.ckpt")
            units = {name: per_layer_unit(name) for name in metrics}
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
        else:
            metrics = end_to_end_metrics(m)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload,
        "trace": args.trace,
        "iterations": len(m.outcomes),
        "setups": len(m.setup_s),
        "environment": environment(args.seed, seed),
        "reference": bool(reference),
        "phases": {name: statistics.median(o.phases[name] for o in m.outcomes)
                   for name in m.outcomes[0].phases},
        "outputs": m.outcomes[0].outputs,
        "properties": m.properties,
        "failures": m.checks.failures[:10],
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": m.checks.failed == 0,
        "attempted": m.checks.attempted,
        "failed": m.checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in a fresh process (peak RSS is per process), as a table."""
    from workloads import WORKLOADS
    status = 0
    print(f"{'workload':<16} {'metric':<30} {'value':>14}  unit")
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<16} failed with exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        rows += [(k, v, "") for k, v in {**info["phases"], **info["outputs"]}.items()]
        for metric, value, unit in rows:
            print(f"{name:<16} {metric:<30} {value:>14.6g}  {unit}")
        print(f"{name:<16} {'checks failed/attempted':<30} "
              f"{result['failed']:>7}/{result['attempted']:<6}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None):
    if import_deepconn() is None:
        print(f"error: deepconn is not importable from {ROOT / 'src'}; "
              "run the benchmark from the root of a deepconn checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
