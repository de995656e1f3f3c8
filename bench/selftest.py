#!/usr/bin/env python3
"""Self-test of the benchmark: its output checks must be able to fail.

    python3 bench/selftest.py

Run from the repository root.  A missing reference, a perturbed test MSE,
a NaN test MSE and gradients above the gradcheck threshold must each raise
the failed-check count of a real measurement loop, while the untouched
loop fails nothing.
It also checks that the metric names the benchmark emits are the ones
BENCHMARK.json declares.  Exits 0 when every expectation holds.
"""

import json
import math
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

from run import (END_TO_END, ROOT, WORK_DIR, end_to_end_metrics, import_deepconn,
                 measure, per_layer_metrics, per_layer_unit)

ONE_ITERATION = 0.0   # a zero time budget makes measure() run one iteration

# A train-cnn miniature: the same code path, small enough to run in seconds.
SMALL = dict(tower="cnn", head="dp", optimizer="adam", n_reviews=120, n_users=12,
             n_items=10, epochs=1, beats_mean=False)


def main():
    if import_deepconn() is None:
        print("error: run from the root of a deepconn checkout", file=sys.stderr)
        return 2
    from deepconn import gradcheck, train
    from spans import SpanStats, Tracer, instrument
    from workloads import GradcheckWorkload, TrainWorkload

    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_DIR))
    evaluate = train.evaluate
    standard_checks = gradcheck.standard_checks
    try:
        workload = TrainWorkload(**SMALL)
        inputs = workload.prepare(workdir, seed=3)
        m = measure(workload, inputs, ONE_ITERATION, {})
        expect(m.checks.failed == 1,
               f"no reference: {m.checks.failed} of {m.checks.attempted} checks failed")
        reference = {"test_mse": m.outcomes[0].outputs["test_mse"]}

        checks = measure(workload, inputs, ONE_ITERATION, reference).checks
        expect(checks.attempted > 0 and checks.failed == 0,
               f"untouched run: {checks.failed} of {checks.attempted} checks failed")

        for label, perturb in (("test_mse off by 1e-4", lambda mse: mse * (1 + 1e-4)),
                               ("test_mse NaN", lambda mse: math.nan)):
            def perturbed(*args, _perturb=perturb, **kwargs):
                mse, counters = evaluate(*args, **kwargs)
                return _perturb(mse), counters
            train.evaluate = perturbed
            try:
                checks = measure(workload, inputs, ONE_ITERATION, reference).checks
            finally:
                train.evaluate = evaluate
            expect(checks.failed > 0 and checks.pass_rate < 1.0,
                   f"{label}: {checks.failed} of {checks.attempted} checks failed")

        gradcheck.standard_checks = partial(standard_checks, corrupt=True)
        try:
            checks = measure(GradcheckWorkload(), inputs, ONE_ITERATION, {}).checks
        finally:
            gradcheck.standard_checks = standard_checks
        expect(checks.failed == len(gradcheck.STANDARD_CASES),
               f"corrupted gradients: {checks.failed} of {checks.attempted} "
               "checks failed")

        m = measure(workload, inputs, ONE_ITERATION, reference)
        names = set(end_to_end_metrics(m))
        expect(names == {name for name, _ in END_TO_END}
               and set(END_TO_END) == {(d["name"], d["unit"])
                                       for d in declared["end_to_end"]},
               "end-to-end metric names and units match BENCHMARK.json")

        tracer = Tracer()
        undo = instrument(tracer)
        try:
            m = measure(workload, inputs, ONE_ITERATION, reference, tracer)
        finally:
            undo()
        names = per_layer_metrics(SpanStats(tracer, len(m.outcomes)), m,
                                  workdir / "model.ckpt")
        expect({(name, per_layer_unit(name)) for name in names}
               == {(d["name"], d["unit"]) for d in declared["per_layer"]},
               "per-layer metric names and units match BENCHMARK.json")
        expect(not hasattr(train.fit, "__wrapped__"),
               "instrumentation is undone after a traced run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} self-test expectations failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
