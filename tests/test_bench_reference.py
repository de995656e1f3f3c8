"""The benchmark's training workloads, run through bench/workloads.py's own
prepare/setup/body at input seed 0, reproduce the test MSEs committed in
bench/reference.json, and pass the workload's own `verify`: a change that
moves the numbers, or removes a call the checks make, fails here, not
only in the benchmark.  The gradcheck workload runs the same way once.
The test only reads bench/."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# The checks each workload's `verify` makes: the test MSE's three, the
# checkpoint reload through `DeepConn.predict` and the store's one-pair
# `user_embedding`/`item_embedding`, and on train-cnn the beats-mean check.
VERIFY_CHECKS = {"train-lstm": 4, "train-cnn": 5}


@pytest.fixture(scope="module")
def bench():
    """bench/checks.py and bench/workloads.py, imported the way bench/run.py
    imports them (workloads imports checks by its bare name), leaving no
    bytecode cache behind in bench/."""
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import checks
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = write_bytecode
    return checks, workloads


@pytest.mark.parametrize("name", ["train-lstm", "train-cnn"])
def test_train_workload_matches_reference_mse(name, bench, tmp_path):
    checks, workloads = bench
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(tmp_path, 0)
    state = workload.setup(inputs)
    outcome = workload.body(inputs, state)
    reference = checks.load_reference(name, 0)
    tally = checks.Checks()
    checks.check_mse(tally, "test_mse", outcome.outputs["test_mse"],
                     reference.get("test_mse"))
    assert tally.attempted == 3
    assert tally.failures == []
    verified = checks.Checks()
    workload.verify(inputs, state, outcome, verified, reference, None)
    assert verified.attempted == VERIFY_CHECKS[name]
    assert verified.failures == []


def test_gradcheck_workload_runs_the_battery(bench, tmp_path):
    """The `gradcheck` workload builds the battery's cases through their
    `build(rng) -> (loss_fn, params)` interface to count loss evaluations,
    then runs `standard_checks`; each of the 11 cases must pass its check."""
    checks, workloads = bench
    workload = workloads.WORKLOADS["gradcheck"]
    inputs = workload.prepare(tmp_path, 0)
    state = workload.setup(inputs)
    assert state["loss_evals"] == 3365
    outcome = workload.body(inputs, state)
    verified = checks.Checks()
    workload.verify(inputs, state, outcome, verified,
                    checks.load_reference("gradcheck", 0), None)
    assert verified.attempted == 11
    assert verified.failures == []
