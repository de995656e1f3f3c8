"""Output checks: every run counts what it verified and what failed.

A run's `attempted` and `failed` are the totals of these checks, and
`check_pass_rate` is (attempted - failed) / attempted.
"""

import json
import math
from pathlib import Path

# Relative tolerance for test MSEs against the committed per-seed
# reference.  The same seed gives test MSEs that differ in the last digits
# between BLAS thread counts, so the comparison cannot be bit for bit.
REL_TOL = 1e-6

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


class Checks:
    """Tally of attempted output checks and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self):
        return len(self.failures)

    @property
    def pass_rate(self):
        return (self.attempted - self.failed) / self.attempted


def load_reference(workload, seed):
    """The committed outputs for (workload, seed), or {} if none were recorded."""
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed), {})


def check_mse(checks, name, value, reference, first=None):
    """Finite, equal to the seed's reference and to the run's first iteration."""
    finite = math.isfinite(value)
    checks.expect(finite, f"{name} is not finite: {value!r}")
    checks.expect(reference is not None, f"{name}: no committed reference")
    for label, expected in (("reference", reference), ("first iteration", first)):
        if expected is not None:
            checks.expect(finite and math.isclose(value, expected, rel_tol=REL_TOL),
                          f"{name} {value!r} differs from the {label} {expected!r}")


def check_beats_mean(checks, test_mse, mean_mse):
    checks.expect(test_mse < mean_mse,
                  f"test_mse {test_mse!r} is not below the global-mean "
                  f"predictor's {mean_mse!r}")


def check_same_bits(checks, name, expected, actual):
    """Predictions must match exactly: a checkpoint round trip is lossless."""
    same = len(expected) == len(actual) and all(
        a == b for a, b in zip(expected, actual))
    checks.expect(same, f"{name}: {actual!r} != {expected!r}")


def check_gradients(checks, results, threshold):
    for name, err in results:
        checks.expect(err < threshold,
                      f"gradient check {name}: max relative error {err!r} "
                      f"not below {threshold!r}")
