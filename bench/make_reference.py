#!/usr/bin/env python3
"""Record the per-seed outputs that the benchmark's checks compare against.

    python3 bench/make_reference.py --seeds 0-63

Run from the repository root.  Each (workload, seed) runs one iteration
and stores its test MSEs in bench/reference.json.  Re-record only in a
change that alters the benchmark itself, never in one that claims a gain.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import INPUT_SEEDS, WORK_DIR, import_deepconn

RECORDED = ("test_mse", "cf_test_mse")


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="train-cnn,train-lstm,evaluate-large")
    parser.add_argument("--seeds", type=seed_range, default=range(INPUT_SEEDS))
    args = parser.parse_args()
    if import_deepconn() is None:
        print("error: run from the root of a deepconn checkout", file=sys.stderr)
        return 2
    from checks import REFERENCE_FILE
    from workloads import WORKLOADS

    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    WORK_DIR.mkdir(exist_ok=True)
    for name in args.workloads.split(","):
        workload = WORKLOADS[name]
        for seed in args.seeds:
            workdir = Path(tempfile.mkdtemp(prefix=f"reference-{name}-", dir=WORK_DIR))
            try:
                inputs = workload.prepare(workdir, seed)
                outcome = workload.body(inputs, workload.setup(inputs))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            recorded = {k: outcome.outputs[k] for k in RECORDED if k in outcome.outputs}
            table.setdefault(name, {})[str(seed)] = recorded
            print(name, seed, recorded, flush=True)
    REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
