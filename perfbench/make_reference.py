"""Record `reference.json`: the post-fine-tune test accuracy of every
algorithm and the sha256 of the run artifacts, for every workload and every
data seed of its pool. Run it from the root of a checkout:

    python3 perfbench/make_reference.py [--workload NAME ...]

Named workloads are re-recorded and the others kept. Re-record only when a
change to fedme's numerics is intended and stated.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import workloads
from worker import REFERENCE_PATH, ROOT, Runner, _load_fedme


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    harness = _load_fedme()
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {"workloads": {}}
    out_dir = os.path.join(ROOT, ".perfbench_out", f"reference-{os.getpid()}")
    try:
        for name in args.workload or sorted(workloads.WORKLOADS):
            seeds = range(workloads.WORKLOADS[name].pool_size)
            runner = Runner(harness, name, seeds, out_dir, None)
            table = {}
            for seed in seeds:
                ex = runner.execute(seed)
                if ex["failed"]:
                    raise SystemExit(f"{name} seed {seed}: {ex['problems']}")
                table[str(seed)] = {"test_acc": ex["test_acc"],
                                    "sha256": ex["sha256"]}
                print(name, seed, ex["test_acc"], f"{ex['run_s']:.2f}s",
                      flush=True)
            reference["workloads"][name] = table
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
