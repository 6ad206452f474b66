"""Check that the per-layer counts repeat exactly between two traced runs.

Run from the repository root:

    python3 perfbench/selftest.py [--seed N] [workload ...]

Runs ``run.py --trace 1`` twice for each workload (default: all) and
compares every metric whose unit is ``count`` or ``frac``.  Times, and
the ``trace.*`` ratio of two times, are not compared.  A claim resting on a count is only sound when the count
repeats, so the exit code is 1 when any differs (or a run fails) and 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "frac") and not k.startswith("trace.")}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("workloads", nargs="*", help=", ".join(WORKLOADS))
    args = p.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        p.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    ok = True
    for name in args.workloads or WORKLOADS:
        first = traced_counts(name, args.seed)
        second = traced_counts(name, args.seed)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        print(f"{name}: {len(first)} counts, {len(diff)} differ")
        for k, (a, b) in sorted(diff.items()):
            print(f"  {k}: {a} != {b}")
        ok &= not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
