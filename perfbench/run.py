"""Benchmark runner for toricgb.

Run from the repository root:

    python3 perfbench/run.py --workload fan-segre33 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One process runs one workload as a closed loop on a single thread: each
pass, and within a pass each job, starts when the previous one ends.
Passes repeat until --seconds have gone by (at least one pass; the last
may overrun by about half a pass).  Times are read from a SpeedClock
(see clock.py): the bounded metrics are in reference seconds, corrected
for the drifting speed of a shared host, and the wall-clock readings
are printed beside them as wall.* extras.  Every answer is checked.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print the
same metrics, and a few unbounded extras, by name and unit.

--trace 0 reports the end-to-end metrics.  --trace 1 makes one pass
untraced, then wraps every traced toricgb function (see tracer.py),
builds the inputs once more and makes one traced pass; it reports the
per-layer metrics of that set-up and pass, with the traced and untraced
pass times, and writes the spans to perfbench/out/.

The exit code is 0 when every answer was right, 1 when one was wrong,
and 2 when the toricgb sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from clock import SpeedClock  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Record  # noqa: E402

# Set-up rounds repeat until SETUP_SECONDS of wall time have gone by, and
# at least SETUP_MIN_ROUNDS times; setup_s is their median.
SETUP_SECONDS = 2.0
SETUP_MIN_ROUNDS = 9
MODULES = ("errors", "exactmath", "orders", "buchberger", "toric", "fan", "ip", "cli")


def import_toricgb():
    """Import every toricgb module afresh from ./src; returns them by name."""
    for name in [k for k in sys.modules if k == "toricgb" or k.startswith("toricgb.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"toricgb.{m}") for m in MODULES}
    return argparse.Namespace(**mods)


def setup(workload, seed, clock):
    """Untimed reference work, then timed import-and-build rounds.

    Returns ((median reference seconds, median wall seconds), modules,
    plain inputs, built inputs).
    """
    tg = import_toricgb()
    spec = workload.prepare(tg, random.Random(seed))
    ref, wall = [], []
    t_end = clock.now() + SETUP_SECONDS
    while len(ref) < SETUP_MIN_ROUNDS or clock.now() < t_end:
        gc.collect()  # untimed: each round starts from the same heap
        r0, w0 = clock.ref(), clock.now()
        tg = import_toricgb()
        inputs = workload.build(tg, spec)
        w1 = clock.now()
        ref.append(clock.ref() - r0)
        wall.append(w1 - w0)
    return (statistics.median(ref), statistics.median(wall)), tg, spec, inputs


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending, non-empty list."""
    rank = -(-len(sorted_values) * q // 100)  # ceil(n * q / 100)
    return sorted_values[max(rank, 1) - 1]


def timed_pass(workload, tg, inputs, record, clock):
    """One pass; returns its (reference seconds, wall seconds)."""
    gc.collect()  # untimed: the last pass's garbage is not charged to this one
    r0, w0 = clock.ref(), clock.now()
    workload.run_pass(tg, inputs, record)
    w1 = clock.now()
    return clock.ref() - r0, w1 - w0


def measure(workload, tg, inputs, seconds, record, clock):
    """Passes until --seconds are used up; the last may overrun by half a pass."""
    passes = []
    t_end = clock.now() + seconds
    while True:
        passes.append(timed_pass(workload, tg, inputs, record, clock))
        if clock.now() + passes[-1][1] / 2 > t_end:
            return passes


def end_to_end(setup, passes, record, clock):
    done = sum(len(v) for v in record.latency.values())
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref = [r for r, _ in passes]
    wall = [w for _, w in passes]
    metrics = {
        "setup_s": (setup[0], "s"),
        "pass_s": (statistics.median(ref), "s"),
        "jobs_per_s": (done / sum(ref), "1/s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }
    extras = {"passes": (len(passes), "count"),
              "pass_s.min": (min(ref), "s"),
              "pass_s.max": (max(ref), "s"),
              "wall.setup_s": (setup[1], "s"),
              "wall.pass_s": (statistics.median(wall), "s"),
              "calibration.loop_ms.p50": (
                  1000 * statistics.median(clock.loops), f"ms(n={len(clock.loops)})"),
              "failed_frac": (record.failed / record.attempted, "frac")}
    for kind, values in sorted(record.latency.items()):
        if kind == "pass":
            continue
        values = sorted(values)
        n = len(values)
        extras[f"{kind}_ms.p50"] = (1000 * percentile(values, 50), f"ms(n={n})")
        # the highest percentile with at least ten samples beyond it
        if n >= 100:
            extras[f"{kind}_ms.p90"] = (1000 * percentile(values, 90), f"ms(n={n})")
    return metrics, extras


def traced(workload, tg, spec, inputs, record, seed, clock):
    untraced_s, _ = timed_pass(workload, tg, inputs, record, clock)
    tracer = Tracer(now=clock.now)
    record.span = tracer.root
    uninstall = tracer.install()
    try:
        with tracer.root("setup"):
            inputs = workload.build(tg, spec)
        gc.collect()
        r0 = clock.ref()
        with tracer.root("pass"):
            workload.run_pass(tg, inputs, record)
        traced_s = clock.ref() - r0
    finally:
        uninstall()
    tracer.write(OUT / f"{workload.name}-seed{seed}.spans.tsv.gz")
    metrics = layer_metrics(tracer)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "frac")
    return metrics, {"spans": (len(tracer.name), "count")}


def run_one(args):
    if not (SRC / "toricgb" / "__init__.py").is_file():
        sys.stderr.write(f"error: toricgb sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](str(OUT))
    with SpeedClock() as clock:
        record = Record(clock.now)
        setup_s, tg, spec, inputs = setup(workload, args.seed, clock)
        if args.trace:
            metrics, extras = traced(workload, tg, spec, inputs, record, args.seed, clock)
        else:
            passes = measure(workload, tg, inputs, args.seconds, record, clock)
            metrics, extras = end_to_end(setup_s, passes, record, clock)
    for name, (value, unit) in list(metrics.items()) + list(extras.items()):
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for line in record.wrong[:20]:
        print(f"WRONG {line}")
    result = {
        "correct": not record.wrong,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own process; a combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode == 2:
            return 2
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined), flush=True)
    return code


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
