"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hotdir --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps each layer's entry points (see ``tracing.py``) and
prints the per-layer table instead.  Metric names, units and the
workload list come from ``BENCHMARK.json`` at the repository root.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 when every output was correct, 1 when an oracle
failed, and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_args(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns the finished :class:`harness.Run`."""
    from harness import Run, SpeedClock
    from tracing import SpanRecorder
    from workloads import WORKLOADS

    if trace:
        # raw wall time: a probe firing inside a span would land in
        # whichever layer it interrupted
        run = Run(seconds, recorder=SpanRecorder())
        # before any cluster is built: NFS servers bind their handlers
        run.recorder.install()
        run.recorder.suspend()
        try:
            WORKLOADS[workload](seed).run(run)
        finally:
            run.recorder.uninstall()
        return run
    speed = SpeedClock()
    run = Run(seconds, clock=speed.now)
    speed.start()
    try:
        WORKLOADS[workload](seed).run(run)
    finally:
        speed.stop()
    return run


def report(run, spec: dict, trace: bool) -> dict:
    """The result object: every metric ``BENCHMARK.json`` lists for the mode."""
    listed = spec["per_layer" if trace else "end_to_end"]
    values = run.per_layer([entry["name"] for entry in listed]) if trace else run.end_to_end()
    metrics = {}
    for entry in listed:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def print_table(run, result: dict, workload: str, trace: bool) -> None:
    print(f"workload {workload} ({'traced' if trace else 'untraced'}): one client, closed loop")
    lat = run.latencies
    print(
        f"  samples: {len(lat['read'])} reads, {len(lat['write'])} writes, "
        f"{len(lat['other'])} other; {len(run.setup_seconds)} set-ups, "
        f"{len(run.converge_seconds)} convergence episodes; "
        f"count window {run.window_ops} ops, {run.window_rounds} convergence rounds"
    )
    ops = max(1, run.window_ops)
    fg, bg = run.window["fg"], run.window["bg"]
    print(
        "  per window op, foreground + convergence: "
        f"rpcs {fg['rpcs'] / ops:.4g} + {bg['rpcs'] / ops:.4g}, "
        f"disk ios {(fg['dev_reads'] + fg['dev_writes']) / ops:.4g} + "
        f"{(bg['dev_reads'] + bg['dev_writes']) / ops:.4g}, "
        f"sim ms {fg['clock_ms'] / ops:.4g} + {bg['clock_ms'] / ops:.4g}"
    )
    fail_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  fail_rate {fail_rate:.6f} ({run.failed} of {run.attempted} ops failed or wrong)")
    for problem in run.problems:
        print(f"  PROBLEM: {problem}")
    width = max(len(name) for name in result["metrics"])
    for name, metric in result["metrics"].items():
        print(f"  {name:<{width}}  {metric['value']:>14.6g}  {metric['unit']}")
    if not trace:
        # p99 rests on fewer than ten samples beyond it in most runs, so
        # it is shown here but not reported as a bounded metric
        values = run.end_to_end()
        for kind in ("read", "write"):
            beyond = len(lat[kind]) - math.ceil(0.99 * len(lat[kind]))
            print(f"  {kind}_p99_us {values[f'{kind}_p99_us']:.6g} us ({beyond} samples beyond)")


def main(argv: list[str]) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program under test is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(run, spec, bool(args.trace))
    print_table(run, result, args.workload, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
