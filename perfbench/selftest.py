"""Self-tests of the benchmark's own mechanics.

Run from the repository root (takes a few minutes; two workers)::

    python3 perfbench/selftest.py

1. **Determinism.**  Two untraced runs with the same seed, each in its
   own interpreter (so string hashing differs), report identical
   deterministic end-to-end metrics; two traced runs report identical
   per-layer counts.
2. **Transparency.**  A traced and an untraced run with the same seed
   see identical cluster counters over the count window, so the wrappers
   change nothing the program counts.
3. **Attribution.**  A fixed delay injected through one layer's wrapper
   shows up in that layer's self time and in no other layer's, and the
   layers' self times add up to the traced operations' wall time.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

#: the seed every check runs with
SEED = 7
#: workloads checked, each briefly
WORKLOADS = ["hotdir", "nfs_create", "sync"]

#: end-to-end metrics derived from counters only
DETERMINISTIC = [
    "sim_ms_per_op",
    "rpcs_per_op",
    "disk_ios_per_op",
    "wire_bytes_per_user_byte",
    "space_amp",
]


def child(workload: str, trace: bool) -> None:
    """Run one workload briefly and print its counts as JSON."""
    from run import load_spec, measure

    run = measure(workload, SEED, seconds=1.0, trace=trace)
    spec = load_spec()
    e2e = run.end_to_end()
    out = {
        "failed": run.failed,
        "problems": run.problems,
        "window": {phase: dict(run.window[phase]) for phase in ("fg", "bg")},
        "window_ops": run.window_ops,
        "window_user_bytes": run.window_user_bytes,
        "window_rounds": run.window_rounds,
        "space": run.space,
        "deterministic": {name: e2e[name] for name in DETERMINISTIC},
    }
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        layer = run.per_layer(names)
        out["layer_counts"] = {
            m["name"]: layer[m["name"]]
            for m in spec["per_layer"]
            if m["unit"] != "ms" and m["name"] != "trace.overhead_ratio"
        }
    print(json.dumps(out))


def spawn(workload: str, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", workload, str(int(trace))],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_determinism() -> list[str]:
    failures = []
    jobs = [(w, trace) for w in WORKLOADS for trace in (False, False, True, True)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: spawn(*job), jobs))
    for index, workload in enumerate(WORKLOADS):
        plain_a, plain_b, traced_a, traced_b = results[4 * index : 4 * index + 4]
        for name, res in (("untraced", plain_a), ("traced", traced_a)):
            if res["failed"] or res["problems"]:
                failures.append(f"{workload} {name}: outputs wrong: {res['problems'][:2]}")
        if plain_a["deterministic"] != plain_b["deterministic"]:
            failures.append(
                f"{workload}: deterministic metrics differ between two runs: "
                f"{plain_a['deterministic']} vs {plain_b['deterministic']}"
            )
        if traced_a["layer_counts"] != traced_b["layer_counts"]:
            diff = {
                k: (v, traced_b["layer_counts"].get(k))
                for k, v in traced_a["layer_counts"].items()
                if traced_b["layer_counts"].get(k) != v
            }
            failures.append(f"{workload}: per-layer counts differ between two runs: {diff}")
        keys = ("window", "window_ops", "window_user_bytes", "window_rounds", "space", "deterministic")
        for key in keys:
            if plain_a[key] != traced_a[key]:
                failures.append(
                    f"{workload}: traced and untraced runs differ in {key}: "
                    f"{plain_a[key]} vs {traced_a[key]}"
                )
        print(f"determinism + transparency: {workload} checked", flush=True)
    return failures


def attribution_scenario(recorder) -> None:
    """A few traced ops on a small cluster: writes and reads on ``a``."""
    from repro.sim import FicusSystem
    from workloads import QUIET

    recorder.install()
    try:
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        fs = system.host("a").fs()
        fs.mkdir("/t")
        recorder.recording = True
        for i in range(20):
            recorder.begin_op()
            fs.write_file(f"/t/f{i}", bytes([i]) * 3000)
            recorder.begin_op()
            fs.read_file(f"/t/f{i}")
        recorder.recording = False
    finally:
        recorder.uninstall()


def check_attribution(layer: str = "storage", delay: float = 0.001) -> list[str]:
    from tracing import LAYERS, SpanRecorder

    failures = []
    base = SpanRecorder()
    attribution_scenario(base)
    slowed = SpanRecorder(delays={layer: delay})
    attribution_scenario(slowed)
    calls = slowed.calls["fg"]["BlockDevice.read_block"] + slowed.calls["fg"]["BlockDevice.write_block"]
    injected_ms = calls * delay * 1e3
    before, after = base.self_ms("fg"), slowed.self_ms("fg")
    gained = after[layer] - before[layer]
    if calls == 0 or not injected_ms <= gained <= injected_ms * 1.5 + 50:
        failures.append(
            f"attribution: {layer} self time grew {gained:.1f} ms for {injected_ms:.1f} ms injected"
        )
    for other in LAYERS:
        if other != layer and abs(after[other] - before[other]) > 0.1 * injected_ms:
            failures.append(
                f"attribution: {other} self time moved {after[other] - before[other]:.1f} ms "
                f"when {injected_ms:.1f} ms were injected into {layer}"
            )
    # self times add up: every root span's duration is covered exactly once
    for rec in (base, slowed):
        roots = sum(end - start for _op, parent, _l, _n, start, end in rec.spans if parent == -1)
        total = sum(rec.self_seconds["fg"].values())
        if abs(roots - total) > 1e-6 * max(1.0, roots):
            failures.append(f"attribution: self times sum to {total:.6f} s, root spans {roots:.6f} s")
    print(
        f"attribution: {injected_ms:.0f} ms injected into {layer}, "
        f"its self time grew {gained:.0f} ms",
        flush=True,
    )
    return failures


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        child(argv[1], argv[2] == "1")
        return 0
    failures = check_attribution()
    failures += check_determinism()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
