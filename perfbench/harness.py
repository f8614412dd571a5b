"""Measurement plumbing shared by the workloads.

A :class:`Run` accumulates everything one benchmark invocation measures:
per-operation wall latencies, set-up and convergence times, and deltas of
the cluster's own counters (RPCs, wire bytes, device I/Os, cache hits,
daemon outcomes) split into foreground ("fg") work and background
convergence ("bg").  Counter metrics are taken over a fixed *count
window* — the same operations for the same seed — so they repeat exactly;
timing metrics cover every measured operation.
"""

from __future__ import annotations

import gc
import math
import resource
import signal
import statistics
import time
from collections import Counter
from contextlib import contextmanager

from repro.errors import FicusError

#: convergence passes after which a workload counts as not converging
MAX_CONVERGE_ROUNDS = 12


class _ProbeItem:
    __slots__ = ("key", "data")

    def __init__(self, key: int, data: bytes):
        self.key = key
        self.data = data


class SpeedClock:
    """Wall time normalized by the interpreter's measured speed.

    On a shared machine the interpreter's speed can drift by up to 1.7x
    within seconds, in wall and CPU time alike (measured on a 2-vCPU
    shared VM).  A timer signal
    interrupts the run every :data:`PERIOD` seconds and times a fixed
    pure-Python probe (~0.15 ms).  :meth:`now` advances by wall time
    times ``REFERENCE / probe``, using the median of the last three
    probes, so a reading is in seconds of an interpreter whose probe takes
    :data:`REFERENCE` seconds.  The probes' own time is left out.
    """

    #: probe duration that defines reference speed (seconds)
    REFERENCE = 150e-6
    #: seconds between probes (a probe costs under 0.5% of the run; a
    #: shorter period lands a probe inside more of the ~1 ms reads)
    PERIOD = 0.05

    def __init__(self):
        self.norm = 0.0
        self.seq = 0
        self.probes = [self._probe()] * 3
        self.scale = self.REFERENCE / self.probes[0]
        self.wall_mark = time.perf_counter()
        self._previous = None

    @staticmethod
    def _probe() -> float:
        # small objects, dict lookups, generator sums and bytes joins: the
        # simulator's own mix, so contention slows both alike.  The cyclic
        # collector is off during the probe: a collection it triggered
        # would scan the workload's heap, and its cost would follow the
        # heap rather than the machine
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        items = [_ProbeItem(i, b"x" * (i & 63)) for i in range(400)]
        index = {item.key: item for item in items}
        sum(len(index[i].data) for i in range(0, 400, 3))
        b"".join(item.data for item in items)
        elapsed = time.perf_counter() - start
        if enabled:
            gc.enable()
        return elapsed

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.norm += (start - self.wall_mark) * self.scale
        self.probes = self.probes[1:] + [self._probe()]
        self.scale = self.REFERENCE / sorted(self.probes)[1]
        self.wall_mark = time.perf_counter()
        self.seq += 1

    def now(self) -> float:
        while True:
            seq = self.seq
            value = self.norm + (time.perf_counter() - self.wall_mark) * self.scale
            if seq == self.seq:
                return value

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


def cluster_counters(system) -> Counter:
    """One snapshot of every counter the metrics are derived from."""
    net = system.network.stats
    c = Counter(
        clock_ms=system.clock.now() * 1e3,
        rpcs=net.rpcs_sent,
        rpcs_failed=net.rpcs_failed,
        datagrams=net.datagrams_sent,
        wire_bytes=sum(p.bytes_sent + p.bytes_received for p in net.per_peer.values()),
    )
    for host in system.hosts.values():
        c["dev_reads"] += host.device.counters.reads
        c["dev_writes"] += host.device.counters.writes
        c["dev_write_bytes"] += host.device.counters.writes * host.device.block_size
        c["buf_hits"] += host.ufs.cache.stats.hits
        c["buf_misses"] += host.ufs.cache.stats.misses
        c["name_hits"] += host.ufs.namecache.stats.hits
        c["name_misses"] += host.ufs.namecache.stats.misses
        attr = host.logical.attr_cache.stats
        c["attr_hits"] += attr.hits
        c["attr_misses"] += attr.misses
        c["attr_refreshes"] += attr.refreshes
        prop = host.propagation_daemon.stats
        c["pulls_attempted"] += prop.pulls_attempted
        c["pulls_succeeded"] += prop.pulls_succeeded
        c["bytes_copied"] += prop.bytes_copied
        c["bytes_saved"] += prop.bytes_saved
        for result in host.recon_daemon.stats.results:
            c["recon_dirs"] += result.directories_reconciled
            c["recon_pruned"] += result.subtrees_pruned
            c["bytes_copied"] += result.bytes_copied
            c["bytes_saved"] += result.bytes_saved
    return c


def replica_digests(system) -> list[str]:
    """The root subtree digest of every volume replica in the cluster."""
    return [
        store.subtree_digest(store.root_handle())
        for host in system.hosts.values()
        for store in host.physical.stores.values()
    ]


def space_usage(system) -> tuple[int, int]:
    """(device bytes in use, live user bytes) over every replica host."""
    device_bytes = 0
    live_bytes = 0
    for host in system.hosts.values():
        if not host.physical.stores:
            continue
        device_bytes += host.device.blocks_in_use * host.device.block_size
        for store in host.physical.stores.values():
            for dir_fh in store.all_directory_handles():
                for entry in store.read_entries(dir_fh):
                    fh = entry.fh.logical
                    if entry.live and store.has_file(dir_fh, fh):
                        live_bytes += store.file_vnode(dir_fh, fh).getattr().size
    return device_bytes, live_bytes


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


class Run:
    """Everything one invocation measures; see the module docstring.

    With ``recorder`` set (a traced run), foreground chunks alternate
    between traced and untraced — the untraced ones with the wrappers
    swapped out — so ``trace.overhead_ratio`` compares interleaved
    chunks of the same workload.  Convergence is always traced then.
    """

    def __init__(self, seconds: float, recorder=None, clock=time.perf_counter):
        self.seconds = seconds
        self.recorder = recorder
        #: every duration the run reports is a difference of this clock
        self.clock = clock
        self.latencies: dict[str, list[float]] = {"read": [], "write": [], "other": []}
        self.attempted = 0
        self.failed = 0
        #: oracle violations, each a one-line description
        self.problems: list[str] = []
        self.setup_seconds: list[float] = []
        self.converge_seconds: list[float] = []
        #: wall time of every measured segment, foreground and background
        self.measured_seconds = 0.0
        self.chunks = 0
        self.traced = False
        #: foreground [ops, seconds], keyed by whether spans were recorded
        self.fg = {True: [0, 0.0], False: [0, 0.0]}
        self.traced_rounds = 0
        # the count window: operations fixed per seed, opened and closed
        # by the workload
        self.in_window = False
        self.window = {"fg": Counter(), "bg": Counter()}
        self.window_ops = 0
        self.window_traced_ops = 0
        self.window_user_bytes = 0
        self.window_rounds = 0
        self.window_calls = {"fg": Counter(), "bg": Counter()}
        self._calls_at_open: dict[str, dict[str, int]] = {}
        self.space: tuple[int, int] | None = None

    # -- set-up ------------------------------------------------------------------

    def setup(self, build):
        """Time one set-up; returns what ``build`` returns."""
        start = self.clock()
        built = build()
        self.setup_seconds.append(self.clock() - start)
        return built

    # -- measured work ---------------------------------------------------------------

    def begin_chunk(self) -> None:
        """Start a chunk of foreground work.  In a traced run half the
        chunks record spans, in the order traced, untraced, untraced,
        traced, so a cost that drifts along the run (directories that
        grow) weighs the same on both sides."""
        self.traced = self.recorder is not None and self.chunks % 4 in (0, 3)
        self.chunks += 1

    @contextmanager
    def segment(self, system, phase: str):
        """A measured stretch of foreground ops ("fg") or convergence ("bg")."""
        rec = self.recorder
        traced = rec is not None and (phase == "bg" or self.traced)
        if rec is not None:
            if traced:
                rec.resume()
            else:
                rec.suspend()
            rec.phase = phase
        before = cluster_counters(system)
        ops_before = self.attempted
        if rec is not None:
            rec.recording = traced
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            if rec is not None:
                rec.recording = False
            delta = cluster_counters(system)
            delta.subtract(before)
            self.measured_seconds += elapsed
            ops = self.attempted - ops_before
            if phase == "fg":
                self.fg[traced][0] += ops
                self.fg[traced][1] += elapsed
            if self.in_window:
                self.window[phase].update(delta)
                if phase == "fg":
                    self.window_ops += ops
                    self.window_traced_ops += ops if traced else 0

    def op(self, kind: str, fn, *args) -> tuple[bool, object]:
        """One closed-loop operation: timed, counted, failures caught.

        Returns ``(ok, result)``; ``kind`` is "read", "write" or "other"
        and picks the latency series the sample joins.
        """
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.begin_op()
        start = self.clock()
        try:
            result = fn(*args)
        except FicusError as exc:
            self.failed += 1
            self.problem(f"{kind} op failed: {type(exc).__name__}: {exc}")
            return False, None
        self.latencies[kind].append(self.clock() - start)
        return True, result

    def check_read(self, fs, path: str, expected: bytes) -> None:
        """An untimed oracle read: counts as attempted, and as failed
        when it raises or returns other bytes than ``expected``."""
        self.attempted += 1
        try:
            data = fs.read_file(path)
        except FicusError as exc:
            self.wrong(f"read {path} on {fs.logical.host_addr}: {type(exc).__name__}: {exc}")
            return
        if data != expected:
            self.wrong(f"read {path} on {fs.logical.host_addr}: wrong bytes")

    def wrote(self, nbytes: int) -> None:
        if self.in_window:
            self.window_user_bytes += nbytes

    def wrong(self, message: str) -> None:
        """An op completed but returned the wrong answer."""
        self.failed += 1
        self.problem(message)

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def converge(self, system, client: str, propagate: bool = True) -> int:
        """Tick the daemons until every replica's subtree digest agrees.

        One pass ticks the propagation daemon of every host but the
        client (unless ``propagate`` is false), then the reconciliation
        daemon of every host.  The time of the ticks is one
        ``converge_s`` sample; the digest checks between passes are not
        timed.  Returns the number of passes.
        """
        hosts = list(system.hosts.values())
        rounds = 0
        seconds = 0.0
        while len(set(replica_digests(system))) > 1:
            if rounds == MAX_CONVERGE_ROUNDS:
                self.wrong(f"replicas still differ after {rounds} convergence rounds")
                break
            if self.recorder is not None:
                self.recorder.begin_op()
            with self.segment(system, "bg"):
                start = self.clock()
                if propagate:
                    for host in hosts:
                        if host.name != client:
                            host.propagation_daemon.tick()
                for host in hosts:
                    host.recon_daemon.tick()
                seconds += self.clock() - start
            rounds += 1
        self.converge_seconds.append(seconds)
        if self.recorder is not None:
            self.traced_rounds += rounds
        if self.in_window:
            self.window_rounds += rounds
        return rounds

    def open_window(self) -> None:
        """Count what follows into the count window."""
        self.in_window = True
        if self.recorder is not None:
            self._calls_at_open = {phase: self.recorder.counts(phase) for phase in ("fg", "bg")}

    def close_window(self, system) -> None:
        """Stop counting into the window; the first close records space use."""
        self.in_window = False
        if self.space is None:
            self.space = space_usage(system)
        if self.recorder is not None:
            for phase, calls in self.window_calls.items():
                calls.update(self.recorder.counts(phase))
                calls.subtract(self._calls_at_open[phase])

    # -- metrics -------------------------------------------------------------------------

    def window_total(self) -> Counter:
        """The count window's counters, foreground plus convergence."""
        total = Counter(self.window["fg"])
        total.update(self.window["bg"])
        return total

    def end_to_end(self) -> dict[str, float]:
        total = self.window_total()
        ops = max(1, self.window_ops)
        fg_ops, fg_seconds = self.fg[False]
        out = {
            "ops_per_s": fg_ops / fg_seconds if fg_seconds else 0.0,
            "sim_ms_per_op": total["clock_ms"] / ops,
            "rpcs_per_op": total["rpcs"] / ops,
            "disk_ios_per_op": (total["dev_reads"] + total["dev_writes"]) / ops,
            "wire_bytes_per_user_byte": total["wire_bytes"] / max(1, self.window_user_bytes),
            "space_amp": self.space[0] / max(1, self.space[1]) if self.space else 0.0,
            "converge_s": statistics.median(self.converge_seconds) if self.converge_seconds else 0.0,
            "setup_s": statistics.median(self.setup_seconds) if self.setup_seconds else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for kind in ("read", "write"):
            samples = self.latencies[kind]
            for q in (50, 95, 99):
                out[f"{kind}_p{q}_us"] = percentile(samples, q) * 1e6 if samples else 0.0
        return out

    def per_layer(self, names: list[str]) -> dict[str, float]:
        """Per-layer metrics of a traced run; ``names`` are the metrics
        listed, of which the ``nfs.calls.<op>`` ones are derived here.

        Counts from the cluster's counters cover the count window,
        foreground plus convergence, per foreground op of the window;
        counts of wrapped calls are per traced foreground op of the
        window; self times are per traced op (or convergence pass) of
        the run.
        """
        rec = self.recorder
        total, bg = self.window_total(), self.window["bg"]
        ops = max(1, self.window_ops)
        rounds = max(1, self.window_rounds)
        calls = self.window_calls["fg"]
        bg_calls = self.window_calls["bg"]
        per_call_op = 1 / max(1, self.window_traced_ops)
        traced_ops, traced_seconds = self.fg[True]
        untraced_ops, untraced_seconds = self.fg[False]
        per_traced_op = 1 / max(1, traced_ops)
        fg_ms = rec.self_ms("fg")
        bg_ms = rec.self_ms("bg")
        all_bg = rec.calls["bg"]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "logical.self_ms_per_op": fg_ms["logical"] * per_traced_op,
            "logical.attr_cache_hit_ratio": ratio(
                total["attr_hits"], total["attr_hits"] + total["attr_misses"]
            ),
            "logical.attr_refreshes_per_op": total["attr_refreshes"] / ops,
            "logical.notify_updates_per_op": calls["FicusLogicalLayer.notify_update"] * per_call_op,
            "physical.self_ms_per_op": fg_ms["physical"] * per_traced_op,
            "physical.getattrs_batch_per_op": calls["PhysicalDirVnode.getattrs_batch"] * per_call_op,
            "physical.batch_entries_per_op": calls["physical.batch_entries"] * per_call_op,
            "physical.aux_reads_per_op": calls["ReplicaStore.read_file_aux"] * per_call_op,
            "physical.entry_decodes_per_op": calls["decode_directory"] * per_call_op,
            "physical.wire_ms_per_op": fg_ms["wire"] * per_traced_op,
            "nfs.self_ms_per_op": fg_ms["nfs"] * per_traced_op,
            "nfs.calls_per_op": calls["NfsClientLayer.call"] * per_call_op,
            "nfs.retries_per_op": (calls["nfs.rpc_attempts"] - calls["NfsClientLayer.call"])
            * per_call_op,
            "net.self_ms_per_op": fg_ms["net"] * per_traced_op,
            "net.rpcs_per_op": total["rpcs"] / ops,
            "net.bytes_per_op": total["wire_bytes"] / ops,
            "net.datagrams_per_op": total["datagrams"] / ops,
            "net.rpcs_failed": total["rpcs_failed"],
            "ufs.self_ms_per_op": fg_ms["ufs"] * per_traced_op,
            "ufs.buffer_hit_ratio": ratio(total["buf_hits"], total["buf_hits"] + total["buf_misses"]),
            "ufs.name_hit_ratio": ratio(total["name_hits"], total["name_hits"] + total["name_misses"]),
            "storage.self_ms_per_op": fg_ms["storage"] * per_traced_op,
            "storage.reads_per_op": total["dev_reads"] / ops,
            "storage.writes_per_op": total["dev_writes"] / ops,
            "storage.bytes_written_per_user_byte": total["dev_write_bytes"]
            / max(1, self.window_user_bytes),
            "recon.self_ms_per_round": ratio(bg_ms["recon"], self.traced_rounds),
            "recon.dirs_reconciled_per_round": bg["recon_dirs"] / rounds,
            "recon.subtrees_pruned_per_round": bg["recon_pruned"] / rounds,
            "recon.pulls_per_round": bg_calls["pull_file"] / rounds,
            "recon.delta_saved_ratio": ratio(
                bg["bytes_saved"], bg["bytes_saved"] + bg["bytes_copied"]
            ),
            "sim.prop_tick_ms": ratio(
                rec.label_seconds["PropagationDaemon.tick"] * 1e3, all_bg["PropagationDaemon.tick"]
            ),
            "sim.recon_tick_ms": ratio(
                rec.label_seconds["ReconciliationDaemon.tick"] * 1e3,
                all_bg["ReconciliationDaemon.tick"],
            ),
            "sim.pull_success_ratio": ratio(bg["pulls_succeeded"], bg["pulls_attempted"]),
            "telemetry.self_ms_per_op": fg_ms["telemetry"] * per_traced_op,
            "core.self_ms_per_op": fg_ms["core"] * per_traced_op,
            "trace.overhead_ratio": ratio(
                ratio(traced_ops, traced_seconds), ratio(untraced_ops, untraced_seconds)
            ),
        }
        for name in names:
            if name.startswith("nfs.calls."):
                out[name] = calls[name] * per_call_op
        return out
