"""The three benchmark workloads, driven through the public API only.

Every workload is one synchronous client in a closed loop on a 3-host
cluster whose daemons are quiet (no periodic ticks): the loop issues an
operation, waits for it, checks the answer, and issues the next.  Where
a workload lets replicas diverge, it then ticks the daemons itself until
every replica's subtree digest agrees.  All inputs come from ``seed``.

* ``hotdir``   — Zipf-skewed read/write loop over one 256-file directory
                 on ``a`` (the working set fits the buffer cache).
* ``nfs_create`` — the client ``c`` holds no replica and creates 512
                 files across 16 directories over the NFS hop.
* ``sync``     — bursts of small edits and namespace changes on ``a``,
                 each followed by propagation and reconciliation.
"""

from __future__ import annotations

import gc
import random
import string

from harness import MAX_CONVERGE_ROUNDS, replica_digests
from repro.physical.check import ficus_fsck
from repro.physical.wire import EntryType
from repro.sim import DaemonConfig, FicusSystem

HOSTS = ["a", "b", "c"]
QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


def store_tree(store) -> dict[str, tuple[bytes, str]]:
    """path -> (contents, encoded version vector) of every stored file,
    read at the store level so a stale replica cannot hide behind the
    logical layer's remote-read fallback."""
    out: dict[str, tuple[bytes, str]] = {}
    pending = [("", store.root_handle())]
    while pending:
        prefix, dir_fh = pending.pop()
        for entry in store.read_entries(dir_fh):
            if not entry.live:
                continue
            path = f"{prefix}/{entry.name}"
            if entry.etype == EntryType.DIRECTORY:
                pending.append((path, entry.fh))
            elif entry.etype == EntryType.FILE and store.has_file(dir_fh, entry.fh):
                aux = store.read_file_aux(dir_fh, entry.fh)
                out[path] = (store.file_vnode(dir_fh, entry.fh).read_all(), aux.vv.encode())
    return out


def check_replicas(run, system, model: dict[str, bytes], fsck: bool) -> None:
    """Every replica stores exactly ``model``, with identical version
    vectors everywhere; optionally ficus-fsck every replica and require
    zero conflicts."""
    trees = []
    for host in system.hosts.values():
        for store in host.physical.stores.values():
            if fsck:
                report = ficus_fsck(store, host.conflict_log)
                if not report.clean:
                    run.problem(f"fsck on {host.name}: {report.problems[:3]}")
                    run.failed += 1
            trees.append((host.name, store_tree(store)))
    first_host, first = trees[0]
    for host, tree in trees[1:]:
        if tree != first:
            differing = sorted(set(tree.items()) ^ set(first.items()))[:1]
            run.problem(f"replica on {host} differs from {first_host}: {differing[0][0]}")
            run.failed += 1
    contents = {path: data for path, (data, _vv) in first.items()}
    if contents != model:
        missing = sorted(set(model) ^ set(contents))[:3]
        run.problem(f"replicas disagree with the client's writes (e.g. {missing})")
        run.failed += 1
    if fsck and system.total_conflicts():
        run.problem(f"{system.total_conflicts()} unresolved conflicts")
        run.failed += 1


def zipf_ranks(items: int, draws: int, s: float) -> list[int]:
    """``draws`` ranks in ``range(items)`` whose counts follow Zipf(s)
    as closely as whole numbers allow (largest remainders round up)."""
    weights = [1 / (rank + 1) ** s for rank in range(items)]
    total = sum(weights)
    exact = [draws * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(items), key=lambda r: counts[r] - exact[r])
    for rank in by_remainder[: draws - sum(counts)]:
        counts[rank] += 1
    return [rank for rank in range(items) for _ in range(counts[rank])]


def settle(system) -> None:
    """Set-up convergence: reconciliation passes until the replicas
    agree, then drop the new-version notes reconciliation made moot (one
    propagation tick over 257 such notes takes about 30 s), so the
    measured loop starts from agreeing replicas and empty note caches."""
    for _ in range(MAX_CONVERGE_ROUNDS):
        if len(set(replica_digests(system))) == 1:
            break
        for host in system.hosts.values():
            host.recon_daemon.tick()
    else:
        raise RuntimeError("set-up replicas did not converge")
    for host in system.hosts.values():
        for note in host.physical.pending_new_versions():
            host.physical.clear_new_version(note.key)


#: set-ups per measured cluster; ``setup_s`` is the median over all
#: set-ups of a run, and the loop measures on the last of each group.
#: Set-up is over half of a hotdir run's wall time, so more would
#: strain the run budget
SETUPS = 2


def set_up(run, build, times: int = SETUPS):
    """Build the cluster ``times`` times, timing each, and return the
    last; each earlier one is dropped before the next is built, so one
    cluster is alive at a time."""
    state = None
    for _ in range(times):
        state = None
        gc.collect()
        state = run.setup(build)
    gc.collect()
    return state


class HotDir:
    """70/30 read/write of whole 4 KiB files in one 256-entry directory.

    Each 256-op chunk holds the Zipf(1.2) rank frequencies exactly, over
    a seeded permutation of the files, in seeded order; the 256 x 4 KiB =
    1 MiB working set fits the 512-block (2 MiB) buffer cache.  After
    every chunk the daemons converge the three replicas.
    """

    name = "hotdir"
    files = 256
    file_size = 4096
    read_share = 0.7
    zipf_s = 1.2
    chunk = 256
    window_chunks = 4

    def __init__(self, seed: int):
        self.seed = seed

    def run(self, run) -> None:
        state = set_up(run, lambda: self.build(random.Random(self.seed)))
        self.measure(run, state, random.Random(self.seed))

    def build(self, rng):
        system = FicusSystem(HOSTS, daemon_config=QUIET)
        fs = system.host("a").fs()
        fs.mkdir("/hot")
        model = {}
        for i in range(self.files):
            path = f"/hot/f{i:03d}"
            model[path] = rng.randbytes(self.file_size)
            fs.write_file(path, model[path])
        settle(system)
        return system, fs, model

    def measure(self, run, state, rng):
        system, fs, model = state
        paths = sorted(model)
        rng.shuffle(paths)
        reads = round(self.chunk * self.read_share)
        # every chunk holds exactly the Zipf frequencies of its reads and
        # of its writes; the seed picks which file has which rank and the
        # order of the ops
        ops = [("read", paths[rank]) for rank in zipf_ranks(len(paths), reads, self.zipf_s)]
        ops += [
            ("write", paths[rank])
            for rank in zipf_ranks(len(paths), self.chunk - reads, self.zipf_s)
        ]
        chunks = 0
        run.open_window()
        while chunks < self.window_chunks or run.measured_seconds < run.seconds:
            rng.shuffle(ops)
            run.begin_chunk()
            with run.segment(system, "fg"):
                for kind, path in ops:
                    if kind == "read":
                        ok, data = run.op("read", fs.read_file, path)
                        if ok and data != model[path]:
                            run.wrong(f"read {path}: not the last write")
                    else:
                        data = rng.randbytes(self.file_size)
                        ok, _ = run.op("write", fs.write_file, path, data)
                        if ok:
                            model[path] = data
                            run.wrote(len(data))
            run.converge(system, "a")
            chunks += 1
            if chunks == self.window_chunks:
                run.close_window(system)
        check_replicas(run, system, model, fsck=False)


class NfsCreate:
    """The client ``c`` (no replica) creates 512 x 8 KiB files,
    round-robin over 16 directories, then reads them back over NFS.

    The root volume lives on ``a`` and ``b``; 4 MiB of new data overflows
    the 2 MiB buffer cache.  A round ends with convergence of ``b``, a
    read-back on ``b``, and a restart of ``a`` followed by a re-read of
    every acknowledged file from ``a`` alone.
    """

    name = "nfs_create"
    dirs = 16
    files = 512
    file_size = 8192
    chunk = 64
    #: whole rounds until ``run.seconds`` are measured, within these;
    #: one round measures about 8 s, and its latencies rise with the
    #: directories' fill, so two rounds halve the weight of a slow patch
    min_rounds = 2
    max_rounds = 6
    #: set-ups per round: one takes about 30 ms and varies by a third
    #: from build to build, so ``setup_s`` needs many samples
    setups = 8

    def __init__(self, seed: int):
        self.seed = seed

    def build(self):
        system = FicusSystem(HOSTS, root_volume_hosts=["a", "b"], daemon_config=QUIET)
        fs = system.host("c").fs()
        for d in range(self.dirs):
            fs.mkdir(f"/d{d:02d}")
        return system, fs

    def run(self, run) -> None:
        """Whole rounds, each on a fresh cluster with the same inputs,
        until ``run.seconds`` are measured; the first is the count window."""
        rounds = 0
        while rounds < self.min_rounds or (
            run.measured_seconds < run.seconds and rounds < self.max_rounds
        ):
            state = set_up(run, self.build, self.setups)
            self.measure(run, state, random.Random(self.seed), first=rounds == 0)
            del state
            rounds += 1

    def measure(self, run, state, rng, first):
        system, fs = state
        alphabet = string.ascii_lowercase + string.digits
        model: dict[str, bytes] = {}
        for i in range(self.files):
            name = "".join(rng.choices(alphabet, k=rng.randrange(6, 25)))
            model[f"/d{i % self.dirs:02d}/{name}-{i}"] = rng.randbytes(self.file_size)
        if first:
            run.open_window()
        paths = list(model)
        for start in range(0, len(paths), self.chunk):
            run.begin_chunk()
            with run.segment(system, "fg"):
                for path in paths[start : start + self.chunk]:
                    ok, _ = run.op("write", fs.write_file, path, model[path])
                    if ok:
                        run.wrote(len(model[path]))
        order = list(model)
        rng.shuffle(order)
        for start in range(0, len(order), self.chunk):
            run.begin_chunk()
            with run.segment(system, "fg"):
                for path in order[start : start + self.chunk]:
                    ok, data = run.op("read", fs.read_file, path)
                    if ok and data != model[path]:
                        run.wrong(f"read {path} on c: not the bytes written")
        # ``b`` catches up by reconciliation: servicing the per-create
        # notes instead re-checks every file of a directory per directory
        # note (6.8 s for 256 creates); the sync workload measures that path
        run.converge(system, "c", propagate=False)
        if first:
            run.close_window(system)
        reader = system.host("b").fs()
        for path in order:
            run.check_read(reader, path, model[path])
        # durability: every acknowledged file survives a restart of ``a``
        # and reads back from ``a`` alone
        system.host("a").restart(system)
        system.partition([{"a"}, {"b", "c"}])
        alone = system.host("a").fs()
        for path in order:
            run.check_read(alone, path, model[path])
        system.heal()


class Sync:
    """Bursts of 32 in-place 100-byte edits, 4 creates, 2 unlinks and 2
    renames on ``a`` over an 8 x 32 x 16 KiB tree (4 MiB, twice the
    buffer cache), each followed by propagation + reconciliation until
    the replicas agree and a read-back of every changed file on ``b``.
    """

    name = "sync"
    dirs = 8
    files_per_dir = 32
    file_size = 16384
    edits = 32
    edit_size = 100
    creates = 4
    unlinks = 2
    renames = 2
    #: also the fewest bursts a run measures: 14 take about 10 s, which
    #: the tail latencies need (read p95 spread 14% over 10 seeds at 12)
    window_bursts = 14

    def __init__(self, seed: int):
        self.seed = seed

    def run(self, run) -> None:
        state = set_up(run, lambda: self.build(random.Random(self.seed)))
        self.measure(run, state, random.Random(self.seed))

    def build(self, rng):
        system = FicusSystem(HOSTS, daemon_config=QUIET)
        fs = system.host("a").fs()
        model = {}
        for d in range(self.dirs):
            fs.mkdir(f"/d{d}")
            for i in range(self.files_per_dir):
                path = f"/d{d}/f{i:03d}"
                model[path] = rng.randbytes(self.file_size)
                fs.write_file(path, model[path])
        settle(system)
        return system, fs, system.host("b").fs(), model

    def measure(self, run, state, rng):
        system, fs, reader, model = state
        serial = 0
        bursts = 0
        run.open_window()
        while bursts < self.window_bursts or run.measured_seconds < run.seconds:
            # the namespace ops of every burst touch every directory once,
            # in a seeded order: creates go to the first ones, unlinks and
            # rename sources come from the rest, renames go to the first.
            # Propagation re-checks every file of a touched directory, so a
            # count of touched directories that varied would dominate the
            # seed-to-seed spread of the counts.
            touched = rng.sample(range(self.dirs), self.dirs)
            sources = touched[self.creates :]
            kinds = (
                [("edit", None)] * self.edits
                + [("create", touched[k]) for k in range(self.creates)]
                + [("unlink", sources[k]) for k in range(self.unlinks)]
                + [("rename", sources[self.unlinks + k]) for k in range(self.renames)]
            )
            rng.shuffle(kinds)
            changed: set[str] = set()
            run.begin_chunk()
            with run.segment(system, "fg"):
                for kind, d in kinds:
                    paths = sorted(model)
                    if kind == "edit":
                        path = rng.choice(paths)
                        offset = rng.randrange(self.file_size - self.edit_size)
                        data = rng.randbytes(self.edit_size)
                        ok, _ = run.op("write", self._edit, fs, path, offset, data)
                        if ok:
                            old = model[path]
                            model[path] = old[:offset] + data + old[offset + self.edit_size :]
                            changed.add(path)
                            run.wrote(len(data))
                    elif kind == "create":
                        serial += 1
                        path = f"/d{d}/n{serial:05d}"
                        data = rng.randbytes(self.file_size)
                        ok, _ = run.op("write", fs.write_file, path, data)
                        if ok:
                            model[path] = data
                            changed.add(path)
                            run.wrote(len(data))
                    elif kind == "unlink":
                        path = rng.choice(self._files_in(paths, d))
                        ok, _ = run.op("other", fs.unlink, path)
                        if ok:
                            del model[path]
                            changed.discard(path)
                    else:
                        serial += 1
                        path = rng.choice(self._files_in(paths, d))
                        target = f"/d{touched[serial % self.creates]}/r{serial:05d}"
                        ok, _ = run.op("other", fs.rename, path, target)
                        if ok:
                            model[target] = model.pop(path)
                            changed.discard(path)
                            changed.add(target)
            run.converge(system, "a")
            with run.segment(system, "fg"):
                for path in sorted(changed):
                    ok, data = run.op("read", reader.read_file, path)
                    if ok and data != model[path]:
                        run.wrong(f"read {path} on b: not the last write on a")
            check_replicas(run, system, model, fsck=True)
            bursts += 1
            if bursts == self.window_bursts:
                run.close_window(system)

    @staticmethod
    def _files_in(paths: list[str], d: int) -> list[str]:
        """The files of directory ``d``.  In each burst a directory
        either gains a create (and maybe a rename target) or loses one
        file, with even odds, so from 32 files it does not run empty."""
        prefix = f"/d{d}/"
        return [path for path in paths if path.startswith(prefix)]

    @staticmethod
    def _edit(fs, path: str, offset: int, data: bytes) -> None:
        with fs.open(path, "r+") as f:
            f.seek(offset)
            f.write(data)


WORKLOADS = {cls.name: cls for cls in (HotDir, NfsCreate, Sync)}
