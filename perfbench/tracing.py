"""Per-layer span recording for the traced benchmark run.

The recorder wraps public entry points of each module from the outside —
it patches classes and module globals at the start of a traced run and
restores them at the end — so the program itself carries no benchmark
hooks.  Every wrapped call becomes a span ``(op_id, parent, layer,
label, start, end)`` kept in memory; spans of one foreground operation
share the ``op_id`` the driver opened for it.  A layer's self time is its
spans' duration minus the time covered by their direct child spans, so
the self times of all layers under one operation add up to the
operation's wall time (minus the driver's own code around it).

Layers, named after the repository's modules:

==========  ==============================================================
core        ``FicusFileSystem`` / ``FicusFile`` facade ops (path walk)
logical     ``FicusLogicalLayer`` methods and the logical vnodes
nfs         ``NfsClientLayer.call`` and the ``NfsServer`` op handlers
net         ``Network.rpc`` and ``Network.multicast`` (transport only)
physical    physical vnodes and ``ReplicaStore`` methods
wire        the physical record codec (directory / aux encode+decode)
ufs         public ``Ufs`` operations
storage     ``BlockDevice.read_block`` / ``write_block``
recon       ``reconcile_subtree``, ``reconcile_directory``, ``pull_file``
sim         the propagation and reconciliation daemon ``tick``\\ s
telemetry   ``HealthPlane.record_op``, ``FlightRecorder.record``,
            ``ProvenanceLedger.record``
==========  ==============================================================
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "core",
    "logical",
    "nfs",
    "net",
    "physical",
    "wire",
    "ufs",
    "storage",
    "recon",
    "sim",
    "telemetry",
)


def _public_functions(cls) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _targets():
    """``(layer, owner, attribute names)`` for every wrapped entry point.

    An owner is a class or a module; functions bound into several modules
    (``from x import f``) are patched in every module that binds them.
    """
    from repro.core.filesystem import FicusFile, FicusFileSystem
    from repro.logical.layer import FicusLogicalLayer
    from repro.logical.vnodes import LogicalDirVnode, LogicalFileVnode
    from repro.net.network import Network
    from repro.nfs.client import NfsClientLayer
    from repro.nfs.server import NfsServer
    from repro.physical import store as store_mod
    from repro.physical import wire as wire_mod
    from repro.physical.vnodes import PhysicalDirVnode, PhysicalFileVnode, PhysicalRootVnode
    from repro.recon import directory as directory_mod
    from repro.recon import propagate as propagate_mod
    from repro.recon import protocol as protocol_mod
    from repro.sim.daemons import PropagationDaemon, ReconciliationDaemon
    from repro.storage.device import BlockDevice
    from repro.telemetry.health import FlightRecorder, HealthPlane
    from repro.telemetry.provenance import ProvenanceLedger
    from repro.ufs.filesystem import Ufs

    server_ops = [name for name in vars(NfsServer) if name.startswith("_op_")]
    return [
        ("core", FicusFileSystem, _public_functions(FicusFileSystem)),
        ("core", FicusFile, _public_functions(FicusFile)),
        ("logical", FicusLogicalLayer, _public_functions(FicusLogicalLayer)),
        ("logical", LogicalDirVnode, _public_functions(LogicalDirVnode)),
        ("logical", LogicalFileVnode, _public_functions(LogicalFileVnode)),
        ("nfs", NfsClientLayer, ["call"]),
        # handlers are bound when a server is built, so these wrappers
        # must be in place before the cluster is constructed
        ("nfs", NfsServer, server_ops),
        ("net", Network, ["rpc", "multicast"]),
        ("physical", PhysicalRootVnode, _public_functions(PhysicalRootVnode)),
        ("physical", PhysicalDirVnode, _public_functions(PhysicalDirVnode)),
        ("physical", PhysicalFileVnode, _public_functions(PhysicalFileVnode)),
        ("physical", store_mod.ReplicaStore, _public_functions(store_mod.ReplicaStore)),
        ("wire", wire_mod, ["decode_directory", "encode_directory"]),
        ("wire", wire_mod.AuxAttributes, ["to_bytes", "from_bytes"]),
        ("wire", wire_mod.AttrBatch, ["to_wire", "from_wire"]),
        ("ufs", Ufs, _public_functions(Ufs)),
        ("storage", BlockDevice, ["read_block", "write_block"]),
        ("recon", protocol_mod, ["reconcile_subtree"]),
        ("recon", directory_mod, ["reconcile_directory"]),
        ("recon", propagate_mod, ["pull_file"]),
        ("sim", PropagationDaemon, ["tick"]),
        ("sim", ReconciliationDaemon, ["tick"]),
        ("telemetry", HealthPlane, ["record_op"]),
        ("telemetry", FlightRecorder, ["record"]),
        ("telemetry", ProvenanceLedger, ["record"]),
    ]


class SpanRecorder:
    """Wraps the layer entry points and accumulates spans while recording.

    ``install()`` patches, ``uninstall()`` restores the originals;
    ``suspend()`` / ``resume()`` swap the originals back in and out for an
    untraced stretch of the same run.  Spans are kept only while
    ``recording`` is true, so set-up work is not traced.  The NFS server
    handlers stay wrapped until ``uninstall()`` (a built server holds them)
    and fall straight through when not recording.  ``phase`` ("fg" or
    "bg") splits self time between foreground operations and background
    convergence.

    ``delays`` (layer -> seconds) injects a fixed sleep inside every span
    of that layer; the self-test uses it to check attribution.  Only the
    first :data:`MAX_SPANS` spans are kept; the self times and counts
    cover every span.
    """

    #: spans kept in memory (~30 MB); a traced hotdir op makes ~1500
    MAX_SPANS = 200_000

    def __init__(self, delays: dict[str, float] | None = None):
        self.delays = dict(delays or {})
        self.recording = False
        self.phase = "fg"
        self.op_id = 0
        #: finished spans: (op_id, parent_index, layer, label, start, end)
        self.spans: list[tuple] = []
        #: open spans: [label, layer, start, child_seconds, index]
        self._stack: list[list] = []
        self.self_seconds = {"fg": defaultdict(float), "bg": defaultdict(float)}
        #: per phase: calls per wrapped entry point, plus a few derived
        #: counts ("nfs.calls.<op>", "nfs.rpc_attempts", "physical.batch_entries")
        self.calls = {"fg": defaultdict(int), "bg": defaultdict(int)}
        self.label_seconds: defaultdict[str, float] = defaultdict(float)
        #: (owner, name, original, wrapped) per patched attribute
        self._patches: list[tuple[object, str, object, object]] = []
        self._permanent: list[tuple[object, str, object, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches or self._permanent:
            return
        from repro.nfs.server import NfsServer

        for layer, owner, names in _targets():
            for name in names:
                if inspect.ismodule(owner):
                    self._patch_function(layer, owner, name)
                else:
                    permanent = owner is NfsServer
                    self._patch_attribute(layer, owner, name, permanent)

    def uninstall(self) -> None:
        """Restore every patched attribute (the run's last step)."""
        for owner, name, original, _wrapped in reversed(self._patches + self._permanent):
            setattr(owner, name, original)
        self._patches.clear()
        self._permanent.clear()

    def suspend(self) -> None:
        for owner, name, original, _wrapped in reversed(self._patches):
            setattr(owner, name, original)

    def resume(self) -> None:
        for owner, name, _original, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def _patch_attribute(self, layer: str, owner: type, name: str, permanent: bool) -> None:
        raw = vars(owner)[name]
        label = f"{owner.__name__}.{name}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, layer, label))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, layer, label))
        else:
            wrapped = self._wrap(raw, layer, label)
        (self._permanent if permanent else self._patches).append((owner, name, raw, wrapped))
        setattr(owner, name, wrapped)

    def _patch_function(self, layer: str, module, name: str) -> None:
        original = getattr(module, name)
        wrapped = self._wrap(original, layer, name)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if not modname.startswith("repro"):
                continue
            if vars(mod).get(name) is original:
                self._patches.append((mod, name, original, wrapped))
                setattr(mod, name, wrapped)

    # -- spans -----------------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new foreground operation (or convergence episode)."""
        self.op_id += 1

    def _wrap(self, fn, layer: str, label: str):
        rec = self
        clock = time.perf_counter
        stack = self._stack
        label_seconds = self.label_seconds
        delay = self.delays.get(layer, 0.0)
        sleep = time.sleep
        count_children = label == "PhysicalDirVnode.getattrs_batch"
        nfs_call = label == "NfsClientLayer.call"
        net_rpc = label == "Network.rpc"

        def wrapper(*args, **kwargs):
            if not rec.recording:
                return fn(*args, **kwargs)
            calls = rec.calls[rec.phase]
            calls[label] += 1
            if nfs_call:
                calls["nfs.calls." + args[1]] += 1
            elif net_rpc and stack and stack[-1][0] == "NfsClientLayer.call":
                calls["nfs.rpc_attempts"] += 1
            index = len(rec.spans)
            keep = index < rec.MAX_SPANS
            if keep:
                rec.spans.append(None)
            frame = [label, layer, clock(), 0.0, index]
            stack.append(frame)
            try:
                if delay:
                    sleep(delay)
                result = fn(*args, **kwargs)
                if count_children:
                    calls["physical.batch_entries"] += len(result.children)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                rec.self_seconds[rec.phase][layer] += duration - frame[3]
                label_seconds[label] += duration
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                if keep:
                    rec.spans[index] = (
                        rec.op_id,
                        parent[4] if parent is not None else -1,
                        layer,
                        label,
                        frame[2],
                        end,
                    )

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def counts(self, phase: str) -> dict[str, int]:
        return dict(self.calls[phase])

    def self_ms(self, phase: str) -> dict[str, float]:
        return {layer: self.self_seconds[phase][layer] * 1e3 for layer in LAYERS}
