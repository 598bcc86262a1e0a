"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``.  Instead, for a traced round it wraps
the public functions at each layer boundary (the table in
:data:`BOUNDARIES`) with a recorder, builds the deployment, runs the
workload, and restores the originals.  Every wrapper reads two clocks:

* wall: ``time.perf_counter()`` of this Python process;
* sim: the deployment's ``SimClock.now()`` (read only, never charged).

A span's *self* time is its duration minus the part of that interval its
child spans cover.  Children are sequential on the wall clock.  On the
sim clock the legs of ``SimClock.parallel`` / ``SimClock.race`` rewind to
a common start and overlap; the covered part is then the union of the
children's intervals clipped to the parent, and each layer's sim self
time is the *sum over legs* (``bench.sim_fanout_overlap_s`` reports how
much that sum exceeds the elapsed virtual time).

The harness tells the tracer whether it is inside an op or inside the
think time between ops (:attr:`Tracer.phase`); root spans are totalled per
phase, so the accounting check can compare them with the harness's own
per-op and per-think clock readings.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# (layer, "module:Class" or "module", attribute names).  Class entries
# patch the class attribute; module entries patch the function in every
# loaded ``repro`` module that imported it by name.
BOUNDARIES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("fs", "repro.fs.vfs:VirtualFileSystem",
     ("open", "close", "write", "truncate", "write_file", "stat", "exists",
      "mkdir", "readdir")),
    ("core", "repro.fs.interceptor:FileAccessManager",
     ("on_open", "on_close", "on_create", "drain")),
    ("cluster.client", "repro.cluster.client:PropellerClient",
     ("index_path", "flush_updates", "flush_acg", "search",
      "search_directory")),
    ("cluster.master", "repro.sim.rpc:RpcEndpoint", ("dispatch",)),
    ("sim.rpc", "repro.sim.rpc:RpcNetwork", ("call", "multicall", "hedged_call")),
    ("cluster.index_node", "repro.cluster.index_node:IndexNode",
     ("handle_index_update", "handle_search", "handle_flush_acg", "tick")),
    ("cluster.wal", "repro.cluster.wal:WriteAheadLog", ("append", "append_batch")),
    ("cluster.cache", "repro.cluster.cache:IndexCache",
     ("add", "commit_due", "commit_for_search", "commit_all")),
    ("cluster.index_node.apply", "repro.cluster.index_node:AcgReplica",
     ("apply", "apply_batch")),
    ("replication", "repro.cluster.index_node:IndexNode",
     ("handle_replicate_apply",)),
    ("replication", "repro.replication.log:ReplicationLog", ("append",)),
    ("indexstructures.btree", "repro.indexstructures.btree:BPlusTree",
     ("bulk_insert", "range", "get")),
    ("indexstructures.hash", "repro.indexstructures.hashindex:ExtendibleHashIndex",
     ("bulk_insert", "get")),
    ("indexstructures.postings", "repro.indexstructures.postings",
     ("intersect_all",)),
    ("indexstructures.postings", "repro.indexstructures.postings:PostingList",
     ("intersection", "union")),
    ("indexstructures.serialization", "repro.indexstructures.serialization",
     ("dump_value", "load_value")),
    ("query", "repro.query.parser", ("parse_query",)),
    ("query", "repro.query.planner", ("plan_query", "plan_query_set")),
    ("query", "repro.query.executor", ("execute", "execute_plans", "scatter_gather")),
    ("query", "repro.query.summary", ("summary_may_match",)),
    ("cluster.segments", "repro.cluster.segments", ("dump_segment", "load_segment")),
    ("cluster.segments", "repro.cluster.segments:SegmentCache", ("get", "put")),
    ("cluster.segments", "repro.cluster.segments:SegmentView", ("search",)),
    ("sim.objectstore", "repro.sim.objectstore:SimObjectStore", ("get", "put")),
    ("sim.disk", "repro.sim.disk:DiskDevice", ("read", "write", "append")),
)

# Layers in report order (``sim.memory`` is read from PageCache stats and
# never wrapped).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))

# Modules whose *internal* calls must stay unwrapped: the serialization
# encoder recurses through its own module globals, and only the outermost
# dump_value/load_value (called from other modules) is a layer boundary.
_OUTERMOST_ONLY = {"repro.indexstructures.serialization"}

# Master RPC endpoints as PropellerService names them; the dispatch
# boundary is a ``cluster.master`` span only on these.
MASTER_ENDPOINTS = frozenset({"master", "master2"})

_SPAN_CAP = 400_000  # spans kept for the span file; beyond it, totals only


class Tracer:
    """Span recorder with per-layer self-time totals and extras."""

    def __init__(self) -> None:
        self.active = False
        # "op" or "think": which part of the timed loop is running.
        self.phase = "op"
        self.op_id = -1
        self._sim_now: Callable[[], float] = lambda: 0.0
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.wall_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.sim_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.extras: Dict[str, float] = {}
        # Stack frames: [layer, wall0, sim0, child_wall, child_sim_intervals, span_idx]
        self._stack: List[list] = []
        self.sim_fanout_overlap = 0.0
        self.root_wall = 0.0
        # Wall and virtual seconds covered by root spans, per phase.
        self.root_wall_in: Dict[str, float] = {"op": 0.0, "think": 0.0}
        self.root_sim_in: Dict[str, float] = {"op": 0.0, "think": 0.0}
        self.sim_gaps = 0.0
        self._last_root_sim_end: Optional[float] = None
        # Compact span store: name index, op id, parent span index, and
        # the four clock readings.
        self.span_layer = array("h")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_times = array("d")
        self.spans_dropped = 0

    # -- phase control ------------------------------------------------------

    def start(self, clock_now: Callable[[], float]) -> None:
        """Open the timed phase on a deployment's virtual clock: spans
        from here on count."""
        self._sim_now = clock_now
        self.active = True
        self._last_root_sim_end = self._sim_now()

    def stop(self) -> None:
        """Close the timed phase; the trailing sim gap is unattributed."""
        self.active = False
        if self._last_root_sim_end is not None:
            self.sim_gaps += self._sim_now() - self._last_root_sim_end
            self._last_root_sim_end = None

    def add(self, key: str, amount: float = 1) -> None:
        self.extras[key] = self.extras.get(key, 0) + amount

    # -- spans --------------------------------------------------------------

    def enter(self, layer: str, count: bool = True) -> None:
        """Open a span; ``count=False`` for a generator's later resumes,
        which are spans of the same call."""
        if count:
            self.calls[layer] += 1
        sim0 = self._sim_now()
        if not self._stack and self._last_root_sim_end is not None:
            self.sim_gaps += sim0 - self._last_root_sim_end
        idx = -1
        if len(self.span_layer) < _SPAN_CAP:
            idx = len(self.span_layer)
            self.span_layer.append(LAYERS.index(layer))
            self.span_op.append(self.op_id)
            self.span_parent.append(self._stack[-1][5] if self._stack else -1)
            self.span_times.extend((0.0, 0.0, 0.0, 0.0))
        else:
            self.spans_dropped += 1
        self._stack.append([layer, time.perf_counter(), sim0, 0.0, [], idx])

    def exit(self) -> None:
        wall1 = time.perf_counter()
        sim1 = self._sim_now()
        layer, wall0, sim0, child_wall, child_sim, idx = self._stack.pop()
        wall = wall1 - wall0
        sim = sim1 - sim0
        covered, total = _clipped_union(child_sim, sim0, sim1)
        self.sim_fanout_overlap += total - covered
        self.wall_self[layer] += wall - child_wall
        self.sim_self[layer] += sim - covered
        if idx >= 0:
            self.span_times[4 * idx:4 * idx + 4] = array(
                "d", (wall0, wall1, sim0, sim1))
        if self._stack:
            parent = self._stack[-1]
            parent[3] += wall
            parent[4].append((sim0, sim1))
        else:
            self.root_wall += wall
            self.root_wall_in[self.phase] += wall
            self.root_sim_in[self.phase] += sim
            self._last_root_sim_end = sim1

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as CSV; returns how many were written."""
        n = len(self.span_layer)
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,layer,op,parent,wall_start,wall_end,sim_start,sim_end\n")
            times = self.span_times
            for i in range(n):
                t = times[4 * i:4 * i + 4]
                out.write(f"{i},{LAYERS[self.span_layer[i]]},{self.span_op[i]},"
                          f"{self.span_parent[i]},{t[0]!r},{t[1]!r},"
                          f"{t[2]!r},{t[3]!r}\n")
        return n


def _clipped_union(intervals: Sequence[Tuple[float, float]],
                   lo: float, hi: float) -> Tuple[float, float]:
    """(length of the union of ``intervals`` clipped to [lo, hi], sum of
    their raw lengths)."""
    if not intervals:
        return 0.0, 0.0
    total = sum(b - a for a, b in intervals)
    covered = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered, total


# -- extras: what a wrapper learns from a call's arguments or result ----------

def _request_bytes_default() -> int:
    from repro.sim.rpc import RpcNetwork
    return inspect.signature(RpcNetwork.call).parameters["request_bytes"].default


def _extra_hook(layer: str, owner: str, name: str, tracer: Tracer):
    """A ``hook(args, kwargs, result)`` that records a layer extra, or None."""
    add = tracer.add
    if layer == "sim.rpc":
        default = _request_bytes_default()
        if name == "multicall":
            return lambda a, k, r: add("sim.rpc.request_bytes",
                                       k.get("request_bytes", default) * len(a[1]))
        return lambda a, k, r: add("sim.rpc.request_bytes",
                                   k.get("request_bytes", default))
    if layer == "cluster.wal":
        if name == "append_batch":
            return lambda a, k, r: add("cluster.wal.records", len(a[2]))
        return lambda a, k, r: add("cluster.wal.records", 1)
    if layer == "cluster.index_node.apply":
        if name == "apply_batch":
            return lambda a, k, r: add("cluster.index_node.apply.updates", len(a[1]))
        return lambda a, k, r: add("cluster.index_node.apply.updates", 1)
    if owner.endswith(":ReplicationLog"):
        return lambda a, k, r: add("replication.records", 1)
    if layer == "indexstructures.hash" and name == "bulk_insert":
        return lambda a, k, r: add("indexstructures.hash.values_inserted", r)
    if layer == "indexstructures.serialization":
        if name == "dump_value":
            return lambda a, k, r: add("indexstructures.serialization.bytes", len(r))
        return lambda a, k, r: add("indexstructures.serialization.bytes",
                                   r[1] - (a[1] if len(a) > 1 else k["offset"]))
    if layer == "cluster.segments" and name == "dump_segment":
        return lambda a, k, r: add("cluster.segments.bytes_dumped", len(r))
    if layer == "sim.disk" and name in ("read", "write"):
        return lambda a, k, r: add("sim.disk.bytes",
                                   a[2] if len(a) > 2 else k["nbytes"])
    if layer == "query":
        if name == "scatter_gather":
            return lambda a, k, r: add("query.legs", len(a[1]))
        if name == "summary_may_match":
            return lambda a, k, r: (add("query.summary_checks", 1),
                                    add("query.summary_pruned", 0 if r else 1))
    if layer == "cluster.client":
        if name == "index_path":
            return lambda a, k, r: add("cluster.client.updates_queued", 1)
        if name == "flush_updates":
            return lambda a, k, r: add("cluster.client.flushes", 1 if r else 0)
    if layer == "core" and name == "drain":
        return lambda a, k, r: add("core.causality_pairs", r.total_weight)
    return None


def _make_wrapper(fn, layer: str, tracer: Tracer, hook, master_only: bool):
    enter, exit_ = tracer.enter, tracer.exit
    if inspect.isgeneratorfunction(fn):
        # A generator's work happens as it is consumed: count the call
        # once, and charge each resume to the layer as its own span.
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                traced = tracer.active
                if traced:
                    enter(layer, first)
                    first = False
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if traced:
                        exit_()
                yield item
        gen_wrapper.__wrapped__ = fn
        return gen_wrapper

    def wrapper(*args, **kwargs):
        if not tracer.active or (master_only and args[0].name not in MASTER_ENDPOINTS):
            return fn(*args, **kwargs)
        enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if hook is not None:
            hook(args, kwargs, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


class Patches:
    """Installs the boundary wrappers; :meth:`restore` puts originals back."""

    def __init__(self, tracer: Tracer, skip: Sequence[str] = ()) -> None:
        self.tracer = tracer
        # Layers left unwrapped (the tests use this to show that a missing
        # boundary fails the accounting check).
        self.skip = frozenset(skip)
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self) -> "Patches":
        # Import every program module first, so none binds a wrapper by
        # name later and keeps it after restore().
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        for layer, owner, names in BOUNDARIES:
            if layer in self.skip:
                continue
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            for name in names:
                hook = _extra_hook(layer, owner, name, self.tracer)
                if class_name:
                    cls = getattr(module, class_name)
                    original = cls.__dict__[name]
                    wrapped = _make_wrapper(original, layer, self.tracer, hook,
                                            master_only=(layer == "cluster.master"))
                    self._set(cls, name, wrapped)
                    continue
                original = getattr(module, name)
                wrapped = _make_wrapper(original, layer, self.tracer, hook, False)
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("repro") or mod is None:
                        continue
                    if mod_name in _OUTERMOST_ONLY and mod_name == module_name:
                        continue
                    if getattr(mod, name, None) is original:
                        self._set(mod, name, wrapped)
        return self

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, "__dict__", {}).get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
