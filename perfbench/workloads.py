"""The three workloads: deployment, preload, warm-up, and the timed op stream.

Every input (paths, trace events, sizes, query strings, op order) comes
from the workload seed through this module's own generators; the program
only receives those inputs through its public surface: the VFS,
``PropellerService`` and ``PropellerClient``.

An op is a tuple whose first element names its kind:

* ``("read", client, pid, path)``: open for reading, close;
* ``("write", client, pid, path, nbytes)``: open for writing, truncate,
  write, close, then inline ``index_path`` (one *update*);
* ``("exit", client, pid)``: the process exits (``process_finished``,
  which flushes the client's ACG);
* ``("search", client, query)``: one ``client.search_detailed``;
* ``("qdir", client, "/scope/?query")``: the query-directory form
  through ``vfs.readdir``.

Answers are checked after the timed phase (see :mod:`perfbench.oracle`),
so the checks never flush a client's queue in the middle of the load.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import random
import statistics
from typing import Dict, List, Optional, Sequence, Set, Tuple

from benchmarks.common import STANDARD_INDICES
from repro.cluster import PropellerService
from repro.cluster.persistence import PROPELLER_ROOT as CHECKPOINT_ROOT
from repro.cluster.service import CHECKPOINT_PERIOD_S, HEARTBEAT_PERIOD_S
from repro.core.partitioner import PartitioningPolicy
from repro.fs.vfs import OpenMode
from repro.obs.freshness import FreshnessTracker
from repro.query.executor import tokenize_path
from repro.sim.machine import MachineSpec
from repro.workloads.apps import GIT_SPEC, THRIFT_SPEC, CompileApplication
from repro.workloads.datasets import APP_TEMPLATES, populate_namespace

Op = Tuple

def _think_for(files_per_s: float, files_changed: int, ops: int) -> float:
    """Think time after each of ``ops`` ops that change ``files_changed``
    files, so that at zero op latency files change at ``files_per_s``.

    search-fanout and tiered-mixed take their rates from the background
    change rates of the paper's Figure 1 (2, 5 and 10 files/s, as
    benchmarks/bench_fig01_crawler_recall.py replays them)."""
    return files_changed / (files_per_s * ops)


class RecordingFreshness(FreshnessTracker):
    """The program's freshness tracker, also keeping every observation
    as ``(visible_at, staleness)`` so percentiles are exact."""

    def __init__(self, registry) -> None:
        super().__init__(registry)
        self.observed: List[Tuple[float, float]] = []

    def visible(self, node: str, file_id: int, t: float) -> Optional[float]:
        staleness = super().visible(node, file_id, t)
        if staleness is not None:
            self.observed.append((t, staleness))
        return staleness


class Zipf:
    """Seeded Zipf sampler over ``n`` ranks (rank 0 most popular)."""

    def __init__(self, n: int, s: float, rng: random.Random) -> None:
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        self._cdf = list(itertools.accumulate(weights))
        self._rng = rng

    def sample(self) -> int:
        u = self._rng.random() * self._cdf[-1]
        return min(bisect.bisect_left(self._cdf, u), len(self._cdf) - 1)


class Deployment:
    """One built deployment plus the timed op stream it will run."""

    def __init__(self, service: PropellerService, think_s: float) -> None:
        self.service = service
        self.vfs = service.vfs
        self.clients = []
        # Index into ``clients`` of the read-only search client.
        self.searcher = 0
        self.think_s = think_s
        self.ops: List[Op] = []
        # Paths the program has been asked to index (the oracle's scope).
        self.indexed: Set[str] = set()
        self.freshness = service.enable_freshness(
            RecordingFreshness(service.registry))
        # Per writer client, the pids of the processes it runs (its
        # File Access Management filter).
        self.writer_pids: List[Set[int]] = []
        # Idle virtual time before the end-of-round index measurement, so
        # that partitions thawed by the last writes have refrozen.
        self.settle_s = 0.0
        self.sizes: Dict[str, object] = {}

    # -- executing one op --------------------------------------------------

    def write(self, client: int, pid: int, path: str, nbytes: int) -> None:
        vfs = self.vfs
        fd = vfs.open(path, OpenMode.WRITE, pid=pid, create=True)
        vfs.truncate(fd, 0)
        vfs.write(fd, nbytes)
        vfs.close(fd)
        self.clients[client].index_path(path, pid=pid)
        self.indexed.add(path)

    def read(self, pid: int, path: str) -> None:
        fd = self.vfs.open(path, OpenMode.READ, pid=pid)
        self.vfs.close(fd)

    def search(self, client: int, query: str) -> Tuple[List[str], bool]:
        """Run a search op; returns (paths, degraded)."""
        c = self.clients[client]
        if query.startswith("/"):
            paths = self.vfs.readdir(query)
            return paths, c.last_outcome.degraded
        answer = c.search_detailed(query)
        return answer.paths, answer.degraded

    def flush_all(self) -> None:
        for c in self.clients:
            c.flush_updates()

    def index_bytes(self) -> int:
        """Bytes of a checkpoint of every partition replica, taken now on
        the shared VFS; frozen partitions checkpoint as their segments.
        Unlike the page-cache model's resident-byte estimate (a function
        of file counts only), these are serialized bytes."""
        self.service.advance(self.settle_s)
        for node in self.service.index_nodes.values():
            if node.endpoint.up:
                node.checkpoint_to_shared()
        root = CHECKPOINT_ROOT + "/"
        return sum(inode.size for path, inode in self.vfs.namespace.files()
                   if path.startswith(root) and path.endswith(".ckpt"))


def _new_service(nodes: int, rf: int, group: int, ram: int,
                 cache_timeout_s: float = 5.0) -> PropellerService:
    return PropellerService(
        num_index_nodes=nodes, spec=MachineSpec(ram_bytes=ram),
        policy=PartitioningPolicy(split_threshold=group * 50,
                                  cluster_target=group),
        replication_factor=rf, cache_timeout_s=cache_timeout_s)


def _create_indices(client) -> None:
    for name, kind, attrs in STANDARD_INDICES:
        client.create_index(name, kind, attrs)


def _preload_two_writers(service: PropellerService, dep: Deployment,
                         paths: Sequence[str], shared: bool) -> List[List[str]]:
    """Clients 0 and 1 are two machines that write to the shared
    namespace; client 2 is a separate, read-only search machine (created
    last, so it also serves the VFS query-directory form).  All three
    keep the client's default batching.  Each writer observes only its
    own processes: the build adds their pids to ``dep.writer_pids``.

    Each writer owns every other directory of ``paths`` (in path order),
    indexes those files, and is the only machine that rewrites them.
    With ``shared``, client 0 indexes everything and either machine may
    rewrite any file, which the program gets wrong (see "Findings" in
    DESIGN.md).  Returns the paths each writer may rewrite."""
    dep.writer_pids = [set(), set()]
    dep.clients.extend([service.make_client(pid_filter=pids)
                        for pids in dep.writer_pids])
    dep.clients.append(service.make_client(pid_filter=set()))
    dep.searcher = 2
    _create_indices(dep.clients[0])
    if shared:
        owned = [list(paths), list(paths)]
        dep.clients[0].index_paths(paths, pid=1)
    else:
        owner: Dict[str, int] = {}
        owned = [[], []]
        for path in paths:
            dir_ = path.rsplit("/", 1)[0]
            owned[owner.setdefault(dir_, len(owner) % 2)].append(path)
        # One machine after the other, a heartbeat apart, so the second
        # sees the first's partitions as full and opens its own.
        for client, mine in zip(dep.clients, owned):
            client.index_paths(mine, pid=1)
            client.flush_updates()
            service.advance(HEARTBEAT_PERIOD_S)
    dep.flush_all()
    service.commit_all()
    dep.indexed.update(paths)
    return owned


def _advance_past_checkpoint(service: PropellerService, margin_s: float = 1.0) -> None:
    """Idle until just after the next periodic checkpoint, so a short
    timed phase starts on a fresh checkpoint period."""
    now = service.clock.now()
    target = (int(now // CHECKPOINT_PERIOD_S) + 1) * CHECKPOINT_PERIOD_S + margin_s
    service.advance(target - now)


def _interleave(per_app: Sequence[Sequence[list]]) -> List[Tuple[int, list]]:
    """Run the applications' processes concurrently: (app index, events),
    always next from the application least far through its own events, so
    all of them are busy until the end."""
    totals = [max(1, sum(len(p) for p in procs)) for procs in per_app]
    done = [0] * len(per_app)
    nxt = [0] * len(per_app)
    out: List[Tuple[int, list]] = []
    while True:
        live = [k for k in range(len(per_app)) if nxt[k] < len(per_app[k])]
        if not live:
            return out
        k = min(live, key=lambda a: (done[a] / totals[a], a))
        proc = per_app[k][nxt[k]]
        nxt[k] += 1
        done[k] += len(proc)
        out.append((k, proc))


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(lo * (hi / lo) ** rng.random())


# -- build-ingest ---------------------------------------------------------------

class BuildIngest:
    """Four compile-style applications replayed through the VFS."""

    name = "build-ingest"
    NODES, RF, GROUP = 4, 2, 100
    SEARCH_EVERY = 400       # events between searches
    SHAPES = (THRIFT_SPEC, GIT_SPEC, THRIFT_SPEC, GIT_SPEC)
    # Application names the seed draws from (one keyword each).
    NAMES = ("thrift", "git", "redis", "nginx", "sqlite", "curl", "zlib",
             "protobuf", "leveldb", "libuv", "openssl", "postgres")
    REBUILDS = 2             # full builds per app: 1 warm-up + 1 timed

    def build(self, seed: int, scale: float = 1.0) -> Deployment:
        rng = random.Random(seed)
        service = _new_service(self.NODES, self.RF, self.GROUP, 4 * 1024**3)
        dep = Deployment(service, 0.0)
        vfs = service.vfs
        gaps: List[float] = []
        apps: List[CompileApplication] = []
        processes: List[List[List[Tuple[int, int, bool]]]] = []
        names = rng.sample(self.NAMES, len(self.SHAPES))
        for k, (name, shape) in enumerate(zip(names, self.SHAPES)):
            spec = dataclasses.replace(shape, name=name, rebuilds=self.REBUILDS,
                                       seed=rng.randrange(2**31))
            if scale < 1.0:
                spec = dataclasses.replace(
                    spec, units=max(spec.groups, int(spec.units * scale)),
                    headers=max(spec.groups, int(spec.headers * scale)))
            app = CompileApplication(spec)
            base = (k + 1) * 10_000_000
            traces = list(app.iter_processes())
            gaps += [b.t_open - a.t_open for events in traces
                     for a, b in zip(events, events[1:])]
            procs = [[(base + e.pid, e.file_id, e.write) for e in events]
                     for events in traces]
            apps.append(app)
            processes.append(procs)
            client = service.make_client(pid_filter={p[0][0] for p in procs})
            dep.clients.append(client)
            if k == 0:
                _create_indices(client)
            # Check out the sources and headers, and index them.
            for sub in ("src", "include", "build", "bin"):
                vfs.mkdir(f"/src/{name}/{sub}", parents=True)
            sources = [app.path_of(f) for f in range(spec.units + spec.headers)]
            for path in sources:
                vfs.write_file(path, _log_uniform(rng, 512, 64 * 1024), pid=-1)
            client.index_paths(sources, pid=-1)
            dep.indexed.update(sources)
        # Searches come from a separate, read-only client machine that
        # runs none of the build's processes, created last so it also
        # serves the VFS query-directory form.
        dep.searcher = len(dep.clients)
        dep.clients.append(service.make_client(pid_filter=set()))
        dep.flush_all()
        service.commit_all()
        # The think time is the traces' own spacing between a process's
        # successive file opens (AccessEvent.t_open).
        dep.think_s = statistics.median(gaps)

        # Warm-up: every application's first full build (creates and
        # indexes every object and binary); the rebuilds are timed.
        firsts = [app.spec.units + len(set(app.unit_group)) for app in apps]
        warm = _interleave([p[:n] for p, n in zip(processes, firsts)])
        timed = _interleave([p[n:] for p, n in zip(processes, firsts)])
        for op in self._ops(warm, apps, rng, searches=False):
            run_untimed(dep, op)
        dep.flush_all()
        service.commit_all()
        service.advance(10.0)
        dep.ops = list(self._ops(timed, apps, rng, searches=True))
        dep.sizes = {
            "apps": names,
            "files": len(dep.indexed),
            "partitions": service.acg_count(),
            "nodes": self.NODES, "replication_factor": self.RF,
            "events_timed": sum(1 for op in dep.ops if op[0] in ("read", "write")),
        }
        return dep

    def _ops(self, stream, apps, rng: random.Random, searches: bool):
        events = 0
        for k, proc in stream:
            app = apps[k]
            for pid, file_id, write in proc:
                path = app.path_of(file_id)
                if write:
                    yield ("write", k, pid, path, _log_uniform(rng, 4096, 2 * 1024**2))
                else:
                    yield ("read", k, pid, path)
                events += 1
                if searches and events % self.SEARCH_EVERY == 0:
                    # Searches cycle through every (application, shape)
                    # pair; the seed draws their terms.
                    n = events // self.SEARCH_EVERY
                    yield self._search_op(rng, apps[n % len(apps)],
                                          (n // len(apps)) % 4, len(apps))
            yield ("exit", k, proc[0][0])

    def _search_op(self, rng: random.Random, app: CompileApplication,
                   shape: int, searcher: int) -> Op:
        """One search of the given shape about ``app``, from the search
        client."""
        name = app.spec.name
        if shape == 0:
            query = f"keyword:{name} & keyword:o & mtime<{rng.choice((2, 5, 10))}s"
        elif shape == 1:
            query = f"keyword:unit{rng.randrange(app.spec.units):05d} & keyword:{name}"
        elif shape == 2:
            query = f"keyword:{name} & size>{rng.choice((1, 2, 4))}m & keyword:build"
        else:
            query = f"/src/{name}/bin/?size>{rng.choice((16, 64, 256))}k"
        return ("qdir" if query.startswith("/") else "search", searcher, query)


# -- search-fanout ---------------------------------------------------------------

class SearchFanout:
    """A resident namespace in 1000-file ACGs; Zipf-skewed query stream."""

    name = "search-fanout"
    NODES, RF, GROUP = 4, 1, 1000
    FILES = 12_000
    OPS = 6000
    # Every BURST_EVERY-th op one process rewrites BURST files of one
    # directory and exits: 2% of ops are writes.
    BURST_EVERY, BURST = 150, 3
    # Figure 1's lowest rate: this workload's writes only keep the read
    # path's caches honest.
    FILES_PER_S = 2.0
    THINK_S = _think_for(FILES_PER_S, BURST, BURST_EVERY - 1 + BURST + 1)
    CATALOGUE = 400
    SHAPES = 7
    WARM_QUERIES = 64
    ZIPF_S = 1.0

    def __init__(self, shared_rewrites: bool = False) -> None:
        self.shared_rewrites = shared_rewrites

    def build(self, seed: int, scale: float = 1.0) -> Deployment:
        rng = random.Random(seed)
        service = _new_service(self.NODES, self.RF, self.GROUP, 4 * 1024**3)
        dep = Deployment(service, self.THINK_S)
        # The seed orders the application templates the namespace copies.
        templates = rng.sample(list(APP_TEMPLATES.values()), len(APP_TEMPLATES))
        paths = populate_namespace(service.vfs, int(self.FILES * scale),
                                   templates=templates, seed=rng.randrange(2**31))
        owned = _preload_two_writers(service, dep, paths, self.shared_rewrites)
        # Zipf rank r always has query shape r % SHAPES, so every seed
        # gives the same popularity per shape; the seed draws the terms.
        catalogue = [self._query(rng, paths, r % self.SHAPES)
                     for r in range(self.CATALOGUE)]
        # Warm-up: the most popular queries once (result caches, summaries).
        for query in catalogue[:self.WARM_QUERIES]:
            run_untimed(dep, ("qdir" if query.startswith("/") else "search",
                              dep.searcher, query))
        _advance_past_checkpoint(service)
        zipf = Zipf(len(catalogue), self.ZIPF_S, rng)
        ops: List[Op] = []
        pid = 100
        by_dir: Dict[str, List[str]] = {}
        for path in paths:
            by_dir.setdefault(path.rsplit("/", 1)[0], []).append(path)
        for i in range(int(self.OPS * scale)):
            if i % self.BURST_EVERY == self.BURST_EVERY - 1:
                # One process on one of the two writer machines rewrites
                # BURST files of a directory that machine owns.
                pid += 1
                writer = pid % 2
                dep.writer_pids[writer].add(pid)
                mine = owned[writer]
                siblings = by_dir[mine[rng.randrange(len(mine))].rsplit("/", 1)[0]]
                for path in rng.sample(siblings, min(self.BURST, len(siblings))):
                    ops.append(("write", writer, pid, path,
                                _log_uniform(rng, 128, 512 * 1024)))
                ops.append(("exit", writer, pid))
                continue
            query = catalogue[zipf.sample()]
            ops.append(("qdir" if query.startswith("/") else "search",
                        dep.searcher, query))
        dep.ops = ops
        dep.sizes = {"files": len(paths), "partitions": service.acg_count(),
                     "nodes": self.NODES, "replication_factor": self.RF,
                     "catalogue": len(catalogue), "ops": len(ops)}
        return dep

    def _query(self, rng: random.Random, paths: Sequence[str], shape: int) -> str:
        """One parameterised query of the given catalogue shape."""
        path = paths[rng.randrange(len(paths))]
        copy, app, dir_, stem, ext = _path_terms(path)
        if shape == 0:                   # size range (B+tree)
            lo = _log_uniform(rng, 256, 256 * 1024)
            return f"size>={lo} & size<{int(lo * 1.03) + 1}"
        if shape == 1:                   # mtime range (B+tree)
            return f"mtime<{rng.choice((1, 2, 5, 10))}s"
        if shape == 2:                   # keyword term (hash + postings)
            return f"keyword:{stem}"
        if shape == 3:                   # conjunction (posting intersection)
            return f"keyword:{copy} & keyword:{dir_} & keyword:{ext}"
        if shape == 4:                   # selective: Bloom prunes other copies
            return f"keyword:{copy} & keyword:{app} & size<{rng.choice((200, 300, 500))}"
        if shape == 5:                   # selective: zone maps prune
            return f"size>{rng.choice((96, 112, 120))}m"
        # The query-directory form; the predicate is evaluated cluster-wide
        # and the scope filters the answer, so it stays selective.
        return f"/data/{copy}/?keyword:{stem} & size>{rng.choice((1, 4, 16))}k"


def _path_terms(path: str) -> Tuple[str, str, str, str, str]:
    """(copy, app, dir, file stem, extension) keywords of a namespace path
    ``/data/copyNNNN/<app>/dNNNN/<name>.<ext>``; the app and stem are
    their longest alphanumeric runs, as the path tokenizer splits them."""
    parts = path.split("/")
    longest = lambda text: max(tokenize_path(text), key=len)  # noqa: E731
    fname = parts[5]
    return (parts[2], longest(parts[3]), parts[4],
            longest(fname.rsplit(".", 1)[0]), fname.rsplit(".", 1)[1])


# -- tiered-mixed ----------------------------------------------------------------

class TieredMixed:
    """Most partitions frozen on the object store; reads hydrate, writes thaw."""

    name = "tiered-mixed"
    NODES, RF, GROUP = 2, 1, 75
    FILES = 6_000
    RAM = 16 * 1024**2
    CACHE_TIMEOUT_S = 1.0
    FREEZE_AGE_S = 2.0
    CACHE_SHARE = 0.25       # segment-cache budget / hydrated frozen bytes
    OPS = 2400
    # Every 5th op one process rewrites one file and exits: 20% writes.
    WRITE_EVERY = 5
    FILES_PER_S = 5.0        # Figure 1's middle rate
    THINK_S = _think_for(FILES_PER_S, 1, WRITE_EVERY - 1 + 1 + 1)
    ZIPF_S = 1.0

    def __init__(self, shared_rewrites: bool = False) -> None:
        self.shared_rewrites = shared_rewrites

    def build(self, seed: int, scale: float = 1.0) -> Deployment:
        rng = random.Random(seed)
        service = _new_service(self.NODES, self.RF, self.GROUP, self.RAM,
                               cache_timeout_s=self.CACHE_TIMEOUT_S)
        dep = Deployment(service, self.THINK_S)
        paths = populate_namespace(service.vfs, int(self.FILES * scale),
                                   seed=rng.randrange(2**31))
        owned = _preload_two_writers(service, dep, paths, self.shared_rewrites)
        # Freeze everything, then size each node's segment cache to a
        # share of the hydrated bytes it would need to hold every segment.
        service.set_tiering(True, freeze_age_s=self.FREEZE_AGE_S, min_bytes=1)
        dep.settle_s = 3 * self.FREEZE_AGE_S + 2 * self.CACHE_TIMEOUT_S
        service.advance(dep.settle_s)
        hydrated = max(sum(f.hydrated_bytes for f in node.frozen.values())
                       for node in service.index_nodes.values())
        budget = int(hydrated * self.CACHE_SHARE)
        service.set_tiering(True, cache_budget_bytes=budget)
        # Partitions are filled in indexing order, so contiguous GROUP-file
        # chunks of that order stand for partitions.  Popularity follows
        # that order (the same for every seed); the seed draws the stream.
        order = paths if self.shared_rewrites else owned[0] + owned[1]
        chunks = [order[i:i + self.GROUP] for i in range(0, len(order), self.GROUP)]
        zipf = Zipf(len(chunks), self.ZIPF_S, rng)
        # Warm-up: one search per chunk, hottest first, then idle until the
        # next checkpoint period starts.
        for chunk in chunks:
            run_untimed(dep, ("search", dep.searcher, self._query(rng, chunk)))
        _advance_past_checkpoint(service)
        ops: List[Op] = []
        pid = 100
        for i in range(int(self.OPS * scale)):
            if i % self.WRITE_EVERY == self.WRITE_EVERY - 1:
                pid += 1
                writer = pid % 2
                dep.writer_pids[writer].add(pid)
                mine = owned[writer]
                path = mine[rng.randrange(len(mine))]
                ops.append(("write", writer, pid, path,
                            _log_uniform(rng, 128, 512 * 1024)))
                ops.append(("exit", writer, pid))
                continue
            ops.append(("search", dep.searcher,
                        self._query(rng, chunks[zipf.sample()])))
        dep.ops = ops
        frozen_bytes = sum(n.frozen_bytes() for n in service.index_nodes.values())
        dep.sizes = {"files": len(paths), "partitions": service.acg_count(),
                     "nodes": self.NODES, "node_ram_bytes": self.RAM,
                     "segment_cache_budget_bytes_per_node": budget,
                     "hydrated_frozen_bytes_per_node": hydrated,
                     "frozen_segment_bytes": frozen_bytes,
                     "frozen_partitions": sum(len(n.frozen) for n in
                                              service.index_nodes.values()),
                     "ops": len(ops)}
        return dep

    def _query(self, rng: random.Random, chunk: Sequence[str]) -> str:
        """A query for one file of ``chunk``: its copy, directory and name
        keywords, which together live in exactly one partition."""
        copy, _, dir_, stem, _ = _path_terms(chunk[rng.randrange(len(chunk))])
        terms = f"keyword:{copy} & keyword:{dir_} & keyword:{stem}"
        shape = rng.randrange(3)
        if shape == 0:
            return f"{terms} & size>{rng.choice((1, 4, 16, 64))}k"
        if shape == 1:
            return f"{terms} & mtime<{rng.choice((5, 30, 120))}s"
        return terms

def run_untimed(dep: Deployment, op: Op) -> None:
    """Execute one op outside the timed phase (set-up and warm-up)."""
    kind = op[0]
    if kind == "write":
        dep.write(op[1], op[2], op[3], op[4])
    elif kind == "read":
        dep.read(op[2], op[3])
    elif kind == "exit":
        dep.clients[op[1]].process_finished(op[2])
    else:
        dep.search(op[1], op[2])
    dep.service.advance(dep.think_s)


WORKLOADS = {w.name: w for w in (BuildIngest(), SearchFanout(), TieredMixed())}
