"""Propeller client.

Lives on each client machine (Figure 5): the File Access Management module
(an observer of the shared VFS) builds the per-client ACG in RAM; the File
Query Engine turns query strings — API form or query-directory form — into
predicate ASTs and fans search requests out to the Index Nodes the Master
names, in parallel; file-indexing requests go out in batches (the paper's
evaluation uses a batch size of 128) after a routing round-trip to the
Master.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.cluster.messages import (IndexUpdate, RouteEntry, RouteTable,
                                    SearchResult, UpdateBatch, UpdateOp)
from repro.errors import (ClusterError, NodeDown, NotActingMaster,
                          RpcTimeout, StaleMasterTerm, StaleRoute)
from repro.fs.interceptor import FileAccessManager
from repro.obs.freshness import NULL_FRESHNESS
from repro.obs.journal import NULL_JOURNAL
from repro.obs.tracing import NULL_TRACER
from repro.fs.namespace import Inode
from repro.fs.vfs import VirtualFileSystem
from repro.indexstructures.base import IndexKind
from repro.query.ast import Predicate
from repro.query.executor import DEGRADABLE_ERRORS, FanoutOutcome, scatter_gather
from repro.query.summary import SummarySnapshot, summary_may_match
from repro.query.parser import parse_query, parse_query_directory
from repro.query.planner import IndexSpec
from repro.replication.hedging import HedgedReply, HedgePolicy
from repro.sim.rpc import CallOutcome, HedgedOutcome, RpcNetwork

DEFAULT_BATCH_SIZE = 128

# Oldest-entry age (virtual seconds) past which an enqueue flushes the
# update queue even when it is not full.  Matches the Index Node cache's
# commit window: holding updates longer than the server-side batching
# horizon buys no further amortization, it only delays visibility.
DEFAULT_BATCH_AGE_S = 5.0

_INODE_ATTRS = ("size", "mtime", "ctime", "uid")

# How many empty partitions a client grabs per allocation round-trip.
# Bigger slabs amortize the Master RPC over more locally-placed files;
# the Master spreads each slab across Index Nodes exactly the way its
# own per-file placement would.
_ALLOC_BATCH = 4

# Minimum virtual seconds between summary-table polls.  Summaries only
# change on heartbeat delivery (every ~5 s), so polling faster buys
# nothing; the fresh-marker protocol makes the poll itself nearly free.
_SUMMARY_REFRESH_MIN_S = 5.0


@dataclass
class SearchAnswer:
    """A search's paths plus its availability verdict.

    ``degraded`` is True when at least one Index Node could not serve its
    share after retries; ``unreachable_partitions`` then names exactly
    which ACGs the answer is missing, and ``unreachable_nodes`` which
    nodes failed.  A non-degraded answer is complete.

    ``partial`` is True only under the opt-in ``deadline_s`` semantics:
    a hedged leg was answered by a follower replica that had not yet
    applied this client's latest acknowledged writes.  The answer is a
    consistent-but-stale view of ``lagging_partitions``; everything else
    is current.  A lagging answer is only accepted if it arrived within
    ``deadline_s`` of the search's start; without a deadline (or past
    it) a lagging replica is never used, so ``partial`` stays False.
    """

    paths: List[str] = field(default_factory=list)
    degraded: bool = False
    unreachable_partitions: List[int] = field(default_factory=list)
    unreachable_nodes: List[str] = field(default_factory=list)
    partial: bool = False
    lagging_partitions: List[int] = field(default_factory=list)


class PropellerClient:
    """One client's view of the Propeller service."""

    def __init__(self, vfs: VirtualFileSystem, rpc: RpcNetwork,
                 master: str = "master", batch_size: int = DEFAULT_BATCH_SIZE,
                 pid_filter: Optional[Set[int]] = None,
                 local: bool = False,
                 pump: Optional[Callable[[], None]] = None,
                 hedging: Optional[HedgePolicy] = None,
                 masters: Optional[Sequence[str]] = None) -> None:
        self.vfs = vfs
        self.rpc = rpc
        self.master = master
        # Every Master endpoint this client may re-home to.  With a warm
        # standby deployed, a MasterDown/timeout or a not-acting NACK on
        # one endpoint retries the call against the others and re-homes
        # to whichever answered (the acting Master after a promotion).
        self.master_candidates: Tuple[str, ...] = (
            tuple(masters) if masters else (master,))
        self.master_rehomes = 0
        self.batch_size = batch_size
        # Update coalescing (the group-commit feed): queued updates for
        # one file fold into the newest (upserts carry complete
        # attribute snapshots, so folding is lossless) and per-ACG
        # groups travel as one UpdateBatch envelope; the queue flushes
        # on size *or* age so a trickle never sits unsent past the
        # server's commit window.
        self.batch_age_s = DEFAULT_BATCH_AGE_S
        self._pending_since: Optional[float] = None
        self.local = local
        # Tail-tolerant search (RF > 1): a policy object makes each
        # search leg race a follower replica after a p95-derived timer.
        # None (the default) keeps the fan-out single-copy.
        self.hedging = hedging
        # Background timers (cache commits, heartbeats, checkpoints) fire
        # when virtual time advances (service.advance / pump) — never
        # inside a request, because background I/O runs concurrently with
        # foreground requests on real deployments and must not inflate a
        # measured request's latency on the single simulation clock.
        self._pump = pump if pump is not None else (lambda: None)
        self.access_manager = FileAccessManager(
            on_create=self._on_create,
            on_unlink=self._on_unlink,
            on_rename=self._on_rename,
            pid_filter=pid_filter,
        )
        vfs.add_observer(self.access_manager)
        self._pending: List[Tuple[int, IndexUpdate]] = []  # (hint, update)
        # -- client-side route cache (the routing-epoch protocol) -------------
        # The Master serves a versioned route table; this cache routes
        # update batches and search fan-outs locally, refreshing only
        # when an Index Node NACKs a stale epoch.  ``_route_nodes`` and
        # ``_route_sizes`` mirror the Master's partition→node map and its
        # view of each partition's file count; ``_file_routes`` /
        # ``_acg_files`` hold the per-file routes this client placed or
        # learned; ``_stale_files`` are files whose cached route was
        # invalidated (they must re-learn their home from the Master).
        self._route_epoch = 0
        self._cluster_target = 0
        self._route_nodes: Dict[int, Optional[str]] = {}
        self._route_sizes: Dict[int, int] = {}
        # Follower replicas per partition (RF > 1): the candidate targets
        # a search leg may hedge to.  Staleness is harmless — a wrong
        # entry just costs a failed hedge leg, never a wrong answer.
        self._route_replicas: Dict[int, Tuple[str, ...]] = {}
        # Read-your-writes watermark: the newest replication sequence
        # each partition's primary acked to *this* client.  A follower
        # answer below this mark is "lagging" and only usable under the
        # opt-in partial-results deadline.
        self._repl_seq_seen: Dict[int, int] = {}
        # Partitions the most recent search answered from a lagging
        # replica (deadline opt-in only) — surfaced by search_detailed.
        self._last_lagging: List[int] = []
        self._file_routes: Dict[int, int] = {}
        self._acg_files: Dict[int, Set[int]] = {}
        self._stale_files: Set[int] = set()
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self.stale_route_nacks = 0
        self.route_refreshes = 0
        # -- summary cache (the search-pruning layer) ------------------------
        # Partition summaries (Bloom + zone maps) fetched from the
        # Master's versioned summary table; a search leg whose summary
        # proves it cannot match is *asked to be skipped* — the owning
        # node validates the skip against its live watermark, so a stale
        # entry here costs a fallback search, never a missed result.
        self._summaries: Dict[int, SummarySnapshot] = {}
        self._summary_version = 0
        self._summary_fetch_t: Optional[float] = None
        self.summary_refreshes = 0
        # Ops/testing knob: False forces every leg to be searched (the
        # unpruned fan-out), which oracles prove pruning lossless against.
        self.prune_searches = True
        self.searches_issued = 0
        self.updates_sent = 0
        self.updates_requeued = 0
        # Deletes whose Index Node was unreachable even after retries:
        # the index entry may outlive the file until an operator (or the
        # chaos checker) reconciles.  Kept so callers can see the debt.
        self.lost_deletes: List[int] = []
        # The availability verdict of the most recent search fan-out.
        self.last_outcome: FanoutOutcome = FanoutOutcome()
        # Observability (wired by the service): spans for the search
        # path, a registry for request-latency histograms.  Both charge
        # zero simulated time.
        self.tracer = NULL_TRACER
        self.registry = None
        self.freshness = NULL_FRESHNESS
        self.journal = NULL_JOURNAL
        # Namespace integration: listing "/scope/?query" on the VFS runs
        # the search through this client's File Query Engine.
        vfs.set_query_handler(self.search_directory)

    def set_freshness(self, tracker) -> None:
        """Thread one freshness tracker through this client and its File
        Access Management module (so close-after-write events stamp)."""
        self.freshness = tracker
        self.access_manager.freshness = tracker

    # -- master re-homing ---------------------------------------------------------

    def _master_call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Call the Master, re-homing across candidates on failure.

        The current home is tried first; a ``NodeDown``/``RpcTimeout``
        (crashed or partitioned Master, after the RPC layer's own retry
        budget) or a ``NotActingMaster``/``StaleMasterTerm`` NACK (the
        endpoint is a standby, or was deposed) moves on to the next
        candidate.  Success re-homes ``self.master`` so later calls go
        straight to the acting Master.  With a single candidate (the
        default deployment) this is exactly one ``rpc.call`` — the same
        call sequence as before standbys existed."""
        last_error: Optional[ClusterError] = None
        for name in (self.master,) + tuple(
                c for c in self.master_candidates if c != self.master):
            try:
                result = self.rpc.call(name, method, *args, **kwargs)
            except (NodeDown, RpcTimeout, NotActingMaster,
                    StaleMasterTerm) as exc:
                last_error = exc
                continue
            if name != self.master:
                self.master = name
                self.master_rehomes += 1
                if self.registry is not None:
                    self.registry.counter(
                        "cluster.client.master_rehomes").inc()
            return result
        assert last_error is not None
        raise last_error

    # -- route cache --------------------------------------------------------------

    def _note_route(self, hit: bool) -> None:
        if hit:
            self.route_cache_hits += 1
            if self.registry is not None:
                self.registry.counter("cluster.client.route_cache_hits").inc()
        else:
            self.route_cache_misses += 1
            if self.registry is not None:
                self.registry.counter("cluster.client.route_cache_misses").inc()

    def _note_nacks(self, count: int) -> None:
        self.stale_route_nacks += count
        if self.registry is not None:
            self.registry.counter("cluster.client.stale_route_nacks").inc(count)

    def _learn_ack(self, ack: Any) -> None:
        """Record the replication watermark from an index_update ack.

        Last-ack-wins on purpose (not max): a partition's replication log
        restarts after splits/merges/adoption, so the *newest* acked
        sequence — not the largest ever seen — is this client's
        read-your-writes mark for hedged follower reads."""
        seq = getattr(ack, "seq", 0)
        if seq:
            self._repl_seq_seen[ack.acg_id] = seq

    def _apply_route_table(self, table: RouteTable) -> None:
        if table.fresh:
            self._route_epoch = max(self._route_epoch, table.epoch)
            return
        self._cluster_target = table.cluster_target
        if table.full:
            # Snapshot: replace wholesale.  Per-file routes into ACGs we
            # can no longer vouch for go stale and re-learn their home
            # from the Master on their next flush.
            self._route_nodes.clear()
            self._route_sizes.clear()
            self._route_replicas.clear()
            self._stale_files.update(self._file_routes)
            self._file_routes.clear()
            self._acg_files.clear()
            for entry in table.entries:
                if entry.size < 0:
                    continue
                self._route_nodes[entry.acg_id] = entry.node
                self._route_sizes[entry.acg_id] = entry.size
                if entry.replicas:
                    self._route_replicas[entry.acg_id] = entry.replicas
            self._route_epoch = table.epoch
            return
        for entry in table.entries:
            if entry.size < 0:
                # Merged away: forget the partition and re-learn where
                # its files went.
                self._route_nodes.pop(entry.acg_id, None)
                self._route_sizes.pop(entry.acg_id, None)
                self._route_replicas.pop(entry.acg_id, None)
                self._invalidate_acg(entry.acg_id)
                continue
            known = entry.acg_id in self._route_sizes
            if known and self._route_sizes[entry.acg_id] != entry.size:
                # The partition changed shape (a split or merge moved
                # files): per-file routes into it may be wrong now.  A
                # pure node change (migration, failover) keeps them.
                self._invalidate_acg(entry.acg_id)
            self._route_nodes[entry.acg_id] = entry.node
            self._route_sizes[entry.acg_id] = entry.size
            if entry.replicas:
                self._route_replicas[entry.acg_id] = entry.replicas
            else:
                self._route_replicas.pop(entry.acg_id, None)
        self._route_epoch = table.epoch

    def _invalidate_acg(self, acg_id: int) -> None:
        for file_id in self._acg_files.pop(acg_id, set()):
            self._file_routes.pop(file_id, None)
            self._stale_files.add(file_id)

    def _refresh_routes(self) -> None:
        table: RouteTable = self._master_call(
            "route_table", self._route_epoch, local=self.local)
        self.route_refreshes += 1
        if self.registry is not None:
            self.registry.counter("cluster.client.route_refreshes").inc()
        self._apply_route_table(table)

    def _refresh_summaries(self) -> None:
        """Throttled poll of the Master's partition-summary table.

        Best-effort: a failed or skipped poll just leaves the cache as
        is — pruning decisions degrade to "search everything", which is
        always safe."""
        now = self.vfs.clock.now()
        if (self._summary_fetch_t is not None
                and now - self._summary_fetch_t < _SUMMARY_REFRESH_MIN_S):
            return
        try:
            table = self._master_call("summary_table",
                                      self._summary_version, local=self.local)
        except DEGRADABLE_ERRORS:
            return
        self._summary_fetch_t = now
        self.summary_refreshes += 1
        if self.registry is not None:
            self.registry.counter("cluster.client.summary_refreshes").inc()
        if table.fresh:
            return
        self._summary_version = table.version
        self._summaries = {s.acg_id: s for s in table.entries}

    def _learn_route(self, file_id: int, acg_id: int,
                     node: Optional[str] = None) -> None:
        old = self._file_routes.get(file_id)
        if old is not None and old != acg_id:
            self._acg_files.get(old, set()).discard(file_id)
        self._file_routes[file_id] = acg_id
        self._acg_files.setdefault(acg_id, set()).add(file_id)
        self._stale_files.discard(file_id)
        if node is not None and self._route_nodes.get(acg_id) != node:
            # A Master-routed answer is at least as fresh as our table:
            # adopt its placement (it may have just assigned a node to a
            # partition our table still shows unplaced).
            self._route_nodes[acg_id] = node
            self._route_sizes.setdefault(acg_id, 0)

    def _forget_file(self, file_id: int) -> None:
        acg_id = self._file_routes.pop(file_id, None)
        if acg_id is not None:
            self._acg_files.get(acg_id, set()).discard(file_id)
        self._stale_files.discard(file_id)

    def _locate_file(self, file_id: int) -> Tuple[Optional[Tuple[str, int]], bool]:
        """Presence probe for a file whose cached route was evicted by a
        full-table refresh: ask each Index Node which owned ACG holds it.

        Returns ``((node, acg_id) | None, scan_complete)``; an incomplete
        scan means some node was unreachable, so a miss must be treated
        as "the copy may still exist" rather than "never indexed".
        Deletes are rare and the evicted-route window rarer, so this
        fan-out stays off every hot path."""
        if not self._route_nodes:
            try:
                self._refresh_routes()
            except DEGRADABLE_ERRORS:
                return None, False
        if self.registry is not None:
            self.registry.counter("cluster.client.locate_probes").inc()
        complete = True
        for node in sorted({n for n in self._route_nodes.values() if n}):
            try:
                acg_id = self.rpc.call(node, "locate_file", file_id,
                                       local=self.local)
            except DEGRADABLE_ERRORS:
                complete = False
                continue
            if acg_id is not None:
                return (node, acg_id), complete
        return None, complete

    def _cache_size(self, acg_id: int) -> int:
        """A partition's effective size: the Master's reported count or
        the number of files this client itself routed there, whichever
        is larger."""
        return max(self._route_sizes.get(acg_id, 0),
                   len(self._acg_files.get(acg_id, ())))

    def _pick_open_acg(self) -> Optional[int]:
        """Mirror of the Master's placement rule: the smallest placed
        partition still under the clustering target (ties to the oldest)."""
        best: Optional[int] = None
        best_key: Optional[Tuple[int, int]] = None
        for acg_id, node in self._route_nodes.items():
            if not node:
                continue
            size = self._cache_size(acg_id)
            if size >= self._cluster_target:
                continue
            key = (size, acg_id)
            if best_key is None or key < best_key:
                best, best_key = acg_id, key
        return best

    def _resolve_local(self, update: IndexUpdate, hint: int,
                       alloc_state: Dict[str, bool]) -> Optional[int]:
        """Route one update through the cache; None means "ask the Master".

        New files without a placement hint are placed locally — into the
        smallest open cached partition, allocating a fresh slab from the
        Master when every cached partition is full.  Hinted files whose
        producer we cannot resolve locally defer to the Master so the
        ACG co-location rule is never silently broken."""
        file_id = update.file_id
        acg_id = self._file_routes.get(file_id)
        if acg_id is not None:
            return acg_id if self._route_nodes.get(acg_id) else None
        if file_id in self._stale_files or update.op is UpdateOp.DELETE:
            return None
        if hint != -1:
            hinted = self._file_routes.get(hint)
            if hinted is not None and self._route_nodes.get(hinted):
                self._learn_route(file_id, hinted)
                return hinted
            return None
        if self._cluster_target <= 0:
            return None
        acg_id = self._pick_open_acg()
        if acg_id is None and not alloc_state.get("failed"):
            try:
                self._apply_route_table(self._master_call(
                    "allocate_partitions", _ALLOC_BATCH,
                    self._route_epoch, local=self.local))
            except DEGRADABLE_ERRORS:
                alloc_state["failed"] = True
                return None
            acg_id = self._pick_open_acg()
        if acg_id is None:
            return None
        self._learn_route(file_id, acg_id)
        return acg_id

    # -- namespace-change callbacks (from File Access Management) ----------------

    def _on_create(self, path: str, inode: Inode) -> None:
        # Creation alone does not index a file — applications choose when
        # to index (Section IV's workflow) — but deletion must clean up,
        # which is why only _on_unlink talks to the Master here.
        return None

    def _on_unlink(self, path: str, inode: Inode) -> None:
        # Cancel any still-batched updates for this file: flushing an
        # upsert *after* the delete would resurrect a dead file.
        self._pending = [(h, u) for h, u in self._pending
                         if u.file_id != inode.ino]
        cached_acg = self._file_routes.get(inode.ino)
        try:
            route: Optional[RouteEntry] = self._master_call(
                "file_deleted", inode.ino, local=self.local)
        except DEGRADABLE_ERRORS:
            # The Master itself was unreachable: the mapping (and maybe an
            # index entry) survives the file.  Record the debt — the
            # unlink must not fail because bookkeeping did.
            self.lost_deletes.append(inode.ino)
            self.freshness.forget(inode.ino)
            if self.registry is not None:
                self.registry.counter("cluster.client.lost_deletes").inc()
            return
        # Prefer the Master's answer; fall back to the route cache for
        # client-placed files the Master never learned about.
        if route is not None and route.node:
            target_node, target_acg = route.node, route.acg_id
        elif cached_acg is not None and self._route_nodes.get(cached_acg):
            target_node, target_acg = self._route_nodes[cached_acg], cached_acg
        elif inode.ino in self._stale_files:
            # The Master never learned this client-placed file and a
            # full-table refresh evicted its route — but it WAS indexed,
            # so its copy is still out there.  Locate it before the
            # delete has nowhere to go and the entry quietly survives.
            located, complete = self._locate_file(inode.ino)
            if located is None:
                self.freshness.forget(inode.ino)
                self._forget_file(inode.ino)
                if not complete:
                    # A node we could not reach may hold the copy: record
                    # the debt rather than pretending the delete landed.
                    self.lost_deletes.append(inode.ino)
                    if self.registry is not None:
                        self.registry.counter(
                            "cluster.client.lost_deletes").inc()
                return
            target_node, target_acg = located
        else:
            # Never indexed: any stamped-but-unsent change dies with it.
            self.freshness.forget(inode.ino)
            self._forget_file(inode.ino)
            return
        self.freshness.stamp(inode.ino, self.vfs.clock.now())
        # The index entry must go too, or searches would return a
        # path that no longer exists.  If the owning node is dead
        # even after retries the unlink itself must not fail — the
        # stale entry is recorded as debt instead.
        try:
            self._learn_ack(self.rpc.call(
                target_node, "index_update", target_acg,
                [IndexUpdate.delete(inode.ino)], local=self.local))
            self._forget_file(inode.ino)
            return
        except DEGRADABLE_ERRORS:
            pass
        except StaleRoute:
            # Mid-migration debris NACKed the delete: queue it for the
            # batched path, which refreshes routes and retries.
            self._queue_nacked_delete(inode.ino)
            return
        # The cached owner was unreachable — a failover may already have
        # re-homed the partition.  One route refresh, then retry the new
        # owner before recording the entry as debt.
        try:
            self._refresh_routes()
        except DEGRADABLE_ERRORS:
            pass
        new_node = self._route_nodes.get(target_acg)
        if new_node and new_node != target_node:
            try:
                self._learn_ack(self.rpc.call(
                    new_node, "index_update", target_acg,
                    [IndexUpdate.delete(inode.ino)], local=self.local))
                self._forget_file(inode.ino)
                return
            except StaleRoute:
                self._queue_nacked_delete(inode.ino)
                return
            except DEGRADABLE_ERRORS:
                pass
        self.lost_deletes.append(inode.ino)
        self.freshness.forget(inode.ino)
        self._forget_file(inode.ino)
        if self.registry is not None:
            self.registry.counter("cluster.client.lost_deletes").inc()

    def _queue_nacked_delete(self, file_id: int) -> None:
        self._note_nacks(1)
        self._pending.append((-1, IndexUpdate.delete(file_id)))
        self.updates_requeued += 1
        if self.registry is not None:
            self.registry.counter("cluster.client.requeued_updates").inc()

    def _on_rename(self, old_path: str, new_path: str, inode: Inode) -> None:
        """A rename keeps the inode but changes the path — and therefore
        the keyword index entries — so re-index under the new path if the
        file was indexed (or queued) before."""
        was_pending = any(u.file_id == inode.ino for _, u in self._pending)
        self._pending = [(h, u) for h, u in self._pending
                         if u.file_id != inode.ino]
        if was_pending or self._is_indexed(inode.ino):
            attrs: Dict[str, Any] = {name: getattr(inode, name)
                                     for name in _INODE_ATTRS}
            attrs.update(inode.attributes)
            self.freshness.stamp(inode.ino, self.vfs.clock.now())
            self._enqueue(-1, IndexUpdate.upsert(inode.ino, attrs,
                                                 path=new_path))

    def _is_indexed(self, file_id: int) -> bool:
        """Is this file indexed?  The route cache answers for files this
        client placed itself; only unknown files cost a Master lookup
        (read-only — unlike route_updates, it never creates a mapping)."""
        if file_id in self._file_routes or file_id in self._stale_files:
            return True
        return self._master_call("lookup_file", file_id,
                                 local=self.local) is not None

    def _update_for(self, path: str, pid: int = 0) -> Tuple[IndexUpdate, Optional[int]]:
        inode = self.vfs.stat(path)
        attrs: Dict[str, Any] = {name: getattr(inode, name) for name in _INODE_ATTRS}
        attrs.update(inode.attributes)
        hint = self.access_manager.last_file(pid, exclude=inode.ino)
        return IndexUpdate.upsert(inode.ino, attrs, path=path), hint

    def _enqueue(self, hint: int, update: IndexUpdate) -> None:
        """Queue one update, coalescing per file.

        The newest update for a file wins and keeps the earlier entry's
        queue position (and its placement hint, unless the new arrival
        brings one) — a rewrite-then-rewrite burst costs one slot and
        one server-side apply, and an upsert queued behind a delete can
        never resurrect out of order.  The queue flushes when it
        reaches ``batch_size`` or its oldest entry has waited past
        ``batch_age_s``."""
        now = self.vfs.clock.now()
        for i, (old_hint, old) in enumerate(self._pending):
            if old.file_id == update.file_id:
                self._pending[i] = (hint if hint != -1 else old_hint, update)
                break
        else:
            if not self._pending:
                self._pending_since = now
            self._pending.append((hint, update))
        if (len(self._pending) >= self.batch_size
                or (self._pending_since is not None
                    and now - self._pending_since >= self.batch_age_s)):
            self.flush_updates()

    def index_path(self, path: str, pid: int = 0) -> None:
        """Queue one file for (re)indexing; sent when the batch fills."""
        update, hint = self._update_for(path, pid=pid)
        self.freshness.stamp(update.file_id, self.vfs.clock.now())
        self._enqueue(hint if hint is not None else -1, update)

    def index_paths(self, paths: Sequence[str], pid: int = 0) -> None:
        """Queue several files for (re)indexing."""
        for path in paths:
            self.index_path(path, pid=pid)

    def delete_path_index(self, file_id: int) -> None:
        """Queue removal of one file id from the indices."""
        self.freshness.stamp(file_id, self.vfs.clock.now())
        self._enqueue(-1, IndexUpdate.delete(file_id))

    def flush_updates(self) -> int:
        """Send the queued batch, routing through the client's cached
        route table (the routing-epoch protocol) wherever possible.

        Locally-routable updates go straight to their Index Node stamped
        with the cached epoch; a node that no longer owns the partition
        NACKs with :class:`~repro.errors.StaleRoute`, which triggers one
        route-table refresh and a retry (or a legacy Master-routed
        fallback when the refresh doesn't change the route).  Updates the
        cache cannot answer — stale routes, hinted files with unknown
        producers — take the legacy Master round-trip.  Per-target
        delivery failures re-queue that target's updates **with their
        placement hints intact** instead of failing the whole batch.
        Returns the number of updates actually delivered (acknowledged).
        """
        if not self._pending:
            return 0
        flush_t0 = self.vfs.clock.now()
        pending, self._pending = self._pending, []
        self._pending_since = None
        hint_of: Dict[int, int] = {}
        for h, u in pending:
            hint_of.setdefault(u.file_id, h)
        if self._route_epoch == 0:
            # First contact: one full-table pull so local placement sees
            # existing partitions and the clustering target.
            try:
                self._refresh_routes()
            except DEGRADABLE_ERRORS:
                pass
        alloc_state: Dict[str, bool] = {}
        stamped: Dict[Tuple[str, int], List[IndexUpdate]] = {}
        via_master: List[IndexUpdate] = []
        unrouted_deletes: List[IndexUpdate] = []
        for _, update in pending:
            acg_id = self._resolve_local(
                update, hint_of.get(update.file_id, -1), alloc_state)
            if acg_id is None:
                self._note_route(hit=False)
                if update.op is UpdateOp.DELETE:
                    # A delete the cache cannot route must never take the
                    # route_updates path: the Master would place the
                    # unknown file as *new* and the delete would no-op in
                    # an empty ACG while the real copy survived.
                    unrouted_deletes.append(update)
                else:
                    via_master.append(update)
            else:
                self._note_route(hit=True)
                stamped.setdefault(
                    (self._route_nodes[acg_id], acg_id), []).append(update)
        delivered = self._send_stamped(stamped, hint_of)
        for update in unrouted_deletes:
            delivered += self._send_unrouted_delete(update)
        delivered += self._send_via_master(via_master, hint_of)
        if delivered > 0 and self.registry is not None:
            # Batch acknowledgement latency — what the update_ack SLO
            # watches.  Only acknowledged flushes observe: an all-requeued
            # round has no ack to time.
            self.registry.histogram(
                "cluster.client.update_ack_latency_s").observe(
                    self.vfs.clock.now() - flush_t0)
        return delivered

    def _send_unrouted_delete(self, update: IndexUpdate) -> int:
        """Deliver a DELETE with no usable cached route: a read-only
        Master lookup first, then a cluster presence probe for
        client-placed files the Master never learned about."""
        target: Optional[Tuple[str, int]] = None
        try:
            acg_id = self._master_call("lookup_file",
                                       update.file_id, local=self.local)
        except DEGRADABLE_ERRORS:
            self._requeue([update], {})
            return 0
        if acg_id is not None and self._route_nodes.get(acg_id):
            target = (self._route_nodes[acg_id], acg_id)
        if target is None:
            target, complete = self._locate_file(update.file_id)
        if target is None:
            self.freshness.forget(update.file_id)
            self._forget_file(update.file_id)
            if not complete:
                # A node we could not reach may hold the copy: record the
                # debt rather than pretending the delete landed.
                self.lost_deletes.append(update.file_id)
                if self.registry is not None:
                    self.registry.counter("cluster.client.lost_deletes").inc()
            return 0
        node, acg_id = target
        try:
            ack = self.rpc.call(node, "index_update", acg_id, [update],
                                local=self.local,
                                request_bytes=update.wire_bytes())
        except (StaleRoute,) + DEGRADABLE_ERRORS:
            self._requeue([update], {})
            return 0
        self._learn_ack(ack)
        return self._sent([update])

    def _requeue(self, updates: Sequence[IndexUpdate],
                 hint_of: Dict[int, int]) -> None:
        # Hints ride along on the requeue: a later Master-routed retry
        # must still honor ACG co-location.
        self._pending.extend((hint_of.get(u.file_id, -1), u) for u in updates)
        self.updates_requeued += len(updates)
        if self.registry is not None:
            self.registry.counter(
                "cluster.client.requeued_updates").inc(len(updates))

    def _sent(self, updates: Sequence[IndexUpdate]) -> int:
        self.updates_sent += len(updates)
        for update in updates:
            if update.op is UpdateOp.DELETE:
                self._forget_file(update.file_id)
        return len(updates)

    def _wire_payload(self, acg_id: int, updates: Sequence[IndexUpdate]):
        """What one (node, ACG) group costs on the wire: a single
        :class:`UpdateBatch` envelope for a multi-update group (shared
        framing makes it cheaper than the sum of its members), or a
        one-update list at that update's own wire size."""
        if len(updates) > 1:
            batch = UpdateBatch(acg_id, tuple(updates))
            return batch, batch.wire_bytes()
        return updates, sum(u.wire_bytes() for u in updates)

    def _send_stamped(self, stamped: Dict[Tuple[str, int], List[IndexUpdate]],
                      hint_of: Dict[int, int]) -> int:
        """Deliver cache-routed groups with the epoch stamp; handle NACKs
        and unreachable targets with one shared route refresh."""
        delivered = 0
        nacked: List[Tuple[str, int, List[IndexUpdate]]] = []
        unreachable: List[Tuple[str, int, List[IndexUpdate]]] = []
        for (node, acg_id), updates in stamped.items():
            payload, nbytes = self._wire_payload(acg_id, updates)
            try:
                ack = self.rpc.call(node, "index_update", acg_id, payload,
                                    local=self.local,
                                    request_bytes=nbytes,
                                    epoch=self._route_epoch)
            except StaleRoute:
                self._note_nacks(len(updates))
                nacked.append((node, acg_id, updates))
            except DEGRADABLE_ERRORS:
                unreachable.append((node, acg_id, updates))
            else:
                self._learn_ack(ack)
                delivered += self._sent(updates)
        if not nacked and not unreachable:
            return delivered
        refreshed = True
        try:
            self._refresh_routes()
        except DEGRADABLE_ERRORS:
            refreshed = False
        fallback: List[IndexUpdate] = []
        for old_node, acg_id, updates in nacked:
            new_node = self._route_nodes.get(acg_id)
            if refreshed and new_node and new_node != old_node:
                # The route genuinely moved (migration or failover):
                # resend under the fresh epoch.
                payload, nbytes = self._wire_payload(acg_id, updates)
                try:
                    ack = self.rpc.call(new_node, "index_update", acg_id,
                                        payload, local=self.local,
                                        request_bytes=nbytes,
                                        epoch=self._route_epoch)
                except StaleRoute:
                    self._note_nacks(len(updates))
                    self._requeue(updates, hint_of)
                except DEGRADABLE_ERRORS:
                    self._requeue(updates, hint_of)
                else:
                    self._learn_ack(ack)
                    delivered += self._sent(updates)
            else:
                # Same route even after a refresh: the node most likely
                # missed its ownership grant.  Heal through the legacy
                # Master path (unstamped, create-on-demand).
                fallback.extend(updates)
        for old_node, acg_id, updates in unreachable:
            new_node = self._route_nodes.get(acg_id)
            if refreshed and new_node and new_node != old_node:
                payload, nbytes = self._wire_payload(acg_id, updates)
                try:
                    ack = self.rpc.call(new_node, "index_update", acg_id,
                                        payload, local=self.local,
                                        request_bytes=nbytes,
                                        epoch=self._route_epoch)
                except (StaleRoute,) + DEGRADABLE_ERRORS:
                    self._requeue(updates, hint_of)
                else:
                    self._learn_ack(ack)
                    delivered += self._sent(updates)
            else:
                # The node is down and routing hasn't moved yet; the
                # next flush retries (failover may re-home it by then).
                self._requeue(updates, hint_of)
        if fallback:
            delivered += self._send_via_master(fallback, hint_of)
        return delivered

    def _send_via_master(self, updates: Sequence[IndexUpdate],
                         hint_of: Dict[int, int]) -> int:
        """Legacy path: the Master routes the batch; sends go unstamped
        (create-on-demand on the Index Node heals ownership gaps)."""
        if not updates:
            return 0
        file_ids = [u.file_id for u in updates]
        hints = {u.file_id: hint_of[u.file_id] for u in updates
                 if hint_of.get(u.file_id, -1) != -1}
        try:
            routes: List[RouteEntry] = self._master_call(
                "route_updates", file_ids, hints,
                local=self.local, request_bytes=8 * len(file_ids))
        except DEGRADABLE_ERRORS:
            # The routing round-trip itself was lost: nothing went out.
            self._requeue(updates, hint_of)
            return 0
        route_by_file = {r.file_id: r for r in routes}
        by_target: Dict[Tuple[str, int], List[IndexUpdate]] = {}
        unrouted: List[IndexUpdate] = []
        for update in updates:
            route = route_by_file.get(update.file_id)
            if route is None or not route.node:
                # A partial or inconsistent route list must not drop the
                # rest of the batch on the floor — requeue what the
                # Master didn't answer for.
                unrouted.append(update)
                continue
            if update.op is not UpdateOp.DELETE:
                self._learn_route(update.file_id, route.acg_id, node=route.node)
            by_target.setdefault((route.node, route.acg_id), []).append(update)
        if unrouted:
            self._requeue(unrouted, hint_of)
        delivered = 0
        for (node, acg_id), target_updates in by_target.items():
            payload, nbytes = self._wire_payload(acg_id, target_updates)
            try:
                ack = self.rpc.call(node, "index_update", acg_id,
                                    payload, local=self.local,
                                    request_bytes=nbytes)
            except StaleRoute:
                self._note_nacks(len(target_updates))
                self._requeue(target_updates, hint_of)
                continue
            except DEGRADABLE_ERRORS:
                self._requeue(target_updates, hint_of)
                continue
            self._learn_ack(ack)
            delivered += self._sent(target_updates)
        return delivered

    # -- ACG flush ----------------------------------------------------------------------

    def process_finished(self, pid: int) -> None:
        """A traced process exited: drop its open history and flush the
        accumulated ACG to the Index Nodes (weakly consistent)."""
        self.access_manager.process_finished(pid)
        self.flush_acg()

    def flush_acg(self) -> int:
        """Push the client-side ACG to the Index Nodes that own each edge.

        Vertices with a cached route are grouped locally; only the
        remainder costs a Master routing round-trip (whose answers are
        learned into the cache for next time)."""
        acg = self.access_manager.drain()
        if acg.vertex_count == 0:
            return 0
        vertices = sorted(acg.vertices())
        # Producers place consumers: hint each edge target with its source.
        hints: Dict[int, int] = {}
        for u, v, _ in acg.edges():
            hints.setdefault(v, u)
        placement: Dict[int, Tuple[str, int]] = {}
        unknown: List[int] = []
        for file_id in vertices:
            acg_id = self._file_routes.get(file_id)
            node = self._route_nodes.get(acg_id) if acg_id is not None else None
            if acg_id is not None and node and file_id not in self._stale_files:
                self._note_route(hit=True)
                placement[file_id] = (node, acg_id)
            else:
                self._note_route(hit=False)
                unknown.append(file_id)
        if unknown:
            routes: List[RouteEntry] = self._master_call(
                "route_updates", unknown,
                {f: hints[f] for f in unknown if f in hints},
                local=self.local, request_bytes=8 * len(unknown))
            for route in routes:
                if not route.node:
                    continue
                self._learn_route(route.file_id, route.acg_id, node=route.node)
                placement[route.file_id] = (route.node, route.acg_id)
        grouped: Dict[Tuple[str, int], List[Tuple[int, int, int]]] = {}
        for u, v, w in acg.edges():
            if u in placement:
                grouped.setdefault(placement[u], []).append((u, v, w))
        for file_id in vertices:
            if file_id in placement:
                grouped.setdefault(placement[file_id], []).append((file_id, -1, 0))
        for (node, acg_id), records in grouped.items():
            self.rpc.call(node, "flush_acg", acg_id, records,
                          local=self.local, request_bytes=12 * len(records))
        return acg.edge_count

    # -- index DDL ---------------------------------------------------------------------------

    def create_index(self, name: str, kind: IndexKind, attrs: Sequence[str]) -> IndexSpec:
        """Create a user-defined index with a globally unique name."""
        spec = IndexSpec(name=name, kind=kind, attrs=tuple(attrs))
        self._master_call("create_index", spec, local=self.local)
        return spec

    # -- search API -----------------------------------------------------------------------------

    def search(self, query: str, index_name: Optional[str] = None,
               sort_by: Optional[str] = None, descending: bool = False,
               limit: Optional[int] = None,
               deadline_s: Optional[float] = None) -> List[str]:
        """Run an API-form query; returns matching file paths.

        Default order is lexicographic by path.  ``sort_by`` orders by an
        attribute instead (files missing it sort last), ``descending``
        flips the order, and ``limit`` truncates — the result-shaping
        analytics pipelines need ("the 10 biggest segments of the hour").

        ``deadline_s`` opts into partial results under replication: when
        a partition's primary cannot answer, a *lagging* follower's
        answer is accepted instead of failing the leg — but only if it
        arrived within ``deadline_s`` (virtual seconds, measured from
        the start of the search); a partial answer that misses the
        deadline is refused and the leg degrades as if no opt-in were
        given.  The deadline never truncates *sound* answers (a live
        primary or a caught-up follower) — it bounds how late stale data
        may be accepted, not how long the search may run.  Use
        :meth:`search_detailed` to see which partitions were stale.
        """
        results = self._search_raw(parse_query(query), index_name,
                                   query=query, deadline_s=deadline_s)
        if sort_by is None:
            paths = sorted({p for r in results for p in r.paths})
            return paths[:limit] if limit is not None else paths
        # Attribute ordering needs values: gather (path, key) pairs from
        # the per-node answers' id->attrs via a second aggregation pass.
        keyed: Dict[str, Any] = {}
        for result in results:
            for path in result.paths:
                keyed.setdefault(path, None)
        values = self._attribute_values(results, sort_by)
        ordered = sorted(
            keyed,
            key=lambda p: ((values.get(p) is None),
                           values.get(p) if values.get(p) is not None else 0,
                           p),
            reverse=descending,
        )
        return ordered[:limit] if limit is not None else ordered

    def search_detailed(self, query: str,
                        index_name: Optional[str] = None,
                        deadline_s: Optional[float] = None) -> SearchAnswer:
        """Like :meth:`search`, but the answer carries its availability
        verdict: whether the fan-out degraded, which partitions and nodes
        the result set is missing when it did, and — under the
        ``deadline_s`` opt-in — which partitions were answered from a
        lagging replica (``partial``/``lagging_partitions``)."""
        paths = self.search(query, index_name=index_name,
                            deadline_s=deadline_s)
        outcome = self.last_outcome
        return SearchAnswer(
            paths=paths,
            degraded=outcome.degraded,
            unreachable_partitions=outcome.unreachable_partitions,
            unreachable_nodes=sorted(outcome.unreachable),
            partial=bool(self._last_lagging),
            lagging_partitions=list(self._last_lagging),
        )

    def _attribute_values(self, results: Sequence[SearchResult],
                          attr: str) -> Dict[str, Any]:
        """Fetch the sort attribute for each result path via stat on the
        shared VFS (paths are live files; their inodes carry the value)."""
        values: Dict[str, Any] = {}
        for result in results:
            for path in result.paths:
                try:
                    inode = self.vfs.stat(path)
                except Exception:
                    continue
                if attr in ("size", "mtime", "ctime", "uid"):
                    values[path] = getattr(inode, attr)
                else:
                    values[path] = inode.attributes.get(attr)
        return values

    def search_directory(self, query_path: str) -> List[str]:
        """Run a dynamic query-directory, e.g. ``/data/?size>1m``.

        The scope prefix restricts results to paths under it.
        """
        scope, predicate = parse_query_directory(query_path)
        paths = self._search(predicate, None)
        if scope == "/":
            return paths
        prefix = scope.rstrip("/") + "/"
        return [p for p in paths if p.startswith(prefix) or p == scope]

    def select(self, query: str, attributes: Sequence[str],
               index_name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Search with a projection: returns one row per match with the
        requested attributes (plus ``path``), the shape analytics
        pipelines consume directly instead of re-statting every result.

        Missing attributes come back as None.  Rows are ordered by path.
        """
        results = self._search_raw(parse_query(query), index_name)
        rows: List[Dict[str, Any]] = []
        for path in sorted({p for r in results for p in r.paths}):
            try:
                inode = self.vfs.stat(path)
            except Exception:
                continue  # raced with an unlink
            row: Dict[str, Any] = {"path": path}
            for attr in attributes:
                if attr in ("size", "mtime", "ctime", "uid"):
                    row[attr] = getattr(inode, attr)
                else:
                    row[attr] = inode.attributes.get(attr)
            rows.append(row)
        return rows

    def explain(self, query: str,
                index_name: Optional[str] = None) -> Dict[int, List[str]]:
        """EXPLAIN a query: ACG id → the access paths its Index Node
        would use.  Nothing is executed or committed."""
        predicate = parse_query(query)
        routing: Dict[str, List[int]] = self._master_call(
            "route_search", index_name, local=self.local)
        names = [index_name] if index_name else None
        out: Dict[int, List[str]] = {}
        for node, acg_ids in sorted(routing.items()):
            for acg_id, descriptions in self.rpc.call(
                    node, "explain", acg_ids, predicate, names,
                    local=self.local):
                out[acg_id] = descriptions
        return out

    def search_ids(self, query: str, index_name: Optional[str] = None) -> Set[int]:
        """Like :meth:`search` but returns file ids."""
        results = self._search_raw(parse_query(query), index_name)
        ids: Set[int] = set()
        for result in results:
            ids |= result.file_ids
        return ids

    def _search(self, predicate: Predicate, index_name: Optional[str]) -> List[str]:
        results = self._search_raw(predicate, index_name)
        paths: Set[str] = set()
        for result in results:
            paths.update(result.paths)
        return sorted(paths)

    def _search_raw(self, predicate: Predicate,
                    index_name: Optional[str],
                    query: Optional[str] = None,
                    deadline_s: Optional[float] = None) -> List[SearchResult]:
        clock = self.vfs.clock
        start = clock.now()
        # The partial-answer opt-in is enforced as an *absolute* virtual
        # time: a lagging replica's answer is only accepted if it landed
        # by this instant.  None means "never accept stale data".
        deadline_t = (start + deadline_s) if deadline_s is not None else None
        # Per-search hedge bookkeeping, filled in by the leg closures:
        # which partitions a lagging replica ended up answering for.
        hedge_ctx: Dict[str, Set[int]] = {"lagging": set()}
        with self.tracer.span("search", query=query) as root:
            # Any pending updates of ours must be visible to our own search.
            with self.tracer.span("flush_updates"):
                self.flush_updates()
            self.searches_issued += 1
            if self._route_epoch == 0:
                try:
                    self._refresh_routes()
                except DEGRADABLE_ERRORS:
                    pass
            self._refresh_summaries()
            # Fan out along the cached route table — every placed
            # partition, since even a zero-size one may have absorbed
            # updates since the table was fetched.  Partitions whose
            # cached summary *proves* they cannot match are asked to be
            # skipped instead of searched: the skip request carries the
            # summary's watermark and the owning node only honours it
            # after re-validating (exact watermark, nothing pending), so
            # pruning can never lose a result — a Bloom false positive
            # or stale summary just costs a searched leg.
            now = clock.now()
            routing: Dict[str, List[int]] = {}
            pruned: Dict[str, Dict[int, Tuple[str, int, int]]] = {}
            for acg_id, node in self._route_nodes.items():
                if not node:
                    continue
                snap = (self._summaries.get(acg_id)
                        if self.prune_searches else None)
                if (snap is not None and not snap.dirty
                        and not summary_may_match(snap, predicate, now)):
                    pruned.setdefault(node, {})[acg_id] = snap.watermark
                else:
                    routing.setdefault(node, []).append(acg_id)
            prune_attempts = sum(len(v) for v in pruned.values())
            # Per-node leg accounting: a failed leg's *pruned* partitions
            # count as unserved too (their skip was never validated), so
            # the retry round re-covers them.
            legs: Dict[str, List[int]] = {n: list(a) for n, a in routing.items()}
            for node, skips in pruned.items():
                legs.setdefault(node, []).extend(sorted(skips))
            names = [index_name] if index_name else None
            if not legs:
                outcome = FanoutOutcome()
            else:
                # Index Nodes serve their share in parallel (Figure 6);
                # network fan-out overlaps too, which clock.parallel
                # models.  ``parallel=True`` tells the profiler these
                # children overlap: wall time is the slowest leg, not the
                # sum.  Legs that fail transiently after retries degrade
                # the answer instead of failing it (scatter_gather).
                with self.tracer.span("fanout", parallel=True,
                                      nodes=len(legs)) as span:
                    outcome = scatter_gather(
                        clock, legs,
                        lambda n: self._call_search_leg(
                            n, routing.get(n, []), pruned.get(n) or None,
                            predicate, names, hedge_ctx, deadline_t))
                    if outcome.degraded:
                        span.set_attribute(
                            "unreachable", sorted(outcome.unreachable))
            if (outcome.stale or outcome.unreachable
                    or outcome.max_node_epoch() > self._route_epoch):
                outcome = self._retry_search(clock, outcome, predicate, names,
                                             hedge_ctx, deadline_t)
            results = list(outcome.results)
        self.last_outcome = outcome
        self._last_lagging = sorted(hedge_ctx["lagging"])
        if self._last_lagging:
            self.journal.emit("search.partial",
                              lagging=list(self._last_lagging))
        if outcome.degraded:
            self.journal.emit(
                "search.degraded",
                unreachable_partitions=sorted(
                    outcome.unreachable_partitions),
                unreachable_nodes=sorted(outcome.unreachable))
        if self.registry is not None:
            self.registry.counter("cluster.client.searches").inc()
            if self._last_lagging:
                self.registry.counter("cluster.client.partial_searches").inc()
            if outcome.degraded:
                self.registry.counter("cluster.client.degraded_searches").inc()
                self.registry.counter(
                    "cluster.client.unreachable_partitions").inc(
                        len(outcome.unreachable_partitions))
            if prune_attempts:
                self.registry.counter("search.prune_attempts").inc(
                    prune_attempts)
            self.registry.counter("search.partitions_pruned").inc(
                len(outcome.pruned_ok))
            self.registry.counter("search.partitions_searched").inc(
                len(results))
            self.registry.histogram("cluster.client.search_latency_s").observe(
                clock.now() - start)
        return results

    def _call_search_leg(self, node: str, acg_ids: List[int],
                         pruned: Optional[Dict[int, Tuple[str, int, int]]],
                         predicate: Predicate, names: Optional[List[str]],
                         hedge_ctx: Dict[str, Set[int]],
                         deadline_t: Optional[float]):
        """One search leg, hedged to a follower replica when possible.

        Without a hedging policy (RF = 1) this is exactly the historical
        single call.  With one, the primary's call races a follower: the
        hedge launches only if the primary is still outstanding after
        the policy's p95-derived delay, and the first *sound* answer
        wins.  The follower searches the pruned partitions too (it
        cannot validate summary skips), so a follower answer is always
        oracle-equal to an unpruned primary answer."""
        policy = self.hedging
        leg_acgs = sorted(set(acg_ids) | set(pruned or ()))
        secondary = (self._hedge_secondary(node, leg_acgs)
                     if policy is not None and policy.enabled else None)
        clock = self.vfs.clock
        leg_start = clock.now()
        if secondary is None:
            reply = self.rpc.call(node, "search", acg_ids, predicate,
                                  names, local=self.local,
                                  epoch=self._route_epoch, pruned=pruned)
            if policy is not None:
                policy.observe(clock.now() - leg_start)
            return reply
        min_seqs = {a: self._repl_seq_seen[a] for a in leg_acgs
                    if self._repl_seq_seen.get(a)}
        out = self.rpc.hedged_call(
            node, secondary, "search", policy.delay_s(),
            acg_ids, predicate, names,
            secondary_method="search_replica",
            secondary_args=(leg_acgs, predicate, names, min_seqs),
            secondary_kwargs={"local": self.local},
            local=self.local, epoch=self._route_epoch, pruned=pruned)
        if not out.hedged and not out.primary.ok:
            # The primary failed *before* the hedge timer (a dead node
            # fails instantly without a retry policy), so the race never
            # launched the follower — rescue-call it directly: it is the
            # only path left to an answer for this leg.
            try:
                value = self.rpc.call(secondary, "search_replica",
                                      leg_acgs, predicate, names, min_seqs,
                                      local=self.local)
            except ClusterError:
                pass  # leg degrades on the primary's original error
            else:
                if self.registry is not None:
                    self.registry.counter("cluster.client.hedge_rescues").inc()
                out = HedgedOutcome(
                    primary=out.primary,
                    secondary=CallOutcome(ok=True, value=value),
                    primary_end=out.primary_end,
                    secondary_end=clock.now(), hedged=True)
        return self._resolve_hedge(clock, leg_start, out, policy,
                                   hedge_ctx, deadline_t)

    def _hedge_secondary(self, primary: str,
                         acg_ids: List[int]) -> Optional[str]:
        """The follower node to hedge a leg to: one that (per the cached
        route table) follows *every* partition in the leg — a partial
        cover would come back ``missing`` and be unusable anyway."""
        if not acg_ids:
            return None
        counts: Dict[str, int] = {}
        for acg_id in acg_ids:
            for replica in self._route_replicas.get(acg_id, ()):
                if replica != primary:
                    counts[replica] = counts.get(replica, 0) + 1
        full = sorted(n for n, c in counts.items() if c == len(acg_ids))
        return full[0] if full else None

    def _resolve_hedge(self, clock, leg_start: float, out, policy,
                       hedge_ctx: Dict[str, Set[int]],
                       deadline_t: Optional[float]):
        """Pick the leg's answer from a hedged race.

        Soundness order: the primary's answer is always sound; a
        follower's is sound when it covers every requested partition at
        or above this client's acked watermark.  The first sound
        finisher wins (the loser's remaining time is not waited for).  A
        *lagging* follower answer is a last resort, accepted only under
        the partial-results opt-in when the primary failed outright,
        and only if it arrived by ``deadline_t`` (the absolute
        virtual-time deadline derived from the search's ``deadline_s``)
        — stale data that also missed the deadline has no value left.
        Accepted lagging answers are recorded in ``hedge_ctx`` so the
        caller can mark the answer partial."""
        primary = out.primary
        if primary.ok:
            policy.observe(out.primary_end - leg_start)
        if not out.hedged:
            if primary.ok:
                return primary.value
            raise primary.error
        secondary = out.secondary
        reply = secondary.value if secondary.ok else None
        covers = reply is not None and not reply.missing
        sound = covers and not reply.lagging
        if primary.ok and (not sound
                           or out.primary_end <= out.secondary_end):
            clock.advance_to(out.primary_end)
            return primary.value
        if sound:
            clock.advance_to(out.secondary_end)
            return HedgedReply(node=reply.node, epoch=reply.epoch,
                               results=reply.results, from_replica=True)
        if (covers and deadline_t is not None
                and out.secondary_end <= deadline_t):
            clock.advance_to(out.secondary_end)
            hedge_ctx["lagging"].update(reply.lagging)
            return HedgedReply(node=reply.node, epoch=reply.epoch,
                               results=reply.results, from_replica=True,
                               lagging=tuple(reply.lagging))
        raise primary.error

    def _retry_search(self, clock, outcome: FanoutOutcome,
                      predicate: Predicate,
                      names: Optional[List[str]],
                      hedge_ctx: Dict[str, Set[int]],
                      deadline_t: Optional[float] = None) -> FanoutOutcome:
        """One retry round after a stale fan-out: refresh the route table
        and re-query only the partitions the first round didn't serve.

        Validated skips (``pruned_ok``) count as served; the retry round
        itself never prunes — after a stale first round the summaries
        are suspect, so it fails open and searches everything left.  The
        retry legs go through the same hedged path as the first round:
        the refreshed route table carries the current replica sets, so a
        leg whose primary is down can still be rescued by a follower."""
        self._note_nacks(sum(len(v) for v in outcome.stale.values()))
        try:
            self._refresh_routes()
        except DEGRADABLE_ERRORS:
            return outcome
        served = {r.acg_id for r in outcome.results} | outcome.pruned_ok
        routing: Dict[str, List[int]] = {}
        for acg_id, node in self._route_nodes.items():
            if node and acg_id not in served:
                routing.setdefault(node, []).append(acg_id)
        if not routing:
            # Everything still placed was already answered; the failed
            # legs covered partitions the fresh table no longer lists.
            return FanoutOutcome(results=list(outcome.results),
                                 node_epochs=dict(outcome.node_epochs),
                                 pruned_ok=set(outcome.pruned_ok))
        with self.tracer.span("fanout_retry", parallel=True,
                              nodes=len(routing)):
            retry = scatter_gather(
                clock, routing,
                lambda n: self._call_search_leg(
                    n, routing[n], None, predicate, names,
                    hedge_ctx, deadline_t))
        return FanoutOutcome(
            results=list(outcome.results) + list(retry.results),
            unreachable=retry.unreachable,
            errors=retry.errors,
            stale=retry.stale,
            node_epochs={**outcome.node_epochs, **retry.node_epochs},
            pruned_ok=outcome.pruned_ok | retry.pruned_ok)

    def profile_search(self, query: str,
                       index_name: Optional[str] = None):
        """Run one search under tracing and return its
        :class:`~repro.obs.profile.QueryProfile` (EXPLAIN ANALYZE).

        Requires tracing to be enabled on the deployment
        (``service.enable_tracing()``); the no-op tracer keeps no spans
        to profile.
        """
        from repro.obs.profile import QueryProfile

        if not self.tracer.enabled:
            raise ClusterError(
                "tracing is disabled: call service.enable_tracing() before "
                "profiling a query")
        self.search(query, index_name=index_name)
        root = self.tracer.last_root("search")
        assert root is not None  # the search above just recorded one
        return QueryProfile(root, query=query)
