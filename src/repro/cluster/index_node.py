"""Index Node.

Hosts the partitioned file indices: for every ACG assigned to it, an
:class:`AcgReplica` bundles the ACG itself, the attribute store (ground
truth for residual filtering) and one instance of each user-defined index.
Updates take the WAL → cache → commit path; searches force a commit of the
queried ACGs first, so results are always consistent with acknowledged
updates.  Background duties: committing timed-out cache buckets,
heart-beating the Master Node, and computing/executing ACG splits on
instruction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.cluster.cache import DEFAULT_TIMEOUT_S, IndexCache
from repro.cluster.messages import (Heartbeat, IndexUpdate, ReplicaSearchReply,
                                    SearchReply, SearchResult, UpdateAck,
                                    UpdateOp)
from repro.cluster.segments import (FrozenPartition, SegmentCache, TierPolicy,
                                    dump_segment, load_segment,
                                    load_segment_payload, segment_key)
from repro.cluster.wal import WriteAheadLog
from repro.core.acg import AccessCausalityGraph
from repro.core.partitioner import PartitioningPolicy, split_partition
from repro.errors import (ClusterError, ObjectStoreError, SegmentCorruption,
                          StaleMasterTerm, StaleReplEpoch, StaleRoute,
                          UnknownAcg)
from repro.indexstructures.base import Index, IndexKind, make_index
from repro.obs.freshness import NULL_FRESHNESS
from repro.obs.journal import NULL_JOURNAL
from repro.obs.tracing import NULL_TRACER
from repro.query.ast import Predicate
from repro.query.canonical import canonicalize, is_time_dependent
from repro.query.executor import (DEGRADABLE_ERRORS, AttributeStore, execute,
                                  execute_plans, tokenize_path)
from repro.replication.log import ReplicationLog
from repro.query.summary import (PartitionSummary, SummarySnapshot,
                                 summary_may_match)
from repro.query.planner import (
    KEYWORD_ATTR,
    IndexSpec,
    Plan,
    plan_query,
    plan_query_set,
)
from repro.sim.machine import Machine
from repro.sim.rpc import RpcEndpoint

# CPU cost constants (order-of-magnitude figures for 2014-era Xeons).
_CACHE_ADD_OPS = 2_000          # hash insert into the in-memory cache
_COMMIT_UPDATE_OPS = 8_000      # apply one update to one index
_EXAMINE_OPS = 500              # residual-filter one candidate
_REBUILD_OPS_PER_FILE = 100     # re-observe one file during summary rebuild
# Group-commit amortization.  A batch envelope pays the full per-update
# price once (parse, route, cache-bucket lookup) and a marginal price
# for each further update that rides the same envelope / sorted run:
_CACHE_ADD_BATCHED_OPS = 500    # marginal cache insert within an envelope
_COMMIT_BATCH_BASE_OPS = 4_000  # per-batch setup of one bulk apply
_COMMIT_BATCHED_UPDATE_OPS = 2_000  # marginal bulk-apply cost per update
# Bitmap posting lists materialize results word-at-a-time instead of
# doc-at-a-time; one examine charge covers this many matches.
_VECTOR_WIDTH = 8
# Tiered storage: CPU to serialize one file into a frozen segment and
# to parse it back out during hydration (zlib + framing per file).
_FREEZE_OPS_PER_FILE = 200
_HYDRATE_OPS_PER_FILE = 150

# Per-node result cache entries (each is one ACG's answer to one
# canonical predicate at one commit watermark).
_RESULT_CACHE_CAP = 256

# RPCs only a Master originates.  Each is registered behind a term
# fence: the caller stamps its master term and a stamp older than the
# newest this node has seen is rejected with StaleMasterTerm — a
# deposed-but-alive Master must not mutate cluster state (the control
# plane's analogue of the replication epoch fence).  Unstamped calls
# (term 0, e.g. from tests driving a node directly) bypass the fence.
_MASTER_RPCS = frozenset({
    "create_index", "compute_split", "extract_partition",
    "install_partition", "drop_partition", "heartbeat", "adopt_acg",
    "own_partition", "transfer_out", "finish_migration",
    "cancel_transfer", "checkpoint_acg", "set_followers",
    "replica_watermark", "promote_replica", "drop_follower",
    "reset_follower_ack",
})


class AcgReplica:
    """Everything one Index Node keeps for one ACG."""

    def __init__(self, acg_id: int, machine: Machine,
                 incarnation: int = 0) -> None:
        self.acg_id = acg_id
        self.machine = machine
        self.graph = AccessCausalityGraph()
        self.store = AttributeStore()
        self.indexes: Dict[str, Index] = {}
        self.specs: Dict[str, IndexSpec] = {}
        # Commit-watermark pieces: ``incarnation`` is a per-node counter
        # stamped at replica creation (a dropped-then-recreated replica
        # can reach the same applied count with different content, so
        # the count alone is not a safe version), ``applied`` bumps once
        # per committed update.  Together with the node name they form
        # the watermark that versions summaries and the result cache.
        self.incarnation = incarnation
        self.applied = 0
        # Pruning summary, widened in lock-step with every apply() — the
        # bookkeeping rides on the commit's existing CPU charge.
        self.summary = PartitionSummary()

    # On-disk footprint multiplier: the attribute store plus roughly one
    # serialized structure per index (B+tree, hash, serialized KD-tree).
    _INDEX_BYTES_FACTOR = 4

    def resident_bytes(self) -> int:
        """Bytes this ACG's indices occupy when loaded into RAM.

        The prototype stores each group's indices serialized (notably the
        KD-tree) and loads them whole to serve a query — this is the unit
        of the residency/eviction model in :class:`IndexNode`.
        """
        return 4096 + self._INDEX_BYTES_FACTOR * self.store.estimated_bytes()

    def ensure_index(self, spec: IndexSpec) -> Index:
        """Instantiate the index for ``spec`` on first use."""
        index = self.indexes.get(spec.name)
        if index is None:
            kwargs = {}
            if spec.kind is IndexKind.KDTREE:
                kwargs["dimensions"] = len(spec.attrs)
            index = make_index(spec.kind, **kwargs)
            self.indexes[spec.name] = index
            self.specs[spec.name] = spec
        return index

    # -- applying committed updates ------------------------------------------

    def _index_key(self, spec: IndexSpec, attrs: Dict[str, Any]) -> Optional[Any]:
        if spec.kind is IndexKind.KDTREE:
            values = [attrs.get(a) for a in spec.attrs]
            # A K-D index covers only files where every attribute is
            # present *and numeric*; others are served by the residual
            # filter path.
            if any(v is None or isinstance(v, (str, bytes)) for v in values):
                return None
            try:
                return tuple(float(v) for v in values)
            except (TypeError, ValueError):
                return None
        value = attrs.get(spec.attrs[0])
        return value

    def _deindex(self, file_id: int) -> None:
        old_attrs = self.store.attrs(file_id)
        old_keywords = self.store.keywords(file_id)
        for name, spec in self.specs.items():
            index = self.indexes[name]
            if spec.attrs[0] == KEYWORD_ATTR and spec.kind is IndexKind.HASH:
                for token in old_keywords:
                    index.remove(token, file_id)
                continue
            key = self._index_key(spec, old_attrs)
            if key is not None:
                index.remove(key, file_id)

    def apply(self, update: IndexUpdate) -> None:
        """Apply one committed update to the store and every index."""
        self.machine.compute(_COMMIT_UPDATE_OPS * max(1, len(self.specs)))
        self.applied += 1
        if update.op is UpdateOp.DELETE:
            self._deindex(update.file_id)
            self.store.drop(update.file_id)
            self.graph.remove_file(update.file_id)
            # Deletes leave the summary wide (safe direction); rebuild
            # deterministically once the slack passes the live set size.
            self.summary.note_delete()
            if self.summary.needs_rebuild(len(self.store)):
                self.machine.compute(
                    _REBUILD_OPS_PER_FILE * max(1, len(self.store)))
                self.summary.rebuild(self.store)
            return
        self._deindex(update.file_id)
        self.store.put(update.file_id, update.attr_dict, path=update.path)
        attrs = self.store.attrs(update.file_id)
        self.summary.observe(attrs, self.store.keywords(update.file_id))
        for name, spec in self.specs.items():
            index = self.indexes[name]
            if spec.attrs[0] == KEYWORD_ATTR and spec.kind is IndexKind.HASH:
                for token in self.store.keywords(update.file_id):
                    index.insert(token, update.file_id)
                continue
            key = self._index_key(spec, attrs)
            if key is not None:
                index.insert(key, update.file_id)

    def apply_batch(self, updates: Sequence[IndexUpdate]) -> None:
        """Apply one group commit: amortized charge, bulk index insert.

        Final index/store/summary state is identical to calling
        :meth:`apply` per update in order (upserts carry complete
        attribute snapshots, so last-write-wins composes), but the work
        is batched: store mutations run in order, index insertions for
        upserted files are deferred, grouped per index, and merged in one
        sorted pass (``bulk_insert``), and the summary widens once per
        batch over the surviving files.  The CPU charge amortizes
        accordingly: full setup once, a marginal cost per update.
        """
        if not updates:
            return
        nspecs = max(1, len(self.specs))
        self.machine.compute(_COMMIT_BATCH_BASE_OPS * nspecs
                             + _COMMIT_BATCHED_UPDATE_OPS * nspecs * len(updates))
        # Files upserted in this batch whose index entries are deferred
        # (dict preserves first-upsert order for deterministic inserts).
        pending: Dict[int, None] = {}
        for update in updates:
            self.applied += 1
            file_id = update.file_id
            if update.op is UpdateOp.DELETE:
                pending.pop(file_id, None)
                self._deindex(file_id)
                self.store.drop(file_id)
                self.graph.remove_file(file_id)
                self.summary.note_delete()
                if self.summary.needs_rebuild(len(self.store)):
                    self.machine.compute(
                        _REBUILD_OPS_PER_FILE * max(1, len(self.store)))
                    self.summary.rebuild(self.store)
                continue
            if file_id not in pending:
                # First touch this batch: clear the file's live index
                # entries once; re-upserts below only refresh the store.
                self._deindex(file_id)
                pending[file_id] = None
            self.store.put(update.file_id, update.attr_dict, path=update.path)
        entries: List[Tuple[Dict[str, Any], Sequence[str]]] = []
        by_index: Dict[str, List[Tuple[Any, int]]] = {}
        for file_id in pending:
            if file_id not in self.store:
                continue
            attrs = self.store.attrs(file_id)
            keywords = self.store.keywords(file_id)
            entries.append((attrs, keywords))
            for name, spec in self.specs.items():
                if spec.attrs[0] == KEYWORD_ATTR and spec.kind is IndexKind.HASH:
                    by_index.setdefault(name, []).extend(
                        (token, file_id) for token in keywords)
                    continue
                key = self._index_key(spec, attrs)
                if key is not None:
                    by_index.setdefault(name, []).append((key, file_id))
        self.summary.observe_batch(entries)
        for name, pairs in by_index.items():
            index = self.indexes[name]
            bulk = getattr(index, "bulk_insert", None)
            if bulk is not None:
                bulk(pairs)
            else:
                for key, file_id in pairs:
                    index.insert(key, file_id)

    @property
    def file_count(self) -> int:
        """Files this replica currently indexes."""
        return len(self.store)


@dataclass
class PrimaryReplState:
    """What a primary keeps per replicated partition it owns (RF > 1).

    ``acked`` maps a follower to the highest sequence it confirmed
    applying; ``-1`` marks a follower assigned but not yet installed
    (the catch-up path bootstraps it with a snapshot first).
    """

    repl_epoch: int = 1
    log: ReplicationLog = field(default_factory=ReplicationLog)
    followers: Tuple[str, ...] = ()
    acked: Dict[str, int] = field(default_factory=dict)


@dataclass
class FollowerState:
    """An in-memory follower replica of a partition primaried elsewhere.

    Purely volatile: a follower crash loses it (the primary re-installs
    on catch-up) and it never counts toward the node's owned replicas —
    ownership, heartbeat sizes, and chaos presence checks all ignore it.
    """

    primary: str
    repl_epoch: int
    replica: AcgReplica
    applied_seq: int = 0
    last_apply_t: float = 0.0


class IndexNode:
    """One Propeller Index Node."""

    def __init__(self, name: str, machine: Machine,
                 cache_timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        self.name = name
        self.machine = machine
        # Log appends are absorbed by the drive's write-back cache (the
        # testbed's Barracuda has 32 MB of it), so they pay bandwidth but
        # not a head seek even when interleaved with index I/O.  A
        # dedicated DiskDevice keeps the log's sequential stream separate
        # from the index pages' random stream on the shared clock.
        from repro.sim.disk import DiskDevice

        self._log_device = DiskDevice(machine.clock, machine.disk.model)
        self.wal = WriteAheadLog(self._log_device)
        # Checkpoint/adoption I/O goes to *shared storage* (Figure 5), a
        # different set of spindles than the node's local index disk — so
        # it gets its own device and never steals the local head.
        self._shared_device = DiskDevice(machine.clock, machine.disk.model)
        # Residency model: an ACG's serialized indices are loaded whole
        # (one seek + a sequential transfer) the first time they are
        # touched and stay in RAM until evicted LRU when the node's share
        # of indices outgrows its memory.  This is the page-fault
        # behaviour behind Table IV's super-linear scaling knee.
        self._resident: "OrderedDict[int, int]" = OrderedDict()
        self._resident_bytes = 0
        # Shared storage (attached by the service): indices and ACGs are
        # checkpointed here as regular files, and failover restores from
        # here (Section IV).
        self.shared_vfs = None
        self.cache = IndexCache(self._commit_updates, timeout_s=cache_timeout_s)
        self.tracer = NULL_TRACER
        self.freshness = NULL_FRESHNESS
        # Cluster event journal (lifecycle, fences, deposals); wired by
        # the deployment, inert by default.
        self.journal = NULL_JOURNAL
        self.replicas: Dict[int, AcgReplica] = {}
        self._global_specs: Dict[str, IndexSpec] = {}
        # Monotonic replica-incarnation counter: every replica this node
        # ever creates gets a distinct incarnation, making commit
        # watermarks identity-scoped (see AcgReplica.__init__).
        self._next_incarnation = 0
        # Per-ACG query result cache: (acg_id, canonical predicate,
        # index-name tuple) -> (watermark-tail, SearchResult).  Entries
        # are valid only while the replica's (incarnation, applied) pair
        # still matches — a commit invalidates by watermark advance, for
        # free.  Time-dependent predicates are never cached.
        self._result_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self.result_cache_hits = 0
        self.result_cache_misses = 0
        # Ops/benchmarking knob: False bypasses the result cache so every
        # search pays the real plan/scan cost (e.g. to measure residency).
        self.result_caching = True
        # Prune-validation outcomes (client-requested skips this node
        # confirmed vs. had to search anyway).
        self.prunes_validated = 0
        self.prune_fallbacks = 0
        # Crash-consistency bookkeeping: when this node last persisted
        # its ACGs to shared storage (failover restores that snapshot),
        # and how many WAL records recovery has had to drop at torn or
        # corrupt tails over the node's lifetime.
        self.last_checkpoint_t: float = 0.0
        self.wal_replay_dropped_total = 0
        self.wal_replay_skipped_total = 0
        # Routing-epoch state.  ``route_epoch_seen`` is the newest epoch
        # the Master has told this node about (ownership grants and
        # migration flips); it is echoed in NACKs and search replies so
        # stale clients notice.  ``handoff_intents`` maps an ACG this
        # node transferred out (but has not yet been told to drop) to the
        # migration target: while the intent stands the node *forwards*
        # updates there instead of applying them, and WAL replay skips
        # the ACG's records.  The intent is durable — it survives a crash
        # exactly like the replicas do — which is what makes a migration
        # racing a source crash safe.
        self.route_epoch_seen = 0
        self.handoff_intents: Dict[int, str] = {}
        # ACGs this node migrated away and dropped: WAL replay must skip
        # their records (resurrecting them would double-host data the new
        # owner serves).  Durable like the intents; cleared the moment
        # ownership comes back.
        self.migrated_away: Set[int] = set()
        # Commit watermark per ACG: how many of the WAL's records for the
        # ACG have already been committed to the (disk-backed) store.
        # Replay skips that already-durable prefix — re-applying it is
        # not idempotent when the log's *tail* was torn off: a committed
        # upsert replayed over a committed-then-torn delete would
        # resurrect the deleted file.  Durable like the intents; the
        # bookkeeping rides on the commit's existing write (zero extra
        # simulated cost).
        self._wal_commit_counts: Dict[int, int] = {}
        self.forwarded_updates = 0
        self.stale_route_nacks = 0
        # Updates committed for an ACG while under a handoff intent — the
        # chaos checker asserts this stays zero (no non-owner applies).
        self.nonowner_applied = 0
        # Attached by the service: lets this node forward updates during
        # a migration's dual-ownership window.
        self.rpc = None
        # Tiered storage (service-wide knob; see PropellerService
        # ``set_tiering``).  Off by default: the freeze driver, the
        # frozen search path, and every cold-tier charge are gated on
        # ``tiering``, so the default path is byte-identical to the
        # non-tiered node.  ``object_store`` is attached by the service;
        # ``frozen`` maps ACG id → the RAM-resident record of its cold
        # segment (summary sidecar + sizes); the live replica stays in
        # ``replicas`` as the durable backing (analogous to the disk
        # copy in the residency model) but leaves the ``_resident``
        # budget, which is what flattens the paging knee.
        self.tiering = False
        self.object_store = None
        self.tier_policy = TierPolicy()
        self.segment_cache = SegmentCache(machine.spec.ram_bytes)
        self.frozen: Dict[int, FrozenPartition] = {}
        # Per-ACG last search/update time — the heat stat the freeze
        # policy reads.  Pure bookkeeping: no simulated cost.
        self._acg_last_access: Dict[int, float] = {}
        self.tier_freezes = 0
        self.tier_thaws = 0
        self.tier_hydrations = 0
        self.tier_fallbacks = 0
        self.tier_summary_prunes = 0
        self.tier_repairs = 0
        # Metrics registry (attached by the service; None when the node
        # runs bare in tests).  Observations are bookkeeping only — they
        # charge no simulated time.
        self.registry = None
        # Replication (RF > 1).  ``repl`` holds per-partition primary
        # state (log + follower ack map) for partitions this node owns;
        # ``followers`` holds the in-memory follower replicas it keeps
        # for partitions primaried elsewhere.  Both empty at RF=1, so
        # replication costs nothing when it is off.
        self.repl: Dict[int, PrimaryReplState] = {}
        self.followers: Dict[int, FollowerState] = {}
        self.repl_streamed = 0
        self.repl_catchups = 0
        # Times this node noticed it was deposed as a partition's primary
        # (a follower rejected its stream/install with a newer epoch).
        self.repl_deposed = 0
        # Master-term fencing: the newest master term any stamped RPC has
        # carried, and how many stale-term RPCs this node rejected.
        self.master_term_seen = 0
        self.master_fences = 0
        self.endpoint = RpcEndpoint(name)
        for method, handler in [
            ("index_update", self.handle_index_update),
            ("search", self.handle_search),
            ("flush_acg", self.handle_flush_acg),
            ("create_index", self.handle_create_index),
            ("compute_split", self.handle_compute_split),
            ("extract_partition", self.handle_extract_partition),
            ("install_partition", self.handle_install_partition),
            ("drop_partition", self.handle_drop_partition),
            ("heartbeat", self.make_heartbeat),
            ("adopt_acg", self.handle_adopt_acg),
            ("explain", self.handle_explain),
            ("own_partition", self.handle_own_partition),
            ("transfer_out", self.handle_transfer_out),
            ("finish_migration", self.handle_finish_migration),
            ("cancel_transfer", self.handle_cancel_transfer),
            ("checkpoint_acg", self.handle_checkpoint_acg),
            ("locate_file", self.handle_locate_file),
            ("set_followers", self.handle_set_followers),
            ("replicate_apply", self.handle_replicate_apply),
            ("install_follower", self.handle_install_follower),
            ("replica_watermark", self.handle_replica_watermark),
            ("promote_replica", self.handle_promote_replica),
            ("drop_follower", self.handle_drop_follower),
            ("reset_follower_ack", self.handle_reset_follower_ack),
            ("search_replica", self.handle_search_replica),
        ]:
            if method in _MASTER_RPCS:
                handler = self._with_term_fence(method, handler)
            self.endpoint.register(method, handler)

    def _with_term_fence(self, rpc_name: str, handler) -> Any:
        """Wrap a Master-originated handler with the master-term fence."""
        def fenced(*args: Any, term: int = 0, **kwargs: Any) -> Any:
            self._fence_term(term, rpc_name)
            return handler(*args, **kwargs)
        return fenced

    def _fence_term(self, term: int, rpc_name: str) -> None:
        """Reject an RPC stamped with a master term this node has seen
        superseded; adopt newer terms.  ``term`` 0 means unstamped."""
        if term == 0:
            return
        if term < self.master_term_seen:
            self.master_fences += 1
            self.journal.emit("master.fence", node=self.name, rpc=rpc_name,
                              stale_term=term, term=self.master_term_seen)
            raise StaleMasterTerm(
                f"{self.name}: {rpc_name} from master term {term} behind "
                f"seen term {self.master_term_seen}",
                term=self.master_term_seen)
        self.master_term_seen = term

    def set_tracer(self, tracer) -> None:
        """Thread one tracer through this node's cache and devices."""
        self.tracer = tracer
        self.cache.tracer = tracer
        self.machine.disk.tracer = tracer
        self.machine.page_cache.tracer = tracer
        self._log_device.tracer = tracer
        self._shared_device.tracer = tracer

    # -- replica management -----------------------------------------------------

    def replica(self, acg_id: int, create: bool = False) -> AcgReplica:
        """Fetch (or lazily create) this node's replica of one ACG."""
        replica = self.replicas.get(acg_id)
        if replica is None:
            if not create:
                raise UnknownAcg(f"{self.name} does not host ACG {acg_id}")
            self._next_incarnation += 1
            replica = AcgReplica(acg_id, self.machine,
                                 incarnation=self._next_incarnation)
            for spec in self._global_specs.values():
                replica.ensure_index(spec)
            self.replicas[acg_id] = replica
            # Hosting again: the ACG's migrated-away tombstone (if any)
            # no longer applies.
            self.migrated_away.discard(acg_id)
        return replica

    # -- residency ---------------------------------------------------------

    def _ensure_resident(self, acg_id: int) -> None:
        """Load an ACG's serialized indices into RAM if they are not
        there (one seek plus a sequential transfer), evicting LRU ACGs
        when the node's memory budget is exceeded."""
        replica = self.replicas.get(acg_id)
        if replica is None:
            return
        nbytes = replica.resident_bytes()
        if acg_id in self._resident:
            self._resident_bytes += nbytes - self._resident[acg_id]
            self._resident[acg_id] = nbytes
            self._resident.move_to_end(acg_id)
            self.machine.clock.charge(1e-6)
            return
        self.machine.disk.reset_head()
        self.machine.disk.read((acg_id % 4096) << 24, nbytes)
        self._resident[acg_id] = nbytes
        self._resident_bytes += nbytes
        while (self._resident_bytes > self.machine.spec.ram_bytes
               and len(self._resident) > 1):
            victim, vbytes = self._resident.popitem(last=False)
            self._resident_bytes -= vbytes

    def is_resident(self, acg_id: int) -> bool:
        """Whether an ACG's indices are currently loaded in RAM."""
        return acg_id in self._resident

    def drop_resident(self) -> None:
        """Cold-start: forget every loaded ACG (cf. dropping page caches).

        Hydrated segment views are part of the same cold-start surface,
        so the segment cache empties too (a no-op with tiering off)."""
        self._resident.clear()
        self._resident_bytes = 0
        self.segment_cache.clear()

    def drop_caches(self) -> None:
        """Memory-pressure eviction of the node-local volatile caches:
        the search result cache and the hydrated segment views.  The
        next search against a frozen partition must go back to the cold
        tier — the path the chaos harness's cache-pressure op exists to
        exercise.  Resident index bodies stay loaded (that cold-start
        surface belongs to :meth:`drop_resident`)."""
        self._result_cache.clear()
        self.segment_cache.clear()

    def handle_create_index(self, spec: IndexSpec) -> None:
        """Register a user-defined index; existing replicas backfill."""
        self._global_specs[spec.name] = spec
        for replica in self.replicas.values():
            self._backfill_index(replica, spec)
        for follower in self.followers.values():
            self._backfill_index(follower.replica, spec)

    @staticmethod
    def _backfill_index(replica: AcgReplica, spec: IndexSpec) -> None:
        index = replica.ensure_index(spec)
        for file_id in replica.store.file_ids():
            attrs = replica.store.attrs(file_id)
            if spec.attrs[0] == KEYWORD_ATTR and spec.kind is IndexKind.HASH:
                for token in replica.store.keywords(file_id):
                    index.insert(token, file_id)
                continue
            key = replica._index_key(spec, attrs)
            if key is not None:
                index.insert(key, file_id)

    # -- routing-epoch ownership ---------------------------------------------------

    def owns(self, acg_id: int) -> bool:
        """Whether this node currently owns an ACG for epoch-stamped
        traffic: it hosts a replica and has not handed it off."""
        return acg_id in self.replicas and acg_id not in self.handoff_intents

    def watermark(self, acg_id: int) -> Tuple[str, int, int]:
        """The commit watermark of one hosted replica: (node, replica
        incarnation, applied-update count).  Identity-scoped, so a
        watermark taken from a previous life of the ACG — on this node
        or any other — can never equal the current one."""
        replica = self.replicas[acg_id]
        return (self.name, replica.incarnation, replica.applied)

    def handle_own_partition(self, acg_id: int, epoch: int) -> None:
        """Master grant: this node owns ``acg_id`` as of ``epoch``.

        Creates an empty replica shell if needed, so epoch-stamped
        updates and searches are accepted immediately."""
        self._clear_stale_handoff(acg_id)
        self.route_epoch_seen = max(self.route_epoch_seen, epoch)
        self.replica(acg_id, create=True)

    def _clear_stale_handoff(self, acg_id: int) -> None:
        """Ownership is coming (back) to this node: a replica still held
        behind an old handoff intent is stale debris — drop it so the
        incoming copy starts clean."""
        if acg_id in self.handoff_intents:
            self.handoff_intents.pop(acg_id, None)
            self._log_device.append(64)
            self.handle_drop_partition(acg_id)

    def _forward_updates(self, acg_id: int, updates: Sequence[IndexUpdate],
                         epoch: Optional[int]) -> int:
        """Dual-ownership window: relay updates to the migration target.

        The relay stays epoch-stamped so a target that does not own the
        ACG either (an aborted migration's debris) NACKs instead of
        silently absorbing updates the Master still routes here."""
        target = self.handoff_intents[acg_id]
        if self.rpc is None:
            self.stale_route_nacks += len(updates)
            raise StaleRoute(f"{self.name} handed off ACG {acg_id}",
                             epoch=self.route_epoch_seen)
        self.forwarded_updates += len(updates)
        stamp = epoch if epoch is not None else self.route_epoch_seen
        return self.rpc.call(target, "index_update", acg_id, updates,
                             epoch=stamp)

    # -- update path --------------------------------------------------------------

    def handle_index_update(self, acg_id: int, updates: Sequence[IndexUpdate],
                            epoch: Optional[int] = None) -> int:
        """WAL + cache; returns number of updates acknowledged.

        Epoch-stamped batches (``epoch`` is not None) are only accepted
        for ACGs this node owns: a handed-off ACG forwards to the
        migration target, anything else raises :class:`StaleRoute` so the
        client refreshes its route cache.  Unstamped batches keep the
        legacy Master-routed semantics (create-on-demand), except that a
        handoff intent still forwards — the old owner must never apply."""
        if acg_id in self.handoff_intents:
            return self._forward_updates(acg_id, updates, epoch)
        if epoch is not None and acg_id not in self.replicas:
            self.stale_route_nacks += len(updates)
            raise StaleRoute(f"{self.name} does not own ACG {acg_id}",
                             epoch=self.route_epoch_seen)
        if acg_id in self.frozen:
            # Writes thaw: the partition returns to the live B+tree/hash
            # path before the update takes the ordinary WAL→cache route.
            self._thaw(acg_id, reason="write")
        replica = self.replica(acg_id, create=True)
        now = self.machine.clock.now()
        self._acg_last_access[acg_id] = now
        if self.registry is not None and updates:
            self.registry.histogram("update.batch_size", unit="updates")\
                .observe(len(updates))
        if updates:
            # Group commit: the whole envelope becomes one WAL batch
            # record — one frame, one simulated fsync — and the cache
            # insert pays full price once plus a marginal cost per rider.
            self.wal.append_batch(acg_id, tuple(
                (acg_id, u.file_id, u.op.value, u.path, u.attrs)
                for u in updates))
            self.machine.compute(
                _CACHE_ADD_OPS + _CACHE_ADD_BATCHED_OPS * (len(updates) - 1))
            for update in updates:
                self.cache.add(acg_id, update, now)
        state = self.repl.get(acg_id)
        if state is None:
            return len(updates)
        # Replicated partition: sequence the batch in the replication log
        # and stream it to installed followers before acking.  A follower
        # that cannot be reached just falls behind (its ack watermark
        # stays put); the periodic catch-up re-sends the suffix — the
        # client's ack never hinges on follower liveness.
        if updates:
            # One log record per batch: primaries, followers, and hedged
            # reads advance their watermarks at identical batch
            # boundaries, so a partially-visible envelope is impossible.
            state.log.append(tuple(updates))
        self._stream_to_followers(acg_id, state)
        return UpdateAck(len(updates), acg_id=acg_id, seq=state.log.last_seq,
                         repl_epoch=state.repl_epoch)

    def _commit_updates(self, acg_id: int, updates: List[IndexUpdate]) -> None:
        from repro.errors import DiskIOError

        if acg_id in self.handoff_intents:
            self.nonowner_applied += len(updates)
        # Advance the durable commit watermark: these records' effects
        # now live in the store, so a crash-replay must not redo them.
        self._wal_commit_counts[acg_id] = (
            self._wal_commit_counts.get(acg_id, 0) + len(updates))
        replica = self.replica(acg_id, create=True)
        try:
            self._ensure_resident(acg_id)
        except DiskIOError:
            # An injected read error while paging the ACG in: the commit
            # itself must not be lost (the updates are acknowledged), so
            # absorb the fault — the store is authoritative; residency is
            # a cost-model event, retried on the next touch.
            pass
        replica.apply_batch(updates)
        # Commit is the moment an update becomes search-visible: resolve
        # any freshness stamps now (bookkeeping only, zero simulated cost).
        now = self.machine.clock.now()
        for update in updates:
            self.freshness.visible(self.name, update.file_id, now)

    def tick(self) -> int:
        """Commit timed-out cache buckets (called by the event loop).

        With tiering on, also runs the freeze policy: partitions cold
        past the policy's age threshold are serialized to the object
        store.  The driver is fully gated on ``tiering`` so the default
        path charges nothing extra."""
        committed = self.cache.commit_due(self.machine.clock.now())
        if committed and not len(self.cache):
            self._truncate_wal()
        if self.tiering and self.object_store is not None:
            self._freeze_cold(self.machine.clock.now())
        for acg_id in sorted(self.repl):
            state = self.repl[acg_id]
            if any(state.acked.get(f, -1) < state.log.last_seq
                   for f in state.followers):
                self._sync_followers(acg_id)
        return committed

    def _truncate_wal(self) -> None:
        """Discard the WAL once nothing in it is still pending; the
        commit watermarks restart with the empty log."""
        self.wal.truncate()
        self._wal_commit_counts.clear()

    # -- tiered storage: freeze / thaw / hydrate ----------------------------------------

    def _freeze_cold(self, now: float) -> None:
        """Freeze every owned partition the tier policy calls cold.

        Eligibility: owned (no handoff intent), not already frozen,
        nothing pending in the index cache (freezing under pending
        updates would immediately thaw), and cold/big enough per
        :class:`~repro.cluster.segments.TierPolicy`.
        """
        for acg_id in sorted(self.replicas):
            if acg_id in self.frozen or not self.owns(acg_id):
                continue
            if self.cache.pending_ops(acg_id):
                continue
            replica = self.replicas[acg_id]
            last = self._acg_last_access.get(acg_id, 0.0)
            if not self.tier_policy.should_freeze(
                    now, last, replica.store.estimated_bytes()):
                continue
            self._freeze_one(acg_id, replica, now)

    def _freeze_one(self, acg_id: int, replica: AcgReplica, now: float) -> None:
        """Serialize one partition to the cold tier and mark it frozen.

        The live replica stays in ``replicas`` (ownership, watermarks,
        heartbeat sizes, locate probes and the replication stream all
        keep working) but leaves the RAM residency budget — only the
        small summary sidecar stays resident.
        """
        self.machine.compute(_FREEZE_OPS_PER_FILE * max(1, replica.file_count))
        data = dump_segment(replica, self.name)
        key = segment_key(self.name, acg_id)
        self.object_store.put(key, data)
        watermark = self.watermark(acg_id)
        snapshot = replica.summary.snapshot(
            acg_id, watermark, dirty=False, file_count=replica.file_count)
        self.frozen[acg_id] = FrozenPartition(
            acg_id=acg_id, key=key, serialized_bytes=len(data),
            hydrated_bytes=256 + replica.store.estimated_bytes(),
            snapshot=snapshot, frozen_at=now, watermark=watermark)
        if acg_id in self._resident:
            self._resident_bytes -= self._resident.pop(acg_id)
        self.tier_freezes += 1
        self.journal.emit("tier.freeze", node=self.name, acg_id=acg_id,
                          segment_bytes=len(data))

    def _thaw(self, acg_id: int, reason: str) -> None:
        """Return a frozen partition to the live path (first write, or
        an operation that must mutate the replica)."""
        frozen = self.frozen.pop(acg_id, None)
        if frozen is None:
            return
        self.segment_cache.invalidate(frozen.key)
        if self.object_store is not None:
            self.object_store.delete(frozen.key)
        self.tier_thaws += 1
        self.journal.emit("tier.thaw", node=self.name, acg_id=acg_id,
                          reason=reason)

    def _hydrate(self, acg_id: int, frozen: FrozenPartition):
        """Fetch + parse one segment from the cold tier (cache miss path).

        Returns the hydrated view, or None when the cold tier cannot
        serve it — one retry for a transient object-store error, a
        repair (re-dump from the live backing replica) for a corrupt
        segment; either way the caller falls back to the replica.
        """
        t0 = self.machine.clock.now()
        with self.tracer.span("hydrate", node=self.name, acg=acg_id) as span:
            try:
                try:
                    data = self.object_store.get(frozen.key)
                except ObjectStoreError:
                    # One retry: cold-tier reads are cheap to re-issue
                    # and transient errors are the common injected case.
                    data = self.object_store.get(frozen.key)
                view = load_segment(data)
            except SegmentCorruption:
                # Torn/corrupt segment: hydrate-from-replica.  The live
                # backing replica is authoritative — re-dump it so the
                # next hydration reads a good copy, and serve this query
                # from the replica.
                self._repair_segment(acg_id, frozen)
                return None
            except ObjectStoreError:
                return None
            self.machine.compute(
                _HYDRATE_OPS_PER_FILE * max(1, view.file_count()))
            span.set_attribute("segment_bytes", frozen.serialized_bytes)
        self.tier_hydrations += 1
        if self.registry is not None:
            self.registry.histogram("tier.hydration_s", unit="s")\
                .observe(self.machine.clock.now() - t0)
        self.segment_cache.put(frozen.key, view)
        return view

    def _repair_segment(self, acg_id: int, frozen: FrozenPartition) -> None:
        """Overwrite a corrupt segment with a fresh dump of the live
        backing replica (the hydrate-from-replica self-heal)."""
        replica = self.replicas.get(acg_id)
        if replica is None or self.object_store is None:
            return
        self.machine.compute(_FREEZE_OPS_PER_FILE * max(1, replica.file_count))
        self.object_store.put(frozen.key, dump_segment(replica, self.name))
        self.tier_repairs += 1
        self.journal.emit("tier.repair", node=self.name, acg_id=acg_id)

    def frozen_bytes(self) -> int:
        """Serialized bytes this node keeps on the cold tier."""
        return sum(f.serialized_bytes for f in self.frozen.values())

    # -- search path ------------------------------------------------------------------

    def handle_locate_file(self, file_id: int) -> Optional[int]:
        """Presence probe: which owned ACG holds ``file_id``, if any.

        Serves clients whose file routes were evicted by a full
        route-table refresh — the Master does not track client-placed
        membership, so without this probe a DELETE for such a file has
        nowhere correct to go.  Handed-off replicas are excluded: the
        migration target answers for those."""
        for acg_id in sorted(self.replicas):
            if not self.owns(acg_id):
                continue
            if file_id in self.replicas[acg_id].store:
                return acg_id
            # A just-indexed file can still sit in the pending cache;
            # the last buffered op for the file decides its presence.
            last_op = None
            for update in self.cache.pending_ops(acg_id):
                if update.file_id == file_id:
                    last_op = update.op
            if last_op is UpdateOp.UPSERT:
                return acg_id
        return None

    def _materialize_units(self, matches: int) -> int:
        """Examine charges to materialize ``matches`` result docs.

        The bitmap posting path extracts matches word-at-a-time, so one
        charge covers ``_VECTOR_WIDTH`` of them (ceil — a partial word
        still costs a word).
        """
        return (matches + _VECTOR_WIDTH - 1) // _VECTOR_WIDTH

    def _purge_result_cache(self, acg_id: int) -> None:
        for key in [k for k in self._result_cache if k[0] == acg_id]:
            del self._result_cache[key]

    def _search_one(self, acg_id: int, predicate: Predicate,
                    index_names: Optional[Sequence[str]]) -> SearchResult:
        now = self.machine.clock.now()
        self._acg_last_access[acg_id] = now
        self.cache.commit_for_search(acg_id)
        # Result cache: checked *after* the forced commit, so any pending
        # updates have already advanced the watermark and a stale entry
        # cannot hit.  Time-dependent predicates (symbolic RelativeAge
        # bounds) are excluded — their answer can change with no commit.
        # Sound for frozen partitions too: freezing requires an empty
        # cache and writes thaw first, so the (incarnation, applied) tail
        # cannot move while frozen.
        cache_key = None
        if self.result_caching and not is_time_dependent(predicate):
            replica = self.replicas[acg_id]
            cache_key = (acg_id, canonicalize(predicate),
                         tuple(index_names) if index_names else None)
            entry = self._result_cache.get(cache_key)
            if entry is not None:
                tail, cached = entry
                if tail == (replica.incarnation, replica.applied):
                    self._result_cache.move_to_end(cache_key)
                    self.result_cache_hits += 1
                    self.machine.compute(_EXAMINE_OPS)  # lookup, no scan
                    return cached
            self.result_cache_misses += 1
        if acg_id in self.frozen:
            result = self._search_frozen(acg_id, predicate, index_names, now)
        else:
            result = self._search_live_body(acg_id, predicate, index_names, now)
        if cache_key is not None:
            replica = self.replicas[acg_id]
            self._result_cache[cache_key] = (
                (replica.incarnation, replica.applied), result)
            self._result_cache.move_to_end(cache_key)
            while len(self._result_cache) > _RESULT_CACHE_CAP:
                self._result_cache.popitem(last=False)
        return result

    def _search_live_body(self, acg_id: int, predicate: Predicate,
                          index_names: Optional[Sequence[str]],
                          now: float) -> SearchResult:
        """The live (B+tree/hash) execution body of one search leg."""
        with self.tracer.span("page_faults", node=self.name, acg=acg_id) as span:
            span.set_attribute("resident", self.is_resident(acg_id))
            self._ensure_resident(acg_id)
        replica = self.replicas[acg_id]
        specs = [replica.specs[n] for n in (index_names or replica.specs)
                 if n in replica.specs]
        with self.tracer.span("plan", node=self.name, acg=acg_id) as span:
            plans = plan_query_set(predicate, specs, now)
            span.set_attribute(
                "access_path", "; ".join(p.describe() for p in plans))
        with self.tracer.span("index_scan", node=self.name, acg=acg_id) as span:
            self.machine.compute(_EXAMINE_OPS * max(1, replica.file_count // 64))
            file_ids = execute_plans(plans, predicate, replica.indexes,
                                     replica.store, now)
            self.machine.compute(
                _EXAMINE_OPS * self._materialize_units(len(file_ids)))
            span.set_attribute("matches", len(file_ids))
        paths = tuple(sorted(
            p for p in (replica.store.attrs(f).get("path") for f in file_ids)
            if p is not None))
        return SearchResult(node=self.name, acg_id=acg_id,
                            file_ids=frozenset(file_ids), paths=paths)

    def _search_frozen(self, acg_id: int, predicate: Predicate,
                       index_names: Optional[Sequence[str]],
                       now: float) -> SearchResult:
        """Execute one search leg against a frozen partition.

        Order of consultation: (1) the resident summary sidecar — a
        provably-empty answer never touches the cold tier; (2) the
        node-local segment cache; (3) hydrate from the object store on a
        miss.  If the cold tier cannot serve the segment (persistent
        read errors, corruption) the leg falls back to the live backing
        replica — answers degrade to slower, never to wrong.
        """
        frozen = self.frozen[acg_id]
        self.machine.compute(_EXAMINE_OPS)
        if not summary_may_match(frozen.snapshot, predicate, now):
            # Zone maps / bloom say no possible match: byte-identical to
            # the empty answer a full scan would produce (fail-open
            # summaries only ever return False when provably empty).
            self.tier_summary_prunes += 1
            return SearchResult(node=self.name, acg_id=acg_id,
                                file_ids=frozenset(), paths=())
        view = self.segment_cache.get(frozen.key)
        if view is None:
            view = self._hydrate(acg_id, frozen)
        if view is None:
            # Cold tier unavailable: serve from the live backing replica
            # (still frozen — the next leg tries the cold tier again).
            self.tier_fallbacks += 1
            return self._search_live_body(acg_id, predicate, index_names, now)
        with self.tracer.span("segment_scan", node=self.name, acg=acg_id) as span:
            self.machine.compute(_EXAMINE_OPS * max(1, view.file_count() // 64))
            file_ids = view.search(predicate, now)
            self.machine.compute(
                _EXAMINE_OPS * self._materialize_units(len(file_ids)))
            span.set_attribute("matches", len(file_ids))
        paths = tuple(sorted(
            p for p in (view.store.attrs(f).get("path") for f in file_ids)
            if p is not None))
        return SearchResult(node=self.name, acg_id=acg_id,
                            file_ids=frozenset(file_ids), paths=paths)

    def handle_search(self, acg_ids: Sequence[int], predicate: Predicate,
                      index_names: Optional[Sequence[str]] = None,
                      epoch: Optional[int] = None,
                      pruned: Optional[Dict[int, Tuple[str, int, int]]] = None):
        """Search the given ACGs; commits their pending updates first.

        Legacy (unstamped) calls silently skip ACGs this node does not
        host and return a bare result list.  Epoch-stamped calls return a
        :class:`SearchReply` that also *names* the requested ACGs this
        node does not own (``not_owned``) — the search-path stale-route
        NACK — plus the node's own routing epoch.

        ``pruned`` maps ACG ids the client wants to *skip* to the summary
        watermark its skip decision was based on.  The skip is honoured
        only when this node can prove it safe: it owns the ACG, nothing
        is pending in the index cache, and the watermark matches the
        replica's current one exactly.  Anything else — stale summary,
        pending updates, recreated replica — fails open and is searched
        like a normal leg.  This is what makes pruning false negatives
        impossible: the node, which has ground truth, gets the last word.
        """
        if epoch is None:
            # Legacy path has no validation protocol: never honour skips,
            # just search the pruned ACGs along with the rest.
            ids = list(acg_ids) + [a for a in sorted(pruned or ())
                                   if a not in acg_ids]
            return [self._search_one(acg_id, predicate, index_names)
                    for acg_id in ids if acg_id in self.replicas]
        reply = SearchReply(node=self.name, epoch=self.route_epoch_seen)
        not_owned: List[int] = []
        pruned_ok: List[int] = []
        for acg_id, watermark in sorted((pruned or {}).items()):
            if not self.owns(acg_id):
                not_owned.append(acg_id)
                continue
            if (not self.cache.pending_ops(acg_id)
                    and tuple(watermark) == self.watermark(acg_id)):
                pruned_ok.append(acg_id)
                self.prunes_validated += 1
            else:
                self.prune_fallbacks += 1
                reply.results.append(
                    self._search_one(acg_id, predicate, index_names))
        for acg_id in acg_ids:
            if not self.owns(acg_id):
                not_owned.append(acg_id)
                continue
            reply.results.append(self._search_one(acg_id, predicate, index_names))
        if not_owned:
            self.stale_route_nacks += len(not_owned)
            reply.not_owned = tuple(sorted(not_owned))
        reply.pruned_ok = tuple(sorted(pruned_ok))
        return reply

    def handle_explain(self, acg_ids: Sequence[int], predicate: Predicate,
                       index_names: Optional[Sequence[str]] = None
                       ) -> List[Tuple[int, List[str]]]:
        """EXPLAIN: the access path(s) each ACG would use for a query,
        without executing it (and without forcing cache commits).

        Uses the same ownership test as the search path: a handed-off
        (migrated-away) replica must not report plans for an ACG this
        node no longer answers for."""
        now = self.machine.clock.now()
        out: List[Tuple[int, List[str]]] = []
        for acg_id in acg_ids:
            if not self.owns(acg_id):
                continue
            replica = self.replicas[acg_id]
            specs = [replica.specs[n] for n in (index_names or replica.specs)
                     if n in replica.specs]
            plans = plan_query_set(predicate, specs, now)
            out.append((acg_id, [plan.describe() for plan in plans]))
        return out

    # -- ACG maintenance -------------------------------------------------------------------

    def handle_flush_acg(self, acg_id: int, records: Sequence[Tuple[int, int, int]]) -> None:
        """Merge a client-flushed ACG fragment (weak consistency — no WAL)."""
        replica = self.replica(acg_id, create=True)
        replica.graph.merge(AccessCausalityGraph.from_records(list(records)))
        self.machine.compute(_CACHE_ADD_OPS * max(1, len(records)))

    def handle_compute_split(self, acg_id: int,
                             policy: PartitioningPolicy) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Run the background balanced-minimal-cut split for one ACG."""
        self.cache.commit_for_search(acg_id)
        replica = self.replica(acg_id)
        files = set(replica.store.file_ids())
        halves = split_partition(replica.graph, files, policy)
        if len(halves) == 1:
            halves = [halves[0], set()]
        # METIS-style split cost: roughly linear in edges.
        self.machine.compute(50 * max(1, replica.graph.edge_count))
        return tuple(sorted(halves[0])), tuple(sorted(halves[1]))

    def handle_extract_partition(self, acg_id: int,
                                 file_ids: Optional[Sequence[int]] = None
                                 ) -> Dict[str, Any]:
        """Package the state of ``file_ids`` for migration to another node.

        ``file_ids=None`` means *everything this node hosts* for the ACG
        — the Master uses that for merges, where its own file map may
        under-count client-placed files."""
        # Extraction deletes moved files from the replica — a mutation,
        # so a frozen partition thaws first.
        self._thaw(acg_id, reason="extract")
        self.cache.commit_for_search(acg_id)
        replica = self.replica(acg_id)
        moving = (set(replica.store.file_ids()) if file_ids is None
                  else set(file_ids))
        payload = {
            "acg_records": replica.graph.subgraph(moving).to_records(),
            "files": [
                (f, dict(replica.store.attrs(f)), replica.store.attrs(f).get("path"))
                for f in sorted(moving)
            ],
        }
        # Removing the moved files from local state is part of migration
        # (apply(delete) also drops the ACG vertex).
        for file_id in sorted(moving):
            replica.apply(IndexUpdate.delete(file_id))
        # The deletes above never entered the replication log, so any
        # followers now describe the pre-extraction store.
        self._reset_repl(acg_id)
        return payload

    def handle_install_partition(self, acg_id: int, payload: Dict[str, Any]) -> int:
        """Install a migrated partition as a replica on this node.

        Accepts ``{"segment": bytes}`` from :meth:`handle_transfer_out`
        and the expanded ``{"acg_records", "files"}`` payload that
        :meth:`handle_extract_partition` sends for splits and merges; a
        segment unpacks to the same shape."""
        self._clear_stale_handoff(acg_id)
        if "segment" in payload:
            unpacked = load_segment_payload(payload["segment"])
            payload = {"acg_records": unpacked["acg_records"],
                       "files": unpacked["files"]}
        replica = self.replica(acg_id, create=True)
        replica.graph.merge(AccessCausalityGraph.from_records(payload["acg_records"]))
        for file_id, attrs, path in payload["files"]:
            attrs = dict(attrs)
            attrs.pop("path", None)
            replica.apply(IndexUpdate.upsert(file_id, attrs, path=path))
        # Installed content bypassed the replication log: force followers
        # back through a snapshot bootstrap.
        self._reset_repl(acg_id)
        return len(payload["files"])

    def handle_drop_partition(self, acg_id: int) -> None:
        """Forget a migrated-away ACG entirely."""
        frozen = self.frozen.pop(acg_id, None)
        if frozen is not None:
            self.segment_cache.invalidate(frozen.key)
            if self.object_store is not None:
                self.object_store.delete(frozen.key)
        self._acg_last_access.pop(acg_id, None)
        self.replicas.pop(acg_id, None)
        self.repl.pop(acg_id, None)
        self._purge_result_cache(acg_id)
        if acg_id in self._resident:
            self._resident_bytes -= self._resident.pop(acg_id)

    # -- online migration (source/target protocol half) ---------------------------

    def _checkpoint_one(self, replica: AcgReplica) -> bytes:
        """Dump one replica's segment and, with shared storage attached,
        write it as the replica's checkpoint; returns the segment bytes."""
        data = dump_segment(replica, self.name)
        if self.shared_vfs is None:
            return data
        from repro.cluster.persistence import write_checkpoint

        write_checkpoint(self.shared_vfs, self.name, replica.acg_id, data)
        # The shared-device charge is the live replica's resident bytes,
        # or the segment length for a frozen partition.
        self._shared_device.reset_head()
        self._shared_device.append(len(data) if replica.acg_id in self.frozen
                                   else replica.resident_bytes())
        return data

    def handle_transfer_out(self, acg_id: int, target: str) -> Dict[str, Any]:
        """Migration step 1 (source side): drain, checkpoint, package —
        and durably record the handoff intent.

        Unlike :meth:`handle_extract_partition` this does **not** delete
        anything: the partition stays queryable here until the Master
        flips routing, and the intent makes sure updates forward to
        ``target`` instead of being applied by a no-longer-owner."""
        self.cache.commit_for_search(acg_id)
        replica = self.replica(acg_id, create=True)
        # A fresh shared checkpoint means a source crash before the flip
        # still fails over with all acknowledged data; the same segment
        # bytes are the transfer payload.
        payload = {"segment": self._checkpoint_one(replica)}
        self.handoff_intents[acg_id] = target
        # The intent is durable (one small log write): a restart after a
        # crash must keep forwarding and keep WAL replay away from this
        # ACG, or a lost finish_migration would resurrect handed-off data.
        self._log_device.append(64)
        return payload

    def handle_checkpoint_acg(self, acg_id: int) -> None:
        """Persist one ACG to shared storage right now (migration step 2,
        target side: the flip must not outrun durability)."""
        self.cache.commit_for_search(acg_id)
        self._checkpoint_one(self.replica(acg_id, create=True))

    def handle_finish_migration(self, acg_id: int) -> None:
        """Migration step 4 (source side): drop the handed-off replica,
        clear the intent, and remove the stale shared checkpoint so a
        later failover cannot adopt outdated data."""
        self.handoff_intents.pop(acg_id, None)
        self.migrated_away.add(acg_id)
        self._log_device.append(64)
        self.handle_drop_partition(acg_id)
        if self.shared_vfs is not None:
            from repro.cluster.persistence import remove_checkpoint

            remove_checkpoint(self.shared_vfs, self.name, acg_id)

    def handle_cancel_transfer(self, acg_id: int) -> None:
        """Migration abort (source side): lift the handoff intent — this
        node owns the partition again and resumes applying updates."""
        self.handoff_intents.pop(acg_id, None)
        self._log_device.append(64)

    # -- replication (RF > 1): primary half --------------------------------------------------

    def handle_set_followers(self, acg_id: int, followers: Sequence[str],
                             repl_epoch: int) -> None:
        """Master: this node primaries ``acg_id`` with these followers.

        Idempotent and epoch-fenced: a stale (lower-epoch) assignment is
        ignored so a delayed duplicate cannot resurrect old membership.
        Newly assigned followers start un-installed (``acked == -1``) and
        are bootstrapped by the synchronous catch-up that follows.
        """
        if acg_id not in self.replicas:
            raise UnknownAcg(f"{self.name} does not host ACG {acg_id}")
        state = self.repl.get(acg_id)
        if state is None:
            state = self.repl[acg_id] = PrimaryReplState(repl_epoch=repl_epoch)
        elif repl_epoch < state.repl_epoch:
            return
        refresh = repl_epoch > state.repl_epoch
        state.repl_epoch = repl_epoch
        state.followers = tuple(followers)
        state.acked = {f: state.acked.get(f, -1) for f in state.followers}
        if refresh:
            self._refresh_follower_epochs(acg_id, state)
        self._sync_followers(acg_id)

    def _refresh_follower_epochs(self, acg_id: int,
                                 state: PrimaryReplState) -> None:
        """Push a freshly assigned epoch to already-installed followers.

        A membership-only epoch bump does not restart the log, so a
        retained follower has nothing to stream — but it must still
        learn the new epoch, or its heartbeats and live
        ``replica_watermark`` answers keep carrying the old one and the
        Master's promotion-viability check (same epoch, caught-up)
        would refuse a genuinely viable replica.  An empty apply
        carries the epoch; transient failures are absorbed (the next
        stream or install retries).
        """
        if self.rpc is None:
            return
        for follower in state.followers:
            if state.acked.get(follower, -1) < 0:
                continue  # bootstrap install carries the epoch itself
            try:
                self.rpc.call(follower, "replicate_apply", acg_id,
                              state.repl_epoch, ())
            except DEGRADABLE_ERRORS:
                continue
            except StaleReplEpoch:
                self._depose(acg_id)
                return
            except ClusterError:
                state.acked[follower] = -1  # lost its state: re-install

    def _reset_repl(self, acg_id: int) -> None:
        """Partition content changed outside the replication stream
        (split, merge, adoption): the log no longer describes the store,
        so every follower is marked for a fresh snapshot bootstrap.

        The restart begins a new log *generation*, so the replication
        epoch bumps with it: sequence numbers are only comparable within
        one epoch, and without the bump a follower still holding the old
        generation's high watermark could later be mistaken for caught-up
        and promoted with pre-reset data.  The Master bumps its own copy
        in lock-step (forced ``set_followers``) and adopts this one from
        the next heartbeat if its bump was lost.
        """
        state = self.repl.get(acg_id)
        if state is None:
            return
        state.repl_epoch += 1
        state.log = ReplicationLog()
        state.acked = {f: -1 for f in state.followers}

    def _stream_to_followers(self, acg_id: int,
                             state: PrimaryReplState) -> None:
        """Send each installed follower the log suffix past its ack.

        Best-effort: a transient failure detaches nothing — the ack
        watermark simply stays behind and the next tick's catch-up
        retries.  Un-installed followers (``acked == -1``) are skipped;
        bootstrap happens on the catch-up path, not the hot ack path.
        A stale-epoch rejection means a newer primary owns the partition
        — this node self-deposes instead of retrying.
        """
        if self.rpc is None:
            return
        for follower in state.followers:
            acked = state.acked.get(follower, -1)
            if acked < 0 or acked >= state.log.last_seq:
                continue
            records = state.log.since(acked)
            if records is None:
                state.acked[follower] = -1  # trimmed past it: re-install
                continue
            try:
                applied = self.rpc.call(follower, "replicate_apply", acg_id,
                                        state.repl_epoch, records)
            except DEGRADABLE_ERRORS:
                continue
            except StaleReplEpoch:
                self._depose(acg_id)
                return
            except ClusterError:
                state.acked[follower] = -1  # lost its state: re-install
                continue
            state.acked[follower] = applied
            self.repl_streamed += len(records)

    def _depose(self, acg_id: int) -> None:
        """Stop acting as a partition's replication primary.

        Called when a follower fenced this node's stream or install with
        a newer epoch: the partition was failed over (or re-assigned)
        while this node was out of the loop, so its log and ack map are
        another generation's state.  The replica itself stays queryable
        until routing catches up — exactly the migration dual-ownership
        tolerance — but no further streams or installs leave this node.
        """
        self.repl.pop(acg_id, None)
        self.repl_deposed += 1
        self.journal.emit("repl.depose", node=self.name, acg_id=acg_id)

    def _sync_followers(self, acg_id: int) -> None:
        """Catch-up: query each follower's watermark, bootstrap or stream.

        Called from ``set_followers`` (synchronously, so a quiesced
        cluster converges in one round) and from :meth:`tick` while any
        follower lags.  All failures are absorbed — catch-up is a
        background duty that must never take the node down with it.
        """
        state = self.repl.get(acg_id)
        if state is None or self.rpc is None:
            return
        for follower in state.followers:
            try:
                if state.acked.get(follower, -1) < 0:
                    self._install_follower(acg_id, state, follower)
                self._stream_one(acg_id, state, follower)
            except StaleReplEpoch:
                # A follower fenced us with a newer epoch: this node was
                # deposed as the partition's primary while silent.  Stop
                # replicating it entirely — retrying would just hammer
                # the fence.
                self._depose(acg_id)
                return
            except ClusterError:
                # Covers transients (NodeDown, RpcTimeout) and a follower
                # that lost its state mid-stream alike: retried next tick.
                continue
        self.repl_catchups += 1

    def _install_follower(self, acg_id: int, state: PrimaryReplState,
                          follower: str) -> None:
        """Bootstrap one follower with a snapshot of the partition.

        The forced commit makes the store reflect every acked update, so
        the snapshot is exactly consistent with ``log.last_seq``.
        """
        self.cache.commit_for_search(acg_id)
        replica = self.replica(acg_id)
        files = [
            (f, dict(replica.store.attrs(f)), replica.store.attrs(f).get("path"))
            for f in sorted(replica.store.file_ids())
        ]
        for entry in files:
            entry[1].pop("path", None)
        seq = self.rpc.call(
            follower, "install_follower", acg_id, self.name,
            state.repl_epoch, state.log.last_seq,
            list(replica.specs.values()), files)
        state.acked[follower] = seq

    def _stream_one(self, acg_id: int, state: PrimaryReplState,
                    follower: str) -> None:
        acked = state.acked.get(follower, -1)
        if acked < 0 or acked >= state.log.last_seq:
            return
        records = state.log.since(acked)
        if records is None:
            state.acked[follower] = -1
            self._install_follower(acg_id, state, follower)
            return
        applied = self.rpc.call(follower, "replicate_apply", acg_id,
                                state.repl_epoch, records)
        state.acked[follower] = applied
        self.repl_streamed += len(records)

    # -- replication (RF > 1): follower half -------------------------------------------------

    def handle_install_follower(self, acg_id: int, primary: str,
                                repl_epoch: int, seq: int,
                                specs: Sequence[IndexSpec],
                                files: Sequence[Tuple[int, Dict[str, Any], Optional[str]]]
                                ) -> int:
        """Bootstrap (or replace) this node's follower replica of an ACG.

        Idempotent: re-installation simply rebuilds the follower from the
        fresh snapshot.  Returns the applied sequence (= ``seq``).

        Epoch-fenced like :meth:`handle_replicate_apply`: a deposed
        primary (failed over while silent) must not overwrite a
        current-epoch replica with a stale snapshot — that would rewind
        the fence itself and let the new primary's next stream apply a
        suffix over a divergent base.  Rejected when the snapshot's
        epoch is below this node's follower state, or at-or-below an
        epoch at which this node itself primaries the partition.
        """
        existing = self.followers.get(acg_id)
        if existing is not None and repl_epoch < existing.repl_epoch:
            self.journal.emit("repl.fence", node=self.name, acg_id=acg_id,
                              repl_epoch=existing.repl_epoch,
                              stale_epoch=repl_epoch, rpc="install_follower",
                              primary=primary)
            raise StaleReplEpoch(
                f"{self.name}: stale install epoch {repl_epoch} < "
                f"{existing.repl_epoch} for ACG {acg_id}")
        mine = self.repl.get(acg_id)
        if mine is not None:
            if repl_epoch <= mine.repl_epoch:
                self.journal.emit("repl.fence", node=self.name, acg_id=acg_id,
                                  repl_epoch=mine.repl_epoch,
                                  stale_epoch=repl_epoch,
                                  rpc="install_follower",
                                  primary=primary, reason="own_primary_claim")
                raise StaleReplEpoch(
                    f"{self.name}: primaries ACG {acg_id} at epoch "
                    f"{mine.repl_epoch}, rejecting follower install at "
                    f"{repl_epoch}")
            # A newer primary exists: this node's primary claim is stale.
            self.repl.pop(acg_id, None)
        self._next_incarnation += 1
        replica = AcgReplica(acg_id, self.machine,
                             incarnation=self._next_incarnation)
        for spec in specs:
            replica.ensure_index(spec)
        for spec in self._global_specs.values():
            replica.ensure_index(spec)
        replica.apply_batch([
            IndexUpdate.upsert(file_id, dict(attrs), path=path)
            for file_id, attrs, path in files])
        self.followers[acg_id] = FollowerState(
            primary=primary, repl_epoch=repl_epoch, replica=replica,
            applied_seq=seq)
        return seq

    def handle_replicate_apply(
            self, acg_id: int, repl_epoch: int,
            records: Sequence[Tuple[int, Tuple[IndexUpdate, ...]]]) -> int:
        """Apply a log suffix to the follower replica; returns applied seq.

        Idempotent by sequence contiguity: records at or below the
        applied watermark are skipped (duplicate delivery, primary
        re-sends after a lost ack), a gap stops the apply so the primary
        re-streams from the returned watermark.  A lower ``repl_epoch``
        than the follower knows is a deposed primary and is rejected.
        """
        st = self.followers.get(acg_id)
        if st is None:
            raise UnknownAcg(f"{self.name} has no follower replica of ACG {acg_id}")
        if repl_epoch < st.repl_epoch:
            self.journal.emit("repl.fence", node=self.name, acg_id=acg_id,
                              repl_epoch=st.repl_epoch,
                              stale_epoch=repl_epoch, rpc="replicate_apply")
            raise StaleReplEpoch(
                f"{self.name}: stale repl epoch {repl_epoch} < {st.repl_epoch} "
                f"for ACG {acg_id}")
        st.repl_epoch = repl_epoch
        for seq, payload in records:
            if seq <= st.applied_seq:
                continue
            if seq != st.applied_seq + 1:
                break
            # The primary logs one record per batch (a tuple of
            # updates); it applies atomically before the watermark
            # advances, so hedged reads never see half an envelope.
            st.replica.apply_batch(list(payload))
            st.applied_seq = seq
            st.last_apply_t = self.machine.clock.now()
        return st.applied_seq

    def handle_replica_watermark(self, acg_id: int) -> Tuple[int, int]:
        """(repl_epoch, applied_seq) of this node's follower replica."""
        st = self.followers.get(acg_id)
        if st is None:
            raise UnknownAcg(f"{self.name} has no follower replica of ACG {acg_id}")
        return (st.repl_epoch, st.applied_seq)

    def handle_promote_replica(self, acg_id: int, repl_epoch: int) -> Tuple[int, int]:
        """Failover promotion: the follower replica becomes the owned one.

        An epoch bump and a dictionary move — no WAL replay, no
        checkpoint read, which is why promotion time stays flat as the
        data volume grows.  The promoted replica gets a fresh incarnation
        (a new watermark identity, preserving the summary/result-cache
        soundness argument) and this node becomes the partition's primary
        at ``repl_epoch``, continuing the sequence from its applied
        watermark.  Returns (applied_seq, file_count).
        """
        st = self.followers.pop(acg_id, None)
        if st is None:
            raise UnknownAcg(f"{self.name} has no follower replica of ACG {acg_id}")
        self._next_incarnation += 1
        st.replica.incarnation = self._next_incarnation
        for spec in self._global_specs.values():
            if spec.name not in st.replica.specs:
                self._backfill_index(st.replica, spec)
        self.replicas[acg_id] = st.replica
        self.migrated_away.discard(acg_id)
        self._purge_result_cache(acg_id)
        self.repl[acg_id] = PrimaryReplState(
            repl_epoch=repl_epoch, log=ReplicationLog(base=st.applied_seq))
        return (st.applied_seq, st.replica.file_count)

    def handle_drop_follower(self, acg_id: int) -> None:
        """Forget this node's follower replica of an ACG."""
        self.followers.pop(acg_id, None)

    def handle_reset_follower_ack(self, acg_id: int, follower: str) -> None:
        """Void one follower's acked watermark (Master-directed).

        Sent when the Master notices a follower stopped reporting its
        replica (crash-restart lost it): the stale watermark here would
        otherwise keep this primary from ever re-streaming.  The next
        tick's catch-up pass re-installs the follower from snapshot."""
        state = self.repl.get(acg_id)
        if state is not None and follower in state.acked:
            state.acked[follower] = -1

    def handle_search_replica(self, acg_ids: Sequence[int], predicate: Predicate,
                              index_names: Optional[Sequence[str]] = None,
                              min_seqs: Optional[Dict[int, int]] = None
                              ) -> ReplicaSearchReply:
        """Serve a hedged search leg from follower replicas.

        Followers apply streamed updates immediately, so no cache commit
        is needed; ``min_seqs`` carries the client's read-your-writes
        watermark per ACG — an ACG whose applied sequence sits below it
        is still answered but flagged ``lagging`` (usable only under the
        client's opt-in partial-results deadline).  ACGs with no follower
        replica here come back in ``missing``.
        """
        reply = ReplicaSearchReply(node=self.name, epoch=self.route_epoch_seen)
        applied: List[Tuple[int, int]] = []
        lagging: List[int] = []
        missing: List[int] = []
        for acg_id in sorted(acg_ids):
            st = self.followers.get(acg_id)
            if st is None:
                missing.append(acg_id)
                continue
            reply.results.append(
                self._search_follower(st, predicate, index_names))
            applied.append((acg_id, st.applied_seq))
            if min_seqs and st.applied_seq < min_seqs.get(acg_id, 0):
                lagging.append(acg_id)
        reply.applied = tuple(applied)
        reply.lagging = tuple(lagging)
        reply.missing = tuple(missing)
        return reply

    def _search_follower(self, st: FollowerState, predicate: Predicate,
                         index_names: Optional[Sequence[str]]) -> SearchResult:
        """One follower replica's answer — the :meth:`_search_one` core
        without commit forcing, result caching, or residency I/O (the
        follower store is memory-resident by construction)."""
        now = self.machine.clock.now()
        replica = st.replica
        specs = [replica.specs[n] for n in (index_names or replica.specs)
                 if n in replica.specs]
        plans = plan_query_set(predicate, specs, now)
        self.machine.compute(_EXAMINE_OPS * max(1, replica.file_count // 64))
        file_ids = execute_plans(plans, predicate, replica.indexes,
                                 replica.store, now)
        self.machine.compute(
            _EXAMINE_OPS * self._materialize_units(len(file_ids)))
        paths = tuple(sorted(
            p for p in (replica.store.attrs(f).get("path") for f in file_ids)
            if p is not None))
        return SearchResult(node=self.name, acg_id=replica.acg_id,
                            file_ids=frozenset(file_ids), paths=paths)

    # -- liveness -----------------------------------------------------------------------------

    def make_heartbeat(self) -> Heartbeat:
        """Build the liveness/status report sent to the Master.

        Per-ACG sizes count committed files plus distinct files still
        parked in the index cache — the Master's split trigger must see
        client-placed files before the commit timeout fires."""
        pending: Dict[int, Set[int]] = {}
        for acg_id in self.cache.pending_acgs():
            ids = pending.setdefault(acg_id, set())
            for update in self.cache.pending_ops(acg_id):
                if update.op is UpdateOp.UPSERT:
                    ids.add(update.file_id)
        sizes = {}
        summaries: List[SummarySnapshot] = []
        for acg_id, replica in self.replicas.items():
            extra = sum(1 for fid in pending.get(acg_id, ())
                        if fid not in replica.store)
            sizes[acg_id] = replica.file_count + extra
            if acg_id in self.handoff_intents:
                # Handed off: the migration target's summary is the one
                # that will validate after the flip — don't advertise a
                # watermark no future search can match.
                continue
            summaries.append(replica.summary.snapshot(
                acg_id=acg_id,
                watermark=self.watermark(acg_id),
                # Any uncommitted update (upsert *or* delete) marks the
                # snapshot dirty: clients must not prune on it.
                dirty=bool(self.cache.pending_ops(acg_id)),
                file_count=replica.file_count,
            ))
        replication: List[Any] = []
        for acg_id in sorted(self.repl):
            state = self.repl[acg_id]
            replication.append((
                "p", acg_id, state.repl_epoch, state.log.last_seq,
                tuple(sorted((f, seq) for f, seq in state.acked.items()
                             if seq >= 0))))
        for acg_id in sorted(self.followers):
            follower = self.followers[acg_id]
            replication.append(
                ("f", acg_id, follower.repl_epoch, follower.applied_seq))
        return Heartbeat(
            node=self.name,
            timestamp=self.machine.clock.now(),
            acg_sizes=tuple(sorted(sizes.items())),
            free_bytes=self.machine.spec.ram_bytes,
            summaries=tuple(sorted(summaries, key=lambda s: s.acg_id)),
            replication=tuple(replication),
            frozen_acgs=tuple(sorted(self.frozen)),
        )

    # -- shared-storage persistence ----------------------------------------------------------

    def checkpoint_to_shared(self) -> int:
        """Write every hosted ACG's checkpoint to the shared file system.

        Returns how many ACGs were persisted; a no-op when no shared
        storage is attached (unit-test configurations).
        """
        if self.shared_vfs is None:
            return 0
        self.cache.commit_all()
        count = 0
        for replica in self.replicas.values():
            if replica.acg_id in self.handoff_intents:
                # Handed off: the target owns durability now, and this
                # node's checkpoint is already scheduled for removal.
                continue
            # The serialized write costs one sequential transfer on the
            # shared-storage device (not the local index disk); frozen
            # partitions checkpoint in segment format.
            self._checkpoint_one(replica)
            count += 1
        # Failover restores this snapshot: anything acknowledged after
        # this instant lives only in the local WAL and dies with the node.
        self.last_checkpoint_t = self.machine.clock.now()
        return count

    def handle_adopt_acg(self, checkpoint_path: str) -> int:
        """Failover: install an ACG from another node's shared checkpoint.

        Returns the number of files adopted.
        """
        if self.shared_vfs is None:
            raise ClusterError(f"{self.name} has no shared storage attached")
        from repro.cluster.persistence import read_checkpoint

        payload = read_checkpoint(self.shared_vfs, checkpoint_path)
        acg_id = payload["acg_id"]
        self._clear_stale_handoff(acg_id)
        for spec in payload["specs"]:
            if spec.name not in self._global_specs:
                self._global_specs[spec.name] = spec
        replica = self.replica(acg_id, create=True)
        for spec in payload["specs"]:
            replica.ensure_index(spec)
        replica.graph.merge(AccessCausalityGraph.from_records(payload["acg_records"]))
        for file_id, attrs, path in payload["files"]:
            replica.apply(IndexUpdate.upsert(file_id, attrs, path=path))
        # Loading the checkpoint is one sequential read from shared storage.
        self._shared_device.reset_head()
        self._shared_device.read((acg_id % 4096) << 24, replica.resident_bytes())
        # Adopted content bypassed the replication log: force followers
        # back through a snapshot bootstrap.
        self._reset_repl(acg_id)
        return len(payload["files"])

    # -- crash recovery ----------------------------------------------------------------------

    def recover_from_wal(self) -> int:
        """Rebuild the pending cache from the WAL after a simulated crash.

        Replayed updates go straight through commit (they were already
        acknowledged); returns how many updates were recovered.  Records
        the log had to drop at a torn or corrupt tail accumulate into
        :attr:`wal_replay_dropped_total` (the ``wal.replay_dropped`` node
        metric) so every unrecoverable acknowledgement is accounted for.
        """
        recovered = 0
        # Snapshot the pre-crash watermarks: replay's own commits bump
        # the live counts, which must not shift the skip decision for
        # records later in the same log.
        committed_before = dict(self._wal_commit_counts)
        seen: Dict[int, int] = {}
        # Skip accounting is in *updates*, not records: a skipped batch
        # record hides its whole envelope, and the metric feeds the
        # "every acknowledgement is accounted for" audit.
        skipped_updates = 0

        def keep(record) -> bool:
            # Skip records for ACGs this node migrated away (dropped) or
            # still holds behind a handoff intent — replaying those would
            # resurrect handed-off data on the old owner.  Also skip each
            # ACG's already-committed prefix: those effects are durable
            # in the store, and re-applying them over a torn tail could
            # resurrect a committed-then-torn delete.  The skips are
            # counted, not silent.  Watermarks count *updates*, so a
            # batch record advances ``seen`` by its batch length; a batch
            # straddling the watermark is kept and sliced in the loop.
            nonlocal skipped_updates
            acg_id, length = record[1], len(record[2])
            if acg_id in self.migrated_away or acg_id in self.handoff_intents:
                skipped_updates += length
                return False
            seen[acg_id] = seen.get(acg_id, 0) + length
            if seen[acg_id] <= committed_before.get(acg_id, 0):
                skipped_updates += length
                return False
            return True

        for _, acg_id, raw in self.wal.replay(keep):
            # ``seen`` is exact through this record (replay is lazy), so
            # the committed prefix of a straddling batch is the first
            # ``already`` updates — replaying those would not be
            # idempotent against a torn tail.
            already = max(0, committed_before.get(acg_id, 0)
                          - (seen[acg_id] - len(raw)))
            skipped_updates += already
            updates = [IndexUpdate(file_id=r[1], op=UpdateOp(r[2]),
                                   attrs=tuple(r[4]), path=r[3])
                       for r in raw[already:]]
            if not updates:
                continue
            self._commit_updates(acg_id, updates)
            recovered += len(updates)
        self.wal_replay_dropped_total += self.wal.replay_dropped
        self.wal_replay_skipped_total += skipped_updates
        self._truncate_wal()
        return recovered

    # -- crash / restart / rejoin lifecycle ----------------------------------------------------

    def crash(self, torn_tail_bytes: int = 0) -> List[int]:
        """Process crash: all in-memory state dies, durable state stays.

        The pending cache (acknowledged-but-uncommitted updates) and the
        residency map are lost; the committed replicas (disk-backed) and
        the WAL survive, minus ``torn_tail_bytes`` chopped off the log's
        end — the bytes in flight when power died.  Marks the endpoint
        down.  Returns the file ids whose updates were pending (and are
        therefore recoverable only from the WAL) for crash-consistency
        accounting.
        """
        pending = sorted({u.file_id
                          for acg in self.cache.pending_acgs()
                          for u in self.cache.pending_ops(acg)})
        self.cache._pending.clear()
        self.cache._oldest.clear()
        self._result_cache.clear()
        # Replication state is volatile on both halves: the primary's log
        # and ack map die with the process (followers are re-installed on
        # restart's catch-up), and hosted follower replicas are gone — a
        # promotion can only use a *live* follower's copy.
        self.repl.clear()
        self.followers.clear()
        # Tier state is volatile too: the frozen map and its summary
        # sidecars die with the process (segments on the cold tier are
        # orphan-tolerant — a re-freeze overwrites the same key).
        self.frozen.clear()
        self._acg_last_access.clear()
        self.drop_resident()
        if torn_tail_bytes > 0:
            self.wal.simulate_torn_tail(torn_tail_bytes)
        self.endpoint.fail()
        self.journal.emit("node.crash", node=self.name,
                          pending_files=len(pending),
                          torn_tail_bytes=torn_tail_bytes)
        return pending

    def restart(self) -> int:
        """Bring a crashed process back on the same durable state.

        Replays the WAL (rebuilding everything acknowledged before the
        crash that survived the torn tail) and marks the endpoint up.
        Returns the number of records recovered.
        """
        recovered = self.recover_from_wal()
        self.endpoint.recover()
        self.journal.emit("node.restart", node=self.name,
                          recovered_records=recovered)
        return recovered

    def reset(self) -> None:
        """Wipe the node for a rejoin after failover moved its data away.

        A node that comes back *after* the Master failed its partitions
        over must not serve (or count) its stale replicas — the live
        copies belong to the adopters now.  The node rejoins empty and
        receives partitions again through routing and rebalancing.
        """
        self.replicas.clear()
        self.cache._pending.clear()
        self.cache._oldest.clear()
        self._result_cache.clear()
        self._truncate_wal()
        self.handoff_intents.clear()
        self.migrated_away.clear()
        self.repl.clear()
        self.followers.clear()
        self.frozen.clear()
        self._acg_last_access.clear()
        self.drop_resident()
