"""Frozen index segments, the node-local segment cache, and the freeze policy.

The cold half of tiered index storage (Airphant's design, PAPERS.md): a
partition that has gone cold is serialized into one compressed,
**immutable** segment file — attribute store, ACG records, index specs,
bitmap posting lists for every path keyword, and a zone-map/Bloom
summary — and parked in the simulated object store.  Searches against a
frozen partition consult the RAM-resident summary first (a provably
empty partition answers without touching the cold tier at all), hydrate
the segment through a byte-budgeted LRU cache on first miss, and run the
ordinary exact residual filter against the hydrated view, so answers are
byte-identical to the live B+tree/hash path.  The first *write* thaws
the partition back to the live path.

The same bytes double as a transfer format: checkpoints
(:mod:`repro.cluster.persistence` detects the segment magic) and online
migration (``handle_install_partition`` accepts a ``{"segment": ...}``
payload) can both carry a segment instead of the legacy checkpoint
frame.

Layout mirrors the checkpoint frame: ``PSEG`` magic, version, acg id and
compressed-body length, CRC over the compressed body, then a
zlib-compressed sequence of length-prefixed
:func:`~repro.indexstructures.serialization.dump_value` sections.
"""

from __future__ import annotations

import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import SegmentCorruption
from repro.indexstructures.base import IndexKind
from repro.indexstructures.postings import PostingList
from repro.indexstructures.serialization import dump_value, load_value
from repro.query.ast import Predicate
from repro.query.executor import AttributeStore, _exact_matches
from repro.query.planner import IndexSpec
from repro.query.summary import SummarySnapshot

SEGMENT_MAGIC = b"PSEG"
_VERSION = 1
_SECTIONS = 6  # meta, specs, files, acg records, postings, summary


def segment_key(node_name: str, acg_id: int) -> str:
    """Canonical object-store key for one node's frozen partition."""
    return f"segments/{node_name}/acg{acg_id:08d}.seg"


# -- serialization ---------------------------------------------------------------


def dump_segment(replica, node_name: str) -> bytes:
    """Serialize one live replica into an immutable frozen segment.

    The dump is canonical — files, keywords and chunks are emitted in
    sorted order — so freezing the same replica state twice yields the
    same bytes (the determinism the chaos replay check leans on).
    """
    watermark = (node_name, replica.incarnation, replica.applied)
    sections: List[bytes] = []
    # 1. meta: acg id + commit watermark + file count.
    sections.append(dump_value((replica.acg_id, node_name,
                                replica.incarnation, replica.applied,
                                replica.file_count)))
    # 2. index specs, so a thaw/install can rebuild live structures.
    specs = tuple((s.name, s.kind.value, tuple(s.attrs))
                  for s in replica.specs.values())
    sections.append(dump_value(specs))
    # 3. attribute store: (file_id, attrs-as-pairs, path), sorted by id.
    files = []
    for file_id in sorted(replica.store.file_ids()):
        attrs = replica.store.attrs(file_id)
        path = attrs.get("path")
        pairs = tuple(sorted((k, v) for k, v in attrs.items() if k != "path"))
        files.append((file_id, pairs, path))
    sections.append(dump_value(tuple(files)))
    # 4. ACG edge/vertex records.
    sections.append(dump_value(tuple(replica.graph.to_records())))
    # 5. keyword postings: roaring chunk dumps per path keyword.
    postings: Dict[str, PostingList] = {}
    for file_id in sorted(replica.store.file_ids()):
        for term in sorted(replica.store.keywords(file_id)):
            postings.setdefault(term, PostingList()).add(file_id)
    sections.append(dump_value(tuple(
        (term, postings[term].dump_chunks()) for term in sorted(postings))))
    # 6. zone maps + Bloom summary (the RAM-resident pruning sidecar).
    snapshot = replica.summary.snapshot(replica.acg_id, watermark,
                                        dirty=False,
                                        file_count=replica.file_count)
    bloom_bytes = snapshot.bloom_bits.to_bytes((snapshot.bloom_m + 7) // 8,
                                               "little")
    sections.append(dump_value((tuple(sorted(snapshot.attrs_seen)),
                                snapshot.zones, bloom_bytes,
                                snapshot.bloom_m, snapshot.bloom_k)))
    body = zlib.compress(
        b"".join(struct.pack("<I", len(s)) + s for s in sections), 6)
    header = SEGMENT_MAGIC + struct.pack("<IIQ", _VERSION, replica.acg_id,
                                         len(body)) \
        + struct.pack("<I", zlib.crc32(body))
    return header + body


def is_segment(data: bytes) -> bool:
    """Whether a blob is a frozen segment (vs a legacy checkpoint)."""
    return data[:4] == SEGMENT_MAGIC


def _parse_sections(data: bytes) -> List[Any]:
    if data[:4] != SEGMENT_MAGIC:
        raise SegmentCorruption("not a frozen segment (bad magic)")
    try:
        version, _acg_id, body_len = struct.unpack_from("<IIQ", data, 4)
        (crc,) = struct.unpack_from("<I", data, 20)
    except struct.error as exc:
        raise SegmentCorruption(f"truncated segment header: {exc}") from None
    if version != _VERSION:
        raise SegmentCorruption(f"unsupported segment version {version}")
    body = data[24:24 + body_len]
    if len(body) != body_len or zlib.crc32(body) != crc:
        raise SegmentCorruption("segment failed CRC validation (torn read?)")
    try:
        raw = zlib.decompress(body)
    except zlib.error as exc:
        raise SegmentCorruption(f"segment decompression failed: {exc}") from None
    offset = 0
    sections: List[Any] = []
    for _ in range(_SECTIONS):
        (n,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        value, consumed = load_value(raw, offset)
        if consumed - offset != n:
            raise SegmentCorruption("segment section length mismatch")
        offset = consumed
        sections.append(value)
    return sections


def load_segment(data: bytes) -> "SegmentView":
    """Parse and validate a segment into a searchable hydrated view.

    Raises :class:`~repro.errors.SegmentCorruption` on any framing, CRC
    or decompression failure — the caller falls back to its live backing
    replica (hydrate-from-replica).
    """
    meta, specs_raw, files_raw, acg_records, postings_raw, summary_raw = \
        _parse_sections(data)
    acg_id, node_name, incarnation, applied, file_count = meta
    specs = [IndexSpec(name, IndexKind(kind), tuple(attrs))
             for name, kind, attrs in specs_raw]
    store = AttributeStore()
    for file_id, pairs, path in files_raw:
        store.put(file_id, dict(pairs), path)
    postings = {term: PostingList.from_chunks(chunks)
                for term, chunks in postings_raw}
    attrs_seen, zones, bloom_bytes, bloom_m, bloom_k = summary_raw
    snapshot = SummarySnapshot(
        acg_id=acg_id,
        watermark=(node_name, incarnation, applied),
        dirty=False,
        file_count=file_count,
        attrs_seen=frozenset(attrs_seen),
        zones=tuple(tuple(z) for z in zones),
        bloom_bits=int.from_bytes(bloom_bytes, "little"),
        bloom_m=bloom_m,
        bloom_k=bloom_k,
    )
    return SegmentView(acg_id=acg_id, specs=specs, store=store,
                       acg_records=list(acg_records), postings=postings,
                       snapshot=snapshot, serialized_bytes=len(data))


def load_segment_payload(data: bytes) -> Dict[str, Any]:
    """Parse a segment into the legacy checkpoint payload shape
    (``{acg_id, specs, files, acg_records}``) so adoption/installation
    code consumes segments and checkpoints identically."""
    view = load_segment(data)
    files = [(file_id, dict(view.store.attrs(file_id)),
              view.store.attrs(file_id).get("path"))
             for file_id in sorted(view.store.file_ids())]
    for _fid, attrs, _path in files:
        attrs.pop("path", None)
    return {"acg_id": view.acg_id, "specs": view.specs, "files": files,
            "acg_records": list(view.acg_records)}


# -- the hydrated view -----------------------------------------------------------


@dataclass
class SegmentView:
    """One segment, parsed and searchable.

    Searches run the same exact semantics as the live path: candidates
    come from the segment's bitmap postings (keyword conjuncts) or a
    full scan, then every candidate passes the full predicate as a
    residual filter — so the matching set is identical to what the live
    B+tree/hash indexes would produce for the same data.
    """

    acg_id: int
    specs: List[IndexSpec]
    store: AttributeStore
    acg_records: List[Any]
    postings: Dict[str, PostingList]
    snapshot: SummarySnapshot
    serialized_bytes: int

    def file_count(self) -> int:
        return len(self.store)

    def resident_bytes(self) -> int:
        """Hydrated RAM footprint — the quantity the segment cache
        budgets.  No live index structures exist, so this is roughly 4x
        denser than the live replica's residency charge."""
        return 256 + self.store.estimated_bytes()

    def search(self, predicate: Predicate, now: float) -> Set[int]:
        """Exact matching file ids (same answer as the live path)."""
        return _exact_matches(
            predicate, self.store, now, self.store.file_ids,
            lambda term: self.postings.get(term, PostingList()))


# -- the node-local segment cache ------------------------------------------------


@dataclass
class SegmentCacheStats:
    """Counters a :class:`SegmentCache` accumulates."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0

    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class SegmentCache:
    """Byte-budgeted LRU of hydrated segment views, with admission.

    Admission control keeps one oversized segment from wiping the whole
    cache: a view bigger than ``admit_fraction`` of the budget is served
    once and not retained (``rejected``), the classic scan-resistance
    guard.  Sits alongside :class:`repro.cluster.cache.IndexCache` in
    the node's memory budget — that one buffers uncommitted *writes*,
    this one caches hydrated *cold reads*.
    """

    def __init__(self, budget_bytes: int, admit_fraction: float = 0.25) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"budget must be positive: {budget_bytes}")
        self.budget_bytes = budget_bytes
        self.admit_fraction = admit_fraction
        self.stats = SegmentCacheStats()
        self._views: "OrderedDict[str, SegmentView]" = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, key: str) -> bool:
        return key in self._views

    def estimated_bytes(self) -> int:
        """Hydrated bytes currently resident."""
        return self._bytes

    def get(self, key: str) -> Optional[SegmentView]:
        """Look one view up (LRU-touching it); None on miss."""
        view = self._views.get(key)
        if view is None:
            self.stats.misses += 1
            return None
        self._views.move_to_end(key)
        self.stats.hits += 1
        return view

    def put(self, key: str, view: SegmentView) -> bool:
        """Admit a freshly hydrated view; returns whether it was kept."""
        nbytes = view.resident_bytes()
        if nbytes > self.budget_bytes * self.admit_fraction:
            self.stats.rejected += 1
            return False
        old = self._views.pop(key, None)
        if old is not None:
            self._bytes -= old.resident_bytes()
        self._views[key] = view
        self._bytes += nbytes
        while self._bytes > self.budget_bytes and len(self._views) > 1:
            _evicted_key, evicted = self._views.popitem(last=False)
            self._bytes -= evicted.resident_bytes()
            self.stats.evictions += 1
        return True

    def invalidate(self, key: str) -> None:
        """Drop one view (thaw / drop-partition path)."""
        view = self._views.pop(key, None)
        if view is not None:
            self._bytes -= view.resident_bytes()

    def resize(self, budget_bytes: int) -> None:
        """Change the byte budget, evicting LRU-first if shrinking."""
        if budget_bytes <= 0:
            raise ValueError(f"budget must be positive: {budget_bytes}")
        self.budget_bytes = budget_bytes
        while self._bytes > self.budget_bytes and self._views:
            _evicted_key, evicted = self._views.popitem(last=False)
            self._bytes -= evicted.resident_bytes()
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop everything (crash / cold-start measurement)."""
        self._views.clear()
        self._bytes = 0


# -- the freeze policy -----------------------------------------------------------


@dataclass
class TierPolicy:
    """When a partition is cold enough to freeze.

    Driven from the Index Node's tick using its per-ACG last-access
    stats: a partition freezes once it has seen no search *or* update
    for ``freeze_age_s`` and its store is at least ``min_bytes`` (tiny
    partitions are not worth a round trip to the cold tier).
    """

    freeze_age_s: float = 60.0
    min_bytes: int = 4096

    def should_freeze(self, now: float, last_access: float,
                      store_bytes: int) -> bool:
        return (now - last_access >= self.freeze_age_s
                and store_bytes >= self.min_bytes)


@dataclass
class FrozenPartition:
    """Node-side record of one frozen partition (the RAM-resident part)."""

    acg_id: int
    key: str
    serialized_bytes: int
    hydrated_bytes: int
    snapshot: SummarySnapshot
    frozen_at: float
    watermark: Tuple[str, int, int]
