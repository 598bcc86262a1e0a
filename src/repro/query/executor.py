"""Plan execution against one ACG's indices — and the cluster-side
scatter-gather that stitches per-node answers into one result.

The per-ACG executor runs on an Index Node: it walks the chosen access
path to get candidate file ids, then applies the full predicate as a
residual filter against the ACG's attribute store.  Results are therefore
always exact — an over-approximate index never yields false positives.

The scatter-gather runs on the client: search legs fan out to every Index
Node in parallel and, when a leg fails transiently (node down, RPC
timeout, injected disk error), the query **degrades** instead of dying —
the surviving legs' results come back in a :class:`FanoutOutcome` whose
``degraded`` flag is set and whose ``unreachable`` map names exactly
which partitions on which nodes the answer is missing (the tail-tolerant
partial-results semantic partition-parallel search needs).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Set, Tuple)

from repro.errors import DiskIOError, NodeDown, QueryError, RpcTimeout, UnknownIndexName
from repro.indexstructures.base import Index
from repro.indexstructures.postings import PostingList, intersect_all
from repro.query.ast import And, Keyword, Predicate, conjuncts, matches
from repro.query.planner import Plan

# Failures that degrade a search leg instead of failing the whole query.
# Anything else (parse errors, unknown index names, handler bugs) is a
# caller mistake and still propagates.
DEGRADABLE_ERRORS = (NodeDown, RpcTimeout, DiskIOError)

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


def tokenize_path(path: str) -> FrozenSet[str]:
    """Keywords of a path: lower-cased alphanumeric runs, plus stem splits.

    ``/home/john/.mozilla/prefs.js`` → {home, john, mozilla, prefs, js}.
    This mirrors the paper's MySQL schema, which extracts keywords from
    the full file path.
    """
    return frozenset(t for t in _TOKEN_SPLIT.split(path.lower()) if t)


class AttributeStore:
    """Per-ACG ground truth: file id → attributes + path keywords."""

    def __init__(self) -> None:
        self._attrs: Dict[int, Dict[str, Any]] = {}
        self._keywords: Dict[int, FrozenSet[str]] = {}
        self._bytes = 0  # running estimated_bytes: 64/entry + 16/attr

    def __len__(self) -> int:
        return len(self._attrs)

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._attrs

    def put(self, file_id: int, attrs: Mapping[str, Any], path: Optional[str] = None) -> None:
        """Insert/refresh one file's attributes (and path keywords)."""
        entry = self._attrs.get(file_id)
        if entry is None:
            entry = self._attrs[file_id] = {}
            self._bytes += 64
        before = len(entry)
        entry.update(attrs)
        if path is not None:
            entry["path"] = path
            self._keywords[file_id] = tokenize_path(path)
        self._bytes += 16 * (len(entry) - before)

    def drop(self, file_id: int) -> None:
        """Forget one file entirely."""
        entry = self._attrs.pop(file_id, None)
        if entry is not None:
            self._bytes -= 64 + 16 * len(entry)
        self._keywords.pop(file_id, None)

    def attrs(self, file_id: int) -> Dict[str, Any]:
        """The file's attribute dict ({} if unknown)."""
        return self._attrs.get(file_id, {})

    def keywords(self, file_id: int) -> FrozenSet[str]:
        """The file's path keywords (empty set if unknown)."""
        return self._keywords.get(file_id, frozenset())

    def file_ids(self) -> Iterator[int]:
        """Iterate every known file id."""
        return iter(self._attrs)

    def estimated_bytes(self) -> int:
        """Rough serialized size, used by the page-cache cost model.

        O(1): a running counter maintained by put/drop — this runs
        inside every residency check, so a per-call sweep over every
        entry would dominate large partitions.
        """
        return self._bytes


def _candidates(plan: Plan, indexes: Mapping[str, Index],
                store: AttributeStore) -> Iterable[int]:
    if plan.access == "scan":
        return list(store.file_ids())
    if plan.index_name is None or plan.index_name not in indexes:
        raise UnknownIndexName(str(plan.index_name))
    index = indexes[plan.index_name]
    if plan.access in ("hash_eq", "keyword"):
        return index.get(plan.key)
    if plan.access == "btree_range":
        return [value for _, value in index.range(  # type: ignore[attr-defined]
            plan.low, plan.high,
            include_low=plan.include_low, include_high=plan.include_high)]
    if plan.access == "kdtree_range":
        return [value for _, value in index.range(plan.lows, plan.highs)]  # type: ignore[attr-defined]
    raise QueryError(f"unknown access path: {plan.access!r}")


def _exact_matches(predicate: Predicate, store: AttributeStore, now: float,
                   fallback: Callable[[], Iterable[int]],
                   postings: Optional[Callable[[str], PostingList]] = None
                   ) -> Set[int]:
    """The exact-search core shared by the live and frozen paths.

    With a posting source, every keyword that is a mandatory conjunct
    (``conjuncts`` only flattens top-level ANDs, so each is required)
    narrows the candidate set up front with a vectorized bitmap AND of
    ``postings(term)``.  Without one, or when the predicate has no
    top-level keyword conjunct (e.g. a disjunctive branch plan),
    candidates come from ``fallback()``.  Every candidate then passes
    the full predicate as a residual filter, so the answer is exact
    either way.
    """
    candidates: Optional[Iterable[int]] = None
    if postings is not None:
        terms = [c.term for c in conjuncts(predicate) if isinstance(c, Keyword)]
        if terms:
            candidates = intersect_all(postings(term) for term in terms)
    if candidates is None:
        candidates = fallback()
    result: Set[int] = set()
    for file_id in candidates:
        if file_id in result or file_id not in store:
            continue
        if matches(predicate, store.attrs(file_id), store.keywords(file_id), now):
            result.add(file_id)
    return result


def execute(plan: Plan, predicate: Predicate, indexes: Mapping[str, Index],
            store: AttributeStore, now: float) -> Set[int]:
    """Run one plan; return the exact set of matching file ids.

    A keyword plan intersects the keyword index's posting lists for every
    keyword conjunct; every other plan walks its access path."""
    if (plan.access == "keyword"
            and plan.index_name is not None and plan.index_name in indexes):
        index = indexes[plan.index_name]
        return _exact_matches(
            predicate, store, now, lambda: index.get(plan.key),
            lambda term: PostingList.from_iterable(index.get(term)))
    return _exact_matches(predicate, store, now,
                          lambda: _candidates(plan, indexes, store))


def execute_plans(plans: Iterable[Plan], predicate: Predicate,
                  indexes: Mapping[str, Index], store: AttributeStore,
                  now: float) -> Set[int]:
    """Union of several plans (disjunctive queries), still exact: every
    candidate is re-checked against the full predicate."""
    result: Set[int] = set()
    for plan in plans:
        result |= execute(plan, predicate, indexes, store, now)
    return result


# -- degraded scatter-gather ---------------------------------------------------


@dataclass
class FanoutOutcome:
    """What a partition-parallel search fan-out actually achieved.

    ``results`` holds every per-node answer that arrived; ``unreachable``
    maps each failed node to the partition (ACG) ids its leg was asked to
    search, and ``errors`` keeps the error text per failed node.  A query
    is ``degraded`` exactly when at least one leg failed — the caller got
    a correct but possibly incomplete answer and can name what is
    missing.

    Epoch-stamped legs add two routing-health signals: ``stale`` maps a
    node to the ACGs it declined because it no longer owns them (the
    client should refresh its route table and retry those partitions),
    and ``node_epochs`` records each answering node's routing epoch so a
    behind-the-times client can notice the cluster has moved on.
    """

    results: List[Any] = field(default_factory=list)
    unreachable: Dict[str, List[int]] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    stale: Dict[str, List[int]] = field(default_factory=dict)
    node_epochs: Dict[str, int] = field(default_factory=dict)
    # Partitions the owning node *validated* as skippable (summary
    # watermark matched, nothing pending) — these count as served even
    # though no SearchResult came back for them.
    pruned_ok: Set[int] = field(default_factory=set)

    @property
    def degraded(self) -> bool:
        return bool(self.unreachable)

    @property
    def unreachable_partitions(self) -> List[int]:
        """Every partition id the answer is missing, sorted."""
        return sorted(acg for acgs in self.unreachable.values() for acg in acgs)

    @property
    def stale_partitions(self) -> List[int]:
        """Every partition a node declined as not-owned, sorted."""
        return sorted(acg for acgs in self.stale.values() for acg in acgs)

    def max_node_epoch(self) -> int:
        """The highest routing epoch any answering node reported."""
        return max(self.node_epochs.values(), default=0)


def scatter_gather(clock, routing: Mapping[str, Sequence[int]],
                   call: Callable[[str], Any]) -> FanoutOutcome:
    """Fan one search out to every node in ``routing``, tolerating legs.

    ``call(node)`` performs one node's search RPC (retries included — the
    RPC layer owns those); legs run as logically concurrent work on the
    virtual clock, so the caller waits for the slowest leg, including a
    failed leg's timeout burn.  Legs that still fail with a transient
    error after retries are recorded against the partitions they covered
    instead of aborting the fan-out.
    """
    nodes = sorted(routing)
    outcome = FanoutOutcome()

    def leg(node: str):
        try:
            return node, call(node), None
        except DEGRADABLE_ERRORS as exc:
            return node, None, exc

    for node, batch, error in clock.parallel(
            [(lambda n=n: leg(n)) for n in nodes]):
        if error is not None:
            outcome.unreachable[node] = sorted(routing[node])
            outcome.errors[node] = f"{type(error).__name__}: {error}"
        elif hasattr(batch, "results") and hasattr(batch, "not_owned"):
            # An epoch-stamped SearchReply: unpack results and record the
            # routing-health signals the client's retry round consumes.
            outcome.results.extend(batch.results)
            outcome.node_epochs[node] = batch.epoch
            if batch.not_owned:
                outcome.stale[node] = sorted(batch.not_owned)
            outcome.pruned_ok.update(getattr(batch, "pruned_ok", ()))
        else:
            outcome.results.extend(batch)
    return outcome
