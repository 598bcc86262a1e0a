"""Correctness checks, run after each round's timed phase, once every
client queue is flushed and every Index Node cache committed: a seeded
sample of the round's searches is compared with the brute-force oracle,
and a seeded sample of acknowledged writes is looked up.

The oracle is the program's own baseline, ``BruteForceSearcher``, run over
the deployment's VFS namespace.  It gets a private ``SimClock`` set to the
deployment's current virtual time, so it evaluates relative ages (``mtime
< 5s``) at the right instant but never charges the deployment's clock.
Only paths the workload asked the program to index are in scope (the
shared VFS also holds checkpoint files, which are never indexed).
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Iterable, List, Set, Tuple

from repro.baselines.bruteforce import BruteForceSearcher
from repro.fs.vfs import VirtualFileSystem
from repro.query.executor import tokenize_path
from repro.query.parser import parse_query, parse_query_directory
from repro.sim.clock import SimClock

from perfbench.workloads import Deployment

SEARCH_SAMPLE = 16   # searches of the timed phase repeated and audited
ACKED_SAMPLE = 32    # acknowledged writes re-checked after the timed phase
# Attributes a query can compare with a relative age ("mtime<5s").
TIME_ATTRIBUTES = ("mtime", "ctime", "atime")


def expected(vfs: VirtualFileSystem, scope: Set[str], query: str,
             now: float) -> Set[str]:
    """Every in-scope path that matches ``query`` at virtual time ``now``."""
    view = SimpleNamespace(clock=SimClock(now), namespace=vfs.namespace)
    searcher = BruteForceSearcher(view)
    if query.startswith("/"):
        root, predicate = parse_query_directory(query)
        paths = searcher.query_predicate(predicate)
        if root != "/":
            prefix = root.rstrip("/") + "/"
            paths = [p for p in paths if p.startswith(prefix) or p == root]
    else:
        paths = searcher.query_predicate(parse_query(query))
    return {p for p in paths if p in scope}


def agrees(dep: Deployment, query: str, got: Iterable[str],
           t_start: float, t_end: float) -> bool:
    """Whether a search answer is exactly right.

    A file whose relative age crossed the query's threshold while the
    search ran may legitimately be in or out, so the answer must contain
    everything that matched at both ends of the search and nothing that
    matched at neither.
    """
    got = set(got)
    at_start = expected(dep.vfs, dep.indexed, query, t_start)
    relative = any(attr in query for attr in TIME_ATTRIBUTES)
    at_end = expected(dep.vfs, dep.indexed, query, t_end) \
        if relative and t_end != t_start else at_start
    return (at_start & at_end) <= got <= (at_start | at_end)


def audit_searches(dep: Deployment, ops, seed: int) -> Tuple[int, List[str]]:
    """Repeat a seeded sample of the timed phase's searches from the search
    client and compare each answer with the oracle; returns how many were
    audited and the problems (wrong or degraded answers)."""
    queries = sorted({op[2] for op in ops if op[0] in ("search", "qdir")})
    if len(queries) > SEARCH_SAMPLE:
        queries = random.Random(seed).sample(queries, SEARCH_SAMPLE)
    problems = []
    clock = dep.service.clock
    for query in queries:
        t0 = clock.now()
        paths, degraded = dep.search(dep.searcher, query)
        if degraded:
            problems.append(f"degraded answer to {query!r}")
        elif not agrees(dep, query, paths, t0, clock.now()):
            problems.append(f"answer to {query!r} disagrees with the oracle")
    return len(queries), problems


def keyword_query(path: str, extra: str) -> str:
    """A query naming every keyword of ``path``, and ``extra``."""
    return " & ".join([f"keyword:{t}" for t in sorted(tokenize_path(path))] + [extra])


def stale_or_missing_writes(dep: Deployment, written: List[str],
                            seed: int) -> List[str]:
    """Acknowledged writes whose index entry is missing or stale.

    Call after every client queue is flushed and every Index Node cache
    committed.  Each sampled file is looked up by all its path keywords,
    once with its current size, where it must be found, and once with
    any other size, where it must not be (a stale entry left beside the
    fresh one would match).
    """
    sample = written if len(written) <= ACKED_SAMPLE else \
        random.Random(seed).sample(written, ACKED_SAMPLE)
    problems = []
    searcher = dep.clients[dep.searcher]
    for path in sample:
        size = dep.vfs.stat(path).size
        if path not in searcher.search(keyword_query(path, f"size=={size}")):
            problems.append(f"acknowledged write not searchable: {path}")
        if path in searcher.search(keyword_query(path, f"size!={size}")):
            problems.append(f"stale entry of a rewritten file still matches: {path}")
    return problems
