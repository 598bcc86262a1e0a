"""Propeller benchmark: one seeded, closed-loop workload, measured end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload build-ingest --seed 1 --seconds 30 --trace 0

A run is a series of *rounds*.  A round builds a fresh deployment (set-up:
deployment, preload, untimed warm-up), then runs the workload's fixed
timed op stream in one thread: each call returns before the next is
issued, with a fixed virtual think time (``service.advance``) between
ops.  Round ``k`` uses sub-seed ``k % SUBSEEDS`` of the run's seed.  The
first ``SUBSEEDS`` rounds always run, and their pooled samples give every
simulated-clock metric, so those are a pure function of the seed.  More
rounds run while they fit in ``--seconds``; each repeats an earlier
sub-seed, must reproduce its simulated numbers bit for bit, and adds wall
samples.

Wall-clock figures are normalized for the machine's momentary speed: a
fixed slice of interpreter work (``calibration_slice``) runs every
``CAL_EVERY_S`` of the timed phase, outside the timed time, and the wall
time between two slices is scaled by ``CAL_REFERENCE_S`` over the median
of the ``CAL_WINDOW`` slices around it (set-up time by the slices run
just before and after it).
A shared, noisy host then moves the program's times and the slice's
together and the ratio stays put; a change to the program moves only the
program's times.  Raw figures are printed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs two
rounds of sub-seed 0 (plain, then with span tracing), checks that both
give identical simulated numbers, checks the self-time accounting against
the harness's own clock readings, writes the spans under
``.perfbench_out/``, and reports the per-layer metrics.

Human-readable lines go to standard output first; the last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# End-to-end metrics, in report order: (name, unit).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("update_wall_p50_us", "us"),
    ("search_wall_p50_ms", "ms"),
    ("search_sim_mean_ms", "ms"),
    ("search_sim_tail99_ms", "ms"),
    ("update_sim_mean_us", "us"),
    ("update_sim_tail999_us", "us"),
    ("freshness_sim_p50_s", "s"),
    ("freshness_sim_tail99_s", "s"),
    ("index_bytes_per_file", "B"),
    ("peak_rss_mb", "MB"),
)

# Layer extras reported by the traced run, beyond calls/wall/sim: (name, unit).
LAYER_EXTRAS: Tuple[Tuple[str, str], ...] = (
    ("core.causality_pairs", "count"),
    ("cluster.client.coalesced_frac", "ratio"),
    ("cluster.client.route_cache_hit_rate", "ratio"),
    ("cluster.client.flushes", "count"),
    ("sim.rpc.request_bytes", "B"),
    ("sim.rpc.retries", "count"),
    ("sim.rpc.failures", "count"),
    ("cluster.wal.records_per_append", "ratio"),
    ("cluster.cache.ops_per_commit", "ratio"),
    ("cluster.index_node.apply.updates", "count"),
    ("replication.records", "count"),
    ("replication.lag_max", "count"),
    ("indexstructures.hash.values_inserted", "count"),
    ("indexstructures.serialization.bytes", "B"),
    ("query.legs", "count"),
    ("query.legs_pruned_frac", "ratio"),
    ("query.result_cache_hit_rate", "ratio"),
    ("query.results_per_search", "count"),
    ("cluster.segments.bytes_dumped", "B"),
    ("cluster.segments.freezes", "count"),
    ("cluster.segments.thaws", "count"),
    ("cluster.segments.cache_hit_rate", "ratio"),
    ("cluster.segments.cache_evictions", "count"),
    ("sim.objectstore.bytes_out", "B"),
    ("sim.objectstore.errors", "count"),
    ("sim.objectstore.usd_per_kop", "USD"),
    ("sim.disk.bytes", "B"),
    ("sim.memory.calls", "count"),
    ("sim.memory.hit_ratio", "ratio"),
    ("bench.unattributed_wall_s", "s"),
    ("bench.unattributed_sim_s", "s"),
    ("bench.sim_fanout_overlap_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.failed_frac", "ratio"),
)

# A tail is the mean of the slowest (1 - q) of the samples, and of at
# least this many of them.
TAIL_MIN_SAMPLES = 10
# Distinct sub-seeds per run; also the minimum number of rounds.
SUBSEEDS = 3
# Machine-speed calibration: a slice every CAL_EVERY_S of the timed
# phase, normalizing by the median of CAL_WINDOW slices around each stretch
# (and CAL_SETUP_SLICES before and after each set-up); CAL_REFERENCE_S is
# the slice time that counts as nominal speed.
CAL_EVERY_S = 0.1
CAL_WINDOW = 10
CAL_SETUP_SLICES = 8
CAL_REFERENCE_S = 1.0e-3
# Tolerance of the self-time accounting check (float sums).
ACCOUNTING_RTOL = 1e-6
ACCOUNTING_ATOL = 1e-9


def per_layer_names() -> List[Tuple[str, str]]:
    from perfbench.layers import LAYERS
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.wall_self_s", "s"),
                  (f"{layer}.sim_self_s", "s")]
    return names + list(LAYER_EXTRAS)


# -- statistics ------------------------------------------------------------------

def percentile(values: List[float], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile: (value, n)."""
    n = len(values)
    if n == 0:
        return 0.0, 0
    rank = max(1, math.ceil(q * n - 1e-9))
    return sorted(values)[rank - 1], n


def tail_mean(values: List[float], q: float) -> Tuple[float, int, int]:
    """Mean of the slowest ``1 - q`` of ``values`` (at least
    ``TAIL_MIN_SAMPLES`` of them, at most half): (value, k, n).

    The cost model charges a few discrete amounts (one hydration, two,
    ...), so a plain percentile sits on one step or the next depending on
    whether ~1% of samples reached it, and jumps between seeds.  The mean
    beyond the percentile moves smoothly with the tail's mass and size.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0, 0
    k = min(max(TAIL_MIN_SAMPLES, math.ceil((1 - q) * n - 1e-9)), max(1, n // 2))
    return statistics.fmean(sorted(values)[n - k:]), k, n


# -- one round -------------------------------------------------------------------

@dataclass
class Round:
    setup_s: float = 0.0
    timed_wall_s: float = 0.0
    timed_sim_s: float = 0.0
    ops: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    update_wall: List[float] = field(default_factory=list)
    update_sim: List[float] = field(default_factory=list)
    search_wall: List[float] = field(default_factory=list)
    search_sim: List[float] = field(default_factory=list)
    freshness: List[float] = field(default_factory=list)
    searches: int = 0
    results: int = 0
    audits: int = 0
    written: List[str] = field(default_factory=list)
    index_bytes_per_file: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    sizes: Dict[str, object] = field(default_factory=dict)
    repl_lag_max: int = 0
    cal: List[float] = field(default_factory=list)
    setup_cal: List[float] = field(default_factory=list)
    timed_norm_s: float = 0.0
    # The harness's own clock readings: inside ops, inside the think-time
    # advances, and the think time it asked for.
    op_wall_s: float = 0.0
    op_sim_s: float = 0.0
    think_wall_s: float = 0.0
    think_sim_s: float = 0.0
    think_issued_s: float = 0.0
    tracer: Optional[object] = None

    @property
    def slowness(self) -> float:
        """Median calibration slice time over nominal (> 1: slow machine)."""
        return statistics.median(self.cal) / CAL_REFERENCE_S if self.cal else 1.0

    @property
    def ops_per_s(self) -> float:
        """Ops per second of the timed phase, normalized to nominal speed."""
        return self.ops / self.timed_norm_s

    @property
    def setup_norm_s(self) -> float:
        return self.setup_s / (statistics.median(self.setup_cal) / CAL_REFERENCE_S)

    def sim_signature(self) -> tuple:
        """Everything on the simulated clock; must repeat bit for bit."""
        return (self.ops, self.failed, self.timed_sim_s, self.searches,
                self.results, self.index_bytes_per_file,
                tuple(self.update_sim), tuple(self.search_sim),
                tuple(self.freshness), tuple(sorted(self.counters.items())))


def counters(dep) -> Dict[str, float]:
    """The program's own public counters, summed over the deployment."""
    svc = dep.service
    nodes = list(svc.index_nodes.values())
    reg = svc.registry
    stats = [m.page_cache.stats for m in svc.cluster]
    seg = [n.segment_cache.stats for n in nodes]
    store = svc.object_store
    return {
        "client.updates_sent": sum(c.updates_sent for c in dep.clients),
        "client.route_hits": sum(c.route_cache_hits for c in dep.clients),
        "client.route_misses": sum(c.route_cache_misses for c in dep.clients),
        "cache.updates_committed": sum(n.cache.stats.updates_committed for n in nodes),
        "cache.commits": sum(n.cache.stats.timeout_commits + n.cache.stats.search_commits
                             + n.cache.stats.flush_commits for n in nodes),
        "result_cache.hits": sum(n.result_cache_hits for n in nodes),
        "result_cache.misses": sum(n.result_cache_misses for n in nodes),
        "tier.freezes": sum(n.tier_freezes for n in nodes),
        "tier.thaws": sum(n.tier_thaws for n in nodes),
        "segcache.hits": sum(s.hits for s in seg),
        "segcache.misses": sum(s.misses for s in seg),
        "segcache.evictions": sum(s.evictions for s in seg),
        "store.bytes_out": store.stats.bytes_out,
        "store.errors": store.stats.errors,
        "store.usd": store.simulated_cost_usd(),
        "page.hits": sum(s.hits for s in stats),
        "page.accesses": sum(s.accesses for s in stats),
        "rpc.retries": reg.value("cluster.rpc.retries") if "cluster.rpc.retries" in reg else 0,
        "rpc.failures": reg.value("cluster.rpc.failures") if "cluster.rpc.failures" in reg else 0,
    }


def run_round(workload, seed: int, traced: bool = False,
              scale: float = 1.0, skip: Tuple[str, ...] = ()) -> Round:
    """Build, warm up and run one timed phase; with ``traced``, the layer
    boundaries (except the ``skip`` layers) are wrapped first."""
    from perfbench.layers import Patches, Tracer
    from perfbench.oracle import audit_searches, stale_or_missing_writes

    tracer = patches = None
    if traced:
        tracer = Tracer()
        patches = Patches(tracer, skip).install()
    try:
        gc.collect()
        setup_cal = [calibration_slice() for _ in range(CAL_SETUP_SLICES)]
        t0 = time.perf_counter()
        dep = workload.build(seed, scale=scale)
        setup_s = time.perf_counter() - t0
        setup_cal += [calibration_slice() for _ in range(CAL_SETUP_SLICES)]
        rnd = Round(setup_s=setup_s, setup_cal=setup_cal, sizes=dep.sizes,
                    tracer=tracer)
        _timed_phase(dep, rnd, tracer)
        # Untimed audits: searches agree with the oracle, and acknowledged
        # writes are searchable with their final attributes and only those.
        dep.flush_all()
        dep.service.commit_all()
        rnd.audits, problems = audit_searches(dep, dep.ops, seed)
        problems += stale_or_missing_writes(dep, rnd.written, seed)
        rnd.failed += len(problems)
        rnd.failures += problems
        rnd.index_bytes_per_file = dep.index_bytes() / len(dep.indexed)
    finally:
        if patches is not None:
            patches.restore()
    return rnd


_CAL_TABLE = {i: i * 7 for i in range(512)}


def calibration_slice() -> float:
    """A fixed slice of interpreter work: dict lookups and integer
    arithmetic, allocating nothing the garbage collector tracks (so it
    never pays for a collection of the program's heap).  Returns its
    wall seconds."""
    table = _CAL_TABLE
    t0 = time.perf_counter()
    acc = 0
    for _ in range(12):
        for i in range(512):
            acc += (table[i ^ 5] + i) % 7
    elapsed = time.perf_counter() - t0
    if acc <= 0:
        raise RuntimeError("calibration slice did no work")
    return elapsed


def _timed_phase(dep, rnd: Round, tracer) -> None:
    svc = dep.service
    clock_now = svc.clock.now
    advance = svc.advance
    think = dep.think_s
    perf = time.perf_counter
    clients = dep.clients
    written: Dict[str, None] = {}
    paused = 0.0
    lag_gauge = "cluster.health.repl_lag_max"
    sample_lag = tracer is not None and lag_gauge in svc.registry
    before = counters(dep)
    sim_start = clock_now()
    if tracer is not None:
        tracer.start(clock_now)
    wall_start = perf()
    cal_next = wall_start + CAL_EVERY_S
    # Timed (unpaused) wall seconds at each calibration slice; the samples
    # taken between slices k-1 and k are tagged with k.
    marks: List[float] = []
    update_k: List[int] = []
    search_k: List[int] = []
    for i, op in enumerate(dep.ops):
        kind = op[0]
        if tracer is not None:
            tracer.op_id = i
        wc = perf()
        if wc >= cal_next:
            marks.append(wc - wall_start - paused)
            rnd.cal.append(calibration_slice())
            cal_next = perf()
            paused += cal_next - wc
            cal_next += CAL_EVERY_S
        s0 = clock_now()
        w0 = perf()
        error = None
        try:
            if kind == "read":
                dep.read(op[2], op[3])
            elif kind == "write":
                dep.write(op[1], op[2], op[3], op[4])
            elif kind == "exit":
                clients[op[1]].process_finished(op[2])
            else:
                paths, degraded = dep.search(op[1], op[2])
        except Exception:  # an op that raises is a failure; keep going
            error = traceback.format_exc(limit=3)
        w1 = perf()
        s1 = clock_now()
        rnd.op_wall_s += w1 - w0
        rnd.op_sim_s += s1 - s0
        if error is not None:
            rnd.failed += 1
            rnd.failures.append(f"op {i} {op!r}: {error}")
        elif kind == "write":
            rnd.update_wall.append(w1 - w0)
            update_k.append(len(marks))
            rnd.update_sim.append(s1 - s0)
            written[op[3]] = None
        elif kind in ("search", "qdir"):
            if degraded:
                rnd.failed += 1
                rnd.failures.append(f"op {i}: degraded answer to {op[2]!r}")
            rnd.search_wall.append(w1 - w0)
            search_k.append(len(marks))
            rnd.search_sim.append(s1 - s0)
            rnd.searches += 1
            rnd.results += len(paths)
        if tracer is not None:
            tracer.phase = "think"
        w0 = perf()
        advance(think)
        rnd.think_wall_s += perf() - w0
        rnd.think_sim_s += clock_now() - s1
        rnd.think_issued_s += think
        if tracer is not None:
            tracer.phase = "op"
        if sample_lag and i % 64 == 0:
            rnd.repl_lag_max = max(rnd.repl_lag_max, svc.registry.value(lag_gauge))
    wall_end = perf()
    if tracer is not None:
        tracer.stop()
    sim_end = clock_now()
    after = counters(dep)
    rnd.counters = {k: after[k] - before[k] for k in after}
    rnd.ops = len(dep.ops)
    rnd.timed_wall_s = wall_end - wall_start - paused
    _normalize(rnd, marks, update_k, search_k)
    rnd.timed_sim_s = sim_end - sim_start
    rnd.freshness = [s for t, s in dep.freshness.observed
                     if t - s >= sim_start and t <= sim_end]
    rnd.written = list(written)


def _normalize(rnd: Round, marks: List[float], update_k: List[int],
               search_k: List[int]) -> None:
    """Scale the round's wall times to nominal machine speed, locally: the
    stretch between calibration slices k-1 and k is divided by the median
    slowness of the CAL_WINDOW slices around it, because the machine's
    speed moves within seconds, not only between rounds."""
    cal = rnd.cal or rnd.setup_cal
    half = CAL_WINDOW // 2
    local = [statistics.median(cal[max(0, k - half):k + half] or cal) / CAL_REFERENCE_S
             for k in range(len(marks) + 1)]
    edges = [0.0] + marks + [rnd.timed_wall_s]
    rnd.timed_norm_s = sum((edges[k + 1] - edges[k]) / local[k]
                           for k in range(len(local)))
    rnd.update_wall = [v / local[k] for v, k in zip(rnd.update_wall, update_k)]
    rnd.search_wall = [v / local[k] for v, k in zip(rnd.search_wall, search_k)]


# -- checks ------------------------------------------------------------------------

def accounting_errors(rnd: Round) -> List[str]:
    """Check the traced round's spans against the harness's own clock
    readings, taken around every op and every think-time advance.

    * Virtual time that passes inside an op is charged by the program's
      layers, so root spans must cover all of it: a boundary that charges
      virtual time and is left unwrapped shows as a gap here.
    * Virtual time outside every span during the think-time advances can
      only be idle time, so it may not exceed the think time asked for.
    * On the wall clock the root spans of each phase lie inside the
      harness's readings of that phase.
    """
    tr = rnd.tracer
    errors = []

    def close(a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=ACCOUNTING_RTOL, abs_tol=ACCOUNTING_ATOL)

    if not close(tr.root_sim_in["op"], rnd.op_sim_s):
        errors.append(f"sim: spans cover {tr.root_sim_in['op']!r} s of the "
                      f"{rnd.op_sim_s!r} virtual s spent inside ops")
    idle = rnd.think_sim_s - tr.root_sim_in["think"]
    if idle < -ACCOUNTING_ATOL or idle > rnd.think_issued_s * (1 + ACCOUNTING_RTOL) \
            + ACCOUNTING_ATOL:
        errors.append(f"sim: {idle!r} virtual s outside every span during "
                      f"think time, against {rnd.think_issued_s!r} s asked for")
    if not close(tr.sim_gaps, rnd.timed_sim_s - sum(tr.root_sim_in.values())):
        errors.append(f"sim: unattributed {tr.sim_gaps!r} s does not match "
                      f"the timed phase outside root spans")
    for phase, measured in (("op", rnd.op_wall_s), ("think", rnd.think_wall_s)):
        if tr.root_wall_in[phase] > measured * (1 + ACCOUNTING_RTOL) + ACCOUNTING_ATOL:
            errors.append(f"wall: spans cover {tr.root_wall_in[phase]!r} s "
                          f"of {phase} time measured as {measured!r} s")
    return errors


# -- metrics -------------------------------------------------------------------------

def end_to_end(rounds: List[Round]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Metric values plus a note per metric (clock, percentile level, n).

    Simulated-clock metrics pool the first ``SUBSEEDS`` rounds (one per
    sub-seed); wall-clock metrics use every round, normalized."""
    sim_rounds = rounds[:SUBSEEDS]
    values: Dict[str, float] = {}
    notes: Dict[str, str] = {}

    def put(name, value, note):
        values[name] = value
        notes[name] = note

    def sim_pool(attr):
        return [v for r in sim_rounds for v in getattr(r, attr)]

    def wall_pool(attr):
        return [v for r in rounds for v in getattr(r, attr)]

    put("setup_s", statistics.median(r.setup_norm_s for r in rounds),
        f"wall, normalized; median of {len(rounds)} set-ups")
    put("ops_per_s", statistics.median(r.ops_per_s for r in rounds),
        f"wall, normalized; median of {len(rounds)} rounds")
    for name, attr, scale in (("update_wall_p50_us", "update_wall", 1e6),
                              ("search_wall_p50_ms", "search_wall", 1e3)):
        v, n = percentile(wall_pool(attr), 0.5)
        put(name, v * scale, f"wall, normalized; p50 of n={n} over all rounds")
    for name, attr, scale in (("search_sim_mean_ms", "search_sim", 1e3),
                              ("update_sim_mean_us", "update_sim", 1e6)):
        samples = sim_pool(attr)
        v = statistics.fmean(samples) if samples else 0.0
        put(name, v * scale, f"sim; mean of n={len(samples)}")
    for name, attr, q, scale in (("search_sim_tail99_ms", "search_sim", 0.99, 1e3),
                                 ("update_sim_tail999_us", "update_sim", 0.999, 1e6),
                                 ("freshness_sim_tail99_s", "freshness", 0.99, 1.0)):
        v, k, n = tail_mean(sim_pool(attr), q)
        put(name, v * scale, f"sim; mean of the slowest {k} of n={n}")
    v, n = percentile(sim_pool("freshness"), 0.5)
    put("freshness_sim_p50_s", v, f"sim; p50 of n={n}")
    put("index_bytes_per_file",
        statistics.fmean(r.index_bytes_per_file for r in sim_rounds),
        "bytes of the newest checkpoint (segments when frozen) per indexed file")
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "peak resident set of this process")
    return {name: values[name] for name, _ in END_TO_END}, notes


def summary_lines(rounds: List[Round]) -> Dict[str, Tuple[float, str, str]]:
    """Figures printed for people but left out of the JSON result,
    because 0 is a legitimate value for them: name -> (value, unit, note)."""
    sim_rounds = rounds[:SUBSEEDS]
    ops = sum(r.ops for r in sim_rounds)
    failed = sum(r.failed for r in sim_rounds)
    usd = sum(r.counters["store.usd"] for r in sim_rounds)
    raw_ops = statistics.median(r.ops / r.timed_wall_s for r in rounds)
    return {
        "failed_frac": (failed / ops, "ratio", f"{failed} failed of {ops} ops"),
        "coldtier_usd_per_kop": (usd / (ops / 1000), "USD",
                                 "sim; object-store dollars per 1000 ops"),
        "ops_per_s_raw": (raw_ops, "ops/s", "wall, not normalized; median"),
        "setup_s_raw": (statistics.median(r.setup_s for r in rounds), "s",
                        "wall, not normalized; median"),
        "machine_slowness": (statistics.median(r.slowness for r in rounds), "ratio",
                             "median calibration slice / reference"),
    }


def round_seed(seed: int, k: int) -> int:
    """The workload seed of round ``k`` of a run with ``seed``."""
    return seed * SUBSEEDS + k % SUBSEEDS


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: Round, plain: Round) -> Dict[str, float]:
    from perfbench.layers import LAYERS
    tr = traced.tracer
    c = traced.counters
    x = tr.extras
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = tr.calls[layer]
        out[f"{layer}.wall_self_s"] = tr.wall_self[layer]
        out[f"{layer}.sim_self_s"] = tr.sim_self[layer]
    queued = x.get("cluster.client.updates_queued", 0)
    out.update({
        "core.causality_pairs": x.get("core.causality_pairs", 0),
        "cluster.client.coalesced_frac":
            _ratio(queued - c["client.updates_sent"], queued) if queued else 0.0,
        "cluster.client.route_cache_hit_rate":
            _ratio(c["client.route_hits"], c["client.route_hits"] + c["client.route_misses"]),
        "cluster.client.flushes": x.get("cluster.client.flushes", 0),
        "sim.rpc.request_bytes": x.get("sim.rpc.request_bytes", 0),
        "sim.rpc.retries": c["rpc.retries"],
        "sim.rpc.failures": c["rpc.failures"],
        "cluster.wal.records_per_append":
            _ratio(x.get("cluster.wal.records", 0), tr.calls["cluster.wal"]),
        "cluster.cache.ops_per_commit":
            _ratio(c["cache.updates_committed"], c["cache.commits"]),
        "cluster.index_node.apply.updates": x.get("cluster.index_node.apply.updates", 0),
        "replication.records": x.get("replication.records", 0),
        "replication.lag_max": traced.repl_lag_max,
        "indexstructures.hash.values_inserted":
            x.get("indexstructures.hash.values_inserted", 0),
        "indexstructures.serialization.bytes":
            x.get("indexstructures.serialization.bytes", 0),
        "query.legs": x.get("query.legs", 0),
        "query.legs_pruned_frac":
            _ratio(x.get("query.summary_pruned", 0), x.get("query.summary_checks", 0)),
        "query.result_cache_hit_rate":
            _ratio(c["result_cache.hits"], c["result_cache.hits"] + c["result_cache.misses"]),
        "query.results_per_search": _ratio(traced.results, traced.searches),
        "cluster.segments.bytes_dumped": x.get("cluster.segments.bytes_dumped", 0),
        "cluster.segments.freezes": c["tier.freezes"],
        "cluster.segments.thaws": c["tier.thaws"],
        "cluster.segments.cache_hit_rate":
            _ratio(c["segcache.hits"], c["segcache.hits"] + c["segcache.misses"]),
        "cluster.segments.cache_evictions": c["segcache.evictions"],
        "sim.objectstore.bytes_out": c["store.bytes_out"],
        "sim.objectstore.errors": c["store.errors"],
        "sim.objectstore.usd_per_kop": c["store.usd"] / (traced.ops / 1000),
        "sim.disk.bytes": x.get("sim.disk.bytes", 0),
        "sim.memory.calls": c["page.accesses"],
        "sim.memory.hit_ratio": _ratio(c["page.hits"], c["page.accesses"]),
        "bench.unattributed_wall_s": traced.timed_wall_s - tr.root_wall,
        "bench.unattributed_sim_s": tr.sim_gaps,
        "bench.sim_fanout_overlap_s": tr.sim_fanout_overlap,
        "bench.trace_overhead_frac": 1.0 - traced.ops_per_s / plain.ops_per_s,
        "bench.failed_frac": traced.failed / traced.ops,
    })
    return out


# -- entry point -----------------------------------------------------------------------

def _bootstrap() -> None:
    """Make the program importable from the checkout, or exit non-zero."""
    missing = [p for p in ("src/repro/__init__.py", "benchmarks/common.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: program sources not found under {ROOT}: "
              f"{', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    name = workload.name
    problems: List[str] = []
    started = time.perf_counter()
    if args.trace:
        seed0 = round_seed(args.seed, 0)
        plain = run_round(workload, seed0)
        traced = run_round(workload, seed0, traced=True)
        rounds = [plain, traced]
        if plain.sim_signature() != traced.sim_signature():
            problems.append("traced run's simulated numbers differ from the plain run's")
        problems += accounting_errors(traced)
        tr = traced.tracer
        print(f"{name}: inside ops {traced.op_sim_s!r} virtual s, "
              f"{tr.root_sim_in['op']!r} in spans; think time "
              f"{traced.think_sim_s!r} virtual s ({traced.think_issued_s!r} asked), "
              f"{tr.root_sim_in['think']!r} in spans")
        print(f"{name}: inside ops {traced.op_wall_s:.4f} wall s, "
              f"{tr.root_wall_in['op']:.4f} in spans; think time "
              f"{traced.think_wall_s:.4f} wall s, {tr.root_wall_in['think']:.4f} in spans")
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{name}-seed{args.seed}.csv"
        n = traced.tracer.write_spans(str(span_file))
        print(f"{name}: {n} spans written to {span_file.relative_to(ROOT)}"
              f" ({traced.tracer.spans_dropped} beyond the cap not written)")
        metrics = per_layer(traced, plain)
        units = dict(per_layer_names())
        notes = {}
    else:
        rounds = []
        # Every sub-seed once; then more rounds while the next is expected
        # (from the last one's length) to end within the budget.
        last = 0.0
        while (len(rounds) < SUBSEEDS
               or time.perf_counter() - started + last <= args.seconds):
            t0 = time.perf_counter()
            rounds.append(run_round(workload, round_seed(args.seed, len(rounds))))
            last = time.perf_counter() - t0
        for k in range(SUBSEEDS, len(rounds)):
            if rounds[k].sim_signature() != rounds[k - SUBSEEDS].sim_signature():
                problems.append(f"round {k} did not reproduce the simulated "
                                f"numbers of round {k - SUBSEEDS} (same sub-seed)")
        metrics, notes = end_to_end(rounds)
        units = dict(END_TO_END)
    first = rounds[0]
    print(f"{name}: seed {args.seed}, {len(rounds)} rounds, closed loop, "
          f"sizes {json.dumps(first.sizes, sort_keys=True)}")
    print(f"{name}: per round: set-up s {[round(r.setup_s, 3) for r in rounds]}, "
          f"ops/s {[round(r.ops / r.timed_wall_s, 1) for r in rounds]}, "
          f"slowness {[round(r.slowness, 3) for r in rounds]}, "
          f"oracle audits {[r.audits for r in rounds]}")
    for key in metrics:
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{name}  {key} = {metrics[key]:.6g} {units[key]}{note}")
    if not args.trace:
        for key, (value, unit, note) in summary_lines(rounds).items():
            print(f"{name}  {key} = {value:.6g} {unit}  ({note})")
    for failure in [f for r in rounds for f in r.failures][:20]:
        print(f"{name}  FAILED: {failure}")
    for problem in problems:
        print(f"{name}  CHECK FAILED: {problem}")
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
