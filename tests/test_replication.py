"""repro.replication: replica sets, promotion failover, hedged search.

Covers the RF>1 subsystem end to end — log semantics, streaming
convergence, promotion-based failover (and its deferred outcome),
hedged search legs against stragglers, the partial-results deadline
path, the follower crash-restart heal, and the chaos ``replicas
converge`` invariant at RF=2.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.runner import run_chaos
from repro.cluster import PropellerService
from repro.cluster.messages import IndexUpdate, ReplicaSearchReply, UpdateAck
from repro.core.partitioner import PartitioningPolicy
from repro.errors import ClusterError, NodeDown
from repro.indexstructures import IndexKind
from repro.obs.metrics import MetricsRegistry
from repro.replication import HedgedReply, HedgePolicy, ReplicationLog
from repro.sim.clock import SimClock
from repro.sim.machine import Machine
from repro.sim.rpc import CallOutcome, HedgedOutcome

HEARTBEAT_PERIOD_S = 5.0


def make_replicated(nodes=3, rf=2, files=60):
    """(service, client, paths): an indexed RF>1 deployment, converged."""
    service = PropellerService(
        num_index_nodes=nodes, replication_factor=rf,
        policy=PartitioningPolicy(split_threshold=20, cluster_target=10))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    vfs = service.vfs
    vfs.mkdir("/data")
    paths = []
    for i in range(files):
        path = f"/data/f{i:04d}.bin"
        vfs.write_file(path, 1024 * (i + 1), pid=9)
        paths.append(path)
    client.index_paths(paths, pid=9)
    client.flush_updates()
    service.advance(2 * HEARTBEAT_PERIOD_S)
    service.sync_replication()
    return service, client, paths


def assert_converged(service):
    """Every live follower matches its primary's log and store."""
    master = service.master
    checked = 0
    for acg_id in master.replica_sets.partitions():
        partition = next((p for p in master.partitions.partitions()
                          if p.partition_id == acg_id), None)
        if partition is None or not partition.node:
            continue
        primary = service.index_nodes[partition.node]
        if not primary.endpoint.up:
            continue
        state = primary.repl.get(acg_id)
        rs = master.replica_sets.state(acg_id)
        if state is None or rs is None:
            continue
        primary_ids = set(primary.replicas[acg_id].store.file_ids())
        for follower in rs.followers:
            fnode = service.index_nodes[follower]
            if not fnode.endpoint.up:
                continue
            fstate = fnode.followers.get(acg_id)
            assert fstate is not None, (acg_id, follower)
            assert fstate.applied_seq == state.log.last_seq, (acg_id, follower)
            assert set(fstate.replica.store.file_ids()) == primary_ids
            checked += 1
    assert checked > 0, "no replicated partition was actually checked"


# -- ReplicationLog -----------------------------------------------------------

def test_replication_log_append_and_since():
    log = ReplicationLog()
    assert log.last_seq == 0
    u1 = IndexUpdate.upsert(1, {"size": 1})
    u2 = IndexUpdate.upsert(2, {"size": 2})
    assert log.append(u1) == 1
    assert log.append(u2) == 2
    assert log.last_seq == 2
    assert log.since(0) == ((1, u1), (2, u2))
    assert log.since(1) == ((2, u2),)
    assert log.since(2) == ()


def test_replication_log_trim_makes_prefix_unservable():
    log = ReplicationLog()
    updates = [IndexUpdate.upsert(i, {"size": i}) for i in range(1, 6)]
    for u in updates:
        log.append(u)
    log.trim_to(3)
    assert log.since(3) == ((4, updates[3]), (5, updates[4]))
    assert log.since(2) is None  # trimmed away: caller must snapshot
    assert log.last_seq == 5


def test_replication_log_base_continues_sequence():
    log = ReplicationLog(base=7)
    assert log.last_seq == 7
    assert log.append(IndexUpdate.upsert(1, {})) == 8
    assert log.since(6) is None  # before the base: not servable


# -- streaming convergence ----------------------------------------------------

def test_followers_converge_after_indexing():
    service, client, paths = make_replicated()
    assert_converged(service)
    # Every replicated partition has exactly rf - 1 followers.
    for acg_id in service.master.replica_sets.partitions():
        rs = service.master.replica_sets.state(acg_id)
        assert len(rs.followers) == service.replication_factor - 1


def test_route_table_carries_replicas():
    service, client, _ = make_replicated()
    client.search("size>=0")
    assert client._route_replicas, "client learned no replica routes"
    for acg_id, replicas in client._route_replicas.items():
        rs = service.master.replica_sets.state(acg_id)
        assert tuple(sorted(replicas)) == tuple(sorted(rs.followers))


def test_client_learns_ack_watermarks():
    service, client, _ = make_replicated()
    assert client._repl_seq_seen, "no UpdateAck carried a sequence"
    for acg_id, seq in client._repl_seq_seen.items():
        node = service.index_nodes[service.master.route_of(acg_id)] \
            if hasattr(service.master, "route_of") else None
        assert seq > 0


# -- promotion failover -------------------------------------------------------

def test_failover_promotes_caught_up_follower():
    service, client, paths = make_replicated()
    before = sorted(client.search("size>=0"))
    victim = "in1"
    owned = [p.partition_id for p in service.master.partitions.partitions()
             if p.node == victim]
    assert owned, "victim owned no partitions; rebalance the test setup"
    service.fail_node(victim)
    moved = service.failover(victim)
    assert moved == len(owned)
    event = service.master.failover_log[-1]
    assert event.outcome == "promoted"
    assert sorted(event.promoted) == sorted(owned)
    assert not event.moved  # nothing went through checkpoint adoption
    assert dict(event.watermarks).keys() == set(owned)
    promotions = service.registry.counter("cluster.master.promotions").value
    assert promotions == len(owned)
    # The promoted copies serve the full dataset.
    assert sorted(client.search("size>=0")) == before


def test_failover_deferred_when_followers_lag():
    service, client, _ = make_replicated()
    victim = "in1"
    owned = [p.partition_id for p in service.master.partitions.partitions()
             if p.node == victim]
    assert owned
    # Strand the victim's partitions: every follower of them is wound
    # back (simulated lag), and checkpoint adoption is ruled out by
    # failing every survivor's endpoint... instead, roll the follower
    # watermark back and fail the *other* survivors so no adopter exists.
    for name, node in service.index_nodes.items():
        for acg_id, fstate in node.followers.items():
            if acg_id in owned:
                fstate.applied_seq = 0
    service.fail_node(victim)
    for name in service.index_nodes:
        if name != victim:
            service.index_nodes[name].endpoint.fail()
    with pytest.raises(ClusterError):
        service.failover(victim)
    event = service.master.failover_log[-1]
    assert event.outcome == "deferred"
    assert sorted(event.deferred) == sorted(owned)
    # The deferred event reports how far behind the best candidate was.
    assert dict(event.watermarks).keys() <= set(owned)
    deferred = service.registry.counter(
        "cluster.master.failover_deferred").value
    assert deferred == 1


# -- replication epochs are log generations -----------------------------------

def test_set_followers_force_bump_zeroes_watermarks():
    from repro.replication import ReplicaSetManager

    mgr = ReplicaSetManager(rf=2)
    epoch = mgr.set_followers(1, ("in2",))
    mgr.record_primary(1, epoch, 40, (("in2", 40),))
    mgr.record_follower(1, "in2", epoch, 40)
    st = mgr.state(1)
    assert st.primary_seq == 40 and st.applied["in2"] == 40
    # Same membership without force: steady-state retries don't churn.
    assert mgr.set_followers(1, ("in2",)) == epoch
    assert st.primary_seq == 40
    # Forced bump = new log generation: the old watermarks are not
    # comparable to the new log's sequences and must go, not max-fold.
    assert mgr.set_followers(1, ("in2",), force=True) == epoch + 1
    assert st.primary_seq == 0
    assert st.applied == {"in2": 0} and st.acked == {"in2": 0}
    # Late old-generation reports are rejected outright.
    mgr.record_primary(1, epoch, 40, (("in2", 40),))
    mgr.record_follower(1, "in2", epoch, 40)
    assert st.primary_seq == 0 and st.applied["in2"] == 0


def test_node_side_epoch_bump_resets_master_watermarks():
    from repro.replication import ReplicaSetManager

    mgr = ReplicaSetManager(rf=2)
    epoch = mgr.set_followers(1, ("in2",))
    mgr.record_primary(1, epoch, 40, (("in2", 40),))
    mgr.record_follower(1, "in2", epoch, 40)
    # The primary restarted its log generation (self-bump in
    # ``_reset_repl``) and its heartbeat reached the Master before the
    # Master's own forced bump: the newer epoch is adopted and the old
    # generation's maxima dropped wholesale.
    mgr.record_primary(1, epoch + 1, 2, (("in2", 2),))
    st = mgr.state(1)
    assert st.repl_epoch == epoch + 1
    assert st.primary_seq == 2
    assert st.applied == {"in2": 0}
    assert st.acked == {"in2": 2}


def test_failover_never_promotes_stale_generation_follower():
    service, client, paths = make_replicated()
    victim = "in1"
    owned = [p.partition_id for p in service.master.partitions.partitions()
             if p.node == victim]
    assert owned
    primary = service.index_nodes[victim]
    # The primary restarts its partitions' log generations (what a
    # split/merge/adoption does) and the self-bump reaches the Master
    # via a heartbeat.  The followers still hold high watermarks of the
    # *previous* generation — numerically "caught up", semantically
    # stale.
    for acg_id in owned:
        primary._reset_repl(acg_id)
    service.master.report_heartbeat(primary.make_heartbeat())
    for acg_id in owned:
        rs = service.master.replica_sets.state(acg_id)
        assert rs.primary_seq == 0, "old-generation primary_seq survived"
    service.fail_node(victim)
    try:
        service.failover(victim)
    except ClusterError:
        pass  # an all-deferred round raises; the point is no promotion
    event = service.master.failover_log[-1]
    assert not event.promoted
    assert service.registry.counter("cluster.master.promotions").value == 0


def test_install_follower_fenced_below_current_epoch():
    from repro.cluster.index_node import IndexNode
    from repro.errors import StaleReplEpoch

    node = IndexNode("f1", Machine(SimClock()))
    node.handle_install_follower(1, "p1", 3, 5, [], [(1, {"size": 1}, "/a")])
    before = node.followers[1]
    # A deposed primary's stale snapshot must not rewind the replica.
    with pytest.raises(StaleReplEpoch):
        node.handle_install_follower(1, "p0", 2, 0, [], [])
    assert node.followers[1] is before
    assert before.repl_epoch == 3 and before.applied_seq == 5
    # Same-epoch re-install stays allowed: the live primary re-bootstraps
    # within a generation (e.g. after trimming past a follower's ack).
    node.handle_install_follower(1, "p1", 3, 7, [], [])
    assert node.followers[1].applied_seq == 7


def test_install_follower_fenced_against_own_primary_claim():
    from repro.cluster.index_node import IndexNode, PrimaryReplState
    from repro.errors import StaleReplEpoch

    node = IndexNode("n1", Machine(SimClock()))
    node.repl[1] = PrimaryReplState(repl_epoch=4)
    # At or below the node's own primary epoch the installer is the
    # stale one — rejected, claim kept.
    with pytest.raises(StaleReplEpoch):
        node.handle_install_follower(1, "p0", 4, 0, [], [])
    assert 1 in node.repl
    # Strictly above it, this node's claim is the stale one: it cedes
    # the partition and becomes a follower of the newer primary.
    node.handle_install_follower(1, "p2", 5, 3, [], [])
    assert 1 not in node.repl
    assert node.followers[1].repl_epoch == 5


def test_membership_bump_refreshes_retained_follower_epochs():
    service, client, paths = make_replicated(nodes=4, rf=3)
    oracle = sorted(client.search("size>=0"))
    # Knock one node out and rebuild every ring it belonged to.  Rings
    # that merely *changed membership* bump the epoch without restarting
    # the log, so the retained follower has nothing to stream — it must
    # still be told the new epoch (empty apply), or its heartbeats and
    # live watermark answers would keep the old epoch and promotion
    # would refuse a genuinely caught-up replica.
    victim = "in1"
    service.fail_node(victim)
    service.failover(victim)
    service.sync_replication()
    for acg_id in service.master.replica_sets.partitions():
        rs = service.master.replica_sets.state(acg_id)
        for follower in rs.followers:
            fstate = service.index_nodes[follower].followers.get(acg_id)
            if fstate is not None:
                assert fstate.repl_epoch >= rs.repl_epoch, (acg_id, follower)
    # After heartbeats re-report at the refreshed epoch, a retained
    # follower is fully viable again: the next primary death promotes.
    service.advance(2 * HEARTBEAT_PERIOD_S)
    victim2 = sorted({p.node for p in service.master.partitions.partitions()
                      if p.node})[0]
    service.fail_node(victim2)
    service.failover(victim2)
    assert service.master.failover_log[-1].outcome == "promoted"
    assert sorted(client.search("size>=0")) == oracle


def test_deposed_primary_self_fences_instead_of_clobbering():
    service, client, paths = make_replicated(nodes=4, rf=3)
    victim = "in1"
    owned = [p.partition_id for p in service.master.partitions.partitions()
             if p.node == victim]
    assert owned
    victim_node = service.index_nodes[victim]
    assert any(a in victim_node.repl for a in owned)
    # Partition the primary away (endpoint down, state intact), promote
    # a follower, and rebuild the new primaries' replica rings.
    service.fail_node(victim)
    service.failover(victim)
    assert service.master.failover_log[-1].outcome == "promoted"
    service.sync_replication()
    # The deposed primary comes back still believing it owns the
    # partitions and runs its catch-up duty; forcing every ack slot to
    # -1 drives the snapshot-install path — the exact shape that used
    # to blindly overwrite the new generation's replicas.
    victim_node.endpoint.recover()
    deposed_before = victim_node.repl_deposed
    stale_acgs = [a for a in sorted(victim_node.repl) if a in owned]
    assert stale_acgs
    for acg_id in stale_acgs:
        st = victim_node.repl[acg_id]
        for follower in st.followers:
            st.acked[follower] = -1
        victim_node._sync_followers(acg_id)
    # Every stale claim was fenced and dropped, not retried.
    assert victim_node.repl_deposed >= deposed_before + len(stale_acgs)
    for acg_id in stale_acgs:
        assert acg_id not in victim_node.repl
    # No current-generation replica was rewound below the Master's epoch.
    for acg_id in owned:
        rs = service.master.replica_sets.state(acg_id)
        for follower in rs.followers:
            fstate = service.index_nodes[follower].followers.get(acg_id)
            if fstate is not None:
                assert fstate.repl_epoch >= rs.repl_epoch
    assert_converged(service)


# -- hedged search ------------------------------------------------------------

def test_hedged_search_beats_straggling_primary():
    from repro.chaos.faults import FaultInjector

    service, client, paths = make_replicated()
    oracle = sorted(client.search("size>=0"))
    faults = FaultInjector(seed=7, registry=service.registry)
    service.rpc.faults = faults
    primaries = {p.node for p in service.master.partitions.partitions()
                 if p.node}
    straggler = sorted(primaries)[0]
    faults.slow_node(straggler, 1.0)  # way past the 50ms hedge delay
    got = sorted(client.search("size>=0"))
    assert got == oracle
    hedges = service.registry.counter("cluster.client.hedges").value
    wins = service.registry.counter("cluster.client.hedge_wins").value
    assert hedges > 0
    assert wins > 0


def test_hedge_policy_delay_tracks_p95():
    registry = MetricsRegistry()
    policy = HedgePolicy(registry, default_delay_s=0.05)
    assert policy.delay_s() == pytest.approx(0.05)  # too few samples
    for _ in range(20):
        policy.observe(0.010)
    policy.observe(10.0)
    assert 0.005 < policy.delay_s() < 1.0  # p95-derived, not the max


class _FakeClock:
    def __init__(self, now=0.0):
        self._now = now

    def now(self):
        return self._now

    def advance_to(self, t):
        assert t >= self._now
        self._now = t


def _hedge_client():
    """A client-shaped object good enough to call ``_resolve_hedge``."""
    service = PropellerService(num_index_nodes=2, replication_factor=2)
    return service.make_client()


def test_resolve_hedge_prefers_first_sound_answer():
    client = _hedge_client()
    policy = client.hedging
    clock = _FakeClock()
    reply = ReplicaSearchReply(node="in2", epoch=3, results=["r"])
    out = HedgedOutcome(primary=CallOutcome(ok=True, value="primary"),
                        secondary=CallOutcome(ok=True, value=reply),
                        primary_end=0.1, secondary_end=0.2, hedged=True)
    ctx = {"lagging": set()}
    got = client._resolve_hedge(clock, 0.0, out, policy, ctx, None)
    assert got == "primary"
    assert clock.now() == pytest.approx(0.1)

    clock = _FakeClock()
    out = HedgedOutcome(primary=CallOutcome(ok=True, value="primary"),
                        secondary=CallOutcome(ok=True, value=reply),
                        primary_end=0.3, secondary_end=0.2, hedged=True)
    got = client._resolve_hedge(clock, 0.0, out, policy, ctx, None)
    assert isinstance(got, HedgedReply)
    assert got.from_replica and got.results == ["r"]
    assert clock.now() == pytest.approx(0.2)


def test_resolve_hedge_lagging_needs_deadline_opt_in():
    client = _hedge_client()
    policy = client.hedging
    lagging_reply = ReplicaSearchReply(node="in2", epoch=3, results=["r"],
                                       lagging=(4,))
    down = NodeDown("in1 is down")
    out = HedgedOutcome(primary=CallOutcome(ok=False, error=down),
                        secondary=CallOutcome(ok=True, value=lagging_reply),
                        primary_end=0.1, secondary_end=0.2, hedged=True)
    # Without the opt-in a lagging answer is refused: the leg fails.
    with pytest.raises(NodeDown):
        client._resolve_hedge(_FakeClock(), 0.0, out, policy,
                              {"lagging": set()}, None)
    # An in-deadline lagging answer is accepted and recorded.
    ctx = {"lagging": set()}
    got = client._resolve_hedge(_FakeClock(), 0.0, out, policy, ctx, 1.0)
    assert isinstance(got, HedgedReply)
    assert got.lagging == (4,)
    assert ctx["lagging"] == {4}
    # The deadline is a real time bound, not just an opt-in flag: a
    # lagging answer that landed after it (0.2 > 0.15) is refused too.
    ctx = {"lagging": set()}
    with pytest.raises(NodeDown):
        client._resolve_hedge(_FakeClock(), 0.0, out, policy, ctx, 0.15)
    assert ctx["lagging"] == set()


def test_search_deadline_marks_answer_partial():
    service, client, paths = make_replicated()
    victim = "in1"
    owned = [p.partition_id for p in service.master.partitions.partitions()
             if p.node == victim]
    assert owned
    # Wind the surviving followers of the victim's partitions back so
    # their answers are lagging, then kill the primary without failover.
    for name, node in service.index_nodes.items():
        for acg_id, fstate in node.followers.items():
            if acg_id in owned and fstate.applied_seq > 0:
                fstate.applied_seq -= 1
    service.fail_node(victim)
    answer = client.search_detailed("size>=0", deadline_s=5.0)
    assert answer.partial
    assert set(answer.lagging_partitions) <= set(owned)
    partials = service.registry.counter(
        "cluster.client.partial_searches").value
    assert partials >= 1


# -- messages -----------------------------------------------------------------

def test_update_ack_is_int_compatible():
    ack = UpdateAck(3, acg_id=7, seq=12, repl_epoch=2)
    assert ack == 3
    assert ack + 1 == 4
    assert ack.acg_id == 7 and ack.seq == 12 and ack.repl_epoch == 2


# -- replica apply idempotency (property) -------------------------------------

N_RECORDS = 12


def _fresh_follower():
    node_machine = Machine(SimClock())
    from repro.cluster.index_node import IndexNode
    node = IndexNode("f1", node_machine)
    node.handle_install_follower(1, "p1", repl_epoch=1, seq=0,
                                 specs=[], files=[])
    return node


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, N_RECORDS - 1), st.integers(1, N_RECORDS),
              st.integers(1, 3)),
    max_size=12))
def test_replicate_apply_idempotent_under_resend_and_reorder(chunks):
    """Any storm of re-sent / overlapping / out-of-order log suffixes at
    non-decreasing-enough epochs leaves the replica equal to one clean
    in-order apply: duplicates skip, gaps stop, nothing double-applies."""
    # The primary logs one record per group-commit batch: here each
    # batch carries one update.
    records = [(i + 1, (IndexUpdate.upsert(i + 1, {"size": i + 1}),))
               for i in range(N_RECORDS)]
    node = _fresh_follower()
    max_epoch = 1
    for start, end, epoch in chunks:
        if start >= end:
            continue
        if epoch < max_epoch:
            with pytest.raises(ClusterError):
                node.handle_replicate_apply(1, epoch, records[start:end])
            continue
        max_epoch = max(max_epoch, epoch)
        applied = node.handle_replicate_apply(1, epoch, records[start:end])
        st_state = node.followers[1]
        assert applied == st_state.applied_seq
        # The applied prefix is always exactly files 1..applied.
        assert set(st_state.replica.store.file_ids()) == set(
            range(1, applied + 1))
    # A final in-order full stream always converges the replica.
    node.handle_replicate_apply(1, max_epoch, records)
    st_state = node.followers[1]
    assert st_state.applied_seq == N_RECORDS
    assert set(st_state.replica.store.file_ids()) == set(
        range(1, N_RECORDS + 1))


def test_replicate_apply_survives_promotion():
    node = _fresh_follower()
    records = [(i + 1, (IndexUpdate.upsert(i + 1, {"size": i + 1}),))
               for i in range(5)]
    node.handle_replicate_apply(1, 1, records)
    applied, count = node.handle_promote_replica(1, repl_epoch=2)
    assert (applied, count) == (5, 5)
    # Re-delivery of the old stream after promotion cannot corrupt the
    # now-primary copy: the follower identity is gone.
    from repro.errors import UnknownAcg
    with pytest.raises(UnknownAcg):
        node.handle_replicate_apply(1, 1, records)
    assert set(node.replicas[1].store.file_ids()) == {1, 2, 3, 4, 5}
    # The primary continues the sequence from its applied watermark.
    assert node.repl[1].log.last_seq == 5


# -- histogram percentiles ----------------------------------------------------

def test_histogram_percentile_accessors():
    registry = MetricsRegistry()
    hist = registry.histogram("t.lat", unit="s")
    for i in range(1, 101):
        hist.observe(i / 100.0)
    assert hist.p50 == pytest.approx(0.50, abs=0.02)
    assert hist.p95 == pytest.approx(0.95, abs=0.02)
    assert hist.p99 == pytest.approx(0.99, abs=0.02)
    summary = hist.summary()
    assert summary["p50"] == hist.p50
    assert summary["p95"] == hist.p95
    assert summary["p99"] == hist.p99


# -- follower crash-restart heal ----------------------------------------------

def test_master_heals_follower_that_lost_its_replica():
    service, client, _ = make_replicated()
    assert_converged(service)
    # Pick any replicated partition and crash-restart its follower: the
    # volatile replica dies, but the primary still records it caught up.
    acg_id = service.master.replica_sets.partitions()[0]
    rs = service.master.replica_sets.state(acg_id)
    partition = next(p for p in service.master.partitions.partitions()
                     if p.partition_id == acg_id)
    follower = rs.followers[0]
    fnode = service.index_nodes[follower]
    primary = service.index_nodes[partition.node]
    assert primary.repl[acg_id].acked[follower] > 0
    fnode.crash()
    fnode.restart()
    assert acg_id not in fnode.followers  # replica really is gone
    # The heartbeat round notices the silent follower and voids its ack.
    service.advance(2 * HEARTBEAT_PERIOD_S)
    service.sync_replication()
    assert_converged(service)


# -- chaos at RF=2 ------------------------------------------------------------

def test_chaos_rf2_clean_and_deterministic():
    report = run_chaos(seed=1, steps=40, rf=2)
    assert report["violations"] == []
    assert report["rf"] == 2
    counters = report["counters"]
    assert counters.get("cluster.master.promotions", 0) > 0
    again = run_chaos(seed=1, steps=40, rf=2)
    assert json.dumps(report, sort_keys=True) == json.dumps(
        again, sort_keys=True)
