"""Failure injection: crashes, WAL recovery, node failures, ACG loss."""

import pytest

from repro.cluster import PropellerService
from repro.cluster.index_node import IndexNode
from repro.cluster.master import MasterNode
from repro.core.partitioner import PartitioningPolicy
from repro.errors import NodeDown
from repro.indexstructures import IndexKind
from repro.query.planner import IndexSpec
from repro.sim.clock import SimClock
from repro.sim.machine import Cluster, Machine
from repro.sim.rpc import RpcNetwork


def build(nodes=2):
    service = PropellerService(
        num_index_nodes=nodes,
        policy=PartitioningPolicy(split_threshold=200, cluster_target=50))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    return service, client


def populate(service, client, n=60):
    vfs = service.vfs
    vfs.mkdir("/d")
    for i in range(n):
        vfs.write_file(f"/d/f{i:03d}", 100 + i, pid=1)
        client.index_path(f"/d/f{i:03d}", pid=1)
    client.flush_updates()


def test_index_node_crash_then_wal_recovery():
    """Acknowledged-but-uncommitted updates survive a crash via the WAL."""
    service, client = build(nodes=1)
    populate(service, client, n=40)
    node = service.index_nodes["in1"]
    pending = len(node.cache)
    assert pending > 0
    # Crash: lose the in-memory cache, keep the WAL bytes.
    wal_bytes = bytearray(node.wal._buffer)
    replacement = IndexNode("in1-reborn", Machine(SimClock()))
    replacement.handle_create_index(IndexSpec("by_size", IndexKind.BTREE, ("size",)))
    replacement.wal._buffer = wal_bytes
    recovered = replacement.recover_from_wal()
    assert recovered == 40
    total = sum(r.file_count for r in replacement.replicas.values())
    assert total == 40


def test_torn_wal_tail_loses_only_last_record():
    """Two flushes write two batch frames; a torn tail loses only the
    second batch, and the batch before it recovers in full."""
    service, client = build(nodes=1)
    populate(service, client, n=10)  # first flush -> first batch record
    for i in range(10, 16):
        service.vfs.write_file(f"/d/f{i:03d}", 100 + i, pid=1)
        client.index_path(f"/d/f{i:03d}", pid=1)
    client.flush_updates()  # second batch record
    node = service.index_nodes["in1"]
    assert node.wal.fsyncs == 2
    node.wal.simulate_torn_tail(5)
    replacement = IndexNode("r", Machine(SimClock()))
    replacement.handle_create_index(IndexSpec("by_size", IndexKind.BTREE, ("size",)))
    replacement.wal._buffer = bytearray(node.wal._buffer)
    assert replacement.recover_from_wal() == 10
    assert replacement.wal.replay_dropped == 1
    recovered = sorted(replica.store.attrs(fid)["path"]
                       for replica in replacement.replicas.values()
                       for fid in replica.store.file_ids())
    assert recovered == [f"/d/f{i:03d}" for i in range(10)]


def test_torn_wal_tail_drops_whole_batch_record():
    """Group commit makes the WAL unit the batch: a torn tail can only
    drop whole batch records, never leave a partially-applied envelope."""
    service, client = build(nodes=1)
    populate(service, client, n=10)  # one flush -> one batch record
    node = service.index_nodes["in1"]
    assert node.wal.fsyncs == 1
    node.wal.simulate_torn_tail(5)
    replacement = IndexNode("r", Machine(SimClock()))
    replacement.handle_create_index(IndexSpec("by_size", IndexKind.BTREE, ("size",)))
    replacement.wal._buffer = bytearray(node.wal._buffer)
    # The torn frame was the whole 10-update envelope: recovery sees
    # none of it (atomic loss), rather than 9 of 10 (partial apply).
    assert replacement.recover_from_wal() == 0
    assert replacement.wal.replay_dropped == 1


def test_search_degrades_when_node_down():
    """A dead Index Node degrades the answer instead of failing it: the
    surviving legs' paths come back, and the verdict names exactly which
    partitions (and which node) the answer is missing."""
    service, client = build(nodes=2)
    populate(service, client, n=60)
    full = client.search("size>0")
    # The search fans out to every *placed* partition (the Master no
    # longer tracks per-file membership), so every partition routed to
    # the dead node is reported unreachable.
    dead_partitions = sorted(
        p.partition_id for p in service.master.partitions.partitions()
        if p.node == "in1")
    service.index_nodes["in1"].endpoint.fail()
    answer = client.search_detailed("size>0")
    assert answer.degraded
    assert answer.unreachable_nodes == ["in1"]
    assert answer.unreachable_partitions == dead_partitions
    assert set(answer.paths) <= set(full)
    assert len(answer.paths) < len(full)


def test_recovered_node_serves_again():
    service, client = build(nodes=2)
    populate(service, client, n=60)
    want = client.search("size>0")
    service.index_nodes["in1"].endpoint.fail()
    service.index_nodes["in1"].endpoint.recover()
    assert client.search("size>0") == want


def test_master_checkpoint_restore_preserves_routing():
    """MN metadata is periodically flushed to shared storage; a restored
    MN routes identically."""
    service, client = build(nodes=2)
    populate(service, client, n=80)
    records = service.master.checkpoint()
    cluster2 = Cluster(["mn2"])
    restored = MasterNode.restore(cluster2["mn2"], RpcNetwork(cluster2.network),
                                  records, list(service.master.index_nodes))
    for _, inode in service.vfs.namespace.files():
        assert restored.partitions.partition_of(inode.ino) == \
            service.master.partitions.partition_of(inode.ino)


def test_acg_loss_does_not_affect_search_correctness():
    """Propeller's weak ACG consistency: dropping a client's cached ACG
    loses placement quality, never result accuracy."""
    service, client = build(nodes=2)
    vfs = service.vfs
    vfs.mkdir("/d")
    for i in range(30):
        vfs.write_file(f"/d/f{i}", 50 + i, pid=1)
        client.index_path(f"/d/f{i}", pid=1)
    client.flush_updates()
    # Simulate losing the client-side ACG before flush.
    client.access_manager.drain()
    client.flush_acg()   # flushes an empty graph
    got = client.search("size>0")
    assert got == sorted(p for p, _ in vfs.namespace.files())


def test_duplicate_index_updates_are_idempotent():
    service, client = build(nodes=1)
    vfs = service.vfs
    vfs.mkdir("/d")
    vfs.write_file("/d/f", 100, pid=1)
    for _ in range(5):
        client.index_path("/d/f", pid=1)
    client.flush_updates()
    assert client.search("size==100") == ["/d/f"]
    assert service.total_indexed_files() == 1


def test_cache_commit_order_preserved_for_same_file():
    """Later updates win: re-upsert then delete leaves nothing behind."""
    service, client = build(nodes=1)
    vfs = service.vfs
    vfs.mkdir("/d")
    vfs.write_file("/d/f", 100, pid=1)
    client.index_path("/d/f", pid=1)
    inode = vfs.stat("/d/f")
    client.delete_path_index(inode.ino)
    client.flush_updates()
    assert client.search("size>0") == []
