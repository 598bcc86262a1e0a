"""Shared-storage persistence and Index-Node failover."""

import pytest

from repro.cluster import PropellerService
from repro.cluster.persistence import (
    PROPELLER_ROOT,
    checkpoint_replica,
    list_checkpoints,
    read_checkpoint,
    replica_path,
)
from repro.cluster.segments import SEGMENT_MAGIC
from repro.core.partitioner import PartitioningPolicy
from repro.errors import ClusterError, SegmentCorruption, UnknownIndexNode
from repro.indexstructures import IndexKind
from repro.query import parse_query


def build(nodes=3):
    service = PropellerService(
        num_index_nodes=nodes,
        policy=PartitioningPolicy(split_threshold=500, cluster_target=60))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    client.create_index("by_kw", IndexKind.HASH, ["keyword"])
    return service, client


def populate(service, client, n=150):
    vfs = service.vfs
    vfs.mkdir("/d")
    for i in range(n):
        vfs.write_file(f"/d/f{i:03d}", 100 + i, pid=1)
        client.index_path(f"/d/f{i:03d}", pid=1)
    client.flush_updates()
    # Co-locate some causality so ACGs have edges worth persisting.
    client.flush_acg()
    service.commit_all()


def a_replica(service):
    for node in service.index_nodes.values():
        for replica in node.replicas.values():
            if replica.file_count:
                return node, replica
    raise AssertionError("no populated replica")


# -- checkpoint format ----------------------------------------------------------

def test_dump_load_roundtrip():
    service, client = build()
    populate(service, client)
    node, replica = a_replica(service)
    path = checkpoint_replica(service.vfs, node.name, replica)
    payload = read_checkpoint(service.vfs, path)
    assert payload["acg_id"] == replica.acg_id
    assert {s.name for s in payload["specs"]} == set(replica.specs)
    assert len(payload["files"]) == replica.file_count
    for file_id, attrs, file_path in payload["files"]:
        want = dict(replica.store.attrs(file_id))
        assert file_path == want.pop("path")
        assert attrs == want
    got_edges = {(u, v, w) for u, v, w in payload["acg_records"] if v != -1}
    assert got_edges == set(replica.graph.edges())


def test_checkpoint_crc_detects_corruption():
    service, client = build()
    populate(service, client)
    node, replica = a_replica(service)
    path = checkpoint_replica(service.vfs, node.name, replica)
    data = bytearray(service.vfs.read_bytes(path))
    data[30] ^= 0xFF
    service.vfs.write_bytes(path, bytes(data))
    with pytest.raises(ClusterError):
        read_checkpoint(service.vfs, path)


def test_bad_magic_rejected():
    service, _ = build()
    path = replica_path("in0", 1)
    service.vfs.mkdir(f"{PROPELLER_ROOT}/in0", parents=True)
    service.vfs.write_bytes(path, b"NOPE" + b"\x00" * 32)
    with pytest.raises(SegmentCorruption):
        read_checkpoint(service.vfs, path)


def test_live_checkpoint_is_a_segment_and_adopts_same_answers():
    service, client = build()
    populate(service, client)
    node, replica = a_replica(service)
    assert not node.frozen
    node.checkpoint_to_shared()
    path = replica_path(node.name, replica.acg_id)
    assert service.vfs.read_bytes(path)[:4] == SEGMENT_MAGIC
    other = next(n for n in service.index_nodes.values() if n is not node)
    assert other.endpoint.dispatch("adopt_acg", path) == replica.file_count
    for query in ("size>150", "keyword:f042", "size<120 | keyword:d"):
        predicate = parse_query(query)
        [want] = node.handle_search([replica.acg_id], predicate)
        [got] = other.handle_search([replica.acg_id], predicate)
        assert want.file_ids
        assert (got.file_ids, got.paths) == (want.file_ids, want.paths)


def test_checkpoint_files_land_on_shared_vfs():
    service, client = build()
    populate(service, client)
    node, replica = a_replica(service)
    path = checkpoint_replica(service.vfs, node.name, replica)
    assert path == replica_path(node.name, replica.acg_id)
    assert service.vfs.exists(path)
    assert path in list_checkpoints(service.vfs, node.name)
    payload = read_checkpoint(service.vfs, path)
    assert payload["acg_id"] == replica.acg_id


def test_checkpoint_to_shared_covers_all_replicas():
    service, client = build()
    populate(service, client)
    for node in service.index_nodes.values():
        count = node.checkpoint_to_shared()
        assert count == len(node.replicas)
        assert len(list_checkpoints(service.vfs, node.name)) == count


def test_list_checkpoints_empty_for_unknown_node():
    service, _ = build()
    assert list_checkpoints(service.vfs, "ghost") == []


# -- adoption / failover ---------------------------------------------------------

def test_adopt_acg_restores_search_results():
    service, client = build()
    populate(service, client)
    node, replica = a_replica(service)
    path = checkpoint_replica(service.vfs, node.name, replica)
    other = next(n for n in service.index_nodes.values() if n is not node)
    adopted = other.endpoint.dispatch("adopt_acg", path)
    assert adopted == replica.file_count
    twin = other.replica(replica.acg_id)
    assert twin.file_count == replica.file_count
    assert set(twin.specs) == set(replica.specs)


def test_failover_preserves_query_results():
    service, client = build()
    populate(service, client)
    before = client.search("size>0")
    service._checkpoint_all()
    victim = max(service.master.index_nodes,
                 key=service.master.partitions.node_load)
    service.fail_node(victim)
    moved = service.failover(victim)
    assert moved >= 1
    assert victim not in service.master.index_nodes
    assert client.search("size>0") == before


def test_failover_requires_survivors():
    service, client = build(nodes=1)
    populate(service, client, n=20)
    service._checkpoint_all()
    with pytest.raises(ClusterError):
        service.failover("in1")


def test_failover_unknown_node():
    service, _ = build()
    with pytest.raises(UnknownIndexNode):
        service.master.failover("ghost")


def test_detect_failed_nodes_by_heartbeat_age():
    service, client = build()
    populate(service, client, n=20)
    service.master.poll_heartbeats()
    assert service.master.detect_failed_nodes(timeout_s=15) == []
    service.clock.charge(20.0)
    assert set(service.master.detect_failed_nodes(timeout_s=15)) == \
        set(service.master.index_nodes)
    # A fresh round of heartbeats clears the suspicion.
    service.master.poll_heartbeats()
    assert service.master.detect_failed_nodes(timeout_s=15) == []


def test_poll_heartbeats_tolerates_down_node():
    service, client = build()
    populate(service, client, n=20)
    service.fail_node("in1")
    service.master.poll_heartbeats()  # must not raise
    service.clock.charge(20.0)
    assert "in1" in service.master.detect_failed_nodes(timeout_s=15)


def test_updates_after_checkpoint_are_lost_on_failover():
    """Documents the durability boundary: failover restores the last
    checkpoint; post-checkpoint updates lived in the dead node's WAL."""
    service, client = build()
    populate(service, client)
    service._checkpoint_all()
    vfs = service.vfs
    vfs.write_file("/d/late", 10_000, pid=1)
    client.index_path("/d/late", pid=1)
    client.flush_updates()
    service.commit_all()
    # The client placed the update, so its route cache — not the Master's
    # file map — knows which partition holds the late file.
    route = client._file_routes[vfs.stat("/d/late").ino]
    victim = service.master.partitions.get(route).node
    service.fail_node(victim)
    service.failover(victim)
    assert "/d/late" not in client.search("size>0")
