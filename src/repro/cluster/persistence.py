"""Shared-storage persistence of Index Node state.

Section IV: "All the indices, as well as the ACGs and their metadata, are
stored as regular files in the underlying shared file system."  This
module writes one ACG replica — attribute store, path map, the ACG
itself, and the index specs (index *contents* are rebuilt from the store,
which is smaller and always consistent) — to a single file under
``/.propeller/`` on the shared VFS, and restores it on any node.  The
file is the replica's ``PSEG`` segment (:mod:`repro.cluster.segments`),
the one format for checkpoints, frozen partitions and migration.

Two consumers:

* periodic checkpoints (crash recovery beyond the WAL window);
* failover — when the Master declares an Index Node dead, a surviving
  node adopts its ACGs straight from shared storage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from repro.cluster.segments import dump_segment, load_segment_payload
from repro.fs.vfs import VirtualFileSystem

if TYPE_CHECKING:
    from repro.cluster.index_node import AcgReplica

PROPELLER_ROOT = "/.propeller"


def replica_path(node_name: str, acg_id: int) -> str:
    """Canonical shared-storage location of one ACG's checkpoint."""
    return f"{PROPELLER_ROOT}/{node_name}/acg{acg_id:08d}.ckpt"


def write_checkpoint(vfs: VirtualFileSystem, node_name: str, acg_id: int,
                     data: bytes) -> str:
    """Write already-dumped segment bytes as one ACG's checkpoint on the
    shared VFS; returns path."""
    path = replica_path(node_name, acg_id)
    vfs.mkdir(f"{PROPELLER_ROOT}/{node_name}", parents=True)
    vfs.write_bytes(path, data)
    return path


def checkpoint_replica(vfs: VirtualFileSystem, node_name: str,
                       replica: "AcgReplica") -> str:
    """Write one replica's checkpoint to the shared VFS; returns path."""
    return write_checkpoint(vfs, node_name, replica.acg_id,
                            dump_segment(replica, node_name))


def read_checkpoint(vfs: VirtualFileSystem, path: str) -> Dict[str, Any]:
    """Load and validate a checkpoint file from the shared VFS; returns
    ``{acg_id, specs, files, acg_records}``.

    Raises :class:`~repro.errors.SegmentCorruption` (a
    :class:`~repro.errors.ClusterError`) on a corrupt file."""
    return load_segment_payload(vfs.read_bytes(path))


def remove_checkpoint(vfs: VirtualFileSystem, node_name: str, acg_id: int) -> bool:
    """Delete one ACG's checkpoint (after a completed migration the old
    owner's copy is stale and must not be adopted in a later failover).
    Returns whether a file was actually removed."""
    path = replica_path(node_name, acg_id)
    if not vfs.exists(path):
        return False
    vfs.unlink(path)
    return True


def list_checkpoints(vfs: VirtualFileSystem, node_name: str) -> List[str]:
    """All checkpoint paths a node has written (empty if none)."""
    base = f"{PROPELLER_ROOT}/{node_name}"
    if not vfs.exists(base):
        return []
    return [f"{base}/{name}" for name in vfs.readdir(base)
            if name.endswith(".ckpt")]
