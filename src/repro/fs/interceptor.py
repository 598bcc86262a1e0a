"""File Access Management — the client-side FUSE shim.

Observes a :class:`~repro.fs.vfs.VirtualFileSystem`, converting open calls
into :class:`~repro.core.trace.AccessEvent`s and building a per-client ACG
in RAM exactly as the paper's client does (Section IV).  Create/unlink are
surfaced through callbacks so the Propeller client can keep the Master
Node's file→ACG mapping current.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.acg import AccessCausalityGraph
from repro.core.trace import AccessEvent, TraceRecorder
from repro.fs.namespace import Inode
from repro.fs.vfs import OpenMode
from repro.obs.freshness import NULL_FRESHNESS


class FileAccessManager:
    """Intercepts open/close/create/unlink and maintains an in-RAM ACG.

    ``on_create(path, inode)`` / ``on_unlink(path, inode)`` callbacks fire
    on namespace changes; :meth:`drain` hands over the accumulated ACG (the
    client flushes it to Index Nodes when the I/O process finishes, with
    *weak* consistency — losing a drained ACG is tolerable by design).
    """

    def __init__(self,
                 on_create: Optional[Callable[[str, Inode], None]] = None,
                 on_unlink: Optional[Callable[[str, Inode], None]] = None,
                 on_rename: Optional[Callable[[str, str, Inode], None]] = None,
                 pid_filter: Optional[set] = None) -> None:
        self._recorder = TraceRecorder()
        self._acg = AccessCausalityGraph()
        self._create_cb = on_create
        self._unlink_cb = on_unlink
        self._rename_cb = on_rename
        self._pid_filter = pid_filter
        self.events_seen = 0
        # Freshness instrumentation (wired by the client / service): a
        # close-after-write is the instant a file's content changed, so
        # it is where the staleness stopwatch starts.
        self.freshness = NULL_FRESHNESS

    def _watches(self, pid: int) -> bool:
        # Negative pids are system components (checkpoint writers, the
        # service itself); their I/O is never part of application
        # causality.
        if pid < 0:
            return False
        return self._pid_filter is None or pid in self._pid_filter

    # -- VFS observer callbacks ---------------------------------------------

    def on_open(self, pid: int, path: str, inode: Inode, mode: OpenMode, t: float) -> None:
        """VFS observer hook: record an open as an access event."""
        if not self._watches(pid):
            return
        event = AccessEvent(
            pid=pid,
            file_id=inode.ino,
            read=bool(mode & OpenMode.READ),
            write=bool(mode & OpenMode.WRITE),
            t_open=t,
        )
        self.events_seen += 1
        self._acg.add_file(inode.ino)
        for producer, consumer in self._recorder.record(event):
            self._acg.add_causality(producer, consumer)

    def on_close(self, pid: int, path: str, inode: Inode, mode: OpenMode, t: float) -> None:
        # Close marks the end of the access; causality is keyed on opens,
        # so nothing to extract — but a close-after-write is the moment
        # the file's content changed, which starts the staleness clock.
        if not self._watches(pid):
            return
        if mode & OpenMode.WRITE:
            self.freshness.stamp(inode.ino, t)

    def on_create(self, pid: int, path: str, inode: Inode, t: float) -> None:
        """VFS observer hook: register the new file as an ACG vertex."""
        if not self._watches(pid):
            return
        self._acg.add_file(inode.ino)
        self.freshness.stamp(inode.ino, t)
        if self._create_cb is not None:
            self._create_cb(path, inode)

    def on_unlink(self, pid: int, path: str, inode: Inode, t: float) -> None:
        """VFS observer hook: drop the file's vertex and notify the client."""
        if not self._watches(pid):
            return
        self._acg.remove_file(inode.ino)
        if self._unlink_cb is not None:
            self._unlink_cb(path, inode)

    def on_rename(self, pid: int, old_path: str, new_path: str,
                  inode: Inode, t: float) -> None:
        # Causality is keyed on inodes, so the ACG is untouched; but the
        # client needs to refresh the path-derived index entries.
        if not self._watches(pid):
            return
        if self._rename_cb is not None:
            self._rename_cb(old_path, new_path, inode)

    # -- client-side API -------------------------------------------------------

    def last_file(self, pid: int, exclude: Optional[int] = None) -> Optional[int]:
        """The file this process touched most recently (placement hint)."""
        return self._recorder.last_file(pid, exclude=exclude)

    def process_finished(self, pid: int) -> None:
        """Forget a process's open history once it exits."""
        self._recorder.finish_process(pid)

    def peek(self) -> AccessCausalityGraph:
        """The ACG accumulated so far (not cleared)."""
        return self._acg

    def drain(self) -> AccessCausalityGraph:
        """Hand over the cached ACG and start a fresh one (client flush)."""
        acg, self._acg = self._acg, AccessCausalityGraph()
        return acg
