"""Shared-memory column arenas: named segments that move tables by name.

The unit of transport is a :class:`TableRef` — a tiny picklable descriptor
(segment name, per-column dtype/shape/offset) standing in for a whole
columnar table whose bytes live in a ``multiprocessing.shared_memory``
segment. Pickling a ref costs O(schema); attaching it back costs one mmap,
after which every numeric column is a zero-copy NumPy view into the
segment. Object-dtype string columns are stored as an int64 offsets array
plus a UTF-8 blob (see :mod:`repro.memory.layout`) and are materialized on
read — varlen data has no zero-copy object representation.

Lifecycle is explicit and process-local, tracked by the module's
:class:`SegmentManager` singleton:

* ``create_table_segment`` writes a table and **owns** the name;
* ``map_ref`` attaches (cached per name) and returns views whose ``base``
  chain (array → memoryview → mmap) keeps the mapping object alive;
* ``release`` unlinks the name and *detaches*: it drops the segment's own
  references to the mapping instead of calling ``close()``. NumPy views
  hold only an object reference to the exporting memoryview — not a live
  buffer export — so ``close()`` would munmap under them without so much
  as a ``BufferError``; detaching lets the mapping die exactly when the
  last view does (immediately, when there is none);
* ``reap`` force-unlinks by name without a prior attach — the crash path
  (a worker died between creating its result segment and handing the ref
  back, so only the *name convention* survives).

Every create/attach immediately unregisters the name from Python's
``resource_tracker``: with fork workers all processes share one tracker,
and its per-process bookkeeping double-counts a segment that is created in
a worker, attached in the parent and unlinked once — the manager is the
single authority for cleanup, and the tests' leak fixture verifies it.
"""

from __future__ import annotations

import os
import pickle
import secrets
import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ReproError, SchemaError
from repro.memory.layout import ColumnLayout, decode_strings, plan_layout

__all__ = [
    "SEGMENT_PREFIX",
    "TableRef",
    "SegmentManager",
    "manager",
    "new_segment_name",
    "create_table_segment",
    "map_ref",
    "release",
    "reap",
    "live_segments",
    "memory_stats",
    "leaked_system_segments",
]

#: Every segment this repo creates carries this name prefix, which is what
#: lets the leak checker distinguish ours from the rest of /dev/shm.
SEGMENT_PREFIX = "qkr"


class SegmentError(ReproError):
    """A shared-memory segment operation failed."""


@dataclass(frozen=True)
class TableRef:
    """Picklable descriptor of a table living in a shared-memory segment.

    Everything a receiver needs to rebuild the table — and nothing else:
    pickled size is O(schema), independent of row count.
    """

    segment: str
    table_name: str
    num_rows: int
    columns: Tuple[ColumnLayout, ...]
    #: Total segment size in bytes (the data that did NOT cross the pipe).
    nbytes: int
    #: Dictionary of each dictionary-coded column (the segment holds its
    #: int32 codes as a raw column): O(distinct values), it rides with the
    #: descriptor. Arrays neither hash nor compare, so not part of equality.
    dictionaries: Mapping[str, np.ndarray] = field(default_factory=dict, compare=False)

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def schema_bytes(self) -> int:
        """Bytes this descriptor occupies on a pickle pipe."""
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Remove ``shm`` from the resource tracker; the manager owns cleanup."""
    try:  # pragma: no branch
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:  # non-POSIX platforms have no tracker entry
        pass


def _unlink(shm: shared_memory.SharedMemory) -> None:
    """Unlink the segment file without touching the resource tracker.

    Every open already untracked the name (fork workers share one tracker
    process, so per-process register/unregister double-counts); the stdlib
    ``SharedMemory.unlink`` would unregister a second time and make the
    tracker log spurious KeyErrors. Raises ``FileNotFoundError`` like the
    stdlib version.
    """
    try:
        from _posixshmem import shm_unlink
    except ImportError:  # pragma: no cover - non-POSIX platform
        shm.unlink()
        return
    shm_unlink(shm._name)  # noqa: SLF001


class SegmentManager:
    """Process-local registry of open shared-memory segments."""

    def __init__(self):
        self._lock = threading.Lock()
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._owned: set = set()

    # -- creation / attach ----------------------------------------------------
    def create(self, name: str, size: int) -> shared_memory.SharedMemory:
        if size < 1:
            raise SegmentError(f"segment {name!r} must be at least 1 byte, got {size}")
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=int(size))
        except FileExistsError:
            raise SegmentError(f"segment {name!r} already exists") from None
        _untrack(shm)
        with self._lock:
            self._segments[name] = shm
            self._owned.add(name)
        return shm

    def attach(self, name: str) -> shared_memory.SharedMemory:
        with self._lock:
            cached = self._segments.get(name)
        if cached is not None:
            return cached
        try:
            shm = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError:
            raise SegmentError(f"segment {name!r} does not exist (already reaped?)") from None
        _untrack(shm)
        with self._lock:
            # Another thread may have attached concurrently; first one wins.
            winner = self._segments.setdefault(name, shm)
        if winner is not shm:
            shm.close()
        return winner

    # -- teardown -------------------------------------------------------------
    @staticmethod
    def _detach(shm: shared_memory.SharedMemory) -> None:
        """Hand the mapping over to any outstanding views.

        ``close()`` munmaps immediately — NumPy views keep an object
        reference to the exporting memoryview but no live buffer export,
        so ``close()`` would not raise ``BufferError`` and would leave the
        views dangling (a segfault on next read). Dropping the segment's
        own references instead lets the array→memoryview→mmap chain keep
        the mapping alive until the last view dies; with no views it dies
        right here.
        """
        try:
            shm._buf = None  # noqa: SLF001 - the view chain owns the mmap now
            shm._mmap = None  # noqa: SLF001
            fd = getattr(shm, "_fd", -1)
            if fd >= 0:
                os.close(fd)
                shm._fd = -1  # noqa: SLF001
        except (AttributeError, OSError):  # pragma: no cover - other layouts
            try:
                shm.close()
            except BufferError:
                pass

    def release(self, name: str, unlink: bool = True) -> None:
        """Detach (see :meth:`_detach`) and optionally unlink one segment.

        The *name* is released unconditionally — after ``release`` the
        segment no longer counts as live and cannot be attached again.
        """
        with self._lock:
            shm = self._segments.pop(name, None)
            self._owned.discard(name)
        if shm is None:
            if unlink:
                reap(name)
            return
        if unlink:
            try:
                _unlink(shm)
            except FileNotFoundError:
                pass
        self._detach(shm)

    def release_all(self, unlink: bool = True) -> int:
        """Release every tracked segment; returns how many were open."""
        with self._lock:
            names = list(self._segments)
        for name in names:
            self.release(name, unlink=unlink)
        return len(names)

    # -- introspection --------------------------------------------------------
    def live(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._segments))

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "segments": len(self._segments),
                "bytes_mapped": sum(s.size for s in self._segments.values()),
            }


#: The process-wide manager (forked children inherit a copy whose entries
#: reference the same underlying segments — attach() is idempotent by name).
_MANAGER = SegmentManager()


def manager() -> SegmentManager:
    return _MANAGER


def new_segment_name(tag: str = "") -> str:
    """A fresh collision-resistant segment name carrying our prefix."""
    suffix = secrets.token_hex(4)
    tag = f"{tag}_" if tag else ""
    return f"{SEGMENT_PREFIX}{os.getpid():x}_{tag}{suffix}"


def create_table_segment(
    name: str,
    table_name: str,
    columns: Mapping[str, np.ndarray],
    num_rows: int,
    keep_open: bool = True,
    dictionaries: Optional[Mapping[str, np.ndarray]] = None,
) -> TableRef:
    """Write a table's columns into a fresh segment; returns its ref.
    ``dictionaries`` (coded column -> dictionary) go into the ref as given.

    ``keep_open=False`` detaches immediately after writing (the worker-side
    result path: the writer never reads the data back, so holding the
    mapping would only delay teardown).
    """
    layouts, total, encoded = plan_layout(columns)
    shm = _MANAGER.create(name, total)
    try:
        buf = shm.buf
        for layout in layouts:
            if layout.kind == "strblob":
                offsets, blob = encoded[layout.name]
                view = np.ndarray(
                    (layout.length + 1,), dtype=np.int64, buffer=buf, offset=layout.offset
                )
                view[:] = offsets
                if layout.blob_nbytes:
                    buf[layout.blob_offset : layout.blob_offset + layout.blob_nbytes] = blob
            else:
                arr = np.ascontiguousarray(columns[layout.name])
                view = np.ndarray(
                    (layout.length,), dtype=np.dtype(layout.dtype), buffer=buf, offset=layout.offset
                )
                view[:] = arr
        del view  # drop the last buffer export before a potential close
    except BaseException:
        _MANAGER.release(name, unlink=True)
        raise
    ref = TableRef(
        segment=name,
        table_name=table_name,
        num_rows=int(num_rows),
        columns=layouts,
        nbytes=total,
        dictionaries=dict(dictionaries or {}),
    )
    if not keep_open:
        _MANAGER.release(name, unlink=False)
    return ref


def map_ref(ref: TableRef) -> Dict[str, np.ndarray]:
    """Attach a ref's segment and return its columns.

    Raw columns come back as zero-copy read-only views; strblob columns are
    decoded into fresh object arrays. Once the segment is released, the
    views' base chain keeps the mapping alive (see module docstring), so
    callers need no explicit unpin — dropping the arrays is the unpin.
    """
    shm = _MANAGER.attach(ref.segment)
    if shm.size < ref.nbytes:
        raise SchemaError(
            f"segment {ref.segment!r} is {shm.size} bytes but the ref "
            f"describes {ref.nbytes}; refusing to read past the mapping"
        )
    out: Dict[str, np.ndarray] = {}
    for layout in ref.columns:
        if layout.kind == "strblob":
            offsets = np.ndarray(
                (layout.length + 1,), dtype=np.int64, buffer=shm.buf, offset=layout.offset
            )
            blob = shm.buf[layout.blob_offset : layout.blob_offset + layout.blob_nbytes]
            out[layout.name] = decode_strings(offsets, blob)
        else:
            view = np.ndarray(
                (layout.length,),
                dtype=np.dtype(layout.dtype),
                buffer=shm.buf,
                offset=layout.offset,
            )
            view.flags.writeable = False
            out[layout.name] = view
    return out


def release(ref_or_name, unlink: bool = True) -> None:
    """Release a segment by :class:`TableRef` or by name."""
    name = ref_or_name.segment if isinstance(ref_or_name, TableRef) else ref_or_name
    _MANAGER.release(name, unlink=unlink)


def reap(name: str) -> bool:
    """Best-effort unlink of a segment by name alone (the crash path).

    Returns True when a segment was actually removed. Never raises for a
    missing name — reaping is idempotent and races with normal release.
    """
    try:
        shm = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return False
    except OSError:
        return False
    _untrack(shm)
    try:
        _unlink(shm)
    except FileNotFoundError:
        return False
    finally:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - fresh attach has no views
            pass
    return True


def live_segments() -> Tuple[str, ...]:
    """Names of segments currently open in this process."""
    return _MANAGER.live()


def memory_stats() -> Dict[str, int]:
    """``{"segments": n, "bytes_mapped": b}`` for this process."""
    return _MANAGER.stats()


def leaked_system_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """Segments with our prefix still present system-wide (Linux: /dev/shm).

    The session-scoped leak fixture asserts this is empty after every test
    run — including runs that crashed workers mid-transport. On platforms
    without /dev/shm the check degrades to the process-local view.
    """
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        try:
            return sorted(n for n in os.listdir(shm_dir) if n.startswith(prefix))
        except OSError:  # pragma: no cover - permission-restricted /dev/shm
            pass
    return [n for n in live_segments() if n.startswith(prefix)]
