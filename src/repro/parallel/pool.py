"""Worker pools for partition-parallel execution.

Three interchangeable backends behind one :meth:`WorkerPool.open`, driven
by the one scheduler loop of :class:`~repro.parallel.tasks.TaskRuntime`:

* ``process`` — a fork-based process pool, the real-parallelism mode. The
  work function is published through a module global *before* the pool is
  created, so forked children inherit it by memory image and only a small
  task spec crosses the pipe per task. That keeps plans picklable-free
  (plans may close over arbitrary predicates) while results (tables,
  partial aggregates) still return via pickle.
* ``thread`` — the default: a thread pool; real concurrency only where
  NumPy releases the GIL, but portable and cheap, and on a small host
  faster per query than forking a process pool for every run.
  The threads are *resident*: a :class:`WorkerPool` starts them once and
  every run borrows them through a lease, so an
  :class:`~repro.engine.executor.Executor` that keeps its pool pays for
  thread start-up once, not per query. A run that ends while one of its
  abandoned attempts is still running (a hung straggler) *retires* the
  threads — they finish what they hold and exit — and the next run starts
  fresh ones, so a hang never occupies a later query's slot.
* ``inline`` — the one-slot pool: an attempt runs inside ``submit``, in
  the caller's thread. The debugging/CI mode, and what any backend with a
  single worker resolves to (a one-worker pool cannot overlap anything,
  and forking for it made D-way runs on 1-core CI strictly slower than
  serial).

The fork-published global is a process-wide singleton, so process-mode use
is serialized behind :data:`_PAYLOAD_LOCK`: a second concurrent (or
re-entrant) process-mode run raises a clear :class:`PlanError` instead of
silently corrupting the other run's payload.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as wait_for
from contextlib import contextmanager
from functools import partial
from typing import Callable, List, Optional

from repro.errors import PlanError
from repro.obs import log as obs_log

__all__ = [
    "WorkerPool",
    "available_parallelism",
    "fork_payload",
]

#: Fork-inherited payload for process workers: (work function, parent log
#: level). Arguments are small TaskSpecs and cross the pipe; the work
#: function travels by fork image. The log level rides along so ``repro.*``
#: loggers agree across processes: a worker whose logging state diverged
#: from the parent's ``--log-level`` re-configures itself before running
#: the task.
_PAYLOAD: Optional[tuple] = None

#: Serializes process-mode use of the fork payload. Held for the lifetime
#: of the pool, not just the publish, because forked children may be
#: created lazily on first submit.
_PAYLOAD_LOCK = threading.Lock()


def _run_argument(argument):
    fn, log_level = _PAYLOAD
    obs_log.apply_level(log_level)
    return fn(argument)


@contextmanager
def fork_payload(fn: Callable):
    """Publish the fork-inherited payload for one process-pool lifetime.

    Raises :class:`PlanError` if another process-mode run (a concurrent
    one from another thread, or a nested one from inside a worker
    callback) already holds the payload — the fork hand-off is a process
    singleton and cannot serve two pools at once.
    """
    if not _PAYLOAD_LOCK.acquire(blocking=False):
        raise PlanError(
            "re-entrant process-mode execution: the fork payload is already "
            "in use by another process-pool run in this process; use "
            "pool mode 'thread' or 'inline' for nested/concurrent runs"
        )
    global _PAYLOAD
    _PAYLOAD = (fn, obs_log.configured_level())
    try:
        yield
    finally:
        _PAYLOAD = None
        _PAYLOAD_LOCK.release()


def available_parallelism() -> int:
    """Usable CPU count (honors the scheduler affinity mask when exposed)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def _fork_available() -> bool:
    import multiprocessing as mp

    return "fork" in mp.get_all_start_methods()


class _CallerThreadExecutor(Executor):
    """The one-slot pool: ``submit`` runs the call in the caller's thread
    and returns its finished future."""

    def submit(self, fn, /, *args, **kwargs):
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # BaseException (Ctrl-C) unwinds the caller
            future.set_exception(exc)
        return future


class _ThreadLease(Executor):
    """One run's hold on a pool's resident threads: the run submits and
    shuts down as if the threads were its own."""

    def __init__(self, pool: "WorkerPool"):
        self._pool = pool
        self._futures: List[Future] = []

    def submit(self, fn, /, *args, **kwargs):
        future = self._pool.submit_to_thread(fn, *args, **kwargs)
        self._futures.append(future)
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        if cancel_futures:
            for future in self._futures:
                future.cancel()
        if wait:
            wait_for(self._futures)
        elif not all(future.done() for future in self._futures):
            # Something this run no longer wants is still running. Leave
            # it its threads; later runs get new ones.
            self._pool.retire()


class WorkerPool:
    """Chooses and opens the backend partition tasks run on, and owns the
    thread backend's resident threads (started on first use, retired by
    :meth:`retire` or when the pool is dropped)."""

    MODES = ("process", "thread", "inline")

    def __init__(self, mode: str = "thread", max_workers: Optional[int] = None):
        self._lock = threading.Lock()
        self._threads: Optional[ThreadPoolExecutor] = None
        if mode not in self.MODES:
            raise PlanError(f"unknown pool mode {mode!r}; expected one of {self.MODES}")
        if max_workers is not None and max_workers < 1:
            raise PlanError(f"max_workers must be positive, got {max_workers}")
        self.mode = mode
        self.max_workers = max_workers

    def submit_to_thread(self, fn, /, *args, **kwargs) -> Future:
        """Run a call on the resident threads (under the lock, so a
        concurrent :meth:`retire` cannot shut them down mid-submit)."""
        with self._lock:
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=self.max_workers or available_parallelism(),
                    thread_name_prefix="repro-worker",
                )
            return self._threads.submit(fn, *args, **kwargs)

    def retire(self) -> None:
        """Stop handing out the current resident threads: they finish the
        calls they already hold (other runs' included) and exit."""
        with self._lock:
            threads, self._threads = self._threads, None
        if threads is not None:
            threads.shutdown(wait=False)

    def __del__(self):
        # Nothing refers to the pool, so its threads are idle (a run that
        # left one busy retired them) and exit on their own. Never join
        # them here: the collector may run this inside the threading
        # module's own locks (a starting thread's bootstrap), and a join
        # there deadlocks.
        self.retire()

    def workers_for(self, num_items: int) -> int:
        """Worker count for a run over ``num_items`` inputs."""
        return max(1, min(self.max_workers or available_parallelism(), num_items))

    @contextmanager
    def open(self, fn: Callable, num_items: int):
        """Open the backend for one run of ``fn`` over ``num_items`` tasks.

        Yields ``(make_executor, call, slots)``: a factory of
        :class:`concurrent.futures.Executor`\\ s (called again to replace a
        broken process pool), the callable to submit with each argument,
        and how many attempts the backend admits at once (None = it queues
        whatever it is given).
        """
        workers = self.workers_for(num_items)
        if self.mode == "inline" or workers == 1:
            yield _CallerThreadExecutor, fn, 1
        elif self.mode == "thread":
            yield partial(_ThreadLease, self), fn, None
        else:
            if not _fork_available():
                raise PlanError("process pool requires the fork start method; use thread/inline")
            import multiprocessing as mp

            with fork_payload(fn):
                yield (
                    partial(ProcessPoolExecutor, max_workers=workers, mp_context=mp.get_context("fork")),
                    _run_argument,
                    None,
                )
