"""Fork-join scheduler: the execution backend of the parlay substrate.

Three backends are provided:

``sequential``
    Runs tasks inline on the calling thread.  This is the default and is
    fully deterministic.

``threads``
    Runs coarse-grained tasks on a shared ``ThreadPoolExecutor``.  Under
    CPython the GIL serializes pure-Python bytecode, but numpy kernels
    release the GIL, and — more importantly — running the *actual*
    concurrent interleavings exercises the library's conflict-resolution
    logic (reservations, priority writes) for real.

``processes``
    Runs *declarative* tasks — a module-level function plus a picklable
    payload, dispatched through :meth:`Scheduler.process_map` — on a
    persistent :class:`~repro.parlay.procpool.ProcPool` of worker
    processes, so per-shard slab work executes on real cores with
    zero-copy reads of shared-memory shard state (see
    :mod:`repro.cluster.snapshot`).  Generic fork-join thunks are
    closures and cannot cross the process boundary; they run inline
    with the same parallel cost composition (exactly the nested-fork
    fallback), which keeps the backend a drop-in swap for the others.

Every backend performs identical work-depth accounting through
:mod:`repro.parlay.workdepth`: tasks forked together contribute
``sum(work)`` and ``max(depth)``, no matter where they ran.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence, TypeVar

from .workdepth import Cost, get_tracer, tracker

__all__ = [
    "BACKENDS",
    "Scheduler",
    "get_scheduler",
    "register_process_shutdown_hook",
    "set_backend",
    "use_backend",
    "num_workers",
    "parallel_do",
    "parallel_for",
    "parallel_map_tasks",
]

T = TypeVar("T")

#: Recognized scheduler backends.
BACKENDS = ("sequential", "threads", "processes")

#: Sanity cap on the auto-detected worker count.
_MAX_AUTO_WORKERS = 32


def _default_workers() -> int:
    """``REPRO_NUM_WORKERS`` when set, else ``os.cpu_count()`` capped."""
    env = os.environ.get("REPRO_NUM_WORKERS")
    if env:
        return max(1, int(env))
    return max(1, min(os.cpu_count() or 1, _MAX_AUTO_WORKERS))


_DEFAULT_WORKERS = _default_workers()

# Callbacks run when a scheduler with a live process pool shuts down
# (repro.cluster.snapshot registers shared-memory cleanup here; the
# indirection keeps parlay from importing higher layers).
_process_shutdown_hooks: list[Callable[[], None]] = []


def register_process_shutdown_hook(fn: Callable[[], None]) -> None:
    """Run ``fn`` whenever a process-backed scheduler shuts down."""
    if fn not in _process_shutdown_hooks:
        _process_shutdown_hooks.append(fn)


class Scheduler:
    """A fork-join scheduler with pluggable backend."""

    def __init__(self, backend: str = "sequential", workers: int = _DEFAULT_WORKERS):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.workers = max(1, workers)
        self._pool: ThreadPoolExecutor | None = None
        self._ppool = None  # ProcPool, for the processes backend
        self._lock = threading.Lock()
        # Depth guard: nested forks fall back to inline execution once a
        # worker thread is already running a task (avoids pool deadlock).
        self._in_worker = threading.local()

    # -- pool management ---------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="parlay"
                )
            return self._pool

    def proc_pool(self):
        """The lazily-started worker-process pool (processes backend)."""
        if self.backend != "processes":
            raise RuntimeError(
                f"proc_pool() requires the 'processes' backend, not {self.backend!r}"
            )
        with self._lock:
            if self._ppool is None:
                from .procpool import ProcPool

                self._ppool = ProcPool(self.workers)
            return self._ppool

    def shutdown(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            ppool, self._ppool = self._ppool, None
        if ppool is not None:
            for hook in _process_shutdown_hooks:
                try:
                    hook()
                except Exception:
                    pass
            ppool.shutdown()

    # -- fork-join ----------------------------------------------------------
    def parallel_do(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        """Run independent thunks 'in parallel'; return results in order.

        Cost accounting: each task's cost is measured in its own frame;
        the merged contribution is sum-of-work / max-of-depth.
        """
        if not tasks:
            return []
        if len(tasks) == 1:
            # A single task is sequential composition.
            with tracker.frame() as c:
                out = [tasks[0]()]
            tracker.merge_serial(c)
            return out

        # the processes backend cannot ship closures across the process
        # boundary, so generic thunks run inline with the same parallel
        # cost composition (declarative slab work goes via process_map)
        inline = (
            self.backend in ("sequential", "processes")
            or getattr(self._in_worker, "flag", False)
        )
        tr = get_tracer()
        if inline:
            results: list[T] = []
            costs: list[Cost] = []
            if tr is None:
                for t in tasks:
                    with tracker.frame() as c:
                        results.append(t())
                    costs.append(c)
            else:
                for t in tasks:
                    with tracker.frame(
                        label="parlay.task", cat="task",
                        backend=self.backend, batch=len(tasks),
                    ) as c:
                        results.append(t())
                    costs.append(c)
            tracker.merge_parallel(costs, fanout=len(tasks))
            return results

        pool = self._ensure_pool()
        costs_by_idx: list[Cost | None] = [None] * len(tasks)
        results_by_idx: list[T] = [None] * len(tasks)  # type: ignore[list-item]
        # the span parent is the forking thread's innermost open span —
        # worker threads have no span context of their own
        fork_parent = tr.current_id() if tr is not None else None

        def run(i: int, t: Callable[[], T]) -> None:
            self._in_worker.flag = True
            try:
                if tr is None:
                    with tracker.frame() as c:
                        results_by_idx[i] = t()
                else:
                    with tracker.frame(
                        label="parlay.task", cat="task", backend="threads",
                        batch=len(tasks), parent=fork_parent,
                    ) as c:
                        results_by_idx[i] = t()
                costs_by_idx[i] = c
            finally:
                self._in_worker.flag = False

        futures = [pool.submit(run, i, t) for i, t in enumerate(tasks)]
        for f in futures:
            f.result()  # re-raise worker exceptions
        tracker.merge_parallel(
            [c for c in costs_by_idx if c is not None], fanout=len(tasks)
        )
        return list(results_by_idx)

    def parallel_for(
        self,
        n: int,
        body: Callable[[int], None],
        grain: int = 1,
    ) -> None:
        """parallel_for(i in [0, n)): body(i), chunked by ``grain``."""
        if n <= 0:
            return
        if grain <= 1 and n <= self.workers * 2:
            self.parallel_do([(lambda i=i: body(i)) for i in range(n)])
            return
        grain = max(grain, 1)
        chunks = []
        for lo in range(0, n, grain):
            hi = min(lo + grain, n)

            def run_chunk(lo=lo, hi=hi):
                for i in range(lo, hi):
                    body(i)

            chunks.append(run_chunk)
        self.parallel_do(chunks)

    def map_tasks(self, fn: Callable[[T], object], items: Iterable[T]) -> list:
        """Apply ``fn`` to each item as an independent parallel task."""
        items = list(items)
        return self.parallel_do([(lambda x=x: fn(x)) for x in items])

    # -- declarative process dispatch ---------------------------------------
    def process_map(
        self, func_path: str, tasks: Sequence[tuple[int, object]]
    ) -> list:
        """Run ``fn(payload)`` per ``(affinity, payload)`` task on real cores.

        The processes-backend counterpart of :meth:`parallel_do` for
        *declarative* tasks: ``func_path`` names a module-level function
        (``"pkg.mod:fn"``) and each payload is picklable.  Equal
        affinities are pinned to the same worker process, so worker-side
        caches (attached shard snapshots) survive across calls.

        Cost accounting matches :meth:`parallel_do` exactly: each task's
        (work, depth) is captured in the worker and merged here — a
        single task composes serially, siblings compose as
        sum-work / max-depth with the log-fanout term.  Worker-side
        spans are forwarded into the parent recorder, tagged with the
        worker pid, parented to the forking span; when tracing is
        disabled nothing is recorded anywhere.

        On non-process backends (or when nested inside a worker task)
        the calls run inline on this thread — the same fallback
        ``parallel_do`` uses — so callers can dispatch unconditionally.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        tr = get_tracer()

        remote = (
            self.backend == "processes"
            and not getattr(self._in_worker, "flag", False)
        )
        if not remote:
            from .procpool import _resolve

            fn = _resolve(func_path)
            return self.parallel_do(
                [(lambda p=payload: fn(p)) for _affinity, payload in tasks]
            )

        fork_parent = tr.current_id() if tr is not None else None
        out = self.proc_pool().run_tasks(
            func_path, tasks, trace=tr is not None, workers_hint=self.workers,
        )
        costs = [Cost(r.work, r.depth) for r in out]
        if len(costs) == 1:
            tracker.merge_serial(costs[0])
        else:
            tracker.merge_parallel(costs, fanout=len(tasks))
        if tr is not None:
            for r in out:
                if r.spans:
                    tr.ingest(r.spans, parent=fork_parent, pid=r.pid)
        return [r.result for r in out]


_scheduler = Scheduler(os.environ.get("REPRO_BACKEND", "sequential"))


def get_scheduler() -> Scheduler:
    return _scheduler


def set_backend(backend: str, workers: int | None = None) -> None:
    """Switch the global scheduler backend (one of :data:`BACKENDS`)."""
    global _scheduler
    _scheduler.shutdown()
    _scheduler = Scheduler(backend, workers or _scheduler.workers)


@contextmanager
def use_backend(backend: str, workers: int | None = None):
    """Temporarily switch backends (used by tests and benchmarks)."""
    global _scheduler
    old = _scheduler
    _scheduler = Scheduler(backend, workers or old.workers)
    try:
        yield _scheduler
    finally:
        _scheduler.shutdown()
        _scheduler = old


def num_workers() -> int:
    return _scheduler.workers


def parallel_do(tasks: Sequence[Callable[[], T]]) -> list[T]:
    return _scheduler.parallel_do(tasks)


def parallel_for(n: int, body: Callable[[int], None], grain: int = 1) -> None:
    _scheduler.parallel_for(n, body, grain)


def parallel_map_tasks(fn: Callable[[T], object], items: Iterable[T]) -> list:
    return _scheduler.map_tasks(fn, items)
