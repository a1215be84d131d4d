"""Persistent multiprocessing worker pool behind the ``processes`` backend.

CPython's GIL caps the ``threads`` backend at interleaving; real
wall-clock speedup needs processes.  This pool keeps ``p`` long-lived
worker processes, each with its own task queue, so tasks with an
*affinity* (e.g. a shard id) land on the same worker every time — the
worker's caches (attached shared-memory snapshots of shard state, see
:mod:`repro.cluster.snapshot`) stay warm across calls and re-attach
only when the state's version bumps.

The protocol is deliberately narrow: a task is ``(func_path, payload)``
where ``func_path`` names a module-level function (``"pkg.mod:fn"``)
and ``payload`` is picklable.  Closures never cross the process
boundary — generic fork-join thunks fall back to inline execution in
the scheduler; only declarative slab work is shipped here.

Each worker runs the task inside a fresh cost frame and returns
``(result, work, depth, spans)`` so the parent scheduler can merge the
charges as parallel children — identical composition to the inline and
thread paths — and forward worker-side spans (tagged with the worker
pid) into the parent's recorder.

Workers are started with the ``fork`` method when available (cheap,
inherits the imported modules) and ``spawn`` otherwise; override with
``REPRO_PROC_START_METHOD``.
"""

from __future__ import annotations

import atexit
import importlib
import os
import traceback

import multiprocessing as mp

__all__ = ["ProcPool", "ProcResult", "default_start_method"]

#: Per-get timeout while waiting for results (liveness is re-checked).
_POLL_S = 1.0


def default_start_method() -> str:
    """``fork`` where supported (cheap), else ``spawn``; env-overridable."""
    env = os.environ.get("REPRO_PROC_START_METHOD")
    if env:
        return env
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _resolve(func_path: str, _cache: dict = {}):
    """Import ``"pkg.mod:fn"`` once per worker process."""
    fn = _cache.get(func_path)
    if fn is None:
        modname, _, qual = func_path.partition(":")
        if not qual:
            raise ValueError(f"func_path must be 'module:function', got {func_path!r}")
        obj = importlib.import_module(modname)
        for part in qual.split("."):
            obj = getattr(obj, part)
        fn = _cache[func_path] = obj
    return fn


class ProcResult:
    """One task's round trip: result + the cost it charged + its spans."""

    __slots__ = ("result", "work", "depth", "spans", "pid")

    def __init__(self, result, work: float, depth: float, spans, pid: int):
        self.result = result
        self.work = work
        self.depth = depth
        self.spans = spans
        self.pid = pid


def _worker_main(widx: int, task_q, result_q) -> None:
    """Worker loop: run tasks until the ``None`` sentinel arrives."""
    # A forked worker inherits the parent's scheduler/tracer; reset both
    # so slab code runs inline (the nested-fork fallback) and never
    # tries to reach back into the parent's pools.
    from . import scheduler as _sched
    from . import workdepth

    workdepth.set_tracer(None)
    pid = os.getpid()

    while True:
        msg = task_q.get()
        if msg is None:
            break
        seq, func_path, payload, opts = msg
        try:
            _sched._scheduler = _sched.Scheduler(
                "sequential", int(opts.get("workers", 1))
            )
            recorder = None
            if opts.get("trace"):
                from ..obs.span import SpanRecorder

                recorder = SpanRecorder()
                workdepth.set_tracer(recorder)
            try:
                fn = _resolve(func_path)
                workdepth.tracker.reset()
                # labelled like the thread backend's task frames, so the
                # forwarded span tree looks the same across backends
                label = "parlay.task" if recorder is not None else None
                with workdepth.tracker.frame(
                    label=label, cat="task", backend="processes",
                    batch=opts.get("batch"),
                ) as cost:
                    result = fn(payload)
            finally:
                if recorder is not None:
                    workdepth.set_tracer(None)
            spans = None
            if recorder is not None:
                from ..obs.span import spans_to_payload

                spans = spans_to_payload(recorder.spans())
            result_q.put(
                ("ok", seq, ProcResult(result, cost.work, cost.depth, spans, pid))
            )
        except BaseException:
            result_q.put(("err", seq, traceback.format_exc()))
    # drop any worker-side caches (shared-memory attachments) cleanly
    try:
        from ..cluster import procwork

        procwork.close_attachments()
    except Exception:
        pass


class ProcPool:
    """``p`` persistent worker processes with per-worker task queues."""

    def __init__(self, workers: int, start_method: str | None = None):
        self.workers = max(1, int(workers))
        self.start_method = start_method or default_start_method()
        self._ctx = mp.get_context(self.start_method)
        self._task_qs: list = []
        self._procs: list = []
        self._result_q = None
        self._seq = 0
        atexit.register(self.shutdown)

    # -- lifecycle ---------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    def _ensure_started(self) -> None:
        if self._procs:
            return
        self._result_q = self._ctx.Queue()
        for i in range(self.workers):
            tq = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(i, tq, self._result_q),
                name=f"parlay-proc-{i}",
                daemon=True,
            )
            proc.start()
            self._task_qs.append(tq)
            self._procs.append(proc)

    def pids(self) -> list[int]:
        """Worker OS pids (starts the pool if needed)."""
        self._ensure_started()
        return [p.pid for p in self._procs]

    def shutdown(self) -> None:
        """Stop the workers and drop the queues.  Safe to call twice."""
        if not self._procs:
            return
        for tq in self._task_qs:
            try:
                tq.put(None)
            except (OSError, ValueError):
                pass
        for p in self._procs:
            p.join(timeout=5.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        for q in (*self._task_qs, self._result_q):
            if q is None:
                continue
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass
        self._task_qs = []
        self._procs = []
        self._result_q = None

    # -- dispatch ----------------------------------------------------------
    def run_tasks(
        self,
        func_path: str,
        tasks: list[tuple[int, object]],
        *,
        trace: bool = False,
        workers_hint: int | None = None,
    ) -> list[ProcResult]:
        """Run ``fn(payload)`` per task on its affinity worker; in order.

        ``tasks`` is ``[(affinity, payload), ...]``; task ``i`` runs on
        worker ``affinity % p``, so equal affinities always share a
        worker (pinning).  Raises ``RuntimeError`` carrying the remote
        traceback if any task fails, after draining the rest.
        """
        if not tasks:
            return []
        self._ensure_started()
        opts = {
            "trace": bool(trace),
            "workers": int(workers_hint or self.workers),
            "batch": len(tasks),
        }
        base = self._seq
        self._seq += len(tasks)
        for i, (affinity, payload) in enumerate(tasks):
            self._task_qs[int(affinity) % self.workers].put(
                (base + i, func_path, payload, opts)
            )

        out: list[ProcResult | None] = [None] * len(tasks)
        pending = len(tasks)
        error: str | None = None
        while pending:
            try:
                kind, seq, value = self._result_q.get(timeout=_POLL_S)
            except Exception:
                if any(not p.is_alive() for p in self._procs):
                    self.shutdown()
                    raise RuntimeError(
                        "a parlay worker process died while tasks were pending"
                    ) from None
                continue
            if not (base <= seq < base + len(tasks)):
                continue  # stray result from an abandoned batch
            pending -= 1
            if kind == "err":
                error = error or value
            else:
                out[seq - base] = value
        if error is not None:
            raise RuntimeError(f"worker task failed:\n{error}")
        return out  # type: ignore[return-value]
