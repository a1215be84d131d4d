"""The service-wide stats snapshot.

What happened to one request — the batch it joined, whether the cache
served it, the work/depth its batch charged on its behalf — lives on
its own :class:`~repro.obs.rtrace.RequestTrace`, which
:meth:`~repro.serve.service.GeometryService.execute` fills in.
:class:`ServiceStats` aggregates the same quantities service-wide on a
:class:`~repro.obs.registry.MetricsRegistry` -- the unified metrics
surface -- so the service's request counters and its cache gauges share
one registry that renders both a JSON snapshot and Prometheus text
exposition.
"""

from __future__ import annotations

from ..obs.registry import MetricsRegistry

__all__ = ["ServiceStats"]

#: Batch-size histogram buckets (requests per coalesced dispatch).
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class ServiceStats:
    """Service-wide aggregate counters on a shared metrics registry.

    The counters are :class:`~repro.obs.registry.Counter`/``Gauge``/
    ``Histogram`` instances, so the state :meth:`snapshot` reports is
    also available through ``registry.snapshot()`` and
    ``registry.render_prometheus()``.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._submitted = r.counter(
            "serve_submitted_total", "requests submitted to the service")
        self._accepted = r.counter(
            "serve_accepted_total", "requests that passed validation")
        self._completed = r.counter(
            "serve_completed_total", "requests resolved with a result")
        self._cache_hits = r.counter(
            "serve_cache_hits_total", "requests served without execution")
        self._cache_misses = r.counter(
            "serve_cache_misses_total", "unique queries actually executed")
        self._batches = r.counter(
            "serve_batches_total", "coalesced dispatches executed")
        self._batched_requests = r.counter(
            "serve_batched_requests_total", "requests resolved by dispatches")
        self._max_batch = r.gauge(
            "serve_batch_max_size", "largest coalesced dispatch so far")
        self._batch_sizes = r.histogram(
            "serve_batch_size", "requests per coalesced dispatch",
            buckets=BATCH_BUCKETS)
        self._work = r.counter(
            "serve_work_charged_total", "work-model units charged by dispatches")
        self._depth = r.counter(
            "serve_depth_charged_total", "depth-model units charged by dispatches")

    # -- mutators ----------------------------------------------------------
    def record_submit(self, n: int = 1) -> None:
        self._submitted.inc(n)

    def record_accept(self, n: int = 1) -> None:
        self._accepted.inc(n)

    def record_hit(self, n: int = 1) -> None:
        self._cache_hits.inc(n)
        self._completed.inc(n)

    def record_batch(
        self,
        resolved: int,
        executed: int,
        work: float,
        depth: float,
    ) -> None:
        """Account one dispatch: ``resolved`` tickets were completed, of
        which ``executed`` unique queries actually ran."""
        self._batches.inc()
        self._batched_requests.inc(resolved)
        self._batch_sizes.observe(resolved)
        self._max_batch.set_max(resolved)
        self._completed.inc(resolved)
        self._cache_misses.inc(executed)
        # duplicate / already-cached riders count as hits: they were
        # served without their own execution
        self._cache_hits.inc(max(resolved - executed, 0))
        self._work.inc(work)
        self._depth.inc(depth)

    # -- snapshot ----------------------------------------------------------
    def snapshot(self) -> dict:
        """A point-in-time dict of every counter plus derived rates."""
        v = self.registry.snapshot()
        hits = v["serve_cache_hits_total"]
        misses = v["serve_cache_misses_total"]
        batches = v["serve_batches_total"]
        batched = v["serve_batched_requests_total"]
        looked_up = hits + misses
        return {
            "submitted": int(v["serve_submitted_total"]),
            "accepted": int(v["serve_accepted_total"]),
            "completed": int(v["serve_completed_total"]),
            "cache_hits": int(hits),
            "cache_misses": int(misses),
            "hit_rate": hits / looked_up if looked_up else 0.0,
            "batches": int(batches),
            "batched_requests": int(batched),
            "avg_batch_size": batched / batches if batches else 0.0,
            "max_batch_size": int(v["serve_batch_max_size"]),
            "work_charged": v["serve_work_charged_total"],
            "depth_charged": v["serve_depth_charged_total"],
        }
