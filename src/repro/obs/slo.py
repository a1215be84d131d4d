"""Per-tenant SLO objectives with multi-window burn-rate tracking.

An :class:`Objective` states what "good" means for one tenant: a
latency target (``latency_target`` seconds at ``latency_pct`` of
requests) and an availability target (``availability`` fraction of
requests answered at all — shed, timed-out, and errored requests are
unavailable).  The :class:`SLOTracker` scores every completed or
rejected request against the tenant's objective and maintains
time-bucketed good/bad counters so **burn rate** can be computed over
two windows, 5 minutes and 1 hour::

    burn = (bad / total within window) / (1 - target)

A burn rate of 1.0 means the tenant is consuming error budget exactly
at the rate that would exhaust it when sustained for the SLO period;
14.4 on the 5m window is the classic page-worthy fast burn.  Both
windows are answered from one ring of coarse buckets, and every time
read goes through the injectable ``clock`` so the whole engine is
testable without sleeping.

The tracker optionally publishes per-tenant gauges on a
:class:`~repro.obs.registry.MetricsRegistry`:
``slo_burn_rate{tenant,slo,window}`` and
``slo_budget_remaining{tenant,slo,window}``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = ["Objective", "SLOTracker", "DEFAULT_WINDOWS"]

#: (label, seconds) burn-rate windows: fast page + slow ticket.
DEFAULT_WINDOWS = (("5m", 300.0), ("1h", 3600.0))


@dataclass(frozen=True)
class Objective:
    """What one tenant was promised.

    ``latency_target`` seconds at percentile ``latency_pct`` (e.g.
    0.250s at 99.0 → "99% of answered requests complete within 250ms");
    ``availability`` is the fraction of offered requests that must be
    answered (0.999 → at most 1 in 1000 shed/errored/timed out).
    """

    latency_target: float = 0.250
    latency_pct: float = 99.0
    availability: float = 0.999

    def __post_init__(self):
        if self.latency_target <= 0:
            raise ValueError("latency_target must be > 0")
        if not 0.0 < self.latency_pct < 100.0:
            raise ValueError("latency_pct must be in (0, 100)")
        if not 0.0 < self.availability < 1.0:
            raise ValueError("availability must be in (0, 1)")

    @property
    def latency_budget(self) -> float:
        """Allowed fraction of slow requests (the latency error budget)."""
        return 1.0 - self.latency_pct / 100.0

    @property
    def availability_budget(self) -> float:
        return 1.0 - self.availability


class _WindowCounts:
    """Ring of coarse time buckets holding (good, bad) counts.

    Sized so the *longest* window is covered by ``n_buckets`` buckets;
    shorter windows read a suffix of the same ring.  Bucket granularity
    (longest / n_buckets, 60s for the default 1h/60) bounds the error
    of any window read to one bucket width — fine for burn rates.
    """

    __slots__ = ("width", "n", "good", "bad", "_base")

    def __init__(self, longest: float, n_buckets: int):
        self.width = longest / n_buckets
        self.n = n_buckets
        self.good = [0] * n_buckets
        self.bad = [0] * n_buckets
        self._base = None  # absolute index of the newest bucket

    def _advance(self, now: float) -> int:
        idx = int(now // self.width)
        if self._base is None:
            self._base = idx
        elif idx > self._base:
            for i in range(min(idx - self._base, self.n)):
                slot = (self._base + 1 + i) % self.n
                self.good[slot] = self.bad[slot] = 0
            self._base = idx
        return self._base % self.n

    def record(self, now: float, good: bool):
        slot = self._advance(now)
        if good:
            self.good[slot] += 1
        else:
            self.bad[slot] += 1

    def totals(self, now: float, window: float) -> tuple[int, int]:
        """(good, bad) over the trailing ``window`` seconds."""
        self._advance(now)
        k = min(self.n, max(1, int(round(window / self.width))))
        good = bad = 0
        for i in range(k):
            slot = (self._base - i) % self.n
            good += self.good[slot]
            bad += self.bad[slot]
        return good, bad


class SLOTracker:
    """Scores requests against per-tenant objectives; computes burn
    rates over the :data:`DEFAULT_WINDOWS` from one 60-bucket ring."""

    def __init__(self, *, clock=time.monotonic, registry=None):
        self.windows = DEFAULT_WINDOWS
        self._longest = max(sec for _, sec in self.windows)
        self._clock = clock
        self._lock = threading.Lock()
        self._objectives: dict[str, Objective] = {}
        # (tenant, slo) -> _WindowCounts;  slo in ("latency", "availability")
        self._counts: dict[tuple[str, str], _WindowCounts] = {}
        self._g_burn = self._g_budget = None
        if registry is not None:
            self._g_burn = registry.gauge(
                "slo_burn_rate",
                "error-budget burn rate (1.0 = exactly on budget)",
                labels=("tenant", "slo", "window"),
            )
            self._g_budget = registry.gauge(
                "slo_budget_remaining",
                "fraction of the window's error budget left (can go negative)",
                labels=("tenant", "slo", "window"),
            )

    # -- configuration -------------------------------------------------
    def set_objective(self, tenant: str, objective: Objective | None = None):
        """Register (or replace) a tenant's objective."""
        obj = objective if objective is not None else Objective()
        with self._lock:
            self._objectives[tenant] = obj
            for slo in ("latency", "availability"):
                self._counts.setdefault(
                    (tenant, slo),
                    _WindowCounts(self._longest, 60),
                )
        if self._g_burn is not None:
            for slo in ("latency", "availability"):
                for lbl, _ in self.windows:
                    self._bind_gauges(tenant, slo, lbl)

    def _bind_gauges(self, tenant: str, slo: str, window_lbl: str):
        self._g_burn.labels(tenant, slo, window_lbl).set_function(
            lambda t=tenant, s=slo, w=window_lbl: self.burn_rate(t, s, w)
        )
        self._g_budget.labels(tenant, slo, window_lbl).set_function(
            lambda t=tenant, s=slo, w=window_lbl: self.budget_remaining(t, s, w)
        )

    def objective(self, tenant: str) -> Objective | None:
        with self._lock:
            return self._objectives.get(tenant)

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._objectives)

    # -- recording -----------------------------------------------------
    def record(self, tenant: str, *, latency: float | None):
        """Score one request.  ``latency=None`` for unanswered requests
        (shed / timeout / error) — they burn the availability budget and
        are excluded from the latency SLI (which is over *answered*
        requests only)."""
        with self._lock:
            obj = self._objectives.get(tenant)
            if obj is None:
                return
            now = self._clock()
            avail = self._counts[(tenant, "availability")]
            avail.record(now, latency is not None)
            if latency is not None:
                lat = self._counts[(tenant, "latency")]
                lat.record(now, latency <= obj.latency_target)

    # -- reading -------------------------------------------------------
    def _window_seconds(self, window: str) -> float:
        for lbl, sec in self.windows:
            if lbl == window:
                return sec
        raise KeyError(f"unknown burn-rate window {window!r}")

    def _budget(self, obj: Objective, slo: str) -> float:
        if slo == "latency":
            return obj.latency_budget
        if slo == "availability":
            return obj.availability_budget
        raise KeyError(f"unknown slo {slo!r}")

    def bad_fraction(self, tenant: str, slo: str, window: str) -> float:
        sec = self._window_seconds(window)
        with self._lock:
            counts = self._counts.get((tenant, slo))
            if counts is None:
                return 0.0
            good, bad = counts.totals(self._clock(), sec)
        total = good + bad
        return bad / total if total else 0.0

    def burn_rate(self, tenant: str, slo: str, window: str) -> float:
        """Observed bad fraction over the window / allowed bad fraction."""
        with self._lock:
            obj = self._objectives.get(tenant)
        if obj is None:
            return 0.0
        return self.bad_fraction(tenant, slo, window) / self._budget(obj, slo)

    def budget_remaining(self, tenant: str, slo: str, window: str) -> float:
        """1 - burn: >0 means inside budget for the window, <0 blown."""
        return 1.0 - self.burn_rate(tenant, slo, window)

    def snapshot(self) -> dict:
        """All burn rates, for dashboards / JSON reports."""
        out: dict = {}
        for tenant in self.tenants():
            obj = self.objective(tenant)
            entry: dict = {
                "objective": {
                    "latency_target": obj.latency_target,
                    "latency_pct": obj.latency_pct,
                    "availability": obj.availability,
                },
                "burn": {},
            }
            for slo in ("latency", "availability"):
                entry["burn"][slo] = {
                    lbl: self.burn_rate(tenant, slo, lbl)
                    for lbl, _ in self.windows
                }
            out[tenant] = entry
        return out
