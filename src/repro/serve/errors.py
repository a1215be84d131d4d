"""Typed errors of the geometry query service.

Every failure a client can observe is a distinct exception type, so
callers can branch on overload vs timeout vs misconfiguration instead
of parsing messages.  ``Overloaded`` and ``RequestTimeout`` are raised
by the front end (:mod:`repro.frontend`), the one layer that queues:
``Overloaded`` is its backpressure signal, raised *synchronously* at
submission when admission control sheds the request, which sheds
excess load instead of letting queue delay degrade every request.
"""

from __future__ import annotations

__all__ = [
    "Overloaded",
    "RequestTimeout",
    "ServeError",
    "ServiceClosed",
    "UnknownDataset",
]


class ServeError(Exception):
    """Base class for all geometry-service errors."""


class UnknownDataset(ServeError, KeyError):
    """The request names a dataset that is not registered."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return f"no dataset registered under {self.name!r}"


class Overloaded(ServeError):
    """Admission control rejected the request: the queue is full.

    Attributes
    ----------
    pending:
        Number of requests queued when the rejection happened.
    limit:
        The bound admission control enforced (the front end's reject
        depth or per-tenant queue bound).
    retry_after:
        Seconds the client should back off before retrying, when the
        rejecting layer can estimate one (None otherwise).  The
        front-end derives it from its drain rate; quota rejections use
        the token-bucket refill time.
    """

    def __init__(self, pending: int, limit: int, retry_after: float | None = None):
        msg = f"service overloaded: {pending} requests pending (limit {limit})"
        if retry_after is not None:
            msg += f"; retry after {retry_after:.4g}s"
        super().__init__(msg)
        self.pending = pending
        self.limit = limit
        self.retry_after = retry_after


class RequestTimeout(ServeError):
    """The request's deadline expired before a result was produced."""

    def __init__(self, waited: float):
        super().__init__(f"request timed out after {waited:.4g}s")
        self.waited = waited


class ServiceClosed(ServeError):
    """The service has been closed and accepts no new requests."""
