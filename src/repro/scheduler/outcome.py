"""The one result record of a certification query, and its one writer.

Every path that answers a query — serial, lockstep-batched, a supervised
pool worker, the pool's in-process fallback and poison quarantine, the
service's thread executor and IBP rescue, a cache or journal replay —
yields a :class:`QueryOutcome`. The raw ``(radius, seconds, perf, meta)``
tuple of :func:`~repro.scheduler.worker.execute_query` (also the worker
pipe payload) becomes one only through :meth:`QueryOutcome.from_payload`,
and every completed outcome is persisted only through :func:`commit`,
under the key of the query that actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QueryOutcome", "commit"]


@dataclass(frozen=True)
class QueryOutcome:
    """Result of one certification query.

    ``source`` records how the radius was obtained: ``"journal"`` (this
    run's crash-recovery record), ``"cache"``, ``"worker"``,
    ``"worker-retry"`` (a requeued pool lease), ``"batched"`` (a
    coalesced stacked propagation), ``"poisoned"`` (a quarantined query
    answered from the IBP floor — always degraded, with the
    ``PoisonedQueryError`` detail in ``fault``), ``"inprocess"`` (the
    serial path and every fallback), and in the service ``"executed"``
    and ``"rescue"``. ``degraded`` is True when any certification of the
    query's binary search fell down the verifier's precision ladder, or
    when the whole query was rewritten down the QoS ladder;
    ``fallback_chain`` / ``fault`` carry the first such event's detail.

    ``query`` is the query that was asked. ``executed_query`` is the one
    that ran: the same query, or its rewritten twin (poison quarantine,
    service rescue). The answer is cached and journaled only under the
    twin, so a looser radius never impersonates the original query.
    ``attempts`` counts the pool leases the answer took.

    ``trace`` carries the query's certification-trace spans when
    :data:`repro.trace.TRACER` was enabled during execution (empty for
    cache/journal hits — traces are observability data and are not
    persisted; rerun without the cache to trace a query).
    """

    query: object
    radius: float
    seconds: float
    perf: dict | None
    source: str
    degraded: bool = False
    fallback_chain: tuple = ()
    fault: str = None
    trace: tuple = ()
    executed_query: object = None
    attempts: int = 1

    def __post_init__(self):
        if self.executed_query is None:
            object.__setattr__(self, "executed_query", self.query)

    @classmethod
    def from_payload(cls, query, payload, source, **overrides):
        """An outcome from an ``execute_query`` result tuple.

        ``overrides`` replace fields of the tuple's ``meta`` (a rewritten
        answer flags itself degraded) or add ``executed_query`` /
        ``attempts``.
        """
        radius, seconds, perf, meta = payload
        return cls(query=query, radius=radius, seconds=seconds, perf=perf,
                   source=source, **dict(meta, **overrides))

    @classmethod
    def from_record(cls, query, record, source):
        """An outcome replayed from a cache or journal entry."""
        return cls(query=query, radius=float(record["radius"]),
                   seconds=float(record["seconds"]),
                   perf=record.get("perf"), source=source,
                   degraded=bool(record.get("degraded", False)),
                   fallback_chain=tuple(record.get("fallback_chain") or ()),
                   fault=record.get("fault"))


def commit(outcome, cache, journal):
    """Persist one completed outcome under ``outcome.executed_query``.

    The result cache gets it unless it came from the cache or journal;
    the run journal gets it unless it came from the journal. Callers
    commit each outcome once, the moment it completes, so a drained or
    killed run keeps everything it finished.
    """
    fields = dict(degraded=outcome.degraded,
                  fallback_chain=outcome.fallback_chain, fault=outcome.fault)
    if cache is not None and outcome.source not in ("cache", "journal"):
        cache.put(outcome.executed_query, outcome.radius, outcome.seconds,
                  outcome.perf, **fields)
    if journal is not None and outcome.source != "journal":
        journal.append(outcome.executed_query, outcome.radius,
                       outcome.seconds, outcome.perf, outcome.source,
                       **fields)
