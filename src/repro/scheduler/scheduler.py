"""The certification-query scheduler (fan-out, memoize, commit).

:class:`CertScheduler` runs a flat list of
:class:`~repro.scheduler.queries.CertQuery` records and returns one
:class:`~repro.scheduler.outcome.QueryOutcome` per query, *in input order*
regardless of completion order. Execution strategy per run:

1. every query is first looked up in the run journal and the persistent
   result cache (when configured) — hits never touch a worker;
2. misses run in-process (``workers == 0``, or when the platform lacks
   fork or the fleet cannot be created), coalesced into stacked batched
   propagations (``batch_size > 1``), or on the leased,
   heartbeat-monitored :class:`~repro.scheduler.pool.WorkerSupervisor`
   (``workers > 0``: requeue on worker death, poison-query quarantine to
   the IBP floor, graceful drain);
3. each outcome is committed through
   :func:`~repro.scheduler.outcome.commit` the moment it completes —
   cache and journal, under the key of the query that actually ran — and
   per-worker ``repro.perf`` snapshots ride along on each outcome for the
   caller to aggregate (:func:`merge_outcome_perf` — deterministic
   query-key order, not completion order).

Because :func:`~repro.scheduler.worker.execute_query` is a pure function of
(weights, query), the radii are bitwise identical across all of these
paths; parallelism and caching change wall-clock time only.
"""

from __future__ import annotations

import multiprocessing
import weakref

from ..perf import PerfRecorder
from ..trace import TRACER
from .cache import ResultCache
from .outcome import QueryOutcome, commit
from .pool import WorkerSupervisor
from .worker import execute_query, execute_query_batch

__all__ = ["QueryOutcome", "CertScheduler", "merge_outcome_perf"]


def merge_outcome_perf(outcomes):
    """Aggregate outcome perf snapshots in query-key order.

    Sorting by the content key makes the merged snapshot independent of
    completion order (stage seconds and counters add commutatively, but a
    fixed fold order keeps even float summation reproducible run-to-run).
    """
    recorder = PerfRecorder()
    for outcome in sorted(outcomes, key=lambda o: o.query.key()):
        if outcome.perf:
            recorder.merge(outcome.perf)
    return recorder.snapshot()


def _fork_available():
    return "fork" in multiprocessing.get_all_start_methods()


class CertScheduler:
    """Schedules certification queries across workers with memoization.

    Parameters
    ----------
    workers:
        ``0`` runs misses serially in-process; ``N > 0`` runs them on a
        fleet of N leased workers (:class:`WorkerSupervisor`), started on
        the first run and kept across runs until :meth:`close` — or until
        the scheduler is garbage-collected. A query quarantined as
        poisoned is answered from the IBP floor under an explicitly
        rewritten query and is journaled/cached only under that rewritten
        key — the looser radius never impersonates the original query. A
        drain request surfaces as :class:`~repro.scheduler.pool.DrainedRun`
        out of :meth:`run` (everything completed before the drain is
        already journaled and cached).
    lease_timeout:
        Seconds a lease may go without *progress* before its worker is
        declared hung and killed (``None`` → 30).
    drain_timeout:
        Seconds granted to in-flight leases after a drain request before
        they are killed and left for ``--resume``.
    batch_size:
        Coalesce up to this many compatible cache-missed queries (same
        :meth:`CertQuery.batch_key`: weights, token count, norm, config,
        search parameters) into one stacked batched propagation per radius
        round. ``1`` — the default — disables coalescing. Batched
        execution runs in-process and takes precedence over the worker
        fleet (on the workloads it targets the stacked engine beats
        process parallelism); radii stay bitwise identical either way.
    cache_dir:
        Directory for the persistent result cache; ``None`` disables
        memoization entirely.
    journal:
        Optional :class:`~repro.scheduler.journal.RunJournal`. Valid
        journal entries answer their queries without recomputation (they
        take precedence over the cache — the journal is the crash-recovery
        record of *this* run), and every newly computed outcome is
        durably appended the moment it completes, so a killed run resumes
        from exactly the queries it had not finished.

    After every :meth:`run`, ``last_stats`` holds the run's counters
    (cache/journal hits, misses, executed-by-source breakdown, retries,
    fallbacks, degraded queries).
    """

    def __init__(self, workers=0, cache_dir=None, journal=None,
                 batch_size=1, lease_timeout=None, heartbeat_interval=None,
                 poison_threshold=2, drain_timeout=30.0):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.workers = int(workers)
        self.batch_size = int(batch_size)
        self.lease_timeout = 30.0 if lease_timeout is None \
            else float(lease_timeout)
        self.heartbeat_interval = 0.5 if heartbeat_interval is None \
            else float(heartbeat_interval)
        self.poison_threshold = int(poison_threshold)
        self.drain_timeout = float(drain_timeout)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.journal = journal
        self.last_stats = None
        self._supervisor = None
        self._stop_supervisor = None
        self._drain_requested = False
        self._drain_timeout_override = None

    # ------------------------------------------------------------------ run
    def run(self, model, queries):
        """Execute ``queries`` against ``model``; outcomes in input order."""
        queries = list(queries)
        outcomes = [None] * len(queries)
        stats = {
            "queries": len(queries), "workers": self.workers,
            "batch_size": self.batch_size,
            "cache_hits": 0, "cache_misses": 0, "journal_hits": 0,
            "executed": {"worker": 0, "worker-retry": 0, "inprocess": 0,
                         "batched": 0, "poisoned": 0},
            "retries": 0, "fallbacks": 0, "degraded": 0,
            "batches": 0, "batched_queries": 0,
        }

        def complete(index, outcome):
            outcomes[index] = outcome
            if outcome.degraded:
                stats["degraded"] += 1
            if outcome.source in ("cache", "journal"):
                stats[f"{outcome.source}_hits"] += 1
            else:
                executed = stats["executed"]
                executed[outcome.source] = \
                    executed.get(outcome.source, 0) + 1
            if outcome.source == "worker-retry":
                stats["retries"] += outcome.attempts - 1
            commit(outcome, self.cache, self.journal)

        journaled = self.journal.replay() if self.journal else {}
        misses = []
        for index, query in enumerate(queries):
            record, source = journaled.get(query.key()), "journal"
            if record is None and self.cache:
                record, source = self.cache.get(query), "cache"
            if record is None:
                stats["cache_misses"] += 1
                misses.append(index)
            else:
                complete(index, QueryOutcome.from_record(query, record,
                                                         source))

        if misses:
            if self.batch_size > 1 and len(misses) > 1:
                self._run_batched(model, queries, misses, complete, stats)
            elif self.workers > 0 and _fork_available():
                self._run_supervised(model, queries, misses, complete,
                                     stats)
            else:
                for index in misses:
                    complete(index, self._run_inprocess(model,
                                                        queries[index]))

        if TRACER.enabled:
            # Re-absorb per-query traces (query_scope detached them from
            # the recording tracer, worker-side or serially) in query-key
            # order, so the merged global trace is identical regardless of
            # worker count or completion order.
            for outcome in sorted(
                    (o for o in outcomes if o.trace),
                    key=lambda o: o.query.key()):
                TRACER.absorb(outcome.trace)

        self.last_stats = stats
        return outcomes

    # ------------------------------------------------------------ execution
    def _run_batched(self, model, queries, misses, complete, stats):
        """Coalesce compatible misses into stacked batched executions.

        Misses group by :meth:`CertQuery.batch_key` (insertion order is
        preserved, so outcomes are deterministic), each group is chunked
        to ``batch_size``, and singleton chunks fall through to the plain
        in-process path. Non-DeepT queries never coalesce.
        """
        groups = {}
        for index in misses:
            query = queries[index]
            key = query.batch_key() if query.verifier == "deept" \
                else ("solo", index)
            groups.setdefault(key, []).append(index)
        for indices in groups.values():
            for at in range(0, len(indices), self.batch_size):
                chunk = indices[at:at + self.batch_size]
                if len(chunk) == 1:
                    complete(chunk[0], self._run_inprocess(
                        model, queries[chunk[0]]))
                    continue
                payloads = execute_query_batch(
                    model, [queries[index] for index in chunk])
                stats["batches"] += 1
                stats["batched_queries"] += len(chunk)
                for index, payload in zip(chunk, payloads):
                    complete(index, QueryOutcome.from_payload(
                        queries[index], payload, "batched"))

    @staticmethod
    def _run_inprocess(model, query):
        return QueryOutcome.from_payload(query, execute_query(model, query),
                                         "inprocess")

    # ----------------------------------------------------- supervised pool
    def request_drain(self, timeout=None):
        """Ask a supervised run to drain (signal-handler safe).

        The in-flight leases finish (or are killed at the drain
        deadline); :meth:`run` then raises
        :class:`~repro.scheduler.pool.DrainedRun`. Every outcome
        completed before the drain is already journaled and cached.
        """
        self._drain_requested = True
        self._drain_timeout_override = timeout
        if self._supervisor is not None:
            self._supervisor.request_drain(timeout)

    def close(self):
        """Terminate the worker fleet, if one was started."""
        if self._stop_supervisor is not None:
            self._stop_supervisor()
        self._supervisor = None
        self._stop_supervisor = None

    def _ensure_supervisor(self, model):
        """The fleet serving ``model``; ``None`` when it cannot be created.

        Workers inherit the model at fork time, so a run against a
        different model replaces the fleet.
        """
        if self._supervisor is not None:
            if self._supervisor.model is model:
                return self._supervisor
            self.close()
        try:
            context = multiprocessing.get_context("fork")
            supervisor = WorkerSupervisor(
                model, workers=self.workers, context=context,
                heartbeat_interval=self.heartbeat_interval,
                lease_timeout=self.lease_timeout,
                poison_threshold=self.poison_threshold,
                drain_timeout=self.drain_timeout)
            supervisor.start()
        except Exception:
            return None
        if self._drain_requested:
            supervisor.request_drain(self._drain_timeout_override)
        self._supervisor = supervisor
        # Stop the fleet when the scheduler is dropped without close(),
        # so idle workers never outlive their owner.
        self._stop_supervisor = weakref.finalize(self, supervisor.stop)
        return supervisor

    def _run_supervised(self, model, queries, misses, complete, stats):
        """Route misses through the supervised leased-worker fleet.

        Outcomes complete (and commit) incrementally through the
        supervisor's ``on_result`` hook, so a drained or killed run keeps
        everything that finished. A poisoned outcome keeps the *original*
        query, so callers see which submission degraded; it commits under
        its rewritten IBP ``executed_query``.
        """
        supervisor = self._ensure_supervisor(model)
        if supervisor is None:
            stats["fallbacks"] += 1
            for index in misses:
                complete(index, self._run_inprocess(model, queries[index]))
            return
        before = dict(supervisor.stats)
        try:
            supervisor.run([queries[index] for index in misses],
                           on_result=lambda i, outcome:
                           complete(misses[i], outcome))
        finally:
            stats["supervised"] = {
                key: supervisor.stats[key] - before.get(key, 0)
                for key in supervisor.stats}
            if supervisor.drain_seconds is not None:
                stats["supervised"]["drain_seconds"] = \
                    supervisor.drain_seconds
