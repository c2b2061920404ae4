"""Query execution: the pure radius computation.

:func:`execute_query` is a *pure function* of (model weights, query): it
reruns the exact binary search the serial harness ran — same verifier
construction, same true-label computation, same bracketing parameters — so
a query's certified radius is bitwise identical whether it is computed in
the parent process, in a supervised pool worker, or replayed from a
previous run. That determinism is what makes the scheduler's result cache
and its serial-vs-parallel equivalence guarantee sound.

Every executed query returns ``(radius, seconds, perf_snapshot, meta)``
where ``meta`` records whether any certification in the binary search
degraded down the verifier's fallback ladder. The tuple is also the
worker pipe payload; callers turn it into a
:class:`~repro.scheduler.outcome.QueryOutcome` and merge the snapshots
via :meth:`PerfRecorder.merge` in deterministic key order.
"""

from __future__ import annotations

import time

from ..perf import PERF
from ..trace import TRACER

__all__ = ["execute_query", "execute_query_batch"]


def _build_verifier(model, query):
    if query.verifier == "deept":
        from ..verify import DeepTVerifier, VerifierConfig
        return DeepTVerifier(model, VerifierConfig(**dict(query.config)))
    if query.verifier == "adaptive":
        # One verifier per query, reused across the binary search's
        # probes — the certified-plan cache lives on it, so later probes
        # reuse the plan that certified the previous one.
        from ..verify import AdaptiveVerifier, VerifierConfig
        return AdaptiveVerifier(model, VerifierConfig(**dict(query.config)))
    if query.verifier == "ibp":
        # The QoS floor: interval propagation; the (deept-shaped) config
        # rides along unused so degraded queries stay round-trippable.
        from ..verify import IBPVerifier
        return IBPVerifier(model)
    from ..baselines.crown import CrownVerifier
    return CrownVerifier(model,
                         backsub_depth=dict(query.config)["backsub_depth"])


def execute_query(model, query):
    """Run one certification query; returns (radius, seconds, perf, meta).

    ``perf`` is the :meth:`repro.perf.PerfRecorder.snapshot` covering
    exactly this query's propagations. ``meta`` reports resilience state:
    ``degraded`` is True when any certification of the binary search fell
    down the verifier's fallback ladder, ``fallback_chain`` is the first
    degraded call's rung sequence and ``fault`` its originating failure.
    """
    from ..verify.radius import binary_search_radius

    start = time.perf_counter()
    token_ids = list(query.sentence)
    meta = {"degraded": False, "fallback_chain": (), "fault": None}
    # query_scope detaches this query's spans from the global list and
    # yields them (at scope exit) so they travel back through meta — the
    # same code path serially and in a pool worker, which is what makes
    # worker-merged traces identical to a serial run's.
    with PERF.collecting() as recorder, \
            TRACER.query_scope(query.key()) as spans:
        verifier = _build_verifier(model, query)
        true_label = model.predict(token_ids)

        def certify(radius):
            result = verifier.certify_word_perturbation(
                token_ids, query.position, radius, query.p,
                true_label=true_label)
            if getattr(result, "degraded", False) and not meta["degraded"]:
                meta["degraded"] = True
                meta["fallback_chain"] = tuple(result.fallback_chain)
                meta["fault"] = result.fault
            return bool(result)

        radius = binary_search_radius(certify, initial=query.initial,
                                      n_iterations=query.n_iterations)
        perf = recorder.snapshot()
    meta["trace"] = tuple(spans)
    return radius, time.perf_counter() - start, perf, meta


def execute_query_batch(model, queries):
    """Run coalesced queries as one lockstep batched radius search.

    ``queries`` must share a :meth:`CertQuery.batch_key` (the scheduler's
    grouping guarantees this). Each query's binary search is replayed
    probe-for-probe by :func:`lockstep_radius_search`, and every round's
    active probes are certified in one stacked propagation
    (:meth:`DeepTVerifier.certify_word_perturbation_batch`) — so the radii
    are bitwise identical to :func:`execute_query` per query, only the
    wall clock is shared.

    Returns a list of ``(radius, seconds, perf, meta)`` in input order.
    Per-query ``seconds`` is the batch wall clock divided by the batch
    size. The perf snapshot and trace cover the whole batch and ride on
    the *first* query's result (the rest carry ``None`` perf and empty
    traces), so merged totals count each propagation exactly once.
    """
    from ..verify.radius import lockstep_radius_search

    queries = list(queries)
    if len(queries) == 1:
        return [execute_query(model, queries[0])]
    if any(query.verifier != "deept" for query in queries):
        raise ValueError("only deept queries can run batched")

    start = time.perf_counter()
    first = queries[0]
    metas = [{"degraded": False, "fallback_chain": (), "fault": None}
             for _ in queries]
    with PERF.collecting() as recorder, \
            TRACER.query_scope(first.key()) as spans:
        verifier = _build_verifier(model, first)
        token_lists = [list(query.sentence) for query in queries]
        true_labels = [model.predict(tokens) for tokens in token_lists]

        def certify_batch(probes):
            indices = [i for i, _ in probes]
            results = verifier.certify_word_perturbation_batch(
                [token_lists[i] for i in indices],
                [queries[i].position for i in indices],
                [radius for _, radius in probes],
                first.p,
                true_labels=[true_labels[i] for i in indices])
            verdicts = []
            for i, result in zip(indices, results):
                if getattr(result, "degraded", False) \
                        and not metas[i]["degraded"]:
                    metas[i]["degraded"] = True
                    metas[i]["fallback_chain"] = tuple(result.fallback_chain)
                    metas[i]["fault"] = result.fault
                verdicts.append(bool(result))
            return verdicts

        radii = lockstep_radius_search(
            certify_batch, len(queries), initial=first.initial,
            n_iterations=first.n_iterations)
        perf = recorder.snapshot()
    seconds = (time.perf_counter() - start) / len(queries)
    results = []
    for i, (query, radius) in enumerate(zip(queries, radii)):
        meta = dict(metas[i])
        meta["trace"] = tuple(spans) if i == 0 else ()
        results.append((radius, seconds, perf if i == 0 else None, meta))
    return results

