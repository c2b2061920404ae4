"""The QoS rung ladder: the one rule that classifies and rewrites queries.

Every place that moves a query down the degradation ladder — service
admission under load, the supervised pool's poison quarantine, the
service's IBP rescue — classifies it with :func:`rung_for_query` and
rewrites it with :func:`degrade_query`. The rewrite changes the query's
content (and therefore its sha256 key), so a looser answer lives under
its own cache/journal key and can never masquerade as the full-precision
result. Every rung is a sound verifier: degradation only loses certified
radius, it never flips an uncertifiable query to certified.
"""

from __future__ import annotations

import dataclasses

__all__ = ["QOS_RUNGS", "rung_for_query", "degrade_query"]

# QoS levels, loosest last; the order mirrors the verifier's degradation
# ladder (precise -> fast -> IBP).
QOS_RUNGS = ("full", "fast", "ibp")


def _is_plain_fast(query):
    config = dict(query.config)
    return (query.verifier == "deept"
            and config.get("dot_product_variant") == "fast"
            and not config.get("refinement_plan"))


def rung_for_query(query):
    """The QoS rung a query is already at (used to report, not decide).

    Only plain DeepT-Fast sits at "fast". A fast query carrying a
    refinement plan, and an ``"adaptive"`` query, are "full" work: their
    plans run precise passes, which is exactly the spend the fast rung
    sheds.
    """
    if query.verifier == "ibp":
        return "ibp"
    return "fast" if _is_plain_fast(query) else "full"


def degrade_query(query, rung):
    """Rewrite ``query`` to run at QoS ``rung``; returns a new CertQuery.

    Queries already at or below the requested rung are returned
    unchanged — the ladder only ever moves downwards.
    """
    if rung not in QOS_RUNGS:
        raise ValueError(f"unknown QoS rung {rung!r}")
    if rung == "full" or query.verifier == "ibp":
        return query
    if rung == "ibp":
        return dataclasses.replace(query, verifier="ibp")
    # rung == "fast": meaningful for deept queries above "fast" and for
    # adaptive queries (drop the escalation to its DeepT-Fast floor).
    if query.verifier not in ("deept", "adaptive") or _is_plain_fast(query):
        return query
    config = dict(query.config)
    config["dot_product_variant"] = "fast"
    config["refinement_plan"] = ()
    return dataclasses.replace(query, verifier="deept",
                               config=tuple(sorted(config.items())))
