"""Per-layer tracing from outside the program: wrappers at the import sites.

:func:`install` replaces the public functions of each layer with thin
wrappers that open a span in a :class:`~spans.SpanRecorder` and record
exact counts from the call's arguments and result. Nothing in the
program changes; :func:`install` returns a function that puts every
original back.

Each wrapper is installed where the *caller* looks the name up.
``repro.verify.propagation`` binds ``zonotope_matmul``,
``zonotope_softmax``, ``reduce_noise_symbols``, ``fused_layer_norm``,
``check_zonotope``, ``relu`` and ``tanh`` by name at import time, so
those names are replaced in that module; patching only ``repro.zonotope``
would miss every call. Likewise ``repro.verify.verifier`` binds
``propagate_classifier``, ``repro.scheduler.scheduler`` binds
``execute_query`` / ``execute_query_batch``, and ``repro.zonotope.softmax``
binds ``exp`` / ``reciprocal``. Names looked up at call time
(``repro.verify.radius`` inside ``execute_query``,
``repro.zonotope.refinement.refine_softmax_rows`` inside ``softmax``) and
methods are replaced on their defining module or class.
"""

from __future__ import annotations

import functools
import importlib

import numpy as np

__all__ = ["install", "N_LAYER_SLOTS", "PROPAGATION_OPS", "layer_metrics"]

# Encoder-layer ordinals reported per op (the deepest checkpoint has 12).
N_LAYER_SLOTS = 12
PROPAGATION_OPS = ("attention", "layer_norm", "ffn", "reduction")


def _zero_rows(z):
    """All-zero eps rows of a zonotope, read without mutating it.

    Dense rows are tested directly; a lazy one-nonzero tail row is zero
    exactly when its magnitude is. Reading ``z.eps`` instead would fold
    the tail into dense rows, which changes the representation the rest of
    the propagation sees.
    """
    count = z._eps_count
    zero = 0
    if count:
        rows = np.asarray(z._dense_rows()).reshape(count, -1)
        zero += count - int(np.count_nonzero(rows.any(axis=1)))
    tail = z._eps_tail
    if tail is not None and len(tail):
        mag = np.asarray(tail.mag).reshape(len(tail), -1)
        zero += int(np.count_nonzero(~mag.any(axis=1)))
    return zero


def install(recorder):
    """Wrap every traced layer; returns ``uninstall()``."""
    # import_module, not ``import a.b as m``: the package attribute
    # ``repro.zonotope.softmax`` is the function, not the module.
    module = importlib.import_module
    cache_mod = module("repro.scheduler.cache")
    journal_mod = module("repro.scheduler.journal")
    scheduler_mod = module("repro.scheduler.scheduler")
    propagation = module("repro.verify.propagation")
    radius_mod = module("repro.verify.radius")
    refine_mod = module("repro.verify.refine")
    verifier_mod = module("repro.verify.verifier")
    refinement_mod = module("repro.zonotope.refinement")
    softmax_mod = module("repro.zonotope.softmax")

    rec = recorder
    restore = []

    def patch(owner, attr, make):
        original = owner.__dict__[attr]
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        restore.append((owner, attr, original))

    def spanned(name, after=None):
        """Wrapper factory: one span per call, then ``after(args, out)``."""
        def make(original):
            def wrapper(*args, **kwargs):
                index = rec.open(name)
                try:
                    out = original(*args, **kwargs)
                finally:
                    rec.close(index)
                if after is not None:
                    after(args, out)
                return out
            return wrapper
        return make

    def note_eps(args, out):
        """Track the eps high-water mark on zonotope-valued results."""
        n_eps = getattr(out, "n_eps", None)
        if n_eps is not None:
            rec.high("zonotope.peak_n_eps", n_eps)

    # ------------------------------------------------------------ verify.*
    def counting_search(name):
        def make(original):
            def wrapper(certify, *args, **kwargs):
                def counted(*probe_args):
                    verdict = certify(*probe_args)
                    probes = len(probe_args[0]) if name == "lockstep" \
                        else 1
                    rec.count("verify.radius.probes", probes)
                    return verdict
                index = rec.open("verify.radius.search")
                try:
                    return original(counted, *args, **kwargs)
                finally:
                    rec.close(index)
            return wrapper
        return make

    patch(radius_mod, "binary_search_radius", counting_search("serial"))
    patch(radius_mod, "lockstep_radius_search", counting_search("lockstep"))
    patch(verifier_mod.DeepTVerifier, "certify_region",
          spanned("verify.verifier.certify_region"))

    def after_refine(args, result):
        rec.count("verify.refine.rounds", result.refinement_rounds)
        if result.certified and result.refinement_rounds == 0:
            rec.count("verify.refine.fast_certified")

    patch(refine_mod.AdaptiveVerifier, "certify_region",
          spanned("verify.refine.certify_region", after_refine))

    # ----------------------------------------------- verify.propagation.*
    state = {"ordinal": 0}

    def classifier(original):
        def wrapper(*args, **kwargs):
            state["ordinal"] = 0
            rec.layer = 0
            index = rec.open("verify.propagation.classifier")
            try:
                return original(*args, **kwargs)
            finally:
                rec.close(index)
                rec.layer = -1
        return wrapper

    def encoder_layer(original):
        def wrapper(*args, **kwargs):
            index = rec.open("verify.propagation.layer")
            try:
                return original(*args, **kwargs)
            finally:
                rec.close(index)
                # The next layer's symbol reduction runs before its
                # propagate_transformer_layer call: advance now.
                state["ordinal"] += 1
                rec.layer = state["ordinal"]
        return wrapper

    # The verifier binds propagate_classifier by name at import.
    patch(verifier_mod, "propagate_classifier", classifier)
    patch(propagation, "propagate_transformer_layer", encoder_layer)
    patch(propagation, "propagate_attention",
          spanned("verify.propagation.attention"))
    patch(propagation, "propagate_layer_norm",
          spanned("verify.propagation.layer_norm", note_eps))
    patch(propagation, "propagate_feed_forward",
          spanned("verify.propagation.ffn", note_eps))

    def after_reduction(args, out):
        rec.count("zonotope.reduction.eps_rows_in", args[0].n_eps)
        rec.count("zonotope.reduction.eps_rows_out", out.n_eps)
        note_eps(args, out)

    patch(propagation, "reduce_noise_symbols",
          spanned("verify.propagation.reduction", after_reduction))

    # --------------------------------------------------------- zonotope.*
    def matmul(original):
        def wrapper(x, y, config=None, *rest, **kwargs):
            variant = getattr(config, "variant", "fast")
            name = f"zonotope.dotproduct.matmul.{variant}"
            index = rec.open(name)
            try:
                out = original(x, y, config, *rest, **kwargs)
            finally:
                rec.close(index)
            if variant == "precise":
                # Eq. (6) pairs every eps row of x with every eps row of
                # y. The kernel zero-pads both operands to a common width,
                # so padding rows count as all-zero rows of that operand.
                width = max(x.n_eps, y.n_eps)
                rows = int(np.prod(x.shape[:-1]))
                rec.count(f"{name}.pair_terms",
                          rows * y.shape[-1] * x.n_eps * y.n_eps)
                for side, operand in (("x", x), ("y", y)):
                    zero = _zero_rows(operand) + width - operand.n_eps
                    rec.count(f"{name}.zero_rows.{side}", zero)
                    rec.count(f"{name}.eps_rows.{side}", width)
            note_eps((x, y), out)
            return out
        return wrapper

    patch(propagation, "zonotope_matmul", matmul)
    patch(propagation, "zonotope_softmax",
          spanned("zonotope.softmax", note_eps))
    patch(refinement_mod, "refine_softmax_rows",
          spanned("zonotope.refinement.refine_softmax_rows"))
    patch(propagation, "fused_layer_norm",
          spanned("zonotope.fused.fused_layer_norm", note_eps))
    for owner, name in ((propagation, "relu"), (propagation, "tanh"),
                        (softmax_mod, "exp"), (softmax_mod, "reciprocal")):
        patch(owner, name, spanned("zonotope.elementwise", note_eps))
    patch(propagation, "check_zonotope",
          spanned("verify.guards.check_zonotope"))

    # ---------------------------------------------------------- scheduler
    patch(scheduler_mod.CertScheduler, "run", spanned("scheduler.run"))
    patch(scheduler_mod, "execute_query",
          spanned("scheduler.worker.execute_query"))
    patch(scheduler_mod, "execute_query_batch",
          spanned("scheduler.worker.execute_query_batch"))
    patch(cache_mod.ResultCache, "get", spanned("scheduler.cache.get"))
    patch(cache_mod.ResultCache, "put", spanned("scheduler.cache.put"))
    patch(journal_mod.RunJournal, "append",
          spanned("scheduler.journal.append"))

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
        restore.clear()

    return uninstall


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec):
    """The benchmark's per-layer metrics from one traced run.

    Every metric is present for every workload (zero where the workload
    does not reach the layer), so runs of different workloads and commits
    line up by name.
    """
    by_name = rec.by_name()
    rollup = rec.rollup()
    metrics = {}

    def calls_and_seconds(name, prefix=None):
        calls, total, _ = by_name.get(name, (0, 0.0, 0.0))
        prefix = prefix or name
        metrics[f"{prefix}.calls"] = (calls, "count")
        metrics[f"{prefix}.s"] = (total, "s")

    # zonotope.dotproduct
    precise = "zonotope.dotproduct.matmul.precise"
    calls_and_seconds(precise)
    calls_and_seconds("zonotope.dotproduct.matmul.fast")
    metrics[f"{precise}.pair_terms"] = (rec.figure(f"{precise}.pair_terms"),
                                        "count")
    zero = {side: rec.figure(f"{precise}.zero_rows.{side}")
            for side in "xy"}
    rows = {side: rec.figure(f"{precise}.eps_rows.{side}") for side in "xy"}
    metrics[f"{precise}.zero_row_frac"] = (
        _ratio(zero["x"] + zero["y"], rows["x"] + rows["y"]), "fraction")
    for side in "xy":
        metrics[f"{precise}.zero_row_frac.{side}"] = (
            _ratio(zero[side], rows[side]), "fraction")
    self_total = sum(row[2] for row in by_name.values())
    metrics[f"{precise}.self_share"] = (
        _ratio(by_name.get(precise, (0, 0.0, 0.0))[2], self_total),
        "fraction")

    # verify.propagation per encoder-layer ordinal
    for layer in range(N_LAYER_SLOTS):
        for op in PROPAGATION_OPS:
            row = rollup.get((layer, f"verify.propagation.{op}"))
            metrics[f"verify.propagation.L{layer}.{op}.s"] = (
                row[1] if row else 0.0, "s")

    # other zonotope layers
    for name in ("zonotope.softmax",
                 "zonotope.refinement.refine_softmax_rows",
                 "zonotope.fused.fused_layer_norm",
                 "zonotope.elementwise"):
        metrics[f"{name}.s"] = (by_name.get(name, (0, 0.0, 0.0))[1], "s")
    metrics["zonotope.reduction.kept_frac"] = (
        _ratio(rec.figure("zonotope.reduction.eps_rows_out"),
               rec.figure("zonotope.reduction.eps_rows_in")), "fraction")
    metrics["zonotope.peak_n_eps"] = (rec.figure("zonotope.peak_n_eps"),
                                      "count")

    # verify.radius / verifier / refine / guards
    metrics["verify.radius.probes"] = (rec.figure("verify.radius.probes"),
                                       "count")
    calls_and_seconds("verify.verifier.certify_region")
    refine_calls, refine_s, _ = by_name.get("verify.refine.certify_region",
                                            (0, 0.0, 0.0))
    metrics["verify.refine.certify_region.s"] = (refine_s, "s")
    metrics["verify.refine.rounds"] = (rec.figure("verify.refine.rounds"),
                                       "count")
    metrics["verify.refine.fast_certified_frac"] = (
        _ratio(rec.figure("verify.refine.fast_certified"), refine_calls),
        "fraction")
    calls_and_seconds("verify.guards.check_zonotope")

    # scheduler
    metrics["scheduler.run.s"] = (by_name.get("scheduler.run",
                                              (0, 0.0, 0.0))[1], "s")
    for name in ("scheduler.worker.execute_query",
                 "scheduler.worker.execute_query_batch",
                 "scheduler.cache.get", "scheduler.cache.put",
                 "scheduler.journal.append"):
        calls_and_seconds(name)
    return metrics
