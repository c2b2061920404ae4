"""In-process workload runner (``fast-sweep`` and ``adaptive-precise``).

Started by ``run.py`` as a child process. It loads the checkpoints,
builds the workload's query panel, runs the warm-up queries and prints
``READY``; ``run.py`` times process start to that line as the set-up
time. With ``--setup-only`` it exits there. Otherwise it then

1. runs whole passes over the panel, in a seeded order, through
   ``CertScheduler(workers=0)`` with a fresh result cache and run journal
   per pass, one query per ``run`` call, until ``--seconds`` have passed
   (every query is a miss and a durable write), recording each pass's
   wall time and each search's panel index, so every search is timed
   once per pass;
2. resubmits the last pass's queries, cycling until at least
   ``HIT_REPEATS`` repeats (exact repeats: journal hits);
3. with ``--trace 1``, replays the last pass through fresh schedulers,
   untraced and with the layer wrappers installed, and checks that the
   traced radii are bitwise equal to the timed pass's;
4. checks that every pass answered each query with the same radius, and
   attacks every certified radius with PGD (``certified <= attack``);

and writes the raw measurements as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import replace

HIT_REPEATS = 100

def _panel(workload, models):
    """The fixed query panel and the warm-up queries, ``[(n_layers, query)]``.

    Each cell contributes the first (sentence, position) pair of its pool,
    drawn with the fixed panel seed. Each (depth, length) gets one warm-up
    query, its first cell's second pool entry searched with one bisection
    step, so lazy set-up for every model and shape is done before timing;
    the panel never contains a warm-up query, so no timed cache sees one.
    """
    from repro.scheduler.queries import model_weight_hash
    from workloads import make_query, query_pool

    hashes = {depth: model_weight_hash(model)
              for depth, (model, _) in models.items()}
    panel = []
    warmups = {}
    for depth, length, p in workload.cells:
        model, dataset = models[depth]
        pool = query_pool(model, dataset, length, workload.splits,
                          (depth, length, p))
        sentence, position = pool[0]
        panel.append((depth, make_query(workload, hashes[depth], sentence,
                                        position, p)))
        if (depth, length) not in warmups:
            sentence, position = pool[1]
            warmups[depth, length] = (depth, replace(
                make_query(workload, hashes[depth], sentence, position, p),
                n_iterations=1))
    return panel, list(warmups.values())


def _scheduler(state_dir, tag):
    from repro.scheduler import CertScheduler, RunJournal

    return CertScheduler(
        workers=0, cache_dir=os.path.join(state_dir, f"cache-{tag}"),
        journal=RunJournal(os.path.join(state_dir, f"journal-{tag}.jsonl")))


def _submit(scheduler, model, query):
    """One closed-loop submission: (outcome, wall seconds)."""
    start = time.perf_counter()
    [outcome] = scheduler.run(model, [query])
    return outcome, time.perf_counter() - start


def _timed_passes(state, models, panel, rng, seconds):
    """Whole passes over the panel until ``seconds`` have passed.

    Each pass submits every panel query once, in a seeded order, through
    a fresh scheduler, so every query is a miss and a durable write.
    Returns the answered rows, each pass's wall time and the last pass's
    scheduler.
    """
    answered = []
    pass_walls = []
    start = time.perf_counter()
    while not pass_walls or time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        scheduler = _scheduler(state, f"timed-{len(pass_walls)}")
        for i in rng.permutation(len(panel)):
            depth, query = panel[i]
            outcome, latency = _submit(scheduler, models[depth][0], query)
            answered.append({
                "index": int(i), "depth": depth, "query": query,
                "radius": outcome.radius, "seconds": outcome.seconds,
                "latency": latency, "degraded": outcome.degraded})
        pass_walls.append(time.perf_counter() - pass_start)
    return answered, pass_walls, scheduler


def _pgd_violations(models, answered):
    """Certified radii at which PGD still finds a counterexample."""
    from repro.attacks import pgd_attack

    violations = []
    for row in answered:
        if row["radius"] <= 0.0:
            continue
        query = row["query"]
        model = models[row["depth"]][0]
        tokens = list(query.sentence)
        success, _ = pgd_attack(model, tokens, query.position, row["radius"],
                                query.p, true_label=model.predict(tokens))
        if success:
            violations.append(f"PGD flips {query.describe()} inside its "
                              f"certified radius {row['radius']!r}")
    return violations


def _traced_replay(args, models, answered, failures):
    """Replay the answered queries untraced and traced, interleaved.

    Each query runs once through a fresh untraced scheduler and once
    through a fresh traced one, alternating which goes first, so warm-up
    effects cancel out of the overhead ratio. Traced radii must equal the
    timed pass's bitwise.
    """
    from layers import install, layer_metrics
    from spans import SpanRecorder

    recorder = SpanRecorder()
    plain = _scheduler(args.state, "untraced")
    traced = _scheduler(args.state, "traced")
    plain_s = traced_s = 0.0
    for i, row in enumerate(answered):
        model = models[row["depth"]][0]
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            if not tracing:
                plain_s += _submit(plain, model, row["query"])[1]
                continue
            uninstall = install(recorder)
            try:
                outcome, latency = _submit(traced, model, row["query"])
            finally:
                uninstall()
            traced_s += latency
            if outcome.radius != row["radius"]:
                failures.append(
                    f"traced radius {outcome.radius!r} != untraced "
                    f"{row['radius']!r} for {row['query'].describe()}")
    out_dir = os.path.join(args.root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    recorder.write(os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-spans.jsonl.gz"))
    metrics = {name: list(value)
               for name, value in layer_metrics(recorder).items()}
    metrics["trace.overhead_ratio"] = [traced_s / plain_s, "ratio"]
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--state", required=True)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    from repro.scheduler.worker import execute_query
    from workloads import WORKLOADS, load_model

    workload = WORKLOADS[args.workload]
    models = {depth: load_model(args.root, depth)
              for depth in workload.depths}
    panel, warmups = _panel(workload, models)
    for depth, query in warmups:
        execute_query(models[depth][0], query)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rng = np.random.default_rng(args.seed)
    answered, pass_walls, scheduler = _timed_passes(
        args.state, models, panel, rng, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    hit_latencies = []
    last_pass = answered[-len(panel):]
    for i in range(max(HIT_REPEATS, len(panel))):
        row = last_pass[i % len(panel)]
        outcome, latency = _submit(scheduler, models[row["depth"]][0],
                                   row["query"])
        hit_latencies.append(latency)
        if outcome.source not in ("journal", "cache") \
                or outcome.radius != row["radius"]:
            failures.append(f"repeat of {row['query'].describe()} answered "
                            f"{outcome.radius!r} from {outcome.source}, "
                            f"first answer {row['radius']!r}")

    first = {}
    for row in answered:
        radius = first.setdefault(row["query"].key(), row["radius"])
        if row["radius"] != radius:
            failures.append(f"passes answered {radius!r} and "
                            f"{row['radius']!r} for "
                            f"{row['query'].describe()}")

    traced = None
    if args.trace:
        traced = _traced_replay(args, models, last_pass, failures)

    failures.extend(_pgd_violations(models, last_pass))

    result = {
        "answered": [{key: row[key] for key in
                      ("index", "radius", "seconds", "latency", "degraded")}
                     for row in answered],
        "pass_walls": pass_walls, "peak_rss_mb": peak_rss_mb,
        "hit_latencies": hit_latencies, "failures": failures,
        "traced": traced,
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
