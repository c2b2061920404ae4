"""The repository benchmark: one command, three workloads, checked answers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fast-sweep --seed 1 --seconds 20 \\
        --trace 0

``--workload`` is ``fast-sweep``, ``adaptive-precise`` or ``service-mix``
(see README.md for what each measures and why). ``--seed`` picks the
inputs; ``--seconds`` is the measured run time. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics instead, from a traced
replay of the same inputs. The line before it records the host and
environment. The exit code is nonzero, and ``correct`` false, when any
correctness gate fails: a PGD counterexample inside a certified radius, a
repeat or traced answer that differs bitwise from the first answer, or a
service answer that differs bitwise from in-process ``execute_query``.

Everything the run writes stays inside the checkout: temp state under
``.perfbench_tmp/`` (removed at exit), span files under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
# PGD-checked sample of service answers re-executed in-process.
SERVICE_RECHECK = 4

# Pinned for the benchmark and every process it starts: one BLAS thread,
# no result recording by the table runners, unbuffered child output.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "REPRO_NO_RECORD": "1",
    "PYTHONUNBUFFERED": "1", "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "setup_s": "s", "throughput_qps": "1/s", "query_p50_s": "s",
    "radius_mean": "radius", "latency_p50_s": "s", "latency_p90_s": "s",
    "max_rate_qps": "1/s",
    "answered_frac": "fraction", "full_rung_frac": "fraction",
    "peak_rss_mb": "MB",
}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _p90(values):
    # Inclusive: interpolates between samples, never past the largest.
    return statistics.quantiles(values, n=10, method="inclusive")[8] \
        if len(values) > 1 else values[0]


def _host(seed):
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine(), "commit": commit, "seed": seed}


# ------------------------------------------------------- in-process runs
def _run_engine(args, state, extra, timeout):
    """Run engine.py to completion; returns seconds until it printed READY.

    The child is killed, and waited for, if it overruns ``timeout`` or
    fails; a failure ends the benchmark without a result.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "engine.py"), "--root", ROOT,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--state", state, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        ready = time.perf_counter() - start
        process.communicate(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if line.strip() != "READY" or process.returncode != 0:
        _fail(f"engine failed for {args.workload} "
              f"(exit code {process.returncode})")
    return ready


def run_in_process(args, tmp):
    setups = [_run_engine(args, tmp, ["--setup-only"], 60)
              for _ in range(SETUP_REPEATS - 1)]
    out = os.path.join(tmp, "engine.json")
    setups.append(_run_engine(args, tmp, ["--out", out], 150))
    with open(out) as handle:
        result = json.load(handle)

    rows = result["answered"]
    failures = list(result["failures"])
    attempted = len(rows) + len(result["hit_latencies"])
    pass_walls = result["pass_walls"]
    panel_size = len(rows) // len(pass_walls)
    # Every search is timed once per pass; its time is the median over
    # the passes, so a slow stretch of the host that hits one pass moves
    # no percentile.
    per_query = {}
    for row in rows:
        per_query.setdefault(row["index"], []).append(row)
    seconds = [statistics.median(row["seconds"] for row in runs)
               for runs in per_query.values()]
    latencies = [statistics.median(row["latency"] for row in runs)
                 for runs in per_query.values()]
    throughput = statistics.median(panel_size / wall for wall in pass_walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_qps": throughput,
        "query_p50_s": statistics.median(seconds),
        "radius_mean": statistics.fmean(row["radius"] for row in rows),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": _p90(latencies),
        # One serial closed-loop caller: no queue forms, so the highest
        # rate it can sustain is its completion rate.
        "max_rate_qps": throughput,
        # A search that raises ends the engine, and the run, with no result.
        "answered_frac": 1.0,
        "full_rung_frac": 1 - sum(row["degraded"] for row in rows)
        / len(rows),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    per_layer = None
    if args.trace:
        per_layer = dict(result["traced"])
        per_layer.update(_service_zero_metrics())
        per_layer["hit_latency_p50_s"] = [
            statistics.median(result["hit_latencies"]), "s"]
        if args.workload == "fast-sweep" and \
                per_layer["zonotope.dotproduct.matmul.precise.calls"][0]:
            failures.append("fast-sweep made precise dot-product calls")
    info = {"passes": len(pass_walls), "queries": len(rows),
            "pass_walls": pass_walls, "setup_samples": setups}
    return metrics, per_layer, attempted, 0, failures, info


# ----------------------------------------------------------- service-mix
SERVICE_COUNTERS = ("result_hits", "dedup_hits", "cache_hits",
                    "executed_queries")


def _service_zero_metrics():
    metrics = {f"service.{name}": [0, "count"] for name in SERVICE_COUNTERS}
    metrics.update({
        "service.qos_degraded": [0, "count"],
        "service.rejected": [0, "count"],
        "service.coalesced_batch_mean": [0.0, "queries"],
        "service.queue_wait_p50_s": [0.0, "s"],
        "service.exec_s_p50": [0.0, "s"],
        "service.generator_lateness_p90_s": [0.0, "s"],
        "scheduler.pool.leases": [0, "count"],
        "scheduler.pool.heartbeats": [0, "count"],
        "scheduler.pool.requeued_leases": [0, "count"],
    })
    return metrics


def run_service(args, tmp):
    import numpy as np

    import service_mix as svc
    from repro.scheduler.queries import model_weight_hash
    from workloads import WORKLOADS, load_model, query_pool, submission

    workload = WORKLOADS["service-mix"]
    model, dataset = load_model(ROOT, 3)
    model_hash = model_weight_hash(model)
    rng = np.random.default_rng(args.seed)
    cell = workload.cells[0]
    plan = svc.plan_traffic(rng, args.seconds)
    # The fresh panel is the first pool entries, sent in a seeded order;
    # the warm-up query is the next entry, never part of the traffic.
    pool = query_pool(model, dataset, cell[1], workload.splits, cell)
    n_fresh = sum(1 for entry in plan if not entry[4])
    warmup = submission(workload, "warm-up", *pool[n_fresh], cell[2])
    pool = [pool[i] for i in rng.permutation(n_fresh)]

    def serve(traced=False):
        state = tempfile.mkdtemp(prefix="service-", dir=tmp)
        return svc.boot(ROOT, state, dict(os.environ), warmup, traced=traced)

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        process, _, seconds = serve()
        setups.append(seconds)
        svc.stop(process)
    process, port, seconds = serve()
    setups.append(seconds)
    failures = []
    try:
        _, health = svc.get(port, "/health")
        if health.get("model_hash") != model_hash:
            failures.append(f"service model {health.get('model_hash')} "
                            f"is not the checkpoint {model_hash}")
        records, wall = svc.run_ladder(port, pool, plan)
        _, served = svc.get(port, "/metrics")
        rss = svc.peak_rss_mb(process)
    finally:
        svc.stop(process)

    keys = svc.expected_keys(workload, model_hash, pool)
    done = [r for r in records if svc.answered(r)]
    fresh = {r["index"]: r for r in done if not r["repeat"]}
    degraded = 0
    for record in done:
        payload = record["payload"]
        if payload["key"] != keys[record["index"]]:
            failures.append(f"service key {payload['key']} != expected "
                            f"{keys[record['index']]}")
        if payload["degraded"] or payload["qos_rung"] == "ibp":
            degraded += 1
        first = fresh.get(record["index"])
        if record["repeat"] and first is not None and \
                payload["radius"] != first["payload"]["radius"]:
            failures.append(f"repeat of fresh query {record['index']} "
                            f"answered a different radius")
    failures.extend(_recheck_service(model, workload, model_hash, pool,
                                     fresh, rng))

    nominal = [r["latency"] if svc.answered(r) else math.inf
               for r in records if r["rung"] == 0 and not r["repeat"]]
    fresh_done = list(fresh.values())
    # Timed from the send: a repeat that waited for one of the client's
    # connections would measure the client's connection cap.
    hits = [r["latency"] - r["lateness"] for r in done if r["repeat"]]
    passing = [rung for rung in range(len(svc.LADDER_QPS))
               if svc.rung_passes(records, rung)]
    max_rate = 0.0
    if passing:
        # The send rate the client achieved on the highest passing rung.
        sent = sorted(r["sent"] for r in records if r["rung"] == passing[-1])
        max_rate = (len(sent) - 1) / (sent[-1] - sent[0])
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_qps": len(fresh_done) / wall,
        # At the nominal rate fresh queries run one at a time; above it
        # they coalesce and report batch wall over batch size.
        "query_p50_s": statistics.median(
            r["payload"]["seconds"] for r in fresh_done if r["rung"] == 0),
        "radius_mean": statistics.fmean(
            r["payload"]["radius"] for r in fresh_done),
        "latency_p50_s": statistics.median(nominal),
        "latency_p90_s": _p90(nominal),
        "max_rate_qps": max_rate,
        "answered_frac": len(done) / len(records),
        "full_rung_frac": 1 - degraded / len(done),
        "peak_rss_mb": rss,
    }
    per_layer = None
    if args.trace:
        per_layer = _traced_service(serve, pool, plan, records, args.seed,
                                    failures)
        per_layer.update(_service_layer_metrics(served, records, fresh_done))
        per_layer["hit_latency_p50_s"] = [statistics.median(hits), "s"]
    info = {"requests": len(records), "fresh": len(fresh_done),
            "repeats": len(hits), "passing_rungs": passing,
            "setup_samples": setups, "nominal_fresh_samples": len(nominal)}
    return metrics, per_layer, len(records), len(records) - len(done), \
        failures, info


def _traced_service(serve, pool, plan, records, seed, failures):
    """The same traffic against a service with the layer wrappers.

    Returns the service process's layer metrics plus the tracing overhead
    (traced over untraced mean latency of answered fresh requests at the
    nominal rate, below saturation), and checks that every traced answer
    equals the untraced one bitwise.
    """
    import service_mix as svc

    out = os.path.join(ROOT, ".perfbench_out",
                       f"service-mix-seed{seed}-layers.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    os.environ["PERFBENCH_LAYERS_OUT"] = out
    process, port, _ = serve(traced=True)
    try:
        traced, _ = svc.run_ladder(port, pool, plan)
    finally:
        svc.stop(process)
    with open(out) as handle:
        metrics = json.load(handle)

    def fresh_latency(rows):
        return statistics.fmean(r["latency"] for r in rows
                                if svc.answered(r) and not r["repeat"]
                                and r["rung"] == 0)

    untraced = {r["index"]: r["payload"]["radius"]
                for r in records if svc.answered(r)}
    for record in traced:
        radius = record["payload"].get("radius")
        if record["index"] in untraced and \
                radius != untraced[record["index"]]:
            failures.append(f"traced service radius {radius!r} != "
                            f"untraced {untraced[record['index']]!r}")
    metrics["trace.overhead_ratio"] = [
        fresh_latency(traced) / fresh_latency(records), "ratio"]
    return metrics


def _recheck_service(model, workload, model_hash, pool, fresh, rng):
    """Bitwise in-process re-execution of a sample, PGD on every answer."""
    from repro.attacks import pgd_attack
    from repro.scheduler.worker import execute_query
    from workloads import make_query

    failures = []
    p = workload.cells[0][2]
    indices = sorted(fresh)
    sample = rng.choice(indices, size=min(SERVICE_RECHECK, len(indices)),
                        replace=False)
    for index in sample:
        sentence, position = pool[index]
        query = make_query(workload, model_hash, sentence, position, p)
        radius = execute_query(model, query)[0]
        served = fresh[index]["payload"]["radius"]
        if radius != served:
            failures.append(f"service radius {served!r} != in-process "
                            f"{radius!r} for {query.describe()}")
    for index in indices:
        radius = fresh[index]["payload"]["radius"]
        if radius <= 0.0:
            continue
        sentence, position = pool[index]
        tokens = list(sentence)
        success, _ = pgd_attack(model, tokens, position, radius, p,
                                true_label=model.predict(tokens))
        if success:
            failures.append(f"PGD flips service query {index} inside its "
                            f"certified radius {radius!r}")
    return failures


def _service_layer_metrics(served, records, fresh_done):
    """Per-layer service figures from /metrics and the client."""
    import service_mix as svc

    counters = served["counters"]
    supervisor = served.get("supervisor") or {}
    metrics = _service_zero_metrics()
    for name in SERVICE_COUNTERS:
        metrics[f"service.{name}"][0] = counters.get(name, 0)
    metrics["service.qos_degraded"][0] = sum(
        v for k, v in counters.items() if k.startswith("qos_degraded_"))
    metrics["service.rejected"][0] = sum(
        v for k, v in counters.items() if k.startswith("rejected_"))
    executed = counters.get("executed_queries", 0)
    batches = executed - counters.get("coalesced_queries", 0) \
        + counters.get("coalesced_batches", 0)
    metrics["service.coalesced_batch_mean"][0] = executed / batches \
        if batches else 0.0
    metrics["service.queue_wait_p50_s"][0] = statistics.median(
        r["latency"] - r["payload"]["seconds"] for r in fresh_done)
    metrics["service.exec_s_p50"][0] = statistics.median(
        r["payload"]["seconds"] for r in fresh_done)
    metrics["service.generator_lateness_p90_s"][0] = _p90(
        [r["lateness"] for r in records])
    for name in ("leases", "heartbeats", "requeued_leases"):
        metrics[f"scheduler.pool.{name}"][0] = supervisor.get(name, 0)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=("fast-sweep", "adaptive-precise",
                                 "service-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        _fail(f"no program source at {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, checkpoint_path

    missing = [path for path in (checkpoint_path(ROOT, depth)
                                 for depth in WORKLOADS[args.workload].depths)
               if not os.path.isfile(path)]
    if missing:
        _fail(f"missing cached checkpoints (the benchmark never trains): "
              f"{missing}")
    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        runner = run_service if args.workload == "service-mix" \
            else run_in_process
        metrics, per_layer, attempted, failed, failures, info = \
            runner(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)  # only when no other run is using it
        except OSError:
            pass

    host = _host(args.seed)
    print(json.dumps({"host": host, "workload": args.workload,
                      "seconds": args.seconds, **info}))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if args.trace:
        shown = {name: {"value": value, "unit": unit}
                 for name, (value, unit) in sorted(per_layer.items())}
    else:
        shown = {name: {"value": metrics[name], "unit": unit}
                 for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
