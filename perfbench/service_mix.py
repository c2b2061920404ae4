"""The ``service-mix`` workload: open-loop traffic against the real service.

The service runs as its own process, ``python -m repro.experiments serve``
on the cached 3-layer checkpoint with ``--workers 1 --supervised``, with its
result cache and journal in a temp dir. One asyncio client sends an
open-loop schedule: a short ladder of fixed total rates, requests evenly
spaced and spread over three tenants. Every third request is an exact
repeat of an earlier fresh one (a quarter of those of the latest fresh
request, which is often still in flight, so they exercise in-flight
dedup; the rest are result hits).

At most ``os.cpu_count()`` connections are open at once; a request waiting
for a connection is late, and its latency still counts from the moment it
was due. After each rung the client waits for every outstanding answer, so
rungs do not leak backlog into one another.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, make_query, submission

__all__ = ["LADDER_QPS", "LATENCY_LIMIT_S", "boot", "stop", "plan_traffic",
           "run_ladder", "rung_passes"]

# Total request rates of the ladder and each rung's share of the run time.
# The first rung is the nominal rate at which latency_p50_s and
# latency_p90_s are reported; it gets two thirds of the time for more
# samples. The top rung is well past saturation on a 2-CPU host.
LADDER_QPS = (2.0, 3.0, 10.0)
RUNG_WEIGHTS = (4, 1, 1)
# A rung passes when the p90 latency of its fresh requests, and the
# lateness of every send, stay within this limit.
LATENCY_LIMIT_S = 1.5
# Every third request is an exact repeat of an earlier fresh one; a
# quarter of the repeats target the latest fresh request.
REPEAT_EVERY = 3
LATEST_SHARE = 0.25
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
WAIT_S = 60.0


# ------------------------------------------------------------------ HTTP
async def _http(port, method, path, body=None, timeout=WAIT_S + 10.0):
    """One request over a fresh connection; returns (status, json)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection("127.0.0.1", port), timeout)
    try:
        data = b"" if body is None else json.dumps(body).encode()
        writer.write((f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                      f"Content-Length: {len(data)}\r\n"
                      f"Connection: close\r\n\r\n").encode() + data)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload)


def get(port, path):
    return asyncio.run(_http(port, "GET", path))


def submit(port, body):
    return asyncio.run(_http(port, "POST", f"/submit?wait={WAIT_S}", body))


# ------------------------------------------------------------- lifecycle
def boot(root, state_dir, env, warmup_body, traced=False, timeout=120.0):
    """Start the service; returns ``(process, port, setup_seconds)``.

    Set-up runs from spawning the process until ``/health`` answers and one
    warm-up query has been answered. ``traced`` starts it through
    ``traced_serve.py``, which installs the layer wrappers first.
    """
    entry = [os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "traced_serve.py")] if traced \
        else ["-m", "repro.experiments"]
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, *entry, "serve", "--port", "0",
         "--workers", "1", "--supervised", "--n-layers", "3",
         "--cache-dir", os.path.join(state_dir, "cache"),
         "--journal", os.path.join(state_dir, "journal.jsonl")],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        port = None
        deadline = start + timeout
        for line in process.stdout:
            if "http://" in line:
                port = int(line.split("http://", 1)[1].split()[0]
                           .rsplit(":", 1)[1])
                break
        if port is None:
            raise RuntimeError("service exited before it listened")
        while True:
            try:
                status, _ = get(port, "/health")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("service /health never answered")
            time.sleep(0.01)
        status, payload = submit(port, warmup_body)
        if payload.get("status") != "done":
            raise RuntimeError(f"warm-up query failed: {payload}")
        return process, port, time.perf_counter() - start
    except BaseException:
        stop(process)
        raise


def peak_rss_mb(process):
    """The service process's peak resident set (VmHWM), in MB."""
    with open(f"/proc/{process.pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def stop(process, timeout=60.0):
    """SIGTERM (graceful drain), then wait; kill if it does not exit."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


# ---------------------------------------------------------------- traffic
def plan_traffic(rng, seconds):
    """Seeded request plan: ``[(rung, offset, tenant, fresh_index, repeat)]``.

    Rung ``i`` lasts ``RUNG_WEIGHTS[i]`` shares of ``seconds``; ``offset``
    is the due time within the rung. ``fresh_index`` numbers the fresh
    queries in sending order; a repeat re-sends an earlier fresh query
    verbatim.
    """
    plan = []
    n_fresh = 0
    total = sum(RUNG_WEIGHTS)
    for rung, (rate, weight) in enumerate(zip(LADDER_QPS, RUNG_WEIGHTS)):
        for i in range(int(round(rate * seconds * weight / total))):
            tenant = TENANTS[int(rng.integers(len(TENANTS)))]
            if len(plan) % REPEAT_EVERY == REPEAT_EVERY - 1:
                target = n_fresh - 1 if rng.random() < LATEST_SHARE \
                    else int(rng.integers(n_fresh))
                plan.append((rung, i / rate, tenant, target, True))
            else:
                plan.append((rung, i / rate, tenant, n_fresh, False))
                n_fresh += 1
    return plan


async def _drive(port, pool, plan):
    """Send the plan open-loop; returns one record per request."""
    workload = WORKLOADS["service-mix"]
    limit = asyncio.Semaphore(os.cpu_count() or 1)
    records = []

    async def send(due_at, entry):
        rung, _, tenant, index, repeat = entry
        async with limit:
            sent_at = time.perf_counter()
            sentence, position = pool[index]
            body = submission(workload, tenant, sentence, position,
                              workload.cells[0][2])
            try:
                status, payload = await _http(
                    port, "POST", f"/submit?wait={WAIT_S}", body)
            except (OSError, asyncio.TimeoutError, ValueError) as error:
                status, payload = 0, {"status": "error",
                                      "error": repr(error)}
        records.append({
            "rung": rung, "index": index, "repeat": repeat,
            "tenant": tenant, "status": status, "payload": payload,
            "sent": sent_at, "lateness": sent_at - due_at,
            "latency": time.perf_counter() - due_at})

    for rung in range(len(LADDER_QPS)):
        rung_start = time.perf_counter()
        tasks = []
        for entry in plan:
            if entry[0] != rung:
                continue
            due_at = rung_start + entry[1]
            delay = due_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(send(due_at, entry)))
        await asyncio.gather(*tasks)
    return records


def run_ladder(port, pool, plan):
    """Drive the whole ladder; returns ``(records, wall_seconds)``."""
    start = time.perf_counter()
    records = asyncio.run(_drive(port, pool, plan))
    return records, time.perf_counter() - start


def answered(record):
    return record["status"] == 200 and \
        record["payload"].get("status") == "done"


def rung_passes(records, rung):
    """Fresh p90 and every send's lateness within the latency limit.

    A refused or failed request counts as missing the limit.
    """
    rows = [r for r in records if r["rung"] == rung]
    fresh = [r["latency"] if answered(r) else float("inf")
             for r in rows if not r["repeat"]]
    if len(fresh) < 2:
        return False
    p90 = statistics.quantiles(fresh, n=10, method="inclusive")[8]
    return p90 <= LATENCY_LIMIT_S and \
        max(r["lateness"] for r in rows) <= LATENCY_LIMIT_S


def expected_keys(workload, model_hash, pool):
    """The key the service must report for each fresh query."""
    p = workload.cells[0][2]
    return [make_query(workload, model_hash, sentence, position, p).key()
            for sentence, position in pool]
