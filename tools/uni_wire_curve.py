"""UNI wire curve: what a UNI exchange with `tsnfv serve` costs at the TCP
edge, with a fresh client per request and with one client that keeps its
connections.

The script builds the serve_tcp benchmark's pre-filled state (24 fill
services, 96 streams, from `perfbench/gen.py`) and serves a copy of it
with a real `tsnfv serve` process over loopback, one server per row. Each
client plays the benchmark's rounds: one stream request, four capability
queries, and the stream's removal, each round its own stream. A row is
one mode at 1 or 4 concurrent clients, each a thread:
- `fresh`: each request opens a new `UniClient` and closes it after the
  response, so it pays a connection set-up and teardown and a server
  handler thread;
- `reused`: the threads share one `UniClient`, which keeps its
  connections open and reuses them (one per request in flight).

After one untimed round per client, each client plays `--rounds` rounds,
and the row reports per request kind the median ms of an exchange, from
the call to the response, and the exchanges per second of wall time.
Every request must be answered `ok`, and the server must exit 0 on SIGTERM.

    python3 tools/uni_wire_curve.py [--rounds 200] [--out BENCH_uni.json]

Stdlib only; it reads the package from `src/`, and the generators and
the server launcher from `perfbench/`, and writes nothing but the output
file and a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

from state_io_curve import ROOT, ROUND, SEED, prefill, round_messages
from tsnfv.topology import load_topology
from tsnfv.uni import UniClient

import gen
from run import Server

MODES = ("fresh", "reused")
CLIENTS = (1, 4)
KINDS = ("stream_request", "capability_query", "remove_stream")
TIMEOUT_S = 30  # per round, for a client thread to finish


def row(mode: str, clients: int, rounds: int, prefilled: Path, workdir: Path) -> dict:
    state = workdir / f"{mode}-{clients}.json"
    shutil.copyfile(prefilled, state)
    topology = load_topology(json.dumps(gen.fill_topology()))
    server = Server(state)  # benchmark's launcher: fails unless the server exits 0
    shared = server.client
    timings: dict[str, list[float]] = {kind: [] for kind in KINDS}
    failed: list[str] = []

    def exchange(msg) -> None:
        t0 = time.perf_counter()
        if mode == "fresh":
            with UniClient(*shared.address) as client:
                response = client.request(msg, "d1")
        else:
            response = shared.request(msg, "d1")
        timings[msg.kind].append((time.perf_counter() - t0) * 1e3)
        if response.status != "ok":
            failed.append(f"{msg.kind} {msg.request_id}: {response.cause} {response.detail}")

    def play(msgs: list) -> None:
        for msg in msgs:
            exchange(msg)

    def run(first: int, last: int) -> float:
        """Rounds first to last of every client at once; the wall time."""
        plans = [
            [msg for r in range(first, last) for msg in round_messages(topology, r * clients + c)]
            for c in range(clients)
        ]
        threads = [threading.Thread(target=play, args=(plan,)) for plan in plans]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=TIMEOUT_S * (last - first))
        if any(thread.is_alive() for thread in threads):
            raise SystemExit(f"{mode} x{clients}: a client did not finish")
        return time.perf_counter() - t0

    try:
        run(0, 1)  # warm-up
        for samples in timings.values():
            samples.clear()
        elapsed = run(1, 1 + rounds)
    finally:
        shared.close()
        server.stop()
    if failed:
        raise SystemExit(f"{mode} x{clients}: {len(failed)} exchanges failed, first {failed[0]}")
    exchanges = sum(len(samples) for samples in timings.values())
    if exchanges != clients * rounds * ROUND:
        raise SystemExit(f"{mode} x{clients}: {exchanges} of {clients * rounds * ROUND} exchanges answered")
    doc = {"mode": mode, "clients": clients, "exchanges": exchanges}
    doc.update({f"{kind}_ms_p50": round(statistics.median(timings[kind]), 3) for kind in KINDS})
    doc["exchanges_per_s"] = round(exchanges / elapsed, 1)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=200, help="timed rounds per client")
    parser.add_argument("--out", default=str(ROOT / "BENCH_uni.json"))
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    print(f"{'mode':>6} {'clients':>7} {'request ms':>10} {'query ms':>8} {'remove ms':>9} {'exch/s':>8}")
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        prefilled = Path(workdir) / "prefill.json"
        prefill(prefilled)
        for mode in MODES:
            for clients in CLIENTS:
                rows.append(row(mode, clients, args.rounds, prefilled, Path(workdir)))
                r = rows[-1]
                print(
                    f"{mode:>6} {clients:>7} {r['stream_request_ms_p50']:>10.3f} "
                    f"{r['capability_query_ms_p50']:>8.3f} {r['remove_stream_ms_p50']:>9.3f} "
                    f"{r['exchanges_per_s']:>8.1f}"
                )
    doc = {
        "script": "tools/uni_wire_curve.py",
        "seed": SEED,
        "rounds_per_client": args.rounds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
