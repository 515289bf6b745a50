"""State persistence curve: what a `tsnfv serve` mutation's journal
append, a checkpoint, and loading the state file with its journal cost as
the audit log grows.

The script builds the serve_tcp benchmark's pre-filled state (24 fill
services, 96 streams, from `perfbench/gen.py`), saves and loads it, and
serves it in process through `_UniServer.handle_line`, the way
`tsnfv serve` handles each line: a request is dispatched, and a mutation
appends its line and the query lines since the last append to the
journal. Each round is the benchmark's: one stream request, four
capability queries, and the stream's removal. Every exchange adds one
audit record. At each row's exchange count, a window of 60 more
exchanges (20 mutations) is timed, and the row reports:
- the median ms of a mutation's persistence (`Journal.record`);
- the ms of one checkpoint of the server's workspace;
- the median ms of five `Workspace.load`s of a state file with a journal
  of one checkpoint's worth of lines, taken as the server is about to
  checkpoint it after the row, and the journal's size;
- the size and SHA-256 of the state as it persists after the window
  (the file and its journal, loaded and saved), so that two versions of
  the code can be checked for identical state files.

    python3 tools/state_io_curve.py [--max-exchanges 16000] [--out BENCH_state_io.json]

Stdlib only; it reads the package from `src/` and the generators from
`perfbench/`, and writes nothing but the output file and a temporary
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from tsnfv import cli, descriptors  # noqa: E402
from tsnfv.topology import load_topology, shortest_path  # noqa: E402
from tsnfv.uni import (  # noqa: E402
    CapabilityQuery,
    RemoveStream,
    StreamRequest,
    decode_message,
    encode_routed,
)
from tsnfv.workspace import Workspace, journal_path  # noqa: E402

SEED = 1
SIZES = (0, 1000, 4000, 16000)
WINDOW = 60  # timed exchanges per row: ten rounds, 20 mutations
LOADS = 5
QUERIES = 4  # capability queries per round, as in serve_tcp
ROUND = QUERIES + 2  # exchanges per round


def prefill(path: Path) -> None:
    """The serve_tcp state file: the fill generator's first 24 services."""
    ws = Workspace(load_topology(json.dumps(gen.fill_topology())))
    for k in range(gen.SERVE_SERVICES):
        nsd, placement = gen.fill_service(SEED, k)
        ws.instantiate(
            descriptors.parse_nsd(json.dumps(nsd)), descriptors.parse_placement(json.dumps(placement))
        )
    ws.save(path)


def round_messages(topology, r: int) -> list:
    """Round r of the serve_tcp client: a stream request, the capability
    queries and the stream's removal, with request ids `io-<n>` numbered
    on from round 0."""
    nsd, placement = gen.serve_stream_service(SEED, r)
    req = descriptors.derive_streams(
        descriptors.parse_nsd(json.dumps(nsd)), descriptors.parse_placement(json.dumps(placement))
    )[0]
    hops = tuple(shortest_path(topology, req.talker.node_id, req.listener.node_id).hops)
    rids = (f"io-{ROUND * r + k:06d}" for k in range(1, ROUND + 1))
    msgs = [StreamRequest(next(rids), req, hops, req.traffic.max_latency_ns)]
    msgs += [CapabilityQuery(next(rids)) for _ in range(QUERIES)]
    msgs.append(RemoveStream(next(rids), req.stream_id))
    return msgs


def lines(topology):
    """The serve_tcp client's request lines, round after round."""
    for r in itertools.count():
        yield from (encode_routed(msg, "d1") for msg in round_messages(topology, r))


def curve(max_exchanges: int, workdir: Path) -> list[dict]:
    path, saved, taken = workdir / "state.json", workdir / "saved.json", workdir / "taken" / "state.json"
    taken.parent.mkdir()
    prefill(path)
    server = cli._UniServer(("127.0.0.1", 0), Workspace.load(path), str(path))
    journal = server.journal
    append_ms: list[float] = []
    record, checkpoint = journal.record, journal.checkpoint
    take = False  # copy the state file and its journal at the next checkpoint

    def timed_record(line: bytes, mutation: bool) -> None:
        t0 = time.perf_counter()
        record(line, mutation)
        if mutation:
            append_ms.append((time.perf_counter() - t0) * 1e3)

    def taking_checkpoint() -> None:
        nonlocal take
        if take:
            shutil.copyfile(path, taken)
            shutil.copyfile(journal.path, journal_path(taken))
            take = False
        checkpoint()

    journal.record, journal.checkpoint = timed_record, taking_checkpoint
    rows = []
    try:
        feed = lines(server.workspace.topology)
        done = failed = 0

        def play(n: int) -> None:
            nonlocal done, failed
            for _ in range(n):
                failed += decode_message(server.handle_line(next(feed))).status != "ok"
                done += 1

        for size in (n for n in SIZES if n <= max_exchanges):
            if size < done:
                raise SystemExit(f"row {size} comes before the {done} exchanges already played")
            play(size - done)
            append_ms.clear()
            play(WINDOW)
            records = len(server.workspace.dispatcher.audit_log)
            Workspace.load(path).save(saved)
            data = saved.read_bytes()
            t0 = time.perf_counter()
            journal.checkpoint()
            checkpoint_ms = (time.perf_counter() - t0) * 1e3
            take = True
            while take:
                play(1)
            loads = []
            for _ in range(LOADS):
                t0 = time.perf_counter()
                Workspace.load(taken)
                loads.append((time.perf_counter() - t0) * 1e3)
            rows.append(
                {
                    "exchanges": size,
                    "audit_records": records,
                    "appends": len(append_ms),
                    "append_ms_p50": round(statistics.median(append_ms), 3),
                    "checkpoint_ms": round(checkpoint_ms, 3),
                    "load_ms_p50": round(statistics.median(loads), 3),
                    "journal_bytes": journal_path(taken).stat().st_size,
                    "state_bytes": len(data),
                    "state_sha256": hashlib.sha256(data).hexdigest(),
                    "failed_exchanges": failed,
                }
            )
            row = rows[-1]
            print(
                f"{size:>9} {row['audit_records']:>8} {row['append_ms_p50']:>9.3f} {row['checkpoint_ms']:>8.3f} "
                f"{row['load_ms_p50']:>8.3f} {row['journal_bytes']:>9} {row['state_bytes']:>9}"
            )
    finally:
        server.server_close()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-exchanges", type=int, default=SIZES[-1])
    parser.add_argument("--out", default=str(ROOT / "BENCH_state_io.json"))
    args = parser.parse_args(argv)

    print(
        f"{'exchanges':>9} {'records':>8} {'append ms':>9} {'ckpt ms':>8} "
        f"{'load ms':>8} {'journal':>9} {'bytes':>9}"
    )
    with tempfile.TemporaryDirectory() as workdir:
        rows = curve(args.max_exchanges, Path(workdir))
    doc = {
        "script": "tools/state_io_curve.py",
        "seed": SEED,
        "window_exchanges": WINDOW,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
