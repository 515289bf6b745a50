"""Admission scaling curve: how instantiation time grows with the streams
a controller already holds.

Each row instantiates fill services (two VLs, four streams each, from
`tests/scenarios.py`) on a fresh workspace of one bridge with 43 fixed
talker/listener host pairs, until the row's stream count, and times the
instantiations (routing and admission, in process). A row is run three
times and reports the median. Outside the timed part, it also reports
`load_ms`, the median ms of three loads of the first run's final state
file (`Workspace.from_doc(load_json(text))`), which holds 64 to 1024
instances. The script prints one row per size and writes them to a JSON
file with the host's Python and CPU count, the size and SHA-256 of each
row's final state file, and a SHA-256 of the gate control lists that
state builds (`dump_json(ws.gcl_docs)`, which the state file does not
hold), so two versions of the code can be checked for identical
decisions and identical lists.

    python3 tools/admission_curve.py [--max-streams 4096] [--out BENCH_admission.json]

Stdlib only; it reads the package from `src/` and the generators from
`tests/`, and needs nothing else from the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import scenarios as sc  # noqa: E402
from tsnfv.codec import dump_json, load_json  # noqa: E402
from tsnfv.descriptors import parse_nsd, parse_placement  # noqa: E402
from tsnfv.errors import AdmissionFailedError  # noqa: E402
from tsnfv.topology import load_topology  # noqa: E402
from tsnfv.workspace import Workspace  # noqa: E402

PAIRS = 43
SEED = 1
SIZES = (256, 512, 1024, 2048, 4096)
REPEATS = 3


def fill(services: list[tuple[str, str]]) -> tuple[float, int, bytes, str]:
    """Seconds to instantiate the services, how many were rejected, the
    state file left behind, and the SHA-256 of its gate control lists,
    both computed after the timed part."""
    ws = Workspace(load_topology(json.dumps(sc.fill_topology(PAIRS))))
    rejected = 0
    t0 = time.perf_counter()
    for nsd_text, placement_text in services:
        try:
            ws.instantiate(parse_nsd(nsd_text), parse_placement(placement_text))
        except AdmissionFailedError:
            rejected += 1
    seconds = time.perf_counter() - t0
    state = dump_json(ws.to_doc()) + b"\n"
    return seconds, rejected, state, hashlib.sha256(dump_json(ws.gcl_docs)).hexdigest()


def load_ms(state: bytes) -> float:
    """Median ms of loading the state file's text."""
    text = state.decode()
    loads = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        Workspace.from_doc(load_json(text, "state file"))
        loads.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(loads)


def run_row(streams: int) -> dict:
    services = [
        (json.dumps(nsd), json.dumps(placement))
        for nsd, placement in (sc.fill_service(SEED, k, PAIRS) for k in range(streams // 4))
    ]
    runs = [fill(services) for _ in range(REPEATS)]
    if len({run[1:] for run in runs}) > 1:
        raise SystemExit(f"{streams} streams: the runs decided differently")
    seconds = sorted(run[0] for run in runs)
    return {
        "streams": streams,
        "services": len(services),
        "rejected_services": runs[0][1],
        "seconds": round(seconds[len(seconds) // 2], 4),
        "runs_seconds": [round(t, 4) for t in seconds],
        "load_ms": round(load_ms(runs[0][2]), 3),
        "state_bytes": len(runs[0][2]),
        "state_sha256": hashlib.sha256(runs[0][2]).hexdigest(),
        "gcl_sha256": runs[0][3],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-streams", type=int, default=SIZES[-1])
    parser.add_argument("--out", default=str(ROOT / "BENCH_admission.json"))
    args = parser.parse_args(argv)

    rows = []
    print(f"{'streams':>8} {'services':>8} {'rejected':>8} {'seconds':>8} {'x prev':>7} {'load ms':>8}")
    for streams in (n for n in SIZES if n <= args.max_streams):
        row = run_row(streams)
        if rows:
            row["ratio_to_previous"] = round(row["seconds"] / rows[-1]["seconds"], 2)
        rows.append(row)
        ratio = f"{row['ratio_to_previous']:>7.2f}" if "ratio_to_previous" in row else f"{'':>7}"
        print(
            f"{row['streams']:>8} {row['services']:>8} {row['rejected_services']:>8} "
            f"{row['seconds']:>8.3f} {ratio} {row['load_ms']:>8.3f}"
        )
    doc = {
        "script": "tools/admission_curve.py",
        "host_pairs": PAIRS,
        "seed": SEED,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
