"""Simulator curve: how long one simulation of every admitted stream takes
as the network fills.

Each row builds the fill state of `tools/admission_curve.py` (43 talker/
listener host pairs on one bridge, seed 1) at the row's stream count,
flattens the schedules of every active instance into one flow list, and
simulates them all in one run under the state's gate control lists, at
background load 0 and at load 1 (3 cycles, seed 0). Each load is run
three times; the row reports the median ms, the frames the run carried
(scheduled frames delivered plus best-effort frames sent), frames per
second at the median, and the SHA-256 of the report document
(`dump_json(report.to_doc())`), so two versions of the simulator can be
checked for identical reports.

Each row also takes the load-1 run the way `verify_ns` does: a plan built
from the schedules and the state's gate control list documents
(`ws.gcl_docs`) fixes each port's scheduled arrivals and departures,
and the run replays each port alone against it, running the full event
loop only where the two could differ. The row reports that run's median
ms, whether it was replayed or fell back, and its report hash, and two
port counts: the ports whose best effort the recurrence counted, and the
coupled ports, where best effort can share an open gate with a flow.
Last, `verify_ms` is the median ms of three `verify_ns` runs of the
row's first instance (default `SimConfig`: loads 0 and 1), given the
documents `ws.gcl_docs` built once before the runs; it checks every
list of the state, so it grows with the network. The script exits 1
when the replayed hash differs from `bg1_report_sha256`, when a row's
run was not replayed, when a row has a coupled port, or when the
verification fails. It prints one row per size and writes them to a
JSON file with the host's Python and CPU count.

    python3 tools/sim_curve.py [--max-streams 2048] [--out BENCH_sim.json]

Stdlib only; it reads the package from `src/`, the generators from
`tests/`, and the fill from `tools/admission_curve.py`.
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

import admission_curve as ac  # puts src/ and tests/ on the path
import scenarios as sc  # noqa: E402
from tsnfv.codec import dump_json, load_json  # noqa: E402
from tsnfv.model import GateControlList  # noqa: E402
from tsnfv import verifier  # noqa: E402
from tsnfv.verifier import SimConfig, SimReport, _Plan, flow_from_schedules, simulate, verify_ns  # noqa: E402
from tsnfv.workspace import Workspace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIZES = (256, 512, 1024, 2048)
LOADS = (0.0, 1.0)
REPEATS = 3


def network(streams: int):
    """(workspace, flows of every active instance, active instances) of
    the fill state at this many streams."""
    services = [
        (json.dumps(nsd), json.dumps(placement))
        for nsd, placement in (sc.fill_service(ac.SEED, k, ac.PAIRS) for k in range(streams // 4))
    ]
    state = ac.fill(services)[2]
    ws = Workspace.from_doc(load_json(state.decode(), "state file"))
    active = [i for i in ws.cuc.instances.values() if i.status == "active"]
    flows = [
        flow_from_schedules(req, [sched for _, sched in chain])
        for instance in active
        for req, chain in instance.stream_schedules()
    ]
    return ws, flows, active


def counted_ports(plan: _Plan, cfg: SimConfig) -> int:
    """Ports whose best effort the recurrence counted in one replay of
    `cfg`'s run on `plan`."""
    counted = set()
    best_effort = verifier._best_effort

    def count(port, bg_times):
        counts = best_effort(port, bg_times)
        if counts is not None:
            counted.add(port.key)
        return counts

    verifier._best_effort = count
    try:
        plan.replay(SimReport(), cfg)
    finally:
        verifier._best_effort = best_effort
    return len(counted)


def run_row(streams: int) -> dict:
    ws, flows, active = network(streams)
    topology, docs = ws.topology, ws.gcl_docs
    gcls = {port: GateControlList.from_doc(doc) for port, doc in docs.items()}
    row = {"streams": streams, "instances": len(active), "flows": len(flows), "gate_lists": len(gcls)}
    for load in LOADS:
        cfg = SimConfig(bg_load=load, seed=0)
        times, reports = [], set()
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            report = simulate(topology, gcls, flows, cfg)
            times.append(time.perf_counter() - t0)
            reports.add(dump_json(report.to_doc()))
        if len(reports) > 1:
            raise SystemExit(f"{streams} streams, bg{load:g}: the runs reported differently")
        frames = report.be_sent + sum(s.observed_frame_count for s in report.streams.values())
        seconds = statistics.median(times)
        name = f"bg{load:g}"
        row[f"{name}_ms"] = round(seconds * 1e3, 2)
        row[f"{name}_runs_ms"] = [round(t * 1e3, 2) for t in sorted(times)]
        row[f"{name}_frames"] = frames
        row[f"{name}_frames_per_s"] = round(frames / seconds)
        row[f"{name}_report_sha256"] = hashlib.sha256(reports.pop()).hexdigest()

    times, reports = [], set()
    cfg = SimConfig(bg_load=1.0, seed=0)
    for _ in range(REPEATS):
        plan = _Plan(topology, docs, flows, cfg.duration_cycles)
        t0 = time.perf_counter()
        report = simulate(topology, gcls, flows, cfg, plan)
        times.append(time.perf_counter() - t0)
        reports.add(dump_json(report.to_doc()))
    if len(reports) > 1:
        raise SystemExit(f"{streams} streams, bg1 replayed: the runs reported differently")
    row["bg1_replayed_ms"] = round(statistics.median(times) * 1e3, 2)
    row["bg1_replayed_runs_ms"] = [round(t * 1e3, 2) for t in sorted(times)]
    row["bg1_replayed_path"] = "replayed" if plan.replay(SimReport(), cfg) else "full loop"
    row["bg1_counted_ports"] = counted_ports(plan, cfg)
    row["coupled_ports"] = len(plan.coupled)
    row["bg1_replayed_report_sha256"] = hashlib.sha256(reports.pop()).hexdigest()

    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = verify_ns(active[0], topology, docs, SimConfig())
        times.append(time.perf_counter() - t0)
    row["verify_ms"] = round(statistics.median(times) * 1e3, 2)
    row["verify_runs_ms"] = [round(t * 1e3, 2) for t in sorted(times)]
    row["verify_passed"] = result.passed
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-streams", type=int, default=SIZES[-1])
    parser.add_argument("--out", default=str(ROOT / "BENCH_sim.json"))
    args = parser.parse_args(argv)

    rows = []
    print(
        f"{'streams':>8} {'flows':>6} {'bg0 ms':>8} {'frames/s':>9} {'bg1 ms':>8} {'frames/s':>9} "
        f"{'replayed ms':>12} {'path':>9} {'counted':>8} {'verify ms':>10}"
    )
    for streams in (n for n in SIZES if n <= args.max_streams):
        row = run_row(streams)
        rows.append(row)
        print(
            f"{row['streams']:>8} {row['flows']:>6} {row['bg0_ms']:>8.1f} {row['bg0_frames_per_s']:>9} "
            f"{row['bg1_ms']:>8.1f} {row['bg1_frames_per_s']:>9} {row['bg1_replayed_ms']:>12.1f} "
            f"{row['bg1_replayed_path']:>9} {row['bg1_counted_ports']:>8} {row['verify_ms']:>10.2f}"
        )
    doc = {
        "script": "tools/sim_curve.py",
        "host_pairs": ac.PAIRS,
        "seed": ac.SEED,
        "sim": {"duration_cycles": SimConfig().duration_cycles, "seed": 0, "bg_loads": list(LOADS)},
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    differ = [r["streams"] for r in rows if r["bg1_replayed_report_sha256"] != r["bg1_report_sha256"]]
    if differ:
        print(f"error: the replayed load-1 run reported differently at {differ} streams", file=sys.stderr)
    looped = [r["streams"] for r in rows if r["bg1_replayed_path"] != "replayed"]
    if looped:
        print(f"error: the load-1 run took the full event loop at {looped} streams", file=sys.stderr)
    coupled = [r["streams"] for r in rows if r["coupled_ports"]]
    if coupled:
        print(f"error: a flow's class shares an open gate with best effort at {coupled} streams", file=sys.stderr)
    failed = [r["streams"] for r in rows if not r["verify_passed"]]
    if failed:
        print(f"error: the first instance failed verification at {failed} streams", file=sys.stderr)
    return 1 if differ or looped or coupled or failed else 0


if __name__ == "__main__":
    sys.exit(main())
