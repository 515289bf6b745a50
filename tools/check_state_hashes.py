"""Compare the hashes of a fresh curve run with a committed curve.

Each row of the three curves carries SHA-256 fields, and rows are keyed
by their size column:
- `tools/admission_curve.py`: `state_sha256`, the state file it left,
  and `gcl_sha256`, the gate control lists that state builds;
- `tools/state_io_curve.py`: `state_sha256`, the state file it left;
- `tools/sim_curve.py`: `bg0_report_sha256` and `bg1_report_sha256`, the
  simulator reports at background load 0 and 1.

The check fails, naming each drifting field and its sizes, when a fresh
row's `*_sha256` field differs from, or is missing in, the committed row
of the same size, or when the fresh run has no rows.

    python3 tools/check_state_hashes.py COMMITTED FRESH KEY WHAT

for example

    python3 tools/check_state_hashes.py BENCH_admission.json out.json streams "admission decisions"

fails with "admission decisions differ from BENCH_admission.json:
gcl_sha256 at [512] streams" when the 512-stream row built other gate
control lists. Stdlib only.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    committed_path, fresh_path, key, what = argv
    with open(committed_path) as committed_file, open(fresh_path) as fresh_file:
        committed = {r[key]: r for r in json.load(committed_file)["rows"]}
        rows = json.load(fresh_file)["rows"]
    drift: dict[str, list] = {}
    for row in rows:
        kept = committed.get(row[key], {})
        for field in sorted(f for f in {*kept, *row} if f.endswith("_sha256")):
            if row.get(field) != kept.get(field):
                drift.setdefault(field, []).append(row[key])
    if drift or not rows:
        where = "; ".join(f"{field} at {sizes} {key}" for field, sizes in sorted(drift.items()))
        sys.exit(f"{what} differ from {committed_path}: {where or f'no rows in {fresh_path}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
