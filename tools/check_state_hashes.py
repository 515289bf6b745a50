"""Compare the state hashes of a fresh curve run with a committed curve.

Each row of `tools/admission_curve.py` and `tools/state_io_curve.py` ends
with the SHA-256 of the state file it left; rows are keyed by their size
column. The check fails, naming the drifting sizes, when a fresh row's
hash differs from the committed row of the same size, or when the fresh
run has no rows.

    python3 tools/check_state_hashes.py COMMITTED FRESH KEY WHAT

for example

    python3 tools/check_state_hashes.py BENCH_admission.json out.json streams "admission decisions"

fails with "admission decisions differ from BENCH_admission.json at
[512] streams" when the 512-stream row drifted. Stdlib only.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    committed_path, fresh_path, key, what = argv
    with open(committed_path) as committed_file, open(fresh_path) as fresh_file:
        committed = {r[key]: r["state_sha256"] for r in json.load(committed_file)["rows"]}
        rows = json.load(fresh_file)["rows"]
    drift = [r[key] for r in rows if r["state_sha256"] != committed.get(r[key])]
    if drift or not rows:
        sys.exit(f"{what} differ from {committed_path} at {drift} {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
