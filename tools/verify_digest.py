"""Verification digest: one SHA-256 over 2940 `verify_ns` results, so two
versions of the verifier can be checked for byte-identical output.

It instantiates `random_scenario(seed)` (from `tests/scenarios.py`) for
seeds 0-59 and 1000-1199, keeps the 245 that admission accepts, and
verifies each at background loads 1, 0.5 and 0.05, simulator seeds 0 and
7, and 1 and 3 cycles, in that order. Each result's canonical document
(`dump_json(result.to_doc())`) goes into the digest in turn. The script
prints the digest and the result count, and exits 1 when the digest is
not `EXPECTED`.

    python3 tools/verify_digest.py

Stdlib only; it reads the package from `src/` and the generators from
`tests/`. A run takes about 6 s on a 2-core x86-64 host under Python
3.11.7. Of the 735 results at simulator seed 0 and 3 cycles, 210 have
best-effort drops; over all 2940, six loaded runs of a port meet a tie
that the best-effort recurrence leaves to the event loop. So the digest
pins the recurrence's drops and its fall-back.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import scenarios as sc  # noqa: E402
from tsnfv.codec import dump_json  # noqa: E402
from tsnfv.errors import AdmissionFailedError  # noqa: E402
from tsnfv.verifier import SimConfig, verify_ns  # noqa: E402

SEEDS = (*range(0, 60), *range(1000, 1200))
LOADS = (1.0, 0.5, 0.05)
SIM_SEEDS = (0, 7)
CYCLES = (1, 3)
EXPECTED = "e052a10aa7a320de61827e4b5d1dffb5d08f250ba0bf3a2256c776668a3e6952"


def digest() -> tuple[str, int]:
    """(hex digest, number of results) over every admitted scenario."""
    sha, results = hashlib.sha256(), 0
    for seed in SEEDS:
        topo_doc, nsd_doc, placement_doc = sc.random_scenario(seed)
        ws = sc.build_workspace(topo_doc)
        try:
            instance = sc.instantiate(ws, nsd_doc, placement_doc)
        except AdmissionFailedError:
            continue
        for load, sim_seed, cycles in itertools.product(LOADS, SIM_SEEDS, CYCLES):
            cfg = SimConfig(duration_cycles=cycles, bg_load=load, seed=sim_seed)
            sha.update(dump_json(verify_ns(instance, ws.topology, ws.gcl_docs, cfg).to_doc()))
            results += 1
    return sha.hexdigest(), results


def main() -> int:
    found, results = digest()
    print(f"{found}  {results} results")
    if found != EXPECTED:
        print(f"error: the digest differs from {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
