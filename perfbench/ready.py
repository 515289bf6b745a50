"""Set-up probe for the in-process workloads: import the package, build
the workload's first inputs and workspaces, then print "ready". The
benchmark times this from process launch to that line.

usage: python3 perfbench/ready.py {sweep,fill} SEED
"""

from __future__ import annotations

import json
import sys

import gen


def main(workload: str, seed: int) -> None:
    from tsnfv import descriptors, verifier  # noqa: F401  (the sweep imports both)
    from tsnfv.topology import load_topology
    from tsnfv.workspace import Workspace

    if workload == "sweep":
        for shape in range(len(gen.SWEEP_SHAPES)):
            _, topo, nsd, placement = gen.sweep_scenario(seed, 0, shape)
            Workspace(load_topology(json.dumps(topo)))
            descriptors.parse_nsd(json.dumps(nsd))
            descriptors.parse_placement(json.dumps(placement))
    else:
        Workspace(load_topology(json.dumps(gen.fill_topology())))
        for k in range(gen.FILL_SERVICES):
            nsd, placement = gen.fill_service(seed, k)
            descriptors.parse_nsd(json.dumps(nsd))
            descriptors.parse_placement(json.dumps(placement))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
