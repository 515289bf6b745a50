"""Operator command line.

Subcommands drive the NS lifecycle against a file-backed workspace,
render schedules and configuration documents, run verification, and
optionally expose the controllers over the UNI byte protocol.

Exit codes: 0 ok, 1 input or usage error, 2 admission failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import signal
import socketserver
import sys
import threading
from pathlib import Path

from .cuc import NsInstance
from .descriptors import parse_nsd, parse_placement
from .errors import (
    AdmissionFailedError,
    DecodeError,
    ParseError,
    TsnNfvError,
    UnknownDomainError,
    UpdateFailedError,
)
from .topology import load_topology
from .uni import decode_routed, encode_message, malformed_response, reference_point
from .verifier import SimConfig, verify_ns
from .workspace import Journal, Workspace


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="tsnfv",
        description="TSN-aware NFV orchestration: admit, schedule, and verify streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("instantiate", help="instantiate a network service")
    p.add_argument("--topology", help="topology file; required when the state file is new")
    p.add_argument("--nsd", required=True, help="network service descriptor file")
    p.add_argument("--placement", required=True, help="member placement file")
    p.add_argument("--state", required=True, help="workspace state file")
    p.set_defaults(func=cmd_instantiate)

    p = sub.add_parser("terminate", help="terminate a network service instance")
    p.add_argument("instance_id")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_terminate)

    p = sub.add_parser("update", help="replace an instance's descriptors")
    p.add_argument("instance_id")
    p.add_argument("--nsd", required=True)
    p.add_argument("--placement", required=True)
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("show", help="inspect workspace contents")
    p.add_argument("what", choices=["streams", "gcl", "config", "audit"])
    p.add_argument("selector", nargs="?", help="port key for gcl, station id for config")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("verify", help="simulate an instance against its bounds")
    p.add_argument("instance_id")
    p.add_argument("--state", required=True)
    p.add_argument("--bg-load", type=float, default=1.0, dest="bg_load")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("serve", help="expose the controllers over a TCP byte protocol")
    p.add_argument("--listen", required=True, help="host:port; port 0 picks a free port")
    p.add_argument("--topology", help="topology file; required when the state file is new")
    p.add_argument("--state", help="state file, its journal appended after each mutation")
    p.set_defaults(func=cmd_serve)
    return parser


def _read(path: str, what: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from None
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} file {path} is not UTF-8: {exc}") from None


def _open_workspace(state_path: str, topology_path: str | None) -> Workspace:
    if state_path and Path(state_path).exists():
        return Workspace.load(state_path)
    if topology_path is None:
        raise ParseError(f"state file {state_path} does not exist and no --topology given")
    return Workspace(load_topology(_read(topology_path, "topology")))


def _instance_report(instance: NsInstance) -> str:
    lines = [f"instance {instance.instance_id}: {instance.status}"]
    for req, chain in instance.stream_schedules():
        domains = ",".join(domain for domain, _ in chain)
        e2e = chain[-1][1].exit_offset_ns
        lines.append(
            f"  {req.stream_id}: e2e {e2e} ns (bound {req.traffic.max_latency_ns} ns) via {domains}"
        )
    return "\n".join(lines)


def cmd_instantiate(args) -> int:
    ws = _open_workspace(args.state, args.topology)
    nsd = parse_nsd(_read(args.nsd, "nsd"))
    placement = parse_placement(_read(args.placement, "placement"))
    try:
        instance = ws.instantiate(nsd, placement)
    except AdmissionFailedError as exc:
        ws.save(args.state)
        print(f"admission failed: {exc}", file=sys.stderr)
        return 2
    ws.save(args.state)
    print(_instance_report(instance))
    return 0


def cmd_terminate(args) -> int:
    ws = Workspace.load(args.state)
    instance = ws.terminate(args.instance_id)
    ws.save(args.state)
    print(f"instance {instance.instance_id}: terminated")
    return 0


def cmd_update(args) -> int:
    ws = Workspace.load(args.state)
    nsd = parse_nsd(_read(args.nsd, "nsd"))
    placement = parse_placement(_read(args.placement, "placement"))
    try:
        instance = ws.update(args.instance_id, nsd, placement)
    except UpdateFailedError as exc:
        ws.save(args.state)
        print(f"update failed: {exc.cause}; original restored: {exc.restored}", file=sys.stderr)
        return 2
    ws.save(args.state)
    print(_instance_report(instance))
    return 0


def _show_streams(ws: Workspace) -> int:
    if not ws.cuc.instances:
        print("no instances")
        return 0
    for iid in sorted(ws.cuc.instances):
        instance = ws.cuc.instances[iid]
        print(f"instance {iid} [{instance.status}]")
        for req in instance.streams:
            chain = instance.schedules.get(req.stream_id)
            line = (
                f"  {req.stream_id}  pcp={req.frame.pcp}"
                f"  period={req.traffic.period_ns} ns"
            )
            if chain:
                line += (
                    f"  e2e={chain[-1][1].exit_offset_ns} ns"
                    f"  bound={req.traffic.max_latency_ns} ns"
                    f"  via {','.join(d for d, _ in chain)}"
                )
            print(line)
    return 0


def _show_gcl(ws: Workspace, port: str | None) -> int:
    if not port:
        print("show gcl needs a port key (node.port)", file=sys.stderr)
        return 1
    # only the port's own list is built, in the domain of its node
    node = ws.topology.nodes.get(port.split(".", 1)[0])
    gcl = node and ws._domain_gcls(node.domain_id, [port]).get(port)
    if not gcl:
        print(f"no gate control list for port {port}", file=sys.stderr)
        return 1
    doc = gcl.to_doc()
    print(f"gcl {port}  cycle_ns={doc['cycle_ns']}  base_time_ns={doc['base_time_ns']}")
    t = 0
    for entry in doc["entries"]:
        gates = entry["gate_states"]
        interval = entry["interval_ns"]
        print(f"  [{t:>10}, {t + interval:>10})  gates={gates:08b}")
        t += interval
    print(f"  entries={len(doc['entries'])}  sum_ns={t}")
    return 0


def _show_config(ws: Workspace, station: str | None) -> int:
    if not station:
        print("show config needs a station id", file=sys.stderr)
        return 1
    found = []
    known = False
    unmanaged = False
    for iid in sorted(ws.cuc.instances):
        instance = ws.cuc.instances[iid]
        if station not in instance.nsd.member_ids:
            continue
        known = True
        entry = instance.placement.get(station)
        if entry is not None:
            node = ws.topology.nodes.get(entry.node_id)
            if node is not None and not node.is_managed_station:
                unmanaged = True
        if instance.status == "active":
            found += [c for c in ws.cuc._emit_configs(instance) if c.station_id == station]
    if found:
        for config in found:
            print(json.dumps(config.to_doc(), sort_keys=True, indent=2))
        return 0
    if known and unmanaged:
        print("no config (unmanaged PNF)")
        return 0
    print(f"unknown station {station}", file=sys.stderr)
    return 1


def _show_audit(ws: Workspace) -> int:
    for record in ws.dispatcher.audit_log:
        print(f"{record.request_id}  {record.domain_id}  {reference_point(ws.topology, record.domain_id)}")
    return 0


def cmd_show(args) -> int:
    ws = Workspace.load(args.state)
    if args.what == "streams":
        return _show_streams(ws)
    if args.what == "gcl":
        return _show_gcl(ws, args.selector)
    if args.what == "config":
        return _show_config(ws, args.selector)
    return _show_audit(ws)


def cmd_verify(args) -> int:
    ws = Workspace.load(args.state)
    cfg = SimConfig(bg_load=args.bg_load, seed=args.seed)
    instance = ws.cuc.instance(args.instance_id)
    result = verify_ns(instance, ws.topology, ws.gcl_docs, cfg)
    for port, violations in sorted(result.gcl_violations.items()):
        for violation in violations:
            detail = " ".join(f"{k}={v}" for k, v in sorted(violation.items()) if k != "kind")
            print(f"gcl {port}: {violation['kind']} {detail}".rstrip())
    for name, report in sorted(result.reports.items()):
        print(
            f"run {name}: drops={report.total_dropped} "
            f"violations={report.total_violations} "
            f"be_sent={report.be_sent} be_dropped={report.be_dropped}"
        )
        for sid in sorted(report.streams):
            rec = report.streams[sid]
            bound = next(
                req.traffic.max_latency_ns
                for req in instance.streams
                if req.stream_id == sid
            )
            print(
                f"  {sid}: worst {rec.observed_worst_latency_ns} ns "
                f"(bound {bound} ns), {rec.observed_frame_count} frames"
            )
    print(f"verify {args.instance_id}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 3


class _UniServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, workspace: Workspace, state_path: str | None):
        self.workspace = workspace
        self.journal = Journal(state_path, workspace) if state_path else None
        self.mutation_lock = threading.Lock()
        super().__init__(address, _UniHandler)

    def handle_line(self, line: bytes) -> bytes:
        try:
            domain_id, msg = decode_routed(line)
        except DecodeError as exc:
            return malformed_response(line, exc)
        with self.mutation_lock:
            try:
                response = self.workspace.dispatcher.dispatch(msg, domain_id)
            except UnknownDomainError as exc:
                return malformed_response(line, exc)
            if self.journal:
                self.journal.record(line, msg.kind in ("stream_request", "remove_stream"))
        return encode_message(response)

    def server_close(self):
        super().server_close()
        if self.journal:
            with self.mutation_lock:
                self.journal.close()


class _UniHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for line in self.rfile:
            out = self.server.handle_line(line)
            self.wfile.write(out)
            self.wfile.flush()


def cmd_serve(args) -> int:
    host, _, port_text = args.listen.rpartition(":")
    # a port has at most 5 digits, and int() refuses a string of thousands
    port = int(port_text) if port_text.isdecimal() and len(port_text) <= 5 else -1
    if not host or not 0 <= port <= 65535:
        raise ParseError(f"--listen must be host:port, got {args.listen!r}")
    ws = _open_workspace(args.state or "", args.topology)
    try:
        server = _UniServer((host, port), ws, args.state)
    except OSError as exc:
        raise ParseError(f"cannot bind {args.listen}: {exc}") from None

    def _stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _stop)
    bound_host, bound_port = server.server_address[:2]
    print(f"listening on {bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        server.server_close()
        # the checkpoint keeps the audit records of the queries since the last mutation
        if args.state:
            with server.mutation_lock:
                server.journal.checkpoint()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TsnNfvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
