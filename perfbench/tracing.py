"""Spans for the traced run.

The traced run replaces public functions with timing wrappers at the
place each caller looks them up (for example `tsnfv.cuc.shortest_path`,
which `Cuc.instantiate_ns` calls by that module-level name). Spans are
kept in memory as [id, name, start_ns, end_ns, parent_id, op, value,
error] and written out when the run ends. A span with no parent starts a
new operation; its descendants share its op. The untraced runs never
import this module.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import threading
import time
from collections import defaultdict

CODEC = "uni.codec"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.heap_pushes = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, measure=None):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if not stack:
                self.op += 1
            span = [next(ids), name, 0, 0, stack[-1] if stack else -1, self.op, None, None]
            spans.append(span)
            stack.append(span[0])
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[7] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if measure is not None:
                span[6] = measure(result, args)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer boundary."""
        for owner, attr, name, measure in _targets():
            raw = owner.__dict__[attr]
            self._undo.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, measure)))
            else:
                setattr(owner, attr, self.wrap(name, raw, measure))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            json.dump({"heap_pushes": self.heap_pushes, "spans": self.spans}, out)
            out.write("\n")


class HeapPushCounter:
    """Counts the simulator's heap pushes through a stand-in for the
    verifier module's `heapq`, in a pass of its own: one Python call per
    push adds about a quarter to the simulator's time, which would blur
    the traced pass's `verifier.simulate_ms`."""

    heappop = staticmethod(heapq.heappop)

    def __init__(self):
        self.pushes = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def __enter__(self):
        from tsnfv import verifier

        self._saved = verifier.heapq
        verifier.heapq = self
        return self

    def __exit__(self, *exc):
        from tsnfv import verifier

        verifier.heapq = self._saved


def _sim_frames(report, args) -> int:
    return sum(s.observed_frame_count for s in report.streams.values()) + report.be_sent


def _targets():
    from tsnfv import cli, cnc, cuc, descriptors, uni, verifier, workspace

    ws = workspace.Workspace
    size = lambda result, args: len(result)  # noqa: E731
    return [
        (descriptors, "parse_nsd", "descriptors.parse", None),
        (descriptors, "parse_placement", "descriptors.parse", None),
        (descriptors, "derive_streams", "descriptors.derive", None),
        (cuc, "shortest_path", "topology.route", None),
        (cuc, "split_by_domain", "topology.route", None),
        (cuc.Cuc, "instantiate_ns", "cuc.instantiate", None),
        (cuc.Cuc, "terminate_ns", "cuc.terminate", None),
        (cuc.Cuc, "_emit_configs", "cuc.emit_configs", None),
        (cnc, "admit_stream", "cnc.admit", None),
        (cnc, "remove_stream", "cnc.remove", None),
        (cnc, "synthesize_gcls", "cnc.synth", size),
        (uni.Dispatcher, "dispatch", "uni.dispatch", None),
        (uni, "encode_message", CODEC, size),
        (uni, "decode_message", CODEC, None),
        (uni, "encode_routed", CODEC, size),
        (uni, "decode_routed", CODEC, None),
        (cli, "encode_message", CODEC, size),
        (cli, "decode_routed", CODEC, None),
        (cli._UniServer, "handle_line", "cli.handle_line", None),
        (ws, "instantiate", "workspace.instantiate", None),
        (ws, "terminate", "workspace.terminate", None),
        (ws, "refresh_gcls", "workspace.refresh", None),
        (ws, "_domain_gcls", "workspace.domain_gcls", None),
        (ws, "to_doc", "workspace.to_doc", None),
        (ws, "save", "workspace.save", lambda result, args: os.path.getsize(args[1])),
        (ws, "load", "workspace.load", None),
        (verifier, "verify_ns", "verifier.verify", None),
        (verifier, "simulate", "verifier.simulate", _sim_frames),
        (verifier, "check_gcl_wellformed", "verifier.check_gcl", None),
    ]


# -- per-layer metrics from spans -------------------------------------------

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "verifier.simulate_ms": ("ms", "lower"),
    "verifier.check_gcl_ms": ("ms", "lower"),
    "verifier.frames": ("count", "lower"),
    "verifier.frames_per_s": ("1/s", "higher"),
    "verifier.heap_pushes": ("count", "lower"),
    "verifier.pushes_per_frame": ("ratio", "lower"),
    "cnc.admit_calls": ("count", "lower"),
    "cnc.admit_ms": ("ms", "lower"),
    "topology.route_ms": ("ms", "lower"),
    "cnc.synth_calls": ("count", "lower"),
    "cnc.synth_ms": ("ms", "lower"),
    "cnc.synth_ports": ("count", "lower"),
    "cnc.synth_ports_per_talker_read": ("ratio", "lower"),
    "cnc.remove_ms": ("ms", "lower"),
    "workspace.refresh_ms": ("ms", "lower"),
    "workspace.to_doc_ms": ("ms", "lower"),
    "workspace.save_ms": ("ms", "lower"),
    "workspace.state_bytes": ("bytes", "lower"),
    "workspace.load_ms": ("ms", "lower"),
    "uni.dispatch_calls": ("count", "lower"),
    "uni.dispatch_self_ms": ("ms", "lower"),
    "uni.codec_ms": ("ms", "lower"),
    "uni.line_bytes": ("bytes", "lower"),
    "uni.socket_ms": ("ms", "lower"),
    "descriptors.parse_ms": ("ms", "lower"),
    "descriptors.derive_ms": ("ms", "lower"),
    "cuc.instantiate_self_ms": ("ms", "lower"),
    "cuc.terminate_self_ms": ("ms", "lower"),
    "cuc.rejected": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_totals(span_dumps: list[dict]) -> dict[str, float]:
    """Per-layer figures summed over span dumps (one per traced process).
    Times are totals over the traced pass, in ms; figures a workload does
    not exercise are 0."""
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    out = defaultdict(float)
    pushes = talker_reads = talker_read_ports = 0
    for dump in span_dumps:
        pushes += dump["heap_pushes"]
        spans = {s[0]: s for s in dump["spans"]}
        child_ns = defaultdict(int)
        for s in spans.values():
            if s[4] in spans:
                child_ns[s[4]] += s[3] - s[2]
        for s in spans.values():
            sid, name, start, end, parent, _op, value, error = s
            parent_name = spans[parent][1] if parent in spans else None
            if name == CODEC and parent_name == CODEC:
                continue  # decode_routed's inner decode is inside its span already
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[sid]
            calls[name] += 1
            if name == CODEC and value is not None:
                out["uni.line_bytes"] += value
            elif name == "cnc.synth":
                out["cnc.synth_ports"] += value
                grandparent = spans[parent][4] if parent in spans else None
                if parent_name == "workspace.domain_gcls" and grandparent in spans:
                    if spans[grandparent][1] == "cuc.emit_configs":
                        talker_read_ports += value
            elif name == "workspace.domain_gcls" and parent_name == "cuc.emit_configs":
                talker_reads += 1  # Cuc reads one talker port's GCL per call
            elif name == "verifier.simulate":
                out["verifier.frames"] += value
            elif name == "workspace.save":
                out["workspace.state_bytes"] = max(out["workspace.state_bytes"], value)
            elif name == "cuc.instantiate" and error == "AdmissionFailedError":
                out["cuc.rejected"] += 1

    ms = lambda ns: ns / 1e6  # noqa: E731
    out["verifier.simulate_ms"] = ms(total_ns["verifier.simulate"])
    out["verifier.check_gcl_ms"] = ms(total_ns["verifier.check_gcl"])
    sim_s = total_ns["verifier.simulate"] / 1e9
    out["verifier.frames_per_s"] = out["verifier.frames"] / sim_s if sim_s else 0.0
    out["verifier.heap_pushes"] = pushes
    out["verifier.pushes_per_frame"] = pushes / out["verifier.frames"] if out["verifier.frames"] else 0.0
    out["cnc.admit_calls"] = calls["cnc.admit"]
    out["cnc.admit_ms"] = ms(total_ns["cnc.admit"])
    out["topology.route_ms"] = ms(total_ns["topology.route"])
    out["cnc.synth_calls"] = calls["cnc.synth"]
    out["cnc.synth_ms"] = ms(total_ns["cnc.synth"])
    out["cnc.synth_ports_per_talker_read"] = talker_read_ports / talker_reads if talker_reads else 0.0
    out["cnc.remove_ms"] = ms(total_ns["cnc.remove"])
    out["workspace.refresh_ms"] = ms(total_ns["workspace.refresh"])
    out["workspace.to_doc_ms"] = ms(total_ns["workspace.to_doc"])
    out["workspace.save_ms"] = ms(total_ns["workspace.save"])
    out["workspace.load_ms"] = ms(total_ns["workspace.load"])
    out["uni.dispatch_calls"] = calls["uni.dispatch"]
    out["uni.dispatch_self_ms"] = ms(self_ns["uni.dispatch"])
    out["uni.codec_ms"] = ms(total_ns[CODEC])
    out["descriptors.parse_ms"] = ms(total_ns["descriptors.parse"])
    out["descriptors.derive_ms"] = ms(total_ns["descriptors.derive"])
    out["cuc.instantiate_self_ms"] = ms(self_ns["cuc.instantiate"])
    out["cuc.terminate_self_ms"] = ms(self_ns["cuc.terminate"])
    return dict(out)
