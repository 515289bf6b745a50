"""File-backed workspace: wires orchestrator, controllers, and persistence.

One workspace holds the loaded topology, one in-process controller per
domain, the orchestrator with its instances, and the UNI audit log. It
round-trips losslessly through a canonical JSON state file, so repeated
runs over the same inputs produce byte-identical state. The file holds
inputs and decisions only: the topology, the controllers' records, the
audit log, the counters, and each instance's descriptors, schedules and
status. Gate control lists, streams and station configs are derived from
them when read; mutations keep only each port's gate entry count.

A save writes the bytes of `to_doc()` encoded as sorted, compact JSON,
but encodes only the parts that changed since the previous save (see
_StateText), so that `tsnfv serve` can save after every mutation.
"""

from __future__ import annotations

import copy
import operator
import os
from dataclasses import dataclass
from pathlib import Path

from . import cnc
from .codec import Codec, dump_json, load_json
from .cuc import ChainLink, Cuc, NsInstance
from .errors import ParseError, ValidationError
from .topology import Topology, parse_topology
from .uni import AuditRecord, CncService, Dispatcher

STATE_VERSION = 2


@dataclass(frozen=True)
class _Counters(Codec):
    request_seq: int
    instance_seq: int


@dataclass(frozen=True)
class _StateDoc(Codec):
    """The state file. The topology and the controller snapshots stay
    documents here: a snapshot can be decoded only against a built
    topology."""

    version: int
    topology: dict
    cnc: dict[str, dict]
    instances: dict[str, NsInstance]
    audit: tuple[AuditRecord, ...]
    counters: _Counters


class Workspace:
    def __init__(self, topology: Topology, states: dict[str, cnc.CncState] | None = None):
        """A workspace with one controller per domain: the given state, or
        an empty one."""
        self.topology = topology
        given = states or {}
        self.states = {
            d: given[d] if d in given else cnc.CncState(domain_id=d, topology=topology)
            for d in topology.domains
        }
        self.dispatcher = Dispatcher(
            topology, {domain_id: CncService(state) for domain_id, state in self.states.items()}
        )
        self.cuc = Cuc(topology, self.dispatcher, gcl_provider=self._domain_gcls)
        self._saved = _StateText()

    def _domain_gcls(self, domain_id: str, ports=None):
        return cnc.synthesize_gcls(self.states[domain_id], ports)

    # -- lifecycle pass-throughs ------------------------------------------

    def instantiate(self, nsd, placement) -> NsInstance:
        return self.cuc.instantiate_ns(nsd, placement)

    def terminate(self, instance_id: str) -> NsInstance:
        return self.cuc.terminate_ns(instance_id)

    def update(self, instance_id: str, nsd, placement) -> NsInstance:
        return self.cuc.update_ns(instance_id, nsd, placement)

    # -- gate control lists ------------------------------------------------

    @property
    def gcl_docs(self) -> dict[str, dict]:
        """port -> document of its gate control list, built on each read."""
        return self.refresh_gcls()

    def refresh_gcls(self) -> dict[str, dict]:
        """Build every domain's gate control lists: documents by port."""
        by_domain = (self._domain_gcls(domain_id) for domain_id in sorted(self.states))
        return {port: gcl.to_doc() for gcls in by_domain for port, gcl in gcls.items()}

    def check_gcl_capacity(self) -> None:
        """Raise GclOverflowError at a bridge port counting too many entries."""
        for domain_id in sorted(self.states):
            cnc.check_gcl_capacity(self.states[domain_id])

    # -- persistence -------------------------------------------------------

    def to_doc(self) -> dict:
        """The state file's document; save writes it as sorted, compact JSON."""
        return _StateDoc(
            version=STATE_VERSION,
            topology=self.topology.to_doc(),
            cnc=self.snapshot_states(),
            instances=self.cuc.instances,
            audit=tuple(self.dispatcher.audit_log),
            counters=_Counters(self.cuc.request_seq, self.cuc.instance_seq),
        ).to_doc()

    def save(self, path: str | Path) -> None:
        """Write the state file atomically: a temporary file in the same
        directory, renamed over the old one, so a failed save leaves the
        previous state in place. A state that loading would refuse for a
        gate control list overflowing its bridge is not written."""
        self.check_gcl_capacity()
        path = Path(path)
        parts = self._saved.encode(self)
        tmp = path.with_name(f".{path.name}.tmp")
        try:
            with tmp.open("wb") as out:
                out.writelines(parts)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def from_doc(cls, doc: dict) -> Workspace:
        version = doc.get("version") if isinstance(doc, dict) else None
        if version == 1:
            doc = _from_v1(doc)
        elif version != STATE_VERSION:
            raise ParseError(f"not a version 1 or {STATE_VERSION} state file (version {version!r})")
        state = _StateDoc.from_doc(doc)
        topology = parse_topology(state.topology)
        states = {}
        for domain_id, snap in state.cnc.items():
            if domain_id not in topology.domains:
                raise ParseError(f"state names unknown domain {domain_id}")
            states[domain_id] = restored = cnc.CncState.from_doc(snap, topology, ("cnc", domain_id))
            if restored.domain_id != domain_id:
                raise ValidationError(f"the controller state of domain {domain_id} is for {restored.domain_id}")
        ws = cls(topology, states)
        ws.check_gcl_capacity()
        ws.cuc.restore(state.instances)
        _adopt_schedules(state.instances, states)
        ws.dispatcher.audit_log = list(state.audit)
        ws.cuc.request_seq = state.counters.request_seq
        ws.cuc.instance_seq = state.counters.instance_seq
        return ws

    @classmethod
    def load(cls, path: str | Path) -> Workspace:
        return cls.from_doc(load_json(Path(path).read_text(), "state file"))

    # -- inspection --------------------------------------------------------

    def snapshot_states(self) -> dict[str, dict]:
        """Deep snapshot of every controller, for baseline comparisons."""
        return {d: self.states[d].snapshot() for d in sorted(self.states)}


def _adopt_schedules(instances: dict[str, NsInstance], states: dict[str, cnc.CncState]) -> None:
    """Refuse an active instance's chain link that is not its controller's
    record, as configs from the links must agree with GCLs from the records;
    each link then holds the record's schedule, as after an instantiation."""
    for iid, instance in instances.items():
        if instance.status != "active":
            continue
        for sid, chain in instance.schedules.items():
            for i, (domain_id, schedule) in enumerate(chain):
                entry = states[domain_id].admitted.get(sid) if domain_id in states else None
                if entry is None or entry.schedule != schedule:
                    raise ValidationError(
                        f"instances.{iid}.schedules.{sid}: the schedule in domain {domain_id} "
                        "is not its controller's record"
                    )
                chain[i] = ChainLink(domain_id, entry.schedule)


class _StateText:
    """The JSON text of the state's parts at the last save, so that a save
    encodes only what changed since. A part's text is reused while the
    objects it was encoded from are the same ones:

    - the topology, which a workspace never changes;
    - each admitted stream, while its (frozen) record is;
    - each instance, while its id, descriptors, status and schedule chains are;
    - the audit log, which only grows: the text of the records already
      encoded is kept while the log is the same list, at least as long,
      with the same record at the old end, and the new records are appended
      to it in place.

    Texts of parts that have gone are dropped at the next save. The file is
    written from the parts as they are, without joining them into one
    string: a fresh copy of a long audit log costs more than encoding what
    changed. The bytes are those of dump_json(to_doc()) and a newline."""

    def __init__(self):
        self.topology: tuple[Topology, bytes] | None = None
        self.streams: dict[tuple[str, str], tuple[cnc._AdmittedStream, bytes]] = {}
        self.instances: dict[str, tuple[list, bytes]] = {}
        # the log, its length and last record when encoded, and their JSON list
        self.audit: tuple[list | None, int, AuditRecord | None, bytearray] = (None, 0, None, bytearray())

    def encode(self, ws: Workspace) -> list[bytes]:
        """The bytes of the state file, in parts."""
        counters = _Counters(ws.cuc.request_seq, ws.cuc.instance_seq)
        shell = _StateDoc(STATE_VERSION, {}, {}, {}, (), counters).to_doc()
        streams = {}
        controllers = {d: self._controller(ws.states[d], streams) for d in ws.states}
        self.streams = streams
        self.instances = {iid: self._instance(iid, i) for iid, i in ws.cuc.instances.items()}
        texts = {
            "topology": self._topology(ws.topology),
            "cnc": b"".join(_object({}, controllers)),
            "instances": b"".join(_object({}, {iid: text for iid, (_, text) in self.instances.items()})),
            "audit": self._audit(ws.dispatcher.audit_log),
        }
        return [*_object(shell, texts), b"\n"]

    def _topology(self, topology: Topology) -> bytes:
        if self.topology is None or self.topology[0] is not topology:
            self.topology = (topology, dump_json(topology.to_doc()))
        return self.topology[1]

    def _controller(self, state: cnc.CncState, streams: dict) -> bytes:
        texts = []
        for sid, entry in state.admitted.items():
            kept = self.streams.get((state.domain_id, sid))
            if kept is None or kept[0] is not entry:
                kept = (entry, dump_json(entry.to_doc()))
            streams[state.domain_id, sid] = kept
            texts.append(kept[1])
        shell = cnc._Snapshot(state.domain_id, state.hyperperiod_ns, ()).to_doc()
        return b"".join(_object(shell, {"streams": b"".join((b"[", b",".join(texts), b"]"))}))

    def _instance(self, iid: str, instance: NsInstance) -> tuple[list, bytes]:
        parts = [instance.instance_id, instance.nsd, instance.placement, instance.status]
        for sid, chain in instance.schedules.items():
            parts += (sid, chain, *chain)
        kept = self.instances.get(iid)
        if kept is not None and len(kept[0]) == len(parts) and all(map(operator.is_, kept[0], parts)):
            return kept
        return parts, dump_json(instance.to_doc())

    def _audit(self, log: list[AuditRecord]) -> bytearray:
        kept_log, count, last, text = self.audit
        if not (log is kept_log and len(log) >= count and (count == 0 or log[count - 1] is last)):
            count, text = 0, bytearray(b"[]")
        if len(log) > count:
            new = dump_json([record.to_doc() for record in log[count:]])
            del text[-1]  # the closing bracket
            text += b"," + new[1:] if count else new[1:]
        self.audit = (log, len(log), log[-1] if log else None, text)
        return text


def _object(doc: dict, texts: dict[str, bytes]) -> list[bytes]:
    """The compact JSON of doc with sorted keys, in parts, where the
    members in texts are given as JSON already and take the place of doc's."""
    members = {key: dump_json(value) for key, value in doc.items() if key not in texts}
    members.update(texts)
    parts = [b"{"]
    for key in sorted(members):
        parts += (b"," if len(parts) > 1 else b"", dump_json(key), b":", members[key])
    parts.append(b"}")
    return parts


def _from_v1(doc: dict) -> dict:
    """A version 1 state document as version 2: the stored copies of
    derived data (the GCL documents, each instance's streams and configs,
    each schedule's cycle) are dropped, and the strict decoder checks what
    is left, whatever its shape."""
    doc = copy.deepcopy(doc)
    doc.pop("gcls", None)
    doc["version"] = STATE_VERSION
    schedules = [
        _get(entry, "schedule")
        for domain in _members(doc.get("cnc"))
        for entry in _members(_get(domain, "streams"))
    ]
    for instance in _members(doc.get("instances")):
        if isinstance(instance, dict):
            instance.pop("streams", None)
            instance.pop("configs", None)
        schedules += [
            _get(link, "schedule")
            for chain in _members(_get(instance, "schedules"))
            for link in _members(chain)
        ]
    for schedule in schedules:
        if isinstance(schedule, dict):
            schedule.pop("cycle_ns", None)
    return doc


def _members(value) -> list:
    """The members of a JSON object or list; none of anything else."""
    if isinstance(value, dict):
        return list(value.values())
    return value if isinstance(value, list) else []


def _get(value, key: str):
    return value.get(key) if isinstance(value, dict) else None
