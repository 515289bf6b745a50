"""File-backed workspace: wires orchestrator, controllers, and persistence.

One workspace holds the loaded topology, one in-process controller per
domain, the orchestrator with its instances, and the UNI audit log. It
round-trips losslessly through a canonical JSON state file, so repeated
runs over the same inputs produce byte-identical state. The file holds
inputs and decisions, each once: the topology, the controllers' records,
the audit log, the counters, and each instance's descriptors, status and
chains; an active chain names only its domains, an audit record its
request and domain. Gate lists, streams, station configs and reference
points are derived when read; mutations keep entry counts.

A save writes the bytes of `to_doc()` encoded as sorted, compact JSON,
but encodes only the parts that changed since the previous save, so that
`tsnfv serve` can save after every mutation. The topology, the admitted
streams and the instances are immutable records, so one rule decides
what is encoded again: a record's text is reused while it is the same
object (see _StateText).
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from pathlib import Path

from . import cnc
from .codec import Codec, dump_json, load_json
from .cuc import Cuc, NsInstance
from .errors import ParseError, ValidationError
from .topology import Topology, parse_topology
from .uni import AuditRecord, CncService, Dispatcher, reference_point

STATE_VERSION = 4


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
        self.dispatcher = Dispatcher({domain_id: CncService(state) for domain_id, state in self.states.items()})
        self.cuc = Cuc(topology, self.dispatcher, self._domain_gcls, {d: s.admitted for d, s in self.states.items()})
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
        if type(version) is not int or not 1 <= version <= STATE_VERSION:
            raise ParseError(f"not a version 1, 2, 3 or {STATE_VERSION} state file (version {version!r})")
        labels = []  # the reference points of an older file's audit records
        if version < STATE_VERSION:
            doc = copy.deepcopy(doc)
            if version == 1:
                _drop_v1_copies(doc)
            labels = [_pop(record, "reference_point") for record in _members(doc.get("audit"))]
        state = _StateDoc.from_doc(doc)
        topology = parse_topology(state.topology)
        for i, record in enumerate(state.audit):
            if record.domain_id not in topology.domains:
                raise ValidationError(f"audit[{i}].domain_id: no domain {record.domain_id} in the topology")
            if labels and labels[i] != (expected := reference_point(topology, record.domain_id)):
                where = f"audit[{i}].reference_point"
                raise ValidationError(f"{where}: expected {expected} for domain {record.domain_id}, got {labels[i]!r}")
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


class _StateText:
    """The JSON text of the state's parts at the last save, so that a save
    encodes only what changed since. The topology, each admitted stream
    and each instance are immutable records, and one rule covers them all:
    a record's text is reused while it is the same object. The audit log
    only grows: the text of the records already encoded is kept while the
    log is the same list, at least as long, with the same record at the
    old end, and the new records are appended to it in place, as joining
    the texts of a long log afresh costs more than encoding what changed.

    Texts of records that have gone are dropped at the next save. The file
    is written from the parts as they are, without joining them into one
    string. The bytes are those of dump_json(to_doc()) and a newline."""

    def __init__(self):
        # id of a record -> the record and its text; holding the record
        # keeps its id from being reused while the entry is kept
        self.texts: dict[int, tuple[object, bytes]] = {}
        # the log, its length and last record when encoded, and their JSON list
        self.audit: tuple[list | None, int, AuditRecord | None, bytearray] = (None, 0, None, bytearray())

    def encode(self, ws: Workspace) -> list[bytes]:
        """The bytes of the state file, in parts."""
        kept, self.texts = self.texts, {}

        def text(record) -> bytes:
            entry = kept.get(id(record)) or (record, dump_json(record.to_doc()))
            self.texts[id(record)] = entry
            return entry[1]

        controllers = {}
        for domain_id, state in ws.states.items():
            shell = cnc._Snapshot(state.domain_id, state.hyperperiod_ns, ()).to_doc()
            streams = b",".join(map(text, state.admitted.values()))
            controllers[domain_id] = b"".join(_object(shell, {"streams": b"[%s]" % streams}))
        counters = _Counters(ws.cuc.request_seq, ws.cuc.instance_seq)
        shell = _StateDoc(STATE_VERSION, {}, {}, {}, (), counters).to_doc()
        texts = {
            "topology": text(ws.topology),
            "cnc": b"".join(_object({}, controllers)),
            "instances": b"".join(_object({}, {iid: text(i) for iid, i in ws.cuc.instances.items()})),
            "audit": self._audit(ws.dispatcher.audit_log),
        }
        return [*_object(shell, texts), b"\n"]

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


def _drop_v1_copies(doc: dict) -> None:
    """Make a version 1 state document one of version 2: the stored copies
    of derived data (the GCL documents, each instance's streams and configs,
    each schedule's cycle) are dropped, and the strict decoder checks what
    is left, whatever its shape."""
    doc.pop("gcls", None)
    schedules = [
        _get(entry, "schedule")
        for domain in _members(doc.get("cnc"))
        for entry in _members(_get(domain, "streams"))
    ]
    for instance in _members(doc.get("instances")):
        _pop(instance, "streams")
        _pop(instance, "configs")
        schedules += [
            _get(link, "schedule")
            for chain in _members(_get(instance, "schedules"))
            for link in _members(chain)
        ]
    for schedule in schedules:
        _pop(schedule, "cycle_ns")


def _members(value) -> list:
    """The members of a JSON object or list; none of anything else."""
    if isinstance(value, dict):
        return list(value.values())
    return value if isinstance(value, list) else []


def _get(value, key: str):
    return value.get(key) if isinstance(value, dict) else None


def _pop(value, key: str):
    return value.pop(key, None) if isinstance(value, dict) else None
