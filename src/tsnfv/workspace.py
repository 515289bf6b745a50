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

`tsnfv serve` does not rewrite the file after each request. It appends
the request lines to the file's journal, `<state>.journal`, a redo log
bound to the bytes of the file it extends (see Journal), and a save is
the checkpoint that folds the journal into the file.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from pathlib import Path

from . import cnc
from .codec import Codec, dump_json, load_json
from .cuc import Cuc, NsInstance
from .errors import ParseError, TsnNfvError, ValidationError
from .topology import Topology, parse_topology
from .uni import AuditRecord, CncService, Dispatcher, decode_routed, reference_point

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
        """Checkpoint: write the state file atomically (a temporary file in
        the same directory, renamed over the old one, so a failed save
        leaves the previous state in place), then remove its journal,
        whose lines the file now holds. A state that loading would refuse
        for a gate control list overflowing its bridge is not written."""
        self.check_gcl_capacity()
        path = Path(path)
        tmp = path.with_name(f".{path.name}.tmp")
        try:
            tmp.write_bytes(dump_json(self.to_doc()) + b"\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        journal_path(path).unlink(missing_ok=True)

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
        """The state in the file, and then in its journal if the journal
        extends the file's bytes."""
        path = Path(path)
        data = path.read_bytes()
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            raise ParseError(f"state file is not UTF-8: {exc}") from None
        ws = cls.from_doc(load_json(text, "state file"))
        ws._replay(journal_path(path), data)
        return ws

    def _replay(self, journal: Path, state: bytes) -> None:
        """Dispatch the lines of a journal that extends the state-file bytes
        `state`, as the server did. A journal for other bytes is ignored,
        and so is a last line without its newline: an append cut short."""
        try:
            header, *lines = journal.read_bytes().split(b"\n")
        except FileNotFoundError:
            return
        if header + b"\n" != _journal_header(state):
            return
        for number, line in enumerate(lines[:-1], 2):
            try:
                domain_id, msg = decode_routed(line)
                self.dispatcher.dispatch(msg, domain_id)
            except TsnNfvError as exc:
                raise ParseError(f"{journal}, line {number}: {exc}") from None
        self.check_gcl_capacity()

    # -- inspection --------------------------------------------------------

    def snapshot_states(self) -> dict[str, dict]:
        """Deep snapshot of every controller, for baseline comparisons."""
        return {d: self.states[d].snapshot() for d in sorted(self.states)}


def journal_path(path: str | Path) -> Path:
    """The journal of a state file: `<state>.journal`, beside it."""
    path = Path(path)
    return path.with_name(f"{path.name}.journal")


def _journal_header(state: bytes) -> bytes:
    """The first line of a journal that extends the state-file bytes `state`."""
    import hashlib  # here, not at the top: loading it costs every command about 2 ms

    return dump_json({"state_sha256": hashlib.sha256(state).hexdigest()}) + b"\n"


class Journal:
    """Persists the requests a server answers by appending their lines to
    the journal of its state file, whose bytes must hold the workspace at
    the start (the constructor saves it when they may not).

    A query's line is kept in memory, and a mutation's line is appended
    with the lines kept since the last append, in one write, after the
    capacity check a save makes. A write that fails is cut back off the
    journal, and its lines are kept for the next append. The first append after a checkpoint
    starts the journal with a header bound to the state file's bytes.
    Once the journal is larger than the state file, the workspace is
    saved, which removes it: each checkpoint encodes the whole state, and
    comes after at least as many appended bytes as it writes."""

    def __init__(self, state_path: str | Path, ws: Workspace):
        self.state = Path(state_path)
        self.path = journal_path(self.state)
        self.ws = ws
        self.file = None  # open from the first append after a checkpoint
        self.lines: list[bytes] = []  # answered since the last append
        self.size = self.limit = 0  # bytes of the journal, and of the file it extends
        if self.path.exists() or not self.state.exists():
            ws.save(self.state)  # a loaded journal is in the workspace now

    def record(self, line: bytes, mutation: bool) -> None:
        """Keep the line of a dispatched request; after a mutation, append it."""
        self.lines.append(line if line.endswith(b"\n") else line + b"\n")
        if not mutation:
            return
        self.ws.check_gcl_capacity()
        if self.file is None:
            state = self.state.read_bytes()
            self.file = self.path.open("ab", buffering=0)  # each write lands at the end
            self.file.truncate(0)
            self.lines.insert(0, _journal_header(state))
            self.size, self.limit = 0, len(state)
        data = b"".join(self.lines)
        try:
            if self.file.write(data) != len(data):
                raise OSError(f"short write to {self.path}")
        except OSError:
            self.file.truncate(self.size)  # a later append must not follow a torn line
            raise
        self.lines.clear()
        self.size += len(data)
        if self.size > self.limit:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Save the workspace, with every line answered so far."""
        self.ws.save(self.state)
        self.lines.clear()
        self.close()

    def close(self) -> None:
        if self.file is not None:
            self.file.close()
            self.file = None


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
