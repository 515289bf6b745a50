"""Exception hierarchy shared by all tsnfv modules."""

from __future__ import annotations


class TsnNfvError(Exception):
    """Base class for every error raised by this package."""


class ParseError(TsnNfvError):
    """Input document is structurally unreadable (bad syntax, missing or
    mistyped fields, unknown keys)."""


class ValidationError(TsnNfvError):
    """Input document parsed but violates a semantic invariant."""


class NoPathError(TsnNfvError):
    """No route exists between the requested endpoints."""


class UnplacedMemberError(TsnNfvError):
    """A network-service member has no placement entry."""


class CapabilityError(TsnNfvError):
    """A station or bridge lacks a capability the stream requires."""

    def __init__(self, subject: str, missing: str):
        self.subject = subject
        self.missing = missing
        super().__init__(f"{subject} lacks required capability {missing}")


class HyperperiodOverflowError(TsnNfvError):
    """LCM of stream periods exceeds the supported schedule cycle cap."""


class InfeasibleError(TsnNfvError):
    """Stream admission failed. ``cause`` is one of ``exceeds_budget`` or
    ``no_free_window``."""

    def __init__(self, cause: str, detail: str = ""):
        self.cause = cause
        self.detail = detail
        super().__init__(f"{cause}: {detail}" if detail else cause)


class UnknownStreamError(TsnNfvError):
    """Stream id not present in the controller state."""


class GclOverflowError(TsnNfvError):
    """A synthesized gate control list needs more entries than the bridge
    supports."""

    def __init__(self, port_id: str, needed: int, limit: int):
        self.port_id = port_id
        self.needed = needed
        self.limit = limit
        super().__init__(f"port {port_id} needs {needed} GCL entries, bridge supports {limit}")


class DecodeError(TsnNfvError):
    """A wire message could not be decoded."""


class UnknownDomainError(TsnNfvError):
    """Request targeted a domain with no registered controller."""


class TransportError(TsnNfvError):
    """Controller transport failed (connection refused, broken stream)."""


class AdmissionFailedError(TsnNfvError):
    """NS instantiation aborted because one stream segment was rejected;
    compensation has already been performed. ``detail`` is the
    controller's explanation, such as the conflicting stream and port."""

    def __init__(self, stream_id: str, domain_id: str, cause: str, detail: str = ""):
        self.stream_id = stream_id
        self.domain_id = domain_id
        self.cause = cause
        self.detail = detail
        message = f"stream {stream_id} rejected by domain {domain_id}: {cause}"
        super().__init__(f"{message} ({detail})" if detail else message)


class UnknownInstanceError(TsnNfvError):
    """No NS instance with that id."""


class AlreadyTerminatedError(TsnNfvError):
    """Lifecycle operation on an instance that is not active."""


class UpdateFailedError(TsnNfvError):
    """NS update could not admit the new descriptor; original restored if
    possible."""

    def __init__(self, cause: str, restored: bool):
        self.cause = cause
        self.restored = restored
        super().__init__(f"update failed ({cause}); original restored: {restored}")


class SimConfigError(TsnNfvError):
    """Simulation configuration out of range."""
