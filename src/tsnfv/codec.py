"""One strict codec between the package's records and their JSON
documents, and the one canonical way of writing JSON as bytes.

A dataclass that derives from Codec gets to_doc() and from_doc() from its
fields. to_doc() maps each field to the key of the same name, leaves out
an optional field (hint ``X | None``) that holds None, and writes tuples
as lists. from_doc() decodes by the resolved type hints and is strict: an
unknown key, a missing key for a field without a default, or a value of
the wrong JSON type raises ParseError naming the key path, for example
``nsd.virtual_links[0].tsn.traffic_fwd.period_ns``. Semantic rules stay
in each class's __post_init__ and raise ValidationError.

The hints a field may use are int, str, bool, dict (any object),
``X | None``, ``tuple[X, ...]``, fixed ``tuple[X, Y]``, ``list[X]``,
``dict[str, X]``, a ``typing.NamedTuple`` record, and any class with
to_doc()/from_doc(). A named tuple's document is its field list, as a
dataclass's is, so a record can stay a tuple in memory. A class whose
document is not its field list overrides to_doc()/from_doc() and reshapes
around the derived ones.
"""

from __future__ import annotations

import functools
import inspect
import json
import operator
import types
import typing

from .errors import ParseError

_JSON_TYPES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    bool: "a boolean",
    float: "a number",
    type(None): "null",
}
# hints whose values are JSON as they are
_PLAIN = (int, str, bool, dict)


def dump_json(doc) -> bytes:
    """The canonical encoding of a document: sorted keys, no spaces. A UNI
    line and each part of the state file are written this way."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None


def _spelled(path) -> str:
    if not isinstance(path, tuple):
        return path
    parent, key = _spelled(path[0]), path[1]
    if isinstance(key, int):
        return f"{parent}[{key}]"
    return f"{parent}.{key}" if parent else key


def parse_error(path, problem: str) -> ParseError:
    """ParseError naming the path of the bad value. A path is a string, or
    a (path, key) pair for a member of the value at path; it is spelled
    out only here, as ``path.key`` for an object key and ``path[i]`` for
    a list item."""
    path = _spelled(path)
    return ParseError(f"{path}: {problem}" if path else problem)


def expect(json_type: type, value, path):
    """The value itself when its JSON type is json_type. bool is not an
    integer here, and an integer is not a bool."""
    if type(value) is not json_type:
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise parse_error(path, f"expected {_JSON_TYPES[json_type]}, got {got}")
    return value


class Codec:
    """Mixin for dataclasses whose document is their field list."""

    def to_doc(self) -> dict:
        return _compiled(type(self)).to_doc(self)

    @classmethod
    def from_doc(cls, doc, path=""):
        return _compiled(cls).from_doc(doc, path)


class _Methods(typing.NamedTuple):
    to_doc: typing.Callable  # (obj) -> doc
    from_doc: typing.Callable  # (doc, path) -> obj


@functools.cache
def _compiled(cls: type) -> _Methods:
    """to_doc and from_doc of one dataclass or named tuple, built once from
    its fields: name -> whether the constructor has a default for it."""
    hints = typing.get_type_hints(cls)
    fields = {p.name: p.default is not p.empty for p in inspect.signature(cls).parameters.values()}
    return _Methods(_to_doc_function(fields, hints), _from_doc_function(cls, fields, hints))


def _to_doc_function(fields: dict[str, bool], hints: dict):
    """Generated code, the way dataclasses generates __init__: a dict
    literal runs as fast as a hand-written to_doc, and every UNI exchange,
    state save and schedule refresh calls one per object."""
    env = {}
    items = []  # "key: value" of the keys always written
    optional = []  # statements writing an optional key that holds a value
    for name in fields:
        inner = _optional(hints[name])
        value = f"self.{name}"
        encode = _encoder(hints[name])
        if encode is not None:
            env[f"encode_{name}"] = encode
            value = f"encode_{name}({value})"
        if inner is None:
            items.append(f"{name!r}: {value}")
        else:
            optional.append(f"    if self.{name} is not None:\n        doc[{name!r}] = {value}\n")
    source = f"def to_doc(self):\n    doc = {{{', '.join(items)}}}\n{''.join(optional)}    return doc\n"
    exec(source, env)
    return env["to_doc"]


def _from_doc_function(cls: type, fields: dict[str, bool], hints: dict):
    """A closure over the field table, with the checks in C where they
    can be: one comparison of the key set, one of the types of the plain
    values. The constructor then takes the document itself, with nested
    values replaced by their decoded objects. Paths are (path, key) pairs,
    spelled out only for an error message."""
    plain = []  # (key, JSON type, admits None) of the required plain keys
    nested = []  # (key, decoder) of the other required keys
    defaulted = {}  # key -> decoder of the keys that may be left out
    for name, has_default in fields.items():
        inner = _optional(hints[name])
        hint = hints[name] if inner is None else inner
        if has_default:
            defaulted[name] = decoder(hints[name])
        elif hint in _PLAIN:
            plain.append((name, hint, inner is not None))
        else:
            nested.append((name, decoder(hints[name])))
    names = frozenset(fields)
    required = names - defaulted.keys()
    plain_names = [name for name, _, _ in plain]
    plain_types = tuple(json_type for _, json_type, _ in plain)

    def from_doc(doc, path):
        if type(doc) is not dict or not (
            doc.keys() == names or (doc.keys() <= names and required <= doc.keys())
        ):
            _check_keys(doc, path, names, required)
        if tuple(map(type, map(doc.__getitem__, plain_names))) != plain_types:
            _check_plain(doc, path, plain)
        if nested or not doc.keys() <= required:
            doc = dict(doc)
            for name, decode in nested:
                doc[name] = decode(doc[name], (path, name))
            for name in defaulted.keys() & doc.keys():
                doc[name] = defaulted[name](doc[name], (path, name))
        return cls(**doc)

    return from_doc


def _check_keys(doc, path, names: frozenset, required: frozenset) -> None:
    expect(dict, doc, path)
    unknown = doc.keys() - names
    if unknown:
        raise parse_error(path, f"unknown keys {sorted(unknown)}")
    raise parse_error(path, f"missing keys {sorted(required - doc.keys())}")


def _check_plain(doc: dict, path, plain: list) -> None:
    """Raises for the first plain value of a wrong type; None is the one
    value a key that admits None may hold besides its type."""
    for name, json_type, nullable in plain:
        if not (nullable and doc[name] is None):
            expect(json_type, doc[name], (path, name))


def _optional(hint) -> object | None:
    """X for a hint ``X | None``, else None."""
    if typing.get_origin(hint) in (types.UnionType, typing.Union):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if len(args) == 1:
            return args[0]
    return None


def _derived(hint, method: str) -> bool:
    """Whether the hint is a named tuple or a Codec class keeping the
    derived method, so that its compiled function can be called directly,
    saving a dispatch per nested object."""
    if isinstance(hint, type) and issubclass(hint, tuple) and hasattr(hint, "_fields"):
        return True
    if not (isinstance(hint, type) and issubclass(hint, Codec)):
        return False
    own, derived = getattr(hint, method), getattr(Codec, method)
    return getattr(own, "__func__", own) is getattr(derived, "__func__", derived)


def _encoder(hint):
    """Function writing a value of the hint as JSON; None where the value
    is JSON already."""
    inner = _optional(hint)
    if inner is not None:
        return _encoder(inner)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (tuple, list) and (origin is list or args[-1] is Ellipsis):
        item = _encoder(args[0])
        if item is None:
            return list
        return lambda value: [item(x) for x in value]
    if origin is tuple:
        items = [_encoder(a) for a in args]
        return lambda value: [x if e is None else e(x) for e, x in zip(items, value)]
    if origin is dict:
        item = _encoder(args[1])
        if item is None:
            return dict
        return lambda value: {k: item(x) for k, x in value.items()}
    if _derived(hint, "to_doc"):
        return _compiled(hint).to_doc
    if hasattr(hint, "to_doc"):
        return operator.methodcaller("to_doc")
    return None


def decoder(hint):
    """Function ``(value, path) -> object`` reading a JSON value strictly
    as the hint."""
    inner = _optional(hint)
    if inner is not None:
        decode_inner = decoder(inner)
        return lambda value, path: None if value is None else decode_inner(value, path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (tuple, list) and (origin is list or args[-1] is Ellipsis):
        item = decoder(args[0])

        def decode_sequence(value, path):
            expect(list, value, path)
            items = [item(x, (path, i)) for i, x in enumerate(value)]
            return items if origin is list else tuple(items)

        return decode_sequence
    if origin is tuple:
        items = [decoder(a) for a in args]

        def decode_fixed(value, path):
            expect(list, value, path)
            if len(value) != len(items):
                raise parse_error(path, f"expected {len(items)} items, got {len(value)}")
            return tuple([d(x, (path, i)) for i, (d, x) in enumerate(zip(items, value))])

        return decode_fixed
    if origin is dict:
        item = decoder(args[1])

        def decode_map(value, path):
            expect(dict, value, path)
            return {k: item(x, (path, k)) for k, x in value.items()}

        return decode_map
    if _derived(hint, "from_doc"):
        return _compiled(hint).from_doc
    if hasattr(hint, "from_doc"):
        return hint.from_doc
    if hint in _PLAIN:
        return functools.partial(expect, hint)
    raise TypeError(f"no JSON form for {hint!r}")
