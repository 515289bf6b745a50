"""The dataclass codec: the document is the field list, and decoding is
strict about keys and JSON types."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

import scenarios as sc
from tsnfv.codec import Codec
from tsnfv.descriptors import Nsd
from tsnfv.errors import ParseError, ValidationError
from tsnfv.model import EndpointRef


@dataclass(frozen=True)
class _Inner(Codec):
    flag: bool
    note: str | None = None


@dataclass(frozen=True)
class _Outer(Codec):
    name: str
    pair: tuple[int, int]
    items: tuple[_Inner, ...]
    by_key: dict[str, list[int]]
    count: int = 0


def _outer() -> _Outer:
    return _Outer("o", (1, 2), (_Inner(True), _Inner(False, "n")), {"k": [3]})


def test_document_is_the_field_list():
    doc = _outer().to_doc()
    assert doc == {
        "name": "o",
        "pair": [1, 2],
        "items": [{"flag": True}, {"flag": False, "note": "n"}],
        "by_key": {"k": [3]},
        "count": 0,
    }
    assert _Outer.from_doc(doc) == _outer()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(extra=1), "root: unknown keys ['extra']"),
        (lambda d: d.pop("name"), "root: missing keys ['name']"),
        (lambda d: d.update(count=None), "root.count: expected an integer, got null"),
        (lambda d: d.update(count=True), "root.count: expected an integer, got a boolean"),
        (lambda d: d.update(count=1.0), "root.count: expected an integer, got a number"),
        (lambda d: d.update(pair=[1, 2, 3]), "root.pair: expected 2 items, got 3"),
        (lambda d: d["items"][1].update(flag=1), "root.items[1].flag: expected a boolean, got an integer"),
        (lambda d: d["by_key"].update(k=["3"]), "root.by_key.k[0]: expected an integer, got a string"),
        (lambda d: d.update(items={}), "root.items: expected a list, got an object"),
    ],
)
def test_strict_decoding_names_the_key_path(edit, message):
    doc = _outer().to_doc()
    edit(doc)
    with pytest.raises(ParseError) as info:
        _Outer.from_doc(doc, "root")
    assert str(info.value) == message


def test_defaults_make_keys_optional():
    doc = _outer().to_doc()
    del doc["count"]
    assert _Outer.from_doc(doc).count == 0


def test_top_level_must_be_an_object():
    with pytest.raises(ParseError, match="^expected an object, got a list$"):
        EndpointRef.from_doc([])


def test_nested_overrides_are_honoured():
    doc = sc.nsd("n", [sc.vnf("m1"), sc.vnf("m2")], [sc.vl("vl1", "m1", "m2", 100, 7, sc.traffic())])
    doc["virtual_links"].append(
        {
            "vl_id": "plain",
            "endpoints": [{"member_id": "m1", "cp_id": "cp0"}, {"member_id": "m2", "cp_id": "cp0"}],
        }
    )
    nsd = Nsd.from_doc(doc)
    assert nsd.to_doc()["virtual_links"][1]["tsn"] is None  # VirtualLink.to_doc
    doc["vnfds"][0]["required_capabilities"] = dict(sc.CAPS, warp_drive=True)
    with pytest.raises(ValidationError):  # CapabilitySet.from_doc
        Nsd.from_doc(doc)
