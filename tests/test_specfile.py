"""Document schema: strict parsing, round trips, deterministic output."""

import json
import re

import pytest

from carpetdim.errors import SpecError
from carpetdim.sft import CarpetSpec
from carpetdim.specfile import (
    SCHEMA_VERSION,
    dump_document,
    load_system,
    parse_system,
    system_doc,
    write_document,
)


def exact(message):
    """A ``match`` pattern that accepts ``message`` and nothing else."""
    return "^" + re.escape(message) + "$"


def _with_slot(pair, slot, value):
    """A copy of ``pair`` with ``value`` in ``slot``."""
    pair = list(pair)
    pair[slot] = value
    return pair


def _int_slot_cases(field, labels, **rest):
    """One exact-message case per non-integer in each slot of the one
    pair that ``field`` gets, the document's other fields set by ``rest``."""
    return [
        pytest.param(
            lambda d, v=[_with_slot([0, 1], slot, bad)]: d.update({field: v, **rest}),
            exact(f"{labels[slot]} must be an integer"),
            id=f"{labels[slot].replace(' ', '-')}-{type(bad).__name__}",
        )
        for slot in (0, 1)
        for bad in (True, 0.5, "0")
    ]


def minimal_factor_doc():
    return {
        "schema": SCHEMA_VERSION,
        "kind": "factor_system",
        "symbols": ["a", "b"],
        "edges": [["a", "a"], ["a", "b"], ["b", "a"]],
        "letter_map": {"a": "x", "b": "x"},
    }


def minimal_carpet_doc():
    return {
        "schema": SCHEMA_VERSION,
        "kind": "carpet",
        "l": 3,
        "m": 2,
        "digits": [[0, 0], [1, 0], [0, 1]],
    }


class TestParseSystem:
    def test_factor_system_happy_path(self):
        fs = parse_system(minimal_factor_doc())
        assert fs.source.symbols == ("a", "b")
        assert fs.image_alphabet == ("x",)

    def test_carpet_happy_path(self):
        spec = parse_system(minimal_carpet_doc())
        assert isinstance(spec, CarpetSpec)
        assert spec.l == 3 and spec.m == 2
        assert spec.is_full_shift()

    def test_carpet_with_transitions(self):
        doc = minimal_carpet_doc()
        doc["digits"] = [[0, 0], [1, 1]]
        doc["transitions"] = [[0, 1], [1, 0]]
        spec = parse_system(doc)
        assert not spec.is_full_shift()
        assert spec.transitions == ((0, 1), (1, 0))

    def test_optional_name_and_comment(self):
        doc = minimal_factor_doc()
        doc["name"] = "demo"
        doc["comment"] = "a tiny system"
        parse_system(doc)  # accepted
        doc["comment"] = 7
        with pytest.raises(SpecError, match="comment"):
            parse_system(doc)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("schema"), "missing the 'schema'"),
            (lambda d: d.update(schema=2), "unsupported schema"),
            (lambda d: d.update(schema=True), "unsupported schema"),
            (lambda d: d.update(kind="mystery"), "'kind' must be"),
            (lambda d: d.update(extra=1), "unknown fields"),
            (lambda d: d.pop("symbols"), "missing 'symbols'"),
            (lambda d: d.update(symbols=[]), "nonempty list"),
            (lambda d: d.update(symbols=["a", 2]), "list of strings"),
            (lambda d: d.update(edges="ab"), "must be a list"),
            (lambda d: d.update(edges=[["a"]]), "pair of strings"),
            (lambda d: d.update(edges=[["a", "z"]]), "unknown symbol"),
            (lambda d: d.update(letter_map={"a": "x"}), "undefined on"),
            (lambda d: d.update(letter_map={"a": "x", "b": 1}), "letter_map"),
            *[
                pytest.param(
                    lambda d, e=_with_slot(["a", "b"], slot, bad): d.update(edges=[e]),
                    exact(f"edge {_with_slot(['a', 'b'], slot, bad)!r} must be a [source, target] pair of strings"),
                    id=f"edge-slot{slot}-{type(bad).__name__}",
                )
                for slot in (0, 1)
                for bad in (True, 0.5, 1)
            ],
            pytest.param(
                lambda d: d.update(edges=[["a", "b", "a"]]),
                exact("edge ['a', 'b', 'a'] must be a [source, target] pair of strings"),
                id="edge-three-elements",
            ),
            pytest.param(
                lambda d: d.update(edges=[("a", "b")]),
                exact("edge ('a', 'b') must be a [source, target] pair of strings"),
                id="edge-not-a-list",
            ),
        ],
    )
    def test_factor_document_rejections(self, mutate, message):
        doc = minimal_factor_doc()
        mutate(doc)
        with pytest.raises(SpecError, match=message):
            parse_system(doc)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("l"), "missing 'l'"),
            (lambda d: d.update(l="3"), "must be an integer"),
            (lambda d: d.update(l=True), "must be an integer"),
            (lambda d: d.update(digits=[]), "nonempty"),
            (lambda d: d.update(digits=[[0]]), r"\[a, b\] pair"),
            (lambda d: d.update(digits=[[0, 0.5]]), "must be an integer"),
            (lambda d: d.update(digits=[[9, 0]]), "outside"),
            (lambda d: d.update(transitions=3), "'transitions' must be"),
            (lambda d: d.update(transitions=[[0, 1, 2]]), "index pair"),
            (lambda d: d.update(letter_map={}), "unknown fields"),
            *_int_slot_cases("digits", ("digit column", "digit row")),
            *_int_slot_cases("transitions", ("transition source", "transition target"), digits=[[0, 0], [1, 1]]),
            pytest.param(
                lambda d: d.update(digits=[[0, 0], [0, 1, 1]]),
                exact("digit [0, 1, 1] must be an [a, b] pair"),
                id="digit-three-elements",
            ),
            pytest.param(
                lambda d: d.update(digits=[(0, 0)]),
                exact("digit (0, 0) must be an [a, b] pair"),
                id="digit-not-a-list",
            ),
            pytest.param(
                lambda d: d.update(transitions=[[0, 1], [0, 1, 2]]),
                exact("transition [0, 1, 2] must be an [i, j] index pair"),
                id="transition-three-elements",
            ),
            pytest.param(
                lambda d: d.update(transitions=["01"]),
                exact("transition '01' must be an [i, j] index pair"),
                id="transition-not-a-list",
            ),
            pytest.param(
                lambda d: d.update(extra=1, kind="carpet"),
                exact("unknown fields ['extra'] for kind 'carpet'"),
                id="unknown-field",
            ),
        ],
    )
    def test_carpet_document_rejections(self, mutate, message):
        doc = minimal_carpet_doc()
        mutate(doc)
        with pytest.raises(SpecError, match=message):
            parse_system(doc)

    def test_pairs_accept_int_and_list_subclasses(self):
        class Index(int):
            pass

        class Pair(list):
            pass

        doc = minimal_carpet_doc()
        doc["digits"] = [Pair([Index(0), 0]), [1, Index(1)]]
        doc["transitions"] = [Pair([0, 1]), [Index(1), Index(0)]]
        spec = parse_system(doc)
        assert spec.digits == ((0, 0), (1, 1))
        assert spec.transitions == ((0, 1), (1, 0))

    def test_rejects_non_object(self):
        with pytest.raises(SpecError, match="JSON object"):
            parse_system([1, 2, 3])


class TestRoundTrips:
    def test_factor_system_round_trip(self, parity):
        doc = system_doc(parity, name="parity", comment="demo")
        again = parse_system(json.loads(dump_document(doc)))
        assert again == parity

    def test_carpet_round_trip(self, carpet_21):
        doc = system_doc(carpet_21, name="carpet")
        again = parse_system(json.loads(dump_document(doc)))
        assert again == carpet_21

    def test_restricted_carpet_round_trip(self):
        spec = CarpetSpec(4, 2, ((0, 0), (1, 1), (3, 0)), transitions=((0, 1), (1, 2), (2, 0)))
        again = parse_system(json.loads(dump_document(system_doc(spec))))
        assert again == spec

    def test_document_edges_are_sorted(self, fibonacci):
        doc = system_doc(fibonacci)
        assert doc["edges"] == sorted(doc["edges"])


class TestSerialization:
    def test_dump_is_deterministic_and_sorted(self):
        doc = {"b": 1, "a": {"z": 2, "y": 3}}
        text = dump_document(doc)
        assert text == dump_document(dict(reversed(list(doc.items()))))
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_dump_rejects_nan(self):
        with pytest.raises(ValueError):
            dump_document({"x": float("nan")})

    def test_write_and_load_round_trip(self, tmp_path, bipartite):
        path = tmp_path / "system.json"
        write_document(system_doc(bipartite), path)
        assert load_system(path) == bipartite

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_system(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "content",
        [
            b"{not json",
            b"\xff\xfe\x00x",  # not UTF-8
            b"[" * 200_000,  # nested past the decoder's recursion limit
            b'{"schema": 1, "kind": "carpet", "l": ' + b"9" * 5_000 + b', "m": 2, "digits": [[0, 0]]}',
        ],
        ids=["truncated", "not-utf8", "deep-nesting", "huge-integer"],
    )
    def test_load_invalid_json(self, tmp_path, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(SpecError, match="not valid JSON"):
            load_system(path)
