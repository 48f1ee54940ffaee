"""Versioned JSON documents describing systems, plus report serialization.

One schema covers both input kinds: a ``factor_system`` document gives
the source shift as an explicit edge list with a letter map, a
``carpet`` document gives torus parameters and selected digits.
Unknown fields are rejected rather than ignored so that a typo in a
fixture cannot silently change an experiment.  Reports use the same
deterministic serialization (sorted keys, two-space indent, no NaN).
"""

from __future__ import annotations

import json
from typing import Optional, Union

from .errors import SpecError
from .sft import CarpetSpec, FactorSystem, Sft

__all__ = [
    "SCHEMA_VERSION",
    "parse_system",
    "load_system",
    "system_doc",
    "dump_document",
    "write_document",
]

SCHEMA_VERSION = 1

_COMMON_FIELDS = {"schema", "kind", "name", "comment"}
_FACTOR_FIELDS = _COMMON_FIELDS | {"symbols", "edges", "letter_map"}
_CARPET_FIELDS = _COMMON_FIELDS | {"l", "m", "digits", "transitions"}


def _require(condition: bool, message: str):
    if not condition:
        raise SpecError(message)


# Messages that quote their input are formatted only once a check has
# failed, so a valid document costs no formatting: a spec is read on
# every call, and a restricted carpet lists dozens of pairs.
def _check_int(value, label: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{label} must be an integer")
    return value


def _check_str(value, label: str) -> str:
    if not isinstance(value, str):
        raise SpecError(f"{label} must be a string")
    return value


def _int_pair(p, noun: str, shape: str, labels: tuple[str, str]) -> tuple[int, int]:
    # "<noun> <item> must be <shape>" for an item that is not a
    # two-element list, else its first non-integer slot's message
    if not (isinstance(p, list) and len(p) == 2):
        raise SpecError(f"{noun} {p!r} must be {shape}")
    return _check_int(p[0], labels[0]), _check_int(p[1], labels[1])


def parse_system(data) -> Union[FactorSystem, CarpetSpec]:
    """Validate a parsed document and build the system it describes."""
    _require(isinstance(data, dict), "document must be a JSON object")
    _require("schema" in data, "document is missing the 'schema' field")
    schema = data["schema"]
    # isinstance check matters: JSON true would otherwise compare equal to 1
    if isinstance(schema, bool) or schema != SCHEMA_VERSION:
        raise SpecError(
            f"unsupported schema version {schema!r}; this build reads {SCHEMA_VERSION}"
        )
    kind = data.get("kind")
    if kind == "factor_system":
        allowed = _FACTOR_FIELDS
    elif kind == "carpet":
        allowed = _CARPET_FIELDS
    else:
        raise SpecError("'kind' must be 'factor_system' or 'carpet'")
    if not allowed.issuperset(data):
        raise SpecError(f"unknown fields {sorted(set(data) - allowed)} for kind {kind!r}")
    for label in ("name", "comment"):
        if label in data:
            _check_str(data[label], label)
    if kind == "factor_system":
        return _parse_factor_system(data)
    return _parse_carpet(data)


def _check_fields(data: dict, kind: str, required: tuple[str, ...]):
    for field in required:
        if field not in data:
            raise SpecError(f"{kind} document is missing '{field}'")


def _parse_factor_system(data) -> FactorSystem:
    _check_fields(data, "factor_system", ("symbols", "edges", "letter_map"))
    symbols = data["symbols"]
    _require(
        isinstance(symbols, list) and symbols and all(isinstance(s, str) for s in symbols),
        "'symbols' must be a nonempty list of strings",
    )
    edges = data["edges"]
    _require(isinstance(edges, list), "'edges' must be a list of [source, target] pairs")
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], str)):
            raise SpecError(f"edge {e!r} must be a [source, target] pair of strings")
        pairs.append((e[0], e[1]))
    letter_map = data["letter_map"]
    _require(
        isinstance(letter_map, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in letter_map.items()),
        "'letter_map' must map symbol names to image letters",
    )
    sft = Sft.from_edges(symbols, pairs)
    return FactorSystem(sft, dict(letter_map))


def _parse_carpet(data) -> CarpetSpec:
    _check_fields(data, "carpet", ("l", "m", "digits"))
    l = _check_int(data["l"], "'l'")
    m = _check_int(data["m"], "'m'")
    digits = data["digits"]
    _require(isinstance(digits, list) and digits, "'digits' must be a nonempty list")
    cells = [_int_pair(d, "digit", "an [a, b] pair", ("digit column", "digit row")) for d in digits]
    transitions = data.get("transitions", "full")
    if transitions != "full":
        _require(isinstance(transitions, list), "'transitions' must be 'full' or a list of [i, j] pairs")
        labels = ("transition source", "transition target")
        transitions = tuple(_int_pair(t, "transition", "an [i, j] index pair", labels) for t in transitions)
    return CarpetSpec(l, m, tuple(cells), transitions)


def load_system(path) -> Union[FactorSystem, CarpetSpec]:
    """Read and validate a system document from ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, bytes that are not UTF-8 and
        # integers past the interpreter's digit limit; RecursionError,
        # arrays or objects nested too deep for the decoder
        raise SpecError(f"spec file {path} is not valid JSON: {exc}") from exc
    return parse_system(data)


def system_doc(
    system: Union[FactorSystem, CarpetSpec],
    name: Optional[str] = None,
    comment: Optional[str] = None,
) -> dict:
    """The document ``parse_system`` reads back as ``system``; a factor
    system's edges are sorted for stable output."""
    doc = {"schema": SCHEMA_VERSION}
    if isinstance(system, FactorSystem):
        names = system.source.symbols
        doc.update(
            kind="factor_system",
            symbols=list(names),
            edges=sorted(
                [names[i], names[j]] for i, out in enumerate(system.source.successor_sets) for j in out
            ),
            letter_map={s: system.letter_map[s] for s in names},
        )
    else:
        doc.update(
            kind="carpet",
            l=system.l,
            m=system.m,
            digits=[list(d) for d in system.digits],
            transitions="full" if system.is_full_shift() else [list(t) for t in system.transitions],
        )
    if name is not None:
        doc["name"] = name
    if comment is not None:
        doc["comment"] = comment
    return doc


def dump_document(doc: dict) -> str:
    """Deterministic serialization shared by spec files and reports."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_document(doc: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_document(doc))
