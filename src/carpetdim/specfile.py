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


def _check_int(value, label: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{label} must be an integer")
    return value


def _check_str(value, label: str) -> str:
    _require(isinstance(value, str), f"{label} must be a string")
    return value


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
    unknown = sorted(set(data) - allowed)
    _require(not unknown, f"unknown fields {unknown} for kind {kind!r}")
    for label in ("name", "comment"):
        if label in data:
            _check_str(data[label], label)
    if kind == "factor_system":
        return _parse_factor_system(data)
    return _parse_carpet(data)


def _parse_factor_system(data) -> FactorSystem:
    for required in ("symbols", "edges", "letter_map"):
        _require(required in data, f"factor_system document is missing '{required}'")
    symbols = data["symbols"]
    _require(
        isinstance(symbols, list) and symbols and all(isinstance(s, str) for s in symbols),
        "'symbols' must be a nonempty list of strings",
    )
    edges = data["edges"]
    _require(isinstance(edges, list), "'edges' must be a list of [source, target] pairs")
    pairs = []
    for e in edges:
        _require(
            isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e),
            f"edge {e!r} must be a [source, target] pair of strings",
        )
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
    for required in ("l", "m", "digits"):
        _require(required in data, f"carpet document is missing '{required}'")
    l = _check_int(data["l"], "'l'")
    m = _check_int(data["m"], "'m'")
    digits = data["digits"]
    _require(isinstance(digits, list) and digits, "'digits' must be a nonempty list")
    cells = []
    for d in digits:
        _require(
            isinstance(d, list) and len(d) == 2,
            f"digit {d!r} must be an [a, b] pair",
        )
        cells.append((_check_int(d[0], "digit column"), _check_int(d[1], "digit row")))
    transitions = data.get("transitions", "full")
    if transitions != "full":
        _require(isinstance(transitions, list), "'transitions' must be 'full' or a list of [i, j] pairs")
        arcs = []
        for t in transitions:
            _require(
                isinstance(t, list) and len(t) == 2,
                f"transition {t!r} must be an [i, j] index pair",
            )
            arcs.append((_check_int(t[0], "transition source"), _check_int(t[1], "transition target")))
        transitions = tuple(arcs)
    return CarpetSpec(l, m, tuple(cells), transitions)


def load_system(path) -> Union[FactorSystem, CarpetSpec]:
    """Read and validate a system document from ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
