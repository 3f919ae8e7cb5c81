"""Canonical JSON serialization.

Every record that gets hashed or signed goes through ``canonicalize`` first,
so "the hash of a record" is well defined across processes and runs: map keys
sorted by UTF-8 byte order, no insignificant whitespace, UTF-8 output.

Floats are rejected outright. Timestamps are integers and amounts/dates are
strings or integers everywhere in this codebase, which keeps the encoding
unambiguous and injective.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import Any

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
_SCALARS = (str, int, type(None))  # bool is an int


class UnsupportedType(TypeError):
    """Value contains a leaf the canonical encoding does not admit."""


def _check(value: Any) -> tuple[str, str] | None:
    """(what, path) of the first value the encoding rejects, or None. Paths are built on failure only."""
    if isinstance(value, _SCALARS):
        return None
    if isinstance(value, float):
        return "float not allowed in canonical values", ""
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            if not isinstance(item, _SCALARS) and (bad := _check(item)):
                return bad[0], f"[{i}]{bad[1]}"
        return None
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                return f"non-string map key {key!r}", ""
            if not isinstance(item, _SCALARS) and (bad := _check(item)):
                return bad[0], f".{key}{bad[1]}"
        return None
    return f"unsupported type {type(value).__name__}", ""


def canonical_json(value: Any) -> str:
    """Render a structured value as its canonical JSON string.

    Accepts maps, lists/tuples, strings, ints, bools and None. Map insertion
    order never matters: keys are emitted sorted by their UTF-8 bytes (for
    ``str`` this is code-point order, which is the same thing). A lone string
    or int is rendered directly, exactly as the JSON encoder would render it.
    """
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    if bad := _check(value):
        raise UnsupportedType(f"{bad[0]} at ${bad[1]}")
    return _ENCODER.encode(value)


def canonicalize(value: Any) -> bytes:
    """Canonical JSON encoded as UTF-8 bytes."""
    return canonical_json(value).encode("utf-8")


def canonical_map(members: dict[str, bytes]) -> bytes:
    """``canonicalize`` of a map whose member values are already canonical bytes."""
    pairs = [f"{encode_basestring(key)}:".encode() + members[key] for key in sorted(members)]
    return b"{" + b",".join(pairs) + b"}"
