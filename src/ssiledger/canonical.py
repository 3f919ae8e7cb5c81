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
import os
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Any, Iterable

# no cycle check: ``_check`` walks every container first, and a cycle raises RecursionError there
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False, check_circular=False)
# the C encoder that ``_ENCODER.encode`` builds on every call, with the same arguments, built once
_ENCODE = (
    c_make_encoder(None, _ENCODER.default, encode_basestring, None, ":", ",", True, False, True)
    if c_make_encoder is not None
    else lambda value, _level: [_ENCODER.encode(value)]
)
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


def _float_screen() -> tuple[dict, list[str]]:
    """``json.loads`` keyword hooks that log the text of every float they
    decode, and the log.

    The rule: JSON text decodes to str-keyed maps, lists, strings, ints, bools,
    None and floats (``NaN`` and ``Infinity`` included), and of these ``_check``
    rejects the floats alone. So a value decoded while the log did not grow
    passes ``_check``, and ``_encode_checked`` gives its canonical bytes."""
    floats: list[str] = []

    def hook(text: str) -> float:
        floats.append(text)
        return float(text)  # the value json.loads would give, NaN and the infinities too

    return {"parse_float": hook, "parse_constant": hook}, floats


def _encode_checked(value: Any) -> bytes:
    """``canonicalize`` of a value known to pass ``_check``, without the walk.
    A lone surrogate still raises ``UnicodeEncodeError``."""
    return "".join(_ENCODE(value, 0)).encode("utf-8")


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
    return "".join(_ENCODE(value, 0))


def canonicalize(value: Any) -> bytes:
    """Canonical JSON encoded as UTF-8 bytes."""
    return canonical_json(value).encode("utf-8")


def _member(value: Any) -> bytes:
    """A framed member's canonical bytes: a plain ``str`` or ``int`` rendered
    directly, anything else (str-enum and bool members included) through
    ``canonicalize``."""
    if type(value) is str:
        return encode_basestring(value).encode()
    return b"%d" % value if type(value) is int else canonicalize(value)


def _quoted_hex(raw: bytes) -> bytes:
    """``canonicalize`` of ``raw.hex()``: JSON escapes no hex digit."""
    return b'"%s"' % raw.hex().encode()


def map_layout(*keys: str) -> bytes:
    """The canonical encoding of a map with exactly these keys, as a ``bytes``
    %-template: ``layout % members`` is ``canonicalize`` of the map, given the
    members' canonical bytes in key order. The keys must come sorted."""
    if list(keys) != sorted(set(keys)):
        raise ValueError("map layout keys must be distinct and sorted")
    members = [canonicalize(key).replace(b"%", b"%%") + b":%b" for key in keys]
    return b"{" + b",".join(members) + b"}"


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Replace the file at ``path`` with the ``str`` chunks in UTF-8, or leave it as it was: each chunk goes,
    as it comes, to a new file in the same directory, which is synced to disk and then renamed over ``path``.
    A write or a chunk that fails removes the new file and raises. The file keeps the permission bits it
    had; a new file gets the default ones, as ``open`` would give it. One ``str`` is refused: it would be
    written a character at a time."""
    if isinstance(chunks, str):
        raise TypeError("write_atomic takes an iterable of str chunks, not one str")
    target = Path(path).resolve()  # through a symlink, as writing in place would go
    temp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as out:
            if target.exists():
                os.chmod(fd, target.stat().st_mode & 0o7777)
            out.writelines(chunks)
            out.flush()
            os.fsync(fd)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
