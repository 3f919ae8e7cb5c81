import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssiledger.canonical import UnsupportedType, canonical_json, canonical_map, canonicalize


def test_key_order_independence():
    assert canonicalize({"b": 1, "a": 2}) == canonicalize({"a": 2, "b": 1})


def test_empty_map_is_two_bytes():
    assert canonicalize({}) == b"{}"


def test_no_insignificant_whitespace():
    # independently constructed expectation: compact separators, sorted keys
    assert canonical_json({"x": [1, "y"]}) == '{"x":[1,"y"]}'
    assert canonical_json({"b": None, "a": True}) == '{"a":true,"b":null}'


def test_unicode_kept_as_utf8():
    assert canonicalize({"kâ": "ü"}) == '{"kâ":"ü"}'.encode("utf-8")


def test_floats_rejected():
    with pytest.raises(UnsupportedType):
        canonicalize({"a": 1.5})
    with pytest.raises(UnsupportedType):
        canonicalize([1, [2, [3.0]]])


@pytest.mark.parametrize(
    "value, message",
    [
        (1.5, "float not allowed in canonical values at $"),
        ([1, [2, [3.0]]], "float not allowed in canonical values at $[1][1][0]"),
        ({"a": {"b": [0, 1.5]}}, "float not allowed in canonical values at $.a.b[1]"),
        ({"x": [{1: "a"}]}, "non-string map key 1 at $.x[0]"),
        ({"a": (None, b"raw")}, "unsupported type bytes at $.a[1]"),
    ],
)
def test_rejection_names_the_path(value, message):
    with pytest.raises(UnsupportedType) as caught:
        canonicalize(value)
    assert str(caught.value) == message


def test_non_string_keys_rejected():
    with pytest.raises(UnsupportedType):
        canonicalize({1: "a"})


def test_unsupported_leaf_rejected():
    with pytest.raises(UnsupportedType):
        canonicalize({"a": b"bytes"})


def test_bool_and_int_stay_distinct():
    assert canonicalize({"a": True}) != canonicalize({"a": 1})


def test_output_parses_back():
    value = {"k": [1, "two", None, False, {"n": 0}]}
    assert json.loads(canonical_json(value)) == value


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _same_value(a, b) -> bool:
    """Type-aware structural equality; unlike ==, never conflates 1 and True."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_value(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same_value(x, y) for x, y in zip(a, b))
    return a == b


@settings(max_examples=300, deadline=None)
@given(json_values, json_values)
def test_injective_on_distinct_values(a, b):
    if _same_value(a, b):
        assert canonicalize(a) == canonicalize(b)
    else:
        assert canonicalize(a) != canonicalize(b)


def test_no_collisions_over_ten_thousand_values():
    import hashlib

    seen = set()
    for i in range(10_000):
        value = {
            "index": i,
            "nested": {"level": [i % 7, str(i), i % 2 == 0]},
            "tag": f"value-{i % 100}",
            "flag": None if i % 3 else i,
        }
        digest = hashlib.sha256(canonicalize(value)).digest()
        assert digest not in seen
        seen.add(digest)


class Tag(str, enum.Enum):
    PLAIN = "plain"
    ESCAPED = 'q"\\\n\x00\u00e9\u2028'


class Level(enum.IntEnum):
    HIGH = 7


tricky_text = st.text(max_size=12) | st.sampled_from(["\x00\x1f\x7f", '"\\/', "\u2028\u2029", "😀é"])
scalars = st.none() | st.booleans() | st.integers() | tricky_text | st.sampled_from([*Tag, Level.HIGH])
values_with_floats = st.recursive(
    scalars | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(tricky_text, children, max_size=3),
    max_leaves=8,
)


def _plain_json(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(scalars)
def test_scalar_fast_path_matches_json_dumps(value):
    assert canonicalize(value) == _plain_json(value)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(tricky_text, values_with_floats, max_size=6))
def test_framed_map_equals_canonicalize_of_plain_map(members):
    try:
        expected = canonicalize(members)
    except UnsupportedType:
        with pytest.raises(UnsupportedType):
            canonical_map({key: canonicalize(value) for key, value in members.items()})
        return
    assert canonical_map({key: canonicalize(value) for key, value in members.items()}) == expected
