"""Binary framing and generic index serialization."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexstructures import (
    BPlusTree,
    ExtendibleHashIndex,
    IndexKind,
    KDTreeIndex,
)
from repro.indexstructures.serialization import (
    dump_index,
    dump_record,
    dump_value,
    iter_records,
    load_index,
    load_value,
)


def roundtrip(value):
    data = dump_value(value)
    decoded, offset = load_value(data, 0)
    assert offset == len(data)
    return decoded


@pytest.mark.parametrize("value", [
    0, 1, -1, 2**40, -(2**40),
    0.0, 3.14159, -2.5,
    "", "hello", "ünïcödé",
    b"", b"\x00\xff",
    None,
    (), (1, "two", 3.0), (1, (2, (3,))),
])
def test_value_roundtrip(value):
    assert roundtrip(value) == value


def test_bool_encodes_as_int():
    assert roundtrip(True) == 1
    assert roundtrip(False) == 0


def test_unsupported_type_rejected():
    with pytest.raises(TypeError):
        dump_value({"dict": 1})


class _Count(int):
    pass


class _Name(str):
    pass


_Pair = collections.namedtuple("_Pair", "a b")


@pytest.mark.parametrize("value, hex_bytes", [
    # tag, then a little-endian payload: <q int, <d float, <I length.
    (7, "00 0700000000000000"),
    (-1, "00 ffffffffffffffff"),
    (1.5, "01 000000000000f83f"),
    ("hé", "02 03000000 68c3a9"),
    (b"\x00\xff", "03 02000000 00ff"),
    (None, "04"),
    ((), "05 00000000"),
    (True, "00 0100000000000000"),
    (False, "00 0000000000000000"),
    (_Count(5), "00 0500000000000000"),
    (_Name("ab"), "02 02000000 6162"),
    (_Pair(1, "a"), "05 02000000 00 0100000000000000 02 01000000 61"),
    ((1, ("a", None)),
     "05 02000000 00 0100000000000000 05 02000000 02 01000000 61 04"),
])
def test_dump_value_golden_bytes(value, hex_bytes):
    # Pins the wire format: WAL frame and segment lengths feed the
    # simulated fsync and object-store charges.
    assert dump_value(value) == bytes.fromhex(hex_bytes)


@pytest.mark.parametrize("value", [[1], {"a": 1}, (1, [2]), ("x", {3})])
def test_dump_value_rejects_lists_and_dicts(value):
    with pytest.raises(TypeError):
        dump_value(value)


def test_record_stream():
    records = [(1, "a"), (2, "b"), (3, None)]
    data = b"".join(dump_record(r) for r in records)
    assert list(iter_records(data)) == records


def test_record_length_mismatch_detected():
    data = bytearray(dump_record((1, "abc")))
    data[0] += 1  # lie about the length
    with pytest.raises(ValueError):
        list(iter_records(bytes(data)))


def test_btree_index_roundtrip():
    tree = BPlusTree(order=4)
    for i in range(50):
        tree.insert(i, f"v{i}")
    clone = load_index(dump_index(tree))
    assert clone.kind is IndexKind.BTREE
    assert sorted(clone.items()) == sorted(tree.items())


def test_hash_index_roundtrip():
    index = ExtendibleHashIndex(bucket_capacity=4)
    for i in range(50):
        index.insert(f"k{i}", i)
    clone = load_index(dump_index(index))
    assert clone.kind is IndexKind.HASH
    assert sorted(clone.items()) == sorted(index.items())


def test_kdtree_index_roundtrip_preserves_dimensions():
    tree = KDTreeIndex(dimensions=3)
    for i in range(30):
        tree.insert((i, i * 2, i * 3), i)
    clone = load_index(dump_index(tree))
    assert clone.kind is IndexKind.KDTREE
    assert clone.dimensions == 3
    assert sorted(clone.items()) == sorted(tree.items())


@settings(max_examples=60, deadline=None)
@given(st.recursive(
    st.one_of(st.integers(-2**40, 2**40), st.floats(allow_nan=False),
              st.text(max_size=20), st.binary(max_size=20), st.none()),
    lambda children: st.tuples(children, children),
    max_leaves=6,
))
def test_property_value_roundtrip(value):
    assert roundtrip(value) == value
