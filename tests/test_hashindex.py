"""Extendible hash index: directory/bucket invariants and oracle tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexstructures.hashindex import ExtendibleHashIndex, _stable_hash


def test_empty_index():
    index = ExtendibleHashIndex()
    assert len(index) == 0
    assert index.get("missing") == []


def test_insert_get():
    index = ExtendibleHashIndex()
    index.insert("key", 1)
    assert index.get("key") == [1]


def test_multimap_accumulates():
    index = ExtendibleHashIndex()
    index.insert("k", 1)
    index.insert("k", 2)
    assert sorted(index.get("k")) == [1, 2]
    assert len(index) == 2


def test_duplicate_pair_idempotent():
    index = ExtendibleHashIndex()
    index.insert("k", 1)
    index.insert("k", 1)
    assert len(index) == 1


def test_bucket_capacity_validation():
    with pytest.raises(ValueError):
        ExtendibleHashIndex(bucket_capacity=0)


def test_splits_preserve_contents():
    index = ExtendibleHashIndex(bucket_capacity=2)
    for i in range(200):
        index.insert(f"key{i}", i)
    index.check_invariants()
    for i in range(200):
        assert index.get(f"key{i}") == [i]
    assert index.global_depth > 1


def test_remove_value():
    index = ExtendibleHashIndex()
    index.insert("k", 1)
    index.insert("k", 2)
    assert index.remove("k", 1) == 1
    assert index.get("k") == [2]


def test_remove_key_entirely():
    index = ExtendibleHashIndex()
    index.insert("k", 1)
    index.insert("k", 2)
    assert index.remove("k") == 2
    assert "k" not in index


def test_remove_missing():
    index = ExtendibleHashIndex()
    assert index.remove("ghost") == 0
    index.insert("k", 1)
    assert index.remove("k", 99) == 0


def test_items_cover_everything():
    index = ExtendibleHashIndex(bucket_capacity=3)
    pairs = {(f"k{i}", i) for i in range(100)}
    for k, v in pairs:
        index.insert(k, v)
    assert set(index.items()) == pairs


def test_mixed_key_types_rejected_only_for_unhashable():
    index = ExtendibleHashIndex()
    index.insert(5, "int")
    index.insert(5.5, "float")
    index.insert(("a", 1), "tuple")
    with pytest.raises(TypeError):
        index.insert(["list"], "bad")


def test_stable_hash_is_deterministic():
    assert _stable_hash("hello") == _stable_hash("hello")
    assert _stable_hash(42) == _stable_hash(42)
    assert _stable_hash(("a", 1)) == _stable_hash(("a", 1))


def test_page_hook_called():
    touched = []
    index = ExtendibleHashIndex(bucket_capacity=2,
                                page_hook=lambda b, w: touched.append((b, w)))
    for i in range(20):
        index.insert(i, i)
    assert touched


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=8), st.integers(0, 10)), max_size=300),
       st.integers(1, 8))
def test_property_matches_dict_oracle(pairs, capacity):
    index = ExtendibleHashIndex(bucket_capacity=capacity)
    oracle = {}
    for key, value in pairs:
        index.insert(key, value)
        oracle.setdefault(key, set()).add(value)
    index.check_invariants()
    for key, values in oracle.items():
        assert set(index.get(key)) == values
    assert len(index) == sum(len(v) for v in oracle.values())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 50)), max_size=300))
def test_property_insert_delete_oracle(ops):
    index = ExtendibleHashIndex(bucket_capacity=2)
    oracle = {}
    for is_insert, key in ops:
        if is_insert:
            index.insert(key, key)
            oracle.setdefault(key, set()).add(key)
        else:
            assert index.remove(key) == len(oracle.pop(key, set()))
    index.check_invariants()
    assert set(index.items()) == {(k, v) for k, vs in oracle.items() for v in vs}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 5)), max_size=200),
       st.lists(st.tuples(st.integers(0, 12), st.integers(0, 5)), max_size=200),
       st.integers(1, 8))
def test_property_bulk_insert_matches_sequential(existing, batch, capacity):
    sequential = ExtendibleHashIndex(bucket_capacity=capacity)
    bulk = ExtendibleHashIndex(bucket_capacity=capacity)
    for key, value in existing:
        sequential.insert(key, value)
        bulk.insert(key, value)
    for key, value in batch:
        sequential.insert(key, value)
    added = bulk.bulk_insert(batch)
    bulk.check_invariants()
    assert added == len(set(existing) | set(batch)) - len(set(existing))
    assert len(bulk) == len(sequential)
    assert list(bulk.items()) == list(sequential.items())
    assert bulk.bucket_count == sequential.bucket_count

