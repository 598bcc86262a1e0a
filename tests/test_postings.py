"""Roaring-style posting lists: container behavior plus exactness
oracles — the bitmap path must be indistinguishable from plain sets,
both at the structure level and through the query executor."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexstructures.hashindex import ExtendibleHashIndex
from repro.indexstructures.postings import PostingList, intersect_all
from repro.query.executor import (AttributeStore, execute_plans,
                                  tokenize_path)
from repro.query.ast import matches
from repro.query.parser import parse_query
from repro.query.planner import IndexSpec, plan_query_set
from repro.indexstructures import IndexKind

_IDS = st.lists(st.integers(0, 200_000), max_size=150)


# -- structure-level oracle ----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(_IDS, _IDS)
def test_property_set_algebra_oracle(a_ids, b_ids):
    a, b = PostingList.from_iterable(a_ids), PostingList.from_iterable(b_ids)
    sa, sb = set(a_ids), set(b_ids)
    assert len(a) == len(sa) and sorted(a) == sorted(sa)
    assert a == sa
    assert (a & b) == (sa & sb)
    assert (a | b) == (sa | sb)
    assert (a - b) == (sa - sb)
    assert sorted(a & b) == sorted(sa & sb)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 100_000)),
                max_size=200))
def test_property_add_discard_contains_oracle(ops):
    plist, oracle = PostingList(), set()
    for is_add, doc in ops:
        if is_add:
            plist.add(doc)
            oracle.add(doc)
        else:
            plist.discard(doc)
            oracle.discard(doc)
        assert (doc in plist) == (doc in oracle)
    assert plist == oracle
    assert len(plist) == len(oracle)


def test_array_container_promotes_to_bitmap():
    plist = PostingList()
    for i in range(0, 6000):  # one 2^16 chunk, past ARRAY_MAX
        plist.add(i)
    assert plist.chunk_kinds()["bitmap"] == 1
    assert sorted(plist) == list(range(6000))
    sparse = PostingList.from_iterable([1, 70_000])
    assert sparse.chunk_kinds() == {"array": 2, "bitmap": 0}


def test_negative_doc_id_rejected():
    with pytest.raises(ValueError):
        PostingList().add(-1)


def test_intersect_all_smallest_first_and_empty_shortcut():
    lists = [PostingList.from_iterable(range(0, 1000)),
             PostingList.from_iterable(range(500, 600)),
             PostingList.from_iterable([])]
    assert len(intersect_all(lists)) == 0
    lists = lists[:2]
    assert sorted(intersect_all(lists)) == list(range(500, 600))


# -- executor-level oracle -----------------------------------------------------


def _build_partition(seed, n_files):
    """A keyword-indexed partition with correlated path vocabularies."""
    rng = random.Random(seed)
    store = AttributeStore()
    index = ExtendibleHashIndex()
    vocab = ["logs", "img", "src", "tmp", "doc", "alpha", "beta"]
    for fid in range(n_files):
        parts = rng.sample(vocab, rng.randint(1, 3))
        path = "/" + "/".join(parts) + f"/f{fid}"
        attrs = {"size": rng.randint(1, 10_000), "uid": rng.randint(0, 3)}
        store.put(fid, attrs, path=path)
        for token in tokenize_path(path):
            index.insert(token, fid)
    return store, {"by_keyword": index}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_postings_path_matches_brute_force_exactly(seed):
    store, indexes = _build_partition(seed, 400)
    specs = [IndexSpec("by_keyword", IndexKind.HASH, ("keyword",))]
    queries = [
        "keyword:logs",
        "keyword:logs & keyword:img",
        "keyword:logs & keyword:img & keyword:src",
        "keyword:alpha & keyword:beta & size>5000",
        "keyword:tmp & uid==2",
        "keyword:doc | keyword:img",  # Or-branch: postings must fall back
        "keyword:nosuchword & keyword:logs",
    ]
    for query in queries:
        predicate = parse_query(query)
        plans = plan_query_set(predicate, specs, now=0.0)
        brute = {fid for fid in store.file_ids()
                 if matches(predicate, store.attrs(fid),
                            store.keywords(fid), 0.0)}
        assert execute_plans(plans, predicate, indexes, store,
                             now=0.0) == brute, query
