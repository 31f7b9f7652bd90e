"""Codec round-trip + block-metadata invariants (FIXTURES.md §6)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pyfuseray.codec import (
    decode_postings,
    decode_span,
    encode_postings,
    varbyte_decode,
    varbyte_encode,
)


@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=500))
@settings(max_examples=50, deadline=None)
def test_varbyte_roundtrip(values):
    arr = np.array(values, dtype=np.uint64)
    blob, nbytes = varbyte_encode(arr)
    assert len(blob) == int(nbytes.sum())
    out = varbyte_decode(blob)
    assert np.array_equal(out, arr)


@given(
    st.lists(
        st.tuples(st.integers(0, 10**9), st.integers(1, 1000)),
        min_size=0,
        max_size=700,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=50, deadline=None)
def test_postings_roundtrip(pairs):
    pairs.sort()
    doc_ids = np.array([p[0] for p in pairs], dtype=np.int64)
    tfs = np.array([p[1] for p in pairs], dtype=np.int64)
    enc = encode_postings(doc_ids, tfs)
    d, t = decode_postings(enc.blob, enc.offset)
    assert np.array_equal(d, doc_ids)
    assert np.array_equal(t, tfs)


def test_block_metadata_true_maxima():
    rng = np.random.default_rng(7)
    doc_ids = np.sort(rng.choice(10**7, size=1000, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 50, size=1000).astype(np.int64)
    enc = encode_postings(doc_ids, tfs, block_size=128)
    nblocks = enc.last_doc.size
    assert nblocks == (1000 + 127) // 128
    for b in range(nblocks):
        lo, hi = b * 128, min((b + 1) * 128, 1000)
        assert enc.last_doc[b] == doc_ids[hi - 1]
        assert enc.max_tf[b] == tfs[lo:hi].max()
        d, t = decode_span(enc.blob, enc.offset, b, b)
        assert np.array_equal(d, doc_ids[lo:hi])
        assert np.array_equal(t, tfs[lo:hi])


def test_empty():
    enc = encode_postings(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert enc.blob == b""
    d, t = decode_postings(enc.blob, enc.offset)
    assert d.size == 0 and t.size == 0


@given(
    st.lists(
        st.tuples(st.integers(0, 10**7), st.integers(1, 100)),
        min_size=1, max_size=300, unique_by=lambda t: t[0],
    ),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=40, deadline=None)
def test_postings_roundtrip_any_block_size(pairs, block_size):
    pairs.sort()
    doc_ids = np.array([p[0] for p in pairs], dtype=np.int64)
    tfs = np.array([p[1] for p in pairs], dtype=np.int64)
    enc = encode_postings(doc_ids, tfs, block_size=block_size)
    d, t = decode_postings(enc.blob, enc.offset)
    assert np.array_equal(d, doc_ids)
    assert np.array_equal(t, tfs)
    nblocks = enc.last_doc.size
    assert nblocks == (len(pairs) + block_size - 1) // block_size
    for b in range(nblocks):
        db, tb = decode_span(enc.blob, enc.offset, b, b)
        lo, hi = b * block_size, min((b + 1) * block_size, len(pairs))
        assert np.array_equal(db, doc_ids[lo:hi])
