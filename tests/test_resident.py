"""Actor-resident BM25 tier (pyfuseray/resident.py): bit-identity with
the interactive searcher's TAAT path, shard-count invariance, tombstone
handling."""

import numpy as np
import pyarrow.parquet as pq
import ray.data as rd

from pyfuseray.build import build_index
from pyfuseray.pages import synth_pages
from pyfuseray.pipeline import build_from_pages
from pyfuseray.query import IndexSearcher
from pyfuseray.resident import ResidentTextSearcher
from tests.corpora import PANGRAM_DOCS, PANGRAM_QUERIES


def _pangram_ix(tmp_path):
    out = str(tmp_path / "ix")
    corpus = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(PANGRAM_DOCS)]
    ).repartition(4)
    build_index(corpus, out, num_buckets=4, num_salts=2, overwrite=True)
    return out


def test_resident_bit_identical_to_taat(ray_session, tmp_path):
    ix = _pangram_ix(tmp_path)
    s = IndexSearcher(ix)
    r = ResidentTextSearcher(ix, n_shards=3)
    try:
        for q in PANGRAM_QUERIES + ["zzz-unknown", "", "the of and"]:
            want = s.search_bm25(q, 10, algorithm="taat")
            got = r.search_bm25(q, 10)
            assert got == want, q  # ids AND float bits
    finally:
        r.close()


def test_resident_many_matches_single(ray_session, tmp_path):
    ix = _pangram_ix(tmp_path)
    r = ResidentTextSearcher(ix, n_shards=3)
    try:
        qs = PANGRAM_QUERIES + ["zzz-unknown", ""]
        many = r.search_bm25_many(qs, 10)
        for q, got in zip(qs, many):
            assert got == r.search_bm25(q, 10), q
    finally:
        r.close()


def test_resident_shard_count_invariant(ray_session, tmp_path):
    ix = _pangram_ix(tmp_path)
    rs = [ResidentTextSearcher(ix, n_shards=n) for n in (1, 2, 5)]
    try:
        for q in PANGRAM_QUERIES:
            results = [r.search_bm25(q, 10) for r in rs]
            assert results[0] == results[1] == results[2], q
    finally:
        for r in rs:
            r.close()


def test_resident_custom_params_match_taat(ray_session, tmp_path):
    ix = _pangram_ix(tmp_path)
    s = IndexSearcher(ix)
    r = ResidentTextSearcher(ix, n_shards=2)
    try:
        for q in PANGRAM_QUERIES[:3]:
            want = s.search_bm25(q, 10, algorithm="taat", k1=0.9, b=0.3)
            got = r.search_bm25(q, 10, k1=0.9, b=0.3)
            assert [d for d, _ in got] == [d for d, _ in want], q
            assert all(
                abs(a - b) < 1e-12 for (_, a), (_, b) in zip(got, want)
            ), q
    finally:
        r.close()


def test_resident_drops_tombstoned_docs(ray_session, tmp_path):
    from pyfuseray.deletes import delete_documents

    ix = _pangram_ix(tmp_path)
    s = IndexSearcher(ix)
    full = {q: s.search_bm25(q, 10, algorithm="taat") for q in PANGRAM_QUERIES}
    victims = sorted({d for hits in full.values() for d, _ in hits})[:2]
    delete_documents(ix, victims)
    s2 = IndexSearcher(ix)
    r = ResidentTextSearcher(ix, n_shards=3)
    try:
        for q in PANGRAM_QUERIES:
            want = s2.search_bm25(q, 10, algorithm="taat")
            got = r.search_bm25(q, 10)
            assert got == want, q
            assert not ({d for d, _ in got} & set(victims)), q
    finally:
        r.close()


def test_resident_on_pages_corpus(ray_session, tmp_path):
    """Wider corpus through the production ingest: rank identity with
    auto (WAND) — WAND is itself bit-identical to TAAT."""
    tbl = synth_pages(400, seed=11, null_text_frac=0.1, dup_frac=0.05)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(tbl, path)
    out = str(tmp_path / "ixp")
    build_from_pages(rd.read_parquet(path), out, num_buckets=4, num_salts=2,
                     overwrite=True)
    s = IndexSearcher(out)
    r = ResidentTextSearcher(out, n_shards=4)
    try:
        for q in ["quick foxes jump", "flowers bloom spring", "webhot",
                  "search engine data"]:
            want = s.search_bm25(q, 10, algorithm="auto")
            got = r.search_bm25(q, 10)
            assert got == want, q
    finally:
        r.close()


def test_sidecar_load_bit_identical_to_legacy(ray_session, tmp_path):
    """The bucket-pruned sidecar load must reconstruct EXACTLY the same
    per-term (ids, tfs, contrib, idf) state as the legacy full-segment
    read — array-for-array, bit-for-bit."""
    from pyfuseray.resident import _TextShardActor, ensure_resident_layout

    ix = _pangram_ix(tmp_path)
    res = ensure_resident_layout(ix)
    n_docs = IndexSearcher(ix).manifest.n_docs
    bounds = [0, n_docs // 3, 2 * n_docs // 3, n_docs]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        a = _TextShardActor(ix, lo, hi, res)
        b = _TextShardActor(ix, lo, hi, None)
        assert set(a.post) == set(b.post), (lo, hi)
        for t in a.post:
            ia, ta, ca, fa = a.post[t]
            ib, tb, cb, fb = b.post[t]
            assert np.array_equal(ia, ib), t
            assert np.array_equal(ta, tb), t
            assert ca.tobytes() == cb.tobytes(), t  # float BITS
            assert fa == fb, t


def test_sidecar_load_is_range_pruned(ray_session, tmp_path):
    """Each shard actor reads ~1/n_shards of the sidecar bytes and the
    shards together read each sidecar byte exactly once (the round-4
    'weak': the legacy path read the FULL segment set per actor)."""
    import os

    from pyfuseray.resident import ensure_resident_layout

    tbl = synth_pages(600, seed=7)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(tbl, path)
    out = str(tmp_path / "ixb")
    build_from_pages(rd.read_parquet(path), out, num_buckets=4,
                     overwrite=True)
    res = ensure_resident_layout(out)
    total = sum(
        os.path.getsize(os.path.join(dp, f))
        for dp, _, fs in os.walk(res)
        for f in fs
        if f.endswith(".parquet")
    )
    n_shards = 4
    r = ResidentTextSearcher(out, n_shards=n_shards)
    try:
        per = [i["load_bytes"] for i in r.load_info()]
        # disjoint bucket dirs: the union reads every byte exactly once
        assert sum(per) == total
        # and no actor reads more than ~its share (2x slack for file-
        # boundary granularity at this tiny scale)
        assert max(per) <= 2 * total / n_shards + 4096, (per, total)
    finally:
        r.close()


def test_sidecar_invalidated_by_segment_rewrite(ray_session, tmp_path):
    """Compaction rewrites segments -> the sidecar signature mismatches
    -> the next searcher build re-runs the distributed pass (stale
    sidecars silently serving pre-compaction postings would violate the
    FORMAT_VERSION staleness invariant)."""
    import json
    import os

    from pyfuseray.deletes import compact, delete_documents
    from pyfuseray.resident import ensure_resident_layout

    ix = _pangram_ix(tmp_path)
    res = ensure_resident_layout(ix)
    with open(os.path.join(res, "meta.json")) as fh:
        sig0 = json.load(fh)["signature"]
    s = IndexSearcher(ix)
    victims = [d for d, _ in s.search_bm25(PANGRAM_QUERIES[0], 3)][:1]
    delete_documents(ix, victims)
    compact(ix)
    r = ResidentTextSearcher(ix, n_shards=2)
    try:
        with open(os.path.join(res, "meta.json")) as fh:
            sig1 = json.load(fh)["signature"]
        assert sig1 != sig0  # rebuilt over the compacted segments
        s2 = IndexSearcher(ix)
        for q in PANGRAM_QUERIES:
            assert r.search_bm25(q, 10) == s2.search_bm25(
                q, 10, algorithm="taat"
            ), q
    finally:
        r.close()


def test_resident_refuses_tiered_index_with_or_without_sidecar(ray_session, tmp_path):
    """A tiered index's newer generations live outside segments/, which
    is all the shards load: both load routes must raise, not serve
    base-only results."""
    import pytest

    from pyfuseray.incremental import add_documents

    ix = _pangram_ix(tmp_path)
    n = len(PANGRAM_DOCS)
    add_documents(ix, rd.from_items([{"doc_id": n, "text": "quick wizard"}]),
                  mode="tiered", max_generations=10)
    for use_sidecar in (False, True):
        with pytest.raises(RuntimeError, match="compact_tiers"):
            ResidentTextSearcher(ix, n_shards=2, use_sidecar=use_sidecar)
