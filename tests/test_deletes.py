"""Tombstone deletes + compaction (pyfuseray.deletes).

Contracts pinned here:
- delete_documents: every query path (TAAT TF-IDF, BM25 TAAT + WAND,
  boolean, distributed bulk in both docstats modes) excludes tombstoned
  docs while SURVIVING docs keep their exact pre-delete scores (stale
  global stats by design, like Lucene's deleted-docs model).
- compact: search results are EXACTLY those of a fresh build over the
  surviving corpus (same postings, df, doclen, n_docs, avgdl), and
  generations collapse to one.
- crash-model guards: out-of-range ids rejected; a stale tombstone
  sidecar with manifest n_deleted=0 is inert.
- the accepted id range is the doc-id DOMAIN (max indexed id + 1), not
  n_docs: compaction keeps original ids, so live ids can exceed n_docs.
- only live docs are tombstoned, so compact lowers n_docs by exactly the
  docs it removes; an id that cannot be resolved is refused up front.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from pyfuseray.build import build_index
from pyfuseray.checkpoint import load_manifest
from pyfuseray.deletes import (
    compact,
    delete_documents,
    load_tombstones,
    tombstone_path,
)
from pyfuseray.distributed_query import bulk_search
from pyfuseray.incremental import add_documents, ids_dense
from pyfuseray.oracle import OracleIndex
from pyfuseray.pages import synth_pages
from pyfuseray.query import IndexSearcher

QUERIES = ["quick fox", "wizard quartz", "flower bloom", "dog cat run", "love"]


def _texts(n=240, seed=11):
    t = synth_pages(n, seed=seed, null_text_frac=0.0, dup_frac=0.0,
                    vocab_size=400, words_per_doc=(20, 60))
    return [x if x else "fallback words" for x in t.column("text").to_pylist()]


def _ds(texts, ids=None):
    ids = list(range(len(texts))) if ids is None else ids
    return rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))


@pytest.fixture(scope="module")
def deleted_index(tmp_path_factory):
    """(index_dir with deletes, pre-delete searcher results, deleted ids,
    surviving texts+ids)."""
    texts = _texts()
    base = tmp_path_factory.mktemp("deletes")
    ix = str(base / "ix")
    build_index(_ds(texts), ix, num_buckets=4, num_salts=2)
    s_before = IndexSearcher(ix)
    before = {
        q: {
            "tfidf": s_before.search_tfidf(q, 50),
            "bm25_taat": s_before.search_bm25(q, 50, algorithm="taat"),
            "bm25_wand": s_before.search_bm25(q, 50, algorithm="wand"),
            "bool": s_before.search_boolean(q).tolist(),
        }
        for q in QUERIES
    }
    rng = np.random.default_rng(3)
    dele = sorted(int(x) for x in rng.choice(len(texts), size=40, replace=False))
    delete_documents(ix, dele)
    surviving = [(i, t) for i, t in enumerate(texts) if i not in set(dele)]
    return ix, before, dele, surviving


def test_delete_validation(tmp_path):
    ix = str(tmp_path / "ix")
    build_index(_ds(_texts(40)), ix, num_buckets=2)
    with pytest.raises(ValueError):
        delete_documents(ix, [41])
    with pytest.raises(ValueError):
        delete_documents(ix, [-1])
    m = delete_documents(ix, [])  # no-op
    assert m.n_deleted == 0
    delete_documents(ix, [1, 3])
    m = delete_documents(ix, [3, 5])  # merge, dedup
    assert m.n_deleted == 3
    assert load_tombstones(ix).tolist() == [1, 3, 5]


def test_interactive_paths_filter_deleted_exactly(deleted_index):
    ix, before, dele, _ = deleted_index
    dset = set(dele)
    s = IndexSearcher(ix)
    for q in QUERIES:
        for path, fn in [
            ("tfidf", lambda: s.search_tfidf(q, 50)),
            ("bm25_taat", lambda: s.search_bm25(q, 50, algorithm="taat")),
            ("bm25_wand", lambda: s.search_bm25(q, 50, algorithm="wand")),
        ]:
            got = fn()
            assert not (set(d for d, _ in got) & dset), (q, path)
            # surviving docs keep exact pre-delete scores and order
            want = [(d, sc) for d, sc in before[q][path] if d not in dset][:50]
            # pre-delete list was a top-50 of a larger pool: compare the
            # overlapping prefix (the post-delete list may pull in docs
            # that were rank 51+ before)
            k = min(len(got), len(want))
            assert got[:k] == want[:k], (q, path)
        got_b = s.search_boolean(q).tolist()
        assert got_b == [d for d in before[q]["bool"] if d not in dset], q


def test_wand_taat_identity_after_deletes(deleted_index):
    ix, _, _, _ = deleted_index
    s = IndexSearcher(ix)
    for q in QUERIES:
        taat = s.search_bm25(q, 20, algorithm="taat")
        wand = s.search_bm25(q, 20, algorithm="wand")
        assert [d for d, _ in taat] == [d for d, _ in wand]
        assert all(a[1] == b[1] for a, b in zip(taat, wand))  # bit-identical


@pytest.mark.parametrize("mode", ["broadcast", "ranged"])
def test_bulk_search_filters_deleted(deleted_index, mode):
    ix, _, dele, _ = deleted_index
    dset = set(dele)
    df = bulk_search(ix, QUERIES, top_k=20, scoring="bm25", docstats_mode=mode)
    assert not (set(df["doc_id"].tolist()) & dset)
    # rank-identical to the (tombstone-aware) interactive searcher
    s = IndexSearcher(ix)
    for qid, q in enumerate(QUERIES):
        want = s.search_bm25(q, 20, algorithm="taat")
        sub = df[df["query_id"] == qid].sort_values("rank")
        assert sub["doc_id"].tolist() == [d for d, _ in want]
        assert np.allclose(sub["score"].to_numpy(), [sc for _, sc in want],
                           rtol=0, atol=1e-9)


def test_compact_equals_fresh_build_over_survivors(deleted_index, tmp_path):
    ix, _, dele, surviving = deleted_index
    # fresh build over the surviving corpus with the ORIGINAL doc_ids
    fresh = str(tmp_path / "fresh")
    build_index(
        _ds([t for _, t in surviving], ids=[i for i, _ in surviving]),
        fresh, num_buckets=4, num_salts=2,
    )
    m = compact(ix)
    mf = load_manifest(fresh)
    assert m.n_docs == mf.n_docs == len(surviving)
    assert m.total_postings == mf.total_postings
    assert m.avgdl == pytest.approx(mf.avgdl, rel=0, abs=0)
    assert m.generations == [g for g in m.generations]  # exactly one gen
    assert len(m.generations) == 1
    assert m.n_deleted == 0
    assert not os.path.exists(os.path.join(ix, "stats", "deleted.parquet"))
    # df table identical (integer-exact)
    def _df(d):
        t = pads.dataset(os.path.join(d, "stats", "df.parquet")).to_table()
        return sorted(zip(t.column("term").to_pylist(), t.column("df").to_pylist()))
    assert _df(ix) == _df(fresh)
    # search results identical. BM25/boolean are exactly equal (integer
    # dl/df + identical float op order); TF-IDF divides by the docstats
    # NORM — a float partial sum whose last ULP depends on block
    # boundaries (see stats.docstats_dataset), so it gets the repo-wide
    # 1e-9 tolerance with identical ranks.
    s_c, s_f = IndexSearcher(ix), IndexSearcher(fresh)
    for q in QUERIES:
        assert s_c.search_bm25(q, 30, algorithm="taat") == s_f.search_bm25(q, 30, algorithm="taat")
        assert s_c.search_bm25(q, 30, algorithm="wand") == s_f.search_bm25(q, 30, algorithm="wand")
        tf_c, tf_f = s_c.search_tfidf(q, 30), s_f.search_tfidf(q, 30)
        assert [d for d, _ in tf_c] == [d for d, _ in tf_f]
        assert np.allclose([s for _, s in tf_c], [s for _, s in tf_f],
                           rtol=0, atol=1e-9)
        assert s_c.search_boolean(q).tolist() == s_f.search_boolean(q).tolist()


def test_compact_noop_without_tombstones(tmp_path):
    ix = str(tmp_path / "ix")
    build_index(_ds(_texts(40)), ix, num_buckets=2)
    m0 = load_manifest(ix)
    m = compact(ix)
    assert m.n_docs == m0.n_docs and m.stage_done("done")


def test_stale_sidecar_is_inert(tmp_path):
    """Crash model: compact wrote the manifest (n_deleted=0) but died
    before unlinking the sidecar — the file must never be re-applied."""
    ix = str(tmp_path / "ix")
    build_index(_ds(_texts(40)), ix, num_buckets=2)
    os.makedirs(os.path.join(ix, "stats"), exist_ok=True)
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1], pa.int64())}),
        os.path.join(ix, "stats", "deleted.parquet"),
    )
    assert load_tombstones(ix).size == 0  # gated on manifest n_deleted
    s = IndexSearcher(ix)
    hit_docs = {d for q in QUERIES for d, _ in s.search_bm25(q, 50)}
    # docs 0/1 are not filtered (the sidecar is inert)
    assert load_manifest(ix).n_deleted == 0
    m = compact(ix)
    assert m.n_docs == 40  # no-op: nothing subtracted


def assert_matches_oracle(index_dir, docs):
    """BM25 (TAAT and WAND) and TF-IDF top-k equal to the serial oracle
    over ``docs`` ((doc_id, text) pairs): ranks identical, scores 1e-9."""
    oracle = OracleIndex().build(docs)
    s = IndexSearcher(index_dir)
    for q in QUERIES:
        want = oracle.search_bm25(q, 30)
        for alg in ("taat", "wand"):
            got = s.search_bm25(q, 30, algorithm=alg)
            assert [d for d, _ in got] == [d for d, _ in want], q
            assert np.allclose([v for _, v in got], [v for _, v in want],
                               rtol=0, atol=1e-9), q
        got, want = s.search_tfidf(q, 30), oracle.search_tfidf(q, 30)
        assert [d for d, _ in got] == [d for d, _ in want], q
        assert np.allclose([v for _, v in got], [v for _, v in want],
                           rtol=0, atol=1e-9), q


def test_delete_live_id_above_n_docs_after_compact(tmp_path):
    """After a compaction n_docs shrinks but ids are kept, so the highest
    surviving id is >= n_docs — it must still be deletable. Ids the
    compaction removed stay inside the doc-id domain, so deleting them
    again is accepted, but must not lower n_docs a second time."""
    texts = _texts(60)
    ix = str(tmp_path / "ix")
    build_index(_ds(texts), ix, num_buckets=2, num_salts=2)
    delete_documents(ix, list(range(0, 60, 3)))
    m = compact(ix)
    top = 59
    assert top >= m.n_docs  # the id the n_docs bound used to reject
    delete_documents(ix, [top])
    s = IndexSearcher(ix)
    assert all(top not in {d for d, _ in s.search_bm25(q, 60)} for q in QUERIES)
    with pytest.raises(ValueError):
        delete_documents(ix, [top + 1])
    delete_documents(ix, [0, 3])  # removed by the first compaction
    survivors = [(i, t) for i, t in enumerate(texts) if i % 3 and i != top]
    assert compact(ix).n_docs == len(survivors)
    assert_matches_oracle(ix, survivors)


def test_delete_docs_that_have_no_indexed_token(tmp_path):
    """A doc with no indexed token (empty or stopword-only text) counts in
    n_docs but has no docstats row. While ids are dense it is deletable
    and compaction matches the oracle. After a compaction removed ids, an
    id missing from docstats cannot be told from such a doc: the delete
    is refused before anything is written, and compact stays possible."""
    texts = _texts(40)
    texts[5] = ""
    texts[9] = "the and of"  # stopwords only
    ix = str(tmp_path / "ix")
    build_index(_ds(texts), ix, num_buckets=2, num_salts=2)
    delete_documents(ix, [2, 5])
    survivors = [(i, t) for i, t in enumerate(texts) if i not in (2, 5)]
    assert compact(ix).n_docs == len(survivors)
    assert_matches_oracle(ix, survivors)
    for ids in ([5], [9], [7, 2]):  # removed, unindexed, indexed + removed
        with pytest.raises(ValueError, match="no indexed token"):
            delete_documents(ix, ids)
    assert load_manifest(ix).n_deleted == 0
    assert not os.path.exists(tombstone_path(ix))
    delete_documents(ix, [7])
    survivors = [(i, t) for i, t in survivors if i != 7]
    assert compact(ix).n_docs == len(survivors)
    assert_matches_oracle(ix, survivors)


@pytest.mark.parametrize("mode", ["full", "tiered"])
def test_adds_record_whether_ids_stay_dense(tmp_path, mode):
    """An add that continues 0..n_docs-1 keeps the ids dense, so a doc
    with no indexed token stays deletable; an add that leaves a gap
    does not."""
    texts = _texts(50)
    texts[4] = ""
    ix = str(tmp_path / "ix")
    build_index(_ds(texts[:30]), ix, num_buckets=2, num_salts=2)
    add_documents(ix, _ds(texts[30:40], list(range(30, 40))), mode=mode)
    assert ids_dense(load_manifest(ix))
    delete_documents(ix, [4])
    survivors = [(i, t) for i, t in enumerate(texts[:40]) if i != 4]
    add_documents(ix, _ds(texts[40:], list(range(41, 51))), mode=mode)
    assert not ids_dense(load_manifest(ix))
    survivors += list(zip(range(41, 51), texts[40:]))
    assert compact(ix).n_docs == len(survivors)
    assert_matches_oracle(ix, survivors)
