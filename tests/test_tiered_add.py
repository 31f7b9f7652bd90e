"""Tiered (log-structured) incremental adds: merge input bounded to the
new generation, BM25/boolean bit-identical to a fresh build, stale
tiers gated (not wrong), compaction == fresh build."""

import os

import pyarrow as pa
import pytest
import ray.data as rd

from pyfuseray.build import build_index
from pyfuseray.checkpoint import load_manifest
from pyfuseray.incremental import add_documents, compact_tiers
from pyfuseray.pages import synth_pages
from pyfuseray.query import IndexSearcher

QUERIES = ["quick fox", "wizard", "love", "flower bloom", "dog cat run"]


def _texts(n=240, seed=7):
    t = synth_pages(n, seed=seed, null_text_frac=0.0, dup_frac=0.0,
                    vocab_size=500, words_per_doc=(20, 60))
    return [x if x else "fallback words" for x in t.column("text").to_pylist()]


def _ds(texts, start):
    ids = list(range(start, start + len(texts)))
    return rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))


@pytest.fixture(scope="module")
def tiered(tmp_path_factory, ray_session):
    texts = _texts()
    third = len(texts) // 3
    base = tmp_path_factory.mktemp("tiered")
    one = str(base / "oneshot")
    tod = str(base / "tiered")
    build_index(_ds(texts, 0), one, num_buckets=4, num_salts=2)
    build_index(_ds(texts[:third], 0), tod, num_buckets=4, num_salts=2)
    # two tiered adds, neither triggering auto-compaction
    add_documents(tod, _ds(texts[third : 2 * third], third),
                  mode="tiered", max_generations=10)
    m = add_documents(tod, _ds(texts[2 * third :], 2 * third),
                      mode="tiered", max_generations=10)
    return one, tod, m, texts


def test_merge_input_bounded_to_new_generation(tiered):
    """The evidence ask: a tiered add's merge shuffle consumes ONLY the
    new generation's run rows (recorded in the stage mark), and the
    base postings/segments are untouched on disk."""
    one, tod, m, texts = tiered
    assert m.seg_generations == ["segments_g1", "segments_g2"]
    third = len(texts) // 3
    for gen in ("g1", "g2"):
        stage = m.stages[f"tiered_add_{gen}"]
        gen_rows = rd.read_parquet(
            os.path.join(tod, f"postings_raw_{gen}")
        ).count()
        assert stage["merge_input_rows"] == gen_rows
        # the whole index holds ~3x one generation's postings: the
        # recorded merge input must be generation-sized, not index-sized
        total_rows = sum(
            rd.read_parquet(os.path.join(tod, g)).count()
            for g in m.generations
        )
        assert stage["merge_input_rows"] < total_rows / 2
    # base segments not rebuilt: bucket marks still from the initial
    # build (a full re-merge would have rewritten them)
    assert m.stage_done("done")


def test_bm25_and_boolean_bit_identical_to_fresh_build(tiered):
    one, tod, m, texts = tiered
    s1 = IndexSearcher(one)
    s2 = IndexSearcher(tod)
    for q in QUERIES:
        a = s1.search_bm25(q, 10, algorithm="taat")
        b = s2.search_bm25(q, 10)  # auto -> taat on multi-gen
        assert a == b, q  # ids AND float bits
        assert (
            s1.search_boolean(q, mode="and").tolist()
            == s2.search_boolean(q, mode="and").tolist()
        ), q
        assert (
            s1.search_boolean(q, mode="or").tolist()
            == s2.search_boolean(q, mode="or").tolist()
        ), q


def test_tiered_add_skips_segments_docstats_decode(ray_session, tmp_path, monkeypatch):
    """A staged generation's docstats come from its runs: nothing reads its
    norms before a fold, and its dl is the same integer on either route.
    With the segments decode made to raise, a tiered add still succeeds
    and BM25 stays bit-identical to a fresh build."""
    import pyfuseray.build as build_mod

    texts = _texts(120, seed=11)
    half = len(texts) // 2
    one, tod = str(tmp_path / "oneshot"), str(tmp_path / "tiered")
    build_index(_ds(texts, 0), one, num_buckets=4)
    build_index(_ds(texts[:half], 0), tod, num_buckets=4)

    def no_segments_decode(*args, **kwargs):
        raise AssertionError("staged build decoded its segments for docstats")

    monkeypatch.setattr(build_mod, "docstats_dataset", no_segments_decode)
    add_documents(tod, _ds(texts[half:], half), mode="tiered", max_generations=10)
    s1, s2 = IndexSearcher(one), IndexSearcher(tod)
    for q in QUERIES:
        assert s1.search_bm25(q, 10, algorithm="taat") == s2.search_bm25(q, 10), q


def test_stale_tiers_gated_not_wrong(tiered):
    one, tod, m, texts = tiered
    s2 = IndexSearcher(tod)
    with pytest.raises(RuntimeError, match="compact_tiers"):
        s2.search_tfidf("quick fox", 5)
    from pyfuseray.distributed_query import bulk_search

    for mode in ("broadcast", "ranged"):
        with pytest.raises(RuntimeError, match="compact_tiers"):
            bulk_search(tod, ["quick fox"], 5, docstats_mode=mode)
    from pyfuseray.resident import ResidentTextSearcher, ensure_resident_layout

    with pytest.raises(RuntimeError, match="compact_tiers"):
        ensure_resident_layout(tod)
    with pytest.raises(RuntimeError, match="compact_tiers"):
        ResidentTextSearcher(tod, n_shards=2)
    # explicit wand falls back to exact TAAT (custom-params contract)
    s1 = IndexSearcher(one)
    for q in QUERIES[:2]:
        assert s2.search_bm25(q, 10, algorithm="wand") == s1.search_bm25(
            q, 10, algorithm="taat"
        ), q


def test_crash_inside_staged_build_leaves_index_unchanged(
    tiered, tmp_path, monkeypatch
):
    """A tiered add builds its generation with build_index in a staging
    dir: a crash inside that build leaves the index manifest as it was
    and the answers right, a rerun of the same add succeeds, and no
    staging path is left."""
    import shutil

    from pyfuseray import build
    from pyfuseray.oracle import OracleIndex

    _, tod, _, texts = tiered
    ix = str(tmp_path / "ix")
    shutil.copytree(tod, ix)
    extra = _texts(30, seed=19)
    docs = dict(enumerate(texts))

    def assert_matches_oracle():
        oracle = OracleIndex().build(sorted(docs.items()))
        s = IndexSearcher(ix)
        for q in QUERIES:
            want, got = oracle.search_bm25(q, 10), s.search_bm25(q, 10)
            assert [d for d, _ in got] == [d for d, _ in want], q
            assert all(abs(x - y) < 1e-9
                       for (_, x), (_, y) in zip(got, want)), q

    with open(os.path.join(ix, "manifest.json")) as fh:
        before = fh.read()
    real = build.save_manifest

    def save(index_dir, m):
        if index_dir.endswith(".staging"):
            raise RuntimeError("simulated crash")
        real(index_dir, m)

    monkeypatch.setattr(build, "save_manifest", save)
    with pytest.raises(RuntimeError, match="simulated crash"):
        add_documents(ix, _ds(extra, len(texts)), mode="tiered",
                      max_generations=10)
    monkeypatch.undo()
    with open(os.path.join(ix, "manifest.json")) as fh:
        assert fh.read() == before
    assert_matches_oracle()

    m = add_documents(ix, _ds(extra, len(texts)), mode="tiered",
                      max_generations=10)
    assert m.seg_generations == ["segments_g1", "segments_g2", "segments_g3"]
    docs.update(enumerate(extra, len(texts)))
    assert_matches_oracle()
    assert not [p for p in os.listdir(ix) if p.endswith(".staging")]


def test_compact_tiers_equals_fresh_build(tiered):
    import numpy as np
    import pyarrow.dataset as pads

    from pyfuseray.codec import decode_postings

    def _decoded(index_dir):
        tbl = pads.dataset(
            os.path.join(index_dir, "segments"), format="parquet"
        ).to_table(columns=["term", "df", "blob", "offset"])
        out = {}
        for i in range(tbl.num_rows):
            d, t = decode_postings(
                tbl.column("blob")[i].as_py(),
                np.asarray(tbl.column("offset")[i].as_py(), dtype=np.int64),
            )
            out[tbl.column("term")[i].as_py()] = (
                int(tbl.column("df")[i].as_py()),
                list(zip(d.tolist(), t.tolist())),
            )
        return out

    one, tod, m, texts = tiered
    m2 = compact_tiers(tod)
    assert m2.seg_generations == []
    m1 = load_manifest(one)
    # posting-for-posting identical (codec BLOCK boundaries legitimately
    # differ — merged runs restart blocks at generation boundaries — so
    # raw checksums are not comparable, same as full-mode incremental)
    assert _decoded(tod) == _decoded(one)
    assert {k: v["n_postings"] for k, v in m2.buckets.items()} == {
        k: v["n_postings"] for k, v in m1.buckets.items()
    }
    assert m2.n_docs == m1.n_docs
    assert abs(m2.avgdl - m1.avgdl) < 1e-9
    # per-generation dirs cleaned up
    assert not any(
        d.startswith("segments_g") for d in os.listdir(tod)
    )
    s1, s2 = IndexSearcher(one), IndexSearcher(tod)
    for q in QUERIES:
        assert s2.search_bm25(q, 10) == s1.search_bm25(q, 10), q
        # tfidf norms: w^2 partials combine in shuffle order (stats.py
        # docstring) — rank identity + 1e-9 scores, the suite-wide bar
        a, b = s2.search_tfidf(q, 10), s1.search_tfidf(q, 10)
        assert [d for d, _ in a] == [d for d, _ in b], q
        assert all(
            abs(x - y) < 1e-9 for (_, x), (_, y) in zip(a, b)
        ), q


def test_auto_compaction_at_max_generations(ray_session, tmp_path):
    texts = _texts(120, seed=11)
    half = len(texts) // 2
    quarter = len(texts) // 4
    ix = str(tmp_path / "auto")
    build_index(_ds(texts[:half], 0), ix, num_buckets=4)
    add_documents(ix, _ds(texts[half : half + quarter], half),
                  mode="tiered", max_generations=2)
    m = load_manifest(ix)
    assert m.seg_generations == ["segments_g1"]
    # second tiered add reaches max_generations=2 -> auto compact
    m = add_documents(ix, _ds(texts[half + quarter :], half + quarter),
                      mode="tiered", max_generations=2)
    assert m.seg_generations == []
    one = str(tmp_path / "one")
    build_index(_ds(texts, 0), one, num_buckets=4)
    s1, s2 = IndexSearcher(one), IndexSearcher(ix)
    for q in QUERIES:
        assert s2.search_bm25(q, 10) == s1.search_bm25(q, 10), q


def test_tombstone_compact_consolidates_tiers(ray_session, tmp_path):
    """deletes.compact on a tiered index folds the tiered generations
    too: one consolidated segment set, seg_generations cleared, results
    == fresh build over the surviving corpus."""
    from pyfuseray.deletes import compact, delete_documents

    texts = _texts(120, seed=13)
    half = len(texts) // 2
    ix = str(tmp_path / "ix")
    build_index(_ds(texts[:half], 0), ix, num_buckets=4)
    add_documents(ix, _ds(texts[half:], half),
                  mode="tiered", max_generations=10)
    victims = [1, half + 1]
    delete_documents(ix, victims)
    m = compact(ix)
    assert m.seg_generations == []
    assert not any(d.startswith("segments_g") for d in os.listdir(ix))
    survivors = [t for i, t in enumerate(texts) if i not in victims]
    keep_ids = [i for i in range(len(texts)) if i not in victims]
    one = str(tmp_path / "one")
    build_index(
        rd.from_arrow(pa.table({"doc_id": keep_ids, "text": survivors})),
        one, num_buckets=4,
    )
    s1, s2 = IndexSearcher(one), IndexSearcher(ix)
    for q in QUERIES:
        assert s2.search_bm25(q, 10) == s1.search_bm25(q, 10), q


def _assert_folded_and_same(ix, pairs):
    """No tiered generation is left in ``ix``, and each (want, got)
    top-k pair has identical ids and scores within 1e-9."""
    assert load_manifest(ix).seg_generations == []
    assert not any(d.startswith("segments_g") for d in os.listdir(ix))
    for q, want, got in pairs:
        assert [d for d, _ in got] == [d for d, _ in want], q
        assert all(abs(x - y) < 1e-9 for (_, x), (_, y) in zip(got, want)), q


def test_full_add_after_tiered_add_equals_fresh_build(ray_session, tmp_path):
    """A full add folds the tiered generations a tiered add left: the
    index equals a fresh build over every doc."""
    texts = _texts(20, seed=17)
    ix = str(tmp_path / "ix")
    build_index(_ds(texts[:10], 0), ix, num_buckets=4)
    add_documents(ix, _ds(texts[10:15], 10), mode="tiered", max_generations=10)
    m = add_documents(ix, _ds(texts[15:], 15))
    assert m.generations == ["postings_raw", "postings_raw_g1", "postings_raw_g2"]
    one = str(tmp_path / "one")
    build_index(_ds(texts, 0), one, num_buckets=4)
    s1, s2 = IndexSearcher(one), IndexSearcher(ix)
    _assert_folded_and_same(ix, [
        (q, f(s1, q), f(s2, q))
        for q in QUERIES + ["fox dog"]
        for f in (lambda s, q: s.search_bm25(q, 10, algorithm="taat"),
                  lambda s, q: s.search_bm25(q, 10, algorithm="wand"),
                  lambda s, q: s.search_tfidf(q, 10))
    ])
    # the corpus=None resume writes docstats as one file, not one per
    # read block
    files = os.listdir(os.path.join(ix, "stats", "docstats.parquet"))
    assert len(files) == 1 and files[0].endswith(".parquet"), files


def test_full_append_after_tiered_append_matches_oracle(ray_session, tmp_path):
    """The same through append_pages: tiered append, then full append;
    the index answers like the oracle over every corpus doc."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from pyfuseray.oracle import OracleIndex
    from pyfuseray.pipeline import append_pages, build_from_pages

    cdir = str(tmp_path / "c")
    ix = str(tmp_path / "ix")
    for g, (n, seed) in enumerate(((40, 5), (20, 6), (20, 7))):
        pages = str(tmp_path / f"pages{g}")
        os.makedirs(pages)
        pq.write_table(
            synth_pages(n, seed=seed, null_text_frac=0.1,
                        id_offset=1000 * g),
            os.path.join(pages, "part-0.parquet"),
        )
        if g == 0:
            build_from_pages(pages, ix, corpus_dir=cdir, num_buckets=4)
        else:
            append_pages(ix, pages, corpus_dir=cdir,
                         mode="tiered" if g == 1 else "full",
                         max_generations=10)
    docs = pa.concat_tables(
        pads.dataset(os.path.join(cdir, d)).to_table(columns=["doc_id", "text"])
        for d in ("corpus", "append_g1", "append_g2")
    )
    ids = docs.column("doc_id").to_pylist()
    assert len(ids) == len(set(ids)) == load_manifest(ix).n_docs
    oracle = OracleIndex().build(
        list(zip(ids, (t or "" for t in docs.column("text").to_pylist())))
    )
    s = IndexSearcher(ix)
    _assert_folded_and_same(ix, [
        pair
        for q in QUERIES
        for pair in ((q, oracle.search_bm25(q, 10), s.search_bm25(q, 10)),
                     (q, oracle.search_bm25(q, 10),
                      s.search_bm25(q, 10, algorithm="wand")),
                     (q, oracle.search_tfidf(q, 10), s.search_tfidf(q, 10)))
    ])
