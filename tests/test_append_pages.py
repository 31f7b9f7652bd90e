"""append_pages: grow a pages-built index from a NEW pages directory
without re-planning the old corpus — append == rebuild (per-url score
identity), keep-existing url semantics, idempotent re-run."""

import os

import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from pyfuseray.pages import synth_pages
from pyfuseray.pipeline import append_pages, build_from_pages
from pyfuseray.query import IndexSearcher

QUERIES = ["quick foxes jump", "flowers bloom spring", "search engine data"]


def _write_pages(tbl, path):
    os.makedirs(path, exist_ok=True)
    half = tbl.num_rows // 2
    pq.write_table(tbl.slice(0, half), os.path.join(path, "part-0.parquet"))
    pq.write_table(tbl.slice(half), os.path.join(path, "part-1.parquet"))


def _url_scores(index_dir, corpus_dir, q, k=20):
    """BM25 top-k as a {url: score} map (doc_ids differ between append
    and rebuild — urls are the stable identity)."""
    id2url = {}
    for d in os.listdir(corpus_dir):
        full = os.path.join(corpus_dir, d)
        if not os.path.isdir(full) or d.endswith(".writing"):
            continue
        if not (d == "corpus" or d.startswith("append_g")):
            continue
        t = pads.dataset(full, format="parquet").to_table(
            columns=["doc_id", "url"]
        )
        id2url.update(zip(t.column("doc_id").to_pylist(),
                          t.column("url").to_pylist()))
    s = IndexSearcher(index_dir)
    return {id2url[d]: round(score, 9)
            for d, score in s.search_bm25(q, k)}


@pytest.fixture(scope="module")
def appended(tmp_path_factory, ray_session):
    base = tmp_path_factory.mktemp("append")
    # batch A and batch B: disjoint url spaces via id_offset
    a = synth_pages(160, seed=3, null_text_frac=0.1, dup_frac=0.05)
    b = synth_pages(120, seed=4, null_text_frac=0.1, dup_frac=0.05,
                    id_offset=10_000)
    pages_a = str(base / "pages_a")
    pages_b = str(base / "pages_b")
    _write_pages(a, pages_a)
    _write_pages(b, pages_b)
    ix = str(base / "ix")
    cdir = str(base / "c")
    build_from_pages(pages_a, ix, corpus_dir=cdir, num_buckets=4,
                     overwrite=True)
    m = append_pages(ix, pages_b, corpus_dir=cdir, mode="tiered",
                     max_generations=10)
    # the rebuild reference: one-shot over A ∪ B
    pages_ab = str(base / "pages_ab")
    os.makedirs(pages_ab)
    for src, tag in ((pages_a, "a"), (pages_b, "b")):
        for f in os.listdir(src):
            os.symlink(os.path.join(src, f),
                       os.path.join(pages_ab, f"{tag}-{f}"))
    ix_ref = str(base / "ix_ref")
    cdir_ref = str(base / "c_ref")
    build_from_pages(pages_ab, ix_ref, corpus_dir=cdir_ref,
                     num_buckets=4, overwrite=True)
    return ix, cdir, ix_ref, cdir_ref, pages_b, m


def test_append_matches_rebuild_per_url(appended):
    ix, cdir, ix_ref, cdir_ref, pages_b, m = appended
    assert m.seg_generations  # genuinely tiered (no full re-merge ran)
    for q in QUERIES:
        got = _url_scores(ix, cdir, q)
        want = _url_scores(ix_ref, cdir_ref, q)
        assert got == want, q


def test_append_n_docs_matches_rebuild(appended):
    from pyfuseray.checkpoint import load_manifest

    ix, cdir, ix_ref, cdir_ref, pages_b, m = appended
    assert m.n_docs == load_manifest(ix_ref).n_docs
    assert abs(m.avgdl - load_manifest(ix_ref).avgdl) < 1e-12


def test_append_rerun_is_noop(appended):
    ix, cdir, ix_ref, cdir_ref, pages_b, m = appended
    m2 = append_pages(ix, pages_b, corpus_dir=cdir, mode="tiered",
                      max_generations=10)
    assert m2.n_docs == m.n_docs
    assert len(m2.generations) == len(m.generations)


def test_append_keeps_existing_url_rows(ray_session, tmp_path):
    """A url present in the indexed corpus survives an append that
    re-crawls it with different text (keep-existing)."""
    a = synth_pages(80, seed=5, null_text_frac=0.0, dup_frac=0.0)
    pages_a = str(tmp_path / "a")
    _write_pages(a, pages_a)
    ix = str(tmp_path / "ix")
    cdir = str(tmp_path / "c")
    build_from_pages(pages_a, ix, corpus_dir=cdir, num_buckets=4,
                     overwrite=True)
    n0 = IndexSearcher(ix).manifest.n_docs
    # re-crawl: same urls, overlapping + some new
    b = synth_pages(80, seed=6, null_text_frac=0.0, dup_frac=0.0)
    overlap = a.slice(0, 40)  # same urls AND text as indexed
    import pyarrow as pa

    b_new = b.slice(40, 40).set_column(
        b.schema.get_field_index("url"),
        "url",
        pa.array([f"https://new.example/{i}" for i in range(40)]),
    )
    pages_b = str(tmp_path / "b")
    _write_pages(pa.concat_tables([overlap, b_new]), pages_b)
    m = append_pages(ix, pages_b, corpus_dir=cdir, mode="tiered",
                     max_generations=10)
    # only the 40 genuinely-new urls were added
    assert m.n_docs == n0 + 40


def test_append_full_mode_matches_rebuild(ray_session, tmp_path):
    """mode='full' append: the merge consolidates everything -> the
    index serves every tier (tfidf included) and equals the rebuild."""
    a = synth_pages(100, seed=21, null_text_frac=0.0, dup_frac=0.0)
    b = synth_pages(60, seed=22, null_text_frac=0.0, dup_frac=0.0,
                    id_offset=10_000)
    pages_a, pages_b = str(tmp_path / "a"), str(tmp_path / "b")
    _write_pages(a, pages_a)
    _write_pages(b, pages_b)
    ix, cdir = str(tmp_path / "ix"), str(tmp_path / "c")
    build_from_pages(pages_a, ix, corpus_dir=cdir, num_buckets=4,
                     overwrite=True)
    m = append_pages(ix, pages_b, corpus_dir=cdir, mode="full")
    assert not m.seg_generations
    pages_ab = str(tmp_path / "ab")
    os.makedirs(pages_ab)
    for src, tag in ((pages_a, "a"), (pages_b, "b")):
        for f in os.listdir(src):
            os.symlink(os.path.join(src, f),
                       os.path.join(pages_ab, f"{tag}-{f}"))
    ix_ref, cdir_ref = str(tmp_path / "ixr"), str(tmp_path / "cr")
    build_from_pages(pages_ab, ix_ref, corpus_dir=cdir_ref, num_buckets=4,
                     overwrite=True)
    for q in QUERIES:
        got = _url_scores(ix, cdir, q)
        want = _url_scores(ix_ref, cdir_ref, q)
        assert got == want, q
    # tfidf works on the consolidated index (would raise on tiered)
    assert IndexSearcher(ix).search_tfidf(QUERIES[0], 5)


def test_delete_highest_appended_id(ray_session, tmp_path):
    """append_pages numbers new docs above url-collision holes, so the
    highest appended id exceeds n_docs - 1; deleting it must work and
    the compacted index must equal the oracle over the survivors. A hole
    id is inside the doc-id domain too, so it is accepted, but the
    compaction must not count it as a removed doc."""
    import pyarrow as pa

    from pyfuseray.deletes import compact, delete_documents
    from tests.test_deletes import assert_matches_oracle

    a = synth_pages(80, seed=5, null_text_frac=0.0, dup_frac=0.0)
    pages_a = str(tmp_path / "a")
    _write_pages(a, pages_a)
    ix, cdir = str(tmp_path / "ix"), str(tmp_path / "c")
    build_from_pages(pages_a, ix, corpus_dir=cdir, num_buckets=4,
                     overwrite=True)
    # 40 re-crawled urls + 40 new urls that sort after them: ids are
    # base + url rank, so the collisions leave a 40-id hole below them
    b = synth_pages(80, seed=6, null_text_frac=0.0, dup_frac=0.0)
    b_new = b.slice(40, 40).set_column(
        b.schema.get_field_index("url"), "url",
        pa.array([f"https://zz.example/{i:02d}" for i in range(40)]),
    )
    pages_b = str(tmp_path / "b")
    _write_pages(pa.concat_tables([a.slice(0, 40), b_new]), pages_b)
    m = append_pages(ix, pages_b, corpus_dir=cdir, mode="tiered",
                     max_generations=10)
    corpus = pads.dataset(cdir, format="parquet").to_table(
        columns=["doc_id", "text"])
    docs = sorted(zip(corpus.column("doc_id").to_pylist(),
                      corpus.column("text").to_pylist()))
    assert len(docs) == m.n_docs == 120
    top = docs[-1][0]
    assert top >= m.n_docs  # the id the n_docs bound used to reject
    ids = {d for d, _ in docs}
    hole = next(i for i in range(top) if i not in ids)
    delete_documents(ix, [top, hole])
    s = IndexSearcher(ix)
    assert all(top not in {d for d, _ in s.search_bm25(q, 120)}
               for q in QUERIES)
    assert compact(ix).n_docs == len(docs) - 1
    assert_matches_oracle(ix, docs[:-1])


def test_append_after_tokenless_highest_doc_keeps_ids_unique(
    ray_session, tmp_path
):
    """New docs are numbered above every CORPUS doc_id: the highest doc
    has no indexed token (no docstats row), and its id must not be
    handed out again."""
    import pyarrow as pa

    from pyfuseray.checkpoint import load_manifest
    from pyfuseray.incremental import ids_dense
    from pyfuseray.oracle import OracleIndex

    a = synth_pages(20, seed=21, null_text_frac=0.0)
    last = a.column("url").to_pylist().index(max(a.column("url").to_pylist()))
    texts = a.column("text").to_pylist()
    htmls = a.column("html").to_pylist()
    texts[last], htmls[last] = "", b"<html><body></body></html>"
    a = a.set_column(a.schema.get_field_index("text"), "text",
                     pa.array(texts, pa.string()))
    a = a.set_column(a.schema.get_field_index("html"), "html",
                     pa.array(htmls, pa.binary()))
    b = synth_pages(5, seed=22, null_text_frac=0.0, id_offset=10_000)
    _write_pages(a, str(tmp_path / "pa"))
    _write_pages(b, str(tmp_path / "pb"))
    ix, cdir = str(tmp_path / "ix"), str(tmp_path / "c")
    build_from_pages(str(tmp_path / "pa"), ix, corpus_dir=cdir,
                     num_buckets=4, overwrite=True)
    append_pages(ix, str(tmp_path / "pb"), corpus_dir=cdir)

    corpus = pads.dataset(os.path.join(cdir, "corpus")).to_table()
    top = corpus.column("doc_id").to_pylist().index(
        max(corpus.column("doc_id").to_pylist()))
    assert corpus.column("text")[top].as_py() == ""  # the scenario holds
    rows = {}
    for d in ("corpus", "append_g1"):
        t = pads.dataset(os.path.join(cdir, d)).to_table(
            columns=["doc_id", "text"])
        for i, txt in zip(t.column("doc_id").to_pylist(),
                          t.column("text").to_pylist()):
            assert i not in rows, f"doc_id {i} appears twice"
            rows[i] = txt or ""
    m = load_manifest(ix)
    assert len(rows) == m.n_docs == 25
    assert ids_dense(m)
    oracle = OracleIndex().build(sorted(rows.items()))
    s = IndexSearcher(ix)
    for q in QUERIES:
        want, got = oracle.search_bm25(q, 10), s.search_bm25(q, 10)
        assert [d for d, _ in got] == [d for d, _ in want], q
        assert all(abs(x - y) < 1e-9 for (_, x), (_, y) in zip(got, want)), q
