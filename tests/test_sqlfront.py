"""Mini-SQL grammar + execution (mirrors reference SqlParser tests)."""

import pytest
import ray.data as rd

from pyfuseray.build import build_index
from pyfuseray.sqlfront import execute_sql, parse_query, to_duckdb_sql
from tests.corpora import PANGRAM_DOCS


def test_parse_basic():
    p = parse_query("SELECT url, text FROM pages LIKE quick fox LIMIT 5")
    assert p.fields == ["url", "text"]
    assert p.table == "pages"
    assert p.like_term == "quick fox"
    assert p.limit == 5


def test_parse_liketo_and_case():
    p = parse_query("select URL from PAGES LIKETO Flower Garden")
    assert p.fields == ["url"]
    assert p.like_term == "flower garden"
    assert p.limit is None


def test_parse_star_and_no_like():
    p = parse_query("SELECT * FROM pages")
    assert p.fields == ["*"] and p.like_term is None


def test_parse_error_defaults():
    # reference behavior: defaults on parse error (SqlParser.py:47-54)
    p = parse_query("garbage in garbage out")
    assert p.fields == ["*"] and p.like_term is None
    assert p.table == "pages"


def test_to_duckdb_sql():
    sql = to_duckdb_sql("SELECT doc_id FROM documents LIKE quick fox LIMIT 3",
                        default_table="documents")
    assert sql == (
        "SELECT doc_id FROM documents WHERE lower(text) LIKE '%quick%' "
        "AND lower(text) LIKE '%fox%' LIMIT 3"
    )


@pytest.fixture(scope="module")
def sql_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("sqlfront")
    corpus_path = str(root / "corpus.parquet")
    import pyarrow as pa
    import pyarrow.parquet as pq

    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(PANGRAM_DOCS)), pa.int64()),
            "url": pa.array([f"u{i}" for i in range(len(PANGRAM_DOCS))], pa.string()),
            "text": pa.array(PANGRAM_DOCS, pa.string()),
        }
    )
    pq.write_table(tbl, corpus_path)
    ix = str(root / "ix")
    build_index(
        rd.from_arrow(tbl).select_columns(["doc_id", "text"]), ix,
        num_buckets=2, overwrite=True,
    )
    return ix, corpus_path


def test_execute_like(sql_env):
    ix, corpus = sql_env
    out = execute_sql("SELECT url, text FROM pages LIKE quick fox LIMIT 3", ix, corpus)
    assert out.num_rows == 3
    assert out.column_names == ["url", "text", "score", "score_fmt"]
    scores = out.column("score").to_pylist()
    assert scores == sorted(scores, reverse=True)
    # score_fmt mirrors the reference's f"{score:.2f}"
    assert all(f == f"{s:.2f}" for s, f in zip(scores, out.column("score_fmt").to_pylist()))


def test_execute_star_and_alias(sql_env):
    ix, corpus = sql_env
    out = execute_sql("SELECT * FROM pages LIKE wizard", ix, corpus)
    assert "doc_id" in out.column_names and "score" in out.column_names
    out2 = execute_sql("SELECT page FROM pages LIKE wizard", ix, corpus)
    assert out2.column_names == ["url", "score", "score_fmt"]


def test_execute_plain_scan(sql_env):
    ix, corpus = sql_env
    out = execute_sql("SELECT url FROM pages LIMIT 4", ix, corpus, top_k=4)
    assert out.num_rows == 4 and out.column_names == ["url"]


def test_execute_no_hits(sql_env):
    ix, corpus = sql_env
    out = execute_sql("SELECT url FROM pages LIKE zzzznothere", ix, corpus)
    assert out.num_rows == 0
    assert "score" in out.column_names


def test_execute_unknown_column(sql_env):
    ix, corpus = sql_env
    with pytest.raises(KeyError):
        execute_sql("SELECT nope FROM pages LIKE quick", ix, corpus)


def test_dedup_results_keep_first():
    import pyarrow as pa

    from pyfuseray.sqlfront import dedup_results_keep_first

    tbl = pa.table({"track": ["a", "b", "a", "c", "b"], "score": [5.0, 4.0, 3.0, 2.0, 1.0]})
    out = dedup_results_keep_first(tbl, "track")
    assert out.column("track").to_pylist() == ["a", "b", "c"]
    assert out.column("score").to_pylist() == [5.0, 4.0, 2.0]


def test_dedup_results_keep_max_score():
    import pyarrow as pa

    from pyfuseray.sqlfront import dedup_results_keep_max_score

    tbl = pa.table(
        {
            "url": ["u1", "u2", "u1", "u3"],
            "score": [1.0, 5.0, 3.0, 2.0],
            "score_fmt": ["1.00", "5.00", "3.00", "2.00"],
        }
    )
    out = dedup_results_keep_max_score(tbl)
    assert out.column("url").to_pylist() == ["u2", "u1", "u3"]
    assert out.column("score").to_pylist() == [5.0, 3.0, 2.0]


def _isin_materialize(corpus_path, hits):
    """The dataset-scan materialize this module used before footer-pruned
    reads: rows matching the hit ids in rank order, with their scores."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads

    corpus = pads.dataset(corpus_path, format="parquet")
    full = corpus.to_table(filter=pads.field("doc_id").isin([d for d, _ in hits]))
    rank = {d: r for r, (d, _) in enumerate(hits)}
    ids = full.column("doc_id").to_pylist()
    full = full.take(pa.array(np.argsort([rank[d] for d in ids], kind="stable")))
    return full, [dict(hits)[d] for d in full.column("doc_id").to_pylist()]


@pytest.fixture(scope="module")
def pages_env(tmp_path_factory, ray_session):
    """A pages-built index and its corpus dir, before and after an
    append_pages (whose rows land under corpus_dir/append_g1/)."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from pyfuseray.pages import synth_pages
    from pyfuseray.pipeline import append_pages, build_from_pages

    root = tmp_path_factory.mktemp("sql_pages")
    for name, seed, off in (("a", 3, 0), ("b", 4, 10_000)):
        tbl = synth_pages(120, seed=seed, null_text_frac=0.0, dup_frac=0.0,
                          id_offset=off)
        os.makedirs(root / name)
        for i in range(3):  # a sharded pages input
            pq.write_table(tbl.slice(40 * i, 40), str(root / name / f"p{i}.parquet"))
    ix, cdir = str(root / "ix"), str(root / "c")
    build_from_pages(str(root / "a"), ix, corpus_dir=cdir, num_buckets=4,
                     overwrite=True)
    ix0, cdir0 = str(root / "ix0"), str(root / "c0")
    shutil.copytree(ix, ix0)
    shutil.copytree(cdir, cdir0)
    append_pages(ix, str(root / "b"), corpus_dir=cdir, mode="tiered",
                 max_generations=10)
    assert os.listdir(os.path.join(cdir, "append_g1"))
    return ix0, cdir0, ix, cdir


SQL_QUERIES = ["quick foxes jump", "flowers bloom spring", "search engine data"]


def _files(d):
    import os

    return sorted(os.path.join(dp, f) for dp, _, fs in os.walk(d)
                  for f in fs if f.endswith(".parquet"))


@pytest.mark.parametrize("state", ["built", "appended"])
def test_execute_materialize_matches_isin_scan(pages_env, state):
    import os

    import pyarrow.parquet as pq

    from pyfuseray.query import IndexSearcher

    ix0, cdir0, ix, cdir = pages_env
    if state == "built":
        # tfidf on the single-generation index; directory and file list
        ix, scoring = ix0, "tfidf"
        forms = [os.path.join(cdir0, "corpus"), _files(os.path.join(cdir0, "corpus"))]
    else:
        # the tiered index serves BM25; the list spans corpus/ + append_g1/
        scoring = "bm25"
        forms = [cdir, _files(cdir)]
        assert any("append_g1" in f for f in forms[1])
    s = IndexSearcher(ix)
    base_max = max(
        max(pq.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist())
        for f in _files(os.path.join(cdir0, "corpus"))
    )
    appended_hit = False
    for q in SQL_QUERIES:
        hits = s.search_bm25(q, 10) if scoring == "bm25" else s.search_tfidf(q, 10)
        assert hits, q
        appended_hit |= any(d > base_max for d, _ in hits)
        for corpus_path in forms:
            want, scores = _isin_materialize(corpus_path, hits)
            for fields in ("*", "url, text"):
                got = execute_sql(f"SELECT {fields} FROM pages LIKE {q}", ix,
                                  corpus_path, scoring=scoring, searcher=s)
                cols = want.column_names if fields == "*" else ["url", "text"]
                assert got.select(cols).equals(want.select(cols)), (q, fields)
                assert got.column("score").to_pylist() == scores
                assert got.column("score_fmt").to_pylist() == [f"{v:.2f}" for v in scores]
    assert appended_hit == (state == "appended")


@pytest.mark.parametrize("form", ["dir", "list"])
def test_materialize_reads_only_selected_columns(pages_env, form, monkeypatch):
    """The ranked materialize reads doc_id plus the SELECT's columns after
    alias mapping (all of them for ``*``); an unknown column raises
    KeyError before anything is read."""
    import os

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from pyfuseray.query import IndexSearcher

    ix0, cdir0, _, _ = pages_env
    corpus = os.path.join(cdir0, "corpus")
    corpus_path = corpus if form == "dir" else _files(corpus)
    every = pads.dataset(corpus_path, format="parquet").schema.names
    s = IndexSearcher(ix0)
    q = SQL_QUERIES[0]
    hits = s.search_tfidf(q, 10)  # the row cache now holds q's terms
    want, scores = _isin_materialize(corpus_path, hits)
    seen: list = []
    real = pq.ParquetFile.read_row_groups

    def spy(self, row_groups, *a, columns=None, **kw):
        seen.append(columns)
        return real(self, row_groups, *a, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    cases = {
        "*": (every, every),
        "url": (["url"], ["doc_id", "url"]),
        "page, body": (["url", "text"], ["doc_id", "url", "text"]),
        "text, doc_id": (["text", "doc_id"], ["doc_id", "text"]),
    }
    for fields, (out_cols, read_cols) in cases.items():
        seen.clear()
        got = execute_sql(f"SELECT {fields} FROM pages LIKE {q}", ix0,
                          corpus_path, searcher=s)
        assert got.column_names == out_cols + ["score", "score_fmt"], fields
        assert got.select(out_cols).equals(want.select(out_cols)), fields
        assert got.column("score").to_pylist() == scores
        assert seen and all(c == read_cols for c in seen), (fields, seen)
    seen.clear()
    with pytest.raises(KeyError, match="nope"):
        execute_sql(f"SELECT url, nope FROM pages LIKE {q}", ix0,
                    corpus_path, searcher=s)
    assert seen == []


def test_corpus_footer_cache_follows_added_and_rewritten_files(
        pages_env, tmp_path, monkeypatch):
    """One searcher's cached corpus footers give the same rows as a fresh
    execute_sql without a searcher when files join the corpus (an
    append_pages generation) and when a file is rewritten in place."""
    import os
    import shutil

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from pyfuseray.query import IndexSearcher

    _, _, ix, cdir = pages_env
    c = str(tmp_path / "c")  # a copy: the module fixture stays intact
    shutil.copytree(cdir, c)
    base_files = _files(os.path.join(c, "corpus"))
    s = IndexSearcher(ix)
    footer_reads: list[str] = []
    real = pq.read_metadata

    def counting(path, *a, **kw):
        footer_reads.append(path)
        return real(path, *a, **kw)

    monkeypatch.setattr(pq, "read_metadata", counting)

    def same(corpus_path):
        outs = []
        for q in SQL_QUERIES:
            sql = f"SELECT * FROM pages LIKE {q}"
            got = execute_sql(sql, ix, corpus_path, scoring="bm25", searcher=s)
            want = execute_sql(sql, ix, corpus_path, scoring="bm25")
            assert got.equals(want), q
            outs.append(got)
        return outs

    # the tiered index already holds append_g1's docs: hits without a
    # corpus row are dropped by both sides alike
    same(base_files)
    assert list(s._corpus_footers) == base_files
    footer_reads.clear()
    for q in SQL_QUERIES:  # unchanged files: no footer is read again
        execute_sql(f"SELECT url FROM pages LIKE {q}", ix, base_files,
                    scoring="bm25", searcher=s)
    assert footer_reads == []
    # append_pages' files join the list: only their footers are read
    same(c)
    appended = _files(os.path.join(c, "append_g1"))
    assert appended and sorted(s._corpus_footers) == _files(c)
    # files rewritten in place (new size and mtime): footers are re-read
    upper = set()
    for f in appended:
        t = pq.read_table(f)
        t = t.set_column(t.column_names.index("text"), "text",
                         pc.utf8_upper(t.column("text")))
        pq.write_table(t, f, row_group_size=5)
        upper.update(t.column("text").to_pylist())
    outs = same(c)
    assert any(v in upper for o in outs for v in o.column("text").to_pylist())
    # an mtime-only change also invalidates the entry
    footer_reads.clear()
    f = appended[0]
    st = os.stat(f)
    os.utime(f, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    execute_sql(f"SELECT url FROM pages LIKE {SQL_QUERIES[0]}", ix, c,
                scoring="bm25", searcher=s)
    assert [p for p in footer_reads if p == f] == [f]
    # files no longer listed are dropped
    same(base_files)
    assert list(s._corpus_footers) == base_files


def test_corpus_listing_and_mixed_codecs(pages_env, tmp_path, monkeypatch):
    """A corpus dir is listed as a dataset scan lists it (recursive
    through symlinked subdirs, sorted, names starting with ``.`` or
    ``_`` skipped), and a corpus
    whose base files carry the old snappy layout while append_pages'
    files are LZ4 answers like the old scan and a searcher-less call."""
    import os
    import shutil

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from pyfuseray.query import IndexSearcher

    _, _, ix, cdir = pages_env
    c = str(tmp_path / "c")
    shutil.copytree(cdir, c)
    for f in _files(os.path.join(c, "corpus")):  # the pre-LZ4 options
        pq.write_table(pq.read_table(f), f, row_group_size=64,
                       write_statistics=["doc_id", "url", "warc_ts"])
    codecs = {f: pq.read_metadata(f).row_group(0).column(0).compression
              for f in _files(c)}
    assert set(codecs.values()) == {"SNAPPY", "LZ4"}
    appended = _files(os.path.join(c, "append_g1"))
    assert all(codecs[f] == "LZ4" for f in appended)
    # a symlinked subdir is listed through the link, as a scan lists it
    shutil.move(os.path.join(c, "append_g1"), str(tmp_path / "g1"))
    os.symlink(str(tmp_path / "g1"), os.path.join(c, "append_g1"))
    # debris a scan skips; the hidden copy would duplicate rows if read
    open(os.path.join(c, "_SUCCESS"), "w").close()
    shutil.copy(appended[0], os.path.join(c, "append_g1", ".hidden.parquet"))
    os.makedirs(os.path.join(c, "_tmp"))
    shutil.copy(appended[0], os.path.join(c, "_tmp", "part.parquet"))
    listed = pads.dataset(c, format="parquet").files
    assert listed == sorted(_files(os.path.join(c, "corpus")) + appended)
    # the plain scan reads the same listing
    assert execute_sql("SELECT * FROM pages LIMIT 70", ix, c).equals(
        pads.dataset(c, format="parquet").head(70))

    footer_reads: list[str] = []
    real = pq.read_metadata

    def counting(path, *a, **kw):
        footer_reads.append(path)
        return real(path, *a, **kw)

    monkeypatch.setattr(pq, "read_metadata", counting)
    s = IndexSearcher(ix)
    for q in SQL_QUERIES:
        sql = f"SELECT * FROM pages LIKE {q}"
        got = execute_sql(sql, ix, c, scoring="bm25", searcher=s)
        assert got.equals(execute_sql(sql, ix, c, scoring="bm25")), q
        want, scores = _isin_materialize(c, s.search_bm25(q, 10))
        assert got.drop_columns(["score", "score_fmt"]).equals(want), q
        assert got.column("score").to_pylist() == scores, q
    assert list(s._corpus_footers) == listed
    assert {p for p in footer_reads if p.startswith(c)} == set(listed)
