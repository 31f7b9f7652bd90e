"""Per-file-group resumable ingest (VERDICT r3 #9): a crash mid-corpus
checkpoint resumes from the finished groups — never redoing their
extract — and the finished index is bit-identical to an uninterrupted
build."""

import json
import os

import pyarrow.parquet as pq
import pytest

import pyfuseray.pipeline as pipeline
from pyfuseray.checkpoint import Manifest
from pyfuseray.pages import synth_pages
from pyfuseray.pipeline import build_from_pages
from pyfuseray.query import IndexSearcher


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    """4 parquet shards, 2400 pages, with dups + null texts."""
    d = tmp_path_factory.mktemp("pages_shards")
    tbl = synth_pages(2400, seed=11, null_text_frac=0.1, dup_frac=0.05)
    for i in range(4):
        pq.write_table(tbl.slice(i * 600, 600), str(d / f"part-{i}.parquet"))
    return str(d)


def _checksums(m: Manifest) -> dict:
    return {k: (v["checksum"], v["n_postings"]) for k, v in m.buckets.items()}


def test_crash_resume_identical(ray_session, pages_dir, tmp_path, monkeypatch):
    # reference: uninterrupted resumable-route build
    ref = build_from_pages(
        pages_dir, str(tmp_path / "ix_ref"),
        corpus_dir=str(tmp_path / "corp_ref"),
        ingest_groups=4, num_buckets=2, overwrite=True,
    )

    # crash after 2 finished groups: the manifest writer raises on its
    # 3rd call (group writes 0 and 1 landed atomically before it)
    calls = {"n": 0}
    real = pipeline._atomic_json

    def crashing(path, obj):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise RuntimeError("simulated crash mid-ingest")
        real(path, obj)

    monkeypatch.setattr(pipeline, "_atomic_json", crashing)
    with pytest.raises(RuntimeError, match="simulated crash"):
        build_from_pages(
            pages_dir, str(tmp_path / "ix"),
            corpus_dir=str(tmp_path / "corp"),
            ingest_groups=4, ingest_concurrency=1,
            num_buckets=2, overwrite=True,
        )
    pre = tmp_path / "corp" / "pre"
    man = tmp_path / "corp" / "ingest_manifest.json"
    assert man.exists()
    assert json.loads(man.read_text())["done"] == [0, 1]

    # resume: finished groups are skipped (their extract never reruns —
    # the manifest writer only sees NEW groups), the rest complete, and
    # the final index matches the uninterrupted build. The resumed run
    # sees another CPU count, which must not change the recorded range
    # count (and with it void the finished groups).
    import ray

    real_resources = ray.cluster_resources
    monkeypatch.setattr(ray, "cluster_resources", lambda: {
        **real_resources(), "CPU": 2 * real_resources().get("CPU", 4)})
    resumed_groups = []

    def recording(path, obj):
        resumed_groups.append(obj["done"][-1])
        real(path, obj)

    monkeypatch.setattr(pipeline, "_atomic_json", recording)
    m2 = build_from_pages(
        pages_dir, str(tmp_path / "ix"),
        corpus_dir=str(tmp_path / "corp"),
        ingest_groups=4, ingest_concurrency=1, num_buckets=2,
    )
    monkeypatch.setattr(pipeline, "_atomic_json", real)
    monkeypatch.setattr(ray, "cluster_resources", real_resources)
    assert 0 not in resumed_groups and 1 not in resumed_groups
    assert set(resumed_groups) >= {2, 3}
    assert _checksums(m2) == _checksums(ref)
    import pyarrow.dataset as pads

    assert pads.dataset(str(tmp_path / "corp" / "corpus")).to_table().equals(
        pads.dataset(str(tmp_path / "corp_ref" / "corpus")).to_table()
    )
    assert m2.n_docs == ref.n_docs
    # pre/ + manifest are cleaned up once the final corpus lands
    assert not pre.exists() and not man.exists()

    s = IndexSearcher(str(tmp_path / "ix"))
    s_ref = IndexSearcher(str(tmp_path / "ix_ref"))
    for q in ["quick foxes jump", "data stream merge", "wizard"]:
        assert s.search_bm25(q, 10) == s_ref.search_bm25(q, 10)


def test_resumable_route_matches_materialize_route(ray_session, pages_dir, tmp_path):
    """The per-group write-first route and the default materialize route
    build bit-identical indexes over the same shards (the same pin the
    segment-materialize gate carries in test_pages.py)."""
    ref = build_from_pages(
        pages_dir, str(tmp_path / "ix_m"), corpus_dir=str(tmp_path / "corp_m"),
        num_buckets=2, overwrite=True,
    )
    res = build_from_pages(
        pages_dir, str(tmp_path / "ix_r"), corpus_dir=str(tmp_path / "corp_r"),
        ingest_groups=3, num_buckets=2, overwrite=True,
    )
    assert _checksums(res) == _checksums(ref)
    assert res.n_docs == ref.n_docs


def test_changed_input_invalidates_manifest(ray_session, pages_dir, tmp_path):
    """A stale manifest whose signature doesn't match the input set is
    discarded (stale pre-groups removed) instead of poisoning the build."""
    corp = tmp_path / "corp"
    pre = corp / "pre" / "group=0"
    os.makedirs(pre)
    (pre / "junk.parquet").write_bytes(b"not parquet")
    (corp / "ingest_manifest.json").write_text(
        json.dumps({"sig": {"files": [["other.parquet", 1]], "n_groups": 4,
                            "n_docs": 1}, "done": [0]})
    )
    m = build_from_pages(
        pages_dir, str(tmp_path / "ix"), corpus_dir=str(corp),
        ingest_groups=2, num_buckets=2,
    )
    assert m.n_docs > 0
    assert IndexSearcher(str(tmp_path / "ix")).search_bm25("quick foxes", 5)


def test_stage_b_final_corpus_globally_sorted(ray_session, pages_dir, tmp_path):
    """Stage B writes one file per doc range, zero-padded; reading the
    final corpus files in name order must yield globally non-decreasing
    doc_ids (the corpus_sorted=True fast path depends on it)."""
    import os

    import pyarrow.parquet as pq

    from pyfuseray.pipeline import build_from_pages

    out = str(tmp_path / "ix")
    cdir = str(tmp_path / "c")
    build_from_pages(
        pages_dir, out, corpus_dir=cdir,
        ingest_groups=3, num_buckets=2, overwrite=True,
    )
    final = os.path.join(cdir, "corpus")
    last = -1
    files = sorted(
        f for f in os.listdir(final) if f.endswith(".parquet")
    )
    assert len(files) > 1  # the invariant must span file boundaries
    for f in files:
        ids = pq.read_table(
            os.path.join(final, f), columns=["doc_id"]
        ).column("doc_id").to_numpy()
        assert ids.size == 0 or (
            int(ids[0]) > last and bool((ids[1:] >= ids[:-1]).all())
        ), f
        if ids.size:
            last = int(ids[-1])


@pytest.fixture(scope="module")
def corpus_routes(ray_session, pages_dir, tmp_path_factory):
    """{route: (index_dir, corpus_dir)} for each route that writes a corpus:
    materialize (default), write-first (Dataset input, threshold 0),
    resumable (ingest_groups), and append_pages onto the materialize
    build (its rows land in corpus_dir/append_g1/)."""
    import ray.data as rd

    from pyfuseray.pipeline import append_pages

    base = tmp_path_factory.mktemp("corpus_routes")
    routes = {
        "materialize": (pages_dir, {}),
        "write_first": (rd.read_parquet(pages_dir), {"materialize_threshold": 0}),
        "resumable": (pages_dir, {"ingest_groups": 3}),
    }
    out = {}
    for name, (src, kw) in routes.items():
        ix, cdir = str(base / f"ix_{name}"), str(base / f"c_{name}")
        build_from_pages(src, ix, corpus_dir=cdir, num_buckets=2,
                         overwrite=True, **kw)
        out[name] = (ix, cdir)
    new = base / "new_pages"
    os.makedirs(new)
    pq.write_table(synth_pages(1500, seed=12, null_text_frac=0.1,
                               id_offset=50_000), str(new / "p.parquet"))
    ix, cdir = out["materialize"]
    append_pages(ix, str(new), corpus_dir=cdir, mode="tiered",
                 max_generations=10)
    return out


def _parquet_files(d):
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet"))


@pytest.mark.parametrize("route", ["materialize", "write_first", "resumable",
                                   "append_pages"])
def test_corpus_files_use_small_row_groups_without_text_statistics(
        corpus_routes, route):
    """Every corpus writer uses pipeline.CORPUS_WRITE: row groups of at
    most 64 rows, doc_id min/max in every row group (SQL materialize
    prunes on it), no statistics on text, every column chunk LZ4 (the
    ``text`` decode is most of a SQL materialize)."""
    if route == "append_pages":
        files = _parquet_files(os.path.join(corpus_routes["materialize"][1],
                                            "append_g1"))
    else:
        files = _parquet_files(os.path.join(corpus_routes[route][1], "corpus"))
    assert files
    n_groups = 0
    for f in files:
        md = pq.read_metadata(f)
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            st = {rg.column(j).path_in_schema: rg.column(j).statistics
                  for j in range(rg.num_columns)}
            assert 0 < rg.num_rows <= 64, (f, g)
            assert st["doc_id"] is not None and st["doc_id"].has_min_max, (f, g)
            assert st["url"] is not None and st["url"].has_min_max, (f, g)
            assert st["text"] is None or not st["text"].has_min_max, (f, g)
            assert {rg.column(j).compression
                    for j in range(rg.num_columns)} == {"LZ4"}, (f, g)
            n_groups += 1
    # the layout is exercised, not just one group per file
    assert n_groups > len(files)


def test_ten_hit_sql_reads_at_most_ten_corpus_row_groups(corpus_routes,
                                                         monkeypatch):
    from pyfuseray.sqlfront import execute_sql

    ix, cdir = corpus_routes["resumable"]
    corpus = os.path.join(cdir, "corpus")
    total = sum(pq.read_metadata(f).num_row_groups
                for f in _parquet_files(corpus))
    s = IndexSearcher(ix)
    read: list[int] = []
    real = pq.ParquetFile.read_row_groups

    def counting(self, row_groups, *a, **kw):
        read.extend(row_groups)
        return real(self, row_groups, *a, **kw)

    for q in ["quick foxes jump", "data stream merge", "webhot"]:
        assert len(s.search_tfidf(q, 10)) == 10  # row cache now holds q's terms
        read.clear()
        monkeypatch.setattr(pq.ParquetFile, "read_row_groups", counting)
        out = execute_sql(f"SELECT url, text FROM pages LIKE {q} LIMIT 10",
                          ix, corpus, searcher=s)
        monkeypatch.undo()
        assert out.num_rows == 10
        assert 1 <= len(read) <= 10 < total, (q, len(read), total)
