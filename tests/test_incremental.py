"""Incremental add_documents: posting-identical and rank-identical to a
one-shot build over the concatenated corpus."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest
import ray.data as rd

from pyfuseray.build import build_index
from pyfuseray.checkpoint import load_manifest
from pyfuseray.codec import decode_postings
from pyfuseray.incremental import add_documents, finish_add
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


def _decoded_postings(index_dir):
    """{term: [(doc, tf), ...]} decoded from the segment files."""
    tbl = pads.dataset(
        os.path.join(index_dir, "segments"), format="parquet"
    ).to_table(columns=["term", "blob", "offset"])
    out = {}
    for i in range(tbl.num_rows):
        d, t = decode_postings(
            tbl.column("blob")[i].as_py(),
            np.asarray(tbl.column("offset")[i].as_py(), dtype=np.int64),
        )
        out[tbl.column("term")[i].as_py()] = list(zip(d.tolist(), t.tolist()))
    return out


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    texts = _texts()
    half = len(texts) // 2
    base = tmp_path_factory.mktemp("incr")
    one = str(base / "oneshot")
    inc = str(base / "incremental")
    build_index(_ds(texts, 0), one, num_buckets=4, num_salts=2)
    build_index(_ds(texts[:half], 0), inc, num_buckets=4, num_salts=2)
    m = add_documents(inc, _ds(texts[half:], half))
    return one, inc, m


def test_manifest_stats_match_oneshot(built):
    one, inc, m = built
    mo = load_manifest(one)
    assert m.stage_done("done")
    assert m.n_docs == mo.n_docs
    assert m.total_postings == mo.total_postings
    assert m.avgdl == pytest.approx(mo.avgdl, abs=0.0)
    assert m.generations == ["postings_raw", "postings_raw_g1"]
    # per-bucket posting counts match (checksums cover (term, df, blob);
    # blob block boundaries legitimately differ with tokenize batching)
    for k in mo.buckets:
        assert m.buckets[k]["n_postings"] == mo.buckets[k]["n_postings"]


def test_decoded_postings_identical(built):
    one, inc, _ = built
    assert _decoded_postings(inc) == _decoded_postings(one)


def test_df_table_identical(built):
    one, inc, _ = built

    def df_of(ix):
        t = pads.dataset(os.path.join(ix, "stats", "df.parquet")).to_table()
        return sorted(zip(t["term"].to_pylist(), t["df"].to_pylist(),
                          t["cf"].to_pylist()))

    assert df_of(inc) == df_of(one)


def test_search_rank_identical(built):
    one, inc, _ = built
    so, si = IndexSearcher(one), IndexSearcher(inc)
    for q in QUERIES:
        for algo in ("taat", "wand"):
            a = so.search_bm25(q, 10, algorithm=algo)
            b = si.search_bm25(q, 10, algorithm=algo)
            assert [d for d, _ in a] == [d for d, _ in b], (q, algo)
            for (_, x), (_, y) in zip(a, b):
                assert abs(x - y) < 1e-9
        a = so.search_tfidf(q, 10)
        b = si.search_tfidf(q, 10)
        assert [d for d, _ in a] == [d for d, _ in b], q
        for (_, x), (_, y) in zip(a, b):
            assert abs(x - y) < 1e-9


def test_overlapping_doc_ids_rejected(built):
    _, inc, _ = built
    with pytest.raises(ValueError, match="doc_ids must start above"):
        add_documents(inc, _ds(["dup doc"], 0))


def _unnamed_paths(index_dir):
    """Index entries the manifest does not name."""
    from pyfuseray.incremental import _generations, seg_stat_paths

    m = load_manifest(index_dir)
    named = {"manifest.json", "segments", "stats",
             *_generations(m), *m.seg_generations}
    named_stats = {"df.parquet", "docstats.parquet"} | {
        os.path.basename(p) for s in m.seg_generations
        for p in seg_stat_paths(index_dir, s)
    }
    if m.n_deleted:
        named_stats.add("deleted.parquet")
    return [d for d in os.listdir(index_dir) if d not in named] + [
        f for f in os.listdir(os.path.join(index_dir, "stats"))
        if f not in named_stats
    ]


def _crash_after_retire(monkeypatch):
    """Make the first manifest save after a maintenance op's retiring
    write (the one that drops the avgdl stage) raise."""
    from pyfuseray import build, checkpoint, deletes, incremental

    real = checkpoint.save_manifest
    retired = []

    def save(index_dir, m):
        if retired:
            raise RuntimeError("simulated crash")
        real(index_dir, m)
        if "avgdl" not in m.stages:
            retired.append(True)

    for mod in (build, incremental, deletes):
        monkeypatch.setattr(mod, "save_manifest", save)


@pytest.mark.parametrize("op", ["wreck", "full_add", "compact_tiers", "compact"])
def test_finish_add_repairs_interrupted_add(built, tmp_path, monkeypatch, op):
    """A crash after the manifest recorded the op but before the merge
    finished leaves done=False; finish_add (a compact_tiers rerun for
    compact_tiers) repairs it to the oracle's answers over the live docs
    and removes every path the manifest no longer names. ``wreck``
    instead drops the segments and the done mark by hand."""
    import shutil

    from pyfuseray.deletes import compact, delete_documents
    from pyfuseray.incremental import compact_tiers
    from pyfuseray.oracle import OracleIndex

    _, inc, _ = built
    broken = str(tmp_path / "broken")
    shutil.copytree(inc, broken)
    if op == "wreck":
        mpath = os.path.join(broken, "manifest.json")
        man = json.load(open(mpath))
        man["stages"].pop("done")
        man["buckets"] = {}
        json.dump(man, open(mpath, "w"))
        shutil.rmtree(os.path.join(broken, "segments"))
        with pytest.raises(RuntimeError, match="mid-add"):
            add_documents(broken, _ds(["more"], 10_000))
        m = finish_add(broken)
        assert m.stage_done("done")
        assert _decoded_postings(broken) == _decoded_postings(inc)
        return

    docs = dict(enumerate(_texts()))
    extra = _texts(30, seed=8)
    if op == "compact":
        dead = list(range(0, len(docs), 9))
        delete_documents(broken, dead)
        for d in dead:
            del docs[d]
    else:
        add_documents(broken, _ds(extra[:15], len(docs)), mode="tiered",
                      max_generations=10)
        docs.update(enumerate(extra[:15], len(docs)))
    _crash_after_retire(monkeypatch)
    with pytest.raises(RuntimeError, match="simulated crash"):
        if op == "full_add":
            add_documents(broken, _ds(extra[15:], len(docs)))
        elif op == "compact_tiers":
            compact_tiers(broken)
        else:
            compact(broken)
    monkeypatch.undo()
    if op == "full_add":
        docs.update(enumerate(extra[15:], len(docs)))
    assert not load_manifest(broken).stage_done("done")
    m = compact_tiers(broken) if op == "compact_tiers" else finish_add(broken)

    assert m.stage_done("done") and m.n_docs == len(docs)
    assert _unnamed_paths(broken) == []
    oracle = OracleIndex().build(sorted(docs.items()))
    s = IndexSearcher(broken)
    for q in QUERIES:
        pairs = [(oracle.search_bm25(q, 10), s.search_bm25(q, 10, algorithm=a))
                 for a in ("taat", "wand")]
        pairs.append((oracle.search_tfidf(q, 10), s.search_tfidf(q, 10)))
        for want, got in pairs:
            assert [d for d, _ in got] == [d for d, _ in want], (q, op)
            assert all(abs(x - y) < 1e-9
                       for (_, x), (_, y) in zip(got, want)), (q, op)
