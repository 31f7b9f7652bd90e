"""IndexSearcher.lookup against a brute-force read of every segment file.

lookup reads only the row groups whose footer ``term`` min/max can hold
a missed term; these tests pin that it returns exactly what reading
every row of every segment file would, field by field: one generation,
several tiered generations (terms in only some of them, buckets absent
from a generation), absent and repeated terms, row-cache hits, and
files written without statistics.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from pyfuseray import query
from pyfuseray.build import build_index
from pyfuseray.incremental import add_documents
from pyfuseray.pages import synth_pages
from pyfuseray.query import IndexSearcher

ABSENT = ["zzzabsent", "qqqnothere"]


def _ds(texts, start):
    ids = list(range(start, start + len(texts)))
    return rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))


def _texts(n, seed):
    t = synth_pages(n, seed=seed, null_text_frac=0.0, dup_frac=0.0,
                    vocab_size=3000, words_per_doc=(20, 60))
    return [x if x else "fallback words" for x in t.column("text").to_pylist()]


def _gen_files(ix, seg_name):
    """{bucket: files} of one generation, in the order the searcher lists them."""
    root = os.path.join(ix, seg_name)
    return {
        int(d.split("=")[1]): pads.dataset(os.path.join(root, d), format="parquet").files
        for d in sorted(os.listdir(root))
        if d.startswith("bucket=")
    }


def _brute_force(ix, seg_dirs):
    """term -> expected merged row (dict of fields), from full reads of
    every segment file; generations concatenate in order with each
    generation's block offsets shifted by the preceding blob bytes."""
    per_gen: dict[str, list[dict]] = {}
    for seg_name in seg_dirs:
        for files in _gen_files(ix, seg_name).values():
            for f in files:
                for row in pq.read_table(f).to_pylist():
                    per_gen.setdefault(row["term"], []).append(row)
    out = {}
    for term, rows in per_gen.items():
        shifts = np.cumsum([0] + [len(r["blob"]) for r in rows[:-1]])
        out[term] = {
            "df": sum(r["df"] for r in rows),
            "cf": sum(r["cf"] for r in rows),
            "blob": b"".join(r["blob"] for r in rows),
            "last_doc": np.concatenate([np.asarray(r["last_doc"], np.int64) for r in rows]),
            "max_bm25": np.concatenate([np.asarray(r["max_bm25"], np.float64) for r in rows]),
            "offset": np.concatenate(
                [np.asarray(r["offset"], np.int64) + s for r, s in zip(rows, shifts)]
            ),
        }
    return out


def _assert_rows_equal(got, want):
    assert set(got) == set(want)
    for term, row in got.items():
        w = want[term]
        assert row.term == term
        assert (row.df, row.cf, row.blob) == (w["df"], w["cf"], w["blob"]), term
        for f in ("last_doc", "max_bm25", "offset"):
            v = getattr(row, f)
            assert v.dtype == w[f].dtype, (term, f)
            assert np.array_equal(v, w[f]), (term, f)


def _check_all_terms(ix, seg_dirs, chunk=37):
    want = _brute_force(ix, seg_dirs)
    s = IndexSearcher(ix)
    terms = sorted(want)
    for i in range(0, len(terms), chunk):
        ts = terms[i : i + chunk] + ABSENT
        _assert_rows_equal(s.lookup(ts), {t: want[t] for t in ts if t in want})
    return s, want


@pytest.fixture(scope="module")
def single(tmp_path_factory, ray_session):
    ix = str(tmp_path_factory.mktemp("lookup") / "ix")
    build_index(_ds(_texts(300, 5), 0), ix, num_buckets=2, num_salts=2)
    return ix


@pytest.fixture(scope="module")
def tiered(tmp_path_factory, ray_session):
    ix = str(tmp_path_factory.mktemp("lookup_tiered") / "ix")
    build_index(_ds(_texts(200, 8), 0), ix, num_buckets=8, num_salts=2)
    add_documents(ix, _ds(_texts(60, 9), 200), mode="tiered", max_generations=10)
    # a one-document generation: most buckets get no segment dir at all
    add_documents(ix, _ds(["zebra quartz"], 260), mode="tiered", max_generations=10)
    return ix


def test_single_generation_matches_brute_force(single):
    # the pruning is exercised: some file holds several row groups
    n_groups = [
        pq.read_metadata(f).num_row_groups
        for files in _gen_files(single, "segments").values()
        for f in files
    ]
    assert max(n_groups) > 1
    _check_all_terms(single, ["segments"])


def test_point_lookup_reads_only_matching_row_groups(single, monkeypatch):
    s = IndexSearcher(single)
    term = sorted(_brute_force(single, ["segments"]))[0]
    read: list[int] = []
    real = pq.ParquetFile.read_row_groups

    def counting(self, row_groups, *a, **kw):
        read.extend(row_groups)
        return real(self, row_groups, *a, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", counting)
    assert term in s.lookup([term])
    bucket = query.term_bucket(term, s.manifest.num_buckets)
    total = sum(pq.read_metadata(f).num_row_groups
                for f in _gen_files(single, "segments")[bucket])
    assert 1 <= len(read) < total


def test_tiered_generations_match_brute_force(tiered):
    m = IndexSearcher(tiered).manifest
    seg_dirs = ["segments"] + m.seg_generations
    assert len(seg_dirs) == 3
    # a bucket absent from a generation, and terms present in only
    # some generations, are both covered by the all-terms sweep
    assert any(len(_gen_files(tiered, g)) < m.num_buckets for g in seg_dirs[1:])
    per_gen = [
        {t for files in _gen_files(tiered, g).values() for f in files
         for t in pq.read_table(f, columns=["term"]).column("term").to_pylist()}
        for g in seg_dirs
    ]
    everywhere = set.intersection(*per_gen)
    assert set.union(*per_gen) - everywhere and everywhere
    _check_all_terms(tiered, seg_dirs)


def test_absent_repeated_and_cached_terms(tiered, monkeypatch):
    want = _brute_force(tiered, ["segments"] + IndexSearcher(tiered).manifest.seg_generations)
    s = IndexSearcher(tiered)
    present = sorted(want)[:3]
    ts = present + present[:2] + ABSENT + ABSENT[:1]
    first = s.lookup(ts)
    _assert_rows_equal(first, {t: want[t] for t in present})
    # the second call is served from the row cache: no parquet read
    def no_read(*a, **kw):
        raise AssertionError("row-cache hit must not read parquet")

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", no_read)
    monkeypatch.setattr(pq, "read_metadata", no_read)
    second = s.lookup(list(reversed(ts)))
    assert set(second) == set(first)
    assert all(second[t] is first[t] for t in first)
    assert s.lookup(ABSENT) == {}


def test_files_without_statistics_are_read_whole(tmp_path_factory, ray_session):
    ix = str(tmp_path_factory.mktemp("lookup_nostats") / "ix")
    build_index(_ds(_texts(300, 5), 0), ix, num_buckets=2, num_salts=2)
    files = _gen_files(ix, "segments")
    target = max((f for fs in files.values() for f in fs),
                 key=lambda f: pq.read_metadata(f).num_row_groups)
    tbl = pq.ParquetFile(target).read()  # the file's own schema, no hive column
    pq.write_table(tbl, target, row_group_size=64, write_statistics=False)
    (_, md, ranges), = query.read_footers([target], "term")
    assert md.num_row_groups > 1 and ranges == [None] * md.num_row_groups
    _check_all_terms(ix, ["segments"])
