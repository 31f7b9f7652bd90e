"""Block-max WAND must equal exhaustive TAAT on a corpus large enough to
exercise block skipping and heap thresholds (regression for the
advance-past-pivot and block-UB-contributor bugs found in round 1)."""

import os

import numpy as np
import pyarrow.dataset as pads
import pytest
import ray.data as rd

from pyfuseray.build import build_index
from pyfuseray.codec import decode_postings
from pyfuseray.pages import synth_pages
from pyfuseray.pipeline import build_from_pages
from pyfuseray.query import IndexSearcher
from pyfuseray.scoring import bm25_contrib, bm25_idf

QUERIES = [
    "quick foxes",
    "webhot",
    "flowers bloom spring garden",
    "search engine data stream",
    "wizard quartz sphinx zephyr",
    "compress delta posting merge",
    "document corpus index ranking token",
]


@pytest.fixture(scope="module")
def big_index(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ix_wand"))
    pages = rd.from_arrow(synth_pages(1500, seed=23, null_text_frac=0.1))
    build_from_pages(pages, out, num_buckets=4, num_salts=3, overwrite=True)
    return IndexSearcher(out)


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("k", [1, 3, 10, 50])
def test_wand_equals_taat(big_index, query, k):
    taat = big_index.search_bm25(query, k, algorithm="taat")
    wand = big_index.search_bm25(query, k, algorithm="wand")
    assert [d for d, _ in taat] == [d for d, _ in wand], (query, k)
    for (_, s1), (_, s2) in zip(taat, wand):
        assert abs(s1 - s2) < 1e-12


@pytest.mark.parametrize("k1,b", [(1.2, 0.9), (2.0, 0.75), (0.8, 0.3)])
def test_wand_nondefault_params_fall_back_to_exact(big_index, k1, b):
    """Stored block-max bounds are only valid for the build-time (k1, b);
    explicit algorithm='wand' with other params must return the EXACT
    top-k (TAAT fallback), not a silently pruned wrong one."""
    for q in QUERIES:
        exact = big_index.search_bm25(q, 10, algorithm="taat", k1=k1, b=b)
        wand = big_index.search_bm25(q, 10, algorithm="wand", k1=k1, b=b)
        assert [d for d, _ in exact] == [d for d, _ in wand], (q, k1, b)
        for (_, s1), (_, s2) in zip(exact, wand):
            assert abs(s1 - s2) < 1e-12


def test_wand_tiny_blocks(tmp_path):
    """Force many blocks per posting list so skipping logic really runs."""
    out = str(tmp_path / "ix")
    pages = rd.from_arrow(synth_pages(600, seed=31))
    build_from_pages(pages, out, num_buckets=2, num_salts=2, block_size=8,
                     overwrite=True)
    s = IndexSearcher(out)
    for q in QUERIES:
        taat = s.search_bm25(q, 10, algorithm="taat")
        wand = s.search_bm25(q, 10, algorithm="wand")
        assert [d for d, _ in taat] == [d for d, _ in wand], q


@pytest.mark.parametrize("block_size", [1, 2, 3, 8])
def test_wand_fuzz_tiny_blocks_and_ks(tmp_path, block_size):
    """Edge-case fuzz for the windowed WAND rewrite: degenerate block
    sizes (1-3 postings/block stress span decode, window advancement
    and skip bookkeeping), k larger than the corpus, single-term
    queries, and repeated-term queries must all match TAAT exactly."""
    out = str(tmp_path / f"ix{block_size}")
    pages = rd.from_arrow(synth_pages(150, seed=41 + block_size))
    build_from_pages(pages, out, num_buckets=2, num_salts=2,
                     block_size=block_size, overwrite=True)
    s = IndexSearcher(out)
    _assert_block_bounds_hold(s)
    queries = QUERIES + ["quick", "webhot webhot quick", "zzzunknown quick"]
    for q in queries:
        for k in (1, 7, 1000):
            taat = s.search_bm25(q, k, algorithm="taat")
            wand = s.search_bm25(q, k, algorithm="wand")
            assert [d for d, _ in taat] == [d for d, _ in wand], (q, k)
            for (_, s1), (_, s2) in zip(taat, wand):
                assert s1 == s2, (q, k)  # bit-identical float path


def _assert_block_bounds_hold(s):
    """Block-max WAND is exact only if every stored block bound is >= the
    contribution the searcher scores for each posting in the block, as
    exact floats (the skip test is ``ub < theta``)."""
    m = s.manifest
    dl = s._doclens()
    seg = pads.dataset(os.path.join(s.index_dir, "segments"), format="parquet").to_table(
        columns=["df", "blob", "last_doc", "max_bm25", "offset"]
    )
    for df, blob, last, bound, off in zip(*(c.to_pylist() for c in seg.columns)):
        docs, tfs = decode_postings(blob, np.asarray(off, dtype=np.int64))
        scored = bm25_contrib(bm25_idf(df, m.n_docs), tfs, dl[docs], m.avgdl or 1.0)
        block = np.searchsorted(np.asarray(last), docs)
        block_max = np.full(len(last), -np.inf)
        np.maximum.at(block_max, block, scored)
        low = np.asarray(bound) < block_max
        assert not low.any(), f"{low.sum()} of {low.size} block bounds below a score"
