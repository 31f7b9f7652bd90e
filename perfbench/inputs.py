"""Seeded inputs: pages, appends, deletes and query streams.

Everything is a pure function of ``--seed``. The program receives only
the parquet directories and query strings made here. The expected
corpus (what a correct ingest must index) is derived from the same
tables with the documented ingest rules, for the oracle checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# bench.py's corpus parameters; the page count is scaled to the run budget
VOCAB_SIZE = 20_000
WORDS_PER_DOC = (80, 400)
NULL_TEXT_FRAC = 0.15
DUP_FRAC = 0.02
HEAD_RANKS = (1, 500)
TAIL_RANKS = (1_000, 20_000)
# term counts of successive head queries: a query's cost grows with its
# terms, so a seeded 2-or-3 draw would move the p50 of a run between the
# two modes from one seed to the next
QUERY_TERMS = (2, 3, 3)
# A tail query's cost is about one segment scan per distinct bucket its
# terms fall in. Three terms fall in three of the eight buckets 66% of
# the time and in two 33%, so the p50 sits inside the three-bucket
# mode; a 2/3/3 mix would put it on the edge between the two.
TAIL_TERMS = 3


@dataclass(frozen=True)
class Size:
    base_pages: int
    append_pages: int  # per append, two appends
    head_pool: int  # generated head queries (plus bench.py's 10)
    shard_rows: int = 2_500


FULL = Size(base_pages=4_000, append_pages=1_000, head_pool=150)
SMOKE = Size(base_pages=300, append_pages=80, head_pool=30, shard_rows=100)
WARMUP = Size(base_pages=300, append_pages=0, head_pool=0, shard_rows=100)


def vocabulary() -> list[str]:
    """The synthetic vocabulary in zipf rank order (rank 1 first), built
    exactly as ``pages.synth_pages`` builds it."""
    from pyfuseray.pages import _VOCAB

    base = list(_VOCAB)
    return base + [f"{base[i % len(base)]}{i // len(base)}" for i in range(len(base), VOCAB_SIZE)]


def base_pages(seed: int, size: Size) -> pa.Table:
    from pyfuseray.pages import synth_pages

    return synth_pages(
        size.base_pages, seed=seed, null_text_frac=NULL_TEXT_FRAC,
        dup_frac=DUP_FRAC, vocab_size=VOCAB_SIZE, words_per_doc=WORDS_PER_DOC,
    )


def append_batches(seed: int, size: Size, base: pa.Table, n: int = 2) -> list[pa.Table]:
    """``n`` new page batches with about 5% of their urls taken from the
    already-indexed base pages (keep-existing drops those)."""
    from pyfuseray.pages import synth_pages

    rng = np.random.default_rng([seed, 7])
    base_urls = base.column("url").to_pylist()
    out = []
    for g in range(n):
        t = synth_pages(
            size.append_pages, seed=int(rng.integers(2**31)),
            null_text_frac=NULL_TEXT_FRAC, dup_frac=0.0,
            vocab_size=VOCAB_SIZE, words_per_doc=WORDS_PER_DOC,
            id_offset=(g + 1) * 10_000_000,
        )
        urls = t.column("url").to_pylist()
        k = max(1, size.append_pages // 20)
        for i in rng.choice(size.append_pages, size=k, replace=False):
            urls[int(i)] = base_urls[int(rng.integers(len(base_urls)))]
        out.append(t.set_column(0, "url", pa.array(urls, pa.string())))
    return out


def write_shards(tbl: pa.Table, path: str, shard_rows: int) -> str:
    os.makedirs(path)
    for i, off in enumerate(range(0, tbl.num_rows, shard_rows)):
        pq.write_table(tbl.slice(off, shard_rows),
                       os.path.join(path, f"part-{i:05d}.parquet"),
                       row_group_size=4096)
    return path


def keep_first(pages: pa.Table) -> tuple[list[str], list[str]]:
    """Ingest rule: one row per url, the earliest ``warc_ts`` wins; rows
    come out in url byte order (doc_id = rank). Returns (urls, texts)
    with texts through the serial reference extractor."""
    from pyfuseray.extract import extract_text

    order = pc.sort_indices(pages, sort_keys=[("url", "ascending"), ("warc_ts", "ascending")])
    t = pages.take(order)
    urls = t.column("url").to_pylist()
    htmls = t.column("html").to_pylist()
    texts = t.column("text").to_pylist()
    out_u, out_t = [], []
    prev = None
    for u, h, x in zip(urls, htmls, texts):
        if u != prev:
            out_u.append(u)
            out_t.append(extract_text(h, x))
            prev = u
    return out_u, out_t


def expected_base(pages: pa.Table) -> dict[int, tuple[str, str]]:
    urls, texts = keep_first(pages)
    return {i: (u, t) for i, (u, t) in enumerate(zip(urls, texts))}


def expected_append(
    docs: dict[int, tuple[str, str]], new_pages: pa.Table
) -> dict[int, tuple[str, str]]:
    """``append_pages`` rule: dedup the new pages among themselves, give
    survivor ``r`` (url rank) doc_id ``max indexed id + 1 + r``, then drop
    urls already indexed (keep-existing; their ranks stay as holes)."""
    urls, texts = keep_first(new_pages)
    have = {u for u, _ in docs.values()}
    base = max(docs) + 1
    added = {
        base + r: (u, t)
        for r, (u, t) in enumerate(zip(urls, texts))
        if u not in have
    }
    return {**docs, **added}


def delete_ids(live_ids: list[int], n_docs: int) -> tuple[list[int], int]:
    """Every 50th live doc_id inside ``delete_documents``' accepted range
    [0, n_docs), and the count of live ids outside that range (appended
    docs above url-collision holes, which the call rejects)."""
    ids = sorted(live_ids)
    in_range = [d for d in ids if d < n_docs]
    return in_range[::50], len(ids) - len(in_range)


def _zipf_draw(rng, ranks: np.ndarray, k: int) -> np.ndarray:
    p = 1.0 / ranks
    return rng.choice(ranks, size=k, replace=False, p=p / p.sum())


def head_queries(seed: int, size: Size) -> list[str]:
    """Queries of QUERY_TERMS terms drawn zipf-weighted from vocabulary
    ranks 1-500, plus bench.py's 10 reference queries."""
    from bench import QUERIES

    vocab = vocabulary()
    rng = np.random.default_rng([seed, 11])
    ranks = np.arange(HEAD_RANKS[0], HEAD_RANKS[1] + 1)
    pool = [
        " ".join(vocab[r - 1] for r in _zipf_draw(rng, ranks, QUERY_TERMS[i % len(QUERY_TERMS)]))
        for i in range(size.head_pool)
    ]
    return pool + list(QUERIES)


def replay_order(seed: int, n: int, rounds: int) -> list[int]:
    """Seeded replay order of a query pool: a fresh permutation each round."""
    rng = np.random.default_rng([seed, 13])
    return [int(i) for _ in range(rounds) for i in rng.permutation(n)]


def tail_queries(seed: int, analyzer, n_max: int) -> list[str]:
    """TAIL_TERMS-word queries over vocabulary ranks 1,000-20,000 in
    which no analyzed term appears twice."""
    vocab = vocabulary()
    rng = np.random.default_rng([seed, 17])
    words = [vocab[r - 1] for r in rng.permutation(np.arange(TAIL_RANKS[0], TAIL_RANKS[1] + 1))]
    seen: set[str] = set()
    out: list[str] = []
    cur: list[str] = []
    for w in words:
        terms = set(analyzer.preprocess_query(w))
        if not terms or terms & seen:
            continue
        seen |= terms
        cur.append(w)
        if len(cur) == TAIL_TERMS:
            out.append(" ".join(cur))
            if len(out) >= n_max:
                break
            cur = []
    return out


def sql_for(q: str) -> str:
    return f"SELECT url, text FROM pages LIKE {q} LIMIT 10"
