"""Positional postings: true phrase and proximity queries.

The reference engine has no positional index (its SPIMI postings are
(term, doc, tf) only — reference ``app/SPIMI.py``); phrase semantics
there (and in this repo's ``phrase_filter_bm25_simple`` contract entry)
come from a regex-adjacency verify over candidate texts. This module
adds the standard IR answer: a positional sidecar index mapping
(term, doc) -> the term's 0-based positions in the document's raw
token stream, enabling phrase matching by position intersection and
proximity (within-window) matching by minimal-span checks — no regex,
no second corpus scan.

Token stream: ``[a-z0-9]+`` over ``lower(text)`` — the RAW stream (no
stopwording, no stemming, no 1-char drop), so token adjacency is
EXACTLY equivalent to the regex-adjacency semantics of the existing
phrase oracle (``(^|[^a-z0-9])a[^a-z0-9]+b([^a-z0-9]|$)``), and the
SQL side can reconstruct positions with ``generate_subscripts``.

100-TB shape (mirrors ``extras/trigram.py``):

- **build**: one ``map_batches`` tokenizes and emits one row per
  (term, doc) with that doc's position list; ONE shuffle on the coarse
  ``bucket = crc32(term) % n_buckets`` key; per-bucket term-sort;
  hive-partitioned parquet (``bucket=K/``) so queries prune
  physically. Positions are list<int32> — parquet's internal delta/RLE
  encoding covers the compression the main index gets from the varbyte
  codec, while keeping the column scannable without a decode kernel.
- **query**: only the buckets owning the query's terms are read, with
  a ``term in (...)`` filter pushed into the scan (partitions are
  term-sorted, so row-group statistics prune); per-doc assembly is a
  per-batch partial + one coarse doc-bucket groupby whose input is
  postings for the query's terms only (output-sized, never the
  corpus). Only the matched doc-id list returns to the driver.
"""

from __future__ import annotations

import glob
import os
import re
import zlib

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups

MANIFEST = "_POSITIONAL_OK"
_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize_raw(text: str) -> list[str]:
    """The raw position-bearing token stream (lowercase alnum runs)."""
    return _TOKEN.findall((text or "").lower())


def _term_bucket(terms: np.ndarray, n_buckets: int) -> np.ndarray:
    return np.fromiter(
        (zlib.crc32(t.encode()) % n_buckets for t in terms),
        dtype=np.int32, count=terms.size,
    )


def build_positional_index(
    ds: rd.Dataset,
    out_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
) -> str:
    """(term, doc_id, positions) inverted file, hive-partitioned by the
    coarse term bucket, term-sorted within each bucket."""

    def extract(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        out_term: list[str] = []
        out_doc: list[np.ndarray] = []
        out_pos: list[list[int]] = []
        for doc_id, text in zip(ids, texts):
            toks = tokenize_raw(text)
            if not toks:
                continue
            # one (term -> positions) dict per doc; positions ascending
            # by construction
            posmap: dict[str, list[int]] = {}
            for i, t in enumerate(toks):
                posmap.setdefault(t, []).append(i)
            out_term.extend(posmap.keys())
            out_doc.append(np.full(len(posmap), doc_id, dtype=np.int64))
            out_pos.extend(posmap.values())
        if not out_term:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.int64()),
                    "positions": pa.array([], pa.list_(pa.int32())),
                    "bucket": pa.array([], pa.int32()),
                }
            )
        terms = np.asarray(out_term, dtype=object)
        return pa.table(
            {
                "term": pa.array(out_term, pa.string()),
                "doc_id": pa.array(np.concatenate(out_doc), pa.int64()),
                "positions": pa.array(out_pos, pa.list_(pa.int32())),
                "bucket": pa.array(_term_bucket(terms, n_buckets), pa.int32()),
            }
        )

    def sort_bucket(part: pa.Table) -> pa.Table:
        return part.sort_by([("term", "ascending"), ("doc_id", "ascending")])

    os.makedirs(out_dir, exist_ok=True)
    (
        ds.select_columns([id_col, text_col])
        .map_batches(extract, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(sort_bucket, batch_format="pyarrow")
        .write_parquet(out_dir, partition_cols=["bucket"])
    )
    with open(os.path.join(out_dir, MANIFEST), "w") as f:
        f.write(f"n_buckets={n_buckets}\n")
    return out_dir


def _index_buckets(index_dir: str) -> int:
    with open(os.path.join(index_dir, MANIFEST)) as f:
        return int(f.read().strip().split("=")[1])


def _read_term_postings(index_dir: str, terms: list[str]) -> rd.Dataset | None:
    """Bucket-pruned, term-isin-pushdown read of the query terms' rows."""
    import pyarrow.dataset as pads

    nb = _index_buckets(index_dir)
    wanted = sorted({zlib.crc32(t.encode()) % nb for t in terms})
    files = [
        f
        for b in wanted
        for f in sorted(
            glob.glob(os.path.join(index_dir, f"bucket={b}", "*.parquet"))
        )
    ]
    if not files:
        return None
    return rd.read_parquet(
        files,
        columns=["term", "doc_id", "positions"],
        filter=pads.field("term").isin(pa.array(sorted(set(terms)))),
    )


def _match_docs(
    index_dir: str,
    terms: list[str],
    doc_matcher,
) -> np.ndarray:
    """Shared distributed skeleton: pruned postings read -> coarse
    doc-bucket groupby -> ``doc_matcher(term->positions dict)`` per doc
    that has ALL distinct terms -> sorted matched doc_ids (driver sees
    only the match list)."""
    distinct = sorted(set(terms))
    postings = _read_term_postings(index_dir, distinct)
    if postings is None:
        return np.empty(0, dtype=np.int64)
    need = len(distinct)
    groups = coarse_groups()

    def add_db(batch: pa.Table) -> pa.Table:
        db = coarse_bucket(batch.column("doc_id"), n_groups=groups)
        return batch.append_column("_db", pa.array(db))

    def match_group(group: pa.Table) -> pa.Table:
        # rows: term, doc_id, positions — every row of a doc for the
        # query's terms lands in this group (bucket is doc-derived)
        doc = group.column("doc_id").to_numpy(zero_copy_only=False)
        terms = group.column("term").to_pylist()
        pos = group.column("positions").combine_chunks()
        off = pos.offsets.to_numpy(zero_copy_only=False)
        vals = pos.values.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(doc, kind="stable")
        doc_s = doc[order]
        out = []
        for rows in np.split(order, np.flatnonzero(doc_s[1:] != doc_s[:-1]) + 1):
            posmap = {terms[i]: vals[off[i] : off[i + 1]] for i in rows}
            if len(posmap) == need and doc_matcher(posmap):
                out.append(doc[rows[0]])
        return pa.table({"doc_id": pa.array(out, pa.int64())})

    matched = (
        postings.map_batches(add_db, batch_format="pyarrow")
        .groupby("_db")
        .map_groups(match_group, batch_format="pyarrow")
        .to_pandas()
    )
    if "doc_id" not in matched.columns or matched.empty:
        return np.empty(0, dtype=np.int64)
    return np.sort(matched["doc_id"].to_numpy(dtype=np.int64))


def phrase_docs(index_dir: str, phrase: str) -> np.ndarray:
    """doc_ids whose raw token stream contains the phrase's tokens
    CONSECUTIVELY (classic positional-intersection phrase match;
    handles repeated terms — each slot constrains the same start
    position)."""
    slots = tokenize_raw(phrase)
    if not slots:
        return np.empty(0, dtype=np.int64)

    def matcher(posmap: dict[str, np.ndarray]) -> bool:
        # start positions satisfying slot 0, intersected slot by slot
        starts = posmap[slots[0]]
        for i, term in enumerate(slots[1:], start=1):
            starts = np.intersect1d(
                starts, posmap[term] - i, assume_unique=True
            )
            if not starts.size:
                return False
        return True

    return _match_docs(index_dir, slots, matcher)


def proximity_docs(
    index_dir: str,
    terms: list[str],
    *,
    window: int,
) -> np.ndarray:
    """doc_ids where ONE occurrence of every distinct query term fits in
    a token window of span <= ``window`` (max position - min position),
    order-free — the standard unordered-proximity operator. ``window ==
    len(terms) - 1`` is the anagram-phrase special case."""
    distinct = sorted({t for q in terms for t in tokenize_raw(q)})
    if not distinct:
        return np.empty(0, dtype=np.int64)

    def matcher(posmap: dict[str, np.ndarray]) -> bool:
        if len(distinct) == 1:
            return True
        # minimal-span k-way sweep: merge all positions tagged by term,
        # slide a window, check when all terms are covered
        lists = [posmap[t] for t in distinct]
        tags = np.concatenate(
            [np.full(p.size, i, dtype=np.int32) for i, p in enumerate(lists)]
        )
        allpos = np.concatenate(lists)
        order = np.argsort(allpos, kind="stable")
        allpos, tags = allpos[order], tags[order]
        k = len(lists)
        count = np.zeros(k, dtype=np.int64)
        covered = 0
        lo = 0
        for hi in range(allpos.size):
            t = tags[hi]
            if count[t] == 0:
                covered += 1
            count[t] += 1
            while count[tags[lo]] > 1:
                count[tags[lo]] -= 1
                lo += 1
            if covered == k and allpos[hi] - allpos[lo] <= window:
                return True
        return False

    return _match_docs(index_dir, distinct, matcher)
