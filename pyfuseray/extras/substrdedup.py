"""Exact duplicated-substring span detection and removal.

The training-data dedup tier BETWEEN whole-document dedup and
chunk-aligned span dedup (``extras/spandedup.py``): find every maximal
token span that is covered by ``min_len``-gram repeats occurring
ANYWHERE else in the corpus (any offset, any document, including
within the same document) — the role of the suffix-array substring
dedup of "Deduplicating Training Data Makes Language Models Better"
(Lee et al., ACL 2022), re-expressed suffix-array-free as a gram
coverage argument:

    a token span of length >= L is duplicated iff every one of its
    L-grams is duplicated, and every duplicated L-gram certifies its
    own [p, p+L) window — so the union of windows of duplicated
    L-grams is EXACTLY the set of positions lying inside some
    duplicated span of length >= L.

Pipeline shape (all Ray-Data-first, no driver-side corpus state):

1. ``map_batches``: tokenize (simple ``[a-z0-9]+``, the SQL-mirrorable
   analyzer), emit one row per L-gram position with a vectorized
   top-60-bit md5 of the gram string (``md5vec.md5_hi60_arrow`` — the
   same key DuckDB reproduces as ``('0x' || substr(md5(s),1,15))``,
   so hash collisions are IDENTICAL on both sides and the contract
   hash-matches exactly).
2. ONE coarse-bucket count shuffle (``hv % n``, n derived from corpus
   size so per-group payloads stay ~50 MB — a fixed count would grow
   group payload linearly with the corpus): inside each group, segment
   by hv and keep the positions of grams with global count >= 2. Rows
   through the shuffle = corpus token count (linear; the suffix array
   this replaces is also linear-ish but needs global sorted state).
3. ONE coarse doc-bucket shuffle: per-doc interval union of the
   surviving [p, p+L) windows (vectorized islands: break where the
   position gap exceeds L), emitting (doc_id, span_start, span_end)
   token-index spans — all int64, no float surface.

``remove_duplicated_substrings`` joins the spans back (same coarse
doc buckets) and rebuilds each text from the uncovered tokens
(single-space joined — the analyzer's whitespace normalization).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups
from pyfuseray.extras.md5vec import md5_hi60_arrow

_TOKEN = re.compile(r"[a-z0-9]+")
# rows per shuffle group: grams are corpus-token-sized (~24 B/row), so
# ~8k docs of grams per group (~50 MB at web-page token counts); the
# island merge sees DUP positions only, so a coarser target suffices
_GRAM_DOCS_PER_GROUP = 8192
_DUP_DOCS_PER_GROUP = 65536


def _gram_rows(
    batch: pa.Table, *, min_len: int, text_col: str, id_col: str,
    hash_buckets: int,
) -> pa.Table:
    """One row per L-gram position: (hv, doc_id, pos, _hb).

    Gram strings are built VECTORIZED: one flat token array, L shifted
    ``take`` views, and a single ``binary_join_element_wise`` — the
    per-gram Python ``" ".join`` loop this replaced was the stage's
    bottleneck (measured 3.3k -> see bench ``substrdedup_docs_per_sec``).
    """
    import pyarrow.compute as pc

    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    texts = batch.column(text_col).to_pylist()
    tok_lists = [_TOKEN.findall((t or "").lower()) for t in texts]
    n_tok = np.fromiter(
        (len(t) for t in tok_lists), dtype=np.int64, count=len(tok_lists)
    )
    n_gram = np.maximum(n_tok - min_len + 1, 0)
    total = int(n_gram.sum())
    if total == 0:
        return pa.table(
            {
                "hv": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "_hb": pa.array([], pa.int64()),
            }
        )
    flat = pa.array(
        [t for ts in tok_lists for t in ts], pa.string()
    )
    doc_start = np.concatenate(([0], np.cumsum(n_tok)))[:-1]
    gram_start = np.concatenate(([0], np.cumsum(n_gram)))[:-1]
    gdoc = np.repeat(np.arange(len(tok_lists), dtype=np.int64), n_gram)
    pos = np.arange(total, dtype=np.int64) - np.repeat(gram_start, n_gram)
    base = doc_start[gdoc] + pos
    parts = [flat.take(pa.array(base + k)) for k in range(min_len)]
    grams = pc.binary_join_element_wise(*parts, " ")
    hv = md5_hi60_arrow(grams)
    return pa.table(
        {
            "hv": pa.array(hv, pa.int64()),
            "doc_id": pa.array(ids[gdoc], pa.int64()),
            "pos": pa.array(pos, pa.int64()),
            "_hb": pa.array(coarse_bucket(hv, n_groups=hash_buckets)),
        }
    )


def _make_dup_positions(doc_buckets: int):
    def _dup_positions(group: pa.Table) -> pa.Table:
        """Keep (doc_id, pos) of grams whose GLOBAL count >= 2 (all of
        a gram's rows land in this group — the bucket is hv-derived)."""
        hv = group.column("hv").to_numpy(zero_copy_only=False)
        order = np.argsort(hv, kind="stable")
        hv_s = hv[order]
        starts = np.flatnonzero(
            np.concatenate(([True], hv_s[1:] != hv_s[:-1]))
        )
        counts = np.diff(np.append(starts, hv_s.size))
        keep_sorted = np.repeat(counts >= 2, counts)
        sel = order[keep_sorted]
        docs = group.column("doc_id").to_numpy(zero_copy_only=False)[sel]
        return pa.table(
            {
                "doc_id": pa.array(docs, pa.int64()),
                "pos": group.column("pos").take(pa.array(sel)),
                "_db": pa.array(coarse_bucket(docs, n_groups=doc_buckets)),
            }
        )

    return _dup_positions


def _make_spans(min_len: int):
    def spans_group(group: pa.Table) -> pa.Table:
        """Vectorized per-doc interval union of [pos, pos+L) windows:
        islands break where the position gap exceeds L (a gap of
        exactly L keeps coverage contiguous)."""
        d = group.column("doc_id").to_numpy(zero_copy_only=False)
        p = group.column("pos").to_numpy(zero_copy_only=False)
        order = np.lexsort((p, d))
        d_s, p_s = d[order], p[order]
        if not d_s.size:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "span_start": pa.array([], pa.int64()),
                    "span_end": pa.array([], pa.int64()),
                }
            )
        brk = np.concatenate(
            ([True], (d_s[1:] != d_s[:-1]) | (p_s[1:] - p_s[:-1] > min_len))
        )
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], d_s.size)
        return pa.table(
            {
                "doc_id": pa.array(d_s[starts], pa.int64()),
                "span_start": pa.array(p_s[starts], pa.int64()),
                "span_end": pa.array(p_s[ends - 1] + min_len, pa.int64()),
            }
        )

    return spans_group


def duplicated_substring_spans(
    ds: rd.Dataset,
    *,
    min_len: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_docs: int | None = None,
) -> rd.Dataset:
    """(doc_id, span_start, span_end) maximal duplicated token spans
    (see module docstring). Positions are 0-based token indices over
    the simple ``[a-z0-9]+`` token stream; ``span_end`` is exclusive.

    Shuffle bucket counts derive from ``n_docs`` so per-group payloads
    stay ~50 MB at any corpus size (``coarse.coarse_groups``); pass it when
    the input is an expensive lazy pipeline (the default ``ds.count()``
    executes the upstream once extra, same contract as
    ``simhash_candidates``). Results are bucket-count-invariant.
    """
    if n_docs is None:
        n_docs = ds.count()
    grams = ds.map_batches(
        _gram_rows,
        fn_kwargs={
            "min_len": min_len, "text_col": text_col, "id_col": id_col,
            "hash_buckets": coarse_groups(n_docs, _GRAM_DOCS_PER_GROUP),
        },
        batch_format="pyarrow",
    )
    dup = grams.groupby("_hb").map_groups(
        _make_dup_positions(coarse_groups(n_docs, _DUP_DOCS_PER_GROUP)),
        batch_format="pyarrow",
    )
    return dup.groupby("_db").map_groups(
        _make_spans(min_len), batch_format="pyarrow"
    )


def remove_duplicated_substrings(
    ds: rd.Dataset,
    *,
    min_len: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_docs: int | None = None,
) -> rd.Dataset:
    """(doc_id, text) with every duplicated span's tokens removed and
    the survivors single-space joined. Docs made empty keep an empty
    string (callers drop them with a trivial filter). One extra coarse
    doc-bucket shuffle co-locates each doc's spans with its row; texts
    move through the shuffle once (payload-sized, same shape as
    ``join_pair_payloads``)."""
    if n_docs is None:
        n_docs = ds.count()
    spans = duplicated_substring_spans(
        ds, min_len=min_len, text_col=text_col, id_col=id_col,
        n_docs=n_docs,
    )
    rebuild_buckets = coarse_groups(n_docs, _DUP_DOCS_PER_GROUP)

    def tag_doc(batch: pa.Table) -> pa.Table:
        d = batch.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(d, pa.int64()),
                "span_start": pa.array(np.full(d.size, -1), pa.int64()),
                "span_end": pa.array(np.full(d.size, -1), pa.int64()),
                "text": batch.column(text_col),
                "_db": pa.array(coarse_bucket(d, n_groups=rebuild_buckets)),
            }
        )

    def tag_span(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(d, pa.int64()),
                "span_start": batch.column("span_start"),
                "span_end": batch.column("span_end"),
                "text": pa.nulls(d.size, pa.string()),
                "_db": pa.array(coarse_bucket(d, n_groups=rebuild_buckets)),
            }
        )

    def rebuild(group: pa.Table) -> pa.Table:
        ss = group.column("span_start").to_numpy(zero_copy_only=False)
        is_doc = ss < 0
        docs_d = group.column("doc_id").to_numpy(zero_copy_only=False)
        span_map: dict[int, list[tuple[int, int]]] = {}
        se = group.column("span_end").to_numpy(zero_copy_only=False)
        for i in np.flatnonzero(~is_doc):
            span_map.setdefault(int(docs_d[i]), []).append(
                (int(ss[i]), int(se[i]))
            )
        doc_rows = np.flatnonzero(is_doc)
        texts = group.column("text").take(pa.array(doc_rows)).to_pylist()
        out_ids, out_texts = [], []
        for i, text in zip(doc_rows, texts):
            did = int(docs_d[i])
            toks = _TOKEN.findall((text or "").lower())
            covered = np.zeros(len(toks), dtype=bool)
            for a, b in span_map.get(did, ()):
                covered[a:b] = True
            out_ids.append(did)
            out_texts.append(
                " ".join(t for t, c in zip(toks, covered) if not c)
            )
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "text": pa.array(out_texts, pa.string()),
            }
        )

    tagged = ds.map_batches(tag_doc, batch_format="pyarrow").union(
        spans.map_batches(tag_span, batch_format="pyarrow")
    )
    return tagged.groupby("_db").map_groups(rebuild, batch_format="pyarrow")
