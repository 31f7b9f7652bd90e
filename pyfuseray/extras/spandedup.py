"""Duplicated-span removal (C4 / CCNet-style boilerplate dedup).

Documents are cut into consecutive ``k``-word chunks (the last chunk of
a doc may be shorter); every chunk whose exact text occurs in at least
``min_docs`` DISTINCT documents is removed from all of them, and each
document is re-assembled from its surviving chunks in order — the
span-level analogue of C4's duplicated-three-sentence filter and
CCNet's shared-paragraph removal, over the whitespace tokenization the
rest of this repo's text stats use.

Scale shape (module invariant, same as :mod:`pyfuseray.extras.dedup`):
chunking and re-assembly are fully vectorized batch-local Arrow ops
(``split_pattern`` offsets math + ``binary_join`` — no Python loop over
rows); duplicate discovery is ONE ``groupby`` shuffle keyed on a COARSE
bucket of the chunk (``coarse.coarse_bucket``) over per-batch (chunk, distinct-doc-count)
partials, so the framework group count is bounded regardless of corpus
cardinality. Partials are exact because ``map_batches`` never splits a
document across batches. Two routes, pinned identical by
``tests/test_spandedup.py``:

- **broadcast** (default below ``BROADCAST_DUP_CHUNK_LIMIT`` duplicated
  chunks): the duplicated-chunk strings are ``ray.put`` once and every
  batch filters + re-joins locally — zero shuffles over the corpus;
- **distributed**: full chunk rows take the coarse-chunk-bucket shuffle
  (dup flags attach where the counts already live), then ONE coarse
  doc-bucket shuffle re-assembles documents vectorized.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups

# above this many duplicated chunks the broadcast array stops being a
# sane object-store resident and dedup_spans routes to the distributed
# re-assembly path instead
BROADCAST_DUP_CHUNK_LIMIT = 5_000_000


def _chunk_columns(
    batch: pa.Table, text_col: str, id_col: str, k: int
) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """(doc_id per chunk, chunk_no per chunk, chunk strings) for a batch,
    fully vectorized: one ``split_pattern``, offset arithmetic for the
    chunk boundaries, one ``binary_join``."""
    words_ca = pc.split_pattern(batch.column(text_col), pattern=" ")
    if isinstance(words_ca, pa.ChunkedArray):
        words = (
            pa.concat_arrays(words_ca.chunks)
            if words_ca.num_chunks
            else pa.array([], pa.list_(pa.string()))
        )
    else:
        words = words_ca
    flat = words.values if len(words) else pa.array([], pa.string())
    off = (
        words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        if len(words)
        else np.zeros(1, np.int64)
    )
    lens = np.diff(off)
    nch = -(-lens // k)  # ceil; len-0 never happens (split of "" is [""])
    total = int(nch.sum())
    doc_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    if total == 0:
        return (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            pa.array([], pa.string()),
        )
    # chunk start offsets into the flat word values: doc start + k * intra
    rep_doc = np.repeat(np.arange(lens.size, dtype=np.int64), nch)
    cum = np.concatenate(([0], np.cumsum(nch)[:-1]))
    chunk_no = np.arange(total, dtype=np.int64) - cum[rep_doc]
    starts = off[:-1][rep_doc] + k * chunk_no
    chunk_offsets = np.concatenate((starts, off[-1:]))
    chunk_lists = pa.ListArray.from_arrays(
        pa.array(chunk_offsets, pa.int32())
        if chunk_offsets[-1] <= np.iinfo(np.int32).max
        else pa.array(chunk_offsets, pa.int64()),
        flat,
    )
    chunks = pc.binary_join(chunk_lists, " ")
    return doc_ids[rep_doc], chunk_no, chunks


def duplicated_chunks(
    ds: rd.Dataset,
    *,
    k: int = 4,
    min_docs: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """(chunk, nd) rows for every chunk text appearing in >= ``min_docs``
    distinct documents. Map-side combine: each batch emits one
    (chunk, partial distinct-doc count) row per distinct chunk — exact
    because a document never spans batches — then ONE coarse-bucket
    groupby sums the partials."""
    groups = coarse_groups()

    def partials(batch: pa.Table) -> pa.Table:
        doc, _, chunks = _chunk_columns(batch, text_col, id_col, k)
        if len(chunks) == 0:
            return pa.table(
                {"_cb": pa.array([], pa.int64()), "chunk": pa.array([], pa.string()),
                 "nd": pa.array([], pa.int64())}
            )
        tbl = pa.table({"chunk": chunks, "doc": pa.array(doc, pa.int64())})
        # distinct (chunk, doc) pairs, then count docs per chunk
        gb = tbl.group_by(["chunk", "doc"]).aggregate([]).group_by("chunk").aggregate(
            [("doc", "count")]
        )
        out_chunks = gb.column("chunk").combine_chunks()
        return pa.table(
            {
                "_cb": pa.array(coarse_bucket(out_chunks, n_groups=groups)),
                "chunk": out_chunks,
                "nd": gb.column("doc_count").cast(pa.int64()),
            }
        )

    def reduce_group(group: pa.Table) -> pa.Table:
        gb = group.group_by("chunk").aggregate([("nd", "sum")])
        mask = pc.greater_equal(gb.column("nd_sum"), min_docs)
        kept = gb.filter(mask)
        return pa.table(
            {"chunk": kept.column("chunk"), "nd": kept.column("nd_sum")}
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(reduce_group, batch_format="pyarrow")
    )


def _rejoin_kept(
    doc_sorted: np.ndarray,
    kept_mask: np.ndarray,
    chunks: pa.Array,
    all_doc_ids: np.ndarray,
) -> pa.Table:
    """Vectorized re-assembly: rows MUST be sorted by (doc, chunk_no).
    ``all_doc_ids``: sorted distinct doc ids these rows cover (every doc
    has >= 1 chunk row). Returns (doc_id, clean_text, n_chunks,
    n_dropped)."""
    n_chunks = np.bincount(
        np.searchsorted(all_doc_ids, doc_sorted), minlength=all_doc_ids.size
    )
    kept_doc = doc_sorted[kept_mask]
    kept_counts = np.bincount(
        np.searchsorted(all_doc_ids, kept_doc), minlength=all_doc_ids.size
    )
    kept_chunks = chunks.filter(pa.array(kept_mask))
    offsets = np.concatenate(([0], np.cumsum(kept_counts)))
    lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32())
                                     if offsets[-1] <= np.iinfo(np.int32).max
                                     else pa.array(offsets, pa.int64()),
                                     kept_chunks.combine_chunks()
                                     if isinstance(kept_chunks, pa.ChunkedArray)
                                     else kept_chunks)
    clean = pc.binary_join(lists, " ")
    return pa.table(
        {
            "doc_id": pa.array(all_doc_ids, pa.int64()),
            "clean_text": clean,
            "n_chunks": pa.array(n_chunks, pa.int64()),
            "n_dropped": pa.array(n_chunks - kept_counts, pa.int64()),
        }
    )


def dedup_spans(
    ds: rd.Dataset,
    *,
    k: int = 4,
    min_docs: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    route: str = "auto",
    broadcast_limit: int = BROADCAST_DUP_CHUNK_LIMIT,
) -> rd.Dataset:
    """(doc_id, clean_text, n_chunks, n_dropped) for every document:
    duplicated ``k``-word chunks removed, survivors re-joined in order.

    ``route``: "broadcast" | "distributed" | "auto" (broadcast while the
    duplicated-chunk set fits ``broadcast_limit``)."""
    if route not in ("auto", "broadcast", "distributed"):
        raise ValueError(f"unknown route {route!r}")
    if route in ("auto", "broadcast"):
        dup = duplicated_chunks(
            ds, k=k, min_docs=min_docs, text_col=text_col, id_col=id_col
        ).materialize()
        n_dup = dup.count()
        if route == "broadcast" or n_dup <= broadcast_limit:
            dup_tbl = pa.concat_tables(ray.get(dup.to_arrow_refs()))
            dup_ref = ray.put(
                dup_tbl.column("chunk").combine_chunks()
                if dup_tbl.num_rows
                else pa.array([], pa.string())
            )

            def clean_batch(batch: pa.Table) -> pa.Table:
                doc, chunk_no, chunks = _chunk_columns(batch, text_col, id_col, k)
                ids = np.sort(
                    batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
                )
                if len(chunks) == 0:
                    return pa.table(
                        {"doc_id": pa.array([], pa.int64()),
                         "clean_text": pa.array([], pa.string()),
                         "n_chunks": pa.array([], pa.int64()),
                         "n_dropped": pa.array([], pa.int64())}
                    )
                dup_set = ray.get(dup_ref)
                kept = ~pc.is_in(chunks, value_set=dup_set).to_numpy(
                    zero_copy_only=False
                )
                # batch row order need not be doc_id-ascending: sort by
                # (doc, chunk_no) so the re-join offsets line up
                order = np.lexsort((chunk_no, doc))
                return _rejoin_kept(
                    doc[order], kept[order], chunks.take(pa.array(order)), ids
                )

            return ds.map_batches(clean_batch, batch_format="pyarrow")

    # -- distributed route: chunk rows ride the coarse-chunk shuffle so
    # dup flags attach where the counts live; a second coarse DOC-bucket
    # shuffle re-assembles documents
    groups = coarse_groups()

    def chunk_rows(batch: pa.Table) -> pa.Table:
        doc, chunk_no, chunks = _chunk_columns(batch, text_col, id_col, k)
        return pa.table(
            {
                "_cb": pa.array(coarse_bucket(chunks, n_groups=groups)),
                "doc_id": pa.array(doc, pa.int64()),
                "chunk_no": pa.array(chunk_no, pa.int64()),
                "chunk": chunks,
            }
        )

    def flag_group(group: pa.Table) -> pa.Table:
        gb = group.group_by(["chunk", "doc_id"]).aggregate([]).group_by(
            "chunk"
        ).aggregate([("doc_id", "count")])
        chunk_sorted = gb.column("chunk").combine_chunks()
        order = pc.sort_indices(chunk_sorted)
        chunk_sorted = chunk_sorted.take(order)
        nd = gb.column("doc_id_count").combine_chunks().take(order).to_numpy(
            zero_copy_only=False
        )
        pos = pc.index_in(
            group.column("chunk").combine_chunks(), value_set=chunk_sorted
        ).to_numpy(zero_copy_only=False)
        dup = nd[pos] >= min_docs
        # coarse DOC bucket for the re-assembly shuffle
        db = coarse_bucket(group.column("doc_id"), n_groups=groups)
        return pa.table(
            {
                "_db": pa.array(db),
                "doc_id": group.column("doc_id"),
                "chunk_no": group.column("chunk_no"),
                "chunk": group.column("chunk"),
                "dup": pa.array(dup),
            }
        )

    def assemble_group(group: pa.Table) -> pa.Table:
        doc = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cn = group.column("chunk_no").to_numpy(zero_copy_only=False)
        order = np.lexsort((cn, doc))
        chunks = group.column("chunk").combine_chunks().take(pa.array(order))
        dup = group.column("dup").to_numpy(zero_copy_only=False)[order]
        doc_sorted = doc[order]
        ids = np.unique(doc_sorted)
        return _rejoin_kept(doc_sorted, ~dup, chunks, ids)

    return (
        ds.map_batches(chunk_rows, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(flag_group, batch_format="pyarrow")
        .groupby("_db")
        .map_groups(assemble_group, batch_format="pyarrow")
    )
