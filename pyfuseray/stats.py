"""Global collection statistics as Ray Data aggregates.

- N (doc_count): corpus count — includes zero-token docs, matching the
  reference's ``doc_count = len(documents)`` (``app/InvertedIndexFinal.py:259``).
- avgdl: total token count = the sum of cf in ``final_df_table``, one
  blob-free pass over the run rows.
- df/cf: projection of the segment rows (no extra shuffle — df is the
  posting-list length, ``app/InvertedIndexFinal.py:249``).
- docstats (doc length + EXACT post-merge cosine norms, v1 semantics
  ``app/InvertedIndex.py:408-419``): decode segments ->
  (doc_id, tf, w^2) -> one doc-range-bucketed shuffle -> vectorized
  per-doc reductions. w^2 contributions are sorted within each doc
  before summation so the float64 norm is deterministic under any
  shuffle order. Zero norms -> 1 (``app/InvertedIndex.py:419``); docs
  absent from the index default to norm 1 at query time.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from pyfuseray.codec import decode_postings
from pyfuseray.scoring import tfidf_weight_vec


def df_dataset(segments: rd.Dataset) -> rd.Dataset:
    """(term, df, cf) straight off the segment rows."""
    return segments.select_columns(["term", "df", "cf"])


def _doc_bucket_width(n_docs: int) -> int:
    """Doc-range shuffle bucket width for the docstats reduce.

    Fixed 4096 would make the framework group count scale linearly with
    the corpus (2.4e8 map_groups calls at 10^12 docs — the per-group
    overhead blowup the dedup family's coarse-bucket invariant exists to
    avoid). Target instead: enough groups to keep every core busy
    (16 x CPUs) and each group's partial rows under ~256 MB, whichever
    needs MORE groups. Per-doc results are identical under any width —
    all of a doc's partials land in one group and the reduce sorts
    within each doc before summing — so this is shape-only."""
    import ray

    ncpu = (
        int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    )
    target_groups = max(16 * ncpu, (n_docs * 24) >> 28)
    return max(256, n_docs // target_groups + 1)


def docstats_dataset(
    segments: rd.Dataset, n_docs: int, *, batch_size: int = 256
) -> rd.Dataset:
    """(doc_id, dl, norm): doc length AND exact final-df cosine norm in
    ONE decode pass + ONE doc_id-keyed shuffle over the (compressed)
    segments — dl = sum(tf), norm = sqrt(sum w^2) with zero -> 1.

    The shuffle key is a doc-RANGE bucket (``doc_id // width``, width
    from ``_doc_bucket_width``), not doc_id itself: each group then
    holds a bounded-count slab of complete documents and the per-doc
    reductions run as vectorized numpy segment ops (lexsort + reduceat)
    instead of one Python call per document. w^2 contributions are
    sorted within each doc before summation so the float64 norm is
    deterministic under any shuffle order (and any bucket width)."""
    width = _doc_bucket_width(n_docs)

    def tf_w2_partials(batch: pa.Table) -> pa.Table:
        """Decode + map-side combine: one partial (dl, sum w^2) row per
        (doc, batch) instead of one row per POSTING — the shuffle then
        moves ~terms-per-batch times fewer rows. The within-doc partial
        sums ascending w^2 values (lexsort) so a doc fully contained in
        one batch gets a bit-deterministic sum; cross-batch partials
        combine in shuffle order (differences ~1e-16, far inside the
        1e-9 conformance tolerance).

        Decode stays per-ROW on purpose: a joint whole-batch varbyte
        decode was tried and measured 3x SLOWER — its O(bytes)
        temporaries (~40 B per input byte) blow the cache and pay
        allocation stalls under memory pressure, while per-blob arrays
        stay L2-resident and reuse warm allocator blocks."""
        out_doc: list[np.ndarray] = []
        out_tf: list[np.ndarray] = []
        out_w2: list[np.ndarray] = []
        dfs = batch.column("df").to_numpy(zero_copy_only=False)
        blobs = batch.column("blob").to_pylist()
        offsets = batch.column("offset").to_pylist()
        for df, blob, offs in zip(dfs, blobs, offsets):
            doc_ids, tfs = decode_postings(blob, np.asarray(offs, dtype=np.int64))
            w = tfidf_weight_vec(tfs, float(df), float(n_docs))
            out_doc.append(doc_ids)
            out_tf.append(tfs)
            out_w2.append(w * w)
        if not out_doc:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "doc_bucket": pa.array([], pa.int64()),
                    "dl": pa.array([], pa.int64()),
                    "w2": pa.array([], pa.float64()),
                }
            )
        doc = np.concatenate(out_doc)
        tf = np.concatenate(out_tf)
        w2 = np.concatenate(out_w2)
        order = np.lexsort((w2, doc))
        doc, tf, w2 = doc[order], tf[order], w2[order]
        uniq, starts = np.unique(doc, return_index=True)
        return pa.table(
            {
                "doc_id": pa.array(uniq, type=pa.int64()),
                "doc_bucket": pa.array(uniq // width, type=pa.int64()),
                "dl": pa.array(np.add.reduceat(tf, starts), type=pa.int64()),
                "w2": pa.array(np.add.reduceat(w2, starts), type=pa.float64()),
            }
        )

    return _reduce_docstats(
        segments.map_batches(
            tf_w2_partials, batch_format="pyarrow", batch_size=batch_size
        )
    )


def _reduce_docstats(rows: rd.Dataset) -> rd.Dataset:
    """(doc_bucket, doc_id, dl, w2) partial rows -> (doc_id, dl, norm):
    one doc-range-bucket shuffle + vectorized per-doc reductions."""

    def bucket_stats(group: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        if len(group.get("doc_id", ())) == 0:
            # dtype-stable empty block (anything else trips Ray's
            # RefBundle schema-mismatch warning downstream)
            return {"doc_id": np.empty(0, np.int64),
                    "dl": np.empty(0, np.int64),
                    "norm": np.empty(0, np.float64)}
        doc = group["doc_id"].astype(np.int64)
        dl = group["dl"].astype(np.int64)
        w2 = group["w2"].astype(np.float64)
        order = np.lexsort((w2, doc))
        doc, dl, w2 = doc[order], dl[order], w2[order]
        uniq, starts = np.unique(doc, return_index=True)
        dl_sum = np.add.reduceat(dl, starts)
        norm = np.sqrt(np.add.reduceat(w2, starts))
        norm[norm == 0.0] = 1.0
        return {"doc_id": uniq, "dl": dl_sum, "norm": norm}

    return rows.groupby("doc_bucket").map_groups(bucket_stats, batch_format="numpy")


# ---------------------------------------------------------------------------
# docstats from SPIMI runs (the fresh-build fast path)
# ---------------------------------------------------------------------------

# above this many distinct terms the (term -> final df) table stops
# being a sane driver aggregate + object-store broadcast and
# build_index falls back to the segments-decode docstats path
VOCAB_BROADCAST_LIMIT = 20_000_000


def final_df_table(runs: rd.Dataset) -> pa.Table:
    """(term, df, cf) with FINAL document/collection frequencies,
    aggregated from run rows WITHOUT decoding any blob — one pass serves
    both the avgdl stage (total tokens = sum cf) and the docstats idf
    broadcast.

    Exact because ``map_batches`` never splits a document row across
    batches, so every (term, doc) pair lives in exactly ONE run row and
    final df = sum of run dfs. Map-side partials (one row per distinct
    term per batch) concat on the driver into a single pyarrow
    ``group_by`` over <= vocab x n_batches rows — callers gate on
    ``VOCAB_BROADCAST_LIMIT``."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        return (
            batch.select(["term", "df", "cf"])
            .group_by("term")
            .aggregate([("df", "sum"), ("cf", "sum")])
        )

    parts = ray.get(
        runs.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
    )
    # empty corpora yield schemaless empty blocks — drop them
    parts = [p for p in parts if "term" in p.column_names and p.num_rows]
    if not parts:
        return pa.table({"term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64()),
                         "cf": pa.array([], pa.int64())})
    merged = (
        pa.concat_tables(parts)
        .group_by("term")
        .aggregate([("df_sum", "sum"), ("cf_sum", "sum")])
    )
    return pa.table(
        {"term": merged.column("term"),
         "df": merged.column("df_sum_sum").cast(pa.int64()),
         "cf": merged.column("cf_sum_sum").cast(pa.int64())}
    )


def docstats_from_runs(
    runs: rd.Dataset, n_docs: int, df_tbl: pa.Table, *, batch_size: int | None = None
) -> rd.Dataset:
    """(doc_id, dl, norm) decoded from SPIMI RUN rows instead of merged
    segments — the fresh-build fast path.

    Why runs: the corpus is doc_id-sorted before tokenizing, so run rows
    arrive doc-range-CLUSTERED (each tokenizer batch covers one
    contiguous ~4k-doc range). A decode batch therefore touches only a
    narrow doc range and the map-side combine collapses to ~range-width
    rows via plain ``np.bincount`` offset indexing — no per-batch
    lexsort over millions of postings, and the doc-bucket shuffle moves
    ~n_docs rows total instead of ~n_docs x n_decode_batches (measured
    36 s -> segments path vs runs path on the 1.2M-page bench index at
    16 CPUs; see BASELINE.md round 3). Final per-term df (the segments
    haven't merged yet) comes from ``final_df_table`` broadcast once via
    ``ray.put``; idf^2 is looked up per run row with ``pc.index_in``.

    Float note: within a batch, per-doc w^2 adds run in decode order
    (not the sorted order ``docstats_dataset`` uses) and cross-batch
    partials combine in shuffle order — both drift O(1e-15), far inside
    the 1e-9 conformance tolerance (rank-identity suites pass on either
    path; ``tests/test_build_golden.py`` pins norms vs the oracle).

    If a batch turns out NOT doc-clustered (resumed read over shuffled
    files), the bincount window would blow up; batches wider than
    ``8 x postings`` fall back to the lexsort+unique combine."""
    import math

    import ray

    terms = df_tbl.column("term").combine_chunks()
    dfv = df_tbl.column("df").to_numpy(zero_copy_only=False).astype(np.float64)
    with np.errstate(divide="ignore"):
        idf = np.log10(np.where(dfv > 0, n_docs / np.maximum(dfv, 1e-300), 1.0))
    idf2 = np.where(dfv > 0, idf * idf, 0.0)
    lookup_ref = ray.put((terms, idf2))
    bucket_w = _doc_bucket_width(n_docs)

    def run_partials(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "doc_bucket": pa.array([], pa.int64()),
             "dl": pa.array([], pa.int64()),
             "w2": pa.array([], pa.float64())}
        )
        if batch.num_rows == 0:
            return empty
        b_terms, b_idf2 = ray.get(lookup_ref)
        pos = pc.index_in(
            batch.column("term").combine_chunks(), value_set=b_terms
        ).to_numpy(zero_copy_only=False)
        row_idf2 = b_idf2[pos]
        lo = int(pc.min(batch.column("first_doc")).as_py())
        hi = int(pc.max(batch.column("last_doc_max")).as_py())
        # ONE varbyte decode over the batch's concatenated blobs (run
        # rows are ~30-posting blobs — per-row decode calls would pay
        # 5.9M x call overhead on the 1.2M-page corpus). The binary
        # column's data buffer IS the concatenation; every block
        # restarts from an absolute doc_id, so joint decode is exact
        # (same pattern as deletes._filter_runs_batch).
        blob_col = batch.column("blob").combine_chunks()
        bufs = blob_col.buffers()
        owidth = np.int64 if pa.types.is_large_binary(blob_col.type) else np.int32
        boff = np.frombuffer(bufs[1], dtype=owidth)[
            blob_col.offset : blob_col.offset + len(blob_col) + 1
        ].astype(np.int64)
        run_byte_start = boff[:-1] - boff[0]
        joined = memoryview(bufs[2])[boff[0] : boff[-1]]
        off_col = batch.column("offset").combine_chunks()
        off_flat = off_col.flatten().to_numpy()
        loff = off_col.offsets.to_numpy()
        blocks_per_run = np.diff(loff)
        global_offsets = off_flat + np.repeat(run_byte_start, blocks_per_run)
        doc, tf = decode_postings(joined, global_offsets)
        dfv_rows = batch.column("df").to_numpy(zero_copy_only=False)
        run_idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), dfv_rows)
        a = 1.0 + np.log10(np.maximum(tf, 1.0))
        w2 = (a * a) * row_idf2[run_idx]
        width = hi - lo + 1
        if width <= max(8 * doc.size, 1 << 22):
            # doc-range-clustered fast path: ONE bincount per column over
            # the batch's narrow doc window (no lexsort over postings).
            # bincount weight sums are float64 — exact for the int tfs.
            rel = doc - lo
            dl_acc = np.bincount(rel, weights=tf, minlength=width)
            w2_acc = np.bincount(rel, weights=w2, minlength=width)
            present = np.bincount(rel, minlength=width) > 0
            docs = np.flatnonzero(present)
            return pa.table(
                {
                    "doc_id": pa.array(docs + lo, pa.int64()),
                    "doc_bucket": pa.array((docs + lo) // bucket_w, pa.int64()),
                    "dl": pa.array(dl_acc[docs].astype(np.int64), pa.int64()),
                    "w2": pa.array(w2_acc[docs], pa.float64()),
                }
            )
        # un-clustered fallback: lexsort+unique combine (segments shape)
        order = np.lexsort((w2, doc))
        doc, tf, w2 = doc[order], tf[order], w2[order]
        uniq, starts = np.unique(doc, return_index=True)
        return pa.table(
            {
                "doc_id": pa.array(uniq, pa.int64()),
                "doc_bucket": pa.array(uniq // bucket_w, pa.int64()),
                "dl": pa.array(np.add.reduceat(tf, starts), pa.int64()),
                "w2": pa.array(np.add.reduceat(w2, starts), pa.float64()),
            }
        )

    # batch_size=None (per-block): each materialized tokenize block IS
    # one tokenizer batch's runs, covering exactly one contiguous
    # ~4k-doc range — the tightest possible bincount window and no
    # cross-block concat. Resumed file reads may mix ranges; the width
    # gate above falls back per batch.
    rows = runs.map_batches(
        run_partials, batch_format="pyarrow", batch_size=batch_size
    )
    return _reduce_docstats(rows)
