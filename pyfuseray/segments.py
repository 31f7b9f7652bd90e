"""Segment build: SPIMI run rows -> merged posting-list segments.

Re-expresses the reference's k-way block merge (reference
``app/InvertedIndexFinal.py:287-346``) as a Ray Data shuffle over
ENCODED runs: the tokenizer already emitted doc_id-sorted delta+varbyte
runs per (term, batch), so the merge is pure blob concatenation —
every codec block restarts from an absolute doc_id, and runs from a
doc_id-ordered corpus cover disjoint doc ranges. A decode-merge-reencode
fallback handles overlapping ranges (unordered corpora), summing tf for
duplicate (term, doc) pairs (reference merge semantics,
``app/InvertedIndexFinal.py:240-244``).

Skew handling (north-star requirement): ``salt = first_doc * S // N``
splits a hot term's runs into S doc-range groups; the per-term stitch
of split lists is again concatenation.

BM25 block metadata: runs carry per-block (max_tf, min_dl); since a
term's BM25 contribution is increasing in tf and decreasing in dl, the
finalize step attaches ``max_bm25 = bm25_contrib(bm25_idf(df, N),
max_tf, min_dl, avgdl)`` — a tight per-block upper bound for block-max
WAND — once global df is known. It is the searcher's own idf and kernel,
so the bound is >= every score the query computes in the block.
Heavily fragmented lists (many tiny per-batch blocks) are re-blocked by
a vectorized decode + re-encode in finalize.

Final segment schema (one row per term, term-sorted within files):
    term, bucket, df, cf, blob, last_doc: list<int64>,
    max_bm25: list<float64>, offset: list<int64>
The runs' per-block max_tf and min_dl are consumed by the bound and not
kept: no reader needs them once max_bm25 exists.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups
from pyfuseray.codec import BLOCK_SIZE, decode_postings, encode_postings
from pyfuseray.postings import RUN_SCHEMA
from pyfuseray.scoring import bm25_contrib, bm25_idf

SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("bucket", pa.int32()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("blob", pa.binary()),
        ("last_doc", pa.list_(pa.int64())),
        ("max_bm25", pa.list_(pa.float64())),
        ("offset", pa.list_(pa.int64())),
    ]
)

_MERGED_SCHEMA = RUN_SCHEMA  # merge preserves the run schema


def _merge_one_term(rows: list[dict]) -> dict:
    """Merge one term's runs (list of run-row dicts) into a single run."""
    rows.sort(key=lambda r: r["first_doc"])
    disjoint = all(
        rows[i + 1]["first_doc"] > rows[i]["last_doc_max"]
        for i in range(len(rows) - 1)
    )
    if disjoint:
        blobs, l_last, l_maxtf, l_mindl, l_off = [], [], [], [], []
        shift = 0
        df = cf = 0
        for r in rows:
            blobs.append(r["blob"])
            l_last.extend(r["last_doc"])
            l_maxtf.extend(r["max_tf"])
            l_mindl.extend(r["min_dl"])
            l_off.extend(o + shift for o in r["offset"])
            shift += len(r["blob"])
            df += r["df"]
            cf += r["cf"]
        blob = b"".join(blobs)
    else:
        # fallback: overlapping doc ranges (unordered corpus) — decode,
        # merge summing tf per doc (InvertedIndexFinal.py:240-244), re-encode
        all_docs, all_tfs, all_mindl = [], [], []
        for r in rows:
            d, t = decode_postings(r["blob"], np.asarray(r["offset"], dtype=np.int64))
            all_docs.append(d)
            all_tfs.append(t)
            all_mindl.append(min(r["min_dl"]) if len(r["min_dl"]) else 1)
        docs = np.concatenate(all_docs)
        tfs = np.concatenate(all_tfs)
        order = np.argsort(docs, kind="stable")
        docs, tfs = docs[order], tfs[order]
        uniq, starts = np.unique(docs, return_index=True)
        tfs = np.add.reduceat(tfs, starts)
        enc = encode_postings(uniq, tfs)
        blob = enc.blob
        l_last = enc.last_doc.tolist()
        l_maxtf = enc.max_tf.tolist()
        l_mindl = [int(min(all_mindl))] * len(l_last)
        l_off = enc.offset.tolist()
        df, cf = int(uniq.size), int(tfs.sum())
    return {
        "term": rows[0]["term"],
        "bucket": rows[0]["bucket"],
        "first_doc": rows[0]["first_doc"],
        "last_doc_max": int(l_last[-1]) if l_last else rows[-1]["last_doc_max"],
        "df": int(df),
        "cf": int(cf),
        "blob": blob,
        "last_doc": list(map(int, l_last)),
        "max_tf": list(map(int, l_maxtf)),
        "min_dl": list(map(int, l_mindl)),
        "offset": list(map(int, l_off)),
    }


def _empty_runs_table() -> pa.Table:
    return pa.table(
        {f.name: pa.array([], type=f.type) for f in _MERGED_SCHEMA},
        schema=_MERGED_SCHEMA,
    )


def _binary_offsets(arr: pa.Array) -> tuple[np.ndarray, pa.Buffer]:
    """(value byte offsets incl. end, data buffer) of a BinaryArray."""
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1]
    return off.astype(np.int64), bufs[2]


def _list_parts(arr: pa.ListArray) -> tuple[np.ndarray, pa.Array]:
    """(element offsets incl. end, flattened values honoring offsets)."""
    off = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return off, arr.values


def merge_runs_group(group: pa.Table | pd.DataFrame) -> pa.Table:
    """Merge a COARSE group (many whole terms' runs) into run rows.

    The shuffle key is a coarse term bucket (plus salt), not the term
    itself, so per-group framework overhead never scales with vocabulary
    size (10^8 terms => still ~10^4 groups). The merge itself is
    arrow-vectorized: one lexsort by (term, first_doc), segmented
    reductions for df/cf, and ZERO-COPY re-slicing of the blob and
    per-block list columns (a term's merged blob is a byte range of the
    sorted arrays' shared data buffer — no per-row Python). Terms whose
    runs overlap in doc range (unsorted corpus) fall back to the exact
    decode-merge path (``_merge_one_term``), rare by construction.
    """
    if isinstance(group, pd.DataFrame):
        group = pa.Table.from_pandas(group, preserve_index=False)
    n = group.num_rows
    if n == 0:
        return _empty_runs_table()
    g = group.select([f.name for f in _MERGED_SCHEMA]).combine_chunks()
    col = {name: g.column(name).chunk(0) for name in g.column_names}
    codes = col["term"].dictionary_encode().indices.to_numpy(zero_copy_only=False)
    first = col["first_doc"].to_numpy(zero_copy_only=False)
    order = np.lexsort((first, codes))
    gs = g.take(pa.array(order)).combine_chunks()
    col = {name: gs.column(name).chunk(0) for name in gs.column_names}
    codes_s = codes[order]
    first_s = first[order]
    last_s = col["last_doc_max"].to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.concatenate(([True], codes_s[1:] != codes_s[:-1])))
    ends = np.concatenate((starts[1:], [n]))
    nterms = starts.size
    # disjointness per term: every non-first row starts after the
    # previous row's range ends
    ok = np.empty(n, dtype=bool)
    ok[0] = True
    ok[1:] = first_s[1:] > last_s[:-1]
    ok[starts] = True
    disjoint = np.logical_and.reduceat(ok, starts)

    dfs = col["df"].to_numpy(zero_copy_only=False)
    cfs = col["cf"].to_numpy(zero_copy_only=False)
    out_df = np.add.reduceat(dfs, starts)
    out_cf = np.add.reduceat(cfs, starts)
    term_idx = pa.array(starts)
    out_term = col["term"].take(term_idx)
    out_bucket = col["bucket"].take(term_idx)
    out_first = first_s[starts]
    out_lastmax = last_s[ends - 1]

    # blob: a merged term's blob is the byte range [row_off[start],
    # row_off[end]) of the sorted binary column's data buffer
    boff, bdata = _binary_offsets(col["blob"])
    new_boff = boff[np.concatenate((starts, [n]))].astype(np.int32)
    out_blob = pa.Array.from_buffers(
        pa.binary(), nterms, [None, pa.py_buffer(new_boff.tobytes()), bdata]
    )

    def reslice(name: str) -> pa.ListArray:
        off, values = _list_parts(col[name])
        new_off = off[np.concatenate((starts, [n]))].astype(np.int32)
        return pa.ListArray.from_arrays(pa.array(new_off, pa.int32()), values)

    out_last = reslice("last_doc")
    out_maxtf = reslice("max_tf")
    out_mindl = reslice("min_dl")
    # offset lists shift by the cumulative blob length of the term's
    # preceding runs (blob concatenation order == sorted row order)
    ooff, ovalues = _list_parts(col["offset"])
    blob_lens = np.diff(boff)
    excl = np.concatenate(([0], np.cumsum(blob_lens)[:-1]))
    shift = excl - np.repeat(excl[starts], ends - starts)
    # rebase to the referenced value range so the per-row repeat aligns
    # even if the values child carries unreferenced head/tail elements
    vals = ovalues.to_numpy(zero_copy_only=False)[ooff[0] : ooff[-1]]
    shifted = vals + np.repeat(shift, np.diff(ooff))
    new_ooff = (ooff[np.concatenate((starts, [n]))] - ooff[0]).astype(np.int32)
    out_off = pa.ListArray.from_arrays(
        pa.array(new_ooff, pa.int32()), pa.array(shifted, pa.int64())
    )

    out = pa.table(
        {
            "term": out_term,
            "bucket": out_bucket,
            "first_doc": pa.array(out_first, pa.int64()),
            "last_doc_max": pa.array(out_lastmax, pa.int64()),
            "df": pa.array(out_df.astype(np.int64), pa.int64()),
            "cf": pa.array(out_cf.astype(np.int64), pa.int64()),
            "blob": out_blob,
            "last_doc": out_last,
            "max_tf": out_maxtf,
            "min_dl": out_mindl,
            "offset": out_off,
        },
        schema=_MERGED_SCHEMA,
    )
    if disjoint.all():
        return out
    # rare fallback: overlapping doc ranges — redo those terms exactly
    out = out.filter(pa.array(disjoint))
    slow_rows = gs.filter(pa.array(np.repeat(~disjoint, ends - starts)))
    cols = slow_rows.to_pydict()
    by_term: dict[str, list[dict]] = {}
    for i in range(slow_rows.num_rows):
        row = {k: cols[k][i] for k in cols}
        row["blob"] = bytes(row["blob"])
        by_term.setdefault(row["term"], []).append(row)
    merged = [_merge_one_term(rows) for rows in by_term.values()]
    slow_out = pa.table(
        {k.name: [m[k.name] for m in merged] for k in _MERGED_SCHEMA},
        schema=_MERGED_SCHEMA,
    )
    return pa.concat_tables([out, slow_out])


def _empty_segment_table() -> pa.Table:
    return pa.table(
        {f.name: pa.array([], type=f.type) for f in SEGMENT_SCHEMA},
        schema=SEGMENT_SCHEMA,
    )


def make_finalize(n_docs: int, avgdl: float, block_size: int | None = None):
    """Merged run row -> final segment row with BM25 block upper bounds.

    Fully vectorized over the batch in the common (no-reblock) case: one
    flatten of the per-block list columns, one ``bm25_contrib`` over all
    blocks of all terms, one ListArray rebuild — no per-row ``.as_py()`` calls
    (at 10^8-vocab scale the old row loop was 10^8 Python iterations in
    the wide stage). Rows whose lists got too fragmented (many tiny
    per-batch blocks) are re-blocked by a decode + re-encode loop over
    just those rows (rare), using the term-global min_dl for their —
    still valid — BM25 bound.
    """
    bs = block_size or BLOCK_SIZE

    def finalize_fast(batch: pa.Table, idf: np.ndarray) -> pa.Table:
        nblocks = np.asarray(
            pa.compute.list_value_length(batch.column("last_doc")).to_numpy(
                zero_copy_only=False
            ),
            dtype=np.int64,
        )
        mt_flat = (
            batch.column("max_tf").combine_chunks().flatten().to_numpy(
                zero_copy_only=False
            )
        )
        md_flat = (
            batch.column("min_dl").combine_chunks().flatten().to_numpy(
                zero_copy_only=False
            )
        )
        scores = bm25_contrib(np.repeat(idf, nblocks), mt_flat, md_flat, avgdl)
        offsets = np.concatenate(([0], np.cumsum(nblocks)))
        max_bm25 = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(scores, pa.float64())
        )
        return pa.table(
            {
                "term": batch.column("term"),
                "bucket": batch.column("bucket"),
                "df": batch.column("df"),
                "cf": batch.column("cf"),
                "blob": batch.column("blob"),
                "last_doc": batch.column("last_doc"),
                "max_bm25": max_bm25,
                "offset": batch.column("offset"),
            },
            schema=SEGMENT_SCHEMA,
        )

    def finalize_reblock(batch: pa.Table, idf: np.ndarray) -> pa.Table:
        cols = batch.to_pydict()  # one bulk conversion, no per-cell .as_py()
        out = {k: [] for k in ("term", "bucket", "df", "cf", "blob",
                               "last_doc", "max_bm25", "offset")}
        for i in range(batch.num_rows):
            d, t = decode_postings(
                cols["blob"][i], np.asarray(cols["offset"][i], dtype=np.int64)
            )
            enc = encode_postings(d, t, block_size=bs)
            min_dl = cols["min_dl"][i]
            term_min_dl = float(min(min_dl)) if min_dl else 1.0
            bound = bm25_contrib(float(idf[i]), enc.max_tf, term_min_dl, avgdl)
            out["term"].append(cols["term"][i])
            out["bucket"].append(cols["bucket"][i])
            out["df"].append(cols["df"][i])
            out["cf"].append(cols["cf"][i])
            out["blob"].append(enc.blob)
            out["last_doc"].append(enc.last_doc.tolist())
            out["max_bm25"].append(bound.tolist())
            out["offset"].append(enc.offset.tolist())
        return pa.table(out, schema=SEGMENT_SCHEMA)

    def finalize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_segment_table()
        df_int = batch.column("df").to_numpy(zero_copy_only=False)
        # the query's own scalar bm25_idf (np.log can differ from
        # math.log by an ulp), once per distinct df
        udf, inv = np.unique(df_int, return_inverse=True)
        idf = np.array([bm25_idf(int(d), n_docs) for d in udf], dtype=np.float64)[inv]
        nblocks = np.asarray(
            pa.compute.list_value_length(batch.column("last_doc")).to_numpy(
                zero_copy_only=False
            ),
            dtype=np.int64,
        )
        need = nblocks > 2 * np.maximum(1, -(-df_int // bs))
        if not need.any():
            return finalize_fast(batch, idf)
        mask = pa.array(need)
        parts = []
        keep = np.flatnonzero(~need)
        redo = np.flatnonzero(need)
        if keep.size:
            parts.append(
                finalize_fast(batch.filter(pa.compute.invert(mask)), idf[keep])
            )
        parts.append(finalize_reblock(batch.filter(mask), idf[redo]))
        return pa.concat_tables(parts)

    return finalize


def build_bucket_segment(
    runs: rd.Dataset,
    *,
    n_docs: int,
    avgdl: float,
    num_salts: int = 1,
    block_size: int | None = None,
    bucket: int | None = None,
) -> rd.Dataset:
    """Merge run rows into final segment rows (one bucket or all).

    ``num_salts`` = S; salt = first_doc * S // n_docs splits hot terms'
    runs into bounded doc-range groups. ``bucket`` sets a constant
    bucket id when reading a single bucket's leaf dir (hive reads of
    the root already carry the column). Runs shuffle on a coarse bucket
    of the term (``coarse.coarse_bucket``): groups stay bounded whatever
    the vocabulary size, and every run of a term lands in one group.
    """
    s = max(1, int(num_salts))
    n = max(1, int(n_docs))
    groups = coarse_groups()

    def add_tbucket(batch: pa.Table) -> pa.Table:
        tb = coarse_bucket(batch.column("term"), n_groups=groups)
        return batch.append_column("tbucket", pa.array(tb))

    def add_keys(batch: pa.Table) -> pa.Table:
        first = batch.column("first_doc").to_numpy(zero_copy_only=False)
        salt = (first.astype(np.int64) * s) // n
        if "bucket" in batch.column_names:
            idx = batch.column_names.index("bucket")
            batch = batch.set_column(
                idx, "bucket", batch.column("bucket").cast(pa.int32())
            )
        else:
            batch = batch.append_column(
                "bucket", pa.array(np.full(batch.num_rows, bucket or 0, dtype=np.int32))
            )
        return add_tbucket(batch).append_column("salt", pa.array(salt, pa.int64()))

    salted = runs.map_batches(add_keys, batch_format="pyarrow")
    if s == 1:
        merged = salted.groupby("tbucket").map_groups(
            merge_runs_group, batch_format="pyarrow"
        )
    else:
        part = salted.groupby(["tbucket", "salt"]).map_groups(
            merge_runs_group, batch_format="pyarrow"
        )
        part = part.map_batches(add_tbucket, batch_format="pyarrow")
        merged = part.groupby("tbucket").map_groups(
            merge_runs_group, batch_format="pyarrow"
        )
    return merged.map_batches(
        make_finalize(n_docs, avgdl, block_size), batch_format="pyarrow"
    )
