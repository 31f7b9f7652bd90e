"""Actor-resident BM25 search tier: doc-range-sharded, pre-decoded.

``IndexSearcher`` pays two per-query costs the latency tier can erase:
a parquet segment lookup on a cold term (measured ~39 ms) and — even
fully warm — the varbyte decode + merge over every query term's whole
posting list (the flat ~9 ms p50 the reference-parity table stalls at,
round-3 verdict ask #6). ``ResidentTextSearcher`` is the ``ResidentIVF``
pattern (extras/ivf.py) applied to text: a pool of shard actors, each
owning a contiguous doc-id RANGE, decodes its slice of every posting
list ONCE at load and keeps (doc_ids, tf, precomputed BM25 contribution)
as numpy arrays in actor memory. A query is then one RPC fan-out; each
actor concatenates its query-term contribution slices, reduces per doc,
and returns its LOCAL canonical top-k — the driver merges k·n_shards
rows, never postings.

Rank identity by construction (pytest-pinned): per-posting contribution
is ``scoring.bm25_contrib(bm25_idf(df_global, N), tf, dl, avgdl)``, the
same kernel and idf ``IndexSearcher._bm25_taat`` calls, per-doc
accumulation uses the same stable-argsort + reduceat in the
same sorted-term order (doc ranges partition docs, so per-doc sums see
identical operand sequences — bit-identical scores), and both local and
merged top-k use the canonical (-score, doc_id) order. Tombstoned docs
are dropped at LOAD (they can never re-enter a result set between
loads; a delete requires a reload, documented below).

Scale shape: shards = doc ranges, the classic document-partitioned
search-cluster layout — each node holds 1/Nth of the decoded index in
its own memory, query cost per node is its local slice, and the merge
moves k rows per shard. Per-actor load is RANGE-PRUNED at the file
level: a one-time distributed pass (:func:`ensure_resident_layout`)
re-partitions the segment postings into ``resident/rbucket=K/`` hive
buckets by doc range (re-encoded with the same run codec), and each
shard actor reads ONLY the bucket directories intersecting its
``[lo, hi)`` — ~1/n_shards of the sidecar bytes, independent of shard
count. The sidecar is the only load path: a searcher always builds or
validates it first, so no actor reads the whole segment set. It carries a
(file, size, mtime) signature of the segment set; compaction or an
incremental add invalidates it and the next searcher rebuild re-runs
the distributed pass.

The reference's analogue is the single-process in-RAM index scan
(``app/InvertedIndexFinal.py:358-418``); this is that tier rebuilt as a
shardable actor pool.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.dataset as pads
import ray

from pyfuseray.analyzer import make_analyzer
from pyfuseray.checkpoint import FORMAT_VERSION, load_manifest, require_single_generation
from pyfuseray.codec import decode_postings
from pyfuseray.scoring import BM25_B, BM25_K1, bm25_contrib, bm25_idf

# doc-range hive buckets in the resident sidecar. Finer than the default
# shard count so any n_shards <= RESIDENT_BUCKETS reads only the buckets
# its range intersects (at most one partial bucket of overread per edge).
RESIDENT_BUCKETS = 64
_RESIDENT_DIRNAME = "resident"


def _segments_signature(index_dir: str) -> list[list]:
    """(relpath, size, mtime_ns) of every segment parquet file — any
    rewrite (compaction, incremental add, rebuild) changes it."""
    import glob

    seg = os.path.join(index_dir, "segments")
    out = []
    for p in sorted(glob.glob(os.path.join(seg, "**", "*.parquet"), recursive=True)):
        st = os.stat(p)
        out.append([os.path.relpath(p, seg), st.st_size, st.st_mtime_ns])
    return out


def _split_segments_batch(batch, *, n_docs: int, n_buckets: int):
    """Segment rows -> one sidecar row per (term, doc-range bucket).

    Whole-batch vectorized (the ``deletes._filter_runs_batch`` pattern):
    ONE zero-copy decode over the concatenated blobs, a bucket id per
    posting (``doc * NB // n_docs``), and ONE re-encode of the
    (row, bucket)-delimited runs via ``encode_sorted_runs`` — postings
    arrive sorted by (row, doc) and bucket is monotone in doc, so the
    combined key is non-decreasing and no sort is needed.
    """
    import pyarrow as pa

    from pyfuseray.postings import encode_sorted_runs

    sidecar_schema = pa.schema(
        [
            ("term", pa.string()),
            ("rbucket", pa.int32()),
            ("gdf", pa.int64()),
            ("np", pa.int64()),
            ("blob", pa.binary()),
            ("offset", pa.list_(pa.int64())),
        ]
    )
    if batch.num_rows == 0:
        return pa.table(
            {f.name: pa.array([], type=f.type) for f in sidecar_schema},
            schema=sidecar_schema,
        )
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
    blocks_per_row = np.diff(loff)
    global_offsets = off_flat + np.repeat(run_byte_start, blocks_per_row)

    docs, tfs = decode_postings(joined, global_offsets)
    if docs.size == 0:
        return pa.table(
            {f.name: pa.array([], type=f.type) for f in sidecar_schema},
            schema=sidecar_schema,
        )
    dfs = batch.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
    row_idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), dfs)
    rbucket = np.minimum(docs * n_buckets // max(1, n_docs), n_buckets - 1)
    key = row_idx * n_buckets + rbucket  # non-decreasing (see docstring)
    change = np.concatenate(([True], key[1:] != key[:-1]))
    inv = np.cumsum(change) - 1  # run index per posting
    run_keys = key[change]
    row_of_run = run_keys // n_buckets
    rb_of_run = (run_keys % n_buckets).astype(np.int32)
    run_terms = (
        batch.column("term").take(pa.array(row_of_run, pa.int64())).to_pylist()
    )
    enc = encode_sorted_runs(
        run_terms,
        inv,
        docs,
        tfs,
        np.ones(docs.size, dtype=np.int64),  # min_dl metadata unused here
        1,
        {},
    )
    return pa.table(
        {
            "term": enc.column("term"),
            "rbucket": pa.array(rb_of_run, pa.int32()),
            "gdf": pa.array(dfs[row_of_run], pa.int64()),
            "np": enc.column("df"),
            "blob": enc.column("blob"),
            "offset": enc.column("offset"),
        },
        schema=sidecar_schema,
    )


def ensure_resident_layout(
    index_dir: str, n_buckets: int = RESIDENT_BUCKETS
) -> str:
    """Build (or reuse) the doc-range-bucketed resident sidecar.

    One distributed Ray Data pass over the segment files — each segment
    byte is read ONCE total (vs once per shard actor without the
    sidecar) — writing ``resident/rbucket=K/`` hive partitions plus a
    ``meta.json`` carrying the segment-set signature. A stale or
    missing sidecar is rebuilt; a current one returns immediately.
    Atomic: built under ``resident.writing`` and swapped in. Raises on
    an incomplete or tiered index (``require_single_generation``).
    """
    import json
    import shutil

    import ray.data as rd

    m = load_manifest(index_dir)
    if m is None or not m.stage_done("done"):
        raise FileNotFoundError(f"no complete index manifest in {index_dir}")
    # the sidecar reads the consolidated segments/ dir only
    require_single_generation(m, "resident tier")
    from pyfuseray.incremental import _doc_domain

    res = os.path.join(index_dir, _RESIDENT_DIRNAME)
    meta_path = os.path.join(res, "meta.json")
    domain = _doc_domain(index_dir, m.n_docs)
    want = {
        "version": FORMAT_VERSION,
        "n_buckets": int(n_buckets),
        "domain": domain,
        "signature": _segments_signature(index_dir),
    }
    if os.path.exists(meta_path):
        try:
            with open(meta_path) as fh:
                have = json.load(fh)
        except (json.JSONDecodeError, OSError):
            have = None
        if have == want:
            return res
    tmp = res + ".writing"
    shutil.rmtree(tmp, ignore_errors=True)
    seg_dir = os.path.join(index_dir, "segments")
    rd.read_parquet(seg_dir, columns=["term", "df", "blob", "offset"]).map_batches(
        _split_segments_batch,
        fn_kwargs={"n_docs": domain, "n_buckets": int(n_buckets)},
        batch_format="pyarrow",
    ).write_parquet(tmp, partition_cols=["rbucket"])
    with open(os.path.join(tmp, "meta.json"), "w") as fh:
        json.dump(want, fh)
    if os.path.exists(res):
        shutil.rmtree(res)
    os.replace(tmp, res)
    return res


class _TextShardActor:
    """Owns doc range [lo, hi): decoded postings + BM25 contributions."""

    def __init__(
        self,
        index_dir: str,
        lo: int,
        hi: int,
        resident_dir: str,
        n_buckets: int = RESIDENT_BUCKETS,
        domain: int | None = None,
    ):
        m = load_manifest(index_dir)
        if m is None or not m.stage_done("done"):
            raise FileNotFoundError(f"no complete index manifest in {index_dir}")
        self.lo, self.hi = lo, hi
        self.k1 = float(getattr(m, "bm25_k1", BM25_K1))
        self.b = float(getattr(m, "bm25_b", BM25_B))
        n, avgdl = m.n_docs, m.avgdl or 1.0
        self.avgdl = avgdl
        self.load_bytes = 0

        # per-doc lengths for this range (docstats is doc_id-sorted:
        # the range filter prunes row groups)
        dl = np.full(hi - lo, avgdl, dtype=np.float64)
        stats = pads.dataset(
            os.path.join(index_dir, "stats", "docstats.parquet"),
            format="parquet",
        ).to_table(
            columns=["doc_id", "dl"],
            filter=(pads.field("doc_id") >= lo) & (pads.field("doc_id") < hi),
        )
        sids = stats.column("doc_id").to_numpy()
        dl[sids - lo] = stats.column("dl").to_numpy().astype(np.float64)

        from pyfuseray.deletes import load_tombstones

        deleted = load_tombstones(index_dir, m)
        self.post = self._load_from_sidecar(
            resident_dir, n_buckets, n, dl, deleted,
            domain if domain is not None else n,
        )
        self.dl = dl
        self.n_docs = n

    def _load_from_sidecar(
        self,
        resident_dir: str,
        n_buckets: int,
        n: int,
        dl: np.ndarray,
        deleted: np.ndarray,
        domain: int,
    ) -> dict:
        """Bucket-pruned load: read ONLY ``rbucket=K`` hive directories
        intersecting [lo, hi) — ~(hi-lo)/n_docs of the sidecar bytes —
        then one vectorized decode + per-term grouping. Each term's
        (ids, tfs) equal its segment postings clipped to [lo, hi)
        (pytest-pinned), scored with the searcher's idf and kernel.
        """
        import pyarrow as pa

        from pyfuseray.deletes import in_tombstones

        lo, hi = self.lo, self.hi
        k1, b, avgdl = self.k1, self.b, self.avgdl
        b_lo = max(0, lo * n_buckets // max(1, domain))
        b_hi = min(n_buckets - 1, (hi - 1) * n_buckets // max(1, domain))
        tables = []
        for bk in range(b_lo, b_hi + 1):
            d = os.path.join(resident_dir, f"rbucket={bk}")
            if not os.path.isdir(d):
                continue
            for f in os.listdir(d):
                if f.endswith(".parquet"):
                    self.load_bytes += os.path.getsize(os.path.join(d, f))
            tables.append(
                pads.dataset(d, format="parquet").to_table(
                    columns=["term", "gdf", "np", "blob", "offset"]
                )
            )
        post: dict[str, tuple] = {}
        if not tables:
            return post
        t = pa.concat_tables(tables).combine_chunks()
        if t.num_rows == 0:
            return post
        blob_col = t.column("blob").combine_chunks()
        if isinstance(blob_col, pa.ChunkedArray):
            blob_col = blob_col.chunk(0)
        bufs = blob_col.buffers()
        owidth = np.int64 if pa.types.is_large_binary(blob_col.type) else np.int32
        boff = np.frombuffer(bufs[1], dtype=owidth)[
            blob_col.offset : blob_col.offset + len(blob_col) + 1
        ].astype(np.int64)
        row_byte_start = boff[:-1] - boff[0]
        joined = memoryview(bufs[2])[boff[0] : boff[-1]]
        off_col = t.column("offset").combine_chunks()
        if isinstance(off_col, pa.ChunkedArray):
            off_col = off_col.chunk(0)
        off_flat = off_col.flatten().to_numpy()
        loff = off_col.offsets.to_numpy().astype(np.int64)
        loff = loff - loff[0]
        global_offsets = off_flat + np.repeat(row_byte_start, np.diff(loff))
        docs, tfs = decode_postings(joined, global_offsets)
        counts = t.column("np").to_numpy(zero_copy_only=False).astype(np.int64)
        row_idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
        keep = (docs >= lo) & (docs < hi)
        if deleted.size:
            keep &= ~in_tombstones(docs, deleted)
        docs, tfs, row_idx = docs[keep], tfs[keep], row_idx[keep]
        if not docs.size:
            return post
        dic = t.column("term").dictionary_encode()
        if isinstance(dic, pa.ChunkedArray):
            dic = dic.combine_chunks()
        row_codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = dic.dictionary.to_pylist()
        gdf_rows = t.column("gdf").to_numpy(zero_copy_only=False).astype(np.int64)
        gdf_by_code = np.zeros(len(vocab), dtype=np.int64)
        gdf_by_code[row_codes] = gdf_rows
        codes = row_codes[row_idx]
        # stable: within a term, (bucket, doc) order == doc order
        order = np.argsort(codes, kind="stable")
        docs, tfs, codes = docs[order], tfs[order], codes[order]
        starts = np.flatnonzero(
            np.concatenate(([True], codes[1:] != codes[:-1]))
        )
        ends = np.concatenate((starts[1:], [codes.size]))
        for s, e in zip(starts, ends):
            code = int(codes[s])
            idf = bm25_idf(int(gdf_by_code[code]), n)
            ids = docs[s:e]
            tfr = tfs[s:e]
            contrib = bm25_contrib(idf, tfr, dl[ids - lo], avgdl, k1, b)
            post[vocab[code]] = (ids, tfr.astype(np.int32), contrib, idf)
        return post

    def ready(self) -> bool:
        return True

    def load_info(self) -> dict:
        """Bytes this actor read from the resident sidecar at load."""
        return {"load_bytes": int(self.load_bytes)}

    def score(
        self, terms: list[str], k: int, k1: float, b: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Local canonical top-k for this shard's doc range.

        ``terms`` must arrive SORTED (the driver sorts) so the per-doc
        float addition order matches _bm25_taat exactly."""
        doc_parts: list[np.ndarray] = []
        s_parts: list[np.ndarray] = []
        build_params = (k1, b) == (self.k1, self.b)
        for t in terms:
            hit = self.post.get(t)
            if hit is None:
                continue
            ids, tfs, contrib, idf = hit
            if not build_params:
                # recompute for caller-supplied parameters (exact; the
                # precomputed column is only valid for the build params)
                contrib = bm25_contrib(
                    idf, tfs, self.dl[ids - self.lo], self.avgdl, k1, b
                )
            doc_parts.append(ids)
            s_parts.append(contrib)
        if not doc_parts:
            e = np.array([], dtype=np.int64)
            return e, np.array([], dtype=np.float64)
        docs = np.concatenate(doc_parts)
        contribs = np.concatenate(s_parts)
        order = np.argsort(docs, kind="stable")  # stable: preserves term order
        docs, contribs = docs[order], contribs[order]
        uniq, starts = np.unique(docs, return_index=True)
        scores = np.add.reduceat(contribs, starts)
        kk = min(k, uniq.size)
        idx = np.lexsort((uniq, -scores))[:kk]
        return uniq[idx], scores[idx]

    def score_many(
        self, term_lists: list[list[str]], k: int, k1: float, b: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All queries in ONE RPC (amortizes the fan-out latency the
        same way ResidentIVF batches its query matrix)."""
        out_q: list[np.ndarray] = []
        out_id: list[np.ndarray] = []
        out_s: list[np.ndarray] = []
        for j, terms in enumerate(term_lists):
            ids, scores = self.score(terms, k, k1, b)
            out_q.append(np.full(ids.size, j, dtype=np.int64))
            out_id.append(ids)
            out_s.append(scores)
        if not out_q:
            e = np.array([], dtype=np.int64)
            return e, e, np.array([], dtype=np.float64)
        return (
            np.concatenate(out_q),
            np.concatenate(out_id),
            np.concatenate(out_s),
        )


class ResidentTextSearcher:
    """Doc-range-sharded resident BM25 searcher (see module docstring).

    Loads once; serve many queries. Deletes/compactions applied to the
    index AFTER construction are not visible until a new instance is
    built (the same snapshot semantics as a loaded IVF tier)."""

    def __init__(self, index_dir: str, n_shards: int = 8):
        # one distributed pass builds (or validates) the doc-range hive
        # layout; every actor load after that is file-pruned. It also
        # refuses incomplete and tiered indexes.
        resident_dir = ensure_resident_layout(index_dir)
        self.manifest = m = load_manifest(index_dir)
        self.analyzer = make_analyzer(m.analyzer)
        # shard over the doc-id DOMAIN (max id + 1), not the count: a
        # compacted index keeps original ids, which can exceed n_docs
        from pyfuseray.incremental import _doc_domain

        domain = _doc_domain(index_dir, m.n_docs)
        n_shards = max(1, min(n_shards, domain))
        bounds = np.linspace(0, domain, n_shards + 1).astype(np.int64)
        actor = ray.remote(_TextShardActor)
        self.actors = [
            actor.remote(
                index_dir, int(bounds[i]), int(bounds[i + 1]),
                resident_dir, RESIDENT_BUCKETS, domain,
            )
            for i in range(n_shards)
            if bounds[i] < bounds[i + 1]
        ]
        ray.get([a.ready.remote() for a in self.actors])  # surface load errors

    def load_info(self) -> list[dict]:
        """Per-shard sidecar bytes read at load."""
        return ray.get([a.load_info.remote() for a in self.actors])

    def search_bm25(
        self,
        query: str,
        top_k: int = 10,
        k1: float = BM25_K1,
        b: float = BM25_B,
    ) -> list[tuple[int, float]]:
        terms = self.analyzer.preprocess_query(query)
        if not terms:
            return []
        sorted_terms = sorted(terms)
        parts = ray.get(
            [a.score.remote(sorted_terms, top_k, k1, b) for a in self.actors]
        )
        ids = np.concatenate([p[0] for p in parts])
        scores = np.concatenate([p[1] for p in parts])
        if ids.size == 0:
            return []
        k = min(top_k, ids.size)
        idx = np.lexsort((ids, -scores))[:k]
        return [(int(ids[i]), float(scores[i])) for i in idx]

    def search_bm25_many(
        self,
        queries: list[str],
        top_k: int = 10,
        k1: float = BM25_K1,
        b: float = BM25_B,
    ) -> list[list[tuple[int, float]]]:
        """Batch form: ONE actor fan-out scores every query (per-query
        results identical to ``search_bm25``; the RPC round-trip is paid
        once per batch instead of once per query)."""
        term_lists = [sorted(self.analyzer.preprocess_query(q)) for q in queries]
        parts = ray.get(
            [a.score_many.remote(term_lists, top_k, k1, b) for a in self.actors]
        )
        qs = np.concatenate([p[0] for p in parts])
        ids = np.concatenate([p[1] for p in parts])
        ss = np.concatenate([p[2] for p in parts])
        results: list[list[tuple[int, float]]] = []
        for j in range(len(queries)):
            sel = qs == j
            i, s = ids[sel], ss[sel]
            kk = min(top_k, i.size)
            idx = np.lexsort((i, -s))[:kk]
            results.append([(int(i[x]), float(s[x])) for x in idx])
        return results

    def close(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
