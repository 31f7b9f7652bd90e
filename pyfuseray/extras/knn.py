"""Similarity search over an embedding column (stretch path of the
reference's Part 2 KNN backends, ``app/MultiDim.py:68-166``).

- ``brute_force_topk``: exact cosine top-k. The query matrix is
  broadcast ONCE via ``ray.put`` and read in every map_batches task
  (never re-shipped per batch); each batch does one numpy matmul and
  keeps only its partial top-k, so the driver merge sees
  num_blocks x k rows — the distributed form of the reference's
  bounded-heap sequential scan (``app/MultiDim.py:73-87``).
- ``lsh_topk``: random-hyperplane LSH variant — the scale path: bucket
  by sign-pattern, search only matching buckets. Recall < 1 by design;
  partitioning assumption: queries and corpus share the same projection
  matrix (fixed seed).
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups
from pyfuseray.extras.vecs import as_matrix


def _as_matrix(batch_col) -> np.ndarray:
    return as_matrix(batch_col, dtype=np.float32)


def brute_force_topk(
    embeddings: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    metric: str = "cosine",
) -> list[list[tuple[int, float]]]:
    """Exact top-k for each query row; returns per-query
    [(vec_id, score)] sorted by (-score, vec_id)."""
    q = np.asarray(queries, dtype=np.float32)
    if q.ndim == 1:
        q = q[None, :]
    if metric == "cosine":
        qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    else:
        qn = q
    q_ref = ray.put(qn)

    def partial_topk(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        vecs = _as_matrix(batch.column(vec_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        if metric == "cosine":
            norms = np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-30)
            sims = (vecs / norms) @ qm.T  # (n, nq)
        else:
            sims = -np.sqrt(
                np.maximum(
                    (vecs**2).sum(1)[:, None] - 2 * vecs @ qm.T + (qm**2).sum(1)[None, :],
                    0.0,
                )
            )
        kk = min(k, sims.shape[0])
        out_q, out_id, out_s = [], [], []
        for j in range(qm.shape[0]):
            col = sims[:, j]
            top = np.argpartition(-col, kk - 1)[:kk]
            out_q.extend([j] * kk)
            out_id.extend(ids[top].tolist())
            out_s.extend(col[top].astype(np.float64).tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_id, type=pa.int64()),
                "score": pa.array(out_s, type=pa.float64()),
            }
        )

    partials = embeddings.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    results: list[list[tuple[int, float]]] = []
    for j in range(qn.shape[0]):
        sub = partials[partials["query_id"] == j]
        best = heapq.nsmallest(
            k, zip(sub["score"], sub["vec_id"]), key=lambda t: (-t[0], t[1])
        )
        results.append([(int(v), float(s)) for s, v in best])
    return results


def lsh_topk(
    embeddings: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    n_planes: int = 12,
    seed: int = 13,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> list[list[tuple[int, float]]]:
    """Approximate cosine top-k: random-hyperplane bucket then exact
    rerank within the query's bucket (fallback to brute force when the
    bucket is empty)."""
    q = np.asarray(queries, dtype=np.float32)
    if q.ndim == 1:
        q = q[None, :]
    dim = q.shape[1]
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, n_planes)).astype(np.float32)
    planes_ref = ray.put(planes)

    def add_bucket(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        vecs = _as_matrix(batch.column(vec_col))
        signs = (vecs @ pl) > 0
        buckets = (signs @ (1 << np.arange(n_planes))).astype(np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col),
                vec_col: batch.column(vec_col),
                "bucket": pa.array(buckets, type=pa.int64()),
            }
        )

    bucketed = embeddings.map_batches(add_bucket, batch_format="pyarrow")
    q_signs = (q @ planes) > 0
    q_buckets = (q_signs @ (1 << np.arange(n_planes))).astype(np.int64)
    wanted = set(int(x) for x in q_buckets)
    in_buckets = bucketed.map_batches(
        lambda t: t.filter(
            pa.compute.is_in(t.column("bucket"), value_set=pa.array(sorted(wanted)))
        ),
        batch_format="pyarrow",
    )
    # distributed rerank: each batch scores only ITS candidate rows per
    # query and keeps a partial top-k; the driver merge sees at most
    # num_blocks x k x nq rows (never the candidate vectors themselves)
    qn_mat = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    qinfo_ref = ray.put((qn_mat, q_buckets))

    def partial_rerank(batch: pa.Table) -> pa.Table:
        qm, qb = ray.get(qinfo_ref)
        vecs = _as_matrix(batch.column(vec_col))
        vn = vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-30)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        buckets = batch.column("bucket").to_numpy(zero_copy_only=False)
        out_q, out_id, out_s = [], [], []
        for j in range(qm.shape[0]):
            sel = np.flatnonzero(buckets == qb[j])
            if sel.size == 0:
                continue
            sims = vn[sel] @ qm[j]
            kk = min(k, sel.size)
            top = np.argpartition(-sims, kk - 1)[:kk]
            out_q.extend([j] * kk)
            out_id.extend(ids[sel][top].tolist())
            out_s.extend(sims[top].astype(np.float64).tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_id, type=pa.int64()),
                "score": pa.array(out_s, type=pa.float64()),
            }
        )

    partials = in_buckets.map_batches(partial_rerank, batch_format="pyarrow").to_pandas()
    results = []
    for j in range(q.shape[0]):
        sub = partials[partials["query_id"] == j]
        if len(sub) == 0:
            results.append(brute_force_topk(embeddings, q[j], k,
                                            id_col=id_col, vec_col=vec_col)[0])
            continue
        best = heapq.nsmallest(
            k, zip(sub["score"], sub["vec_id"]), key=lambda t: (-t[0], t[1])
        )
        results.append([(int(v), float(s)) for s, v in best])
    return results


def _norm_rows(mat: np.ndarray) -> np.ndarray:
    return mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-30)


def _pair_table(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> pa.Table:
    return pa.table(
        {
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            "score": pa.array(s, pa.float64()),
        }
    )


def embedding_near_dups(
    embeddings: rd.Dataset,
    threshold: float = 0.45,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    target_block_rows: int = 4096,
    max_blocks: int = 256,
) -> rd.Dataset:
    """EXACT embedding-cosine near-duplicate pairs (a < b, cosine >=
    threshold), as a distributed block-pair self-join.

    Plan: repartition into B object-store blocks, then one Ray task per
    block pair (i <= j, B*(B+1)/2 tasks). Each task reads exactly TWO
    blocks (zero-copy out of the object store), does one float64 matmul,
    and emits its above-threshold pairs with vectorized mask ops — the
    driver never materializes the embedding table and no task receives
    the whole matrix. Exact cosine threshold join is inherently O(N^2)
    COMPUTE (so is the SQL oracle); what this plan fixes is the memory/
    communication shape. For the sub-quadratic scale path at realistic
    near-dup thresholds (>= ~0.8) use ``embedding_near_dups_lsh`` —
    at low thresholds like 0.45 hyperplane-LSH recall cannot reach 1,
    so the exact join stays the reference semantics.
    """
    import math

    proj = embeddings.select_columns([id_col, vec_col])
    n = proj.count()
    nblocks = max(1, math.ceil(n / max(1, target_block_rows)))
    if nblocks > max_blocks:
        raise ValueError(
            f"embedding_near_dups would spawn {nblocks * (nblocks + 1) // 2} "
            f"block-pair tasks ({nblocks} blocks > max_blocks={max_blocks}); "
            "the exact all-pairs join is O(N^2) by definition — use "
            "embedding_near_dups_lsh (sub-quadratic) at this scale, or "
            "raise max_blocks explicitly if the quadratic cost is intended"
        )
    refs = proj.repartition(nblocks).to_arrow_refs()

    @ray.remote
    def block_pair(left: pa.Table, right: pa.Table, same: bool) -> pa.Table:
        lv = _norm_rows(as_matrix(left.column(vec_col), dtype=np.float64))
        lids = left.column(id_col).to_numpy(zero_copy_only=False)
        if same:
            rv, rids = lv, lids
        else:
            rv = _norm_rows(as_matrix(right.column(vec_col), dtype=np.float64))
            rids = right.column(id_col).to_numpy(zero_copy_only=False)
        sims = lv @ rv.T
        mask = sims >= threshold
        if same:
            # same-block pairs counted once via the id inequality
            mask &= lids[:, None] < rids[None, :]
        ii, jj = np.nonzero(mask)
        x, y = lids[ii], rids[jj]
        # orient a < b regardless of which block a row landed in
        a, b = np.minimum(x, y), np.maximum(x, y)
        return _pair_table(a, b, np.round(sims[ii, jj].astype(np.float64), 6))

    tasks = [
        block_pair.remote(refs[i], refs[j], i == j)
        for i in range(nblocks)
        for j in range(i, nblocks)
    ]
    return rd.from_arrow_refs(tasks)


def embedding_near_dups_lsh(
    embeddings: rd.Dataset,
    threshold: float = 0.8,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    planes_per_band: int = 8,
    n_bands: int = 16,
    seed: int = 29,
    max_bucket: int = 1024,
) -> rd.Dataset:
    """Sub-quadratic near-duplicate pairs via banded hyperplane LSH.

    The scale path for the HIGH-threshold regime (>= ~0.8): two vectors
    at cosine s agree on one plane with p = 1 - arccos(s)/pi, so a pair
    survives banding with 1 - (1 - p^r)^b (r = planes_per_band,
    b = n_bands). Recall < 1 BY DESIGN — near 1 for true near-dups,
    vanishing for unrelated pairs; at low thresholds (e.g. 0.45,
    p ~ 0.65) no (r, b) gives both recall and sub-quadratic work, which
    is why the exact ``embedding_near_dups`` stays the reference
    semantics.

    Plan: one signature ``map_batches`` emits (band, key, id, vec) rows
    — the vector rides through the ONE (band, key) groupby shuffle so
    each bucket verifies exact cosine locally with no second join pass
    (dim*8 bytes/row; for very wide embeddings switch the payload to a
    pair-join as in ``dedup.minhash_dedup``). Within-bucket pairs are
    emitted vectorized and capped at ``max_bucket`` ids with an
    ``overflow`` marker column (never a silent drop); a final (a, b)
    groupby dedups pairs found by multiple bands.

    Output: (a, b, score, overflow) with a < b, score = exact cosine
    rounded to 6dp, overflow = pair came from a truncated bucket.
    """
    rng = np.random.default_rng(seed)
    first = embeddings.take(1)
    dim = len(first[0][vec_col]) if first else 0
    planes = rng.standard_normal((dim, planes_per_band * n_bands)).astype(np.float32)
    planes_ref = ray.put(planes)
    weights = (1 << np.arange(planes_per_band)).astype(np.int64)
    groups = coarse_groups()

    def signatures(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        vecs = _as_matrix(batch.column(vec_col))
        signs = (vecs @ pl) > 0  # (n, r*b)
        n = len(vecs)
        keys = (
            signs.reshape(n, n_bands, planes_per_band).astype(np.int64) @ weights
        )  # (n, b)
        bands = np.repeat(np.arange(n_bands, dtype=np.int32)[None, :], n, axis=0)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        rep = pa.array(np.repeat(np.arange(n, dtype=np.int64), n_bands))
        flat_bands = bands.ravel()
        flat_keys = keys.ravel()
        return pa.table(
            {
                "band": pa.array(flat_bands, pa.int32()),
                "key": pa.array(flat_keys, pa.int64()),
                # bounded group count however many (band, key) buckets exist
                "_cb": pa.array(coarse_bucket(flat_keys, flat_bands, n_groups=groups)),
                id_col: pa.array(np.repeat(ids, n_bands), pa.int64()),
                vec_col: pa.compute.take(batch.column(vec_col), rep),
            }
        )

    def bucket_pairs(coarse: pa.Table) -> pa.Table:
        """One COARSE group = many (band, key) buckets; per-bucket exact
        cosine verify, capped with overflow markers."""
        band = coarse.column("band").to_numpy(zero_copy_only=False)
        key = coarse.column("key").to_numpy(zero_copy_only=False)
        ids = coarse.column(id_col).to_numpy(zero_copy_only=False)
        # one lexsort segments the group into buckets, ids ascending
        order = np.lexsort((ids, key, band))
        change = np.ones(order.size, dtype=bool)
        change[1:] = (np.diff(band[order]) != 0) | (np.diff(key[order]) != 0)
        starts = np.flatnonzero(change)
        vecs_all = as_matrix(coarse.column(vec_col), dtype=np.float64)
        parts = []
        for rows in np.split(order, starts[1:]):
            overflow = rows.size > max_bucket
            rows = rows[:max_bucket]
            if rows.size < 2:
                continue
            vecs = _norm_rows(vecs_all[rows])
            sims = vecs @ vecs.T
            ii, jj = np.nonzero(np.triu(sims >= threshold, k=1))
            parts.append(
                (ids[rows[ii]], ids[rows[jj]], np.round(sims[ii, jj], 6),
                 np.full(ii.size, overflow))
            )
        cols = [np.concatenate(c) for c in zip(*parts)] if parts else [[]] * 4
        return pa.table(
            {
                "a": pa.array(cols[0], pa.int64()),
                "b": pa.array(cols[1], pa.int64()),
                "score": pa.array(cols[2], pa.float64()),
                "overflow": pa.array(cols[3], pa.bool_()),
            }
        )

    from pyfuseray.extras.dedup import _dedup_pairs

    sig = embeddings.select_columns([id_col, vec_col]).map_batches(
        signatures, batch_format="pyarrow"
    )
    pairs = sig.groupby("_cb").map_groups(bucket_pairs, batch_format="pyarrow")
    # sticky-overflow dedup (overflow=True wins): a pair found by both a
    # truncated and an untruncated bucket must keep its marker
    return _dedup_pairs(pairs)


def range_search(
    embeddings: rd.Dataset,
    query: np.ndarray,
    radius: float,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> list[tuple[int, float]]:
    """All vectors with euclidean distance <= radius, sorted by distance
    (reference ``app/MultiDim.py:90-101``), as a filter + driver sort."""
    qv = np.asarray(query, dtype=np.float32).ravel()
    q_ref = ray.put(qv)

    def within(batch: pa.Table) -> pa.Table:
        qq = ray.get(q_ref)
        vecs = _as_matrix(batch.column(vec_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        d = np.linalg.norm(vecs - qq[None, :], axis=1)
        mask = d <= radius
        return pa.table(
            {
                "vec_id": pa.array(ids[mask], type=pa.int64()),
                "dist": pa.array(d[mask].astype(np.float64), type=pa.float64()),
            }
        )

    out = embeddings.map_batches(within, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["dist", "vec_id"])
    return [(int(v), float(d)) for v, d in zip(out["vec_id"], out["dist"])]
