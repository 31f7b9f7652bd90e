"""Distributed bulk query execution: score MANY queries in one streaming
pass over the index segments.

The interactive path (``pyfuseray.query.IndexSearcher``) reads only the
query terms' segment rows — right for top-k <= 20 and few queries. For
bulk workloads (requalifying a query log, building training pairs) the
scale path is scatter-gather: one ``map_batches`` pass over ALL segment
rows with the query set + collection stats broadcast once via
``ray.put``, partial per-(query, doc) contributions combined by a
``groupby`` shuffle, and per-query top-k taken in ``map_groups`` — the
distributed form of the reference's score-accumulation loop
(reference ``app/InvertedIndexFinal.py:358-418``).

Partitioning assumptions: the query-term table always broadcasts
(tiny). Docstats has two modes — ``broadcast`` (default; dense dl/norm
arrays via ``ray.put``, right while n_docs x 16 B fits a worker) and
``ranged`` (the 10^12-doc shape: docstats rows ride a coarse
doc-bucket shuffle and join the score partials per group, so no task
ever holds more than a block of docstats). Both modes share the query
plan (term table, tombstones, TF-IDF query norms), the segment scan and
the per-query top-k; they differ only in where dl and norm join the
partials. Both modes are rank-identical (pytest-pinned).
"""

from __future__ import annotations

import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from pyfuseray.analyzer import make_analyzer
from pyfuseray.checkpoint import load_manifest, require_single_generation
from pyfuseray.coarse import coarse_bucket, coarse_groups
from pyfuseray.codec import decode_postings
from pyfuseray.scoring import (
    BM25_B,
    BM25_K1,
    bm25_contrib,
    bm25_idf,
    tfidf_weight,
    tfidf_weight_vec,
)


def bulk_search(
    index_dir: str,
    queries: list[str],
    top_k: int = 10,
    *,
    scoring: str = "bm25",
    k1: float = BM25_K1,
    b: float = BM25_B,
    docstats_mode: str = "broadcast",
) -> pd.DataFrame:
    """Score every query against the whole index in one streaming pass.

    Returns a DataFrame (query_id, rank, doc_id, score) with canonical
    (-score, doc_id) per-query ordering — rank-identical to the
    interactive searcher.

    ``docstats_mode='ranged'`` joins per-doc stats to the score partials
    through a coarse doc-bucket shuffle instead of broadcasting dense
    arrays — memory per task bounded by block size, not corpus size.
    """
    if docstats_mode not in ("broadcast", "ranged"):
        raise ValueError(f"docstats_mode must be broadcast or ranged: {docstats_mode!r}")
    m = load_manifest(index_dir)
    if m is None or not m.stage_done("done"):
        raise FileNotFoundError(f"no complete index manifest in {index_dir}")
    # the scan reads the consolidated segments/ dir and takes idf from
    # per-row df, which a tiered index splits across generation dirs
    require_single_generation(m, "bulk search")
    plan = _query_plan(index_dir, m, queries, scoring)
    run = _ranked_ranged if docstats_mode == "ranged" else _ranked_broadcast
    segments = rd.read_parquet(os.path.join(index_dir, "segments"))
    out = run(index_dir, m, plan, segments, top_k, scoring, k1, b).to_pandas()
    if out.empty:
        return pd.DataFrame(columns=["query_id", "rank", "doc_id", "score"])
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _query_plan(index_dir: str, m, queries: list[str], scoring: str):
    """Driver-side state both docstats modes share: refs to the analyzed
    query-term table and to the tombstones (each broadcast once), and
    each query's norm (tfidf; 0.0 for bm25) from point df lookups."""
    analyzer = make_analyzer(m.analyzer)
    q_terms: dict[str, list[tuple[int, int]]] = {}  # term -> [(query_id, qtf)]
    per_query_terms = [analyzer.preprocess_query(q) for q in queries]
    for qid, tf in enumerate(per_query_terms):
        for t, f in tf.items():
            q_terms.setdefault(t, []).append((qid, f))
    # tombstoned doc_ids (pyfuseray.deletes): postings of deleted docs
    # never leave the scan stage
    from pyfuseray.deletes import load_tombstones

    qnorms = [0.0] * len(queries)
    if scoring == "tfidf":
        import pyarrow.dataset as pads

        df_tbl = pads.dataset(os.path.join(index_dir, "stats", "df.parquet")).to_table(
            filter=pads.field("term").isin(list(q_terms))
        )
        df_lookup = dict(zip(df_tbl["term"].to_pylist(), df_tbl["df"].to_pylist()))
        for qid, tf in enumerate(per_query_terms):
            total = 0.0
            for t, f in tf.items():
                df = df_lookup.get(t)
                if df:
                    w = tfidf_weight(f, df, m.n_docs)
                    total += w * w
            qnorms[qid] = math.sqrt(total)
    return ray.put(q_terms), ray.put(load_tombstones(index_dir, m)), qnorms


def _query_postings(batch: pa.Table, q_terms: dict, deleted: np.ndarray):
    """(df, doc_ids, tfs, [(query_id, qtf)]) for every query term in a
    segment batch, tombstoned docs dropped."""
    from pyfuseray.deletes import in_tombstones

    terms = batch.column("term").to_pylist()
    dfs = batch.column("df").to_numpy(zero_copy_only=False)
    blobs = batch.column("blob").to_pylist()
    offsets = batch.column("offset").to_pylist()
    for term, df, blob, offs in zip(terms, dfs, blobs, offsets):
        hits = q_terms.get(term)
        if not hits:
            continue
        doc_ids, tfs = decode_postings(blob, np.asarray(offs, dtype=np.int64))
        if deleted.size:
            keep = ~in_tombstones(doc_ids, deleted)
            doc_ids, tfs = doc_ids[keep], tfs[keep]
            if doc_ids.size == 0:
                continue
        yield float(df), doc_ids, tfs, hits


def _topk_table(
    group: pa.Table, top_k: int, qnorms: list[float], norms_ref=None
) -> pa.Table:
    """One query's top-k from its partials: same-doc contributions sum in
    scan order (stable sort), and a nonzero query norm (tfidf) divides
    each sum by it and the doc's norm — read from the dense by-doc_id
    array ``norms_ref`` points to, or else from the group's ``norm``
    column."""
    qid = int(group.column("query_id")[0].as_py())
    docs = group.column("doc_id").to_numpy(zero_copy_only=False)
    scores = group.column("partial").to_numpy(zero_copy_only=False).astype(np.float64)
    order = np.argsort(docs, kind="stable")
    docs, scores = docs[order], scores[order]
    uniq, starts = np.unique(docs, return_index=True)
    sums = np.add.reduceat(scores, starts)
    qn = qnorms[qid]
    if qn > 0:
        if norms_ref is None:
            nrm = group.column("norm").to_numpy(
                zero_copy_only=False
            ).astype(np.float64)[order][starts]
        else:
            nrm = ray.get(norms_ref)[uniq]
        nz = nrm != 0
        sums[nz] = sums[nz] / (qn * nrm[nz])
    k = min(top_k, uniq.size)
    idx = np.lexsort((uniq, -sums))[:k]
    return pa.table(
        {
            "query_id": pa.array(np.full(k, qid, dtype=np.int64)),
            "rank": pa.array(np.arange(k, dtype=np.int64)),
            "doc_id": pa.array(uniq[idx], pa.int64()),
            "score": pa.array(sums[idx], pa.float64()),
        }
    )


def _ranked_broadcast(index_dir, m, plan, segments, top_k, scoring, k1, b):
    """Dense dl/norm arrays broadcast once: dl joins in the scan stage
    (finished BM25 partials), norm in the per-query top-k."""
    import pyarrow.dataset as pads

    n_docs, avgdl = m.n_docs, m.avgdl or 1.0
    tbl = pads.dataset(os.path.join(index_dir, "stats", "docstats.parquet")).to_table()
    ids = tbl.column("doc_id").to_numpy()
    size = max(n_docs, int(ids.max()) + 1 if ids.size else 0)
    dls = np.full(size, avgdl, dtype=np.float64)
    norms = np.full(size, 1.0, dtype=np.float64)
    dls[ids] = tbl.column("dl").to_numpy().astype(np.float64)
    norms[ids] = tbl.column("norm").to_numpy().astype(np.float64)
    dl_ref = ray.put(dls)
    # norms is as large as dls — broadcast it the same way instead of
    # capturing the dense array in the top-k closure (which would
    # serialize it into every map_groups task spec)
    norms_ref = ray.put(norms)
    q_ref, del_ref, qnorms = plan

    def score_stage(batch: pa.Table) -> pa.Table:
        dl_dense = ray.get(dl_ref)
        out_q: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        out_s: list[np.ndarray] = []
        for df, doc_ids, tfs, hits in _query_postings(
            batch, ray.get(q_ref), ray.get(del_ref)
        ):
            if scoring == "bm25":
                base = bm25_contrib(
                    bm25_idf(df, n_docs), tfs, dl_dense[doc_ids], avgdl, k1, b
                )
                parts = [base] * len(hits)
            else:
                w_td = tfidf_weight_vec(tfs, df, float(n_docs))
                parts = [w_td * tfidf_weight(qtf, df, float(n_docs)) for _, qtf in hits]
            for (qid, _qtf), part in zip(hits, parts):
                out_q.append(np.full(doc_ids.size, qid, dtype=np.int64))
                out_d.append(doc_ids)
                out_s.append(part)
        if not out_q:
            return pa.table(
                {"query_id": pa.array([], pa.int64()),
                 "doc_id": pa.array([], pa.int64()),
                 "partial": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                "partial": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    return segments.map_batches(score_stage, batch_format="pyarrow").groupby(
        "query_id"
    ).map_groups(
        lambda g: _topk_table(g, top_k, qnorms, norms_ref), batch_format="pyarrow"
    )


def _ranked_ranged(index_dir, m, plan, segments, top_k, scoring, k1, b):
    """The corpus-scale docstats shape: per-doc stats are never
    broadcast. Score partials leave the segment pass WITHOUT dl/norm
    (bm25 emits (idf, tf) per posting; tfidf emits the finished
    w_td*w_tq contribution), then ONE coarse doc-bucket shuffle
    co-locates them with the docstats rows of the same doc ids; each
    group attaches dl/norm via vectorized searchsorted and finishes the
    per-row score. Memory per task = one block, regardless of corpus
    size. Rank-identical to the broadcast mode (same elementwise float
    expressions; sums tolerate the usual reduce-order ulp)."""
    n_docs, avgdl = m.n_docs, m.avgdl or 1.0
    q_ref, del_ref, qnorms = plan
    groups = coarse_groups()

    def _tbl(qid, did, x1, x2, side) -> pa.Table:
        return pa.table(
            {
                "query_id": pa.array(qid, pa.int64()),
                "doc_id": pa.array(did, pa.int64()),
                "x1": pa.array(x1, pa.float64()),
                "x2": pa.array(x2, pa.float64()),
                "side": pa.array(side, pa.int8()),
                "_db": pa.array(
                    coarse_bucket(np.asarray(did, dtype=np.int64), n_groups=groups)
                ),
            }
        )

    def raw_stage(batch: pa.Table) -> pa.Table:
        out_q, out_d, out_1, out_2 = [], [], [], []
        for df, doc_ids, tfs, hits in _query_postings(
            batch, ray.get(q_ref), ray.get(del_ref)
        ):
            if scoring == "bm25":
                idf = bm25_idf(df, n_docs)
                for qid, _qtf in hits:
                    out_q.append(np.full(doc_ids.size, qid, dtype=np.int64))
                    out_d.append(doc_ids)
                    out_1.append(np.full(doc_ids.size, idf, dtype=np.float64))
                    out_2.append(tfs.astype(np.float64))
            else:
                w_td = tfidf_weight_vec(tfs, df, float(n_docs))
                for qid, qtf in hits:
                    w_tq = tfidf_weight(qtf, df, float(n_docs))
                    out_q.append(np.full(doc_ids.size, qid, dtype=np.int64))
                    out_d.append(doc_ids)
                    out_1.append(w_td * w_tq)
                    out_2.append(np.zeros(doc_ids.size))
        if not out_q:
            return _tbl([], [], [], [], [])
        n = sum(a.size for a in out_q)
        return _tbl(
            np.concatenate(out_q), np.concatenate(out_d),
            np.concatenate(out_1), np.concatenate(out_2),
            np.zeros(n, dtype=np.int8),
        )

    stat_col = "dl" if scoring == "bm25" else "norm"

    def stats_stage(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        x1 = batch.column(stat_col).to_numpy(zero_copy_only=False).astype(np.float64)
        n = did.size
        return _tbl(
            np.full(n, -1, dtype=np.int64), did, x1, np.zeros(n),
            np.ones(n, dtype=np.int8),
        )

    def join_group(group: pa.Table) -> pa.Table:
        side = group.column("side").to_numpy(zero_copy_only=False)
        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        x1 = group.column("x1").to_numpy(zero_copy_only=False)
        is_stat = side == 1
        p_mask = ~is_stat
        if not p_mask.any():
            return pa.table(
                {"query_id": pa.array([], pa.int64()),
                 "doc_id": pa.array([], pa.int64()),
                 "partial": pa.array([], pa.float64()),
                 "norm": pa.array([], pa.float64())}
            )
        s_ids = did[is_stat]
        s_val = x1[is_stat]
        order = np.argsort(s_ids, kind="stable")
        s_ids, s_val = s_ids[order], s_val[order]
        p_ids = did[p_mask]
        pos = np.minimum(np.searchsorted(s_ids, p_ids), max(s_ids.size - 1, 0))
        hit = s_ids[pos] == p_ids if s_ids.size else np.zeros(p_ids.size, bool)
        stat = np.where(hit, s_val[pos] if s_ids.size else 0.0,
                        avgdl if scoring == "bm25" else 1.0)
        if scoring == "bm25":
            tfv = group.column("x2").to_numpy(zero_copy_only=False)[p_mask]
            partial = bm25_contrib(x1[p_mask], tfv, stat, avgdl, k1, b)
            norm = np.ones(p_ids.size)
        else:
            partial = x1[p_mask]
            norm = stat
        qids = group.column("query_id").to_numpy(zero_copy_only=False)[p_mask]
        return pa.table(
            {"query_id": pa.array(qids, pa.int64()),
             "doc_id": pa.array(p_ids, pa.int64()),
             "partial": pa.array(partial, pa.float64()),
             "norm": pa.array(norm, pa.float64())}
        )

    partials = segments.map_batches(raw_stage, batch_format="pyarrow")
    docstats = rd.read_parquet(
        os.path.join(index_dir, "stats", "docstats.parquet"),
        columns=["doc_id", stat_col],
    ).map_batches(stats_stage, batch_format="pyarrow")
    scored = (
        partials.union(docstats)
        .groupby("_db")
        .map_groups(join_group, batch_format="pyarrow")
    )
    return scored.groupby("query_id").map_groups(
        lambda g: _topk_table(g, top_k, qnorms), batch_format="pyarrow"
    )
