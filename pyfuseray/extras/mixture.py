"""Data-mixture construction: deterministic per-source quota selection
to a target weight distribution — the Pile/LLaMA-style "mix sources at
fixed proportions" step of a training-data pipeline.

Semantics (mirrored verbatim by the DuckDB oracle, contract
``mix_sources_to_target``):

1. quotas by LARGEST REMAINDER over the normalized target weights:
   ``base_s = floor(budget * w_s / W)``; the ``budget - sum(base)``
   leftover units go to the largest fractional parts (ties by source
   ASC); a source's quota is capped at its row count (no re-allocation
   — a short source under-fills the budget, deterministically).
2. within a source, rows are taken in md5-rank order (top-60-bit md5 of
   the decimal id, ties by id) — the same data-derived order as the
   stratified sampler, so the selection is a pure function of the data.

Weights should be exact-in-float64 values (integers / dyadic rationals)
so ``budget * w / W`` is bit-identical in numpy and SQL regardless of
summation order.

Distributed shape (100-TB bar): pass 1 is a native groupby-count
(#sources groups); quota math is driver arithmetic over #sources rows;
pass 2 reuses the grouptop partial-top-k combiner with PER-GROUP k —
each batch forwards at most quota_s rows per source, the only shuffle
is on coarse buckets of the (bounded) source key.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups
from pyfuseray.extras.md5vec import md5_hi60_ints


def largest_remainder_quotas(
    weights: dict[str, float], counts: dict[str, int], budget: int
) -> dict[str, int]:
    """floor + largest-remainder allocation, capped by availability."""
    srcs = sorted(weights)
    w = np.array([float(weights[s]) for s in srcs])
    tw = float(np.sum(w))
    exact = budget * w / tw
    base = np.floor(exact)
    frac = exact - base
    leftover = int(budget - base.sum())
    order = sorted(range(len(srcs)), key=lambda i: (-frac[i], srcs[i]))
    extra = np.zeros(len(srcs), dtype=np.int64)
    extra[order[:leftover]] = 1
    return {
        s: min(int(base[i] + extra[i]), int(counts.get(s, 0)))
        for i, s in enumerate(srcs)
    }


def _select_quota(
    batch: pa.Table,
    group_col: str,
    id_col: str,
    quotas: dict[str, int],
    with_rank: bool = False,
) -> pa.Table:
    """Per-group head-quota_s of one table by (md5 key asc, id asc)."""
    n = batch.num_rows
    if n == 0:
        return batch.append_column("rank", pa.array([], pa.int64())) if with_rank else batch
    dict_col = batch.column(group_col).combine_chunks().dictionary_encode()
    codes = dict_col.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    cats = dict_col.dictionary.to_pylist()
    kvec_by_code = np.array([int(quotas.get(c, 0)) for c in cats], dtype=np.int64)
    key = batch.column("_mk").to_numpy(zero_copy_only=False)
    tie = batch.column(id_col).to_numpy(zero_copy_only=False)
    order = np.lexsort((tie, key, codes))
    codes_s = codes[order]
    starts = np.flatnonzero(np.concatenate(([True], codes_s[1:] != codes_s[:-1])))
    run_idx = np.repeat(np.arange(starts.size), np.diff(np.append(starts, n)))
    within = np.arange(n, dtype=np.int64) - starts[run_idx]
    keep = within < kvec_by_code[codes_s]
    out = batch.take(pa.array(order[keep], pa.int64()))
    if with_rank:
        out = out.append_column("rank", pa.array(within[keep], pa.int64()))
    return out


def mix_to_target(
    ds: rd.Dataset,
    *,
    group_col: str,
    id_col: str,
    weights: dict[str, float],
    budget: int,
) -> rd.Dataset:
    """Select ~budget rows matching the target source distribution.
    Output: input columns + ``rank`` (0-based within source)."""
    from ray.data.aggregate import Count

    counts_df = (
        ds.groupby(group_col).aggregate(Count(alias_name="_n")).to_pandas()
    )
    counts = dict(zip(counts_df[group_col], counts_df["_n"]))
    quotas = largest_remainder_quotas(weights, counts, budget)
    groups = coarse_groups()

    def add_key(batch: pa.Table) -> pa.Table:
        mk = md5_hi60_ints(batch.column(id_col))
        return batch.append_column("_mk", pa.array(mk, pa.int64()))

    def partial(batch: pa.Table) -> pa.Table:
        out = _select_quota(batch, group_col, id_col, quotas)
        cb = coarse_bucket(out.column(group_col), n_groups=groups)
        return out.append_column("_cb", pa.array(cb))

    def final(group: pa.Table) -> pa.Table:
        out = _select_quota(group, group_col, id_col, quotas, with_rank=True)
        return out.drop_columns(["_cb", "_mk"])

    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    return (
        keyed.map_batches(partial, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(final, batch_format="pyarrow")
    )
