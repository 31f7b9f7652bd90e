"""Top-k rows per group — distributed argmax-k with a combiner.

Plan: a map-side PARTIAL top-k inside every batch (vectorized: one
lexsort + run-boundary arithmetic, no per-group Python), then ONE
shuffle keyed on a COARSE hash bucket of the group key (bounded group
count), then the same vectorized selection exactly once per coarse
group. The partial pass is what makes this scale: the shuffle moves at
most k rows per (group, batch) instead of the whole table — the
standard combiner shape (same policy as the build's SPIMI runs).

Total order: ``order_col`` descending (or ascending), then ``tie_col``
ascending — a deterministic, SQL-mirrorable ranking
(``row_number() OVER (PARTITION BY g ORDER BY v DESC, t)``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups


def _select_topk(
    batch: pa.Table,
    group_col: str,
    order_col: str,
    tie_col: str,
    k: int,
    descending: bool,
    with_rank: bool = False,
) -> pa.Table:
    """Vectorized per-group head-k of one in-memory table."""
    n = batch.num_rows
    if n == 0:
        return batch
    codes = (
        batch.column(group_col)
        .combine_chunks()
        .dictionary_encode()
        .indices.to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    val = batch.column(order_col).to_numpy(zero_copy_only=False)
    tie = batch.column(tie_col).to_numpy(zero_copy_only=False)
    vkey = -val if descending else val
    order = np.lexsort((tie, vkey, codes))
    codes_s = codes[order]
    starts = np.flatnonzero(np.concatenate(([True], codes_s[1:] != codes_s[:-1])))
    run_idx = np.repeat(np.arange(starts.size), np.diff(np.append(starts, n)))
    within = np.arange(n, dtype=np.int64) - starts[run_idx]
    keep = within < k
    out = batch.take(pa.array(order[keep], pa.int64()))
    if with_rank:
        out = out.append_column("rank", pa.array(within[keep], pa.int64()))
    return out


def topk_per_group(
    ds: rd.Dataset,
    *,
    group_col: str,
    order_col: str,
    tie_col: str,
    k: int,
    descending: bool = True,
) -> rd.Dataset:
    """k rows per group by (order_col desc|asc, tie_col asc), with a
    0-based ``rank`` column. Output columns: input columns + rank."""
    groups = coarse_groups()

    def partial(batch: pa.Table) -> pa.Table:
        out = _select_topk(batch, group_col, order_col, tie_col, k, descending)
        cb = coarse_bucket(out.column(group_col), n_groups=groups)
        return out.append_column("_cb", pa.array(cb))

    def final(group: pa.Table) -> pa.Table:
        out = _select_topk(
            group, group_col, order_col, tie_col, k, descending, with_rank=True
        )
        return out.drop_columns(["_cb"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(final, batch_format="pyarrow")
    )
