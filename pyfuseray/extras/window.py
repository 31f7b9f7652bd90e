"""Per-group sliding-window aggregates (moving average).

The ordered-window family so far covers the global cumulative scan
(``extras/scan.py``) and gap sessionization (``extras/sessions.py``);
this adds the ROWS-frame sliding window: per group (user), ordered by
(ts, id), the mean of the last ``window_rows`` values — AVG() OVER
(PARTITION BY g ORDER BY ts, id ROWS BETWEEN w-1 PRECEDING AND CURRENT
ROW).

100-TB shape: ONE shuffle on COARSE buckets of the group
(``coarse.coarse_bucket``, bounded group count), then fully
vectorized per-bucket work: lexsort, segment boundaries where the
group changes, windowed sums as cumsum differences clipped at segment
starts. No driver state beyond the output.

Float exactness: values scale to integer cents (floor(v*100+0.5),
identical in the oracle) so window sums are exact integers; the single
float division sum/(100*cnt) is then bit-identical to DuckDB's.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups


def grouped_moving_avg(
    ds: rd.Dataset,
    *,
    group_col: str,
    ts_col: str,
    id_col: str,
    value_col: str,
    window_rows: int = 7,
) -> rd.Dataset:
    """(id_col, mov_avg): per-group trailing mean of the last
    ``window_rows`` rows ordered by (ts_col, id_col), 6dp."""
    if window_rows < 1:
        raise ValueError("window_rows must be >= 1")
    w = int(window_rows)
    groups = coarse_groups()

    def prep(batch: pa.Table) -> pa.Table:
        g = batch.column(group_col).to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "_cb": pa.array(coarse_bucket(g, n_groups=groups)),
                "g": pa.array(g),
                "t": batch.column(ts_col).cast(pa.int64()),
                "i": batch.column(id_col).cast(pa.int64()),
                "cents": pa.array(cents),
            }
        )

    def window_group(batch: pa.Table) -> pa.Table:
        g = batch.column("g").to_numpy(zero_copy_only=False)
        t = batch.column("t").to_numpy(zero_copy_only=False)
        eid = batch.column("i").to_numpy(zero_copy_only=False)
        c = batch.column("cents").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, g))
        g_s, eid_s, c_s = g[order], eid[order], c[order]
        n = g_s.size
        idx = np.arange(n, dtype=np.int64)
        new_seg = np.concatenate(([True], g_s[1:] != g_s[:-1]))
        seg_start = np.maximum.accumulate(np.where(new_seg, idx, 0))
        cs = np.concatenate(([0], np.cumsum(c_s, dtype=np.int64)))
        lo = np.maximum(idx - (w - 1), seg_start)
        s = cs[idx + 1] - cs[lo]
        cnt = (idx - lo + 1).astype(np.float64)
        avg = np.round(s.astype(np.float64) / (100.0 * cnt), 6)
        return pa.table(
            {
                id_col: pa.array(eid_s),
                "mov_avg": pa.array(avg, pa.float64()),
            }
        )

    return (
        ds.select_columns([group_col, ts_col, id_col, value_col])
        .map_batches(prep, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(window_group, batch_format="pyarrow")
    )
