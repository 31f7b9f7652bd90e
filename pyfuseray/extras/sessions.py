"""Sessionization: gap-based session windows over an event log.

The "streaming window" custom operator the Dataset API lacks natively:
a session = a maximal run of one user's events where consecutive gaps
are <= ``gap``. Semantics allow the groupby + map_groups composition
(sessions never span users), so the plan is ONE shuffle keyed on a
COARSE user-hash bucket (``coarse.coarse_bucket``, bounded group count)
with the per-user segmentation fully vectorized inside
each group: one lexsort by (user, ts), one diff for the gap breaks,
reduceat for the per-session aggregates.

Partitioning assumption: all of one user's events co-locate via the
hash bucket (true by construction); a single user's event volume fits
in one group (pathological single-user logs would need time-range
sub-bucketing with boundary session stitching — documented, not
needed at these scales).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups


def sessionize(
    events: rd.Dataset,
    *,
    gap_us: int = 1_800_000_000,  # 30 min
    user_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
) -> rd.Dataset:
    """events -> one row per session:
    (user_id, session_id, session_start, n_events, sum_value).

    session_id is 1-based per user in time order; session_start is the
    first event's timestamp in microseconds; sum_value is summed in
    time order and rounded to 4dp (DuckDB-oracle-comparable).
    """
    groups = coarse_groups()

    def add_keys(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column(user_col),
                "t": batch.column(ts_col).cast(pa.int64()),
                "value": batch.column(value_col),
                "_cb": pa.array(coarse_bucket(batch.column(user_col), n_groups=groups)),
            }
        )

    def sessions(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy(zero_copy_only=False)
        t = group.column("t").to_numpy(zero_copy_only=False)
        v = group.column("value").to_numpy(zero_copy_only=False)
        order = np.lexsort((t, u))
        u, t, v = u[order], t[order], v[order]
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gaps = np.concatenate(([0], np.diff(t)))
        new_sess = new_user | (gaps > gap_us)
        starts = np.flatnonzero(new_sess)
        ends = np.concatenate((starts[1:], [u.size]))
        # 1-based session numbering per user
        cs = np.cumsum(new_sess)
        user_starts = np.flatnonzero(new_user)
        user_ends = np.concatenate((user_starts[1:], [u.size]))
        base = np.repeat(cs[user_starts] - 1, user_ends - user_starts)
        sid = (cs - base)[starts]
        return pa.table(
            {
                "user_id": group.column("user_id").take(pa.array(order[starts])),
                "session_id": pa.array(sid.astype(np.int64)),
                "session_start": pa.array(t[starts]),
                "n_events": pa.array((ends - starts).astype(np.int64)),
                "sum_value": pa.array(np.round(np.add.reduceat(v, starts), 4)),
            }
        )

    return (
        events.map_batches(add_keys, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(sessions, batch_format="pyarrow")
    )
