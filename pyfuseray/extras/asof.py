"""As-of join: each left row matched to the most recent right row at or
before (backward) / the earliest at or after (forward) its timestamp,
per key — the time-correlation join the Dataset API lacks natively.

Plan: ONE shuffle. Both sides are tagged with one shared schema (the
other side's columns null-filled arrow-side, so integer columns never
widen to float64 — the pandas-null pitfall extras/joins.py documents)
and key-bucketed into COARSE hash groups (bounded group count — same
policy as sessionize / the dedup family). Each group then resolves its
matches fully vectorized: one lexsort of the merged (key, ts, side)
rows, one ``np.maximum.accumulate`` forward-fill of the latest
right-row index, and a key-equality check that voids fills leaking
across key boundaries. No composite-key arithmetic (no overflow on
wide ts ranges), no per-key Python loop.

Partitioning assumption: all rows of one key co-locate via the hash
bucket (true by construction). A single key's rows must fit in one
group; pathological single-key logs would need time-range sub-bucketing
with boundary handoff of each range's last right row — documented, not
needed at these scales.

Equal timestamps: with ``allow_exact`` the right row sorts BEFORE the
left row (so it is visible); among equal right timestamps the latest in
sort order wins — callers needing a deterministic winner should
disambiguate ts ties upstream, as SQL ASOF JOIN implementations do.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    on: str,
    by: str,
    right_cols: list[str],
    allow_exact: bool = True,
    direction: str = "backward",
    suffix: str = "_right",
) -> rd.Dataset:
    """Left as-of join (inner): left columns + the matched right row's
    ``right_cols`` (renamed with ``suffix`` on collision) + ``{on}{suffix}``
    (the matched right timestamp, epoch microseconds).

    ``on`` must be int64-castable on both sides (timestamps cast to
    epoch microseconds); ``by`` must be integral. Unmatched left rows
    are dropped (inner semantics — mirror of SQL ``ASOF JOIN``).
    """
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be backward|forward, got {direction!r}")

    l_schema = left.schema()
    r_schema = right.schema()
    left_fields = list(zip(l_schema.names, l_schema.types))
    payload = [c for c in right_cols if c != on]
    r_types = dict(zip(r_schema.names, r_schema.types))
    payload_fields = [(p, r_types[p]) for p in payload]
    left_names = set(l_schema.names)
    groups = coarse_groups()

    def _tag(side: int):
        def tag(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            key = batch.column(by).cast(pa.int64())
            cols: dict[str, object] = {
                "_cb": pa.array(coarse_bucket(key, n_groups=groups)),
                "_key": key,
                "_on": batch.column(on).cast(pa.int64()),
                "_side": pa.array(np.full(n, side, dtype=np.int8), pa.int8()),
            }
            for name, typ in left_fields:
                cols[f"l_{name}"] = (
                    batch.column(name) if side == 1 else pa.nulls(n, typ)
                )
            for name, typ in payload_fields:
                cols[f"r_{name}"] = (
                    batch.column(name) if side == 0 else pa.nulls(n, typ)
                )
            return pa.table(cols)

        return tag

    merged = left.map_batches(_tag(1), batch_format="pyarrow").union(
        right.map_batches(_tag(0), batch_format="pyarrow")
    )

    fwd = direction == "forward"
    # sort order within equal (key, on): the visible side first.
    # backward+allow_exact -> right(rank 0) before left(rank 1);
    # strict -> right (rank 2) AFTER left, so an equal-ts right row is
    # invisible to that left row. forward mirrors by negating ts.
    side_rank_right = 0 if allow_exact else 2

    def resolve(group: pa.Table) -> pa.Table:
        key = group.column("_key").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group.column("_on").to_numpy(zero_copy_only=False).astype(np.int64)
        side = group.column("_side").to_numpy(zero_copy_only=False)
        tkey = -ts if fwd else ts
        rank = np.where(side == 0, side_rank_right, 1)
        order = np.lexsort((rank, tkey, key))
        key_s, side_s = key[order], side[order]
        n = key_s.size
        ridx = np.where(side_s == 0, np.arange(n, dtype=np.int64), -1)
        last_r = np.maximum.accumulate(ridx)
        li = np.flatnonzero(side_s == 1)
        m = last_r[li]
        valid = m >= 0
        li, m = li[valid], m[valid]
        same = key_s[m] == key_s[li]  # void fills across key boundaries
        li, m = li[same], m[same]
        lrows = group.take(pa.array(order[li], pa.int64()))
        rrows = group.take(pa.array(order[m], pa.int64()))
        cols: dict[str, object] = {}
        for name, _ in left_fields:
            cols[name] = lrows.column(f"l_{name}")
        cols[f"{on}{suffix}"] = rrows.column("_on")
        for name, _ in payload_fields:
            out_name = name + suffix if name in left_names else name
            cols[out_name] = rrows.column(f"r_{name}")
        return pa.table(cols)

    return merged.groupby("_cb").map_groups(resolve, batch_format="pyarrow")
