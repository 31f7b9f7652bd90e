"""General equi-joins for Dataset pairs.

Ray Data 2.49 has no native join, and the engine's broadcast joins
(``sqlfront``, ``orders_by_segment``) only cover the small-side case.
This module adds the BIG x BIG shape: a repartition hash join — both
sides shuffle ONCE on a coarse hash of the key (bounded group count,
same policy as the dedup family), and each group runs one vectorized
pandas merge on arrow-separated sides (keys and values never round-trip
through float64, so 64-bit ids above 2^53 stay exact).

Skewed hot keys are SALTED (the segment merge's hot-term pattern,
``segments.build_bucket_segment``): an optional narrow pre-pass counts
heavy keys on both sides; each hot key gets its own ``salts`` dedicated
groups — the bigger side's rows spread across them, the other side's
rows replicate into each — so one hot key can never pin most of both
tables into a single group.

``join_pair_payloads`` in ``extras.dedup`` is the specialized
two-payload variant of the same idea; ``hash_join`` is the general
relational form.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups

DEFAULT_SALTS = 8


def detect_hot_keys(
    ds: rd.Dataset,
    key: str,
    *,
    hot_factor: float = 2.0,
    per_batch_frac: float = 0.01,
) -> dict:
    """One NARROW pass over the key column -> {key: approx_count} for
    keys heavy enough to skew a coarse join group.

    Per batch, only keys holding > max(32, per_batch_frac x batch) rows
    are emitted (bounded candidate set — a key must be locally frequent
    somewhere to be globally dominant); the driver sums candidates and
    keeps keys with count > hot_factor x (total_rows / coarse groups).
    Heuristic by design: a key spread perfectly thin below the per-batch
    bar is missed, but such a key cannot dominate a group by more than
    ~per_batch_frac x blocks either.
    """

    def candidates(batch: pa.Table) -> pa.Table:
        col = batch.column(key)
        arr = col.to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(arr, return_counts=True)
        bar = max(32, int(per_batch_frac * len(arr)))
        mask = counts > bar
        return pa.table(
            {
                "k": pa.array(uniq[mask], type=col.type),
                "c": pa.array(counts[mask], pa.int64()),
                "total": pa.array(
                    [len(arr)] + [0] * (int(mask.sum()) - 1)
                    if mask.sum() else [len(arr)],
                    pa.int64(),
                ),
                # pad k/c when only the total row exists
            }
            if mask.any()
            else {
                "k": pa.nulls(1, col.type),
                "c": pa.array([0], pa.int64()),
                "total": pa.array([len(arr)], pa.int64()),
            }
        )

    agg = ds.select_columns([key]).map_batches(
        candidates, batch_format="pyarrow"
    ).to_pandas()
    total = int(agg["total"].sum())
    if total == 0:
        return {}
    counts = agg.dropna(subset=["k"]).groupby("k")["c"].sum()
    bar = hot_factor * total / coarse_groups()
    return {k: int(c) for k, c in counts.items() if c > bar}


def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    left_on: str,
    right_on: str | None = None,
    how: str = "inner",
    salts: int = DEFAULT_SALTS,
    skew_keys: dict | list | None = None,
    detect_skew: bool = True,
) -> rd.Dataset:
    """Repartition hash join of two Datasets on an equi-key.

    Both sides are tagged, bucketed by the same coarse key hash, and
    shuffled ONCE; each group splits its two sides arrow-side (ints
    never pass through float64 null-padding) and merges them with one
    vectorized pandas merge. Column collisions follow pandas' _x/_y
    suffixing; ``how`` supports 'inner' and 'left'.

    Skew: ``skew_keys`` may be an explicit hot-key list, or ``None``
    with ``detect_skew=True`` (default) to run ``detect_hot_keys`` over
    both sides first (one extra NARROW pass per side — pass
    ``detect_skew=False`` for pre-balanced keys or when the inputs are
    expensive to recompute). Each hot key gets ``salts`` dedicated
    groups: the side with more of that key spreads across them, the
    other side replicates into each ('left' joins always spread the
    left side so unmatched rows can't duplicate).
    """
    right_on = right_on or left_on
    assert how in ("inner", "left")
    # normalize both sides to arrow blocks so schemas carry arrow types
    # (pandas-block datasets report numpy/python types)
    left = left.map_batches(lambda t: t, batch_format="pyarrow")
    right = right.map_batches(lambda t: t, batch_format="pyarrow")
    l_cols = [f.name for f in _schema_fields(left)]
    r_cols = [f.name for f in _schema_fields(right)]

    if skew_keys is None and detect_skew:
        lhot = detect_hot_keys(left, left_on)
        rhot = detect_hot_keys(right, right_on)
        hot = {k: (lhot.get(k, 0), rhot.get(k, 0)) for k in set(lhot) | set(rhot)}
    elif skew_keys:
        hot = {k: (1, 0) for k in skew_keys}  # spread left, replicate right
    else:
        hot = {}
    groups = coarse_groups()
    # per hot key: (base group id, spread side 0=left / 1=right)
    hot_plan: dict = {}
    for i, k in enumerate(sorted(hot, key=str)):
        lc, rc = hot[k]
        spread_side = 0 if (how == "left" or lc >= rc) else 1
        hot_plan[k] = (groups + i * salts, spread_side)

    def tag(side: int, key_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            col = batch.column(key_col)
            cb = coarse_bucket(col, n_groups=groups)
            out = batch.append_column(
                "_side", pa.array(np.full(batch.num_rows, side, dtype=np.int8))
            )
            if not hot_plan:
                return out.append_column("_cb", pa.array(cb, pa.int64()))
            keys = col.to_numpy(zero_copy_only=False)
            rep_idx: list[np.ndarray] = []
            rep_cb: list[np.ndarray] = []
            for k, (base, spread_side) in hot_plan.items():
                mask = keys == k
                if not mask.any():
                    continue
                idx = np.flatnonzero(mask)
                if side == spread_side:
                    # spread: each row to one of the key's salt groups
                    cb[idx] = base + (np.arange(idx.size) % salts)
                else:
                    # replicate: each row into EVERY salt group
                    cb[idx] = base  # keep one copy in salt 0
                    if salts > 1:
                        rep_idx.append(np.repeat(idx, salts - 1))
                        rep_cb.append(
                            base
                            + 1
                            + np.tile(np.arange(salts - 1), idx.size)
                        )
            out = out.append_column("_cb", pa.array(cb, pa.int64()))
            if rep_idx:
                extra_i = np.concatenate(rep_idx)
                extra = batch.take(pa.array(extra_i, pa.int64()))
                extra = extra.append_column(
                    "_side", pa.array(np.full(extra.num_rows, side, dtype=np.int8))
                ).append_column(
                    "_cb", pa.array(np.concatenate(rep_cb), pa.int64())
                )
                out = pa.concat_tables([out, extra])
            return out

        return fn

    # align the union schema: each side carries the other's columns as nulls
    def widen(own: list[str], other: list[str], other_schema):
        types = {f.name: f.type for f in other_schema}

        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            for c in other:
                if c not in batch.column_names:
                    batch = batch.append_column(c, pa.nulls(n, types[c]))
            return batch.select(sorted(batch.column_names))

        return fn

    lt = left.map_batches(tag(0, left_on), batch_format="pyarrow").map_batches(
        widen(l_cols, r_cols, _schema_fields(right)), batch_format="pyarrow"
    )
    rt = right.map_batches(tag(1, right_on), batch_format="pyarrow").map_batches(
        widen(r_cols, l_cols, _schema_fields(left)), batch_format="pyarrow"
    )

    def merge(group: pa.Table) -> pd.DataFrame:
        # split sides ARROW-side before any pandas conversion: the union's
        # null padding never touches a side's own columns, so int64 keys
        # and values above 2^53 stay exact through the merge
        import pyarrow.compute as pc

        sides = group.column("_side")
        lg = group.filter(pc.equal(sides, 0)).select(l_cols).to_pandas()
        rg = group.filter(pc.equal(sides, 1)).select(r_cols).to_pandas()
        if how == "left":
            # unmatched left rows null-pad the right columns; nullable
            # Int64 keeps ints exact instead of widening to float64
            for c in rg.columns:
                if pd.api.types.is_integer_dtype(rg[c]):
                    rg[c] = rg[c].astype("Int64")
        return lg.merge(rg, left_on=left_on, right_on=right_on, how=how)

    # output schema: left fields then right fields (minus the duplicate
    # key column when the names coincide); non-key columns present on
    # BOTH sides follow pandas' _x/_y suffixing. The final pass casts
    # every column back to its source arrow type (nullable Int64 /
    # object survive as-is otherwise).
    overlap = set(l_cols) & set(r_cols)
    if left_on == right_on:
        overlap.discard(left_on)
    out_fields = [
        pa.field(f.name + "_x", f.type) if f.name in overlap else f
        for f in _schema_fields(left)
    ] + [
        pa.field(f.name + "_y", f.type) if f.name in overlap else f
        for f in _schema_fields(right)
        if f.name != left_on or right_on != left_on
    ]

    def normalize(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cols = {}
        for f in out_fields:
            if f.name in t.column_names:
                col = t.column(f.name)
                if col.type != f.type:
                    if pa.types.is_floating(col.type) and not pa.types.is_floating(f.type):
                        # left-join unmatched rows surface as NaN; make
                        # them proper nulls before the int cast
                        col = pc.if_else(
                            pc.is_nan(col), pa.scalar(None, col.type), col
                        )
                    col = col.cast(f.type)
                cols[f.name] = col
            else:
                cols[f.name] = pa.nulls(t.num_rows, f.type)
        return pa.table(cols)

    joined = (
        lt.union(rt)
        .groupby("_cb")
        .map_groups(merge, batch_format="pyarrow")
    )
    return joined.map_batches(normalize, batch_format="pyarrow")


def _schema_fields(ds: rd.Dataset):
    sch = ds.schema()
    return [pa.field(n, t) for n, t in zip(sch.names, sch.types)]


# -- semi / anti join --------------------------------------------------------

SEMI_BROADCAST_LIMIT = 2_000_000  # distinct right keys; ~16 MB of int64


def semi_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    left_on: str,
    right_on: str | None = None,
    anti: bool = False,
    broadcast_limit: int = SEMI_BROADCAST_LIMIT,
) -> rd.Dataset:
    """EXISTS / NOT EXISTS: left rows whose key does (semi) or does not
    (anti) appear in ``right``. Output = left's columns, unchanged.

    Size-gated two routes (same policy as ``docids.ingest_pages``):

    - **broadcast** (distinct right keys <= ``broadcast_limit``): the
      deduplicated key set ships via ``ray.put`` ONCE and every left
      batch filters locally with a vectorized ``np.isin`` — zero
      shuffles, the common shape when the right side is a filter list.
    - **distributed** (above the gate): both sides shuffle ONCE on the
      same coarse key hash (bounded group count; the row-heavy left
      side never replicates), and each group runs one ``np.isin`` of
      its left keys against its right keys. Correct because equal keys
      always share a coarse group.

    Both routes are pinned identical by
    ``tests/test_joins.py::test_semi_anti_routes_agree``.
    """
    import ray

    right_on = right_on or left_on
    keys_ds = right.select_columns([right_on])
    # distinct-key estimate without a global unique(): per-batch dedup,
    # then count. Upper bound on distinct keys, cheap and narrow.
    approx = keys_ds.map_batches(
        lambda t: pa.table({right_on: t.column(right_on).combine_chunks().unique()}),
        batch_format="pyarrow",
    )

    n_approx = approx.count()
    if n_approx <= broadcast_limit:
        if n_approx == 0:
            key_arr = np.array([])
        else:
            key_arr = approx.to_pandas()[right_on].unique()
        key_ref = ray.put(np.sort(key_arr))

        def bfilter(batch: pa.Table) -> pa.Table:
            keys = ray.get(key_ref)
            v = batch.column(left_on).to_numpy(zero_copy_only=False)
            if keys.size == 0:
                hit = np.zeros(len(v), dtype=bool)
            else:
                idx = np.searchsorted(keys, v)
                idx[idx >= keys.size] = 0
                hit = keys[idx] == v
            mask = ~hit if anti else hit
            return batch.filter(pa.array(mask))

        return left.map_batches(bfilter, batch_format="pyarrow")

    # distributed route: union left rows with right's (key-only) rows,
    # one coarse shuffle, per-group membership test
    l_fields = _schema_fields(left)
    l_cols = [f.name for f in l_fields]
    # right keys are cast to the LEFT key's arrow type so the union
    # schema is uniform (e.g. int32 right keys vs int64 left keys)
    key_type = dict((f.name, f.type) for f in l_fields)[left_on]
    groups = coarse_groups()

    def tag_left(batch: pa.Table) -> pa.Table:
        cb = coarse_bucket(batch.column(left_on), n_groups=groups)
        return batch.append_column(
            "_side", pa.array(np.zeros(batch.num_rows, dtype=np.int8))
        ).append_column("_cb", pa.array(cb, pa.int64()))

    def tag_right(batch: pa.Table) -> pa.Table:
        col = batch.column(right_on).combine_chunks().unique()
        t = pa.table({left_on: col.cast(key_type)})
        for f in l_fields:
            if f.name != left_on:
                t = t.append_column(f.name, pa.nulls(t.num_rows, f.type))
        t = t.select(l_cols)
        cb = coarse_bucket(t.column(left_on), n_groups=groups)
        return t.append_column(
            "_side", pa.array(np.ones(t.num_rows, dtype=np.int8))
        ).append_column("_cb", pa.array(cb, pa.int64()))

    lt = left.select_columns(l_cols).map_batches(tag_left, batch_format="pyarrow")
    rt = keys_ds.map_batches(tag_right, batch_format="pyarrow")

    def member(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sides = group.column("_side")
        lg = group.filter(pc.equal(sides, 0))
        rkeys = (
            group.filter(pc.equal(sides, 1))
            .column(left_on)
            .to_numpy(zero_copy_only=False)
        )
        lkeys = lg.column(left_on).to_numpy(zero_copy_only=False)
        hit = np.isin(lkeys, rkeys)
        mask = ~hit if anti else hit
        return lg.filter(pa.array(mask)).select(l_cols)

    return (
        lt.union(rt)
        .groupby("_cb")
        .map_groups(member, batch_format="pyarrow")
    )


def anti_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    left_on: str,
    right_on: str | None = None,
    **kw,
) -> rd.Dataset:
    """Left rows with NO match in right (NOT EXISTS). See semi_join."""
    return semi_join(
        left, right, left_on=left_on, right_on=right_on, anti=True, **kw
    )
