"""Time-window range self-join: per row, count same-key rows within
±window — the non-equi neighborhood join the Dataset API lacks.

Distributed plan (the standard block + halo decomposition for windowed
joins): rows are assigned to fixed time blocks of ``block_us`` ≥
``window_us`` and each row is REPLICATED as a "ghost" into the two
adjacent blocks, so every (key, block) cell holds all candidate
neighbors for its core rows. One groupby shuffle on COARSE hash buckets
of (key, block) (bounded group count — repo policy, never one group per
cell) then resolves each cell fully vectorized:

  * lexsort by (key, block, t);
  * per-row composite key ``cell_rank * 3*block_us + (t - cell_t0 +
    block_us)`` — cores land in the middle third of each cell's key
    span, ghosts in the outer thirds, and cell_rank is dense per group
    so the product cannot overflow;
  * two global ``np.searchsorted`` calls give each core row its
    neighbor count (core windows never cross a cell boundary because
    window_us ≤ block_us); ghosts contribute to counts but emit no rows.

Cost: 3× the input through one shuffle (row + 2 ghosts), zero driver
state. Ties at exactly ±window are included (both sides, matching the
SQL ``abs(diff) <= window`` oracle). Self is excluded.

Partitioning assumption: a single (key, block) cell's rows fit in one
task — block width is a knob; pathological single-instant hot cells
would need key salting with ghost duplication, not done here.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups, key_hash


def neighbor_count_join(
    ds: rd.Dataset,
    *,
    key_col: str,
    ts_col: str,
    id_col: str,
    window_us: int,
    block_us: int | None = None,
) -> rd.Dataset:
    """Returns (id_col, n_neighbors): for each row, the number of OTHER
    rows with the same ``key_col`` whose ``ts_col`` lies within
    ``±window_us`` (inclusive). ``ts_col`` must cast to int64
    microseconds; ``key_col`` is hashed with ``coarse.key_hash`` (int,
    string or binary keys; other types hash their text).
    """
    if block_us is None:
        block_us = 2 * window_us
    if block_us < window_us:
        raise ValueError("block_us must be >= window_us (1-block halo)")
    w = np.int64(window_us)
    bsz = np.int64(block_us)
    groups = coarse_groups()

    def explode(batch: pa.Table) -> pa.Table:
        t = batch.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        rid = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        # the key VALUES' process-stable 64-bit hash (builtin hash() is
        # salted per worker; dict codes differ per batch)
        kh = key_hash(batch.column(key_col))
        blk = t // bsz
        # core row + ghosts into the two adjacent blocks
        n = len(t)
        rep_blk = np.concatenate((blk, blk - 1, blk + 1))
        rep_t = np.tile(t, 3)
        rep_id = np.tile(rid, 3)
        rep_kh = np.tile(kh, 3)
        core = np.concatenate(
            (np.ones(n, dtype=np.int8), np.zeros(2 * n, dtype=np.int8))
        )
        return pa.table(
            {
                "_cb": pa.array(coarse_bucket(rep_kh, rep_blk, n_groups=groups)),
                "kh": pa.array(rep_kh.astype(np.int64)),
                "blk": pa.array(rep_blk),
                "t": pa.array(rep_t),
                "rid": pa.array(rep_id),
                "core": pa.array(core),
            }
        )

    def resolve(group: pa.Table) -> pa.Table:
        kh = group.column("kh").to_numpy(zero_copy_only=False)
        blk = group.column("blk").to_numpy(zero_copy_only=False)
        t = group.column("t").to_numpy(zero_copy_only=False)
        rid = group.column("rid").to_numpy(zero_copy_only=False)
        core = group.column("core").to_numpy(zero_copy_only=False)
        order = np.lexsort((t, blk, kh))
        kh, blk, t, rid, core = (
            kh[order], blk[order], t[order], rid[order], core[order]
        )
        new_cell = np.concatenate(
            ([True], (kh[1:] != kh[:-1]) | (blk[1:] != blk[:-1]))
        )
        cell_rank = np.cumsum(new_cell) - 1  # dense per group
        # offset relative to the CELL's block, shifted non-negative:
        # cores land in [bsz, 2bsz), ghosts in [0, bsz) or [2bsz, 3bsz)
        off = t - blk * bsz + bsz  # in [0, 3*bsz)
        K = 3 * bsz  # cell key span; cell_rank dense -> no overflow
        keys = cell_rank * K + off  # sorted within each cell (t sorted)
        # core windows [off-w, off+w] stay inside [0, K) since w <= bsz;
        # ghost rows emit nothing, so their bounds are irrelevant
        lo = cell_rank * K + (off - w)
        hi = cell_rank * K + (off + w)
        cnt = (
            np.searchsorted(keys, hi, side="right")
            - np.searchsorted(keys, lo, side="left")
            - 1  # self
        )
        is_core = core == 1
        return pa.table(
            {
                "rid": pa.array(rid[is_core], pa.int64()),
                "n_neighbors": pa.array(cnt[is_core], pa.int64()),
            }
        )

    return (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(resolve, batch_format="pyarrow")
    )
