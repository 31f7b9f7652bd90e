"""One coarse-shuffle key for every hash-keyed group-by.

The reference merges SPIMI blocks with a k-way merge
(``app/InvertedIndexFinal.py:287-346``); here that merge, the dedup
family, joins, graph, sessions, lm, bulk search and phrase match are all
a Ray ``groupby`` keyed on a bounded COARSE bucket of the real key: the
framework sees a bounded number of groups whatever the key cardinality,
and the per-key work runs vectorized inside each group. This module owns
that one decision:

* ``key_hash``: one process-stable, vectorized 64-bit hash over one or
  more int or string key columns (never builtin ``hash``, which is salted
  per process for strings);
* ``coarse_groups``: one group-count rule, the ``FLOOR_GROUPS`` floor,
  scaled up by a row-count hint where the caller has one, so a group's
  payload stays bounded at any corpus size;
* ``coarse_bucket``: the two combined, the value every stage groups on.

Answers never depend on the group count: a key's rows land wholly in one
group under any count. Compute the count on the driver and capture it in
the batch function, so every worker uses the same one.

Not shuffle keys, and not here: the persisted partition hashes
(``postings.term_bucket``, ``positional._term_bucket``; the searcher
recomputes them, so they are index layout), content hashes (dedup
shingles, fingerprints, textstats) and doc-range buckets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# the bounded group count below which no shuffle goes
FLOOR_GROUPS = 512

_FIB = np.uint64(11400714819323198485)  # 2^64 / golden ratio
_FNV = np.uint64(1099511628211)  # 64-bit FNV prime


def _bytes_hash(arr: pa.Array) -> np.ndarray:
    """sum(byte_i * FNV^i) mod 2^64 per value: pure buffer math over the
    flat UTF-8 / binary data, no per-row Python and no padded matrix."""
    if arr.null_count:
        arr = arr.fill_null(b"")
    arr = arr.cast(pa.large_binary())
    n = len(arr)
    off = np.frombuffer(arr.buffers()[1], dtype=np.int64)[arr.offset : arr.offset + n + 1]
    widths = np.diff(off)
    h = np.zeros(n, dtype=np.uint64)
    total = int(off[-1] - off[0])
    if total == 0:
        return h
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[off[0] : off[-1]]
    starts = off[:-1] - off[0]
    pos = np.arange(total, dtype=np.int64) - np.repeat(starts, widths)
    powers = np.full(int(widths.max()), _FNV, dtype=np.uint64)
    powers[0] = 1
    powers = np.cumprod(powers, dtype=np.uint64)
    nonempty = widths > 0
    h[nonempty] = np.add.reduceat(data.astype(np.uint64) * powers[pos], starts[nonempty])
    return h


def _int_hash(v: np.ndarray) -> np.ndarray:
    if v.dtype.kind not in "iu":
        raise TypeError(f"unsupported coarse key dtype: {v.dtype}")
    # two's complement: a 64-bit view is free, narrower ints widen
    return v.view(np.uint64) if v.dtype.itemsize == 8 else v.astype(np.uint64)


def _column_hash(col) -> np.ndarray:
    if isinstance(col, np.ndarray):
        return _int_hash(col)
    if isinstance(col, pa.ChunkedArray):
        arr = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    else:
        arr = col
    if pa.types.is_dictionary(arr.type):
        arr = arr.dictionary_decode()
    if pa.types.is_integer(arr.type):
        if arr.null_count:
            arr = arr.fill_null(0)
        return _int_hash(arr.to_numpy(zero_copy_only=False))
    if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)
            or pa.types.is_binary(arr.type) or pa.types.is_large_binary(arr.type)):
        arr = pc.cast(arr, pa.string())  # floats, dates, bools: their text
    return _bytes_hash(arr)


def key_hash(*cols) -> np.ndarray:
    """Process-stable uint64 hash of the row-wise tuple of ``cols``
    (numpy int arrays or arrow int/string/binary arrays, equal length).
    One column hashes to its int value or its bytes' FNV polynomial;
    more columns combine as a polynomial in the FNV prime."""
    h = _column_hash(cols[0])
    for col in cols[1:]:
        h = h * _FNV + _column_hash(col)
    return h


def coarse_groups(n_rows: int | None = None, rows_per_group: int = 1) -> int:
    """Shuffle group count: ``FLOOR_GROUPS``, or more when the caller
    knows its row count, so each group holds ~``rows_per_group`` rows (a
    fixed count lets a group's payload grow linearly with the corpus, and
    a map_groups task materializes its whole group)."""
    if not n_rows:
        return FLOOR_GROUPS
    return max(FLOOR_GROUPS, int(n_rows) // rows_per_group + 1)


def coarse_bucket(*cols, n_groups: int) -> np.ndarray:
    """int64 group id in [0, n_groups) of each row's key: the Fibonacci
    mix of ``key_hash``, so ids on any stride spread over the groups."""
    mixed = (key_hash(*cols) * _FIB) >> np.uint64(32)
    return (mixed % np.uint64(n_groups)).view(np.int64)  # < n_groups: same value
