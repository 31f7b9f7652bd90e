"""Delta + varbyte posting-list codec with per-block metadata.

The reference defines delta encode/decode but never calls it (dead code,
reference ``app/InvertedIndexFinal.py:124-150``) and stores postings as
fixed-width uint32 pairs (``app/InvertedIndexFinal.py:228-231``). Here the
codec is real and is the on-disk format of index segments.

Layout of one posting-list ``blob`` (bytes):

    block 0: vb(doc_id_0 ABSOLUTE) vb(tf_0) vb(delta_1) vb(tf_1) ... (<=128 postings)
    block 1: vb(doc_id_j ABSOLUTE) vb(tf_j) ...
    ...

Every block restarts delta coding from an absolute doc_id. That makes two
blobs for disjoint, ordered doc_id ranges concatenable WITHOUT decoding:
salted term-splits (doc_id-range salt) are stitched by concatenating
blobs, shifting block byte offsets, and concatenating block metadata —
the post-merge of split posting lists required by the north star.

Varbyte = LEB128-style: 7 payload bits per byte, high bit set means
"more bytes follow". Encode and decode are numpy-vectorized (no Python
loop over postings).

Block metadata (parallel arrays, one entry per block):
    last_doc:  last (largest) doc_id in the block     -> WAND skipping
    max_tf:    max term frequency in the block        -> BM25 block bound
    offset:    byte offset of the block start in blob

The BM25 block bound (``max_bm25``) needs global df and avgdl, so the
codec does not compute it: ``segments.make_finalize`` derives it from
the runs' per-block ``max_tf`` and ``min_dl`` with
``scoring.bm25_contrib``, and the segments keep only the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 128


# ---------------------------------------------------------------------------
# varbyte
# ---------------------------------------------------------------------------

def varbyte_encode(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode a uint64 array; returns (bytes, per-value byte lengths)."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.zeros(0, dtype=np.int64)
    # bytes needed per value: 1 + how many 7-bit chunks beyond the first
    nbytes = np.ones(v.size, dtype=np.int64)
    for k in range(1, 10):
        nbytes += (v >= np.uint64(1) << np.uint64(7 * k)).astype(np.int64)
    total = int(nbytes.sum())
    out = np.zeros(total, dtype=np.uint8)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    maxb = int(nbytes.max())
    for j in range(maxb):
        mask = nbytes > j
        pos = starts[mask] + j
        chunk = (v[mask] >> np.uint64(7 * j)) & np.uint64(0x7F)
        cont = (nbytes[mask] - 1 > j).astype(np.uint8) << 7
        out[pos] = chunk.astype(np.uint8) | cont
    return out.tobytes(), nbytes


def varbyte_decode(blob: bytes | memoryview) -> np.ndarray:
    """Decode a varbyte stream back to a uint64 array."""
    b = np.frombuffer(blob, dtype=np.uint8)
    if b.size == 0:
        return np.zeros(0, dtype=np.uint64)
    payload = (b & 0x7F).astype(np.uint64)
    is_end = (b & 0x80) == 0
    # group id per byte: 0-based index of the value this byte belongs to
    group = np.zeros(b.size, dtype=np.int64)
    group[1:] = np.cumsum(is_end[:-1])
    starts = np.flatnonzero(np.concatenate(([True], is_end[:-1])))
    offs = np.arange(b.size, dtype=np.int64) - starts[group]
    shifted = payload << (np.uint64(7) * offs.astype(np.uint64))
    return np.add.reduceat(shifted, starts)


# ---------------------------------------------------------------------------
# posting-list blocks
# ---------------------------------------------------------------------------

@dataclass
class EncodedPostings:
    blob: bytes
    last_doc: np.ndarray   # int64 per block
    max_tf: np.ndarray     # int64 per block
    offset: np.ndarray     # int64 per block: byte offset into blob


def encode_postings(
    doc_ids: np.ndarray, tfs: np.ndarray, block_size: int = BLOCK_SIZE
) -> EncodedPostings:
    """Encode a doc_id-sorted posting list into delta+varbyte blocks."""
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    n = doc_ids.size
    if n == 0:
        z = np.zeros(0, dtype=np.int64)
        return EncodedPostings(b"", z, z, z)
    # deltas, with block-leading positions reset to absolute doc_id
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = doc_ids[0]
    deltas[1:] = (doc_ids[1:] - doc_ids[:-1]).astype(np.uint64)
    block_starts = np.arange(0, n, block_size, dtype=np.int64)
    deltas[block_starts] = doc_ids[block_starts].astype(np.uint64)
    # interleave (delta, tf)
    values = np.empty(2 * n, dtype=np.uint64)
    values[0::2] = deltas
    values[1::2] = tfs.astype(np.uint64)
    blob, nbytes = varbyte_encode(values)
    # per-block byte offsets: bytes consumed before each block's first value
    cum = np.concatenate(([0], np.cumsum(nbytes)))
    offsets = cum[2 * block_starts]
    # per-block maxima
    block_ends = np.minimum(block_starts + block_size, n)
    last_doc = doc_ids[block_ends - 1]
    max_tf = np.maximum.reduceat(tfs, block_starts)
    return EncodedPostings(blob, last_doc, max_tf, offsets.astype(np.int64))


def decode_postings(blob: bytes | memoryview, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode a blob back to (doc_ids, tfs), both sorted by doc_id."""
    values = varbyte_decode(blob)
    if values.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    deltas = values[0::2].astype(np.int64)
    tfs = values[1::2].astype(np.int64)
    n = deltas.size
    # value-index of each block start: count values before byte offset.
    # Offsets are exact value boundaries, so reconstruct by prefix sums of
    # byte lengths — recompute lengths from the stream terminators.
    b = np.frombuffer(blob, dtype=np.uint8)
    is_end = (b & 0x80) == 0
    value_start_bytes = np.flatnonzero(np.concatenate(([True], is_end[:-1])))
    # block k starts at the value whose byte start == offsets[k]
    block_start_values = np.searchsorted(value_start_bytes, np.asarray(offsets, dtype=np.int64))
    block_starts = block_start_values // 2
    # segmented cumsum: doc_ids = cumsum(deltas) within each block
    doc_ids = np.cumsum(deltas)
    # subtract the carry-over at each block boundary so each block restarts
    carry = np.zeros(n, dtype=np.int64)
    bs = block_starts[block_starts > 0]
    carry[bs] = doc_ids[bs - 1]
    doc_ids = doc_ids - np.maximum.accumulate(carry)
    return doc_ids, tfs


def decode_span(
    blob: bytes | memoryview,
    offsets: np.ndarray,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode blocks lo..hi (inclusive) in ONE vectorized pass.

    Every block restarts from an absolute doc_id, so a contiguous byte
    range of blocks is itself a valid posting blob; this amortizes the
    fixed numpy overhead of ``varbyte_decode`` across the span (windowed
    WAND decodes spans of up to 32 blocks at a time instead of paying
    that overhead per 128-posting block)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    start = int(offsets[lo])
    end = int(offsets[hi + 1]) if hi + 1 < offsets.size else len(blob)
    return decode_postings(memoryview(blob)[start:end], offsets[lo : hi + 1] - start)
