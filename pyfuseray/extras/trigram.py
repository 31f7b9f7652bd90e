"""Trigram substring index: SQL ``LIKE '%...%'`` accelerated by an
inverted file of character 3-grams (the pg_trgm / GIN idea the
reference benchmarks BM25 against via its PostgresConnector,
/root/reference/app/PostgresConnector.py — here rebuilt as a
first-class Ray Data operator instead of an external engine).

Exact, not approximate: the trigram postings give a candidate SUPERSET
(every doc containing all required grams of the pattern's literals);
a final distributed ``pyarrow.compute.match_like`` verify over only
the candidates removes false positives. Patterns whose literals are
all shorter than 3 bytes take a full-scan fallback (same verify
kernel, no pruning) — still one streaming pass, never a driver loop.

100-TB shape:

- **build**: one ``map_batches`` extracts distinct (doc, gram) pairs
  per batch with pure buffer math (a gram is 3 UTF-8 bytes packed into
  a 24-bit int — the gram IS its own hash, process-stable by
  construction); ONE shuffle on the coarse ``bucket = gram %
  n_buckets`` key (bounded group count, the repo's dedup-family rule);
  per-bucket (gram, doc_id) sort; hive-partitioned parquet write
  (``bucket=K/``) so queries prune physically.
- **query**: only the buckets owning the pattern's grams are read
  (explicit file lists), with a ``gram in (...)`` filter pushed into
  the parquet scan (row-group statistics apply — partitions are
  gram-sorted); candidate intersection is a per-batch partial count +
  one coarse doc-bucket groupby (output = candidate ids, never the
  corpus); the verify pass reads the corpus with isin pushdown.

Wildcards: ``%`` (any run) and ``_`` (any single char), DuckDB/ANSI
semantics via Arrow's ``match_like``. No escape syntax (document
corpora don't contain ``%``/``_``; matches the oracle as long as the
pattern itself is the only place wildcards appear).
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups

MANIFEST = "_TRIGRAM_OK"


def _doc_grams(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """Distinct (doc_id, gram) pairs for every 3-byte UTF-8 window of
    every text — vectorized buffer math, no per-row Python."""
    empty = pa.table(
        {"gram": pa.array([], pa.int32()), "doc_id": pa.array([], pa.int64())}
    )
    arr = batch.column(text_col)
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    arr = arr.cast(pa.large_binary())
    n = len(arr)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    if n == 0:
        return empty
    off = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset : arr.offset + n + 1
    ]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[off[0] : off[-1]]
    off = off - off[0]
    total = int(off[-1])
    if total < 3:
        return empty
    # every 3-byte window of the concatenated buffer ...
    g = (
        data[:-2].astype(np.int32) << 16
        | data[1:-1].astype(np.int32) << 8
        | data[2:].astype(np.int32)
    )
    starts = np.arange(total - 2, dtype=np.int64)
    row = np.searchsorted(off, starts, side="right") - 1
    # ... kept only when it does not cross a document boundary
    ok = starts + 3 <= off[row + 1]
    # distinct per doc: pack (row, gram) into one int64 key and unique
    key = np.unique(row[ok] << 24 | g[ok].astype(np.int64))
    rows = (key >> 24).astype(np.int64)
    grams = (key & 0xFFFFFF).astype(np.int32)
    return pa.table({"gram": pa.array(grams), "doc_id": pa.array(ids[rows])})


def grams_of(literal: str) -> np.ndarray:
    """All 3-byte windows of the literal's UTF-8 encoding (int32)."""
    b = np.frombuffer(literal.encode("utf-8"), dtype=np.uint8)
    if b.size < 3:
        return np.empty(0, dtype=np.int32)
    return np.unique(
        b[:-2].astype(np.int32) << 16
        | b[1:-1].astype(np.int32) << 8
        | b[2:].astype(np.int32)
    )


def pattern_literals(pattern: str) -> list[str]:
    """Maximal wildcard-free runs of a LIKE pattern."""
    out, cur = [], []
    for ch in pattern:
        if ch in ("%", "_"):
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def build_trigram_index(
    ds: rd.Dataset,
    out_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
) -> str:
    """(doc, gram) inverted file, hive-partitioned by coarse bucket."""
    nb = np.int32(n_buckets)

    def extract(batch: pa.Table) -> pa.Table:
        t = _doc_grams(batch, text_col, id_col)
        g = t.column("gram").to_numpy(zero_copy_only=False)
        return t.append_column("bucket", pa.array(g % nb, pa.int32()))

    def sort_bucket(part: pa.Table) -> pa.Table:
        return part.sort_by([("gram", "ascending"), ("doc_id", "ascending")])

    os.makedirs(out_dir, exist_ok=True)
    (
        ds.select_columns([id_col, text_col])
        .map_batches(extract, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(sort_bucket, batch_format="pyarrow")
        .write_parquet(out_dir, partition_cols=["bucket"])
    )
    with open(os.path.join(out_dir, MANIFEST), "w") as f:
        f.write(f"n_buckets={n_buckets}\n")
    return out_dir


def _index_buckets(index_dir: str) -> int:
    with open(os.path.join(index_dir, MANIFEST)) as f:
        return int(f.read().strip().split("=")[1])


def like_search(
    index_dir: str,
    corpus: rd.Dataset,
    pattern: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """doc_ids whose ``text_col`` matches the LIKE ``pattern`` (exact).

    Implicit ``%pattern%`` containment is NOT assumed: the pattern is
    matched against the whole value, ANSI LIKE semantics (callers wrap
    in ``%`` for substring search, as SQL would).
    """
    grams = np.unique(
        np.concatenate(
            [grams_of(lit) for lit in pattern_literals(pattern)]
            or [np.empty(0, dtype=np.int32)]
        )
    )
    if grams.size == 0:
        # unselective pattern: no trigram can prune — one streaming
        # full-scan verify (still distributed, still column-pruned)
        return _verify(corpus, None, pattern, text_col, id_col)

    nb = _index_buckets(index_dir)
    wanted = sorted({int(g) % nb for g in grams})
    files = [
        f
        for b in wanted
        for f in sorted(
            glob.glob(os.path.join(index_dir, f"bucket={b}", "*.parquet"))
        )
    ]
    if not files:
        return _verify(corpus, np.empty(0, dtype=np.int64), pattern, text_col, id_col)
    import pyarrow.dataset as pads

    need = int(grams.size)
    postings = rd.read_parquet(
        files,
        columns=["gram", "doc_id"],
        filter=pads.field("gram").isin(pa.array(grams)),
    )

    groups = coarse_groups()

    def partial_counts(batch: pa.Table) -> pa.Table:
        # distinct per doc is guaranteed by the build; count grams/doc
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        docs, cnt = np.unique(d, return_counts=True)
        return pa.table(
            {
                "_db": pa.array(coarse_bucket(docs, n_groups=groups)),
                "doc_id": pa.array(docs),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )

    def reduce_bucket(part: pa.Table) -> pa.Table:
        d = part.column("doc_id").to_numpy(zero_copy_only=False)
        c = part.column("cnt").to_numpy(zero_copy_only=False)
        order = np.argsort(d, kind="stable")
        d, c = d[order], c[order]
        docs, idx = np.unique(d, return_index=True)
        sums = np.add.reduceat(c, idx)
        return pa.table({"doc_id": pa.array(docs[sums >= need])})

    cand = (
        postings.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("_db")
        .map_groups(reduce_bucket, batch_format="pyarrow")
    )
    # candidate set is output-sized (docs containing every gram)
    cdf = cand.to_pandas()
    cand_ids = (
        np.sort(cdf["doc_id"].to_numpy(dtype=np.int64))
        if "doc_id" in cdf.columns
        else np.empty(0, dtype=np.int64)
    )
    return _verify(corpus, cand_ids, pattern, text_col, id_col)


def _verify(
    corpus: rd.Dataset,
    cand_ids: np.ndarray | None,
    pattern: str,
    text_col: str,
    id_col: str,
) -> rd.Dataset:
    """match_like over the candidates (isin pushdown) or, when
    ``cand_ids is None``, over the whole corpus (fallback scan)."""
    if cand_ids is not None and cand_ids.size == 0:
        return rd.from_arrow(pa.table({id_col: pa.array([], pa.int64())}))
    ids_ref = ray.put(cand_ids) if cand_ids is not None else None

    def check(batch: pa.Table) -> pa.Table:
        if ids_ref is not None:
            got = batch.column(id_col).to_numpy(zero_copy_only=False)
            batch = batch.filter(
                pa.array(np.isin(got, ray.get(ids_ref)))
            )
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64())})
        keep = pc.match_like(batch.column(text_col), pattern)
        return pa.table(
            {id_col: batch.filter(keep).column(id_col).cast(pa.int64())}
        )

    return corpus.select_columns([id_col, text_col]).map_batches(
        check, batch_format="pyarrow"
    )
