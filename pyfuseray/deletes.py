"""Document deletes: tombstones + compaction.

The reference supports deletion only by wiping and rebuilding the whole
index (reference ``app/DataLoader.py:46, 77-89``). Here deletes are the
standard log-structured pair:

- :func:`delete_documents` records tombstoned doc_ids of live docs in
  ``stats/deleted.parquet`` (sorted, unique) and bumps
  ``manifest.n_deleted``. O(|tombstones|); the index is untouched.
  Every query path (interactive TAAT/WAND/boolean, distributed bulk)
  filters tombstoned docs out of results. Global stats (df, avgdl,
  n_docs) stay pre-delete until compaction — the same staleness
  contract as Lucene's deleted-docs model: surviving docs keep their
  exact pre-delete scores, tombstoned docs just never surface.

- :func:`compact` physically removes tombstoned postings: one
  ``map_batches`` pass over every postings generation decodes each
  SPIMI run, drops deleted doc_ids, and re-encodes (vectorized,
  whole-batch — one ``varbyte_decode``/``encode_sorted_runs`` per
  batch, no per-run Python loop). The filtered runs land as ONE new
  consolidated generation (compaction also collapses incremental and
  tiered generations), the derived stages are retired
  (``incremental.retire_derived``) and ``incremental.finish_add``
  resumes ``build_index`` over it, restating avgdl from the filtered
  runs. Search
  results are exactly those of a fresh build over the surviving corpus
  (same postings, df, doclen, avgdl, n_docs ⇒ identical scores;
  pytest-pinned in tests/test_deletes.py).

Block-max bounds after compaction are conservative-but-valid: the run
codec stores per-block ``min_dl`` (not per-posting doc lengths), so a
filtered posting keeps its OLD block's min_dl as a proxy. True min dl
of a filtered block can only be >= the old min, BM25's g(tf, dl) is
decreasing in dl, so the merge-time upper bounds stay valid upper
bounds — WAND results remain exact, bounds merely prune a little less
until the next full rebuild retightens them.

Scale shape: tombstones broadcast once via ``ray.put`` (8 B/id — fine
while deletes << corpus, which is the regime deletes are FOR; bulk
removals should rebuild). The compact pass is embarrassingly parallel
over run rows (no shuffle); only the standard merge shuffle follows.

Crash safety mirrors ``incremental.add_documents``: the filtered
generation is written to ``<dir>.writing`` and renamed BEFORE the one
atomic manifest write that swaps the generation list, updates n_docs,
retires the derived stages and zeroes n_deleted; the tombstone sidecar
is removed only after, and the old generation dirs once ``finish_add``
reaches ``done``. A crash in between leaves either (a) the old
manifest + an orphan dir (redo compact; the next ``finish_add`` removes
the orphan) or (b) the new manifest with ``done=False`` + a
stale-but-inert sidecar (readers gate on ``n_deleted``; run
``incremental.finish_add``), never a double-applied delete.
"""

from __future__ import annotations

import os
import shutil
import time
from collections.abc import Iterable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from pyfuseray.checkpoint import Manifest, load_manifest, save_manifest
from pyfuseray.codec import BLOCK_SIZE, decode_postings

_TOMBSTONE_NAME = os.path.join("stats", "deleted.parquet")


def tombstone_path(index_dir: str) -> str:
    return os.path.join(index_dir, _TOMBSTONE_NAME)


def load_tombstones(index_dir: str, m: Manifest | None = None) -> np.ndarray:
    """Sorted unique tombstoned doc_ids; empty when none are ACTIVE.

    Gated on ``manifest.n_deleted`` so a sidecar left behind by a crash
    between compact's manifest write and the unlink is never re-applied.
    """
    m = m or load_manifest(index_dir)
    path = tombstone_path(index_dir)
    if m is None or not getattr(m, "n_deleted", 0) or not os.path.exists(path):
        return np.zeros(0, dtype=np.int64)
    return pq.read_table(path).column("doc_id").to_numpy().astype(np.int64)


def in_tombstones(doc_ids: np.ndarray, deleted: np.ndarray) -> np.ndarray:
    """Boolean mask of which doc_ids are tombstoned (deleted is sorted)."""
    if deleted.size == 0:
        return np.zeros(doc_ids.size, dtype=bool)
    pos = np.searchsorted(deleted, doc_ids)
    pos = np.minimum(pos, deleted.size - 1)
    return deleted[pos] == doc_ids


def _live_ids(index_dir: str, m: Manifest, ids: np.ndarray) -> np.ndarray:
    """The sorted unique in-domain ``ids`` that name a live doc.

    While the ids are dense every one of them does. Otherwise an id
    missing from docstats is a doc an earlier compaction removed or an
    append_pages url-collision hole, and is dropped: deleting it again
    is a no-op. A doc with no indexed token is missing from docstats too,
    so when the index holds such docs (n_docs exceeds the docstats rows)
    such an id cannot be resolved and ValueError is raised."""
    from pyfuseray.incremental import _docstats_paths, ids_dense

    if ids_dense(m):
        return ids
    indexed = [
        pq.read_table(p, columns=["doc_id"]).column("doc_id").to_numpy()
        for p in _docstats_paths(index_dir, m)
        if os.path.exists(p)
    ]
    indexed = np.concatenate(indexed) if indexed else np.zeros(0, np.int64)
    known = np.isin(ids, indexed)
    if not known.all() and m.n_docs > indexed.size:
        raise ValueError(
            f"doc_ids {ids[~known][:5].tolist()} name no indexed doc, and "
            f"{m.n_docs - indexed.size} docs have no indexed token: cannot "
            "tell whether they are live"
        )
    return ids[known]


def delete_documents(index_dir: str, doc_ids: Iterable[int]) -> Manifest:
    """Tombstone doc_ids (merging with existing tombstones) in place.

    Only ids naming a live doc are recorded (see ``_live_ids``), so
    ``n_deleted`` counts docs and compact lowers n_docs by exactly it."""
    m = load_manifest(index_dir)
    if m is None:
        raise FileNotFoundError(f"no index manifest in {index_dir}")
    if not m.stage_done("done"):
        raise RuntimeError(f"index in {index_dir} is incomplete (done=False)")
    new = np.unique(np.fromiter(doc_ids, dtype=np.int64))
    if new.size == 0:
        return m
    from pyfuseray.incremental import _doc_domain

    domain = _doc_domain(index_dir, m.n_docs)
    if new[0] < 0 or new[-1] >= domain:
        bad = new[(new < 0) | (new >= domain)]
        raise ValueError(
            f"doc_ids out of range [0, {domain}): {bad[:5].tolist()}..."
        )
    new = _live_ids(index_dir, m, new)
    if new.size == 0:
        return m
    merged = np.union1d(load_tombstones(index_dir, m), new)
    path = tombstone_path(index_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".writing"
    pq.write_table(pa.table({"doc_id": pa.array(merged, pa.int64())}), tmp)
    os.replace(tmp, path)
    m.n_deleted = int(merged.size)
    save_manifest(index_dir, m)
    return m


def _filter_runs_batch(
    batch: pa.Table, deleted_ref, block_size: int, num_buckets: int
) -> pa.Table:
    """Drop tombstoned postings from a batch of SPIMI run rows.

    Whole-batch vectorized: ONE varbyte decode over the concatenated
    blobs (every block restarts from an absolute doc_id, so run
    boundaries decode correctly), a searchsorted mask, and ONE
    re-encode via encode_sorted_runs. Per-posting dl is approximated by
    its old block's min_dl (see module docstring: conservative, valid).
    """
    from pyfuseray.postings import RUN_SCHEMA, encode_sorted_runs

    if batch.num_rows == 0:
        return pa.table({}, schema=RUN_SCHEMA)
    deleted = ray.get(deleted_ref) if hasattr(deleted_ref, "hex") else deleted_ref

    # zero-copy: a binary column's data buffer IS the runs' concatenation
    # (same pattern as segments._binary_offsets) — no per-row bytes
    # objects, no join copy
    blob_col = batch.column("blob").combine_chunks()
    bufs = blob_col.buffers()
    owidth = np.int64 if pa.types.is_large_binary(blob_col.type) else np.int32
    boff = np.frombuffer(bufs[1], dtype=owidth)[
        blob_col.offset : blob_col.offset + len(blob_col) + 1
    ].astype(np.int64)
    run_byte_start = boff[:-1] - boff[0]
    joined = memoryview(bufs[2])[boff[0] : boff[-1]]

    off_col = batch.column("offset").combine_chunks()
    off_flat = off_col.flatten().to_numpy()          # block byte offsets, run-local
    loff = off_col.offsets.to_numpy()                # run -> flat-list boundaries
    blocks_per_run = np.diff(loff)
    global_offsets = off_flat + np.repeat(run_byte_start, blocks_per_run)

    docs, tfs = decode_postings(joined, global_offsets)
    df = batch.column("df").to_numpy()
    nruns = batch.num_rows
    run_idx = np.repeat(np.arange(nruns, dtype=np.int64), df)
    run_post_start = np.zeros(nruns, dtype=np.int64)
    np.cumsum(df[:-1], out=run_post_start[1:])
    within = np.arange(docs.size, dtype=np.int64) - run_post_start[run_idx]
    blk_global = loff[:-1][run_idx] + within // block_size
    mdl_flat = batch.column("min_dl").combine_chunks().flatten().to_numpy()
    dl_proxy = mdl_flat[blk_global]

    keep = ~in_tombstones(docs, deleted)
    memo: dict[str, int] = {}
    return encode_sorted_runs(
        batch.column("term").to_pylist(),
        run_idx[keep], docs[keep], tfs[keep], dl_proxy[keep],
        num_buckets, memo, block_size,
    )


def compact(index_dir: str) -> Manifest:
    """Physically remove tombstoned postings and consolidate generations.

    n_docs drops by the tombstone count: ``delete_documents`` records
    live docs only."""
    from pyfuseray.build import _read_generations
    from pyfuseray.incremental import _generations, finish_add, retire_derived

    m = load_manifest(index_dir)
    if m is None:
        raise FileNotFoundError(f"no index manifest in {index_dir}")
    if not m.stage_done("done"):
        raise RuntimeError(f"index in {index_dir} is incomplete (done=False)")
    deleted = load_tombstones(index_dir, m)
    if deleted.size == 0:
        return m
    gens = _generations(m)

    # unique target name (an older compact generation may still exist if
    # a previous compact crashed after its write)
    c = 1
    while os.path.exists(os.path.join(index_dir, f"postings_raw_c{c}")):
        c += 1
    gen_name = f"postings_raw_c{c}"
    gen_dir = os.path.join(index_dir, gen_name)
    tmp = gen_dir + ".writing"
    shutil.rmtree(tmp, ignore_errors=True)

    t0 = time.perf_counter()
    postings_all = _read_generations([os.path.join(index_dir, g) for g in gens])
    deleted_ref = ray.put(deleted)
    filtered = postings_all.map_batches(
        _filter_runs_batch,
        fn_kwargs={
            "deleted_ref": deleted_ref,
            "block_size": m.block_size or BLOCK_SIZE,
            "num_buckets": m.num_buckets,
        },
        batch_format="pyarrow",
    )
    filtered.write_parquet(tmp, partition_cols=["bucket"])
    os.replace(tmp, gen_dir)

    # ONE atomic manifest write: swap generations (the tiered ones fold
    # too: their postings are in the union above), retire the derived
    # stages, retire the tombstones (n_deleted=0 makes the sidecar
    # inert — see module doc)
    m.generations = [gen_name]
    m.n_docs -= int(deleted.size)
    m.n_deleted = 0
    retire_derived(m)
    m.mark_stage(
        f"compact_{gen_name}",
        wall_s=round(time.perf_counter() - t0, 3),
        n_deleted=int(deleted.size),
        from_generations=gens,
    )
    save_manifest(index_dir, m)
    path = tombstone_path(index_dir)
    if os.path.exists(path):
        os.remove(path)
    return finish_add(index_dir)
