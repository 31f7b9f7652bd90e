"""End-to-end index build: corpus Dataset -> immutable index directory.

Pipeline (all stages stream; the only full-postings shuffle is the
per-bucket groupby in stage C):

  A. tokenize: map_batches(tokenize_batch tasks, per-worker cached
     analyzer) -> postings_raw/bucket=k/*.parquet (term-hash
     partitioned on disk; write overlapped with B/C on fresh builds)
  B. avgdl: blob-free (term, df, cf) aggregate over postings
  C. segments: groupby((term, salt)).map_groups(encode) -> stitch ->
     per-block term-sorted segments/bucket=k/.  Resumable per bucket.
  D. df projection (no shuffle) + docstats (doc length AND exact norms
     in one doc_id-keyed shuffle over the runs or the segments)
  E. manifest finalize

Stages B-E read every postings GENERATION the manifest records (a
fresh build has one, ``postings_raw``). This function is the only
writer of segments and stats: an add (``incremental.py``) builds its new
generation with a fresh call in a staging dir, and every fold
(``incremental.py``, ``deletes.py``) records its change, retires the
derived stages B-E in the same manifest write, then resumes this
function with ``corpus=None``.

Index layout (SURVEY.md §7.7):
  out_dir/
    manifest.json
    postings_raw/bucket=k/*.parquet
    segments/bucket=k/*.parquet
    stats/df.parquet  stats/docstats.parquet
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pyarrow as pa
import ray
import ray.data as rd

from pyfuseray.checkpoint import (
    BucketEntry,
    Manifest,
    load_manifest,
    row_checksum_update,
    save_manifest,
)
from pyfuseray.postings import DEFAULT_NUM_BUCKETS, tokenize_batch
from pyfuseray.segments import build_bucket_segment
from pyfuseray.stats import df_dataset, docstats_dataset


def _pin_fsspec_http_stub() -> None:
    """Make ``fsspec.implementations.http`` importable exactly once.

    In this environment the module fails to import (aiohttp is absent);
    Python evicts failed modules from sys.modules, so Ray's per-call
    ``from fsspec.implementations.http import HTTPFileSystem`` probe
    re-imports it every time — and two driver threads doing so
    concurrently race on the half-initialized module, raising a plain
    ImportError that escapes Ray's ModuleNotFoundError guard. Pinning a
    sentinel module (whose HTTPFileSystem matches nothing) makes the
    probe a cached no-op, which is also the semantically right answer:
    no HTTP filesystems exist here.
    """
    import sys
    import types

    name = "fsspec.implementations.http"
    if name in sys.modules:
        return
    try:
        __import__(name)
    except ImportError:
        mod = types.ModuleType(name)

        class HTTPFileSystem:  # sentinel: never instantiated
            pass

        mod.HTTPFileSystem = HTTPFileSystem
        sys.modules[name] = mod


def _var_slices(arr: pa.Array) -> tuple[memoryview, "np.ndarray"]:
    """(data memoryview, value offsets) of a string/binary array —
    zero-copy row access without materializing Python objects."""
    import numpy as np

    bufs = arr.buffers()
    if bufs[1] is None:  # 0-chunk empty column
        return memoryview(b""), np.zeros(len(arr) + 1, np.int64)
    off = np.frombuffer(bufs[1], np.int32)[arr.offset : arr.offset + len(arr) + 1]
    data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    return data, off.astype(np.int64)


def _checksum_partial(batch: pa.Table) -> pa.Table:
    """Per-batch, per-bucket partial of the order-insensitive checksum,
    row count, and posting count.

    Identical accumulator as ``row_checksum_update`` (md5 over
    term\\0df\\0blob\\0, digests summed mod 2^128) but fed by Arrow
    buffer math: term/blob bytes are memoryview slices of the column
    data buffers and the df decimal rendering rides one vectorized cast,
    so no per-row Python strings/bytes are ever constructed — only the
    irreducible md5 over the blob bytes remains (the old ``to_pylist``
    version serialized every blob into Python objects in the build's
    critical section)."""
    import hashlib

    import numpy as np

    n = batch.num_rows
    batch = batch.combine_chunks()
    tdata, toff = _var_slices(batch.column("term").combine_chunks())
    bdata, boff = _var_slices(batch.column("blob").combine_chunks())
    ddata, doff = _var_slices(batch.column("df").cast(pa.string()).combine_chunks())
    dfs = batch.column("df").to_numpy(zero_copy_only=False)
    if "bucket" in batch.column_names:
        buckets = batch.column("bucket").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
    else:
        buckets = np.zeros(n, np.int64)
    sums: dict[int, int] = {}
    counts: dict[int, int] = {}
    md5 = hashlib.md5
    sep = b"\x00"
    for i in range(n):
        h = md5(tdata[toff[i] : toff[i + 1]])
        h.update(sep)
        h.update(ddata[doff[i] : doff[i + 1]])
        h.update(sep)
        h.update(bdata[boff[i] : boff[i + 1]])
        h.update(sep)
        k = int(buckets[i])
        sums[k] = sums.get(k, 0) + int.from_bytes(h.digest(), "big")
        counts[k] = counts.get(k, 0) + 1
    ks = sorted(sums)
    df_sums = {k: 0 for k in ks}
    for k in ks:
        df_sums[k] = int(dfs[buckets == k].sum())
    return pa.table(
        {
            "bucket_id": pa.array(ks, pa.int32()),
            "acc": pa.array([str(sums[k] % (1 << 128)) for k in ks]),
            "rows": pa.array([counts[k] for k in ks]),
            "df_sum": pa.array([df_sums[k] for k in ks]),
        }
    )


def _sort_block_by_term(batch: pa.Table) -> pa.Table:
    """Term-sort ONE merge-output block (no shuffle) so every written
    segment file carries tight per-row-group term statistics."""
    if batch.num_rows == 0:
        return batch
    return batch.sort_by("term")


# parquet layout of every segment write (fresh build, per-bucket resume):
# FEW files (reads schedule ~10 tasks, not ~1600) with
# SMALL row groups, so term-point lookups still prune via parquet
# row-group statistics inside each file
SEGMENT_WRITE = {
    "partition_cols": ["bucket"],
    "max_rows_per_file": 4096,
    "row_group_size": 256,
}

# every docstats write (the runs route and the canonical segments
# decode): a sort("doc_id") leaves one output block
# per input block, so without a floor a resume's many small read blocks
# become as many tiny files; one file per million docs keeps the
# searcher's whole-table load to a few reads
DOCSTATS_WRITE = {"min_rows_per_file": 1 << 20}


def _read_generations(dirs: list[str], **kwargs) -> rd.Dataset:
    """The union of the run rows under ``dirs`` (one dir per postings
    generation), read one generation at a time."""
    parts = [rd.read_parquet(d, **kwargs) for d in dirs]
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


def _segment_checksums(seg: rd.Dataset) -> dict[int, tuple[int, int, int]]:
    """One pass over segment rows -> {bucket: (checksum, rows, df_sum)}."""
    out: dict[int, list[int]] = {}
    for b in seg.map_batches(_checksum_partial, batch_format="pyarrow").iter_rows():
        cur = out.setdefault(int(b["bucket_id"]), [0, 0, 0])
        cur[0] = (cur[0] + int(b["acc"])) % (1 << 128)
        cur[1] += int(b["rows"])
        cur[2] += int(b["df_sum"])
    return {k: (v[0], v[1], v[2]) for k, v in out.items()}


# above this doc count stage A stops pinning the materialized run rows
# in the object store for the build (mirrors pipeline.MATERIALIZE_DOC_LIMIT
# for the corpus checkpoint, incl. its sizing rationale): write-first +
# stream-from-files instead
POSTINGS_MATERIALIZE_DOC_LIMIT = 5_000_000

# default hot-term split: one doc-range salt per this many docs
SALT_DOCS = 500_000


def build_index(
    corpus: rd.Dataset | None,
    out_dir: str,
    *,
    n_docs: int | None = None,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    num_salts: int | None = None,
    # 4096-doc SPIMI blocks: runs per term (and so rows through the
    # merge shuffle) drop 4x vs 1024 at ~4x the per-task heap — measured
    # 28 s -> 19 s on the segment stage of the 400k-page bench corpus
    tokenizer_batch_size: int = 4096,
    block_size: int | None = None,
    overwrite: bool = False,
    analyzer: str = "reference",
    corpus_sorted: bool = False,
    postings_materialize_threshold: int = POSTINGS_MATERIALIZE_DOC_LIMIT,
) -> Manifest:
    """Build (or resume building) an index from a (doc_id, text) Dataset.

    ``corpus=None`` resumes an index whose stage A is done from the
    postings generations its manifest records (``n_docs`` defaults to
    the manifest's); it raises when stage A is not done. Every index
    maintenance op ends this way (``incremental.finish_add``).

    ``corpus_sorted``: the caller guarantees the corpus arrives
    doc_id-sorted with a canonical block structure (the production
    ingest in ``pipeline.build_from_pages`` sorts before building).
    That enables the run-decode docstats fast path, whose float
    summation order follows the run structure: norms can differ from
    the canonical segment-decode path in the last ulp (~1e-14, far
    inside the 1e-9 conformance tolerance) but are reproducible for a
    given corpus layout. Callers that rebuild the same logical corpus
    under DIFFERENT row orders and require bit-identical tie-breaks
    (the sorted-vs-unsorted and interrupted-resume invariants in
    tests/) leave this False and take the canonical segments decode.
    A ``corpus=None`` resume also takes the run-decode path: its runs
    are whatever generations the maintenance ops recorded, so there is
    no other row order to agree with."""
    _pin_fsspec_http_stub()
    if overwrite and os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    m = load_manifest(out_dir) or Manifest()
    if corpus is None and not m.stage_done("postings"):
        raise ValueError(
            f"build_index(corpus=None) resumes an index whose postings "
            f"stage is done; {out_dir} has none"
        )

    if n_docs is None:
        n_docs = m.n_docs if corpus is None else corpus.count()
    if num_salts is None:
        num_salts = max(1, n_docs // SALT_DOCS)
    if m.num_buckets and m.num_buckets != num_buckets:
        raise ValueError(
            f"resume with num_buckets={num_buckets} != manifest {m.num_buckets}"
        )
    # resume must not mix codec granularities or salt layouts: a partial
    # index built with one block_size/num_salts silently diverges from the
    # requested config if we keep going (decode-correct, but the WAND skip
    # layout and bench assumptions are wrong). Mirror the num_buckets check.
    from pyfuseray.codec import BLOCK_SIZE as _DEFAULT_BS

    eff_bs = block_size or _DEFAULT_BS
    if m.stages:  # resuming an in-progress build
        if m.block_size and m.block_size != eff_bs:
            raise ValueError(
                f"resume with block_size={eff_bs} != manifest {m.block_size}"
            )
        if m.num_salts != num_salts:
            raise ValueError(
                f"resume with num_salts={num_salts} != manifest {m.num_salts}"
            )
        if m.analyzer != analyzer:
            raise ValueError(
                f"resume with analyzer={analyzer!r} != manifest {m.analyzer!r}"
            )
    m.analyzer = analyzer
    m.n_docs = n_docs
    m.num_buckets = num_buckets
    m.num_salts = num_salts
    m.block_size = eff_bs
    # the per-block max_bm25 WAND bounds in stage C are computed with
    # these parameters (scoring.bm25_contrib defaults); record them so
    # the searcher knows when the bounds are valid
    from pyfuseray.scoring import BM25_B, BM25_K1

    m.bm25_k1 = BM25_K1
    m.bm25_b = BM25_B

    from pyfuseray.incremental import _generations

    postings_dir = os.path.join(out_dir, "postings_raw")
    gen_dirs = [os.path.join(out_dir, g) for g in _generations(m)]
    segments_dir = os.path.join(out_dir, "segments")
    stats_dir = os.path.join(out_dir, "stats")

    # side threads (postings write, docstats, segment write) are joined
    # before this function returns, on error paths too
    side: list[threading.Thread] = []

    def start_side(fn, err: list[BaseException]) -> threading.Thread:
        def run():
            try:
                fn()
            except BaseException as e:  # surfaced after join
                err.append(e)

        t = threading.Thread(target=run, daemon=True)
        side.append(t)
        t.start()
        return t

    # the run-decode docstats route: see corpus_sorted above
    use_runs = corpus_sorted or corpus is None
    materialize = n_docs <= postings_materialize_threshold
    try:
        # -- stage A: tokenize -> bucket-partitioned postings -----------------
        # Fresh builds up to POSTINGS_MATERIALIZE_DOC_LIMIT docs materialize
        # the run rows in the (spill-backed) object store and write the
        # postings_raw checkpoint on a SIDE thread: stages B/C consume the
        # blocks straight from memory instead of re-reading the files just
        # written, and the (pure disk) checkpoint write overlaps the segment
        # shuffle. The stage is only marked done after the write lands
        # (tmp dir + atomic rename, so a crash mid-write resumes cleanly by
        # redoing the stage). Above the limit the checkpoint is written
        # first and stages B/C stream from files, so object-store residency
        # stays bounded at the 100x scale. Segment content is identical on
        # both routes: the stage-C groupby repartitions by (term, salt), so
        # group contents never depend on input block structure.
        postings_mem: rd.Dataset | None = None
        post_writer: threading.Thread | None = None
        post_err: list[BaseException] = []
        tokenize_wall = 0.0
        if not m.stage_done("postings"):
            t0 = time.perf_counter()
            # tasks with a per-worker-process cached analyzer, no actor
            # pool cold start (see postings.tokenize_batch)
            postings = corpus.map_batches(
                tokenize_batch,
                fn_kwargs={"num_buckets": num_buckets, "block_size": block_size,
                           "analyzer": analyzer},
                batch_format="pyarrow",
                batch_size=tokenizer_batch_size,
            )
            if os.path.exists(postings_dir):
                shutil.rmtree(postings_dir)  # stage is atomic: redo partial output
            if materialize:
                postings_mem = postings.materialize()
                tokenize_wall = time.perf_counter() - t0
                tmp_post = postings_dir + ".writing"
                shutil.rmtree(tmp_post, ignore_errors=True)

                def _write_postings():
                    postings_mem.write_parquet(tmp_post, partition_cols=["bucket"])
                    # an EMPTY dataset writes no files and no directory
                    os.makedirs(tmp_post, exist_ok=True)
                    os.replace(tmp_post, postings_dir)

                post_writer = start_side(_write_postings, post_err)
            else:
                postings.write_parquet(postings_dir, partition_cols=["bucket"])
                os.makedirs(postings_dir, exist_ok=True)  # empty-corpus edge
                m.mark_stage("postings", wall_s=round(time.perf_counter() - t0, 3))
                save_manifest(out_dir, m)

        postings_all = (
            postings_mem if postings_mem is not None else _read_generations(gen_dirs)
        )

        # -- stage B: avgdl + final per-term df, ONE blob-free pass -----------
        # final_df_table aggregates (term, df, cf) from run rows without
        # decoding a single blob: total tokens (avgdl) = sum cf, and the df
        # column feeds the docstats idf broadcast in stage D — one pipeline
        # execution where round 2 ran two (sum("cf") + a full segment decode
        # for df-at-docstats).
        from pyfuseray.stats import final_df_table

        df_tbl: pa.Table | None = None
        if not m.stage_done("avgdl") or not m.stage_done("docstats"):
            t0 = time.perf_counter()
            agg_src = (
                postings_mem
                if postings_mem is not None
                else _read_generations(gen_dirs, columns=["term", "df", "cf"])
            )
            df_tbl = final_df_table(agg_src)
            if not m.stage_done("avgdl"):
                import pyarrow.compute as pc

                total = int(pc.sum(df_tbl.column("cf")).as_py() or 0)
                m.total_postings = total
                m.avgdl = (total / n_docs) if n_docs else 0.0
                m.mark_stage("avgdl", wall_s=round(time.perf_counter() - t0, 3),
                             total_tokens=total)
                save_manifest(out_dir, m)

        # -- stage D' (overlapped): docstats from runs ------------------------
        # docstats no longer reads the merged segments (it decodes the RUN
        # rows with the final df broadcast from stage B), so on fresh
        # in-memory builds it runs CONCURRENTLY with the stage-C segment
        # shuffle on a driver side thread — its decode work fills stage C's
        # sort-barrier idle gaps instead of serializing after them.
        from pyfuseray.stats import VOCAB_BROADCAST_LIMIT, docstats_from_runs

        stats_path = os.path.join(stats_dir, "docstats.parquet")
        docstats_thread: threading.Thread | None = None
        docstats_err: list[BaseException] = []
        t_docstats0 = 0.0
        if (
            corpus_sorted
            and not m.stage_done("docstats")
            and postings_mem is not None
            and df_tbl is not None
            and df_tbl.num_rows <= VOCAB_BROADCAST_LIMIT
        ):
            if os.path.exists(stats_path):
                shutil.rmtree(stats_path)
            t_docstats0 = time.perf_counter()

            def _write_docstats():
                docstats_from_runs(postings_mem, n_docs, df_tbl).sort(
                    "doc_id"
                ).write_parquet(stats_path, **DOCSTATS_WRITE)

            docstats_thread = start_side(_write_docstats, docstats_err)

        # -- stage C: segment build (resumable per bucket) --------------------
        # Layout: segments/bucket=k/*.parquet (hive). Fresh builds up to the
        # materialize gate do ONE groupby shuffle over all buckets and a
        # partitioned write (the wide step, amortizing per-pipeline
        # overhead); above the gate — where pinning ~2 B/posting of merged
        # segments in the object store while ALSO writing them would double
        # residency — and on resumes, buckets build independently from their
        # own postings partitions and stream straight to parquet, with the
        # checksum pass running off the files (the same code both ways, so
        # the >gate route is exercised by every resume test).
        todo = [k for k in range(num_buckets) if not m.bucket_done(k)]
        seg_mem: rd.Dataset | None = None
        if len(todo) == num_buckets:
            # FRESH build, either side of the materialize gate: ONE groupby
            # across all buckets — the shuffle parallelizes over every
            # (tbucket, salt) group at once, where per-bucket pipelines
            # (the resume path below) fragment it into num_buckets separate
            # shuffles that contend for the node (measured on the 5.3M-page
            # XL leg: 8 concurrent bucket pipelines each ~1.9x slower than
            # one bucket alone — same total, no win).
            t0 = time.perf_counter()
            if os.path.exists(segments_dir):
                shutil.rmtree(segments_dir)  # incomplete previous attempt
            seg = build_bucket_segment(
                postings_all, n_docs=n_docs, avgdl=m.avgdl, num_salts=num_salts,
                block_size=block_size,
            )
            # Term order is PER BLOCK (one vectorized sort_by per
            # merge-output block, no shuffle): the searcher's pruning is
            # parquet row-group statistics within each file, and a written
            # file never spans blocks, so a global term sort — a second
            # all-to-all over every posting right after the merge shuffle —
            # buys nothing it doesn't.
            sorted_seg = seg.map_batches(
                _sort_block_by_term, batch_format="pyarrow", batch_size=None
            )
            if materialize:
                # materialize the segments in the object store: the parquet
                # write (pure disk) runs on a side thread while the checksum
                # pass — and stage D below — consume the SAME blocks from
                # memory instead of re-reading the files just written
                seg_mem = sorted_seg.materialize()
                write_err: list[BaseException] = []

                writer = start_side(
                    lambda: seg_mem.write_parquet(segments_dir, **SEGMENT_WRITE),
                    write_err,
                )
                sums = _segment_checksums(seg_mem)
                writer.join()
                if write_err:
                    raise write_err[0]
            else:
                # > gate: stream the partitioned write (segments are
                # ~2 B/posting — corpus-proportional, never pinned whole in
                # the object store); the checksum pass runs off the files
                sorted_seg.write_parquet(segments_dir, **SEGMENT_WRITE)
                os.makedirs(segments_dir, exist_ok=True)  # empty-corpus edge
                has_files = any(
                    f.endswith(".parquet")
                    for d in os.scandir(segments_dir) if d.is_dir()
                    for f in os.listdir(d.path)
                )
                sums = (
                    _segment_checksums(rd.read_parquet(segments_dir))
                    if has_files
                    else {}
                )
            stage_ms = round((time.perf_counter() - t0) * 1000, 1)
            for k in range(num_buckets):
                part_dir = os.path.join(segments_dir, f"bucket={k}")
                checksum, rows, n_postings = sums.get(k, (0, 0, 0))
                m.mark_bucket(
                    BucketEntry(
                        k, part_dir, rows, int(n_postings), str(checksum), stage_ms
                    )
                )
            save_manifest(out_dir, m)
        elif todo:
            # partial rebuild reads per-bucket postings from DISK: if this
            # run re-tokenized (crash between bucket marks and the postings
            # mark), the side write must land first
            if post_writer is not None:
                post_writer.join()
                if post_err:
                    raise post_err[0]
                m.mark_stage("postings", wall_s=round(tokenize_wall, 3))
                save_manifest(out_dir, m)
                post_writer = None
            manifest_lock = threading.Lock()

            def _build_bucket(k: int) -> None:
                t0 = time.perf_counter()
                bucket_dirs = [
                    d for d in (os.path.join(g, f"bucket={k}") for g in gen_dirs)
                    if os.path.exists(d)
                ]
                part_dir = os.path.join(segments_dir, f"bucket={k}")
                if os.path.exists(part_dir):
                    shutil.rmtree(part_dir)  # incomplete previous attempt
                if not bucket_dirs:
                    entry = BucketEntry(k, part_dir, 0, 0, "0", 0.0)
                else:
                    seg = build_bucket_segment(
                        _read_generations(bucket_dirs),
                        n_docs=n_docs, avgdl=m.avgdl, num_salts=num_salts,
                        block_size=block_size, bucket=k,
                    )
                    # per-BLOCK term sort, same as the fresh-build route: a
                    # bucket-global sort("term") is a second all-to-all over
                    # every posting right after the merge shuffle, and the
                    # searcher's pruning is parquet row-group statistics
                    # within each file — block order suffices
                    seg.map_batches(
                        _sort_block_by_term, batch_format="pyarrow",
                        batch_size=None,
                    ).write_parquet(segments_dir, **SEGMENT_WRITE)
                    # a leaf-dir read may or may not hive-infer the bucket
                    # column from the path; either way there's exactly one
                    # bucket here, so merge whatever keys came back
                    sums = _segment_checksums(rd.read_parquet(part_dir)).values()
                    checksum = sum(v[0] for v in sums) % (1 << 128)
                    rows = sum(v[1] for v in sums)
                    n_postings = sum(v[2] for v in sums)
                    entry = BucketEntry(
                        bucket=k,
                        path=part_dir,
                        rows=rows,
                        n_postings=int(n_postings),
                        checksum=str(checksum),
                        build_ms=round((time.perf_counter() - t0) * 1000, 1),
                    )
                with manifest_lock:
                    m.mark_bucket(entry)
                    save_manifest(out_dir, m)

            # one bucket pipeline (read -> coarse groupby -> encode ->
            # write) cannot feed a big node alone; ncpu/4 concurrent
            # buckets keep it busy (measured: 4 fixed left 42% idle at
            # 32 CPUs on the 5.3M-page XL leg — stage C was 2 waves of
            # 4 buckets instead of one wave of 8)
            ncpu = int(ray.cluster_resources().get("CPU", 8))
            workers = min(max(4, ncpu // 4), len(todo))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for fut in [pool.submit(_build_bucket, k) for k in todo]:
                    fut.result()

        # postings checkpoint write (side thread) must land before the stage
        # is marked done; by now the segment shuffle has long overlapped it
        if post_writer is not None:
            post_writer.join()
            if post_err:
                raise post_err[0]
            m.mark_stage("postings", wall_s=round(tokenize_wall, 3))
            save_manifest(out_dir, m)

        # fresh builds reuse the materialized segments for the integer-exact
        # df projection (identical from any block structure); the canonical
        # docstats fallback reads the persisted files — its float partial
        # sums depend on block boundaries, and the parquet layout is the
        # canonical structure both fresh and resumed builds must agree on
        # (rebuild determinism; see corpus_sorted in the signature)
        os.makedirs(segments_dir, exist_ok=True)  # empty-corpus edge
        segments_all = seg_mem if seg_mem is not None else rd.read_parquet(segments_dir)
        n_cpu = int(ray.cluster_resources().get("CPU", 8))

        # -- stage D: df + exact norms ----------------------------------------
        if not m.stage_done("df"):
            t0 = time.perf_counter()
            path = os.path.join(stats_dir, "df.parquet")
            if os.path.exists(path):
                shutil.rmtree(path)
            df_dataset(segments_all).write_parquet(path)
            m.mark_stage("df", wall_s=round(time.perf_counter() - t0, 3))
            save_manifest(out_dir, m)

        if not m.stage_done("docstats"):
            if docstats_thread is not None:
                # overlapped route: the side thread has been decoding runs
                # since before stage C; by now it is done or nearly so
                docstats_thread.join()
                if docstats_err:
                    raise docstats_err[0]
                m.mark_stage(
                    "docstats",
                    wall_s=round(time.perf_counter() - t_docstats0, 3),
                    overlapped=True,
                )
                save_manifest(out_dir, m)
            else:
                # sequential route (resume from files, or vocabulary above
                # the broadcast gate): decode RUN files when present, else
                # fall back to the segments decode
                t0 = time.perf_counter()
                if os.path.exists(stats_path):
                    shutil.rmtree(stats_path)
                runs_src = None
                if use_runs and all(os.path.isdir(d) for d in gen_dirs):
                    runs_src = _read_generations(
                        gen_dirs,
                        columns=["term", "first_doc", "last_doc_max", "df",
                                 "blob", "offset"],
                        override_num_blocks=max(1, 4 * n_cpu),
                    )
                stats_ds = None
                if (
                    runs_src is not None
                    and df_tbl is not None
                    and df_tbl.num_rows <= VOCAB_BROADCAST_LIMIT
                ):
                    stats_ds = docstats_from_runs(runs_src, n_docs, df_tbl)
                if stats_ds is None:
                    # canonical segments decode. The segment layout is many
                    # SMALL files: Ray's default read bundles them toward
                    # its ~128 MB block target, leaving a handful of fused
                    # read->decode tasks no matter how many CPUs the
                    # cluster has. 8 read blocks per CPU (row-group
                    # granularity): decode stragglers shrink and the
                    # groupby overlaps them (1.2M-page index at 16 CPUs:
                    # 19.7 s at 16 blocks -> 11.4 s at 128).
                    segments_disk = rd.read_parquet(
                        segments_dir, override_num_blocks=max(1, 8 * n_cpu)
                    )
                    stats_ds = docstats_dataset(segments_disk, n_docs)
                stats_ds.sort("doc_id").write_parquet(stats_path, **DOCSTATS_WRITE)
                m.mark_stage("docstats", wall_s=round(time.perf_counter() - t0, 3))
                save_manifest(out_dir, m)

        # compression metrics: delta+varbyte blob bytes vs the reference's
        # fixed 8-byte (doc_id:I, tf:I) postings (InvertedIndexFinal.py:231)
        total_postings = sum(int(v["n_postings"]) for v in m.buckets.values())
        blob_bytes = 0
        for dirpath, _, files in os.walk(segments_dir):
            for f in files:
                if f.endswith(".parquet"):
                    blob_bytes += os.path.getsize(os.path.join(dirpath, f))
        m.mark_stage(
            "compression",
            segment_bytes=blob_bytes,
            fixed_width_bytes=total_postings * 8,
            bytes_per_posting=round(blob_bytes / max(1, total_postings), 3),
            ratio_vs_fixed8=round((total_postings * 8) / max(1, blob_bytes), 2),
        )
        m.mark_stage("done")
        save_manifest(out_dir, m)
        return m
    finally:
        for t in side:
            t.join()
