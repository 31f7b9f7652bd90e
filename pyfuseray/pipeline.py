"""High-level pipelines: pages/documents -> corpus -> index -> search.

This is the engine's equivalent of the reference's
``DataLoader.loadData`` + ``build_index`` + ``merge_blocks`` lifecycle
(reference ``app/DataLoader.py:34-75``), re-expressed as streaming Ray
Data stages, plus search entry points.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyfuseray.build import build_index
from pyfuseray.checkpoint import Manifest
from pyfuseray.docids import assign_doc_ids, dedup_keep_first
from pyfuseray.extract import extract_batch
from pyfuseray.query import IndexSearcher, read_footers


def pages_to_corpus(pages: rd.Dataset, *, dedup: bool = True) -> rd.Dataset:
    """pages(url, warc_ts, html, text, lang) -> corpus(doc_id, url, text).

    extract (drops html immediately) -> exact dedup keep-first by url ->
    doc_id = rank of url in sorted order.
    """
    extracted = pages.map_batches(extract_batch, batch_format="pyarrow")
    if dedup:
        extracted = dedup_keep_first(extracted, key="url", order_col="warc_ts")
    with_ids = assign_doc_ids(extracted)
    return with_ids.select_columns(["doc_id", "url", "text"])


def documents_to_corpus(documents: rd.Dataset) -> rd.Dataset:
    """Driver testdata documents(doc_id, text, ...) -> corpus(doc_id, text)."""
    return documents.select_columns(["doc_id", "text"])


def _flat_files(path: str | list[str]) -> list[str]:
    """Expand a file / directory / list into a sorted file list (sorted
    order makes the file rank — and hence keep-first — deterministic)."""
    import os

    if isinstance(path, (list, tuple)):
        out: list[str] = []
        for p in path:
            out.extend(_flat_files(p))
        return sorted(out)
    if os.path.isdir(path):
        return sorted(
            os.path.join(path, f)
            for f in os.listdir(path)
            if not f.startswith(".")
        )
    return [path]


# _pos = file_rank << 40 | row_offset: a total file order over every row
# of a flat source. 2^40 rows/file and 2^23 files fit int64.
_POS_FILE_SHIFT = 40


def _read_csv_with_pos(path: str | list[str]) -> rd.Dataset:
    """CSV reader that stamps each row with its true file position
    (``_pos``) so keep-first dedup means FILE-ORDER first — the
    reference's ``drop_duplicates(keep='first')`` semantics (reference
    ``app/DataLoader.py:40``) — deterministically under any read
    parallelism. One task per file (Ray parallelizes flat-file reads
    per file anyway); within a task ``pyarrow.csv.open_csv`` STREAMS
    record batches, so memory is bounded by the arrow block size, not
    the file."""
    files = _flat_files(path)
    items = [{"path": p, "rank": i} for i, p in enumerate(files)]

    def parse(batch: pa.Table):
        from pyarrow import csv as pacsv

        for p, rank in zip(
            batch.column("path").to_pylist(), batch.column("rank").to_pylist()
        ):
            off = 0
            with pacsv.open_csv(p) as reader:
                for rb in reader:
                    t = pa.Table.from_batches([rb])
                    pos = pa.array(
                        (rank << _POS_FILE_SHIFT)
                        + np.arange(off, off + t.num_rows, dtype=np.int64)
                    )
                    off += t.num_rows
                    yield t.append_column("_pos", pos)

    return rd.from_items(items, override_num_blocks=len(items)).map_batches(
        parse, batch_format="pyarrow"
    )


def _read_jsonl_with_pos(path: str | list[str], *, chunk_rows: int = 65536) -> rd.Dataset:
    """JSON-lines reader with the same ``_pos`` contract as
    ``_read_csv_with_pos``: per-file tasks, each file parsed in bounded
    line chunks (``pyarrow.json.read_json`` over an in-memory slice), so
    a multi-GiB shard never materializes as one table."""
    files = _flat_files(path)
    items = [{"path": p, "rank": i} for i, p in enumerate(files)]

    def parse(batch: pa.Table):
        import io

        from pyarrow import json as pajson

        for p, rank in zip(
            batch.column("path").to_pylist(), batch.column("rank").to_pylist()
        ):
            off = 0
            with open(p, "rb") as fh:
                while True:
                    lines = list(_take_lines(fh, chunk_rows))
                    if not lines:
                        break
                    t = pajson.read_json(io.BytesIO(b"".join(lines)))
                    pos = pa.array(
                        (rank << _POS_FILE_SHIFT)
                        + np.arange(off, off + t.num_rows, dtype=np.int64)
                    )
                    off += t.num_rows
                    yield t.append_column("_pos", pos)

    return rd.from_items(items, override_num_blocks=len(items)).map_batches(
        parse, batch_format="pyarrow"
    )


def _take_lines(fh, n: int):
    for _ in range(n):
        line = fh.readline()
        if not line:
            return
        if line.strip():
            yield line


def _flat_source_to_corpus(
    ds: rd.Dataset,
    *,
    text_columns: list[str],
    id_column: str | None,
    dedup_column: str | None,
) -> rd.Dataset:
    """Shared post-read ingest for flat sources (CSV/JSONL): concat the
    text fields -> optional exact keep-first dedup -> (doc_id, text).

    Dedup rides ``docids.dedup_keep_first`` — the skew-aware two-pass
    plan (native count -> broadcast dup set -> per-group resolution on
    only the dup rows) — never a ``groupby(raw_key).map_groups`` whose
    group count scales with corpus cardinality. The order column is the
    reader-stamped ``_pos`` (true file position), so the survivor per
    key is the FILE-ORDER-first row — the reference's
    ``drop_duplicates(keep='first')`` — and the result is a pure
    function of the input files under any read parallelism.

    Without ``id_column``, doc_id = rank of the dedup/first text column
    in sorted order (positional ids don't survive parallel reads)."""
    from pyfuseray.extract import concat_text_columns

    ds = ds.map_batches(
        lambda t: concat_text_columns(t, text_columns), batch_format="pyarrow"
    )
    if dedup_column is not None:
        ds = dedup_keep_first(ds, key=dedup_column, order_col="_pos")
    if id_column is not None:
        def use_id(batch):
            ids = batch.column(id_column).cast("int64")
            return (
                batch.append_column("doc_id", ids)
                if "doc_id" not in batch.column_names else batch
            )

        return ds.map_batches(use_id, batch_format="pyarrow").select_columns(
            ["doc_id", "text"]
        )
    # rank-by-sort ids over the key column (or the text itself)
    key = dedup_column or text_columns[0]

    def rename_key(batch):
        return batch.append_column("url", batch.column(key).cast("string"))

    # project to (url, text) BEFORE assign_doc_ids: a source column
    # literally named "id" would collide with the zip-generated rank
    # column inside assign_doc_ids and hijack doc_id
    keyed = ds.map_batches(rename_key, batch_format="pyarrow").select_columns(
        ["url", "text"]
    )
    return assign_doc_ids(keyed).select_columns(["doc_id", "text"])


def csv_to_corpus(
    path: str,
    *,
    text_columns: list[str],
    id_column: str | None = None,
    dedup_column: str | None = None,
) -> rd.Dataset:
    """The reference's CSV ingest (reference ``app/DataLoader.py:34-49``):
    read CSV -> optional exact dedup keep-first by key -> concatenate the
    text fields with ' ' -> (doc_id, text). See
    ``_flat_source_to_corpus`` for the shared pipeline semantics."""
    return _flat_source_to_corpus(
        _read_csv_with_pos(path),
        text_columns=text_columns,
        id_column=id_column,
        dedup_column=dedup_column,
    )


def jsonl_to_corpus(
    path: str,
    *,
    text_columns: list[str],
    id_column: str | None = None,
    dedup_column: str | None = None,
) -> rd.Dataset:
    """JSON-lines ingest with the same semantics as ``csv_to_corpus``
    (the reference's loadData shape over a different wire format): the
    ``_pos``-stamping chunked reader streams the shards, then the
    identical shared concat -> dedup -> doc_id pipeline runs (routes
    pinned identical by tests/test_sources.py)."""
    return _flat_source_to_corpus(
        _read_jsonl_with_pos(path),
        text_columns=text_columns,
        id_column=id_column,
        dedup_column=dedup_column,
    )


# above this doc count build_from_pages stops pinning the materialized
# corpus in the (spill-backed) object store for the whole build: the
# corpus parquet is written FIRST (streaming) and the build re-reads it
# from files — holding corpus-sized object-store state while ALSO
# writing it to parquet doubles disk traffic at the 100x scale, and the
# resume path already is the read-from-files code. Sized for a single
# 128 GiB node's object store (~38 GiB default): 5M docs x ~2 KiB text
# ≈ 10 GiB resident, ~25% of it — measured on this host the write-first
# route is ~3x slower per doc (disk round-trips), so the gate should
# only trip when residency genuinely threatens the store. On a
# multi-node cluster the object store is aggregate; this per-driver
# constant stays conservative.
MATERIALIZE_DOC_LIMIT = 5_000_000

# parquet layout of every corpus file (the four corpus writers below):
# SQL row materialization reads only the row groups whose footer doc_id
# range holds a hit, so groups must be small (64 rows: a ten-hit query
# reads about ten groups, not half the corpus), and ``text`` gets no
# min/max statistics (two whole page texts per row group in the footer
# and page headers, never used for pruning). LZ4, not pyarrow's default
# snappy: decoding the ~100 KB ``text`` chunk of each group a hit names
# is most of a SQL materialize, and reading one costs about half the CPU
# with LZ4 (0.12 vs 0.24 ms per group on the benchmark's 4,000-page
# corpus, 4-vCPU x86 VM) for a corpus ~7% larger. Ray's write_parquet
# passes all three keys through to pyarrow; a listed column the file
# lacks is ignored (append files carry no warc_ts).
CORPUS_WRITE = {
    "row_group_size": 64,
    "write_statistics": ["doc_id", "url", "warc_ts"],
    "compression": "lz4",
}


def _atomic_json(path: str, obj) -> None:
    import json
    import os

    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


def _ingest_signature(files: list[str]) -> list[list]:
    import os

    return [[os.path.basename(f), os.path.getsize(f)] for f in files]


def _resumable_write_first(
    files: list[str],
    plan,
    corpus_dir: str,
    final: str,
    out_dir: str,
    *,
    n_groups: int | None = None,
    read_blocks: int,
    concurrency: int | None = None,
    **build_kwargs,
):
    """Write-first ingest with PER-FILE-GROUP resume (the curate-sink
    manifest pattern applied to the corpus checkpoint — VERDICT r3 #9:
    the all-or-nothing checkpoint redid the whole extract on a crash).

    Stage A (resumable per group): each file group independently replays
    the broadcast IngestPlan (filter losers -> doc_id) -> extract (drops
    html) -> parquet under ``pre/group=K`` (tmp-dir + atomic rename),
    recorded in ``ingest_manifest.json`` keyed by a (basename, size)
    signature of the input — a resumed run skips finished groups, and a
    CHANGED input set invalidates the manifest and starts over. warc_ts-
    TIED duplicate urls are resolved once globally as their own group
    (per-group resolution would keep one survivor per group).

    Stage B: per-range parallel assembly. Stage A hive-partitions each
    group's rows by coarse doc-id range (``range_bucket = doc_id * R //
    n_docs``), so assembling the final sorted corpus needs NO
    corpus-wide shuffle: each of the R ranges independently reads its
    slice from every group, sorts ~n_docs/R rows in memory, and writes
    ONE zero-padded file — lexicographic file order == global doc
    order. The stage is embarrassingly parallel (it replaced a global
    ``sort("doc_id")`` rewrite whose sample/exchange barriers capped
    the XL route's 4->16 CPU efficiency at 0.773). A crash here redoes
    only the assembly, never the extract; the final dir lands via
    atomic rename as before.

    ``concurrency`` group pipelines run at once (driver threads, the
    corpus-write overlap pattern): one group reads only a couple of
    files, so a lone pipeline can't feed a big node — measured 54% idle
    at 32 CPUs sequential. Completion order (and hence manifest order)
    is nondeterministic; the OUTPUT is not — stage B's global sort
    erases it. concurrency=1 restores the deterministic order the
    kill-and-resume test pins.

    Disk cost: the corpus is written twice (pre + final). That is the
    resume-granularity trade; pre/ is deleted once final lands.
    """
    import json
    import math
    import os
    import shutil
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from pyfuseray.build import _pin_fsspec_http_stub, build_index
    from pyfuseray.docids import apply_ingest_plan, resolve_ambiguous_rows

    pre = os.path.join(corpus_dir, "pre")
    man_path = os.path.join(corpus_dir, "ingest_manifest.json")
    if n_groups is None:
        # resume granularity vs per-group pipeline startup + read
        # parallelism (Ray reads parquet per FILE: a 1-file group's
        # decode is one task no matter the CPU count)
        n_groups = min(len(files), 16)
    n_groups = max(1, min(n_groups, len(files)))
    import ray as _ray

    ncpu_total = (
        int(_ray.cluster_resources().get("CPU", 8))
        if _ray.is_initialized()
        else 8
    )
    # stage-B range count: >= 2 assembly tasks per CPU (the final corpus
    # is read per FILE by the build), each range small enough that its
    # in-memory sort is a few hundred MB at web-page row sizes
    n_ranges = max(2 * ncpu_total, min(4096, plan.n_docs // 65536 + 1))
    sig = {"files": _ingest_signature(files), "n_groups": n_groups,
           "n_docs": plan.n_docs, "n_ranges": n_ranges}
    manifest = None
    if os.path.exists(man_path):
        try:
            with open(man_path) as fh:
                manifest = json.load(fh)
        except (json.JSONDecodeError, OSError):
            manifest = None
        old = (manifest or {}).get("sig") or {}
        if all(old.get(k) == sig[k] for k in ("files", "n_groups", "n_docs")):
            # same input: keep the recorded range count (the finished
            # groups' range_bucket partitions use it), whatever the
            # CPU count of this cluster
            n_ranges = sig["n_ranges"] = old.get("n_ranges", n_ranges)
        else:
            manifest = None  # input changed: restart cleanly
    if manifest is None:
        if os.path.exists(pre):
            shutil.rmtree(pre)
        manifest = {"sig": sig, "done": []}
    os.makedirs(pre, exist_ok=True)
    done = set(manifest["done"])
    per = math.ceil(len(files) / n_groups)
    groups = [files[i * per : (i + 1) * per] for i in range(n_groups)]
    groups = [g for g in groups if g]
    todo = [(k, g) for k, g in enumerate(groups) if k not in done]
    if plan.n_amb and "amb" not in done:
        todo.append(("amb", files))
    man_lock = threading.Lock()

    def run_group(item):
        k, group_files = item
        if k == "amb":
            src = rd.read_parquet(files, override_num_blocks=read_blocks)
            out = resolve_ambiguous_rows(src, plan)
        else:
            src = rd.read_parquet(
                group_files,
                override_num_blocks=max(len(group_files), read_blocks),
            )
            out = apply_ingest_plan(src, plan, include_ambiguous=False)
        out = out.map_batches(extract_batch, batch_format="pyarrow")
        out = out.select_columns(["doc_id", "url", "text"])

        def add_range(batch: pa.Table) -> pa.Table:
            d = batch.column("doc_id").to_numpy(zero_copy_only=False)
            rb = np.minimum(
                d * n_ranges // max(1, plan.n_docs), n_ranges - 1
            )
            return batch.append_column(
                "range_bucket", pa.array(rb, pa.int64())
            )

        out = out.map_batches(add_range, batch_format="pyarrow")
        # co-locate each range into ONE block before the hive write: a
        # partitioned write emits one file per (task, partition value),
        # so without this a 64-block group pipeline x ~81 ranges writes
        # ~5k splinter files per group. The groupby is a GROUP-sized
        # shuffle (1/n_groups of the corpus) that overlaps other groups'
        # CPU-bound extract; the old stage B shuffled the same bytes in
        # one global barrier instead.
        out = out.groupby("range_bucket").map_groups(
            lambda t: t, batch_format="pyarrow"
        )
        gdir = os.path.join(pre, f"group={k}")
        gtmp = gdir + ".writing"
        for stale in (gtmp, gdir):
            # gdir may exist without a manifest record (crash between
            # the rename and the manifest write): redo it
            if os.path.exists(stale):
                shutil.rmtree(stale)
        out.write_parquet(gtmp, partition_cols=["range_bucket"])
        os.replace(gtmp, gdir)
        with man_lock:
            manifest["done"].append(k)
            _atomic_json(man_path, manifest)

    if concurrency is None:
        import ray

        ncpu = (
            int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized()
            else 8
        )
        # one group pipeline reads only a couple of files; ncpu/4
        # concurrent pipelines keep a big node fed (measured: 4-way at
        # 32 CPUs still left 40% idle)
        concurrency = max(2, ncpu // 4)
    concurrency = max(1, min(concurrency, len(todo) or 1))
    if todo:
        if concurrency == 1:
            for item in todo:
                run_group(item)
        else:
            # concurrent driver threads each running a Ray Data
            # pipeline: pin the fsspec http stub BEFORE the pool starts
            # (failed-import eviction race, see _pin_fsspec_http_stub)
            _pin_fsspec_http_stub()
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                for _ in pool.map(run_group, todo):
                    pass
    # stage B: per-range parallel assembly (no corpus-wide shuffle; see
    # docstring). Every group wrote range_bucket=r hive subdirs; range
    # r's slice across groups is disjoint in doc_id from every other
    # range, so sorting each range independently and naming files in
    # zero-padded range order yields the globally sorted corpus.
    range_files: dict[int, list[str]] = {}
    for d in os.listdir(pre):
        if not d.startswith("group=") or d.endswith(".writing"):
            continue
        gdir = os.path.join(pre, d)
        for rb in os.listdir(gdir):
            if not rb.startswith("range_bucket="):
                continue
            r = int(rb.split("=", 1)[1])
            rdir = os.path.join(gdir, rb)
            range_files.setdefault(r, []).extend(
                os.path.join(rdir, f)
                for f in sorted(os.listdir(rdir))
                if f.endswith(".parquet")
            )
    tmp_final = final + ".writing"
    if os.path.exists(tmp_final):
        shutil.rmtree(tmp_final)
    os.makedirs(tmp_final)
    items = [
        {"r": r, "files": sorted(fs)} for r, fs in sorted(range_files.items())
    ]

    def assemble_ranges(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        rs, rows = [], []
        for r, fl in zip(
            batch.column("r").to_pylist(), batch.column("files").to_pylist()
        ):
            t = pa.concat_tables([pq.read_table(f) for f in fl])
            t = t.sort_by("doc_id")
            pq.write_table(
                t, os.path.join(tmp_final, f"part-{int(r):08d}.parquet"),
                **CORPUS_WRITE,
            )
            rs.append(int(r))
            rows.append(t.num_rows)
        return pa.table(
            {"r": pa.array(rs, pa.int64()), "rows": pa.array(rows, pa.int64())}
        )

    if items:
        rd.from_items(items, override_num_blocks=len(items)).map_batches(
            assemble_ranges, batch_format="pyarrow"
        ).materialize()
    os.replace(tmp_final, final)
    shutil.rmtree(pre)
    os.remove(man_path)
    corpus = rd.read_parquet(final, columns=["doc_id", "text"])
    return build_index(corpus, out_dir, n_docs=plan.n_docs,
                       corpus_sorted=True, **build_kwargs)


def build_from_pages(
    pages: rd.Dataset | str,
    out_dir: str,
    *,
    corpus_dir: str | None = None,
    materialize_threshold: int = MATERIALIZE_DOC_LIMIT,
    ingest_groups: int | None = None,
    ingest_concurrency: int | None = None,
    **build_kwargs,
) -> Manifest:
    """Full ingest + index build from a pages Dataset or parquet path.

    Passing the PATH (str) lets the planning pass read only
    (url, warc_ts) with parquet column pruning — ``select_columns`` on
    an already-constructed Dataset does not push into the scan in Ray
    2.49, so the Dataset form decodes the html column twice (measured
    ~9 s extra on the 1.2M-page bench corpus).

    The ingest is staged so nothing recomputes: extract+dedup writes a
    parquet checkpoint, doc_id assignment reads it back (row count comes
    free from parquet metadata), and the final (doc_id, url, text)
    corpus is itself persisted before the index build re-reads it.
    Without ``corpus_dir`` the Dataset pipeline stays lazy (small-corpus
    and test path).

    Corpus persistence is size-gated: up to ``materialize_threshold``
    docs the sorted corpus is materialized once and the checkpoint write
    OVERLAPS the tokenize stage (fastest, holds corpus-sized object
    store state); above it the checkpoint is written first and the build
    streams from the files (the resume code path) so object-store
    residency stays bounded. Both routes produce identical indexes
    (pinned by ``tests/test_pages.py``).

    When the source is a PATH on the broadcast-plan route, the
    write-first checkpoint is additionally resumable PER FILE GROUP
    (``_resumable_write_first``): a crash mid-ingest redoes only the
    unfinished groups plus the final sort, never the whole extract.
    ``ingest_groups`` forces that route with an explicit group count
    (tests); by default it engages above ``materialize_threshold``.
    """
    narrow = None
    src_path = pages if isinstance(pages, str) else None
    if isinstance(pages, str):
        # Ray parallelizes parquet reads per FILE, and its default block
        # sizing either leaves one task per giant file or shatters small
        # shards into hundreds of ~4 MB blocks whose dispatch overhead
        # dominates (measured: 190-block ingest is dispatch-bound, flat
        # 12 s at 8 AND 32 CPUs; 2 blocks/CPU reads in ~1 s). Pin the
        # fan-out to the cluster: enough tasks to use every CPU, few
        # enough that per-task work dwarfs scheduling.
        import ray

        ncpu = (
            int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized()
            else 8
        )
        nb = max(16, 2 * ncpu)
        src_read_blocks = nb
        narrow = rd.read_parquet(
            pages, columns=["url", "warc_ts"], override_num_blocks=nb
        )
        pages = rd.read_parquet(pages, override_num_blocks=nb)
    if corpus_dir is None:
        corpus = pages_to_corpus(pages)
        return build_index(corpus.select_columns(["doc_id", "text"]), out_dir, **build_kwargs)

    import os
    import shutil


    if build_kwargs.get("overwrite") and os.path.exists(corpus_dir):
        shutil.rmtree(corpus_dir)
    final = os.path.join(corpus_dir, "corpus")
    if not os.path.isdir(final) or not any(os.scandir(final)):
        # One narrow (url, warc_ts) pass plans dedup + the doc_id rank
        # map; the heavy columns make exactly ONE pass: filter losers ->
        # doc_id = searchsorted -> extract (drops html) -> doc_id sort.
        from pyfuseray.docids import (
            BROADCAST_URL_LIMIT,
            apply_ingest_plan,
            ingest_pages,
            plan_ingest_broadcast,
        )

        plan = None
        if src_path is not None and narrow.count() <= BROADCAST_URL_LIMIT:
            plan = plan_ingest_broadcast(narrow)
            n_docs = plan.n_docs
            if ingest_groups is not None or n_docs > materialize_threshold:
                src_files = [
                    f for f in _flat_files(src_path) if f.endswith(".parquet")
                ] or _flat_files(src_path)
                return _resumable_write_first(
                    src_files, plan, corpus_dir, final, out_dir,
                    n_groups=ingest_groups,
                    read_blocks=src_read_blocks,
                    concurrency=ingest_concurrency,
                    **build_kwargs,
                )
            with_ids = apply_ingest_plan(pages, plan)
        else:
            with_ids, n_docs = ingest_pages(pages, narrow=narrow)
        extracted = with_ids.map_batches(extract_batch, batch_format="pyarrow")
        # int sort by doc_id: tokenizer batches then cover contiguous doc
        # ranges, so SPIMI runs stay doc-disjoint and the segment merge is
        # pure concatenation (never the decode-merge fallback)
        tmp_final = final + ".writing"
        if os.path.exists(tmp_final):
            shutil.rmtree(tmp_final)

        if n_docs > materialize_threshold:
            # write-first route: stream the sorted corpus straight to
            # parquet (never resident as a whole), then build from files
            extracted.sort("doc_id").write_parquet(tmp_final, **CORPUS_WRITE)
            os.replace(tmp_final, final)
            corpus = rd.read_parquet(final, columns=["doc_id", "text"])
            return build_index(corpus, out_dir, n_docs=n_docs,
                               corpus_sorted=True, **build_kwargs)

        corpus_mat = extracted.sort("doc_id").materialize()
        # the checkpoint write is pure disk work — overlap it with the
        # (CPU-bound) tokenize stage instead of serializing ahead of it.
        # The build consumes the materialized blocks straight from the
        # object store (spill-backed); a resumed run reads the parquet.
        import threading

        from pyfuseray.build import _pin_fsspec_http_stub

        # two driver threads run Ray Data pipelines concurrently: pin the
        # fsspec http stub BEFORE the thread starts (the failed-import
        # eviction race, see _pin_fsspec_http_stub)
        _pin_fsspec_http_stub()

        err: list[BaseException] = []

        def _write_corpus():
            try:
                corpus_mat.write_parquet(tmp_final, **CORPUS_WRITE)
                os.replace(tmp_final, final)
            except BaseException as e:  # surfaced after join
                err.append(e)

        writer = threading.Thread(target=_write_corpus, daemon=True)
        writer.start()
        try:
            manifest = build_index(
                corpus_mat.select_columns(["doc_id", "text"]), out_dir,
                n_docs=n_docs, corpus_sorted=True, **build_kwargs,
            )
        finally:
            writer.join()
        if err:
            raise err[0]
        return manifest
    corpus = rd.read_parquet(final, columns=["doc_id", "text"])
    return build_index(corpus, out_dir, corpus_sorted=True, **build_kwargs)


def append_pages(
    index_dir: str,
    new_pages: rd.Dataset | str,
    *,
    corpus_dir: str,
    mode: str = "tiered",
    max_generations: int = 4,
    tokenizer_batch_size: int = 4096,
):
    """Append a NEW pages directory to a pages-built index without
    re-planning or re-reading the old corpus (the reference rebuilds
    from scratch on any corpus change, ``app/DataLoader.py:77-89``).

    Semantics: the new pages are deduped among themselves exactly like
    ``build_from_pages`` (url keep-first by warc_ts, broadcast plan),
    then urls ALREADY in the indexed corpus are dropped — keep-EXISTING
    (a re-crawled url keeps its original text until a full rebuild).
    Survivors get doc_ids ``indexed_max + 1 + rank-of-url`` (ranks may
    have url-collision holes; dense ranks are not required above the
    indexed max), their (doc_id, url, text) rows land in
    ``corpus_dir/append_gK`` — K = the postings generation they feed —
    and the index grows via ``incremental.add_documents`` (tiered by
    default: the merge touches only the new docs' runs).

    The only corpus-proportional cost is the url anti-join (one narrow
    column read of corpus + prior appends through a coarse-bucket
    shuffle) — the heavy text/html columns of the OLD corpus are never
    touched. Idempotent: the append dir is written (atomic rename)
    BEFORE the index add, keyed by generation number, so a crashed run
    resumes by re-reading it, and a completed append re-run drops every
    url at the anti-join and adds nothing.
    """
    import os
    import shutil

    from pyfuseray.checkpoint import load_manifest
    from pyfuseray.docids import apply_ingest_plan, plan_ingest_broadcast
    from pyfuseray.extras.joins import anti_join
    from pyfuseray.incremental import _generations, add_documents

    m = load_manifest(index_dir)
    if m is None or not m.stage_done("done"):
        raise FileNotFoundError(
            f"no complete index manifest in {index_dir} (run finish_add "
            "first if an add was interrupted)"
        )
    k = len(_generations(m))
    append_dir = os.path.join(corpus_dir, f"append_g{k}")
    final = os.path.join(corpus_dir, "corpus")
    have_rows = os.path.isdir(append_dir) and any(
        f.endswith(".parquet") for f in os.listdir(append_dir)
    )
    if not have_rows:
        # (an empty append dir — a prior run that found nothing new —
        # does NOT short-circuit: re-plan against the current input)
        if os.path.isdir(append_dir):
            shutil.rmtree(append_dir)
        import ray

        ncpu = (
            int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized()
            else 8
        )
        nb = max(16, 2 * ncpu)
        if isinstance(new_pages, str):
            narrow = rd.read_parquet(
                new_pages, columns=["url", "warc_ts"], override_num_blocks=nb
            )
            pages = rd.read_parquet(new_pages, override_num_blocks=nb)
        else:
            pages = new_pages
            narrow = pages.select_columns(["url", "warc_ts"])
        plan = plan_ingest_broadcast(narrow)
        with_ids = apply_ingest_plan(pages, plan)
        extracted = with_ids.map_batches(
            extract_batch, batch_format="pyarrow"
        ).select_columns(["doc_id", "url", "text"])
        url_dirs = [final] + sorted(
            os.path.join(corpus_dir, d)
            for d in os.listdir(corpus_dir)
            if d.startswith("append_g") and not d.endswith(".writing")
        )
        url_files = [
            os.path.join(d, f)
            for d in url_dirs
            if os.path.isdir(d)
            for f in sorted(os.listdir(d))
            if f.endswith(".parquet")
        ]
        existing = rd.read_parquet(url_files, columns=["url"])
        fresh = anti_join(extracted, existing, left_on="url")
        # one above every corpus doc_id (footer statistics, kept by
        # CORPUS_WRITE): docstats has no row for a token-less doc
        base = 1 + max((r[1] for _, _, rs in read_footers(url_files, "doc_id")
                        for r in rs if r), default=-1)

        def shift_ids(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False) + base
            idx = batch.column_names.index("doc_id")
            return batch.set_column(idx, "doc_id", pa.array(ids, pa.int64()))

        tmp = append_dir + ".writing"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        # doc_id sort: tokenizer batches then cover disjoint ranges, so
        # the new generation's runs merge by pure concatenation
        fresh.map_batches(shift_ids, batch_format="pyarrow").sort(
            "doc_id"
        ).write_parquet(tmp, **CORPUS_WRITE)
        os.makedirs(tmp, exist_ok=True)  # empty-result edge
        os.replace(tmp, append_dir)
    if not any(f.endswith(".parquet") for f in os.listdir(append_dir)):
        return m  # nothing new under the sun
    new_corpus = rd.read_parquet(append_dir, columns=["doc_id", "text"])
    return add_documents(
        index_dir,
        new_corpus,
        mode=mode,
        max_generations=max_generations,
        tokenizer_batch_size=tokenizer_batch_size,
    )


def search(index_dir: str, query: str, top_k: int = 10, *, scoring: str = "tfidf",
           algorithm: str = "taat") -> list[tuple[int, float]]:
    s = IndexSearcher(index_dir)
    if scoring == "bm25":
        return s.search_bm25(query, top_k, algorithm=algorithm)
    return s.search_tfidf(query, top_k)
