"""Deterministic ingest: exact dedup + data-derived doc_id assignment.

The reference assigns doc_id = list position (reference
``app/InvertedIndexFinal.py:262``) and dedups on load with
``drop_duplicates(subset=['track_id'], keep='first')`` (reference
``app/DataLoader.py:40``). Positional ids do not survive parallel reads,
so (SURVEY.md §7.6.1):

- dedup keep-first is re-expressed as keep-MIN-(warc_ts, fingerprint)
  per url — a deterministic order column replaces "input order";
- doc_id = rank of url in global sorted order, computed with
  ``sort("url")`` + positional zip against ``ray.data.range(n)``
  (an exact, reproducible zip-with-index; at multi-node scale the same
  rank is computed by range-partitioned sort + per-partition offsets).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups


def _fingerprint(text: str) -> str:
    return hashlib.md5(text.encode("utf-8", errors="replace")).hexdigest()


def _utf8_fixed_width(col, width: int | None = None) -> np.ndarray:
    """Arrow string column -> fixed-width numpy byte array (``S{w}``)
    via pure buffer math: one cast to large_binary (the raw UTF-8
    bytes), one vectorized scatter into the padded matrix — no
    per-element Python encode/len calls (UTF-8 byte order ==
    code-point order, so sorts/searchsorted stay correct)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    arr = arr.cast(pa.large_binary())
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=f"S{width or 1}")
    off = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset : arr.offset + n + 1
    ]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    widths = np.diff(off)
    wmax = int(widths.max())
    w = int(width if width is not None else max(wmax, 1))
    if wmax > w:
        raise ValueError(f"element wider ({wmax}) than requested {w}")
    if wmax == w and int(widths.min()) == w:
        # constant-width fast path (common for synthetic/templated keys):
        # the raw byte run IS the matrix — zero-copy reshape+view
        return data[off[0] : off[-1]].reshape(n, w).view(f"S{w}").ravel()
    padded = np.zeros(n * w, dtype=np.uint8)
    total = int(off[-1] - off[0])
    # flat 1-D scatter (~70x faster than 2-D fancy indexing)
    idx_row = np.repeat(np.arange(n, dtype=np.int64), widths)
    idx_col = np.arange(total, dtype=np.int64) - np.repeat(off[:-1] - off[0], widths)
    padded[idx_row * w + idx_col] = data[off[0] : off[-1]]
    return padded.view(f"S{w}").ravel()


def dedup_keep_first(ds: rd.Dataset, key: str = "url", order_col: str = "warc_ts") -> rd.Dataset:
    """Exact dedup by ``key``: keep the row with the smallest
    ``(order_col, md5(text))`` — the deterministic analogue of
    pandas keep='first'.

    Skew-aware two-pass plan (avoids per-group Python over the ~100% of
    keys that are already unique):

    1. a NATIVE vectorized ``groupby(key).count()`` finds the (small)
       set of duplicated keys — in a crawl, a bounded fraction;
    2. rows with unique keys stream through untouched; only rows whose
       key is in the broadcast duplicate set go through the per-group
       min selection.

    Partitioning assumption: the duplicated-key set fits in the object
    store (ray.put broadcast). If it ever didn't, the fallback is the
    all-rows coarse-bucket groupby path (``_dedup_via_groups``).
    """
    import ray
    from ray.data.aggregate import Count

    import pyarrow.compute as pc

    counts = ds.groupby(key).aggregate(Count(alias_name="_n"))
    dups_only = counts.map_batches(
        lambda t: t.filter(pc.greater(t.column("_n"), 1)).select([key]),
        batch_format="pyarrow",
    )
    dup_tables = [
        # blocks can disagree on schema (empty sentinel blocks; string
        # vs large_string across read tasks): drop empties, normalize
        # the key type before the concat
        t.set_column(0, key, t.column(key).cast(pa.string()))
        for t in ray.get(dups_only.to_arrow_refs())
        if t.num_rows and key in t.column_names
    ]
    dup_keys = (
        np.sort(
            _utf8_fixed_width(pa.concat_tables(dup_tables).column(key))
        )
        if dup_tables and sum(t.num_rows for t in dup_tables)
        else np.empty(0, dtype="S1")
    )
    if not dup_keys.size:
        return ds
    dup_ref = ray.put(dup_keys)

    def split_uniques(batch: pa.Table) -> pa.Table:
        dups = ray.get(dup_ref)
        keys = _utf8_fixed_width(batch.column(key), width=None)
        w = max(dups.dtype.itemsize, keys.dtype.itemsize)
        mask = ~np.isin(keys.astype(f"S{w}"), dups.astype(f"S{w}"))
        return batch.filter(pa.array(mask))

    def split_dups(batch: pa.Table) -> pa.Table:
        dups = ray.get(dup_ref)
        keys = _utf8_fixed_width(batch.column(key), width=None)
        w = max(dups.dtype.itemsize, keys.dtype.itemsize)
        mask = np.isin(keys.astype(f"S{w}"), dups.astype(f"S{w}"))
        return batch.filter(pa.array(mask))

    uniques = ds.map_batches(split_uniques, batch_format="pyarrow")
    dup_rows = ds.map_batches(split_dups, batch_format="pyarrow")
    return uniques.union(_dedup_via_groups(dup_rows, key, order_col))


def dedup_pages_keep_first(
    pages: rd.Dataset, with_count: bool = False
) -> rd.Dataset | tuple[rd.Dataset, int]:
    """Exact keep-first dedup of raw pages by url, with all heavy columns
    untouched until the single final pass.

    Passes over the data:
    1. url column ONLY (parquet column pruning): native groupby-count
       finds the duplicated urls — tiny in a crawl;
    2. (url, warc_ts, text) of just the dup rows: winner key
       min(warc_ts, md5(text)) per url, built into a broadcast dict;
    3. ONE full pass filters losers out.

    Urls whose duplicate rows tie on the full winner key (identical
    warc_ts AND text — i.e. true byte-duplicates) are resolved by the
    per-group path so exactly one row survives.
    """
    import ray
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    counts = pages.select_columns(["url"]).groupby("url").aggregate(
        Count(alias_name="_n")
    )
    dups_only = counts.map_batches(
        lambda t: t.filter(pc.greater(t.column("_n"), 1)).select(["url", "_n"]),
        batch_format="pyarrow",
    )
    dup_tables = [t for t in ray.get(dups_only.to_arrow_refs()) if t.num_rows]
    if not dup_tables:
        n_after = pages.count() if with_count else None
        return (pages, n_after) if with_count else pages
    dup_tbl = pa.concat_tables(dup_tables)
    dup_keys = np.sort(_utf8_fixed_width(dup_tbl.column("url")))
    dup_ns = dup_tbl.column("_n").to_numpy(zero_copy_only=False)
    # rows surviving dedup, known WITHOUT executing the main pass: every
    # duplicated url keeps exactly one copy
    n_after = None
    if with_count:
        n_after = pages.count() - int((dup_ns - 1).sum())
    dup_ref = ray.put(dup_keys)
    url_w = dup_keys.dtype.itemsize

    def _batch_keys(batch: pa.Table, w: int) -> np.ndarray:
        keys = _utf8_fixed_width(batch.column("url"))
        w = max(w, keys.dtype.itemsize)
        return keys.astype(f"S{w}"), w

    def dup_meta(batch: pa.Table) -> pa.Table:
        dups = ray.get(dup_ref)
        keys, w = _batch_keys(batch, dups.dtype.itemsize)
        sub = batch.filter(pa.array(np.isin(keys, dups.astype(f"S{w}"))))
        return pa.table({"url": sub.column("url"), "warc_ts": sub.column("warc_ts")})

    # winner = min warc_ts per dup url; the meta pass reads only
    # (url, warc_ts) of the DUP rows — never the heavy text/html columns
    meta_tables = [
        t
        for t in ray.get(
            pages.select_columns(["url", "warc_ts"])
            .map_batches(dup_meta, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    meta_tbl = pa.concat_tables(meta_tables)
    m_urls = _utf8_fixed_width(meta_tbl.column("url"), width=url_w)
    m_ts = meta_tbl.column("warc_ts").to_numpy(zero_copy_only=False)
    order = np.lexsort((m_ts, m_urls))
    mu, mt = m_urls[order], m_ts[order]
    first = np.concatenate(([True], mu[1:] != mu[:-1]))
    starts = np.flatnonzero(first)
    win_urls = mu[starts]  # sorted
    win_ts = mt[starts]
    # urls whose group's SECOND row ties the winner ts fall back to the
    # per-group path (deterministic md5(text) tie-break)
    second = np.minimum(starts + 1, mu.size - 1)
    amb_urls = win_urls[(mt[second] == win_ts) & (second > starts)]
    win_ref = ray.put((win_urls, win_ts))
    amb_ref = ray.put(amb_urls)

    def keep_winners(batch: pa.Table) -> pa.Table:
        wu, wt = ray.get(win_ref)
        amb = ray.get(amb_ref)
        keys, w = _batch_keys(batch, wu.dtype.itemsize)
        ts = batch.column("warc_ts").to_numpy(zero_copy_only=False)
        mask = np.ones(keys.size, dtype=bool)
        if amb.size:
            mask &= ~np.isin(keys, amb.astype(f"S{w}"))
        wuc = wu.astype(f"S{w}")
        pos = np.minimum(np.searchsorted(wuc, keys), wuc.size - 1)
        is_dup = wuc[pos] == keys
        mask &= ~is_dup | (ts == wt[pos])
        return batch.filter(pa.array(mask))

    deduped = pages.map_batches(keep_winners, batch_format="pyarrow")
    if not amb_urls.size:
        return (deduped, n_after) if with_count else deduped

    def only_ambiguous(batch: pa.Table) -> pa.Table:
        amb = ray.get(amb_ref)
        keys, w = _batch_keys(batch, amb.dtype.itemsize)
        return batch.filter(pa.array(np.isin(keys, amb.astype(f"S{w}"))))

    resolved = _dedup_via_groups(
        pages.map_batches(only_ambiguous, batch_format="pyarrow"), "url", "warc_ts"
    )
    out = deduped.union(resolved)
    return (out, n_after) if with_count else out


# above this row count the sorted-url broadcast (8-64 B/url) stops being
# a sane object-store resident and ingest routes to the distributed
# sort-based path instead
BROADCAST_URL_LIMIT = 50_000_000


def ingest_pages(
    pages: rd.Dataset,
    *,
    broadcast_threshold: int = BROADCAST_URL_LIMIT,
    n_rows: int | None = None,
    narrow: rd.Dataset | None = None,
) -> tuple[rd.Dataset, int]:
    """Ingest: dedup keep-first + doc_id assignment, route chosen by size.

    Small/medium corpora (<= ``broadcast_threshold`` rows): one NARROW
    pass ((url, warc_ts) only, column-pruned) collected to the driver
    yields (a) duplicate winners (min warc_ts per url), (b) the
    surviving row count, and (c) the sorted unique-url array — which IS
    the doc_id map (doc_id = rank of url in sorted order). The heavy
    columns then make exactly ONE pass: filter losers -> doc_id =
    searchsorted(broadcast sorted urls, url). No full-width sort, no zip.

    Above the threshold the broadcast url array would be too large for a
    sane object-store broadcast, so ingest routes to the fully
    distributed path: ``dedup_pages_keep_first`` (narrow dup discovery +
    one filter pass) + ``assign_doc_ids`` (range-partitioned sort +
    zip-with-index). Both routes produce the identical (doc_id, url) map
    (tested side by side). Urls whose duplicates tie on warc_ts are
    resolved by the exact per-group path (md5(text) tie-break) on either
    route.

    ``narrow``: optional (url, warc_ts)-only Dataset for the planning
    pass. Ray 2.49's ``select_columns`` does NOT push the projection
    into a parquet scan (the narrow pass would decode the html column
    and throw it away — measured 10.9 s vs 1.9 s on the 1.2M-page bench
    file), so callers that know the source path pass
    ``read_parquet(path, columns=["url", "warc_ts"])`` here
    (``pipeline.build_from_pages`` does when given a path).
    """
    if n_rows is None:
        n_rows = pages.count()
    if n_rows > broadcast_threshold:
        deduped, n_after = dedup_pages_keep_first(pages, with_count=True)
        return assign_doc_ids(deduped, n_after), n_after

    plan = plan_ingest_broadcast(narrow if narrow is not None else pages)
    return apply_ingest_plan(pages, plan), plan.n_docs


class IngestPlan:
    """Broadcast ingest plan: object-store refs to the sorted unique-url
    array (the doc_id map), the duplicate winners, and the ambiguous-url
    set. A pure function of the (url, warc_ts) columns, so any subset of
    the input (a file group, a resumed run) can replay the SAME global
    dedup + doc_id assignment independently — the basis of
    ``pipeline.build_from_pages``'s per-shard resumable ingest."""

    def __init__(self, urls_ref, win_ref, amb_ref, n_docs: int, n_amb: int):
        self.urls_ref = urls_ref
        self.win_ref = win_ref
        self.amb_ref = amb_ref
        self.n_docs = n_docs
        self.n_amb = n_amb


def plan_ingest_broadcast(narrow: rd.Dataset) -> IngestPlan:
    """One narrow (url, warc_ts) pass -> IngestPlan.

    The driver collect is ARROW (no per-row Python objects), then
    fixed-width byte arrays via buffer math: sorting/searchsorted are
    vectorized C byte comparisons and the broadcast array is zero-copy
    out of the object store. Widths are UTF-8 BYTES (non-ASCII safe).
    """
    import ray

    tables = ray.get(narrow.select_columns(["url", "warc_ts"]).to_arrow_refs())
    tables = [t for t in tables if t.num_rows]
    meta_tbl = (
        pa.concat_tables(
            [t.select(["url", "warc_ts"]) for t in tables],
            promote_options="permissive",
        )
        if tables
        else pa.table({"url": pa.array([], pa.string()),
                       "warc_ts": pa.array([], pa.int64())})
    )
    import pyarrow.compute as pc

    # multi-threaded Arrow sort (binary == codepoint == byte order for
    # UTF-8), then ONE fixed-width conversion of the already-sorted
    # column — np.lexsort over the byte matrix was single-core and
    # showed up as driver time at 5M+ urls. Ties beyond (url, warc_ts)
    # are resolved by the ambiguous-set path, so deeper order is free.
    order = pc.sort_indices(
        meta_tbl,
        sort_keys=[("url", "ascending"), ("warc_ts", "ascending")],
    )
    sorted_tbl = meta_tbl.take(order)
    urls_sorted = _utf8_fixed_width(sorted_tbl.column("url"))
    ts_sorted = sorted_tbl.column("warc_ts").to_numpy(zero_copy_only=False)
    first_mask = np.concatenate(([True], urls_sorted[1:] != urls_sorted[:-1]))
    unique_urls = urls_sorted[first_mask]
    n = int(unique_urls.size)
    # duplicated-url winners, fully vectorized: winner ts = first ts of
    # each url group; ambiguous if the group's second row ties that ts
    starts = np.flatnonzero(first_mask)
    ends = np.concatenate((starts[1:], [urls_sorted.size]))
    dup_starts = starts[ends - starts > 1]
    win_urls = urls_sorted[dup_starts]  # sorted (subset of sorted urls)
    win_ts = ts_sorted[dup_starts]
    amb_urls = win_urls[ts_sorted[dup_starts + 1] == win_ts] if dup_starts.size else win_urls[:0]
    return IngestPlan(
        ray.put(unique_urls),
        ray.put((win_urls, win_ts)),
        ray.put(amb_urls),
        n,
        int(amb_urls.size),
    )


def apply_ingest_plan(
    pages: rd.Dataset, plan: IngestPlan, *, include_ambiguous: bool = True
) -> rd.Dataset:
    """Replay a broadcast IngestPlan over (any subset of) the input: the
    heavy columns make exactly ONE pass — filter losers -> doc_id =
    searchsorted(broadcast sorted urls, url). No full-width sort, no zip.

    ``include_ambiguous=False`` drops rows of warc_ts-TIED duplicated
    urls instead of resolving them inline — the per-group resumable
    ingest must resolve those ONCE globally (``resolve_ambiguous_rows``
    over the whole input): a tied url's rows can land in different file
    groups, and per-group resolution would keep one survivor per group.
    """
    import ray

    urls_ref, win_ref, amb_ref = plan.urls_ref, plan.win_ref, plan.amb_ref

    def _keys(batch: pa.Table, width: int) -> np.ndarray:
        return _utf8_fixed_width(batch.column("url"), width=width)

    def assign(batch: pa.Table) -> pa.Table:
        sorted_urls = ray.get(urls_ref)
        wu, wt = ray.get(win_ref)
        amb = ray.get(amb_ref)
        keys = _keys(batch, sorted_urls.dtype.itemsize)
        if wu.size or amb.size:
            ts = batch.column("warc_ts").to_numpy(zero_copy_only=False)
            mask = np.ones(keys.size, dtype=bool)
            if amb.size:
                mask &= ~np.isin(keys, amb)
            if wu.size:
                pos = np.minimum(np.searchsorted(wu, keys), wu.size - 1)
                is_dup = wu[pos] == keys
                # duplicated url: survive only with the winner warc_ts
                mask &= ~is_dup | (ts == wt[pos])
            batch = batch.filter(pa.array(mask))
            keys = keys[mask]
        doc_ids = np.searchsorted(sorted_urls, keys)
        return batch.append_column("doc_id", pa.array(doc_ids, type=pa.int64()))

    out = pages.map_batches(assign, batch_format="pyarrow")
    if plan.n_amb and include_ambiguous:
        out = out.union(resolve_ambiguous_rows(pages, plan))
    return out


def resolve_ambiguous_rows(pages: rd.Dataset, plan: IngestPlan) -> rd.Dataset:
    """The warc_ts-tied duplicated urls of a plan, resolved to exactly
    one survivor each (md5(text) tie-break) with doc_ids assigned. Must
    run over the WHOLE input the plan was built from — tied rows of one
    url can live in different files."""
    import ray

    urls_ref, amb_ref = plan.urls_ref, plan.amb_ref

    def only_ambiguous(batch: pa.Table) -> pa.Table:
        amb = ray.get(amb_ref)
        keys = _utf8_fixed_width(
            batch.column("url"), width=amb.dtype.itemsize if amb.size else 1
        )
        return batch.filter(pa.array(np.isin(keys, amb)))

    resolved = _dedup_via_groups(
        pages.map_batches(only_ambiguous, batch_format="pyarrow"),
        "url", "warc_ts",
    )

    def assign_ids_only(batch: pa.Table) -> pa.Table:
        sorted_urls = ray.get(urls_ref)
        keys = _utf8_fixed_width(batch.column("url"), width=sorted_urls.dtype.itemsize)
        doc_ids = np.searchsorted(sorted_urls, keys)
        return batch.append_column("doc_id", pa.array(doc_ids, type=pa.int64()))

    return resolved.map_batches(assign_ids_only, batch_format="pyarrow")


def _dedup_via_groups(ds: rd.Dataset, key: str, order_col: str) -> rd.Dataset:
    """Per-key keep-min of ``(order_col, md5(text))`` (also the
    no-broadcast fallback): one shuffle on a coarse bucket of the key,
    then one lexsort per group selects every key's survivor."""
    groups = coarse_groups()

    def add_cb(batch: pa.Table) -> pa.Table:
        cb = coarse_bucket(batch.column(key), n_groups=groups)
        return batch.append_column("_cb", pa.array(cb))

    def take_first(group: pa.Table) -> pa.Table:
        codes = (
            group.column(key).combine_chunks().dictionary_encode().indices
            .to_numpy(zero_copy_only=False)
        )
        ts = group.column(order_col).to_numpy(zero_copy_only=False)
        fp = np.array([_fingerprint(t or "") for t in group.column("text").to_pylist()])
        order = np.lexsort((fp, ts, codes))
        first = np.concatenate(([True], np.diff(codes[order]) != 0))
        return group.take(pa.array(order[first])).drop_columns(["_cb"])

    return (
        ds.map_batches(add_cb, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(take_first, batch_format="pyarrow")
    )


def assign_doc_ids(ds: rd.Dataset, n_rows: int | None = None) -> rd.Dataset:
    """doc_id = rank of url in ascending sorted order (0-based, dense)."""
    if n_rows is None:
        n_rows = ds.count()
    ranked = ds.sort("url").zip(rd.range(n_rows))

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["doc_id" if c == "id" else c for c in batch.column_names]
        )

    return ranked.map_batches(rename, batch_format="pyarrow")


def docmap(ds_with_ids: rd.Dataset) -> rd.Dataset:
    """(doc_id, url) join side for result materialization (reference J1,
    ``app/DataLoader.py:165``)."""
    return ds_with_ids.select_columns(["doc_id", "url"])
