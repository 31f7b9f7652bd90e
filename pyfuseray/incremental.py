"""Incremental index maintenance: add documents to a built index.

The reference rebuilds from scratch on every corpus change
(reference ``app/DataLoader.py:46, 77-89``). Here the expensive stage —
tokenization — runs over the NEW documents only; their SPIMI runs land
as a new postings GENERATION next to the persisted ``postings_raw``
checkpoint, and only the (cheap, wide) merge + stats stages are redone
over the union of generations with updated global stats (n_docs, avgdl,
BM25 block bounds). Segment content is merge-order independent (the
stage-C groupby repartitions by (term, salt)), so the result is
posting-for-posting identical to a one-shot build over the concatenated
corpus, and query results are rank-identical (pytest-pinned in
``tests/test_incremental.py``).

Layout after k adds:

    out_dir/
      manifest.json            (generations: ["postings_raw",
                                "postings_raw_g1", ... "postings_raw_gk"];
                                seg_generations: tiered segment dirs)
      postings_raw/bucket=b/   (generation 0 — the original build)
      postings_raw_g1/bucket=b/
      segments/bucket=b/       (after a full add or a compaction: built
                                over ALL generations; while tiered
                                generations exist: the older ones only)
      segments_g1/bucket=b/    (one per tiered add since the last fold)
      stats/df.parquet  stats/docstats.parquet
      stats/df_g1.parquet  stats/docstats_g1.parquet  (tiered adds)

One path for every maintenance op. A full add, ``compact_tiers`` and
``deletes.compact`` each make their own change (record a generation,
fold the tiered generations, swap in a filtered generation), retire the
derived stages with :func:`retire_derived` in the SAME atomic manifest
write, then call :func:`finish_add`. ``finish_add`` resumes
``build.build_index`` with ``corpus=None``: stages B-E rerun over the
recorded generations exactly as a build's resume would, and at ``done``
every generation path the manifest no longer names is removed.

Crash safety: a new generation dir is written to ``<dir>.writing`` and
renamed into place BEFORE the manifest records it. A crash after the
retiring manifest write leaves ``done=False``; rerun
``finish_add(index_dir)`` (or ``add_documents`` with ``new_corpus=None``,
or ``compact_tiers``) to finish the rebuild and remove the stale paths.
Re-running ``add_documents`` with the same corpus instead would double-
add it; the doc-range check below rejects that.

Scale shape: tokenize streams over the new docs only; the merge is one
groupby shuffle over compressed runs (bytes per posting, not rows); no
stage materializes the corpus.

Two add modes (the full mode re-merges ALL generations on every add,
one full-index-sized shuffle per add):

- ``mode="full"`` (default): exact, everything rebuilt — segments, df,
  docstats/norms, and any tiered generations folded in. Every query
  tier (WAND, tfidf, bulk, resident) works immediately; cost is
  O(index) per add.
- ``mode="tiered"`` (Lucene-style log-structured): the new generation
  gets its OWN segments + stats built from ONLY its postings — the
  merge shuffle input is the new docs' runs, never the existing index
  (the ``tiered_add_g*`` stage mark records ``merge_input_rows`` as
  evidence). The searcher merges a term's rows across generations at
  query time: doc ranges are strictly increasing across generations,
  so the merged posting list is a concatenation and BM25 TAAT /
  boolean results are BIT-identical to a fresh build (idf from the
  summed df, dl from per-generation docstats — both exact). Stale
  derived state is GATED, not wrong: per-block max_bm25 bounds and
  per-doc tfidf norms were computed against superseded global stats,
  so WAND falls back to TAAT and search_tfidf / bulk search / the
  resident tier raise (``checkpoint.require_single_generation``) until
  :func:`compact_tiers` (triggered
  automatically once ``max_generations`` accumulate) folds everything
  back into one exact segment set == fresh build.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import pyarrow.dataset as pads
import ray.data as rd
from ray.data.aggregate import Max, Min

from pyfuseray.build import (
    DOCSTATS_WRITE, SEGMENT_WRITE, _sort_block_by_term, build_index,
)
from pyfuseray.checkpoint import Manifest, load_manifest, save_manifest
from pyfuseray.postings import tokenize_batch
from pyfuseray.segments import build_bucket_segment
from pyfuseray.stats import df_dataset, docstats_dataset, total_tokens


def _generations(m: Manifest) -> list[str]:
    return list(getattr(m, "generations", None) or ["postings_raw"])


def _seg_generations(m: Manifest) -> list[str]:
    return list(getattr(m, "seg_generations", None) or [])


def seg_stat_paths(index_dir: str, seg_name: str) -> tuple[str, str]:
    """(df, docstats) parquet paths for a tiered segment generation."""
    suffix = seg_name.removeprefix("segments_")
    return (
        os.path.join(index_dir, "stats", f"df_{suffix}.parquet"),
        os.path.join(index_dir, "stats", f"docstats_{suffix}.parquet"),
    )


def _docstats_paths(index_dir: str, m: Manifest | None) -> list[str]:
    """The base docstats plus every tiered generation's docstats
    sidecar: together one row per indexed doc (a doc with no indexed
    token has none)."""
    paths = [os.path.join(index_dir, "stats", "docstats.parquet")]
    if m is not None:
        paths.extend(
            seg_stat_paths(index_dir, s)[1] for s in _seg_generations(m)
        )
    return paths


def _max_doc_id(index_dir: str) -> int:
    """Max indexed doc_id from docstats parquet column statistics (the
    files are doc_id-sorted; fragment stats make this metadata-only).
    Scans the base docstats plus every tiered generation's sidecar so
    tiered adds validate against the true max."""
    hi = -1
    for path in _docstats_paths(index_dir, load_manifest(index_dir)):
        if not os.path.exists(path):
            continue
        ds = pads.dataset(path, format="parquet")
        for frag in ds.get_fragments():
            for rg in frag.row_groups:
                st = rg.statistics or {}
                mx = (st.get("doc_id") or {}).get("max")
                if mx is not None:
                    hi = max(hi, int(mx))
    return hi


def _doc_domain(index_dir: str, n_docs: int) -> int:
    """Doc-id half-open domain [0, D) covering every indexed doc.

    After a compaction n_docs shrinks but surviving doc_ids keep their
    original values, and ``append_pages`` assigns ids above url-collision
    holes, so ids can exceed n_docs — shard ranges, bucket math and
    delete bounds must span the true max id, not the count."""
    return max(1, n_docs, _max_doc_id(index_dir) + 1)


def ids_dense(m: Manifest) -> bool:
    """True while the doc ids are exactly 0..n_docs-1, so every id below
    n_docs names a doc, indexed or not: a build numbers its docs densely,
    and no tombstone compaction has removed one since and no add has left
    a gap (``append_pages`` leaves url-collision holes). An add recorded
    without ``dense_ids`` counts as a gap."""
    for name, mark in m.stages.items():
        if name.startswith("compact_postings_raw"):
            return False
        if name.startswith(("add_g", "tiered_add_g")) and not mark.get(
            "dense_ids", False
        ):
            return False
    return True


def add_documents(
    index_dir: str,
    new_corpus: rd.Dataset | None,
    *,
    n_new: int | None = None,
    tokenizer_batch_size: int = 4096,
    mode: str = "full",
    max_generations: int = 4,
) -> Manifest:
    """Add a (doc_id, text) Dataset to a complete index in place.

    New doc_ids must all be greater than every indexed doc_id (assign
    them ``manifest.n_docs, n_docs+1, ...`` for dense-rank corpora).
    ``new_corpus=None`` redoes the merge/stats from the generations the
    manifest already records (crash repair — see module docstring).

    ``mode``: "full" records the generation, retires the derived stages
    and re-merges every generation through ``finish_add`` (exact,
    O(index) per add); "tiered" builds the new generation's own
    segments only (O(new docs) per add, see module docstring for the
    staleness gates) and auto-compacts once ``max_generations`` tiered
    generations accumulate.
    """
    assert mode in ("full", "tiered")
    m = load_manifest(index_dir)
    if m is None:
        raise FileNotFoundError(f"no index manifest in {index_dir}")
    gens = _generations(m)

    if new_corpus is None:
        return finish_add(index_dir)

    if not m.stage_done("done"):
        raise RuntimeError(
            f"index in {index_dir} is mid-add (done=False); run "
            "finish_add() before adding more documents"
        )
    if n_new is None:
        n_new = new_corpus.count()
    if n_new == 0:
        return m
    span = new_corpus.aggregate(Min("doc_id"), Max("doc_id"))
    lo, hi = int(span["min(doc_id)"]), int(span["max(doc_id)"])
    hi_existing = _max_doc_id(index_dir)
    if lo <= hi_existing:
        raise ValueError(
            f"new doc_ids must start above the indexed max ({hi_existing}); "
            f"got min doc_id {lo}"
        )
    # the new ids continue 0..n_docs-1 without a gap (see ids_dense)
    dense_ids = lo == m.n_docs and hi - lo + 1 == n_new
    gen_name = f"postings_raw_g{len(gens)}"
    gen_dir = os.path.join(index_dir, gen_name)
    tmp = gen_dir + ".writing"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(gen_dir, ignore_errors=True)
    t0 = time.perf_counter()
    runs = new_corpus.map_batches(
        tokenize_batch,
        fn_kwargs={
            "num_buckets": m.num_buckets,
            "block_size": m.block_size or None,
            "analyzer": m.analyzer,
        },
        batch_format="pyarrow",
        batch_size=tokenizer_batch_size,
    )
    runs.write_parquet(tmp, partition_cols=["bucket"])
    os.replace(tmp, gen_dir)

    if mode == "tiered":
        new_total = total_tokens(rd.read_parquet(gen_dir, columns=["cf"]))
        return _register_tiered_generation(
            index_dir, m, gen_name, n_new, new_total, t0, max_generations,
            dense_ids,
        )

    # ONE atomic manifest write: record the generation AND retire the
    # stages it obsoletes (finish_add restates avgdl from the runs)
    m.generations = gens + [gen_name]
    m.n_docs += n_new
    retire_derived(m)
    m.mark_stage(
        f"add_g{len(gens)}",
        wall_s=round(time.perf_counter() - t0, 3),
        n_new=n_new,
        dense_ids=dense_ids,
    )
    save_manifest(index_dir, m)
    return finish_add(index_dir)


def _register_tiered_generation(
    index_dir: str,
    m: Manifest,
    gen_name: str,
    n_new: int,
    new_total: int,
    t0: float,
    max_generations: int,
    dense_ids: bool,
) -> Manifest:
    """Build the new generation's OWN segments + stats (merge input =
    the new runs only) and register it in ONE atomic manifest write.
    The index stays ``done`` (queryable) throughout; a crash before the
    manifest write leaves only inert orphan dirs that the next attempt
    overwrites."""
    gen_dir = os.path.join(index_dir, gen_name)
    seg_name = "segments_" + gen_name.removeprefix("postings_raw_")
    seg_dir = os.path.join(index_dir, seg_name)
    new_n_docs = m.n_docs + n_new
    new_avgdl = (m.total_postings + new_total) / max(1, new_n_docs)

    runs_ds = rd.read_parquet(gen_dir)
    merge_input_rows = runs_ds.count()  # the evidence: new-gen rows only
    seg = build_bucket_segment(
        runs_ds,
        n_docs=new_n_docs,
        avgdl=new_avgdl,
        num_salts=m.num_salts,
        block_size=m.block_size or None,
    )
    seg_tmp = seg_dir + ".writing"
    shutil.rmtree(seg_tmp, ignore_errors=True)
    shutil.rmtree(seg_dir, ignore_errors=True)
    seg.map_batches(
        _sort_block_by_term, batch_format="pyarrow", batch_size=None
    ).write_parquet(seg_tmp, **SEGMENT_WRITE)
    os.replace(seg_tmp, seg_dir)

    df_path, docstats_path = seg_stat_paths(index_dir, seg_name)
    seg_disk = rd.read_parquet(seg_dir)
    for path in (df_path, docstats_path):
        shutil.rmtree(path + ".writing", ignore_errors=True)
        shutil.rmtree(path, ignore_errors=True)
    df_dataset(seg_disk).write_parquet(df_path + ".writing")
    os.replace(df_path + ".writing", df_path)
    # dl is exact; the norm column is computed against this generation's
    # own df (tfidf is gated until compact_tiers — module docstring)
    docstats_dataset(seg_disk, new_n_docs).sort("doc_id").write_parquet(
        docstats_path + ".writing", **DOCSTATS_WRITE
    )
    os.replace(docstats_path + ".writing", docstats_path)

    gens = _generations(m)
    gens.append(gen_name)
    m.generations = gens
    m.seg_generations = _seg_generations(m) + [seg_name]
    m.n_docs = new_n_docs
    m.total_postings += new_total
    m.avgdl = new_avgdl
    m.mark_stage(
        f"tiered_add_{gen_name.removeprefix('postings_raw_')}",
        wall_s=round(time.perf_counter() - t0, 3),
        n_new=n_new,
        new_tokens=new_total,
        merge_input_rows=int(merge_input_rows),
        dense_ids=dense_ids,
    )
    save_manifest(index_dir, m)
    if len(m.seg_generations) >= max_generations:
        return compact_tiers(index_dir)
    return m


def compact_tiers(index_dir: str) -> Manifest:
    """Fold every tiered segment generation back into ONE exact segment
    set (== fresh build over the concatenated corpus): retires the
    derived stages, then ``finish_add`` reruns the full merge over all
    postings generations and removes the per-generation segment/stat
    dirs. After this, every gated tier (WAND, tfidf, bulk, resident)
    works again. On an index with no tiered generation left (say, after
    a crash inside the fold) it only calls ``finish_add``."""
    m = load_manifest(index_dir)
    if m is None:
        raise FileNotFoundError(f"no index manifest in {index_dir}")
    seg_gens = _seg_generations(m)
    if seg_gens:
        retire_derived(m)
        m.mark_stage("compact_tiers", folded=seg_gens)
        save_manifest(index_dir, m)
    return finish_add(index_dir)


def retire_derived(m: Manifest) -> None:
    """Drop every stage derived from the postings generations: avgdl,
    segments (bucket marks and tiered segment generations), df,
    docstats, compression and done. The caller saves it in the SAME
    atomic manifest write as its own change, then calls ``finish_add``
    to rebuild them."""
    m.buckets = {}
    m.seg_generations = []
    for stage in ("avgdl", "df", "docstats", "compression", "done"):
        m.stages.pop(stage, None)


def finish_add(index_dir: str) -> Manifest:
    """Bring the index to ``done``: resume ``build_index`` on the postings
    generations the manifest records, then remove every generation path
    (``postings_raw*``, ``segments_g*``, ``stats/{df,docstats}_g*``) the
    manifest no longer names. Idempotent; repairs a maintenance op that
    crashed after its retiring manifest write."""
    m = load_manifest(index_dir)
    if m is None:
        raise FileNotFoundError(f"no index manifest in {index_dir}")
    if not m.stage_done("done"):
        m = build_index(
            None, index_dir, num_buckets=m.num_buckets, num_salts=m.num_salts,
            block_size=m.block_size or None, analyzer=m.analyzer,
        )
    seg_gens = _seg_generations(m)
    keep = {os.path.join(index_dir, g) for g in _generations(m) + seg_gens}
    keep.update(p for s in seg_gens for p in seg_stat_paths(index_dir, s))
    for pattern in ("postings_raw*", "segments_g*", "stats/df_g*",
                    "stats/docstats_g*"):
        for p in set(glob.glob(os.path.join(index_dir, pattern))) - keep:
            shutil.rmtree(p)
    return m
