"""Incremental index maintenance: add documents to a built index.

The reference rebuilds from scratch on every corpus change
(reference ``app/DataLoader.py:46, 77-89``). Here an add tokenizes only
the NEW documents: ``build_index`` builds them as a new postings
GENERATION in a staging dir, and the generation's runs, segments and
docstats move next to the persisted ones. Segment content is
merge-order independent (the stage-C groupby repartitions by (term,
salt)), so a fold over the union of generations is posting-for-posting
identical to a one-shot build over the concatenated corpus, and query
results are rank-identical (pytest-pinned in
``tests/test_incremental.py``).

Layout after k adds:

    out_dir/
      manifest.json            (generations: ["postings_raw",
                                "postings_raw_g1", ... "postings_raw_gk"];
                                seg_generations: tiered segment dirs)
      postings_raw/bucket=b/   (generation 0 — the original build)
      postings_raw_g1/bucket=b/
      segments/bucket=b/       (after a fold: built over ALL generations;
                                while tiered generations exist: the
                                older ones only)
      segments_g1/bucket=b/    (one per tiered add since the last fold)
      stats/df.parquet  stats/docstats.parquet
      stats/docstats_g1.parquet  (one per tiered add since the last fold)

One build path for every write. An add runs ``build_index`` over the
new docs alone (its merge input is the new runs only; the add's stage
mark records ``merge_input_rows``) and records the generation in ONE
manifest write. A full add, or a tiered add that reaches
``max_generations``, also retires the derived stages with
:func:`retire_derived` in that same write, then calls :func:`finish_add`
(the fold); ``compact_tiers`` and ``deletes.compact`` do the same after
their own change. ``finish_add`` resumes ``build.build_index`` with
``corpus=None``: stages B-E rerun over the recorded generations exactly
as a build's resume would, and at ``done`` every generation path the
manifest no longer names is removed.

Crash safety: the staged build writes only under
``postings_raw_gK.staging``, and its outputs move to their generation
names BEFORE the manifest records them. A crash before the manifest
write leaves the index unchanged and ``done``; the leftovers are paths
the manifest does not name, which a rerun of the add overwrites and
``finish_add`` removes. A crash after a folding manifest write leaves
``done=False``; rerun ``finish_add(index_dir)`` (or ``add_documents``
with ``new_corpus=None``, or ``compact_tiers``) to finish the rebuild
and remove the stale paths. Re-running ``add_documents`` with the same
corpus after its manifest write would double-add it; the doc-range
check below rejects that.

Scale shape: tokenize streams over the new docs only; the merge is one
groupby shuffle over compressed runs (bytes per posting, not rows); no
stage materializes the corpus.

The two modes differ only in whether the manifest write folds:

- ``mode="full"`` (default): exact, everything rebuilt — segments, df,
  docstats/norms, and any tiered generations folded in. Every query
  tier (WAND, tfidf, bulk, resident) works immediately; cost is
  O(index) per add, plus the O(new) staged build whose segments the
  fold replaces.
- ``mode="tiered"`` (Lucene-style log-structured): the staged segments
  and docstats stay as the generation's own, so the merge shuffle never
  reads the existing index. The searcher merges a term's rows across
  generations at query time: doc ranges are strictly increasing across
  generations, so the merged posting list is a concatenation and BM25
  TAAT / boolean results are BIT-identical to a fresh build (idf from
  the summed df, dl from per-generation docstats — both exact). Stale
  derived state is GATED, not wrong: a generation's per-block max_bm25
  bounds and per-doc tfidf norms were computed against its own n_docs,
  avgdl and df, so WAND falls back to TAAT and search_tfidf / bulk
  search / the resident tier raise
  (``checkpoint.require_single_generation``) until a fold —
  :func:`compact_tiers`, or the add that reaches ``max_generations`` —
  rebuilds one exact segment set == fresh build.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import pyarrow.dataset as pads
import ray.data as rd
from ray.data.aggregate import Max, Min

from pyfuseray.build import build_index
from pyfuseray.checkpoint import Manifest, load_manifest, save_manifest


def _generations(m: Manifest) -> list[str]:
    return list(getattr(m, "generations", None) or ["postings_raw"])


def _seg_generations(m: Manifest) -> list[str]:
    return list(getattr(m, "seg_generations", None) or [])


def seg_stat_paths(index_dir: str, seg_name: str) -> tuple[str]:
    """The stats paths a tiered segment generation owns: its docstats
    only (the searcher sums df from the generations' segment rows)."""
    suffix = seg_name.removeprefix("segments_")
    return (os.path.join(index_dir, "stats", f"docstats_{suffix}.parquet"),)


def _docstats_paths(index_dir: str, m: Manifest | None) -> list[str]:
    """The base docstats plus every tiered generation's docstats
    sidecar: together one row per indexed doc (a doc with no indexed
    token has none)."""
    paths = [os.path.join(index_dir, "stats", "docstats.parquet")]
    if m is not None:
        paths.extend(
            p for s in _seg_generations(m) for p in seg_stat_paths(index_dir, s)
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

    Every add builds the new generation with ``build_index`` in a
    staging dir and records it in one manifest write. ``mode``: "full"
    folds every generation in that same write and re-merges through
    ``finish_add`` (exact, O(index) per add); "tiered" keeps the new
    generation's own segments (O(new docs) per add, see module docstring
    for the staleness gates) and folds once ``max_generations`` tiered
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
    suffix = f"g{len(gens)}"
    gen_name, seg_name = f"postings_raw_{suffix}", f"segments_{suffix}"
    staging = os.path.join(index_dir, gen_name + ".staging")
    t0 = time.perf_counter()
    # n_docs=n_new: the staged norms and block bounds use this
    # generation's own stats; nothing reads them before a fold rewrites
    # them (module docstring)
    staged = build_index(
        new_corpus, staging, n_docs=n_new, num_buckets=m.num_buckets,
        num_salts=m.num_salts, block_size=m.block_size or None,
        analyzer=m.analyzer, tokenizer_batch_size=tokenizer_batch_size,
        overwrite=True,
    )
    gen_dir = os.path.join(index_dir, gen_name)
    for src, dst in (
        ("postings_raw", gen_dir),
        ("segments", os.path.join(index_dir, seg_name)),
        ("stats/docstats.parquet", seg_stat_paths(index_dir, seg_name)[0]),
    ):
        src = os.path.join(staging, src)
        shutil.rmtree(dst, ignore_errors=True)
        os.replace(src, dst)
    shutil.rmtree(staging)

    # ONE atomic manifest write: record the generation and, for a full
    # add or at max_generations, retire every derived stage (the fold)
    m.generations = gens + [gen_name]
    m.seg_generations = _seg_generations(m) + [seg_name]
    m.n_docs += n_new
    m.total_postings += staged.total_postings
    m.avgdl = m.total_postings / m.n_docs
    m.mark_stage(
        f"tiered_add_{suffix}" if mode == "tiered" else f"add_{suffix}",
        wall_s=round(time.perf_counter() - t0, 3),
        n_new=n_new,
        new_tokens=staged.total_postings,
        # the merge shuffle's input: the new generation's runs only
        merge_input_rows=pads.dataset(gen_dir, format="parquet").count_rows(),
        dense_ids=dense_ids,
    )
    fold = mode == "full" or len(m.seg_generations) >= max_generations
    if fold:
        retire_derived(m)
    save_manifest(index_dir, m)
    return finish_add(index_dir) if fold else m


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
    (``postings_raw*``, ``segments_g*``, ``stats/docstats_g*``) the
    manifest no longer names, an add's leftover staging dir included.
    Idempotent; repairs a maintenance op that crashed after its retiring
    manifest write."""
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
    for pattern in ("postings_raw*", "segments_g*", "stats/docstats_g*"):
        for p in set(glob.glob(os.path.join(index_dir, pattern))) - keep:
            shutil.rmtree(p)
    return m
