"""Checkpoint manifest: per-partition lineage, metrics, resume.

The reference has no resume — it wipes and rebuilds on every run
(reference ``app/DataLoader.py:46, 77-89``). Here every build stage
persists its artifact and records completion in ``manifest.json``
(written atomically: tmp file + rename). A rerun skips completed stages
and completed segment buckets (north-rule requirement: "resumable from
checkpoint with per-partition lineage + metrics").

Checksums are order-insensitive content checksums (sum of per-row md5s
mod 2^128) so they are computable distributedly and stable across block
orderings; at test scale segment files are also byte-identical across
reruns because rows are term-sorted and the codec is deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Any

MANIFEST_NAME = "manifest.json"
# Bump on ANY index layout/schema change: load_manifest returns None for
# other versions, forcing a clean rebuild instead of silently reading a
# stale layout. v2: segments/bucket=k hive layout, SPIMI run postings,
# stats/docstats.parquet. v3: segments drop max_tf and store max_bm25 as
# scoring.bm25_contrib of the query's own idf (v2 bounds can sit a few
# ulps low); tiered generations keep no stats/df_gK file; every tiered
# manifest is v3, so a v2 reader rejects it instead of serving only the
# base segments.
FORMAT_VERSION = 3


@dataclass
class BucketEntry:
    bucket: int
    path: str
    rows: int
    n_postings: int
    checksum: str
    build_ms: float


@dataclass
class Manifest:
    version: int = FORMAT_VERSION
    n_docs: int = 0
    avgdl: float = 0.0
    total_postings: int = 0
    num_buckets: int = 0
    num_salts: int = 1
    # codec/scoring parameters the on-disk segments were built with.
    # block_size=0 means "default BLOCK_SIZE" (also what pre-existing
    # manifests load as). bm25_k1/bm25_b pin the parameters the per-block
    # max_bm25 WAND upper bounds were computed with — bounds are invalid
    # for any other (k1, b), so the searcher must not use WAND then.
    block_size: int = 0
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    # analyzer mode the postings were tokenized with ("reference" |
    # "simple"); the query side MUST analyze with the same chain.
    # Pre-existing manifests load as "reference" (the only mode then).
    analyzer: str = "reference"
    stages: dict[str, dict[str, Any]] = field(default_factory=dict)
    buckets: dict[str, dict[str, Any]] = field(default_factory=dict)
    # postings generation dirs (relative to the index dir), oldest first.
    # Empty means the single original "postings_raw" (pre-incremental
    # manifests load this way). See pyfuseray/incremental.py.
    generations: list[str] = field(default_factory=list)
    # tiered-add segment generations (relative dir names like
    # "segments_g1"), oldest first; [] means the single "segments" dir.
    # A non-empty list marks a LOG-STRUCTURED index state: the searcher
    # merges a term's rows across generations at query time (BM25/
    # boolean exact; WAND falls back to TAAT and the tfidf/bulk/resident
    # tiers raise via require_single_generation until
    # incremental.compact_tiers runs). A reader that ignores this field
    # would serve the base segments only, so it arrived with a
    # FORMAT_VERSION bump (v3): older readers reject every v3 manifest.
    seg_generations: list[str] = field(default_factory=list)
    # count of tombstoned doc_ids in stats/deleted.parquet (see
    # pyfuseray/deletes.py). 0 means the sidecar is absent OR inert (a
    # crash between compact's manifest write and the sidecar unlink
    # leaves the file behind; readers gate on this count, so the stale
    # file is never applied twice). A reader that ignores it would serve
    # tombstoned docs; v3 (FORMAT_VERSION) keeps older readers out.
    n_deleted: int = 0

    # -- stage bookkeeping -------------------------------------------------
    def stage_done(self, name: str) -> bool:
        return self.stages.get(name, {}).get("done", False)

    def mark_stage(self, name: str, **metrics: Any) -> None:
        self.stages[name] = {"done": True, **metrics}

    def bucket_done(self, bucket: int) -> bool:
        return str(bucket) in self.buckets

    def mark_bucket(self, entry: BucketEntry) -> None:
        self.buckets[str(entry.bucket)] = asdict(entry)


def require_single_generation(m: Manifest, tier: str) -> None:
    """The gate every query tier that cannot merge tiered generations
    calls: on a tiered index (``seg_generations`` non-empty) a term's
    postings and df are split across generation dirs and the stored
    norms and block-max bounds reflect superseded global stats, so
    serving would be silently wrong. Raise with the remedy instead."""
    if getattr(m, "seg_generations", None):
        raise RuntimeError(
            f"{tier} on a tiered multi-generation index: run "
            "incremental.compact_tiers() first"
        )


def manifest_path(index_dir: str) -> str:
    return os.path.join(index_dir, MANIFEST_NAME)


def load_manifest(index_dir: str) -> Manifest | None:
    path = manifest_path(index_dir)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if raw.get("version") != FORMAT_VERSION:
        return None
    m = Manifest()
    for key, value in raw.items():
        setattr(m, key, value)
    return m


def save_manifest(index_dir: str, m: Manifest) -> None:
    os.makedirs(index_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=index_dir, suffix=".manifest.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(asdict(m), fh, indent=1, sort_keys=True)
        os.replace(tmp, manifest_path(index_dir))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def row_checksum_update(acc: int, *fields: bytes) -> int:
    """Accumulate one row into an order-insensitive 128-bit checksum."""
    h = hashlib.md5()
    for f in fields:
        h.update(f)
        h.update(b"\x00")
    return (acc + int.from_bytes(h.digest(), "big")) % (1 << 128)
