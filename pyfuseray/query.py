"""Query execution over a built index directory.

Replaces the reference's O(index-size) sequential scan per query term
(reference ``app/InvertedIndexFinal.py:363-392``) with partition-pruned
segment reads: term -> crc32 bucket -> one Parquet partition -> only the
row groups whose footer ``term`` min/max can hold the term
(:func:`read_matching`; segment files are term-sorted per block with
256-row groups, so a point lookup reads about one row group per file).

Two scoring paths (SURVEY.md §2.9.3):
- ``search_tfidf``: exhaustive TAAT log-TF-IDF + cosine, accumulation
  order identical to the serial oracle (query terms ascending, postings
  in doc_id order) so top-k is rank-identical with scores equal to 1e-9.
- ``search_bm25``: BM25 with either vectorized TAAT ("taat") or
  block-max WAND with a bounded min-heap ("wand"); both produce the
  same canonical (-score, doc_id)-ordered top-k.

Stats sidecars (norms / doclen) are loaded lazily as sorted numpy
arrays; missing doc_ids default to norm=1 (reference
``app/InvertedIndex.py:419``). At cluster scale the same Searcher runs
inside actor processes with stats passed as ``ray.put`` object refs.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from pyfuseray.analyzer import Analyzer, make_analyzer
from pyfuseray.checkpoint import Manifest, load_manifest, require_single_generation
from pyfuseray.codec import decode_postings, decode_span
from pyfuseray.postings import term_bucket
from pyfuseray.scoring import (
    BM25_B,
    BM25_K1,
    bm25_contrib,
    bm25_idf,
    tfidf_weight,
    tfidf_weight_vec,
)


@dataclass
class SegmentRow:
    term: str
    df: int
    cf: int
    blob: bytes
    last_doc: np.ndarray
    max_bm25: np.ndarray
    offset: np.ndarray


def _merge_seg_rows(rows: list[SegmentRow]) -> SegmentRow:
    """Concatenate one term's per-generation rows (generation order ==
    increasing, disjoint doc ranges — enforced by add_documents'
    doc-range check). Every codec block restarts from an absolute
    doc_id, so the merged blob is the byte concatenation with the
    per-block offsets shifted; df/cf sum. The concatenated max_bm25
    values were computed against superseded global stats — callers gate
    WAND on ``_multi_gen`` and use TAAT, which never reads them."""
    blob = b"".join(r.blob for r in rows)
    shifts = np.cumsum([0] + [len(r.blob) for r in rows[:-1]])
    return SegmentRow(
        term=rows[0].term,
        df=sum(r.df for r in rows),
        cf=sum(r.cf for r in rows),
        blob=blob,
        last_doc=np.concatenate([r.last_doc for r in rows]),
        max_bm25=np.concatenate([r.max_bm25 for r in rows]),
        offset=np.concatenate(
            [r.offset + s for r, s in zip(rows, shifts)]
        ),
    )


# (path, footer, per-row-group (min, max) of the key column or None)
Footer = tuple[str, pq.FileMetaData, list[tuple | None]]


def read_footers(paths: list[str], column: str) -> list[Footer]:
    """Each file's parquet footer plus the per-row-group ``column``
    min/max it carries (None where the writer left no statistics).
    Metadata only: no file handle outlives the call."""
    out = []
    for path in paths:
        md = pq.read_metadata(path)
        j = next(
            (i for i in range(md.num_columns)
             if md.schema.column(i).path == column),
            None,
        )
        ranges = []
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(j).statistics if j is not None else None
            ranges.append((st.min, st.max) if st is not None and st.has_min_max else None)
        out.append((path, md, ranges))
    return out


def read_matching(
    footers: list[Footer], column: str, values, columns: list[str] | None = None
) -> list[pa.Table]:
    """The rows whose ``column`` is in ``values``, one table per file
    that has any. Reads only the row groups whose [min, max] can hold
    one of the values (a row group without statistics is always read),
    then filters them exactly with ``is_in``. ``columns`` (which must
    include ``column``) limits the columns read; a listed column a file
    lacks is left out of that file's table."""
    want = sorted(set(values))
    tables = []
    for path, md, ranges in footers:
        sel = []
        for g, r in enumerate(ranges):
            if r is not None:
                i = bisect.bisect_left(want, r[0])
                if i == len(want) or want[i] > r[1]:
                    continue
            sel.append(g)
        if not sel:
            continue
        with pq.ParquetFile(path, metadata=md) as pf:
            tbl = pf.read_row_groups(sel, columns=columns, use_threads=False)
        key = tbl.column(column)
        tbl = tbl.filter(pc.is_in(key, value_set=pa.array(want, type=key.type)))
        if tbl.num_rows:
            tables.append(tbl)
    return tables


class IndexSearcher:
    def __init__(self, index_dir: str, analyzer: Analyzer | None = None):
        self.index_dir = index_dir
        m = load_manifest(index_dir)
        if m is None or not m.stage_done("done"):
            raise FileNotFoundError(f"no complete index manifest in {index_dir}")
        if not os.path.isdir(os.path.join(index_dir, "segments")):
            raise FileNotFoundError(f"index manifest present but segments/ missing in {index_dir}")
        self.manifest: Manifest = m
        # analyze queries with the chain the index was built with
        self.analyzer = analyzer or make_analyzer(m.analyzer)
        self._norm_vals: np.ndarray | None = None
        self._dl_vals: np.ndarray | None = None
        self._deleted: np.ndarray | None = None  # sorted tombstones (lazy)
        # tiered-add state (incremental.add_documents mode="tiered"):
        # a term's rows are merged across generation dirs at query time;
        # doc ranges are strictly increasing across generations, so the
        # merge is concatenation. See incremental.py for the gates.
        self._seg_dirs: list[str] = ["segments"] + [
            s for s in getattr(m, "seg_generations", None) or []
        ]
        self._multi_gen = len(self._seg_dirs) > 1
        # (generation dir, bucket) -> footers of its segment files;
        # paths and metadata only (an fd per file would not scale)
        self._footers: dict[tuple[str, int], list[Footer]] = {}
        # corpus file -> ((st_size, st_mtime_ns), doc_id footer) for SQL
        # row materialization; see corpus_footers
        self._corpus_footers: dict[str, tuple[tuple[int, int], Footer]] = {}
        # bounded term -> SegmentRow|None cache (zipfian query terms)
        self._row_cache: dict[str, SegmentRow | None] = {}
        self._row_cache_max = 50_000

    # -- segment lookup -----------------------------------------------------
    def lookup(self, terms: list[str]) -> dict[str, SegmentRow]:
        """The terms' segment rows, merged across generations. A row-cache
        miss reads, per generation, only the bucket's row groups whose
        footer ``term`` range can hold a missed term (see
        :func:`read_matching`); absent terms are cached as absent."""
        out: dict[str, SegmentRow] = {}
        cache = self._row_cache
        misses = []
        for t in terms:
            if t in cache:
                row = cache[t]
                if row is not None:
                    out[t] = row
            else:
                misses.append(t)
        if not misses:
            return out
        by_bucket: dict[int, list[str]] = {}
        for t in misses:
            by_bucket.setdefault(term_bucket(t, self.manifest.num_buckets), []).append(t)
        for bucket, ts in by_bucket.items():
            acc: dict[str, list[SegmentRow]] = {}
            for seg_name in self._seg_dirs:
                for tbl in read_matching(self._bucket_footers(seg_name, bucket), "term", ts):
                    cols = [tbl.column(c).to_pylist() for c in (
                        "term", "df", "cf", "blob", "last_doc", "max_bm25", "offset")]
                    for term, df, cf, blob, last_doc, max_bm25, offset in zip(*cols):
                        acc.setdefault(term, []).append(SegmentRow(
                            term=term,
                            df=int(df),
                            cf=int(cf),
                            blob=blob,
                            last_doc=np.asarray(last_doc, dtype=np.int64),
                            max_bm25=np.asarray(max_bm25, dtype=np.float64),
                            offset=np.asarray(offset, dtype=np.int64),
                        ))
            for term, rows in acc.items():
                out[term] = rows[0] if len(rows) == 1 else _merge_seg_rows(rows)
        if len(cache) < self._row_cache_max:
            for t in misses:
                cache[t] = out.get(t)
        return out

    def _bucket_footers(self, seg_name: str, bucket: int) -> list[Footer]:
        key = (seg_name, bucket)
        footers = self._footers.get(key)
        if footers is None:
            part = os.path.join(self.index_dir, seg_name, f"bucket={bucket}")
            files = pads.dataset(part, format="parquet").files if os.path.isdir(part) else []
            footers = self._footers[key] = read_footers(files, "term")
        return footers

    def corpus_footers(self, paths: list[str]) -> list[Footer]:
        """The ``doc_id`` footers of corpus files ``paths`` (for
        :func:`read_matching`), cached by path. Each call checks every
        file's (size, mtime_ns) and re-reads the footer of a file that
        changed or is new; entries for paths not listed are dropped.
        Footer cost grows with the corpus's row-group count, so SQL
        materialize would otherwise pay it per query."""
        old, cur = self._corpus_footers, {}
        for path in paths:
            st = os.stat(path)
            sig = (st.st_size, st.st_mtime_ns)
            hit = old.get(path)
            cur[path] = (
                hit if hit is not None and hit[0] == sig
                else (sig, read_footers([path], "doc_id")[0])
            )
        self._corpus_footers = cur
        return [cur[path][1] for path in paths]

    # -- stats sidecars -----------------------------------------------------
    # docstats loads ONCE into numpy arrays indexed by doc_id (O(1)
    # lookups in scoring loops), sized to the doc-id domain: ids need not
    # be dense (compaction keeps original ids, appends leave url-collision
    # holes).
    def _load_docstats(self) -> None:
        from pyfuseray.incremental import _docstats_paths

        paths = _docstats_paths(self.index_dir, self.manifest)
        tbls = [
            pads.dataset(p, format="parquet").to_table()
            for p in paths
            if os.path.exists(p)
        ]
        ids = np.concatenate(
            [t.column("doc_id").to_numpy() for t in tbls]
        ) if tbls else np.zeros(0, dtype=np.int64)
        size = max(self.manifest.n_docs, int(ids.max()) + 1 if ids.size else 0)
        # docs absent from the index: norm 1 (InvertedIndex.py:419), dl avgdl
        norms = np.full(size, 1.0, dtype=np.float64)
        dls = np.full(size, self.manifest.avgdl or 1.0, dtype=np.float64)
        for t in tbls:
            tids = t.column("doc_id").to_numpy()
            norms[tids] = t.column("norm").to_numpy().astype(np.float64)
            dls[tids] = t.column("dl").to_numpy().astype(np.float64)
        self._norm_vals, self._dl_vals = norms, dls

    def _norms(self) -> np.ndarray:
        if self._norm_vals is None:
            self._load_docstats()
        return self._norm_vals

    def _doclens(self) -> np.ndarray:
        if self._dl_vals is None:
            self._load_docstats()
        return self._dl_vals

    # -- tombstones (pyfuseray.deletes) --------------------------------------
    # Deleted docs are filtered out of every result set; surviving docs
    # keep their exact pre-delete scores (global stats stay pre-delete
    # until deletes.compact — the Lucene staleness contract). Filtering
    # happens BEFORE top-k selection so WAND's threshold never reflects
    # a tombstoned doc, keeping TAAT/WAND bit-identity.
    def _drop_deleted(
        self, doc_ids: np.ndarray, scores: np.ndarray | None = None
    ):
        if self._deleted is None:
            if getattr(self.manifest, "n_deleted", 0):
                from pyfuseray.deletes import load_tombstones

                self._deleted = load_tombstones(self.index_dir, self.manifest)
            else:
                self._deleted = np.zeros(0, dtype=np.int64)
        if self._deleted.size == 0 or doc_ids.size == 0:
            return doc_ids if scores is None else (doc_ids, scores)
        from pyfuseray.deletes import in_tombstones

        keep = ~in_tombstones(doc_ids, self._deleted)
        if scores is None:
            return doc_ids[keep]
        return doc_ids[keep], scores[keep]

    # -- scoring ------------------------------------------------------------
    def search_tfidf(self, query: str, top_k: int = 10) -> list[tuple[int, float]]:
        """Reference-conformant TF-IDF cosine (TAAT, exhaustive)."""
        # per-doc cosine norms were computed against superseded global
        # (df, N) on a tiered index — serving them would be silently wrong
        require_single_generation(self.manifest, "search_tfidf")
        terms = self.analyzer.preprocess_query(query)
        if not terms:
            return []
        n = self.manifest.n_docs
        rows = self.lookup(sorted(terms))
        doc_parts: list[np.ndarray] = []
        w_parts: list[np.ndarray] = []
        query_norm = 0.0
        for term in sorted(terms):
            row = rows.get(term)
            if row is None:
                continue
            w_tq = tfidf_weight(terms[term], row.df, n)
            query_norm += w_tq * w_tq
            doc_ids, tfs = decode_postings(row.blob, row.offset)
            doc_parts.append(doc_ids)
            w_parts.append(tfidf_weight_vec(tfs, row.df, n) * w_tq)
        if not doc_parts:
            return []
        docs = np.concatenate(doc_parts)
        contribs = np.concatenate(w_parts)
        order = np.argsort(docs, kind="stable")  # stable: preserves term order
        docs, contribs = docs[order], contribs[order]
        uniq, starts = np.unique(docs, return_index=True)
        scores = np.add.reduceat(contribs, starts)
        query_norm = math.sqrt(query_norm)
        if query_norm > 0:
            norms = self._norms()[uniq]
            nz = norms != 0
            scores[nz] = scores[nz] / (query_norm * norms[nz])
        uniq, scores = self._drop_deleted(uniq, scores)
        return _topk(uniq, scores, top_k)

    def search_boolean(
        self, query: str, mode: str = "and", exclude: str | None = None
    ) -> np.ndarray:
        """Unranked boolean retrieval over the inverted index: sorted
        doc_ids of documents containing ALL query terms (``mode="and"``,
        posting-list intersection — the PostgreSQL-GIN ``@@ to_tsquery``
        shape the reference benchmarks against, Experiments.py) or ANY
        (``mode="or"``, union). ``exclude`` removes documents containing
        ANY of its terms (AND-NOT / OR-NOT). Vectorized:
        np.intersect1d/union1d/setdiff1d over decoded posting doc_ids;
        an AND with any absent term is empty. Hash-checked vs DuckDB
        HAVING-count / EXCEPT oracles (contracts ``boolean_and_simple``,
        ``boolean_or_simple``, ``boolean_andnot_simple``)."""
        assert mode in ("and", "or")
        if exclude is not None:
            base = self.search_boolean(query, mode=mode)
            if not base.size:
                return base
            drop = self.search_boolean(exclude, mode="or")
            return np.setdiff1d(base, drop, assume_unique=True)
        terms = self.analyzer.preprocess_query(query)
        if not terms:
            return np.array([], dtype=np.int64)
        rows = self.lookup(sorted(terms))
        if mode == "and" and len(rows) < len(terms):
            return np.array([], dtype=np.int64)
        lists = []
        for t in sorted(rows):
            row = rows[t]
            doc_ids, _ = decode_postings(row.blob, row.offset)
            lists.append(doc_ids)
        if not lists:
            return np.array([], dtype=np.int64)
        # intersect smallest-first: each step's cost is bounded by the
        # smallest remaining list
        lists.sort(key=len)
        out = lists[0]
        for other in lists[1:]:
            if mode == "and":
                out = np.intersect1d(out, other, assume_unique=True)
                if out.size == 0:
                    return out.astype(np.int64)
            else:
                out = np.union1d(out, other)
        return self._drop_deleted(out.astype(np.int64))

    def search_bm25(
        self,
        query: str,
        top_k: int = 10,
        algorithm: str = "auto",
        k1: float = BM25_K1,
        b: float = BM25_B,
    ) -> list[tuple[int, float]]:
        terms = self.analyzer.preprocess_query(query)
        if not terms:
            return []
        rows = self.lookup(sorted(terms))
        present = [t for t in sorted(terms) if t in rows]
        if not present:
            return []
        seg_rows = [rows[t] for t in present]
        # The stored per-block max_bm25 upper bounds are valid only for
        # the BUILD-time (k1, b) (manifest.bm25_k1/bm25_b) and the global
        # stats of one generation. For other parameters, or on a tiered
        # index, WAND could prune true top-k docs — use exhaustive TAAT,
        # which is exact for both (compact_tiers restores WAND).
        build_params = (
            getattr(self.manifest, "bm25_k1", BM25_K1),
            getattr(self.manifest, "bm25_b", BM25_B),
        )
        if (k1, b) != build_params or self._multi_gen:
            return self._bm25_taat(seg_rows, top_k, k1, b)
        if algorithm == "auto":
            # Windowed block-max WAND (span decode + buffered vectorized
            # merges) beats TAAT in BOTH the dense regime (threshold
            # filtering shrinks the merges; measured 8.0ms vs 9.9ms p50
            # on the 40k-page/20k-vocab bench index) and the selective
            # regime (block skips engage; 5.2ms vs 7.6ms). TAAT only wins
            # on tiny lists where WAND's fixed setup dominates (0.14ms vs
            # 0.24ms at ~200 postings).
            total = sum(r.df for r in seg_rows)
            algorithm = "wand" if total > 20_000 else "taat"
        if algorithm == "wand":
            return self._bm25_wand(seg_rows, top_k, k1, b)
        return self._bm25_taat(seg_rows, top_k, k1, b)

    def _bm25_taat(self, seg_rows: list[SegmentRow], top_k: int, k1: float, b: float) -> list[tuple[int, float]]:
        n = self.manifest.n_docs
        avgdl = self.manifest.avgdl or 1.0
        dl_dense = self._doclens()
        doc_parts, s_parts = [], []
        for row in seg_rows:
            doc_ids, tfs = decode_postings(row.blob, row.offset)
            s_parts.append(
                bm25_contrib(bm25_idf(row.df, n), tfs, dl_dense[doc_ids], avgdl, k1, b)
            )
            doc_parts.append(doc_ids)
        docs = np.concatenate(doc_parts)
        contribs = np.concatenate(s_parts)
        order = np.argsort(docs, kind="stable")
        docs, contribs = docs[order], contribs[order]
        uniq, starts = np.unique(docs, return_index=True)
        scores = np.add.reduceat(contribs, starts)
        uniq, scores = self._drop_deleted(uniq, scores)
        return _topk(uniq, scores, top_k)

    def _bm25_wand(self, seg_rows: list[SegmentRow], top_k: int, k1: float, b: float) -> list[tuple[int, float]]:
        """Windowed block-max WAND: doc space is consumed in windows
        bounded by the nearest block boundary across live cursors; a
        window whose summed per-block upper bounds cannot beat the
        current threshold is skipped WITHOUT decoding any block, and a
        surviving window is scored fully vectorized (per-cursor numpy
        slices, one stable sort + reduceat merge — the same float
        addition order as TAAT, so scores are bit-identical).

        This replaces the round-1 posting-at-a-time Python pivot loop
        (1.4M next_geq calls / 770k list sorts for the bench query set,
        ~10x slower than TAAT in the dense regime where nothing can be
        skipped). Windowed scoring makes the dense-regime overhead a
        small constant over TAAT while keeping block-granular skips for
        the selective regime.
        """
        n = self.manifest.n_docs
        avgdl = self.manifest.avgdl or 1.0
        dl_dense = self._doclens()
        cursors = [
            _BlockCursor(row, bm25_idf(row.df, n)) for row in seg_rows if len(row.blob)
        ]
        cursors = [c for c in cursors if not c.done]
        # running top-k as parallel arrays (canonical (-score, doc_id))
        top_docs = np.empty(0, dtype=np.int64)
        top_scores = np.empty(0, dtype=np.float64)
        theta = -math.inf
        # scored-but-unmerged window buffers: windows cover disjoint,
        # increasing doc ranges, so deferring the merge keeps exactness
        # (theta just updates less often)
        buf_d: list[np.ndarray] = []
        buf_s: list[np.ndarray] = []
        buf_n = 0
        w_blocks = 1  # adaptive window width in blocks (1..32)

        def flush():
            nonlocal top_docs, top_scores, theta, buf_d, buf_s, buf_n
            if not buf_d:
                return
            docs = np.concatenate(buf_d)
            contribs = np.concatenate(buf_s)
            buf_d, buf_s, buf_n = [], [], 0
            order = np.argsort(docs, kind="stable")  # stable: term order per doc
            docs, contribs = docs[order], contribs[order]
            uniq, starts = np.unique(docs, return_index=True)
            sums = np.add.reduceat(contribs, starts)
            # tombstones drop BEFORE the threshold/heap update, so theta
            # only ever reflects surviving docs (exactness + TAAT parity)
            uniq, sums = self._drop_deleted(uniq, sums)
            if math.isfinite(theta):
                keep = sums >= theta
                uniq, sums = uniq[keep], sums[keep]
            if uniq.size:
                cand_d = np.concatenate((top_docs, uniq))
                cand_s = np.concatenate((top_scores, sums))
                sel = np.lexsort((cand_d, -cand_s))[:top_k]
                top_docs, top_scores = cand_d[sel], cand_s[sel]
                if top_docs.size >= top_k:
                    theta = float(top_scores[-1])

        while True:
            live = [c for c in cursors if not c.done]
            if not live:
                break
            w_end = live[0].span_end(w_blocks)
            for c in live[1:]:
                e = c.span_end(w_blocks)
                if e < w_end:
                    w_end = e
            active = [c for c in live if c.lb <= w_end]
            ub = 0.0
            for c in active:
                ub += c.span_max(w_end)
            # strict <: a window tying the threshold may still win on the
            # doc_id tie-break, so it must be examined
            if ub < theta:
                for c in active:
                    c.skip_to(w_end + 1)
                # narrow the window so skips stay block-granular
                w_blocks = max(w_blocks >> 1, 1)
                continue
            # widen scoring windows while pruning isn't engaging: in the
            # dense regime this drives per-window overhead toward zero
            w_blocks = min(w_blocks << 1, 32)
            for c in active:
                buf_n += c.take_scored(w_end, dl_dense, k1, b, avgdl, buf_d, buf_s)
            if buf_n >= 8192:
                flush()
        flush()
        return [(int(d), float(s)) for d, s in zip(top_docs, top_scores)]


class _BlockCursor:
    """Block-granular posting-list cursor for windowed WAND.

    State is the lower bound ``lb`` of the next unconsumed doc and the
    index of the block containing it; blocks decode lazily (a skipped
    block is never decoded) and the decoded arrays are kept only while
    the cursor is inside that block.
    """

    __slots__ = ("row", "idf", "lb", "block_idx", "done",
                 "_last", "_maxs", "_nblocks", "_docs", "_tfs", "_pos",
                 "_span_lo", "_span_hi", "_span_last")

    def __init__(self, row: SegmentRow, idf: float):
        self.row = row
        self.idf = idf
        self._last = row.last_doc  # np.ndarray of per-block last doc_ids
        self._maxs = row.max_bm25
        self._nblocks = int(self._last.size)
        self.lb = 0
        self.block_idx = 0
        self.done = self._nblocks == 0
        self._docs: np.ndarray | None = None
        self._tfs: np.ndarray | None = None
        self._pos = 0
        self._span_lo = 0
        self._span_hi = -1
        self._span_last = -1

    def span_end(self, w_blocks: int) -> int:
        """Last doc covered by the next ``w_blocks`` blocks from here."""
        hi = self.block_idx + w_blocks - 1
        if hi >= self._nblocks:
            hi = self._nblocks - 1
        return int(self._last[hi])

    def span_max(self, w_end: int) -> float:
        """Upper bound of this term's contribution for docs <= w_end
        (max of block maxes over the intersecting blocks)."""
        hi = int(np.searchsorted(self._last, w_end)) + 1
        if hi > self._nblocks:
            hi = self._nblocks
        return float(self._maxs[self.block_idx : hi].max())

    def _block_at(self, doc: int) -> int:
        """Index of the block containing the first doc >= ``doc`` within
        the current span."""
        rel = int(np.searchsorted(self._last[self._span_lo : self._span_hi + 1], doc))
        return self._span_lo + rel

    def skip_to(self, target: int) -> None:
        """Advance lb; decodes nothing (block metadata only) unless the
        target lands inside the already-decoded span."""
        if self.done:
            return
        self.lb = target
        if self._docs is not None and target <= self._span_last:
            self._pos = int(np.searchsorted(self._docs, target))
            self.block_idx = self._block_at(target)
            return
        if target > self._last[self.block_idx]:
            idx = int(np.searchsorted(self._last, target))
            if idx >= self._nblocks:
                self.done = True
                return
            self.block_idx = idx
        self._docs = self._tfs = None
        self._pos = 0

    def take_scored(
        self,
        w_end: int,
        dl_dense: np.ndarray,
        k1: float,
        b: float,
        avgdl: float,
        out_d: list[np.ndarray],
        out_s: list[np.ndarray],
    ) -> int:
        """Score and consume postings with lb <= doc <= w_end, appending
        (docs, contribs) slices to the buffers; returns postings added.
        Decodes every block the window covers in ONE span decode."""
        if self.done or self.lb > w_end:
            return 0
        added = 0
        while True:
            if self._docs is None:
                hi = int(np.searchsorted(self._last, w_end))
                if hi >= self._nblocks:
                    hi = self._nblocks - 1
                elif hi < self.block_idx:
                    hi = self.block_idx
                d, t = decode_span(self.row.blob, self.row.offset, self.block_idx, hi)
                self._docs, self._tfs = d, t
                self._span_lo, self._span_hi = self.block_idx, hi
                self._span_last = int(self._last[hi])
                self._pos = int(np.searchsorted(d, self.lb))
            i1 = int(np.searchsorted(self._docs, w_end, side="right"))
            if i1 > self._pos:
                docs = self._docs[self._pos : i1]
                out_d.append(docs)
                out_s.append(bm25_contrib(
                    self.idf, self._tfs[self._pos : i1], dl_dense[docs], avgdl, k1, b
                ))
                added += docs.size
            if i1 >= self._docs.size:
                # span fully consumed
                if self._span_hi + 1 >= self._nblocks:
                    self.done = True
                    return added
                self.block_idx = self._span_hi + 1
                self._docs = self._tfs = None
                self._pos = 0
                if self._span_last >= w_end:
                    # the span reached the window end: nothing further in
                    # range, don't decode past it
                    break
            else:
                self._pos = i1
                self.block_idx = self._block_at(int(self._docs[i1]))
                break
        self.lb = w_end + 1
        return added


def _topk(doc_ids: np.ndarray, scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Canonical (-score, doc_id) top-k (SURVEY.md §2.9.5)."""
    if doc_ids.size == 0:
        return []
    k = min(k, doc_ids.size)
    idx = np.lexsort((doc_ids, -scores))[:k]
    return [(int(doc_ids[i]), float(scores[i])) for i in idx]
