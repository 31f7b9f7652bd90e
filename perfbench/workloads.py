"""The three workloads: ingest, query_head and query_tail.

One process runs a closed-loop client: each operation starts when
the previous one has returned. Ray pipelines are timed in busy CPU
seconds of the VM (/proc/stat), queries in the client's process CPU
time, because the host is a shared VM whose steal time moves wall
clocks. Wall-clock twins go to the per-layer output.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import weakref
from collections import defaultdict

import numpy as np

from perfbench import inputs
from perfbench.measure import (
    Calibrator,
    CpuDelta,
    LookupBook,
    Tracer,
    cpu_delta,
    highest_percentile,
    per_query_medians,
    percentile,
    read_proc_stat,
    self_time,
)

NUM_BUCKETS = 8  # bench.py's pages index layout
QUERY_PATTERN = ("bm25", "tfidf", "bm25", "tfidf", "sql")  # query_tail's op mix
HEAD_SQL_POOL = 24  # pool queries that also run as SQL in each replay round
INGEST_SQL_POOL = 16
TAIL_REPEATS = 3  # searchers each tail query runs on, a row-cache miss in each
TAIL_CHUNK = 40  # tail queries whose repeats are interleaved
REPLAY_ROUNDS = 100  # more rounds than any run reaches before its deadline
VERIFY_EVERY = 5  # every 5th bm25/tfidf result is checked against the oracle
VERIFY_MAX = 60
SCORE_TOL = 1e-9
BLOCK_S = 0.5  # query ops between two host-speed probes
REF_PROBE_MS = 20.0  # calibration probe time that defines reference speed
RAY_TMP_MAX = 40
BUILD_REPEATS = 3

E2E = {
    "setup_s": "s",
    "build_docs_per_cpu_s": "docs/CPU-s",
    "index_bytes_per_text_byte": "ratio",
    "bm25_p50_ms": "ms",
    "bm25_p99_ms": "ms",
    "tfidf_p50_ms": "ms",
    "tfidf_p99_ms": "ms",
    "sql_p50_ms": "ms",
    "sql_p90_ms": "ms",
}

# name: (unit, which direction is better)
LAYER = {
    "failed_frac": ("ratio", "lower"),
    "bm25.samples": ("count", "higher"),
    "tfidf.samples": ("count", "higher"),
    "sql.samples": ("count", "higher"),
    "bm25.queries": ("count", "higher"),
    "tfidf.queries": ("count", "higher"),
    "sql.queries": ("count", "higher"),
    "bm25.supported_pctl": ("percentile", "higher"),
    "tfidf.supported_pctl": ("percentile", "higher"),
    "sql.supported_pctl": ("percentile", "higher"),
    "append_docs_per_cpu_s": ("docs/CPU-s", "higher"),
    "compact_docs_per_cpu_s": ("docs/CPU-s", "higher"),
    "pipeline.ingest_cpu_s": ("CPU-s", "lower"),
    "pipeline.append_antijoin_cpu_s": ("CPU-s", "lower"),
    "extract.mb_per_cpu_s": ("MB/CPU-s", "higher"),
    "postings.tokens_per_cpu_s": ("tokens/CPU-s", "higher"),
    "build.postings_s": ("s", "lower"),
    "analyzer.query_us": ("us", "lower"),
    "build.index_cpu_s": ("CPU-s", "lower"),
    "build.avgdl_s": ("s", "lower"),
    "build.df_s": ("s", "lower"),
    "build.docstats_s": ("s", "lower"),
    "build.cpu_util": ("ratio", "higher"),
    "segments.merge_rows_per_cpu_s": ("rows/CPU-s", "higher"),
    "codec.encode_postings_per_cpu_s": ("postings/CPU-s", "higher"),
    "codec.bytes_per_posting": ("bytes", "lower"),
    "index.segments_bytes_per_text_byte": ("ratio", "lower"),
    "index.postings_raw_bytes_per_text_byte": ("ratio", "lower"),
    "index.stats_bytes_per_text_byte": ("ratio", "lower"),
    "incremental.tiered_add_s": ("s", "lower"),
    "incremental.merge_input_rows_per_new_doc": ("ratio", "lower"),
    "incremental.finish_add_cpu_s": ("CPU-s", "lower"),
    "deletes.compact_other_cpu_s": ("CPU-s", "lower"),
    "deletes.delete_ms": ("ms", "lower"),
    "deletes.undeletable_docs": ("count", "lower"),
    "append.bytes_written_per_new_text_byte": ("ratio", "lower"),
    "compact.bytes_rewritten_per_live_text_byte": ("ratio", "lower"),
    "query.lookup_ms": ("ms", "lower"),
    "query.lookup_share": ("ratio", "lower"),
    "query.lookup_miss_frac": ("ratio", "lower"),
    "query.lookup_rows_per_term": ("count", "lower"),
    "query.lookup_blob_kb": ("KiB", "lower"),
    "codec.decode_ms": ("ms", "lower"),
    "codec.postings_decoded": ("count", "lower"),
    "query.blocks_decoded_frac": ("ratio", "lower"),
    "query.wand_frac": ("ratio", "higher"),
    "query.score_ms": ("ms", "lower"),
    "query.postings_per_result": ("ratio", "lower"),
    "query.docstats_load_ms": ("ms", "lower"),
    "sqlfront.parse_us": ("us", "lower"),
    "sqlfront.materialize_ms": ("ms", "lower"),
    "sqlfront.materialize_frac": ("ratio", "lower"),
    "host.ray_cpus": ("count", "higher"),
    "host.steal_frac": ("ratio", "lower"),
    "host.idle_frac": ("ratio", "lower"),
    "host.calib_ms": ("ms", "lower"),
    "host.calib_end_ms": ("ms", "lower"),
    "host.speed": ("ratio", "higher"),
    "build.docs_per_wall_s": ("docs/s", "higher"),
    "query.bm25_wall_p50_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# public program names wrapped in the traced run: (module, class, attribute)
TRACED = [
    ("pyfuseray.analyzer", "Analyzer", "preprocess_query"),
    ("pyfuseray.query", "IndexSearcher", "lookup"),
    ("pyfuseray.query", "IndexSearcher", "search_bm25"),
    ("pyfuseray.query", "IndexSearcher", "search_tfidf"),
    ("pyfuseray.query", "IndexSearcher", "_load_docstats"),
    ("pyfuseray.query", None, "decode_postings"),
    ("pyfuseray.query", None, "decode_span"),
    ("pyfuseray.sqlfront", None, "execute_sql"),
    ("pyfuseray.sqlfront", None, "parse_query"),
    ("pyfuseray.pipeline", None, "build_from_pages"),
    ("pyfuseray.pipeline", None, "build_index"),
    ("pyfuseray.pipeline", None, "append_pages"),
    ("pyfuseray.incremental", None, "add_documents"),
    ("pyfuseray.incremental", None, "finish_add"),
    ("pyfuseray.deletes", None, "delete_documents"),
    ("pyfuseray.deletes", None, "compact"),
]
# spans that run Ray pipelines: their CPU is the VM's busy time
VM_SPANS = frozenset({
    "pipeline.build_from_pages", "pipeline.build_index", "pipeline.append_pages",
    "incremental.add_documents", "incremental.finish_add", "deletes.compact",
})


class WorkloadTimeout(BaseException):
    """Raised by the run's alarm; a BaseException so per-op handlers let
    it through to the workload's finally blocks."""


def _span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[1]}.{attr.lstrip('_')}"


class Instrumentation:
    """Wraps the TRACED names with span recorders; ``remove`` restores
    the originals. Per-call counts (terms, misses, blocks, postings,
    results) are stored on the span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.books: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, cls, attr in TRACED:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            setattr(owner, attr, self._wrap(orig, _span_name(module, attr), attr))
            self._saved.append((owner, attr, orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, orig, name: str, attr: str):
        tracer = self.tracer
        count = getattr(self, f"_count_{attr.lstrip('_')}", None)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = orig(*args, **kwargs)
                if count is not None:
                    count(tracer.spans[idx].counts, args, out)
                return out
            finally:
                tracer.close(idx)

        return traced

    def _count_lookup(self, c, args, out):
        searcher, terms = args[0], list(args[1])
        book = self.books.setdefault(searcher, LookupBook())
        c["terms"] = len(terms)
        c["misses"] = book.record(terms)
        c["gens"] = 1 + len(getattr(searcher.manifest, "seg_generations", None) or [])
        c["blob_bytes"] = sum(len(r.blob) for r in out.values())
        c["blocks"] = sum(len(r.offset) for r in out.values())

    @staticmethod
    def _count_decode_postings(c, args, out):
        c["blocks"] = len(args[1])
        c["postings"] = len(out[0])

    @staticmethod
    def _count_decode_span(c, args, out):
        c["blocks"] = args[3] - args[2] + 1
        c["postings"] = len(out[0])

    @staticmethod
    def _count_search_bm25(c, args, out):
        c["results"] = len(out)

    _count_search_tfidf = _count_search_bm25


def dir_bytes(path: str, prefix: str = "", since: float | None = None) -> int:
    """Bytes of the files under ``path`` whose path below it starts with
    ``prefix`` (and, with ``since``, that were modified after it)."""
    total = 0
    for dp, _, files in os.walk(path):
        for f in files:
            p = os.path.join(dp, f)
            if not os.path.relpath(p, path).startswith(prefix):
                continue
            st = os.stat(p)
            if since is None or st.st_mtime >= since:
                total += st.st_size
    return total


def text_bytes(docs: dict[int, tuple[str, str]]) -> int:
    return sum(len(t.encode("utf-8")) for _, t in docs.values())


class Run:
    """State of one benchmark run: counters, samples, spans, work dirs."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 trace: bool, size: inputs.Size):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        # kind -> query -> scaled CPU ms of each timed repeat
        self.lat: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.samples: list[tuple[str, str, object]] = []
        # queries with fewer timed repeats (cut by the deadline) are left
        # out of the percentiles
        self.min_repeats = 1
        self.host = CpuDelta(0, 0, 0)
        self.calib = Calibrator()
        self.probes: list[float] = []
        self.ray_cpus = len(os.sched_getaffinity(0))
        runs = os.path.join(root, ".bench_runs")
        self.work = os.path.join(runs, f"{workload}-{seed}-{os.getpid()}")
        self.ray_tmp = os.path.join(runs, f"r{os.getpid()}")
        if len(self.ray_tmp) > RAY_TMP_MAX:
            # Ray's sockets live about 63 characters below its temp dir
            # and AF_UNIX paths stop at 107; a deep checkout falls back to
            # a short private dir under the system temp dir
            self.ray_tmp = tempfile.mkdtemp(prefix="pbray")
        self.tracer = Tracer(VM_SPANS) if trace else None
        self.instr = Instrumentation(self.tracer) if trace else None
        self._ray_up = False

    # -- lifecycle --------------------------------------------------------
    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        if self.instr:
            self.instr.install()
        return self

    def __exit__(self, *exc):
        if self.instr:
            self.instr.remove()
        self.stop_ray()
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.rmtree(self.ray_tmp, ignore_errors=True)
        return False

    def start_ray(self) -> None:
        import ray
        from ray.data import DataContext

        # workers import the program from the checkout, not this process's sys.path
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.root, os.environ.get("PYTHONPATH")) if p
        )
        ray.init(
            address="local", num_cpus=self.ray_cpus, include_dashboard=False,
            logging_level="ERROR",
            object_store_memory=512 * 1024 * 1024, _temp_dir=self.ray_tmp,
        )
        self._ray_up = True
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False

    def stop_ray(self) -> None:
        if self._ray_up:
            import ray

            ray.shutdown()
            self._ray_up = False

    # -- operations -------------------------------------------------------
    def _speed(self, probe0: float) -> float:
        """Host speed over an interval bounded by two calibration probes:
        REF_PROBE_MS over their mean (1.0 = reference speed, <1 slower)."""
        probe1 = self.calib.probe_ms()
        self.probes.append(probe1)
        return REF_PROBE_MS / max((probe0 + probe1) / 2, 1e-9)

    def _account(self, d: CpuDelta) -> None:
        self.host = CpuDelta(self.host.busy + d.busy, self.host.idle + d.idle,
                             self.host.steal + d.steal)

    def pipeline(self, fn):
        """Run one Ray pipeline op; returns (result, busy CPU-s, wall s).
        Busy CPU is not scaled by calibration probes: over five runs per
        workload, scaling by the probes around each build or by a run's
        median probe spread build throughput as much as or more than the
        raw busy CPU did (0.08-0.23 against 0.09-0.17)."""
        self.attempted += 1
        s0, w0 = read_proc_stat(), time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, 0.0, 0.0
        wall = time.perf_counter() - w0
        d = cpu_delta(s0, read_proc_stat())
        self._account(d)
        return out, d.busy_s(), wall

    def op(self, fn):
        """One client op; returns (result, process-CPU ms, wall ms), or
        None when it raised."""
        self.attempted += 1
        if self.tracer:
            self.tracer.request = self.attempted
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            if self.tracer:
                self.tracer.request = None
        return out, (time.process_time() - c0) * 1000.0, (time.perf_counter() - w0) * 1000.0

    def check(self, ok: bool, what: str) -> None:
        """A verification outside the timed ops; a mismatch is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"verification failed: {what}", file=sys.stderr)

    def timed_loop(self, seconds, searchers, plan, index_dir, corpus_path):
        """Closed loop over ``plan``, a list of (kind, query, index into
        ``searchers``) ops with kind bm25 / tfidf / sql, for ``seconds``. Ops run
        in blocks of BLOCK_S between calibration probes, and each latency
        is scaled to reference host speed by its block's probes. The first
        result of a sampled (kind, query) is kept for verification.
        Returns the number of ops run."""
        from pyfuseray import sqlfront

        ops = {
            "bm25": lambda s, q: s.search_bm25(q, 10),
            "tfidf": lambda s, q: s.search_tfidf(q, 10),
            "sql": lambda s, q: sqlfront.execute_sql(
                inputs.sql_for(q), index_dir, corpus_path, searcher=s),
        }
        kept: dict[str, int] = defaultdict(int)
        n_kind: dict[str, int] = defaultdict(int)
        seen: set[tuple[str, str]] = set()
        # the benchmark's own inputs and expected corpus would otherwise be
        # traversed by every full collection the program's queries trigger
        gc.collect()
        gc.freeze()
        s0 = read_proc_stat()
        deadline = time.perf_counter() + seconds
        i = 0
        probe = self.calib.probe_ms()
        while time.perf_counter() < deadline and i < len(plan):
            block: list[tuple[str, str, float, float]] = []
            block_end = min(deadline, time.perf_counter() + BLOCK_S)
            while time.perf_counter() < block_end and i < len(plan):
                kind, q, r = plan[i]
                i += 1
                got = self.op(lambda: ops[kind](searchers[r], q))
                if got is None:
                    continue
                out, cpu_ms, wall_ms = got
                block.append((kind, q, cpu_ms, wall_ms))
                if (kind, q) in seen:
                    continue
                seen.add((kind, q))
                n_kind[kind] += 1
                if (kind == "sql" or n_kind[kind] % VERIFY_EVERY == 1) \
                        and kept[kind] < VERIFY_MAX:
                    kept[kind] += 1
                    self.samples.append((kind, q, out))
            speed = self._speed(probe)
            probe = self.probes[-1]
            for kind, q, cpu_ms, wall_ms in block:
                self.lat[kind][q].append(cpu_ms * speed)
                self.wall[kind].append(wall_ms)
        self._account(cpu_delta(s0, read_proc_stat()))
        gc.unfreeze()
        return i

    # -- reporting --------------------------------------------------------
    def latency_metrics(self) -> None:
        """Percentiles over queries of each query's median latency."""
        for kind, hi in (("bm25", 99), ("tfidf", 99), ("sql", 90)):
            by_query = self.lat.get(kind) or {}
            xs = per_query_medians(by_query, self.min_repeats)
            self.layer[f"{kind}.samples"] = sum(len(v) for v in by_query.values())
            self.layer[f"{kind}.queries"] = len(xs)
            self.layer[f"{kind}.supported_pctl"] = highest_percentile(len(xs))
            if xs:
                self.e2e[f"{kind}_p50_ms"] = statistics.median(xs)
                self.e2e[f"{kind}_p{hi}_ms"] = percentile(xs, hi)
        if self.wall.get("bm25"):
            self.layer["query.bm25_wall_p50_ms"] = statistics.median(self.wall["bm25"])

    def result(self) -> dict:
        names = {n: u for n, (u, _) in LAYER.items()} if self.trace else E2E
        src = self.layer if self.trace else self.e2e
        if self.trace:
            self.layer["failed_frac"] = self.failed / max(1, self.attempted)
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed if self.attempted else 1,
            "metrics": {
                n: {"value": float(src.get(n, 0.0)), "unit": u} for n, u in names.items()
            },
        }


# -- oracle ---------------------------------------------------------------
class Oracle:
    """``oracle.OracleIndex`` over a doc set; term frequencies are memoised
    per text so several doc sets of one run tokenize each text once."""

    def __init__(self):
        from pyfuseray.analyzer import Analyzer

        class _Memo(Analyzer):
            def __init__(self):
                super().__init__()
                self.memo: dict[str, dict[str, int]] = {}

            def term_frequencies(self, text):
                tf = self.memo.get(text)
                if tf is None:
                    tf = self.memo[text] = super().term_frequencies(text)
                return tf

        self._analyzer = _Memo()

    def index(self, docs: dict[int, tuple[str, str]]):
        from pyfuseray.oracle import OracleIndex

        return OracleIndex(analyzer=self._analyzer).build(
            [(i, t) for i, (_, t) in sorted(docs.items())]
        )


def same_topk(got, want) -> bool:
    return (
        got is not None
        and [d for d, _ in got] == [d for d, _ in want]
        and all(abs(a - b) <= SCORE_TOL for (_, a), (_, b) in zip(got, want))
    )


def verify_samples(run: Run, oracle_ix, docs, searcher, deleted=frozenset()) -> None:
    """Stored BM25/TF-IDF results against the oracle (tombstoned ids
    filtered from its full ranking) and SQL rows against the searcher's
    TF-IDF top-k order."""
    k_all = 10 + len(deleted)
    for kind, q, got in run.samples:
        if kind == "sql":
            want = searcher.search_tfidf(q, 10)
            urls = got.column("url").to_pylist() if got is not None else None
            ok = urls == [docs[d][0] for d, _ in want] and all(
                abs(a - b) <= SCORE_TOL
                for a, (_, b) in zip(got.column("score").to_pylist(), want)
            )
            run.check(ok, f"sql order {q!r}")
            continue
        fn = oracle_ix.search_bm25 if kind == "bm25" else oracle_ix.search_tfidf
        want = [(d, s) for d, s in fn(q, k_all) if d not in deleted][:10]
        run.check(same_topk(got, want), f"{kind} vs oracle {q!r}")
    run.samples.clear()


# -- per-layer analysis ---------------------------------------------------
def query_layers(run: Run) -> None:
    """Per-query layer costs of the timed BM25 ops (process CPU), SQL
    materialisation, and analyzer/parse self times, from the spans."""
    spans = run.tracer.spans
    by_req: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.request is not None:
            by_req[s.request].append(i)
    bm = defaultdict(float)
    n_bm = n_pre = n_sql = n_parse = 0
    pre_cpu = sql_cpu = sql_self = parse_cpu = 0.0
    for idxs in by_req.values():
        root = spans[idxs[0]]
        for i in idxs:
            s = spans[i]
            if s.name == "analyzer.preprocess_query":
                n_pre += 1
                pre_cpu += s.cpu
            elif s.name == "sqlfront.parse_query":
                n_parse += 1
                parse_cpu += s.cpu
        if root.name == "sqlfront.execute_sql":
            n_sql += 1
            sql_cpu += root.cpu
            # execute_sql minus its parse and search children
            sql_self += self_time(spans, idxs[0], "cpu")
            continue
        if root.name != "query.search_bm25":
            continue
        n_bm += 1
        bm["cpu"] += root.cpu
        bm["score"] += self_time(spans, idxs[0], "cpu")
        bm["results"] += root.counts.get("results", 0)
        used_span = False
        for i in idxs[1:]:
            s = spans[i]
            if s.name == "query.lookup":
                bm["lookup"] += s.cpu
                for k in ("terms", "misses", "blob_bytes", "blocks"):
                    bm[f"lk_{k}"] += s.counts.get(k, 0)
                bm["gens"] = max(bm["gens"], s.counts.get("gens", 0))
            elif s.name.startswith("query.decode_"):
                bm["decode"] += s.cpu
                bm["dec_blocks"] += s.counts.get("blocks", 0)
                bm["postings"] += s.counts.get("postings", 0)
                used_span |= s.name == "query.decode_span"
        bm["wand"] += used_span
    L = run.layer
    if n_bm:
        L["query.lookup_ms"] = 1000 * bm["lookup"] / n_bm
        L["query.lookup_share"] = bm["lookup"] / max(bm["cpu"], 1e-12)
        L["query.lookup_miss_frac"] = bm["lk_misses"] / max(1, bm["lk_terms"])
        L["query.lookup_rows_per_term"] = bm["gens"]
        L["query.lookup_blob_kb"] = bm["lk_blob_bytes"] / 1024 / n_bm
        L["codec.decode_ms"] = 1000 * bm["decode"] / n_bm
        L["codec.postings_decoded"] = bm["postings"] / n_bm
        L["query.blocks_decoded_frac"] = bm["dec_blocks"] / max(1, bm["lk_blocks"])
        L["query.wand_frac"] = bm["wand"] / n_bm
        L["query.score_ms"] = 1000 * bm["score"] / n_bm
        L["query.postings_per_result"] = bm["postings"] / max(1, bm["results"])
    if n_pre:
        L["analyzer.query_us"] = 1e6 * pre_cpu / n_pre
    if n_parse:
        L["sqlfront.parse_us"] = 1e6 * parse_cpu / n_parse
    if n_sql:
        L["sqlfront.materialize_ms"] = 1000 * sql_self / n_sql
        L["sqlfront.materialize_frac"] = sql_self / max(sql_cpu, 1e-12)
    loads = [s.cpu for s in spans if s.name == "query.load_docstats"]
    if loads:
        L["query.docstats_load_ms"] = 1000 * statistics.median(loads)


def pipeline_layers(run: Run, build_name: str = "pipeline.build_from_pages") -> None:
    """Self busy-CPU of the Ray pipeline spans (maintenance layers)."""
    spans = run.tracer.spans
    L = run.layer
    builds = [i for i, s in enumerate(spans) if s.name == build_name and s.parent is None]
    if builds:
        i = builds[-1]  # the base build; the warm-up build comes first
        L["pipeline.ingest_cpu_s"] = self_time(spans, i, "busy_cpu")
        L["build.index_cpu_s"] = sum(
            spans[k].busy_cpu for k in spans[i].kids if spans[k].name == "pipeline.build_index"
        )
    appends = [i for i, s in enumerate(spans) if s.name == "pipeline.append_pages"]
    L["pipeline.append_antijoin_cpu_s"] = sum(self_time(spans, i, "busy_cpu") for i in appends)
    for i, s in enumerate(spans):
        if s.name == "deletes.compact":
            L["deletes.compact_other_cpu_s"] = self_time(spans, i, "busy_cpu")
        elif s.name == "incremental.finish_add" and s.parent is not None \
                and spans[s.parent].name == "deletes.compact":
            L["incremental.finish_add_cpu_s"] = s.busy_cpu
        elif s.name == "deletes.delete_documents":
            L["deletes.delete_ms"] = 1000 * s.cpu


def ledger_layers(run: Run, index_dir: str) -> None:
    """Build stages the program records in manifest.json."""
    from pyfuseray.checkpoint import load_manifest

    m = load_manifest(index_dir)
    if m is None:
        return
    st = m.stages
    for stage in ("postings", "avgdl", "df", "docstats"):
        if stage in st:
            run.layer[f"build.{stage}_s"] = float(st[stage].get("wall_s", 0.0))
    if "compression" in st:
        run.layer["codec.bytes_per_posting"] = float(st["compression"]["bytes_per_posting"])


def index_layers(run: Run, index_dir: str, live_text_bytes: int) -> float:
    """Index bytes per live text byte, split by on-disk component."""
    L = run.layer
    tb = max(1, live_text_bytes)
    L["index.segments_bytes_per_text_byte"] = dir_bytes(index_dir, "segments") / tb
    L["index.postings_raw_bytes_per_text_byte"] = dir_bytes(index_dir, "postings_raw") / tb
    L["index.stats_bytes_per_text_byte"] = dir_bytes(index_dir, "stats") / tb
    return dir_bytes(index_dir) / tb


def kernel_replays(run: Run, pages) -> None:
    """Extract, tokenize, segment merge and posting encode replayed
    in-process on a fixed page sample (these stages run inside Ray
    workers, where the benchmark records no spans)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from pyfuseray import codec, extract, postings, segments

    sample = pages.slice(0, min(2_000, pages.num_rows))

    def cpu(fn, reps=3):
        fn()  # warm the per-process analyzer/stem caches
        ts = []
        for _ in range(reps):
            c0 = time.process_time()
            fn()
            ts.append(time.process_time() - c0)
        return max(statistics.median(ts), 1e-9)

    nbytes = sample.column("html").nbytes + sample.column("text").nbytes
    run.layer["extract.mb_per_cpu_s"] = nbytes / 1e6 / cpu(lambda: extract.extract_batch(sample))
    ext = extract.extract_batch(sample)
    docs = pa.table({"doc_id": pa.array(np.arange(ext.num_rows, dtype=np.int64)),
                     "text": ext.column("text")})
    runs = postings.tokenize_batch(docs, num_buckets=NUM_BUCKETS)
    tokens = int(pc.sum(runs.column("cf")).as_py())
    run.layer["postings.tokens_per_cpu_s"] = tokens / cpu(
        lambda: postings.tokenize_batch(docs, num_buckets=NUM_BUCKETS), reps=1)
    half = ext.num_rows // 2
    two = pa.concat_tables([postings.tokenize_batch(docs.slice(0, half), num_buckets=NUM_BUCKETS),
                            postings.tokenize_batch(docs.slice(half), num_buckets=NUM_BUCKETS)])
    run.layer["segments.merge_rows_per_cpu_s"] = two.num_rows / cpu(
        lambda: segments.merge_runs_group(two))
    rows = runs.slice(0, min(3_000, runs.num_rows))
    lists = [codec.decode_postings(b, np.asarray(o)) for b, o in zip(
        rows.column("blob").to_pylist(), rows.column("offset").to_pylist())]
    n_post = sum(len(d) for d, _ in lists)
    run.layer["codec.encode_postings_per_cpu_s"] = n_post / cpu(
        lambda: [codec.encode_postings(d, t) for d, t in lists], reps=1)


def tracing_overhead(run: Run, searcher, queries: list[str]) -> None:
    """BM25 CPU of already-cached queries with and without the span
    wrappers, alternated three times: traced / untraced - 1."""
    ratios = []
    for _ in range(3):
        times = {}
        for traced in (False, True):
            if not traced:
                run.instr.remove()
            c0 = time.process_time()
            for q in queries:
                searcher.search_bm25(q, 10)
            times[traced] = time.process_time() - c0
            if not traced:
                run.instr.install()
        ratios.append(times[True] / max(times[False], 1e-9))
    run.layer["trace.overhead_frac"] = statistics.median(ratios) - 1.0


def _host_layers(run: Run) -> None:
    run.layer["host.ray_cpus"] = run.ray_cpus
    if run.probes:
        run.layer["host.speed"] = REF_PROBE_MS / statistics.median(run.probes)
    run.layer["host.steal_frac"] = run.host.share(run.host.steal)
    run.layer["host.idle_frac"] = run.host.share(run.host.idle)


# -- query plans ----------------------------------------------------------
def round_plan(seed: int, pool: list[str], kinds: tuple[str, ...], n_sql: int) -> list:
    """Replay rounds over ``pool``, each a fresh seeded permutation: every
    query runs each of ``kinds``, and the first ``n_sql`` pool queries
    also run as SQL, all on searcher 0. Each query is timed once per
    round, so a run times it several times."""
    plan = []
    for i in inputs.replay_order(seed, len(pool), REPLAY_ROUNDS):
        plan += [(k, pool[i], 0) for k in kinds]
        if i < n_sql:
            plan.append(("sql", pool[i], 0))
    return plan


def tail_plan(seed: int, queries: list[str]) -> list:
    """Fresh queries, each on TAIL_REPEATS searchers, a miss in each
    searcher's own row cache; op kinds follow QUERY_PATTERN over the
    queries. Queries go in chunks of TAIL_CHUNK: each searcher in turn
    runs the whole chunk in its own seeded order, so the repeats of one
    query are about a second apart. The host's speed changes from one
    half second to the next, and a median over repeats made at
    different moments is what removes that."""
    rng = np.random.default_rng([seed, 19])
    plan = []
    for c in range(0, len(queries), TAIL_CHUNK):
        chunk = range(c, min(c + TAIL_CHUNK, len(queries)))
        for r in range(TAIL_REPEATS):
            plan += [(QUERY_PATTERN[j % len(QUERY_PATTERN)], queries[j], r)
                     for j in rng.permutation(chunk)]
    return plan


# -- workloads ------------------------------------------------------------
def _build(run: Run, pages_dir: str, ix: str, corpus: str):
    from pyfuseray import pipeline

    return run.pipeline(lambda: pipeline.build_from_pages(
        pages_dir, ix, corpus_dir=corpus, num_buckets=NUM_BUCKETS, overwrite=True))


def _measured_build(run: Run, pages_dir: str, ix: str, corpus: str):
    """Build the base corpus BUILD_REPEATS times, each overwriting the
    last; returns the last manifest with the median busy CPU and wall
    (one warm build's busy CPU varies by about 20% between builds)."""
    outs = [o for o in (_build(run, pages_dir, ix, corpus) for _ in range(BUILD_REPEATS))
            if o[0] is not None]
    if not outs:
        return None, 0.0, 0.0
    return outs[-1][0], statistics.median(o[1] for o in outs), statistics.median(o[2] for o in outs)


def _start_ray_warm(run: Run) -> None:
    """Start Ray and run a small build so the workers exist and have
    imported the program before anything is measured (the first build in
    a Ray session costs about twice the CPU of later ones)."""
    run.start_ray()
    warm = inputs.base_pages(run.seed + 1, inputs.WARMUP)
    d = os.path.join(run.work, "warmup")
    _build(run, inputs.write_shards(warm, d + "_pages", inputs.WARMUP.shard_rows),
           d + "_ix", d + "_corpus")


def _warm(searcher, queries, tfidf=True, sql_args=None) -> None:
    """Untimed warm pass: one batched ``lookup`` of every term the queries
    use (the row cache ends as a replay of all of them would leave it),
    then a few of each op so their code paths and lazy state are warm."""
    from pyfuseray import sqlfront

    terms = {t for q in queries for t in searcher.analyzer.preprocess_query(q)}
    searcher.lookup(sorted(terms))
    for q in queries[:10]:
        searcher.search_bm25(q, 10)
        if tfidf:
            searcher.search_tfidf(q, 10)
    for q in queries[:3] if sql_args else []:
        sqlfront.execute_sql(inputs.sql_for(q), *sql_args, searcher=searcher)


def run_ingest(run: Run) -> None:
    from pyfuseray import deletes, pipeline
    from pyfuseray.checkpoint import load_manifest
    from pyfuseray.query import IndexSearcher

    w, size, L = run.work, run.size, run.layer
    pages = inputs.base_pages(run.seed, size)
    apps = inputs.append_batches(run.seed, size, pages)
    pages_dir = inputs.write_shards(pages, os.path.join(w, "pages"), size.shard_rows)
    app_dirs = [inputs.write_shards(t, os.path.join(w, f"app{g}"), size.shard_rows)
                for g, t in enumerate(apps)]
    base_docs = inputs.expected_base(pages)
    all_docs = base_docs
    for t in apps:
        all_docs = inputs.expected_append(all_docs, t)
    pool = inputs.head_queries(run.seed, size)[: size.head_pool]
    ix, corpus = os.path.join(w, "ix"), os.path.join(w, "corpus")

    t0 = time.perf_counter()
    _start_ray_warm(run)
    run.e2e["setup_s"] = time.perf_counter() - t0

    m, build_busy, wall = _measured_build(run, pages_dir, ix, corpus)
    if m is not None:
        L["build.docs_per_wall_s"] = m.n_docs / max(wall, 1e-9)
        L["build.cpu_util"] = build_busy / max(wall * run.ray_cpus, 1e-9)
        ledger_layers(run, ix)
    n_before = m.n_docs if m is not None else 0
    bytes_before = dir_bytes(ix) + dir_bytes(corpus)
    added, append_busy = 0, 0.0
    for d in app_dirs:
        m2, busy, _ = run.pipeline(lambda d=d: pipeline.append_pages(ix, d, corpus_dir=corpus))
        if m2 is not None:
            added += m2.n_docs - n_before
            n_before = m2.n_docs
            append_busy += busy
    new_text = text_bytes({i: v for i, v in all_docs.items() if i not in base_docs})
    L["append.bytes_written_per_new_text_byte"] = (
        dir_bytes(ix) + dir_bytes(corpus) - bytes_before) / max(1, new_text)
    mf = load_manifest(ix)
    tiered = {k: v for k, v in (mf.stages if mf else {}).items() if k.startswith("tiered_add_")}
    L["incremental.tiered_add_s"] = sum(v.get("wall_s", 0.0) for v in tiered.values())
    L["incremental.merge_input_rows_per_new_doc"] = sum(
        v.get("merge_input_rows", 0) for v in tiered.values()) / max(1, added)

    doomed, L["deletes.undeletable_docs"] = inputs.delete_ids(
        list(all_docs), mf.n_docs if mf else 0)
    run.pipeline(lambda: deletes.delete_documents(ix, doomed))
    # a copy of the tiered, tombstoned index is queried after compaction,
    # so that no query loop runs next to Ray's background processes
    tiered_ix = os.path.join(w, "ix_tiered")
    shutil.copytree(ix, tiered_ix)

    compact_t0 = time.time()
    mc, compact_busy, _ = run.pipeline(lambda: deletes.compact(ix))
    survivors = {i: v for i, v in all_docs.items() if i not in set(doomed)}
    if mc is not None:
        run.check(mc.n_docs == len(survivors), "n_docs after compact")
    live_text = text_bytes(survivors)
    L["compact.bytes_rewritten_per_live_text_byte"] = dir_bytes(
        ix, since=compact_t0) / max(1, live_text)
    run.stop_ray()

    # BM25 on the tiered, tombstoned index (generation merge + tombstone filter)
    s = IndexSearcher(tiered_ix)
    _warm(s, pool, tfidf=False)  # TF-IDF refuses a tiered index
    run.timed_loop(0.4 * run.seconds, [s], round_plan(run.seed, pool, ("bm25",), 0),
                   tiered_ix, None)
    tomb_samples = list(run.samples)
    run.samples.clear()

    # TF-IDF and SQL on the compacted index
    corpus_files = sorted(
        os.path.join(dp, f) for dp, _, fs in os.walk(corpus) for f in fs if f.endswith(".parquet"))
    s = IndexSearcher(ix)
    _warm(s, pool, sql_args=(ix, corpus_files))
    run.timed_loop(0.6 * run.seconds, [s],
                   round_plan(run.seed, pool, ("tfidf",), INGEST_SQL_POOL), ix, corpus_files)
    run.e2e["index_bytes_per_text_byte"] = index_layers(run, ix, live_text)
    if m is not None:
        run.e2e["build_docs_per_cpu_s"] = m.n_docs / max(build_busy, 1e-9)
    L["append_docs_per_cpu_s"] = added / max(append_busy, 1e-9)
    if mc is not None:
        L["compact_docs_per_cpu_s"] = mc.n_docs / max(compact_busy, 1e-9)
    run.latency_metrics()
    if run.trace:
        query_layers(run)
        pipeline_layers(run)
        kernel_replays(run, pages)
        tracing_overhead(run, s, pool)
    _host_layers(run)

    oracle = Oracle()
    post = run.samples
    run.samples = tomb_samples
    verify_samples(run, oracle.index(all_docs), all_docs, s, frozenset(doomed))
    run.samples = post
    verify_samples(run, oracle.index(survivors), survivors, s)


def run_query(run: Run, tail: bool) -> None:
    from pyfuseray import analyzer
    from pyfuseray.query import IndexSearcher

    w, size, L = run.work, run.size, run.layer
    pages = inputs.base_pages(run.seed, size)
    pages_dir = inputs.write_shards(pages, os.path.join(w, "pages"), size.shard_rows)
    docs = inputs.expected_base(pages)
    if tail:
        qs = inputs.tail_queries(run.seed, analyzer.Analyzer(), 20_000)
        warm, plan = qs[:30], tail_plan(run.seed, qs[30:])
        run.min_repeats = TAIL_REPEATS
    else:
        warm = inputs.head_queries(run.seed, size)
        plan = round_plan(run.seed, warm, ("bm25", "tfidf"), HEAD_SQL_POOL)
    ix, corpus = os.path.join(w, "ix"), os.path.join(w, "corpus")
    corpus_path = os.path.join(corpus, "corpus")

    t0 = time.perf_counter()
    _start_ray_warm(run)
    m, build_busy, wall = _measured_build(run, pages_dir, ix, corpus)
    run.stop_ray()  # searcher and SQL front end need no Ray
    setup = time.perf_counter() - t0
    if m is not None:
        L["build.docs_per_wall_s"] = m.n_docs / max(wall, 1e-9)
        L["build.cpu_util"] = build_busy / max(wall * run.ray_cpus, 1e-9)
        ledger_layers(run, ix)
    # one searcher per tail repeat (query_head times searcher 0 only);
    # set-up counts the median open, docstats load and warm pass
    searchers, opens = [], []
    for _ in range(TAIL_REPEATS):
        o0 = time.perf_counter()
        searchers.append(IndexSearcher(ix))
        _warm(searchers[-1], warm, sql_args=(ix, corpus_path))
        opens.append(time.perf_counter() - o0)
    run.e2e["setup_s"] = setup + statistics.median(opens)
    s = searchers[0]

    n_ops = run.timed_loop(run.seconds, searchers, plan, ix, corpus_path)
    if m is not None:
        run.e2e["build_docs_per_cpu_s"] = m.n_docs / max(build_busy, 1e-9)
    run.latency_metrics()
    run.e2e["index_bytes_per_text_byte"] = index_layers(run, ix, text_bytes(docs))
    if run.trace:
        query_layers(run)
        pipeline_layers(run)
        kernel_replays(run, pages)
        # queries searcher 0 has run, so their terms are cached
        tracing_overhead(run, s, list(dict.fromkeys(q for _, q, _ in plan[:n_ops]))[:100])
    _host_layers(run)

    if not tail:
        for q in warm:
            run.check(s.search_bm25(q, 10, algorithm="wand")
                      == s.search_bm25(q, 10, algorithm="taat"), f"wand != taat {q!r}")
    verify_samples(run, Oracle().index(docs), docs, s)


WORKLOADS = {
    "ingest": run_ingest,
    "query_head": lambda run: run_query(run, tail=False),
    "query_tail": lambda run: run_query(run, tail=True),
}
