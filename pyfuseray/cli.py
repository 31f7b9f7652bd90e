"""Command-line entry points (the CLI owns its Ray session).

    python -m pyfuseray.cli build  --input pages.parquet --out /tmp/ix --pages
    python -m pyfuseray.cli build  --input documents.parquet --out /tmp/ix
    python -m pyfuseray.cli add    --input more_documents.parquet --index /tmp/ix
    python -m pyfuseray.cli search --index /tmp/ix --query "quick fox" --scoring bm25
    python -m pyfuseray.cli sql    --index /tmp/ix --corpus corpus.parquet \
                                   "SELECT url FROM pages LIKE quick fox LIMIT 5"
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session():
    import os

    import ray

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.environ["PYTHONPATH"] = repo + os.pathsep + os.environ.get("PYTHONPATH", "")
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_build(args: argparse.Namespace) -> int:
    _ray_session()
    import ray.data as rd

    from pyfuseray.build import build_index
    from pyfuseray.pipeline import build_from_pages

    ds = rd.read_parquet(args.input)
    if args.pages:
        m = build_from_pages(
            ds, args.out, corpus_dir=args.corpus_dir or (args.out + "_corpus"),
            num_buckets=args.buckets, num_salts=args.salts,
            overwrite=args.overwrite,
        )
    else:
        m = build_index(
            ds.select_columns(["doc_id", "text"]), args.out,
            num_buckets=args.buckets, num_salts=args.salts,
            overwrite=args.overwrite,
        )
    print(json.dumps({
        "n_docs": m.n_docs, "avgdl": round(m.avgdl, 3),
        "total_postings": m.total_postings, "buckets": len(m.buckets),
    }))
    return 0


def cmd_add(args: argparse.Namespace) -> int:
    _ray_session()
    import ray.data as rd

    from pyfuseray.incremental import add_documents, finish_add

    if args.finish:
        m = finish_add(args.index)
    elif getattr(args, "compact_tiers", False):
        from pyfuseray.incremental import compact_tiers

        m = compact_tiers(args.index)
    else:
        m = add_documents(
            args.index,
            rd.read_parquet(args.input).select_columns(["doc_id", "text"]),
            mode="tiered" if getattr(args, "tiered", False) else "full",
        )
    print(json.dumps({
        "n_docs": m.n_docs, "avgdl": round(m.avgdl, 3),
        "total_postings": m.total_postings,
        "generations": len(m.generations or []) or 1,
        "seg_generations": len(getattr(m, "seg_generations", []) or []),
    }))
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    _ray_session()
    from pyfuseray.deletes import compact, delete_documents

    if args.doc_ids:
        ids = [int(x) for x in args.doc_ids.split(",")]
        m = delete_documents(args.index, ids)
    else:
        m = None
    if args.compact:
        m = compact(args.index)
    if m is None:
        raise SystemExit("pass --doc-ids and/or --compact")
    print(json.dumps({
        "n_docs": m.n_docs, "n_deleted": m.n_deleted,
        "total_postings": m.total_postings,
        "generations": len(m.generations or []) or 1,
    }))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from pyfuseray.query import IndexSearcher

    s = IndexSearcher(args.index)
    if args.scoring == "bm25":
        hits = s.search_bm25(args.query, args.k, algorithm=args.algorithm)
    else:
        hits = s.search_tfidf(args.query, args.k)
    for rank, (doc_id, score) in enumerate(hits):
        print(f"{rank}\t{doc_id}\t{score:.6f}")
    return 0


def cmd_suggest(args: argparse.Namespace) -> int:
    """Spelling suggestions from the index dictionary (extras/spelling)."""
    import os

    import ray.data as rd

    from pyfuseray.extras.spelling import suggest

    _ray_session()
    dictionary = rd.read_parquet(
        os.path.join(args.index, "stats", "df.parquet"), columns=["term", "df"]
    )
    out = suggest(dictionary, args.terms.split(","), max_dist=args.max_dist,
                  k=args.k)
    print(out.to_string(index=False))
    return 0


def cmd_trgm(args: argparse.Namespace) -> int:
    """Build / query the trigram substring (LIKE) index."""
    import ray.data as rd

    from pyfuseray.extras.trigram import build_trigram_index, like_search

    _ray_session()
    corpus = rd.read_parquet(args.corpus, columns=["doc_id", "text"])
    if args.pattern is None:
        build_trigram_index(corpus, args.index, n_buckets=args.buckets)
        print(f"built {args.index}")
        return 0
    df = like_search(args.index, corpus, args.pattern).to_pandas()
    ids = sorted(df["doc_id"]) if "doc_id" in df.columns else []
    for i in ids:
        print(i)
    return 0


def cmd_phrase(args: argparse.Namespace) -> int:
    """Build / query the positional sidecar (phrase + proximity)."""
    import ray.data as rd

    from pyfuseray.positional import (
        build_positional_index,
        phrase_docs,
        proximity_docs,
    )

    _ray_session()
    if args.build:
        corpus = rd.read_parquet(args.corpus, columns=["doc_id", "text"])
        build_positional_index(corpus, args.index, n_buckets=args.buckets)
        print(f"built {args.index}")
        return 0
    if args.near is not None:
        ids = proximity_docs(args.index, args.query.split(), window=args.near)
    else:
        ids = phrase_docs(args.index, args.query)
    for i in ids.tolist():
        print(i)
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    from pyfuseray.sqlfront import execute_sql

    out = execute_sql(args.sql, args.index, args.corpus, top_k=args.k,
                      scoring=args.scoring)
    print(out.to_pandas().to_string(index=False))
    return 0


def cmd_curate(args: argparse.Namespace) -> int:
    import ray.data as rd

    from pyfuseray.extras.curate import curate_corpus

    _ray_session()
    docs = rd.read_parquet(args.input)
    stats = curate_corpus(
        docs, args.out,
        min_quality=args.min_quality,
        langs=args.langs.split(",") if args.langs else None,
        n_shards=args.shards,
        resume=not args.overwrite,
    )
    print(json.dumps(stats))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    import ray.data as rd

    from pyfuseray.extras.sampling import weighted_sample

    _ray_session()
    docs = rd.read_parquet(args.input)
    out = weighted_sample(
        docs, args.k, weight_col=args.weight_col, id_col=args.id_col
    )
    if args.out:
        out.write_parquet(args.out)
        print(json.dumps({"rows": args.k, "out": args.out}))
    else:
        print(out.to_pandas().to_string(index=False))
    return 0


def cmd_shuffle(args: argparse.Namespace) -> int:
    import ray.data as rd

    from pyfuseray.extras.shuffle import write_training_shards

    _ray_session()
    docs = rd.read_parquet(args.input)
    write_training_shards(
        docs, args.out, args.shards, seed=args.seed, id_col=args.id_col
    )
    print(json.dumps({"out": args.out, "shards": args.shards, "seed": args.seed}))
    return 0


def cmd_chunk(args: argparse.Namespace) -> int:
    import ray.data as rd

    from pyfuseray.extras.chunking import chunk_token_windows

    _ray_session()
    docs = rd.read_parquet(args.input)
    out = chunk_token_windows(docs, window=args.window, stride=args.stride)
    out.write_parquet(args.out)
    print(json.dumps({"out": args.out, "window": args.window,
                      "stride": args.stride}))
    return 0


def cmd_substr(args: argparse.Namespace) -> int:
    """Exact duplicated-substring spans (or cleaned texts) to parquet."""
    import ray.data as rd

    from pyfuseray.extras.substrdedup import (
        duplicated_substring_spans,
        remove_duplicated_substrings,
    )

    _ray_session()
    docs = rd.read_parquet(args.input)
    fn = remove_duplicated_substrings if args.clean else duplicated_substring_spans
    out = fn(docs, min_len=args.min_len)
    out.write_parquet(args.out)
    print(json.dumps({"out": args.out, "min_len": args.min_len,
                      "mode": "clean" if args.clean else "spans"}))
    return 0


def cmd_qfilter(args: argparse.Namespace) -> int:
    import pyarrow as pa
    import ray.data as rd

    from pyfuseray.extras.quantiles import filter_by_group_quantile
    from pyfuseray.extras.textstats import quality_stage

    _ray_session()
    docs = rd.read_parquet(args.input)

    def with_meta(batch: pa.Table) -> pa.Table:
        out = quality_stage(batch)
        for c in batch.column_names:
            if c not in out.column_names:
                out = out.append_column(c, batch.column(c))
        return out

    scored = docs.map_batches(with_meta, batch_format="pyarrow")
    kept = filter_by_group_quantile(
        scored, group_col=args.group_col, value_col="quality", q=args.q
    )
    kept.write_parquet(args.out)
    print(json.dumps({"out": args.out, "q": args.q,
                      "group_col": args.group_col}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="pyfuseray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build an index from parquet")
    b.add_argument("--input", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--pages", action="store_true",
                   help="input is a raw pages table (url/warc_ts/html/text/lang)")
    b.add_argument("--corpus-dir", default=None)
    b.add_argument("--buckets", type=int, default=8)
    b.add_argument("--salts", type=int, default=None)
    b.add_argument("--overwrite", action="store_true")
    b.set_defaults(fn=cmd_build)

    a = sub.add_parser("add", help="add documents to a built index in place")
    a.add_argument("--index", required=True)
    a.add_argument("--input", help="(doc_id, text) parquet; ids above indexed max")
    a.add_argument("--finish", action="store_true",
                   help="finish an interrupted add, compact or compact-tiers: "
                        "resume the build over the recorded generations and "
                        "remove the paths the manifest no longer names")
    a.add_argument("--tiered", action="store_true",
                   help="log-structured add: merge only the new generation "
                        "(BM25/boolean exact; WAND/tfidf/bulk/resident gated "
                        "until compaction)")
    a.add_argument("--compact-tiers", action="store_true",
                   help="fold tiered generations into one exact segment set")
    a.set_defaults(fn=cmd_add)

    d = sub.add_parser("delete", help="tombstone doc_ids and/or compact")
    d.add_argument("--index", required=True)
    d.add_argument("--doc-ids", help="comma-separated doc_ids to tombstone")
    d.add_argument("--compact", action="store_true",
                   help="physically remove tombstoned postings")
    d.set_defaults(fn=cmd_delete)

    s = sub.add_parser("search", help="query a built index")
    s.add_argument("--index", required=True)
    s.add_argument("--query", required=True)
    s.add_argument("--k", type=int, default=10)
    s.add_argument("--scoring", choices=["tfidf", "bm25"], default="bm25")
    s.add_argument("--algorithm", choices=["auto", "taat", "wand"], default="auto")
    s.set_defaults(fn=cmd_search)

    g = sub.add_parser("suggest", help="did-you-mean over the index dictionary")
    g.add_argument("--index", required=True)
    g.add_argument("--terms", required=True, help="comma-separated query terms")
    g.add_argument("--k", type=int, default=5)
    g.add_argument("--max-dist", type=int, default=2)
    g.set_defaults(fn=cmd_suggest)

    tg = sub.add_parser(
        "trgm", help="trigram substring index: build, or LIKE-search with --pattern"
    )
    tg.add_argument("--index", required=True)
    tg.add_argument("--corpus", required=True, help="parquet with doc_id,text")
    tg.add_argument("--pattern", help="LIKE pattern; omit to build the index")
    tg.add_argument("--buckets", type=int, default=64)
    tg.set_defaults(fn=cmd_trgm)

    ph = sub.add_parser(
        "phrase",
        help="positional sidecar: --build, phrase query, or --near W proximity",
    )
    ph.add_argument("--index", required=True)
    ph.add_argument("--corpus", help="parquet with doc_id,text (build only)")
    ph.add_argument("--build", action="store_true", help="build the sidecar")
    ph.add_argument("query", nargs="?", default="")
    ph.add_argument(
        "--near", type=int, default=None,
        help="unordered proximity: max token span (omit for exact phrase)",
    )
    ph.add_argument("--buckets", type=int, default=64)
    ph.set_defaults(fn=cmd_phrase)

    q = sub.add_parser("sql", help="run a mini-SQL query (SELECT ... LIKE ...)")
    q.add_argument("sql")
    q.add_argument("--index", required=True)
    q.add_argument("--corpus", required=True)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--scoring", choices=["tfidf", "bm25"], default="tfidf")
    q.set_defaults(fn=cmd_sql)

    c = sub.add_parser(
        "curate",
        help="filter -> exact dedup -> SimHash near-dedup -> partitioned sink",
    )
    c.add_argument("--input", required=True, help="(doc_id, text, lang) parquet")
    c.add_argument("--out", required=True)
    c.add_argument("--min-quality", type=float, default=0.35)
    c.add_argument("--langs", default=None, help="comma-separated keep list")
    c.add_argument("--shards", type=int, default=16)
    c.add_argument("--overwrite", action="store_true")
    c.set_defaults(fn=cmd_curate)

    w = sub.add_parser(
        "sample", help="deterministic weighted sample without replacement"
    )
    w.add_argument("--input", required=True)
    w.add_argument("--k", type=int, required=True)
    w.add_argument("--weight-col", default="n_chars")
    w.add_argument("--id-col", default="doc_id")
    w.add_argument("--out", default=None, help="parquet dir (prints if omitted)")
    w.set_defaults(fn=cmd_sample)

    ck = sub.add_parser(
        "chunk", help="explode docs into sliding token windows (RAG prep)"
    )
    ck.add_argument("--input", required=True)
    ck.add_argument("--out", required=True)
    ck.add_argument("--window", type=int, default=64)
    ck.add_argument("--stride", type=int, default=48)
    ck.set_defaults(fn=cmd_chunk)

    sd = sub.add_parser(
        "substr",
        help="exact duplicated-substring spans / cleaned texts (Lee et al. role)",
    )
    sd.add_argument("--input", required=True)
    sd.add_argument("--out", required=True)
    sd.add_argument("--min-len", type=int, default=5, dest="min_len")
    sd.add_argument("--clean", action="store_true",
                    help="emit (doc_id, text) with duplicated spans removed "
                         "instead of the span list")
    sd.set_defaults(fn=cmd_substr)

    qf = sub.add_parser(
        "qfilter",
        help="keep docs at/above their group's quality quantile",
    )
    qf.add_argument("--input", required=True)
    qf.add_argument("--out", required=True)
    qf.add_argument("--group-col", dest="group_col", default="lang")
    qf.add_argument("--q", type=float, default=0.5)
    qf.set_defaults(fn=cmd_qfilter)

    h = sub.add_parser(
        "shuffle",
        help="deterministic epoch shuffle into sorted training shards",
    )
    h.add_argument("--input", required=True)
    h.add_argument("--out", required=True, help="hive-partitioned parquet dir")
    h.add_argument("--shards", type=int, default=16)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--id-col", default="doc_id")
    h.set_defaults(fn=cmd_shuffle)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
