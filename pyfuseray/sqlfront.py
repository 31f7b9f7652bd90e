"""Mini-SQL front end: ``SELECT f1,f2 FROM t LIKE|LIKETO w1 w2 [LIMIT n]``.

Replicates the reference grammar exactly (reference
``app/SqlParser.py:8-54``): the whole query is lowercased, fields are
comma-split between SELECT and FROM, the LIKE/LIKETO term runs to LIMIT
or end-of-string, and parse errors fall back to
``{fields: ['*'], table: <default>, like_term: None}``.

Execution (reference ``app/DataLoader.py:128-179``): like_term -> index
top-k search -> doc_id -> row materialization (the form of
``self.data.iloc[doc_id]``, reference J1: the corpus is doc_id-sorted
and written in LZ4-compressed 64-row groups (``pipeline.CORPUS_WRITE``),
so each file's footer ``doc_id`` min/max names the few row groups that
can hold the top-k ids, and only those groups' ``doc_id`` and selected
columns are read and decoded — ``query.read_matching``; the file list
is walked per call with ``pads.dataset``'s rules, the footers and the
schema come from the ``IndexSearcher``'s cache, see
``IndexSearcher.corpus_footers``; no dataset is built except for a
scan without LIKE) -> field aliasing and projection
(``app/DataLoader.py:133-147``) -> score column
appended (float plus the reference's ``f"{score:.2f}"`` string,
``app/DataLoader.py:173``).

``to_duckdb_sql`` mirrors the reference's Postgres rewrite
(``app/SqlParser.py:88-119``: AND-of-terms full-text match) as a DuckDB
LIKE-conjunction — the relational baseline for the oracle harness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.dataset as pads

from pyfuseray.query import IndexSearcher, read_matching


@dataclass
class ParsedQuery:
    fields: list[str] = field(default_factory=lambda: ["*"])
    table: str = "pages"
    like_term: str | None = None
    limit: int | None = None


def parse_query(query: str, default_table: str = "pages") -> ParsedQuery:
    """Parse the mini-SQL dialect (lowercases everything, like the reference)."""
    query = query.lower()
    parts = query.split()
    try:
        select_index = parts.index("select")
        from_index = parts.index("from")
        like_index = -1
        like_term = None
        limit = None
        limit_index = parts.index("limit") if "limit" in parts else len(parts)
        if limit_index < len(parts) - 1:
            limit = int(parts[limit_index + 1])
        for i, part in enumerate(parts):
            if part in ("like", "liketo"):
                like_index = i
                like_term = " ".join(parts[i + 1 : limit_index])
                break
        fields = " ".join(parts[select_index + 1 : from_index]).split(",")
        fields = [f.strip() for f in fields if f.strip()]
        table_parts = parts[from_index + 1 : like_index] if like_index > -1 else parts[from_index + 1 : from_index + 2]
        table = table_parts[0] if table_parts else default_table
        return ParsedQuery(fields=fields or ["*"], table=table,
                           like_term=like_term, limit=limit)
    except (ValueError, IndexError):
        # reference behavior: defaults on parse error (SqlParser.py:47-54)
        return ParsedQuery(table=default_table)


def to_duckdb_sql(query: str, *, text_col: str = "text",
                  default_table: str = "pages") -> str:
    """AND-of-terms relational rewrite (analogue of parseQueryPostgres)."""
    p = parse_query(query, default_table)
    fields = ", ".join(p.fields)
    where = " AND ".join(
        f"lower({text_col}) LIKE '%{t}%'" for t in (p.like_term or "").split()
    )
    sql = f"SELECT {fields} FROM {p.table}"
    if where:
        sql += f" WHERE {where}"
    if p.limit:
        sql += f" LIMIT {p.limit}"
    return sql


# field aliasing: configurable map, mirroring DataLoader.py:133-139's
# hard-coded title->track_name style aliases
DEFAULT_ALIASES = {"page": "url", "address": "url", "body": "text"}


def dedup_results_keep_first(tbl: pa.Table, key: str) -> pa.Table:
    """Result-set dedup by key while preserving rank order — the
    reference's skip-seen-track_id loop (reference ``app/DataLoader.py:
    161-177``). Driver-side: k is tiny."""
    seen: set = set()
    keep = []
    for i, v in enumerate(tbl.column(key).to_pylist()):
        if v not in seen:
            seen.add(v)
            keep.append(i)
    return tbl.take(pa.array(keep))


def dedup_results_keep_max_score(tbl: pa.Table, score_col: str = "score") -> pa.Table:
    """Dedup identical result rows (all fields except the score) keeping
    the highest score — the reference's UI-side dedup (reference
    ``app/GradioUI.py:82-95``)."""
    other = [c for c in tbl.column_names if c not in (score_col, "score_fmt")]
    best: dict[tuple, int] = {}
    scores = tbl.column(score_col).to_pylist()
    cols = {c: tbl.column(c).to_pylist() for c in other}
    for i in range(tbl.num_rows):
        k = tuple(cols[c][i] for c in other)
        if k not in best or scores[i] > scores[best[k]]:
            best[k] = i
    keep = sorted(best.values(), key=lambda i: (-scores[i], i))
    return tbl.take(pa.array(keep))


def _conform(tbl: pa.Table, schema: pa.Schema) -> pa.Table:
    """``tbl`` in ``schema`` (the corpus dataset's schema, or the part of
    it a statement reads), as a dataset scan returns it: columns cast to
    the schema's types, absent ones null-filled (an append file may lack
    a column of the first corpus file)."""
    return pa.Table.from_arrays(
        [
            tbl.column(f.name).cast(f.type)
            if f.name in tbl.column_names
            else pa.nulls(tbl.num_rows, f.type)
            for f in schema
        ],
        schema=schema,
    )


def _corpus_files(corpus_path: str | list[str]) -> list[str]:
    """The parquet files of ``corpus_path`` as ``pads.dataset`` lists
    them: a list passes through, a file is itself, a directory is walked
    recursively, following symlinked subdirectories and skipping every
    file or subdirectory whose name starts with ``.`` or ``_``
    (``_SUCCESS``, in-progress writes), in sorted path order."""
    if isinstance(corpus_path, (list, tuple)):
        return list(corpus_path)
    if not os.path.isdir(corpus_path):
        return [corpus_path]
    out = []
    for dirpath, dirs, files in os.walk(corpus_path, followlinks=True):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        out.extend(os.path.join(dirpath, f) for f in files
                   if not f.startswith((".", "_")))
    return sorted(out)


def execute_sql(
    query: str,
    index_dir: str,
    corpus_path: str | list[str],
    *,
    top_k: int = 10,
    scoring: str = "tfidf",
    aliases: dict[str, str] | None = None,
    searcher: IndexSearcher | None = None,
) -> pa.Table:
    """Parse + rank + materialize + project. Returns an Arrow table.

    ``corpus_path`` is a corpus directory, a parquet file, or a list of
    parquet files (a pages corpus plus its ``append_gK/`` files). A
    passed ``searcher`` keeps the corpus footers across calls
    (:meth:`IndexSearcher.corpus_footers`); the corpus schema is the
    first file's, as a dataset scan takes it."""
    aliases = {**DEFAULT_ALIASES, **(aliases or {})}
    p = parse_query(query)
    k = p.limit or top_k
    s = searcher or IndexSearcher(index_dir)
    files = _corpus_files(corpus_path)
    footers = s.corpus_footers(files)
    schema = footers[0][1].schema.to_arrow_schema() if footers else pa.schema([])
    star = p.fields == ["*"]
    cols = schema.names if star else [aliases.get(f, f) for f in p.fields]
    missing = [c for c in cols if c not in schema.names]
    if missing:
        raise KeyError(f"unknown column(s) {missing}; available: {schema.names}")

    def project(tbl: pa.Table) -> pa.Table:
        return tbl if star else tbl.select(cols)

    if not p.like_term:
        # plain scan: SELECT fields FROM t [LIMIT n]
        return project(pads.dataset(files, format="parquet").head(k))
    hits = (
        s.search_bm25(p.like_term, k)
        if scoring == "bm25"
        else s.search_tfidf(p.like_term, k)
    )
    if not hits:
        empty = project(schema.empty_table())
        empty = empty.append_column("score", pa.array([], type=pa.float64()))
        return empty.append_column("score_fmt", pa.array([], type=pa.string()))
    # broadcast-small-side join: top-k ids are tiny; read doc_id plus the
    # selected columns of only the row groups whose doc_id range can hold
    # one, then restore rank order.
    import numpy as np

    read = schema if star else pa.schema(
        [schema.field(c) for c in dict.fromkeys(["doc_id", *cols])]
    )
    parts = read_matching(
        footers, "doc_id", [d for d, _ in hits], columns=read.names,
    )
    full = pa.concat_tables(
        [_conform(t, read) for t in parts] or [read.empty_table()]
    )
    rank = {d: r for r, (d, _) in enumerate(hits)}
    doc_ids = full.column("doc_id").to_pylist()
    full = full.take(pa.array(np.argsort([rank[d] for d in doc_ids], kind="stable")))
    svals = [dict(hits)[d] for d in full.column("doc_id").to_pylist()]
    out = project(full)
    out = out.append_column("score", pa.array(svals, type=pa.float64()))
    return out.append_column(
        "score_fmt", pa.array([f"{v:.2f}" for v in svals], type=pa.string())
    )
