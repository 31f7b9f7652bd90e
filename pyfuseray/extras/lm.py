"""Unigram language-model perplexity scoring (CCNet-style curation).

CCNet / RedPajama / Gopher pipelines score documents with a language
model trained on a trusted corpus and drop or bucket by perplexity.
This module provides the distributed version of the simplest honest
member of that family: a Laplace-smoothed unigram LM over the raw
``[a-z0-9]+`` token stream,

    p(w) = (cf_w + 1) / (N + V)
    cross_entropy(doc) = -(1/n) * sum_w tf_w * ln p(w)
    perplexity(doc)    = exp(cross_entropy)

chosen because every quantity is an exact integer aggregate (cf, N, V,
tf) plus one deterministic float formula — so a DuckDB oracle can
hash-check the whole operator end-to-end, which a blackbox KenLM
score never could.

100-TB shape:

- **train** (``unigram_counts``): per-batch partial term counts
  (vectorized np.unique over the batch's token stream), ONE shuffle on
  the coarse ``crc32(term) % 1024`` bucket, vocabulary-sized output.
- **score** (``lm_perplexity``): the LM table is VOCABULARY-sized (not
  corpus-sized) — broadcast once via ``ray.put`` (the same assumption
  the BM25 idf broadcast makes); scoring is one streaming
  ``map_batches`` with a sorted-array ``searchsorted`` lookup, no
  shuffle. Unseen tokens get the Laplace floor ``1 / (N + V)``, so a
  model trained on one corpus scores any other.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups

_TOKEN = re.compile(r"[a-z0-9]+")


def unigram_counts(ds: rd.Dataset, *, text_col: str = "text") -> rd.Dataset:
    """Global (term, cf) collection frequencies over the raw token
    stream — one coarse-bucket shuffle, vocabulary-sized output."""
    groups = coarse_groups()

    def partial(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        for t in batch.column(text_col).to_pylist():
            toks.extend(_TOKEN.findall((t or "").lower()))
        if not toks:
            return pa.table(
                {"term": pa.array([], pa.string()),
                 "cf": pa.array([], pa.int64()),
                 "_cb": pa.array([], pa.int64())}
            )
        terms, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        terms = pa.array(terms.tolist(), pa.string())
        return pa.table(
            {
                "term": terms,
                "cf": pa.array(counts.astype(np.int64)),
                "_cb": pa.array(coarse_bucket(terms, n_groups=groups)),
            }
        )

    def reduce_bucket(group: pa.Table) -> pa.Table:
        # arrow-native per-term cf sum: dictionary codes + reduceat
        dic = group.column("term").dictionary_encode()
        if isinstance(dic, pa.ChunkedArray):
            dic = dic.combine_chunks()
        codes = dic.indices.to_numpy(zero_copy_only=False)
        cf = group.column("cf").to_numpy(zero_copy_only=False)
        order = np.argsort(codes, kind="stable")
        codes_s, cf_s = codes[order], cf[order]
        starts = np.flatnonzero(
            np.concatenate(([True], codes_s[1:] != codes_s[:-1]))
        )
        sums = np.add.reduceat(cf_s, starts) if starts.size else cf_s[:0]
        return pa.table(
            {
                "term": dic.dictionary.take(pa.array(codes_s[starts])),
                "cf": pa.array(sums.astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(reduce_bucket, batch_format="pyarrow")
    )


def lm_perplexity(
    ds: rd.Dataset,
    *,
    lm: pd.DataFrame | None = None,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """(doc_id, n_tokens, cross_entropy, ppl) per document with at
    least one token. ``lm`` is a (term, cf) frame from
    ``unigram_counts`` (defaults to training on ``ds`` itself — the
    self-perplexity signal that flags boilerplate/outlier docs)."""
    if lm is None:
        lm = unigram_counts(ds, text_col=text_col).to_pandas()
    # sorted term array + aligned counts: the broadcast lookup table
    lm = lm.sort_values("term")
    vocab = lm["term"].to_numpy(dtype=object)
    cf = lm["cf"].to_numpy(dtype=np.int64)
    n_total = int(cf.sum())
    v = int(vocab.size)
    # log-probability per vocab entry, plus the unseen-token floor
    logp = np.log((cf + 1.0) / (n_total + v))
    floor = float(np.log(1.0 / (n_total + v)))
    table_ref = ray.put((vocab.astype(str), logp))

    def score(batch: pa.Table) -> pa.Table:
        vocab_s, logp_b = ray.get(table_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        out_id, out_n, out_ce, out_ppl = [], [], [], []
        for doc_id, text in zip(ids, batch.column(text_col).to_pylist()):
            toks = _TOKEN.findall((text or "").lower())
            if not toks:
                continue
            terms, tf = np.unique(np.asarray(toks, dtype=str), return_counts=True)
            if vocab_s.size == 0:
                lp = np.full(terms.size, floor)
            else:
                idx = np.searchsorted(vocab_s, terms)
                idx_c = np.minimum(idx, vocab_s.size - 1)
                hit = (idx < vocab_s.size) & (vocab_s[idx_c] == terms)
                lp = np.where(hit, logp_b[idx_c], floor)
            n = int(tf.sum())
            ce = -float((tf * lp).sum()) / n
            out_id.append(doc_id)
            out_n.append(n)
            out_ce.append(round(ce, 6))
            out_ppl.append(round(float(np.exp(ce)), 4))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "n_tokens": pa.array(out_n, pa.int64()),
                "cross_entropy": pa.array(out_ce, pa.float64()),
                "ppl": pa.array(out_ppl, pa.float64()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow"
    )
