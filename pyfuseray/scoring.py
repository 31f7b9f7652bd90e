"""Pure scoring functions, float64 throughout.

``tfidf_weight`` replicates the reference weight exactly
(reference ``app/InvertedIndexFinal.py:50-54`` and
``app/InvertedIndex.py:400-404``):

    w(tf, df) = (1 + log10(tf)) * log10(N / df),   0 if tf<=0 or df<=0 or N<=0

``bm25_idf`` and ``bm25_contrib`` are the benchmark-path ranking
function (Robertson/Sparck Jones BM25, k1=1.2 b=0.75 defaults) — the
reference's BASELINE metric names BM25 while the reference code
implements log-TF-IDF cosine; both ship and both are pinned by goldens
(SURVEY.md §2.9.3).

``bm25_contrib`` is the one site of the BM25 formula: the TAAT and WAND
searchers, the resident tier, both bulk-search modes and the per-block
WAND bounds written at segment finalize all call it, so their scores
share one float order (WAND stays bit-identical to TAAT and the stored
block bounds are true upper bounds). ``tests/test_one_bm25_site.py``
keeps the formula from being written out again anywhere else in the
package; ``oracle.py`` keeps its own copy as an independent reference.
The TF-IDF weights are shared by the searchers and the oracle.
"""

from __future__ import annotations

import math

import numpy as np

BM25_K1 = 1.2
BM25_B = 0.75


def tfidf_weight(tf: float, df: float, n_docs: float) -> float:
    """Reference TF-IDF weight (scalar)."""
    if tf <= 0 or df <= 0 or n_docs <= 0:
        return 0.0
    return (1.0 + math.log10(tf)) * math.log10(n_docs / df)


def tfidf_weight_vec(tf: np.ndarray, df: float, n_docs: float) -> np.ndarray:
    """Vectorized reference TF-IDF weight for one term's posting list."""
    tf = np.asarray(tf, dtype=np.float64)
    if df <= 0 or n_docs <= 0:
        return np.zeros_like(tf)
    idf = math.log10(n_docs / df)
    w = (1.0 + np.log10(np.maximum(tf, 1.0))) * idf
    return np.where(tf > 0, w, 0.0)


def bm25_idf(df: float, n_docs: float) -> float:
    """BM25 idf with the standard +1 inside the log (never negative)."""
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def bm25_contrib(idf, tf, dl, avgdl: float, k1: float = BM25_K1, b: float = BM25_B):
    """BM25 contribution of a term with idf ``idf`` to a doc with term
    frequency ``tf`` and length ``dl``; scalars or numpy arrays.

    A block bound ``bm25_contrib(idf, max_tf, min_dl, ...)`` is >= the
    score of every posting in the block: at equal tf a larger dl can
    only round the denominator up, and a smaller tf lowers the exact
    value by far more than the few ulps of rounding.
    """
    tf = np.asarray(tf, dtype=np.float64)
    return idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
