"""The one coarse-shuffle key (``pyfuseray.coarse``): its hash is pinned by
golden values, spreads strided ids, and every hash-keyed group-by gives
the same answer under any group count."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from pyfuseray import coarse
from pyfuseray.coarse import coarse_bucket, coarse_groups, key_hash

# -- the primitive ------------------------------------------------------------


def test_key_hash_golden_values():
    """A switch to builtin ``hash`` (salted per process for strings) or to
    another mix changes these and fails."""
    assert key_hash(pa.array([0, 1, 2**40, -1])).tolist() == [
        0, 1, 1099511627776, 18446744073709551615,
    ]
    assert key_hash(pa.array(["", "a", "fox", "héllo"])).tolist() == [
        0, 97, 114911059753252923, 12057279637787729935,
    ]
    assert key_hash(pa.array([1, 2]), pa.array(["a", "fox"])).tolist() == [
        1099511628308, 114913258776509345,
    ]
    assert coarse_bucket(pa.array([0, 1, 2**40, -1]), n_groups=512).tolist() == [
        0, 441, 256, 70,
    ]
    assert coarse_bucket(
        pa.array(["", "a", "fox", "héllo"]), n_groups=512
    ).tolist() == [0, 329, 142, 500]
    assert coarse_bucket(
        pa.array([1, 2]), pa.array(["a", "fox"]), n_groups=512
    ).tolist() == [124, 245]


def test_key_forms_agree():
    """numpy and arrow ints, string and large_string, chunked and
    dictionary columns of the same values hash alike; nulls hash as 0."""
    ids = np.array([3, 512, -7 << 20], dtype=np.int64)
    want = key_hash(ids).tolist()
    assert key_hash(pa.array(ids)).tolist() == want
    assert key_hash(pa.array(ids.astype(np.int32))).tolist() == want
    assert key_hash(pa.chunked_array([ids[:1], ids[1:]])).tolist() == want
    words = ["a", "", "héllo"]
    want = key_hash(pa.array(words)).tolist()
    assert key_hash(pa.array(words, pa.large_string())).tolist() == want
    assert key_hash(pa.array(words).dictionary_encode()).tolist() == want
    assert key_hash(pa.array([b"a", b"", "héllo".encode()])).tolist() == want
    assert key_hash(pa.array(["x", None])).tolist()[1] == 0
    assert key_hash(pa.array([5, None])).tolist()[1] == 0


def test_strided_ids_spread_over_groups():
    """Ids on a stride of the group count spread: a raw ``id % 512`` puts
    all of them in group 0."""
    ids = np.arange(0, 512 * 1000, 512, dtype=np.int64)
    b = coarse_bucket(ids, n_groups=512)
    assert len(np.unique(b)) >= 256
    assert b.min() >= 0 and b.max() < 512


def test_empty_input():
    for col in (pa.array([], pa.int64()), pa.array([], pa.string()),
                np.empty(0, np.int64), pa.chunked_array([], pa.string())):
        assert key_hash(col).tolist() == []
        out = coarse_bucket(col, n_groups=512)
        assert out.dtype == np.int64 and out.size == 0


def test_group_count_rule(monkeypatch):
    assert coarse_groups() == coarse.FLOOR_GROUPS
    assert coarse_groups(None, 8192) == coarse.FLOOR_GROUPS
    assert coarse_groups(10**4, 8192) == coarse.FLOOR_GROUPS
    assert coarse_groups(10**9, 8192) == 10**9 // 8192 + 1
    monkeypatch.setattr(coarse, "FLOOR_GROUPS", 1)
    assert coarse_groups() == 1
    assert coarse_groups(100, 8) == 13


# -- group-count invariance ---------------------------------------------------

_VOCAB = [f"w{i}" for i in range(40)]


def _texts(n=30, seed=3):
    rng = np.random.default_rng(seed)
    base = [" ".join(rng.choice(_VOCAB, 24)) for _ in range(n // 2)]
    out = []
    for i in range(n):
        t = base[i % len(base)]
        if i % 3 == 0:  # near-dup: one word changed
            words = t.split()
            words[i % 24] = "zz"
            t = " ".join(words)
        out.append(t)
    return out


def _docs():
    texts = _texts()
    return rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts})
    ).repartition(3)


def _pairs():
    a = [0, 0, 1, 2, 4, 5, 5, 7, 9, 10, 12, 1024, 512]
    b = [1, 2, 2, 3, 5, 6, 7, 8, 10, 11, 13, 1536, 1024]
    return rd.from_arrow(pa.table({"a": a, "b": b})).repartition(2)


def _rows(ds):
    """A dataset's rows as sorted reprs (NaN-safe, order-free)."""
    df = ds.to_pandas() if isinstance(ds, rd.Dataset) else ds
    cols = sorted(c for c in df.columns if not c.startswith("_"))
    return sorted(repr(r) for r in df[cols].itertuples(index=False, name=None))


def _events():
    rng = np.random.default_rng(5)
    n = 120
    return pa.table({
        "user_id": (rng.integers(0, 6, n) * 512).astype(np.int64),
        "ts": np.sort(rng.integers(0, 5_000_000_000, n)).astype(np.int64),
        "eid": np.arange(n, dtype=np.int64),
        "value": rng.integers(0, 100, n).astype(np.float64),
        "src": rng.choice(["web", "books", "code"], n),
    })


def _op_joins():
    from pyfuseray.extras.joins import hash_join, semi_join

    left = rd.from_arrow(pa.table({"k": [1, 1, 1, 1, 2, 3, 512, 1024],
                                   "x": list(range(8))})).repartition(2)
    right = rd.from_arrow(pa.table({"k": [1, 2, 2, 512, 9], "y": list(range(5))}))
    return (_rows(hash_join(left, right, left_on="k")),
            _rows(semi_join(left, right, left_on="k", broadcast_limit=0)),
            _rows(semi_join(left, right, left_on="k", anti=True, broadcast_limit=0)))


def _op_dedup():
    from pyfuseray.extras.dedup import (
        exact_dedup,
        jaccard_candidate_pairs,
        minhash_candidate_pairs,
        simhash_candidates,
        verify_pairs_jaccard,
    )

    docs = _docs()
    cand = jaccard_candidate_pairs(docs, threshold=0.5)
    return (_rows(exact_dedup(docs)), _rows(minhash_candidate_pairs(docs)),
            _rows(simhash_candidates(docs)), _rows(cand),
            _rows(verify_pairs_jaccard(cand, docs, threshold=0.5)))


def _op_knn():
    from pyfuseray.extras.knn import embedding_near_dups_lsh

    rng = np.random.default_rng(1)
    base = rng.standard_normal((6, 8))
    vecs = np.repeat(base, 4, axis=0) + 0.01 * rng.standard_normal((24, 8))
    ds = rd.from_arrow(pa.table({
        "vec_id": np.arange(24, dtype=np.int64),
        "embedding": pa.array(vecs.astype(np.float32).tolist(), pa.list_(pa.float32())),
    }))
    return _rows(embedding_near_dups_lsh(ds, 0.9, planes_per_band=4, n_bands=4))


def _op_sessions():
    from pyfuseray.extras.sessions import sessionize

    return _rows(sessionize(rd.from_arrow(_events()), gap_us=500_000_000))


def _op_graph():
    from pyfuseray.extras.components import connected_components, keep_canonical
    from pyfuseray.extras.graphstats import degree_histogram, triangle_count, value_counts
    from pyfuseray.extras.pagerank import pagerank_int

    labels = connected_components(_pairs(), mode="distributed", iter_blocks=2)
    nodes = rd.from_arrow(pa.table({"doc_id": sorted(
        {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 512, 1024, 1536, 77})}))
    docs = rd.from_arrow(pa.table({"doc_id": list(range(16)), "t": list("abcdefghijklmnop")}))
    return (_rows(labels),
            _rows(keep_canonical(docs, _pairs(), broadcast_max_drop=0)),
            _rows(degree_histogram(_pairs())), triangle_count(_pairs()),
            _rows(value_counts(labels, "label", "label", "n")),
            _rows(pagerank_int(_pairs(), nodes, iters=2, num_blocks=2)))


def _op_spans():
    from pyfuseray.extras.spandedup import dedup_spans
    from pyfuseray.extras.substrdedup import remove_duplicated_substrings

    return (_rows(remove_duplicated_substrings(_docs(), min_len=4)),
            _rows(dedup_spans(_docs(), route="distributed")))


def _op_grouped():
    from pyfuseray.extras.asof import asof_join
    from pyfuseray.extras.grouptop import topk_per_group
    from pyfuseray.extras.lm import unigram_counts
    from pyfuseray.extras.mixture import mix_to_target
    from pyfuseray.extras.rangejoin import neighbor_count_join
    from pyfuseray.extras.window import grouped_moving_avg

    ev = rd.from_arrow(_events()).repartition(3)
    right = rd.from_arrow(_events().select(["user_id", "ts", "value"]).rename_columns(
        ["user_id", "ts", "pay"]).slice(0, 60))
    return (
        _rows(topk_per_group(ev, group_col="src", order_col="value", tie_col="eid", k=3)),
        _rows(mix_to_target(ev, group_col="src", id_col="eid",
                            weights={"web": 2, "books": 1, "code": 1}, budget=40)),
        _rows(unigram_counts(_docs())),
        _rows(grouped_moving_avg(ev, group_col="user_id", ts_col="ts", id_col="eid",
                                 value_col="value", window_rows=3)),
        _rows(neighbor_count_join(ev, key_col="src", ts_col="ts", id_col="eid",
                                  window_us=300_000_000)),
        _rows(asof_join(ev.select_columns(["user_id", "ts", "eid"]), right,
                        on="ts", by="user_id", right_cols=["ts", "pay"])),
    )


@pytest.fixture(scope="module")
def indexes(tmp_path_factory, ray_session):
    from pyfuseray.build import build_index
    from pyfuseray.extras.trigram import build_trigram_index
    from pyfuseray.positional import build_positional_index

    base = tmp_path_factory.mktemp("coarse")
    paths = {k: str(base / k) for k in ("bm25", "trgm", "pos")}
    build_index(_docs(), paths["bm25"], num_buckets=4)
    build_trigram_index(_docs(), paths["trgm"], n_buckets=8)
    build_positional_index(_docs(), paths["pos"], n_buckets=8)
    return paths


def _op_index_queries(paths):
    from pyfuseray.distributed_query import bulk_search
    from pyfuseray.extras.trigram import like_search
    from pyfuseray.positional import phrase_docs, proximity_docs

    out = bulk_search(paths["bm25"], ["w1 w2", "zz w3", "w7"], top_k=5,
                      docstats_mode="ranged")
    return (_rows(out), _rows(like_search(paths["trgm"], _docs(), "%w7 w9%")),
            phrase_docs(paths["pos"], "w3 w7 w9").tolist(),
            proximity_docs(paths["pos"], ["w9", "w32"], window=3).tolist())


def _op_docids():
    from pyfuseray.docids import dedup_keep_first

    t = pa.table({
        "url": [f"u{i % 7}" for i in range(20)],
        "warc_ts": [i % 3 for i in range(20)],
        "text": [f"text {i}" for i in range(20)],
    })
    return _rows(dedup_keep_first(rd.from_arrow(t).repartition(3)))


OPERATORS = {
    "joins": _op_joins, "dedup": _op_dedup, "knn": _op_knn,
    "sessions": _op_sessions, "graph": _op_graph, "spans": _op_spans,
    "grouped": _op_grouped, "docids": _op_docids,
}


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_answers_invariant_to_group_count(name, ray_session, monkeypatch):
    """A key's rows land wholly in one group under any group count, so
    every migrated operator answers the same with 1, 512 or 4096 groups."""
    run = OPERATORS[name]
    want = run()
    for floor in (1, 4096):
        monkeypatch.setattr(coarse, "FLOOR_GROUPS", floor)
        assert run() == want, (name, floor)


def test_index_queries_invariant_to_group_count(indexes, monkeypatch):
    want = _op_index_queries(indexes)
    assert all(want)  # every query matches something
    for floor in (1, 4096):
        monkeypatch.setattr(coarse, "FLOOR_GROUPS", floor)
        assert _op_index_queries(indexes) == want, floor


def test_segments_invariant_to_merge_group_count(ray_session, tmp_path, monkeypatch):
    """The segment merge shuffles on the coarse term bucket: its rows, and
    so the manifest's per-bucket checksums, do not depend on the count."""
    from pyfuseray.build import build_index

    def sums(floor):
        monkeypatch.setattr(coarse, "FLOOR_GROUPS", floor)
        m = build_index(_docs(), str(tmp_path / f"ix{floor}"), num_buckets=4, num_salts=2)
        return {k: (e["checksum"], e["rows"], e["n_postings"]) for k, e in m.buckets.items()}

    want = sums(coarse.FLOOR_GROUPS)
    assert sum(rows for _, rows, _ in want.values()) > 0
    assert sums(1) == want
    assert sums(4096) == want
