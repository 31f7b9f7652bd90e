"""Training-data extras: dedup family, KNN, text stats, multimodal plumbing."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyfuseray.extras.dedup import (
    add_simhash,
    exact_dedup,
    minhash_dedup,
    ngram_jaccard,
    simhash64,
    simhash_candidates,
)
from pyfuseray.extras.knn import brute_force_topk, lsh_topk, range_search
from pyfuseray.extras.multimodal import (
    FEATURE_DIM,
    decode_image,
    extract_features,
    synth_media,
)
from pyfuseray.extras.textstats import (
    LangIdStage,
    lang_id,
    quality_scores,
    rolling_hash_fingerprint,
    token_counts,
)


def _doc_ds(texts):
    return rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    ).repartition(3)


# -- dedup -------------------------------------------------------------------

def test_exact_dedup_keeps_min_id():
    texts = ["hello world", "Hello   WORLD", "other doc", "hello world"]
    out = exact_dedup(_doc_ds(texts)).to_pandas().sort_values("doc_id")
    # normalization folds case+whitespace: docs 0,1,3 collapse to doc 0
    assert out["doc_id"].tolist() == [0, 2]


def test_minhash_finds_near_dups():
    base = "the quick brown fox jumps over the lazy dog and runs through the green fields every morning"
    near = base.replace("green", "wide")  # one-token edit
    texts = [base, near, "completely different content about database engines and parquet files and shuffles"]
    verified, clusters = minhash_dedup(_doc_ds(texts), threshold=0.5)
    assert (0, 1) in verified
    assert all(2 not in p for p in verified)
    assert clusters.get(1) == 0


def test_ngram_jaccard_bounds():
    assert ngram_jaccard("a b c d e f", "a b c d e f") == 1.0
    assert ngram_jaccard("a b c d e f", "x y z w v u") == 0.0
    assert ngram_jaccard("", "") == 1.0
    assert 0.0 < ngram_jaccard("a b c d e f g", "a b c d e f h") < 1.0


def test_simhash_near_vs_far():
    a = "the quick brown fox jumps over the lazy dog in the field"
    b = a + " extra"
    c = "entirely unrelated words concerning matrix multiplication kernels"
    ha, hb, hc = simhash64(a), simhash64(b), simhash64(c)
    def ham(x, y):
        return bin(x ^ y).count("1")
    assert ham(ha, hb) < ham(ha, hc)
    assert simhash64("") == 0


def test_simhash_candidates_pipeline():
    texts = ["aaa bbb ccc ddd eee fff"] * 2 + ["zzz yyy xxx www vvv uuu"]
    cand = simhash_candidates(_doc_ds(texts)).to_pandas()
    pairs = set(zip(cand["a"], cand["b"]))
    assert (0, 1) in pairs


# -- knn ---------------------------------------------------------------------

def _emb_ds(n=100, dim=16, seed=3):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
        }
    )
    return rd.from_arrow(tbl).repartition(4), vecs


def test_brute_force_topk_matches_numpy():
    ds, vecs = _emb_ds()
    q = vecs[7]
    got = brute_force_topk(ds, q, 5)[0]
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = vn @ (q / np.linalg.norm(q))
    want = np.lexsort((np.arange(len(sims)), -sims))[:5]
    assert [v for v, _ in got] == want.tolist()
    assert got[0][0] == 7  # self is nearest
    assert abs(got[0][1] - 1.0) < 1e-5


def test_brute_force_multi_query():
    ds, vecs = _emb_ds()
    res = brute_force_topk(ds, vecs[:3], 4)
    assert len(res) == 3
    for j, r in enumerate(res):
        assert r[0][0] == j


def test_lsh_topk_reasonable_recall():
    ds, vecs = _emb_ds(n=200)
    exact = {v for v, _ in brute_force_topk(ds, vecs[11], 10)[0]}
    approx = {v for v, _ in lsh_topk(ds, vecs[11], 10, n_planes=4)[0]}
    assert 11 in approx
    assert len(exact & approx) >= 3  # bucketed search keeps some true neighbors


def test_sampled_lsh_recall_vs_brute():
    """O9 random sampling: a seeded ``ds.random_sample`` draws the query
    set; recall@10 of lsh_topk is measured against brute_force_topk over
    the sampled queries — the analogue of the reference's sampled
    Sequential-vs-RTree consistency test
    (``app/tests/image_knn_test.py:64-80``)."""
    ds, vecs = _emb_ds(n=300, seed=13)
    # pin the block layout: Ray seeds the sampler per (task_idx, seed), so
    # determinism only holds over a FIXED set of blocks — materialize once
    # rather than re-executing the lazy pipeline per draw.
    ds = ds.materialize()
    sample = ds.random_sample(0.06, seed=77).to_pandas()
    assert 2 <= len(sample) <= 60  # fraction is approximate by design
    # determinism: the same seed over the same blocks draws the same sample
    again = ds.random_sample(0.06, seed=77).to_pandas()
    assert sorted(sample["vec_id"].tolist()) == sorted(again["vec_id"].tolist())
    qids = sample["vec_id"].tolist()
    queries = np.asarray(sample["embedding"].tolist(), dtype=np.float32)
    exact = brute_force_topk(ds, queries, 10)
    approx = lsh_topk(ds, queries, 10, n_planes=4)
    recalls = []
    for e, a in zip(exact, approx):
        recalls.append(len({v for v, _ in e} & {v for v, _ in a}) / 10)
    assert sum(recalls) / len(recalls) >= 0.2  # bucketed search keeps neighbors
    # self-recall: each sampled query's own vector shares its bucket
    for qid, a in zip(qids, approx):
        assert qid in {v for v, _ in a}


def test_range_search():
    ds, vecs = _emb_ds()
    res = range_search(ds, vecs[5], radius=1e-6)
    assert res and res[0][0] == 5 and res[0][1] < 1e-6
    res_all = range_search(ds, vecs[5], radius=1e9)
    assert len(res_all) == 100
    dists = [d for _, d in res_all]
    assert dists == sorted(dists)


# -- near-dup scale shapes (round-2 rebuilds) --------------------------------

def _clustered_emb(n_base=120, n_clusters=12, per_cluster=3, dim=24, seed=41):
    """Random base + tight clusters: pairs inside a cluster are high-sim."""
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal(dim) for _ in range(n_base)]
    for _ in range(n_clusters):
        v = rng.standard_normal(dim)
        rows.extend(v + 0.05 * rng.standard_normal(dim) for _ in range(per_cluster))
    mat = np.asarray(rows, dtype=np.float64)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array([v.tolist() for v in mat], pa.list_(pa.float64())),
        }
    )
    return rd.from_arrow(tbl).repartition(5), mat


def _oracle_pairs(mat, threshold):
    mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mn @ mn.T
    iu = np.triu_indices(len(mat), 1)
    mask = sims[iu] >= threshold
    return set(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))


def test_embedding_near_dups_exact_multiblock():
    """Block-pair self-join is EXACT across many block pairs."""
    from pyfuseray.extras.knn import embedding_near_dups

    ds, mat = _clustered_emb()
    for th in (0.45, 0.9):
        got = embedding_near_dups(ds, th, target_block_rows=32).to_pandas()
        assert set(zip(got["a"], got["b"])) == _oracle_pairs(mat, th), th
        assert (got["a"] < got["b"]).all()


def test_embedding_near_dups_never_materializes_matrix(monkeypatch):
    """The exact join must not collect the embedding table to the driver
    (no Dataset.to_pandas on a vector schema) nor broadcast any
    matrix-sized array via ray.put."""
    import ray

    from pyfuseray.extras.knn import embedding_near_dups

    ds, mat = _clustered_emb()

    real_to_pandas = rd.Dataset.to_pandas

    def guarded_to_pandas(self, *a, **k):
        assert "embedding" not in self.schema().names, (
            "driver materialized the embedding table"
        )
        return real_to_pandas(self, *a, **k)

    real_put = ray.put

    def guarded_put(obj, **k):
        if isinstance(obj, np.ndarray):
            assert obj.nbytes < mat.nbytes / 2, "matrix-sized broadcast detected"
        return real_put(obj, **k)

    monkeypatch.setattr(rd.Dataset, "to_pandas", guarded_to_pandas)
    monkeypatch.setattr(ray, "put", guarded_put)
    out = embedding_near_dups(ds, 0.9, target_block_rows=32).to_pandas()
    assert len(out) == len(_oracle_pairs(mat, 0.9))


def test_embedding_near_dups_lsh_high_threshold_recall():
    """At near-dup thresholds the banded-LSH path recovers every true
    pair on clustered data (and never emits a false positive — scores
    are exact cosine)."""
    from pyfuseray.extras.knn import embedding_near_dups_lsh

    ds, mat = _clustered_emb()
    want = _oracle_pairs(mat, 0.9)
    got = embedding_near_dups_lsh(ds, 0.9, planes_per_band=8, n_bands=16).to_pandas()
    gset = set(zip(got["a"], got["b"]))
    assert gset == want
    assert not got["overflow"].any()


def test_embedding_near_dups_lsh_overflow_marker():
    """A pathological bucket (many identical vectors) emits capped pairs
    WITH overflow markers, never a silent drop."""
    from pyfuseray.extras.knn import embedding_near_dups_lsh

    vec = [1.0, 2.0, 3.0, 4.0]
    tbl = pa.table(
        {
            "vec_id": pa.array(range(40), pa.int64()),
            "embedding": pa.array([vec] * 40, pa.list_(pa.float64())),
        }
    )
    ds = rd.from_arrow(tbl).repartition(2)
    got = embedding_near_dups_lsh(ds, 0.9, max_bucket=10).to_pandas()
    assert len(got) > 0
    assert got["overflow"].all()


def test_minhash_verify_no_driver_corpus_scan(monkeypatch):
    """Round-1 regression: the verify step iterated the ENTIRE corpus on
    the driver via iter_rows. The distributed pair-text join must never
    call Dataset.iter_rows at all."""

    def boom(self, *a, **k):
        raise AssertionError("driver-side Dataset.iter_rows during minhash_dedup")

    monkeypatch.setattr(rd.Dataset, "iter_rows", boom)
    base = "the quick brown fox jumps over the lazy dog and runs through the fields"
    texts = [base, base + " tail", "unrelated content about engines and files and shuffles"]
    verified, clusters = minhash_dedup(_doc_ds(texts), threshold=0.5)
    assert (0, 1) in verified
    assert clusters.get(1) == 0


def test_minhash_overflow_marker_and_warning(caplog):
    """Oversized LSH buckets cap pair emission but surface it: overflow
    column on the pairs and a driver-side warning."""
    import logging

    from pyfuseray.extras.dedup import minhash_candidate_pairs

    ds = rd.from_items(
        [{"doc_id": i, "text": "identical boilerplate text repeated here"} for i in range(30)]
    ).repartition(3)
    cand = minhash_candidate_pairs(ds, max_bucket=10).to_pandas()
    assert len(cand) == 45  # C(10,2), capped
    assert cand["overflow"].all()
    with caplog.at_level(logging.WARNING, logger="pyfuseray.extras.dedup"):
        minhash_dedup(ds, threshold=0.5, max_bucket=10)
    assert any("truncated buckets" in r.message for r in caplog.records)


def test_join_pair_payloads():
    from pyfuseray.extras.dedup import join_pair_payloads

    pairs = rd.from_items([{"a": 0, "b": 2}, {"a": 1, "b": 3}])
    payloads = rd.from_items(
        [{"doc_id": i, "text": f"text-{i}"} for i in range(6)]
    ).repartition(3)
    out = join_pair_payloads(pairs, payloads).to_pandas().sort_values("a")
    assert out[["a", "b"]].values.tolist() == [[0, 2], [1, 3]]
    assert out["payload_a"].tolist() == ["text-0", "text-1"]
    assert out["payload_b"].tolist() == ["text-2", "text-3"]


def test_join_pair_payloads_coarse_groups_hold_many_keys(monkeypatch):
    """Scale-shape invariant (round-2 verdict #1): the pair-payload join
    shuffles on COARSE buckets, so one group carries MANY jids / MANY
    (a, b) pairs. With 5 coarse groups and 40 pairs every group holds
    ~8 pairs — a per-key assumption in attach/pivot (the old
    one-group-per-candidate shape) would return garbage here."""
    from pyfuseray import coarse
    from pyfuseray.extras.dedup import join_pair_payloads

    monkeypatch.setattr(coarse, "FLOOR_GROUPS", 5)

    n = 40
    pair_rows = [{"a": i, "b": i + n} for i in range(n)]
    # duplicate pair rows must collapse, not double-emit
    pair_rows += [{"a": 0, "b": n}, {"a": 3, "b": 3 + n}]
    # a pair whose b-side payload is missing from the corpus is dropped
    pair_rows += [{"a": 5, "b": 10_000}]
    pairs = rd.from_items(pair_rows).repartition(4)
    payloads = rd.from_items(
        [{"doc_id": i, "text": f"payload-{i}"} for i in range(2 * n)]
    ).repartition(6)
    out = (
        join_pair_payloads(pairs, payloads)
        .to_pandas()
        .sort_values("a")
        .reset_index(drop=True)
    )
    assert len(out) == n
    assert out["a"].tolist() == list(range(n))
    assert out["b"].tolist() == [i + n for i in range(n)]
    assert out["payload_a"].tolist() == [f"payload-{i}" for i in range(n)]
    assert out["payload_b"].tolist() == [f"payload-{i + n}" for i in range(n)]


def test_attach_and_pivot_vectorized_multikey():
    """Direct unit coverage of the per-coarse-group kernels (now
    arrow-native): one call handles many jids / many pairs (the
    coarse-shuffle contract)."""
    import pyarrow as pa

    from pyfuseray.extras.dedup import _attach_payloads, _pivot_pairs

    # attach: 3 jids' payloads + 2 pairs' side rows in ONE group
    g = pa.table(
        {
            "jid": pa.array([10, 20, 30, 10, 20, 10, 30, 99], pa.int64()),
            "a": pa.array([-1, -1, -1, 10, 10, 10, 10, 99], pa.int64()),
            "b": pa.array([-1, -1, -1, 20, 20, 30, 30, 100], pa.int64()),
            "side": pa.array([2, 2, 2, 0, 1, 0, 1, 0], pa.int8()),
            "payload": pa.array(
                ["p10", "p20", "p30", None, None, None, None, None],
                pa.string(),
            ),
        }
    )
    at = _attach_payloads(g)
    assert at.num_rows == 4  # jid=99 has no payload row -> dropped
    rows = at.to_pylist()
    got = {(r["a"], r["b"], r["side"]): r["payload"] for r in rows}
    assert got == {
        (10, 20, 0): "p10", (10, 20, 1): "p20",
        (10, 30, 0): "p10", (10, 30, 1): "p30",
    }
    # pivot: 2 complete pairs + 1 half pair + duplicated rows in ONE group
    extra = pa.table(
        {
            "a": pa.array([7], pa.int64()),
            "b": pa.array([8], pa.int64()),
            "side": pa.array([0], pa.int8()),
            "payload": pa.array(["x"], pa.string()),
        }
    )
    at2 = pa.concat_tables([at, at.slice(0, 1), extra])
    pv = _pivot_pairs(at2).to_pandas().sort_values("a").reset_index(drop=True)
    assert pv[["a", "b"]].values.tolist() == [[10, 20], [10, 30]]
    assert pv["payload_a"].tolist() == ["p10", "p10"]
    assert pv["payload_b"].tolist() == ["p20", "p30"]


def test_minhash_pairs_match_exact_jaccard_oracle():
    """Contract-oracle pinning: the minhash_pairs entry is hash-gated
    against an exact all-pairs 5-gram-Jaccard SQL oracle, which is only
    sound while LSH recall is 1.0 on the contract inputs. This test
    fails LOCALLY (with a clear message) if a change to
    num_perm/bands/shingle_k or the shingle definition breaks that
    pairing. Params frozen here: num_perm=64, bands=16, shingle_k=5,
    threshold=0.5."""
    import duckdb

    from __ray_entry__ import _q_minhash_pairs, oracle_sql

    sf = "/root/testdata/sf0.001"
    got = _q_minhash_pairs(sf)
    got_set = set(map(tuple, got[["a", "b"]].values.tolist()))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    want = con.execute(oracle_sql()["minhash_pairs"]).df()
    want_set = set(map(tuple, want[["a", "b"]].values.tolist()))
    assert got_set == want_set, (
        "minhash_pairs != exact-Jaccard oracle: LSH recall dropped below "
        "1.0 on contract data (missing: %s, extra: %s) — re-check "
        "num_perm/bands/shingle_k before shipping"
        % (sorted(want_set - got_set), sorted(got_set - want_set))
    )


def test_embedding_lsh_equals_exact_on_contract_data():
    """Contract-oracle pinning (ADVICE r2): embedding_near_dups_lsh is
    hash-gated against the EXACT join's SQL oracle, justified by
    recall 1.0 with the frozen seed/params (planes_per_band=4,
    n_bands=64, seed=29, threshold=0.45). A recall regression must fail
    here with a clear message, not at the driver gate."""
    from __ray_entry__ import _q_embedding_near_dups, _q_embedding_near_dups_lsh

    sf = "/root/testdata/sf0.001"
    exact = _q_embedding_near_dups(sf).to_pandas()
    lsh = _q_embedding_near_dups_lsh(sf).to_pandas()
    e = set(map(tuple, exact[["a", "b"]].values.tolist()))
    l = set(map(tuple, lsh[["a", "b"]].values.tolist()))
    assert l == e, (
        "LSH near-dups != exact join on contract data (missing: %s, "
        "extra: %s) — the shared SQL oracle pairing is broken; re-check "
        "seed/planes_per_band/n_bands" % (sorted(e - l), sorted(l - e))
    )
    # scores are exact cosine on both paths
    es = {(r.a, r.b): r.score for r in exact.itertuples()}
    for r in lsh.itertuples():
        assert abs(es[(r.a, r.b)] - r.score) < 1e-9


def test_simhash_block_banding_covers_hamming3():
    """Pigeonhole guarantee holds for BOTH band layouts: every true
    hamming<=3 pair is a candidate under 4-block (16-bit keys) and
    6-block (C(6,3) 32-bit keys) banding."""
    texts = [f"unique document number {i} alpha beta gamma {i * 7}" for i in range(30)]
    texts += ["shared boilerplate sentence with many words in common here"] * 4
    ds = _doc_ds(texts)
    hs = [simhash64(t) for t in texts]
    true3 = {
        (a, b)
        for a in range(len(texts))
        for b in range(a + 1, len(texts))
        if bin(hs[a] ^ hs[b]).count("1") <= 3
    }
    assert true3  # the fixture really has close pairs
    for blocks in (4, 6):
        cand = simhash_candidates(ds, n_blocks=blocks).to_pandas()
        got = set(zip(cand["a"], cand["b"]))
        assert true3 <= got, blocks


def test_simhash64_golden_values():
    """The vectorized bit-spread must keep exact value compatibility with
    the original per-token loop (golden values computed with it)."""
    import hashlib

    from pyfuseray.extras.dedup import _TOKEN

    def reference(text):
        toks = _TOKEN.findall((text or "").lower())
        if not toks:
            return 0
        acc = np.zeros(64, dtype=np.int64)
        for t in toks:
            h = int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big")
            bits = np.array([(h >> i) & 1 for i in range(64)], dtype=np.int64)
            acc += bits * 2 - 1
        out = 0
        for i in range(64):
            if acc[i] > 0:
                out |= 1 << i
        return out

    for t in ["", "a", "the quick brown fox", "xyzzy " * 40, "Traum über 123"]:
        assert simhash64(t) == reference(t), t


# -- IVF ANN -----------------------------------------------------------------

def test_ivf_consistency_and_recall(tmp_path):
    """The IVF backend mirrors the reference's cross-implementation
    consistency test (Sequential vs RTree, app/tests/image_knn_test.py:
    47-80): probing ALL centroids must equal brute force exactly, and a
    sub-linear nprobe keeps high recall on clustered data."""
    from pyfuseray.extras.ivf import build_ivf, ivf_topk, load_ivf

    ds, vecs = _emb_ds(n=400, dim=16, seed=21)
    ix = build_ivf(ds, str(tmp_path / "ivf"), n_centroids=16, seed=5)
    queries = vecs[:8]
    exact = brute_force_topk(ds, queries, 10)
    # nprobe = n_centroids degrades gracefully to exact search
    full = ivf_topk(ix, queries, 10, nprobe=16)
    for e, f in zip(exact, full):
        assert [v for v, _ in e] == [v for v, _ in f]
        for (_, s1), (_, s2) in zip(e, f):
            # brute_force_topk scores in float32, IVF in float64
            assert abs(s1 - s2) < 1e-6
    # sub-linear probing keeps most true neighbors and always finds self
    approx = ivf_topk(ix, queries, 10, nprobe=4)
    recalls = [
        len({v for v, _ in e} & {v for v, _ in a}) / 10
        for e, a in zip(exact, approx)
    ]
    assert sum(recalls) / len(recalls) >= 0.5
    for j, a in enumerate(approx):
        assert a[0][0] == j  # self is nearest and in the probed partition
    # reload from disk gives identical answers
    ix2 = load_ivf(str(tmp_path / "ivf"))
    again = ivf_topk(ix2, queries, 10, nprobe=4)
    assert again == approx


def test_ivf_range_consistency(tmp_path):
    """Range-search cross-implementation consistency (the reference's
    Sequential-vs-RTree equal-range-count test): probing ALL centroids
    must return exactly the exhaustive scan's result set; sub-linear
    probing returns a subset."""
    from pyfuseray.extras.ivf import build_ivf, ivf_range_search

    ds, vecs = _emb_ds(n=250, dim=8, seed=29)
    ix = build_ivf(ds, str(tmp_path / "ivf"), n_centroids=10, seed=7)
    q = vecs[3]
    for radius in (1.5, 3.0, 5.0):
        exhaustive = range_search(ds, q, radius)
        full = ivf_range_search(ix, q, radius, nprobe=10)
        assert [v for v, _ in full] == [v for v, _ in exhaustive], radius
        for (_, d1), (_, d2) in zip(full, exhaustive):
            assert abs(d1 - d2) < 1e-5
        probed = ivf_range_search(ix, q, radius, nprobe=2)
        assert {v for v, _ in probed} <= {v for v, _ in exhaustive}
    # the query's own vector is always in the nearest probed partition
    hit = ivf_range_search(ix, vecs[3], 1e-5, nprobe=1)
    assert hit and hit[0][0] == 3


def test_resident_ivf_matches_parquet_path(tmp_path):
    """The actor-resident searcher returns exactly what the
    parquet-reading ivf_topk returns, at every nprobe (same normalized
    float64 scores, same tie-break) — including nprobe = n_centroids,
    which equals brute force."""
    from pyfuseray.extras.ivf import ResidentIVF, build_ivf, ivf_topk

    ds, vecs = _emb_ds(n=400, dim=16, seed=21)
    ix = build_ivf(ds, str(tmp_path / "ivf"), n_centroids=16, seed=5)
    res = ResidentIVF(ix, n_shards=3)
    try:
        queries = vecs[:6]
        for nprobe in (1, 4, 16):
            a = ivf_topk(ix, queries, 10, nprobe=nprobe)
            b = res.topk(queries, 10, nprobe=nprobe)
            for ra, rb in zip(a, b):
                assert [v for v, _ in ra] == [v for v, _ in rb], nprobe
                for (_, s1), (_, s2) in zip(ra, rb):
                    # BLAS gemv blocking differs with matrix shape
                    # (per-parquet-batch vs per-centroid): 1-ulp wiggle
                    assert abs(s1 - s2) < 1e-12, nprobe
    finally:
        res.close()


def test_ivf_prunes_partitions(tmp_path):
    """Sub-linear claim: an nprobe search must open only the probed
    centroid partitions, not the whole inverted file."""
    from pyfuseray.extras.ivf import build_ivf, ivf_topk

    ds, vecs = _emb_ds(n=300, dim=8, seed=33)
    ix = build_ivf(ds, str(tmp_path / "ivf"), n_centroids=12, seed=3)
    seen: list[int] = []
    orig = rd.read_parquet

    def spy(path, *a, **k):
        out = orig(path, *a, **k)
        p0 = path[0] if isinstance(path, list) and path else path
        if str(p0).startswith(ix.data_dir):
            seen.append(out.count())
        return out

    import pyfuseray.extras.ivf as ivf_mod

    try:
        ivf_mod.rd.read_parquet = spy
        ivf_topk(ix, vecs[0], 10, nprobe=2)
    finally:
        ivf_mod.rd.read_parquet = orig
    assert seen and seen[0] < 300  # strictly fewer rows than the corpus


def test_as_matrix_zero_copy_paths():
    """The shared vector decode: list / large_list / fixed_size_list
    columns (chunked or not, sliced or not) all reshape to the same
    matrix as the to_pylist fallback."""
    from pyfuseray.extras.vecs import as_matrix, series_matrix

    rng = np.random.default_rng(2)
    mat = rng.standard_normal((50, 7)).astype(np.float32)
    rows = [v.tolist() for v in mat]
    for typ in (
        pa.list_(pa.float32()),
        pa.large_list(pa.float32()),
        pa.list_(pa.float32(), 7),
    ):
        arr = pa.array(rows, type=typ)
        got = as_matrix(arr, dtype=np.float64)
        assert got.shape == (50, 7)
        assert np.allclose(got, mat.astype(np.float64))
        # sliced view (nonzero offset) must decode the slice only
        sl = arr.slice(10, 20)
        assert np.allclose(as_matrix(sl, dtype=np.float64), mat[10:30])
        # chunked
        ch = pa.chunked_array([arr.slice(0, 25), arr.slice(25, 25)])
        assert np.allclose(as_matrix(ch, dtype=np.float64), mat)
    # ragged fallback stays exact
    ragged = pa.array([[1.0, 2.0], [3.0, 4.0]], type=pa.list_(pa.float64()))
    assert as_matrix(ragged).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    # pandas series of arrays
    import pandas as pd

    s = pd.Series([np.array([1.0, 2.0]), [3.0, 4.0]])
    assert series_matrix(s).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_embedding_near_dups_refuses_quadratic_blowup():
    """Above the block-count bound the exact join refuses with a pointer
    to the LSH path instead of spawning a quadratic task fan-out."""
    import pytest

    from pyfuseray.extras.knn import embedding_near_dups

    ds, _ = _emb_ds(n=100, dim=8)
    with pytest.raises(ValueError, match="embedding_near_dups_lsh"):
        embedding_near_dups(ds, 0.9, target_block_rows=10, max_blocks=4)
    # raising the bound explicitly still works
    out = embedding_near_dups(ds, 0.99, target_block_rows=10, max_blocks=16)
    assert out.count() >= 0


def test_build_ivf_overwrites_stale_layout(tmp_path):
    """Rebuilding over an existing (stale/partial) IVF layout must not
    leave old partition files behind for the probe globs: total row
    count across partitions equals the corpus after a rebuild with
    different centroid count."""
    import glob
    import os

    from pyfuseray.extras.ivf import build_ivf, ivf_topk

    ds, vecs = _emb_ds(n=200, dim=8, seed=9)
    out = str(tmp_path / "ivf")
    build_ivf(ds, out, n_centroids=16, seed=5)
    # plant a stale file where a rebuild with fewer centroids would
    # otherwise leave it (simulates a crashed/partial prior run)
    n_files_1 = len(glob.glob(os.path.join(out, "data", "*", "*.parquet")))
    ix = build_ivf(ds, out, n_centroids=4, seed=5)
    files = glob.glob(os.path.join(ix.data_dir, "*", "*.parquet"))
    assert files and len(files) <= n_files_1
    total = rd.read_parquet(sorted(files)).count()
    assert total == 200  # no duplicated/stale rows
    res = ivf_topk(ix, vecs[0], 5, nprobe=4)[0]
    assert res[0][0] == 0


# -- dimensionality reduction ------------------------------------------------

def test_pca_fit_sample_broadcast_transform():
    """M14 (fit-on-sample + broadcast-transform): PCA fit on a seeded
    sample must capture a planted low-rank structure, and the
    distributed transform must equal the driver-side numpy projection
    exactly."""
    from pyfuseray.extras.dimred import fit_pca, pca_transform

    rng = np.random.default_rng(3)
    basis = rng.standard_normal((3, 20))
    coeff = rng.standard_normal((400, 3))
    mat = coeff @ basis + 0.01 * rng.standard_normal((400, 20))
    tbl = pa.table(
        {
            "vec_id": pa.array(range(400), pa.int64()),
            "embedding": pa.array([v.tolist() for v in mat], pa.list_(pa.float64())),
        }
    )
    ds = rd.from_arrow(tbl).repartition(4)
    model = fit_pca(ds, 3, sample_fraction=0.5, seed=9)
    out = pca_transform(ds, model).to_pandas().sort_values("vec_id")
    red = np.asarray(out["reduced"].tolist())
    assert red.shape == (400, 3)
    # distributed == driver-side projection, exactly
    want = (mat - model.mean) @ model.components
    assert np.allclose(red, want, atol=0)
    # planted rank-3 structure: 3 components reconstruct almost all variance
    recon = want @ model.components.T + model.mean
    rel_err = np.linalg.norm(mat - recon) / np.linalg.norm(mat)
    assert rel_err < 0.05
    # determinism: same seed -> identical model
    model2 = fit_pca(ds, 3, sample_fraction=0.5, seed=9)
    assert np.array_equal(model.components, model2.components)


# -- textstats ---------------------------------------------------------------

def test_token_counts():
    out = token_counts(_doc_ds(["one two three", "", "a b"])).to_pandas()
    got = dict(zip(out["doc_id"], out["n_tokens"]))
    assert got == {0: 3, 1: 0, 2: 2}


def test_bpe_token_counts_match_duckdb():
    """The BPE-ish pretokenizer count must agree with the DuckDB RE2
    oracle on contraction / punctuation / unicode / whitespace edge
    cases — this parity IS the contract (`token_counts_bpe`)."""
    import duckdb

    from pyfuseray.extras.textstats import (
        BPE_ISH_PATTERN,
        WS_TOKEN_PATTERN,
        bpe_token_counts,
    )

    texts = [
        "can't stop won're 's",
        "price: $1,234.56!",
        "naïve café — em—dash",
        "tab\there\nnewline",
        "don'tdon's",
        "' x' 'x mixed'll'd've",
        "",
        "   ",
        None,
    ]
    out = bpe_token_counts(_doc_ds(texts)).to_pandas().sort_values("doc_id")
    con = duckdb.connect()
    for i, t in enumerate(texts):
        want_ws, want_bpe = con.execute(
            "SELECT len(regexp_extract_all(coalesce(?, ''), ?)),"
            "       len(regexp_extract_all(coalesce(?, ''), ?))",
            [t, WS_TOKEN_PATTERN, t, BPE_ISH_PATTERN],
        ).fetchone()
        row = out[out["doc_id"] == i].iloc[0]
        assert (row["n_tokens_ws"], row["n_tokens_bpe"]) == (want_ws, want_bpe), t


def test_lang_id():
    texts = [
        "the cat and the dog sat in the garden for an hour with the birds",
        "el perro y el gato que viven en la casa de los abuelos",
        "der hund und die katze sind nicht mit den kindern zu hause",
        "",
    ]
    out = lang_id(_doc_ds(texts), concurrency=2).to_pandas()
    got = dict(zip(out["doc_id"], out["lang_pred"]))
    assert got[0] == "en" and got[1] == "es" and got[2] == "de" and got[3] == "und"


def test_quality_scores_bounds():
    out = quality_scores(_doc_ds(["word " * 200, "123 456 789", ""])).to_pandas()
    q = dict(zip(out["doc_id"], out["quality"]))
    assert q[0] == 1.0              # long, no digits
    assert 0.0 <= q[1] < 0.1        # digit-heavy and short
    assert q[2] == 0.0


def test_rolling_fingerprint_stability():
    a = "some document text that is long enough for windows"
    assert rolling_hash_fingerprint(a) == rolling_hash_fingerprint(a)
    assert rolling_hash_fingerprint(a) != rolling_hash_fingerprint(a + " different tail content here")


# -- multimodal --------------------------------------------------------------

def test_decode_stub_raises_without_fake():
    import pytest

    with pytest.raises(NotImplementedError):
        decode_image(b"\x00\x01")


def test_multimodal_resize_framesample_audio():
    """The remaining multimodal stages (resize, video frame-sample,
    audio features): decode kernels stubbed, plumbing + math real."""
    import pytest

    from pyfuseray.extras.multimodal import (
        AudioFeatureStage,
        FrameSampleStage,
        ResizeStage,
        decode_audio,
        decode_video_frames,
    )

    with pytest.raises(NotImplementedError):
        decode_audio(b"\x00")
    with pytest.raises(NotImplementedError):
        decode_video_frames(b"\x00")

    media = rd.from_arrow(synth_media(30, kinds=("image", "audio", "video")))
    resized = media.map_batches(
        ResizeStage, fn_constructor_kwargs={"out_w": 4, "out_h": 4},
        batch_format="pyarrow", batch_size=8, concurrency=2,
    ).to_pandas()
    assert len(resized) == 30
    assert set(resized["width"]) == {4} and set(resized["height"]) == {4}
    assert all(len(p) == 4 * 4 * 3 for p in resized["payload"])

    frames = media.map_batches(
        FrameSampleStage, fn_constructor_kwargs={"n_frames": 4},
        batch_format="pyarrow", batch_size=8, concurrency=2,
    ).to_pandas()
    assert len(frames) == 30 * 4  # flat-map: one row per sampled frame
    assert sorted(set(frames["frame_idx"])) == [0, 1, 2, 3]

    audio = media.map_batches(
        AudioFeatureStage, fn_constructor_kwargs={"n_bins": 32},
        batch_format="pyarrow", batch_size=8, concurrency=2,
    ).to_pandas()
    assert len(audio) == 30
    assert all(len(v) == 32 for v in audio["feature"])
    norms = [float(np.linalg.norm(v)) for v in audio["feature"]]
    assert all(abs(n - 1.0) < 1e-3 for n in norms)
    # deterministic per payload
    audio2 = media.map_batches(
        AudioFeatureStage, fn_constructor_kwargs={"n_bins": 32},
        batch_format="pyarrow", batch_size=8, concurrency=2,
    ).to_pandas()
    a1 = {m: tuple(v) for m, v in zip(audio["media_id"], audio["feature"])}
    a2 = {m: tuple(v) for m, v in zip(audio2["media_id"], audio2["feature"])}
    assert a1 == a2


def test_multimodal_feature_plumbing():
    media = rd.from_arrow(synth_media(50))
    feats = extract_features(media, concurrency=2, batch_size=16).to_pandas()
    assert len(feats) == 50
    assert all(len(v) == FEATURE_DIM for v in feats["feature"])
    norms = [float(np.linalg.norm(v)) for v in feats["feature"]]
    assert all(abs(n - 1.0) < 1e-3 for n in norms)
    # deterministic: same payload -> same feature
    feats2 = extract_features(rd.from_arrow(synth_media(50)),
                              concurrency=2, batch_size=16).to_pandas()
    f1 = {m: tuple(v) for m, v in zip(feats["media_id"], feats["feature"])}
    f2 = {m: tuple(v) for m, v in zip(feats2["media_id"], feats2["feature"])}
    assert f1 == f2


def test_simhash_banding_pigeonhole_property():
    """Hypothesis: for any 64-bit hash and any <=3-bit flip, the pair
    shares at least one (combo, key) under every supported block
    layout — the pure-math guarantee simhash_candidates relies on."""
    from hypothesis import given, settings, strategies as st

    from pyfuseray.extras.dedup import simhash_block_keys

    @settings(max_examples=200, deadline=None)
    @given(
        h=st.integers(min_value=0, max_value=(1 << 64) - 1),
        flips=st.lists(st.integers(min_value=0, max_value=63), min_size=0,
                       max_size=3, unique=True),
        n_blocks=st.sampled_from([4, 6, 8]),
    )
    def check(h, flips, n_blocks):
        h2 = h
        for b in flips:
            h2 ^= 1 << b
        hs = np.array([h, h2], dtype=np.uint64)
        combo, key = simhash_block_keys(hs, n_blocks, hamming=3)
        per = combo.size // 2
        rows_a = set(zip(combo[:per].tolist(), key[:per].tolist()))
        rows_b = set(zip(combo[per:].tolist(), key[per:].tolist()))
        assert rows_a & rows_b, (hex(h), flips, n_blocks)

    check()


def test_sessionize_gap_semantics():
    """Session windows: a gap > threshold starts a new session; ids are
    1-based per user in time order; aggregates are per session."""
    import pyarrow as pa

    from pyfuseray.extras.sessions import sessionize

    rows = [
        # user 1: three events, gap between 2nd and 3rd > 30 min
        (1, 0, 1.0), (1, 60_000_000, 2.0), (1, 4_000_000_000, 4.0),
        # user 2: single event
        (2, 500, 10.0),
    ]
    tbl = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "value": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    out = (
        sessionize(rd.from_arrow(tbl).repartition(2))
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    assert out.values.tolist() == [
        [1, 1, 0, 2, 3.0],
        [1, 2, 4_000_000_000, 1, 4.0],
        [2, 1, 500, 1, 10.0],
    ]


def test_hash_join_matches_pandas():
    """Repartition hash join == pandas merge on int and string keys,
    inner and left, with dtypes preserved (incl. null-padded unmatched
    left rows)."""
    import pandas as pd

    from pyfuseray.extras.joins import hash_join

    left = pd.DataFrame(
        {"k": [1, 2, 2, 3, 7], "lv": ["a", "b", "c", "d", "e"], "n": [10, 20, 30, 40, 50]}
    )
    right = pd.DataFrame({"rk": [2, 3, 3, 5], "rv": [1.5, 2.5, 3.5, 9.9]})
    lds = rd.from_pandas(left).repartition(3)
    rds = rd.from_pandas(right).repartition(2)

    for how in ("inner", "left"):
        got = (
            hash_join(lds, rds, left_on="k", right_on="rk", how=how)
            .to_pandas()
            .sort_values(["k", "lv", "rv"], na_position="last")
            .reset_index(drop=True)
        )
        want = (
            left.merge(right, left_on="k", right_on="rk", how=how)
            .sort_values(["k", "lv", "rv"], na_position="last")
            .reset_index(drop=True)
        )
        assert got["k"].tolist() == want["k"].tolist(), how
        assert got["lv"].tolist() == want["lv"].tolist(), how
        assert got["n"].dtype == "int64", how  # ints survive null padding
        rv_g = got["rv"].fillna(-1).tolist()
        rv_w = want["rv"].fillna(-1).tolist()
        assert rv_g == rv_w, how

    # string keys
    l2 = pd.DataFrame({"s": ["x", "y", "zz"], "v": [1, 2, 3]})
    r2 = pd.DataFrame({"s2": ["zz", "x", "x"], "w": [7.0, 8.0, 9.0]})
    got = (
        hash_join(rd.from_pandas(l2), rd.from_pandas(r2), left_on="s", right_on="s2")
        .to_pandas()
        .sort_values(["s", "w"])
        .reset_index(drop=True)
    )
    want = l2.merge(r2, left_on="s", right_on="s2").sort_values(["s", "w"]).reset_index(drop=True)
    assert got[["s", "v", "s2", "w"]].equals(want[["s", "v", "s2", "w"]])


def test_hash_join_salts_skewed_keys():
    """One key holding 50% of both sides must still join correctly —
    detect_hot_keys finds it, and the salted plan (spread one side,
    replicate the other across the key's dedicated groups) produces
    exactly the pandas-merge result, for inner and left joins."""
    import pandas as pd

    from pyfuseray.extras.joins import detect_hot_keys, hash_join

    n = 4000
    rng = np.random.default_rng(5)
    # key 7 holds half of each side; the rest spread over 200 keys
    lk = np.where(rng.random(n) < 0.5, 7, rng.integers(100, 300, n))
    rk = np.where(rng.random(n // 2) < 0.5, 7, rng.integers(100, 300, n // 2))
    left = pd.DataFrame({"k": lk, "lv": np.arange(n)})
    right = pd.DataFrame({"rk": rk, "rv": np.arange(n // 2) * 1.5})
    lds = rd.from_pandas(left).repartition(4)
    rds = rd.from_pandas(right).repartition(3)

    hot = detect_hot_keys(lds, "k", per_batch_frac=0.01)
    assert 7 in hot and hot[7] > 1000

    for how in ("inner", "left"):
        got = (
            hash_join(lds, rds, left_on="k", right_on="rk", how=how, salts=4)
            .to_pandas()
            .sort_values(["k", "lv", "rv"], na_position="last")
            .reset_index(drop=True)
        )
        want = (
            left.merge(right, left_on="k", right_on="rk", how=how)
            .sort_values(["k", "lv", "rv"], na_position="last")
            .reset_index(drop=True)
        )
        assert len(got) == len(want), how
        assert got["k"].tolist() == want["k"].tolist(), how
        assert got["lv"].tolist() == want["lv"].tolist(), how
        assert got["rv"].fillna(-1).tolist() == want["rv"].fillna(-1).tolist(), how

    # explicit skew_keys (no detection pass) takes the same salted path
    got = (
        hash_join(lds, rds, left_on="k", right_on="rk", skew_keys=[7], salts=4)
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, left_on="k", right_on="rk")
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    assert got["lv"].tolist() == want["lv"].tolist()


def test_hash_join_keys_above_2_53_stay_exact():
    """int64 keys/values above 2^53 must never round-trip through
    float64 (distinct keys would collide); sides are split arrow-side
    before the pandas merge."""
    import pandas as pd

    from pyfuseray.extras.joins import hash_join

    base = (1 << 60) + 1
    # adjacent huge keys that collide if cast to float64
    keys = [base, base + 1, base + 2, base + 3]
    left = pd.DataFrame({"k": np.array(keys, dtype=np.int64),
                         "lv": np.array([base + 10, base + 11, base + 12, base + 13],
                                        dtype=np.int64)})
    right = pd.DataFrame({"k": np.array([base, base + 1, base + 5], dtype=np.int64),
                          "rv": np.array([base + 20, base + 21, base + 22],
                                         dtype=np.int64)})
    for how in ("inner", "left"):
        got = (
            hash_join(rd.from_pandas(left), rd.from_pandas(right),
                      left_on="k", how=how, detect_skew=False)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        want = left.merge(right, on="k", how=how).sort_values("k").reset_index(drop=True)
        assert got["k"].tolist() == want["k"].tolist(), how
        assert got["lv"].tolist() == want["lv"].tolist(), how
        got_rv = [None if pd.isna(v) else int(v) for v in got["rv"]]
        want_rv = [None if pd.isna(v) else int(v) for v in want["rv"]]
        assert got_rv == want_rv, how  # exact huge ints, no float rounding


def test_hash_join_suffixes_colliding_columns():
    """Non-key columns present on BOTH sides come back as _x/_y pairs
    (pandas convention), never silently nulled."""
    import pandas as pd

    from pyfuseray.extras.joins import hash_join

    left = pd.DataFrame({"k": [1, 2], "name": ["la", "lb"]})
    right = pd.DataFrame({"rk": [1, 2], "name": ["ra", "rb"]})
    got = (
        hash_join(rd.from_pandas(left), rd.from_pandas(right),
                  left_on="k", right_on="rk")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got["name_x"].tolist() == ["la", "lb"]
    assert got["name_y"].tolist() == ["ra", "rb"]
