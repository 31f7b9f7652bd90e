"""Graph analytics over pair lists — degree distribution + triangles.

Near-dup pair generation (simhash / minhash / embedding LSH — see
extras/dedup.py, extras/knn.py) emits an edge list whose shape tells
you how healthy the dedup signal is: a degree histogram separates
"scattered near-dup pairs" from "one giant template cluster", and the
triangle count measures how clique-like (transitively consistent) the
candidate pairs are — near-dup relations SHOULD be nearly transitive,
so a low triangle-to-wedge ratio flags a threshold that pairs unrelated
docs. The reference has no graph analytics at all; this extends the
dedup family (reference parity anchor: the pair stages it consumes,
e.g. /root/reference/app — no counterpart file).

Scale shape (the part that matters at 100 TB):

* Degree table: ONE coarse-bucket shuffle on ``coarse_bucket(node)``
  (bounded group count — the coarse-shuffle invariant), np.unique inside
  groups. Output is node-count sized.
* Degree histogram: a second tiny shuffle on ``coarse_bucket(degree)``
  over the node-count-sized degree table; output is histogram-sized.
* Triangles (node-iterator++): every triangle x<y<z is counted exactly
  once as the wedge (y,z) enumerated at its SMALLEST node x, joined
  against the edge list. Two coarse-bucket shuffles: group edges by
  ``coarse_bucket(min endpoint)`` to emit wedges, then co-locate wedges
  with edges on ``coarse_bucket(y, z)`` and count matches
  with sorted-code searchsorted inside each group. Nothing
  corpus-sized ever reaches the driver; per-group partial counts are
  summed by ``Dataset.sum``.

Partitioning assumption (documented per the custom-operator rule):
wedge fan-out at node x is C(d_x, 2) where d_x counts only neighbors
LARGER than x — bounded in practice because the upstream pair stages
cap LSH bucket sizes (with sticky overflow markers) so no dup cluster
emits unbounded pairs. For adversarial skew (a hub whose higher-id
adjacency alone is huge) the standard fix is degree orientation, which
needs one extra degree join; not needed for capped dup graphs.

Float-free by construction: node ids, degrees, and counts are all
int64, so the DuckDB contract hash (``dup_graph_degree_hist``,
``dup_graph_triangles``) has no rounding surface.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups


def _codes(y: np.ndarray, z: np.ndarray, uy: np.ndarray, uz: np.ndarray) -> np.ndarray:
    """Collision-free int64 code for (y, z) given the group's sorted
    unique value domains (group-sized, so the product never overflows)."""
    iy = np.searchsorted(uy, y)
    iz = np.searchsorted(uz, z)
    return iy.astype(np.int64) * np.int64(len(uz)) + iz.astype(np.int64)


def degree_table(
    pairs: rd.Dataset, a_col: str = "a", b_col: str = "b"
) -> rd.Dataset:
    """(node, degree) over an undirected distinct edge list (a < b)."""
    groups = coarse_groups()

    def tag(batch: pa.Table) -> pa.Table:
        a = batch.column(a_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        b = batch.column(b_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        node = np.concatenate((a, b))
        cb = coarse_bucket(node, n_groups=groups)
        return pa.table({"_cb": pa.array(cb), "node": pa.array(node)})

    def count(group: pa.Table) -> pa.Table:
        node = group.column("node").to_numpy(zero_copy_only=False)
        u, c = np.unique(node, return_counts=True)
        return pa.table(
            {"node": pa.array(u, pa.int64()), "degree": pa.array(c.astype(np.int64))}
        )

    return (
        pairs.map_batches(tag, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(count, batch_format="pyarrow")
    )


def degree_histogram(
    pairs: rd.Dataset, a_col: str = "a", b_col: str = "b"
) -> rd.Dataset:
    """(degree, n_nodes) histogram, sorted by degree (histogram-sized
    output — the sort moves almost nothing)."""
    groups = coarse_groups()

    def tag(batch: pa.Table) -> pa.Table:
        d = batch.column("degree").to_numpy(zero_copy_only=False)
        cb = coarse_bucket(d, n_groups=groups)
        return pa.table({"_hb": pa.array(cb), "degree": batch.column("degree")})

    def count(group: pa.Table) -> pa.Table:
        d = group.column("degree").to_numpy(zero_copy_only=False)
        u, c = np.unique(d, return_counts=True)
        return pa.table(
            {
                "degree": pa.array(u, pa.int64()),
                "n_nodes": pa.array(c.astype(np.int64)),
            }
        )

    return (
        degree_table(pairs, a_col, b_col)
        .map_batches(tag, batch_format="pyarrow")
        .groupby("_hb")
        .map_groups(count, batch_format="pyarrow")
        .sort("degree")
    )


def value_counts(ds: rd.Dataset, col: str, out_value: str, out_count: str) -> rd.Dataset:
    """(value, count) over one int64 column — ONE coarse-bucket shuffle
    (same-value rows co-locate by ``coarse_bucket(value)``), np.unique
    per group."""
    groups = coarse_groups()

    def tag(batch: pa.Table) -> pa.Table:
        v = batch.column(col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"_cb": pa.array(coarse_bucket(v, n_groups=groups)), "v": pa.array(v)})

    def count(group: pa.Table) -> pa.Table:
        v = group.column("v").to_numpy(zero_copy_only=False)
        u, c = np.unique(v, return_counts=True)
        return pa.table(
            {out_value: pa.array(u, pa.int64()),
             out_count: pa.array(c.astype(np.int64))}
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(count, batch_format="pyarrow")
    )


def cluster_size_histogram(labels: rd.Dataset, label_col: str = "label") -> rd.Dataset:
    """(cluster_size, n_clusters) from a (node, label) component
    labeling (extras/components.connected_components output) —
    singleton clusters included. Two coarse-bucket shuffles, first over
    node-count-sized rows, second over cluster-count-sized rows; the
    final sort moves a histogram."""
    sizes = value_counts(labels, label_col, "cluster_id", "cluster_size")
    return value_counts(sizes, "cluster_size", "cluster_size", "n_clusters").sort(
        "cluster_size"
    )


_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu(d: int) -> tuple[np.ndarray, np.ndarray]:
    got = _TRIU_CACHE.get(d)
    if got is None:
        got = _TRIU_CACHE[d] = np.triu_indices(d, 1)
        if len(_TRIU_CACHE) > 4096:  # bound worker-resident cache
            _TRIU_CACHE.clear()
            _TRIU_CACHE[d] = got
    return got


def _wedges_for_group(group: pa.Table, n_groups: int) -> pa.Table:
    """Edges of one ``coarse_bucket(a)`` group -> wedge rows (y, z),
    y < z, one per unordered higher-neighbor pair of each node a."""
    a = group.column("a").to_numpy(zero_copy_only=False)
    b = group.column("b").to_numpy(zero_copy_only=False)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    # defensive dedup (upstream pair stages emit distinct pairs already)
    if len(a):
        keep = np.ones(len(a), bool)
        keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        a, b = a[keep], b[keep]
    starts = np.flatnonzero(np.r_[True, a[1:] != a[:-1]]) if len(a) else np.array([], np.int64)
    ends = np.r_[starts[1:], len(a)] if len(a) else starts
    ys, zs = [], []
    for s, e in zip(starts, ends):
        d = e - s
        if d < 2:
            continue
        i, j = _triu(int(d))
        ns = b[s:e]  # sorted ascending by the lexsort
        ys.append(ns[i])
        zs.append(ns[j])
    y = np.concatenate(ys) if ys else np.array([], np.int64)
    z = np.concatenate(zs) if zs else np.array([], np.int64)
    return pa.table(
        {
            "_wb": pa.array(coarse_bucket(y, z, n_groups=n_groups)),
            "y": pa.array(y, pa.int64()),
            "z": pa.array(z, pa.int64()),
            "is_edge": pa.array(np.zeros(len(y), np.int8)),
        }
    )


def triangle_count(
    pairs: rd.Dataset, a_col: str = "a", b_col: str = "b"
) -> int:
    """Exact global triangle count of the undirected graph given as a
    distinct (a < b) edge list. See module docstring for the shuffle
    shape and the wedge-skew assumption."""
    # consumed twice (wedge pass + edge-tag pass): pin the edge list so
    # an expensive upstream (e.g. simhash candidate generation) does not
    # re-execute per consumer; edges are pair-sized, never the corpus
    pairs = pairs.materialize()
    groups = coarse_groups()

    def tag_edges_by_a(batch: pa.Table) -> pa.Table:
        a = batch.column(a_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_cb": pa.array(coarse_bucket(a, n_groups=groups)),
                "a": pa.array(a),
                "b": batch.column(b_col).cast(pa.int64()),
            }
        )

    wedges = (
        pairs.map_batches(tag_edges_by_a, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(
            _wedges_for_group, batch_format="pyarrow", fn_kwargs={"n_groups": groups}
        )
    )

    def tag_edges_by_pair(batch: pa.Table) -> pa.Table:
        y = batch.column(a_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        z = batch.column(b_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_wb": pa.array(coarse_bucket(y, z, n_groups=groups)),
                "y": pa.array(y),
                "z": pa.array(z),
                "is_edge": pa.array(np.ones(len(y), np.int8)),
            }
        )

    tagged_edges = pairs.map_batches(tag_edges_by_pair, batch_format="pyarrow")

    def close_group(group: pa.Table) -> pa.Table:
        is_edge = group.column("is_edge").to_numpy(zero_copy_only=False).astype(bool)
        y = group.column("y").to_numpy(zero_copy_only=False)
        z = group.column("z").to_numpy(zero_copy_only=False)
        uy = np.unique(y)
        uz = np.unique(z)
        ec = np.unique(_codes(y[is_edge], z[is_edge], uy, uz))
        wc = _codes(y[~is_edge], z[~is_edge], uy, uz)
        if len(ec) == 0 or len(wc) == 0:
            n = 0
        else:
            pos = np.searchsorted(ec, wc)
            pos = np.clip(pos, 0, len(ec) - 1)
            n = int(np.count_nonzero(ec[pos] == wc))
        return pa.table({"n_triangles": pa.array([n], pa.int64())})

    partials = (
        wedges.union(tagged_edges).groupby("_wb").map_groups(
            close_group, batch_format="pyarrow"
        )
    )
    return int(partials.sum("n_triangles") or 0)


def graph_stats(
    pairs: rd.Dataset, a_col: str = "a", b_col: str = "b"
) -> pd.DataFrame:
    """One-row summary (n_nodes, n_edges, n_triangles) — all int64, so
    the DuckDB oracle compares exactly."""
    # four downstream consumers (count, degree_table, wedge + edge-tag
    # passes): materialize once so the upstream runs once
    pairs = pairs.materialize()
    n_edges = pairs.count()
    n_nodes = degree_table(pairs, a_col, b_col).count()
    n_tri = triangle_count(pairs, a_col, b_col)
    return pd.DataFrame(
        {
            "n_nodes": np.array([n_nodes], np.int64),
            "n_edges": np.array([n_edges], np.int64),
            "n_triangles": np.array([n_tri], np.int64),
        }
    )
