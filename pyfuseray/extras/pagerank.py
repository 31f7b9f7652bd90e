"""Integer fixed-point PageRank over an undirected pair list.

Float PageRank cannot be hash-checked across engines: per-node
contribution sums commute differently in Ray's groupby and DuckDB's
SUM, so the low bits diverge. This operator defines the iteration in
INTEGER fixed-point instead — every quantity is an int64 count of
``1/scale`` rank units and every step is integer floor division, so
addition order cannot change the result and the DuckDB oracle (the
same three unrolled iterations as CTEs) matches bit-for-bit:

    pr_0[v]   = scale // n
    tel       = ((scale * (den - num)) // den) // n
    recv[v]   = sum over undirected neighbors u of (pr[u] // deg[u])
    pr_k+1[v] = tel + (num * recv[v]) // den        (num/den = damping)

Floor division leaks a little mass per step (standard for fixed-point;
the ranking, not the mass, is the product). Isolated nodes (degree 0,
e.g. docs with no near-dup pairs) contribute nothing and receive only
the teleport term — both sides agree by the same formula.

Scale shape: per iteration, ONE coarse-bucket groupby co-locates the
static edge list with the node-sized state to emit per-edge
contributions, and a second groupby sums them per destination and
applies the update — the same two-shuffles-per-round shape as
components.py's min-label propagation. State is one (node, pr, deg)
row per node, object-store resident; the driver holds only scalars
(n, iteration counter). Edges re-shuffle each round because Ray Data
has no persistent partitioning; on a real cluster the edge Dataset's
blocks stay in the object store and only move to their bucket's
reducer, and iterations is a small constant.

No reference counterpart (the reference has no graph ops); this
extends the dup-graph analytics family (extras/graphstats.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups

from .graphstats import degree_table

SCALE = 10**12
DAMP_NUM = 85
DAMP_DEN = 100


def pagerank_int(
    pairs: rd.Dataset,
    nodes: rd.Dataset,
    node_col: str = "doc_id",
    iters: int = 3,
    scale: int = SCALE,
    damp_num: int = DAMP_NUM,
    damp_den: int = DAMP_DEN,
    num_blocks: int = 64,
) -> rd.Dataset:
    """(node, pr) int64 fixed-point PageRank after ``iters`` rounds.

    ``pairs``: distinct undirected edges (a < b); ``nodes``: one row per
    node (isolated nodes included — they keep the teleport rank).

    ``num_blocks`` bounds the block count of every intermediate: each
    ``map_groups`` emits one block PER COARSE BUCKET (512), and feeding
    512 blocks into the next groupby's range shuffle makes block count
    multiply across iterations (measured 6.7 s for one round but 166 s
    for three before the coalesce). A narrow ``repartition`` between
    rounds keeps each iteration's cost flat.
    """
    n = nodes.count()
    if n == 0:
        return nodes.map_batches(
            lambda t: pa.table(
                {"node": pa.array([], pa.int64()), "pr": pa.array([], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    tel = ((scale * (damp_den - damp_num)) // damp_den) // n
    pr0 = scale // n
    groups = coarse_groups()

    # static (node, deg) with deg=0 for isolated nodes: left-attach the
    # degree table (node-sized) to the node list via one bucket groupby
    deg = degree_table(pairs)

    def tag_node(batch: pa.Table) -> pa.Table:
        v = batch.column(node_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_cb": pa.array(coarse_bucket(v, n_groups=groups)),
                "node": pa.array(v),
                "deg": pa.array(np.full(len(v), -1, np.int64)),
            }
        )

    def tag_deg(batch: pa.Table) -> pa.Table:
        v = batch.column("node").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_cb": pa.array(coarse_bucket(v, n_groups=groups)),
                "node": batch.column("node"),
                "deg": batch.column("degree"),
            }
        )

    def join_deg(group: pa.Table) -> pa.Table:
        node = group.column("node").to_numpy(zero_copy_only=False)
        dg = group.column("deg").to_numpy(zero_copy_only=False)
        is_node = dg < 0
        keys = node[~is_node]
        vals = dg[~is_node]
        order = np.argsort(keys)
        keys, vals = keys[order], vals[order]
        out_n = node[is_node]
        pos = np.searchsorted(keys, out_n)
        pos = np.clip(pos, 0, max(len(keys) - 1, 0))
        hit = (keys[pos] == out_n) if len(keys) else np.zeros(len(out_n), bool)
        d = np.where(hit, vals[pos] if len(keys) else 0, 0).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(out_n, pa.int64()),
                "deg": pa.array(d),
                "pr": pa.array(np.full(len(out_n), pr0, np.int64)),
            }
        )

    state = (
        nodes.map_batches(tag_node, batch_format="pyarrow")
        .union(deg.map_batches(tag_deg, batch_format="pyarrow"))
        .groupby("_cb")
        .map_groups(join_deg, batch_format="pyarrow")
        .repartition(num_blocks)
        .materialize()  # node-sized; reused every round
    )

    def tag_edges(batch: pa.Table) -> pa.Table:
        a = batch.column("a").cast(pa.int64()).to_numpy(zero_copy_only=False)
        b = batch.column("b").cast(pa.int64()).to_numpy(zero_copy_only=False)
        src = np.concatenate((a, b))
        dst = np.concatenate((b, a))
        return pa.table(
            {
                "_cb": pa.array(coarse_bucket(src, n_groups=groups)),
                "src": pa.array(src),
                "dst": pa.array(dst),
                "pr": pa.array(np.full(len(src), -1, np.int64)),
                "deg": pa.array(np.zeros(len(src), np.int64)),
            }
        )

    edges = pairs.map_batches(tag_edges, batch_format="pyarrow").materialize()

    for _ in range(iters):

        def tag_state(batch: pa.Table) -> pa.Table:
            v = batch.column("node").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "_cb": pa.array(coarse_bucket(v, n_groups=groups)),
                    "src": batch.column("node"),
                    "dst": pa.array(np.full(len(v), -1, np.int64)),
                    "pr": batch.column("pr"),
                    "deg": batch.column("deg"),
                }
            )

        def contribute(group: pa.Table) -> pa.Table:
            dst = group.column("dst").to_numpy(zero_copy_only=False)
            src = group.column("src").to_numpy(zero_copy_only=False)
            pr = group.column("pr").to_numpy(zero_copy_only=False)
            dg = group.column("deg").to_numpy(zero_copy_only=False)
            is_state = dst < 0
            keys = src[is_state]
            order = np.argsort(keys)
            keys = keys[order]
            c_of_src = (pr[is_state][order] // np.maximum(dg[is_state][order], 1))
            e_src, e_dst = src[~is_state], dst[~is_state]
            pos = np.searchsorted(keys, e_src)
            # validate the "every edge endpoint has a state row"
            # precondition instead of silently reading a neighbor's
            # contribution (or IndexError only at the array boundary)
            bad = (pos >= keys.size) | (
                keys[np.minimum(pos, max(keys.size - 1, 0))] != e_src
            )
            if bad.any():
                missing = np.unique(e_src[bad])[:5]
                raise ValueError(
                    "pagerank_int: edge source node(s) absent from the "
                    f"nodes dataset: {missing.tolist()}... — `nodes` must "
                    "be a superset of every pair endpoint"
                )
            contrib = c_of_src[pos]
            return pa.table(
                {
                    "_cb2": pa.array(coarse_bucket(e_dst, n_groups=groups)),
                    "dst": pa.array(e_dst, pa.int64()),
                    "c": pa.array(contrib.astype(np.int64)),
                    "deg": pa.array(np.zeros(len(e_dst), np.int64)),
                }
            )

        msgs = (
            state.map_batches(tag_state, batch_format="pyarrow")
            .union(edges)
            .groupby("_cb")
            .map_groups(contribute, batch_format="pyarrow")
            .repartition(num_blocks)
        )

        def tag_state2(batch: pa.Table) -> pa.Table:
            v = batch.column("node").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "_cb2": pa.array(coarse_bucket(v, n_groups=groups)),
                    "dst": batch.column("node"),
                    "c": pa.array(np.full(len(v), -1, np.int64)),
                    "deg": batch.column("deg"),
                }
            )

        def update(group: pa.Table) -> pa.Table:
            dst = group.column("dst").to_numpy(zero_copy_only=False)
            c = group.column("c").to_numpy(zero_copy_only=False)
            dg = group.column("deg").to_numpy(zero_copy_only=False)
            is_state = c < 0
            # received mass per node: sum of contributions targeting it
            nodes_here = dst[is_state]
            deg_here = dg[is_state]
            order = np.argsort(nodes_here)
            nodes_here, deg_here = nodes_here[order], deg_here[order]
            recv = np.zeros(len(nodes_here), np.int64)
            if np.count_nonzero(~is_state):
                tgt = dst[~is_state]
                val = c[~is_state]
                pos = np.searchsorted(nodes_here, tgt)
                bad = (pos >= nodes_here.size) | (
                    nodes_here[np.minimum(pos, max(nodes_here.size - 1, 0))]
                    != tgt
                )
                if bad.any():
                    missing = np.unique(tgt[bad])[:5]
                    raise ValueError(
                        "pagerank_int: edge target node(s) absent from "
                        f"the nodes dataset: {missing.tolist()}... — "
                        "`nodes` must be a superset of every pair endpoint"
                    )
                np.add.at(recv, pos, val)
            new_pr = tel + (damp_num * recv) // damp_den
            return pa.table(
                {
                    "node": pa.array(nodes_here, pa.int64()),
                    "pr": pa.array(new_pr.astype(np.int64)),
                    "deg": pa.array(deg_here, pa.int64()),
                }
            )

        msgs_plus_state = msgs.union(
            state.map_batches(tag_state2, batch_format="pyarrow")
        )
        state = (
            msgs_plus_state.groupby("_cb2")
            .map_groups(update, batch_format="pyarrow")
            .repartition(num_blocks)
            .materialize()
        )

    return state.select_columns(["node", "pr"])
