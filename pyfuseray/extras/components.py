"""Connected components over a pair list — duplicate-cluster labeling.

The missing step between near-dup PAIR generation (simhash / minhash /
embedding LSH) and actual corpus dedup: pairs form a graph whose
components are the duplicate clusters; every doc then keeps
``cluster_id = min(doc_id of its component)`` and a pipeline keeps one
canonical doc per cluster.

Two routes, size-gated like ingest dedup (docids.py) and the minhash
verify (dedup.py:11 — "pairs are output-sized"):

* ``driver`` (default below ``driver_max_pairs``): ONLY the pair list
  is pulled to the driver (never the corpus) and contracted with a
  vectorized min-label + pointer-jumping loop (np.minimum.at, label
  doubling — O(log diameter) fully-vectorized passes). The resulting
  (node -> component-min) map is broadcast ONCE via ray.put and the
  optional ``nodes`` dataset is labeled distributed by map_batches —
  corpus-sized data never leaves the workers.

* ``distributed`` (above the gate, or forced): min-label propagation
  where each iteration runs ONE combined message round over
  edges ∪ pointer-jump links (lab[x] <- min(lab[x], lab[nbr],
  lab[lab[x]])) — two coarse-bucketed groupby shuffles per iteration,
  vectorized lexsort/reduceat inside groups, never one group per node.
  Labels are monotonically nonincreasing, so sum(label) is a
  convergence certificate; the jump link makes it O(log diameter)
  rounds (max_iters=64 is a safety valve, not a knob). Per-iteration
  state is ONE (node, label) row per node, object-store-resident.

Both routes are pinned identical on chain/star/cycle graphs by
tests/test_components.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from pyfuseray.coarse import coarse_bucket, coarse_groups

DRIVER_MAX_PAIRS = 5_000_000
# every map_groups emits ~one block per coarse bucket; iterative rounds
# must coalesce between shuffles or block count multiplies round over
# round (measured 20x on 3-round fixed-point PageRank, extras/pagerank.py)
ITER_BLOCKS = 64


# ---------------------------------------------------------------- driver


def label_pairs_numpy(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized contraction of an edge list: returns (nodes, labels)
    with labels = min original id of each node's component. O(E) per
    pass, O(log diameter) passes (edge min-exchange + label doubling).
    """
    nodes = np.unique(np.concatenate((a, b)))
    ia = np.searchsorted(nodes, a)
    ib = np.searchsorted(nodes, b)
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        nxt = lab.copy()
        np.minimum.at(nxt, ia, lab[ib])
        np.minimum.at(nxt, ib, lab[ia])
        nxt = np.minimum(nxt, nxt[nxt])  # pointer jump (label doubling)
        if np.array_equal(nxt, lab):
            break
        lab = nxt
    return nodes, nodes[lab]


def _label_with_map(
    nodes: rd.Dataset, name: str, map_ref: "ray.ObjectRef"
) -> rd.Dataset:
    def attach(batch: pa.Table) -> pa.Table:
        keys, labs = ray.get(map_ref)
        n = batch.column(name).cast(pa.int64()).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, n)
        pos = np.clip(pos, 0, max(len(keys) - 1, 0))
        hit = (len(keys) > 0) & (keys[pos] == n) if len(keys) else np.zeros(len(n), bool)
        out = np.where(hit, labs[pos] if len(keys) else n, n)
        return pa.table(
            {"node": pa.array(n, pa.int64()), "label": pa.array(out, pa.int64())}
        )

    return nodes.map_batches(attach, batch_format="pyarrow")


# ----------------------------------------------------------- distributed


def _iter_blocks(iter_blocks: int | None) -> int:
    """Coalesce width between iterative shuffles: explicit, else
    max(ITER_BLOCKS, 2x cluster CPUs) so a bigger cluster is not capped
    at 64 per-round tasks while small hosts keep the measured default."""
    if iter_blocks is not None:
        return max(1, int(iter_blocks))
    ncpu = (
        int(ray.cluster_resources().get("CPU", 0))
        if ray.is_initialized()
        else 0
    )
    return max(ITER_BLOCKS, 2 * ncpu)


def _round(labels: rd.Dataset, rel: rd.Dataset, nb: int) -> rd.Dataset:
    """One message round: new lab[x] = min(lab[x], min over lab[src] of
    rel rows (src -> x)). ``rel`` columns: (src, dst)."""
    groups = coarse_groups()

    def tag_lab(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_cb": pa.array(coarse_bucket(node, n_groups=groups)),
                "node": batch.column("node"),
                "dst": pa.array(np.full(len(node), -1, dtype=np.int64)),
                "label": batch.column("label"),
            }
        )

    def tag_rel(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_cb": pa.array(coarse_bucket(src, n_groups=groups)),
                "node": batch.column("src").cast(pa.int64()),
                "dst": batch.column("dst").cast(pa.int64()),
                "label": pa.array(np.full(len(src), -1, dtype=np.int64)),
            }
        )

    def emit(group: pa.Table) -> pa.Table:
        node = group.column("node").to_numpy(zero_copy_only=False)
        dst = group.column("dst").to_numpy(zero_copy_only=False)
        label = group.column("label").to_numpy(zero_copy_only=False)
        order = np.argsort(node, kind="stable")
        node, dst, label = node[order], dst[order], label[order]
        starts = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
        counts = np.diff(np.append(starts, node.size))
        # per-node label = min over label rows (edge rows carry -1 ->
        # mask them to +inf before the segmented min)
        lab_masked = np.where(label >= 0, label, np.iinfo(np.int64).max)
        node_lab = np.minimum.reduceat(lab_masked, starts)
        # messages to edge dsts + the node's own refreshed label
        lab_bcast = np.repeat(node_lab, counts)
        is_edge = dst >= 0
        out_node = np.concatenate((dst[is_edge], node[starts]))
        out_lab = np.concatenate((lab_bcast[is_edge], node_lab))
        return pa.table(
            {
                "_cb2": pa.array(coarse_bucket(out_node, n_groups=groups)),
                "node": pa.array(out_node, pa.int64()),
                "label": pa.array(out_lab, pa.int64()),
            }
        )

    def reduce_min(group: pa.Table) -> pa.Table:
        node = group.column("node").to_numpy(zero_copy_only=False)
        label = group.column("label").to_numpy(zero_copy_only=False)
        order = np.argsort(node, kind="stable")
        node, label = node[order], label[order]
        starts = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
        return pa.table(
            {
                "node": pa.array(node[starts], pa.int64()),
                "label": pa.array(np.minimum.reduceat(label, starts), pa.int64()),
            }
        )

    merged = labels.map_batches(tag_lab, batch_format="pyarrow").union(
        rel.map_batches(tag_rel, batch_format="pyarrow")
    )
    msgs = (
        merged.groupby("_cb")
        .map_groups(emit, batch_format="pyarrow")
        .repartition(nb)
    )
    return (
        msgs.groupby("_cb2")
        .map_groups(reduce_min, batch_format="pyarrow")
        .repartition(nb)
    )


def _distributed_components(
    edges: rd.Dataset,
    seeds: rd.Dataset,
    max_iters: int,
    iter_blocks: int | None = None,
) -> rd.Dataset:
    nb = _iter_blocks(iter_blocks)
    def dedup_min(group: pa.Table) -> pa.Table:
        node = group.column("node").to_numpy(zero_copy_only=False)
        label = group.column("label").to_numpy(zero_copy_only=False)
        order = np.argsort(node, kind="stable")
        node, label = node[order], label[order]
        starts = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
        return pa.table(
            {
                "node": pa.array(node[starts], pa.int64()),
                "label": pa.array(np.minimum.reduceat(label, starts), pa.int64()),
            }
        )

    labels = (
        seeds.groupby("_cb2")
        .map_groups(dedup_min, batch_format="pyarrow")
        .repartition(nb)
        .materialize()
    )

    prev_sum = labels.sum("label")
    for _ in range(max_iters):
        # combined round: edge messages AND pointer-jump links
        # (src=lab[x] -> dst=x) in ONE union -> 2 shuffles per iteration.
        def as_jump(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"src": batch.column("label"), "dst": batch.column("node")}
            )

        jump_rel = labels.map_batches(as_jump, batch_format="pyarrow")
        labels = _round(labels, edges.union(jump_rel), nb).materialize()
        cur = labels.sum("label")
        if cur == prev_sum:
            break
        prev_sum = cur
    return labels


# ---------------------------------------------------------- keep-canonical


def keep_canonical(
    docs: rd.Dataset,
    pairs: rd.Dataset,
    *,
    id_col: str = "doc_id",
    a_col: str = "a",
    b_col: str = "b",
    broadcast_max_drop: int = 20_000_000,
) -> rd.Dataset:
    """Near-dedup end state: one canonical row (min id) per duplicate
    cluster; every other member dropped. ``pairs`` are the verified
    near-dup pairs (simhash / minhash / embedding LSH output).

    The DROP set (non-canonical members) is bounded by the pair
    endpoints — output-sized, never corpus-sized — so below
    ``broadcast_max_drop`` ids it is broadcast ONCE via ray.put and the
    corpus streams through a vectorized searchsorted filter (no
    shuffle). Above the gate, an anti-join on COARSE id buckets (one
    corpus shuffle, bounded group count) takes over. Both routes are
    pinned identical by tests/test_components.py.
    """
    comp = connected_components(pairs, a_col=a_col, b_col=b_col)

    def drop_only(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False)
        lab = batch.column("label").to_numpy(zero_copy_only=False)
        keep = node != lab
        return pa.table({"node": pa.array(node[keep], pa.int64())})

    drop = comp.map_batches(drop_only, batch_format="pyarrow").materialize()
    n_drop = drop.count()

    if n_drop <= broadcast_max_drop:
        drop_ids = np.sort(
            drop.to_pandas()["node"].to_numpy(dtype=np.int64)
        ) if n_drop else np.empty(0, dtype=np.int64)
        ref = ray.put(drop_ids)

        def keep_rows(batch: pa.Table) -> pa.Table:
            ids = ray.get(ref)
            d = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
            if not len(ids):
                return batch
            pos = np.searchsorted(ids, d)
            pos = np.clip(pos, 0, len(ids) - 1)
            return batch.filter(pa.array(ids[pos] != d))

        return docs.map_batches(keep_rows, batch_format="pyarrow")

    # anti-join route: ONE corpus shuffle on coarse id buckets.
    # capture plain (name, arrow-type) pairs — never the Dataset — in
    # closures; Ray's Schema wrapper can surface Python types, so go
    # through the underlying pyarrow schema.
    schema = docs.schema()
    arrow_schema = getattr(schema, "base_schema", None)
    if arrow_schema is None or not isinstance(arrow_schema, pa.Schema):
        def _atype(t):
            if isinstance(t, pa.DataType):
                return t
            dt = np.dtype(object) if t in (str, object) else np.dtype(t)
            if dt.kind in ("U", "S", "O"):
                return pa.string()
            return pa.from_numpy_dtype(dt)

        arrow_schema = pa.schema(
            [(n, _atype(t)) for n, t in zip(schema.names, schema.types)]
        )
    names = list(arrow_schema.names)
    types = {f.name: f.type for f in arrow_schema}
    groups = coarse_groups()

    def tag_drop(batch: pa.Table) -> pa.Table:
        d = batch.column("node").to_numpy(zero_copy_only=False)
        cols = {n: pa.nulls(len(d), types[n]) for n in names}
        cols[id_col] = pa.array(d).cast(types[id_col])
        t = pa.table(cols).append_column("_cb", pa.array(coarse_bucket(d, n_groups=groups)))
        return t.append_column("_dropmark", pa.array(np.ones(len(d), dtype=np.int8)))

    def tag_doc2(batch: pa.Table) -> pa.Table:
        d = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        t = batch.append_column("_cb", pa.array(coarse_bucket(d, n_groups=groups)))
        return t.append_column(
            "_dropmark", pa.array(np.zeros(batch.num_rows, dtype=np.int8))
        )

    def anti(group: pa.Table) -> pa.Table:
        d = group.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        mark = group.column("_dropmark").to_numpy(zero_copy_only=False)
        dropped = np.unique(d[mark == 1])
        keep = mark == 0
        if len(dropped):
            pos = np.clip(np.searchsorted(dropped, d), 0, len(dropped) - 1)
            keep &= dropped[pos] != d
        return group.filter(pa.array(keep)).drop_columns(["_cb", "_dropmark"])

    tagged = docs.map_batches(tag_doc2, batch_format="pyarrow").union(
        drop.map_batches(tag_drop, batch_format="pyarrow")
    )
    return tagged.groupby("_cb").map_groups(anti, batch_format="pyarrow")


# ----------------------------------------------------------------- api


def connected_components(
    pairs: rd.Dataset,
    *,
    nodes: rd.Dataset | None = None,
    a_col: str = "a",
    b_col: str = "b",
    max_iters: int = 64,
    driver_max_pairs: int = DRIVER_MAX_PAIRS,
    mode: str = "auto",
    iter_blocks: int | None = None,
) -> rd.Dataset:
    """(node, label) with label = min node id of the component.

    ``pairs``: undirected edges (a_col, b_col), int64. ``nodes``
    (optional, single int64 column): the node universe to label —
    isolated ones come back as their own singleton cluster; it should
    contain every pair endpoint (the driver route labels exactly
    ``nodes`` when given, the distributed route labels
    endpoints ∪ nodes). ``mode``: 'auto' (size gate on the pair
    count), 'driver', or 'distributed'. ``iter_blocks``: coalesce width
    between the iterative shuffles (None derives max(64, 2x CPUs)).
    """
    pairs = pairs.materialize()
    if mode == "auto":
        mode = "driver" if pairs.count() <= driver_max_pairs else "distributed"

    if mode == "driver":
        pdf = pairs.to_pandas()
        if len(pdf):
            a = pdf[a_col].to_numpy(dtype=np.int64)
            b = pdf[b_col].to_numpy(dtype=np.int64)
            keys, labs = label_pairs_numpy(a, b)
        else:
            keys = labs = np.empty(0, dtype=np.int64)
        if nodes is not None:
            ref = ray.put((keys, labs))
            return _label_with_map(nodes, nodes.schema().names[0], ref)
        return rd.from_arrow(
            pa.table(
                {"node": pa.array(keys, pa.int64()), "label": pa.array(labs, pa.int64())}
            )
        )

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch.column(a_col).cast(pa.int64())
        b = batch.column(b_col).cast(pa.int64())
        return pa.table(
            {
                "src": pa.chunked_array([a, b]),
                "dst": pa.chunked_array([b, a]),
            }
        )

    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()

    # initial labels: every endpoint (plus optional isolated nodes),
    # deduplicated via one coarse-bucketed shuffle
    groups = coarse_groups()
    def seed(batch: pa.Table) -> pa.Table:
        n = batch.column("src").to_numpy(zero_copy_only=False)
        return pa.table(
            {"_cb2": pa.array(coarse_bucket(n, n_groups=groups)), "node": batch.column("src"),
             "label": batch.column("src")}
        )

    seeds = edges.map_batches(seed, batch_format="pyarrow")
    if nodes is not None:
        name = nodes.schema().names[0]

        def seed_nodes(batch: pa.Table) -> pa.Table:
            n = batch.column(name).cast(pa.int64())
            cb = coarse_bucket(n, n_groups=groups)
            return pa.table({"_cb2": pa.array(cb), "node": n, "label": n})

        seeds = seeds.union(nodes.map_batches(seed_nodes, batch_format="pyarrow"))

    return _distributed_components(edges, seeds, max_iters, iter_blocks)
