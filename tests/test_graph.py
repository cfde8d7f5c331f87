"""Connected components + near-dup clustering (stages/graph.py)."""

import numpy as np
import pyarrow as pa
import pytest

from geotrellis_contrib_ray.stages.graph import (
    connected_components,
    neardup_clusters,
    star_edges,
)


def _union_find_labels(n_nodes, edges):
    """Ground truth: min component label via union-find."""
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # min id of each component == root under min-union
    return {i: find(i) for i in range(n_nodes)}


def _labels_dict(ds):
    df = ds.to_pandas()
    cols = list(df.columns)
    return dict(zip(df[cols[0]], df[cols[1]]))


def test_connected_components_vs_union_find(ray_session):
    import ray

    rng = np.random.default_rng(7)
    n = 200
    m = 150
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))]
    truth = _union_find_labels(n, edges)

    edges_ds = ray.data.from_arrow(pa.table({
        "src": pa.array([a for a, _ in edges], pa.int64()),
        "dst": pa.array([b for _, b in edges], pa.int64()),
    }))
    nodes_ds = ray.data.from_arrow(pa.table({"node": pa.array(range(n), pa.int64())}))
    # distributed propagation tier (driver_threshold=0 forces it)
    labels = _labels_dict(connected_components(edges_ds, nodes_ds, buckets=8,
                                               driver_threshold=0))
    assert labels == truth
    # driver union-find tier (default threshold) must agree exactly
    labels2 = _labels_dict(connected_components(edges_ds, nodes_ds))
    assert labels2 == truth


def test_connected_components_long_chain_pointer_jump(ray_session):
    """Path graph 0-1-...-29: diameter 29 — pointer jumping must converge in
    far fewer rounds than the diameter (O(log d))."""
    import ray

    n = 30
    edges_ds = ray.data.from_arrow(pa.table({
        "src": pa.array(range(n - 1), pa.int64()),
        "dst": pa.array(range(1, n), pa.int64()),
    }))
    nodes_ds = ray.data.from_arrow(pa.table({"node": pa.array(range(n), pa.int64())}))
    labels = _labels_dict(connected_components(
        edges_ds, nodes_ds, max_rounds=10, pointer_jump=True, buckets=4,
        driver_threshold=0))
    assert labels == {i: 0 for i in range(n)}


def test_connected_components_isolated_nodes(ray_session):
    import ray

    edges_ds = ray.data.from_arrow(pa.table({
        "src": pa.array([5], pa.int64()),
        "dst": pa.array([6], pa.int64()),
    }))
    nodes_ds = ray.data.from_arrow(pa.table({"node": pa.array(range(8), pa.int64())}))
    labels = _labels_dict(connected_components(edges_ds, nodes_ds, buckets=4))
    assert labels == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 5, 7: 7}


def test_star_edges_linear_per_key(ray_session):
    """A key shared by ids {3,1,9} emits exactly (3->1),(9->1) (star, not
    clique); singleton keys emit nothing."""
    import ray

    keyed = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([3, 1, 9, 4], pa.int64()),
        "key_hash": pa.array([42, 42, 42, 7], pa.int64()),
    }))
    df = star_edges(keyed).to_pandas().sort_values("src")
    assert list(zip(df["src"], df["dst"])) == [(3, 1), (9, 1)]


def test_neardup_clusters_planted_chain(ray_session):
    """A shares a prefix with B; B shares a suffix with C: transitive
    cluster {A,B,C} under one label even though A and C share nothing."""
    import ray

    pre = "PREFIXPREFIX"      # >= key_len chars
    suf = "SUFFIXSUFFIX"
    docs = pa.table({
        "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
        "text": pa.array([
            pre + " alpha alpha alpha end-a",          # 10: prefix key P
            pre + " beta beta beta " + suf,            # 11: prefix P + suffix S
            "gamma gamma gamma gamma " + suf,          # 12: suffix S
            "delta delta delta delta delta unrelated", # 13: singleton
        ]),
    })
    ds = ray.data.from_arrow(docs)
    labels = _labels_dict(neardup_clusters(ds, key_len=10))
    assert labels == {10: 10, 11: 10, 12: 10, 13: 13}


def test_neardup_clusters_all_docs_labeled(ray_session):
    """Every doc gets exactly one row; labels <= doc_id; canonical docs
    label themselves."""
    import ray

    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet",
                               columns=["doc_id", "text"])
    df = neardup_clusters(ds, key_len=10, buckets=8).to_pandas()
    assert len(df) == 500
    assert df["doc_id"].is_unique
    assert (df["cluster_id"] <= df["doc_id"]).all()
    canon = set(df["cluster_id"])
    own = set(df.loc[df["doc_id"] == df["cluster_id"], "doc_id"])
    assert canon == own


def test_connected_components_carry_cols_both_tiers(ray_session):
    """carry_cols must ride node attributes through the label pass in BOTH
    tiers (driver apply carries narrowly; distributed tier re-attaches with
    one bucketed join) — same (node, label, attr) rows either way."""
    import ray

    edges_ds = ray.data.from_arrow(pa.table({
        "src": pa.array([0, 1, 5], pa.int64()),
        "dst": pa.array([1, 2, 6], pa.int64()),
    }))
    nodes_ds = ray.data.from_arrow(pa.table({
        "node": pa.array(range(8), pa.int64()),
        # caller order (zz, attr) deliberately differs from sorted order so
        # a positionally-renamed join-sorted schema would mislabel them
        "zz": pa.array([f"z{i}" for i in range(8)], pa.string()),
        "attr": pa.array([f"a{i}" for i in range(8)], pa.string()),
    }))
    want = {(i, {0: 0, 1: 0, 2: 0, 5: 5, 6: 5}.get(i, i), f"z{i}", f"a{i}")
            for i in range(8)}
    for thr in (1_000_000, 0):
        out = connected_components(edges_ds, nodes_ds, buckets=8,
                                   driver_threshold=thr,
                                   carry_cols=("zz", "attr")).to_pandas()
        assert list(out.columns) == ["node", "label", "zz", "attr"], thr
        got = {(int(r["node"]), int(r["label"]), r["zz"], r["attr"])
               for _, r in out.iterrows()}
        assert got == want, thr


def _rank_norm(res):
    """iterative_rank returns a Dataset (shuffle) or pa.Table (broadcast) —
    normalize to a node-sorted list of (node, r) tuples."""
    import pandas as pd

    df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
    df = df.sort_values("node").reset_index(drop=True)
    return list(zip(df["node"].astype(np.int64), df["r"].astype(np.int64)))


def test_iterative_rank_tier_parity(ray_session):
    """r5: the broadcast tier (narrow passes + driver rollups, zero
    per-iteration shuffles) must equal the shuffle tier row-for-row on an
    undirected random graph — including a hub node and multi-edges."""
    import ray

    from geotrellis_contrib_ray.stages.graph import iterative_rank

    rng = np.random.default_rng(17)
    src = rng.integers(0, 60, 400).astype(np.int64)
    dst = rng.integers(0, 60, 400).astype(np.int64)
    dst[rng.random(400) < 0.2] = 7  # hub
    keep = src != dst
    s, d = src[keep], dst[keep]
    # undirected: both directions present (the broadcast-tier contract)
    edges = pa.table({"src": pa.array(np.concatenate([s, d])),
                      "dst": pa.array(np.concatenate([d, s]))})
    sh = _rank_norm(iterative_rank(ray.data.from_arrow(edges), iters=3,
                                   tier="shuffle"))
    bc = _rank_norm(iterative_rank(ray.data.from_arrow(edges), iters=3,
                                   tier="broadcast"))
    assert sh == bc
    assert len(sh) == len(np.unique(np.concatenate([s, d])))


def test_iterative_rank_broadcast_directed_fallback(ray_session):
    """A DIRECTED edge set (source-set != dst-set) is outside the broadcast
    tier's contract; it must fall back to the shuffle plan and return the
    identical result — same for a node count above max_broadcast_nodes."""
    import ray

    from geotrellis_contrib_ray.stages.graph import iterative_rank

    # 0->1->2->0 plus a sink-only node 3 (cd>0, cs==0) => fallback
    edges = pa.table({"src": pa.array([0, 1, 2, 2], pa.int64()),
                      "dst": pa.array([1, 2, 0, 3], pa.int64())})
    sh = _rank_norm(iterative_rank(ray.data.from_arrow(edges), iters=2,
                                   tier="shuffle"))
    bc = _rank_norm(iterative_rank(ray.data.from_arrow(edges), iters=2,
                                   tier="broadcast"))
    assert sh == bc
    # node-count guard: undirected graph forced through a tiny cap
    und = pa.table({"src": pa.array([0, 1, 1, 2], pa.int64()),
                    "dst": pa.array([1, 0, 2, 1], pa.int64())})
    sh2 = _rank_norm(iterative_rank(ray.data.from_arrow(und), iters=2,
                                    tier="shuffle"))
    bc2 = _rank_norm(iterative_rank(ray.data.from_arrow(und), iters=2,
                                    tier="broadcast", max_broadcast_nodes=1))
    assert sh2 == bc2


def test_q_graph_rank_auto_matches_forced(ray_session):
    """q_graph_rank auto gate (dimension footer rows) must route to a tier
    whose rows equal the forced shuffle plan on the real sf0.001 tables."""
    import __ray_entry__ as e
    from conftest import SF_DIR

    auto = _rank_norm(e.q_graph_rank(SF_DIR, tier="auto"))
    sh = _rank_norm(e.q_graph_rank(SF_DIR, tier="shuffle"))
    assert auto == sh


def test_star_edges_bucket_count_independent(ray_session, monkeypatch):
    """The same star edges whether every key shares one bucket or spreads
    over 97."""
    import ray

    from geotrellis_contrib_ray.stages import joins

    rng = np.random.default_rng(7)
    n = 2000
    keyed = pa.table({
        "doc_id": pa.array(rng.permutation(n).astype(np.int64)),
        "key_hash": pa.array(rng.integers(-(2 ** 62), 2 ** 62, 300)[rng.integers(0, 300, n)]),
    })
    outs = []
    for b in (1, 97):
        monkeypatch.setattr(joins, "_bucket_count", lambda ds, b=b: b)
        df = star_edges(ray.data.from_arrow(keyed)).to_pandas()
        outs.append(df.sort_values(["src", "dst"]).reset_index(drop=True))
    assert len(outs[0]) > 1000
    assert outs[0].equals(outs[1])
