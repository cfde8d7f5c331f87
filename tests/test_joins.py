import numpy as np
import pyarrow as pa
import pytest

from geotrellis_contrib_ray.stages.joins import bucketed_hash_join


def _sides():
    import ray.data as rd

    rng = np.random.default_rng(5)
    left = pa.table(
        {
            "k": rng.integers(0, 500, 5000).astype(np.int64),
            "v": np.arange(5000, dtype=np.int64),
        }
    )
    right = pa.table(
        {
            "k": np.arange(500, dtype=np.int64),
            "w": (np.arange(500, dtype=np.int64) * 10),
        }
    )
    return rd.from_arrow(left), rd.from_arrow(right), left, right


def test_bucketed_join_matches_pandas(ray_session):
    lds, rds, lt, rt = _sides()
    got = (
        bucketed_hash_join(lds, rds, on="k", buckets=8)
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    exp = (
        lt.to_pandas()
        .merge(rt.to_pandas(), on="k")
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    assert got[["k", "v", "w"]].astype(np.int64).equals(exp[["k", "v", "w"]].astype(np.int64))


def test_bucketed_join_schemaless_empty_side(ray_session):
    """A zero-block side with no schema: the inner join is the empty
    Dataset, but a left join would drop the left rows, so it must ask for
    ``schemas=`` instead of returning an empty result.  The anti and skew
    joins follow the same rule: an anti join keeps every left row against
    an empty right side and is empty for an empty left side; the skew
    join is empty for an empty side on either side."""
    from geotrellis_contrib_ray.stages.joins import bucketed_anti_join, skew_aware_join

    lds, rds, lt, _ = _sides()
    empty = lds.filter(lambda r: False).materialize()
    assert empty.schema() is None
    assert bucketed_hash_join(lds, empty, on="k").count() == 0
    with pytest.raises(ValueError, match="schemas="):
        bucketed_hash_join(lds, empty, on="k", how="left")
    assert bucketed_anti_join(empty, rds, on="k").count() == 0
    kept = bucketed_anti_join(lds, empty, on="k").to_pandas()
    assert sorted(kept["v"]) == sorted(lt["v"].to_pylist())
    assert skew_aware_join(empty, rds, on="k").count() == 0
    assert skew_aware_join(lds, empty, on="k").count() == 0


def test_bucketed_join_preserves_dtypes(ray_session):
    """Regression: the pandas per-bucket merge used to null-pad int64 columns
    and hand back float64 (the order_lineitem_join driver hash-fail)."""
    lds, rds, _, _ = _sides()
    out = bucketed_hash_join(lds, rds, on="k", buckets=8).to_pandas()
    assert out["v"].dtype == np.int64
    assert out["w"].dtype == np.int64


def test_asof_join_float_right_value(ray_session):
    """Regression: asof_join hardcoded int64 null-padding; a float right
    value column must survive with its own dtype."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages.joins import asof_join

    left = rd.from_arrow(
        pa.table({"u": [1, 1, 2], "t": [10, 20, 15]})
    )
    right = rd.from_arrow(
        pa.table({"u": [1, 1, 2], "t": [5, 18, 3], "score": [0.5, 1.5, 2.5]})
    )
    out = (
        asof_join(left, right, by="u", on="t", right_value="score", buckets=4)
        .to_pandas()
        .sort_values(["u", "t"])
        .reset_index(drop=True)
    )
    assert out["score"].dtype == np.float64
    assert out["score"].tolist() == [0.5, 1.5, 2.5]


def test_shared_column_guard(ray_session):
    import ray.data as rd

    a = rd.from_arrow(pa.table({"k": [1], "x": [1]}))
    b = rd.from_arrow(pa.table({"k": [1], "x": [2]}))
    with pytest.raises(ValueError, match="rename shared"):
        bucketed_hash_join(a, b, on="k")


def _interval_fixture():
    import pyarrow as pa
    import ray.data as rd

    # values chosen to hit closed boundaries and the overlap zone of
    # [0,4] / [3,7] / [10,14]
    pts = pa.table({"event_id": [1, 2, 3, 4, 5, 6],
                    "value": [0.0, 3.5, 4.0, 7.0, 9.0, 14.0]})
    ivals = [(0, 0.0, 4.0), (1, 3.0, 7.0), (2, 10.0, 14.0)]
    expected = sorted([(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 1), (6, 2)])
    return rd.from_arrow(pts), ivals, expected


def test_interval_join_broadcast_closed_bounds_and_overlap(ray_session):
    from geotrellis_contrib_ray.stages.joins import interval_join

    ds, ivals, expected = _interval_fixture()
    out = interval_join(ds, ivals, on="value").to_pandas()
    got = sorted(zip(out["event_id"], out["interval_id"]))
    assert got == expected


def test_interval_join_bucketed_matches_broadcast(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.joins import interval_join_bucketed

    ds, ivals, expected = _interval_fixture()
    ivds = rd.from_arrow(pa.table({
        "interval_id": [i for i, _, _ in ivals],
        "lo": [lo for _, lo, _ in ivals],
        "hi": [hi for _, _, hi in ivals],
    }))
    # bucket_width smaller than interval length exercises replication
    out = interval_join_bucketed(ds, ivds, on="value", bucket_width=2.0).to_pandas()
    got = sorted(zip(out["event_id"], out["interval_id"]))
    assert got == expected


def test_interval_join_random_parity(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.joins import interval_join, interval_join_bucketed

    rng = np.random.default_rng(3)
    v = rng.uniform(-10, 110, 3000)
    ds = rd.from_arrow(pa.table({"event_id": np.arange(3000), "value": v}))
    lo = rng.uniform(-5, 100, 60)
    ivals = [(i, float(l), float(l + w)) for i, (l, w) in
             enumerate(zip(lo, rng.uniform(0.1, 12.0, 60)))]
    exp = set()
    for i, l, h in ivals:
        for e in np.nonzero((v >= l) & (v <= h))[0]:
            exp.add((int(e), i))
    got_b = interval_join(ds, ivals, on="value").to_pandas()
    assert set(zip(got_b["event_id"], got_b["interval_id"])) == exp
    ivds = rd.from_arrow(pa.table({
        "interval_id": [i for i, _, _ in ivals],
        "lo": [l for _, l, _ in ivals],
        "hi": [h for _, _, h in ivals],
    }))
    got_s = interval_join_bucketed(ds, ivds, on="value", bucket_width=7.0).to_pandas()
    assert set(zip(got_s["event_id"], got_s["interval_id"])) == exp


def test_box_join_reference_point_dedup(ray_session):
    """Boxes spanning MANY replication cells must emit each pair exactly
    once (reference-point rule), including touching-edge (closed) matches."""
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.spatial import box_join

    left = rd.from_arrow(pa.table({
        "id": [1, 2],
        "x0": [0.0, 10.0], "y0": [0.0, 10.0],
        "x1": [9.0, 12.0], "y1": [9.0, 12.0],   # box 1 spans 100 cells at cell=1
    }))
    right = rd.from_arrow(pa.table({
        "id": [7, 8, 9],
        "x0": [5.0, 9.0, 20.0], "y0": [5.0, 9.0, 20.0],
        # 8 = [9,10]^2: touches box 1's edge at x=9 and box 2's corner (10,10)
        "x1": [6.0, 10.0, 21.0], "y1": [6.0, 10.0, 21.0],
    }))
    out = box_join(left, right, cell=1.0).to_pandas()
    got = sorted(zip(out["left_id"], out["right_id"]))
    assert got == [(1, 7), (1, 8), (2, 8)]


def test_box_join_random_parity(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.spatial import box_join

    rng = np.random.default_rng(8)
    def mk(n, seed_off, wmax):
        x0 = rng.uniform(-50, 50, n); y0 = rng.uniform(-50, 50, n)
        w = rng.uniform(0.1, wmax, n); h = rng.uniform(0.1, wmax, n)
        return np.arange(n) + seed_off, x0, y0, x0 + w, y0 + h

    lid, lx0, ly0, lx1, ly1 = mk(400, 0, 8.0)
    rid, rx0, ry0, rx1, ry1 = mk(300, 1000, 5.0)
    lds = rd.from_arrow(pa.table({"id": lid, "x0": lx0, "y0": ly0, "x1": lx1, "y1": ly1}))
    rds = rd.from_arrow(pa.table({"id": rid, "x0": rx0, "y0": ry0, "x1": rx1, "y1": ry1}))
    out = box_join(lds, rds, cell=3.0).to_pandas()
    got = sorted(zip(out["left_id"], out["right_id"]))
    hit = ((lx0[:, None] <= rx1[None, :]) & (lx1[:, None] >= rx0[None, :])
           & (ly0[:, None] <= ry1[None, :]) & (ly1[:, None] >= ry0[None, :]))
    exp = sorted((int(lid[i]), int(rid[j])) for i, j in zip(*np.nonzero(hit)))
    assert got == exp


def test_bucketed_join_string_key(ray_session):
    """String join keys bucket by the FNV hash (not int coercion) — parity
    with a pandas merge on a word-keyed pair of tables."""
    import pandas as pd
    import ray.data as rd

    from geotrellis_contrib_ray.stages.joins import bucketed_hash_join

    words = ["alpha", "beta", "gamma", "delta", "epsilon"]
    left = pa.table({"term": pa.array([words[i % 5] for i in range(40)]),
                     "lval": pa.array(list(range(40)), pa.int64())})
    right = pa.table({"term": pa.array(words[:4]),
                      "rval": pa.array([10, 20, 30, 40], pa.int64())})
    out = bucketed_hash_join(rd.from_arrow(left), rd.from_arrow(right),
                             on="term", buckets=8).to_pandas()
    exp = pd.merge(left.to_pandas(), right.to_pandas(), on="term")
    key = lambda df: df.sort_values(["term", "lval"]).reset_index(drop=True)
    got = key(out)[["term", "lval", "rval"]]
    expd = key(exp)[["term", "lval", "rval"]]
    assert got.equals(expd)
    assert got["rval"].dtype == np.int64


def _bloom_sides():
    import ray.data as rd

    rng = np.random.default_rng(5)
    lkeys = rng.integers(0, 1000, 5000).astype(np.int64)
    rkeys = rng.choice(1000, 120, replace=False).astype(np.int64)
    left = rd.from_arrow(pa.table({"k": pa.array(lkeys), "v": pa.array(np.arange(5000))}))
    right = rd.from_arrow(pa.table({"k": pa.array(rkeys)}))
    return left, right, lkeys, rkeys


def test_bloom_semi_join_exact(ray_session):
    from geotrellis_contrib_ray.stages.joins import bloom_semi_join

    left, right, lkeys, rkeys = _bloom_sides()
    out = bloom_semi_join(left, right, on="k", buckets=8).to_pandas()
    keep = set(rkeys.tolist())
    exp = sorted(v for k, v in zip(lkeys, range(5000)) if k in keep)
    assert sorted(out["v"]) == exp


def test_bloom_semi_join_verify_tiers_agree(ray_session, monkeypatch):
    """The join-verify tier (distinct key side above the broadcast bound)
    returns the same rows as the broadcast-verify tier."""
    from geotrellis_contrib_ray.stages import joins

    left, right, _, _ = _bloom_sides()

    def rows(ds):
        df = ds.to_pandas()
        return sorted(zip(df["k"].tolist(), df["v"].tolist()))

    broadcast = rows(joins.bloom_semi_join(left, right, on="k", buckets=8))
    monkeypatch.setattr(joins, "_BLOOM_BROADCAST_MAX_KEYS", 0)
    joined = rows(joins.bloom_semi_join(left, right, on="k", buckets=8))
    assert joined == broadcast and len(broadcast) > 0


def test_bloom_semi_join_tiny_filter_still_exact(ray_session):
    """bits_log2=8 (256 bits) forces bloom false positives; the verify join
    must still produce the exact semi-join."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages.joins import bloom_semi_join

    lkeys = np.arange(2000, dtype=np.int64)
    rkeys = np.arange(0, 2000, 97, dtype=np.int64)  # 21 keys
    left = rd.from_arrow(pa.table({"k": pa.array(lkeys), "v": pa.array(lkeys * 3)}))
    right = rd.from_arrow(pa.table({"k": pa.array(rkeys)}))
    out = bloom_semi_join(left, right, on="k", bits_log2=8, buckets=4).to_pandas()
    assert sorted(out["k"]) == sorted(rkeys.tolist())


def test_asof_join_keeps_matched_null_value(ray_session):
    """A left row that asof-matches a right row whose VALUE is null must
    survive with the null (SQL ASOF JOIN semantics) — matched-ness is not
    value non-nullness."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages.joins import asof_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()), "t": pa.array([6, 6], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()), "t": pa.array([5, 5], pa.int64()),
        "v": pa.array([None, 3.5], pa.float64()),
    }))
    out = asof_join(left, right, by="k", on="t", right_value="v").to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    assert len(out) == 2
    assert np.isnan(out["v"][0]) and out["v"][1] == 3.5


def test_interval_join_empty_intervals(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.joins import interval_join

    pts = rd.from_arrow(pa.table({
        "event_id": pa.array([1, 2], pa.int64()), "t": pa.array([1.0, 2.0]),
    }))
    out = interval_join(pts, [], on="t")
    assert out.count() == 0


def test_skew_aware_join_matches_bucketed(ray_session):
    """Adversarially skewed key space (one key holds half the left rows):
    the salted tier must produce the identical multiset to the plain
    bucketed join, with the hot key's work spread across salt groups."""
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.joins import bucketed_hash_join, skew_aware_join

    rng = np.random.default_rng(21)
    n = 4000
    keys = np.where(rng.random(n) < 0.5, 7, rng.integers(0, 500, n)).astype(np.int64)
    left = pa.table({"k": pa.array(keys), "v": pa.array(np.arange(n, dtype=np.int64))})
    rkeys = np.arange(0, 500, dtype=np.int64)
    right = pa.table({"k": pa.array(rkeys), "w": pa.array(rkeys * 10)})

    a = bucketed_hash_join(rd.from_arrow(left), rd.from_arrow(right), on="k").to_pandas()
    b = skew_aware_join(rd.from_arrow(left), rd.from_arrow(right), on="k",
                        hot_threshold=100, salt=8).to_pandas()
    cols = ["k", "v", "w"]
    a = a[cols].sort_values(cols).reset_index(drop=True)
    b = b[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) == n  # every left row matches exactly one right row
    assert a.equals(b)


def test_skew_aware_join_right_duplicates(ray_session):
    """Hot keys with MULTIPLE right rows: each left row matches every right
    row exactly once (replication must not double-emit across salts)."""
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.joins import skew_aware_join

    left = pa.table({"k": pa.array([1] * 50 + [2] * 3, pa.int64()),
                     "v": pa.array(np.arange(53, dtype=np.int64))})
    right = pa.table({"k": pa.array([1, 1, 2], pa.int64()),
                      "w": pa.array([10, 11, 20], pa.int64())})
    out = skew_aware_join(rd.from_arrow(left), rd.from_arrow(right), on="k",
                          hot_threshold=10, salt=4).to_pandas()
    assert len(out) == 50 * 2 + 3
    assert sorted(out[out["k"] == 1]["w"].tolist()) == [10] * 50 + [11] * 50


def test_bucketed_anti_join_planted(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.joins import bucketed_anti_join

    left = pa.table({"k": pa.array([1, 2, 3, 4, 2], pa.int64()),
                     "v": pa.array([10, 20, 30, 40, 21], pa.int64())})
    right = pa.table({"k": pa.array([2, 4, 4, 9], pa.int64())})
    out = (bucketed_anti_join(rd.from_arrow(left), rd.from_arrow(right), on="k")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["k"].tolist() == [1, 3]
    assert out["v"].tolist() == [10, 30]


def test_skew_join_subsampled_census_tolerance(ray_session):
    """r5: the subsampled census (deterministic prime-stride row sample +
    scaled threshold) must still catch a genuinely hot key, and hot-set
    errors in EITHER direction must never change the result multiset —
    salting only redistributes work."""
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.joins import bucketed_hash_join, skew_aware_join
    from geotrellis_contrib_ray.stages.skew import detect_hot_keys

    rng = np.random.default_rng(5)
    n = 30_000
    # key 7 holds ~half the rows; everything else is spread over 1000 keys
    keys = np.where(rng.random(n) < 0.5, 7, rng.integers(0, 1000, n)).astype(np.int64)
    left = pa.table({"k": pa.array(keys), "v": pa.array(np.arange(n, dtype=np.int64))})
    rkeys = np.arange(0, 1000, dtype=np.int64)
    right = pa.table({"k": pa.array(rkeys), "w": pa.array(rkeys * 10)})

    # the sampled census catches the planted hot key with the caller's
    # scaled threshold (hot_threshold=10_000 -> stride 97, cut ~51)
    hot = detect_hot_keys(rd.from_arrow(left), ["k"], max(1, 10_000 // (2 * 97)),
                          sample_every=97)
    assert 7 in hot

    cols = ["k", "v", "w"]

    def norm(df):
        return df[cols].sort_values(cols).reset_index(drop=True)

    base = norm(bucketed_hash_join(rd.from_arrow(left), rd.from_arrow(right),
                                   on="k").to_pandas())
    # default auto-subsampled census path
    sampled = norm(skew_aware_join(rd.from_arrow(left), rd.from_arrow(right),
                                   on="k", hot_threshold=10_000, salt=8).to_pandas())
    assert base.equals(sampled)
    # deliberately WRONG hot sets: empty (hot key missed) and a cold key
    # marked hot (false positive) — identical results both ways
    missed = norm(skew_aware_join(rd.from_arrow(left), rd.from_arrow(right),
                                  on="k", hot_threshold=10_000, salt=8,
                                  hot_keys=set()).to_pandas())
    assert base.equals(missed)
    wrong = norm(skew_aware_join(rd.from_arrow(left), rd.from_arrow(right),
                                 on="k", hot_threshold=10_000, salt=8,
                                 hot_keys={3, 11}).to_pandas())
    assert base.equals(wrong)


def test_customer_order_totals_tier_parity(ray_session):
    """r5: the star-schema broadcast tier (zero shuffles) must equal the
    two-join chain tier row-for-row, and auto must pick broadcast under the
    footer-row gate."""
    import __ray_entry__ as e
    from conftest import SF_DIR

    def norm(res):
        import pandas as pd
        import pyarrow as pa

        df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
        return (df[sorted(df.columns)]
                .sort_values("c_mktsegment").reset_index(drop=True))

    bc = norm(e.q_customer_order_totals(SF_DIR, tier="broadcast"))
    ch = norm(e.q_customer_order_totals(SF_DIR, tier="chain"))
    assert bc.equals(ch)
    auto = norm(e.q_customer_order_totals(SF_DIR, tier="auto"))
    assert auto.equals(ch)


def test_full_outer_with_both_side_pre_agg(ray_session):
    """how='outer' + left_pre_agg + right_pre_agg: per-key partials from
    MULTIPLE batches combine per side before the merge; exclusive keys on
    either side survive with typed nulls on the other side's columns."""
    import pandas as pd
    import ray.data as rd

    # left keys {1,2,3}, right keys {2,3,4}; partials split across blocks
    left = pa.table({"k": pa.array([1, 2, 2, 3], pa.int64()),
                     "a": pa.array([10, 1, 2, 5], pa.int64())})
    right = pa.table({"k": pa.array([2, 3, 3, 4], pa.int64()),
                      "b": pa.array([7, 100, 200, 9], pa.int64())})
    lds = rd.from_arrow(left).repartition(3)
    rds = rd.from_arrow(right).repartition(3)
    got = (bucketed_hash_join(
        lds, rds, on="k", how="outer", buckets=4,
        left_pre_agg={"a": "sum"}, right_pre_agg={"b": "sum"},
        schemas=(left.schema, right.schema))
        .to_pandas().sort_values("k").reset_index(drop=True))
    exp = pd.DataFrame({
        "k": [1, 2, 3, 4],
        "a": [10.0, 3.0, 5.0, np.nan],
        "b": [np.nan, 7.0, 300.0, 9.0],
    })
    assert got["k"].tolist() == exp["k"].tolist()
    for c in ("a", "b"):
        assert np.array_equal(got[c].astype(np.float64).to_numpy(),
                              exp[c].to_numpy(), equal_nan=True), c


def test_left_pre_agg_validation(ray_session):
    lds, rds, lt, rt = _sides()
    with pytest.raises(ValueError, match="left_pre_agg"):
        bucketed_hash_join(lds, rds, on="k",
                           left_pre_agg={"nope": "sum"},
                           schemas=(lt.schema, rt.schema))


def test_bucket_count_reads_parquet_footer(ray_session, tmp_path, monkeypatch):
    """_bucket_count takes the row count from the parquet footer of a
    read -> map_batches plan (the __ray_entry__._read_pq shape) without
    executing it, and falls back to the CPU-derived count for a plan with
    several inputs."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from geotrellis_contrib_ray.stages import joins
    from geotrellis_contrib_ray.util import strip_schema_metadata

    path = str(tmp_path / "rows.parquet")
    pq.write_table(pa.table({"k": np.arange(1000, dtype=np.int64)}), path)
    ds = rd.read_parquet(path).map_batches(strip_schema_metadata, batch_format="pyarrow",
                                           zero_copy_batch=True, batch_size=None)
    default = joins.default_join_partitions()
    assert joins._bucket_count(ds) == default  # 1000 rows: one bucket's worth
    monkeypatch.setattr(joins, "_BUCKET_ROWS", 7)
    assert default < 143
    assert joins._bucket_count(ds) == 143  # ceil(1000 / 7)
    assert joins._bucket_count(ds, 3) == 429  # a map that makes 3 rows of each
    assert joins._bucket_count(ds.union(ds)) == default


def test_shuffle_blocks_from_leaf_sizes(ray_session, monkeypatch):
    """_co_partition narrows its union to min(default, max(cpus,
    ceil(bytes / target_max_block_size))) blocks when every side is a plan
    leaf that reports its size, and keeps the default when a side sits
    behind a map or its route copies rows (_fans_out)."""
    import ray.data as rd
    from ray.data import DataContext

    from geotrellis_contrib_ray.stages import joins
    from geotrellis_contrib_ray.stages.agg import _default_shuffle_partitions
    from geotrellis_contrib_ray.util import cluster_cpus

    def once(b):
        return b

    def twice(b):
        return pa.concat_tables([b, b])

    t = pa.table({"k": np.arange(1000, dtype=np.int64)})
    leaf = rd.from_arrow(t)
    mapped = leaf.map_batches(lambda b: b, batch_format="pyarrow")
    assert joins._plan_leaf(leaf) == (1000, t.nbytes)
    assert joins._plan_leaf(mapped) == (1000, None)
    default = _default_shuffle_partitions()
    cpus = cluster_cpus()
    assert (default, cpus) == (8, 4)
    assert joins._shuffle_blocks([(leaf, once)]) == cpus  # 8 KB fills no block
    assert joins._shuffle_blocks([(leaf, once), (mapped, once)]) == default
    assert joins._shuffle_blocks([(leaf, once), (mapped.materialize(), once)]) == cpus
    assert joins._shuffle_blocks([(leaf, joins._fans_out(twice))]) == default
    assert joins._shuffle_blocks([(leaf, once), (leaf, joins._fans_out(twice))]) == default
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", 1500)
    assert joins._shuffle_blocks([(leaf, once)]) == 6  # ceil(8000 / 1500)
    assert joins._shuffle_blocks([(leaf, once)] * 2) == default  # both sides' bytes, capped


def test_co_partition_blocks_keep_cpus_busy_and_skip_copying_routes(ray_session):
    """Leaf sides on a one-row-per-row route: the join runs its per-bucket
    kernel in one block per CPU (the 4-CPU fixture), no fewer.  A leaf side
    behind a copying route (interval_join_bucketed's range replication)
    keeps the default block count.  The results equal the lazy-input
    twins."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages import joins
    from geotrellis_contrib_ray.stages.agg import _default_shuffle_partitions
    from geotrellis_contrib_ray.util import cluster_cpus

    def _sorted(ds, keys):
        return ds.to_pandas().sort_values(keys).reset_index(drop=True)

    cpus, default = cluster_cpus(), _default_shuffle_partitions()
    assert cpus < default
    rng = np.random.default_rng(5)
    left = pa.table({"k": rng.integers(0, 50, 400), "a": np.arange(400)})
    right = pa.table({"k": np.arange(50), "b": np.arange(50) * 10})
    leaves = [rd.from_arrow(left), rd.from_arrow(right)]
    lazy = [d.map_batches(lambda b: b, batch_format="pyarrow") for d in leaves]
    hj = joins.bucketed_hash_join(*leaves, "k").materialize()
    assert hj.num_blocks() == cpus
    assert _sorted(hj, ["a"]).equals(_sorted(joins.bucketed_hash_join(*lazy, "k"), ["a"]))

    points = rd.from_arrow(pa.table({"event_id": np.arange(300),
                                     "v": rng.uniform(0, 100, 300)}))
    ivs = rd.from_arrow(pa.table({"interval_id": np.arange(40),
                                  "lo": np.arange(40) * 2.0,
                                  "hi": np.arange(40) * 2.0 + 15.0}))
    rj = joins.interval_join_bucketed(points, ivs, on="v", bucket_width=5.0).materialize()
    assert rj.num_blocks() == default
    twin = joins.interval_join_bucketed(points.map_batches(lambda b: b, batch_format="pyarrow"),
                                        ivs, on="v", bucket_width=5.0)
    assert _sorted(rj, ["event_id", "interval_id"]).equals(
        _sorted(twin, ["event_id", "interval_id"]))


@pytest.fixture(scope="module")
def tile_layer(ray_session):
    """The materialized 36-tile layer (6x6 keys of 256-cell tiles), its
    layout and the layout of its first pyramid level."""
    from geotrellis_contrib_ray.core.grid import Extent, GridExtent, LayoutDefinition
    from geotrellis_contrib_ray.sources.raster_source import SyntheticRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    grid = GridExtent(Extent(630000.0, 215000.0, 645000.0, 228500.0), 10.0, 10.0, 1500, 1350)
    layout = LayoutDefinition.floating(grid, 256)
    cols, rows = -(-layout.layout_cols // 2), -(-layout.layout_rows // 2)
    tw, th = 2.0 * layout.tile_width, 2.0 * layout.tile_height
    ext = layout.extent
    parent = LayoutDefinition(
        Extent(ext.xmin, ext.ymax - rows * th, ext.xmin + cols * tw, ext.ymax),
        layout.tile_cols, layout.tile_rows, cols, rows)
    return rst.tile_dataset([SyntheticRasterSource(grid)], layout).materialize(), layout, parent


def _new_ops(ds, leaves) -> list[tuple[str, int | None]]:
    """(name, tasks) of the operators ``ds``'s stats list beyond its
    already-executed ``leaves``' (a Dataset's stats repeat its lineage)."""
    import re

    def ops(d):
        return [(m[1], int(m[2]) if m[2] else None) for m in re.finditer(
            r"^Operator \d+ (.+?): (?:(\d+) tasks executed|executed in|\[execution cached\])",
            d.stats(), flags=re.M)]

    out = ops(ds)
    for leaf in leaves:
        for op in ops(leaf):
            out.remove(op)
    return out


def test_one_block_co_partition_runs_in_one_task(tile_layer, monkeypatch, tmp_path):
    """At one CPU a one-sided co-partition over a plan leaf that fits one
    block runs as one plain task (``joins._leaf_map``, whole), with no
    Repartition or Sort, its kernel called once on all buckets: the
    pyramid's two levels, mosaic_merge, a windows op, stats.top_k_per_group,
    agg.salted_group_reduce, graph.star_edges and an empty leaf (no call)
    all equal the shuffle path at 4 CPUs.  A spy on the tier counts the
    kernel's calls in marker files and keeps the plan the tier returned.
    Two-sided joins still shuffle at one CPU: a bucketed_hash_join of two
    from_arrow leaves (equal to its 4-CPU result), a range join (a copying
    route) and a side behind a map."""
    import uuid

    import ray.data as rd

    from geotrellis_contrib_ray import util
    from geotrellis_contrib_ray.stages import joins
    from geotrellis_contrib_ray.stages import raster as rst
    from geotrellis_contrib_ray.stages.agg import _hash_route, salted_group_reduce
    from geotrellis_contrib_ray.stages.graph import star_edges
    from geotrellis_contrib_ray.stages.stats import top_k_per_group
    from geotrellis_contrib_ray.stages.windows import sessionize

    mat, layout, next_layout = tile_layer
    rng = np.random.default_rng(11)
    left = rd.from_arrow(pa.table({"k": rng.integers(0, 60, 500),
                                   "a": np.arange(500)})).materialize()
    right = rd.from_arrow(pa.table({"k": np.arange(60), "b": np.arange(60) * 7})).materialize()
    events = rd.from_arrow(pa.table({
        "user_id": rng.integers(0, 30, 400),
        "ts": pa.array(np.sort(rng.integers(0, 200_000, 400)).astype("datetime64[s]")),
    })).materialize()
    empty = rd.from_arrow(pa.table({"user_id": pa.array([], pa.int64()),
                                    "ts": pa.array([], pa.timestamp("s"))})).materialize()
    # two blocks: the one task bundles them into one batch
    scores = rd.from_arrow([pa.table({"g": rng.integers(0, 40, 300), "v": rng.integers(0, 9, 300),
                                      "id": np.arange(o, o + 300)})
                            for o in (0, 300)]).materialize()
    keyed = rd.from_arrow(pa.table({"doc_id": np.arange(400),
                                    "key_hash": rng.integers(0, 70, 400)})).materialize()

    tiers = []  # (kernel label, marker dir, plan the tier returned) of each one-task run
    leaf_map = joins._leaf_map

    def spy(ds, fn, whole=False):
        if not whole:
            return leaf_map(ds, fn)
        marks = tmp_path / str(len(tiers))
        marks.mkdir()

        def counted(batch):
            (marks / uuid.uuid4().hex).touch()
            return fn(batch)

        out = leaf_map(ds, counted, whole=True)
        tiers.append((fn.__name__, marks, out._logical_plan.dag))
        return out

    monkeypatch.setattr(joins, "_leaf_map", spy)

    def checksums(ds):
        df = rst.summarize_tiles(ds).to_pandas()
        return df.sort_values(["tile_col", "tile_row"]).reset_index(drop=True)

    def rows(ds):
        df = ds.to_pandas()
        return df.sort_values(sorted(df.columns)).reset_index(drop=True)

    def run():
        """(result frame, executed Dataset, its leaves) of each op."""
        lvl1 = rst.pyramid_build(mat, 1, layout)[1].materialize()
        lvl2 = rst.pyramid_build(lvl1, 1, next_layout)[1].materialize()
        mosaic = rst.mosaic_merge(mat, layout).materialize()
        sess = sessionize(events).materialize()
        top = top_k_per_group(scores, "g", "v", 3, "id", rank_col="rk").materialize()
        total = salted_group_reduce(scores, ["g"], [("v", "sum", "s"),
                                                    (None, "count", "n")]).materialize()
        star = star_edges(keyed).materialize()
        none = sessionize(empty).materialize()
        return [(checksums(lvl1), lvl1, [mat]),
                (checksums(lvl2), lvl2, [lvl1]),
                (checksums(mosaic), mosaic, [mat]),
                (rows(sess), sess, [events]),
                (rows(top), top, [scores]),
                (rows(total), total, [scores]),
                (rows(star), star, [keyed]),
                (rows(none), none, [empty])]

    monkeypatch.setattr(util, "cluster_cpus", lambda default=4: 4)
    shuffled = run()
    joined = rows(bucketed_hash_join(left, right, "k"))
    for _, ds, leaves in shuffled[:-1]:
        assert "Sort" in [name for name, _ in _new_ops(ds, leaves)]
    assert tiers == []
    monkeypatch.setattr(util, "cluster_cpus", lambda default=4: 1)
    narrow = run()
    assert [len(x[0]) for x in narrow[:3]] == [9, 4, 36]
    assert [len(x[0]) for x in narrow[5:7]] == [40, 400 - 70]
    for (want, *_), (got, *_) in zip(shuffled, narrow):
        assert got.equals(want)
    # each op ran as one plain task, returned as a FromArrow leaf: no
    # Repartition or Sort ran; the kernel was called once (never on no rows)
    assert [label for label, *_ in tiers] == ["make_parents", "make_parents", "merge_bucket",
                                              "per_bucket", "merge_bucket", "reduce_bucket",
                                              "emit", "per_bucket"]
    assert [len(list(marks.iterdir())) for _, marks, _ in tiers] == [1] * 7 + [0]
    assert all(type(dag).__name__ == "FromArrow" and not dag.input_dependencies
               for *_, dag in tiers)
    # one kernel call over all 16 buckets, not one call per bucket
    calls = joins._co_partition([(scores, _hash_route(["g"], ["g"], 16))],
                                lambda t: pa.table({"n": [len(t)]}))
    assert rows(calls)["n"].tolist() == [600]

    points = rd.from_arrow(pa.table({"event_id": np.arange(200),
                                     "v": rng.uniform(0, 100, 200)})).materialize()
    ivs = rd.from_arrow(pa.table({"interval_id": np.arange(30), "lo": np.arange(30) * 3.0,
                                  "hi": np.arange(30) * 3.0 + 10.0})).materialize()
    hj = bucketed_hash_join(left, right, "k").materialize()
    ranged = joins.interval_join_bucketed(points, ivs, on="v", bucket_width=5.0).materialize()
    mapped = bucketed_hash_join(left, right.map_batches(lambda b: b, batch_format="pyarrow"),
                                "k").materialize()
    for ds, leaves in ((hj, [left, right]), (ranged, [points, ivs]), (mapped, [left, right])):
        assert "Sort" in [name for name, _ in _new_ops(ds, leaves)]
    assert rows(hj).equals(joined)
    assert rows(mapped).equals(joined)


def _blocks(ds) -> list[pa.Table]:
    """The blocks of ``ds`` that hold rows (a map task over an empty block
    leaves a schema-less one, or passes an empty pandas block through)."""
    import ray

    return [t for t in ray.get(ds.to_arrow_refs()) if len(t)]


def test_leaf_map_matches_map_batches(ray_session):
    """``joins._leaf_map`` over a materialized, a ``from_arrow`` and two
    pandas-block leaves (``from_pandas``, a materialized map that returned
    pandas) gives the blocks ``map_batches`` gives, in order and byte for
    byte, per block and (``whole``) as one batch of the leaf's rows; the
    kernel always gets a pyarrow table.  Zero-row blocks, schema-less or
    typed, reach no task; an all-empty leaf gives what the map gives; a
    kernel's exception keeps its type; a map over a leaf is not a leaf."""
    import pandas as pd
    import ray
    import ray.data as rd

    from geotrellis_contrib_ray.stages import joins

    rng = np.random.default_rng(8)
    parts = [pa.table({"k": rng.integers(0, 50, n), "v": rng.uniform(0, 1, n)})
             for n in (70, 0, 45, 0, 30)]
    parts[1] = pa.table({})  # a schema-less empty block, as a mosaic's output holds

    def kernel(b: pa.Table) -> pa.Table:
        if not len(b):
            raise AssertionError("a zero-row batch reached the kernel")
        assert isinstance(b, pa.Table), type(b)
        return b.sort_by("k").append_column("n", pa.array(np.full(len(b), len(b))))

    from_pandas = rd.from_pandas([t.to_pandas() for t in parts])
    to_pandas = rd.from_arrow(parts).map_batches(lambda b: b.to_pandas(),
                                                 batch_format="pyarrow").materialize()
    for leaf in (from_pandas, to_pandas):
        refs = [ref for bundle in leaf._logical_plan.dag.output_data() for ref, _ in bundle.blocks]
        assert all(isinstance(b, pd.DataFrame) for b in ray.get(refs) if len(b))
    for leaf in (rd.from_arrow(parts), rd.from_arrow(parts).materialize(), from_pandas,
                 to_pandas):
        for whole, batch_size in ((False, None), (True, 145)):
            got = joins._leaf_map(leaf, kernel, whole=whole)
            want = leaf.map_batches(kernel, batch_format="pyarrow", zero_copy_batch=True,
                                    batch_size=batch_size)
            assert type(got._logical_plan.dag).__name__ == "FromArrow"
            got, want = _blocks(got), _blocks(want)
            assert len(got) == (1 if whole else 3) and len(got) == len(want)
            assert all(g.equals(w, check_metadata=True) for g, w in zip(got, want))
            assert [t["n"][0].as_py() for t in got] == ([145] if whole else [70, 45, 30])

    for empty in (rd.from_arrow([pa.table({}), pa.table({"k": pa.array([], pa.int64())})]),
                  rd.from_pandas(pd.DataFrame({"k": pd.Series([], dtype="int64")}))):
        for whole, batch_size in ((False, None), (True, 1)):
            got = joins._leaf_map(empty, kernel, whole=whole)
            want = empty.map_batches(kernel, batch_format="pyarrow", batch_size=batch_size)
            assert got.count() == want.count() == 0
            assert got.schema() == want.schema()
            assert got.to_pandas().equals(want.to_pandas())

    def broken(b: pa.Table) -> pa.Table:
        raise LookupError("kernel failed")

    with pytest.raises(LookupError, match="kernel failed"):
        joins._leaf_map(rd.from_arrow(parts[:1]), broken, whole=True)

    mapped = rd.from_arrow(parts).map_batches(lambda b: b, batch_format="pyarrow")
    assert joins._leaf_map(mapped, kernel) is None


def test_one_task_tier_over_a_read_or_a_map_runs_map_batches(ray_session, tmp_path,
                                                             monkeypatch):
    """At one CPU the one-task co-partition over a bare parquet read (a plan
    leaf that reports its size but holds no blocks) still runs as a
    ``map_batches`` whose stats list the kernel; over a from_arrow leaf of
    the same rows it is the plain-task tier, and so over a leaf of pandas
    blocks (``from_pandas``, a materialized map that returned pandas).  All
    answers are equal, and so are ``top_k_per_group``'s over those leaves.
    A map over a leaf shuffles as before."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from geotrellis_contrib_ray import util
    from geotrellis_contrib_ray.stages import joins
    from geotrellis_contrib_ray.stages.agg import _hash_route
    from geotrellis_contrib_ray.stages.stats import top_k_per_group

    monkeypatch.setattr(util, "cluster_cpus", lambda default=4: 1)
    rng = np.random.default_rng(9)
    t = pa.table({"g": rng.integers(0, 30, 400), "v": rng.integers(0, 9, 400)})
    path = str(tmp_path / "t.parquet")
    pq.write_table(t, path)

    def per_bucket(g: pa.Table) -> pa.Table:
        return g.group_by("g").aggregate([("v", "sum")])

    def run(ds):
        return joins._co_partition([(ds, _hash_route(["g", "v"], ["g"], 16))], per_bucket)

    read = run(rd.read_parquet(path)).materialize()
    assert any(name.endswith("MapBatches(per_bucket)") for name, _ in _new_ops(read, []))
    leaf = run(rd.from_arrow(t))
    assert type(leaf._logical_plan.dag).__name__ == "FromArrow"
    mapped = run(rd.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow")).materialize()
    assert "Sort" in [name for name, _ in _new_ops(mapped, [])]

    def rows(ds):
        return ds.to_pandas().sort_values("g").reset_index(drop=True)

    assert rows(read).equals(rows(leaf)) and rows(mapped).equals(rows(leaf))
    assert len(rows(leaf)) == len(t["g"].unique())

    pandas_leaves = [rd.from_pandas(t.to_pandas()),
                     rd.from_arrow(t).map_batches(lambda b: b.to_pandas(),
                                                  batch_format="pyarrow").materialize()]
    for ds in pandas_leaves:
        out = run(ds)
        assert type(out._logical_plan.dag).__name__ == "FromArrow"
        assert rows(out).equals(rows(leaf))

    ids = t.append_column("id", pa.array(np.arange(len(t))))

    def top(ds):
        df = top_k_per_group(ds, "g", "v", 3, "id", rank_col="rk").to_pandas()
        return df.sort_values(["g", "rk"]).reset_index(drop=True)

    want = top(rd.from_arrow(ids))
    assert len(want) == 3 * len(t["g"].unique())
    for ds in (rd.from_pandas(ids.to_pandas()),
               rd.from_arrow(ids).map_batches(lambda b: b.to_pandas(),
                                              batch_format="pyarrow").materialize()):
        assert top(ds).equals(want)


def test_keyed_step_over_a_keyed_reduce_is_not_narrowed_again(ray_session):
    """A one-sided co-partition whose input is already a shuffle's output of
    at most its block count (a keyed reduce feeding a per-key step, the
    grouped quantiles' shape) adds its sort but no second Repartition, and
    its answer equals pandas."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages.agg import _map_key_groups, salted_group_reduce

    rng = np.random.default_rng(5)
    t = pa.table({"g": rng.integers(0, 9, 3000), "v": rng.integers(0, 40, 3000)})
    mapped = rd.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow")
    hist = salted_group_reduce(mapped, ["g", "v"], [(None, "count", "n")])

    def mode(g: pa.Table) -> pa.Table:
        return g.sort_by([("n", "descending"), ("v", "ascending")]).slice(0, 1)

    out = _map_key_groups(hist, ["g"], ["g", "v", "n"], mode)
    names, op = [], out._logical_plan.dag
    while op is not None:
        names.append(type(op).__name__)
        op = op.input_dependencies[0] if op.input_dependencies else None
    assert names.count("Repartition") == 1 and names.count("Sort") == 2, names
    got = out.to_pandas().sort_values("g").reset_index(drop=True)
    exp = (t.to_pandas().value_counts(["g", "v"]).rename("n").reset_index()
           .sort_values(["g", "n", "v"], ascending=[True, False, True])
           .groupby("g").head(1).reset_index(drop=True))
    assert got[["g", "v", "n"]].values.tolist() == exp[["g", "v", "n"]].values.tolist()


def test_union_puts_the_side_without_an_all_to_all_first(ray_session, tmp_path):
    """A join whose left side is a groupby's output and whose right side is
    a read -> map unions the right side first (Ray 2.49 stalls at one CPU
    on a union whose first input holds an all-to-all).  Plan only: nothing
    runs."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data._internal.logical.operators.all_to_all_operator import AbstractAllToAll
    from ray.data._internal.logical.operators.n_ary_operator import Union

    path = str(tmp_path / "right.parquet")
    pq.write_table(pa.table({"k": np.arange(10, dtype=np.int64),
                             "v": np.arange(10, dtype=np.int64)}), path)
    left = rd.from_arrow(pa.table({"k": np.arange(30, dtype=np.int64) % 10})).groupby(
        "k").map_groups(lambda g: g, batch_format="pyarrow")
    right = rd.read_parquet(path).map_batches(lambda b: b, batch_format="pyarrow")
    out = bucketed_hash_join(left, right, on="k", schemas=(
        pa.schema([("k", pa.int64())]), pa.schema([("k", pa.int64()), ("v", pa.int64())])))

    def ops(op):
        yield op
        for dep in op.input_dependencies:
            yield from ops(dep)

    unions = [op for op in ops(out._logical_plan.dag) if isinstance(op, Union)]
    assert len(unions) == 1
    first, second = unions[0].input_dependencies
    assert not any(isinstance(op, AbstractAllToAll) for op in ops(first))
    assert any(isinstance(op, AbstractAllToAll) for op in ops(second))
