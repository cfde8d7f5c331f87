"""Driver contract for the Ray-Data-native spatial-join + tiling engine.

``entry()`` runs the flagship interleaved-corpus pipeline on sf0.001.
``queries()`` exposes one callable per implemented operator (SURVEY.md §2);
``oracle_sql()`` returns the DuckDB twin for each SQL-expressible one.  The
SQL strings are *generated from the same constants* the Ray pipelines use
(geotrellis_contrib_ray/pipelines/query_defs.py), so the two sides cannot
drift.  Ray is initialised by the driver — nothing here calls ray.init().
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402


def _rd():
    import ray.data as rd

    return rd


def _read_pq(path: str, **kw):
    """read_parquet + schema-metadata strip: the generator's parquet carries
    a ``b'pandas'`` schema-metadata blob, and ``pa.Schema.__hash__`` raises
    on ANY metadata — every downstream schema unification then logs
    "Failed to hash the schemas" and Ray's schema-dedup cache is defeated.
    The strip is a zero-copy cast fused into the read stage."""
    from geotrellis_contrib_ray.util import strip_schema_metadata

    ds = _rd().read_parquet(path, **kw)
    return ds.map_batches(strip_schema_metadata, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)


def _guard_max_text_len(ds, bound: int, what: str):
    """Distributed guard for oracle twins whose generated SQL enumerates a
    CONSTANT offset series (DuckDB generate_series takes constants only): a
    document longer than the series bound would silently diverge from the
    oracle, so the pipeline fails loudly instead (ADVICE r2).  Pure narrow
    pass-through; costs one vectorized length check per batch."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def check(b: pa.Table) -> pa.Table:
        if len(b):
            mx = pc.max(pc.fill_null(pc.utf8_length(b["text"]), 0)).as_py()
            if mx is not None and mx > bound:
                raise ValueError(
                    f"{what}: document of {mx} chars exceeds the oracle's "
                    f"enumerated bound {bound} — raise the shared constant "
                    "in pipelines/query_defs.py (both engines regenerate)")
        return b

    return ds.map_batches(check, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def _keep_columns(ds, schema):
    """``ds`` run once, or the empty table of ``schema`` when it has no
    rows: Ray's ``Dataset.to_pandas()`` of a zero-row result has no columns
    (its batch iterator skips empty blocks), so an empty answer would lose
    its columns and their types."""
    ds = ds.materialize()
    return ds if ds.count() else schema.empty_table()


def _int64_schema(*names):
    """An all-int64 result schema of ``names``, for ``_keep_columns``."""
    import pyarrow as pa

    return pa.schema([(n, pa.int64()) for n in names])


def _jaccard_schema():
    """Columns and types of the exact n-gram Jaccard twins' result."""
    import pyarrow as pa

    i64 = pa.int64()
    return pa.schema([("id1", i64), ("id2", i64), ("n_shared", i64),
                      ("n_union", i64), ("jaccard", pa.float64())])


# ---------------------------------------------------------------------------
# query implementations (Ray side)
# ---------------------------------------------------------------------------


def _docs_points(sf_dir: str, columns=("doc_id", "n_chars")):
    from geotrellis_contrib_ray.stages import spatial

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=list(columns))
    return ds.map_batches(spatial.add_geocode, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,)


def q_tile_assign(sf_dir: str):
    """J4/J5: layout tile-key assignment at zoom 12 (global WGS84 layout)."""
    from geotrellis_contrib_ray.pipelines.query_defs import QUERY_LAYOUT
    from geotrellis_contrib_ray.stages import spatial

    ds = _docs_points(sf_dir, columns=("doc_id",))
    ds = ds.map_batches(
        lambda b: spatial.add_tile_key(b, QUERY_LAYOUT),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )
    return ds.select_columns(["doc_id", "tile_col", "tile_row"])


def q_cell_assign(sf_dir: str):
    """Hierarchical cell assignment: packed cell id at res 12 + parent at 8."""
    from geotrellis_contrib_ray.pipelines.query_defs import CELL_RES, PARENT_RES
    from geotrellis_contrib_ray.stages import spatial

    ds = _docs_points(sf_dir, columns=("doc_id",))
    ds = ds.map_batches(
        lambda b: spatial.add_cell(b, CELL_RES, PARENT_RES),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )
    return ds.select_columns(["doc_id", "cell", "parent_cell"])


def q_hilbert_key(sf_dir: str):
    """Hilbert space-filling-curve partition key per doc point — THE spatial
    partitioning key of the scale plan (stages/spatial.py::spatial_sort).
    Oracle: the 16-iteration bit loop unrolled as a generated DuckDB CTE
    chain (query_defs.hilbert_sql_cte) — identical integer arithmetic."""
    from geotrellis_contrib_ray.stages import spatial

    ds = _docs_points(sf_dir, columns=("doc_id",))
    ds = ds.map_batches(
        spatial.add_hilbert_key,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )
    return ds.select_columns(["doc_id", "hkey", "part"])


def q_geohash_cells(sf_dir: str):
    """Geohash cell encoding per doc point — the string-keyed hierarchical
    cell family (prefix = parent, lexicographic range = spatial range)
    beside packed cells and the Hilbert key.  Oracle: the 40-bit lon-first
    interleave unrolled as a generated CTE (query_defs.geohash_sql_cte);
    both the base32 STRING and the interleaved integer cross the hash."""
    from geotrellis_contrib_ray.stages import spatial

    ds = _docs_points(sf_dir, columns=("doc_id",))
    ds = ds.map_batches(
        spatial.add_geohash,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )
    return ds.select_columns(["doc_id", "geohash", "gh_code"])


def q_pip_zones(sf_dir: str):
    """J1: PIP semi-join of doc points vs broadcast zones (boxes + convex)."""
    from geotrellis_contrib_ray.pipelines.query_defs import ZONE_BOXES, ZONE_CONVEX
    from geotrellis_contrib_ray.stages import spatial

    ds = _docs_points(sf_dir, columns=("doc_id",))
    return spatial.pip_join(ds, ZONE_BOXES, convex_zones=[ZONE_CONVEX], keep_cols=("doc_id",))


def q_knn(sf_dir: str):
    """O4: k nearest docs per broadcast query point; ties broken on doc_id."""
    from geotrellis_contrib_ray.pipelines.query_defs import KNN_K, KNN_QUERIES
    from geotrellis_contrib_ray.stages import spatial

    ds = _docs_points(sf_dir, columns=("doc_id",))
    return spatial.knn(ds, KNN_QUERIES, KNN_K)


def q_distance_pairs(sf_dir: str):
    """J3: distance self-join (θ-join) on a deterministic sample."""
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.pipelines.query_defs import DIST_SAMPLE_LIMIT, DIST_THETA
    from geotrellis_contrib_ray.stages import spatial

    # prune at the read: the sample predicate is pushed into the parquet scan
    # (row-group pruning), not applied post-hoc
    ds = _read_pq(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id"],
        filter=pc.field("doc_id") < DIST_SAMPLE_LIMIT,
    )
    sampled = ds.map_batches(
        spatial.add_geocode, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return spatial.distance_join(sampled, DIST_THETA)


def q_zonal_summary(sf_dir: str):
    """J6: polygonal (zonal) summary — per-zone count + n_chars sum."""
    from geotrellis_contrib_ray.pipelines.query_defs import ZONE_BOXES, ZONE_CONVEX
    from geotrellis_contrib_ray.stages import spatial

    ds = _docs_points(sf_dir)
    return spatial.zonal_summary(ds, ZONE_BOXES, convex_zones=[ZONE_CONVEX])


def q_rasterize(sf_dir: str):
    """Rasterize points to the 0.01-degree query grid: count + value sum."""
    from geotrellis_contrib_ray.pipelines.query_defs import QUERY_GRID
    from geotrellis_contrib_ray.stages import spatial

    ds = _docs_points(sf_dir)
    return spatial.rasterize_count(ds, QUERY_GRID, value_col="n_chars")


def q_pyramid(sf_dir: str):
    """A7: hierarchical pyramid — rasterized grid aggregated 4 levels up."""
    from geotrellis_contrib_ray.pipelines.query_defs import QUERY_GRID
    from geotrellis_contrib_ray.stages import spatial

    base = spatial.rasterize_count(_docs_points(sf_dir, columns=("doc_id",)), QUERY_GRID)
    return spatial.pyramid_rollup(base, levels=4)


def q_raster_summary(sf_dir: str):
    """A6: RasterSummary — global extent + count rollup."""
    import pandas as pd

    from geotrellis_contrib_ray.stages import spatial

    res = spatial.raster_summary(_docs_points(sf_dir, columns=("doc_id",)))
    return pd.DataFrame([res])


def q_dedup_exact(sf_dir: str):
    """Exact dedup groups: first doc id + copy count per distinct text."""
    import pyarrow as pa

    from geotrellis_contrib_ray.stages import dedup

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return _keep_columns(dedup.exact_dedup_groups(ds), pa.schema(
        [("text", pa.string()), ("first_doc", pa.int64()), ("n_copies", pa.int64())]))


def q_token_stats(sf_dir: str):
    """Token counting + avg token length (whitespace convention)."""
    from geotrellis_contrib_ray.stages import text as textmod

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = ds.map_batches(textmod.add_token_stats, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,)
    return ds.select_columns(["doc_id", "n_tokens", "avg_token_len"])


def q_lang_profile(sf_dir: str):
    """Per-language profile over the driver's lang column."""
    import pyarrow as pa

    from ray.data.aggregate import Sum

    from geotrellis_contrib_ray.stages import text as textmod

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["lang", "text", "n_chars"])
    ds = ds.map_batches(textmod.add_token_stats, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,)

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["lang", "n_tokens", "n_chars"]).group_by("lang", use_threads=False).aggregate(
            [("n_tokens", "sum"), ("n_chars", "sum"), ("n_chars", "count")]
        )
        return g.rename_columns(["lang", "ptok", "pchars", "pcnt"])

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,)
    return driver_group_rollup(part, ["lang"],
                               [("ptok", "sum", "sum_tokens"),
                                ("pchars", "sum", "sum_chars"),
                                ("pcnt", "sum", "n_docs")])


def q_event_windows(sf_dir: str):
    """Tumbling event-time windows per event_type (integer-cent sums)."""
    from geotrellis_contrib_ray.pipelines.query_defs import WINDOW_SEC
    from geotrellis_contrib_ray.stages import windows

    ds = _read_pq(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])
    return windows.tumbling_window_agg(ds, WINDOW_SEC)


def q_interval_join(sf_dir: str):
    """Range join, broadcast tier: events stabbed against the VALUE_INTERVALS
    ranges through a worker-cached packed Hilbert R-tree (joins.interval_join).
    Closed [lo, hi] ends == SQL BETWEEN."""
    from geotrellis_contrib_ray.pipelines.query_defs import VALUE_INTERVALS
    from geotrellis_contrib_ray.stages.joins import interval_join

    ds = _read_pq(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
    return interval_join(ds, VALUE_INTERVALS, on="value", keep_cols=("event_id",))


def q_interval_join_bucketed(sf_dir: str):
    """Range join, shuffle tier (both sides Datasets): interval replication
    into fixed-width buckets + one groupby — the two-large-sides scale path.
    Same intervals, same oracle as q_interval_join."""
    import pyarrow as pa

    from geotrellis_contrib_ray.pipelines.query_defs import VALUE_INTERVALS
    from geotrellis_contrib_ray.stages.joins import interval_join_bucketed

    ds = _read_pq(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
    ivals = _rd().from_arrow(
        pa.table(
            {
                "interval_id": [i for i, _, _ in VALUE_INTERVALS],
                "lo": [lo for _, lo, _ in VALUE_INTERVALS],
                "hi": [hi for _, _, hi in VALUE_INTERVALS],
            }
        )
    )
    return interval_join_bucketed(
        ds, ivals, on="value", bucket_width=8.0, keep_col="event_id"
    )


def q_sliding_windows(sf_dir: str):
    """Sliding (hopping) windows (SLIDE_SIZE_SEC / SLIDE_HOP_SEC)."""
    from geotrellis_contrib_ray.pipelines.query_defs import SLIDE_HOP_SEC, SLIDE_SIZE_SEC
    from geotrellis_contrib_ray.stages import windows

    ds = _read_pq(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])
    return windows.sliding_window_agg(ds, size_sec=SLIDE_SIZE_SEC, hop_sec=SLIDE_HOP_SEC)


def q_sessionize(sf_dir: str):
    """Session windows per user (gap = SESSION_GAP_SEC)."""
    from geotrellis_contrib_ray.pipelines.query_defs import SESSION_GAP_SEC
    from geotrellis_contrib_ray.stages import windows

    ds = _read_pq(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return windows.sessionize(ds, gap_sec=SESSION_GAP_SEC)


def q_window_funcs(sf_dir: str):
    """Per-row SQL window functions (ROW_NUMBER / RANK / DENSE_RANK /
    LAG+LEAD gaps / NTILE / partition count / running sum) per user over
    events — the full-output window surface next to the winners-only
    top_k_per_group tier."""
    from geotrellis_contrib_ray.pipelines.query_defs import (
        WINDOW_GAP_NONE,
        WINDOW_NTILE_K,
    )
    from geotrellis_contrib_ray.stages import windows

    ds = _read_pq(f"{sf_dir}/events.parquet",
                  columns=["event_id", "user_id", "ts", "value"])
    return windows.window_functions(ds, gap_none=WINDOW_GAP_NONE,
                                    ntile_k=WINDOW_NTILE_K)


def q_moving_stats(sf_dir: str):
    """Bounded ROWS-frame window aggregates (moving count/sum/min over
    ROWS BETWEEN k PRECEDING AND CURRENT ROW) per user over events."""
    from geotrellis_contrib_ray.pipelines.query_defs import FRAME_PRECEDING_ROWS
    from geotrellis_contrib_ray.stages import windows

    ds = _read_pq(f"{sf_dir}/events.parquet",
                  columns=["event_id", "user_id", "ts", "value"])
    return windows.window_frame_agg(ds, frame_rows=FRAME_PRECEDING_ROWS)


def q_funnel_stages(sf_dir: str):
    """Ordered conversion funnel (view -> click -> purchase, strictly
    increasing timestamps) — per-stage user counts."""
    from geotrellis_contrib_ray.pipelines.query_defs import FUNNEL_STAGES
    from geotrellis_contrib_ray.stages import windows

    ds = _read_pq(f"{sf_dir}/events.parquet",
                  columns=["user_id", "ts", "event_type"])
    return windows.funnel_counts(ds, stages=FUNNEL_STAGES)


def q_cohort_retention(sf_dir: str):
    """Cohort retention matrix: users cohorted by first-signup day, one
    count per (cohort_day, day_offset) distinct-activity cell."""
    from geotrellis_contrib_ray.pipelines.query_defs import (
        COHORT_DAY_US,
        COHORT_SIGNUP_TYPE,
    )
    from geotrellis_contrib_ray.stages import windows

    ds = _read_pq(f"{sf_dir}/events.parquet",
                  columns=["user_id", "ts", "event_type"])
    return windows.cohort_retention(ds, signup_type=COHORT_SIGNUP_TYPE,
                                    day_us=COHORT_DAY_US)


def q_user_actions_outer(sf_dir: str):
    """FULL OUTER tier of the bucketed hash join, with BOTH sides'
    per-key aggregation fused into the join's single shuffle
    (left_pre_agg + right_pre_agg): per-user purchase counts vs per-user
    error counts — users on only one side keep a row with the sentinel
    count -1 (no SQL NULLs crosses the driver's value hash)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.pipelines.query_defs import OUTER_NONE
    from geotrellis_contrib_ray.stages.joins import bucketed_hash_join

    ev = _read_pq(f"{sf_dir}/events.parquet",
                  columns=["user_id", "event_type"])

    def side(event_type: str, out_col: str):
        def partial(b: pa.Table) -> pa.Table:
            keep = b.filter(pc.equal(b["event_type"], event_type))
            g = keep.select(["user_id"]).group_by(
                "user_id", use_threads=False).aggregate([([], "count_all")])
            return g.rename_columns(["user_id", out_col])

        return ev.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    joined = bucketed_hash_join(
        side("purchase", "n_purchase"), side("error", "n_error"),
        on="user_id", how="outer",
        left_pre_agg={"n_purchase": "sum"},
        right_pre_agg={"n_error": "sum"},
        schemas=(pa.schema([("user_id", pa.int64()),
                            ("n_purchase", pa.int64())]),
                 pa.schema([("user_id", pa.int64()),
                            ("n_error", pa.int64())])),
    )

    def fill(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b["user_id"],
            "n_purchase": pc.fill_null(b["n_purchase"], OUTER_NONE),
            "n_error": pc.fill_null(b["n_error"], OUTER_NONE),
        })

    return joined.map_batches(fill, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)


def q_mode_chars(sf_dir: str):
    """Exact per-language MODE of n_chars (ties -> smallest value)."""
    from geotrellis_contrib_ray.stages.stats import grouped_mode

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])
    return grouped_mode(ds, "lang", "n_chars")


def q_price_histogram(sf_dir: str):
    """Fixed-bin histogram of o_totalprice: bounded bins, driver rollup
    (zero all-to-all)."""
    from geotrellis_contrib_ray.pipelines.query_defs import HIST_BIN_WIDTH, HIST_NBINS
    from geotrellis_contrib_ray.stages.stats import value_histogram

    ds = _read_pq(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    return value_histogram(ds, "o_totalprice", HIST_BIN_WIDTH, HIST_NBINS)


def q_corr_stats(sf_dir: str):
    """Exact bivariate moment sums + Pearson r per returnflag — the
    distributed correlation building block (x = whole dollars of
    l_extendedprice, y = whole pct points of l_discount; int64-exact)."""
    import pyarrow as pa

    from geotrellis_contrib_ray.stages.stats import grouped_moments

    ds = _read_pq(f"{sf_dir}/lineitem.parquet",
                  columns=["l_returnflag", "l_extendedprice", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        x = np.floor(b["l_extendedprice"].to_numpy(zero_copy_only=False)).astype(np.int64)
        y = np.floor(b["l_discount"].to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({"l_returnflag": b["l_returnflag"],
                         "x": pa.array(x), "y": pa.array(y)})

    prepped = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    return grouped_moments(prepped, "l_returnflag", "x", "y")


def q_user_paths(sf_dir: str):
    """Ordered event-type sequence per user (string_agg ORDER BY twin)."""
    from geotrellis_contrib_ray.stages import windows

    ds = _read_pq(f"{sf_dir}/events.parquet",
                  columns=["event_id", "user_id", "ts", "event_type"])
    return windows.user_paths(ds)


def q_label_centroids(sf_dir: str):
    """Grouped vector aggregate: exact fixed-point per-label centroid sums
    over the embedding column (long format; vectors never cross a shuffle)."""
    from geotrellis_contrib_ray.pipelines.query_defs import CENTROID_QUANT_BITS
    from geotrellis_contrib_ray.stages.cluster import grouped_vector_sum

    ds = _read_pq(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])
    return grouped_vector_sum(ds, "label", quant_bits=CENTROID_QUANT_BITS)


def q_lineitem_pricing(sf_dir: str):
    """TPC-H-Q1-style pricing rollup with exact integer-cent sums."""
    import pyarrow as pa

    from ray.data.aggregate import Sum

    ds = _read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def partial(b: pa.Table) -> pa.Table:
        qty = np.floor(b["l_quantity"].to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        price = np.floor(b["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0).astype(
            np.int64
        )
        t = pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty": qty,
                "price": price,
            }
        )
        g = t.group_by(["l_returnflag", "l_linestatus"], use_threads=False).aggregate(
            [("qty", "sum"), ("price", "sum"), ("qty", "count")]
        )
        return g.rename_columns(["l_returnflag", "l_linestatus", "pq", "pp", "pc"])

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,)
    return driver_group_rollup(part, ["l_returnflag", "l_linestatus"],
                               [("pq", "sum", "sum_qty_cents"),
                                ("pp", "sum", "sum_price_cents"),
                                ("pc", "sum", "n_rows")])


def q_orders_by_segment(sf_dir: str):
    """Broadcast hash join: orders x customer (small side in the task
    closure via ray.put), grouped by market segment."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray
    from ray.data.aggregate import Sum

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = cust["c_custkey"].to_numpy()
    order_ = np.argsort(keys, kind="stable")
    lookup_ref = ray.put(
        (keys[order_], cust["c_mktsegment"].to_numpy(zero_copy_only=False)[order_])
    )

    ds = _read_pq(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    from geotrellis_contrib_ray.util import worker_cached

    def join_segment(b: pa.Table) -> pa.Table:
        # the segment side is an OBJECT array (python strings) — ray.get
        # would unpickle it per task, so memoize the deserialized lookup
        # per worker (the int keys side is zero-copy either way)
        keys, segs = worker_cached("entry.lookup", lookup_ref.hex(),
                                   lambda: ray.get(lookup_ref))
        ck = b["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, ck)
        pos = np.clip(pos, 0, len(keys) - 1)
        # INNER-join semantics: a custkey absent from customer must be
        # DROPPED, not attributed to the nearest neighbor's segment
        hit = keys[pos] == ck
        seg = segs[pos][hit]
        cents = np.floor(
            b["o_totalprice"].to_numpy(zero_copy_only=False)[hit] * 100.0
        ).astype(np.int64)
        t = pa.table({"c_mktsegment": pa.array(seg, pa.string()), "cents": cents})
        g = t.group_by("c_mktsegment", use_threads=False).aggregate(
            [("cents", "sum"), ("cents", "count")]
        )
        return g.rename_columns(["c_mktsegment", "ps", "pc"])

    part = ds.map_batches(
        join_segment,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )
    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    return driver_group_rollup(part, ["c_mktsegment"],
                               [("ps", "sum", "sum_total_cents"),
                                ("pc", "sum", "n_orders")])


def q_knn_indexed(sf_dir: str):
    """O4 via per-partition point indexes (ST5) — same oracle as q_knn
    (results are identical; the index is exact)."""
    from geotrellis_contrib_ray.pipelines.query_defs import KNN_K, KNN_QUERIES
    from geotrellis_contrib_ray.state.spatial_index import knn_indexed

    ds = _docs_points(sf_dir, columns=("doc_id",))
    return knn_indexed(ds, KNN_QUERIES, KNN_K)


def q_knn_many(sf_dir: str):
    """O4 probe-heavy regime: 512 query points through the indexed tier
    (task pool + worker-cached GridPointIndex) — the workload shape where
    the ST5 index beats the brute partial (see knn_indexed docstring)."""
    from geotrellis_contrib_ray.pipelines.query_defs import KNN_K, knn_many_queries
    from geotrellis_contrib_ray.state.spatial_index import knn_indexed

    ds = _docs_points(sf_dir, columns=("doc_id",))
    return knn_indexed(ds, knn_many_queries(), KNN_K)


def q_pip_zones_indexed(sf_dir: str):
    """J1 via the per-worker grid polygon index (ST5) — same oracle as
    q_pip_zones (no doc point sits exactly on a zone edge, verified)."""
    from geotrellis_contrib_ray.core import geom as geommod
    from geotrellis_contrib_ray.pipelines.query_defs import ZONE_BOXES, ZONE_CONVEX

    from geotrellis_contrib_ray.state.spatial_index import pip_join_indexed

    polys = [(n, geommod.box(x0, y0, x1, y1).exterior) for n, x0, y0, x1, y1 in ZONE_BOXES]
    cname, verts = ZONE_CONVEX
    ring = np.array(list(verts) + [verts[0]], dtype=np.float64)
    polys.append((cname, ring))
    ds = _docs_points(sf_dir, columns=("doc_id",))
    return pip_join_indexed(ds, polys)


def q_pip_zones_rtree(sf_dir: str):
    """J1 via the packed Hilbert R-tree tier (state/rtree.py — the north
    star's 'packed-Hilbert R-tree indexes for PIP probes').  Exact, so it
    shares q_pip_zones's oracle."""
    from geotrellis_contrib_ray.core import geom as geommod
    from geotrellis_contrib_ray.pipelines.query_defs import ZONE_BOXES, ZONE_CONVEX

    from geotrellis_contrib_ray.state.spatial_index import pip_join_indexed

    polys = [(n, geommod.box(x0, y0, x1, y1).exterior) for n, x0, y0, x1, y1 in ZONE_BOXES]
    cname, verts = ZONE_CONVEX
    ring = np.array(list(verts) + [verts[0]], dtype=np.float64)
    polys.append((cname, ring))
    ds = _docs_points(sf_dir, columns=("doc_id",))
    return pip_join_indexed(ds, polys, index="rtree")


def q_knn_rtree(sf_dir: str):
    """O4 via the packed Hilbert R-tree point index (best-first kNN) —
    exact, shares q_knn's oracle."""
    from geotrellis_contrib_ray.pipelines.query_defs import KNN_K, KNN_QUERIES
    from geotrellis_contrib_ray.state.spatial_index import knn_indexed

    ds = _docs_points(sf_dir, columns=("doc_id",))
    return knn_indexed(ds, KNN_QUERIES, KNN_K, index="rtree")


def q_box_join(sf_dir: str):
    """Box-box intersection join (`&&`) of two large rectangle sets:
    grid-cell replication + one groupby shuffle, duplicate-free via the
    reference-point rule (spatial.box_join)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.pipelines.query_defs import (
        BOX_JOIN_CELL,
        BOX_JOIN_LEFT_LIMIT,
        BOX_JOIN_LEFT_R,
        BOX_JOIN_RIGHT_LIMIT,
        BOX_JOIN_RIGHT_R,
    )
    from geotrellis_contrib_ray.stages import spatial

    def boxes(filt, r):
        ds = _read_pq(
            f"{sf_dir}/documents.parquet", columns=["doc_id"], filter=filt
        )

        def buf(b: pa.Table) -> pa.Table:
            b = spatial.add_geocode(b)
            lon = b["lon"].to_numpy(zero_copy_only=False)
            lat = b["lat"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "id": b["doc_id"],
                    "x0": lon - r,
                    "y0": lat - r,
                    "x1": lon + r,
                    "y1": lat + r,
                }
            )

        return ds.map_batches(buf, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=None)

    left = boxes(pc.field("doc_id") < BOX_JOIN_LEFT_LIMIT, BOX_JOIN_LEFT_R)
    right = boxes(
        (pc.field("doc_id") >= BOX_JOIN_LEFT_LIMIT)
        & (pc.field("doc_id") < BOX_JOIN_RIGHT_LIMIT),
        BOX_JOIN_RIGHT_R,
    )
    return spatial.box_join(left, right, cell=BOX_JOIN_CELL)


def q_zone_anti_join(sf_dir: str):
    """J7: anti-join — docs contained by NO zone (delete-as-rewrite)."""
    import pyarrow as pa

    from geotrellis_contrib_ray.core import geom as geommod
    from geotrellis_contrib_ray.pipelines.query_defs import ZONE_BOXES, ZONE_CONVEX

    ds = _docs_points(sf_dir, columns=("doc_id",))

    def anti(b: pa.Table) -> pa.Table:
        lon = b["lon"].to_numpy(zero_copy_only=False)
        lat = b["lat"].to_numpy(zero_copy_only=False)
        hit = np.zeros(len(b), dtype=bool)
        for _, x0, y0, x1, y1 in ZONE_BOXES:
            hit |= geommod.box_contains_points(lon, lat, x0, y0, x1, y1)
        hit |= geommod.convex_contains_points(lon, lat, ZONE_CONVEX[1])
        return b.select(["doc_id"]).filter(pa.array(~hit))

    return ds.map_batches(anti, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def q_top_chars(sf_dir: str):
    """O-family top-k: 10 largest docs by (n_chars desc, doc_id asc) — the
    per-batch-partial + tiny-final top-k merge pattern."""
    import pyarrow as pa

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        nc = b["n_chars"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -nc))[:10]
        return pa.table({"doc_id": ids[order], "n_chars": nc[order]})

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    df = part.to_pandas()
    if "n_chars" not in df.columns:  # a zero-block (empty-corpus) read
        import pandas as pd

        df = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                           "n_chars": pd.Series([], dtype="int64")})
    df = df.sort_values(["n_chars", "doc_id"], ascending=[False, True], kind="mergesort").head(10)
    return df.reset_index(drop=True)


def q_distinct_lang_source(sf_dir: str):
    """D-family distinct: unique (lang, source) combinations."""
    import pyarrow as pa

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["lang", "source"])

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by(["lang", "source"], use_threads=False).aggregate([])

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    out = driver_group_rollup(part, ["lang", "source"], [(None, "count", "_n")])
    return out.drop_columns(["_n"])


def q_stride_sample(sf_dir: str):
    """O1: deterministic stride sample — every 5th doc in id order, take 100
    (grouped(5).map(_.head).take(100) semantics,
    GeotrellisRasterSourceBench.scala:37-42)."""
    import pyarrow as pa

    from geotrellis_contrib_ray.pipelines.query_defs import STRIDE_LIMIT, STRIDE_N

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def stride(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % STRIDE_N == 0))

    # KEY-stride semantics (id % N == 0), shared with the SQL twin — a
    # row_number-based oracle would agree only for dense 0-based ids
    return (
        ds.map_batches(stride, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
        .sort("doc_id")
        .limit(STRIDE_LIMIT)
    )


def q_order_lineitem_join(sf_dir: str):
    """Both-sides-large hash join (tier 2: bucketed union + per-bucket
    Arrow merge — dtype-exact, one sort-shuffle pass per side): lineitem x
    orders on orderkey, rolled up by order priority.  Measured 4x faster
    than round 1's pandas-merge version and ~5x faster than Ray's native
    aggregator-actor join on this host (see stages/joins.py docstring)."""
    import pyarrow as pa

    from ray.data.aggregate import Sum

    from geotrellis_contrib_ray.stages.joins import bucketed_hash_join

    li = _read_pq(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_extendedprice"])

    def li_prep(b: pa.Table) -> pa.Table:
        cents = np.floor(b["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({"o_orderkey": b["l_orderkey"], "cents": cents})

    li = li.map_batches(li_prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    orders = _read_pq(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"])
    joined = bucketed_hash_join(li, orders, on="o_orderkey")

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["o_orderpriority", "cents"]).group_by("o_orderpriority", use_threads=False).aggregate(
            [("cents", "sum"), ("cents", "count")]
        )
        return g.rename_columns(["o_orderpriority", "ps", "pc"])

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    part = joined.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    # bounded group count (priorities): driver-combine, no second all-to-all
    return driver_group_rollup(part, ["o_orderpriority"],
                               [("ps", "sum", "sum_price_cents"),
                                ("pc", "sum", "n_items")])


def q_quantile_price(sf_dir: str):
    """EXACT quantile_disc over an UNBOUNDED float64 domain (r4):
    l_extendedprice quantiles via radix refinement on the IEEE total-order
    key — the tier for measure columns whose distinct count is corpus-scale
    (grouped_quantiles' per-group histogram assumes it fits a worker).
    Selected values are exact input members, so the float column
    hash-matches quantile_disc."""
    from geotrellis_contrib_ray.pipelines.query_defs import PRICE_QS
    from geotrellis_contrib_ray.stages.stats import exact_quantiles_unbounded

    ds = _read_pq(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    return exact_quantiles_unbounded(ds, "l_extendedprice", PRICE_QS)


def q_quantile_price_cont(sf_dir: str):
    """percentile_cont semantics over the unbounded float domain (r4):
    interpolated quantiles of l_extendedprice — both bracketing order
    statistics resolve through one shared radix refinement and the
    interpolation is the identical double expression the generated twin
    replays (not the builtin, whose association may differ)."""
    from geotrellis_contrib_ray.pipelines.query_defs import PRICE_QS
    from geotrellis_contrib_ray.stages.stats import exact_quantiles_cont

    ds = _read_pq(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    return exact_quantiles_cont(ds, "l_extendedprice", PRICE_QS)


def q_orders_no_lineitem(sf_dir: str):
    """LEFT ANTI join (r4): orders with NO lineitems, rolled up by priority
    — the relational complement of the semi tier; one bucketed shuffle,
    right side ships distinct keys only."""
    import pyarrow as pa

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup
    from geotrellis_contrib_ray.stages.joins import bucketed_anti_join

    orders = _read_pq(f"{sf_dir}/orders.parquet",
                      columns=["o_orderkey", "o_orderpriority"])
    li = _read_pq(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])

    def li_key(b: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": b["l_orderkey"]})

    li = li.map_batches(li_key, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    i64 = pa.int64()
    anti = bucketed_anti_join(
        orders, li, on="o_orderkey",
        schemas=(pa.schema([("o_orderkey", i64), ("o_orderpriority", pa.string())]),
                 pa.schema([("o_orderkey", i64)])))

    def partial(b: pa.Table) -> pa.Table:
        g = (b.select(["o_orderpriority"]).group_by("o_orderpriority", use_threads=False)
             .aggregate([([], "count_all")]))
        return g.rename_columns(["o_orderpriority", "pn"])

    part = anti.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
    return driver_group_rollup(part, ["o_orderpriority"],
                               [("pn", "sum", "n_orders")])


# star-schema broadcast gate: both dimension-side parquet FOOTER row counts
# (never ds.count()) must be under this for the zero-shuffle tier — the
# classic broadcast-join threshold; past it the two-join chain runs
_DIM_BROADCAST_ROWS = 2_000_000


def q_customer_order_totals(sf_dir: str, tier: str = "auto"):
    """THREE-way chain join (r4): customer ⋈ orders ⋈ lineitem, rolled up
    per market segment.  Two tiers (r5), same result set:

    - ``broadcast`` (auto when BOTH dimension sides' parquet footer row
      counts are <= _DIM_BROADCAST_ROWS): the star-schema plan — the driver
      composes the bounded orderkey→segment-code map from two direct
      parquet reads, ``ray.put``s it once, and the lineitem fact stream
      probes it inside map_batches with a bincount partial — ZERO shuffles
      (the chain tier pays two).
    - ``chain``: two composed bucketed joins (segment rides the first join
      as a carried column; integer cents only cross the hash) — the plan
      when orders/customer are themselves fact-scale."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup
    from geotrellis_contrib_ray.stages.joins import bucketed_hash_join

    if tier == "auto":
        n_c = pq_.ParquetFile(f"{sf_dir}/customer.parquet").metadata.num_rows
        n_o = pq_.ParquetFile(f"{sf_dir}/orders.parquet").metadata.num_rows
        tier = ("broadcast"
                if max(n_c, n_o) <= _DIM_BROADCAST_ROWS else "chain")

    if tier == "broadcast":
        import ray

        cust_t = pq_.read_table(f"{sf_dir}/customer.parquet",
                                columns=["c_custkey", "c_mktsegment"])
        ord_t = pq_.read_table(f"{sf_dir}/orders.parquet",
                               columns=["o_orderkey", "o_custkey"])
        ck = cust_t["c_custkey"].to_numpy()
        corder = np.argsort(ck, kind="stable")
        ck_sorted = ck[corder]
        seg_np = cust_t["c_mktsegment"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(seg_np, return_inverse=True)
        segs_uniq = [str(s) for s in uniq]
        codes = inv.astype(np.int64)[corder]
        ok = ord_t["o_custkey"].to_numpy()
        pos = np.clip(np.searchsorted(ck_sorted, ok), 0, len(ck_sorted) - 1)
        hit = ck_sorted[pos] == ok  # INNER semantics: orphan orders drop
        okeys = ord_t["o_orderkey"].to_numpy()[hit]
        oseg = codes[pos][hit]
        oorder = np.argsort(okeys, kind="stable")
        lookup_ref = ray.put((okeys[oorder], oseg[oorder]))
        nseg = len(segs_uniq)

        li = _read_pq(f"{sf_dir}/lineitem.parquet",
                      columns=["l_orderkey", "l_extendedprice"])
        from geotrellis_contrib_ray.util import worker_cached

        def probe(b: pa.Table) -> pa.Table:
            keys, segc = worker_cached("entry.lookup", lookup_ref.hex(),
                                       lambda: ray.get(lookup_ref))
            lk = b["l_orderkey"].to_numpy(zero_copy_only=False)
            p = np.clip(np.searchsorted(keys, lk), 0, len(keys) - 1)
            h = keys[p] == lk
            code = segc[p][h]
            cents = np.floor(
                b["l_extendedprice"].to_numpy(zero_copy_only=False)[h] * 100.0
            ).astype(np.int64)
            # int64 accumulator, not float-weighted bincount — cents sums
            # must stay exact past 2^53 at large block sizes
            ps = np.zeros(nseg, np.int64)
            np.add.at(ps, code, cents)
            pc = np.bincount(code, minlength=nseg).astype(np.int64)
            return pa.table({"code": pa.array(np.arange(nseg, dtype=np.int64)),
                             "ps": pa.array(ps), "pc": pa.array(pc)})

        part = li.map_batches(probe, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
        out = driver_group_rollup(part, ["code"],
                                  [("ps", "sum", "sum_price_cents"),
                                   ("pc", "sum", "n_items")])
        code_np = out["code"].to_numpy()
        # segments no lineitem ever hit must be ABSENT (join semantics),
        # not zero rows — the broadcast partials emit every code per block
        keep = out["n_items"].to_numpy() > 0
        return pa.table({
            "c_mktsegment": pa.array([segs_uniq[c] for c in code_np[keep]],
                                     pa.string()),
            "sum_price_cents": out["sum_price_cents"].to_numpy()[keep],
            "n_items": out["n_items"].to_numpy()[keep],
        })

    cust = _read_pq(f"{sf_dir}/customer.parquet",
                    columns=["c_custkey", "c_mktsegment"])

    def cust_prep(b: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": b["c_custkey"],
                         "c_mktsegment": b["c_mktsegment"]})

    cust = cust.map_batches(cust_prep, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
    orders = _read_pq(f"{sf_dir}/orders.parquet",
                      columns=["o_orderkey", "o_custkey"])
    i64 = pa.int64()
    ord_seg = bucketed_hash_join(
        orders, cust, on="o_custkey",
        schemas=(pa.schema([("o_custkey", i64), ("o_orderkey", i64)]),
                 pa.schema([("o_custkey", i64), ("c_mktsegment", pa.string())])))

    def ord_prep(b: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "c_mktsegment": b["c_mktsegment"]})

    ord_seg = ord_seg.map_batches(ord_prep, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=None)
    li = _read_pq(f"{sf_dir}/lineitem.parquet",
                  columns=["l_orderkey", "l_extendedprice"])

    def li_prep(b: pa.Table) -> pa.Table:
        cents = np.floor(b["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({"o_orderkey": b["l_orderkey"], "cents": cents})

    li = li.map_batches(li_prep, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    joined = bucketed_hash_join(
        li, ord_seg, on="o_orderkey",
        schemas=(pa.schema([("o_orderkey", i64), ("cents", i64)]),
                 pa.schema([("o_orderkey", i64), ("c_mktsegment", pa.string())])))

    def partial(b: pa.Table) -> pa.Table:
        g = (b.select(["c_mktsegment", "cents"]).group_by("c_mktsegment", use_threads=False)
             .aggregate([("cents", "sum"), ("cents", "count")]))
        return g.rename_columns(["c_mktsegment", "ps", "pc"])

    part = joined.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return driver_group_rollup(part, ["c_mktsegment"],
                               [("ps", "sum", "sum_price_cents"),
                                ("pc", "sum", "n_items")])


def q_rollup_lang_source(sf_dir: str):
    """GROUPING-SETS rollup (r4): per-(lang, source) doc counts + n_chars
    sums with (lang) and grand-total subtotal rows — one shuffle, every
    level pre-aggregated per batch.  Sentinel '__all__' stands in for the
    rolled-up key (the twin coalesces the GROUPING SETS NULLs to it)."""
    from geotrellis_contrib_ray.stages.agg import rollup_counts

    ds = _read_pq(f"{sf_dir}/documents.parquet",
                  columns=["lang", "source", "n_chars"])
    return rollup_counts(ds, ["lang", "source"], value_col="n_chars")


def q_cube_lang_source(sf_dir: str):
    """Full CUBE over (lang, source): every subset of the keys gets its
    subtotal rows — the grouping-sets generalization of the r4 prefix
    rollup, still one shuffle (every set pre-aggregated per batch from the
    local finest level)."""
    from geotrellis_contrib_ray.stages.agg import grouping_sets_counts

    ds = _read_pq(f"{sf_dir}/documents.parquet",
                  columns=["lang", "source", "n_chars"])
    return grouping_sets_counts(
        ds, ["lang", "source"],
        sets=[("lang", "source"), ("lang",), ("source",), ()],
        value_col="n_chars")


def q_jsonl_roundtrip(sf_dir: str):
    """JSONL ingest tier parity: documents spill to line-delimited JSON
    shards (one per block) and stream back through read_json; the
    per-(lang, source) aggregate recomputes text length FROM THE
    ROUND-TRIPPED STRINGS, so any JSON escaping infidelity breaks the
    hash.  The oracle aggregates the original parquet directly — equality
    proves the ingest path end-to-end."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.sources.jsonl import read_jsonl, write_jsonl
    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    ds = _read_pq(f"{sf_dir}/documents.parquet",
                  columns=["doc_id", "lang", "source", "n_chars", "text"])
    spill = f"/tmp/jsonl_ingest_{os.path.basename(os.path.normpath(sf_dir))}"
    write_jsonl(ds, spill)
    back = read_jsonl(spill)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "lang": b["lang"], "source": b["source"],
            "nc": b["n_chars"],
            "tl": pc.cast(pc.utf8_length(b["text"]), pa.int64()),
        })
        g = t.group_by(["lang", "source"], use_threads=False).aggregate(
            [([], "count_all"), ("nc", "sum"), ("tl", "sum")])
        return g.rename_columns(["lang", "source", "pn", "pnc", "ptl"])

    part = back.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
    return driver_group_rollup(
        part, ["lang", "source"],
        [("pn", "sum", "n"), ("pnc", "sum", "sum_n_chars"),
         ("ptl", "sum", "sum_text_chars")])


def q_user_first_last(sf_dir: str):
    """Per-user ARG_MIN/ARG_MAX: first and last event_type in
    (epoch_us, event_id) order + row count — the order-statistic
    aggregate family."""
    from geotrellis_contrib_ray.stages import windows

    ds = _read_pq(f"{sf_dir}/events.parquet",
                  columns=["event_id", "user_id", "ts", "event_type"])
    return windows.group_first_last(ds)


def q_csv_roundtrip(sf_dir: str):
    """CSV ingest tier parity (the second text exchange format next to
    JSONL): documents spill to CSV shards and stream back through the
    newlines-in-values reader; the aggregate recomputes text length FROM
    the round-tripped strings so quoting infidelity breaks the hash."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.sources.csv_io import (
        read_csv_shards,
        write_csv_shards,
    )
    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    ds = _read_pq(f"{sf_dir}/documents.parquet",
                  columns=["doc_id", "lang", "source", "n_chars", "text"])
    spill = f"/tmp/csv_ingest_{os.path.basename(os.path.normpath(sf_dir))}"
    write_csv_shards(ds, spill)
    back = read_csv_shards(spill)

    def partial(b: pa.Table) -> pa.Table:
        # CSV has no null/empty-string distinction: Arrow reads an empty
        # quoted field back as '' — normalize nulls the same way so the
        # aggregate is format-faithful for non-null corpora
        txt = pc.fill_null(b["text"], "")
        t = pa.table({
            "lang": b["lang"], "source": b["source"],
            "nc": b["n_chars"],
            "tl": pc.cast(pc.utf8_length(txt), pa.int64()),
        })
        g = t.group_by(["lang", "source"], use_threads=False).aggregate(
            [([], "count_all"), ("nc", "sum"), ("tl", "sum")])
        return g.rename_columns(["lang", "source", "pn", "pnc", "ptl"])

    part = back.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
    return driver_group_rollup(
        part, ["lang", "source"],
        [("pn", "sum", "n"), ("pnc", "sum", "sum_n_chars"),
         ("ptl", "sum", "sum_text_chars")])


def q_quantile_chars_cont(sf_dir: str):
    """Per-group INTERPOLATED quantiles (percentile_cont per lang over
    n_chars) — the grouped companion of quantile_price_cont; interpolation
    is the shared fixed double expression on both engines."""
    from geotrellis_contrib_ray.pipelines.query_defs import CHARS_CONT_QS
    from geotrellis_contrib_ray.stages.stats import grouped_quantiles_cont

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])
    return grouped_quantiles_cont(ds, "n_chars", qs=CHARS_CONT_QS,
                                  group_col="lang")


def q_normalize_text(sf_dir: str):
    """Unicode/whitespace normalization pass (r4): casefold + collapse
    whitespace runs + trim; exact string output and per-doc collapsed-run
    counts hash against the regexp_replace twin (both engines embed RE2)."""
    from geotrellis_contrib_ray.stages.text import normalize_text

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return normalize_text(ds)


def q_skew_join(sf_dir: str):
    """SKEW-AWARE join tier (r4): the same lineitem x orders rollup as
    order_lineitem_join but through joins.skew_aware_join with a LOW hot
    threshold, so the census + hot-key salting + right-replication path is
    the one the driver actually checks (identical result multiset by
    construction; shares order_lineitem_join's generated twin)."""
    import pyarrow as pa

    from geotrellis_contrib_ray.stages.joins import skew_aware_join

    li = _read_pq(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_extendedprice"])

    def li_prep(b: pa.Table) -> pa.Table:
        cents = np.floor(b["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({"o_orderkey": b["l_orderkey"], "cents": cents})

    li = li.map_batches(li_prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    orders = _read_pq(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"])
    i64 = pa.int64()
    joined = skew_aware_join(
        li, orders, on="o_orderkey", hot_threshold=3, salt=4,
        schemas=(pa.schema([("o_orderkey", i64), ("cents", i64)]),
                 pa.schema([("o_orderkey", i64), ("o_orderpriority", pa.string())])),
    )

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["o_orderpriority", "cents"]).group_by("o_orderpriority", use_threads=False).aggregate(
            [("cents", "sum"), ("cents", "count")]
        )
        return g.rename_columns(["o_orderpriority", "ps", "pc"])

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    part = joined.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    return driver_group_rollup(part, ["o_orderpriority"],
                               [("ps", "sum", "sum_price_cents"),
                                ("pc", "sum", "n_items")])


def _ann_query_matrix(sf_dir: str, vec_ids):
    """(queries, query_ids) selected in vec_id ORDER, not file order — the
    scorer labels query_id positionally (the q_ann_rank remap contract)."""
    import pyarrow.parquet as pq

    from geotrellis_contrib_ray.stages import ann

    head = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = head["vec_id"].to_numpy()
    order = np.argsort(ids)
    qsel = order[np.isin(ids[order], list(vec_ids))]
    return ann._embedding_matrix(head["embedding"])[qsel], ids[qsel]


def q_ann_cosine(sf_dir: str):
    """Brute-force cosine top-k over the embeddings table — the EXACT
    integer variant (quantized embeddings, score = sign * floor(1e6 *
    dot^2 / (d_q * d_v))): every output column is an integer derived by
    exact arithmetic, so rows+schema+hash all check against the generated
    SQL twin with no float-margin assumption.  The float ann_topk remains
    the general operator (and its ORDER is separately oracle-checked by
    ann_rank)."""
    from geotrellis_contrib_ray.pipelines.query_defs import ANN_K, ANN_QUERY_IDS
    from geotrellis_contrib_ray.stages import ann

    queries, qids = _ann_query_matrix(sf_dir, ANN_QUERY_IDS)
    ds = _read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return ann.ann_topk_exact(ds, queries, k=ANN_K, query_ids=qids)


def q_ann_rank(sf_dir: str):
    """Brute-force cosine top-k emitted as integer ranks (query_id, vec_id,
    rnk) — hash-comparable against the DuckDB list_cosine_similarity oracle
    because no float column crosses the compare (see ann.ann_topk_ranks)."""
    import pyarrow.parquet as pq

    from geotrellis_contrib_ray.pipelines.query_defs import ANN_K, ANN_QUERY_IDS
    from geotrellis_contrib_ray.stages import ann

    head = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = head["vec_id"].to_numpy()
    emb = ann._embedding_matrix(head["embedding"])
    order = np.argsort(ids)
    qsel = order[np.isin(ids[order], ANN_QUERY_IDS)]
    queries, query_ids = emb[qsel], ids[qsel]
    ds = _read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return ann.ann_topk_ranks(ds, queries, k=ANN_K, query_ids=query_ids)


def q_ann_ivf(sf_dir: str):
    """IVF ANN — exact seeded-Voronoi coarse quantizer (seeds = the first
    ANN_IVF_SEEDS vectors by vec_id; routing by exact integer ||q - s||^2,
    ties to the lowest seed) + nprobe probed-list union filter + the exact
    quantized-cosine top-k.  Fully integer end-to-end, oracle-checked; the
    Lloyd-refined float IVFIndex remains the general operator (recall vs
    brute force asserted in tests/test_ann_ivf.py)."""
    from geotrellis_contrib_ray.pipelines.query_defs import (
        ANN_IVF_NPROBE,
        ANN_IVF_SEEDS,
        ANN_K,
        ANN_QUERY_IDS,
    )
    from geotrellis_contrib_ray.stages import ann

    queries, qids = _ann_query_matrix(sf_dir, ANN_QUERY_IDS)
    seeds, _ = _ann_query_matrix(sf_dir, range(ANN_IVF_SEEDS))
    ds = _read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    filt = ann.quantized_ivf_filter(ds, queries, seeds, nprobe=ANN_IVF_NPROBE)
    return ann.ann_topk_exact(filt, queries, k=ANN_K, query_ids=qids)


def q_ann_lsh(sf_dir: str):
    """Hyperplane-LSH bucketed ANN — exact integer-plane bucket filter over
    quantized embeddings + the exact quantized-cosine top-k (the float
    HyperplaneLSH/ann_lsh_topk stay as the general operators)."""
    from geotrellis_contrib_ray.pipelines.query_defs import (
        ANN_K,
        ANN_LSH_PLANES,
        ANN_QUERY_IDS,
    )
    from geotrellis_contrib_ray.stages import ann

    queries, qids = _ann_query_matrix(sf_dir, ANN_QUERY_IDS)
    ds = _read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    filt = ann.quantized_lsh_filter(ds, queries, n_planes=ANN_LSH_PLANES)
    return ann.ann_topk_exact(filt, queries, k=ANN_K, query_ids=qids)


def q_minhash_pairs(sf_dir: str):
    """MinHash+LSH near-dup candidate pairs (rows-only check)."""
    from geotrellis_contrib_ray.stages import dedup

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # ORACLE PROFILE: uncapped buckets — the operator's default drop cap
    # (max_bucket=1000, logged) is a scale knob that would silently diverge
    # from the exact SQL twin past the gate SF (seen at sf0.1: a hot 7-bit
    # simhash chunk crossed 1000 members)
    return dedup.minhash_candidate_pairs(ds, max_bucket=1_000_000)


def q_simhash_pairs(sf_dir: str):
    """SimHash near-dup candidate pairs with exact hamming verify (rows-only)."""
    from geotrellis_contrib_ray.stages import dedup

    from geotrellis_contrib_ray.stages.agg import _default_shuffle_partitions

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # bands=9 (7-bit chunks) guarantees every pair with hamming <= 8 collides;
    # uncapped buckets so the exact SQL twin matches at every SF (the
    # operator's default cap dropped a hot chunk at sf0.1).  input_blocks
    # splits the single small-SF read block so the bandwidth-bound signature
    # stage parallelizes.  n_shards="auto" (r5): the occupancy census sizes
    # the shard count so per-task run length stays bounded as the corpus
    # grows — 7-bit chunks make bucket occupancy structurally linear in n,
    # so any FIXED shard constant eventually serializes a task.  The result
    # set is banding/sharding-scheme-independent, so the SQL twin is
    # untouched (r4 comment still applies).
    return dedup.simhash_candidate_pairs(ds, max_hamming=8, bands=9,
                                         max_bucket=1_000_000, n_shards="auto",
                                         input_blocks=_default_shuffle_partitions())


def q_ngram_jaccard_pairs(sf_dir: str):
    """n-gram Jaccard near-dup: LSH candidates + exact Jaccard >= 0.5
    (rows-only; exact float verify happens Ray-side)."""
    import pyarrow.parquet as _pq

    from geotrellis_contrib_ray.stages import dedup

    path = f"{sf_dir}/documents.parquet"
    ds = _read_pq(path, columns=["doc_id", "text"])
    # approx_rows from the parquet FOOTER (never ds.count()): the "auto"
    # bloom tier prunes texts before the re-attach shuffle only once the
    # corpus is large enough for the pushdown's fixed cost to pay off
    return dedup.ngram_jaccard_pairs(
        ds, threshold=0.5, max_bucket=1_000_000,
        approx_rows=_pq.ParquetFile(path).metadata.num_rows)


def q_jaccard_exact_pairs(sf_dir: str):
    """EXACT n-gram Jaccard self-join (oracle-checked): distributed
    inverted-index plan — no LSH, no driver materialization; see
    dedup.jaccard_similarity_join for the 5-stage dataflow.  Runs on the
    JACCARD_SAMPLE_LIMIT id range (scan-pushed predicate)."""
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.pipelines.query_defs import (
        JACCARD_K,
        JACCARD_SAMPLE_LIMIT,
        JACCARD_THRESHOLD,
    )
    from geotrellis_contrib_ray.stages import dedup

    ds = _read_pq(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < JACCARD_SAMPLE_LIMIT,
    )
    return _keep_columns(dedup.jaccard_similarity_join(
        ds, shingle_k=JACCARD_K, threshold=JACCARD_THRESHOLD,
    ), _jaccard_schema())


def q_substring_pairs(sf_dir: str):
    """Exact substring-duplication pairs (suffix-array-dedup stand-in, Lee
    et al. 2021 shape): doc pairs sharing >= 1 exact SUBSTR_WIN-char window
    on the SUBSTR_STRIDE grid, with the shared-window count.  Fully
    hash-checked: integer ids + integer counts, window equality is on the
    string itself on both engines."""
    from geotrellis_contrib_ray.pipelines.query_defs import (
        SUBSTR_MAX_OFF,
        SUBSTR_STRIDE,
        SUBSTR_WIN,
    )
    from geotrellis_contrib_ray.stages import dedup

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # the SQL twin enumerates window offsets up to SUBSTR_MAX_OFF — a doc
    # whose last full window starts beyond it would silently diverge
    ds = _guard_max_text_len(ds, SUBSTR_MAX_OFF + SUBSTR_WIN - 1,
                             "substring_pairs oracle offset bound")
    return dedup.substring_match_pairs(ds, win=SUBSTR_WIN, stride=SUBSTR_STRIDE)


def q_jaccard_prefix_pairs(sf_dir: str):
    """PPJoin prefix-filtered exact Jaccard — same oracle as
    jaccard_exact_pairs (the prefix filter is exact by theorem; the driver
    gate proves the two distributed plans agree with SQL and each other)."""
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.pipelines.query_defs import (
        JACCARD_K,
        JACCARD_SAMPLE_LIMIT,
        JACCARD_THRESHOLD,
    )
    from geotrellis_contrib_ray.stages import dedup

    ds = _read_pq(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < JACCARD_SAMPLE_LIMIT,
    )
    return _keep_columns(
        dedup.jaccard_prefix_pairs(ds, shingle_k=JACCARD_K, threshold=JACCARD_THRESHOLD),
        _jaccard_schema())


def q_graph_rank(sf_dir: str, tier: str = "auto"):
    """Iterative fixed-point rank propagation (PageRank shape, RANK_ITERS
    unrolled iterations) over the undirected customer<->supplier co-order
    graph — the iterative-algorithm tier.  All integer arithmetic; the SQL
    twin is an unrolled CTE chain (query_defs.rank_sql).

    ``tier='auto'``: node count is bounded by the customer+supplier
    dimension FOOTER rows — under _DIM_BROADCAST_ROWS the broadcast tier
    (narrow passes + driver rollups, zero per-iteration shuffles) wins
    (measured 18.9 -> 6 s sf0.1@32); 'shuffle' is the any-scale plan.
    Both tiers return identical rows (forced-tier parity test)."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from geotrellis_contrib_ray.pipelines.query_defs import RANK_ITERS
    from geotrellis_contrib_ray.stages.agg import salted_group_reduce
    from geotrellis_contrib_ray.stages.graph import iterative_rank
    from geotrellis_contrib_ray.stages.joins import bucketed_hash_join

    if tier == "auto":
        import os
        # node domain = custkeys + suppkeys; footer rows of the dimension
        # tables bound it.  supplier.parquet may be absent (the suppkey
        # domain then comes from lineitem alone — e.g. adversarial test
        # corpora); the broadcast tier's own runtime node-count guard
        # still protects correctness, so gate on what exists.
        n_nodes = 0
        for t in ("customer", "supplier"):
            p = f"{sf_dir}/{t}.parquet"
            if os.path.exists(p):
                n_nodes += pq_.ParquetFile(p).metadata.num_rows
        tier = "broadcast" if 0 < n_nodes <= _DIM_BROADCAST_ROWS else "shuffle"

    li = _read_pq(f"{sf_dir}/lineitem.parquet",
                  columns=["l_orderkey", "l_suppkey"])
    n_orders = pq_.ParquetFile(f"{sf_dir}/orders.parquet").metadata.num_rows
    if n_orders <= _DIM_BROADCAST_ROWS:
        # star-schema edge build (the customer_order_totals pattern): the
        # bounded orderkey->custkey map rides ray.put once and the lineitem
        # fact stream probes it per batch — the bucketed join's shuffle
        # disappears; only the global-distinct reduce stays wide
        import ray

        from geotrellis_contrib_ray.util import worker_cached

        ord_t = pq_.read_table(f"{sf_dir}/orders.parquet",
                               columns=["o_orderkey", "o_custkey"])
        okeys = ord_t["o_orderkey"].to_numpy()
        oorder = np.argsort(okeys, kind="stable")
        lookup_ref = ray.put((okeys[oorder],
                              ord_t["o_custkey"].to_numpy()[oorder]))

        def pair_partial(b: pa.Table) -> pa.Table:
            keys, cust = worker_cached("entry.lookup", lookup_ref.hex(),
                                       lambda: ray.get(lookup_ref))
            lk = b["l_orderkey"].to_numpy(zero_copy_only=False)
            p = np.clip(np.searchsorted(keys, lk), 0, max(len(keys) - 1, 0))
            hit = keys[p] == lk if len(keys) else np.zeros(len(lk), bool)
            c = cust[p][hit].astype(np.int64)
            s = b["l_suppkey"].to_numpy(zero_copy_only=False)[hit].astype(np.int64)
            t = pa.table({"src": pa.array(2 * c), "dst": pa.array(2 * s + 1)})
            return (t.group_by(["src", "dst"], use_threads=False).aggregate([])
                    .select(["src", "dst"]))

        pairs = li.map_batches(pair_partial, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=None)
    else:
        def li_prep(b: pa.Table) -> pa.Table:
            return pa.table({"o_orderkey": b["l_orderkey"],
                             "l_suppkey": b["l_suppkey"]})

        li = li.map_batches(li_prep, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
        orders = _read_pq(f"{sf_dir}/orders.parquet",
                          columns=["o_orderkey", "o_custkey"])
        joined = bucketed_hash_join(li, orders, on="o_orderkey")

        def pair_partial(b: pa.Table) -> pa.Table:
            c = b["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            s = b["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            t = pa.table({"src": pa.array(2 * c), "dst": pa.array(2 * s + 1)})
            return (t.group_by(["src", "dst"], use_threads=False).aggregate([])
                    .select(["src", "dst"]))

        pairs = joined.map_batches(pair_partial, batch_format="pyarrow",
                                   zero_copy_batch=True, batch_size=None)
    e0 = salted_group_reduce(pairs, ["src", "dst"], [(None, "count", "_n")])

    def both_dirs(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        return pa.table({"src": pa.array(np.concatenate([s, d])),
                         "dst": pa.array(np.concatenate([d, s]))})

    edges = e0.map_batches(both_dirs, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    return iterative_rank(edges, iters=RANK_ITERS, tier=tier)


def q_pivot_lang_source(sf_dir: str):
    """Crosstab: one row per source, one doc-count column per PIVOT_LANGS
    lang + an other-bucket — bounded groups, driver rollup, ZERO shuffles."""
    from geotrellis_contrib_ray.pipelines.query_defs import PIVOT_LANGS
    from geotrellis_contrib_ray.stages.agg import pivot_counts

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["lang", "source"])
    return pivot_counts(ds, "source", "lang", PIVOT_LANGS)


def q_lang_set_ops(sf_dir: str):
    """Distinct-lang EXCEPT / INTERSECT between two predicates (side A =
    SETOP_SRC_A docs; side B = SETOP_SRC_B docs >= SETOP_MIN_CHARS chars)
    over ONE corpus scan — per-batch flag partials, driver max-combine."""
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.pipelines.query_defs import (
        SETOP_MIN_CHARS,
        SETOP_SRC_A,
        SETOP_SRC_B,
    )
    from geotrellis_contrib_ray.stages.agg import key_set_ops

    ds = _read_pq(f"{sf_dir}/documents.parquet",
                  columns=["lang", "source", "n_chars"])

    def in_a(b):
        return pc.fill_null(pc.equal(b["source"], SETOP_SRC_A), False).to_numpy(
            zero_copy_only=False)

    def in_b(b):
        m = pc.and_(pc.equal(b["source"], SETOP_SRC_B),
                    pc.greater_equal(b["n_chars"], SETOP_MIN_CHARS))
        return pc.fill_null(m, False).to_numpy(zero_copy_only=False)

    return key_set_ops(ds, "lang", in_a, in_b)


def q_top_bigrams(sf_dir: str):
    """Corpus-wide top-k word bigrams (count desc, bigram asc): per-batch
    Arrow group_by partials -> one keyed reduce -> per-block partial
    top-k -> tiny driver merge.  Only (bigram, count) partials shuffle."""
    from geotrellis_contrib_ray.pipelines.query_defs import TOP_BIGRAMS_K
    from geotrellis_contrib_ray.stages.text import top_bigrams

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["text"])
    return top_bigrams(ds, k=TOP_BIGRAMS_K)


def q_edit_distance_pairs(sf_dir: str):
    """Edit-distance near-dup self-join (PassJoin, Li/Deng/Feng PVLDB'11):
    all doc pairs within byte Levenshtein <= EDIT_MAX_DIST, with the exact
    distance.  Candidates via pigeonhole segment/probe hashing, exact banded
    DP verify; byte domain matches DuckDB's byte-based levenshtein().
    Oracle-profile: uncapped max_bucket (CLAUDE.md rule)."""
    from geotrellis_contrib_ray.pipelines.query_defs import EDIT_MAX_DIST
    from geotrellis_contrib_ray.stages import dedup

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return dedup.edit_distance_pairs(ds, max_dist=EDIT_MAX_DIST,
                                     max_bucket=1_000_000)


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs via multi-band LSH buckets + exact
    rerank — the EXACT-integer variant (quantized embeddings + integer
    planes, threshold^2 = 9/100 i.e. cosine >= 0.3 decided in exact
    integer arithmetic), so the generated DuckDB twin hash-matches the
    bucket assignment AND the threshold decision bit-for-bit.  The float
    operator (dedup.embedding_neardup_pairs) remains the general API;
    planted-duplicate recall is asserted in tests/test_dedup.py."""
    from geotrellis_contrib_ray.stages import dedup

    ds = _read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # uncapped buckets: the oracle-profile rule (see q_minhash_pairs) — the
    # operator's default max_bucket=2000 drop cap would silently diverge
    # from the exact SQL twin once a bucket crosses it at bigger SFs
    return dedup.embedding_neardup_pairs_exact(
        ds, threshold_num=9, threshold_den=100, n_planes=6, n_bands=6,
        max_bucket=1_000_000)


def q_quality_scores(sf_dir: str):
    """Quality scoring (compiled-regex state memoized once per worker —
    task tier, stages/text.py::quality_score; rows-only check)."""
    from geotrellis_contrib_ray.stages import text as textmod

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = textmod.quality_score(ds)
    return ds.select_columns(["doc_id", "stop_ratio", "alpha_ratio", "quality", "n_bpe_tokens"])


def q_corpus_clean(sf_dir: str):
    """END-TO-END training-data cleaning composition — the operators a
    pretraining pipeline chains, in one oracle-checked flow:
      quality gate (alpha ratio >= 1/2, exact integer predicate)
      -> exact dedup keep-first (fingerprint-keyed, min-id winner)
      -> sequence packing over the survivors (global token prefix sum)
      -> per-sequence rollup (n_docs, sum_tokens).
    Every stage is an existing operator; the SQL twin composes their
    generated twins (regexp counts, GROUP-BY-text keep-first, window
    cumsum packing) over the same integer math."""
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.stages import text as textmod
    from geotrellis_contrib_ray.stages.agg import salted_group_reduce
    from geotrellis_contrib_ray.stages.dedup import exact_dedup_keep_first
    from geotrellis_contrib_ray.stages.pack import pack_sequences

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    scored = textmod.quality_score(ds)
    def gate(b):
        import pyarrow as pa

        nc = pc.fill_null(pc.cast(pc.utf8_length(b["text"]), pa.int64()), 0)
        ok = pc.greater_equal(pc.multiply(b["n_alpha_chars"], 2), nc)
        # null-text rows are dropped on BOTH engines (ADVICE r3): Ray's
        # fingerprint would merge NULL with '' while SQL's GROUP BY text
        # keeps them distinct — excluding NULLs keeps the composition
        # engine-agnostic (the '' row itself stays)
        return b.filter(pc.and_(ok, pc.is_valid(b["text"])))

    kept = scored.map_batches(
        gate, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    ).select_columns(["doc_id", "text"])
    deduped = exact_dedup_keep_first(kept)
    packed = pack_sequences(deduped, budget=1000)

    def partial(b):
        import pyarrow as pa

        g = b.select(["seq_id", "n_tokens"]).group_by("seq_id", use_threads=False).aggregate(
            [("n_tokens", "sum"), ("n_tokens", "count")])
        return g.rename_columns(["seq_id", "ps", "pc"])

    return _keep_columns(salted_group_reduce(
        packed.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None),
        ["seq_id"], [("ps", "sum", "sum_tokens"), ("pc", "sum", "n_docs")],
    ), _int64_schema("seq_id", "sum_tokens", "n_docs"))


def q_paragraph_dedup(sf_dir: str):
    """CCNet/Dolma-style cross-document paragraph dedup (r4): docs segment
    into PARA_K-token chunks, the corpus-wide first occurrence of each exact
    chunk text wins, docs reassemble from survivors in order.  All string
    math — chunk joins, ordered reassembly — is exact on both engines, so
    the twin hash-matches including clean_text."""
    from geotrellis_contrib_ray.pipelines.query_defs import PARA_K
    from geotrellis_contrib_ray.stages.dedup import paragraph_dedup

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return paragraph_dedup(ds, k_tokens=PARA_K)


def q_paragraph_dup_ratio(sf_dir: str):
    """Dolma-style fuzzy document dedup SIGNAL (r4): per doc, the fraction
    of its PARA_K-token chunks that paragraph_dedup would drop (exact text
    seen earlier in the corpus by (doc_id, chunk_idx) order).  dup_ratio is
    one int/int IEEE division — order-free, so the float column
    hash-matches (the jaccard precedent)."""
    from geotrellis_contrib_ray.pipelines.query_defs import PARA_K
    from geotrellis_contrib_ray.stages.dedup import paragraph_dup_ratio

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return paragraph_dup_ratio(ds, k_tokens=PARA_K)


def q_mixture_sample(sf_dir: str):
    """Data-MIXING sampler (r4): per source, take docs in the deterministic
    (sample-hash, id) order until MIX_BUDGET_TOKENS is reached — the
    equal-token-budget-per-source reweighting step of a pretraining mix.
    Exact integer math end-to-end (the shared split-hash + token count);
    presum replays as a SQL window cumsum."""
    import pyarrow.parquet as _pq

    from geotrellis_contrib_ray.pipelines.query_defs import MIX_BUDGET_TOKENS
    from geotrellis_contrib_ray.stages.pack import mixture_sample

    path = f"{sf_dir}/documents.parquet"
    ds = _read_pq(path, columns=["source", "doc_id", "text"])
    # approx_rows from the parquet FOOTER (never ds.count(): that would
    # execute the upstream once more) — past 50M rows the auto tier spills
    # the keyed projection to parquet instead of pinning it object-store-wide
    return mixture_sample(ds, budget_tokens=MIX_BUDGET_TOKENS,
                          approx_rows=_pq.ParquetFile(path).metadata.num_rows)


def q_dedup_delta(sf_dir: str):
    """INCREMENTAL dedup (r4): delta docs (id >= DELTA_SPLIT_ID) kept iff
    their text appears nowhere in the existing corpus (id < split) and they
    are first among their own delta duplicates — the daily-ingest pattern,
    ONE 32-byte/row shuffle, texts never move."""
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.pipelines.query_defs import DELTA_SPLIT_ID
    from geotrellis_contrib_ray.stages.dedup import incremental_dedup_keep_first

    path = f"{sf_dir}/documents.parquet"
    existing = _read_pq(path, columns=["doc_id", "text"],
                        filter=pc.field("doc_id") < DELTA_SPLIT_ID)
    delta = _read_pq(path, columns=["doc_id", "text"],
                     filter=pc.field("doc_id") >= DELTA_SPLIT_ID)
    return incremental_dedup_keep_first(existing, delta)


def q_quality_counts(sf_dir: str):
    """QualityScorer's integer building blocks (word/stopword/alpha/BPE-token
    counts) — hash-comparable against the DuckDB regexp_extract_all oracle;
    the shared regex/stoplist constants live in pipelines/query_defs."""
    from geotrellis_contrib_ray.stages import text as textmod

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = textmod.quality_score(ds)
    return ds.select_columns(["doc_id", "n_words", "n_stop_words", "n_alpha_chars", "n_bpe_tokens"])


# ---------------------------------------------------------------------------
# driver surface
# ---------------------------------------------------------------------------


def q_asof_join(sf_dir: str):
    """As-of join: each purchase matched to the user's latest signup at or
    before it (bucketed merge_asof; DuckDB ASOF JOIN oracle)."""
    import pyarrow as pa

    from geotrellis_contrib_ray.stages.joins import asof_join

    ev = _read_pq(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"])

    def prep(kind, value_col=None):
        def f(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            b = b.filter(pc.equal(b["event_type"], kind))
            secs = (
                b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[s]").astype(np.int64)
            )
            cols = {"user_id": b["user_id"], "purchase_ts": pa.array(secs)}
            if value_col:
                cols[value_col] = pa.array(secs)
            return pa.table(cols)

        return f

    purchases = ev.map_batches(prep("purchase"), batch_format="pyarrow", batch_size=None)
    signups = ev.map_batches(
        prep("signup", value_col="signup_ts"), batch_format="pyarrow", batch_size=None
    )
    return asof_join(
        purchases, signups, by="user_id", on="purchase_ts", right_value="signup_ts", buckets=16
    )


def _raster_layout():
    from geotrellis_contrib_ray.core.grid import LayoutDefinition
    from geotrellis_contrib_ray.pipelines.query_defs import RASTER_TILE, raster_grid

    grid = raster_grid()
    return grid, LayoutDefinition.floating(grid, RASTER_TILE)


_TIFF_CACHE = "/tmp/graft_raster_cache"


def _raster_tiff_path() -> str:
    """Deterministic synthetic GeoTIFF written once under /tmp (single-node
    sandbox; on a cluster this is the shared-store raster the job reads)."""
    import os

    from geotrellis_contrib_ray.core.celltype import CellType
    from geotrellis_contrib_ray.pipelines.query_defs import RASTER_COLS, RASTER_ROWS
    from geotrellis_contrib_ray.sources.tiff import write_tiff

    os.makedirs(_TIFF_CACHE, exist_ok=True)
    path = f"{_TIFF_CACHE}/base_{RASTER_COLS}x{RASTER_ROWS}.tif"
    if not os.path.exists(path):
        grid, _ = _raster_layout()
        cgrid = (
            np.arange(RASTER_ROWS, dtype=np.int64)[:, None] * RASTER_COLS
            + np.arange(RASTER_COLS, dtype=np.int64)
        )
        px = (cgrid % (1 << 15)).astype(np.int16)[None]
        # atomic publish: concurrent pytest/bench processes share this cache
        tmp = f"{path}.{os.getpid()}.tmp"
        write_tiff(tmp, px, grid, cell_type=CellType("int16", -32768.0))
        os.replace(tmp, path)
    return path


def q_raster_tile_read(sf_dir: str):
    """S1/T7/T8 oracle: windowed tile reads of a REAL tiled GeoTIFF — tile
    table from the per-worker window readers, per-tile pixel checksums match a
    DuckDB generate_series reproduction of the synthetic formula."""
    from geotrellis_contrib_ray.sources.tiff import TiffRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    _, layout = _raster_layout()
    tiles = rst.tile_dataset([TiffRasterSource(_raster_tiff_path())], layout)
    return rst.summarize_tiles(tiles, nodata_aware=False)


def q_raster_lambert(sf_dir: str):
    """T1 warp ORACLE: the full reproject READ PATH (not just the CRS
    kernel) — a synthetic 4326 raster over the PA bbox warped to the
    Lambert conformal conic query CRS via windowed tile reads
    (inverse-transform sampling of target cell centers, densified window
    back-transforms, nodata outside the source footprint), rolled up as
    per-tile nodata-aware checksums.  The SQL twin replays each tile's
    sampling constants computed by the same library calls
    (query_defs.lambert_raster_tile_params)."""
    from geotrellis_contrib_ray.core.grid import LayoutDefinition
    from geotrellis_contrib_ray.pipelines.query_defs import (
        QUERY_GRID,
        lambert_query_crs,
        lambert_raster_target,
    )
    from geotrellis_contrib_ray.sources.raster_source import SyntheticRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    tg = lambert_raster_target()
    src = SyntheticRasterSource(QUERY_GRID)
    rep = src.reproject(lambert_query_crs(), target_grid=tg, method="nearest")
    layout = LayoutDefinition.floating(tg, 256)
    tiles = rst.tile_dataset([rep], layout)
    return rst.summarize_tiles(tiles, nodata_aware=True)


def _warp_query(crs):
    """Shared body of the warp-oracle queries: synthetic 4326 source over
    the PA bbox warped to ``crs`` via windowed tile reads, nodata-aware
    per-tile checksums."""
    from geotrellis_contrib_ray.core.grid import LayoutDefinition
    from geotrellis_contrib_ray.pipelines.query_defs import (
        QUERY_GRID,
        conic_raster_target,
    )
    from geotrellis_contrib_ray.sources.raster_source import SyntheticRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    tg = conic_raster_target(crs)
    src = SyntheticRasterSource(QUERY_GRID)
    rep = src.reproject(crs, target_grid=tg, method="nearest")
    layout = LayoutDefinition.floating(tg, 256)
    tiles = rst.tile_dataset([rep], layout)
    return rst.summarize_tiles(tiles, nodata_aware=True)


def q_raster_albers(sf_dir: str):
    """T1 warp oracle #2: the same end-to-end warp read path at the Albers
    equal-area target — a structurally different projection inverse (asin
    vs the LCC power/atan), so the twin proves the warp plumbing is not
    fitted to one CRS family."""
    from geotrellis_contrib_ray.pipelines.query_defs import albers_query_crs

    return _warp_query(albers_query_crs())


def q_raster_stereo(sf_dir: str):
    """T1 warp oracle #3: north polar stereographic target (atan-of-rho
    inverse family)."""
    from geotrellis_contrib_ray.pipelines.query_defs import stereo_query_crs

    return _warp_query(stereo_query_crs())


def q_raster_sinusoidal(sf_dir: str):
    """T1 warp oracle #4: sinusoidal target (the MODIS land grid; linear /
    secant inverse family)."""
    from geotrellis_contrib_ray.pipelines.query_defs import sinu_query_crs

    return _warp_query(sinu_query_crs())


def q_raster_stride_windows(sf_dir: str):
    """The reference's benchmark workload as an oracle query
    (GeotrellisRasterSourceBench.scala:32-43: FloatingLayoutScheme(256) keys
    row-major, every 5th key, take 100, read each window): stride-sampled
    tile reads of the real GeoTIFF with per-window checksums."""
    from geotrellis_contrib_ray.sources.tiff import TiffRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    _, layout = _raster_layout()
    src = TiffRasterSource(_raster_tiff_path())
    ncols = layout.layout_cols

    # row-major key index stride (O1) applied to the REQUESTS — unsampled
    # windows are never read, matching the reference's take-then-read order
    def every_5th(cols, rows):
        return (rows * ncols + cols) % 5 == 0

    sampled = rst.tile_dataset([src], layout, key_filter=every_5th)
    return rst.summarize_tiles(sampled, nodata_aware=False)


def q_raster_convert(sf_dir: str):
    """T6 oracle: cell-type conversion (int16 -> uint8 two's-complement wrap)
    over the tile table; checksums of the converted pixels."""
    from geotrellis_contrib_ray.core.celltype import CellType
    from geotrellis_contrib_ray.sources.raster_source import SyntheticRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    grid, layout = _raster_layout()
    tiles = rst.tile_dataset([SyntheticRasterSource(grid)], layout)
    conv = rst.convert_tiles(tiles, CellType("uint8", None))
    return rst.summarize_tiles(conv, nodata_aware=False)


def q_raster_band_math(sf_dir: str):
    """F11 ORACLE (r4): per-cell LOCAL map algebra over the distributed tile
    table — quantized normalized band difference (NDVI shape) on a 2-band
    synthetic source, rolled up as per-tile integer checksums.  The quantize
    is floor((SCALE * (b1 - b0)) / max(b1 + b0, 1)) with the identical
    double expression in the twin."""
    import numpy as np

    from geotrellis_contrib_ray.core.celltype import CellType
    from geotrellis_contrib_ray.pipelines.query_defs import NDVI_Q_SCALE
    from geotrellis_contrib_ray.sources.raster_source import SyntheticRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    grid, layout = _raster_layout()
    tiles = rst.tile_dataset([SyntheticRasterSource(grid, bands=2)], layout)

    def ndvi_q(px: np.ndarray) -> np.ndarray:
        b0 = px[0].astype(np.float64)
        b1 = px[1].astype(np.float64)
        den = np.maximum(b1 + b0, 1.0)
        return np.floor((float(NDVI_Q_SCALE) * (b1 - b0)) / den).astype(np.int64)

    mapped = rst.local_map_tiles(tiles, ndvi_q, CellType("int64", None))
    return rst.summarize_tiles(mapped, nodata_aware=False)


def q_raster_mosaic(sf_dir: str):
    """S3/J2/A3 oracle: two overlapping sources merged first-non-nodata-wins
    (deterministic source order); per-tile NoData-aware checksums."""
    from geotrellis_contrib_ray.core.grid import Extent, GridExtent
    from geotrellis_contrib_ray.pipelines.query_defs import (
        MOSAIC_B_OFF,
        MOSAIC_SPLIT_A,
        RASTER_CELL,
        RASTER_COLS,
        RASTER_ROWS,
        RASTER_X0,
        RASTER_Y0,
    )
    from geotrellis_contrib_ray.sources.raster_source import SyntheticRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    _, layout = _raster_layout()
    y1 = RASTER_Y0 + RASTER_ROWS * RASTER_CELL
    grid_a = GridExtent(
        Extent(RASTER_X0, RASTER_Y0, RASTER_X0 + MOSAIC_SPLIT_A * RASTER_CELL, y1),
        RASTER_CELL, RASTER_CELL, MOSAIC_SPLIT_A, RASTER_ROWS,
    )
    b_cols = RASTER_COLS - MOSAIC_B_OFF
    grid_b = GridExtent(
        Extent(RASTER_X0 + MOSAIC_B_OFF * RASTER_CELL, RASTER_Y0,
               RASTER_X0 + RASTER_COLS * RASTER_CELL, y1),
        RASTER_CELL, RASTER_CELL, b_cols, RASTER_ROWS,
    )
    tiles = rst.tile_dataset(
        [SyntheticRasterSource(grid_a), SyntheticRasterSource(grid_b)], layout
    )
    merged = rst.mosaic_merge(tiles, layout)
    return rst.summarize_tiles(merged, nodata_aware=True, include_dims=False)


def q_raster_focal(sf_dir: str):
    """Focal map algebra oracle: 3x3 focal SUM (integer-exact) over the tile
    table with halo exchange between neighbor tiles; per-tile checksums
    match the DuckDB 9-term in-bounds neighbor formula.  Layer-boundary
    cells aggregate their partial window (GDAL/geotrellis edge semantics) —
    the checksum is sensitive to halo placement on every tile edge."""
    from geotrellis_contrib_ray.sources.raster_source import SyntheticRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    grid, layout = _raster_layout()
    tiles = rst.tile_dataset([SyntheticRasterSource(grid)], layout)
    focal = rst.focal_tiles(tiles, op="sum", radius=1)
    return rst.summarize_tiles(focal, nodata_aware=False)


def q_raster_gradient(sf_dir: str):
    """Slope/hillshade core as an integer-exact oracle: Horn-stencil dz/dx
    NUMERATORS over the tile table (same halo-exchange plan as focal sum);
    missing (out-of-layer) neighbors contribute 0 on both engines."""
    from geotrellis_contrib_ray.sources.raster_source import SyntheticRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    grid, layout = _raster_layout()
    tiles = rst.tile_dataset([SyntheticRasterSource(grid)], layout)
    grad = rst.focal_tiles(tiles, op="gradient_x", radius=1)
    return rst.summarize_tiles(grad, nodata_aware=False)


def q_raster_hillshade(sf_dir: str):
    """Terrain hillshade oracle (GDAL az=315/alt=45 formula over the Horn
    stencil with halo exchange): per-tile sums of the 0..255 integer
    shading.  Safe in the hash gate: measured min distance of 255*hs to a
    rounding boundary on this raster is 3.4e-4 — nine orders above
    numpy-vs-DuckDB libm divergence."""
    from geotrellis_contrib_ray.sources.raster_source import SyntheticRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    grid, layout = _raster_layout()
    tiles = rst.tile_dataset([SyntheticRasterSource(grid)], layout)
    hs = rst.focal_tiles(tiles, op="hillshade", radius=1)
    return rst.summarize_tiles(hs, nodata_aware=False)


def q_raster_pyramid(sf_dir: str):
    """A7 oracle: true tile pyramid one level up (2x2 children -> layout-
    framed parent, 2x nearest decimation); NoData-aware parent checksums
    match the DuckDB even-cell rollup."""
    from geotrellis_contrib_ray.sources.raster_source import SyntheticRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    grid, layout = _raster_layout()
    tiles = rst.tile_dataset([SyntheticRasterSource(grid)], layout)
    level1 = rst.pyramid_build(tiles, 1, layout)[1]
    return rst.summarize_tiles(level1, nodata_aware=True, include_dims=False)


def q_pack_sequences(sf_dir: str):
    """LLM sequence packing: docs assigned to fixed-512-token training
    sequences by GLOBAL cumulative token count in id order (distributed
    two-level prefix sum; DuckDB window-cumsum oracle)."""
    from geotrellis_contrib_ray.stages.pack import pack_sequences

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return pack_sequences(ds, budget=512)


def q_vocab_coverage(sf_dir: str):
    """Vocabulary-coverage quality signal: corpus top-32 token table
    (partial tf per batch -> one token groupby -> tiny top-k) broadcast
    into a narrow is_in scoring pass.  Pure integer counts cross the hash
    compare; DuckDB twin rebuilds the same vocab with an identical
    (count DESC, token) tie-break."""
    from geotrellis_contrib_ray.stages.text import vocab_coverage

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return vocab_coverage(ds, top_v=32)


def q_chunk_docs(sf_dir: str):
    """Context-window chunking: overlapping fixed-width character windows
    per document (size 160, stride 120) — the pretraining chunk layout.
    Pure narrow flat-map over the shared utf8 buffer; full chunk TEXT
    crosses the value-hash compare (DuckDB generate_series+substr twin).
    The twin enumerates CHUNK_SQL_SERIES offsets, so documents longer than
    its bound are guarded loudly (a longer doc would silently diverge)."""
    from geotrellis_contrib_ray.pipelines.query_defs import CHUNK_SQL_SERIES
    from geotrellis_contrib_ray.stages.pack import CHUNK_STRIDE, chunk_documents

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = _guard_max_text_len(ds, (CHUNK_SQL_SERIES + 1) * CHUNK_STRIDE,
                             "chunk_docs oracle series bound")
    return chunk_documents(ds)


def q_shuffle_head(sf_dir: str):
    """Deterministic epoch shuffle (epoch 1): range-partitioned sort on the
    integer shuffle hash, first 64 rows of the epoch stream.  The limit
    makes global ORDER the checked property (the set of first-64 ids is a
    pure function of the permutation); DuckDB replays the same hash +
    ORDER BY."""
    from geotrellis_contrib_ray.stages.pack import global_shuffle

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return global_shuffle(ds, epoch=1).limit(64)


def q_train_split(sf_dir: str):
    """Deterministic hash-stratified train/val/test split, rolled up to
    per-split doc counts + char sums (pure narrow map; integer-hash oracle)."""
    import pyarrow as pa

    from ray.data.aggregate import Sum

    from geotrellis_contrib_ray.pipelines.query_defs import (
        SPLIT_TEST_BELOW,
        SPLIT_VAL_BELOW,
    )
    from geotrellis_contrib_ray.stages.pack import train_val_test_split

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    tagged = train_val_test_split(ds, test_pct=SPLIT_TEST_BELOW,
                                  val_pct=SPLIT_VAL_BELOW - SPLIT_TEST_BELOW)

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["split", "n_chars", "doc_id"]).group_by("split", use_threads=False).aggregate(
            [("n_chars", "sum"), ("doc_id", "count")]
        )
        return g.rename_columns(["split", "pchars", "pcnt"])

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    part = tagged.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    return driver_group_rollup(part, ["split"],
                               [("pchars", "sum", "sum_chars"),
                                ("pcnt", "sum", "n_docs")])


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: the 20 docs per lang with the
    smallest (hash(doc_id), doc_id) — a reproducible uniform per-stratum
    draw with no RNG state; rides the partial-top-k shuffle bound
    (<= k rows/group/block).  Integer-hash oracle via row_number()."""
    from geotrellis_contrib_ray.stages.pack import stratified_sample

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["lang", "doc_id"])
    return stratified_sample(ds, group_col="lang", k=20)


def q_redact(sf_dir: str):
    """PII-style regex redaction: vectorized RE2 replace + per-doc hit count
    (pure narrow map; DuckDB regexp_replace twin matches byte-for-byte —
    both engines embed RE2)."""
    from geotrellis_contrib_ray.stages.text import redact_regex

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return redact_regex(ds)


def q_contamination(sf_dir: str):
    """Benchmark-contamination scan: distinct 8-byte-gram overlap of every
    corpus doc against a broadcast benchmark slice (doc_id < 50 —
    deterministic, no external data).  No shuffle: benchmark hashes ride
    one ray.put, the corpus side is a single narrow vectorized pass."""
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.stages.dedup import contamination_check

    path = f"{sf_dir}/documents.parquet"
    cols = ["doc_id", "text"]
    bench = _read_pq(path, columns=cols,
                               filter=pc.field("doc_id") < 50)
    corpus = _read_pq(path, columns=cols,
                                filter=pc.field("doc_id") >= 50)
    return contamination_check(corpus, bench, shingle_k=8)


def q_dedup_clusters(sf_dir: str):
    """Transitive near-dup CLUSTERS: shared 10-char prefix/suffix keys ->
    star edges (linear per key group) -> distributed connected components
    (min-label propagation: one narrow int64 join + one groupby-min per
    round) -> (doc_id, cluster_id) for every doc.  SQL twin: WITH RECURSIVE
    min-label reach over the same star edges."""
    from geotrellis_contrib_ray.pipelines.query_defs import CLUSTER_KEY_LEN
    from geotrellis_contrib_ray.stages.graph import neardup_clusters

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return neardup_clusters(ds, key_len=CLUSTER_KEY_LEN)


def q_dedup_apply(sf_dir: str):
    """The near-dup pipeline's APPLY step: connected-component clusters ->
    keep only each cluster's representative (doc_id == cluster min-label),
    rolled up per lang as kept/dropped counts.  ``lang`` rides THROUGH the
    cluster pipeline as a carried node column (graph.connected_components
    carry_cols) — no separate corpus⋈labels join and no driver-side id set
    at any corpus size."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.pipelines.query_defs import CLUSTER_KEY_LEN
    from geotrellis_contrib_ray.stages.graph import neardup_clusters

    ds = _read_pq(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text", "lang"])
    joined = neardup_clusters(ds, key_len=CLUSTER_KEY_LEN, carry_cols=("lang",))

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.cast(pc.equal(b["doc_id"], b["cluster_id"]), pa.int64())
        t = pa.table({"lang": b["lang"], "k": keep,
                      "d": pc.subtract(pa.scalar(1, pa.int64()), keep)})
        g = t.group_by("lang", use_threads=False).aggregate([("k", "sum"), ("d", "sum")])
        return g.rename_columns(["lang", "k", "d"])

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    return driver_group_rollup(
        joined.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None),
        ["lang"],
        [("k", "sum", "n_kept"), ("d", "sum", "n_dropped")],
    )


def q_semi_bloom(sf_dir: str):
    """Bloom-pushdown EXACT semi-join: lineitems of URGENT orders, rolled up
    per returnflag.  Distributed bloom build (per-batch bitmaps, tree OR),
    broadcast prefilter kills non-matching rows before any shuffle, exact
    verify join on the survivors; quantities integer-scaled (cents)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.stages.joins import bloom_semi_join

    left = _read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_quantity"],
    )
    urgent = _read_pq(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey"],
        filter=pc.field("o_orderpriority") == "1-URGENT",
    )

    keys = urgent.map_batches(
        lambda b: b.rename_columns(["l_orderkey"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    lschema = pa.schema([
        ("l_orderkey", pa.int64()), ("l_returnflag", pa.string()),
        ("l_quantity", pa.float64()),
    ])
    semi = bloom_semi_join(left, keys, on="l_orderkey",
                           schemas=(lschema, pa.schema([("l_orderkey", pa.int64())])))

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.multiply(b["l_quantity"], 100.0)), pa.int64())
        t = pa.table({"l_returnflag": b["l_returnflag"], "qc": cents})
        g = t.group_by("l_returnflag", use_threads=False).aggregate(
            [("qc", "sum"), ("qc", "count")])
        return g.rename_columns(["l_returnflag", "s", "n"])

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    # final rollup has a bounded group count (returnflags): driver-combine
    # of the per-block partials, no second all-to-all after the join
    return driver_group_rollup(
        semi.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                         batch_size=None),
        ["l_returnflag"],
        [("s", "sum", "sum_qty_cents"), ("n", "sum", "n_items")],
    )


def q_tfidf_terms(sf_dir: str):
    """Per-doc top-3 TF-IDF terms: in-batch tokenize+tf, one df groupby,
    df joined back on term, partial top-k per doc.  Ranking score is
    tf*ln(N/df) identically on both engines; only integer columns emitted."""
    import pyarrow.parquet as _pq

    from geotrellis_contrib_ray.stages.text import tfidf_top_terms

    path = f"{sf_dir}/documents.parquet"
    ds = _read_pq(path, columns=["doc_id", "text"])
    # N from parquet footer metadata: tfidf_top_terms' n_docs=None fallback
    # is ds.count(), which executes the read+strip upstream a SECOND time
    n_docs = _pq.ParquetFile(path).metadata.num_rows
    return tfidf_top_terms(ds, top_n=3, n_docs=n_docs)


def q_orders_left_join(sf_dir: str):
    """LEFT OUTER tier of the bucketed hash join: every order keeps a row
    even with no lineitems (typed-null right side -> coalesce 0), rolled up
    per priority.  Lineitem side is pre-aggregated per batch and the partial
    rows flow STRAIGHT into the join's shuffle (right_pre_agg fuses the
    per-key combine into the bucket merge) — one all-to-all total, not
    groupby + join (measured ~2x at sf0.1)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.stages.joins import bucketed_hash_join

    orders = _read_pq(f"{sf_dir}/orders.parquet",
                                columns=["o_orderkey", "o_orderpriority"])
    li = _read_pq(f"{sf_dir}/lineitem.parquet",
                            columns=["l_orderkey", "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.multiply(b["l_extendedprice"], 100.0)), pa.int64())
        t = pa.table({"o_orderkey": b["l_orderkey"], "c": cents})
        g = t.group_by("o_orderkey", use_threads=False).aggregate([("c", "sum")])
        return g.rename_columns(["o_orderkey", "cents"])

    from ray.data.aggregate import Sum

    sums = li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)
    joined = bucketed_hash_join(
        orders, sums, on="o_orderkey", how="left",
        right_pre_agg={"cents": "sum"},
        schemas=(pa.schema([("o_orderkey", pa.int64()),
                            ("o_orderpriority", pa.string())]),
                 pa.schema([("o_orderkey", pa.int64()), ("cents", pa.int64())])),
    )

    def fold(b: pa.Table) -> pa.Table:
        has = pc.cast(pc.is_valid(b["cents"]), pa.int64())
        filled = pc.fill_null(b["cents"], 0)
        t = pa.table({"o_orderpriority": b["o_orderpriority"],
                      "m": has, "c": filled})
        g = t.group_by("o_orderpriority", use_threads=False).aggregate(
            [("m", "count"), ("m", "sum"), ("c", "sum")])
        return g.rename_columns(["o_orderpriority", "n", "m", "c"])

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    return driver_group_rollup(
        joined.map_batches(fold, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None),
        ["o_orderpriority"],
        [("n", "sum", "n_orders"), ("m", "sum", "n_matched"),
         ("c", "sum", "sum_price_cents")],
    )


def q_mercator_cells(sf_dir: str):
    """T1 reproject ORACLE: the 4326→3857 CRS kernel itself, checked to
    centimeter integers against DuckDB's radians/tan/ln — measured numpy vs
    libm divergence is <4e-9 m over the lattice, so floor(m*100) is stable."""
    import pyarrow as pa

    from geotrellis_contrib_ray.core.crs import EPSG_3857, EPSG_4326, Transformer
    from geotrellis_contrib_ray.sources.documents import geocode_ids

    tr = Transformer(EPSG_4326, EPSG_3857)

    def to_merc(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        lon, lat = geocode_ids(ids)
        mx, my = tr.transform(lon, lat)
        return pa.table({
            "doc_id": pa.array(ids),
            "mx_cm": pa.array(np.floor(mx * 100.0).astype(np.int64)),
            "my_cm": pa.array(np.floor(my * 100.0).astype(np.int64)),
        })

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return ds.map_batches(to_merc, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def _conic_cells(sf_dir: str, crs, xcol: str, ycol: str):
    """Shared body of q_lambert_cells / q_albers_cells: geocode -> conic
    forward transform -> centimeter-integer floor (the q_mercator_cells
    contract — derived projection constants are computed once in python and
    embedded verbatim in the SQL twin, so per-point math is the same
    elementary libm calls on both engines)."""
    import pyarrow as pa

    from geotrellis_contrib_ray.core.crs import EPSG_4326, Transformer
    from geotrellis_contrib_ray.sources.documents import geocode_ids

    tr = Transformer(EPSG_4326, crs)

    def fwd(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        lon, lat = geocode_ids(ids)
        x, y = tr.transform(lon, lat)
        return pa.table({
            "doc_id": pa.array(ids),
            xcol: pa.array(np.floor(x * 100.0).astype(np.int64)),
            ycol: pa.array(np.floor(y * 100.0).astype(np.int64)),
        })

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return ds.map_batches(fwd, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def q_lambert_cells(sf_dir: str):
    """T1 reproject oracle #2: 4326 -> Lambert conformal conic (spherical
    Snyder closed form, CONUS parallels) — widens the reproject family
    toward the reference's any-CRS contract
    (GeoTiffReprojectRasterSource.scala:63-69) within the no-pyproj
    constraint."""
    from geotrellis_contrib_ray.pipelines.query_defs import lambert_query_crs

    return _conic_cells(sf_dir, lambert_query_crs(), "lx_cm", "ly_cm")


def q_albers_cells(sf_dir: str):
    """T1 reproject oracle #3: 4326 -> Albers equal-area conic."""
    from geotrellis_contrib_ray.pipelines.query_defs import albers_query_crs

    return _conic_cells(sf_dir, albers_query_crs(), "ax_cm", "ay_cm")


def q_stereo_cells(sf_dir: str):
    """T1 reproject oracle #4: 4326 -> north polar stereographic (the
    EPSG:3413-style Arctic gridding family, spherical Snyder form)."""
    from geotrellis_contrib_ray.pipelines.query_defs import stereo_query_crs

    return _conic_cells(sf_dir, stereo_query_crs(), "px_cm", "py_cm")


def q_sinusoidal_cells(sf_dir: str):
    """T1 reproject oracle #5: 4326 -> sinusoidal (the MODIS land-grid
    equal-area family)."""
    from geotrellis_contrib_ray.pipelines.query_defs import sinu_query_crs

    return _conic_cells(sf_dir, sinu_query_crs(), "sx_cm", "sy_cm")


def q_repetition(sf_dir: str):
    """Gopher-style repetition quality signal: per-doc total vs distinct
    5-grams (one narrow vectorized pass; lexsort run-detect per batch)."""
    from geotrellis_contrib_ray.stages.text import repetition_stats

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return repetition_stats(ds, k=5)


def q_kmeans_embed(sf_dir: str):
    """Distributed k-means (Lloyd's) over the embedding table: centroids
    broadcast per iteration, E-step + partial M-step fused per batch (only
    k x d partial rows cross the shuffle), driver state = k x d floats.
    Deterministic seeds = first KMEANS_K vectors; output (vec_id, cluster)."""
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.pipelines.query_defs import KMEANS_ITERS, KMEANS_K
    from geotrellis_contrib_ray.stages.ann import _embedding_matrix
    from geotrellis_contrib_ray.stages.cluster import kmeans_assign, kmeans_fit

    path = f"{sf_dir}/embeddings.parquet"
    cols = ["vec_id", "embedding"]
    seed_t = (
        _read_pq(path, columns=cols, filter=pc.field("vec_id") < KMEANS_K)
        .sort("vec_id")
        .take_all()
    )
    seeds = np.stack([np.asarray(r["embedding"], np.float64) for r in seed_t])
    # one scan total: the embedding table is object-store-resident across
    # the Lloyd's rounds AND the final assign (kmeans_fit would otherwise
    # cache its own copy and assign would re-scan the parquet)
    ds = _read_pq(path, columns=cols).materialize()
    cents = kmeans_fit(ds, seeds, n_iter=KMEANS_ITERS)
    return kmeans_assign(ds, cents)


def q_media_image_decode(sf_dir: str):
    """Multimodal oracle: REAL image decode (stdlib PNG/BMP/PPM codecs)
    through the feature-extractor stage — decoded dims must match the
    deterministic generator formulas the DuckDB oracle replays.  Payload
    format rotates PNG/BMP/PPM/JPEG by index to exercise magic-byte sniffing
    (JPEG = the pure-numpy baseline-DCT codec in functions/jpeg.py; the dims
    oracle is codec-agnostic, so the lossy pixel path is exercised while the
    checked projection stays exact)."""
    import pyarrow as pa

    from geotrellis_contrib_ray.functions import codecs
    from geotrellis_contrib_ray.functions.jpeg import encode_jpeg
    from geotrellis_contrib_ray.stages import multimodal as mm

    n = 64
    encs = [codecs.encode_png, codecs.encode_bmp, codecs.encode_ppm, encode_jpeg]
    refs, payloads = [], []
    for i in range(n):
        h = 16 + (i % 17)
        w = 16 + ((i * 7) % 19)
        col = np.arange(w, dtype=np.int64)[None, :]
        row = np.arange(h, dtype=np.int64)[:, None]
        px = ((row * w + col) % 256).astype(np.uint8)
        img = np.repeat(px[:, :, None], 3, axis=2)
        refs.append(f"img{i:03d}")
        payloads.append(encs[i % 4](img))
    t = pa.table(
        {
            "media_ref": pa.array(refs, pa.string()),
            "media_type": pa.array(["image"] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )
    ds = _rd().from_arrow(t)
    out = mm.extract_image_features(ds, batch_size=16)
    return out.select_columns(["media_ref", "width", "height"])


def q_window_distinct(sf_dir: str):
    """Exact distinct-users per tumbling hour: per-batch pair collapse, one
    pair-key groupby for global dedup, tiny count rollup."""
    from geotrellis_contrib_ray.pipelines.query_defs import WINDOW_SEC
    from geotrellis_contrib_ray.stages.windows import window_distinct_users

    ds = _read_pq(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])
    return window_distinct_users(ds, WINDOW_SEC)


def q_span_media_join(sf_dir: str):
    """Cross-modal INTERLEAVED pipeline oracle: flat docs -> interleaved
    spans (sources/documents.py lift) -> media spans -> REAL decoded image
    dims joined on via the broadcast small-side tier (the 64-image decoded
    table from the PNG/BMP/PPM/JPEG codecs rides one ray.put).  Output per
    media span: (doc_id, media_ref, offset, width, height) — every field
    reproduced by the formula oracle, so span derivation, span ORDER
    metadata (offset) and the decode results are all hash-checked."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from geotrellis_contrib_ray.sources.documents import docs_to_spans

    dims_rows = q_media_image_decode(sf_dir).take_all()  # 64 tiny rows
    w_by_idx = np.zeros(64, np.int64)
    h_by_idx = np.zeros(64, np.int64)
    for r in dims_rows:
        i = int(r["media_ref"][3:])
        w_by_idx[i] = r["width"]
        h_by_idx[i] = r["height"]
    lut_ref = ray.put((w_by_idx, h_by_idx))

    def media_rows(b: pa.Table) -> pa.Table:
        spans_t = docs_to_spans(b)
        spans = spans_t["spans"].combine_chunks()
        n = len(spans_t)
        offsets = spans.offsets.to_numpy()
        sizes = offsets[1:] - offsets[:-1]
        parent = np.repeat(np.arange(n, dtype=np.int64), sizes)
        values = spans.values
        kind = values.field("kind").to_numpy(zero_copy_only=False)
        is_media = kind == "media"
        parent_m = parent[is_media]
        num_id = pc.cast(pc.utf8_slice_codeunits(spans_t["doc_id"].combine_chunks(), 4),
                         pa.int64()).to_numpy(zero_copy_only=False)[parent_m]
        mref = values.field("media_ref").filter(pa.array(is_media))
        off = values.field("offset").to_numpy(zero_copy_only=False)[is_media]
        wlut, hlut = ray.get(lut_ref)
        idx = num_id % 64
        return pa.table({
            "doc_id": pa.array(num_id),
            "media_ref": mref,
            "offset": pa.array(off.astype(np.int32)),
            "width": pa.array(wlut[idx].astype(np.int32)),
            "height": pa.array(hlut[idx].astype(np.int32)),
        })

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(media_rows, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def q_quantile_chars(sf_dir: str):
    """Exact distributed quantiles (quality-cutoff percentiles) of n_chars
    per lang: holistic aggregate reduced to a domain-bounded value
    histogram (stages/stats.py) — exact at any corpus size, no t-digest."""
    from geotrellis_contrib_ray.stages.stats import grouped_quantiles

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])
    return grouped_quantiles(ds, "n_chars", qs=(0.25, 0.5, 0.75, 0.9), group_col="lang")


def q_quantile_filter(sf_dir: str):
    """Quality-cutoff filter COMPOSITION: the exact global median of n_chars
    (grouped_quantiles, domain-bounded histogram) broadcast into a narrow
    filter pass, rolled up per lang — the canonical "drop the short tail"
    pretraining screen.  Both the cutoff and the surviving counts are
    integers; DuckDB twin uses quantile_disc in a scalar subquery."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from geotrellis_contrib_ray.stages.stats import grouped_quantiles

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])
    med = grouped_quantiles(ds, "n_chars", qs=(0.5,)).take_all()
    cutoff = int(med[0]["value"])

    def partial(b: pa.Table) -> pa.Table:
        kept = b.filter(pc.greater(b["n_chars"], cutoff))
        g = kept.group_by("lang", use_threads=False).aggregate(
            [("n_chars", "count"), ("n_chars", "sum")])
        g = g.rename_columns(["lang", "pn", "psum"])
        return pa.table({"lang": g["lang"], "pn": g["pn"].cast(pa.int64()),
                         "psum": g["psum"].cast(pa.int64())})

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    out = driver_group_rollup(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        ["lang"],
        [("pn", "sum", "n_docs"), ("psum", "sum", "sum_chars")],
    )
    return out.append_column("cutoff", pa.array([cutoff] * out.num_rows, pa.int64()))


def q_top_docs_per_lang(sf_dir: str):
    """Per-group top-k (longest 5 docs per lang, ties by doc_id): partial
    top-k per batch per group, <= k rows/group/block through the shuffle."""
    from geotrellis_contrib_ray.stages.stats import top_k_per_group

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars", "doc_id"])
    return top_k_per_group(ds, group_col="lang", order_col="n_chars", k=5, tie_col="doc_id")


def q_media_video_frames(sf_dir: str):
    """Multimodal oracle: REAL video decode (MJPEG-AVI container over the
    pure-numpy JPEG codec) through the frame-sampler stage — frame
    counts, sampled counts, dims and fps must match the generator formulas
    the DuckDB oracle replays."""
    import pyarrow as pa

    from geotrellis_contrib_ray.functions.avi import encode_avi_mjpeg
    from geotrellis_contrib_ray.stages import multimodal as mm

    n = 24
    refs, payloads = [], []
    for i in range(n):
        nf = 4 + i % 7
        h = 16 + i % 5
        w = 16 + (i * 3) % 7
        fps = 5 + i % 10
        col = np.arange(w, dtype=np.int64)[None, :]
        row = np.arange(h, dtype=np.int64)[:, None]
        frames = np.stack(
            [((row * w + col + 13 * f) % 256).astype(np.uint8) for f in range(nf)]
        )
        frames = np.repeat(frames[..., None], 3, axis=3)
        refs.append(f"vid{i:03d}")
        payloads.append(encode_avi_mjpeg(frames, fps=fps))
    t = pa.table(
        {
            "media_ref": pa.array(refs, pa.string()),
            "media_type": pa.array(["video"] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )
    ds = _rd().from_arrow(t)
    out = mm.sample_video_frames(ds, stride=2, batch_size=8)
    return out.select_columns(
        ["media_ref", "n_frames", "n_sampled", "width", "height", "fps"]
    )


def q_media_audio_frames(sf_dir: str):
    """Multimodal oracle: REAL PCM WAV decode through the frame sampler —
    frame counts must match the sample-count formula the oracle replays."""
    import pyarrow as pa

    from geotrellis_contrib_ray.functions import codecs
    from geotrellis_contrib_ray.stages import multimodal as mm

    n = 32
    refs, payloads = [], []
    for i in range(n):
        samples = 1000 + 37 * i
        tt = np.arange(samples, dtype=np.float64)
        wav = (0.25 * np.sin(2 * np.pi * tt * (i + 1) / 128.0)).astype(np.float32)
        refs.append(f"aud{i:03d}")
        payloads.append(codecs.encode_wav(wav, 16000))
    t = pa.table(
        {
            "media_ref": pa.array(refs, pa.string()),
            "media_type": pa.array(["audio"] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )
    ds = _rd().from_arrow(t)
    return mm.sample_audio_frames(ds, batch_size=8).select_columns(["media_ref", "n_frames"])


def q_media_image_checksum(sf_dir: str):
    """Pixel-EXACT image decode oracle: formula images through the three
    LOSSLESS codecs (PNG/BMP/PPM rotating by index) -> raw uint8 pixel sums
    from the feature-extractor stage; the SQL twin re-sums the generator
    formula cell by cell.  Complements media_image_decode (dims-only,
    includes the lossy JPEG path)."""
    import pyarrow as pa

    from geotrellis_contrib_ray.functions import codecs
    from geotrellis_contrib_ray.stages import multimodal as mm

    n = 48
    encs = [codecs.encode_png, codecs.encode_bmp, codecs.encode_ppm]
    refs, payloads = [], []
    for i in range(n):
        h = 16 + (i % 17)
        w = 16 + ((i * 7) % 19)
        col = np.arange(w, dtype=np.int64)[None, :]
        row = np.arange(h, dtype=np.int64)[:, None]
        px = ((row * w + col) % 256).astype(np.uint8)
        img = np.repeat(px[:, :, None], 3, axis=2)
        refs.append(f"img{i:03d}")
        payloads.append(encs[i % 3](img))
    t = pa.table({
        "media_ref": pa.array(refs, pa.string()),
        "media_type": pa.array(["image"] * n, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
    })
    out = mm.extract_image_features(_rd().from_arrow(t), batch_size=16)
    return out.select_columns(["media_ref", "width", "height", "pixel_sum"])


def q_audio_energy(sf_dir: str):
    """Multimodal DSP oracle: REAL WAV encode/decode round-trip, then
    integer energy stats (sum of squares, peak) over the raw int16 PCM.
    Samples are integer pseudo-noise ``((t*(i+3)*2654435761) % 65536) -
    32768`` so BOTH engines compute identical pure-integer sums — no
    libm-trig divergence risk in the hash gate."""
    import pyarrow as pa

    from geotrellis_contrib_ray.functions import codecs
    from geotrellis_contrib_ray.stages import multimodal as mm

    n = 32
    refs, payloads = [], []
    for i in range(n):
        t = np.arange(1000 + 37 * i, dtype=np.int64)
        v = ((t * (i + 3) * np.int64(2654435761)) % 65536 - 32768).astype(np.int16)
        refs.append(f"aud{i:03d}")
        payloads.append(codecs.encode_wav(v, 16000))
    t = pa.table({
        "media_ref": pa.array(refs, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
    })
    return mm.audio_energy(_rd().from_arrow(t), batch_size=8)


def q_span_table(sf_dir: str):
    """The COMPLETE interleaved span table under the hash gate: flat docs
    lifted to [text | media | text] spans (sources/documents.py), exploded
    with their list ORDINAL — span order, kinds, both text halves, media
    refs and offsets all cross the value-hash compare (the north-rule
    span-sequence invariant as a driver-checked query, not just a pytest
    guard)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.sources.documents import docs_to_spans

    def explode(b: pa.Table) -> pa.Table:
        spans_t = docs_to_spans(b)
        spans = spans_t["spans"].combine_chunks()
        n = len(spans_t)
        offs = spans.offsets.to_numpy()
        sizes = offs[1:] - offs[:-1]
        parent = np.repeat(np.arange(n, dtype=np.int64), sizes)
        ordinal = np.arange(int(offs[-1]), dtype=np.int64) - np.repeat(offs[:-1].astype(np.int64), sizes)
        num_id = pc.cast(pc.utf8_slice_codeunits(spans_t["doc_id"].combine_chunks(), 4),
                         pa.int64()).to_numpy(zero_copy_only=False)[parent]
        v = spans.values
        return pa.table({
            "doc_id": pa.array(num_id),
            "span_idx": pa.array(ordinal),
            "kind": v.field("kind"),
            "span_text": v.field("text"),
            "media_ref": v.field("media_ref"),
            "offset": pc.cast(v.field("offset"), pa.int32()),
        })

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def q_span_redact(sf_dir: str):
    """Span-PRESERVING redaction over interleaved docs (r4): the PII scrub
    applied inside the span model — only text-span texts change; media
    spans, refs, offsets, span count and ORDER are untouched by
    construction.  Output is the full exploded span table, so order, kinds,
    refs, offsets AND the redacted halves all cross the value hash (the
    north-rule invariant under an EDITING op, driver-checked)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from geotrellis_contrib_ray.sources.documents import (
        docs_to_spans,
        redact_text_spans,
    )
    from geotrellis_contrib_ray.stages.text import REDACT_PATTERN, REDACT_TOKEN

    def explode(b: pa.Table) -> pa.Table:
        spans_t = redact_text_spans(docs_to_spans(b), REDACT_PATTERN, REDACT_TOKEN)
        spans = spans_t["spans"].combine_chunks()
        n = len(spans_t)
        offs = spans.offsets.to_numpy()
        sizes = offs[1:] - offs[:-1]
        parent = np.repeat(np.arange(n, dtype=np.int64), sizes)
        ordinal = np.arange(int(offs[-1]), dtype=np.int64) - np.repeat(offs[:-1].astype(np.int64), sizes)
        num_id = pc.cast(pc.utf8_slice_codeunits(spans_t["doc_id"].combine_chunks(), 4),
                         pa.int64()).to_numpy(zero_copy_only=False)[parent]
        v = spans.values
        return pa.table({
            "doc_id": pa.array(num_id),
            "span_idx": pa.array(ordinal),
            "kind": v.field("kind"),
            "span_text": v.field("text"),
            "media_ref": v.field("media_ref"),
            "offset": pc.cast(v.field("offset"), pa.int32()),
        })

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def q_dedup_keep_best(sf_dir: str):
    """Exact dedup keeping the BEST copy: winner per distinct text = min
    (source priority, doc_id) — curated sources beat the crawl.  Texts
    never move (24 B/row packed-winner shuffle, collision refusal)."""
    from geotrellis_contrib_ray.pipelines.query_defs import (
        DEDUP_DEFAULT_PRIORITY,
        DEDUP_PRIORITY_SOURCES,
    )
    from geotrellis_contrib_ray.stages.dedup import priority_dedup_keep_best

    ds = _read_pq(f"{sf_dir}/documents.parquet",
                  columns=["doc_id", "text", "source"])
    prio = {s: i for i, s in enumerate(DEDUP_PRIORITY_SOURCES)}
    return _keep_columns(priority_dedup_keep_best(ds, prio, DEDUP_DEFAULT_PRIORITY),
                         _int64_schema("doc_id", "n_dups"))


def q_top_bigrams_hh(sf_dir: str):
    """Heavy-hitter tier of top_bigrams: per-block top-capacity summaries
    with a tracked drop bound (sentinel key rides the same reduce), exact
    rescue pass over the candidate set, provable-exactness check with a
    transparent exact-tier fallback.  Same SQL twin as top_bigrams — the
    driver gate proves tier parity.  Small capacity forces real drops at
    gate scale so the rescue/proof path actually executes."""
    from geotrellis_contrib_ray.pipelines.query_defs import TOP_BIGRAMS_K
    from geotrellis_contrib_ray.stages.text import top_bigrams_hh

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["text"])
    return top_bigrams_hh(ds, k=TOP_BIGRAMS_K, capacity=64)


def q_bow_dedup(sf_dir: str):
    """Bag-of-words (token-sort) dedup groups: docs collide iff their sorted
    token multisets match (word-order-invariant near-dup — shuffled
    boilerplate).  Only 24 B/row (h1, h2, doc_id) ever shuffles; texts never
    move; 64-bit collisions across distinct signatures are refused via the
    second hash family (incremental_dedup contract)."""
    from geotrellis_contrib_ray.stages.dedup import bow_keep_first

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return _keep_columns(bow_keep_first(ds), _int64_schema("doc_id", "n_dups"))


def q_regex_tokens(sf_dir: str):
    """Corpus-wide regex-match counts (leftmost non-overlapping): one
    compiled-program pass per batch over a separator-joined string, per-batch
    np.unique pre-agg, one keyed reduce."""
    from geotrellis_contrib_ray.pipelines.query_defs import REGEX_TOKEN_PATTERN
    from geotrellis_contrib_ray.stages.text import regex_token_counts

    ds = _read_pq(f"{sf_dir}/documents.parquet", columns=["text"])
    return regex_token_counts(ds, REGEX_TOKEN_PATTERN)


def q_zscore_chars(sf_dir: str):
    """Per-lang population z-score of n_chars, quantized floor(z * 2^20):
    exact integer moments via driver rollup (bounded groups, no all-to-all),
    broadcast into a second narrow pass — the feature-normalization shape."""
    from geotrellis_contrib_ray.pipelines.query_defs import ZSCORE_QUANT_BITS
    from geotrellis_contrib_ray.stages.stats import group_zscore

    ds = _read_pq(f"{sf_dir}/documents.parquet",
                  columns=["doc_id", "lang", "n_chars"])
    out = group_zscore(ds, "lang", "n_chars", quant_bits=ZSCORE_QUANT_BITS)
    return out.select_columns(["doc_id", "lang", "z_q"])


def entry() -> Any:
    """Flagship interleaved-corpus pipeline on sf0.001."""
    from geotrellis_contrib_ray.pipelines.flagship import flagship

    return flagship("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # ROTATION POLICY (ADVICE r3): the driver's CORRECTNESS sampling
        # checks the FIRST ~50 entries.  Priority order: (a) queries NEVER
        # driver-checked (new this round), (b) queries whose implementation
        # CHANGED this round, (c) oldest-driver-checked first; recently
        # green rows ride last and rotate forward next round.
        # -- (a) NEW this round, never driver-checked: token-sort dedup,
        #    broadcast z-score, heavy-hitter top-k tier,
        #    then the earlier r5 waves (edit distance, bigrams, pivot, set
        #    ops, graph rank, window functions, product analytics, ...)
        "bow_dedup": q_bow_dedup,
        "zscore_chars": q_zscore_chars,
        "top_bigrams_hh": q_top_bigrams_hh,
        "dedup_keep_best": q_dedup_keep_best,
        "edit_distance_pairs": q_edit_distance_pairs,
        "top_bigrams": q_top_bigrams,
        "pivot_lang_source": q_pivot_lang_source,
        "lang_set_ops": q_lang_set_ops,
        "graph_rank": q_graph_rank,
        "moving_stats": q_moving_stats,
        "funnel_stages": q_funnel_stages,
        "cohort_retention": q_cohort_retention,
        "cube_lang_source": q_cube_lang_source,
        "repetition": q_repetition,  # changed this round (char-gram fix)
        "jsonl_roundtrip": q_jsonl_roundtrip,
        "quantile_chars_cont": q_quantile_chars_cont,
        "user_first_last": q_user_first_last,
        "csv_roundtrip": q_csv_roundtrip,
        "window_funcs": q_window_funcs,
        "user_paths": q_user_paths,
        "label_centroids": q_label_centroids,
        "mode_chars": q_mode_chars,
        "price_histogram": q_price_histogram,
        "corr_stats": q_corr_stats,
        # -- (b) implementation changed: every two-sided shuffle join (key,
        #    anti, skew, as-of, interval, box and distance joins, TF-IDF term
        #    buckets, keep-first dedup) runs on one co-partition shuffle
        "order_lineitem_join": q_order_lineitem_join,
        "orders_no_lineitem": q_orders_no_lineitem,
        "skew_join": q_skew_join,
        "asof_join": q_asof_join,
        "interval_join_bucketed": q_interval_join_bucketed,
        "user_actions_outer": q_user_actions_outer,
        "customer_order_totals": q_customer_order_totals,
        "orders_left_join": q_orders_left_join,
        "semi_bloom": q_semi_bloom,
        "tfidf_terms": q_tfidf_terms,
        "box_join": q_box_join,
        "distance_pairs": q_distance_pairs,
        "dedup_delta": q_dedup_delta,
        # -- (b cont.) implementation changed: exact-key dedup now runs on one
        #    shared kernel (keyed reduce / keep-first shuffle, one chunk
        #    builder), and regex extraction refuses separator matches
        "dedup_exact": q_dedup_exact,
        "corpus_clean": q_corpus_clean,
        "paragraph_dedup": q_paragraph_dedup,
        "paragraph_dup_ratio": q_paragraph_dup_ratio,
        "regex_tokens": q_regex_tokens,
        # -- (b cont.) implementation changed in r5 (adaptive simhash sharding,
        #    NULL-text delta filter, mixture persist tiers, subsampled skew
        #    census, chunked distance kernels, rollup typing, shared
        #    quantile level passes, graph-rank broadcast tier, edit-distance
        #    poly-hash/batched-DP/multi-match probes, jaccard verify mask)
        "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
        "jaccard_prefix_pairs": q_jaccard_prefix_pairs,
        "simhash_pairs": q_simhash_pairs,
        "mixture_sample": q_mixture_sample,
        "distinct_lang_source": q_distinct_lang_source,
        "rollup_lang_source": q_rollup_lang_source,
        "quantile_price": q_quantile_price,
        "quantile_price_cont": q_quantile_price_cont,
        "quantile_chars": q_quantile_chars,
        "quantile_filter": q_quantile_filter,
        # -- (c) the 8 queries whose latest driver check is r1/r2 (VERDICT
        #    r4 #5) — rotated into the checked window
        "ann_rank": q_ann_rank,
        "jaccard_exact_pairs": q_jaccard_exact_pairs,
        "media_image_decode": q_media_image_decode,
        "orders_by_segment": q_orders_by_segment,
        "quality_counts": q_quality_counts,
        "raster_convert": q_raster_convert,
        "raster_pyramid": q_raster_pyramid,
        "raster_stride_windows": q_raster_stride_windows,
        # -- (c cont.) r3-checked rows oldest-first; the r4-checked block
        #    rides at the end
        "pip_zones": q_pip_zones,
        "knn": q_knn,
        "zonal_summary": q_zonal_summary,
        "pyramid": q_pyramid,
        "raster_tile_read": q_raster_tile_read,
        "raster_mosaic": q_raster_mosaic,
        "hilbert_key": q_hilbert_key,
        "rasterize": q_rasterize,
        "raster_summary": q_raster_summary,
        "token_stats": q_token_stats,
        "lang_profile": q_lang_profile,
        "event_windows": q_event_windows,
        "interval_join": q_interval_join,
        "sessionize": q_sessionize,
        "sliding_windows": q_sliding_windows,
        "lineitem_pricing": q_lineitem_pricing,
        "zone_anti_join": q_zone_anti_join,
        "top_chars": q_top_chars,
        "stride_sample": q_stride_sample,
        "knn_indexed": q_knn_indexed,
        "knn_many": q_knn_many,
        "pip_zones_indexed": q_pip_zones_indexed,
        "pip_zones_rtree": q_pip_zones_rtree,
        "knn_rtree": q_knn_rtree,
        "media_audio_frames": q_media_audio_frames,
        "audio_energy": q_audio_energy,
        "media_image_checksum": q_media_image_checksum,
        "dedup_apply": q_dedup_apply,
        "media_video_frames": q_media_video_frames,
        "top_docs_per_lang": q_top_docs_per_lang,
        "chunk_docs": q_chunk_docs,
        "shuffle_head": q_shuffle_head,
        "vocab_coverage": q_vocab_coverage,
        "train_split": q_train_split,
        "stratified_sample": q_stratified_sample,
        "redact": q_redact,
        "contamination": q_contamination,
        "dedup_clusters": q_dedup_clusters,
        "substring_pairs": q_substring_pairs,
        "raster_focal": q_raster_focal,
        "kmeans_embed": q_kmeans_embed,
        "raster_gradient": q_raster_gradient,
        "mercator_cells": q_mercator_cells,
        "lambert_cells": q_lambert_cells,
        "albers_cells": q_albers_cells,
        "raster_lambert": q_raster_lambert,
        "raster_albers": q_raster_albers,
        "raster_stereo": q_raster_stereo,
        "raster_sinusoidal": q_raster_sinusoidal,
        "geohash_cells": q_geohash_cells,
        "stereo_cells": q_stereo_cells,
        "sinusoidal_cells": q_sinusoidal_cells,
        "span_media_join": q_span_media_join,
        "span_table": q_span_table,
        "window_distinct": q_window_distinct,
        "quality_scores": q_quality_scores,
        "minhash_pairs": q_minhash_pairs,
        "embedding_neardup": q_embedding_neardup,
        "ann_lsh": q_ann_lsh,
        "ann_ivf": q_ann_ivf,
        "ann_cosine": q_ann_cosine,
        "tile_assign": q_tile_assign,
        "cell_assign": q_cell_assign,
        # -- r4-checked block (most recently green, rides last)
        "raster_band_math": q_raster_band_math,
        "span_redact": q_span_redact,
        "normalize_text": q_normalize_text,
        "pack_sequences": q_pack_sequences,
        "raster_hillshade": q_raster_hillshade,
    }


def oracle_sql() -> dict[str, str]:
    from geotrellis_contrib_ray.pipelines.query_defs import (
        DIST_SAMPLE_LIMIT,
        DIST_THETA,
        KNN_K,
        PA_EXTENT,
        QUERY_GRID,
        QUERY_LAYOUT,
        WINDOW_SEC,
        convex_sql_predicate,
        geo_cte,
        knn_values_sql,
        zone_boxes_values_sql,
        ZONE_CONVEX,
    )

    tw = QUERY_LAYOUT.tile_width  # 0.0439453125 — exactly representable
    th = QUERY_LAYOUT.tile_height
    gx0, gy1 = QUERY_GRID.extent.xmin, QUERY_GRID.extent.ymax
    cw, ch = QUERY_GRID.cellwidth, QUERY_GRID.cellheight
    eps = 1e-9  # core.grid._EPS, mirrored into the SQL floor expressions

    # packed-cell arithmetic constants (core/cells.py pack_cell)
    P58, P29 = 1 << 58, 1 << 29
    convex_name = ZONE_CONVEX[0]

    sql = {}
    _ncols = int(round(360.0 / tw))
    _nrows = int(round(180.0 / th))
    # LEAST/GREATEST mirror the Ray side's np.clip (key_for_point): a point
    # exactly on the domain max edge belongs to the LAST tile, not tile N
    sql["tile_assign"] = f"""
WITH {geo_cte()}
SELECT doc_id,
       LEAST(GREATEST(CAST(floor((lon - (-180.0)) / {tw!r}) AS BIGINT), 0), {_ncols - 1}) AS tile_col,
       LEAST(GREATEST(CAST(floor((90.0 - lat) / {th!r}) AS BIGINT), 0), {_nrows - 1}) AS tile_row
FROM pts"""

    from geotrellis_contrib_ray.pipelines.query_defs import hilbert_sql_cte

    sql["hilbert_key"] = f"""
WITH {geo_cte()},
  {hilbert_sql_cte(16)}
SELECT doc_id, d AS hkey, (d >> 22) AS part FROM hfinal"""

    from geotrellis_contrib_ray.pipelines.query_defs import geohash_sql_cte

    sql["geohash_cells"] = f"""
WITH {geo_cte()},
  {geohash_sql_cte(8)}
SELECT doc_id, geohash, gh_code FROM gh"""

    sql["cell_assign"] = f"""
WITH {geo_cte()},
  xy AS (
    SELECT doc_id,
           LEAST(GREATEST(CAST(floor((lon + 180.0) / 360.0 * 8192.0) AS BIGINT), 0), 8191) AS x,
           LEAST(GREATEST(CAST(floor((lat + 90.0) / 180.0 * 4096.0) AS BIGINT), 0), 4095) AS y
    FROM pts
  )
SELECT doc_id,
       12 * {P58} + x * {P29} + y AS cell,
       8 * {P58} + CAST(floor(x / 16) AS BIGINT) * {P29} + CAST(floor(y / 16) AS BIGINT) AS parent_cell
FROM xy"""

    sql["pip_zones"] = f"""
WITH {geo_cte()}
SELECT doc_id, zone_name FROM pts
JOIN {zone_boxes_values_sql()}
  ON lon BETWEEN xmin AND xmax AND lat BETWEEN ymin AND ymax
UNION ALL
SELECT doc_id, '{convex_name}' AS zone_name FROM pts
WHERE {convex_sql_predicate('lon', 'lat')}"""

    sql["knn"] = f"""
WITH {geo_cte()},
  d AS (
    SELECT q.query_id, p.doc_id,
           sqrt((p.lon - q.qx) * (p.lon - q.qx) + (p.lat - q.qy) * (p.lat - q.qy)) AS dist
    FROM pts p CROSS JOIN {knn_values_sql()}
  )
SELECT query_id, doc_id, dist FROM (
  SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY dist, doc_id) AS rn FROM d
) WHERE rn <= {KNN_K}"""

    sql["distance_pairs"] = f"""
WITH {geo_cte()},
  s AS (SELECT * FROM pts WHERE doc_id < {DIST_SAMPLE_LIMIT})
SELECT a.doc_id AS id1, b.doc_id AS id2,
       sqrt((a.lon - b.lon) * (a.lon - b.lon) + (a.lat - b.lat) * (a.lat - b.lat)) AS dist
FROM s a JOIN s b ON a.doc_id < b.doc_id
WHERE sqrt((a.lon - b.lon) * (a.lon - b.lon) + (a.lat - b.lat) * (a.lat - b.lat)) < {DIST_THETA!r}"""

    sql["zonal_summary"] = f"""
WITH {geo_cte()},
  hits AS (
    SELECT doc_id, n_chars, zone_name FROM pts
    JOIN {zone_boxes_values_sql()}
      ON lon BETWEEN xmin AND xmax AND lat BETWEEN ymin AND ymax
    UNION ALL
    SELECT doc_id, n_chars, '{convex_name}' AS zone_name FROM pts
    WHERE {convex_sql_predicate('lon', 'lat')}
  )
SELECT zone_name, CAST(sum(n_chars) AS BIGINT) AS sum_chars, count(*) AS n_docs
FROM hits GROUP BY zone_name"""

    sql["rasterize"] = f"""
WITH {geo_cte()}
SELECT CAST(floor((lon - ({gx0!r})) / {cw!r} + {eps!r}) AS BIGINT) AS col,
       CAST(floor(({gy1!r} - lat) / {ch!r} + {eps!r}) AS BIGINT) AS row,
       count(*) AS n_points,
       CAST(sum(n_chars) AS BIGINT) AS sum_n_chars
FROM pts GROUP BY 1, 2"""

    sql["pyramid"] = f"""
WITH {geo_cte()},
  base AS (
    SELECT CAST(floor((lon - ({gx0!r})) / {cw!r} + {eps!r}) AS BIGINT) AS col,
           CAST(floor(({gy1!r} - lat) / {ch!r} + {eps!r}) AS BIGINT) AS row,
           count(*) AS n_points
    FROM pts GROUP BY 1, 2
  )
SELECT CAST(floor(col / 16) AS BIGINT) AS col,
       CAST(floor(row / 16) AS BIGINT) AS row,
       CAST(sum(n_points) AS BIGINT) AS n_points
FROM base GROUP BY 1, 2"""

    sql["raster_summary"] = f"""
WITH {geo_cte()}
SELECT min(lon) AS min_lon, max(lon) AS max_lon,
       min(lat) AS min_lat, max(lat) AS max_lat,
       count(*) AS n_docs
FROM pts"""

    sql["dedup_exact"] = """
SELECT text, min(doc_id) AS first_doc, count(*) AS n_copies
FROM documents GROUP BY text"""

    sql["token_stats"] = """
SELECT doc_id,
       CAST(length(text) - length(replace(text, ' ', '')) + 1 AS BIGINT) AS n_tokens,
       CAST(length(text) - (length(text) - length(replace(text, ' ', ''))) AS DOUBLE)
         / (length(text) - length(replace(text, ' ', '')) + 1) AS avg_token_len
FROM documents"""

    sql["lang_profile"] = """
SELECT lang,
       CAST(sum(length(text) - length(replace(text, ' ', '')) + 1) AS BIGINT) AS sum_tokens,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       count(*) AS n_docs
FROM documents GROUP BY lang"""

    sql["event_windows"] = f"""
SELECT event_type,
       CAST(floor(epoch(ts) / {WINDOW_SEC}) AS BIGINT) * {WINDOW_SEC} AS window_start,
       CAST(sum(CAST(floor(value * 100.0) AS BIGINT)) AS BIGINT) AS sum_cents,
       count(*) AS n_events
FROM events GROUP BY 1, 2"""

    from geotrellis_contrib_ray.pipelines.query_defs import VALUE_INTERVALS

    _ival_rows = ", ".join(
        f"({i}, {lo:.1f}, {hi:.1f})" for i, lo, hi in VALUE_INTERVALS
    )
    sql["interval_join"] = f"""
WITH intervals(interval_id, lo, hi) AS (VALUES {_ival_rows})
SELECT e.event_id, CAST(i.interval_id AS BIGINT) AS interval_id
FROM events e JOIN intervals i ON e.value >= i.lo AND e.value <= i.hi"""
    sql["interval_join_bucketed"] = sql["interval_join"]

    from geotrellis_contrib_ray.pipelines.query_defs import SLIDE_HOP_SEC, SLIDE_SIZE_SEC

    _k_hops = -(-SLIDE_SIZE_SEC // SLIDE_HOP_SEC)
    _hop_rows = ", ".join(f"(CAST({j} AS BIGINT))" for j in range(_k_hops))
    sql["sliding_windows"] = f"""
WITH expanded AS (
  SELECT event_type,
         (CAST(floor(epoch(ts) / {SLIDE_HOP_SEC}) AS BIGINT) - g.k) * {SLIDE_HOP_SEC} AS window_start,
         CAST(floor(epoch(ts)) AS BIGINT) AS s,
         CAST(floor(value * 100.0) AS BIGINT) AS cents
  FROM events CROSS JOIN (VALUES {_hop_rows}) AS g(k)
)
SELECT event_type, window_start,
       CAST(sum(cents) AS BIGINT) AS sum_cents,
       count(*) AS n_events
FROM expanded WHERE s < window_start + {SLIDE_SIZE_SEC}
GROUP BY event_type, window_start"""

    from geotrellis_contrib_ray.pipelines.query_defs import SESSION_GAP_SEC

    sql["sessionize"] = f"""
WITH e AS (
  SELECT user_id, CAST(floor(epoch(ts)) AS BIGINT) AS s FROM events
),
marked AS (
  SELECT user_id, s,
         CASE WHEN s - lag(s) OVER (PARTITION BY user_id ORDER BY s) > {SESSION_GAP_SEC}
              OR lag(s) OVER (PARTITION BY user_id ORDER BY s) IS NULL
              THEN 1 ELSE 0 END AS is_new
  FROM e
),
sessions AS (
  SELECT user_id, s,
         sum(is_new) OVER (PARTITION BY user_id ORDER BY s ROWS UNBOUNDED PRECEDING) AS sess
  FROM marked
)
SELECT user_id, min(s) AS session_start, count(*) AS n_events
FROM sessions GROUP BY user_id, sess"""

    from geotrellis_contrib_ray.pipelines.query_defs import (
        HIST_BIN_WIDTH,
        HIST_NBINS,
        WINDOW_GAP_NONE,
        WINDOW_NTILE_K,
        corr_sql_expr,
    )
    from geotrellis_contrib_ray.pipelines.query_defs import _dbl as _d

    sql["window_funcs"] = f"""
WITH e AS (
  SELECT event_id, user_id, epoch_us(ts) AS tus,
         CAST(floor(value * 100.0) AS BIGINT) AS cents
  FROM events
)
SELECT event_id, user_id,
       row_number() OVER w AS rn,
       rank() OVER (PARTITION BY user_id ORDER BY tus) AS rk,
       dense_rank() OVER (PARTITION BY user_id ORDER BY tus) AS dense_rk,
       COALESCE(tus - lag(tus) OVER w, {WINDOW_GAP_NONE}) AS gap_us,
       COALESCE(lead(tus) OVER w - tus, {WINDOW_GAP_NONE}) AS lead_gap_us,
       ntile({WINDOW_NTILE_K}) OVER w AS tile,
       count(*) OVER (PARTITION BY user_id) AS grp_n,
       CAST(sum(cents) OVER (PARTITION BY user_id ORDER BY tus, event_id
                             ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_cents,
       CASE WHEN count(*) OVER (PARTITION BY user_id) = 1 THEN CAST(0 AS DOUBLE)
            ELSE CAST(rank() OVER (PARTITION BY user_id ORDER BY tus) - 1 AS DOUBLE)
                 / CAST(count(*) OVER (PARTITION BY user_id) - 1 AS DOUBLE)
       END AS pct_rank,
       CAST(count(*) OVER (PARTITION BY user_id ORDER BY tus) AS DOUBLE)
           / CAST(count(*) OVER (PARTITION BY user_id) AS DOUBLE) AS cume_dist
FROM e
WINDOW w AS (PARTITION BY user_id ORDER BY tus, event_id)"""

    from geotrellis_contrib_ray.pipelines.query_defs import (
        FRAME_PRECEDING_ROWS,
        FUNNEL_STAGES,
    )

    sql["moving_stats"] = f"""
WITH e AS (
  SELECT event_id, user_id, epoch_us(ts) AS tus,
         CAST(floor(value * 100.0) AS BIGINT) AS cents
  FROM events
)
SELECT event_id, user_id,
       count(*) OVER w AS mv_n,
       CAST(sum(cents) OVER w AS BIGINT) AS mv_sum_cents,
       CAST(min(cents) OVER w AS BIGINT) AS mv_min_cents
FROM e
WINDOW w AS (PARTITION BY user_id ORDER BY tus, event_id
             ROWS BETWEEN {FRAME_PRECEDING_ROWS} PRECEDING AND CURRENT ROW)"""

    # staged funnel: stage i+1 must be strictly later than the user's first
    # qualifying stage-i event (same constants as the Ray stage)
    _fs = FUNNEL_STAGES
    _funnel_ctes = ["e AS (SELECT user_id, event_type, epoch_us(ts) AS tus FROM events)",
                    f"s1 AS (SELECT user_id, min(tus) AS t FROM e "
                    f"WHERE event_type = '{_fs[0]}' GROUP BY user_id)"]
    for i in range(1, len(_fs)):
        _funnel_ctes.append(
            f"s{i + 1} AS (SELECT e.user_id, min(e.tus) AS t FROM e "
            f"JOIN s{i} ON e.user_id = s{i}.user_id "
            f"WHERE e.event_type = '{_fs[i]}' AND e.tus > s{i}.t "
            f"GROUP BY e.user_id)")
    _funnel_selects = [
        f"SELECT CAST({i + 1} AS BIGINT) AS stage, '{name}' AS stage_name, "
        f"count(*) AS n_users FROM s{i + 1}"
        for i, name in enumerate(_fs)]
    sql["funnel_stages"] = ("WITH " + ",\n".join(_funnel_ctes) + "\n"
                            + "\nUNION ALL ".join(_funnel_selects))

    from geotrellis_contrib_ray.pipelines.query_defs import (
        COHORT_DAY_US,
        COHORT_SIGNUP_TYPE,
    )

    sql["cohort_retention"] = f"""
WITH e AS (
  SELECT user_id, event_type,
         epoch_us(ts) // {COHORT_DAY_US} AS day
  FROM events
),
c AS (
  SELECT user_id, min(day) AS cohort_day FROM e
  WHERE event_type = '{COHORT_SIGNUP_TYPE}' GROUP BY user_id
),
a AS (
  SELECT DISTINCT e.user_id, c.cohort_day, e.day - c.cohort_day AS day_offset
  FROM e JOIN c ON e.user_id = c.user_id WHERE e.day >= c.cohort_day
)
SELECT cohort_day, day_offset, count(*) AS n_users
FROM a GROUP BY cohort_day, day_offset"""

    from geotrellis_contrib_ray.pipelines.query_defs import OUTER_NONE

    sql["user_actions_outer"] = f"""
WITH p AS (
  SELECT user_id, count(*) AS np FROM events
  WHERE event_type = 'purchase' GROUP BY user_id
),
x AS (
  SELECT user_id, count(*) AS ne FROM events
  WHERE event_type = 'error' GROUP BY user_id
)
SELECT COALESCE(p.user_id, x.user_id) AS user_id,
       COALESCE(p.np, {OUTER_NONE}) AS n_purchase,
       COALESCE(x.ne, {OUTER_NONE}) AS n_error
FROM p FULL OUTER JOIN x ON p.user_id = x.user_id"""

    sql["user_paths"] = """
WITH e AS (
  SELECT user_id, event_type, epoch_us(ts) AS tus, event_id FROM events
)
SELECT user_id,
       string_agg(event_type, '->' ORDER BY tus, event_id) AS path,
       count(*) AS n_events
FROM e GROUP BY user_id"""

    from geotrellis_contrib_ray.pipelines.query_defs import CENTROID_QUANT_BITS

    _cq = float(1 << CENTROID_QUANT_BITS)
    sql["label_centroids"] = f"""
WITH u AS (
  SELECT label,
         unnest(generate_series(0, len(embedding) - 1)) AS dim,
         unnest(embedding) AS x
  FROM embeddings
),
s AS (
  SELECT label, CAST(dim AS BIGINT) AS dim,
         CAST(sum(CAST(floor(CAST(x AS DOUBLE) * {_d(_cq)}) AS BIGINT)) AS BIGINT) AS sum_q,
         count(*) AS n_vecs
  FROM u GROUP BY label, dim
)
SELECT *, (CAST(sum_q AS DOUBLE) / CAST(n_vecs AS DOUBLE)) AS mean_q FROM s"""

    sql["mode_chars"] = """
WITH c AS (
  SELECT lang, n_chars, count(*) AS cnt FROM documents GROUP BY lang, n_chars
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY lang ORDER BY cnt DESC, n_chars) AS rnum
  FROM c
)
SELECT lang, CAST(cnt AS BIGINT) AS cnt, n_chars FROM r WHERE rnum = 1"""

    sql["price_histogram"] = f"""
SELECT LEAST(CAST(floor(o_totalprice / {_d(HIST_BIN_WIDTH)}) AS BIGINT),
             {HIST_NBINS - 1}) AS bin,
       CAST(sum(CAST(floor(o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS sum_cents,
       count(*) AS n_rows
FROM orders GROUP BY bin"""

    sql["corr_stats"] = f"""
WITH m AS (
  SELECT l_returnflag,
         CAST(floor(l_extendedprice) AS BIGINT) AS x,
         CAST(floor(l_discount * 100.0) AS BIGINT) AS y
  FROM lineitem
),
s AS (
  SELECT l_returnflag, count(*) AS n_rows,
         CAST(sum(x) AS BIGINT) AS sum_x, CAST(sum(y) AS BIGINT) AS sum_y,
         CAST(sum(x * x) AS BIGINT) AS sum_xx,
         CAST(sum(x * y) AS BIGINT) AS sum_xy,
         CAST(sum(y * y) AS BIGINT) AS sum_yy
  FROM m GROUP BY l_returnflag
)
SELECT *, {corr_sql_expr()} AS corr_r FROM s"""

    sql["lineitem_pricing"] = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(floor(l_quantity * 100.0) AS BIGINT)) AS BIGINT) AS sum_qty_cents,
       CAST(sum(CAST(floor(l_extendedprice * 100.0) AS BIGINT)) AS BIGINT) AS sum_price_cents,
       count(*) AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus"""

    sql["orders_by_segment"] = """
SELECT c_mktsegment,
       CAST(sum(CAST(floor(o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS sum_total_cents,
       count(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment"""

    sql["asof_join"] = """
WITH p AS (
  SELECT user_id, CAST(floor(epoch(ts)) AS BIGINT) AS purchase_ts
  FROM events WHERE event_type = 'purchase'
),
s AS (
  SELECT user_id, CAST(floor(epoch(ts)) AS BIGINT) AS signup_ts
  FROM events WHERE event_type = 'signup'
)
SELECT p.user_id, p.purchase_ts, s.signup_ts
FROM p ASOF JOIN s ON p.user_id = s.user_id AND p.purchase_ts >= s.signup_ts"""

    sql["order_lineitem_join"] = """
SELECT o_orderpriority,
       CAST(sum(CAST(floor(l_extendedprice * 100.0) AS BIGINT)) AS BIGINT) AS sum_price_cents,
       count(*) AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority"""

    # skew_join: the skew-aware salted tier must produce the identical
    # multiset — same twin (the dual-plan precedent of knn_indexed/rtree)
    sql["skew_join"] = sql["order_lineitem_join"]

    # quantile_price: quantile_disc replay — selected values are exact input
    # members, so the float column hash-matches
    from geotrellis_contrib_ray.pipelines.query_defs import PRICE_QS

    _pq_rows = " UNION ALL ".join(
        f"SELECT CAST({q!r} AS DOUBLE) AS q, "
        f"quantile_disc(l_extendedprice, {q!r}) AS value FROM lineitem"
        for q in PRICE_QS)
    sql["quantile_price"] = f"SELECT q, value FROM ({_pq_rows}) ORDER BY q"

    # quantile_price_cont: percentile_cont replayed as order statistics +
    # the IDENTICAL interpolation expression (lo + (hi-lo)*frac) — the
    # builtin quantile_cont may associate the formula differently
    _pc_rows = " UNION ALL ".join(
        f"""SELECT CAST({q!r} AS DOUBLE) AS q,
       (SELECT v FROM os WHERE r = CAST(floor(CAST({q!r} AS DOUBLE) * (c.n - 1)) AS BIGINT) + 1)
       + ((SELECT v FROM os WHERE r = least(CAST(floor(CAST({q!r} AS DOUBLE) * (c.n - 1)) AS BIGINT) + 2, c.n))
          - (SELECT v FROM os WHERE r = CAST(floor(CAST({q!r} AS DOUBLE) * (c.n - 1)) AS BIGINT) + 1))
         * (CAST({q!r} AS DOUBLE) * (c.n - 1) - floor(CAST({q!r} AS DOUBLE) * (c.n - 1))) AS value
FROM c"""
        for q in PRICE_QS)
    sql["quantile_price_cont"] = f"""
WITH s AS (SELECT l_extendedprice AS v FROM lineitem),
c AS (SELECT count(*) AS n FROM s),
os AS (SELECT v, row_number() OVER (ORDER BY v) AS r FROM s)
SELECT q, value FROM ({_pc_rows}) ORDER BY q"""

    # orders_no_lineitem: NOT EXISTS anti-join rollup
    sql["orders_no_lineitem"] = """
SELECT o_orderpriority, count(*) AS n_orders
FROM orders o
WHERE NOT EXISTS (SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)
GROUP BY o_orderpriority"""

    # customer_order_totals: 3-way chain join rollup (integer cents)
    sql["customer_order_totals"] = """
SELECT c_mktsegment,
       CAST(sum(CAST(floor(l_extendedprice * 100.0) AS BIGINT)) AS BIGINT) AS sum_price_cents,
       count(*) AS n_items
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment"""

    # rollup_lang_source: GROUPING SETS with the sentinel coalesce
    sql["rollup_lang_source"] = """
SELECT coalesce(lang, '__all__') AS lang,
       coalesce(source, '__all__') AS source,
       count(*) AS n,
       CAST(sum(n_chars) AS BIGINT) AS sum_n_chars
FROM documents
GROUP BY GROUPING SETS ((lang, source), (lang), ())"""

    sql["cube_lang_source"] = """
SELECT coalesce(lang, '__all__') AS lang,
       coalesce(source, '__all__') AS source,
       count(*) AS n,
       CAST(sum(n_chars) AS BIGINT) AS sum_n_chars
FROM documents
GROUP BY CUBE (lang, source)"""

    sql["jsonl_roundtrip"] = """
SELECT lang, source, count(*) AS n,
       CAST(sum(n_chars) AS BIGINT) AS sum_n_chars,
       CAST(sum(length(text)) AS BIGINT) AS sum_text_chars
FROM documents GROUP BY lang, source"""

    sql["csv_roundtrip"] = """
SELECT lang, source, count(*) AS n,
       CAST(sum(n_chars) AS BIGINT) AS sum_n_chars,
       CAST(sum(length(coalesce(text, ''))) AS BIGINT) AS sum_text_chars
FROM documents GROUP BY lang, source"""

    # quantile_chars_cont: per-lang percentile_cont replayed as the shared
    # interpolation expression over per-group order statistics (values cast
    # to DOUBLE first, exactly as the Ray stage does)
    from geotrellis_contrib_ray.pipelines.query_defs import CHARS_CONT_QS

    _gpc_rows = " UNION ALL ".join(
        f"""SELECT k.lang, CAST({q!r} AS DOUBLE) AS q,
       lo.v + (hi.v - lo.v) * (CAST({q!r} AS DOUBLE) * (k.n - 1)
                               - floor(CAST({q!r} AS DOUBLE) * (k.n - 1))) AS value
FROM params k
JOIN os lo ON lo.lang = k.lang
          AND lo.r = CAST(floor(CAST({q!r} AS DOUBLE) * (k.n - 1)) AS BIGINT) + 1
JOIN os hi ON hi.lang = k.lang
          AND hi.r = least(CAST(floor(CAST({q!r} AS DOUBLE) * (k.n - 1)) AS BIGINT) + 2, k.n)"""
        for q in CHARS_CONT_QS)
    sql["quantile_chars_cont"] = f"""
WITH s AS (SELECT lang, CAST(n_chars AS DOUBLE) AS v FROM documents),
os AS (SELECT lang, v, row_number() OVER (PARTITION BY lang ORDER BY v) AS r FROM s),
params AS (SELECT lang, count(*) AS n FROM s GROUP BY lang)
SELECT lang, q, value FROM ({_gpc_rows})"""

    sql["user_first_last"] = """
WITH e AS (
  SELECT user_id, event_type, epoch_us(ts) AS tus, event_id FROM events
)
SELECT DISTINCT user_id,
       first_value(event_type) OVER w AS first_type,
       last_value(event_type) OVER (PARTITION BY user_id ORDER BY tus, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS last_type,
       count(*) OVER (PARTITION BY user_id) AS n_events
FROM e
WINDOW w AS (PARTITION BY user_id ORDER BY tus, event_id)"""

    # normalize_text: lower + RE2 whitespace collapse + trim, exact strings
    sql["normalize_text"] = r"""
SELECT doc_id,
       trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS norm_text,
       CAST(len(regexp_extract_all(lower(text), '\s+')) AS BIGINT) AS n_collapsed
FROM documents"""

    sql["knn_indexed"] = sql["knn"]
    sql["pip_zones_indexed"] = sql["pip_zones"]
    sql["knn_rtree"] = sql["knn"]
    sql["pip_zones_rtree"] = sql["pip_zones"]

    from geotrellis_contrib_ray.pipelines.query_defs import (
        BOX_JOIN_CELL as _BJC,
        BOX_JOIN_LEFT_LIMIT as _BJL,
        BOX_JOIN_LEFT_R as _BJLR,
        BOX_JOIN_RIGHT_LIMIT as _BJR,
        BOX_JOIN_RIGHT_R as _BJRR,
    )

    _ = _BJC  # cell width is a Ray-side partitioning knob only
    sql["box_join"] = f"""
WITH {geo_cte()},
  lb AS (
    SELECT doc_id AS id, lon - {_BJLR} AS x0, lat - {_BJLR} AS y0,
           lon + {_BJLR} AS x1, lat + {_BJLR} AS y1
    FROM pts WHERE doc_id < {_BJL}
  ),
  rb AS (
    SELECT doc_id AS id, lon - {_BJRR} AS x0, lat - {_BJRR} AS y0,
           lon + {_BJRR} AS x1, lat + {_BJRR} AS y1
    FROM pts WHERE doc_id >= {_BJL} AND doc_id < {_BJR}
  )
SELECT lb.id AS left_id, rb.id AS right_id
FROM lb JOIN rb
  ON lb.x0 <= rb.x1 AND lb.x1 >= rb.x0 AND lb.y0 <= rb.y1 AND lb.y1 >= rb.y0"""

    from geotrellis_contrib_ray.pipelines.query_defs import KNN_MANY_Q

    sql["knn_many"] = f"""
WITH {geo_cte()},
  q AS (
    SELECT i AS query_id,
           -80.3 + ((i * 997 + 17) % 5200) * 1e-3 AS qx,
           39.72 + ((i * 613 + 29) % 2350) * 1e-3 AS qy
    FROM generate_series(0, {KNN_MANY_Q - 1}) AS t(i)
  ),
  d AS (
    SELECT q.query_id, p.doc_id,
           sqrt((p.lon - q.qx) * (p.lon - q.qx) + (p.lat - q.qy) * (p.lat - q.qy)) AS dist
    FROM pts p CROSS JOIN q
  )
SELECT query_id, doc_id, dist FROM (
  SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY dist, doc_id) AS rn FROM d
) WHERE rn <= {KNN_K}"""

    sql["zone_anti_join"] = f"""
WITH {geo_cte()}
SELECT doc_id FROM pts p
WHERE NOT EXISTS (
    SELECT 1 FROM {zone_boxes_values_sql()}
    WHERE p.lon BETWEEN xmin AND xmax AND p.lat BETWEEN ymin AND ymax
) AND NOT ({convex_sql_predicate('p.lon', 'p.lat')})"""

    sql["top_chars"] = """
SELECT doc_id, n_chars FROM documents
ORDER BY n_chars DESC, doc_id LIMIT 10"""

    sql["distinct_lang_source"] = """
SELECT DISTINCT lang, source FROM documents"""

    from geotrellis_contrib_ray.pipelines.query_defs import STRIDE_LIMIT, STRIDE_N

    # KEY-stride, identical to the Ray plan (row_number % N would agree
    # only while doc_id is dense and 0-based)
    sql["stride_sample"] = f"""
SELECT doc_id FROM documents WHERE doc_id % {STRIDE_N} = 0
ORDER BY doc_id LIMIT {STRIDE_LIMIT}"""

    # --- raster family: DuckDB reproduces the synthetic pixel formula with
    # generate_series CTEs and compares per-tile integer checksums ----------
    from geotrellis_contrib_ray.pipelines.query_defs import (
        RASTER_COLS,
        RASTER_ROWS,
        RASTER_TILE,
        mosaic_cells_cte,
        raster_cells_cte,
    )

    T = RASTER_TILE
    _tile_rollup = f"""
  g AS (
    SELECT CAST(floor(col / {T}) AS BIGINT) AS tile_col,
           CAST(floor(row / {T}) AS BIGINT) AS tile_row,
           CAST(sum({{vexpr}}) AS BIGINT) AS pixel_sum,
           count(*) AS n_valid
    FROM cells GROUP BY 1, 2
  )
SELECT tile_col, tile_row,
       CAST(least({T}, {RASTER_COLS} - tile_col * {T}) AS BIGINT) AS cols,
       CAST(least({T}, {RASTER_ROWS} - tile_row * {T}) AS BIGINT) AS rows,
       pixel_sum, n_valid
FROM g"""

    sql["raster_tile_read"] = f"""
WITH {raster_cells_cte()},
{_tile_rollup.format(vexpr="v")}"""

    sql["raster_convert"] = f"""
WITH {raster_cells_cte()},
{_tile_rollup.format(vexpr="v % 256")}"""

    # raster_band_math (F11 oracle): quantized normalized band difference —
    # both engines evaluate floor((SCALE * (v1 - v0)) / max(v1 + v0, 1)) in
    # the identical double expression (exact int operands, one division)
    from geotrellis_contrib_ray.pipelines.query_defs import NDVI_Q_SCALE

    _ndvi = (f"CAST(floor((CAST({NDVI_Q_SCALE} AS DOUBLE) * (v1 - v0)) / "
             f"greatest(v1 + v0, 1)) AS BIGINT)")
    sql["raster_band_math"] = f"""
WITH cells AS (
    SELECT r.r AS row, c.c AS col,
           (r.r * {RASTER_COLS} + c.c) % 32768 AS v0,
           (r.r * {RASTER_COLS} + c.c + 1) % 32768 AS v1
    FROM generate_series(0, {RASTER_ROWS - 1}) AS r(r)
    CROSS JOIN generate_series(0, {RASTER_COLS - 1}) AS c(c)
  ),
{_tile_rollup.format(vexpr=_ndvi)}"""

    _ncols_layout = -(-RASTER_COLS // T)
    sql["raster_stride_windows"] = f"""
WITH {raster_cells_cte()},
{_tile_rollup.format(vexpr="v")}
WHERE (tile_row * {_ncols_layout} + tile_col) % 5 = 0"""

    sql["raster_mosaic"] = f"""
WITH {mosaic_cells_cte()}
SELECT CAST(floor(col / {T}) AS BIGINT) AS tile_col,
       CAST(floor(row / {T}) AS BIGINT) AS tile_row,
       CAST(sum(v) AS BIGINT) AS pixel_sum,
       count(*) AS n_valid
FROM cells GROUP BY 1, 2"""

    # focal sum: each cell's value is the sum of its IN-BOUNDS 3x3
    # neighborhood, written as 9 guarded formula terms (no self-join)
    _focal_v = " + ".join(
        f"CASE WHEN col+({dc}) BETWEEN 0 AND {RASTER_COLS - 1}"
        f" AND row+({dr}) BETWEEN 0 AND {RASTER_ROWS - 1}"
        f" THEN ((row+({dr})) * {RASTER_COLS} + (col+({dc}))) % 32768"
        f" ELSE 0 END"
        for dc in (-1, 0, 1) for dr in (-1, 0, 1)
    )
    sql["raster_focal"] = f"""
WITH {raster_cells_cte()},
{_tile_rollup.format(vexpr=f"({_focal_v})")}"""

    # Horn dz/dx numerator: cross-difference weights +-1/+-2, out-of-bounds
    # neighbors contribute 0 (same convention as the Ray stencil)
    _grad_terms = []
    for dc in (-1, 0, 1):
        for dr in (-1, 0, 1):
            w = dc * (2 if dr == 0 else 1)
            if w == 0:
                continue
            _grad_terms.append(
                f"CASE WHEN col+({dc}) BETWEEN 0 AND {RASTER_COLS - 1}"
                f" AND row+({dr}) BETWEEN 0 AND {RASTER_ROWS - 1}"
                f" THEN ({w}) * (((row+({dr})) * {RASTER_COLS} + (col+({dc}))) % 32768)"
                f" ELSE 0 END"
            )
    sql["raster_gradient"] = f"""
WITH {raster_cells_cte()},
{_tile_rollup.format(vexpr='(' + ' + '.join(_grad_terms) + ')')}"""

    # hillshade: same guarded Horn numerators for BOTH axes, then the GDAL
    # az=315/alt=45 shading; trig is safe here (see q_raster_hillshade)
    def _horn_terms(xaxis: bool) -> str:
        terms = []
        for dc in (-1, 0, 1):
            for dr in (-1, 0, 1):
                w = dc * (2 if dr == 0 else 1) if xaxis else dr * (2 if dc == 0 else 1)
                if w == 0:
                    continue
                terms.append(
                    f"CASE WHEN col+({dc}) BETWEEN 0 AND {RASTER_COLS - 1}"
                    f" AND row+({dr}) BETWEEN 0 AND {RASTER_ROWS - 1}"
                    f" THEN ({w}) * (((row+({dr})) * {RASTER_COLS} + (col+({dc}))) % 32768)"
                    f" ELSE 0 END"
                )
        return " + ".join(terms)

    sql["raster_hillshade"] = f"""
WITH {raster_cells_cte()},
  grads AS (
    SELECT row, col,
           ({_horn_terms(True)}) / 80.0 AS gx,
           ({_horn_terms(False)}) / 80.0 AS gy
    FROM cells
  ),
  hs AS (
    SELECT row, col,
           round(255.0 * least(greatest(
             sin(radians(45.0)) * cos(atan(sqrt(gx*gx + gy*gy)))
             + cos(radians(45.0)) * sin(atan(sqrt(gx*gx + gy*gy)))
               * cos(radians(315.0) - pi()/2.0 - atan2(gy, -gx)), 0.0), 1.0)) AS v
    FROM grads
  ),
  g AS (
    SELECT CAST(floor(col / {T}) AS BIGINT) AS tile_col,
           CAST(floor(row / {T}) AS BIGINT) AS tile_row,
           CAST(sum(v) AS BIGINT) AS pixel_sum,
           count(*) AS n_valid
    FROM hs GROUP BY 1, 2
  )
SELECT tile_col, tile_row,
       CAST(least({T}, {RASTER_COLS} - tile_col * {T}) AS BIGINT) AS cols,
       CAST(least({T}, {RASTER_ROWS} - tile_row * {T}) AS BIGINT) AS rows,
       pixel_sum, n_valid
FROM g"""

    sql["raster_pyramid"] = f"""
WITH {raster_cells_cte()}
SELECT CAST(floor(col / {2 * T}) AS BIGINT) AS tile_col,
       CAST(floor(row / {2 * T}) AS BIGINT) AS tile_row,
       CAST(sum(v) AS BIGINT) AS pixel_sum,
       count(*) AS n_valid
FROM cells WHERE row % 2 = 0 AND col % 2 = 0 GROUP BY 1, 2"""

    # --- training-data assembly ---------------------------------------------
    from geotrellis_contrib_ray.stages.pack import SPLIT_A, SPLIT_MOD, SPLIT_P

    sql["pack_sequences"] = """
WITH t AS (
  SELECT doc_id,
         CAST(length(text) - length(replace(text, ' ', '')) + 1 AS BIGINT) AS n_tokens
  FROM documents
)
SELECT doc_id, n_tokens,
       CAST(floor(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) / 512) AS BIGINT) AS seq_id
FROM t"""

    from geotrellis_contrib_ray.pipelines.query_defs import (
        SPLIT_TEST_BELOW, SPLIT_VAL_BELOW)

    sql["train_split"] = f"""
SELECT CASE WHEN ((doc_id % {SPLIT_P}) * {SPLIT_A}) % {SPLIT_MOD} < {SPLIT_TEST_BELOW} THEN 'test'
            WHEN ((doc_id % {SPLIT_P}) * {SPLIT_A}) % {SPLIT_MOD} < {SPLIT_VAL_BELOW} THEN 'val'
            ELSE 'train' END AS split,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       count(*) AS n_docs
FROM documents GROUP BY 1"""

    from geotrellis_contrib_ray.stages.pack import CHUNK_SIZE, CHUNK_STRIDE

    # constant-bound series (this DuckDB rejects lateral column params to
    # generate_series); the join predicate prunes to (len-1)//stride per doc
    from geotrellis_contrib_ray.pipelines.query_defs import CHUNK_SQL_SERIES

    sql["chunk_docs"] = f"""
WITH nums AS (SELECT CAST(i AS INTEGER) AS i FROM generate_series(0, {CHUNK_SQL_SERIES}) t(i))
SELECT doc_id,
       CAST(n.i AS BIGINT) AS chunk_id,
       CAST(length(substr(text, 1 + n.i * {CHUNK_STRIDE}, {CHUNK_SIZE})) AS BIGINT) AS chunk_len,
       substr(text, 1 + n.i * {CHUNK_STRIDE}, {CHUNK_SIZE}) AS chunk_text
FROM documents d JOIN nums n ON n.i <= (length(d.text) - 1) // {CHUNK_STRIDE}
WHERE length(d.text) > 0"""

    from geotrellis_contrib_ray.stages.pack import EPOCH_C, SHUF_A, SHUF_M

    sql["shuffle_head"] = f"""
SELECT doc_id, (((doc_id + 1 * {EPOCH_C}) % {SPLIT_P}) * {SHUF_A}) % {SHUF_M} AS shuffle_key
FROM documents
ORDER BY shuffle_key, doc_id
LIMIT 64"""

    # the doc list is LEFT-JOINED back so a null-text document still yields
    # an (n_tokens=0, n_hits=0) row, matching the Ray side — unnest over a
    # NULL split produces no rows, so a plain GROUP BY would drop such docs
    # (ADVICE r2).  Empty-STRING texts tokenize to [''] on both engines.
    sql["vocab_coverage"] = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
),
vocab AS (
  SELECT tok FROM (
    SELECT tok, count(*) AS c FROM toks GROUP BY tok
    ORDER BY c DESC, tok LIMIT 32
  )
),
agg AS (
  SELECT doc_id,
         count(*) AS n_tokens,
         count(*) FILTER (WHERE tok IN (SELECT tok FROM vocab)) AS n_hits
  FROM toks GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(coalesce(a.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(a.n_hits, 0) AS BIGINT) AS n_hits
FROM documents d LEFT JOIN agg a USING (doc_id)"""

    from geotrellis_contrib_ray.stages.text import REDACT_PATTERN, REDACT_TOKEN

    # RE2 on both sides: Arrow's replace_substring_regex and DuckDB's
    # regexp_replace share the dialect, so full redacted TEXT crosses the
    # value-hash compare, not just counts.
    sql["redact"] = f"""
SELECT doc_id,
       len(regexp_extract_all(text, '{REDACT_PATTERN}')) AS n_hits,
       regexp_replace(text, '{REDACT_PATTERN}', '{REDACT_TOKEN}', 'g') AS redacted
FROM documents"""

    # contamination: distinct byte-8-gram membership — the Ray side compares
    # 64-bit rolling hashes, the SQL side the substrings themselves; on the
    # ASCII corpus the two domains are identical (collision odds ~2^-64).
    sql["contamination"] = """
WITH nums AS (  -- constant bound >= max doc length (generate_series takes
                -- constants only; the join predicate prunes per doc)
  SELECT CAST(i AS INTEGER) AS i FROM generate_series(1, 4096) t(i)
),
bench AS (
  SELECT DISTINCT substr(d.text, n.i, 8) AS g
  FROM documents d JOIN nums n ON n.i <= len(d.text) - 7
  WHERE d.doc_id < 50
),
cg AS (
  SELECT DISTINCT d.doc_id, substr(d.text, n.i, 8) AS g
  FROM documents d JOIN nums n ON n.i <= len(d.text) - 7
  WHERE d.doc_id >= 50
)
SELECT doc_id,
       count(*) AS n_grams,
       count(*) FILTER (WHERE g IN (SELECT g FROM bench)) AS n_hits
FROM cg GROUP BY doc_id"""

    from geotrellis_contrib_ray.stages.pack import SAMPLE_HASH_M

    sql["stratified_sample"] = f"""
WITH h AS (
  SELECT lang, ((doc_id % {SPLIT_P}) * {SPLIT_A}) % {SAMPLE_HASH_M} AS hkey, doc_id
  FROM documents
)
SELECT lang, hkey, doc_id FROM (
  SELECT lang, hkey, doc_id,
         row_number() OVER (PARTITION BY lang ORDER BY hkey, doc_id) AS rn
  FROM h
) WHERE rn <= 20"""

    # --- multimodal: decoded dims / frame counts vs the generator formulas --
    sql["media_image_decode"] = """
SELECT 'img' || lpad(CAST(i AS VARCHAR), 3, '0') AS media_ref,
       CAST(16 + (i * 7) % 19 AS INTEGER) AS width,
       CAST(16 + i % 17 AS INTEGER) AS height
FROM generate_series(0, 63) AS t(i)"""

    qparts = "\nUNION ALL\n".join(
        f"SELECT lang, {q} AS q, quantile_disc(n_chars, {q}) AS value FROM documents GROUP BY lang"
        for q in (0.25, 0.5, 0.75, 0.9)
    )
    sql["quantile_chars"] = qparts

    sql["quantile_filter"] = """
WITH m AS (SELECT quantile_disc(n_chars, 0.5) AS cutoff FROM documents)
SELECT lang,
       count(*) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       CAST(max(m.cutoff) AS BIGINT) AS cutoff
FROM documents, m WHERE n_chars > m.cutoff GROUP BY lang"""

    sql["top_docs_per_lang"] = """
SELECT lang, n_chars, doc_id FROM (
  SELECT lang, n_chars, doc_id,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents
) WHERE rn <= 5"""

    sql["media_video_frames"] = """
SELECT 'vid' || lpad(CAST(i AS VARCHAR), 3, '0') AS media_ref,
       CAST(4 + i % 7 AS INTEGER) AS n_frames,
       CAST((4 + i % 7 + 1) // 2 AS INTEGER) AS n_sampled,
       CAST(16 + (i * 3) % 7 AS INTEGER) AS width,
       CAST(16 + i % 5 AS INTEGER) AS height,
       CAST(5 + i % 10 AS DOUBLE) AS fps
FROM generate_series(0, 23) AS t(i)"""

    sql["media_audio_frames"] = """
SELECT 'aud' || lpad(CAST(i AS VARCHAR), 3, '0') AS media_ref,
       CAST(floor((1000 + 37 * i) / 256) AS INTEGER) AS n_frames
FROM generate_series(0, 31) AS t(i)"""

    sql["media_image_checksum"] = """
WITH f AS (
  SELECT CAST(i AS BIGINT) AS i,
         CAST(16 + (i % 17) AS BIGINT) AS h,
         CAST(16 + ((i * 7) % 19) AS BIGINT) AS w
  FROM generate_series(0, 47) t(i)
),
nums AS (SELECT CAST(i AS BIGINT) AS k FROM generate_series(0, 40) t(i)),
s AS (
  SELECT f.i, f.h, f.w, 3 * ((r.k * f.w + c.k) % 256) AS v
  FROM f JOIN nums r ON r.k < f.h JOIN nums c ON c.k < f.w
)
SELECT 'img' || lpad(CAST(i AS VARCHAR), 3, '0') AS media_ref,
       CAST(max(w) AS INTEGER) AS width,
       CAST(max(h) AS INTEGER) AS height,
       CAST(sum(v) AS BIGINT) AS pixel_sum
FROM s GROUP BY 1"""

    # audio_energy: the WAV payloads carry integer pseudo-noise samples;
    # after the real encode/decode round-trip the Ray side sums squares of
    # the raw int16 PCM — the oracle replays the generator formula directly
    sql["audio_energy"] = """
WITH f AS (
  SELECT CAST(i AS BIGINT) AS i, CAST(1000 + 37 * i AS BIGINT) AS n
  FROM generate_series(0, 31) g(i)
),
nums AS (SELECT CAST(t AS BIGINT) AS t FROM generate_series(0, 2146) g(t)),
s AS (
  SELECT f.i, ((nums.t * (f.i + 3) * 2654435761) % 65536) - 32768 AS v
  FROM f JOIN nums ON nums.t < f.n
)
SELECT 'aud' || lpad(CAST(i AS VARCHAR), 3, '0') AS media_ref,
       count(*) AS n_samples,
       CAST(sum(v * v) AS BIGINT) AS sum_sq,
       CAST(max(abs(v)) AS BIGINT) AS peak
FROM s GROUP BY 1"""

    # --- integer-projected oracles for the float/regex families ------------
    # quality_counts: the scorer's integer building blocks; regex + stoplist
    # shared via query_defs (Python re and RE2 agree on this syntax subset).
    from geotrellis_contrib_ray.pipelines.query_defs import (
        ANN_K,
        ANN_QUERY_IDS,
        BPE_REGEX,
        STOP_WORDS,
        WORD_REGEX,
    )

    def _sq(s: str) -> str:  # SQL single-quote literal escape
        return s.replace("'", "''")

    stop_list = ", ".join(f"'{w}'" for w in STOP_WORDS)
    # COALESCE: a NULL text yields NULL from len(regexp_extract_all(...)),
    # while the Ray scorer fills null counts to 0 — both engines say 0
    sql["quality_counts"] = f"""
SELECT doc_id,
       coalesce(len(regexp_extract_all(text, '{_sq(WORD_REGEX)}')), 0) AS n_words,
       coalesce(len(list_filter(regexp_extract_all(text, '{_sq(WORD_REGEX)}'),
                       w -> w IN ({stop_list}))), 0) AS n_stop_words,
       coalesce(len(regexp_extract_all(text, '[A-Za-z]')), 0) AS n_alpha_chars,
       coalesce(len(regexp_extract_all(text, '{_sq(BPE_REGEX)}')), 0) AS n_bpe_tokens
FROM documents"""

    # quality_scores: the float ratios themselves hash-match because every
    # one is a single int/int IEEE division (order-free, unlike summation)
    # and the blend is the identical expression 0.5*x + 0.5*y on both
    # engines — no accumulation anywhere.
    sql["quality_scores"] = f"""
WITH c AS (
  SELECT doc_id,
         coalesce(len(regexp_extract_all(text, '{_sq(WORD_REGEX)}')), 0) AS nw,
         coalesce(len(list_filter(regexp_extract_all(text, '{_sq(WORD_REGEX)}'),
                         w -> w IN ({stop_list}))), 0) AS nst,
         coalesce(len(regexp_extract_all(text, '[A-Za-z]')), 0) AS na,
         coalesce(length(text), 0) AS nc,
         coalesce(len(regexp_extract_all(text, '{_sq(BPE_REGEX)}')), 0) AS nb
  FROM documents
)
SELECT doc_id,
       CASE WHEN nw > 0 THEN CAST(nst AS DOUBLE) / nw ELSE 0.0 END AS stop_ratio,
       CASE WHEN nc > 0 THEN CAST(na AS DOUBLE) / nc ELSE 0.0 END AS alpha_ratio,
       0.5 * (CASE WHEN nw > 0 THEN CAST(nst AS DOUBLE) / nw ELSE 0.0 END)
     + 0.5 * (CASE WHEN nc > 0 THEN CAST(na AS DOUBLE) / nc ELSE 0.0 END) AS quality,
       nb AS n_bpe_tokens
FROM c"""

    # corpus_clean: the end-to-end cleaning composition — quality gate,
    # GROUP-BY-text keep-first dedup, window-cumsum sequence packing,
    # per-sequence rollup.  All integer math; composes the individual twins.
    sql["corpus_clean"] = f"""
WITH q AS (
  SELECT doc_id, text,
         coalesce(len(regexp_extract_all(text, '[A-Za-z]')), 0) AS na,
         coalesce(length(text), 0) AS nc,
         -- NULL text counts like '' (1 token): matches pack.add_token_count's
         -- fill_null so the gate keeps null-text rows CONSISTENTLY (ADVICE r3)
         coalesce(length(text) - length(replace(text, ' ', '')) + 1, 1) AS ntok
  FROM documents
),
kept AS (SELECT * FROM q WHERE na * 2 >= nc AND text IS NOT NULL),
ded AS (
  SELECT min(doc_id) AS doc_id, min(ntok) AS n_tokens
  FROM kept GROUP BY text
),
seqs AS (
  SELECT doc_id, n_tokens,
         coalesce(sum(n_tokens) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS presum
  FROM ded
)
SELECT CAST(presum // 1000 AS BIGINT) AS seq_id,
       CAST(sum(n_tokens) AS BIGINT) AS sum_tokens,
       count(*) AS n_docs
FROM seqs GROUP BY 1"""

    # paragraph_dedup: CCNet-style chunk dedup replayed exactly — chunk
    # segmentation via token ordinals, first-owner by the SAME packed
    # doc*2^PARA_IDX_BITS + idx key, ordered string_agg reassembly.  All
    # integer/string math, so clean_text itself hash-matches.
    from geotrellis_contrib_ray.pipelines.query_defs import PARA_IDX_BITS, PARA_K

    _pbig = 1 << PARA_IDX_BITS
    sql["paragraph_dedup"] = f"""
WITH tk AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS ti
  FROM documents WHERE text IS NOT NULL
),
chunks AS (
  SELECT doc_id, (ti - 1) // {PARA_K} AS chunk_idx,
         string_agg(tok, ' ' ORDER BY ti) AS chunk
  FROM tk GROUP BY doc_id, (ti - 1) // {PARA_K}
),
tot AS (SELECT doc_id, count(*) AS n_total FROM chunks GROUP BY doc_id),
owner AS (SELECT chunk, min(doc_id * {_pbig} + chunk_idx) AS own
          FROM chunks GROUP BY chunk),
kept AS (
  SELECT c.doc_id, c.chunk_idx, c.chunk
  FROM chunks c JOIN owner o ON o.chunk = c.chunk
  WHERE o.own = c.doc_id * {_pbig} + c.chunk_idx
)
SELECT k.doc_id, string_agg(k.chunk, ' ' ORDER BY k.chunk_idx) AS clean_text,
       CAST(count(*) AS BIGINT) AS n_kept, CAST(t.n_total AS BIGINT) AS n_total
FROM kept k JOIN tot t ON t.doc_id = k.doc_id
GROUP BY k.doc_id, t.n_total"""

    # paragraph_dup_ratio: the same chunk CTEs; per-doc duplicated-chunk
    # counts + one exact int/int double division
    sql["paragraph_dup_ratio"] = f"""
WITH tk AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS ti
  FROM documents WHERE text IS NOT NULL
),
chunks AS (
  SELECT doc_id, (ti - 1) // {PARA_K} AS chunk_idx,
         string_agg(tok, ' ' ORDER BY ti) AS chunk
  FROM tk GROUP BY doc_id, (ti - 1) // {PARA_K}
),
owner AS (SELECT chunk, min(doc_id * {_pbig} + chunk_idx) AS own
          FROM chunks GROUP BY chunk),
flags AS (
  SELECT c.doc_id,
         CASE WHEN o.own = c.doc_id * {_pbig} + c.chunk_idx THEN 0 ELSE 1 END AS isdup
  FROM chunks c JOIN owner o ON o.chunk = c.chunk
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_chunks,
       CAST(sum(isdup) AS BIGINT) AS n_dup_chunks,
       CAST(sum(isdup) AS BIGINT) / CAST(count(*) AS BIGINT) AS dup_ratio
FROM flags GROUP BY doc_id"""

    # dedup_delta: incremental ingest dedup — text-equality anti-join vs the
    # existing corpus + delta keep-first, pure integer id output
    from geotrellis_contrib_ray.pipelines.query_defs import DELTA_SPLIT_ID

    sql["dedup_delta"] = f"""
SELECT d.doc_id FROM documents d
WHERE d.doc_id >= {DELTA_SPLIT_ID}
  AND d.text IS NOT NULL
  AND NOT EXISTS (SELECT 1 FROM documents e
                  WHERE e.doc_id < {DELTA_SPLIT_ID} AND e.text = d.text)
  AND d.doc_id = (SELECT min(x.doc_id) FROM documents x
                  WHERE x.doc_id >= {DELTA_SPLIT_ID} AND x.text = d.text)"""

    # mixture_sample: the shared split-hash order + a window cumsum replay
    # of the per-source token-budget prefix
    from geotrellis_contrib_ray.pipelines.query_defs import MIX_BUDGET_TOKENS
    from geotrellis_contrib_ray.stages.pack import SAMPLE_HASH_M as _MIX_M

    sql["mixture_sample"] = f"""
WITH t AS (
  SELECT source, doc_id,
         coalesce(length(text) - length(replace(text, ' ', '')) + 1, 1) AS ntok,
         ((doc_id % {SPLIT_P}) * {SPLIT_A}) % {_MIX_M} AS hkey
  FROM documents
),
c AS (
  SELECT source, doc_id, ntok,
         coalesce(sum(ntok) OVER (PARTITION BY source ORDER BY hkey, doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS presum
  FROM t
)
SELECT source, doc_id, CAST(ntok AS BIGINT) AS n_tokens,
       CAST(presum AS BIGINT) AS presum
FROM c WHERE presum < {MIX_BUDGET_TOKENS}"""

    # ann_rank: integer ranks only — both engines agree on the (cosine desc,
    # vec_id asc) ORDER (rank gaps >> float noise on these embeddings) even
    # though the similarity BITS differ across summation orders.
    ann_ids = ", ".join(str(i) for i in ANN_QUERY_IDS)
    sql["ann_rank"] = f"""
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings
           WHERE vec_id IN ({ann_ids})),
 d AS (SELECT q.query_id, e.vec_id,
              list_cosine_similarity(q.qe, e.embedding) AS sim
       FROM q CROSS JOIN embeddings e)
SELECT query_id, vec_id,
       row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id) AS rnk
FROM d QUALIFY rnk <= {ANN_K}"""

    # jaccard_exact_pairs: the full inverted-index plan reproduced in SQL —
    # DISTINCT k-gram tokens per doc, token-equality self-join counting the
    # intersection, sizes re-attached, one int/int double division.  Division
    # (unlike summation) is order-free, so the float column hash-matches.
    from geotrellis_contrib_ray.pipelines.query_defs import (
        JACCARD_K,
        JACCARD_SAMPLE_LIMIT,
        JACCARD_THRESHOLD,
    )

    sql["jaccard_exact_pairs"] = f"""
WITH pos AS (
  SELECT doc_id, text, unnest(range(1, length(text)-{JACCARD_K}+2)) AS i
  FROM documents WHERE length(text) >= {JACCARD_K} AND doc_id < {JACCARD_SAMPLE_LIMIT}
), toks AS (
  SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), {JACCARD_K}) AS tok FROM pos
), sz AS (SELECT doc_id, count(*) AS sz FROM toks GROUP BY doc_id),
shared AS (
  SELECT a.doc_id AS id1, b.doc_id AS id2, count(*) AS n_shared
  FROM toks a JOIN toks b ON a.tok = b.tok AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT id1, id2, n_shared,
       s1.sz + s2.sz - n_shared AS n_union,
       CAST(n_shared AS DOUBLE)/(s1.sz + s2.sz - n_shared) AS jaccard
FROM shared JOIN sz s1 ON s1.doc_id = id1 JOIN sz s2 ON s2.doc_id = id2
WHERE CAST(n_shared AS DOUBLE)/(s1.sz + s2.sz - n_shared) >= {JACCARD_THRESHOLD}"""
    sql["jaccard_prefix_pairs"] = sql["jaccard_exact_pairs"]

    from geotrellis_contrib_ray.pipelines.query_defs import (
        EDIT_MAX_DIST,
        TOP_BIGRAMS_K,
    )

    from geotrellis_contrib_ray.pipelines.query_defs import (
        PIVOT_LANGS,
        SETOP_MIN_CHARS,
        SETOP_SRC_A,
        SETOP_SRC_B,
        rank_sql,
    )

    # iterative fixed-point rank: unrolled integer CTE chain (no float
    # summation-order divergence by construction)
    sql["graph_rank"] = rank_sql()

    _cases = ",\n  ".join(
        f"CAST(SUM(CASE WHEN lang = '{c}' THEN 1 ELSE 0 END) AS BIGINT) AS n_{c}"
        for c in PIVOT_LANGS)
    _inlist = ", ".join(f"'{c}'" for c in PIVOT_LANGS)
    # NULL lang counts nowhere: CASE WHEN NULL IN/NOT IN (...) is NULL -> 0
    sql["pivot_lang_source"] = f"""
SELECT source,
  {_cases},
  CAST(SUM(CASE WHEN lang NOT IN ({_inlist}) THEN 1 ELSE 0 END) AS BIGINT)
    AS n_other
FROM documents GROUP BY source ORDER BY source"""

    sql["lang_set_ops"] = f"""
SELECT lang, 'except' AS op FROM (
  SELECT DISTINCT lang FROM documents WHERE source = '{SETOP_SRC_A}'
  EXCEPT
  SELECT DISTINCT lang FROM documents
  WHERE source = '{SETOP_SRC_B}' AND n_chars >= {SETOP_MIN_CHARS})
UNION ALL
SELECT lang, 'intersect' AS op FROM (
  SELECT DISTINCT lang FROM documents WHERE source = '{SETOP_SRC_A}'
  INTERSECT
  SELECT DISTINCT lang FROM documents
  WHERE source = '{SETOP_SRC_B}' AND n_chars >= {SETOP_MIN_CHARS})"""

    # bigram = tokens i, i+1 joined with one space — list lambda over
    # string_split; ties at the k-th count break on the bigram string on
    # both engines (the Ray side lexsorts (bigram, -n) identically)
    sql["top_bigrams"] = f"""
WITH w AS (SELECT string_split(text, ' ') AS arr FROM documents),
bg AS (
  SELECT unnest(list_transform(range(1, len(arr)),
                               i -> arr[i] || ' ' || arr[i + 1])) AS bigram
  FROM w
)
SELECT bigram, CAST(count(*) AS BIGINT) AS n FROM bg GROUP BY bigram
ORDER BY n DESC, bigram LIMIT {TOP_BIGRAMS_K}"""

    # the heavy-hitter tier must produce the IDENTICAL result (the tier is
    # a cost choice, never a correctness choice) — same twin
    sql["top_bigrams_hh"] = sql["top_bigrams"]

    # bag-of-words signature groups: list_sort's default binary UTF-8 order
    # equals the Ray side's np codepoint sort (UTF-8 byte order IS codepoint
    # order); string_split keeps empty tokens on both engines
    sql["bow_dedup"] = """
SELECT CAST(min(doc_id) AS BIGINT) AS doc_id,
       CAST(count(*) AS BIGINT) AS n_dups
FROM (SELECT doc_id,
             array_to_string(list_sort(string_split(text, ' ')), ' ') AS sig
      FROM documents WHERE text IS NOT NULL)
GROUP BY sig"""

    # leftmost non-overlapping matches: python re and DuckDB RE2 agree for
    # backtracking-free class-run patterns; NULL text contributes nothing
    # on both sides (unnest of a NULL list yields zero rows)
    from geotrellis_contrib_ray.pipelines.query_defs import REGEX_TOKEN_PATTERN
    sql["regex_tokens"] = f"""
SELECT tok, CAST(count(*) AS BIGINT) AS n
FROM (SELECT unnest(regexp_extract_all(text, '{REGEX_TOKEN_PATTERN}')) AS tok
      FROM documents)
GROUP BY tok"""

    # z = (n*x - s1) / sqrt(n*s2 - s1^2) over EXACT integer moments — one
    # fixed double expression per row (conversion/div/sqrt all IEEE-exact or
    # correctly rounded), quantized floor(z * 2^20); zero-variance groups
    # dropped on both sides; integer-literal scale CAST to DOUBLE (the
    # DECIMAL-literal overflow rule)
    from geotrellis_contrib_ray.pipelines.query_defs import ZSCORE_QUANT_BITS
    sql["zscore_chars"] = f"""
WITH s AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS n,
                  CAST(SUM(n_chars) AS BIGINT) AS s1,
                  CAST(SUM(n_chars * n_chars) AS BIGINT) AS s2
           FROM documents WHERE lang IS NOT NULL AND n_chars IS NOT NULL
           GROUP BY lang)
SELECT d.doc_id, d.lang,
  CAST(floor(CAST(s.n * d.n_chars - s.s1 AS DOUBLE)
             / sqrt(CAST(s.n * s.s2 - s.s1 * s.s1 AS DOUBLE))
             * CAST({1 << ZSCORE_QUANT_BITS} AS DOUBLE)) AS BIGINT) AS z_q
FROM documents d JOIN s USING (lang)
WHERE s.n * s.s2 - s.s1 * s.s1 > 0 AND d.n_chars IS NOT NULL"""

    # keep-best dedup: the packed int64 min IS the lexicographic
    # (priority, doc_id) policy; 2^40 = 1099511627776
    from geotrellis_contrib_ray.pipelines.query_defs import (
        DEDUP_DEFAULT_PRIORITY, DEDUP_PRIORITY_SOURCES)
    _prio_case = " ".join(
        f"WHEN '{s}' THEN {i}" for i, s in enumerate(DEDUP_PRIORITY_SOURCES))
    sql["dedup_keep_best"] = f"""
SELECT CAST(min((CASE source {_prio_case} ELSE {DEDUP_DEFAULT_PRIORITY} END)
             * 1099511627776 + doc_id) % 1099511627776 AS BIGINT) AS doc_id,
       CAST(count(*) AS BIGINT) AS n_dups
FROM documents WHERE text IS NOT NULL
GROUP BY text"""

    # byte-domain on BOTH engines: DuckDB levenshtein() counts byte edits
    # (measured), and the Ray side's PassJoin segments/probes/banded-DP all
    # run on the raw utf8 buffer.  The strlen (byte-length) prune is implied
    # by the predicate (|len(a)-len(b)| <= dist) — a pure DP-cost cut.
    sql["edit_distance_pairs"] = f"""
SELECT a.doc_id AS id1, b.doc_id AS id2,
       levenshtein(a.text, b.text) AS dist
FROM documents a JOIN documents b
  ON a.doc_id < b.doc_id
 AND abs(strlen(a.text) - strlen(b.text)) <= {EDIT_MAX_DIST}
WHERE levenshtein(a.text, b.text) <= {EDIT_MAX_DIST}"""

    # minhash_pairs: the ENTIRE MinHash+LSH plan replayed in generated SQL —
    # rolling shingle hashes, the seed-fixed (a*x+b) mod-Mersenne universal
    # family with numpy's uint64 wraparound emulated in HUGEINT, FNV-1a band
    # folds unrolled as CTEs, then band-bucket pair emission.  Deterministic
    # integer math end-to-end, so rows+schema+hash all check (the
    # hilbert_sql_cte / kmeans-unroll precedent, VERDICT r2 #2).
    from geotrellis_contrib_ray.pipelines.query_defs import minhash_bands_cte

    sql["minhash_pairs"] = f"""
WITH {minhash_bands_cte()},
mh_pairs AS (
  SELECT a.doc_id AS id1, b.doc_id AS id2
  FROM mh_bands a JOIN mh_bands b
    ON a.band_id = b.band_id AND a.band_hash = b.band_hash AND a.doc_id < b.doc_id
)
SELECT id1, id2, count(*) AS n_bands FROM mh_pairs GROUP BY id1, id2"""

    # simhash_pairs: the 64-bit majority-vote signature + 7-bit banding
    # replayed in SQL; hamming is bit_count(xor) on the int64 bit-views.
    # Query params mirror q_simhash_pairs (max_hamming=8, bands=9).
    from geotrellis_contrib_ray.pipelines.query_defs import simhash_cte

    sql["simhash_pairs"] = f"""
WITH {simhash_cte(shingle_k=4, bands=9)},
sh_pairs AS (
  SELECT DISTINCT a.doc_id AS id1, b.doc_id AS id2
  FROM sh_bands a JOIN sh_bands b
    ON a.band_id = b.band_id AND a.chunk = b.chunk AND a.doc_id < b.doc_id
)
SELECT p.id1, p.id2, bit_count(xor(s1.h, s2.h)) AS hamming
FROM sh_pairs p
JOIN sh_sig s1 ON s1.doc_id = p.id1
JOIN sh_sig s2 ON s2.doc_id = p.id2
WHERE bit_count(xor(s1.h, s2.h)) <= 8"""

    # ngram_jaccard_pairs: LSH candidates (the SAME generated minhash band
    # replay) + exact per-pair Jaccard over distinct 5-gram sets, threshold
    # 0.5.  jaccard is one int/int IEEE division — order-free, hash-matches.
    # (Ray verifies over 64-bit shingle hashes; SQL over the substrings
    # themselves — identical on this corpus up to ~2^-64 collisions, the
    # accepted jaccard_exact_pairs precedent.)
    sql["ngram_jaccard_pairs"] = f"""
WITH {minhash_bands_cte()},
nj_cand AS (
  SELECT DISTINCT a.doc_id AS id1, b.doc_id AS id2
  FROM mh_bands a JOIN mh_bands b
    ON a.band_id = b.band_id AND a.band_hash = b.band_hash AND a.doc_id < b.doc_id
),
nj_pos AS (
  SELECT doc_id, text, unnest(range(1, length(text)-{JACCARD_K}+2)) AS i
  FROM documents WHERE length(text) >= {JACCARD_K}
),
nj_toks AS (
  SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), {JACCARD_K}) AS tok FROM nj_pos
),
nj_sz AS (SELECT doc_id, count(*) AS sz FROM nj_toks GROUP BY doc_id),
nj_shared AS (
  SELECT c.id1, c.id2, count(*) AS n_shared
  FROM nj_cand c
  JOIN nj_toks a ON a.doc_id = c.id1
  JOIN nj_toks b ON b.doc_id = c.id2 AND b.tok = a.tok
  GROUP BY c.id1, c.id2
)
SELECT id1, id2,
       CAST(n_shared AS DOUBLE)/(s1.sz + s2.sz - n_shared) AS jaccard
FROM nj_shared JOIN nj_sz s1 ON s1.doc_id = id1 JOIN nj_sz s2 ON s2.doc_id = id2
WHERE CAST(n_shared AS DOUBLE)/(s1.sz + s2.sz - n_shared) >= 0.5"""

    # embedding_neardup: the quantized multi-band LSH + exact integer cosine
    # threshold (cos >= 0.3  <=>  dot > 0 AND dot^2*100 >= 9*d1*d2, HUGEINT)
    from geotrellis_contrib_ray.pipelines.query_defs import embedding_lsh_cte

    sql["embedding_neardup"] = f"""
WITH {embedding_lsh_cte(dim=64, n_planes=6, n_bands=6)},
el_cand AS (
  SELECT DISTINCT a.vec_id AS id1, b.vec_id AS id2
  FROM el_buckets a JOIN el_buckets b
    ON a.band = b.band AND a.bucket = b.bucket AND a.vec_id < b.vec_id
),
el_norms AS (SELECT vec_id, CAST(SUM(q * q) AS BIGINT) AS d FROM el_q GROUP BY vec_id),
el_dotp AS (
  SELECT c.id1, c.id2, CAST(SUM(a.q * b.q) AS BIGINT) AS dot_q
  FROM el_cand c
  JOIN el_q a ON a.vec_id = c.id1
  JOIN el_q b ON b.vec_id = c.id2 AND b.i = a.i
  GROUP BY c.id1, c.id2
)
SELECT p.id1, p.id2, p.dot_q, n1.d AS d1, n2.d AS d2
FROM el_dotp p
JOIN el_norms n1 ON n1.vec_id = p.id1
JOIN el_norms n2 ON n2.vec_id = p.id2
WHERE p.dot_q > 0
  AND CAST(p.dot_q AS HUGEINT) * p.dot_q * 100 >= 9 * CAST(n1.d AS HUGEINT) * n2.d"""

    # --- exact-integer ANN twins (quantized cosine; stages/ann.py) ---------
    from geotrellis_contrib_ray.pipelines.query_defs import (
        ANN_IVF_NPROBE,
        ANN_IVF_SEEDS,
        ANN_LSH_PLANES,
        quantized_embed_cte,
        quantized_score_sql,
    )

    _score = quantized_score_sql("d.dot", "nq.d", "nv.d")
    _rank_tail = f"""sc AS (
  SELECT d.query_id, d.vec_id, {_score} AS score
  FROM ann_dots d
  JOIN el_n nq ON nq.vec_id = d.query_id
  JOIN el_n nv ON nv.vec_id = d.vec_id
)
SELECT query_id, vec_id, score,
       row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) AS rnk
FROM sc QUALIFY rnk <= {ANN_K}"""

    sql["ann_cosine"] = f"""
WITH {quantized_embed_cte()},
el_n AS (SELECT vec_id, SUM(q * q) AS d FROM el_q GROUP BY vec_id),
ann_dots AS (
  SELECT a.vec_id AS query_id, b.vec_id AS vec_id, SUM(a.q * b.q) AS dot
  FROM el_q a JOIN el_q b ON b.i = a.i
  WHERE a.vec_id IN ({ann_ids}) GROUP BY 1, 2
),
{_rank_tail}"""

    sql["ann_lsh"] = f"""
WITH {embedding_lsh_cte(dim=64, n_planes=ANN_LSH_PLANES, n_bands=1)},
qb AS (SELECT DISTINCT bucket FROM el_buckets WHERE vec_id IN ({ann_ids})),
keepv AS (SELECT b.vec_id FROM el_buckets b JOIN qb ON qb.bucket = b.bucket),
el_n AS (SELECT vec_id, SUM(q * q) AS d FROM el_q GROUP BY vec_id),
ann_dots AS (
  SELECT a.vec_id AS query_id, b.vec_id AS vec_id, SUM(a.q * b.q) AS dot
  FROM el_q a JOIN el_q b ON b.i = a.i
  WHERE a.vec_id IN ({ann_ids})
    AND b.vec_id IN (SELECT vec_id FROM keepv)
  GROUP BY 1, 2
),
{_rank_tail}"""

    sql["ann_ivf"] = f"""
WITH {quantized_embed_cte()},
el_n AS (SELECT vec_id, SUM(q * q) AS d FROM el_q GROUP BY vec_id),
seed_d AS (
  SELECT v.vec_id, s.vec_id AS sid, SUM((v.q - s.q) * (v.q - s.q)) AS dist
  FROM el_q v JOIN el_q s ON s.i = v.i AND s.vec_id < {ANN_IVF_SEEDS}
  GROUP BY 1, 2
),
cl AS (
  SELECT vec_id, sid FROM (
    SELECT vec_id, sid,
           row_number() OVER (PARTITION BY vec_id ORDER BY dist, sid) AS rn
    FROM seed_d) WHERE rn = 1
),
probe AS (
  SELECT DISTINCT sid FROM (
    SELECT vec_id, sid,
           row_number() OVER (PARTITION BY vec_id ORDER BY dist, sid) AS rn
    FROM seed_d WHERE vec_id IN ({ann_ids})) WHERE rn <= {ANN_IVF_NPROBE}
),
keepv AS (SELECT cl.vec_id FROM cl JOIN probe ON probe.sid = cl.sid),
ann_dots AS (
  SELECT a.vec_id AS query_id, b.vec_id AS vec_id, SUM(a.q * b.q) AS dot
  FROM el_q a JOIN el_q b ON b.i = a.i
  WHERE a.vec_id IN ({ann_ids})
    AND b.vec_id IN (SELECT vec_id FROM keepv)
  GROUP BY 1, 2
),
{_rank_tail}"""

    from geotrellis_contrib_ray.pipelines.query_defs import (
        CLUSTER_KEY_LEN,
        KMEANS_ITERS,
        KMEANS_K,
    )

    # kmeans: KMEANS_ITERS Lloyd's rounds unrolled as CTE pairs (assign ->
    # re-centroid); both engines share seeds, iteration count, and the
    # (distance, cid) tie-break.  Float caveat: centroid sums accumulate in
    # different orders, so equality holds unless a point sits within ~1e-14
    # of a Voronoi boundary — not attainable on the synthetic embeddings.
    assert KMEANS_ITERS == 2, "unrolled SQL below encodes exactly 2 rounds"
    sql["kmeans_embed"] = f"""
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
c0 AS (SELECT vec_id AS cid, emb AS c FROM e WHERE vec_id < {KMEANS_K}),
a1 AS (
  SELECT vec_id, cid FROM (
    SELECT e.vec_id, c0.cid,
           row_number() OVER (PARTITION BY e.vec_id
                              ORDER BY list_distance(e.emb, c0.c), c0.cid) AS rn
    FROM e CROSS JOIN c0) WHERE rn = 1
),
mem AS (
  SELECT a1.cid, generate_subscripts(e.emb, 1) AS idx, unnest(e.emb) AS val
  FROM a1 JOIN e USING (vec_id)
),
avgs AS (SELECT cid, idx, avg(val) AS v FROM mem GROUP BY cid, idx),
c1 AS (
  SELECT c0.cid, coalesce(l.c, c0.c) AS c
  FROM c0 LEFT JOIN (SELECT cid, list(v ORDER BY idx) AS c FROM avgs GROUP BY cid) l
  USING (cid)
),
a2 AS (
  SELECT vec_id, cid FROM (
    SELECT e.vec_id, c1.cid,
           row_number() OVER (PARTITION BY e.vec_id
                              ORDER BY list_distance(e.emb, c1.c), c1.cid) AS rn
    FROM e CROSS JOIN c1) WHERE rn = 1
),
mem2 AS (
  SELECT a2.cid, generate_subscripts(e.emb, 1) AS idx, unnest(e.emb) AS val
  FROM a2 JOIN e USING (vec_id)
),
avgs2 AS (SELECT cid, idx, avg(val) AS v FROM mem2 GROUP BY cid, idx),
c2 AS (
  SELECT c1.cid, coalesce(l.c, c1.c) AS c
  FROM c1 LEFT JOIN (SELECT cid, list(v ORDER BY idx) AS c FROM avgs2 GROUP BY cid) l
  USING (cid)
)
SELECT vec_id, CAST(cid AS BIGINT) AS cluster FROM (
  SELECT e.vec_id, c2.cid,
         row_number() OVER (PARTITION BY e.vec_id
                            ORDER BY list_distance(e.emb, c2.c), c2.cid) AS rn
  FROM e CROSS JOIN c2) WHERE rn = 1"""

    # exact COUNT(DISTINCT) per tumbling window
    sql["window_distinct"] = f"""
SELECT CAST(floor(epoch(ts) / {WINDOW_SEC}) AS BIGINT) * {WINDOW_SEC} AS window_start,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1"""

    # span->media cross-modal join: span derivation (media_ref, offset) and
    # the decoded dims both replayed as formulas
    sql["span_media_join"] = """
SELECT doc_id,
       'media://bucket' || CAST(doc_id % 7 AS VARCHAR) || '/' ||
         CAST(doc_id AS VARCHAR) AS media_ref,
       CAST(len(text) // 2 + 1 AS INTEGER) AS "offset",
       CAST(16 + ((doc_id % 64) * 7) % 19 AS INTEGER) AS width,
       CAST(16 + (doc_id % 64) % 17 AS INTEGER) AS height
FROM documents"""

    # the full interleaved span model: 3 spans/doc with order, text halves,
    # media refs and offsets (ASCII corpus -> byte midpoint == len//2)
    sql["span_table"] = """
SELECT doc_id, CAST(0 AS BIGINT) AS span_idx, 'text' AS kind,
       substr(text, 1, len(text) // 2) AS span_text,
       '' AS media_ref, CAST(0 AS INTEGER) AS "offset"
FROM documents
UNION ALL
SELECT doc_id, CAST(1 AS BIGINT), 'media', '',
       'media://bucket' || CAST(doc_id % 7 AS VARCHAR) || '/' || CAST(doc_id AS VARCHAR),
       CAST(len(text) // 2 + 1 AS INTEGER)
FROM documents
UNION ALL
SELECT doc_id, CAST(2 AS BIGINT), 'text', substr(text, len(text) // 2 + 1),
       '', CAST(len(text) // 2 + 2 AS INTEGER)
FROM documents"""

    # span_redact: the SAME span lift with the shared redact regex applied to
    # the text HALVES only (media rows untouched) — the north-rule invariant
    # under an editing op: order/kinds/refs/offsets hash along with the
    # redacted text.  NOTE the regex runs on each HALF (post-split), exactly
    # like the Ray side — a match straddling the midpoint is split on BOTH
    # engines identically.
    from geotrellis_contrib_ray.stages.text import REDACT_PATTERN as _RP
    from geotrellis_contrib_ray.stages.text import REDACT_TOKEN as _RT

    sql["span_redact"] = f"""
SELECT doc_id, CAST(0 AS BIGINT) AS span_idx, 'text' AS kind,
       regexp_replace(substr(text, 1, len(text) // 2), '{_RP}', '{_RT}', 'g') AS span_text,
       '' AS media_ref, CAST(0 AS INTEGER) AS "offset"
FROM documents
UNION ALL
SELECT doc_id, CAST(1 AS BIGINT), 'media', '',
       'media://bucket' || CAST(doc_id % 7 AS VARCHAR) || '/' || CAST(doc_id AS VARCHAR),
       CAST(len(text) // 2 + 1 AS INTEGER)
FROM documents
UNION ALL
SELECT doc_id, CAST(2 AS BIGINT), 'text',
       regexp_replace(substr(text, len(text) // 2 + 1), '{_RP}', '{_RT}', 'g'),
       '', CAST(len(text) // 2 + 2 AS INTEGER)
FROM documents"""

    # left-outer join: unmatched orders must survive with coalesced zeros
    sql["orders_left_join"] = """
WITH s AS (
  SELECT l_orderkey,
         SUM(CAST(floor(l_extendedprice * 100) AS BIGINT)) AS cents
  FROM lineitem GROUP BY 1
)
SELECT o_orderpriority,
       count(*) AS n_orders,
       CAST(sum(CASE WHEN s.cents IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_matched,
       CAST(sum(coalesce(s.cents, 0)) AS BIGINT) AS sum_price_cents
FROM orders o LEFT JOIN s ON o.o_orderkey = s.l_orderkey
GROUP BY 1"""

    # mercator: spherical web-mercator forward transform, centimeter-floored
    # (numpy vs libm trig divergence < 4e-9 m on this lattice — see query)
    sql["mercator_cells"] = f"""
WITH {geo_cte()}
SELECT doc_id,
       CAST(floor(radians(lon) * 6378137.0 * 100) AS BIGINT) AS mx_cm,
       CAST(floor(ln(tan(pi()/4 + radians(lat)/2)) * 6378137.0 * 100) AS BIGINT) AS my_cm
FROM pts"""

    from geotrellis_contrib_ray.pipelines.query_defs import (
        albers_sql_exprs,
        lambert_sql_exprs,
    )

    _lx, _ly = lambert_sql_exprs()
    sql["lambert_cells"] = f"""
WITH {geo_cte()}
SELECT doc_id,
       CAST(floor(({_lx}) * 100) AS BIGINT) AS lx_cm,
       CAST(floor(({_ly}) * 100) AS BIGINT) AS ly_cm
FROM pts"""

    _ax, _ay = albers_sql_exprs()
    sql["albers_cells"] = f"""
WITH {geo_cte()}
SELECT doc_id,
       CAST(floor(({_ax}) * 100) AS BIGINT) AS ax_cm,
       CAST(floor(({_ay}) * 100) AS BIGINT) AS ay_cm
FROM pts"""

    from geotrellis_contrib_ray.pipelines.query_defs import (
        sinu_sql_exprs,
        stereo_sql_exprs,
    )

    _px, _py = stereo_sql_exprs()
    sql["stereo_cells"] = f"""
WITH {geo_cte()}
SELECT doc_id,
       CAST(floor(({_px}) * 100) AS BIGINT) AS px_cm,
       CAST(floor(({_py}) * 100) AS BIGINT) AS py_cm
FROM pts"""

    _sx, _sy = sinu_sql_exprs()
    sql["sinusoidal_cells"] = f"""
WITH {geo_cte()}
SELECT doc_id,
       CAST(floor(({_sx}) * 100) AS BIGINT) AS sx_cm,
       CAST(floor(({_sy}) * 100) AS BIGINT) AS sy_cm
FROM pts"""

    # raster warp twins: the FULL warp read path replayed — per-tile sampling
    # constants (window back-transforms, source sub-grid params) computed by
    # the same library calls the Ray side makes, projection inverse of
    # target cell centers, nearest-neighbor source lookup, nodata outside
    # the footprint.  Two target families (LCC conformal, Albers equal-area)
    # exercise both inverse structures (power/atan vs asin).
    from geotrellis_contrib_ray.pipelines.query_defs import (
        albers_inverse_sql_exprs,
        albers_query_crs,
        conic_raster_target,
        conic_raster_tile_params,
        lambert_inverse_sql_exprs,
        lambert_query_crs,
    )

    _d = lambda v: f"CAST({float(v)!r} AS DOUBLE)"  # noqa: E731

    def _warp_sql(crs, inv_exprs) -> str:
        tg = conic_raster_target(crs)
        tp_rows = ",\n      ".join(
            f"({p['tc']},{p['tr']},{p['gc0']},{p['gr0']},{p['gc1']},{p['gr1']},"
            f"{_d(p['sxmin'])},{_d(p['symax'])},{_d(p['scw'])},{_d(p['sch'])},"
            f"{p['scols']},{p['srows']},{p['wc0']},{p['wr0']})"
            for p in conic_raster_tile_params(crs))
        rlon, rlat = inv_exprs
        return f"""
WITH rl_tiles(tc, tr, gc0, gr0, gc1, gr1, sxmin, symax, scw, sch, scols, srows, wc0, wr0) AS (VALUES
      {tp_rows}),
rl_cells AS (
  SELECT t.*, t.gc0 + c.c AS gc, t.gr0 + r.r AS gr
  FROM rl_tiles t
  JOIN generate_series(0, 255) c(c) ON t.gc0 + c.c <= t.gc1
  JOIN generate_series(0, 255) r(r) ON t.gr0 + r.r <= t.gr1
),
rl_pt AS (
  SELECT *, {_d(tg.extent.xmin)} + (gc + 0.5) * {_d(tg.cellwidth)} AS tx,
            {_d(tg.extent.ymax)} - (gr + 0.5) * {_d(tg.cellheight)} AS ty
  FROM rl_cells
),
rl_px AS (
  SELECT tc, tr, gc1, gc0, gr1, gr0, scols, srows, wc0, wr0,
         CAST(floor((({rlon}) - sxmin) / scw) AS BIGINT) AS lc,
         CAST(floor((symax - ({rlat})) / sch) AS BIGINT) AS lr
  FROM rl_pt
),
rl_v AS (
  SELECT tc, tr, gc1 - gc0 + 1 AS cols, gr1 - gr0 + 1 AS rows,
         CASE WHEN lc >= 0 AND lc < scols AND lr >= 0 AND lr < srows
              THEN ((wr0 + lr) * {QUERY_GRID.cols} + (wc0 + lc)) % 32768
              ELSE NULL END AS v
  FROM rl_px
)
SELECT CAST(tc AS BIGINT) AS tile_col, CAST(tr AS BIGINT) AS tile_row,
       CAST(cols AS BIGINT) AS cols, CAST(rows AS BIGINT) AS rows,
       CAST(coalesce(sum(v), 0) AS BIGINT) AS pixel_sum,
       CAST(count(v) AS BIGINT) AS n_valid
FROM rl_v GROUP BY tc, tr, cols, rows"""

    from geotrellis_contrib_ray.pipelines.query_defs import (
        sinu_inverse_sql_exprs,
        sinu_query_crs,
        stereo_inverse_sql_exprs,
        stereo_query_crs,
    )

    sql["raster_lambert"] = _warp_sql(lambert_query_crs(),
                                      lambert_inverse_sql_exprs("tx", "ty"))
    sql["raster_albers"] = _warp_sql(albers_query_crs(),
                                     albers_inverse_sql_exprs("tx", "ty"))
    sql["raster_stereo"] = _warp_sql(stereo_query_crs(),
                                     stereo_inverse_sql_exprs("tx", "ty"))
    sql["raster_sinusoidal"] = _warp_sql(sinu_query_crs(),
                                         sinu_inverse_sql_exprs("tx", "ty"))

    # repetition: SQL counts the substrings themselves; the Ray side counts
    # 64-bit gram hashes (collision odds ~n^2/2^64 — zero on test corpora)
    sql["repetition"] = """
WITH nums AS (
  SELECT CAST(i AS INTEGER) AS i FROM generate_series(1, 4096) t(i)
),
g AS (
  SELECT d.doc_id, substr(d.text, n.i, 5) AS g
  FROM documents d JOIN nums n ON n.i <= len(d.text) - 4
)
SELECT doc_id, count(*) AS n_grams, count(DISTINCT g) AS n_distinct,
       count(*) - count(DISTINCT g) AS n_dup
FROM g GROUP BY doc_id"""

    # bloom semi-join: the bloom is an internal pushdown (exact after the
    # verify join), so the plain IN-subquery is the full oracle.
    sql["semi_bloom"] = """
SELECT l_returnflag,
       CAST(sum(CAST(floor(l_quantity * 100) AS BIGINT)) AS BIGINT) AS sum_qty_cents,
       count(*) AS n_items
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT')
GROUP BY 1"""

    # tfidf: score floats never cross the hash — only the selected rows'
    # integer (tf, df) do; both engines share the tf*ln(N/df) expression and
    # the (score DESC, term) tie-break.
    sql["tfidf_terms"] = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
n AS (SELECT count(*) AS n FROM documents)
SELECT doc_id, term, tf, df FROM (
  SELECT tf.doc_id, tf.term, tf.tf, df.df,
         row_number() OVER (PARTITION BY tf.doc_id
                            ORDER BY tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) DESC,
                                     tf.term) AS rn
  FROM tf JOIN df USING (term) CROSS JOIN n
) WHERE rn <= 3"""

    # dedup_clusters: connected components = min-label reach via a recursive
    # CTE (UNION dedups, so the recursion terminates at the closure).
    from geotrellis_contrib_ray.pipelines.query_defs import (
        SUBSTR_MAX_OFF, SUBSTR_STRIDE, SUBSTR_WIN)

    # substring_pairs: the window grid reproduced with a bounded offset
    # series (1-based substr; offsets 1, 1+stride, ... while a FULL window
    # fits), distinct per (doc, window), self-join, pair counts
    sql["substring_pairs"] = f"""
WITH offs AS (SELECT unnest(generate_series(1, {SUBSTR_MAX_OFF}, {SUBSTR_STRIDE})) AS o),
w AS (
  SELECT DISTINCT doc_id, substr(text, CAST(o AS INT), {SUBSTR_WIN}) AS g
  FROM documents, offs
  WHERE o <= length(text) - {SUBSTR_WIN} + 1
),
p AS (
  SELECT a.doc_id AS id1, b.doc_id AS id2
  FROM w a JOIN w b USING (g)
  WHERE a.doc_id < b.doc_id
)
SELECT id1, id2, count(*) AS n_grams FROM p GROUP BY id1, id2
"""

    sql["dedup_clusters"] = f"""
WITH RECURSIVE keys AS (
  SELECT doc_id, substr(text, 1, {CLUSTER_KEY_LEN}) AS key FROM documents
  UNION ALL
  SELECT doc_id, substr(text, len(text) - {CLUSTER_KEY_LEN - 1}, {CLUSTER_KEY_LEN}) AS key
  FROM documents
),
g AS (SELECT key, min(doc_id) AS mn FROM keys GROUP BY key),
star AS (
  SELECT DISTINCT k.doc_id AS a, g.mn AS b
  FROM keys k JOIN g ON k.key = g.key WHERE k.doc_id <> g.mn
),
edges AS (SELECT a, b FROM star UNION SELECT b, a FROM star),
reach (node, label) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT e.b, r.label FROM edges e JOIN reach r ON r.node = e.a
)
SELECT node AS doc_id, min(label) AS cluster_id FROM reach GROUP BY node"""

    # the apply step over the same recursive clusters: representatives kept
    sql["dedup_apply"] = f"""
WITH RECURSIVE keys AS (
  SELECT doc_id, substr(text, 1, {CLUSTER_KEY_LEN}) AS key FROM documents
  UNION ALL
  SELECT doc_id, substr(text, len(text) - {CLUSTER_KEY_LEN - 1}, {CLUSTER_KEY_LEN}) AS key
  FROM documents
),
g AS (SELECT key, min(doc_id) AS mn FROM keys GROUP BY key),
star AS (
  SELECT DISTINCT k.doc_id AS a, g.mn AS b
  FROM keys k JOIN g ON k.key = g.key WHERE k.doc_id <> g.mn
),
edges AS (SELECT a, b FROM star UNION SELECT b, a FROM star),
reach (node, label) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT e.b, r.label FROM edges e JOIN reach r ON r.node = e.a
),
final AS (SELECT node AS doc_id, min(label) AS cluster_id FROM reach GROUP BY node)
SELECT d.lang,
       CAST(sum(CASE WHEN f.cluster_id = d.doc_id THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       CAST(sum(CASE WHEN f.cluster_id <> d.doc_id THEN 1 ELSE 0 END) AS BIGINT) AS n_dropped
FROM documents d JOIN final f ON d.doc_id = f.doc_id GROUP BY 1"""

    # ann_cosine / minhash_pairs / quality_scores: intentionally no oracle
    # (float-summation order / regex semantics not bit-reproducible in SQL);
    # integer-projected twins quality_counts / ann_rank above ARE
    # oracle-checked; driver records rows-only checks for the float variants,
    # pytest holds the numpy oracles.
    return sql
