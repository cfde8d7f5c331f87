"""Zero-row inputs through the main stage entry points: empty Arrow batches
carry None buffers and null-typed columns (CLAUDE.md gotchas) — every
operator must return its typed empty result instead of crashing."""

import numpy as np
import pyarrow as pa


def _empty_docs():
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64()),
    }))


def test_dedup_family_empty(ray_session):
    from geotrellis_contrib_ray.stages import dedup

    ds = _empty_docs()
    assert dedup.exact_dedup_groups(ds).count() == 0
    assert dedup.substring_match_pairs(ds).count() == 0
    assert dedup.minhash_candidate_pairs(ds).count() == 0


def test_text_and_stats_empty(ray_session):
    from geotrellis_contrib_ray.stages import text as textmod
    from geotrellis_contrib_ray.stages.stats import grouped_quantiles, top_k_per_group

    ds = _empty_docs()
    assert textmod.quality_score(ds).count() == 0
    assert textmod.vocab_coverage(ds).count() == 0
    q = grouped_quantiles(ds.select_columns(["lang", "n_chars"]), "n_chars",
                          qs=(0.5,), group_col="lang")
    assert q.count() == 0
    t = top_k_per_group(ds.select_columns(["lang", "n_chars", "doc_id"]),
                        group_col="lang", order_col="n_chars", k=3, tie_col="doc_id")
    assert t.count() == 0


def test_joins_and_graph_empty(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.graph import neardup_clusters
    from geotrellis_contrib_ray.stages.joins import bucketed_hash_join

    ds = _empty_docs()
    left = ds.select_columns(["doc_id", "n_chars"])
    right = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "lang2": pa.array([], pa.string()),
    }))
    j = bucketed_hash_join(
        left, right, on="doc_id",
        schemas=(pa.schema([("doc_id", pa.int64()), ("n_chars", pa.int64())]),
                 pa.schema([("doc_id", pa.int64()), ("lang2", pa.string())])),
    )
    assert j.count() == 0
    assert neardup_clusters(ds, carry_cols=("lang",)).count() == 0


def _events(event_types, ts_us=(), user_ids=()):
    import ray.data as rd

    n = len(event_types)
    return rd.from_arrow(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(np.array(ts_us, dtype=np.int64).astype("datetime64[us]"),
                       pa.timestamp("us")),
        "user_id": pa.array(list(user_ids), pa.int64()),
        "event_type": pa.array(list(event_types), pa.string()),
        "value": pa.array(np.full(n, 1.25)),
    }))


def test_windows_empty(ray_session):
    from geotrellis_contrib_ray.stages import windows

    ev = _events([])
    assert windows.tumbling_window_agg(ev).count() == 0
    assert windows.window_distinct_users(ev).count() == 0
    for op in ("sessionize", "window_functions", "window_frame_agg",
               "group_first_last", "user_paths"):
        assert getattr(windows, op)(ev).count() == 0, op
    assert windows.cohort_retention(ev).num_rows == 0
    # the stage list is static: every stage still reports, with 0 users
    funnel = windows.funnel_counts(ev)
    assert funnel["stage_name"].to_pylist() == ["view", "click", "purchase"]
    assert funnel["n_users"].to_pylist() == [0, 0, 0]


def test_windows_single_event(ray_session):
    """One user with one event: the one-row output of every user-bucket op."""
    from geotrellis_contrib_ray.stages import windows

    day_us = 86_400_000_000
    ts = 3 * day_us + 7_000_000  # day 3, 7 s in
    view = _events(["view"], [ts], [42])

    def rows(out):
        return out.to_pandas().to_dict("records")

    assert rows(windows.sessionize(view)) == [
        {"user_id": 42, "session_start": ts // 1_000_000, "n_events": 1}]
    assert rows(windows.window_functions(view)) == [{
        "event_id": 0, "user_id": 42, "rn": 1, "rk": 1, "dense_rk": 1,
        "gap_us": -1, "lead_gap_us": -1, "tile": 1, "grp_n": 1,
        "cum_cents": 125, "pct_rank": 0.0, "cume_dist": 1.0}]
    assert rows(windows.window_frame_agg(view)) == [{
        "event_id": 0, "user_id": 42, "mv_n": 1, "mv_sum_cents": 125,
        "mv_min_cents": 125}]
    assert windows.funnel_counts(view)["n_users"].to_pylist() == [1, 0, 0]
    assert rows(windows.group_first_last(view)) == [
        {"user_id": 42, "first_type": "view", "last_type": "view", "n_events": 1}]
    assert rows(windows.user_paths(view)) == [
        {"user_id": 42, "path": "view", "n_events": 1}]
    # a lone non-signup event cohorts nobody; a lone signup is its own cell
    assert windows.cohort_retention(view).num_rows == 0
    assert rows(windows.cohort_retention(_events(["signup"], [ts], [42]))) == [
        {"cohort_day": 3, "day_offset": 0, "n_users": 1}]


def test_r4_ops_empty(ray_session):
    """The r4 operators on zero-row corpora: typed empty outputs, no
    None-buffer crashes."""
    from geotrellis_contrib_ray.stages import dedup, pack

    ds = _empty_docs()
    assert dedup.paragraph_dedup(ds).count() == 0
    assert dedup.paragraph_dup_ratio(ds).count() == 0
    assert dedup.simhash_candidate_pairs(ds).count() == 0
    assert dedup.incremental_dedup_keep_first(_empty_docs(), _empty_docs()).count() == 0

    def add_source(b):
        return b.append_column("source", pa.array(["s"] * len(b), pa.string()))

    srcd = ds.map_batches(add_source, batch_format="pyarrow", batch_size=None)
    assert pack.mixture_sample(srcd, budget_tokens=10).count() == 0


def test_r4_ops_single_row(ray_session):
    """One-doc corpora exercise the `lens==1` / single-run edges."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages import dedup, pack

    t = pa.table({"doc_id": pa.array([7], pa.int64()),
                  "text": pa.array(["solo words here"], pa.string()),
                  "source": pa.array(["s0"], pa.string())})
    ds = rd.from_arrow(t)
    pd_out = dedup.paragraph_dedup(ds, k_tokens=2).to_pandas()
    assert pd_out["clean_text"].tolist() == ["solo words here"]
    pr = dedup.paragraph_dup_ratio(ds, k_tokens=2).to_pandas()
    assert pr["n_dup_chunks"].tolist() == [0]
    ms = pack.mixture_sample(ds, budget_tokens=1).to_pandas()
    assert ms["doc_id"].tolist() == [7]
    sp = dedup.simhash_candidate_pairs(ds).to_pandas()
    assert len(sp) == 0


def test_r5_final_ops_empty_and_single(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.dedup import bow_keep_first
    from geotrellis_contrib_ray.stages.stats import group_zscore
    from geotrellis_contrib_ray.stages.text import (regex_token_counts,
                                                    top_bigrams_hh)

    ds = _empty_docs()
    assert bow_keep_first(ds).count() == 0
    assert regex_token_counts(ds, "[a-z]+").count() == 0
    assert group_zscore(ds, "lang", "n_chars").count() == 0
    assert top_bigrams_hh(ds, k=3).num_rows == 0

    one = rd.from_arrow(pa.table({
        "doc_id": pa.array([7], pa.int64()),
        "text": pa.array(["solo doc"], pa.string()),
        "lang": pa.array(["en"], pa.string()),
        "n_chars": pa.array([8], pa.int64()),
    }))
    assert bow_keep_first(one).take_all() == [{"doc_id": 7, "n_dups": 1}]
    assert regex_token_counts(one, "[a-z]+").count() == 2
    # single row per group: zero variance -> dropped
    assert group_zscore(one, "lang", "n_chars").count() == 0
    hh = top_bigrams_hh(one, k=3)
    assert hh["bigram"].to_pylist() == ["solo doc"]


def test_empty_corpus_through_query_surface(ray_session, tmp_path):
    """A zero-row documents.parquet through the query wrappers that used to
    crash or diverge (empty partitions happen; an all-filtered corpus must
    degrade to empty results, and GROUPING SETS must still emit the SQL ()
    grand-total row: count 0, NULL sum; the dedup and cleaning results keep
    their twins' columns)."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    import __ray_entry__ as e

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()), "source": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64())}), f"{sf}/documents.parquet")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    for name in ("top_chars", "rollup_lang_source", "cube_lang_source",
                 "corpus_clean", "pack_sequences", "jsonl_roundtrip",
                 "csv_roundtrip", "jaccard_prefix_pairs", "dedup_exact",
                 "bow_dedup", "dedup_keep_best", "top_bigrams_hh"):
        r = e.queries()[name](sf)
        got = r.to_pandas() if not isinstance(r, pd.DataFrame) else r
        want = con.execute(e.oracle_sql()[name]).df()
        assert got.shape[0] == want.shape[0], (name, got.shape, want.shape)
        if name in ("dedup_exact", "bow_dedup", "corpus_clean", "dedup_keep_best"):
            # an empty answer keeps its columns (Ray's to_pandas() alone drops them)
            assert sorted(got.columns) == sorted(want.columns), (name, list(got.columns))
        if name in ("rollup_lang_source", "cube_lang_source"):
            # the () grouping set: one row, sentinels, n=0, NULL sum
            assert want.shape[0] == 1
            row = got.sort_index(axis=1).iloc[0]
            assert row["n"] == 0 and pd.isna(row["sum_n_chars"])


def test_empty_relational_through_query_surface(ray_session, tmp_path):
    """Zero-row events/orders/lineitem/customer through the join, window,
    quantile, funnel, skew, bloom and rank wrappers: inner joins over an
    unknowable empty side degrade to zero-block empties; SQL emits
    (q, NULL) per quantile and every static funnel stage with 0."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    import __ray_entry__ as e

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "event_id": pa.array([], pa.int64()), "user_id": pa.array([], pa.int64()),
        "event_type": pa.array([], pa.string()),
        "ts": pa.array([], pa.timestamp("us")),
        "value": pa.array([], pa.float64())}), f"{sf}/events.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([], pa.int64()), "o_custkey": pa.array([], pa.int64()),
        "o_orderpriority": pa.array([], pa.string()),
        "o_totalprice": pa.array([], pa.float64())}), f"{sf}/orders.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([], pa.int64()), "l_suppkey": pa.array([], pa.int64()),
        "l_extendedprice": pa.array([], pa.float64()),
        "l_quantity": pa.array([], pa.float64()),
        "l_discount": pa.array([], pa.float64()),
        "l_returnflag": pa.array([], pa.string()),
        "l_linestatus": pa.array([], pa.string())}), f"{sf}/lineitem.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([], pa.int64()),
        "c_mktsegment": pa.array([], pa.string())}), f"{sf}/customer.parquet")
    con = duckdb.connect()
    for t in ("events", "orders", "lineitem", "customer"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    for name in ("funnel_stages", "asof_join", "order_lineitem_join",
                 "skew_join", "semi_bloom", "quantile_price",
                 "quantile_price_cont", "graph_rank", "window_funcs",
                 "sessionize", "customer_order_totals", "orders_no_lineitem"):
        r = e.queries()[name](sf)
        got = r.to_pandas() if not isinstance(r, pd.DataFrame) else r
        want = con.execute(e.oracle_sql()[name]).df()
        assert got.shape[0] == want.shape[0], (name, got.shape, want.shape)
    # the quantile contract: one row per q, NULL value
    qp = e.queries()["quantile_price"]("/" + sf.lstrip("/")).to_pandas()
    assert len(qp) == 6 and qp["value"].isna().all()


def test_jaccard_twins_keep_columns_with_no_pair(ray_session, tmp_path):
    """A corpus whose documents share no shingle: no pair passes the
    threshold, and both exact-Jaccard twins still return the oracle's five
    columns with its types (an empty Ray result alone has no columns)."""
    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as e

    sf = str(tmp_path)
    texts = ["aaaaaaaaaaaa", "bbbbbbbbbbbb", "cccccccccccc"]
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()), "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * 3, pa.string()), "source": pa.array(["web"] * 3, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64())}), f"{sf}/documents.parquet")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    for name in ("jaccard_exact_pairs", "jaccard_prefix_pairs"):
        got = e.queries()[name](sf).to_pandas()
        want = con.execute(e.oracle_sql()[name]).df()
        assert len(got) == len(want) == 0, name
        assert sorted(got.columns) == sorted(want.columns) == [
            "id1", "id2", "jaccard", "n_shared", "n_union"], (name, list(got.columns))
        for c in want.columns:
            assert got[c].dtype == want[c].dtype, (name, c, got[c].dtype, want[c].dtype)
