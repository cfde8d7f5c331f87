"""Exact distributed quantiles (stages/stats.py): percentile_disc semantics
vs numpy/DuckDB on grouped and global paths."""

import duckdb
import numpy as np
import pyarrow as pa

from geotrellis_contrib_ray.stages.stats import grouped_quantiles


def _oracle(vals, q):
    con = duckdb.connect()
    return con.execute(
        f"select quantile_disc(x, {q}) from (select unnest({list(map(int, vals))}) x)"
    ).fetchone()[0]


def test_quantiles_grouped_matches_duckdb(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(0)
    langs = np.array(["en", "fr", "de"])[rng.integers(0, 3, 500)]
    vals = rng.integers(10, 200, 500).astype(np.int64)
    t = pa.table({"lang": pa.array(langs.tolist(), pa.string()), "v": vals})
    out = (
        grouped_quantiles(rd.from_arrow(t), "v", qs=(0.25, 0.5, 0.9), group_col="lang")
        .to_pandas()
        .sort_values(["lang", "q"])
        .reset_index(drop=True)
    )
    for lang in ("en", "fr", "de"):
        sub = vals[langs == lang]
        for q in (0.25, 0.5, 0.9):
            got = out[(out["lang"] == lang) & (out["q"] == q)]["value"].iloc[0]
            assert got == _oracle(sub, q), (lang, q)


def test_quantiles_global_path(ray_session):
    import ray.data as rd

    vals = np.array([10, 20, 30, 40], dtype=np.int64)
    t = pa.table({"v": vals})
    out = grouped_quantiles(rd.from_arrow(t), "v", qs=(0.25, 0.5, 0.75, 0.9)).to_pandas()
    assert dict(zip(out["q"], out["value"])) == {0.25: 10, 0.5: 20, 0.75: 30, 0.9: 40}


def test_quantiles_duplicate_heavy(ray_session):
    import ray.data as rd

    # one dominant value: histogram collapse must still select correctly
    vals = np.r_[np.full(990, 7), np.arange(10)].astype(np.int64)
    t = pa.table({"v": vals})
    out = grouped_quantiles(rd.from_arrow(t), "v", qs=(0.5, 0.99)).to_pandas()
    got = dict(zip(out["q"], out["value"]))
    assert got[0.5] == _oracle(vals, 0.5)
    assert got[0.99] == _oracle(vals, 0.99)


def test_top_k_per_group_matches_duckdb(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.stats import top_k_per_group

    rng = np.random.default_rng(1)
    n = 400
    langs = np.array(["en", "fr", "de"])[rng.integers(0, 3, n)]
    vals = rng.integers(0, 50, n).astype(np.int64)  # many exact ties
    ids = np.arange(n, dtype=np.int64)
    t = pa.table({"lang": pa.array(langs.tolist(), pa.string()), "v": vals, "doc_id": ids})
    got = (
        top_k_per_group(rd.from_arrow(t), "lang", "v", 5, "doc_id")
        .to_pandas()
        .sort_values(["lang", "v", "doc_id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute(
        """SELECT lang, v, doc_id FROM (
             SELECT *, row_number() OVER (PARTITION BY lang ORDER BY v DESC, doc_id) rn FROM t
           ) WHERE rn <= 5 ORDER BY lang, v DESC, doc_id"""
    ).df()
    assert got["lang"].tolist() == exp["lang"].tolist()
    assert got["v"].tolist() == exp["v"].tolist()
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()


def test_top_k_per_group_bucket_count_independent(ray_session, monkeypatch):
    """Winners and their in-group ranks are the same whether every group
    shares one bucket or spreads over 97."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages import joins
    from geotrellis_contrib_ray.stages.stats import top_k_per_group

    rng = np.random.default_rng(2)
    n = 3000
    t = pa.table({
        "g": pa.array(rng.integers(0, 200, n).astype(np.int64)),
        "v": pa.array(rng.integers(0, 20, n).astype(np.int64)),  # many ties
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
    })
    outs = []
    for b in (1, 97):
        monkeypatch.setattr(joins, "_bucket_count", lambda ds, b=b: b)
        parts = [t.slice(i, 500) for i in range(0, n, 500)]  # several partial top-ks
        df = top_k_per_group(rd.from_arrow(parts), "g", "v", 3, "doc_id",
                             rank_col="rnk").to_pandas()
        outs.append(df.sort_values(["g", "rnk"]).reset_index(drop=True))
    assert len(outs[0]) == 3 * 200
    assert outs[0]["rnk"].tolist() == [1, 2, 3] * 200
    assert outs[0].equals(outs[1])


def test_hll_grouped_count_distinct_accuracy(ray_session):
    """HLL per-group distinct within ~3*stderr (1.04/sqrt(2^12) ~ 1.6%) of
    exact, across groups of very different cardinalities."""
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.stats import grouped_count_distinct_hll

    rng = np.random.default_rng(4)
    rows_g, rows_v = [], []
    truth = {}
    for g, card in ((0, 10), (1, 500), (2, 20000)):
        vals = rng.choice(10**9, card, replace=False)
        draw = rng.choice(vals, card * 3)   # duplicates included
        truth[g] = len(np.unique(draw))
        rows_g += [g] * len(draw)
        rows_v += draw.tolist()
    ds = rd.from_arrow(pa.table({
        "g": pa.array(rows_g, pa.int64()),
        "v": pa.array(rows_v, pa.int64()),
    })).repartition(5)
    out = grouped_count_distinct_hll(ds, "g", "v", p=12).to_pandas()
    got = dict(zip(out["g"], out["n_approx"]))
    for g, exact in truth.items():
        rel = abs(got[g] - exact) / exact
        assert rel < 0.05, (g, exact, got[g], rel)
    # tiny groups hit the linear-counting regime and should be near-exact
    assert abs(got[0] - truth[0]) <= 1


def test_grouped_steps_null_group_key(ray_session):
    """A NULL group key is one group, apart from '', in the quantile and
    HLL per-key steps, and keeps the key's string type; over a plan leaf
    (the one-task tier at one CPU) and behind a shuffle alike."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages.stats import (
        grouped_count_distinct_hll,
        grouped_quantiles_cont,
    )

    t = pa.table({"g": pa.array(["a", None, "a", None, "", None, "a"], pa.string()),
                  "v": pa.array([1, 5, 3, 7, 2, 9, 3], pa.int64())})
    leaf = rd.from_arrow(t)
    for ds in (leaf, leaf.repartition(3)):
        runs = {
            "disc": grouped_quantiles(ds, "v", qs=(0.5,), group_col="g"),
            "cont": grouped_quantiles_cont(ds, "v", qs=(0.5,), group_col="g"),
            "hll": grouped_count_distinct_hll(ds, "g", "v"),
        }
        got = {}
        for name, out in runs.items():
            rows = out.take_all()
            assert all(type(r["g"]) in (str, type(None)) for r in rows), name
            col = "n_approx" if name == "hll" else "value"
            got[name] = {r["g"]: r[col] for r in rows}
        assert got["disc"] == {"a": 3, None: 7, "": 2}
        assert got["cont"] == {"a": 3.0, None: 7.0, "": 2.0}
        assert got["hll"] == {"a": 2, None: 3, "": 1}


def test_exact_quantiles_unbounded_matches_duckdb(ray_session):
    """Radix-refinement quantiles over an unbounded float64 domain: exact
    quantile_disc parity incl. forced recursion (tiny pull_limit), negative
    values, duplicates, and the all-equal corpus (the bin that never
    shrinks resolves from the full order key, no pull)."""
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.stats import exact_quantiles_unbounded

    rng = np.random.default_rng(3)
    cases = {
        "mixed": np.concatenate([rng.standard_normal(5000) * 1e6,
                                 -rng.random(1000), np.repeat(3.25, 500)]),
        "all_equal": np.repeat(-7.5, 2000),
        "two_values": np.r_[np.repeat(1.0, 999), np.repeat(2.0, 1)],
    }
    qs = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
    con = duckdb.connect()
    for name, vals in cases.items():
        t = pa.table({"v": pa.array(vals, pa.float64())})
        out = exact_quantiles_unbounded(rd.from_arrow(t), "v", qs,
                                        pull_limit=64).to_pandas()
        got = dict(zip(out["q"], out["value"]))
        con.register("tv", t)
        for q in qs:
            exp = con.execute(f"SELECT quantile_disc(v, {q}) FROM tv").fetchone()[0]
            assert got[q] == exp, (name, q, got[q], exp)
        con.unregister("tv")


def test_exact_quantiles_cont_matches_formula(ray_session):
    """percentile_cont parity against a numpy replay of the shared
    interpolation expression (NOT np.quantile, whose formula may associate
    differently) on mixed data with forced radix recursion."""
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.stats import exact_quantiles_cont

    rng = np.random.default_rng(5)
    vals = np.concatenate([rng.standard_normal(3000) * 100, np.repeat(1.5, 300)])
    qs = (0.0, 0.1, 0.5, 0.9, 1.0)
    out = exact_quantiles_cont(rd.from_arrow(pa.table({"v": pa.array(vals, pa.float64())})),
                               "v", qs, pull_limit=64).to_pandas()
    got = dict(zip(out["q"], out["value"]))
    sv = np.sort(vals)
    n = len(sv)
    for q in qs:
        idx = q * (n - 1)
        lo = sv[int(np.floor(idx))]
        hi = sv[min(int(np.floor(idx)) + 1, n - 1)]
        exp = lo + (hi - lo) * (idx - np.floor(idx))
        assert got[q] == exp, (q, got[q], exp)


def test_quantile_refinement_one_scan_per_level(ray_session, monkeypatch):
    """r5 ADVICE: k unresolved quantiles in DISTINCT oversized bins must
    share one counting pass per radix level (multi-bin prefix_mask), not k
    full scans per level.  Counts distributed passes by wrapping
    salted_group_reduce, the only wide op count_level uses."""
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages import agg as aggmod
    from geotrellis_contrib_ray.stages import stats as statsmod

    rng = np.random.default_rng(11)
    # four well-separated dense clusters -> the four target quantiles land
    # in four distinct bins that each exceed pull_limit for several levels
    vals = np.concatenate([rng.uniform(lo, lo + 1e-6, 400)
                           for lo in (1.0, 100.0, 10_000.0, 1e6)])
    t = pa.table({"v": pa.array(vals, pa.float64())})

    calls = {"n": 0}
    real = aggmod.salted_group_reduce

    def counting(*a, **kw):
        calls["n"] += 1
        return real(*a, **kw)

    monkeypatch.setattr(aggmod, "salted_group_reduce", counting)
    out = statsmod.exact_quantiles_unbounded(
        rd.from_arrow(t), "v", (0.1, 0.4, 0.6, 0.9), pull_limit=16).to_pandas()
    # exact parity with the sorted array (quantile_disc: ceil(q*n) 1-based)
    sv = np.sort(vals)
    n = len(sv)
    for q, v in zip(out["q"], out["value"]):
        assert v == sv[min(max(int(np.ceil(q * n)), 1), n) - 1], (q, v)
    # 1 initial pass + <= ceil(64/16) refinement levels, NOT 1 + 4*levels
    # (>= 2 proves the patch is live and recursion actually happened)
    assert 2 <= calls["n"] <= 5, calls["n"]


def test_grouped_mode_ties_smallest_value(ray_session):
    import ray.data as rd

    # 'en': 7 appears 3x, 9 appears 3x (tie -> smallest = 7); 'fr': 4 wins
    t = pa.table({
        "lang": pa.array(["en"] * 8 + ["fr"] * 3, pa.string()),
        "v": pa.array([7, 7, 7, 9, 9, 9, 5, 8, 4, 4, 1], pa.int64()),
    })
    out = (
        __import__("geotrellis_contrib_ray.stages.stats", fromlist=["grouped_mode"])
        .grouped_mode(rd.from_arrow(t), "lang", "v")
        .to_pandas().sort_values("lang").reset_index(drop=True)
    )
    assert out["lang"].tolist() == ["en", "fr"]
    assert out["v"].tolist() == [7, 4]
    assert out["cnt"].tolist() == [3, 2]


def test_value_histogram_clamps_top_bin(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.stats import value_histogram

    x = np.array([0.5, 9.9, 10.0, 25.0, 99.0, 1000.0])  # width 10, 4 bins
    t = pa.table({"x": pa.array(x, pa.float64())})
    out = value_histogram(rd.from_arrow(t), "x", 10.0, 4).to_pandas()
    out = out.sort_values("bin").reset_index(drop=True)
    # 0: [0.5, 9.9]; 1: [10.0]; 2: [25.0]; 3 (clamped): [99.0, 1000.0]
    assert out["bin"].tolist() == [0, 1, 2, 3]
    assert out["n_rows"].tolist() == [2, 1, 1, 2]
    assert out["sum_cents"].tolist() == [1040, 1000, 2500, 109900]


def test_grouped_moments_exact_and_corr_expr(ray_session):
    import duckdb
    import ray.data as rd

    from geotrellis_contrib_ray.pipelines.query_defs import corr_sql_expr
    from geotrellis_contrib_ray.stages.stats import grouped_moments

    rng = np.random.default_rng(7)
    g = np.array(["A", "B"])[rng.integers(0, 2, 400)]
    x = rng.integers(0, 100_000, 400).astype(np.int64)
    y = (x // 1000 + rng.integers(0, 50, 400)).astype(np.int64)  # correlated
    t = pa.table({"g": pa.array(g.tolist(), pa.string()),
                  "x": pa.array(x), "y": pa.array(y)})
    out = grouped_moments(rd.from_arrow(t), "g", "x", "y").to_pandas()
    out = out.sort_values("g").reset_index(drop=True)

    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute(f"""
        WITH s AS (SELECT g, count(*) AS n_rows,
          CAST(sum(x) AS BIGINT) AS sum_x, CAST(sum(y) AS BIGINT) AS sum_y,
          CAST(sum(x*x) AS BIGINT) AS sum_xx, CAST(sum(x*y) AS BIGINT) AS sum_xy,
          CAST(sum(y*y) AS BIGINT) AS sum_yy FROM t GROUP BY g)
        SELECT *, {corr_sql_expr()} AS corr_r FROM s ORDER BY g""").df()
    for c in ["n_rows", "sum_x", "sum_y", "sum_xx", "sum_xy", "sum_yy"]:
        assert out[c].astype(np.int64).tolist() == exp[c].astype(np.int64).tolist()
    # the shared double expression must be BIT-identical, not just close
    assert out["corr_r"].values.tobytes() == exp["corr_r"].values.tobytes()
    # sanity: the planted correlation is strong
    assert (out["corr_r"] > 0.8).all()


def test_grouped_quantiles_cont_hand_case(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.stats import grouped_quantiles_cont

    t = pa.table({
        "lang": pa.array(["a", "a", "a", "a", "b"], pa.string()),
        "v": pa.array([8, 1, 4, 2, 5], pa.int64()),
    })
    out = (grouped_quantiles_cont(rd.from_arrow(t).repartition(2), "v",
                                  qs=(0.25, 0.5, 0.9), group_col="lang")
           .to_pandas().sort_values(["lang", "q"]).reset_index(drop=True))
    got = {(r.lang, r.q): r.value for r in out.itertuples()}
    # group a = [1,2,4,8]: idx=q*3 -> 0.75/1.5/2.7
    assert got[("a", 0.25)] == 1.0 + (2.0 - 1.0) * 0.75
    assert got[("a", 0.5)] == 3.0
    assert got[("a", 0.9)] == 4.0 + (8.0 - 4.0) * (2.7 - 2.0)
    # singleton group: every q returns the value itself
    for q in (0.25, 0.5, 0.9):
        assert got[("b", q)] == 5.0


def test_group_zscore_exact_and_drops(ray_session):
    import math

    import ray.data as rd

    from geotrellis_contrib_ray.stages.stats import group_zscore

    t = pa.table({
        "lang": pa.array(["en", "en", "en", "fr", "fr", "zz", None, "en"],
                         pa.string()),
        "x": pa.array([10, 20, 30, 5, 5, 7, 3, None], pa.int64()),
    })
    out = (group_zscore(rd.from_arrow(t), "lang", "x", quant_bits=20)
           .to_pandas().sort_values("x").reset_index(drop=True))
    # fr: zero variance -> dropped; zz: single row (var 0) -> dropped;
    # NULL lang and NULL value rows -> dropped
    assert out["lang"].tolist() == ["en", "en", "en"]
    # en: n=3, s1=60, s2=1400, n*s2 - s1^2 = 600
    den = math.sqrt(600.0)
    for xi, zq in zip(out["x"], out["z_q"]):
        assert zq == math.floor((3 * xi - 60) / den * 1048576.0)


def test_group_zscore_overflow_guard(ray_session):
    import pytest
    import ray.data as rd

    from geotrellis_contrib_ray.stages.stats import group_zscore

    big = 1 << 33
    t = pa.table({
        "lang": pa.array(["en", "en", "en"], pa.string()),
        "x": pa.array([big, big + 1, big + 2], pa.int64()),
    })
    with pytest.raises(Exception, match="overflow|checked"):
        group_zscore(rd.from_arrow(t), "lang", "x").to_pandas()
