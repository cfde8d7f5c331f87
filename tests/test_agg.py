"""Parity tests for stages/agg.py salted_group_reduce vs pandas groupby."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from geotrellis_contrib_ray.stages.agg import salted_group_reduce


def _run(ds_table, keys, aggs, **kw):
    """salted_group_reduce over ``ds_table`` behind a map (always the
    shuffle) and as a plan leaf (``from_arrow``: the one-task tier at one
    CPU); both inputs must give the same rows, which are returned."""
    import ray

    leaf = ray.data.from_arrow(ds_table)
    mapped = leaf.map_batches(lambda b: b, batch_format="pyarrow", zero_copy_batch=True)
    got, got_leaf = (salted_group_reduce(ds, keys, aggs, **kw).to_pandas()
                     .sort_values(keys).reset_index(drop=True) for ds in (mapped, leaf))
    pd.testing.assert_frame_equal(got, got_leaf)
    return got


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_salted_reduce_matches_pandas_int_keys(ray_session, seed):
    rng = np.random.default_rng(seed)
    n = 5000
    t = pa.table({
        "k1": rng.integers(-50, 50, n),
        "k2": rng.integers(0, 7, n),
        "v": rng.integers(-1000, 1000, n),
        "f": rng.normal(size=n),
    })
    got = _run(t, ["k1", "k2"],
               [("v", "sum", "vs"), ("v", "min", "vmin"), ("v", "max", "vmax"),
                (None, "count", "cnt"), ("f", "max", "fmax")])
    got = got.sort_values(["k1", "k2"]).reset_index(drop=True)
    df = t.to_pandas()
    exp = (df.groupby(["k1", "k2"], as_index=False)
           .agg(vs=("v", "sum"), vmin=("v", "min"), vmax=("v", "max"),
                cnt=("v", "size"), fmax=("f", "max"))
           .sort_values(["k1", "k2"]).reset_index(drop=True))
    assert got["k1"].tolist() == exp["k1"].tolist()
    assert got["k2"].tolist() == exp["k2"].tolist()
    assert got["vs"].tolist() == exp["vs"].tolist()
    assert got["vmin"].tolist() == exp["vmin"].tolist()
    assert got["vmax"].tolist() == exp["vmax"].tolist()
    assert got["cnt"].tolist() == exp["cnt"].tolist()
    assert np.allclose(got["fmax"], exp["fmax"])
    # dtypes preserved: int sums stay int64
    assert got["vs"].dtype == np.int64 and got["cnt"].dtype == np.int64


def test_salted_reduce_string_keys_and_carry(ray_session):
    rng = np.random.default_rng(3)
    n = 2000
    langs = np.array(["en", "de", "fr", "es", "und"])[rng.integers(0, 5, n)]
    src = (rng.integers(0, 10, n) * 7 + 3).astype(np.int64)  # carry = f(key)?
    # make carry a pure function of the key
    key_id = rng.integers(0, 20, n)
    carry = key_id * 11 + 1
    t = pa.table({
        "lang": pa.array(langs.astype(object), pa.string()),
        "kid": pa.array(key_id),
        "car": pa.array(carry),
        "v": pa.array(src),
    })
    got = _run(t, ["lang", "kid"], [("v", "sum", "vs")], carry=("car",))
    got = got.sort_values(["lang", "kid"]).reset_index(drop=True)
    df = t.to_pandas()
    exp = (df.groupby(["lang", "kid"], as_index=False)
           .agg(car=("car", "first"), vs=("v", "sum"))
           .sort_values(["lang", "kid"]).reset_index(drop=True))
    assert got["lang"].tolist() == exp["lang"].tolist()
    assert got["kid"].tolist() == exp["kid"].tolist()
    assert got["car"].tolist() == exp["car"].tolist()
    assert got["vs"].tolist() == exp["vs"].tolist()
    # string key column stays utf8
    assert got["lang"].dtype == object


def test_salted_reduce_single_group_and_negative_values(ray_session):
    t = pa.table({"k": pa.array([5] * 100, pa.int64()),
                  "v": pa.array(list(range(-50, 50)), pa.int64())})
    got = _run(t, ["k"], [("v", "min", "mn"), ("v", "max", "mx"),
                          (None, "count", "c")])
    assert got["mn"].tolist() == [-50]
    assert got["mx"].tolist() == [49]
    assert got["c"].tolist() == [100]


def test_salted_reduce_null_and_negzero_keys(ray_session):
    """Null keys group TOGETHER (matching Ray groupby), string nulls don't
    crash, and -0.0 == 0.0 land in one group (review repros, round 2)."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages.agg import salted_group_reduce

    ds = rd.from_arrow(pa.table({
        "k": pa.array(["a", None, "a", None], pa.string()),
        "s": pa.array([1, 2, 3, 4], pa.int64()),
    }))
    out = salted_group_reduce(ds, ["k"], [("s", "sum", "s")]).to_pandas()
    got = {(r["k"] if isinstance(r["k"], str) else None): r["s"] for _, r in out.iterrows()}
    assert got == {"a": 4, None: 6}

    ds = rd.from_arrow(pa.table({
        "k": pa.array([0.0, -0.0, 1.0], pa.float64()),
        "s": pa.array([1, 2, 4], pa.int64()),
    }))
    out = salted_group_reduce(ds, ["k"], [("s", "sum", "s")]).to_pandas()
    got = dict(zip(out["k"], out["s"]))
    assert got == {0.0: 3, 1.0: 4}


def test_salted_reduce_dtypes_keep_schema(ray_session):
    """A bool value, a nullable-int value, float keys with -0.0/NaN and
    string keys with NULL vs '': every output block, over both inputs, has
    one fixed schema (a nullable int reduces to float64), NULL and '' stay
    apart, -0.0 joins 0.0 and NaNs group."""
    import ray
    import ray.data as rd

    nan = float("nan")
    t = pa.table({
        "fk": pa.array([0.0, -0.0, nan, nan, nan, 1.5, 1.5, 1.5], pa.float64()),
        "sk": pa.array(["", "", None, None, "", None, "", ""], pa.string()),
        "b": pa.array([True, False, True, True, False, False, True, False]),
        "ni": pa.array([1, None, None, 4, None, None, 7, None], pa.int64()),
    })
    aggs = [("b", "max", "bmax"), ("b", "min", "bmin"), ("ni", "sum", "nisum"),
            ("ni", "max", "nimax"), (None, "count", "n")]
    schema = pa.schema([("fk", pa.float64()), ("sk", pa.string()), ("bmax", pa.bool_()),
                        ("bmin", pa.bool_()), ("nisum", pa.float64()),
                        ("nimax", pa.float64()), ("n", pa.int64())])
    leaf = rd.from_arrow(t)
    for ds in (leaf.map_batches(lambda b: b, batch_format="pyarrow"), leaf):
        out = salted_group_reduce(ds, ["fk", "sk"], aggs).materialize()
        blocks = [b for b in ray.get(out.to_arrow_refs()) if b.num_rows]
        assert blocks and all(b.schema == schema for b in blocks)
        rows = pa.concat_tables(blocks).to_pylist()
        got = {("nan" if r["fk"] != r["fk"] else r["fk"], r["sk"]): (r["bmax"], r["bmin"], r["n"])
               for r in rows}
        assert got == {(0.0, ""): (True, False, 2), (1.5, ""): (True, False, 2),
                       (1.5, None): (False, False, 1), ("nan", ""): (False, False, 1),
                       ("nan", None): (True, True, 2)}
        # every group holds a NULL ni: its sum and max are NaN
        assert all(r["nisum"] != r["nisum"] and r["nimax"] != r["nimax"] for r in rows)


def test_reduce_columns_empty_table(ray_session):
    """Regression (ADVICE r2): a 0-row input must return a typed empty
    table, not IndexError."""
    from geotrellis_contrib_ray.stages.agg import _reduce_columns

    data = {"k": np.zeros(0, np.int64), "v": np.zeros(0, np.float64),
            "s": np.array([], object)}
    out = _reduce_columns(lambda c: data[c], ["k"],
                          [("v", "sum", "total"), (None, "count", "n"),
                           ("s", "first", "first_s")])
    assert out.num_rows == 0
    assert out.schema.field("k").type == pa.int64()
    assert out.schema.field("total").type == pa.float64()
    assert out.schema.field("n").type == pa.int64()


def test_driver_rollup_refuses_nullable_int_keys(ray_session):
    """Regression (ADVICE r2): nullable int keys silently degraded to
    float64 through numpy — now refused loudly."""
    import pytest
    import ray.data as rd

    from geotrellis_contrib_ray.stages.agg import driver_group_rollup

    t = pa.table({"k": pa.array([1, None, 2], pa.int64()),
                  "v": pa.array([1, 2, 3], pa.int64())})
    with pytest.raises(ValueError, match="integer with"):
        driver_group_rollup(rd.from_arrow(t), ["k"], [("v", "sum", "s")])


def test_rollup_counts_levels(ray_session):
    """Rollup emits every key-prefix level with correct subtotal arithmetic
    and the sentinel label on rolled-up keys."""
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.agg import rollup_counts

    t = pa.table({
        "a": pa.array(["x", "x", "x", "y"], pa.string()),
        "b": pa.array(["p", "p", "q", "p"], pa.string()),
        "v": pa.array([1, 2, 4, 8], pa.int64()),
    })
    out = (rollup_counts(rd.from_arrow(t), ["a", "b"], value_col="v")
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    got = {(r.a, r.b): (int(r.n), int(r.sum_v)) for r in out.itertuples()}
    assert got[("x", "p")] == (2, 3)
    assert got[("x", "q")] == (1, 4)
    assert got[("y", "p")] == (1, 8)
    assert got[("x", "__all__")] == (3, 7)
    assert got[("y", "__all__")] == (1, 8)
    assert got[("__all__", "__all__")] == (4, 15)
    assert len(got) == 6


def test_rollup_counts_float_zero_sum_and_key_typing(ray_session):
    """r5 ADVICE: a float value column whose batch sum is exactly 0.0 must
    keep the grand-total level float64 (the old `or 0` coerced it to int and
    split the concat schema), and non-string keys fail fast with the actual
    contract instead of a mixed-schema concat error."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from geotrellis_contrib_ray.stages.agg import rollup_counts

    t = pa.table({
        "a": pa.array(["x", "x"], pa.string()),
        "v": pa.array([1.5, -1.5], pa.float64()),
    })
    out = rollup_counts(rd.from_arrow(t), ["a"], value_col="v").to_pandas()
    got = {r.a: (int(r.n), float(r.sum_v)) for r in out.itertuples()}
    assert got == {"x": (2, 0.0), "__all__": (2, 0.0)}

    bad = pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "v": pa.array([1.0, 2.0], pa.float64()),
    })
    with pytest.raises(Exception) as ei:
        rollup_counts(rd.from_arrow(bad), ["k"], value_col="v").to_pandas()
    assert "string-typed key columns" in str(ei.value)


def test_subtotals_empty_float_keeps_float_sum(ray_session, tmp_path):
    """An empty float value column keeps a float (NULL) grand-total sum: the
    empty-input sum type comes from the upstream schema (here the parquet
    footer, known without running the plan), not an int64 default; an
    explicit ``empty_sum_type`` still wins."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from geotrellis_contrib_ray.stages.agg import grouping_sets_counts, rollup_counts

    def read(vtype):
        path = str(tmp_path / f"empty-{vtype}.parquet")
        pq.write_table(pa.table({"a": pa.array([], pa.string()), "b": pa.array([], pa.string()),
                                 "v": pa.array([], vtype)}), path)
        return rd.read_parquet(path)

    for out in (rollup_counts(read(pa.float32()), ["a", "b"], value_col="v"),
                grouping_sets_counts(read(pa.float32()), ["a", "b"],
                                     sets=[("a",), ()], value_col="v")):
        assert out.schema.field("sum_v").type == pa.float64()
        assert out.to_pylist() == [{"a": "__all__", "b": "__all__", "n": 0, "sum_v": None}]
    ints = rollup_counts(read(pa.int32()), ["a"], value_col="v")
    assert ints.schema.field("sum_v").type == pa.int64()
    forced = rollup_counts(read(pa.float32()), ["a"], value_col="v",
                           empty_sum_type=pa.decimal128(12, 2))
    assert forced.schema.field("sum_v").type == pa.decimal128(12, 2)


def test_subtotals_empty_behind_udf_map_runs_upstream_once(ray_session, tmp_path):
    """The twins' shape, read_parquet -> map_batches: Ray knows the read's
    schema from the parquet footer but not the map's, and the empty-input
    path never runs the plan again to learn it.  The UDF counts its calls
    in marker files; a map that drops every row leaves the result empty."""
    import uuid

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from geotrellis_contrib_ray.stages.agg import rollup_counts
    from geotrellis_contrib_ray.util import strip_schema_metadata

    empty = pa.table({"a": pa.array([], pa.string()), "v": pa.array([], pa.float32())})
    pq.write_table(empty, str(tmp_path / "empty.parquet"))
    mapped = rd.read_parquet(str(tmp_path / "empty.parquet")).map_batches(strip_schema_metadata, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    out = rollup_counts(mapped, ["a"], value_col="v")
    assert out.to_pylist() == [{"a": "__all__", "n": 0, "sum_v": None}]
    assert out.schema.field("sum_v").type == pa.int64()
    out = rollup_counts(mapped, ["a"], value_col="v", empty_sum_type=pa.float64())
    assert out.schema.field("sum_v").type == pa.float64()

    full = pa.table({"a": ["x", "y"], "v": pa.array([1.5, 2.5], pa.float32())})
    pq.write_table(full, str(tmp_path / "full.parquet"))
    marks = tmp_path / "marks"
    marks.mkdir()

    def drop_all(b: pa.Table) -> pa.Table:
        (marks / uuid.uuid4().hex).touch()
        return b.slice(0, 0)

    def upstream():
        return rd.read_parquet(str(tmp_path / "full.parquet")).map_batches(
            drop_all, batch_format="pyarrow", batch_size=None)

    assert upstream().materialize().count() == 0
    one_pass = len(list(marks.iterdir()))
    assert one_pass > 0
    out = rollup_counts(upstream(), ["a"], value_col="v")
    assert out.to_pylist() == [{"a": "__all__", "n": 0, "sum_v": None}]
    assert len(list(marks.iterdir())) == 2 * one_pass


def test_grouping_sets_cube(ray_session):
    """CUBE(a, b): all four subsets, each derived from the local finest
    partial; non-prefix level (b alone) gets the sentinel in column a."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from geotrellis_contrib_ray.stages.agg import grouping_sets_counts

    t = pa.table({
        "a": pa.array(["x", "x", "x", "y"], pa.string()),
        "b": pa.array(["p", "p", "q", "p"], pa.string()),
        "v": pa.array([1, 2, 4, 8], pa.int64()),
    })
    out = (grouping_sets_counts(
        rd.from_arrow(t).repartition(2), ["a", "b"],
        sets=[("a", "b"), ("a",), ("b",), ()], value_col="v")
        .to_pandas())
    got = {(r.a, r.b): (int(r.n), int(r.sum_v)) for r in out.itertuples()}
    assert got[("x", "p")] == (2, 3)
    assert got[("x", "q")] == (1, 4)
    assert got[("y", "p")] == (1, 8)
    assert got[("x", "__all__")] == (3, 7)
    assert got[("y", "__all__")] == (1, 8)
    assert got[("__all__", "p")] == (3, 11)   # the non-prefix CUBE level
    assert got[("__all__", "q")] == (1, 4)
    assert got[("__all__", "__all__")] == (4, 15)
    assert len(got) == 8

    with pytest.raises(ValueError, match="duplicate"):
        grouping_sets_counts(rd.from_arrow(t), ["a", "b"],
                             sets=[("a",), ("a",)])
    with pytest.raises(ValueError, match="outside"):
        grouping_sets_counts(rd.from_arrow(t), ["a", "b"], sets=[("c",)])


def test_pivot_and_set_ops_planted_adversarial(ray_session, tmp_path):
    """pivot_lang_source + lang_set_ops vs their SQL twins on a planted
    corpus with NULL langs (count NOWHERE — SQL CASE semantics), a lang
    outside PIVOT_LANGS (other-bucket), and src0/src1 sources arranged so
    both set-op arms are non-empty."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e

    rows = [
        # (lang, source, n_chars)
        ("en", "src0", 500), ("de", "src0", 100), ("xx", "src0", 450),
        ("en", "src1", 500), ("fr", "src1", 100),  # fr fails the threshold
        (None, "src0", 300), (None, "src1", 500),  # NULL lang: nowhere
        ("zh", "web", 200), ("cs", "book", 50),    # other sources
    ]
    n = len(rows)
    t = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(["w " * 5] * n, pa.string()),
        "lang": pa.array([r[0] for r in rows], pa.string()),
        "source": pa.array([r[1] for r in rows], pa.string()),
        "n_chars": pa.array(np.array([r[2] for r in rows], np.int64)),
    })
    sf = str(tmp_path)
    pq.write_table(t, f"{sf}/documents.parquet")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    for name in ("pivot_lang_source", "lang_set_ops"):
        got = e.queries()[name](sf).to_pandas()
        exp = con.execute(e.oracle_sql()[name]).df()
        cols = sorted(got.columns)
        g = got[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
        x = exp[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
        assert g.shape == x.shape, (name, g.shape, x.shape)
        for c in cols:
            assert (g[c].to_numpy().astype(object)
                    == x[c].to_numpy().astype(object)).all(), (name, c)
    # the planted relations actually came out
    so = e.queries()["lang_set_ops"](sf).to_pandas()
    # NULL lang is in BOTH sides (src0 doc + src1 doc >= threshold), so SQL
    # INTERSECT keeps one NULL row — the Ray side must agree
    assert set(map(tuple, so.itertuples(index=False))) == {
        ("de", "except"), ("xx", "except"), ("en", "intersect"),
        (None, "intersect")}
    pv = e.queries()["pivot_lang_source"](sf).to_pandas().set_index("source")
    assert pv.loc["src0", "n_other"] == 1      # xx
    assert pv.loc["src0", ["n_en", "n_de", "n_es", "n_fr", "n_zh"]].sum() == 2
    assert int(pv["n_other"].sum()) == 2       # xx + cs; NULLs nowhere
