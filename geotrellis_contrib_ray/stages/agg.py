"""Keyed total reductions (fast groupby.aggregate swap-in).

Measured in this sandbox: Ray's ``groupby(keys).aggregate(...)`` sort-based
path costs ~10-15 s for ~500k rows / ~30k groups REGARDLESS of key layout
(packed single int64 key with Sum+Max: 10.5 s; 4-col key with Sum: 15.2 s —
the per-task AggregateMap/Reduce machinery dominates, not the key compare).
The same total reduction expressed as ONE shuffle over a bounded number of
key-hash groups with a vectorized lexsort + ``np.*.reduceat`` inside each
group measured ~0.26 s — 40x; here that shuffle is a one-sided
``joins._co_partition`` over key-hash buckets.

Correctness: the bucket is a pure function of the FULL key, so every row of
a given key lands in exactly one bucket and the in-bucket reduction is
total (not partial).  The bucket count is ``joins._bucket_count(ds)`` (CPUs,
raised by the input's footer rows), so the per-group python overhead of
``map_groups`` stays bounded while skew is spread by the hash.  One hot key
still fills one bucket.

At 100 TB this is the same single all-to-all as groupby.aggregate — rows
move once, keyed by hash(key) % buckets.  Callers should still
pre-aggregate per batch upstream when the reduction collapses rows (same
rule as everywhere else).

Ops: sum / min / max / count / first; ``carry`` columns must be pure
functions of the key (constant within each group; first value is taken).
Key columns may be int/uint/float64 or utf8.  Integer key columns must be
NON-NULL (a nullable int degrades to float64 through numpy, changing the
output dtype — driver_group_rollup refuses such keys loudly); null keys in
string/float columns group together, matching groupby(dropna=False).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import as_array

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _col_hash(arr: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """Vectorized uint64 hash of one key column (no python per row)."""
    arr = as_array(arr)
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        from .text import hash_utf8_array

        return hash_utf8_array(arr).view(np.uint64)
    v = arr.to_numpy(zero_copy_only=False)
    if v.dtype.kind == "f":
        # canonicalize before the bit view: -0.0 == 0.0 must hash equal,
        # and every NaN payload must land in one group
        v = v + 0.0
        v = np.where(np.isnan(v), np.nan, v)
        v = v.view(np.uint64)
        return v
    return v.astype(np.int64, copy=False).view(np.uint64)


def _hash_route(cols: list[str], keys: list[str], n: int):
    """The keyed route of ``joins._co_partition``: project ``cols`` and
    bucket every row on the multi-key hash of ``keys`` (``_col_hash``:
    -0.0/NaN canonicalised, strings FNV) mod ``n``.  Every row of one key
    tuple lands in one bucket."""
    def route(b: pa.Table) -> pa.Table:
        h = np.zeros(len(b), dtype=np.uint64)
        for k in keys:
            h = (h * _MIX) ^ _col_hash(b[k])
        return b.select(cols).append_column(
            "_bucket", pa.array((h % np.uint64(n)).astype(np.int64)))

    return route


def _keyed_buckets(ds, keys: list[str], cols: list[str], kernel, per_row: int = 1):
    """The one-sided keyed co-partition: the rows of ``ds`` (projected to
    ``cols``) routed on the hash of ``keys`` (``_hash_route``) into
    ``joins._bucket_count(ds, per_row)`` buckets; ``kernel`` gets the Arrow
    rows of each bucket, every row of a key tuple in one."""
    from .joins import _bucket_count, _co_partition

    return _co_partition([(ds, _hash_route(cols, keys, _bucket_count(ds, per_row)))], kernel)


def _sort_codes(vals: np.ndarray) -> np.ndarray:
    """int sort codes for one key column.  Nulls group TOGETHER (one code),
    matching Ray's groupby().aggregate(): pandas factorize handles None in
    object columns and NaN in float columns as a single group — np.unique
    would crash on None-vs-str comparison, and raw float codes would keep
    every NaN row separate (NaN != NaN)."""
    if vals.dtype == object or vals.dtype.kind in "US" or (
        vals.dtype.kind == "f" and np.isnan(vals.astype(np.float64, copy=False)).any()
    ):
        import pandas as pd

        codes, _ = pd.factorize(vals, use_na_sentinel=False)
        return codes
    return vals


def _default_shuffle_partitions() -> int:
    """Block count a wide op's input is narrowed to: ~half the cluster
    CPUs, at least 8 (it counts input blocks; joins.default_join_partitions
    counts key buckets)."""
    from ..util import cluster_cpus

    return max(8, cluster_cpus(default=8) // 2)


_OPS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def _reduce_columns(get, keys: list[str],
                    aggs: list[tuple[str | None, str, str]],
                    carry: tuple[str, ...] = ()) -> pa.Table:
    """One total in-memory group-reduce: ``get(col) -> np.ndarray``.
    Vectorized lexsort + reduceat; shared by the salted shuffle tier and
    the driver-combine tier."""
    kvals = [get(k) for k in keys]
    codes = [_sort_codes(v) for v in kvals]
    order = np.lexsort(tuple(reversed(codes)))
    n = len(order)
    if n == 0:
        # typed empty result (change[0] below would IndexError); output
        # dtypes come from the same out_col path as the non-empty case
        st = np.zeros(0, dtype=np.int64)
        lens = np.zeros(0, dtype=np.int64)
    else:
        sorted_codes = [c[order] for c in codes]
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for c in sorted_codes:
            change[1:] |= c[1:] != c[:-1]
        st = np.nonzero(change)[0]
        lens = np.diff(np.r_[st, n])

    def out_col(vals):
        picked = vals[order][st]
        if picked.dtype == object or picked.dtype.kind in "US":
            return pa.array(picked.astype(object), pa.string())
        return pa.array(picked)

    cols: dict[str, pa.Array] = {k: out_col(v) for k, v in zip(keys, kvals)}
    for c in carry:
        cols[c] = out_col(get(c))
    for src, op, alias in aggs:
        if op == "count":
            cols[alias] = pa.array(lens.astype(np.int64))
        elif op == "first":
            cols[alias] = out_col(get(src))
        else:
            v = get(src)[order]
            if n == 0:
                # reduceat on an empty index array raises; keep the dtype
                cols[alias] = pa.array(v[:0])
            else:
                cols[alias] = pa.array(_OPS[op].reduceat(v, st))
    return pa.table(cols)


def driver_group_rollup(ds, keys: list[str],
                        aggs: list[tuple[str | None, str, str]],
                        *, carry: tuple[str, ...] = (),
                        max_partial_rows: int = 4_000_000,
                        schema: "pa.Schema | None" = None,
                        stats_sink: dict | None = None) -> pa.Table:
    """FINAL-rollup tier for bounded group counts: combine per-block partial
    rows on the driver, with NO all-to-all at all.

    Input contract: ``ds`` rows are already per-block partials (each block
    group-reduced inside the upstream ``map_batches``), so the stream is at
    most ``blocks x groups`` rows.  This is the classic global-aggregate
    tree-combine — Ray's own global ``.sum()`` funnels partials to one task
    the same way — and beats a sort-shuffle ``groupby.aggregate`` by its
    entire fixed cost (~2.5 s per wide step here) when the group count is a
    small constant (returnflags, priorities, langs...).

    At 100 TB the driver still only touches blocks x groups rows; the
    ``max_partial_rows`` guard trips if a caller misuses it for an unbounded
    key (use :func:`salted_group_reduce` there instead).

    ``aggs`` ops are the COMBINE ops (a partial ``count`` combines as
    ``sum``).  Returns a pyarrow.Table with dtypes preserved.
    """
    import ray

    # materialize() then pull block refs: to_arrow_refs() on the lazy plan
    # ends in schema(fetch_if_missing=True), and Ray cannot type a
    # map_batches output, so it runs the whole plan a second time under
    # limit(1) (~1-1.8 s slower here); summarize_tiles materializes for the
    # same reason
    mat = ds.materialize()
    if stats_sink is not None:
        # the upstream plan's per-operator stats are only reachable here —
        # the caller gets back a plain Table (benchmarks read this to report
        # the real stage breakdown instead of the FromArrow wrapper's)
        stats_sink["stats"] = mat.stats()
    tables = [t for t in ray.get(mat.to_arrow_refs()) if t.num_rows]
    if not tables:
        # typed empty result; a BLOCK-LESS materialized dataset (rd.range(0)
        # upstream) returns schema() None — callers with such upstreams pass
        # ``schema`` (the PARTIAL's schema) so key dtypes survive; the final
        # int64 fallback is for unknown agg aliases only
        s = schema if schema is not None else mat.schema()
        names = list(keys) + list(carry) + [a for _, _, a in aggs]
        t = dict(zip(s.names, s.types)) if s is not None and getattr(s, "names", None) else {}
        return pa.schema([(n, t.get(n, pa.int64())) for n in names]).empty_table()
    part = pa.concat_tables(tables)
    if part.num_rows > max_partial_rows:
        raise ValueError(
            f"driver_group_rollup collected {part.num_rows} partial rows — "
            "group count is not bounded; use salted_group_reduce")

    def get(c):
        col = part[c]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if c in keys and pa.types.is_integer(arr.type) and arr.null_count:
            # to_numpy on a nullable int column degrades to float64+NaN and
            # the output key dtype silently changes — refuse loudly instead
            # (the "dtypes preserved" contract; string/float keys group
            # nulls fine via the factorize path in _sort_codes)
            raise ValueError(
                f"driver_group_rollup key column {c!r} is integer with "
                "nulls — fill or cast it before the rollup (int keys must "
                "be non-null to preserve the output dtype)")
        return arr.to_numpy(zero_copy_only=False)

    return _reduce_columns(get, keys, aggs, carry)


def salted_group_reduce(ds, keys: list[str],
                        aggs: list[tuple[str | None, str, str]],
                        *, carry: tuple[str, ...] = ()):
    """groupby(keys) total reduction via one keyed co-partition.

    ``aggs``: (source_col, op, alias) with op in sum|min|max|count|first
    (source_col is ignored for count).  ``carry``: columns constant within
    each key group, passed through (first value).  Returns a Dataset with
    columns keys + carry + aliases; dtypes are preserved (int sums stay
    int64, strings stay utf8 — empty results keep utf8 via explicit types).

    The rows are routed on the multi-key hash (``_hash_route``) to
    ``joins._bucket_count(ds)`` buckets of ``joins._co_partition``, which
    sizes the shuffle (or runs one narrow task); ``_reduce_columns`` is a
    total reduce across every key of its input, so each bucket is one
    vectorized call with no per-key loop.
    """
    srcs = [s for s, op, _ in aggs if s is not None and op != "count"]
    cols = list(dict.fromkeys([*keys, *carry, *srcs]))

    def reduce_bucket(t: pa.Table) -> pa.Table:
        return _reduce_columns(lambda c: t[c].to_numpy(), keys, aggs, carry)

    return _keyed_buckets(ds, keys, cols, reduce_bucket)


def _map_key_groups(ds, keys: list[str], cols: list[str], kernel, per_row: int = 1):
    """Ray's ``groupby(keys)`` + per-group ``kernel`` as one keyed
    co-partition: the rows (projected to ``cols``) are routed on the hash
    of ``keys`` (``_hash_route``) and ``kernel`` gets the Arrow rows of
    every distinct key tuple of a bucket (``joins._by_key``; NULL keys
    form one group).  Its outputs in one bucket must share one schema.
    ``per_row``: the row factor of the maps that made ``ds`` from its leaf
    (``joins._bucket_count``)."""
    from .joins import _by_key

    def per_bucket(t: pa.Table) -> pa.Table:
        return pa.concat_tables(list(_by_key(t, kernel, keys)))

    per_bucket.__name__ = kernel.__name__  # the stats' op label
    return _keyed_buckets(ds, keys, cols, per_bucket, per_row)


def _finalize_subtotals(reduced, upstream, keys: list[str], value_col: str | None,
                        total_label: str, has_grand_total: bool,
                        value_type: "pa.DataType | None") -> pa.Table:
    """Pull the subtotal table to the driver as an EAGER ``pa.Table`` (not a
    lazy Dataset) and restore the SQL GROUPING SETS contract on EMPTY input.

    Bounded-group contract: every subtotal row lands on the driver, so the
    keys must be low-cardinality (langs, sources, flags — the product of the
    per-level distinct keys is the row count).  For an unbounded key use
    :func:`salted_group_reduce` and keep the result distributed.

    Empty input: the () grouping set emits one row even over zero rows —
    count 0 and a NULL sum (SQL SUM over nothing is NULL) — while a
    zero-block upstream produces nothing at all.  The empty sum's type is
    ``value_type`` if given, else the Arrow sum type of the ``upstream``
    value column when Ray knows that schema without running the plan (a
    parquet read, from the footer), else int64.  Behind a UDF map or
    filter, or over an empty ``from_arrow``, Ray only learns the schema by
    executing the plan again, a full second pass when the result is empty,
    so it is never fetched: such callers pass ``empty_sum_type`` for a
    non-integer column.  On non-empty input every
    batch emits the () row, so this is a no-op."""
    tables = [t for t in reduced.iter_batches(batch_size=None,
                                              batch_format="pyarrow")]
    names = keys + ["n"] + ([f"sum_{value_col}"] if value_col else [])
    if tables:
        return pa.concat_tables(tables).select(names)
    if value_col and value_type is None:
        up = upstream.schema(fetch_if_missing=False)
        vt = (up.types[up.names.index(value_col)]
              if up is not None and value_col in up.names else None)
        if isinstance(vt, pa.DataType):
            value_type = pc.sum(pa.array([], vt)).type
    fields = [(k, pa.string()) for k in keys] + [("n", pa.int64())]
    if value_col:
        fields.append((f"sum_{value_col}",
                       value_type if value_type is not None else pa.int64()))
    schema = pa.schema(fields)
    if not has_grand_total:
        return schema.empty_table()
    cols = {k: pa.array([total_label], pa.string()) for k in keys}
    cols["n"] = pa.array([0], pa.int64())
    if value_col:
        cols[f"sum_{value_col}"] = pa.array(
            [None], value_type if value_type is not None else pa.int64())
    return pa.table({n: cols[n] for n in names})


def rollup_counts(ds, keys: list[str], value_col: str | None = None,
                  total_label: str = "__all__",
                  empty_sum_type: "pa.DataType | None" = None):
    """GROUPING-SETS rollup — the warehouse subtotal op: counts (and an
    optional value sum) for every PREFIX of ``keys``: (k1, k2, ..., kn),
    (k1, ..., k(n-1)), ..., (k1), ().  Coarser levels replace the rolled-up
    key with ``total_label`` (Arrow groupbys drop null keys; a sentinel
    keeps every subtotal row addressable and matches the twin's coalesce).

    ONE shuffle: each batch pre-aggregates every level locally (n+1 tiny
    group_bys over the already-reduced finest level), the tagged rows ride
    one keyed reduce.  Returns an eager driver-side ``pa.Table``:
    keys..., n (count)[, sum_<value_col>] — keys must be low-cardinality
    (the bounded-group contract of :func:`_finalize_subtotals`, which also
    types the empty-input sum; ``empty_sum_type`` overrides it)."""
    aggs = [([], "count_all")] if value_col is None else [([], "count_all"), (value_col, "sum")]

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # the total_label sentinel is a string: non-string key columns would
        # make coarser levels string-typed while the finest keeps the native
        # type, and pa.concat_tables raises a confusing mixed-schema error —
        # fail with the actual contract instead (cast keys upstream)
        for k in keys:
            kt = b.schema.field(k).type
            if not (pa.types.is_string(kt) or pa.types.is_large_string(kt)):
                raise TypeError(
                    f"rollup_counts requires string-typed key columns (the "
                    f"'{total_label}' subtotal sentinel is a string); column "
                    f"{k!r} is {kt} — cast it before the rollup")
        sel = keys + ([value_col] if value_col else [])
        finest = (b.select(sel).group_by(keys, use_threads=False)
                  .aggregate(aggs))
        names = keys + ["pn"] + (["ps"] if value_col else [])
        finest = finest.rename_columns(names)
        outs = [finest]
        cur = finest
        for lvl in range(len(keys) - 1, -1, -1):
            gk = keys[:lvl]
            sub_aggs = [("pn", "sum")] + ([("ps", "sum")] if value_col else [])
            if gk:
                g = cur.group_by(gk, use_threads=False).aggregate(sub_aggs)
                g = g.rename_columns(gk + ["pn"] + (["ps"] if value_col else []))
            else:
                cols = {"pn": pa.array([int(pc.sum(cur["pn"]).as_py() or 0)], pa.int64())}
                if value_col:
                    # keep the grand-total ps in the FINEST level's column
                    # type: `as_py() or 0` would coerce a float 0.0 sum to
                    # int 0 and split the concat schema int64-vs-float64
                    ps_type = cur.schema.field("ps").type
                    s = pc.sum(cur["ps"]).as_py()
                    cols["ps"] = pa.array([0 if s is None else s], ps_type)
                g = pa.table(cols)
            for k in keys[lvl:]:
                g = g.append_column(k, pa.array([total_label] * len(g), pa.string()))
            outs.append(g.select(keys + ["pn"] + (["ps"] if value_col else [])))
            cur = outs[-1] if gk else cur
        aligned = [t.select(keys + ["pn"] + (["ps"] if value_col else [])) for t in outs]
        return pa.concat_tables(aligned)

    specs = [("pn", "sum", "n")] + ([("ps", "sum", f"sum_{value_col}")] if value_col else [])
    reduced = salted_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        keys, specs)
    return _finalize_subtotals(reduced, ds, keys, value_col, total_label,
                               has_grand_total=True, value_type=empty_sum_type)


def grouping_sets_counts(ds, keys: list[str], sets: list[tuple[str, ...]],
                         value_col: str | None = None,
                         total_label: str = "__all__",
                         empty_sum_type: "pa.DataType | None" = None):
    """General GROUPING SETS / CUBE — :func:`rollup_counts` restricted to
    key PREFIXES, generalized to ANY list of key subsets (``CUBE(a, b)`` =
    all four subsets).  Same one-shuffle plan: each batch reduces to the
    finest level once, every requested set aggregates FROM that finest
    local partial (any subset is derivable from it), rolled-up keys get the
    string sentinel, and all tagged rows ride one keyed reduce.

    ``sets`` must be unique subsets of ``keys`` (duplicates would
    double-count).  Same string-key contract as rollup_counts (the sentinel
    is a string).  Returns an eager driver-side ``pa.Table``: keys..., n[,
    sum_<value_col>], under the same bounded-group and empty-sum rules."""
    seen = set()
    for st in sets:
        t = tuple(k for k in keys if k in st)
        if set(st) - set(keys):
            raise ValueError(f"grouping set {st} has keys outside {keys}")
        if t in seen:
            raise ValueError(f"duplicate grouping set {st}")
        seen.add(t)
    aggs = [([], "count_all")] if value_col is None else [([], "count_all"), (value_col, "sum")]

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        for k in keys:
            kt = b.schema.field(k).type
            if not (pa.types.is_string(kt) or pa.types.is_large_string(kt)):
                raise TypeError(
                    f"grouping_sets_counts requires string-typed key columns "
                    f"(the {total_label!r} sentinel is a string); column "
                    f"{k!r} is {kt} — cast it before the rollup")
        sel = keys + ([value_col] if value_col else [])
        finest = (b.select(sel).group_by(keys, use_threads=False)
                  .aggregate(aggs))
        finest = finest.rename_columns(keys + ["pn"] + (["ps"] if value_col else []))
        out_cols = keys + ["pn"] + (["ps"] if value_col else [])
        sub_aggs = [("pn", "sum")] + ([("ps", "sum")] if value_col else [])
        outs = []
        for st in sets:
            gk = [k for k in keys if k in st]
            if len(gk) == len(keys):
                g = finest
            elif gk:
                g = finest.group_by(gk, use_threads=False).aggregate(sub_aggs)
                g = g.rename_columns(gk + ["pn"] + (["ps"] if value_col else []))
            else:
                cols = {"pn": pa.array(
                    [int(pc.sum(finest["pn"]).as_py() or 0)], pa.int64())}
                if value_col:
                    ps_type = finest.schema.field("ps").type
                    s = pc.sum(finest["ps"]).as_py()
                    cols["ps"] = pa.array([0 if s is None else s], ps_type)
                g = pa.table(cols)
            for k in keys:
                if k not in gk:
                    g = g.append_column(
                        k, pa.array([total_label] * len(g), pa.string()))
            outs.append(g.select(out_cols))
        return pa.concat_tables(outs)

    specs = [("pn", "sum", "n")] + ([("ps", "sum", f"sum_{value_col}")] if value_col else [])
    reduced = salted_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        keys, specs)
    return _finalize_subtotals(reduced, ds, keys, value_col, total_label,
                               has_grand_total=(() in (tuple(
                                   k for k in keys if k in st) for st in sets)),
                               value_type=empty_sum_type)


def pivot_counts(ds, row_key: str, col_key: str, categories: list[str],
                 prefix: str = "n_", other_alias: str = "other") -> pa.Table:
    """Wide pivot — one row per ``row_key`` value, one count column per
    listed ``col_key`` category plus an ``other`` bucket (the warehouse
    crosstab: SUM(CASE WHEN col=cat THEN 1 ELSE 0 END) per category).

    NULL ``col_key`` counts NOWHERE (neither a category nor other),
    matching the SQL CASE/NOT-IN twin's null semantics.  Scale shape: the
    category list is a fixed parameter and row_key is bounded (langs,
    segments), so each batch reduces to <= |row_key| partial rows via ONE
    Arrow group_by over int64 indicators and the driver combines partials —
    ZERO all-to-all (driver_group_rollup tier rule).

    Returns pa.Table: row_key, {prefix}{cat}..., {prefix}{other_alias},
    sorted by row_key."""
    from ..util import strip_schema_metadata

    aliases = [f"{prefix}{c}" for c in categories] + [f"{prefix}{other_alias}"]

    def partial(b: pa.Table) -> pa.Table:
        b = strip_schema_metadata(b)
        col = as_array(b[col_key])
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        matched = np.zeros(len(b), dtype=bool)
        ind = {}
        for c, alias in zip(categories, aliases):
            m = pc.fill_null(pc.equal(col, c), False).to_numpy(
                zero_copy_only=False).astype(bool)
            ind[alias] = m.astype(np.int64)
            matched |= m
        ind[aliases[-1]] = (valid & ~matched).astype(np.int64)
        t = pa.table({row_key: b[row_key], **{a: pa.array(v) for a, v in ind.items()}})
        g = t.group_by(row_key, use_threads=False).aggregate(
            [(a, "sum") for a in aliases])
        return g.rename_columns([row_key] + aliases)

    out = driver_group_rollup(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        [row_key], [(a, "sum", a) for a in aliases])
    return out.sort_by(row_key)


def key_set_ops(ds, key: str, in_a_expr, in_b_expr) -> pa.Table:
    """Distinct-key EXCEPT / INTERSECT between two row predicates over ONE
    corpus scan: per-batch, each key group reduces to (key, max(in_a),
    max(in_b)) int64 flags; the bounded-group driver rollup max-combines
    them; the driver emits (key, op) rows for op in {'except','intersect'}
    (except = in A, not in B; intersect = in both).

    ``in_a_expr`` / ``in_b_expr``: callables batch -> boolean np.ndarray.
    Key count must be bounded (langs, segments) — the driver tier rule."""
    from ..util import strip_schema_metadata

    def partial(b: pa.Table) -> pa.Table:
        b = strip_schema_metadata(b)
        a = np.asarray(in_a_expr(b), dtype=bool)
        bb = np.asarray(in_b_expr(b), dtype=bool)
        t = pa.table({key: b[key],
                      "_a": pa.array(a.astype(np.int64)),
                      "_b": pa.array(bb.astype(np.int64))})
        g = t.group_by(key, use_threads=False).aggregate(
            [("_a", "max"), ("_b", "max")])
        return g.rename_columns([key, "_a", "_b"])

    flags = driver_group_rollup(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        [key], [("_a", "max", "_a"), ("_b", "max", "_b")])
    ka = flags[key].to_numpy(zero_copy_only=False)
    fa = flags["_a"].to_numpy(zero_copy_only=False).astype(bool)
    fb = flags["_b"].to_numpy(zero_copy_only=False).astype(bool)

    def nsort(v):
        # a NULL key is one distinct value in SQL set ops (EXCEPT/INTERSECT
        # treat NULLs as equal) — keep it, sorting None last
        return np.array(sorted(v, key=lambda x: (x is None, x)), dtype=object)

    exc = nsort(ka[fa & ~fb].astype(object))
    inter = nsort(ka[fa & fb].astype(object))
    return pa.table({
        key: pa.array(np.concatenate([exc, inter]).astype(object), pa.string()),
        "op": pa.array(["except"] * len(exc) + ["intersect"] * len(inter),
                       pa.string()),
    })
