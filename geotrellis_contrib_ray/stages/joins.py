"""Join strategies for the engine.

Two tiers, picked by side sizes (README scale rules):
1. broadcast — small side via ray.put, lookup inside map_batches (see
   __ray_entry__.q_orders_by_segment);
2. bucketed hash join — the DEFAULT when both sides are large: hash both
   sides into B buckets, tag the side, union, groupby(bucket) and
   Arrow-merge within the bucket.  One sort-shuffle pass per side, no extra
   actor pools; B and the optional per-key salt are the documented skew
   knobs.  B defaults to ~2x cluster CPUs (measured sweet spot — enough
   reduce parallelism without per-bucket overhead dominating).  Ray's
   native ``Dataset.join`` is not used: its aggregator-actor pool start-up
   dominates (sf0.1 lineitem x orders: bucketed b32 4.2 s vs native
   p32 25 s / p16 14 s).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def default_join_partitions(factor: int = 8, floor: int = 16, cap: int = 512) -> int:
    """Partition count for shuffle joins: ~factor x cluster CPUs, bounded.

    Measured sweep (sf0.1 lineitem x orders, 750k rows @32 CPUs): 16
    buckets 7.2 s, 32 -> 4.1, 64 -> 3.8, 128 -> 3.3, 256 -> 2.5, 512 -> 2.7
    — per-bucket reduce overhead (~1 ms python/group) stays negligible up
    to ~8x CPUs while smaller counts leave reduce slots idle."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(floor, min(cap, factor * cpus))


def bucketed_hash_join(left, right, on: str, *, buckets: int | None = None, how: str = "inner",
                       schemas: tuple | None = None,
                       left_pre_agg: dict[str, str] | None = None,
                       right_pre_agg: dict[str, str] | None = None,
                       narrow_repartition: int | bool | None = None):
    """Tier-3 portable partitioned hash join.

    Shuffle payload is both sides' projected rows exactly once; each bucket
    joins locally with an Arrow (acero) hash join — dtypes survive exactly
    (no pandas round-trip: a null-padded int64 column would otherwise come
    back float64 and break value-hash parity with SQL oracles).  Hot join
    keys can be salted by raising ``buckets`` (key -> bucket is a modular
    hash, so a single key never splits — skew-sensitive callers should
    pre-aggregate or use the broadcast tier for dimension-shaped sides).

    ``schemas=(left_schema, right_schema)``: pass the (statically known)
    Arrow schemas when a side is an expensive lazy pipeline — ``.schema()``
    on a Dataset with upstream all-to-all stages EXECUTES that upstream to
    produce its first block, so an unpassed schema can silently run the
    whole plan an extra time per join.

    ``right_pre_agg={"col": "sum"}``: the right side carries PER-BATCH
    partial-aggregate rows (possibly several per key); they are combined
    per key inside each bucket group BEFORE the merge.  This fuses the
    "groupby(key).aggregate -> join" pattern into the join's single
    shuffle — one all-to-all instead of two.  ``left_pre_agg`` is the
    symmetric knob for the left side: with BOTH set, two per-key
    aggregations AND their (full-outer/left/inner) join ride one shuffle
    instead of three.

    ``narrow_repartition``: the sort-shuffle's fixed cost scales with the
    BLOCK count of its input (measured here: the same sf0.1 join runs
    3.7 s from the readers' ~128 tagged blocks vs 1.8 s coalesced to 16),
    so the tagged union is narrowly repartitioned to ~cluster_CPUs/2
    blocks by default — same policy as agg.salted_group_reduce, and
    cluster-proportional (more nodes -> more CPUs -> more blocks).  Pass
    an int to override or ``False`` to keep the upstream block layout."""
    if buckets is None:
        buckets = default_join_partitions()

    # align schemas for the union: each side padded with typed null columns
    # for the other side's exclusive fields
    if schemas is not None:
        lschema, rschema = schemas
    else:
        lschema = left.schema()
        rschema = right.schema()
        if lschema is None or rschema is None:
            # a zero-block side with no declared schema: the inner join is
            # empty, so return the uniform zero-block empty (downstream UDFs
            # never run on zero blocks); an outer join keeps the other
            # side's rows, whose output columns are unknowable here
            if how != "inner":
                raise ValueError(
                    f"how={how!r} join with a schema-less empty side: pass schemas=")
            import ray.data as rd

            return rd.range(0)
    lcols = set(lschema.names)
    rcols = set(rschema.names)
    lonly = sorted(lcols - rcols)
    ronly = sorted(rcols - lcols)
    shared = (lcols & rcols) - {on}
    if shared:
        raise ValueError(f"rename shared non-key columns before joining: {sorted(shared)}")
    all_cols = [on] + lonly + ronly  # key first, stable order
    type_of = {}
    for name, t in zip(lschema.names, lschema.types):
        type_of[name] = t
    for name, t in zip(rschema.names, rschema.types):
        type_of.setdefault(name, t)

    if right_pre_agg is not None and sorted(right_pre_agg) != ronly:
        raise ValueError(f"right_pre_agg must cover exactly the right-only columns {ronly}")
    if left_pre_agg is not None and sorted(left_pre_agg) != lonly:
        raise ValueError(f"left_pre_agg must cover exactly the left-only columns {lonly}")

    str_key = pa.types.is_string(type_of[on]) or pa.types.is_large_string(type_of[on])

    def tag(side: int, missing: list[str]):
        def f(batch: pa.Table) -> pa.Table:
            if str_key:
                from .text import hash_utf8_array

                kh = hash_utf8_array(batch[on])
                bucket = (kh.view(np.uint64) % np.uint64(buckets)).astype(np.int64)
            else:
                keys = batch[on].to_numpy(zero_copy_only=False)
                bucket = (keys.astype(np.int64) * np.int64(2654435761)) % buckets
            cols = {}
            for c in all_cols:
                if c in missing:
                    cols[c] = pa.nulls(len(batch), type_of[c])
                else:
                    cols[c] = batch[c]
            t = pa.table(cols)
            return t.append_column("_bucket", pa.array(bucket)).append_column(
                "_side", pa.array(np.full(len(batch), side, dtype=np.int8))
            )

        return f

    tagged = left.map_batches(tag(0, ronly), batch_format="pyarrow", batch_size=None).union(
        right.map_batches(tag(1, lonly), batch_format="pyarrow", batch_size=None)
    )
    if narrow_repartition is None:
        from .agg import _default_shuffle_partitions

        narrow_repartition = _default_shuffle_partitions()
    if narrow_repartition:
        tagged = tagged.repartition(int(narrow_repartition))

    out_schema = pa.schema([(c, type_of[c]) for c in all_cols])
    # accept SQL-ish names; Arrow's acero wants the "... outer" spellings
    arrow_how = {"left": "left outer", "right": "right outer",
                 "outer": "full outer"}.get(how, how)

    def per_bucket(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        side = g["_side"]
        lg = g.filter(pc.equal(side, 0)).select([on] + lonly)
        rg = g.filter(pc.equal(side, 1)).select([on] + ronly)
        if len(lg) == 0 or len(rg) == 0:
            if how == "inner":
                return out_schema.empty_table()
        if right_pre_agg and len(rg):
            rg = rg.group_by(on, use_threads=False).aggregate(
                [(c, fn) for c, fn in right_pre_agg.items()]
            ).rename_columns([on] + [c for c in right_pre_agg])
            rg = rg.select([on] + ronly).cast(
                pa.schema([(c, type_of[c]) for c in [on] + ronly])
            )
        if left_pre_agg and len(lg):
            lg = lg.group_by(on, use_threads=False).aggregate(
                [(c, fn) for c, fn in left_pre_agg.items()]
            ).rename_columns([on] + [c for c in left_pre_agg])
            lg = lg.select([on] + lonly).cast(
                pa.schema([(c, type_of[c]) for c in [on] + lonly])
            )
        joined = lg.join(rg, keys=on, join_type=arrow_how)
        return joined.select(all_cols)

    return tagged.groupby("_bucket").map_groups(per_bucket, batch_format="pyarrow")


def asof_join(left, right, *, by: str, on: str, right_value: str, buckets: int = 32):
    """As-of join (custom operator the Dataset API lacks): for each left row,
    the latest right row of the same ``by`` key with right.on <= left.on.

    Scale shape: hash-bucket both sides on ``by`` (a key's rows never split),
    union, groupby(bucket), per-bucket ``pd.merge_asof`` over sorted frames.
    Inner semantics: left rows with no prior right row are dropped — matches
    ``ASOF JOIN`` in SQL.  Partitioning assumption: one bucket's rows fit a
    worker (raise ``buckets`` for skewed key spaces)."""
    rschema = right.schema()
    if rschema is None:
        # zero-block right side: inner ASOF semantics make the result empty
        import ray.data as rd

        return rd.range(0)
    rv_type = dict(zip(rschema.names, rschema.types))[right_value]
    rv_dtype = rv_type.to_pandas_dtype()

    def tag(side: int):
        def f(batch: pa.Table) -> pa.Table:
            keys = batch[by].to_numpy(zero_copy_only=False)
            bucket = (keys.astype(np.int64) * np.int64(2654435761)) % buckets
            cols = {by: batch[by], on: batch[on]}
            if side == 1:
                cols[right_value] = batch[right_value]
            else:
                cols[right_value] = pa.nulls(len(batch), rv_type)
            t = pa.table(cols)
            return t.append_column("_bucket", pa.array(bucket)).append_column(
                "_side", pa.array(np.full(len(batch), side, dtype=np.int8))
            )

        return f

    tagged = left.map_batches(tag(0), batch_format="pyarrow", batch_size=None).union(
        right.map_batches(tag(1), batch_format="pyarrow", batch_size=None)
    )
    from .agg import _default_shuffle_partitions

    tagged = tagged.repartition(_default_shuffle_partitions())

    def per_bucket(g):
        import pandas as pd

        lg = g[g["_side"] == 0][[by, on]].sort_values(on, kind="mergesort")
        rg = g[g["_side"] == 1][[by, on, right_value]].sort_values(on, kind="mergesort")
        if len(lg) == 0 or len(rg) == 0:
            return pd.DataFrame(
                {
                    by: pd.Series([], dtype=np.int64),
                    on: pd.Series([], dtype=np.int64),
                    right_value: pd.Series([], dtype=rv_dtype),
                }
            )
        # track matched-ness with an indicator, NOT value nullness: a
        # matched right row whose value is legitimately NaN/null must
        # survive (SQL ASOF JOIN keeps it with the NULL value)
        rg = rg.assign(_matched=np.int8(1))
        out = pd.merge_asof(lg, rg, on=on, by=by)
        out = out[out["_matched"].notna()]
        vals = out[right_value]
        if vals.isna().any() and np.issubdtype(np.dtype(rv_dtype), np.integer):
            # matched-but-NULL integer values: nullable Int64 -> Arrow null
            out[right_value] = vals.astype("Int64")
        else:
            out[right_value] = vals.astype(rv_dtype)
        return out[[by, on, right_value]]

    return tagged.groupby("_bucket").map_groups(per_bucket, batch_format="pandas")


# --- interval / range join -------------------------------------------------

def _cached_interval_tree(ref):
    """(interval ids, stab tree) built once per worker from the broadcast."""
    import ray

    from ..util import worker_cached

    def build():
        from ..state.rtree import HilbertRTree

        ivals = np.asarray(ray.get(ref), dtype=np.float64)  # (n, 3): id, lo, hi
        boxes = np.column_stack(
            [ivals[:, 1], np.zeros(len(ivals)), ivals[:, 2], np.ones(len(ivals))]
        )
        return ivals[:, 0].astype(np.int64), HilbertRTree(boxes)

    return worker_cached("joins.interval_tree", ref.hex(), build)


def interval_join(points, intervals, *, on: str, keep_cols=("event_id",),
                  interval_id_col: str = "interval_id"):
    """Range join, broadcast tier: rows of ``points`` whose ``on`` value lies
    in a closed interval [lo, hi] (SQL ``BETWEEN`` semantics); one output row
    per (point, interval) hit — overlapping intervals multiply.

    ``intervals`` is a small list of ``(interval_id, lo, hi)`` tuples shipped
    once via ``ray.put`` and stabbed through a packed Hilbert R-tree
    (state/rtree.py) built once per worker: per batch the probe is a fully
    vectorized frontier descent, so cost is O(points x log intervals), not
    O(points x intervals).  For two large sides use
    ``interval_join_bucketed``."""
    import ray

    intervals = [(int(i), float(lo), float(hi)) for i, lo, hi in intervals]
    kc = list(keep_cols)
    if not intervals:
        # legal degenerate small side: zero hits, typed empty output
        def empty(batch: pa.Table) -> pa.Table:
            out = batch.select(kc).slice(0, 0)
            return out.append_column(interval_id_col, pa.array([], pa.int64()))

        return points.map_batches(empty, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=None)
    ref = ray.put(intervals)

    def stab(batch: pa.Table) -> pa.Table:
        ids, tree = _cached_interval_tree(ref)
        v = batch[on].to_numpy(zero_copy_only=False).astype(np.float64)
        pt, box = tree.query_points(v, np.full(len(v), 0.5))
        out = batch.select(kc).take(pa.array(pt))
        return out.append_column(interval_id_col, pa.array(ids[box]))

    return points.map_batches(stab, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=None)


def interval_join_bucketed(points, intervals, *, on: str, id_col: str = "interval_id",
                           lo_col: str = "lo", hi_col: str = "hi",
                           keep_col: str = "event_id", bucket_width: float,
                           how: str = "inner"):
    """Range join, shuffle tier for two LARGE sides (both are Datasets).

    Scale shape: quantize the value domain into fixed-width buckets;
    replicate each interval into every bucket it overlaps (fan-out =
    interval length / bucket_width, so pick bucket_width >= the typical
    interval length to keep replication ~2x); points land in exactly one
    bucket, so each (point, interval) pair is tested exactly once — no
    dedup pass.  One groupby shuffle; per-group work is a vectorized
    interval-mask over the few intervals overlapping that bucket.
    Partitioning assumption: one bucket's points fit a worker; shrink
    bucket_width for hot value ranges."""
    w = float(bucket_width)

    def tag_points(batch: pa.Table) -> pa.Table:
        v = batch[on].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "_bucket": np.floor(v / w).astype(np.int64),
                "_side": np.zeros(len(v), dtype=np.int8),
                keep_col: batch[keep_col],
                "_v": v,
                id_col: pa.nulls(len(v), pa.int64()),
                "_lo": pa.nulls(len(v), pa.float64()),
                "_hi": pa.nulls(len(v), pa.float64()),
            }
        )

    def replicate_intervals(batch: pa.Table) -> pa.Table:
        lo = batch[lo_col].to_numpy(zero_copy_only=False).astype(np.float64)
        hi = batch[hi_col].to_numpy(zero_copy_only=False).astype(np.float64)
        iid = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b0 = np.floor(lo / w).astype(np.int64)
        b1 = np.floor(hi / w).astype(np.int64)
        cnt = b1 - b0 + 1
        total = int(cnt.sum())
        row = np.repeat(np.arange(len(lo), dtype=np.int64), cnt)
        bucket = (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(cnt) - cnt, cnt)
            + np.repeat(b0, cnt)
        )
        return pa.table(
            {
                "_bucket": bucket,
                "_side": np.ones(total, dtype=np.int8),
                keep_col: pa.nulls(total, pa.int64()),
                "_v": pa.nulls(total, pa.float64()),
                id_col: iid[row],
                "_lo": lo[row],
                "_hi": hi[row],
            }
        )

    tagged = points.map_batches(
        tag_points, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).union(
        intervals.map_batches(
            replicate_intervals, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
    )
    from .agg import _default_shuffle_partitions

    tagged = tagged.repartition(_default_shuffle_partitions())

    def per_bucket(g: pa.Table) -> pa.Table:
        side = g["_side"].to_numpy(zero_copy_only=False)
        pts = g.filter(pa.array(side == 0))
        ivs = g.filter(pa.array(side == 1))
        if pts.num_rows == 0 or ivs.num_rows == 0:
            return pa.table(
                {keep_col: pa.array([], pa.int64()),
                 id_col: pa.array([], pa.int64())}
            )
        v = pts["_v"].to_numpy(zero_copy_only=False)
        lo = ivs["_lo"].to_numpy(zero_copy_only=False)
        hi = ivs["_hi"].to_numpy(zero_copy_only=False)
        iid = ivs[id_col].to_numpy(zero_copy_only=False)
        hit = (v[:, None] >= lo[None, :]) & (v[:, None] <= hi[None, :])
        prow, icol = np.nonzero(hit)
        return pa.table(
            {
                keep_col: pts[keep_col].take(pa.array(prow)),
                id_col: pa.array(iid[icol].astype(np.int64)),
            }
        )

    return tagged.groupby("_bucket").map_groups(per_bucket, batch_format="pyarrow")


def _mix64(x: np.ndarray, salt: int) -> np.ndarray:
    """Vectorized splitmix64 over int64-viewed keys (salted variants give the
    independent hash functions of the bloom filter)."""
    z = x.view(np.uint64) + np.uint64(salt) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def bloom_semi_join(left, right_keys, on: str, *, bits_log2: int = 23,
                    n_hashes: int = 3, buckets: int | None = None,
                    schemas: tuple | None = None, reduce_parts: int = 8,
                    verify: str = "auto",
                    broadcast_max_keys: int = 4_000_000):
    """EXACT semi-join tier for a big probe side and a big-ish key side:
    left rows whose ``on`` value appears in ``right_keys[on]``.

    Scale shape (the classic bloom-pushdown plan):
    1. build a 2^bits_log2-bit bloom of the right keys DISTRIBUTED — one
       bitmap per batch (narrow), OR-reduced through a ``reduce_parts``-way
       tree expressed as repartition + per-block OR, driver touches only
       ``reduce_parts`` bitmaps (2^(bits_log2-3) bytes each, 1 MB at the
       default) and broadcasts the final filter once via ``ray.put``;
    2. prefilter left with the broadcast bloom (pure narrow pass — this is
       where ~all non-matching rows die WITHOUT shuffling);
    3. exact verify: bucketed hash join of the SURVIVORS against the
       distinct right keys — false positives (~0.1% at default sizing)
       are eliminated, so the result is exact, and the only all-to-all
       movement is survivors + right keys.

    ``on`` must be an integer key column (hash string keys to int64 first,
    e.g. ``text.hash_utf8_array``).

    ``verify``: how false positives are eliminated after the prefilter —
    ``"join"`` (bucketed hash join of survivors vs distinct keys, the
    arbitrarily-large-key-side tier), ``"broadcast"`` (exact distinct key
    set shipped once via ``ray.put``, survivors verified by a narrow
    vectorized ``isin`` — NO second all-to-all), or ``"auto"`` (broadcast
    when the distinct key count is <= ``broadcast_max_keys``, else join;
    the distinct reduce is materialized either way, so the count check is
    free)."""
    import ray

    mask = np.uint64((1 << bits_log2) - 1)
    nbytes = 1 << (bits_log2 - 3)
    # one scan of the key side feeds BOTH the bloom build and the distinct
    # verify set (materialized blocks are read back zero-copy)
    keys_only = right_keys.select_columns([on]).materialize()

    def bitmap_batch(b: pa.Table) -> pa.Table:
        k = b[on].to_numpy(zero_copy_only=False).astype(np.int64)
        bits = np.zeros(nbytes, np.uint8)
        for i in range(n_hashes):
            h = _mix64(k, i + 1) & mask
            np.bitwise_or.at(bits, (h >> np.uint64(3)).astype(np.int64),
                             np.uint8(1) << (h & np.uint64(7)).astype(np.uint8))
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    def or_block(b: pa.Table) -> pa.Table:
        out = np.zeros(nbytes, np.uint8)
        for x in b["bits"]:
            out |= np.frombuffer(x.as_py(), np.uint8)
        return pa.table({"bits": pa.array([out.tobytes()], pa.binary())})

    partials = (
        keys_only.map_batches(bitmap_batch, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
        .repartition(reduce_parts)
        .map_batches(or_block, batch_format="pyarrow", batch_size=None)
        .take_all()
    )
    bloom = np.zeros(nbytes, np.uint8)
    for row in partials:
        bloom |= np.frombuffer(row["bits"], np.uint8)
    bloom_ref = ray.put(bloom)

    def prefilter(b: pa.Table) -> pa.Table:
        bl = ray.get(bloom_ref)
        k = b[on].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = np.ones(len(k), bool)
        for i in range(n_hashes):
            h = _mix64(k, i + 1) & mask
            byte = bl[(h >> np.uint64(3)).astype(np.int64)]
            ok &= (byte >> (h & np.uint64(7)).astype(np.uint8)) & 1 > 0
        return b.filter(pa.array(ok))

    survivors = left.map_batches(prefilter, batch_format="pyarrow",
                                 zero_copy_batch=True, batch_size=None)

    # distinct right keys (per-batch collapse, then one bounded-salt
    # reduce — Ray's native aggregate pays ~1 ms/group at this group count,
    # see stages/agg.py)
    def batch_distinct(b: pa.Table) -> pa.Table:
        return b.group_by(on, use_threads=False).aggregate([])

    from .agg import salted_group_reduce

    distinct = salted_group_reduce(
        keys_only.map_batches(batch_distinct, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None),
        [on], [(None, "count", "_c")],
    ).drop_columns(["_c"]).materialize()
    if schemas is not None:
        lschema = schemas[0]
    else:
        s = left.schema()
        lschema = pa.schema(list(zip(s.names, s.types)))
    key_type = dict(zip(lschema.names, lschema.types))[on]

    n_distinct = distinct.count()
    if verify == "broadcast" or (verify == "auto" and n_distinct <= broadcast_max_keys):
        # exact verify with NO second all-to-all: the distinct key set rides
        # one ray.put; survivors (already ~matches only, thanks to the
        # bloom) die or pass in a narrow vectorized membership test
        key_blocks = ray.get(distinct.to_arrow_refs())
        # zero-block upstreams can surface manufactured empty blocks whose
        # schema lacks the key column — only real rows carry it
        key_arr = np.sort(np.concatenate(
            [b[on].to_numpy(zero_copy_only=False) for b in key_blocks
             if on in b.schema.names]
            or [np.array([], np.int64)]).astype(np.int64))
        keys_ref = ray.put(key_arr)

        def exact_verify(b: pa.Table) -> pa.Table:
            ks = ray.get(keys_ref)
            v = b[on].to_numpy(zero_copy_only=False).astype(np.int64)
            if len(ks) == 0:
                return b.filter(pa.array(np.zeros(len(v), bool)))
            idx = np.clip(np.searchsorted(ks, v), 0, len(ks) - 1)
            return b.filter(pa.array(ks[idx] == v))

        return survivors.map_batches(exact_verify, batch_format="pyarrow",
                                     zero_copy_batch=True, batch_size=None)
    return bucketed_hash_join(
        survivors, distinct, on=on, buckets=buckets,
        schemas=(lschema, pa.schema([(on, key_type)])),
    )


def skew_aware_join(left, right, on: str, *, hot_threshold: int = 100_000,
                    salt: int = 16, buckets: int | None = None,
                    schemas: tuple | None = None,
                    census_sample_every: int | None = None,
                    hot_keys: set | None = None):
    """Skew-ROBUST tier of the bucketed hash join (inner, int64 key): a
    single hot key whose rows exceed a worker's share no longer serializes
    in one bucket group.

    1. DETECT — skew.detect_hot_keys census over the LEFT side: per-batch
       partial counts, salted reduce, the ``n > hot_threshold`` filter runs
       DISTRIBUTED so only the (tiny by definition) hot set reaches the
       driver; broadcast via ray.put.
    2. SPLIT+SALT — hot LEFT rows get ``_salt = arange % salt`` (any
       assignment yields the same join RESULT SET — salt only spreads the
       work); hot RIGHT rows REPLICATE once per salt value; cold rows carry
       _salt 0 unreplicated.
    3. ONE shuffle — the usual tagged union, bucketed on a mix of
       (key, _salt) so a hot key's salt groups land on different reducers;
       the per-bucket Arrow join keys on [on, _salt], which also prevents
       cross-salt duplicate emission between replicas sharing a bucket.

    CENSUS COST (r5 subsampled tier): the census is a second pass over the
    left stream, but by default it now counts only every k-th row
    (deterministic prime-stride sample, k auto-picked = 97 when
    hot_threshold >= 10_000) with the threshold scaled to
    ``hot_threshold / (2k)`` — a 2x safety margin, so a truly-hot key's
    expected sampled count sits 2x above the cut (relative sampling noise
    at the cut is ~sqrt(2k/hot_threshold), i.e. ~4% at the defaults).  The
    census group_by + shuffle volume drops by k; hot-set errors in EITHER
    direction never change the result set (salting only redistributes
    work), so the margin trades a little extra replication for never
    serializing a genuinely hot key.  ``census_sample_every=1`` forces the
    exact census; ``hot_keys`` (precomputed set) skips the census pass
    entirely — the true one-scan path for callers with expensive upstreams
    (pair it with a materialized/persisted left or a known hot set).
    Output: the inner join of left x right on ``on`` (column order: key,
    left-only, right-only), identical row multiset to bucketed_hash_join."""
    import ray

    from .skew import detect_hot_keys

    if buckets is None:
        buckets = default_join_partitions()
    if hot_keys is not None:
        hot = set(hot_keys)
    else:
        k = census_sample_every
        if k is None:
            # sampling noise at the scaled cut must stay small relative to
            # the 2x margin: with k=97 that needs hot_threshold >> 2k
            k = 97 if hot_threshold >= 10_000 else 1
        thr = hot_threshold if k == 1 else max(1, hot_threshold // (2 * k))
        hot = detect_hot_keys(left, [on], thr, sample_every=k)
    hot_ref = ray.put(np.sort(np.fromiter(hot, dtype=np.int64, count=len(hot))))

    if schemas is not None:
        lschema, rschema = schemas
    else:
        lschema, rschema = left.schema(), right.schema()
    lonly = [n for n in lschema.names if n != on]
    ronly = [n for n in rschema.names if n != on]
    shared = set(lonly) & set(ronly)
    if shared:
        raise ValueError(f"rename shared non-key columns before joining: {sorted(shared)}")
    type_of = dict(zip(list(lschema.names) + list(rschema.names),
                       list(lschema.types) + list(rschema.types)))
    all_cols = [on] + lonly + ronly

    def is_hot(keys: np.ndarray) -> np.ndarray:
        hk = ray.get(hot_ref)
        if len(hk) == 0:
            return np.zeros(len(keys), dtype=bool)
        pos = np.searchsorted(hk, keys)
        pos = np.clip(pos, 0, len(hk) - 1)
        return hk[pos] == keys

    def tag(side: int, missing: list[str]):
        def f(batch: pa.Table) -> pa.Table:
            keys = batch[on].to_numpy(zero_copy_only=False).astype(np.int64)
            hotm = is_hot(keys)
            n = len(batch)
            if side == 0:
                salts = np.where(hotm, np.arange(n, dtype=np.int64) % salt, 0)
                idx = None
            else:
                # replicate hot right rows once per salt value
                reps = np.where(hotm, salt, 1).astype(np.int64)
                idx = np.repeat(np.arange(n, dtype=np.int64), reps)
                within = np.arange(len(idx)) - np.repeat(
                    np.cumsum(reps) - reps, reps)
                salts = within
                keys = keys[idx]
                batch = batch.take(pa.array(idx))
            bucket = ((keys * np.int64(2654435761))
                      + salts * np.int64(0x9E3779B9)) % np.int64(buckets)
            cols = {}
            for c in all_cols:
                if c in missing:
                    cols[c] = pa.nulls(len(batch), type_of[c])
                else:
                    cols[c] = batch[c]
            t = pa.table(cols)
            return (t.append_column("_salt", pa.array(salts))
                    .append_column("_bucket", pa.array(bucket))
                    .append_column("_side", pa.array(
                        np.full(len(batch), side, dtype=np.int8))))

        return f

    tagged = (left.map_batches(tag(0, ronly), batch_format="pyarrow", batch_size=None)
              .union(right.map_batches(tag(1, lonly), batch_format="pyarrow", batch_size=None)))
    from .agg import _default_shuffle_partitions

    tagged = tagged.repartition(_default_shuffle_partitions())
    out_schema = pa.schema([(c, type_of[c]) for c in all_cols])

    def per_bucket(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        side = g["_side"]
        lg = g.filter(pc.equal(side, 0)).select([on, "_salt"] + lonly)
        rg = g.filter(pc.equal(side, 1)).select([on, "_salt"] + ronly)
        if len(lg) == 0 or len(rg) == 0:
            return out_schema.empty_table()
        joined = lg.join(rg, keys=[on, "_salt"], join_type="inner")
        return joined.select(all_cols)

    return tagged.groupby("_bucket").map_groups(per_bucket, batch_format="pyarrow")


def bucketed_anti_join(left, right, on: str, *, buckets: int | None = None,
                       schemas: tuple | None = None):
    """LEFT ANTI join (int64 key): left rows whose key appears NOWHERE on
    the right — the relational complement of the semi tier (semi_bloom).
    Same one-shuffle shape as bucketed_hash_join: both sides project and
    hash-partition on the key; within a bucket every occurrence of a key is
    present, so survival is one vectorized is_in.  Right side ships only
    its DISTINCT keys per batch (pre-deduped projection).  Output: the left
    columns."""
    if buckets is None:
        buckets = default_join_partitions()
    if schemas is not None:
        lschema, _rschema = schemas
    else:
        lschema = left.schema()
    lcols = list(lschema.names)
    type_of = dict(zip(lschema.names, lschema.types))

    def tag(side: int):
        def f(batch: pa.Table) -> pa.Table:
            keys = batch[on].to_numpy(zero_copy_only=False).astype(np.int64)
            if side == 1:
                keys = np.unique(keys)  # per-batch distinct: 8 bytes/key ships
                t = pa.table({on: pa.array(keys)})
                for c in lcols:
                    if c != on:
                        t = t.append_column(c, pa.nulls(len(keys), type_of[c]))
                t = t.select(lcols)
            else:
                t = batch.select(lcols)
            bucket = (keys * np.int64(2654435761)) % np.int64(buckets)
            return (t.append_column("_bucket", pa.array(bucket))
                    .append_column("_side", pa.array(np.full(len(t), side, np.int8))))

        return f

    tagged = (left.map_batches(tag(0), batch_format="pyarrow", batch_size=None)
              .union(right.map_batches(tag(1), batch_format="pyarrow", batch_size=None)))
    from .agg import _default_shuffle_partitions

    tagged = tagged.repartition(_default_shuffle_partitions())
    out_schema = pa.schema([(c, type_of[c]) for c in lcols])

    def per_bucket(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        side = g["_side"].to_numpy(zero_copy_only=False)
        lk = g[on].to_numpy(zero_copy_only=False).astype(np.int64)
        rkeys = np.unique(lk[side == 1])
        lrows = g.filter(pa.array(side == 0)).select(lcols)
        if len(lrows) == 0:
            return out_schema.empty_table()
        keep = ~np.isin(lrows[on].to_numpy(zero_copy_only=False).astype(np.int64), rkeys)
        return lrows.filter(pa.array(keep))

    return tagged.groupby("_bucket").map_groups(per_bucket, batch_format="pyarrow")
