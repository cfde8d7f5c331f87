"""Join strategies for the engine.

Two tiers, picked by side sizes (README scale rules):
1. broadcast — small side via ray.put, lookup inside map_batches (see
   __ray_entry__.q_orders_by_segment);
2. co-partition shuffle — the DEFAULT when both sides are large.

Every shuffle join here (the bucketed hash / anti / skew / as-of / interval
joins, spatial.box_join and spatial.distance_join, and the bucket routing of
dedup._keep_first_rows and text.tfidf_top_terms) runs on ONE primitive,
``_co_partition``: each side ROUTES its rows to an int64 ``_bucket`` (a key
hash, ``_bucket_of``, or a range replication, ``_ragged_expand``), the sides
are tagged, padded with typed nulls to one Arrow schema, unioned (every side
whose plan holds an all-to-all last: Ray 2.49 stalls at one CPU on a union
whose first input holds one; the tags keep the result order-free),
narrow-repartitioned to ``_shuffle_blocks`` blocks and grouped on
``_bucket``; the per-group kernel sees each side's rows of one or more
whole buckets and groups them by its own key.  The block count comes from
the CPUs and the inputs' bytes when the plan reports the bytes (every side
a plan leaf: a materialized Dataset, ``from_arrow``, a bare read) and no
route copies rows (``_fans_out``), else it is
``agg._default_shuffle_partitions()``.  One sort-shuffle pass, no actor
pools; no shuffle at all for ONE side when that count is one block (one
CPU, a leaf under ``target_max_block_size``): its rows are then routed in
one narrow task and the kernel runs once on all of them, in a plain Ray
task when the leaf holds its blocks (``_leaf_map``).  Key-hash joins
use B = ``default_join_partitions()`` buckets, ~8x cluster CPUs (measured
sweet spot, see there); the optional per-key salt is the skew knob
(``skew_aware_join``).  Ray's native ``Dataset.join`` is not
used: its aggregator-actor pool start-up dominates (sf0.1 lineitem x
orders: bucketed b32 4.2 s vs native p32 25 s / p16 14 s).

With ONE side it is the keyed wide step (``groupby(key).map_groups``, one
vectorized kernel per bucket of keys) of the keyed total reduce
(``agg.salted_group_reduce``, every rollup / cube / token-count / rank
reduce), the per-key steps of ``agg._map_key_groups`` (the grouped
quantiles and HLL merge, ``pack_sequences``' chunk offsets and
``mixture_sample``'s prefix; ``_by_key`` iterates the keys of a
bucket), the seven per-user ``windows`` ops, ``stats.top_k_per_group``,
``graph.star_edges``, the raster mosaic / pyramid / focal steps and the
near-dup family of ``dedup`` (the MinHash, SimHash and embedding LSH
buckets, the Jaccard joins' token runs, the substring windows, the PassJoin
keys, the PPJoin prefix and paragraph reassembly per doc, and the exact
verify's regroup on the pair), with ``_bucket_count(ds)`` buckets:
``max(default_join_partitions(), ceil(rows / _BUCKET_ROWS))``, ``rows`` from
the input's parquet footer times the row factor of the maps above it (LSH
bands, shard copies).  With two sides
and no join it is ``pack_sequences``' doc-to-offset assignment.  One hot
key still fills one bucket."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def default_join_partitions() -> int:
    """Bucket count for key-hash shuffle joins: 8x cluster CPUs, within
    [16, 512].

    Measured sweep (sf0.1 lineitem x orders, 750k rows @32 CPUs): 16
    buckets 7.2 s, 32 -> 4.1, 64 -> 3.8, 128 -> 3.3, 256 -> 2.5, 512 -> 2.7
    — per-bucket reduce overhead (~1 ms python/group) stays negligible up
    to ~8x CPUs while smaller counts leave reduce slots idle."""
    from ..util import cluster_cpus

    return max(16, min(512, 8 * cluster_cpus(default=8)))


# ---------------------------------------------------------------------------
# the co-partition primitive
# ---------------------------------------------------------------------------

# Row bound of one bucket of a one-sided keyed wide step: its rows meet in
# one vectorized kernel call, and the heaviest (windows.window_functions)
# holds ~25 int64 temporaries a row — ~200 MB at the bound, inside a worker.
_BUCKET_ROWS = 1_000_000


def _plan_leaf(ds) -> tuple[int | None, int | None]:
    """``(rows, bytes)`` that the lazy plan of ``ds`` reports without
    executing anything, from its leaf: the parquet footer of a read, the
    blocks of a materialized Dataset or of ``from_arrow``.  ``rows`` is
    reached through single-input operators (``_meta_count()`` gives up once
    a map sits on the read), so behind a map it is an estimate; ``bytes``
    only when ``ds`` IS the leaf, since a map's output size is not its
    input's.  None for what the plan does not report: several inputs, or a
    leaf without the figure."""
    try:
        op = ds._logical_plan.dag
        leaf = op
        while leaf.input_dependencies:
            if len(leaf.input_dependencies) != 1:
                return None, None
            leaf = leaf.input_dependencies[0]
        meta = leaf.infer_metadata()
    except AttributeError:  # a Ray plan-API change loses the sizes, not the query
        return None, None
    return meta.num_rows, meta.size_bytes if leaf is op else None


def _leaf_call(fn, whole: bool, *blocks) -> pa.Table:
    """``fn`` over ``blocks`` as ``map_batches(batch_format="pyarrow")``
    hands them over: one block, or (``whole``) the one batch that Ray's
    ``Batcher`` builds of them all, as a pyarrow table (a pandas block, of
    ``from_pandas`` or of a map that returned pandas, is converted)."""
    from ray.data._internal.batcher import Batcher
    from ray.data.block import BlockAccessor

    batch = blocks[0]
    if whole:
        b = Batcher(sum(len(t) for t in blocks))
        for t in blocks:
            b.add(t)
        b.done_adding()
        batch = b.next_batch()
    return fn(BlockAccessor.for_block(batch).to_batch_format("pyarrow"))


def _leaf_map(ds, fn, whole: bool = False):
    """``fn`` (a pyarrow table -> table function) over the blocks of ``ds``
    as plain Ray tasks, when the plan of ``ds`` IS a leaf that holds its
    blocks (a materialized Dataset, ``from_arrow``, ``from_pandas``): one
    task per non-empty block, or with ``whole`` one task over the batch of
    all of them, handed to ``fn`` as a pyarrow table (``_leaf_call``).  The
    result is ``from_arrow_refs`` of the outputs, in block order; no
    streaming-executor run starts (one CPU of a 4-core host, a 1000-row
    leaf: ~36 ms for ``map_batches(...).materialize()``, ~9 ms for the task
    and ``from_arrow_refs``).  It gives what ``map_batches(fn,
    batch_format="pyarrow", zero_copy_batch=True)`` gives, with
    ``batch_size=None`` or (``whole``) the leaf's row count: zero-row blocks
    are skipped, as Ray's batcher skips them, and a kernel's exception
    surfaces with its own type.  None when ``ds`` is anything else (a read,
    a map over a leaf), when a block's row count is unknown, or on a Ray
    plan-API change: the caller then runs its ``map_batches``."""
    try:
        from ray.data._internal.logical.interfaces import SourceOperator
        from ray.data._internal.remote_fn import cached_remote_fn

        op = ds._logical_plan.dag
        bundles = op.output_data() if isinstance(op, SourceOperator) else None
        if bundles is None:
            return None
        blocks = [(ref, meta.num_rows) for bundle in bundles for ref, meta in bundle.blocks]
    except (AttributeError, ImportError):  # a Ray plan-API change keeps the map_batches path
        return None
    if any(rows is None for _, rows in blocks):
        return None
    import ray.data as rd

    task = cached_remote_fn(_leaf_call)
    refs = [ref for ref, rows in blocks if rows]
    if whole:
        out = [task.remote(fn, True, *refs)] if refs else []
    else:
        out = [task.remote(fn, False, ref) for ref in refs]
    return rd.from_arrow_refs(out)


def _shuffled_blocks(ds) -> int | None:
    """``k`` when the plan of ``ds`` is, below per-block maps, a sort over
    ``repartition(k)`` — the output of a ``_co_partition`` shuffle, whose
    sort keeps its input's ``k`` blocks — else None."""
    try:
        from ray.data._internal.logical.operators.all_to_all_operator import Repartition, Sort
        from ray.data._internal.logical.operators.map_operator import AbstractUDFMap

        op = ds._logical_plan.dag
        while isinstance(op, AbstractUDFMap):
            op = op.input_dependencies[0]
        below = op.input_dependencies[0] if isinstance(op, Sort) else None
        return below._num_outputs if isinstance(below, Repartition) else None
    except (AttributeError, ImportError):  # a Ray plan-API change keeps the narrowing
        return None


def _bucket_count(ds, per_row: int = 1) -> int:
    """Bucket count of a one-sided keyed wide step over ``ds``:
    ``max(default_join_partitions(), ceil(rows * per_row / _BUCKET_ROWS))``,
    ``rows`` from ``_plan_leaf``; ``per_row`` is the factor, fixed when the
    plan is built, by which the maps over the leaf multiply its rows (LSH
    bands, shard copies).  An unknown count keeps the default.  An
    estimate: it moves the bucket count, never the result."""
    n = default_join_partitions()
    rows = _plan_leaf(ds)[0]
    return n if rows is None else max(n, -(-rows * per_row // _BUCKET_ROWS))


def _has_all_to_all(ds) -> bool:
    """Whether the lazy plan of ``ds`` holds an all-to-all operator (a sort,
    a repartition, a groupby) anywhere below it."""
    try:
        from ray.data._internal.logical.operators.all_to_all_operator import AbstractAllToAll

        ops = [ds._logical_plan.dag]
        while ops:
            op = ops.pop()
            if isinstance(op, AbstractAllToAll):
                return True
            ops.extend(op.input_dependencies)
    except (AttributeError, ImportError):  # a Ray plan-API change keeps the given order
        pass
    return False


def _fans_out(route):
    """Mark ``route`` as one that may send a row to several buckets (a range
    or cell replication, a hot-key salt, a focal halo): its routed rows can
    outgrow its input's bytes, so ``_shuffle_blocks`` does not size the
    shuffle from them."""
    route.fans_out = True
    return route


def _shuffle_blocks(sides) -> int:
    """Block count the routed union of ``sides`` ((dataset, route) pairs)
    is narrowed to before its sort-shuffle.  When every dataset is a plan
    leaf that reports its size (``_plan_leaf``: a materialized Dataset,
    ``from_arrow``, a bare read) and no route fans out (``_fans_out``):
    ``min(_default_shuffle_partitions(), max(cpus, ceil(bytes /
    target_max_block_size)))`` — a few tiles or rows no longer spread over
    empty blocks, each a task at every shuffle step, on a host with fewer
    than 8 CPUs, and every CPU still gets a block.  Otherwise
    ``_default_shuffle_partitions()``: the routed bytes are not known.  It
    moves the block count, never the result.  A count of 1 (one CPU, the
    leaf's bytes within one block) makes a one-sided ``_co_partition`` skip
    the shuffle for one narrow task."""
    from ray.data import DataContext

    from ..util import cluster_cpus
    from .agg import _default_shuffle_partitions

    n = _default_shuffle_partitions()
    if any(getattr(route, "fans_out", False) for _, route in sides):
        return n
    sizes = [_plan_leaf(ds)[1] for ds, _ in sides]
    if any(b is None for b in sizes):
        return n
    target = DataContext.get_current().target_max_block_size
    by_bytes = -(-sum(sizes) // target) if target else 1  # None: blocks unbounded
    return min(n, max(cluster_cpus(default=8), by_bytes))


def _bucket_of(col, n: int) -> np.ndarray:
    """int64 bucket in [0, n) of every key: FNV-1a for a string column, a
    multiplicative hash for integer keys (an Arrow column or numpy array).
    All rows of one key share a bucket."""
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            from .text import hash_utf8_array

            return (hash_utf8_array(col).view(np.uint64) % np.uint64(n)).astype(np.int64)
        col = col.to_numpy(zero_copy_only=False)
    return (col.astype(np.int64) * np.int64(2654435761)) % np.int64(n)


def _ragged_expand(cnt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Copy row i ``cnt[i]`` times: the source row and the 0-based copy
    number of every copy (range replication: box cells, interval buckets,
    hot-key salts)."""
    cnt = np.asarray(cnt, dtype=np.int64)
    row = np.repeat(np.arange(len(cnt), dtype=np.int64), cnt)
    k = np.arange(len(row), dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return row, k


def _key_route(cols: list[str], key: str, n: int):
    """The key-hash route: project ``cols``, bucket on ``key`` (_bucket_of)."""
    def route(b: pa.Table) -> pa.Table:
        return b.select(cols).append_column("_bucket", pa.array(_bucket_of(b[key], n)))

    return route


def _by_key(t: pa.Table, group, keys):
    """``group`` of every distinct ``keys`` tuple of ``t``, in ascending key
    order: one stable sort (a ``take`` of the rows, the only copy) and
    zero-copy slices.  NULL keys form one group, as in Ray's groupby
    (``agg._sort_codes``); the per-key steps inside a bucket kernel iterate
    with it."""
    if not len(t):
        return
    from .agg import _sort_codes

    codes = [_sort_codes(t[k].to_numpy()) for k in keys]
    order = np.lexsort(codes[::-1])
    change = np.zeros(len(order), bool)
    change[0] = True
    for c in codes:
        c = c[order]
        change[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(change)
    t = t.take(pa.array(order))
    for s, e in zip(starts, np.r_[starts[1:], len(t)]):
        yield group(t.slice(s, e - s))


def _co_partition(sides, per_group, schemas=None):
    """The one co-partition shuffle: route -> union -> bucket.

    ``sides``: (dataset, route) pairs; ``route(batch)`` returns the rows of
    that side to shuffle, with an int64 ``_bucket`` column (a row may go to
    several buckets).  With several sides every routed row is tagged with
    its side and padded with typed nulls to one schema, ``schemas`` giving
    the columns each route returns besides ``_bucket`` (None: every route
    returns the same columns), and the sides whose plan holds an all-to-all
    (``_has_all_to_all``) come last in the union.  The union is
    narrow-repartitioned — the
    sort-shuffle's fixed cost scales with its input BLOCK count (the same
    sf0.1 join: 3.7 s from the readers' ~128 blocks vs 1.8 s coalesced to
    16) — to ``_shuffle_blocks`` blocks: sized from the sides' bytes and the
    CPUs when every side is a plan leaf that reports its size and routes
    each row once, else ``agg._default_shuffle_partitions()``; wrap a route
    that may copy a row into several buckets in ``_fans_out``.  One side
    that is already a shuffle's output of at most that many blocks
    (``_shuffled_blocks``: a keyed reduce feeding a per-key step) is not
    narrowed again.  Then it is grouped on ``_bucket``; ``per_group(*rows)``
    gets each side's routed rows (without ``_bucket``) of one or more whole
    buckets and returns a table.  So a kernel groups by its own key: a
    bucket holds every row of its keys, never only the keys of one bucket.

    With ONE side, when that count is one block (one CPU, a leaf under
    ``target_max_block_size``) and the leaf reports its rows, a sort into
    one block moves no data: the whole step is one narrow task instead, over
    one batch of every block of the leaf; the task routes it and calls
    ``per_group`` once on every routed row, all buckets at once, with no
    sort and no copy of the rows into bucket order.  Over a leaf that holds
    its blocks (a materialized Dataset, ``from_arrow``) that task is a
    plain Ray task (``_leaf_map``, whole), and the result a ``from_arrow``
    leaf again, so a chain of such steps (a pyramid's levels) never starts
    the streaming executor; over a bare read it is a ``map_batches`` whose
    ``batch_size`` is the leaf's row count, so Ray bundles every input
    block into one batch.  That holds for a route that sends each row once;
    a fan-out route (``_fans_out``) never gets here, as ``_shuffle_blocks``
    keeps its default.  Routing inside the task, after the batch is formed,
    keeps the batch independent of how many rows the route emits.  Several
    sides always shuffle."""
    from ..util import strip_schema_metadata

    n_sides = len(sides)
    fields = {}
    for s in schemas or ():
        for name, typ in zip(s.names, s.types):
            fields.setdefault(name, typ)
    order = list(fields)
    if schemas:
        pos = [[order.index(c) for c in s.names] for s in schemas]
        empties = [pa.schema([(c, fields[c]) for c in s.names]).empty_table()
                   for s in schemas]

    def tag(i, route):
        def f(batch: pa.Table) -> pa.Table:
            t = strip_schema_metadata(route(batch))  # unhashable-schema rule
            if n_sides == 1:
                return t
            # payload columns first, then _bucket, _side
            if fields:
                t = pa.table([t[c] if c in t.column_names else pa.nulls(len(t), typ)
                              for c, typ in fields.items()] + [t["_bucket"]],
                             names=order + ["_bucket"])
            else:
                t = t.select([c for c in t.column_names if c != "_bucket"] + ["_bucket"])
            return t.append_column("_side", pa.array(np.full(len(t), i, np.int8)))

        return f

    def group(g: pa.Table) -> pa.Table:
        if n_sides == 1:
            return per_group(g.drop_columns(["_bucket"]))
        side = g["_side"].to_numpy()
        rows = []
        for i in range(n_sides):
            # per-group cost matters (a spatial join has a group per cell):
            # positional selects, and no filter unless the bucket mixes sides
            cols = pos[i] if schemas else list(range(g.num_columns - 2))
            m = side == i
            k = np.count_nonzero(m)
            if k == 0:
                rows.append(empties[i] if schemas else g.select(cols).slice(0, 0))
            else:
                t = g.select(cols)
                rows.append(t if k == len(m) else t.filter(pa.array(m)))
        return per_group(*rows)

    group.__name__ = getattr(per_group, "__name__", "group")  # the stats' op label
    n_blocks = _shuffle_blocks(sides)
    rows = _plan_leaf(sides[0][0])[0] if n_sides == 1 else None
    if n_blocks == 1 and rows is not None:
        # one side in one block: one narrow task that routes the leaf and
        # runs the kernel once over all of its buckets
        route = tag(0, sides[0][1])

        def one_task(batch: pa.Table) -> pa.Table:
            t = route(batch)
            # no routed rows: the empty block of a map task that yields none
            return group(t) if len(t) else pa.table({})

        one_task.__name__ = group.__name__
        out = _leaf_map(sides[0][0], one_task, whole=True)
        if out is not None:
            return out
        return sides[0][0].map_batches(one_task, batch_format="pyarrow", zero_copy_batch=True,
                                       batch_size=max(1, rows))
    routed = [ds.map_batches(tag(i, route), batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
              for i, (ds, route) in enumerate(sides)]
    # a side with an all-to-all in its plan goes last in the union: Ray 2.49
    # stalls at one CPU on a union whose first input holds one (a side's
    # rows carry its tag, so the order moves no result)
    if n_sides > 1:
        routed.sort(key=_has_all_to_all)
    tagged = routed[0].union(*routed[1:]) if n_sides > 1 else routed[0]
    k = _shuffled_blocks(sides[0][0]) if n_sides == 1 else None
    if k is None or k > n_blocks:  # a shuffle's output of <= n_blocks is narrow already
        tagged = tagged.repartition(n_blocks)
    return tagged.groupby("_bucket").map_groups(group, batch_format="pyarrow")


def _join_schemas(left, right, how: str, schemas=None):
    """``((lschema, rschema), None)`` of a two-sided join — ``schemas`` when
    given, else each side's ``.schema()`` — or ``(None, result)`` when a side
    is a zero-block Dataset with no schema, which decides the join alone:
    an inner join (skew and as-of included), and an anti join with an empty
    left side, is the empty Dataset; an anti join with an empty right side
    keeps every left row; a left/outer join cannot know its output columns
    and raises.

    Pass ``schemas`` when a side is an expensive lazy pipeline:
    ``.schema()`` on a Dataset with upstream all-to-all stages EXECUTES that
    upstream to produce its first block."""
    if schemas is None:
        schemas = (left.schema(), right.schema())
    lschema, rschema = schemas
    if lschema is not None and rschema is not None:
        return tuple(pa.schema(list(zip(s.names, s.types))) for s in schemas), None
    if how == "anti" and lschema is not None:
        return None, left
    if how not in ("inner", "anti"):
        raise ValueError(f"how={how!r} join with a schema-less empty side: pass schemas=")
    import ray.data as rd

    return None, rd.range(0)


# ---------------------------------------------------------------------------
# key joins
# ---------------------------------------------------------------------------


def bucketed_hash_join(left, right, on: str, *, buckets: int | None = None, how: str = "inner",
                       schemas: tuple | None = None,
                       left_pre_agg: dict[str, str] | None = None,
                       right_pre_agg: dict[str, str] | None = None):
    """Tier-3 portable partitioned hash join.

    Shuffle payload is both sides' projected rows exactly once; each bucket
    joins locally with an Arrow (acero) hash join — dtypes survive exactly
    (no pandas round-trip: a null-padded int64 column would otherwise come
    back float64 and break value-hash parity with SQL oracles).  Hot join
    keys can be salted by raising ``buckets`` (key -> bucket is a modular
    hash, so a single key never splits — skew-sensitive callers should
    pre-aggregate or use the broadcast tier for dimension-shaped sides).

    ``schemas=(left_schema, right_schema)``: see ``_join_schemas``, which
    also holds the empty-side rule.

    ``right_pre_agg={"col": "sum"}``: the right side carries PER-BATCH
    partial-aggregate rows (possibly several per key); they are combined
    per key inside each bucket group BEFORE the merge.  This fuses the
    "groupby(key).aggregate -> join" pattern into the join's single
    shuffle — one all-to-all instead of two.  ``left_pre_agg`` is the
    symmetric knob for the left side: with BOTH set, two per-key
    aggregations AND their (full-outer/left/inner) join ride one shuffle
    instead of three."""
    n = buckets or default_join_partitions()
    ls, early = _join_schemas(left, right, how, schemas)
    if early is not None:
        return early
    lschema, rschema = ls
    lcols, rcols = set(lschema.names), set(rschema.names)
    lonly = sorted(lcols - rcols)
    ronly = sorted(rcols - lcols)
    shared = (lcols & rcols) - {on}
    if shared:
        raise ValueError(f"rename shared non-key columns before joining: {sorted(shared)}")
    if right_pre_agg is not None and sorted(right_pre_agg) != ronly:
        raise ValueError(f"right_pre_agg must cover exactly the right-only columns {ronly}")
    if left_pre_agg is not None and sorted(left_pre_agg) != lonly:
        raise ValueError(f"left_pre_agg must cover exactly the left-only columns {lonly}")
    all_cols = [on] + lonly + ronly  # key first, stable order
    lsch = pa.schema([lschema.field(c) for c in [on] + lonly])
    rsch = pa.schema([(on, lschema.field(on).type)] + [rschema.field(c) for c in ronly])
    out_schema = pa.schema([lsch.field(c) if c in lsch.names else rsch.field(c)
                            for c in all_cols])
    # accept SQL-ish names; Arrow's acero wants the "... outer" spellings
    arrow_how = {"left": "left outer", "right": "right outer",
                 "outer": "full outer"}.get(how, how)

    def pre_agg(t: pa.Table, aggs: dict[str, str], sch: pa.Schema) -> pa.Table:
        t = t.group_by(on, use_threads=False).aggregate(list(aggs.items()))
        return t.rename_columns([on] + list(aggs)).select(sch.names).cast(sch)

    def per_bucket(lg: pa.Table, rg: pa.Table) -> pa.Table:
        if how == "inner" and (len(lg) == 0 or len(rg) == 0):
            return out_schema.empty_table()
        if right_pre_agg and len(rg):
            rg = pre_agg(rg, right_pre_agg, rsch)
        if left_pre_agg and len(lg):
            lg = pre_agg(lg, left_pre_agg, lsch)
        return lg.join(rg, keys=on, join_type=arrow_how).select(all_cols)

    return _co_partition([(left, _key_route(lsch.names, on, n)),
                          (right, _key_route(rsch.names, on, n))], per_bucket, (lsch, rsch))


def bucketed_anti_join(left, right, on: str, *, schemas: tuple | None = None):
    """LEFT ANTI join (int64 key): left rows whose key appears NOWHERE on
    the right — the relational complement of the semi tier (semi_bloom).
    One co-partition shuffle on the key; within a bucket every occurrence
    of a key is present, so survival is one vectorized is_in.  Right side
    ships only its DISTINCT keys per batch (pre-deduped projection).
    Output: the left columns."""
    n = default_join_partitions()
    ls, early = _join_schemas(left, right, "anti", schemas)
    if early is not None:
        return early
    lschema = ls[0]

    def route_right(b: pa.Table) -> pa.Table:
        # per-batch distinct: 8 bytes/key ships
        keys = np.unique(b[on].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({on: keys, "_bucket": _bucket_of(keys, n)})

    def per_bucket(lrows: pa.Table, rrows: pa.Table) -> pa.Table:
        if len(lrows) == 0:
            return lschema.empty_table()
        rkeys = rrows[on].to_numpy(zero_copy_only=False).astype(np.int64)
        lkeys = lrows[on].to_numpy(zero_copy_only=False).astype(np.int64)
        return lrows.filter(pa.array(~np.isin(lkeys, rkeys)))

    return _co_partition([(left, _key_route(lschema.names, on, n)), (right, route_right)],
                         per_bucket, (lschema, pa.schema([(on, pa.int64())])))


def skew_aware_join(left, right, on: str, *, hot_threshold: int = 100_000,
                    salt: int = 16, schemas: tuple | None = None,
                    hot_keys: set | None = None):
    """Skew-ROBUST tier of the bucketed hash join (inner, int64 key): a
    single hot key whose rows exceed a worker's share no longer serializes
    in one bucket group.

    1. DETECT — skew.detect_hot_keys census over the LEFT side: per-batch
       partial counts, keyed reduce, the ``n > hot_threshold`` filter runs
       DISTRIBUTED so only the (tiny by definition) hot set reaches the
       driver; broadcast via ray.put.
    2. SPLIT+SALT — hot LEFT rows get ``_salt = arange % salt`` (any
       assignment yields the same join RESULT SET — salt only spreads the
       work); hot RIGHT rows REPLICATE once per salt value; cold rows carry
       _salt 0 unreplicated.
    3. ONE shuffle — the co-partition, bucketed on (key, _salt) so a hot
       key's salt groups land on different reducers; the per-bucket Arrow
       join keys on [on, _salt], which also prevents cross-salt duplicate
       emission between replicas sharing a bucket.

    CENSUS COST: the census is a second pass over the left stream, but
    when hot_threshold >= 10_000 it counts only every 97th row
    (deterministic prime-stride sample) with the threshold scaled to
    ``hot_threshold / (2*97)`` — a 2x safety margin, so a truly-hot key's
    expected sampled count sits 2x above the cut (relative sampling noise
    at the cut is ~sqrt(2k/hot_threshold), i.e. ~4% at the defaults).
    Hot-set errors in EITHER direction never change the result set
    (salting only redistributes work), so the margin trades a little extra
    replication for never serializing a genuinely hot key.  ``hot_keys``
    (precomputed set) skips the census pass entirely — the true one-scan
    path for callers with expensive upstreams.
    Output: the inner join of left x right on ``on`` (column order: key,
    left-only, right-only), identical row multiset to bucketed_hash_join."""
    import ray

    from .skew import detect_hot_keys

    n = default_join_partitions()
    ls, early = _join_schemas(left, right, "inner", schemas)
    if early is not None:
        return early
    lschema, rschema = ls
    lonly = [c for c in lschema.names if c != on]
    ronly = [c for c in rschema.names if c != on]
    shared = set(lonly) & set(ronly)
    if shared:
        raise ValueError(f"rename shared non-key columns before joining: {sorted(shared)}")
    if hot_keys is not None:
        hot = set(hot_keys)
    else:
        # sampling noise at the scaled cut must stay small relative to the
        # 2x margin: with k=97 that needs hot_threshold >> 2k
        k = 97 if hot_threshold >= 10_000 else 1
        thr = hot_threshold if k == 1 else max(1, hot_threshold // (2 * k))
        hot = detect_hot_keys(left, [on], thr, sample_every=k)
    hot_ref = ray.put(np.sort(np.fromiter(hot, dtype=np.int64, count=len(hot))))
    salted = [(on, pa.int64()), ("_salt", pa.int64())]
    lsch = pa.schema(salted + [lschema.field(c) for c in lonly])
    rsch = pa.schema(salted + [rschema.field(c) for c in ronly])
    all_cols = [on] + lonly + ronly
    out_schema = pa.schema([lsch.field(c) if c in lsch.names else rsch.field(c)
                            for c in all_cols])

    def route(side: int, cols: list[str]):
        def f(b: pa.Table) -> pa.Table:
            keys = b[on].to_numpy(zero_copy_only=False).astype(np.int64)
            hk = ray.get(hot_ref)
            pos = np.clip(np.searchsorted(hk, keys), 0, max(len(hk) - 1, 0))
            hotm = hk[pos] == keys if len(hk) else np.zeros(len(keys), bool)
            if side == 0:
                salts = np.where(hotm, np.arange(len(keys), dtype=np.int64) % salt, 0)
            else:
                # replicate hot right rows once per salt value
                row, salts = _ragged_expand(np.where(hotm, salt, 1))
                keys, b = keys[row], b.take(pa.array(row))
            t = pa.table([pa.array(keys), pa.array(salts)] + [b[c] for c in cols],
                         names=[on, "_salt"] + cols)
            return t.append_column("_bucket", pa.array(
                _bucket_of(keys * np.int64(salt) + salts, n)))

        return _fans_out(f) if side else f

    def per_bucket(lg: pa.Table, rg: pa.Table) -> pa.Table:
        if len(lg) == 0 or len(rg) == 0:
            return out_schema.empty_table()
        return lg.join(rg, keys=[on, "_salt"], join_type="inner").select(all_cols)

    return _co_partition([(left, route(0, lonly)), (right, route(1, ronly))],
                         per_bucket, (lsch, rsch))


def asof_join(left, right, *, by: str, on: str, right_value: str, buckets: int = 32):
    """As-of join (custom operator the Dataset API lacks): for each left row,
    the latest right row of the same ``by`` key with right.on <= left.on.

    Scale shape: co-partition both sides on ``by`` (a key's rows never
    split), per-bucket ``pd.merge_asof`` over sorted frames.  Inner
    semantics: left rows with no prior right row are dropped — matches
    ``ASOF JOIN`` in SQL.  Partitioning assumption: one bucket's rows fit a
    worker (raise ``buckets`` for skewed key spaces)."""
    # only the right side's schema is read: the left side routes (by, on)
    # with the right side's types, and a schema-less left routes nothing
    ls, early = _join_schemas(left, right, "inner", (pa.schema([]), right.schema()))
    if early is not None:
        return early
    rschema = ls[1]
    lsch = pa.schema([rschema.field(by), rschema.field(on)])
    rsch = pa.schema([rschema.field(by), rschema.field(on), rschema.field(right_value)])
    rv_dtype = rschema.field(right_value).type.to_pandas_dtype()

    def per_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        import pandas as pd

        if len(lt) == 0 or len(rt) == 0:
            return rsch.empty_table()
        lg = lt.to_pandas().sort_values(on, kind="mergesort")
        rg = rt.to_pandas().sort_values(on, kind="mergesort")
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
        return pa.Table.from_pandas(out[rsch.names], schema=rsch,
                                    preserve_index=False).replace_schema_metadata()

    return _co_partition([(left, _key_route(lsch.names, by, buckets)),
                          (right, _key_route(rsch.names, by, buckets))], per_bucket, (lsch, rsch))


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
                           keep_col: str = "event_id", bucket_width: float):
    """Range join, shuffle tier for two LARGE sides (both are Datasets);
    inner: one row per (point, interval) hit.

    Scale shape: quantize the value domain into fixed-width buckets;
    replicate each interval into every bucket it overlaps (fan-out =
    interval length / bucket_width, so pick bucket_width >= the typical
    interval length to keep replication ~2x); points land in exactly one
    bucket, so each (point, interval) pair is tested exactly once — no
    dedup pass.  One co-partition shuffle; per-group work is a vectorized
    interval-mask over the few intervals overlapping that bucket.
    Partitioning assumption: one bucket's points fit a worker; shrink
    bucket_width for hot value ranges."""
    w = float(bucket_width)

    def route_points(b: pa.Table) -> pa.Table:
        v = b[on].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({keep_col: b[keep_col], "_v": v,
                         "_bucket": np.floor(v / w).astype(np.int64)})

    @_fans_out
    def route_intervals(b: pa.Table) -> pa.Table:
        lo = b[lo_col].to_numpy(zero_copy_only=False).astype(np.float64)
        hi = b[hi_col].to_numpy(zero_copy_only=False).astype(np.float64)
        iid = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b0 = np.floor(lo / w).astype(np.int64)
        row, k = _ragged_expand(np.floor(hi / w).astype(np.int64) - b0 + 1)
        return pa.table({id_col: iid[row], "_lo": lo[row], "_hi": hi[row],
                         "_bucket": b0[row] + k})

    def per_bucket(pts: pa.Table, ivs: pa.Table) -> pa.Table:
        if pts.num_rows == 0 or ivs.num_rows == 0:
            return pa.table({keep_col: pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64())})
        v = pts["_v"].to_numpy(zero_copy_only=False)
        lo = ivs["_lo"].to_numpy(zero_copy_only=False)
        hi = ivs["_hi"].to_numpy(zero_copy_only=False)
        iid = ivs[id_col].to_numpy(zero_copy_only=False)
        hit = (v[:, None] >= lo[None, :]) & (v[:, None] <= hi[None, :])
        prow, icol = np.nonzero(hit)
        return pa.table({keep_col: pts[keep_col].take(pa.array(prow)),
                         id_col: pa.array(iid[icol].astype(np.int64))})

    f64 = pa.float64()
    return _co_partition(
        [(points, route_points), (intervals, route_intervals)], per_bucket,
        (pa.schema([(keep_col, pa.int64()), ("_v", f64)]),
         pa.schema([(id_col, pa.int64()), ("_lo", f64), ("_hi", f64)])))


# --- bloom semi join -------------------------------------------------------

# bloom filter hash count, and the largest distinct key side verified by
# broadcast (exact key set via ray.put) instead of a bucketed hash join
_BLOOM_HASHES = 3
_BLOOM_BROADCAST_MAX_KEYS = 4_000_000


def _mix64(x: np.ndarray, salt: int) -> np.ndarray:
    """Vectorized splitmix64 over int64-viewed keys (salted variants give the
    independent hash functions of the bloom filter)."""
    z = x.view(np.uint64) + np.uint64(salt) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def bloom_semi_join(left, right_keys, on: str, *, bits_log2: int = 23,
                    buckets: int | None = None, schemas: tuple | None = None):
    """EXACT semi-join tier for a big probe side and a big-ish key side:
    left rows whose ``on`` value appears in ``right_keys[on]``.

    Scale shape (the classic bloom-pushdown plan):
    1. build a 2^bits_log2-bit bloom of the right keys DISTRIBUTED — one
       bitmap per batch (narrow), OR-reduced through an 8-way tree
       expressed as repartition + per-block OR, driver touches only 8
       bitmaps (2^(bits_log2-3) bytes each, 1 MB at the default) and
       broadcasts the final filter once via ``ray.put``;
    2. prefilter left with the broadcast bloom (pure narrow pass — this is
       where ~all non-matching rows die WITHOUT shuffling);
    3. exact verify of the survivors against the distinct right keys —
       false positives (~0.1% at default sizing) are eliminated, so the
       result is exact.  Up to ``_BLOOM_BROADCAST_MAX_KEYS`` distinct keys
       the key set is shipped once via ``ray.put`` and survivors are
       verified by a narrow vectorized ``isin`` (NO second all-to-all);
       above it, a bucketed hash join of the survivors against the distinct
       keys (the arbitrarily-large-key-side tier).  The distinct reduce is
       materialized either way, so the count check is free.

    ``on`` must be an integer key column (hash string keys to int64 first,
    e.g. ``text.hash_utf8_array``)."""
    import ray

    mask = np.uint64((1 << bits_log2) - 1)
    nbytes = 1 << (bits_log2 - 3)
    # one scan of the key side feeds BOTH the bloom build and the distinct
    # verify set (materialized blocks are read back zero-copy)
    keys_only = right_keys.select_columns([on]).materialize()

    def bitmap_batch(b: pa.Table) -> pa.Table:
        k = b[on].to_numpy(zero_copy_only=False).astype(np.int64)
        bits = np.zeros(nbytes, np.uint8)
        for i in range(_BLOOM_HASHES):
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
        .repartition(8)
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
        for i in range(_BLOOM_HASHES):
            h = _mix64(k, i + 1) & mask
            byte = bl[(h >> np.uint64(3)).astype(np.int64)]
            ok &= (byte >> (h & np.uint64(7)).astype(np.uint8)) & 1 > 0
        return b.filter(pa.array(ok))

    survivors = left.map_batches(prefilter, batch_format="pyarrow",
                                 zero_copy_batch=True, batch_size=None)

    # distinct right keys (per-batch collapse, then one keyed
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

    if distinct.count() <= _BLOOM_BROADCAST_MAX_KEYS:
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
