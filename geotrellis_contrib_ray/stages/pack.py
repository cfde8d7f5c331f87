"""Training-data assembly ops: deterministic sequence packing and
hash-stratified dataset splits.

``pack_sequences`` assigns each document to a fixed-token-budget training
sequence by GLOBAL cumulative token count in doc_id order — the classic
LLM-pretraining packing layout, made deterministic (hence oracle-checkable)
by ordering on doc_id.  Distributed shape: a two-level prefix sum —

  1. per-chunk token totals (chunk = doc_id // chunk_size) via one partial
     aggregation + tiny groupby: n/chunk_size rows;
  2. chunk prefix offsets on the driver (broadcast via closure — at 10^12
     docs this level itself becomes a dataset and the same two steps recurse
     one level up; the chunk table is 1/chunk_size the corpus);
  3. one co-partition on chunk: within-chunk cumsum + offset -> seq_id.

``train_val_test_split`` tags each doc by a deterministic integer hash of
its id — pure map, no shuffle, reproducible across runs and engines.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import as_array, worker_cached
from .agg import _hash_route, _map_key_groups

# split-hash constants (shared with the SQL oracle).  The id is reduced mod
# SPLIT_P BEFORE multiplying so the product stays < 2^52 — identical exact
# integer arithmetic in numpy and SQL even at 10^12-scale ids (a raw
# id * A would overflow int64: numpy wraps silently, SQL errors).
SPLIT_P = 1000003
SPLIT_A = 2654435761
SPLIT_MOD = 100


def add_token_count(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace token count (single-space convention — the same expression
    as text.add_token_stats / its SQL twin).  A NULL text counts like the
    empty string (1): the SQL length/replace expression is NULL for NULL
    input, so both engines coalesce to keep the composition defined for
    null-text rows (ADVICE r3)."""
    n_tokens = pc.add(pc.count_substring(batch[text_col], " "), 1)
    n_tokens = pc.fill_null(n_tokens, 1)
    return batch.append_column("n_tokens", pc.cast(n_tokens, pa.int64()))


def pack_sequences(ds, budget: int, id_col: str = "doc_id", text_col: str = "text",
                   chunk_size: int = 4096, super_size: int | None = None,
                   driver_chunk_rows: int = 1_000_000):
    """-> (doc_id, n_tokens, seq_id): seq_id = floor(presum / budget) where
    presum is the total token count of all lower-id docs.

    A document whose tokens straddle a budget boundary belongs to the
    sequence its FIRST token lands in (documents are not split — the
    convention that keeps the op a pure assignment).

    Distributed shape — a THREE-level prefix sum (the global cumsum is the
    one inherently sequential step; hierarchy makes every level bounded):

      1. per-chunk token totals (chunk = doc_id // chunk_size): partial
         per-batch aggregation + one keyed reduce — a DATASET of
         n/chunk_size rows, never collected;
      2. per-SUPER-chunk totals (sc = chunk // super_size): second partial
         reduce; only n/(chunk_size*super_size) rows reach the driver for
         the exclusive cumsum (10^12 docs at the 4096/4096 defaults ->
         ~60k driver rows), broadcast via ray.put;
      3. chunk offsets: a keyed step on sc over the level-1 dataset
         (``agg._map_key_groups``) — within-sc exclusive cumsum + the
         broadcast sc prefix (<= super_size rows per group) -> a (chunk,
         _chunk_off) dataset;
      4. final assignment: the chunk-offset rows and the doc rows ride ONE
         two-sided co-partition on chunk (``joins._co_partition``, no
         separate join stage); within each chunk the offset row seeds the
         doc-level cumsum.

    Only (doc_id, n_tokens, chunk) cross the wide step — the text column
    never shuffles.  Partitioning assumptions: one chunk (chunk_size docs)
    and one super-chunk's CHUNK TOTALS (super_size rows) fit a worker."""
    import ray

    if super_size is None:
        super_size = chunk_size

    with_tok = ds.map_batches(
        lambda b: add_token_count(b, text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )

    def add_chunk(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # narrow projection: the shuffle never carries text
        return pa.table({
            id_col: pa.array(ids),
            "n_tokens": b["n_tokens"],
            "chunk": pa.array(ids // chunk_size),
        })

    chunked = with_tok.map_batches(add_chunk, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    # level 1: per-chunk totals (partial per batch, keyed reduce)
    def chunk_partial(b: pa.Table) -> pa.Table:
        g = b.select(["chunk", "n_tokens"]).group_by("chunk", use_threads=False).aggregate(
            [("n_tokens", "sum")]
        )
        return g.rename_columns(["chunk", "ptok"])

    from .agg import salted_group_reduce

    # chunk count scales with the corpus (max_id/chunk_size) — many-group
    # total reduce via the keyed-reduce plan (the ~40x rule, stages/agg.py)
    # materialize: chunk_tot feeds BOTH the super-chunk reduce and the
    # offsets stage — without this the whole corpus tokenize re-executes
    # per consumer (a Dataset consumed by two plans re-runs its upstream).
    # Size is bounded at n/chunk_size rows (the level-1 contract), so the
    # object store holds it comfortably at any corpus scale.
    chunk_tot = salted_group_reduce(
        chunked.map_batches(chunk_partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None),
        ["chunk"], [("ptok", "sum", "chunk_tokens")],
    ).materialize()

    # ADAPTIVE tier split (chunk_tot is materialized, so count() is free):
    # when the chunk table itself is driver-sized, cumsum it directly and
    # skip levels 2-3 — two whole wide steps of pure fixed cost at bench
    # scale.  Past the bound, the super-chunk hierarchy keeps the driver at
    # n/(chunk_size*super_size) rows.
    if chunk_tot.count() <= driver_chunk_rows:
        import ray.data as _rd

        ct = chunk_tot.to_pandas()
        if "chunk" not in ct.columns:  # zero-block (empty-corpus) upstream
            import pandas as pd

            ct = pd.DataFrame({"chunk": pd.Series([], dtype="int64"),
                               "chunk_tokens": pd.Series([], dtype="int64")})
        ct = ct.sort_values("chunk").reset_index(drop=True)
        # r_[0, cs][:-1] keeps the zero-chunk (empty-corpus) shape at 0
        prefix = np.r_[np.int64(0),
                       np.cumsum(ct["chunk_tokens"].to_numpy())][:-1]
        offsets = _rd.from_arrow(pa.table({
            "chunk": pa.array(ct["chunk"].to_numpy(dtype=np.int64)),
            "_chunk_off": pa.array(prefix.astype(np.int64)),
        }))
    else:
        # level 2: super-chunk totals -> driver cumsum (n/(chunk*super) rows)
        def sc_partial(b: pa.Table) -> pa.Table:
            sc = b["chunk"].to_numpy(zero_copy_only=False).astype(np.int64) // super_size
            t = pa.table({"sc": pa.array(sc), "chunk_tokens": b["chunk_tokens"]})
            g = t.group_by("sc", use_threads=False).aggregate([("chunk_tokens", "sum")])
            return g.rename_columns(["sc", "ptok"])

        sc_tot = salted_group_reduce(
            chunk_tot.map_batches(sc_partial, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=None),
            ["sc"], [("ptok", "sum", "sc_tokens")],
        ).to_pandas().sort_values("sc").reset_index(drop=True)
        sc_prefix = np.concatenate([[0], np.cumsum(sc_tot["sc_tokens"].to_numpy())[:-1]])
        sc_ref = ray.put(dict(zip(sc_tot["sc"].astype(np.int64).tolist(),
                                  sc_prefix.astype(np.int64).tolist())))

        # level 3: chunk offsets = sc prefix + within-sc exclusive cumsum
        def add_sc(b: pa.Table) -> pa.Table:
            sc = b["chunk"].to_numpy(zero_copy_only=False).astype(np.int64) // super_size
            return b.append_column("_sc", pa.array(sc))

        def chunk_offsets(g: pa.Table) -> pa.Table:
            import ray as _ray

            sc_prefix = worker_cached("pack.sc_prefix", sc_ref.hex(), lambda: _ray.get(sc_ref))
            base = int(sc_prefix[g["_sc"][0].as_py()])
            chunk = g["chunk"].to_numpy().astype(np.int64)
            o = np.argsort(chunk, kind="stable")
            tok = g["chunk_tokens"].to_numpy().astype(np.int64)[o]
            off = base + np.concatenate([[0], np.cumsum(tok)[:-1]])
            return pa.table({
                "chunk": pa.array(chunk[o]),
                "_chunk_off": pa.array(off.astype(np.int64)),
            })

        offsets = _map_key_groups(
            chunk_tot.map_batches(add_sc, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=None),
            ["_sc"], ["_sc", "chunk", "chunk_tokens"], chunk_offsets)

    # level 4: one two-sided co-partition on chunk (the offset rows ride the
    # doc rows' shuffle — no separate join stage), then per-chunk cumsum +
    # assignment
    from .joins import _bucket_count, _by_key, _co_partition

    doc_cols = [id_col, "n_tokens", "chunk"]
    i64 = pa.int64()
    out_schema = pa.schema([(id_col, i64), ("n_tokens", i64), ("seq_id", i64)])
    n = _bucket_count(chunked)

    def assign(docs: pa.Table, offs: pa.Table) -> pa.Table:
        chunk_off = dict(zip(offs["chunk"].to_pylist(), offs["_chunk_off"].to_pylist()))

        def one_chunk(g: pa.Table) -> pa.Table:
            ids = g[id_col].to_numpy()
            o = np.argsort(ids, kind="stable")
            tok = g["n_tokens"].to_numpy()[o]
            presum = chunk_off[g["chunk"][0].as_py()] + np.concatenate([[0], np.cumsum(tok)[:-1]])
            return pa.table([pa.array(ids[o]), pa.array(tok), pa.array(presum // budget)],
                            schema=out_schema)

        return pa.concat_tables([out_schema.empty_table(),
                                 *_by_key(docs, one_chunk, ["chunk"])])

    return _co_partition(
        [(chunked, _hash_route(doc_cols, ["chunk"], n)),
         (offsets, _hash_route(["chunk", "_chunk_off"], ["chunk"], n))],
        assign, (pa.schema([(c, i64) for c in doc_cols]),
                 pa.schema([("chunk", i64), ("_chunk_off", i64)])))


def train_val_test_split(ds, id_col: str = "doc_id", val_pct: int = 10, test_pct: int = 10):
    """Deterministic hash split: bucket = ((id % SPLIT_P) * SPLIT_A) % 100; buckets
    [0, test_pct) -> test, [test_pct, test_pct+val_pct) -> val, rest train.
    Pure narrow map — reproducible across engines (integer arithmetic only).
    Output: input columns + split:string."""

    def tag(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = ((ids % SPLIT_P) * np.int64(SPLIT_A)) % SPLIT_MOD
        split_id = np.where(bucket < test_pct, 0, np.where(bucket < test_pct + val_pct, 1, 2))
        names = pa.DictionaryArray.from_arrays(
            pa.array(split_id.astype(np.int32)),
            pa.array(["test", "val", "train"], pa.string()),
        ).cast(pa.string())
        return b.append_column("split", names)

    return ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


SAMPLE_HASH_M = 2147483648  # 2^31 — hash range for the sampling order key


def stratified_sample(ds, group_col: str, k: int, id_col: str = "doc_id"):
    """Deterministic stratified sample: the k rows per group with the
    smallest (hash(id), id) — a reproducible uniform draw per stratum, no
    RNG state to ship.  hash(id) = ((id % SPLIT_P) * SPLIT_A) % 2^31, the
    same overflow-safe arithmetic as train_val_test_split, so the SQL
    oracle reproduces it exactly.

    Scale shape: rides stats.top_k_per_group — per-batch partial selection
    bounds the shuffle at <= k rows per group per block; the groupby merge
    touches only candidates, never the corpus.

    Output: (group_col, hkey, id_col)."""
    from .stats import top_k_per_group

    def add_h(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = ((ids % SPLIT_P) * np.int64(SPLIT_A)) % np.int64(SAMPLE_HASH_M)
        return b.append_column("hkey", pa.array(h))

    keyed = ds.map_batches(
        add_h, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return top_k_per_group(keyed, group_col, "hkey", k, tie_col=id_col,
                           ascending=True)


# context-window chunking constants (shared with the SQL oracle)
CHUNK_SIZE = 160
CHUNK_STRIDE = 120  # < size -> overlapping windows (40-char overlap)


def chunk_documents(ds, *, size: int = CHUNK_SIZE, stride: int = CHUNK_STRIDE,
                    id_col: str = "doc_id", text_col: str = "text"):
    """Context-window chunking: split each document into fixed-width
    character windows starting every ``stride`` chars (``stride < size`` ->
    overlapping windows, the standard pretraining context layout).  Chunk i
    of a doc is ``text[i*stride : i*stride+size]``; the last window may be
    short; empty docs emit no chunks.  SQL twin:
    ``substr(text, 1 + i*stride, size)`` over
    ``generate_series(0, (length(text)-1)//stride)``.

    Purely narrow (a flat_map expressed as one vectorized map_batches: each
    output chunk row derives from one input row in the same block — no
    shuffle at any scale).  The hot path slices the shared utf8 buffer with
    numpy gathers; no per-row python.  Non-ASCII batches (where byte
    positions != character positions) take a per-row fallback so the
    character-based convention matches SQL substr exactly.

    Output: (id_col, chunk_id:int64, chunk_len:int64, chunk_text).
    """
    def chunk_batch(b: pa.Table) -> pa.Table:
        return chunk_batch_table(b, size=size, stride=stride,
                                 id_col=id_col, text_col=text_col)

    return ds.map_batches(chunk_batch, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)


def chunk_batch_table(b: pa.Table, *, size: int, stride: int,
                      id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Pure per-batch kernel of chunk_documents (hypothesis-testable
    without a Ray session)."""
    import pyarrow.compute as pc

    n = len(b)
    ids = b[id_col]
    out_schema = pa.schema([
        (id_col, b.schema.field(id_col).type),
        ("chunk_id", pa.int64()),
        ("chunk_len", pa.int64()),
        ("chunk_text", pa.string()),
    ])
    if n == 0:
        return out_schema.empty_table()
    arr = as_array(b[text_col])
    # character lengths (SQL substr counts characters, not bytes)
    char_lens = pc.utf8_length(arr).to_numpy(zero_copy_only=False).astype(np.int64)
    byte_lens = pc.binary_length(arr).to_numpy(zero_copy_only=False).astype(np.int64)
    if not np.array_equal(char_lens, byte_lens):
        # non-ASCII fallback: per-row character slicing (rare path)
        rows_id, rows_cid, rows_txt = [], [], []
        idvals = ids.to_pylist()
        for i, t in enumerate(arr.to_pylist()):
            t = t or ""
            for j in range((len(t) - 1) // stride + 1 if t else 0):
                rows_id.append(idvals[i])
                rows_cid.append(j)
                rows_txt.append(t[j * stride : j * stride + size])
        return pa.table({
            id_col: pa.array(rows_id, out_schema.field(id_col).type),
            "chunk_id": pa.array(rows_cid, pa.int64()),
            "chunk_len": pa.array([len(t) for t in rows_txt], pa.int64()),
            "chunk_text": pa.array(rows_txt, pa.string()),
        })
    # ASCII fast path: byte positions == char positions
    off_buf = arr.buffers()[1]
    width = 8 if pa.types.is_large_string(arr.type) else 4
    offs = np.frombuffer(off_buf, np.int64 if width == 8 else np.int32,
                         count=len(arr) + 1, offset=arr.offset * width).astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], np.uint8)
    n_chunks = np.where(char_lens > 0, (char_lens - 1) // stride + 1, 0)
    total = int(n_chunks.sum())
    if total == 0:
        return out_schema.empty_table()
    doc_rep = np.repeat(np.arange(n), n_chunks)
    excl = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
    chunk_id = np.arange(total) - np.repeat(excl, n_chunks)
    starts = offs[:-1][doc_rep] + chunk_id * stride
    ends = np.minimum(starts + size, offs[1:][doc_rep])
    out_lens = ends - starts
    new_offs = np.concatenate(([0], np.cumsum(out_lens))).astype(np.int64)
    positions = (np.arange(int(new_offs[-1]))
                 - np.repeat(new_offs[:-1], out_lens)
                 + np.repeat(starts, out_lens))
    new_data = data[positions]
    chunk_arr = pa.Array.from_buffers(
        pa.large_string(), total,
        [None, pa.py_buffer(new_offs.tobytes()), pa.py_buffer(new_data.tobytes())],
    ).cast(pa.string())
    return pa.table({
        id_col: ids.take(pa.array(doc_rep, pa.int64())),
        "chunk_id": pa.array(chunk_id, pa.int64()),
        "chunk_len": pa.array(out_lens, pa.int64()),
        "chunk_text": chunk_arr,
    })


# epoch-shuffle constants (shared with the SQL oracle); EPOCH_C decorrelates
# successive epochs, SHUF_A decorrelates the order from the split hash
SHUF_A = 1103515245
EPOCH_C = 12345
SHUF_M = 2147483648  # 2^31


def global_shuffle(ds, epoch: int = 0, id_col: str = "doc_id"):
    """Deterministic training-epoch shuffle: rows reordered by
    ``h = (((id + epoch*EPOCH_C) % P) * SHUF_A) % 2^31`` — a different but
    reproducible permutation per epoch (the epoch shifts the id BEFORE the
    multiplicative scramble; a post-multiply additive constant would only
    rotate the order), no RNG state to ship or seed to coordinate.  Distributed shape: Ray's range-partitioned sort on the
    hash key (the one unavoidable all-to-all of an epoch shuffle); every
    upstream/downstream stage stays narrow.  Unlike
    ``Dataset.random_shuffle`` the order is a pure function of ids, so two
    engines (or a resumed run) produce the identical epoch stream.

    Output: input columns + ``shuffle_key:int64``, sorted by
    (shuffle_key, id)."""

    def add_h(b: pa.Table) -> pa.Table:
        from ..util import strip_schema_metadata

        b = strip_schema_metadata(b)  # sort-shuffle schema-dedup rule
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = (((ids + np.int64(epoch) * np.int64(EPOCH_C)) % SPLIT_P) * np.int64(SHUF_A)) % np.int64(SHUF_M)
        return b.append_column("shuffle_key", pa.array(h))

    keyed = ds.map_batches(add_h, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    return keyed.sort(["shuffle_key", id_col])


# data-mixing sampler constants (shared with the SQL twin via query_defs)
MIX_CHUNKS = 256


def mixture_sample(ds, budget_tokens: int, source_col: str = "source",
                   id_col: str = "doc_id", text_col: str = "text",
                   n_chunks: int = MIX_CHUNKS, approx_rows: int | None = None,
                   materialize_limit: int = 50_000_000,
                   tier: str = "auto", spill_dir: str | None = None):
    """Training-data MIXING sampler: per ``source``, take documents in the
    deterministic (hash(id), id) order until the source's running token
    total reaches ``budget_tokens`` (the boundary-crossing doc is included)
    — the "equal token budget per source" reweighting step of a pretraining
    mix, with no RNG state.

    Scale shape (pack_sequences' hierarchical prefix sum, keyed by
    hash-PREFIX chunks so chunk order IS sample order):
      1. narrow: hkey = ((id % SPLIT_P) * SPLIT_A) % 2^31 (the shared
         sampling hash), n_tokens, chunk = hkey * n_chunks // 2^31
         (order-preserving);
      2. per-(source, chunk) token totals roll up on the DRIVER (bounded:
         sources x n_chunks rows, no all-to-all — agg.driver_group_rollup);
      3. driver computes each chunk's exclusive prefix within its source and
         broadcasts the offsets;
      4. ONE keyed step on (source, chunk): in-group sort by (hkey, id), local
         cumsum + chunk offset, keep presum < budget.  Group count is
         bounded; group size is ~corpus/(sources*n_chunks).

    Output: (source, doc_id, n_tokens, presum) for kept docs — presum is
    the source-wide exclusive token prefix (the SQL window replays it).

    PERSISTENCE TIERS (r5: the keyed projection feeds BOTH the totals
    rollup and the final groupby, so it must run once — but a Dataset
    consumed by two plans re-executes its upstream):
      - ``materialize`` (default for small corpora): pin the narrow
        projection (~40 B/doc) in the object store;
      - ``parquet``: write the projection to parquet under /tmp between the
        two passes and stream both consumers from disk — no corpus-wide
        object-store pin (at 10^12 docs the materialized projection would
        be ~40 TB of object store).
    ``tier="auto"`` picks parquet when ``approx_rows`` (caller-supplied,
    e.g. from the input's parquet footer — never ds.count(), which would
    execute the upstream an extra time) exceeds ``materialize_limit``."""
    import ray

    from .agg import driver_group_rollup

    def narrow(b: pa.Table) -> pa.Table:
        from ..util import strip_schema_metadata

        b = strip_schema_metadata(b)
        b = add_token_count(b, text_col)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = ((ids % SPLIT_P) * np.int64(SPLIT_A)) % np.int64(SAMPLE_HASH_M)
        chunk = (h * np.int64(n_chunks)) // np.int64(SAMPLE_HASH_M)
        return pa.table({
            source_col: b[source_col],
            id_col: pa.array(ids),
            "n_tokens": b["n_tokens"],
            "hkey": pa.array(h),
            "_chunk": pa.array(chunk),
        })

    # the keyed projection feeds BOTH the totals rollup and the final
    # groupby — persist it so the corpus read+tokenize runs ONCE (a Dataset
    # consumed by two plans re-executes its upstream).  The projection is
    # narrow (4 int64 cols + source, ~40 B/doc); the tier decides object
    # store vs parquet spill (see docstring).
    if tier not in ("auto", "materialize", "parquet"):
        raise ValueError(f"unknown tier {tier!r}")
    use_parquet = (tier == "parquet"
                   or (tier == "auto" and approx_rows is not None
                       and approx_rows > materialize_limit))
    projected = ds.map_batches(narrow, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=None)
    if use_parquet:
        import tempfile

        from ..util import strip_schema_metadata

        out_dir = spill_dir or tempfile.mkdtemp(prefix="mixture_keyed_", dir="/tmp")
        projected.write_parquet(out_dir)
        # strip fused into the spill read (shuffle schema-dedup cache rule)
        keyed = ray.data.read_parquet(out_dir).map_batches(
            strip_schema_metadata, batch_format="pyarrow",
            zero_copy_batch=True, batch_size=None)
    else:
        keyed = projected.materialize()

    def partial(b: pa.Table) -> pa.Table:
        g = (b.select([source_col, "_chunk", "n_tokens"])
             .group_by([source_col, "_chunk"], use_threads=False)
             .aggregate([("n_tokens", "sum")]))
        return g.rename_columns([source_col, "_chunk", "ptok"])

    totals = driver_group_rollup(
        keyed.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        [source_col, "_chunk"], [("ptok", "sum", "toks")],
    )
    srcs = totals[source_col].to_pylist()
    chs = totals["_chunk"].to_numpy(zero_copy_only=False)
    tks = totals["toks"].to_numpy(zero_copy_only=False)
    offsets: dict[tuple, int] = {}
    run = {}
    for s, c, t in sorted(zip(srcs, chs.tolist(), tks.tolist())):
        offsets[(s, c)] = run.get(s, 0)
        run[s] = run.get(s, 0) + int(t)
    off_ref = ray.put(offsets)

    def take_prefix(g: pa.Table) -> pa.Table:
        # one fetch per worker: a ray.get per (source, chunk) group cost ~3.6 ms
        offs = worker_cached("pack.mixture_offsets", off_ref.hex(), lambda: ray.get(off_ref))
        src = g[source_col][0].as_py()
        chunk = int(g["_chunk"][0].as_py())
        base = offs.get((src, chunk), 0)
        h = g["hkey"].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        nt = g["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, h))
        nt_o = nt[order]
        presum = base + np.r_[0, np.cumsum(nt_o)[:-1]]
        keep = presum < budget_tokens
        sel = order[keep]
        return pa.table({
            source_col: g[source_col].take(pa.array(sel)),
            id_col: pa.array(ids[sel]),
            "n_tokens": pa.array(nt[sel]),
            "presum": pa.array(presum[keep]),
        })

    return _map_key_groups(keyed, [source_col, "_chunk"],
                           [source_col, id_col, "n_tokens", "hkey", "_chunk"], take_prefix)
