"""Skew handling: explicit salting for hot keys in wide operations.

North-star requirement: "groupby-aggregate shuffles on cell keys with
explicit salting for skewed hot cells".  Two layers:

1. Associative *aggregations* (count/sum/min/max) are already skew-immune
   here because every wide op is fed by an in-batch partial aggregation —
   a hot key contributes ONE row per block to the shuffle regardless of its
   row count (see stages/spatial.py).

2. Associative *group reductions* that go through ``map_groups``
   (merge-reduce) get the salted two-phase below: phase 1 reduces
   (key, salt) sub-groups — a hot key's rows split across ``salt_buckets``
   reducers — phase 2 reduces the <= salt_buckets partials per key.
   Requires the reduce to be associative + commutative across sub-groups
   (the caller asserts this by choosing this path).

``detect_hot_keys`` gives the cheap pre-pass: per-batch partial counts ->
tiny groupby -> keys above a threshold; cold keys can skip the salt (salt=0)
so phase 2 is a near-no-op for them.  Keep-first needs neither: the per-batch
pre-collapse of ``dedup_keep_first_salted`` caps a hot key at one row per
block, like layer 1.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def detect_hot_keys(ds, keys: list[str], threshold: int,
                    sample_every: int = 1) -> set:
    """Cheap skew census: partial per-batch counts, tiny final groupby,
    return the key tuples whose total count exceeds ``threshold``.

    The ``n > threshold`` filter runs DISTRIBUTED (a map_batches on the
    reduced stream) before anything reaches the driver: a census over
    corpus-scale keys has billions of distinct rows, but the hot set is
    tiny by definition — the driver only ever receives keys above
    threshold.

    ``sample_every > 1`` (subsampled census, r5): count only every k-th row
    of each batch — a deterministic, RNG-free row sample that cuts the
    census group_by + shuffle volume by k.  The CALLER scales the threshold
    (sampled count ~ true/k with relative noise ~ sqrt(k/true)); a key with
    >= threshold*k true rows contributes >= threshold expected sampled
    rows.  Use a PRIME stride so periodic key layouts don't alias.  Note
    hot-set accuracy only affects WORK DISTRIBUTION in the salting callers,
    never the result set — a miss costs balance, not correctness."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        if sample_every > 1:
            batch = batch.take(
                pa.array(np.arange(0, len(batch), sample_every, dtype=np.int64)))
        g = batch.select(keys).group_by(keys, use_threads=False).aggregate(
            [(keys[0], "count")]
        )
        return g.rename_columns(keys + ["pcnt"])

    from .agg import salted_group_reduce

    reduced = salted_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None),
        keys, [("pcnt", "sum", "n")],
    )
    hot = reduced.map_batches(
        lambda b: b.filter(pc.greater(b["n"], threshold)),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    ).to_pandas()
    if hot.empty and not set(keys) <= set(hot.columns):
        return set()  # zero-block upstream: no rows, no hot keys
    if len(keys) == 1:
        return set(hot[keys[0]].tolist())
    return set(map(tuple, hot[keys].to_numpy()))


def salted_map_groups(
    ds,
    keys: list[str],
    reduce_fn,
    *,
    salt_buckets: int = 16,
    hot_keys: set | None = None,
    batch_format: str = "pandas",
):
    """Two-phase salted group reduction for an associative ``reduce_fn``
    (pandas group in -> pandas rows out, same schema both phases).

    Phase 1 groups on keys + ``_salt`` (hot keys split across buckets, cold
    keys all land in _salt=0); phase 2 re-reduces per key.  When ``hot_keys``
    is None every key is salted (uniform protection).

    SCALE CONTRACT: both phases group on the RAW key, paying ~1 ms/group
    python overhead per distinct key (CLAUDE.md) — this generic-reduce_fn
    utility is for BOUNDED key counts (hundreds).  For many-key reductions
    use the vectorized plans instead: agg.salted_group_reduce (sum/min/max/
    count/first) or dedup.exact_dedup_keep_first / dedup_keep_first_salted
    below (keep-first)."""

    def add_salt(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if hot_keys is None:
            salt = np.arange(n, dtype=np.int64) % salt_buckets
        else:
            if len(keys) == 1:
                kv = batch[keys[0]].to_numpy(zero_copy_only=False)
                is_hot = np.isin(kv, list(hot_keys)) if hot_keys else np.zeros(n, bool)
            else:
                kvs = list(zip(*[batch[k].to_numpy(zero_copy_only=False) for k in keys]))
                is_hot = np.array([kv in hot_keys for kv in kvs])
            salt = np.where(is_hot, np.arange(n, dtype=np.int64) % salt_buckets, 0)
        from ..util import strip_schema_metadata

        return strip_schema_metadata(batch).append_column("_salt", pa.array(salt))

    def phase1(g):
        out = reduce_fn(g.drop(columns=["_salt"]))
        return out

    def phase2(g):
        return reduce_fn(g)

    salted = ds.map_batches(add_salt, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    partials = salted.groupby(keys + ["_salt"]).map_groups(phase1, batch_format=batch_format)
    if batch_format == "pandas":
        # pandas-format blocks feeding a groupby pay ~13x (CLAUDE.md) —
        # force Arrow blocks between the phases
        partials = partials.map_batches(lambda b: b, batch_format="pyarrow",
                                        zero_copy_batch=True, batch_size=None)
    return partials.groupby(keys).map_groups(phase2, batch_format=batch_format)


def dedup_keep_first_salted(ds, id_col: str = "doc_id", key_col: str = "fingerprint"):
    """Skew-safe exact-dedup keep-first over a precomputed int64 key column:
    the keep-first shuffle of dedup._keep_first_rows with its per-batch
    pre-collapse, so ANY hot key (the boilerplate-document case) ships at
    most one row per block and no hot-key census or salting is needed."""
    from .dedup import _keep_first_rows

    return _keep_first_rows([(ds, lambda b: b)], (id_col,), key=key_col,
                            pre_collapse=True)
