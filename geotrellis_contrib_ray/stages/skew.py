"""Skew handling: hot-key census and the skew-safe keep-first.

North-star requirement: "groupby-aggregate shuffles on cell keys with
explicit salting for skewed hot cells".  Associative *aggregations*
(count/sum/min/max) are already skew-immune here because every wide op is
fed by an in-batch partial aggregation — a hot key contributes ONE row per
block to the shuffle regardless of its row count (see stages/spatial.py).

``detect_hot_keys`` gives the cheap pre-pass: per-batch partial counts ->
one keyed reduce -> keys above a threshold (``joins.skew_aware_join``
salts only those).  Keep-first needs no census: the per-batch pre-collapse
of ``dedup_keep_first_salted`` caps a hot key at one row per block, like
the aggregations.
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


def dedup_keep_first_salted(ds, id_col: str = "doc_id", key_col: str = "fingerprint"):
    """Skew-safe exact-dedup keep-first over a precomputed int64 key column:
    the keep-first shuffle of dedup._keep_first_rows with its per-batch
    pre-collapse, so ANY hot key (the boilerplate-document case) ships at
    most one row per block and no hot-key census or salting is needed."""
    from .dedup import _keep_first_rows

    return _keep_first_rows([(ds, lambda b: b)], (id_col,), key=key_col,
                            pre_collapse=True)
