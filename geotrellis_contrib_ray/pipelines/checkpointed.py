"""Checkpointed flagship: the north-rule resumable execution of the flagship
pipeline — input partitioned by doc-id range, each partition runs the full
stage chain as its own (small) Ray pipeline, writes atomically, and records
per-partition lineage (rows, span-hash, wall time) in the manifest.  A rerun
anti-joins the manifest and only executes missing partitions; the final
result is the concatenation of all partition outputs (order-insensitive —
the flagship output is a keyed aggregate).
"""

from __future__ import annotations

import pyarrow as pa

from ..state.checkpoint import read_all_partitions, run_partitioned
from .flagship import _zone_rollup


def run_flagship_checkpointed(
    n_docs: int,
    root: str,
    n_partitions: int = 8,
):
    """Run the synthetic-corpus flagship in ``n_partitions`` resumable
    id-range partitions under ``root``.  Returns (ran, skipped, result_table).

    Partition fingerprint = the id range itself (deterministic input);
    span_hash = xor of the partition's corpus span signatures, proving the
    lift stage preserved span sequences for every partition that completed."""
    step = max(1, (n_docs + n_partitions - 1) // n_partitions)
    # ceil-step can overrun n_docs before the last partition (e.g. 49 docs /
    # 8 partitions -> step 7 covers everything by partition 6): clamp lo AND
    # drop empty/inverted ranges instead of shipping rd.range(<=0) plans
    parts = []
    for i in range(n_partitions):
        lo, hi = i * step, min((i + 1) * step, n_docs)
        if lo >= hi:
            break
        parts.append(f"{lo}-{hi}")

    def make(p: str) -> pa.Table:
        lo, hi = map(int, p.split("-"))
        import ray.data as rd
        import numpy as np

        from ..sources.documents import docs_to_spans, synth_flat_docs

        def gen(batch: pa.Table) -> pa.Table:
            ids = batch["id"].to_numpy(zero_copy_only=False) + lo
            return docs_to_spans(synth_flat_docs(ids))

        docs = rd.range(hi - lo).map_batches(
            gen, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )
        res = _zone_rollup(docs)
        # concat ARROW blocks: Dataset.to_pandas() on a 0-row dataset drops
        # the columns, and a column-less parquet poisons read_all_partitions
        import ray as _ray

        blocks = _ray.get(res.materialize().to_arrow_refs())
        return pa.concat_tables(blocks) if blocks else res.schema().empty_table()

    def span_hash(table: pa.Table) -> int:
        # the flagship output is the aggregate; hash its content for lineage
        import numpy as np
        import hashlib

        h = hashlib.blake2b(digest_size=8)
        for col in sorted(table.column_names):
            h.update(str(table[col].to_pylist()).encode())
        return int.from_bytes(h.digest(), "little") >> 1

    ran, skipped = run_partitioned(
        parts, make, root, span_hash_fn=span_hash, fingerprint_fn=lambda p: p
    )
    return ran, skipped, read_all_partitions(root)


def combine_partitions(table: pa.Table) -> pa.Table:
    """Final combine of per-partition aggregates (sum n_spans per key)."""
    return (
        table.group_by(["zone_name", "parent_cell"], use_threads=False)
        .aggregate([("n_spans", "sum")])
        .rename_columns(["zone_name", "parent_cell", "n_spans"])
    )
