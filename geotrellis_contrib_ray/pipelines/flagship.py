"""The flagship pipeline (north star): interleaved corpus -> geocoded media
spans -> PIP refine vs broadcast zones -> cells of the hits -> zonal rollup.

read_parquet -> map_batches(zone_partial)                      [narrow]
                  per block: media spans -> geocode -> PIP refine
                  -> cell + parent cell of the hits only
                  -> per-(zone, parent_cell) partial count
             -> bounded driver rollup                          [no shuffle]

The zones decide which spans count, so the refine runs before any key: a
quarter of the benchmark corpus's media spans fall in a zone, and only
those get a cell; no tile key is computed and no doc_id is gathered (the
answer never used either).  ``explode_media_spans`` and ``stages.spatial``'s ``add_tile_key``,
``add_cell`` and ``ZoneMatcher`` stay the per-step functions the tests and
the benchmark's reference loop compose.

The kernel is block-wise, and flagship_over drops Ray's fixed 200-block
read floor around its rollup, so when the read has at least 2x as many
files as available CPUs Ray fuses it into the read operator: one task per
read block, no intermediate object-store traffic.

The kernel reads only doc_id, spans.kind and spans.offset.  When its input
is a bare Ray parquet read, flagship_over reads the same files through
documents.SpanLeafDatasource, which decodes just those three parquet leaves
(every span's text and media_ref stay undecoded); any other input (a map on
top, from_arrow, a filtered read) runs as given.

The span-sequence invariant is checked by span_signature before/after the
lift in tests; the pipeline itself never reorders or rebuilds span lists.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..sources import documents
from ..sources.documents import doc_numeric_id, docs_to_spans, geocode_ids
from ..stages import spatial
from .query_defs import CELL_RES, PARENT_RES, ZONE_BOXES, ZONE_CONVEX


def _media_spans(batch: pa.Table) -> tuple[np.ndarray, ...]:
    """(parent row, offset, num_id, lon, lat) arrays, one entry per media
    span of ``batch``.  Reads only ``doc_id``, ``spans.kind`` and
    ``spans.offset``, on the columns as given (a sliced or many-chunk column
    is not copied); no python per-row work."""
    spans = batch["spans"]
    values = pc.list_flatten(spans)
    # a null kind, or a null span, is not media
    is_media = pc.fill_null(pc.equal(pc.struct_field(values, "kind"), "media"), False)
    parent_m = pc.list_parent_indices(spans).filter(is_media).to_numpy(zero_copy_only=False)
    span_off = pc.struct_field(values, "offset").filter(is_media).to_numpy(zero_copy_only=False)
    num_id = doc_numeric_id(batch["doc_id"])[parent_m]
    lon, lat = geocode_ids(num_id, span_off.astype(np.int64))
    return parent_m, span_off, num_id, lon, lat


def explode_media_spans(batch: pa.Table) -> pa.Table:
    """Interleaved docs -> one row per media span: (doc_id, num_id, offset,
    lon, lat).  Reads only ``doc_id``, ``spans.kind`` and ``spans.offset``."""
    parent_m, span_off, num_id, lon, lat = _media_spans(batch)
    return pa.table(
        {
            "doc_id": batch["doc_id"].take(parent_m),
            "num_id": num_id,
            "offset": span_off,
            "lon": lon,
            "lat": lat,
        }
    )


_ZONES = spatial.ZoneMatcher(ZONE_BOXES, [ZONE_CONVEX], keep_cols=("lon", "lat"))
PARTIAL_SCHEMA = pa.schema([("zone_name", pa.string()), ("parent_cell", pa.int64()),
                            ("pcnt", pa.int64())])


def zone_partial(batch: pa.Table) -> pa.Table:
    """Interleaved docs -> their per-(zone_name, parent_cell) count of
    media spans (``pcnt``; a span of a null doc_id counts nowhere).

    The PIP refine runs on every media span's (lon, lat) first, and only
    its hits (one row per point and zone) get a cell and parent cell
    (``spatial.add_cell``).  Same counts as ``explode_media_spans`` ->
    ``add_cell`` -> ``ZoneMatcher`` -> count of doc_id, but no tile key, no
    ``doc_id`` gather, and cells for the hits only.  A block without a hit
    gives a zero-row ``PARTIAL_SCHEMA`` table."""
    row, _, _, lon, lat = _media_spans(batch)
    if batch["doc_id"].null_count:
        # a null doc_id is cast to a garbage id and geocoded: drop its spans
        # here, so every hit's doc_id is valid and counting rows counts them
        ok = batch["doc_id"].is_valid().to_numpy(zero_copy_only=False)[row]
        lon, lat = lon[ok], lat[ok]
    hits = spatial.add_cell(_ZONES(pa.table({"lon": lon, "lat": lat})), CELL_RES, PARENT_RES)
    g = hits.group_by(["zone_name", "parent_cell"], use_threads=False).aggregate(
        [([], "count_all")]
    )
    return g.rename_columns(PARTIAL_SCHEMA.names)


def synthetic_corpus(n_docs: int, override_num_blocks: int | None = None) -> "rd.Dataset":
    """Deterministic interleaved corpus of arbitrary scale, generated in the
    tasks (no IO): rd.range -> vectorized flat docs -> interleaved spans.
    This is the bench stand-in for the 10^12-doc Lance table."""
    from ..sources.documents import synth_flat_docs

    ds = rd.range(n_docs, override_num_blocks=override_num_blocks)

    def make(batch: pa.Table) -> pa.Table:
        return docs_to_spans(synth_flat_docs(batch["id"].to_numpy(zero_copy_only=False)))

    return ds.map_batches(make, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,)


def flagship_over(docs_ds: "rd.Dataset", stats_sink: dict | None = None) -> "rd.Dataset":
    """Flagship stages over an already-interleaved documents Dataset (a
    read).  ``stats_sink`` (optional dict) receives the materialized
    upstream plan's Dataset.stats() text under "stats" — the per-operator
    breakdown the bench reports.

    Read floor: the plan runs with Ray's fixed 200-block read floor
    (``DataContext.read_op_min_num_blocks``) lowered to 1, restored even if
    the plan raises; Ray reads it from the global context when it plans the
    read, which the rollup's ``materialize()`` does inside this scope.  The
    kernel is a per-block partial, so read blocks finer than one per
    file buy it nothing but object-store traffic, and Ray never fuses a
    split read (``ReadParquet->SplitBlocks(k)``) with its downstream maps.
    Ray's own floor of 2x the available CPUs and its block-size bounds still
    apply: when the read has at least 2x as many files as available CPUs it
    is not split at all and the read and kernel run as ONE fused operator
    (8 files on a 1-CPU host: 96 split read blocks feeding a second operator
    -> 2 fused read tasks, wall 1.29 -> 0.62 s median of 10 runs).  With
    fewer files the read still splits to 2x CPUs blocks and the kernel stays
    a second operator.  Only this caller was measured; every other
    ``driver_group_rollup`` keeps Ray's default floor, and so do the
    generated corpora (a ``rd.range`` read is never split, so the floor
    there would only make blocks bigger).

    Leaf pruning: when ``docs_ds`` is a bare Ray parquet read (one ``Read``
    over a ``ParquetDatasource``; no filter, block UDF, shuffle, read schema
    or path column; ``doc_id: string`` and ``spans: list<struct<kind:
    string, offset: int32, ...>>``), the kernel reads the same resolved
    files, through the same filesystem and inside this scope, with
    ``documents.SpanLeafDatasource``: only ``doc_id``, ``spans.kind`` and
    ``spans.offset`` are decoded, and the operator is still named
    ``ReadParquet->MapBatches(zone_partial)`` (8 files at
    1 CPU: wall 0.62 -> 0.43 s median of 10 runs).  Every other input runs
    as given, and so does any input when a Ray plan-API change moves what
    the check reads (``_span_leaf_read``)."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    floor = ctx.read_op_min_num_blocks
    ctx.read_op_min_num_blocks = 1
    try:
        return _zone_rollup(_span_leaf_read(docs_ds), stats_sink)
    finally:
        ctx.read_op_min_num_blocks = floor


def _span_leaf_read(docs_ds: "rd.Dataset") -> "rd.Dataset":
    """``docs_ds`` read through ``documents.SpanLeafDatasource`` when its
    plan is a bare Ray parquet read of the documents schema (the rule is in
    ``flagship_over``), else ``docs_ds`` as given."""
    try:
        from ray.data._internal.datasource.parquet_datasource import ParquetDatasource
        from ray.data._internal.logical.operators.read_operator import Read

        op = docs_ds._logical_plan.dag
        src = op._datasource if isinstance(op, Read) else None
        if not (isinstance(src, ParquetDatasource) and src._block_udf is None
                and not src._to_batches_kwargs and src._file_metadata_shuffler is None
                and src._read_schema is None and not src._include_paths
                and documents.has_span_leaves(op.infer_schema())):
            return docs_ds
        return rd.read_datasource(
            documents.SpanLeafDatasource(src),
            override_num_blocks=None if op._parallelism == -1 else op._parallelism,
            ray_remote_args=dict(op._ray_remote_args),
            concurrency=op._concurrency,
        )
    except (AttributeError, ImportError):  # a Ray plan-API change: run the input as given
        return docs_ds


def _zone_rollup(docs_ds: "rd.Dataset", stats_sink: dict | None = None) -> "rd.Dataset":
    """One block-wise ``zone_partial`` map over the interleaved docs, then
    the bounded driver rollup per (zone, parent_cell) of its partials."""
    from ..stages.agg import driver_group_rollup

    # final reduce: the group count is BOUNDED (zones x parent cells — 27 at
    # the bench layout), so the driver-combine tier beats any all-to-all by
    # its whole fixed cost (measured @8cpu/2M docs: 1.7 s vs 3.8 s for the
    # keyed-reduce plan; stages/agg.py tier rules)
    return rd.from_arrow(driver_group_rollup(
        docs_ds.map_batches(zone_partial, batch_format="pyarrow", zero_copy_batch=True,
                            batch_size=None,),
        ["zone_name", "parent_cell"], [("pcnt", "sum", "n_spans")],
        schema=PARTIAL_SCHEMA,
        stats_sink=stats_sink,
    ))


def flagship(sf_dir: str) -> "rd.Dataset":
    """Full flagship over the driver's documents table: lift to interleaved
    spans -> media points -> PIP refine vs broadcast zones -> per
    (zone, parent_cell) rollup.  Small, stable output schema."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = ds.map_batches(docs_to_spans, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,)
    return flagship_over(ds)


def flagship_synthetic(n_docs: int, stats_sink: dict | None = None) -> "rd.Dataset":
    """Flagship over the generated corpus — the bench headline at scale.

    The generator map and ``zone_partial`` fuse into one operator after the
    ``rd.range`` read.  On a 1-CPU host, bench.py's headline (2M docs,
    ``RAY_GRAFT_CPUS=1``, min of 3 passes) is 3.87-3.94 s, most of it the
    corpus generator: in-process, ``zone_partial`` costs ~7 ms per 62.5k
    docs (~0.22 s of the 2M)."""
    return _zone_rollup(synthetic_corpus(n_docs), stats_sink=stats_sink)
