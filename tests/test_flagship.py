"""Flagship pipeline: the span explode and the zone_partial kernel against
pure-Python references, and the plan shape — the kernel fused into its
parquet read."""

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from geotrellis_contrib_ray.pipelines import flagship, query_defs as qd
from geotrellis_contrib_ray.sources import documents
from geotrellis_contrib_ray.stages import spatial

SPAN = pa.struct([("kind", pa.string()), ("text", pa.string()),
                  ("media_ref", pa.string()), ("offset", pa.int32())])


def _explode_loop(table: pa.Table) -> list[tuple]:
    """One (doc_id, num_id, offset, lon, lat) per media span, row by row."""
    out = []
    for doc_id, spans in zip(table["doc_id"].to_pylist(), table["spans"].to_pylist()):
        for s in spans or []:
            if s is not None and s["kind"] == "media":
                num_id = int(doc_id.replace("doc-", ""))
                lon, lat = documents.geocode_ids([num_id], [s["offset"]])
                out.append((doc_id, num_id, s["offset"], float(lon[0]), float(lat[0])))
    return out


def _rows(t: pa.Table) -> list[tuple]:
    return list(zip(*(t[c].to_pylist() for c in ("doc_id", "num_id", "offset", "lon", "lat"))))


def _span(kind, off):
    return {"kind": kind, "text": "t" if kind == "text" else None,
            "media_ref": "m" if kind == "media" else None, "offset": off}


def _edge_docs() -> pa.Table:
    spans = [
        [_span("text", 0), _span("media", 4), _span("text", 9)],
        [_span(None, 0), _span("media", 2)],  # null kind: not media
        None,  # null span list
        [],  # empty span list
        [_span("media", 0), None, _span("media", 7)],  # null span
        [_span("text", 1)],
    ]
    return pa.table({"doc_id": pa.array([f"doc-{i}" for i in (3, 17, 5, 8, 40, 2)], pa.string()),
                     "spans": pa.array(spans, pa.list_(SPAN))})


def _split_chunks(t: pa.Table, cuts: list[int]) -> pa.Table:
    """Same rows, every column re-chunked at ``cuts``."""
    bounds = [0] + cuts + [t.num_rows]
    parts = [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    return pa.Table.from_batches([b for p in parts for b in p.to_batches()])


@pytest.mark.parametrize("shape", ["plain", "multi_chunk", "sliced", "sliced_multi_chunk"])
def test_explode_media_spans_matches_loop(shape):
    base = pa.concat_tables([_edge_docs(), documents.docs_to_spans(
        documents.synth_flat_docs(np.arange(100, 160, dtype=np.int64)))])
    t = {
        "plain": base,
        "multi_chunk": _split_chunks(base, [2, 5, 31]),
        "sliced": base.slice(1, 40),
        "sliced_multi_chunk": _split_chunks(base, [4, 20]).slice(3, 50),
    }[shape]
    if shape.startswith("sliced"):
        assert t["spans"].chunk(0).offset != 0
    if shape.endswith("multi_chunk"):
        assert t["spans"].num_chunks > 1
    got = flagship.explode_media_spans(t)
    assert got.schema == pa.schema([("doc_id", pa.string()), ("num_id", pa.int64()),
                                    ("offset", pa.int32()), ("lon", pa.float64()),
                                    ("lat", pa.float64())])
    assert _rows(got) == _explode_loop(t)


def test_explode_media_spans_empty_and_all_null():
    empty = flagship.explode_media_spans(_edge_docs().slice(0, 0))
    assert empty.num_rows == 0 and "doc_id" in empty.column_names
    nulls = pa.table({"doc_id": pa.array(["doc-1", "doc-2"]),
                      "spans": pa.array([None, [_span(None, 0)]], pa.list_(SPAN))})
    assert flagship.explode_media_spans(nulls).num_rows == 0


def test_null_doc_ids_drop_their_spans_before_the_id_parse():
    """Two null doc_ids in a batch: ``explode_media_spans`` gives no row for
    them and an int64 ``num_id`` for the rest (the rows of the valid docs),
    ``zone_partial`` counts the valid docs' spans only, and
    ``doc_numeric_id`` refuses a column with a null."""
    base = _edge_docs()
    ids = base["doc_id"].to_pylist()
    ids[0] = ids[4] = None  # both docs hold media spans
    t = base.set_column(0, "doc_id", pa.array(ids, pa.string()))
    valid = t.filter(pc.is_valid(t["doc_id"]))
    got = flagship.explode_media_spans(t)
    assert got.schema.field("num_id").type == pa.int64()
    assert _rows(got) == _explode_loop(valid) and got["doc_id"].null_count == 0
    assert flagship.explode_media_spans(t.slice(0, 1)).schema.field("num_id").type == pa.int64()
    assert flagship.zone_partial(t).equals(flagship.zone_partial(valid))
    with pytest.raises(ValueError, match="2 null doc_id"):
        documents.doc_numeric_id(t["doc_id"])


def test_explode_media_spans_skips_a_null_span_over_media_fields():
    """A null span is not media even when its struct children (kept by
    Arrow under the null) say kind == "media"."""
    kids = [pa.array(["media", "media"]), pa.array(["t", "t"]), pa.array(["m", "m"]),
            pa.array([3, 5], pa.int32())]
    values = pa.StructArray.from_arrays(kids, fields=list(SPAN), mask=pa.array([False, True]))
    t = pa.table({"doc_id": pa.array(["doc-7"]),
                  "spans": pa.ListArray.from_arrays(pa.array([0, 2], pa.int32()), values)})
    got = flagship.explode_media_spans(t)
    assert _rows(got) == _explode_loop(t) and got["offset"].to_pylist() == [3]


def _operators(stats: str) -> list[str]:
    return re.findall(r"^Operator \d+ (\S+):", stats, flags=re.M)


def test_flagship_runs_as_one_fused_read_operator(ray_session, tmp_path):
    """Eight files at the 4-CPU session: Ray's own floor (2x CPUs) gives one
    read task per file, so with the 200-block floor dropped the read is not
    split and the zone_partial kernel fuses into it."""
    import ray
    import ray.data as rd

    matcher = spatial.ZoneMatcher(qd.ZONE_BOXES, [qd.ZONE_CONVEX],
                                  keep_cols=("doc_id", "num_id", "cell", "parent_cell"))
    partials = []
    for i in range(8):
        ids = np.arange(i * 12_500, (i + 1) * 12_500, dtype=np.int64)
        table = documents.docs_to_spans(documents.synth_flat_docs(ids))
        pq.write_table(table, str(tmp_path / f"part-{i:02d}.parquet"))
        pts = flagship.explode_media_spans(table)
        pts = spatial.add_cell(spatial.add_tile_key(pts, qd.QUERY_LAYOUT),
                               qd.CELL_RES, qd.PARENT_RES)
        partials.append(matcher(pts).group_by(["zone_name", "parent_cell"]).aggregate(
            [("doc_id", "count")]))
    want = (pa.concat_tables(partials).group_by(["zone_name", "parent_cell"])
            .aggregate([("doc_id_count", "sum")])
            .rename_columns(["zone_name", "parent_cell", "n_spans"])
            .sort_by([("zone_name", "ascending"), ("parent_cell", "ascending")]))

    sink = {}
    got = pa.concat_tables(ray.get(
        flagship.flagship_over(rd.read_parquet(str(tmp_path)), stats_sink=sink).to_arrow_refs()))
    ops = _operators(sink["stats"])
    assert len(ops) == 1, ops
    assert ops[0].startswith("ReadParquet->MapBatches(zone_partial)"), ops
    assert "SplitBlocks" not in sink["stats"]
    got = got.select(want.column_names).sort_by(
        [("zone_name", "ascending"), ("parent_cell", "ascending")])
    assert want.num_rows > 0 and got.equals(want)


def test_flagship_restores_read_floor(ray_session):
    """flagship_over drops the read floor only around its own rollup: the
    caller's value is back after a normal run and after an upstream UDF
    raises."""
    import ray.data as rd
    from ray.data import DataContext

    ctx = DataContext.get_current()
    before = ctx.read_op_min_num_blocks
    ctx.read_op_min_num_blocks = 37
    try:
        docs = documents.docs_to_spans(documents.synth_flat_docs(np.arange(200, dtype=np.int64)))
        out = flagship.flagship_over(rd.from_arrow(docs)).to_arrow_refs()
        assert out and ctx.read_op_min_num_blocks == 37

        def boom(b):
            raise RuntimeError("udf failed")

        with pytest.raises(Exception, match="udf failed"):
            flagship.flagship_over(rd.from_arrow(docs).map_batches(boom, batch_format="pyarrow"))
        assert ctx.read_op_min_num_blocks == 37
    finally:
        ctx.read_op_min_num_blocks = before


def _reference_rollup(table: pa.Table) -> pa.Table:
    """flagship_over's answer over ``table``'s rows: the row-by-row explode,
    then the per-batch key, PIP and count functions in one process."""
    rows = _explode_loop(table)
    pts = pa.table([pa.array(col, typ) for col, typ in zip(zip(*rows), (
        pa.string(), pa.int64(), pa.int32(), pa.float64(), pa.float64()))],
        names=["doc_id", "num_id", "offset", "lon", "lat"])
    pts = spatial.add_cell(spatial.add_tile_key(pts, qd.QUERY_LAYOUT), qd.CELL_RES, qd.PARENT_RES)
    hits = spatial.ZoneMatcher(qd.ZONE_BOXES, [qd.ZONE_CONVEX],
                               keep_cols=("doc_id", "num_id", "cell", "parent_cell"))(pts)
    want = (hits.group_by(["zone_name", "parent_cell"]).aggregate([("doc_id", "count")])
            .rename_columns(["zone_name", "parent_cell", "n_spans"]))
    assert want.num_rows > 0
    return want.sort_by([("zone_name", "ascending"), ("parent_cell", "ascending")])


def _summed(partials: list[pa.Table]) -> pa.Table:
    return (pa.concat_tables(partials).group_by(["zone_name", "parent_cell"])
            .aggregate([("pcnt", "sum")]).rename_columns(["zone_name", "parent_cell", "n_spans"])
            .sort_by([("zone_name", "ascending"), ("parent_cell", "ascending")]))


def _no_hit_docs(docs: pa.Table) -> pa.Table:
    """The rows of ``docs`` with media spans none of which falls in a zone."""
    pts = flagship.explode_media_spans(docs)
    hit = spatial.ZoneMatcher(qd.ZONE_BOXES, [qd.ZONE_CONVEX], keep_cols=("doc_id",))(pts)
    miss = set(pts["doc_id"].to_pylist()) - set(hit["doc_id"].to_pylist())
    return docs.filter(pc.is_in(docs["doc_id"], pa.array(sorted(miss), pa.string())))


def test_zone_partial_matches_reference(monkeypatch):
    """The kernel's partials, summed over blocks, equal the reference
    rollup: edge docs, a null doc_id, synthetic docs, a block with media but
    no zone hit (a typed empty partial) and an empty block; the cell kernel
    sees the zone hits only."""
    from geotrellis_contrib_ray.core import cells

    synth = documents.docs_to_spans(documents.synth_flat_docs(np.arange(100, 700, dtype=np.int64)))
    # a null doc_id's spans are geocoded from a garbage id (its NaN cast to
    # int64); at these offsets that point falls in a zone, where it must
    # still count nowhere
    null_doc = pa.table({"doc_id": pa.array([None], pa.string()),
                         "spans": pa.array([[_span("media", o) for o in (15, 71, 76)]],
                                           pa.list_(SPAN))})
    miss = _no_hit_docs(synth)
    assert miss.num_rows and flagship.explode_media_spans(miss).num_rows
    blocks = [pa.concat_tables([_edge_docs(), null_doc, synth.slice(0, 250)]), synth.slice(250),
              miss, synth.slice(0, 0)]

    seen = []
    latlng_to_cell = cells.latlng_to_cell

    def counting(lat, lng, res):
        seen.append(len(lat))
        return latlng_to_cell(lat, lng, res)

    monkeypatch.setattr(cells, "latlng_to_cell", counting)
    partials = [flagship.zone_partial(b) for b in blocks]
    monkeypatch.undo()

    assert all(p.schema.equals(flagship.PARTIAL_SCHEMA) for p in partials)
    assert partials[2].num_rows == 0 and partials[3].num_rows == 0
    assert flagship.zone_partial(null_doc).num_rows == 0
    rows = pa.concat_tables(blocks)
    valid = rows.filter(pc.is_valid(rows["doc_id"]))
    assert _summed(partials).equals(_reference_rollup(valid))

    matcher = spatial.ZoneMatcher(qd.ZONE_BOXES, [qd.ZONE_CONVEX], keep_cols=("doc_id",))
    hits = [matcher(flagship.explode_media_spans(b.filter(pc.is_valid(b["doc_id"]))))
            .num_rows for b in blocks]
    assert seen == hits and sum(hits) < flagship.explode_media_spans(rows).num_rows


def _rollup_of(ds) -> pa.Table:
    import ray

    got = pa.concat_tables(ray.get(flagship.flagship_over(ds).to_arrow_refs()))
    got = got.select(["zone_name", "parent_cell", "n_spans"]).cast(pa.schema(
        [("zone_name", pa.string()), ("parent_cell", pa.int64()), ("n_spans", pa.int64())]))
    return got.sort_by([("zone_name", "ascending"), ("parent_cell", "ascending")])


def _documents_dir(path, compliant: bool = True) -> pa.Table:
    """Edge docs plus synthetic docs as three parquet files, the first two
    of several row groups each, the third with zero rows; returns their
    rows."""
    synth = documents.docs_to_spans(documents.synth_flat_docs(np.arange(100, 700, dtype=np.int64)))
    parts = [pa.concat_tables([_edge_docs(), synth.slice(0, 250)]), synth.slice(250),
             synth.slice(0, 0)]
    for i, part in enumerate(parts):
        pq.write_table(part, str(path / f"part-{i}.parquet"), row_group_size=64,
                       use_compliant_nested_type=compliant)
    assert pq.ParquetFile(str(path / "part-0.parquet")).num_row_groups > 1
    return pa.concat_tables(parts)


@pytest.mark.parametrize("compliant", [True, False], ids=["element", "item"])
def test_span_leaf_read_matches_full_read(ray_session, tmp_path, compliant):
    """A bare parquet read is pruned to doc_id, spans.kind and spans.offset,
    under either list naming, over several row groups and a zero-row file,
    and gives the full read's explode and the reference rollup."""
    import ray
    import ray.data as rd

    rows = _documents_dir(tmp_path, compliant)
    full = rd.read_parquet(str(tmp_path))
    pruned = flagship._span_leaf_read(full)
    assert pruned is not full

    assert set(pruned.schema().names) == {"doc_id", "spans"}
    blocks = [t for t in ray.get(pruned.to_arrow_refs()) if t.num_rows]
    assert blocks and all(t.schema.equals(documents.SPAN_LEAF_SCHEMA) for t in blocks)
    assert sum(t.num_rows for t in blocks) == rows.num_rows

    def exploded(ds):
        out = ds.map_batches(flagship.explode_media_spans, batch_format="pyarrow", batch_size=None)
        return sorted(r for t in ray.get(out.to_arrow_refs()) if t.num_rows for r in _rows(t))

    assert exploded(pruned) == exploded(full) == sorted(_explode_loop(rows))
    assert _rollup_of(rd.read_parquet(str(tmp_path))).equals(_reference_rollup(rows))


def test_flagship_over_runs_other_inputs_as_given(ray_session, tmp_path, monkeypatch):
    """Inputs that are not a bare parquet read keep their plan and give the
    reference rollup over the same rows: a filtered read, a map on a read
    (the flagship(sf_dir) shape), from_arrow, and a read whose datasource
    lost an attribute the pruning looks at."""
    import ray.data as rd

    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    rows = _documents_dir(docs_dir)
    ids = np.arange(1_000, 1_600, dtype=np.int64)
    flat_dir = tmp_path / "flat"
    flat_dir.mkdir()
    pq.write_table(documents.synth_flat_docs(ids), str(flat_dir / "documents.parquet"))
    mapped = rd.read_parquet(str(flat_dir), columns=["doc_id", "text"]).map_batches(
        documents.docs_to_spans, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    broken = rd.read_parquet(str(docs_dir))
    monkeypatch.delattr(broken._logical_plan.dag._datasource, "_filesystem")

    cases = [
        (rd.read_parquet(str(docs_dir), filter=pc.field("doc_id") != "doc-100"),
         rows.filter(pc.field("doc_id") != "doc-100")),
        (mapped, documents.docs_to_spans(documents.synth_flat_docs(ids))),
        (rd.from_arrow(rows), rows),
        (broken, rows),
    ]
    flat = rd.read_parquet(str(flat_dir))  # bare, but not the documents schema
    assert flagship._span_leaf_read(flat) is flat
    for ds, want_rows in cases:
        assert flagship._span_leaf_read(ds) is ds
        assert _rollup_of(ds).equals(_reference_rollup(want_rows))
