"""The three workloads.  Each is a closed loop with one client: the next op
starts when the previous one has returned and been checked.

- ``flagship``: the north-star pipeline, one long narrow stream over a
  multi-file parquet corpus.  Its compute sits in ``pipelines``,
  ``stages.spatial`` and ``core``; it reads no raster and its fixed per-query
  cost is a small share of a pass.
- ``raster_tiles``: the reference's JMH windowed-read benchmark plus a
  two-level pyramid shuffle over a deflate GeoTIFF.  Its windows straddle the
  file tiles, so neighbouring windows share decoded tiles and the per-source
  tile cache works against the working set of one window row.  No
  ``documents`` or ``spatial`` code runs.
- ``query_mix``: 25 oracle-matched queries of ``__ray_entry__.queries()`` on
  an sf0.1-sized documents table, plus the null query, in an order the seed
  shuffles each round.  Walls are mostly Ray fixed cost, so a per-row kernel
  gain should not show here and a fixed-cost gain should show only here.

Every workload makes its inputs from the seed, computes its reference answers
in set-up, and checks every op against them.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import raystats

FLAGSHIP_DOCS = 500_000
FLAGSHIP_FILES = 8
RASTER_SIZE = 4096          # square int16 GeoTIFF, deflate + predictor 2
RASTER_FILE_TILE = 256
RASTER_WINDOW = 384         # layout tile: straddles the 256-px file tiles
PYRAMID_LEVELS = 2
QM_DOCS = 5_000             # rows of the sf0.1 documents table
QUERY_MIX = (
    # key assignment
    "tile_assign", "cell_assign", "hilbert_key", "geohash_cells", "mercator_cells",
    # point in polygon
    "pip_zones", "pip_zones_indexed", "pip_zones_rtree", "zone_anti_join", "zonal_summary",
    # kNN
    "knn", "knn_rtree", "knn_many",
    # joins
    "distance_pairs", "box_join",
    # rasterize and summarize
    "rasterize", "pyramid", "raster_summary",
    # raster
    "raster_tile_read", "raster_stride_windows", "raster_convert", "raster_mosaic",
    "raster_focal", "raster_pyramid", "raster_lambert",
)
NULL_QUERY = "null"


def identity(batch: pa.Table) -> pa.Table:
    return batch


def collect(ds) -> pa.Table:
    """Execute a Dataset and return its rows as one Arrow table."""
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tables) if tables else pa.table({})


def _sorted_rows(t: pa.Table, keys: list[str]) -> pa.Table:
    return t.select(sorted(t.column_names)).sort_by([(k, "ascending") for k in keys])


class Flagship:
    name = "flagship"

    def __init__(self, work_dir: str, seed: int, tracer):
        self.dir = os.path.join(work_dir, "flagship")
        self.seed = seed
        self.tracer = tracer
        self.expected: pa.Table | None = None
        self.stage_ops: list[list[dict]] = []

    def prepare(self) -> None:
        """Write the seeded interleaved corpus as multi-file parquet (the
        stand-in for the north star's Lance table) and compute the answer
        with a single-process loop over the same per-batch functions."""
        from geotrellis_contrib_ray.pipelines import flagship, query_defs as qd
        from geotrellis_contrib_ray.sources import documents
        from geotrellis_contrib_ray.stages import spatial

        os.makedirs(self.dir, exist_ok=True)
        base = self.seed * FLAGSHIP_DOCS
        per_file = FLAGSHIP_DOCS // FLAGSHIP_FILES
        partials = []
        matcher = spatial.ZoneMatcher(qd.ZONE_BOXES, [qd.ZONE_CONVEX],
                                      keep_cols=("doc_id", "num_id", "cell", "parent_cell"))
        for i in range(FLAGSHIP_FILES):
            ids = np.arange(base + i * per_file, base + (i + 1) * per_file, dtype=np.int64)
            with self.tracer.span("sources.documents.corpus", "sources"):
                table = documents.docs_to_spans(documents.synth_flat_docs(ids))
                pq.write_table(table, os.path.join(self.dir, f"part-{i:02d}.parquet"))
            with self.tracer.span("reference.flagship", "bench"):
                pts = flagship.explode_media_spans(table)
                pts = spatial.add_cell(spatial.add_tile_key(pts, qd.QUERY_LAYOUT),
                                       qd.CELL_RES, qd.PARENT_RES)
                hits = matcher(pts)
                partials.append(hits.group_by(["zone_name", "parent_cell"]).aggregate(
                    [("doc_id", "count")]))
        exp = pa.concat_tables(partials).group_by(["zone_name", "parent_cell"]).aggregate(
            [("doc_id_count", "sum")])
        exp = exp.rename_columns(["zone_name", "parent_cell", "n_spans"])
        self.expected = _sorted_rows(exp, ["zone_name", "parent_cell"])

    def op(self, traced: bool):
        import ray.data as rd

        from geotrellis_contrib_ray.pipelines import flagship

        sink = {} if traced else None
        with self.tracer.span("sources.read_parquet", "sources"):
            ds = rd.read_parquet(self.dir)
        with self.tracer.span("pipelines.flagship_over", "pipelines"):
            res = flagship.flagship_over(ds, stats_sink=sink)
        with self.tracer.span("ray_data.collect", "ray_data"):
            out = collect(res)
        self._sink = sink
        return out

    def record_stages(self) -> None:
        """Stage records of the last (traced) op: ``flagship_over`` hands
        the executed plan's stats text to its ``stats_sink``."""
        self.stage_ops.append(raystats.parse(self._sink["stats"]))

    def check(self, out: pa.Table) -> str | None:
        got = _sorted_rows(out.cast(pa.schema([("zone_name", pa.string()), ("parent_cell", pa.int64()),
                                               ("n_spans", pa.int64())])),
                           ["zone_name", "parent_cell"])
        want_total = sum(self.expected["n_spans"].to_pylist())
        got_total = sum(got["n_spans"].to_pylist())
        if got_total != want_total:
            return f"total n_spans {got_total} != {want_total}"
        if not got.equals(self.expected):
            return "(zone_name, parent_cell, n_spans) rows differ from the reference loop"
        return None

    def items_per_op(self) -> int:
        return FLAGSHIP_DOCS


def _level_layout(layout):
    """Layout of the next pyramid level: same pixel frame, twice the
    world size per tile, anchored at the same top-left corner."""
    from geotrellis_contrib_ray.core.grid import Extent, LayoutDefinition

    cols, rows = -(-layout.layout_cols // 2), -(-layout.layout_rows // 2)
    tw, th = 2.0 * layout.tile_width, 2.0 * layout.tile_height
    ext = Extent(layout.extent.xmin, layout.extent.ymax - rows * th,
                 layout.extent.xmin + cols * tw, layout.extent.ymax)
    return LayoutDefinition(ext, layout.tile_cols, layout.tile_rows, cols, rows)


class RasterTiles:
    name = "raster_tiles"

    def __init__(self, work_dir: str, seed: int, tracer):
        self.path = os.path.join(work_dir, "raster.tif")
        self.seed = seed
        self.tracer = tracer
        self.expected: list[pa.Table] = []
        self.stage_ops: list[list[dict]] = []
        self.layout = None

    def prepare(self) -> None:
        from geotrellis_contrib_ray.core.celltype import CellType
        from geotrellis_contrib_ray.core.grid import Extent, GridExtent, LayoutDefinition
        from geotrellis_contrib_ray.sources import tiff

        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        n = RASTER_SIZE
        rng = np.random.default_rng(self.seed)
        # a smooth field (random walk along rows) keeps deflate + predictor 2
        # realistic; values stay in [0, 30000), clear of the nodata value
        px = (np.cumsum(rng.integers(-3, 4, size=(n, n)), axis=1) % 30000).astype(np.int16)
        grid = GridExtent(Extent(0.0, 0.0, n * 10.0, n * 10.0), 10.0, 10.0, n, n)
        with self.tracer.span("sources.tiff.write", "sources"):
            tiff.write_tiff(self.path, px[None], grid, cell_type=CellType("int16", -32768.0),
                            compression="deflate", predictor=2, tile_size=RASTER_FILE_TILE)
        self.layout = LayoutDefinition.floating(grid, RASTER_WINDOW)
        with self.tracer.span("reference.raster", "bench"):
            self.expected = [self._reference(px, level) for level in range(PYRAMID_LEVELS + 1)]

    def _reference(self, px: np.ndarray, level: int) -> pa.Table:
        """numpy checksums of one level: the base windows clipped to the
        data, and for each pyramid level the even-cell decimation of the
        written array in full-size tile frames (NoData padding excluded)."""
        w = RASTER_WINDOW
        data = px[:: 2 ** level, :: 2 ** level].astype(np.int64)
        ncols = self.layout.layout_cols
        nrows = self.layout.layout_rows
        for _ in range(level):
            ncols, nrows = -(-ncols // 2), -(-nrows // 2)
        rows = []
        for r in range(nrows):
            for c in range(ncols):
                win = data[r * w:(r + 1) * w, c * w:(c + 1) * w]
                if win.size == 0:
                    continue
                h, wd = (win.shape if level == 0 else (w, w))
                rows.append((c, r, wd, h, int(win.sum()), int(win.size)))
        keys = ("tile_col", "tile_row", "cols", "rows", "pixel_sum", "n_valid")
        return pa.table({k: pa.array(v, pa.int64()) for k, v in zip(keys, zip(*rows))})

    def op(self, traced: bool):
        from geotrellis_contrib_ray.sources import tiff
        from geotrellis_contrib_ray.stages import raster as rst

        tr = self.tracer
        with tr.span("sources.tiff.open", "sources"):
            src = tiff.TiffRasterSource(self.path)
        with tr.span("stages.raster.tile_read", "stages"):
            tiles = rst.tile_dataset([src], self.layout)
            with tr.span("ray_data.materialize", "ray_data"):
                tiles = tiles.materialize()
        levels = [tiles]
        with tr.span("stages.raster.pyramid_build", "stages"):
            layout = self.layout
            for _ in range(PYRAMID_LEVELS):
                nxt = rst.pyramid_build(levels[-1], 1, layout)[1]
                with tr.span("ray_data.materialize", "ray_data"):
                    levels.append(nxt.materialize())
                layout = _level_layout(layout)
        sums, summaries = [], []
        with tr.span("stages.raster.summarize", "stages"):
            for lvl in levels:
                summaries.append(rst.summarize_tiles(lvl, nodata_aware=True, include_dims=True))
                with tr.span("ray_data.collect", "ray_data"):
                    sums.append(collect(summaries[-1]))
        self._executed = (levels[-1], summaries)
        return sums

    def record_stages(self) -> None:
        """Stage records of the last op, read after its timing ends.  The
        last level's stats list the whole lineage once; each summary's
        stats repeat its input's lineage, so only its own summarize
        operator is taken from them."""
        last, summaries = self._executed
        ops = raystats.parse(last.stats())
        for s in summaries:
            ops += [o for o in raystats.parse(s.stats()) if raystats.label(o["name"]) == "summarize"]
        self.stage_ops.append(ops)

    def check(self, sums: list[pa.Table]) -> str | None:
        if len(sums) != len(self.expected):
            return f"{len(sums)} levels summarized, expected {len(self.expected)}"
        for level, (got, want) in enumerate(zip(sums, self.expected)):
            got = _sorted_rows(got, ["tile_col", "tile_row"])
            want = _sorted_rows(want, ["tile_col", "tile_row"])
            if not got.equals(want):
                return f"level {level} checksums differ from numpy over the written pixels"
        return None

    def items_per_op(self) -> int:
        return self.layout.layout_cols * self.layout.layout_rows


def _normalize(df):
    """Canonical column order and row sort, as the oracle mirror test
    normalises both sides: object columns as str, every integer width as
    int64, floats left alone so a dtype-kind mismatch still fails."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _frame_mismatch(got, exp) -> str | None:
    if list(got.columns) != list(exp.columns):
        return f"columns {list(got.columns)} vs {list(exp.columns)}"
    if len(got) != len(exp):
        return f"rows {len(got)} vs {len(exp)}"
    for c in got.columns:
        gf = np.issubdtype(got[c].dtype, np.floating)
        if gf != np.issubdtype(exp[c].dtype, np.floating):
            return f"column {c} dtype {got[c].dtype} vs {exp[c].dtype}"
        if gf:
            if not np.array_equal(got[c].to_numpy(), exp[c].to_numpy(np.float64)):
                return f"column {c} differs"
        elif got[c].tolist() != exp[c].tolist():
            return f"column {c} differs"
    return None


class QueryMix:
    name = "query_mix"

    def __init__(self, work_dir: str, seed: int, tracer):
        self.sf_dir = os.path.join(work_dir, "sf")
        self.tiff_dir = os.path.join(work_dir, "entry_tiff")
        self.seed = seed
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.expected: dict = {}

    def prepare(self) -> None:
        """Write a seeded sf0.1-shaped documents table (doc_id 0..4999, the
        id range the query constants select from), the entry layer's raster
        fixture, and the DuckDB oracle answers."""
        import duckdb

        import __ray_entry__ as entry

        os.makedirs(self.sf_dir, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        words = np.array("the quick brown fox jumps over lazy dog raster vector tile span "
                         "media join index cell layer pixel band extent zoom key merge".split())
        nwords = rng.integers(8, 90, QM_DOCS)
        texts = [" ".join(rng.choice(words, k)) for k in nwords]
        table = pa.table({
            "doc_id": pa.array(np.arange(QM_DOCS, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(rng.choice(["en", "de", "fr", "es", "zh"], QM_DOCS), pa.string()),
            "source": pa.array([f"src{i}" for i in rng.integers(0, 20, QM_DOCS)], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        })
        path = os.path.join(self.sf_dir, "documents.parquet")
        with self.tracer.span("sources.documents.table", "sources"):
            pq.write_table(table, path)
        # the entry layer caches its GeoTIFF fixture in a module-level
        # directory; point it into the work dir and write it now, in set-up
        entry._TIFF_CACHE = self.tiff_dir
        with self.tracer.span("entry.raster_fixture", "entry"):
            entry._raster_tiff_path()
        with self.tracer.span("reference.oracle", "bench"):
            con = duckdb.connect()
            try:
                con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
                sql = entry.oracle_sql()
                self.expected = {q: _normalize(con.execute(sql[q]).df()) for q in QUERY_MIX}
            finally:
                con.close()
        self.expected[NULL_QUERY] = QM_DOCS

    def round_order(self) -> list[str]:
        return [str(q) for q in self.rng.permutation(list(QUERY_MIX) + [NULL_QUERY])]

    def op(self, query: str, traced: bool):
        import ray.data as rd

        import __ray_entry__ as entry

        tr = self.tracer
        if query == NULL_QUERY:
            with tr.span("ray_data.null_query", "ray_data"):
                return (rd.read_parquet(os.path.join(self.sf_dir, "documents.parquet"))
                        .map_batches(identity, batch_format="pyarrow", zero_copy_batch=True,
                                     batch_size=None)
                        .count())
        with tr.span(f"entry.{query}", "entry"):
            res = entry.queries()[query](self.sf_dir)
        with tr.span("ray_data.collect", "ray_data"):
            if hasattr(res, "to_pandas"):
                return res.to_pandas()
            return res

    def check(self, query: str, out) -> str | None:
        if query == NULL_QUERY:
            return None if out == QM_DOCS else f"null query counted {out} rows"
        return _frame_mismatch(_normalize(out), self.expected[query])


WORKLOADS = {w.name: w for w in (Flagship, RasterTiles, QueryMix)}
