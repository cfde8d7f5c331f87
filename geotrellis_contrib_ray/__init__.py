"""geotrellis_contrib_ray — a from-scratch Ray-Data-native spatial-join +
tiling engine with the query/data-processing capabilities of
geotrellis/geotrellis-contrib (reference read-only at /root/reference).

Layout:
  core/       pure numpy kernels: grid math, cells, geometry, cell types, CRS
  sources/    readers/writers + the interleaved documents corpus synthesis
  stages/     Ray Data map_batches / groupby stages (the operators)
  state/      per-worker state: spatial indexes, checkpoint manifests
  pipelines/  end-to-end pipelines (flagship geocode->cells->PIP->tiles)
  functions/  scalar function surface (distance, geojson, wkb, formatting)

Nothing in this package calls ray.init(); sessions are owned by bench.py,
CLI entry points and the pytest fixture.
"""

__version__ = "0.1.0"
