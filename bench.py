#!/usr/bin/env python
"""Benchmark runner: headline flagship pipeline + per-operator timings.

Prints exactly ONE JSON line on stdout:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "docs_per_sec": ...}

--scaling: runs the headline pipeline in two fresh processes at
RAY_GRAFT_CPUS=8 and =32 on the same input and reports both throughputs +
scaling efficiency (the sandbox stand-in for the north rule's N vs 4N node
clusters).  Results are recorded in BASELINE.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# per-operator benches beyond the headline: EVERY queries() entry, derived
# at run time so new operators are always timed (the r2 static list silently
# skipped 30 of them)
def _bench_queries(qs: dict) -> list[str]:
    return list(qs)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _flagship_stage_stats(n_docs: int) -> dict:
    """One materialized flagship pass -> {operator: wall_sec} parsed from
    Dataset.stats(), evidence that wall time sits in the narrow compute
    stages (UDF-dominated) and the final reduce is driver-combine.  The
    flagship's last step is driver_group_rollup (it materializes the real
    plan internally and hands back a tiny Table), so the stats text is
    captured through its stats_sink — the returned Dataset's own stats are
    just the FromArrow wrapper."""
    import re

    from geotrellis_contrib_ray.pipelines.flagship import flagship_synthetic

    sink: dict = {}
    flagship_synthetic(n_docs, stats_sink=sink).materialize()
    stats = sink.get("stats", "")
    out = {}
    for m in re.finditer(r"Operator \d+ ([^:\n]+):.*?in ([\d.]+)s", stats):
        name = m.group(1)
        name = (name[:60] + "...") if len(name) > 60 else name
        out[name] = float(m.group(2))
    udf = re.findall(r"UDF time:.*?([\d.]+)(m?s) total", stats)
    if udf:
        total_udf = sum(float(v) / (1000.0 if u == "ms" else 1.0) for v, u in udf)
        out["total_udf_sec"] = round(total_udf, 3)
    return out


def _host_calibration(reps: int = 3) -> float:
    """Fixed pure-numpy workload timing (fresh 256 MB first-touch + sum),
    min over reps.  This sandbox's wall times swing 3-9x with a host-wide
    serialized page-fault regime; recording the calibration alongside every
    bench run makes the regime auditable — compare `host_calib_sec` between
    two runs before comparing their pipeline numbers."""
    import numpy as np

    def kernel():
        a = np.full(1 << 25, 1.0)  # fresh pages every rep
        return a.sum()

    return round(min(_timed(kernel) for _ in range(reps)), 4)


def _bench_tiff_windows(n: int = 5888, tile: int = 256):
    """The reference's JMH workload (GeotrellisRasterSourceBench.scala:24-50):
    100 windowed reads of a real GeoTIFF — every 5th SpatialKey of a
    FloatingLayoutScheme(256) layout, take 100 — through tile_dataset's
    per-worker window readers.  File generated once under /tmp (deflate-tiled, int16)."""
    import numpy as np

    from geotrellis_contrib_ray.core.celltype import CellType
    from geotrellis_contrib_ray.core.grid import Extent, GridExtent, LayoutDefinition
    from geotrellis_contrib_ray.sources.tiff import TiffRasterSource, write_tiff
    from geotrellis_contrib_ray.stages import raster as rst

    path = f"/tmp/graft_raster_cache/bench_{n}.tif"
    if not os.path.exists(path):
        os.makedirs("/tmp/graft_raster_cache", exist_ok=True)
        grid = GridExtent(Extent(0.0, 0.0, n * 10.0, n * 10.0), 10.0, 10.0, n, n)
        cg = np.arange(n, dtype=np.int64)[:, None] * n + np.arange(n)
        tmp = f"{path}.{os.getpid()}.tmp"
        write_tiff(tmp, (cg % 32768).astype(np.int16)[None], grid,
                   cell_type=CellType("int16", -32768.0))
        os.replace(tmp, path)
    src = TiffRasterSource(path)
    layout = LayoutDefinition.floating(src.grid, tile)
    ncols = layout.layout_cols

    def every_5th_take_100(cols, rows):
        idx = rows * ncols + cols
        return (idx % 5 == 0) & (idx // 5 < 100)

    return rst.tile_dataset([src], layout, key_filter=every_5th_take_100).count()


def _consume(res) -> int:
    """Materialize a result to row count without holding blocks."""
    if hasattr(res, "count"):
        return res.count()
    return len(res)


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as e
    from geotrellis_contrib_ray.pipelines.flagship import flagship_synthetic

    # headline corpus: deterministic generated interleaved docs — sized so
    # the measurement is compute/shuffle-bound, not Ray fixed overhead
    n_docs = int(os.environ.get("GRAFT_BENCH_DOCS", "2000000"))

    # Full-size untimed warmup: starts workers and brings allocator arenas +
    # object-store slabs to steady state (this sandbox serializes first-touch
    # page faults, so cold runs measure the kernel, not the engine), then the
    # timed pass measures steady-state compute + shuffle.
    _consume(e.queries()["tile_assign"](SF_DIR))
    _consume(flagship_synthetic(n_docs))

    # min of R timed passes — the host is shared/noisy, so the minimum is the
    # best estimate of the engine's actual steady-state cost
    reps = int(os.environ.get("GRAFT_BENCH_REPS", "3"))
    headline = min(
        _timed(lambda: _consume(flagship_synthetic(n_docs))) for _ in range(reps)
    )

    qs = e.queries()
    qtimes = {}
    if not int(os.environ.get("GRAFT_HEADLINE_ONLY", "0")):
        # min of R passes per query, same steady-state rationale as the
        # headline (single passes swing 2-3x with this host's load regime).
        # TIME BUDGET: the per-operator section now covers all ~87 queries;
        # if a harness enforces a wall limit, losing the whole JSON line is
        # worse than noisier late entries — once the soft budget is spent,
        # remaining queries run a single pass (still ALL timed).
        qreps = int(os.environ.get("GRAFT_QUERY_REPS", "2"))
        budget = float(os.environ.get("GRAFT_BENCH_BUDGET_SEC", "420"))
        t_start = time.perf_counter()
        for name in _bench_queries(qs):
            reps = qreps if (time.perf_counter() - t_start) < budget else 1
            qtimes[name] = round(
                min(_timed(lambda: _consume(qs[name](SF_DIR))) for _ in range(reps)), 3
            )
        # reference JMH workload: 100 windowed GeoTIFF reads (warm file cache,
        # min-of-reps — JMH also reports steady state)
        _bench_tiff_windows()
        qtimes["tiff_windows_100"] = round(
            min(_timed(_bench_tiff_windows) for _ in range(qreps)), 3
        )

    stages = _flagship_stage_stats(n_docs)  # before shutdown: needs the session
    ray.shutdown()
    return {
        "metric": "flagship spatial-join + tile-assignment pipeline wall time",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "docs_per_sec": round(n_docs / headline, 1),
        "host_calib_sec": _host_calibration(),
        "flagship_stages": stages,
    }


def run_scaling() -> dict:
    def run(ncpu: int) -> dict:
        # headline-only: the scaling criterion measures the flagship pipeline
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SF_DIR=SF_DIR,
                   GRAFT_HEADLINE_ONLY="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    import statistics

    # N and 4N parallelism levels.  Default 8->32; GRAFT_SCALING_LEVELS="2,8"
    # measures the pair in a regime where neither level saturates the host's
    # globally-serialized memory path (~2.3M docs/s observed ceiling) — on
    # this shared sandbox 32 CPUs hit that ceiling, which caps the measured
    # ratio regardless of pipeline shape (see BASELINE.md).
    levels = os.environ.get("GRAFT_SCALING_LEVELS", "8,32").split(",")
    lo_cpus, hi_cpus = int(levels[0]), int(levels[1])
    rounds = int(os.environ.get("GRAFT_SCALING_ROUNDS", "4"))
    # alternate the two levels across >= 4 rounds — the host is shared and
    # noisy (serialized first-touch faults), so a single pair of processes
    # can land in different load regimes and produce nonsense ratios.  Report
    # BOTH the best (per-level minima: the engine's steady-state capability)
    # and the median (per-level medians: the robust estimate), plus the full
    # distribution so the spread is auditable.
    lo_secs, hi_secs = [], []
    lo_last = hi_last = None
    for _ in range(rounds):
        lo_last = run(lo_cpus)
        hi_last = run(hi_cpus)
        lo_secs.append(lo_last["value"])
        hi_secs.append(hi_last["value"])
    factor = hi_cpus / lo_cpus
    eff_best = (min(lo_secs) / min(hi_secs)) / factor
    eff_median = (statistics.median(lo_secs) / statistics.median(hi_secs)) / factor
    eff_rounds = [round((l / h) / factor, 3) for l, h in zip(lo_secs, hi_secs)]
    return {
        "metric": f"scaling efficiency N->4N (num_cpus {lo_cpus} vs {hi_cpus}, same input)",
        f"sec_{lo_cpus}": min(lo_secs),
        f"sec_{hi_cpus}": min(hi_secs),
        f"sec_{lo_cpus}_all": lo_secs,
        f"sec_{hi_cpus}_all": hi_secs,
        f"docs_per_sec_{lo_cpus}": lo_last["docs_per_sec"] * lo_last["value"] / min(lo_secs),
        f"docs_per_sec_{hi_cpus}": hi_last["docs_per_sec"] * hi_last["value"] / min(hi_secs),
        "scaling_efficiency": round(eff_best, 3),
        "scaling_efficiency_median": round(eff_median, 3),
        "scaling_efficiency_rounds": eff_rounds,
        "sf": SF_DIR,
        "rounds": rounds,
    }


def _compact_line(rec: dict) -> dict:
    """The driver captures only the LAST ~2000 chars of stdout and
    json.loads the final line — the full ~90-query record (~3.4 KB) has been
    truncated (and unparseable) since r3.  Emit a compact line that always
    fits: headline fields + the 15 slowest queries + roll-up fields; the
    complete record is written to BENCH_FULL.json beside this script."""
    compact = dict(rec)
    q = compact.pop("queries", {})
    stages = compact.pop("flagship_stages", {})
    compact["queries"] = dict(sorted(q.items(), key=lambda kv: -kv[1])[:15])
    compact["n_queries"] = len(q)
    compact["sum_query_sec"] = round(sum(q.values()), 2)
    if "total_udf_sec" in stages:
        compact["flagship_total_udf_sec"] = stages["total_udf_sec"]
    compact["queries_full"] = "BENCH_FULL.json"
    return compact


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        rec = run_bench()
        if rec.get("queries"):  # headline-only (scaling children) skip the file
            full_path = os.path.join(
                os.path.dirname(os.path.abspath(__file__)), "BENCH_FULL.json")
            with open(full_path, "w") as f:
                json.dump(rec, f, indent=1)
            print(json.dumps(_compact_line(rec)))
        else:
            print(json.dumps(rec))
