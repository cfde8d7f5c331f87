"""Layered benchmark of geotrellis_contrib_ray: three workloads, one process,
one Ray session at ``num_cpus`` = ``nproc``.

    python3 perfbench/run.py --workload {flagship,raster_tiles,query_mix} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  ``--trace 0`` sets up the named
workload, runs it as a closed loop for ``S`` seconds and reports the
end-to-end metrics.  ``--trace 1`` is the per-layer run: it times the kernels
in-process without Ray, then sets up all three workloads and runs each with
ops alternating between traced and untraced, so it reports every per-layer
metric plus each workload's tracing overhead.  End-to-end numbers come only
from untraced runs.

Every op's answer is checked; a wrong answer or an exception counts as
failed and the command exits non-zero.  End-to-end times are net of the CPU
time the hypervisor stole while they were measured (``net_of_steal``); the
record keeps the raw walls and each op's steal.  Standard output ends with
the full record as one JSON line followed by the result line
``{"correct", "attempted", "failed", "metrics"}``.  Records, and in traced
runs the spans, are also written under ``.perfbench/out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
MIN_OPS = 3
OBJECT_STORE_BYTES = 512 << 20
RAY_TEMP = os.path.join(WORK, "r")
# a record taken while the hypervisor stole more than this share of busy CPU
# time is flagged noisy: its raw wall times are stretched by the host, not the
# code, and the more is stolen, the more net_of_steal is an estimate
MAX_STEAL_FRAC = 0.05

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "wall_p50_s": ("s", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "rss_peak_mb": ("MB", "lower"),
}
STAGE_GROUPS = {
    "flagship": {"read": ("ReadParquet",), "fused": ("explode_media_spans",)},
    "raster_tiles": {"read_windows": ("read_windows",), "repartition": ("Repartition",),
                     "sort": ("Sort",), "make_parents": ("make_parents",),
                     "summarize": ("summarize",)},
}
STAGE_FIELDS = {"rows": "count", "blocks": "count", "tasks": "count", "wall_s": "s", "udf_s": "s"}
SELF_LAYERS = {"flagship": ("sources", "pipelines", "ray_data"),
               "raster_tiles": ("sources", "stages", "ray_data"),
               "query_mix": ("entry", "ray_data")}
RASTER_SPANS = ("tile_read", "pyramid_build", "summarize")


def _unit_of(name: str) -> str:
    for suffix, unit in (("_ns", "ns"), ("_us", "us"), ("_frac", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_spec() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from .kernels import METRICS
    from .workloads import QUERY_MIX

    names = ["ray_data.init_s", "ray_data.floor_s", *METRICS, "sources.tiff.write_s"]
    names += [f"stages.raster.{s}_s" for s in RASTER_SPANS]
    for w, groups in STAGE_GROUPS.items():
        names += [f"stages.op.{w}.{g}.{f}" for g in groups for f in STAGE_FIELDS]
    names += [f"entry.{q}.{k}" for q in QUERY_MIX for k in ("wall_s", "work_s")]
    for w, layers in SELF_LAYERS.items():
        names += [f"self.{w}.{layer}_s" for layer in layers]
        names.append(f"trace.{w}.overhead_frac")
    return {n: _unit_of(n) for n in names}


def net_of_steal(seconds: float, steal_frac: float) -> float:
    """A wall time net of CPU steal: ``steal_frac`` is the share of busy CPU
    time the hypervisor gave to other guests while ``seconds`` were measured
    (``host.StealMeter``).  On a shared VM a neighbour's load can stretch
    every op of a run by half and more; net of steal, such runs read like
    quiet ones, so runs of the same code agree."""
    return seconds * (1.0 - steal_frac)


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    i = n - 11
    return {"value": sorted(values)[i], "percentile": 100.0 * (i + 1) / n, "n": n}


class Runner:
    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self, w, run_id: str, traced: bool, *args) -> dict:
        """Run, time and check one op; the check is outside the timed part.
        The sample holds the raw wall, the share of busy CPU time stolen
        during the op, and the wall net of that steal."""
        from .host import StealMeter

        tr = self.tracer
        tr.run_id, tr.enabled = run_id, traced
        wall = None
        steal = StealMeter()
        t0 = time.perf_counter()
        try:
            out = w.op(*args, traced)
            wall = time.perf_counter() - t0
            op_steal = steal.frac()
            tr.enabled = False
            err = w.check(*args, out)
            if traced and hasattr(w, "record_stages"):
                w.record_stages()
        except Exception:  # an op that raises is a failed op; the loop goes on
            if wall is None:
                wall = time.perf_counter() - t0
                op_steal = steal.frac()
            tr.enabled = False
            err = traceback.format_exc(limit=3)
        self.attempted += 1
        if err is not None:
            self.failed += 1
            self.errors.append(f"{run_id}: {err}")
        return {"run": run_id, "wall": wall, "steal": op_steal,
                "net": net_of_steal(wall, op_steal), "ok": err is None, "traced": traced,
                "query": args[0] if args else None}

    def loop(self, w, seconds: float, alternate: bool) -> list[dict]:
        """flagship / raster_tiles: ops back to back until ``seconds`` have
        passed (at least MIN_OPS); with ``alternate`` every other op is traced."""
        samples: list[dict] = []
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds or len(samples) < MIN_OPS:
            i = len(samples)
            samples.append(self.one(w, f"{w.name}:{i}", alternate and i % 2 == 1))
        return samples

    def rounds(self, w, seconds: float | None, traced_half: dict | None = None,
               n_rounds: int | None = None, prefix: str = "") -> list[dict]:
        """query_mix: whole rounds, each in a fresh seeded order, until
        ``seconds`` have passed or ``n_rounds`` are done.  Whole rounds keep
        the query composition of the samples fixed.
        ``traced_half`` maps a query to True when it is traced in even rounds;
        odd rounds trace the other half."""
        samples: list[dict] = []
        t_start = time.perf_counter()
        r = 0
        while True:
            for q in w.round_order():
                traced = traced_half is not None and traced_half[q] == (r % 2 == 0)
                samples.append(self.one(w, f"{prefix}{w.name}:{r}:{q}", traced, q))
            r += 1
            if r == n_rounds or (n_rounds is None and time.perf_counter() - t_start >= seconds):
                return samples


def _touch_object_store(nbytes: int) -> None:
    import numpy as np
    import ray

    ray.internal.free([ray.put(np.ones(nbytes, np.uint8))])


def _ray_init(num_cpus: int, tracer) -> tuple[float, float]:
    """Start Ray with its temp dir inside the checkout, then touch the
    object store.  Returns the seconds of ``ray.init`` and of the touch."""
    import logging

    import ray
    from ray.data import DataContext

    # Ray's Unix sockets live at <temp>/session_<time>_<pid>/sockets/, and
    # such a path may not exceed 107 bytes, which a deep checkout would.
    # Reaching the checkout (the cwd, set in main) through this process's
    # /proc link keeps the path short for any checkout; every Ray process
    # resolves it to the same directory.
    temp = os.path.join(f"/proc/{os.getpid()}/cwd", os.path.relpath(RAY_TEMP, ROOT))
    t0 = time.perf_counter()
    with tracer.span("ray_data.init", "ray_data"):
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False, _temp_dir=temp,
                 object_store_memory=OBJECT_STORE_BYTES)
    init_s = time.perf_counter() - t0
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    # Touch the object store's pages once.  First touches of fresh pages can
    # be slow (measured on a 4-vCPU VM); without this every op keeps paying
    # them until the store's high-water mark stops growing, and flagship
    # passes drift down for ~10 passes instead of one.  A one-shot worker
    # does it, so no measured process keeps the pages in its peak resident
    # memory.  It is the benchmark's own work, so it is kept out of init_s.
    touch = ray.remote(num_cpus=0, max_calls=1)(_touch_object_store)
    t0 = time.perf_counter()
    ray.get(touch.remote(OBJECT_STORE_BYTES * 7 // 8))
    return init_s, time.perf_counter() - t0


def _median(values):
    return statistics.median(values) if values else float("nan")


def untraced_run(args, runner, data_dir: str, num_cpus: int) -> tuple[dict, dict]:
    from .host import PeakRss, StealMeter
    from .workloads import NULL_QUERY, WORKLOADS

    w = WORKLOADS[args.workload](data_dir, args.seed, runner.tracer)
    setup_steal = StealMeter()
    init_s, touch_s = _ray_init(num_cpus, runner.tracer)
    t0 = time.perf_counter()
    w.prepare()
    prepare_s = time.perf_counter() - t0
    rss = PeakRss()
    rss.start()
    t0 = time.perf_counter()
    if args.workload == "query_mix":
        warm = runner.rounds(w, None, n_rounds=1, prefix="warmup:")
    else:
        warm = [runner.one(w, "warmup", False)]
    warmup_s = time.perf_counter() - t0
    setup_steal_frac = setup_steal.frac()
    if args.workload == "query_mix":
        samples = runner.rounds(w, args.seconds)
    else:
        samples = runner.loop(w, args.seconds, alternate=False)
    rss.stop()
    # the null query is the floor probe, not a user query: it is reported
    # in the record but kept out of the end-to-end numbers
    floor = [s["net"] for s in samples if s["query"] == NULL_QUERY]
    samples = [s for s in samples if s["query"] != NULL_QUERY]
    walls = [s["net"] for s in samples]
    n_ok = sum(s["ok"] for s in samples)
    metrics = {
        "setup_s": net_of_steal(init_s + prepare_s + warmup_s, setup_steal_frac),
        "wall_p50_s": _median(walls),
        "queries_per_s": n_ok / sum(walls),
        "rss_peak_mb": rss.mb(),
    }
    items = {"flagship": "docs_per_s", "raster_tiles": "tiles_per_s"}.get(args.workload)
    detail = {
        "samples": len(samples),
        "walls_s": walls,
        "raw_walls_s": [s["wall"] for s in samples],
        "op_steal_fracs": [s["steal"] for s in samples],
        "setup_parts_s": {"ray_init": init_s, "prepare": prepare_s, "warmup": warmup_s},
        "setup_steal_frac": setup_steal_frac,
        "store_touch_s": touch_s,
        "warmup_failed": sum(not s["ok"] for s in warm),
        "wall_tail_s": tail(walls),
        "fail_frac": (len(samples) - n_ok) / len(samples),
    }
    if items:
        detail[items] = _median([w.items_per_op() / x for x in walls])
    if args.workload == "query_mix":
        detail["null_query_p50_s"] = _median(floor)
        detail["query_walls_s"] = {q: _median([s["net"] for s in samples if s["query"] == q])
                                   for q in sorted({s["query"] for s in samples})}
    return metrics, detail


def traced_run(args, runner, data_dir: str, num_cpus: int) -> tuple[dict, dict]:
    from . import kernels, raystats
    from .workloads import NULL_QUERY, QUERY_MIX, WORKLOADS

    tracer = runner.tracer
    metrics: dict[str, float] = {}
    os.makedirs(data_dir, exist_ok=True)
    metrics.update(kernels.run(data_dir, args.seed))
    tracer.enabled, tracer.run_id = True, "setup"
    metrics["ray_data.init_s"], touch_s = _ray_init(num_cpus, tracer)
    detail: dict = {"store_touch_s": touch_s, "overhead_base": {}, "limits": {
        "self.flagship.ray_data_s": "only the final collect: flagship_over executes its plan "
                                    "inside the pipelines span, so executor time is in "
                                    "self.flagship.pipelines_s",
        "stages.op.flagship.read.udf_s": "Ray reports no UDF time for a read operator",
        "entry.*.work_s": "wall minus ray_data.floor_s; negative when a query costs less "
                          "than the null query",
        "shuffle bytes": "not measured: Dataset.stats() does not print them in this Ray version",
    }}
    share = args.seconds / 2
    for name, cls in WORKLOADS.items():
        w = cls(data_dir, args.seed, tracer)
        tracer.enabled, tracer.run_id = True, f"setup:{name}"
        w.prepare()
        if name == "query_mix":
            runner.rounds(w, None, n_rounds=1, prefix="warmup:")
            floor = [runner.one(w, f"floor:{i}", False, NULL_QUERY)["wall"] for i in range(5)]
            metrics["ray_data.floor_s"] = _median(floor)
            traced_first = {q: bool(b) for q, b in zip(
                list(QUERY_MIX) + [NULL_QUERY],
                w.rng.integers(0, 2, len(QUERY_MIX) + 1))}
            samples = runner.rounds(w, None, traced_half=traced_first, n_rounds=2)
            for q in QUERY_MIX:
                wall = _median([s["wall"] for s in samples if s["query"] == q])
                metrics[f"entry.{q}.wall_s"] = wall
                metrics[f"entry.{q}.work_s"] = wall - metrics["ray_data.floor_s"]
            # each query ran once traced and once untraced, so the sums
            # cover the same queries
            t_sum = sum(s["wall"] for s in samples if s["traced"])
            u_sum = sum(s["wall"] for s in samples if not s["traced"])
            metrics[f"trace.{name}.overhead_frac"] = t_sum / u_sum - 1.0
            detail["overhead_base"][name] = {"traced_s": t_sum, "untraced_s": u_sum}
        else:
            runner.one(w, f"warmup:{name}", False)
            samples = runner.loop(w, share, alternate=True)
            t = _median([s["wall"] for s in samples if s["traced"]])
            u = _median([s["wall"] for s in samples if not s["traced"]])
            metrics[f"trace.{name}.overhead_frac"] = t / u - 1.0
            detail["overhead_base"][name] = {"traced_p50_s": t, "untraced_p50_s": u,
                                             "n": len(samples)}
            grouped = [raystats.group(ops, STAGE_GROUPS[name]) for ops in w.stage_ops]
            for g in STAGE_GROUPS[name]:
                for f in STAGE_FIELDS:
                    metrics[f"stages.op.{name}.{g}.{f}"] = _median([x[g][f] for x in grouped])
        selfs = tracer.self_times(f"{name}:")
        for layer in SELF_LAYERS[name]:
            metrics[f"self.{name}.{layer}_s"] = _median(selfs.get(layer, [0.0]))
    metrics["sources.tiff.write_s"] = _median(tracer.durations("sources.tiff.write"))
    for s in RASTER_SPANS:
        metrics[f"stages.raster.{s}_s"] = _median(tracer.durations(f"stages.raster.{s}", "raster_tiles:"))
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("flagship", "raster_tiles", "query_mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    absent = [p for p in ("geotrellis_contrib_ray/__init__.py", "__ray_entry__.py")
              if not os.path.isfile(os.path.join(ROOT, p))]
    if absent:
        print(f"perfbench: not a geotrellis_contrib_ray checkout (missing {absent}) "
              f"at {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    # Ray workers must import the package (and the benchmark's own per-batch
    # functions) from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

    from . import host
    from .trace import Tracer

    num_cpus = host.nproc()
    data_dir = os.path.join(WORK, f"data-{os.getpid()}")
    out_dir = os.path.join(WORK, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer(enabled=False)
    runner = Runner(tracer)
    ctx = host.context(args.seed, bool(args.trace), num_cpus)
    steal = host.StealMeter()
    try:
        if args.trace:
            metrics, detail = traced_run(args, runner, data_dir, num_cpus)
            spec = per_layer_spec()
        else:
            metrics, detail = untraced_run(args, runner, data_dir, num_cpus)
            spec = {k: u for k, (u, _) in END_TO_END.items()}
    finally:
        import ray

        ray.shutdown()
        killed = host.wait_children_gone()
        shutil.rmtree(data_dir, ignore_errors=True)
        shutil.rmtree(RAY_TEMP, ignore_errors=True)
    ctx["steal_frac"] = steal.frac()
    ctx["noisy"] = ctx["steal_frac"] > MAX_STEAL_FRAC
    if killed:
        print(f"perfbench: killed {len(killed)} leftover processes", file=sys.stderr)
    if ctx["noisy"]:
        print(f"perfbench: noisy record: the hypervisor stole {ctx['steal_frac']:.1%} of busy "
              f"CPU time (limit {MAX_STEAL_FRAC:.0%}); do not compare its timings", file=sys.stderr)

    missing = sorted(set(spec) - set(metrics))
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if missing or bad:
        runner.errors.append(f"metrics not measured: {missing}; not finite: {bad}")
    correct = runner.failed == 0 and not missing and not bad
    record = {
        "workload": args.workload, "seconds": args.seconds, "host": ctx,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in spec.items()},
        "detail": detail, "attempted": runner.attempted, "failed": runner.failed,
        "errors": runner.errors[:20],
    }
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(out_dir, f"record-{stem}.json"), "w") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        tracer.write(os.path.join(out_dir, f"spans-{stem}.jsonl"))
    for e in runner.errors[:20]:
        print(f"perfbench: {e}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in spec.items() if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if __package__ in (None, ""):
        sys.path.insert(0, ROOT)
        __package__ = "perfbench"
        import perfbench  # noqa: F401
    sys.exit(main())
