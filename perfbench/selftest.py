"""Planted-slowdown self-test of the benchmark.

    python3 perfbench/selftest.py

Plants a 2x slowdown into ``pipelines.flagship.explode_media_spans`` without
editing any program file: a child process replaces the module attribute with
a function that does the work twice, then runs ``run.py``'s ``main``.
``flagship_over`` looks the function up when it builds its plan, so the
planted function is what ships to the Ray workers, and the kernel harness
times it as planted.  The test passes when the slowdown surfaces where
predicted and nowhere else:

- ``pipelines.flagship.explode_media_spans_ns`` at least 1.6x (traced run);
- the fused flagship operator's ``udf_s`` at least 1.2x (traced run);
- flagship ``wall_p50_s`` and ``queries_per_s`` worse than baseline by more
  than their bounds in ``BENCHMARK.json``;
- query_mix ``wall_p50_s`` and ``queries_per_s`` within their bounds
  (``explode_media_spans`` is not on any of its queries' paths).

Every run lasts ``run_seconds`` from ``BENCHMARK.json``.  Medians are taken
over ``SEEDS``; baseline and planted runs alternate.  Prints one JSON verdict
line and exits non-zero when a prediction fails or a run was noisy (heavy
CPU steal, see ``run.MAX_STEAL_FRAC``).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FACTOR = 2
SEEDS = (101, 102, 103)


def plant_slowdown() -> None:
    """Make ``explode_media_spans`` do its work ``FACTOR`` times per call.

    The replacement is a closure, so it is pickled by value into the plan
    and calls the unmodified function in the workers.  It keeps the
    original ``__name__`` (Ray names the operator after it) but not its
    module or qualified name, which would make the pickler ship it by
    reference, i.e. unplanted."""
    from geotrellis_contrib_ray.pipelines import flagship

    original = flagship.explode_media_spans

    def planted(batch):
        for _ in range(FACTOR - 1):
            original(batch)
        return original(batch)

    planted.__name__ = original.__name__
    flagship.explode_media_spans = planted


def _run(workload: str, seed: int, seconds: int, trace: int, planted: bool,
         noisy: list[str]) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "1" if planted else "0", *argv]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} planted={planted} exited {p.returncode}:\n"
                           f"{p.stderr[-2000:]}")
    record, res = (json.loads(line) for line in p.stdout.strip().splitlines()[-2:])
    if record["host"]["noisy"]:
        noisy.append(f"{workload} seed {seed} trace {trace} planted {planted}: "
                     f"steal {record['host']['steal_frac']:.3f}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        sys.path.insert(0, ROOT)
        from perfbench import run

        if sys.argv[2] == "1":
            plant_slowdown()
        return run.main(sys.argv[3:])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    noisy: list[str] = []
    runs: dict[tuple[str, bool], list[dict]] = {}
    for i, seed in enumerate(SEEDS):
        for workload in ("flagship", "query_mix"):
            for planted in ((False, True) if i % 2 == 0 else (True, False)):
                runs.setdefault((workload, planted), []).append(
                    _run(workload, seed, seconds, 0, planted, noisy))
    traced = {p: _run("flagship", SEEDS[0], seconds, 1, p, noisy) for p in (False, True)}

    checks = []

    def check(name: str, ratio: float, ok: bool, expect: str) -> None:
        checks.append({"check": name, "ratio": ratio, "expect": expect, "ok": ok})

    kern = "pipelines.flagship.explode_media_spans_ns"
    r = traced[True][kern] / traced[False][kern]
    check(kern, r, r >= 1.6, ">= 1.6")
    udf = "stages.op.flagship.fused.udf_s"
    r = traced[True][udf] / traced[False][udf]
    check(udf, r, r >= 1.2, ">= 1.2")
    pairs = {}
    for workload, surfaces in (("flagship", True), ("query_mix", False)):
        base, slow = runs[(workload, False)], runs[(workload, True)]
        for key, worse in (("wall_p50_s", lambda b, s: s / b - 1), ("queries_per_s", lambda b, s: b / s - 1)):
            change = worse(_median(base, key), _median(slow, key))
            bound = bounds[key]
            pairs[f"{workload}.{key}"] = {
                "planted_worse_in": sum(worse(b[key], s[key]) > 0 for b, s in zip(base, slow)),
                "of_pairs": len(base),
                "base": [b[key] for b in base], "planted": [s[key] for s in slow]}
            if surfaces:
                check(f"{workload}.{key} worse by", change, change > bound, f"> {bound}")
            else:
                check(f"{workload}.{key} change", change, abs(change) <= bound, f"within +-{bound}")
    ok = all(c["ok"] for c in checks) and not noisy
    print(json.dumps({"selftest_ok": ok, "factor": FACTOR, "seeds": SEEDS, "seconds": seconds,
                      "checks": checks, "noisy_runs": noisy, "pairs": pairs}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
