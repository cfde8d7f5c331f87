"""Compare records written by ``perfbench/run.py`` (``.perfbench/out/record-*.json``).

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Groups records by workload and trace mode, flags as not comparable any
record whose host context (``nproc``, CPUs, ``num_cpus``, library versions,
numpy calibration) differs from the first base record, or that ``run.py``
marked noisy (heavy CPU steal during the run), and for each metric prints
the base and new medians and the new/base ratio.  Prints one JSON object.
"""

from __future__ import annotations

import json
import statistics
import sys

from host import comparable


def _load(paths: list[str]) -> list[dict]:
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = _load(argv[:cut]), _load(argv[cut + 1:])
    if not base or not new:
        print(__doc__, file=sys.stderr)
        return 2
    ref = base[0]["host"]
    flags = {}
    for rec in base + new:
        ok, why = comparable(ref, rec["host"])
        if not ok:
            flags[f"{rec['workload']} seed {rec['host']['seed']}"] = why
    report = {"comparable": not flags, "not_comparable": flags, "metrics": {}}
    for rec_key in sorted({(r["workload"], r["host"]["trace"]) for r in base + new}):
        b = [r for r in base if (r["workload"], r["host"]["trace"]) == rec_key]
        n = [r for r in new if (r["workload"], r["host"]["trace"]) == rec_key]
        if not b or not n:
            continue
        rows = {}
        for name in b[0]["metrics"]:
            bv = [r["metrics"][name]["value"] for r in b if r["metrics"][name]["value"] is not None]
            nv = [r["metrics"][name]["value"] for r in n if r["metrics"][name]["value"] is not None]
            if bv and nv:
                bm, nm = statistics.median(bv), statistics.median(nv)
                rows[name] = {"base": bm, "new": nm, "ratio": nm / bm if bm else None,
                              "n": [len(bv), len(nv)]}
        report["metrics"][f"{rec_key[0]}/trace{int(rec_key[1])}"] = rows
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
