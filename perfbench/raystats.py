"""One parser for Ray Data's ``Dataset.stats()`` text.

The benchmark reads stage numbers only from outside the program, so this
parses the text Ray prints: one record per physical operator with its
output rows, blocks, tasks, wall seconds and UDF seconds.  All-to-all
operators (Repartition, Sort) report their work on sub-operator lines; an
all-to-all whose sub-operators all read ``[execution cached]`` was executed
as part of its neighbour, so its repeated wall time is not counted again.
"""

from __future__ import annotations

import re

_HEAD_RE = re.compile(
    r"^Operator (\d+) (.+?): (?:(\d+) tasks executed, (\d+) blocks produced in ([\d.]+)s"
    r"|executed in ([\d.]+)s|\[execution cached\])\s*$"
)
_SUB_RE = re.compile(r"^\s+Suboperator \d+ (.+?): (?:(\d+) tasks executed, (\d+) blocks produced|\s*\[execution cached\])")
_UDF_RE = re.compile(r"^\s*\* UDF time: .*?([\d.]+)(us|ms|s) total")
_ROWS_RE = re.compile(r"^\s*\* Output num rows per block: .*?(\d+) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse(stats_text: str) -> list[dict]:
    """Stats text -> ``[{name, rows, blocks, tasks, wall_s, udf_s}]`` in plan order."""
    ops: list[dict] = []
    cur = None
    for line in stats_text.splitlines():
        if line.startswith("Dataset throughput") or line.startswith("Dataset iterator"):
            cur = None
            continue
        m = _HEAD_RE.match(line)
        if m:
            cur = {"name": m.group(2), "rows": 0, "blocks": 0, "tasks": 0, "wall_s": 0.0,
                   "udf_s": 0.0, "executed": False}
            if m.group(3) is not None:
                cur.update(tasks=int(m.group(3)), blocks=int(m.group(4)),
                           wall_s=float(m.group(5)), executed=True)
            elif m.group(6) is not None:
                cur["all_to_all_wall_s"] = float(m.group(6))
            ops.append(cur)
            continue
        if cur is None:
            continue
        sm = _SUB_RE.match(line)
        if sm:
            if sm.group(2) is not None:
                cur["tasks"] += int(sm.group(2))
                cur["blocks"] = int(sm.group(3))
                cur["executed"] = True
            continue
        um = _UDF_RE.match(line)
        if um:
            cur["udf_s"] += float(um.group(1)) * _UNIT[um.group(2)]
            continue
        rm = _ROWS_RE.match(line)
        if rm:
            cur["rows"] = int(rm.group(1))
    for op in ops:
        wall = op.pop("all_to_all_wall_s", None)
        if wall is not None and op["executed"]:
            op["wall_s"] = wall
    return [op for op in ops if op.pop("executed")]


def label(op_name: str) -> str:
    """Stable short label of a (possibly fused) operator: the first UDF's
    name for map operators, else the first operator's base name."""
    first = op_name.split("->", 1)[0]
    m = re.match(r"(?:MapBatches|MapRows|Map|FlatMap|Filter)\((.+)\)$", first)
    if m:
        return m.group(1).strip("<>")
    return re.sub(r"\(.*\)$", "", first)


def group(ops: list[dict], labels: dict[str, tuple[str, ...]]) -> dict[str, dict]:
    """Sum operator records into named groups; ``labels`` maps a group name
    to the operator labels it covers.  A group with no executed operator
    reads zero on every field."""
    out = {g: {"rows": 0, "blocks": 0, "tasks": 0, "wall_s": 0.0, "udf_s": 0.0} for g in labels}
    for op in ops:
        lab = label(op["name"])
        for g, members in labels.items():
            if lab in members:
                for k in out[g]:
                    out[g][k] += op[k]
    return out
