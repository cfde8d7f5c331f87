"""Structural guards over the package source: one keyed-reduce shuffle.

Every keyed wide step runs on ``joins._co_partition``; the only other
``groupby(...).map_groups`` calls left are dedup's, which are to fold onto
it next.  No fixed salt comes back on ``agg.salted_group_reduce``."""

import ast
import inspect
import pathlib

import geotrellis_contrib_ray
from geotrellis_contrib_ray.stages import agg, skew

PKG = pathlib.Path(geotrellis_contrib_ray.__file__).parent
DEDUP_MAP_GROUPS_MAX = 13


def _map_groups_lines(path: pathlib.Path) -> list[int]:
    return [i for i, line in enumerate(path.read_text().splitlines(), 1)
            if ".map_groups(" in line]


def _function_span(path: pathlib.Path, name: str) -> range:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
    raise AssertionError(f"{name} not found in {path}")


def test_map_groups_only_in_co_partition_and_dedup():
    co_partition = _function_span(PKG / "stages" / "joins.py", "_co_partition")
    for path in sorted(PKG.rglob("*.py")):
        lines = _map_groups_lines(path)
        rel = path.relative_to(PKG).as_posix()
        if rel == "stages/joins.py":
            assert lines and all(i in co_partition for i in lines), lines
        elif rel == "stages/dedup.py":
            assert len(lines) <= DEDUP_MAP_GROUPS_MAX, lines
        else:
            assert not lines, (rel, lines)


def test_salted_group_reduce_has_no_salt():
    assert "salt" not in inspect.signature(agg.salted_group_reduce).parameters


def test_salted_map_groups_is_gone():
    assert not hasattr(skew, "salted_map_groups")
