"""Structural guards over the package source: one keyed shuffle, one
plain-task tier.

Every keyed wide step runs on ``joins._co_partition``: it holds the only
``groupby(...).map_groups`` call of the package.  Every plain Ray task over
a leaf's blocks runs in ``joins._leaf_map``: it holds the only ``.remote(``
and ``from_arrow_refs(`` calls.  No fixed salt comes back on
``agg.salted_group_reduce`` or on a dedup op."""

import ast
import inspect
import pathlib

import geotrellis_contrib_ray
from geotrellis_contrib_ray.stages import agg, dedup, skew

PKG = pathlib.Path(geotrellis_contrib_ray.__file__).parent


def _lines_with(path: pathlib.Path, *calls: str) -> list[int]:
    return [i for i, line in enumerate(path.read_text().splitlines(), 1)
            if any(c in line for c in calls)]


def _function_span(path: pathlib.Path, name: str) -> range:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
    raise AssertionError(f"{name} not found in {path}")


def _only_in(name: str, *calls: str):
    """Every line of the package with one of ``calls`` is in ``joins.name``."""
    span = _function_span(PKG / "stages" / "joins.py", name)
    for path in sorted(PKG.rglob("*.py")):
        lines = _lines_with(path, *calls)
        rel = path.relative_to(PKG).as_posix()
        if rel == "stages/joins.py":
            assert lines and all(i in span for i in lines), lines
        else:
            assert not lines, (rel, lines)


def test_map_groups_only_in_co_partition():
    _only_in("_co_partition", ".map_groups(")


def test_plain_tasks_only_in_leaf_map():
    _only_in("_leaf_map", ".remote(", "from_arrow_refs(")


def test_dedup_ops_have_no_salt_or_df_cap():
    for name, fn in inspect.getmembers(dedup, inspect.isfunction):
        if fn.__module__ != dedup.__name__ or name.startswith("_"):
            continue
        params = inspect.signature(fn).parameters
        assert not [p for p in params if p.endswith("_salt") or p == "max_df"], name


def test_salted_group_reduce_has_no_salt():
    assert "salt" not in inspect.signature(agg.salted_group_reduce).parameters


def test_salted_map_groups_is_gone():
    assert not hasattr(skew, "salted_map_groups")
