"""util.worker_cached: the one per-worker state cache every stage uses."""

from geotrellis_contrib_ray import util
from geotrellis_contrib_ray.util import worker_cached


def _counting_build(calls: list, value):
    def build():
        calls.append(value)
        return value

    return build


def _resident(namespace: str) -> list:
    return list(util._WORKER_CACHE.get(namespace, {}))


def test_one_build_per_key():
    calls = []
    for _ in range(3):
        assert worker_cached("t.once", "k", _counting_build(calls, "v")) == "v"
    assert calls == ["v"]


def test_keep_evicts_oldest_per_namespace():
    calls = []
    for key in ("a", "b", "c"):
        worker_cached("t.keep2", key, _counting_build(calls, key), keep=2)
    assert _resident("t.keep2") == ["b", "c"]
    # "a" was evicted: asking again rebuilds it and evicts "b"
    worker_cached("t.keep2", "a", _counting_build(calls, "a"), keep=2)
    assert calls == ["a", "b", "c", "a"]
    assert _resident("t.keep2") == ["c", "a"]


def test_namespaces_are_isolated():
    worker_cached("t.iso1", "k", lambda: 1)
    assert worker_cached("t.iso2", "k", lambda: 2) == 2
    worker_cached("t.iso2", "other", lambda: 3)
    # a miss in iso2 never evicts iso1's entry
    assert _resident("t.iso1") == ["k"]
    assert worker_cached("t.iso1", "k", lambda: 99) == 1


def test_fresh_keys_do_not_pile_up_at_keep_1():
    """State keyed on a fresh per-run broadcast ref: three runs leave one
    entry resident, not three."""
    for run in range(3):
        worker_cached("t.per_run", f"ref-{run}", lambda: object())
    assert _resident("t.per_run") == ["ref-2"]
