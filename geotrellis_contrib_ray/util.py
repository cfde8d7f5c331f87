"""Cluster-aware sizing and per-worker state shared by the stages.

Per-worker state goes through :func:`worker_cached`; no stage runs an actor
pool.  Ray's prestarted task workers keep module globals alive between
tasks, so state built once per worker process is reused by every later task
that worker runs, with no per-query actor spin-up (~1.3 s per query on the
test host).
"""

from __future__ import annotations


def cluster_cpus(default: int = 4) -> int:
    """Total cluster CPUs (the driver's view); ``default`` when Ray is not
    initialised yet (pure unit-test contexts)."""
    try:
        import ray

        if not ray.is_initialized():
            return default
        return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        return default


_WORKER_CACHE: dict[str, dict] = {}


def worker_cached(namespace: str, key, build, keep: int = 1):
    """Return the value cached under ``(namespace, key)`` in this worker
    process, calling ``build()`` on a miss.

    Each namespace holds at most ``keep`` entries; a miss on a full
    namespace drops the oldest entry before building, so state keyed on a
    fresh per-run broadcast ref never piles up across runs.  No lock: a Ray
    task worker runs one task at a time."""
    entries = _WORKER_CACHE.setdefault(namespace, {})
    if key in entries:
        return entries[key]
    while len(entries) >= keep:
        entries.pop(next(iter(entries)))
    value = entries[key] = build()
    return value


def strip_schema_metadata(b):
    """Drop schema-level/field-level metadata from an Arrow table (zero-copy).

    Parquet written via pandas carries a ``b'pandas'`` schema-metadata blob;
    ``pa.Schema.__hash__`` raises ``unhashable type: 'dict'`` on ANY schema
    metadata, which defeats Ray's schema-dedup cache in shuffle reduce tasks
    (per-block "Failed to hash the schemas" warnings + re-unification cost).
    Called at the stages that feed wide ops, where blocks still carry the
    read-time schema."""
    import pyarrow as pa

    s = b.schema
    if s.metadata is None and all(f.metadata is None for f in s):
        return b
    return b.cast(pa.schema([pa.field(f.name, f.type) for f in s]))


def as_array(col):
    """One Arrow Array of ``col``: a one-chunk ``ChunkedArray`` gives its
    chunk as is (no copy, and it may be a slice: a reader of raw buffers
    honours ``.offset``), a ``ChunkedArray`` of several chunks or none is
    combined into one, an Array comes back unchanged."""
    import pyarrow as pa

    if not isinstance(col, pa.ChunkedArray):
        return col
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
