"""The interleaved text+media documents corpus (BASELINE.json input_hint).

Authoritative input shape:

    doc_id : string
    spans  : list<struct<kind:string, text:string, media_ref:string, offset:int32>>

Two producers:

- ``synth_interleaved(n, seed)`` — fully deterministic synthetic corpus for
  unit tests / goldens (FIXTURES.md §1; no external data).
- ``docs_to_spans`` — a ``map_batches`` fn that lifts the driver's flat
  ``documents.parquet`` (doc_id:int64, text, lang, source, n_chars) into the
  interleaved shape deterministically, so ``entry()``/bench run the flagship
  pipeline over real test tables.

One reader: ``SpanLeafDatasource`` reads documents parquet files down to
``SPAN_LEAF_SCHEMA`` (``doc_id`` plus the ``kind`` and ``offset`` leaves of
``spans``), the only columns the flagship's span explode uses.

Geocoding: each media span carries a deterministic lon/lat derived from
(doc_id, offset) by **pure integer arithmetic** (exactly reproducible in ANSI
SQL for the DuckDB oracle):

    lon = -80.33 + ((id*7919  + offset*104729 + 13) % 530000) * 1e-5
    lat =  39.70 + ((id*104729 + offset*7919  + 47) % 240000) * 1e-5

which lands every point inside the Pennsylvania bbox used by the reference's
vector fixtures (slick/src/test/scala/geotrellis/slick/Data.scala:25-57).

Span-sequence invariant: every stage must preserve per-row (kind, text,
media_ref, order); ``span_signature`` computes a per-row fingerprint used by
tests and the checkpoint manifest.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data.datasource import Datasource, ReadTask

from ..util import as_array

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)

DOCUMENTS_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", pa.list_(SPAN_STRUCT))])

# what SpanLeafDatasource yields: the leaves explode_media_spans reads
SPAN_LEAF_SCHEMA = pa.schema(
    [("doc_id", pa.string()),
     ("spans", pa.list_(pa.struct([("kind", pa.string()), ("offset", pa.int32())])))]
)

# geocode constants (shared with oracle SQL in __ray_entry__.py)
LON0, LON_MOD, LON_SCALE = -80.33, 530_000, 1e-5
LAT0, LAT_MOD, LAT_SCALE = 39.70, 240_000, 1e-5
LON_A, LON_B, LON_C = 7919, 104_729, 13
LAT_A, LAT_B, LAT_C = 104_729, 7919, 47

_WORDS = (
    "the quick brown fox jumps over lazy dog raster vector tile span media "
    "join index cell layer pixel band extent zoom key merge query batch"
).split()


def geocode_ids(ids, offsets=0):
    """Vectorized deterministic geocode: integer ids (+span offsets) -> lon/lat."""
    ids = np.asarray(ids, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    lon = LON0 + ((ids * LON_A + offsets * LON_B + LON_C) % LON_MOD) * LON_SCALE
    lat = LAT0 + ((ids * LAT_A + offsets * LAT_B + LAT_C) % LAT_MOD) * LAT_SCALE
    return lon, lat


def synth_interleaved(n: int, seed: int = 42) -> pa.Table:
    """Deterministic interleaved corpus: each doc has 2-6 spans alternating
    text/media; offsets strictly increasing."""
    rng = np.random.default_rng(seed)
    doc_ids, spans_col = [], []
    for i in range(n):
        doc_ids.append(f"doc-{i:012d}")
        nspan = 2 + int(rng.integers(0, 5))
        spans = []
        off = 0
        for j in range(nspan):
            if j % 2 == 0:
                words = [_WORDS[(i + j + k) % len(_WORDS)] for k in range(3 + (i + j) % 5)]
                spans.append(
                    {"kind": "text", "text": " ".join(words), "media_ref": "", "offset": off}
                )
                off += len(spans[-1]["text"]) + 1
            else:
                spans.append(
                    {
                        "kind": "media",
                        "text": "",
                        "media_ref": f"media://bucket{i % 7}/{i}-{j}",
                        "offset": off,
                    }
                )
                off += 1
        spans_col.append(spans)
    return pa.Table.from_pydict({"doc_id": doc_ids, "spans": spans_col}, schema=DOCUMENTS_SCHEMA)


_N_TEMPLATES = 997  # prime so id % templates cycles through all


def _templates() -> list[str]:
    """Deterministic text templates (seed-free: pure function of index)."""
    out = []
    for i in range(_N_TEMPLATES):
        words = [_WORDS[(i * 7 + k * 3) % len(_WORDS)] for k in range(8 + i % 17)]
        out.append(" ".join(words))
    return out


_TEMPLATE_ARR = None


def synth_flat_docs(ids: np.ndarray) -> pa.Table:
    """Vectorized synthetic flat documents (doc_id:int64, text) from an id
    range — the bench corpus generator (no IO, deterministic, arbitrary
    scale).  Text = template[id % P] via a single Arrow take."""
    global _TEMPLATE_ARR
    if _TEMPLATE_ARR is None:
        _TEMPLATE_ARR = pa.array(_templates(), pa.string())
    ids = np.asarray(ids, dtype=np.int64)
    text = _TEMPLATE_ARR.take(pa.array(ids % _N_TEMPLATES))
    return pa.table({"doc_id": ids, "text": text})


def docs_to_spans(batch: pa.Table) -> pa.Table:
    """map_batches fn: driver flat documents -> interleaved spans, vectorized.

    Each doc becomes: [text span (first half), media span, text span (second
    half)] with strictly increasing offsets; media_ref derived from doc_id.
    Deterministic — derived only from (doc_id, text).
    """
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    texts = as_array(batch["text"]).cast(pa.string())
    n = len(batch)
    # split each text at its byte midpoint, zero-copy on the shared values
    # buffer: both halves are contiguous sub-slices, so we rebuild two string
    # arrays over the SAME data buffer with adjusted offset vectors.
    off_buf, data_buf = texts.buffers()[1], texts.buffers()[2]
    if n == 0 or off_buf is None:
        offs = np.zeros(n + 1, dtype=np.int64)
    else:
        offs = np.frombuffer(off_buf, dtype=np.int32)[
            texts.offset : texts.offset + n + 1
        ].astype(np.int64)
    starts, ends = offs[:-1], offs[1:]
    mids = starts + (ends - starts) // 2
    data = (
        np.frombuffer(data_buf, dtype=np.uint8) if data_buf is not None else np.zeros(0, np.uint8)
    )
    # don't split inside a multi-byte UTF-8 char: back off continuation bytes
    if len(data):
        for _ in range(3):
            cont = (mids > starts) & (mids < ends) & ((data[np.minimum(mids, len(data) - 1)] & 0xC0) == 0x80)
            if not cont.any():
                break
            mids = mids - cont.astype(np.int64)
    first = _substr_array(data, starts, mids)
    second = _substr_array(data, mids, ends)
    half = pa.array((mids - starts).astype(np.int32))
    empty = pa.array([""] * n, pa.string())
    media_ref = pc.binary_join_element_wise(
        pa.array(["media://bucket"] * n, pa.string()),
        pc.cast(pa.array(ids % 7), pa.string()),
        pa.array(["/"] * n, pa.string()),
        pc.cast(batch["doc_id"], pa.string()),
        empty,
    )
    zeros = pa.array(np.zeros(n, dtype=np.int32))
    off1 = pc.cast(pc.add(half, 1), pa.int32())
    off2 = pc.cast(pc.add(half, 2), pa.int32())

    def span_struct(kind, text, mref, off):
        return pa.StructArray.from_arrays(
            [pa.array([kind] * n, pa.string()), as_array(text), as_array(mref), as_array(off)],
            fields=list(SPAN_STRUCT),
        )

    s1 = span_struct("text", first, empty, zeros)
    s2 = span_struct("media", empty, media_ref, off1)
    s3 = span_struct("text", second, empty, off2)
    # interleave the three struct arrays row-wise: indices 0,n,2n, 1,n+1,2n+1 ...
    combined = pa.concat_arrays([s1, s2, s3])
    take_idx = (np.arange(3 * n, dtype=np.int64).reshape(3, n).T).ravel()
    values = combined.take(take_idx)
    offsets = pa.array(np.arange(0, 3 * n + 1, 3, dtype=np.int32))
    spans = pa.ListArray.from_arrays(offsets, values)
    return pa.Table.from_arrays(
        [pc.binary_join_element_wise(pa.array(["doc-"] * n, pa.string()), pc.cast(batch["doc_id"], pa.string()), empty), spans],
        schema=DOCUMENTS_SCHEMA,
    )


def _substr_array(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> pa.Array:
    """Vectorized per-row substring: gather [starts[i], ends[i]) byte ranges
    from a shared utf8 data buffer into a new StringArray (no Python loop)."""
    lens = ends - starts
    n = len(lens)
    out_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=out_off[1:])
    total = int(out_off[-1])
    if total == 0:
        return pa.array([""] * n, pa.string())
    idx = np.arange(total, dtype=np.int64) - np.repeat(out_off[:-1], lens) + np.repeat(starts, lens)
    out_bytes = np.ascontiguousarray(data[idx])
    # zero-copy buffers over the numpy arrays (no tobytes duplication)
    return pa.StringArray.from_buffers(
        n,
        pa.py_buffer(np.ascontiguousarray(out_off.astype(np.int32))),
        pa.py_buffer(out_bytes),
    )


def attach_span_signature(batch: pa.Table) -> pa.Table:
    """Pipeline guard, part 1: stamp each row with its span-sequence
    fingerprint (kind, text, media_ref, order) before a stage under test."""
    return batch.append_column("_span_sig", pa.array(span_signature(batch), pa.uint64()))


def verify_span_signature(batch: pa.Table) -> pa.Table:
    """Pipeline guard, part 2: recompute the fingerprint and fail loudly on
    any row whose span sequence changed (north-rule invariant).  Drops the
    guard column on success."""
    expected = batch["_span_sig"].to_numpy(zero_copy_only=False)
    actual = span_signature(batch)
    if not np.array_equal(actual, expected):
        bad = np.nonzero(actual != expected)[0][:5]
        ids = [batch["doc_id"][int(i)].as_py() for i in bad]
        raise AssertionError(f"span-sequence invariant violated for docs {ids}")
    return batch.drop_columns(["_span_sig"])


def doc_numeric_id(doc_id_col) -> np.ndarray:
    """'doc-123' or '123' -> int64 ids, vectorized; an Array or a
    ChunkedArray as given (no combine copy).  A null id has no number: a
    column holding one raises ``ValueError``, so the result is always
    int64 (callers drop null ids first, as ``flagship._media_spans``
    does)."""
    if doc_id_col.null_count:
        raise ValueError(f"doc_numeric_id: {doc_id_col.null_count} null doc_id(s)")
    stripped = pc.replace_substring(doc_id_col, "doc-", "")
    return pc.cast(stripped, pa.int64()).to_numpy(zero_copy_only=False)


def span_signature(batch: pa.Table) -> np.ndarray:
    """Per-row fingerprint of the span sequence (kind, text, media_ref, order).

    Used to assert the span-sequence-equality invariant after every stage and
    recorded in checkpoint manifests.  Offsets are covered transitively by
    order; we hash them too for strictness.
    """
    out = np.empty(len(batch), dtype=np.uint64)
    spans = as_array(batch["spans"])
    kinds = spans.values.field("kind")
    texts = spans.values.field("text")
    refs = spans.values.field("media_ref")
    offs = spans.values.field("offset")
    list_offsets = spans.offsets.to_numpy()
    for i in range(len(batch)):
        h = hashlib.blake2b(digest_size=8)
        for j in range(list_offsets[i], list_offsets[i + 1]):
            h.update(str(kinds[j]).encode())
            h.update(b"\x00")
            h.update(str(texts[j]).encode())
            h.update(b"\x00")
            h.update(str(refs[j]).encode())
            h.update(b"\x00")
            h.update(str(offs[j]).encode())
            h.update(b"\x01")
        out[i] = np.frombuffer(h.digest(), dtype=np.uint64)[0]
    return out


def redact_text_spans(batch: pa.Table, pattern: str, token: str) -> pa.Table:
    """Span-preserving PII scrub over INTERLEAVED documents: redacts the
    ``text`` field of kind=='text' spans only — media spans, refs, offsets,
    span COUNT and span ORDER are untouched, so the north-rule sequence
    invariant holds by construction (only the edited field changes).
    Vectorized: one RE2 replace over the flattened span-text child; the
    list/struct skeleton (offsets, other children) is rebuilt as-is."""
    spans = batch["spans"]
    spans = as_array(spans)
    v = spans.values
    kind = v.field("kind")
    text = v.field("text")
    is_text = pc.equal(kind, "text")
    red = pc.replace_substring_regex(text, pattern, token)
    new_text = pc.if_else(is_text, red, text)
    new_vals = pa.StructArray.from_arrays(
        [kind, new_text, v.field("media_ref"), v.field("offset")],
        fields=list(SPAN_STRUCT),
    )
    new_spans = pa.ListArray.from_arrays(spans.offsets, new_vals)
    return pa.Table.from_arrays([batch["doc_id"], new_spans],
                                schema=DOCUMENTS_SCHEMA)


def has_span_leaves(schema: pa.Schema | None) -> bool:
    """True when ``schema`` holds ``doc_id: string`` and ``spans:
    list<struct<kind: string, offset: int32, ...>>`` — the columns a
    ``SpanLeafDatasource`` reads."""
    try:
        spans = schema.field("spans").type
        kind, offset = (spans.value_type.field(f).type for f in ("kind", "offset"))
        doc_id = schema.field("doc_id").type
    except (AttributeError, KeyError, TypeError):  # no schema, column, list or struct field
        return False
    return (pa.types.is_list(spans) and doc_id == pa.string()
            and kind == pa.string() and offset == pa.int32())


def _span_leaf_paths(schema: pq.ParquetSchema) -> list[str]:
    """Parquet leaf paths of ``doc_id``, ``spans.kind`` and ``spans.offset``
    in one file's schema, whatever its list naming
    (``spans.list.element.kind`` or ``spans.list.item.kind``)."""
    out = []
    for i in range(len(schema)):
        path = schema.column(i).path
        parts = path.split(".")
        if path == "doc_id" or (len(parts) == 4 and parts[0] == "spans"
                                and parts[3] in ("kind", "offset")):
            out.append(path)
    return out


def _read_span_leaves(paths, filesystem) -> Iterator[pa.Table]:
    """Read task body of ``SpanLeafDatasource``: each file one row group at a
    time, decoding only its ``_span_leaf_paths`` (every span's ``text`` and
    ``media_ref`` stay undecoded).  Zero-row tables are dropped, as Ray's
    parquet read drops them."""
    for path in paths:
        with filesystem.open_input_file(str(path)) as f:
            pf = pq.ParquetFile(f)
            leaves = _span_leaf_paths(pf.schema)
            if len(leaves) != 3:
                raise ValueError(f"{path}: no doc_id, spans.kind and spans.offset leaves")
            for i in range(pf.num_row_groups):
                t = pf.read_row_group(i, columns=leaves, use_threads=False)
                if t.num_rows:
                    yield t if t.schema.equals(SPAN_LEAF_SCHEMA) else t.cast(SPAN_LEAF_SCHEMA)


class SpanLeafDatasource(Datasource):
    """Ray datasource that reads the files of a documents parquet read down
    to ``SPAN_LEAF_SCHEMA``: ``doc_id`` plus the ``kind`` and ``offset``
    leaves of ``spans`` (Dremel's column-striped read of nested leaves).
    Ray's ``read_parquet(columns=)`` and ``pyarrow.dataset`` prune top-level
    columns only, so they decode every span's strings.

    ``source`` is the ``ParquetDatasource`` of that read: its read tasks give
    the grouping of the resolved files, their row counts and sizes (the
    size is the full read's, an upper bound that keeps the read's task and
    block counts those of the plain read), and its filesystem opens them.
    Named "Parquet", so Ray names the operator ``ReadParquet`` as for the
    plain read."""

    def __init__(self, source):
        self._source = source
        self._filesystem = source._filesystem

    def get_name(self) -> str:
        return "Parquet"

    @property
    def supports_distributed_reads(self) -> bool:
        return self._source.supports_distributed_reads

    def estimate_inmemory_data_size(self) -> int | None:
        return self._source.estimate_inmemory_data_size()

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        fs = self._filesystem
        return [ReadTask(lambda files=list(task.metadata.input_files): _read_span_leaves(files, fs),
                         task.metadata, schema=SPAN_LEAF_SCHEMA)
                for task in self._source.get_read_tasks(parallelism)]
