"""The columnar results backend: typed NumPy chunks, memory-mapped on read.

JSONL pays O(records) text parsing before a single aggregate can be computed;
at the 10^5–10^6-round sweeps the ROADMAP targets that dominates analysis
time.  This backend stores the same journal as binary *chunks* of NumPy
structured arrays so that scanning is a buffer cast, not a parse:

* **file layout** — the :data:`~repro.scenarios.store.COLUMNAR_MAGIC` bytes,
  one manifest block, then zero or more sealed chunks, each block
  length-prefixed::

      magic   := b"RPACOL1\\n"
      file    := magic manifest chunk*
      manifest:= b"MANI" u32(len) json      # the same manifest dict jsonl has
      chunk   := b"CHNK" u32(len) json(header) payload

  The chunk header carries ``rows``, the ``schema``, the ``strings`` this
  chunk adds to the file's dictionary, and ``payload_bytes``.  The payload is
  one C-contiguous structured array — ``point`` and ``instance`` as little-
  endian int64 plus one field per scalar record column — followed, per
  ``json``-kind column, by an int64 length array and a canonical-JSON blob.

* **schema** — inferred once, from the first appended record's ``to_dict()``:
  bool, int, float, str (nullable) map to fixed-width columns; anything
  structured (lists, mappings — e.g. a resilience record's ``coalition`` and
  ``member_gains``) is a ``json`` column.  Records must be type-stable; a
  field changing type mid-stream is a spec error naming the field (use the
  jsonl backend for heterogeneous streams).

* **string interning** — str columns store int32 indices into a per-file
  dictionary (-1 encodes ``None``).  The dictionary grows in first-seen
  order — a deterministic function of the record stream, never of hash
  iteration — and each chunk header lists only the strings it adds, so the
  reader reconstructs the dictionary incrementally.

* **append / crash tolerance** — ``append_raw`` is an O(1) list append;
  every :data:`~ColumnarStoreBackend.CHUNK_ROWS` rows (and on flush/close)
  the buffer is *sealed*: encoded, length-prefixed and written in one
  flushed write.  A crash mid-seal leaves a partial block after the last
  sealed chunk; readers stop at the last complete chunk and resume truncates
  the torn tail — exactly the jsonl torn-line semantics, per chunk.

* **read** — the file is memory-mapped; each chunk's scalar columns are
  ``np.frombuffer`` views into the map.  ``summary()`` reduces those views
  column-at-a-time into :class:`~repro.scenarios.aggregate.StreamingSummary`
  and never materialises a row, a record, or the record list.

Round-trip guarantee: rehydrated records are byte-equal to the jsonl
backend's on canonical JSON — int64/float64 store Python ints and floats
exactly, strings return from the dictionary unchanged, and structured values
round-trip through ``json`` — which the differential suite pins.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.scenarios.aggregate import StreamingSummary
from repro.scenarios.runner import RunRecord
from repro.scenarios.spec import SpecError
from repro.scenarios.store import COLUMNAR_MAGIC, RawRow, StoreBackend

__all__ = ["ColumnarStoreBackend"]

_MANIFEST_MARKER = b"MANI"
_CHUNK_MARKER = b"CHNK"
_LENGTH = struct.Struct("<I")

#: NumPy dtype per scalar schema kind (str columns hold dictionary indices).
_SCALAR_DTYPES = {"int": "<i8", "float": "<f8", "bool": "|b1", "str": "<i4"}

#: One column of the inferred schema: (record-dict key, kind).
Column = Tuple[str, str]


class ColumnarStoreBackend(StoreBackend):
    """Results journal as sealed chunks of typed NumPy structured arrays."""

    kind = "columnar"

    #: Rows buffered per chunk.  Larger chunks amortise the header better;
    #: smaller ones bound the data a crash can lose.  512 rows keeps worst-
    #: case loss in line with one parallel worker chunk's worth of rounds.
    CHUNK_ROWS = 512

    def __init__(self, path: Union[str, os.PathLike], record_type=RunRecord) -> None:
        super().__init__(path, record_type)
        self._handle = None
        self._schema: Optional[Tuple[Column, ...]] = None
        self._strings: List[str] = []
        self._string_ids: Dict[str, int] = {}
        self._fresh_strings: List[str] = []
        self._pending: List[RawRow] = []

    # -- primitives ------------------------------------------------------------------
    def _create(self, manifest: Dict[str, Any]) -> None:
        self._handle = open(self.path, "wb")
        block = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
        self._handle.write(
            COLUMNAR_MAGIC + _MANIFEST_MARKER + _LENGTH.pack(len(block)) + block
        )
        self._handle.flush()

    def _open_resume(self, fingerprint: str) -> Tuple[Dict[str, Any], List[RawRow]]:
        data = self._map()
        try:
            manifest, chunks, valid_end = self._scan(data)
            manifest = self._validate_manifest(manifest, fingerprint)
            schema, strings, string_ids, rows = self._collect(data, chunks)
            size = len(data)
        finally:
            self._unmap(data)
        self._schema = schema
        self._strings = strings
        self._string_ids = string_ids
        if valid_end < size:
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_end)  # torn chunk: crash mid-seal
        self._handle = open(self.path, "ab")
        return manifest, rows

    def append_raw(self, point: int, instance: int, row: Dict[str, Any]) -> None:
        if self._handle is None:
            raise SpecError(self.path, "results journal is not open; call begin() first")
        if self._schema is None:
            self._schema = self._infer_schema(row)
        self._pending.append((int(point), int(instance), row))
        if len(self._pending) >= self.CHUNK_ROWS:
            self._seal()

    def read_raw(
        self, expected_fingerprint: Optional[str] = None
    ) -> Tuple[Dict[str, Any], List[RawRow]]:
        self.flush()
        data = self._map()
        try:
            manifest, chunks, _valid_end = self._scan(data)
            manifest = self._validate_manifest(manifest, expected_fingerprint)
            _schema, _strings, _ids, rows = self._collect(data, chunks)
        finally:
            self._unmap(data)
        return manifest, rows

    def summary(self) -> Dict[str, Any]:
        """Reduce the memory-mapped chunks column-at-a-time (no rows built)."""
        self.flush()
        summary = StreamingSummary()
        data = self._map()
        try:
            manifest, chunks, _valid_end = self._scan(data)
            manifest = self._validate_manifest(manifest, None)
            for header, payload_start in chunks:
                self._reduce_chunk(data, header, payload_start, summary)
            payload = self._summary_payload(manifest, summary)
        finally:
            self._unmap(data)
        return payload

    def _reduce_chunk(
        self, data, header: Dict[str, Any], payload_start: int, summary: StreamingSummary
    ) -> None:
        # A helper so the frombuffer views are function-local: every exported
        # pointer into the memory map must be gone before the map is closed.
        schema = _header_schema(header)
        rows = int(header["rows"])
        array = np.frombuffer(
            data, dtype=_chunk_dtype(schema), count=rows, offset=payload_start
        )
        summary.add_records(rows)
        for index, (name, column_kind) in enumerate(schema):
            if column_kind in ("int", "float"):
                summary.add_column(name, array[f"c{index}"].astype(np.float64))
            elif column_kind == "bool":
                summary.add_flags(name, np.asarray(array[f"c{index}"], dtype=np.uint8))

    def flush(self) -> None:
        if self._handle is not None:
            self._seal()

    def close(self) -> None:
        if self._handle is not None:
            self._seal()
            self._handle.close()
            self._handle = None

    # -- write path ------------------------------------------------------------------
    def _infer_schema(self, row: Dict[str, Any]) -> Tuple[Column, ...]:
        schema: List[Column] = []
        for name, value in row.items():
            if isinstance(value, bool):
                schema.append((name, "bool"))
            elif isinstance(value, int):
                schema.append((name, "int"))
            elif isinstance(value, float):
                schema.append((name, "float"))
            elif value is None or isinstance(value, str):
                schema.append((name, "str"))
            else:
                schema.append((name, "json"))
        return tuple(schema)

    def _seal(self) -> None:
        """Encode and write the pending rows as one flushed chunk."""
        pending, self._pending = self._pending, []
        if not pending or self._schema is None:
            return
        schema = self._schema
        self._fresh_strings = []
        array = np.zeros(len(pending), dtype=_chunk_dtype(schema))
        array["point"] = [point for point, _instance, _row in pending]
        array["instance"] = [instance for _point, instance, _row in pending]
        json_blobs: List[bytes] = []
        for index, (name, column_kind) in enumerate(schema):
            values = [self._field(row, name) for _point, _instance, row in pending]
            if column_kind == "json":
                encoded = [
                    json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
                    for value in values
                ]
                lengths = np.asarray([len(blob) for blob in encoded], dtype="<i8")
                json_blobs.append(lengths.tobytes() + b"".join(encoded))
            else:
                array[f"c{index}"] = [
                    self._encode_scalar(name, column_kind, value) for value in values
                ]
        payload = array.tobytes() + b"".join(json_blobs)
        header = {
            "rows": len(pending),
            "schema": [list(column) for column in schema],
            "strings": self._fresh_strings,
            "payload_bytes": len(payload),
        }
        block = json.dumps(header, separators=(",", ":")).encode("utf-8")
        self._handle.write(_CHUNK_MARKER + _LENGTH.pack(len(block)) + block + payload)
        self._handle.flush()
        self._fresh_strings = []

    def _field(self, row: Dict[str, Any], name: str) -> Any:
        try:
            return row[name]
        except KeyError:
            raise SpecError(
                self.path,
                f"record is missing field {name!r} present in this journal's "
                f"schema; the columnar backend needs shape-stable records — "
                f"use the jsonl backend for heterogeneous streams",
            ) from None

    def _encode_scalar(self, name: str, column_kind: str, value: Any) -> Any:
        if column_kind == "bool":
            if isinstance(value, bool):
                return value
        elif column_kind == "int":
            if isinstance(value, int) and not isinstance(value, bool):
                return value
        elif column_kind == "float":
            if isinstance(value, float):
                return value
        elif column_kind == "str":
            if value is None:
                return -1
            if isinstance(value, str):
                return self._intern(value)
        raise SpecError(
            self.path,
            f"record field {name!r} is not type-stable (journal schema says "
            f"{column_kind}, record holds {type(value).__name__}); the columnar "
            f"backend needs type-stable records — use the jsonl backend for "
            f"heterogeneous streams",
        )

    def _intern(self, value: str) -> int:
        index = self._string_ids.get(value)
        if index is None:
            index = len(self._strings)
            self._string_ids[value] = index
            self._strings.append(value)
            self._fresh_strings.append(value)
        return index

    # -- read path -------------------------------------------------------------------
    def _map(self):
        try:
            with open(self.path, "rb") as handle:
                try:
                    return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                except ValueError:
                    return b""  # empty files cannot be mapped
        except FileNotFoundError:
            raise SpecError(self.path, "results journal not found") from None
        except OSError as exc:
            raise SpecError(self.path, f"cannot read results journal: {exc}") from exc

    @staticmethod
    def _unmap(data) -> None:
        if isinstance(data, mmap.mmap):
            data.close()

    def _scan(self, data) -> Tuple[Any, List[Tuple[Dict[str, Any], int]], int]:
        """Frame the file: (manifest, [(chunk header, payload offset)], valid end).

        Any unparsable trailing region — short block, bad marker, truncated
        payload — is a torn tail from a crash mid-seal: framing stops at the
        last complete chunk and ``valid_end`` marks the repair point.
        """
        if data[: len(COLUMNAR_MAGIC)] != COLUMNAR_MAGIC:
            raise SpecError(
                self.path, "not a columnar results journal (bad magic bytes)"
            )
        manifest, offset = self._block(data, len(COLUMNAR_MAGIC), _MANIFEST_MARKER)
        if manifest is None:
            raise SpecError(
                self.path, "corrupt results journal: truncated manifest block"
            )
        chunks: List[Tuple[Dict[str, Any], int]] = []
        valid_end = offset
        while offset < len(data):
            header, payload_start = self._block(data, offset, _CHUNK_MARKER)
            if not isinstance(header, dict):
                break  # torn tail: crash mid-seal
            try:
                rows = int(header["rows"])
                payload_bytes = int(header["payload_bytes"])
                schema = _header_schema(header)
            except (KeyError, TypeError, ValueError):
                break
            if rows < 0 or payload_bytes < 0 or payload_start + payload_bytes > len(data):
                break
            if payload_bytes < _chunk_dtype(schema).itemsize * rows:
                break
            chunks.append((header, payload_start))
            offset = payload_start + payload_bytes
            valid_end = offset
        return manifest, chunks, valid_end

    @staticmethod
    def _block(data, offset: int, marker: bytes) -> Tuple[Any, int]:
        """Parse one length-prefixed JSON block; (None, offset) when torn."""
        header_start = offset + len(marker) + _LENGTH.size
        if data[offset : offset + len(marker)] != marker or header_start > len(data):
            return None, offset
        (length,) = _LENGTH.unpack(data[offset + len(marker) : header_start])
        if header_start + length > len(data):
            return None, offset
        try:
            parsed = json.loads(bytes(data[header_start : header_start + length]))
        except ValueError:
            return None, offset
        return parsed, header_start + length

    def _collect(
        self, data, chunks: List[Tuple[Dict[str, Any], int]]
    ) -> Tuple[Optional[Tuple[Column, ...]], List[str], Dict[str, int], List[RawRow]]:
        """Decode every chunk: the file schema, dictionary and raw rows."""
        schema: Optional[Tuple[Column, ...]] = None
        strings: List[str] = []
        string_ids: Dict[str, int] = {}
        rows: List[RawRow] = []
        for header, payload_start in chunks:
            for value in header.get("strings", ()):
                string_ids[str(value)] = len(strings)
                strings.append(str(value))
            chunk_schema = _header_schema(header)
            if schema is None:
                schema = chunk_schema
            elif chunk_schema != schema:
                raise SpecError(
                    self.path, "corrupt results journal: chunk schema mismatch"
                )
            rows.extend(self._decode_chunk(data, header, payload_start, strings))
        return schema, strings, string_ids, rows

    def _decode_chunk(
        self, data, header: Dict[str, Any], payload_start: int, strings: List[str]
    ) -> List[RawRow]:
        schema = _header_schema(header)
        count = int(header["rows"])
        array = np.frombuffer(
            data, dtype=_chunk_dtype(schema), count=count, offset=payload_start
        )
        offset = payload_start + array.nbytes
        columns: Dict[str, List[Any]] = {}
        for index, (name, column_kind) in enumerate(schema):
            if column_kind == "json":
                lengths = np.frombuffer(data, dtype="<i8", count=count, offset=offset)
                offset += lengths.nbytes
                values: List[Any] = []
                for length in lengths.tolist():
                    blob = bytes(data[offset : offset + length])
                    offset += length
                    try:
                        values.append(json.loads(blob))
                    except ValueError:
                        raise SpecError(
                            self.path,
                            f"corrupt results journal: malformed json column {name!r}",
                        ) from None
                columns[name] = values
            elif column_kind == "str":
                indices = array[f"c{index}"].tolist()
                if indices and max(indices) >= len(strings):
                    raise SpecError(
                        self.path,
                        "corrupt results journal: string index outside the dictionary",
                    )
                columns[name] = [
                    None if value < 0 else strings[value] for value in indices
                ]
            else:
                columns[name] = array[f"c{index}"].tolist()
        points = array["point"].tolist()
        instances = array["instance"].tolist()
        return [
            (points[row], instances[row], {name: columns[name][row] for name, _ in schema})
            for row in range(count)
        ]


def _header_schema(header: Dict[str, Any]) -> Tuple[Column, ...]:
    return tuple((str(name), str(column_kind)) for name, column_kind in header["schema"])


def _chunk_dtype(schema: Tuple[Column, ...]) -> np.dtype:
    """The structured dtype of a chunk's scalar block.

    Record columns are numbered ``c<i>`` (their real names live in the
    header's schema) so a record field named ``point`` can never collide
    with the round-key fields.
    """
    fields = [("point", "<i8"), ("instance", "<i8")]
    for index, (_name, column_kind) in enumerate(schema):
        if column_kind != "json":
            fields.append((f"c{index}", _SCALAR_DTYPES[column_kind]))
    return np.dtype(fields)
