"""Persistent sweep results: one journal contract, two file formats.

One :class:`ResultsStore` file is both the sweep's durable artifact and its
checkpoint.  The same machinery journals resilience audits
(:mod:`repro.scenarios.resilience`): the store is parametrised by a record
type (any class with a lossless ``to_dict``/``from_dict`` pair — default
:class:`~repro.scenarios.runner.RunRecord`) and by the manifest fingerprint,
which sweeps derive from the sweep spec and audits from the resilience spec.

The *file format* is one of two :class:`StoreBackend` classes, selected by
the class's own ``kind`` (:func:`store_backends`; DESIGN.md, "The results
plane"):

* ``jsonl`` — the interchange format and the default.  One JSON object per
  line: line 1 the manifest, every further line one completed round.
* ``columnar`` (:mod:`repro.scenarios.columnar`) — typed NumPy
  structured-array chunks, memory-mapped on read, strings interned via a
  per-file dictionary.  Built for 10^5+-record sweeps where parsing JSON
  per record dominates analysis time.

Every backend honours one contract (:class:`StoreBackend`):

* a **manifest** written first::

      {"kind": "manifest", "version": 1, "sweep": "<name>",
       "fingerprint": "<sha256 of the canonical sweep spec>",
       "total_rounds": <grid rounds>}

* **append** of ``(point, instance, record)`` rounds, flushed as they
  complete — per round under sequential execution, per worker chunk under
  parallel execution — in *completion* order; the ``point`` index makes
  reassembly order-independent.  Appending is O(1) I/O per record: opening
  an existing journal for resume reads it **once**, and no append re-reads
  what came before.

* **torn-tail tolerance**: a partial final line / chunk — the signature of
  a crash mid-append — is ignored on load and truncated away before the
  journal is re-opened for appending; corruption anywhere else is an error.

* **resume**: ``begin(sweep, resume=True)`` verifies the journal's manifest
  fingerprint against the run about to start (a changed sweep must go to a
  fresh path) and returns the rounds already journaled, which the engines
  then skip.  Journaled records rehydrate bit-identically — the canonical
  JSON of every rehydrated record is byte-equal across backends, which is
  why ``convert_journal`` (fingerprint-preserving) lets ``--resume``
  continue a run across formats.

* **summary**: streaming aggregation (:mod:`repro.scenarios.aggregate`, and
  NumPy, imported by ``summary``) without materialising the record list.

The file's format is *sniffed* from its first bytes, so readers never need
to be told which backend wrote a journal; an explicit ``--store-format``
that contradicts the sniffed format is a spec error naming both formats.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.scenarios.runner import RunRecord
from repro.scenarios.spec import SpecError, spec_fingerprint

if TYPE_CHECKING:
    from repro.scenarios.aggregate import StreamingSummary

__all__ = [
    "ResultsStore",
    "StoreBackend",
    "JsonlStoreBackend",
    "DEFAULT_STORE_FORMAT",
    "STORE_FORMATS",
    "sniff_format",
    "store_backends",
    "make_backend",
    "convert_journal",
]

#: Key of one journaled round: (grid point index, workload instance).
RoundKey = Tuple[int, int]

#: One journaled round before rehydration: (point, instance, record dict).
RawRow = Tuple[int, int, Dict[str, Any]]

#: The interchange format; what a fresh path gets when no format is requested.
DEFAULT_STORE_FORMAT = "jsonl"

#: Every journal format, sorted: the keys of :func:`store_backends`, named
#: without importing the columnar module (and NumPy) to list them.
STORE_FORMATS = ("columnar", "jsonl")

#: First bytes of a columnar journal (defined here so sniffing needs no import
#: of the columnar module; :mod:`repro.scenarios.columnar` re-uses it).
COLUMNAR_MAGIC = b"RPACOL1\n"


class StoreBackend:
    """The backend-agnostic results-journal contract.

    Subclasses implement the five format-specific primitives — ``_create``,
    ``_open_resume``, ``append_raw``, ``read_raw`` and ``summary`` — against
    *raw rows* (plain record dicts); this base class owns everything
    format-independent: the exists/resume guard, manifest validation, and
    rehydration through ``record_type.from_dict`` at the typed edge.  Keeping
    backends raw is what lets ``convert_journal`` and ``results summarize``
    work on any journal without knowing its record class.
    """

    #: The format's name — what :func:`store_backends` keys the class by,
    #: :func:`sniff_format` returns and ``--store-format`` / ``--to`` accept.
    kind = ""

    VERSION = 1

    def __init__(self, path: Union[str, os.PathLike], record_type=RunRecord) -> None:
        self.path = os.fspath(path)
        self.record_type = record_type

    # -- lifecycle (shared template) -------------------------------------------------
    def begin(
        self,
        sweep,
        total_rounds: int,
        *,
        resume: bool = False,
        fingerprint: Optional[str] = None,
    ) -> Dict[RoundKey, Any]:
        """Open the journal for this run and return the rounds it already holds.

        A fresh path gets a manifest; an existing journal requires
        ``resume=True`` (guarding against accidentally mixing two runs into
        one artifact) and a manifest matching the run about to start.
        ``sweep`` is the manifest owner: any named spec — a sweep or an audit;
        ``fingerprint`` defaults to its
        :func:`~repro.scenarios.spec.spec_fingerprint`.
        """
        if fingerprint is None:
            fingerprint = spec_fingerprint(sweep)
        if os.path.exists(self.path):
            if not resume:
                raise SpecError(
                    self.path,
                    "results journal already exists; pass resume=True "
                    "(CLI: --resume) to continue it, or choose a new output path",
                )
            _manifest, rows = self._open_resume(fingerprint)
            return self._rehydrate(rows)
        self.create(
            {
                "kind": "manifest",
                "version": self.VERSION,
                "sweep": sweep.name,
                "fingerprint": fingerprint,
                "total_rounds": total_rounds,
            }
        )
        return {}

    def create(self, manifest: Dict[str, Any]) -> None:
        """Create a fresh journal holding exactly ``manifest`` (verbatim).

        ``convert_journal`` calls this directly with the source journal's
        manifest — including its fingerprint — which is what makes a
        converted journal resumable by the original run.
        """
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._create(dict(manifest))

    def append(self, point: int, instance: int, record) -> None:
        """Journal one completed round (durable by the next flush point)."""
        self.append_raw(point, instance, record.to_dict())

    def read(
        self, expected_fingerprint: Optional[str] = None
    ) -> Tuple[Dict[str, Any], Dict[RoundKey, Any]]:
        """Load the journal: its manifest and the typed records it holds.

        With ``expected_fingerprint``, the manifest must match it — the
        resume path's guarantee that a journal is only ever continued by the
        sweep that started it.
        """
        manifest, rows = self.read_raw(expected_fingerprint=expected_fingerprint)
        return manifest, self._rehydrate(rows)

    def flush(self) -> None:
        """Make everything appended so far durable (no-op when not open)."""

    def close(self) -> None:
        """Flush and release the journal handle (idempotent)."""

    def __enter__(self) -> "StoreBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- format-specific primitives --------------------------------------------------
    def _create(self, manifest: Dict[str, Any]) -> None:
        """Write a fresh journal containing ``manifest`` and open it for append."""
        raise NotImplementedError

    def _open_resume(self, fingerprint: str) -> Tuple[Dict[str, Any], List[RawRow]]:
        """Validate + load an existing journal, repair its tail, open for append."""
        raise NotImplementedError

    def append_raw(self, point: int, instance: int, row: Dict[str, Any]) -> None:
        """Journal one raw record dict.  Must be O(1) I/O per record."""
        raise NotImplementedError

    def read_raw(
        self, expected_fingerprint: Optional[str] = None
    ) -> Tuple[Dict[str, Any], List[RawRow]]:
        """Load the manifest and every raw row, in file order."""
        raise NotImplementedError

    def summary(self) -> Dict[str, Any]:
        """Streaming aggregate over the journal (never builds the record list)."""
        raise NotImplementedError

    # -- shared validation plumbing --------------------------------------------------
    def _validate_manifest(
        self, manifest: Any, expected_fingerprint: Optional[str]
    ) -> Dict[str, Any]:
        if not isinstance(manifest, dict) or manifest.get("kind") != "manifest":
            raise SpecError(
                self.path, "not a results journal (first line must be the manifest)"
            )
        if manifest.get("version") != self.VERSION:
            raise SpecError(
                self.path,
                f"unsupported results-journal version {manifest.get('version')!r} "
                f"(this build writes version {self.VERSION})",
            )
        if expected_fingerprint is not None and manifest.get("fingerprint") != expected_fingerprint:
            raise SpecError(
                self.path,
                "journal manifest does not match this sweep (its name, base spec "
                "or grid changed since the journal was written); choose a new "
                "output path for the changed sweep",
            )
        return manifest

    def _rehydrate(self, rows: List[RawRow]) -> Dict[RoundKey, Any]:
        completed: Dict[RoundKey, Any] = {}
        for point, instance, row in rows:
            try:
                completed[(int(point), int(instance))] = self.record_type.from_dict(row)
            except (KeyError, TypeError, ValueError) as exc:
                raise SpecError(
                    self.path, f"corrupt results journal: malformed record line ({exc})"
                ) from exc
        return completed

    def _summary_payload(
        self, manifest: Dict[str, Any], summary: StreamingSummary
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "path": self.path,
            "backend": self.kind,
            "sweep": manifest.get("sweep"),
            "fingerprint": manifest.get("fingerprint"),
            "total_rounds": manifest.get("total_rounds"),
        }
        payload.update(summary.to_dict())
        return payload


class JsonlStoreBackend(StoreBackend):
    """The interchange backend: an append-only JSONL journal.

    Human-greppable, diff-able, and readable by anything with a JSON parser;
    the price is O(records) text parsing on every read.  Opening for resume
    is a *single* pass — the same read that loads completed rounds computes
    the valid byte extent, so tail repair is a truncate, not a second scan.
    """

    kind = "jsonl"

    def __init__(self, path: Union[str, os.PathLike], record_type=RunRecord) -> None:
        super().__init__(path, record_type)
        self._handle = None

    # -- primitives ------------------------------------------------------------------
    def _create(self, manifest: Dict[str, Any]) -> None:
        self._handle = open(self.path, "w", encoding="utf-8")
        self._write(manifest)

    def _open_resume(self, fingerprint: str) -> Tuple[Dict[str, Any], List[RawRow]]:
        entries, valid_end, needs_newline = self._load()
        manifest, rows = self._interpret(entries, fingerprint)
        # Tail repair without a second read: ``_load`` already knows how many
        # leading bytes parse cleanly.  A torn final line is truncated away (a
        # record after it would weld onto the partial text — one line lost and
        # one permanently invalid); a valid final line whose trailing newline
        # never reached the disk gets it now.
        size = os.path.getsize(self.path)
        if valid_end < size:
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_end)
        elif needs_newline:
            with open(self.path, "ab") as handle:
                handle.write(b"\n")
        self._handle = open(self.path, "a", encoding="utf-8")
        return manifest, rows

    def append_raw(self, point: int, instance: int, row: Dict[str, Any]) -> None:
        if self._handle is None:
            raise SpecError(self.path, "results journal is not open; call begin() first")
        self._write(
            {"kind": "record", "point": int(point), "instance": int(instance), "record": row}
        )

    def read_raw(
        self, expected_fingerprint: Optional[str] = None
    ) -> Tuple[Dict[str, Any], List[RawRow]]:
        entries, _valid_end, _needs_newline = self._load()
        return self._interpret(entries, expected_fingerprint)

    def summary(self) -> Dict[str, Any]:
        """Stream the journal line-by-line into bounded accumulators.

        Rows are parsed, folded into :class:`StreamingSummary` and dropped;
        neither the record list nor any record object is ever built.  A torn
        final line is tolerated exactly as in ``read``.
        """
        from repro.scenarios.aggregate import StreamingSummary

        self.flush()
        summary = StreamingSummary(self.path)
        manifest: Optional[Dict[str, Any]] = None
        pending_error: Optional[int] = None
        try:
            handle = open(self.path, "r", encoding="utf-8")
        except FileNotFoundError:
            raise SpecError(self.path, "results journal not found") from None
        except OSError as exc:
            raise SpecError(self.path, f"cannot read results journal: {exc}") from exc
        with handle:
            for number, line in enumerate(handle, start=1):
                if pending_error is not None:
                    raise SpecError(
                        self.path,
                        f"corrupt results journal: line {pending_error} is not valid JSON",
                    )
                text = line.strip()
                if not text:
                    continue
                try:
                    entry = json.loads(text)
                except ValueError:
                    pending_error = number  # only an error if any line follows
                    continue
                if manifest is None:
                    manifest = self._validate_manifest(entry, None)
                    continue
                if isinstance(entry, dict) and entry.get("kind") == "record":
                    summary.add_row(self._record_row(number, entry)[2], number)
        if manifest is None:
            raise SpecError(
                self.path, "not a results journal (first line must be the manifest)"
            )
        return self._summary_payload(manifest, summary)

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- plumbing --------------------------------------------------------------------
    def _load(self) -> Tuple[List[Tuple[int, Any]], int, bool]:
        """Single-pass parse: (entries, valid byte extent, missing final newline).

        ``entries`` pairs each parsed line with its line number.  ``valid_end``
        is the byte offset up to which the file parses cleanly; a torn final
        line (crash mid-append) lies beyond it and is simply not part of the
        journal.  Corruption on any non-final line is an error.
        """
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            raise SpecError(self.path, "results journal not found") from None
        except OSError as exc:
            raise SpecError(self.path, f"cannot read results journal: {exc}") from exc

        segments = data.splitlines(keepends=True)
        entries: List[Tuple[int, Any]] = []
        valid_end = 0
        torn = False
        for number, segment in enumerate(segments, start=1):
            stripped = segment.strip()
            if not stripped:
                valid_end += len(segment)
                continue
            try:
                entries.append((number, json.loads(stripped.decode("utf-8"))))
            except (UnicodeDecodeError, ValueError):
                if number == len(segments):
                    torn = True  # torn final line: crash mid-append; the rest is intact
                    break
                raise SpecError(
                    self.path, f"corrupt results journal: line {number} is not valid JSON"
                ) from None
            valid_end += len(segment)
        needs_newline = not torn and bool(data) and not data.endswith(b"\n")
        return entries, valid_end, needs_newline

    def _interpret(
        self, entries: List[Tuple[int, Any]], expected_fingerprint: Optional[str]
    ) -> Tuple[Dict[str, Any], List[RawRow]]:
        if not entries:
            raise SpecError(
                self.path, "not a results journal (first line must be the manifest)"
            )
        manifest = self._validate_manifest(entries[0][1], expected_fingerprint)
        rows: List[RawRow] = []
        for number, entry in entries[1:]:
            if not isinstance(entry, dict) or entry.get("kind") != "record":
                continue  # other kinds (older builds' diagnostics, newer builds' lines): skip
            rows.append(self._record_row(number, entry))
        return manifest, rows

    def _record_row(self, number: int, entry: Dict[str, Any]) -> RawRow:
        """The ``(point, instance, record)`` of record line ``number``, shape-checked.

        ``read``, ``--resume`` and ``summary`` all go through here, so a line
        one of them rejects is rejected by the others too.
        """
        point, instance, row = entry.get("point"), entry.get("instance"), entry.get("record")
        indices = type(point) is int and type(instance) is int  # a bool is no index
        if not (indices and isinstance(row, dict)):
            raise SpecError(
                self.path,
                f"corrupt results journal: malformed record line {number} (needs "
                f"integer point and instance and a table record)",
            )
        return point, instance, row

    def _write(self, entry: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
        self._handle.flush()


def sniff_format(path: Union[str, os.PathLike]) -> Optional[str]:
    """Identify which backend wrote the journal at ``path`` (None when absent).

    Columnar journals start with :data:`COLUMNAR_MAGIC`; anything else is
    treated as ``jsonl`` so that the jsonl backend — not the sniffer —
    produces the canonical diagnostics for files that are no journal at all.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(COLUMNAR_MAGIC))
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise SpecError(path, f"cannot read results journal: {exc}") from exc
    return "columnar" if head == COLUMNAR_MAGIC else "jsonl"


def store_backends() -> Dict[str, type]:
    """The journal formats: each backend class under its own ``kind``, in
    :data:`STORE_FORMATS` order.

    A function because :mod:`repro.scenarios.columnar` imports this module
    for the contract it implements; nothing is registered on import.
    """
    from repro.scenarios.columnar import ColumnarStoreBackend

    backends = {cls.kind: cls for cls in (ColumnarStoreBackend, JsonlStoreBackend)}
    return {kind: backends[kind] for kind in STORE_FORMATS}


def _backend_class(kind: str, path: str) -> type:
    """The backend class named ``kind``; unknown kinds are a ``SpecError`` at ``path``."""
    if kind == JsonlStoreBackend.kind:
        return JsonlStoreBackend  # without importing the columnar module (and NumPy)
    backends = store_backends()
    if kind not in backends:
        raise SpecError(
            path,
            f"unknown store backend kind {kind!r}; available: {', '.join(backends)}",
        )
    return backends[kind]


def make_backend(
    kind: str, path: Union[str, os.PathLike], record_type=RunRecord
) -> StoreBackend:
    """Instantiate the backend ``kind`` for ``path`` (path-precise on an unknown kind)."""
    path = os.fspath(path)
    return _backend_class(kind, path)(path, record_type=record_type)


class ResultsStore:
    """A results journal in either file format.

    The store facade every engine writes through.  ``format`` picks the
    backend for a *fresh* path (default ``jsonl``); existing files are
    sniffed, so readers never state a format — and an explicit ``format``
    contradicting what is on disk is a spec error pointing at
    ``repro-auction results convert`` rather than a parse failure deep in
    the wrong backend.
    """

    VERSION = StoreBackend.VERSION

    def __init__(
        self,
        path: Union[str, os.PathLike],
        record_type=RunRecord,
        format: Optional[str] = None,
    ) -> None:
        self.path = os.fspath(path)
        self.record_type = record_type
        self.format = format
        self._backend: Optional[StoreBackend] = None

    # -- backend resolution ----------------------------------------------------------
    @property
    def backend(self) -> StoreBackend:
        """The resolved backend (sniffs the file on first use)."""
        if self._backend is None:
            on_disk = sniff_format(self.path)
            if on_disk is not None and self.format is not None and on_disk != self.format:
                raise SpecError(
                    self.path,
                    f"this journal holds {on_disk!r} data but --store-format "
                    f"requested {self.format!r}; drop --store-format to use the "
                    f"journal as-is, or rewrite it first with "
                    f"'repro-auction results convert {self.path} NEW_PATH "
                    f"--to {self.format}'",
                )
            # From here on the format is decided: ``format`` says so.
            self.format = on_disk or self.format or DEFAULT_STORE_FORMAT
            self._backend = make_backend(self.format, self.path, record_type=self.record_type)
        self._backend.record_type = self.record_type  # honour late reassignment
        return self._backend

    @property
    def backend_kind(self) -> str:
        return self.backend.kind

    # -- delegated journal surface ---------------------------------------------------
    def begin(
        self,
        sweep,
        total_rounds: int,
        *,
        resume: bool = False,
        fingerprint: Optional[str] = None,
    ) -> Dict[RoundKey, Any]:
        return self.backend.begin(
            sweep, total_rounds, resume=resume, fingerprint=fingerprint
        )

    def append(self, point: int, instance: int, record) -> None:
        self.backend.append(point, instance, record)

    def read(
        self, expected_fingerprint: Optional[str] = None
    ) -> Tuple[Dict[str, Any], Dict[RoundKey, Any]]:
        return self.backend.read(expected_fingerprint=expected_fingerprint)

    def summary(self) -> Dict[str, Any]:
        return self.backend.summary()

    def flush(self) -> None:
        if self._backend is not None:
            self._backend.flush()

    def close(self) -> None:
        if self._backend is not None:
            self._backend.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def convert_journal(
    source: Union[str, os.PathLike],
    destination: Union[str, os.PathLike],
    to: Optional[str] = None,
) -> Dict[str, Any]:
    """Rewrite the journal at ``source`` into ``destination`` in another format.

    The manifest is copied **verbatim** — fingerprint included — so the
    converted journal answers ``--resume`` for exactly the run that produced
    the original; rows are copied raw, in file order, preserving the
    duplicate-round later-wins semantics of ``read``.  ``to`` defaults to
    "the other" format of the jsonl/columnar pair.
    """
    source = os.fspath(source)
    destination = os.fspath(destination)
    source_kind = sniff_format(source)
    if source_kind is None:
        raise SpecError(source, "results journal not found")
    if to is not None:
        _backend_class(to, "--to")  # an unknown kind is reported at the flag
    target_kind = to or ("columnar" if source_kind == "jsonl" else "jsonl")
    if target_kind == source_kind:
        raise SpecError(
            destination,
            f"journal at {source} already holds {source_kind!r} data; "
            f"pick a different --to format",
        )
    if os.path.exists(destination):
        raise SpecError(
            destination,
            "results journal already exists; choose a fresh output path "
            "for the converted copy",
        )
    reader = make_backend(source_kind, source)
    manifest, rows = reader.read_raw()
    writer = make_backend(target_kind, destination)
    try:
        writer.create(manifest)
        for point, instance, row in rows:
            writer.append_raw(point, instance, row)
    finally:
        writer.close()
    return {
        "source": source,
        "destination": destination,
        "from": source_kind,
        "to": target_kind,
        "records": len(rows),
    }
