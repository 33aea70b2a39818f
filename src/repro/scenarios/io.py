"""Loading and dumping specs — scenario, sweep or audit — as JSON or TOML files.

The on-disk shape is exactly what :func:`~repro.scenarios.spec.spec_to_dict`
produces: plain tables of scalars, lists and sub-tables, with no ``None``
values (TOML has no null).
The format is chosen by file extension (``.json`` / ``.toml``).

TOML reading uses the standard library's :mod:`tomllib`; writing uses a small
emitter restricted to the spec shape (scalars, lists of scalars, tables,
arrays of tables) — enough for a lossless round-trip of every spec this
package can produce, without depending on a third-party TOML writer.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Union

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: stdlib tomllib arrived in 3.11
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]  # JSON specs still work

_TOML_DECODE_ERROR = tomllib.TOMLDecodeError if tomllib is not None else ()

from repro.scenarios.spec import ScenarioSpec, SpecError, SweepSpec, spec_from_dict, spec_to_dict

__all__ = ["load_spec", "load_any", "dump_spec", "dumps_toml"]

_FORMATS = (".json", ".toml")


def _format_of(path: Union[str, os.PathLike]) -> str:
    extension = os.path.splitext(os.fspath(path))[1].lower()
    if extension not in _FORMATS:
        raise SpecError(
            str(path),
            f"cannot infer spec format from extension {extension!r}; "
            "use a .json or .toml file",
        )
    return extension


def _read_table(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    extension = _format_of(path)
    if extension == ".toml" and tomllib is None:
        raise SpecError(
            str(path),
            "reading TOML specs requires Python 3.11+ (tomllib) or the 'tomli' "
            "package; use a JSON spec file on this interpreter",
        )
    try:
        if extension == ".json":
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            with open(path, "rb") as handle:
                data = tomllib.load(handle)
    except FileNotFoundError:
        raise SpecError(str(path), "spec file not found") from None
    except OSError as exc:
        raise SpecError(str(path), f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(str(path), f"invalid JSON: {exc}") from exc
    except _TOML_DECODE_ERROR as exc:
        raise SpecError(str(path), f"invalid TOML: {exc}") from exc
    if not isinstance(data, Mapping):
        raise SpecError(str(path), f"expected a table at the top level, got {type(data).__name__}")
    return dict(data)


def load_spec(path: Union[str, os.PathLike], kind: type = ScenarioSpec) -> Any:
    """Load a spec of class ``kind`` from a ``.json`` or ``.toml`` file."""
    return _parse(_read_table(path), kind, path)


def load_any(path: Union[str, os.PathLike]) -> Union[ScenarioSpec, SweepSpec]:
    """Load whichever spec the file holds.

    A table with a ``base``, ``points`` or ``axes`` key is a sweep; anything
    else is a single scenario.  (Audit files also have a ``base``: they are
    loaded by naming their class to :func:`load_spec`, never sniffed.)
    """
    data = _read_table(path)
    is_sweep = any(key in data for key in ("base", "points", "axes"))
    return _parse(data, SweepSpec if is_sweep else ScenarioSpec, path)


def _parse(data: Dict[str, Any], kind: type, path: Union[str, os.PathLike]) -> Any:
    try:
        return spec_from_dict(data, kind)
    except SpecError as exc:
        raise SpecError(str(path), exc.args[0]) from exc


def dump_spec(spec: Any, path: Union[str, os.PathLike]) -> None:
    """Write any spec to ``path`` as JSON or TOML (by extension)."""
    _write_table(spec_to_dict(spec), path)


def _write_table(data: Dict[str, Any], path: Union[str, os.PathLike]) -> None:
    extension = _format_of(path)
    if extension == ".json":
        text = json.dumps(data, indent=2) + "\n"
    else:
        text = dumps_toml(data)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# ------------------------------------------------------------------ TOML writing --
def dumps_toml(data: Mapping[str, Any]) -> str:
    """Serialize a spec-shaped mapping to TOML text.

    Supports the value shapes spec serialization produces: strings, booleans,
    integers, floats, homogeneous lists of scalars, nested tables, lists of
    tables (emitted as ``[[arrays.of.tables]]``), and mixed lists of scalars
    and tables (tables emitted inline — the shape of an adversary library
    like ``["equivocate", {kind = "crash", max_sends = 4}]``).
    """
    lines: List[str] = []
    _emit_table(data, prefix=(), lines=lines)
    return "\n".join(lines) + "\n"


def _emit_table(table: Mapping[str, Any], prefix, lines: List[str]) -> None:
    scalar_items = []
    table_items = []
    array_items = []
    for key, value in table.items():
        if isinstance(value, Mapping):
            table_items.append((key, value))
        elif isinstance(value, (list, tuple)) and value and all(
            isinstance(item, Mapping) for item in value
        ):
            array_items.append((key, value))
        else:
            scalar_items.append((key, value))
    for key, value in scalar_items:
        lines.append(f"{_toml_key(key)} = {_toml_value(value, key)}")
    for key, value in table_items:
        lines.append("")
        lines.append(f"[{'.'.join(_toml_key(part) for part in (*prefix, key))}]")
        _emit_table(value, (*prefix, key), lines)
    for key, entries in array_items:
        header = ".".join(_toml_key(part) for part in (*prefix, key))
        for entry in entries:
            lines.append("")
            lines.append(f"[[{header}]]")
            _emit_table(entry, (*prefix, key), lines)


def _toml_key(key: str) -> str:
    if key and all(c.isalnum() or c in "-_" for c in key):
        return key
    return json.dumps(key)


def _toml_value(value: Any, key: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise SpecError(key, "non-finite floats are not representable in spec files")
        text = repr(value)
        return text if ("." in text or "e" in text or "E" in text) else text + ".0"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item, key) for item in value) + "]"
    if isinstance(value, Mapping):
        inner = ", ".join(
            f"{_toml_key(k)} = {_toml_value(v, k)}" for k, v in value.items()
        )
        return "{" + inner + "}"
    raise SpecError(key, f"cannot serialize {type(value).__name__} values to TOML")
