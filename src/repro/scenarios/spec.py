"""The declarative scenario specification tree.

A :class:`ScenarioSpec` is a frozen, pure-data description of one auction
scenario: which mechanism to run, which workload draws the bids, how many
users/providers participate, the framework configuration, the latency model
(or a generated community topology), optional adversarial bidder strategies,
and the seeds.  Component choices are expressed as *string kinds*
resolved against the registries in :mod:`repro.scenarios.registry`, so a spec
can be written to (and read from) a JSON or TOML file without losing anything.

A :class:`SweepSpec` is a base scenario plus a grid: either explicit ``points``
(a list of dotted-path override mappings, run in order) or ``axes`` (an ordered
mapping of dotted paths to value lists, expanded as a cartesian product).  The
paper's Figure 4 and Figure 5 experiments are shipped as built-in sweep specs
(:mod:`repro.scenarios.builtin`).

Everything in this module is deliberately registry-agnostic: *kinds* are
validated when components are built (:mod:`repro.scenarios.runner`), not when
the spec is parsed, so user-registered kinds work transparently.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import sys
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.config import ConfigError, FrameworkConfig

__all__ = [
    "SpecError",
    "ComponentSpec",
    "LabelledComponentSpec",
    "ConfigSpec",
    "BidderSpec",
    "ScenarioSpec",
    "SweepSpec",
    "RUNNERS",
    "spec_from_dict",
    "spec_to_dict",
    "spec_with_overrides",
    "spec_fingerprint",
    "check_fields",
    "read_list",
    "parse_assignments",
    "apply_overrides",
    "canonical_fingerprint",
    "retired_rows",
]

#: The runner kinds a scenario may dispatch to.
RUNNERS = ("distributed", "centralized", "auction_run")


class SpecError(ValueError):
    """A scenario spec is malformed.  The message always names the offending path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)

    def __reduce__(self):
        # BaseException pickling replays __init__(*self.args), which would pass
        # the combined one-string message where (path, message) is expected —
        # sweep workers raising SpecError across the process boundary need this.
        return (SpecError, (self.path, self.message))


def canonical_fingerprint(data: Mapping[str, Any]) -> str:
    """A stable digest of a plain mapping; keys are sorted, so emitted order is free."""
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _freeze_params(params: Optional[Mapping[str, Any]]) -> Mapping[str, Any]:
    return dict(params) if params else {}


@dataclass(frozen=True)
class ComponentSpec:
    """A registry reference: a string ``kind`` plus keyword parameters.

    In spec files a component is either a bare string (``"double"``) or a table
    with a ``kind`` key whose remaining keys are the factory parameters
    (``{"kind": "standard", "epsilon": 0.5}``).
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind:
            raise SpecError("kind", "component kind must be a non-empty string")
        object.__setattr__(self, "params", _freeze_params(self.params))

    # -- serialization ------------------------------------------------------------
    @staticmethod
    def from_value(value: Any, path: str) -> "ComponentSpec":
        if isinstance(value, ComponentSpec):
            return value
        if isinstance(value, str):
            return ComponentSpec(value)
        if isinstance(value, Mapping):
            data = dict(value)
            kind = data.pop("kind", None)
            if not isinstance(kind, str) or not kind:
                raise SpecError(path, "expected a 'kind' string in the component table")
            return ComponentSpec(kind, data)
        raise SpecError(path, f"expected a string or a table, got {type(value).__name__}")

    def to_value(self) -> Any:
        if not self.params:
            return self.kind
        if "kind" in self.params:
            raise SpecError("params", "component parameters may not shadow 'kind'")
        return {"kind": self.kind, **self.params}


@dataclass(frozen=True)
class LabelledComponentSpec:
    """A registry reference with a display label: one row of an audit grid.

    In spec files an entry is either a bare string (``"equivocate"``, all
    defaults) or a table whose remaining keys are the factory parameters
    (``{"kind": "loss", "rate": 0.2}``); an optional ``label`` overrides the
    display label echoed into every record.  Subclasses name what they list
    (:attr:`NOUN`) and the spec field their errors point at (:attr:`FIELD`):
    ``AdversarySpec`` and ``FaultSpec`` are this class under two names.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    NOUN = "component"
    FIELD = "components"
    RESERVED_KEYS = frozenset({"kind", "label"})

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind:
            raise SpecError(f"{self.FIELD}.kind", f"{self.NOUN} kind must be a non-empty string")
        object.__setattr__(self, "params", _freeze_params(self.params))
        reserved = self.RESERVED_KEYS & set(self.params)
        if reserved:
            raise SpecError(
                self.FIELD,
                f"{self.NOUN} parameters may not use the reserved keys {sorted(reserved)}",
            )

    @property
    def display_label(self) -> str:
        if self.label is not None:
            return self.label
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.kind}({inner})"

    @classmethod
    def from_value(cls, value: Any, path: str):
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value)
        if isinstance(value, Mapping):
            data = dict(value)
            kind = data.pop("kind", None)
            if not isinstance(kind, str) or not kind:
                raise SpecError(path, f"expected a 'kind' string in the {cls.NOUN} table")
            label = data.pop("label", None)
            if label is not None and not isinstance(label, str):
                raise SpecError(f"{path}.label", f"{cls.NOUN} label must be a string")
            try:
                return cls(kind, data, label)
            except SpecError as exc:
                raise SpecError(path, exc.message) from exc
        raise SpecError(path, f"expected a string or a table, got {type(value).__name__}")

    def to_value(self) -> Any:
        if not self.params and self.label is None:
            return self.kind
        data: Dict[str, Any] = {"kind": self.kind}
        if self.label is not None:
            data["label"] = self.label
        data.update(self.params)
        return data


@dataclass(frozen=True)
class ConfigSpec:
    """Pure-data mirror of :class:`~repro.core.config.FrameworkConfig`.

    Whether ``executors`` providers can run it is
    :meth:`FrameworkConfig.check <repro.core.config.FrameworkConfig.check>`'s
    call, made by :func:`~repro.scenarios.runner.check_round`.  The coin and
    the quorum are rules, not settings, and the bid agreement has one form:
    their old switches are retired paths (:attr:`RETIRED`).
    """

    k: int = 1
    parallel: bool = False
    num_groups: Optional[int] = None
    round_timeout: Optional[float] = None

    NOUN = "configuration"
    #: Retired paths, as :attr:`ScenarioSpec.RETIRED`.
    RETIRED = {
        "use_common_coin": (True, "fc23d76", "the common coin runs exactly when A is randomized"),
        "require_quorum": (True, "fc23d76", "m > 2k is a rule of the rational consensus"),
        "agreement_mode": (
            "batched",
            "da19b2d",
            "one agreement: the batch carries each bid's 128 bits",
        ),
    }

    def __post_init__(self) -> None:
        check_fields(self)
        self.to_config()  # validate eagerly: a frozen spec is always runnable

    def to_config(self) -> FrameworkConfig:
        """Build the runtime configuration (re-validating the parameters); a bad
        value is a :class:`SpecError` at its field."""
        try:
            return FrameworkConfig(
                k=self.k,
                parallel=self.parallel,
                num_groups=self.num_groups,
                round_timeout=self.round_timeout,
            )
        except ConfigError as exc:
            raise SpecError(exc.field, str(exc)) from exc


@dataclass(frozen=True)
class BidderSpec:
    """One adversarial bidder strategy applied to a set of users.

    Users are selected by explicit ids (``users``) and/or by position in the
    generated workload (``indices``).  Each selected user receives its *own*
    strategy instance (strategies may carry per-user state).  Bidder specs only
    take effect with the ``auction_run`` runner, which is the only one that
    simulates real bidder nodes.
    """

    kind: str
    users: Tuple[str, ...] = ()
    indices: Tuple[int, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)

    #: Table keys with structural meaning; strategy parameters may not use them,
    #: or the dumped form could not be told apart from a selection on reload.
    RESERVED_KEYS = frozenset({"kind", "users", "indices"})

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind:
            raise SpecError("bidders.kind", "bidder strategy kind must be a non-empty string")
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "params", _freeze_params(self.params))
        if not self.users and not self.indices:
            raise SpecError("bidders", "a bidder entry must select users via 'users' or 'indices'")
        if any(i < 0 for i in self.indices):
            raise SpecError("bidders.indices", "user indices must be non-negative")
        reserved = self.RESERVED_KEYS & set(self.params)
        if reserved:
            raise SpecError(
                "bidders",
                f"strategy parameters may not use the reserved keys {sorted(reserved)}",
            )

    @staticmethod
    def from_value(value: Any, path: str) -> "BidderSpec":
        if isinstance(value, BidderSpec):
            return value
        if not isinstance(value, Mapping):
            raise SpecError(path, f"expected a table, got {type(value).__name__}")
        data = dict(value)
        kind = data.pop("kind", None)
        if not isinstance(kind, str) or not kind:
            raise SpecError(path, "expected a 'kind' string in the bidder table")
        users = data.pop("users", ())
        indices = data.pop("indices", ())
        if isinstance(users, str):
            users = (users,)
        if isinstance(indices, int) and not isinstance(indices, bool):
            indices = (indices,)
        if not isinstance(users, (list, tuple)) or not all(
            isinstance(u, str) for u in users
        ):
            raise SpecError(f"{path}.users", "expected a list of user-id strings")
        if not isinstance(indices, (list, tuple)) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in indices
        ):
            raise SpecError(f"{path}.indices", "expected a list of integers")
        try:
            return BidderSpec(kind, tuple(users), tuple(indices), data)
        except SpecError as exc:
            # Replace the constructor's generic path with the precise one.
            raise SpecError(path, exc.message) from exc

    def to_value(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.users:
            data["users"] = list(self.users)
        if self.indices:
            data["indices"] = list(self.indices)
        data.update(self.params)
        return data


#: Mechanism kind -> the workload kind used when the spec omits ``workload``.
_DEFAULT_WORKLOADS = {
    "double": "double",
    "standard": "standard",
    "vcg": "standard",
    "greedy": "standard",
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable description of one auction scenario.

    Attributes:
        name: free-form label, echoed into every :class:`RunRecord`.
        mechanism: registry reference for the allocation algorithm.
        workload: registry reference for the bid generator; defaults to the
            canonical workload of the mechanism kind.
        users / providers: scenario size.  ``providers`` is the number of
            *sellers* in the workload; ``executors`` (when set) restricts the
            protocol to the first ``executors`` of them (the paper's minimum
            2k+1 quorum in Figure 4).  Only the ``distributed`` runner
            subsets: ``centralized`` always sees every ask (and reports the
            full provider count), and ``auction_run`` rejects the field.
        runner: ``"distributed"`` (default), ``"centralized"`` (trusted
            baseline) or ``"auction_run"`` (full round with bidder nodes).
        config: the framework configuration for distributed runs.
        latency: registry reference for the latency model; the special kind
            ``"community"`` uses the LAN/WAN model of the generated topology.
        topology: optional community-topology reference; when set, providers
            are the topology's gateways.
        bidders: adversarial bidder strategies (``auction_run`` runner only).
        rounds: workload instances run per sweep point (a scenario's batch).
        seed: master seed (workload, network jitter, mechanism randomness).
        deadline: bid-collection deadline for ``auction_run``.
        series: optional label for grouping sweep results; a descriptive
            default is derived from the runner and configuration.
        measure_compute: retired (:attr:`RETIRED`): a keyword that accepts only
            ``False``.  Time is modelled, never measured.

    ``engine`` is retired too, as a file / override path only: a
    ``"vectorized"`` there is dropped, since the ``standard`` kind always
    builds the vectorized engine.
    """

    name: str = "scenario"
    mechanism: ComponentSpec = field(default_factory=lambda: ComponentSpec("double"))
    workload: Optional[ComponentSpec] = None
    users: int = 50
    providers: int = 8
    executors: Optional[int] = None
    runner: str = "distributed"
    config: ConfigSpec = field(default_factory=ConfigSpec)
    latency: ComponentSpec = field(default_factory=lambda: ComponentSpec("zero"))
    topology: Optional[ComponentSpec] = None
    bidders: Tuple[BidderSpec, ...] = ()
    rounds: int = 1
    seed: int = 0
    deadline: float = 1.0
    series: Optional[str] = None
    measure_compute: dataclasses.InitVar[bool] = False

    NOUN = "scenario"
    #: Retired paths (see :func:`_retired`): path -> (the one value still
    #: accepted, i.e. what the program now always does; the last commit that
    #: read the path; why it went).
    RETIRED = {
        "measure_compute": (False, "e3eec74", "compute is modelled (ROADMAP item 1)"),
        "engine": ("vectorized", "1b436d7", "one engine; the reference class is the test oracle"),
    }

    def __post_init__(self, measure_compute: bool) -> None:
        _retired(type(self), "measure_compute", measure_compute, "measure_compute")
        check_fields(self)
        if self.users < 1:
            raise SpecError("users", "need at least one user")
        if self.providers < 1:
            raise SpecError("providers", "need at least one provider")
        if self.executors is not None and not 1 <= self.executors <= self.providers:
            raise SpecError(
                "executors",
                f"executors must be in [1, providers={self.providers}], got {self.executors}",
            )
        if self.runner not in RUNNERS:
            raise SpecError(
                "runner", f"unknown runner {self.runner!r}; expected one of {', '.join(RUNNERS)}"
            )
        if self.rounds < 0:
            raise SpecError("rounds", "rounds must be non-negative")
        if self.deadline <= 0:
            raise SpecError("deadline", "deadline must be positive")
        if self.bidders and self.runner != "auction_run":
            raise SpecError(
                "bidders",
                "bidder strategies require the 'auction_run' runner "
                f"(got runner={self.runner!r})",
            )
        if self.latency.kind == "community" and self.topology is None:
            raise SpecError("latency", "the 'community' latency model requires a topology")

    # -- derived defaults ---------------------------------------------------------
    def effective_workload(self) -> ComponentSpec:
        """The workload to use: the explicit one, or the mechanism's canonical one."""
        if self.workload is not None:
            return self.workload
        kind = _DEFAULT_WORKLOADS.get(self.mechanism.kind)
        if kind is None:
            raise SpecError(
                "workload",
                f"no default workload for mechanism kind {self.mechanism.kind!r}; "
                "set 'workload' explicitly",
            )
        return ComponentSpec(kind)

    def default_series(self) -> str:
        """The series label used when ``series`` is not set."""
        if self.series is not None:
            return self.series
        if self.runner == "centralized":
            return "centralised"
        config = self.config
        prefix = "auction-run" if self.runner == "auction_run" else "distributed"
        if config.parallel:
            groups = config.num_groups
            label = f"p={groups}" if groups is not None else "p=max"
            return f"{label} ({prefix}, k={config.k})"
        return f"{prefix} k={config.k}"


# ------------------------------------------------------------------- the walker --
#: How one field travels: ``read(value, path)`` types a file / ``--set`` /
#: keyword value (raising a path-precise :class:`SpecError`), ``write(value)``
#: renders the typed value back to its plain file form.
Codec = Tuple[Callable[[Any, str], Any], Callable[[Any], Any]]

_SCALARS = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "a boolean"),
}


def _join(prefix: str, path: str) -> str:
    """``path`` seen from the spec enclosing it: the one place a prefix is added."""
    if not prefix or not path:
        return prefix or path
    return prefix + path if path.startswith("[") else f"{prefix}.{path}"


def _got(value: Any) -> str:
    return "a boolean" if isinstance(value, bool) else type(value).__name__


def _scalar(kind: type) -> Codec:
    types, label = _SCALARS[kind]

    def read(value: Any, path: str) -> Any:
        # bool is a subclass of int: a flag is never a count, a seed or a number.
        if not isinstance(value, types) or (kind is not bool and isinstance(value, bool)):
            raise SpecError(path, f"expected {label}, got {_got(value)}")
        if kind is not float:
            return value
        # Every float of a spec is a time or a factor: NaN would pass each
        # ``x <= 0`` bound downstream, and an infinity is no time at all.  (The
        # comparison, unlike ``math.isfinite``, also holds an int past float range.)
        if not abs(value) <= sys.float_info.max:
            raise SpecError(path, f"expected a finite number, got {value!r}")
        return float(value)

    return read, lambda value: value


def _read_free_table(value: Any, path: str) -> Dict[str, Any]:
    if not isinstance(value, Mapping):
        raise SpecError(path, f"expected a table, got {_got(value)}")
    return dict(value)


def read_list(read_item: Callable[[Any, str], Any]) -> Callable[[Any, str], Tuple[Any, ...]]:
    """A reader of lists whose entries ``read_item`` types at ``path[i]``."""

    def read(value: Any, path: str) -> Tuple[Any, ...]:
        if not isinstance(value, (list, tuple)):
            raise SpecError(path, f"expected a list, got {_got(value)}")
        return tuple(read_item(item, f"{path}[{i}]") for i, item in enumerate(value))

    return read


def _codec(annotation: Any) -> Codec:
    """What a field's annotation means on the way in and on the way out."""
    if annotation in _SCALARS:
        return _scalar(annotation)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is Union and len(args) == 2 and type(None) in args:  # Optional[X]
        read, write = _codec(args[0] if args[1] is type(None) else args[1])
        return (lambda value, path: None if value is None else read(value, path)), write
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:  # Tuple[X, ...]
        read, write = _codec(args[0])
        return read_list(read), (lambda value: [write(item) for item in value])
    if origin is collections.abc.Mapping:  # Mapping[str, Any]: a free-form table
        return _read_free_table, dict
    if hasattr(annotation, "from_value"):  # shorthand-or-table components
        return annotation.from_value, operator.methodcaller("to_value")
    if dataclasses.is_dataclass(annotation):  # a nested table
        return (lambda value, path: spec_from_dict(value, annotation, path)), spec_to_dict
    raise TypeError(f"no spec-file form for a field annotated {annotation!r}")


@functools.lru_cache(maxsize=None)
def _codecs(kind: type) -> Dict[str, Codec]:
    """The field table of a spec class, resolved once per class.

    A field whose file form its annotation cannot express carries its own
    codec in ``field(metadata={"spec": (read, write)})``.
    """
    hints = typing.get_type_hints(kind)
    return {
        f.name: f.metadata.get("spec") or _codec(hints[f.name])
        for f in dataclasses.fields(kind)
    }


def check_fields(spec: Any) -> None:
    """Type every field of a frozen spec in place; each ``__post_init__`` runs it first.

    This and :func:`spec_from_dict` share the readers, so a value is held to
    its annotation wherever it comes from — and the convenience forms a file
    accepts (``mechanism="standard"``, ``config={"k": 2}``, lists for tuples)
    work as keyword arguments too.  Paths are relative to ``spec`` itself.
    """
    for name, (read, _write) in _codecs(type(spec)).items():
        object.__setattr__(spec, name, read(getattr(spec, name), name))


def _retired(kind: type, key: str, value: Any, path: str) -> bool:
    """Whether ``key`` is in ``kind.RETIRED`` holding its retired value (the
    caller drops it); any other value there is a :class:`SpecError` at ``path``."""
    table = getattr(kind, "RETIRED", {})
    if key not in table:
        return False
    accepted, commit, why = table[key]
    if type(value) is not type(accepted) or value != accepted:
        got = json.dumps(value, default=repr)
        message = f"only {json.dumps(accepted)} is accepted, got {got}"
        raise SpecError(path, f"retired after commit {commit}: {why}; {message}")
    return True


@functools.lru_cache(maxsize=None)
def _nested_specs(kind: type) -> Dict[str, type]:
    """The fields of ``kind`` that hold a nested spec table, optional or not
    (``config``, an audit's ``base`` / ``recovery``): name -> its class.  A
    component (a class with ``from_value``: ``mechanism``, ``latency``, ...)
    is a value, not a table of its own."""
    nested: Dict[str, type] = {}
    for name, hint in typing.get_type_hints(kind).items():
        args = typing.get_args(hint)
        if typing.get_origin(hint) is Union and len(args) == 2 and type(None) in args:
            hint = args[0] if args[1] is type(None) else args[1]
        if dataclasses.is_dataclass(hint) and not hasattr(hint, "from_value"):
            nested[name] = hint
    return nested


def _table(kind: type, key: str) -> Optional[type]:
    """The nested spec class a dotted ``key`` of a ``kind`` spec names, if any."""
    for name in key.split("."):
        nested = _nested_specs(kind).get(name)
        if nested is None:
            return None
        kind = nested
    return kind


def _flatten(kind: type, overrides: Mapping[str, Any], prefix: str = "") -> List[Tuple[str, Any]]:
    """``overrides`` on a ``kind`` spec as ``(dotted path, value)`` pairs.

    A table value for a nested spec table is one path per entry, so it merges
    into the table it names (``{"config": {"k": 1}}`` is ``config.k = 1``);
    anything else, a component table included, is one value.
    """
    pairs: List[Tuple[str, Any]] = []
    for key, value in overrides.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and _table(kind, path) is not None:
            pairs.extend(_flatten(kind, value, f"{path}."))
        else:
            pairs.append((path, value))
    return pairs


def retired_rows(kind: type = ScenarioSpec, path: str = "") -> Dict[str, Tuple[Any, str, str]]:
    """Every ``RETIRED`` row of ``kind`` and of the spec classes nested in it,
    keyed by its dotted path (``config.use_common_coin``)."""
    rows = {_join(path, key): row for key, row in getattr(kind, "RETIRED", {}).items()}
    for name, nested in _nested_specs(kind).items():
        rows.update(retired_rows(nested, _join(path, name)))
    return rows


def _retired_at(kind: type, key: str, value: Any, path: str) -> bool:
    """:func:`_retired` for a dotted ``key`` of a ``kind`` spec (what a sweep
    point or axis names), asked of the nested spec class that owns its last part."""
    owners, _, last = key.rpartition(".")
    owner = _table(kind, owners) if owners else kind
    return owner is not None and _retired(owner, last, value, path)


def spec_from_dict(data: Any, kind: type = ScenarioSpec, path: str = "") -> Any:
    """Parse a spec of class ``kind`` from a plain (JSON/TOML-shaped) mapping.

    Raises :class:`SpecError` with the dotted path to the offending key on any
    unknown key, wrong type, or invalid value, at any nesting depth; ``path``
    is where ``data`` sits inside an enclosing spec (empty at the top level).
    A retired key is dropped or refused (:func:`_retired`).
    """
    if isinstance(data, kind):
        return data
    if not isinstance(data, Mapping):
        where = "" if path else " at the top level"
        raise SpecError(path, f"expected a table{where}, got {_got(data)}")
    data = {k: v for k, v in data.items() if not _retired(kind, k, v, _join(path, k))}
    codecs = _codecs(kind)
    unknown = set(data) - set(codecs)
    if unknown:
        noun = getattr(kind, "NOUN", kind.__name__)
        raise SpecError(
            _join(path, sorted(unknown)[0]),
            f"unknown {noun} key; expected one of {', '.join(sorted(codecs))}",
        )
    kwargs = {name: codecs[name][0](value, _join(path, name)) for name, value in data.items()}
    try:
        return kind(**kwargs)
    except SpecError as exc:
        # The constructor's own checks name paths relative to the new object.
        raise SpecError(_join(path, exc.path), exc.message) from exc
    except ValueError as exc:
        raise SpecError(path, str(exc)) from exc


def spec_to_dict(spec: Any) -> Dict[str, Any]:
    """Serialize any spec to a plain mapping, keys in field order.

    ``None`` and ``()`` are omitted (TOML has no null, and a spec written
    before a field existed keeps its fingerprint), so the form is TOML-safe.
    """
    data: Dict[str, Any] = {}
    for name, (_read, write) in _codecs(type(spec)).items():
        value = getattr(spec, name)
        if value is not None and value != ():
            data[name] = write(value)
    return data


def spec_fingerprint(spec: Any) -> str:
    """A stable digest of a spec's full canonical form (what journal manifests pin)."""
    return canonical_fingerprint(spec_to_dict(spec))


# --------------------------------------------------------------------- overrides --
def parse_assignments(assignments: Iterable[str]) -> Dict[str, Any]:
    """Parse ``--set key=value`` strings into an override mapping.

    Values are parsed as JSON where possible (``k=2``, ``parallel=true``,
    ``epsilon=0.5``, ``users='["u0000"]'``) and fall back to bare strings
    (``mechanism=standard``).
    """
    overrides: Dict[str, Any] = {}
    for assignment in assignments:
        key, sep, raw = assignment.partition("=")
        key = key.strip()
        if not sep or not key:
            raise SpecError("--set", f"expected key=value, got {assignment!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key] = value
    return overrides


def apply_overrides(
    data: Dict[str, Any], overrides: Mapping[str, Any], kind: type = ScenarioSpec
) -> Dict[str, Any]:
    """Apply dotted-path overrides to a ``kind`` spec mapping, returning a new mapping.

    ``{"config.k": 2}`` sets ``data["config"]["k"] = 2``, creating intermediate
    tables as needed.  A path that traverses a non-table value is an error.
    Component shorthands are normalised first, so ``mechanism.epsilon=0.5``
    works even when the spec says just ``mechanism = "standard"``.

    A table value merges into a nested spec table: ``{"config": {"k": 1}}``
    is ``config.k = 1`` and keeps the other ``config`` keys (:func:`_flatten`).
    A component table (``mechanism``, ``workload``, ``latency``,
    ``topology``) replaces the one it names, since a new ``kind`` takes new
    parameters.
    """
    result = json.loads(json.dumps(data)) if data else {}
    for path, value in _flatten(kind, overrides):
        parts = path.split(".")
        cursor = result
        for i, part in enumerate(parts[:-1]):
            node = cursor.get(part)
            if isinstance(node, str) and part in ("mechanism", "workload", "latency", "topology"):
                node = {"kind": node}
                cursor[part] = node
            elif node is None:
                node = {}
                cursor[part] = node
            elif not isinstance(node, dict):
                prefix = ".".join(parts[: i + 1])
                raise SpecError(prefix, f"cannot override inside non-table value {node!r}")
            cursor = node
        cursor[parts[-1]] = value
    return result


def spec_with_overrides(spec: Any, overrides: Mapping[str, Any]) -> Any:
    """A copy of any spec with dotted-path overrides applied (re-validated).

    One grammar for every kind: ``config.k=2`` on a scenario, ``base.users=30``
    / ``k=2`` / ``recovery.max_retries=5`` on an audit.
    """
    if not overrides:
        return spec
    return spec_from_dict(apply_overrides(spec_to_dict(spec), overrides, type(spec)), type(spec))


# ------------------------------------------------------------------------- sweeps --
def _read_axes(value: Any, path: str) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
    """Axes are a table of value lists in a file, ordered pairs in memory."""
    if not isinstance(value, (Mapping, tuple)):
        raise SpecError(path, f"expected a table, got {_got(value)}")
    axes = []
    for key, values in value.items() if isinstance(value, Mapping) else value:
        if not isinstance(values, (list, tuple)):
            raise SpecError(f"{path}.{key}", f"expected a list of values, got {_got(values)}")
        if not values:
            raise SpecError(f"{path}.{key}", "axis value list may not be empty")
        axes.append((str(key), tuple(values)))
    return tuple(axes)


def _write_axes(axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]) -> Dict[str, List[Any]]:
    return {key: list(values) for key, values in axes}


@dataclass(frozen=True)
class SweepSpec:
    """A grid of scenarios: one base spec plus per-point overrides.

    Exactly one of ``points`` / ``axes`` may be non-empty (an empty sweep runs
    the base spec once).  ``points`` is an explicit, ordered list of override
    mappings (dotted paths); ``axes`` is an ordered mapping of dotted paths to
    value lists, expanded as a cartesian product with the *first* axis varying
    slowest.
    """

    base: ScenarioSpec = field(default_factory=ScenarioSpec)
    name: str = "sweep"
    points: Tuple[Mapping[str, Any], ...] = ()
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = field(
        default=(), metadata={"spec": (_read_axes, _write_axes)}
    )

    NOUN = "sweep"

    def __post_init__(self) -> None:
        check_fields(self)
        # A point names (dotted) base-spec paths, a nested spec table's as
        # one path per entry: a retired one is dropped or refused here, so it
        # never reaches the sweep's canonical form.
        base = type(self.base)
        points = tuple(
            {
                k: v
                for k, v in _flatten(base, point)
                if not _retired_at(base, k, v, f"points[{i}].{k}")
            }
            for i, point in enumerate(self.points)
        )
        object.__setattr__(self, "points", points)
        # So does an axis; one holding only the retired value is dropped
        # whole, and a table value loses its retired entries.
        def settled(key: str, value: Any) -> Any:
            table = _table(base, key) if isinstance(value, dict) else None
            if table is None:
                return value
            return {
                k: v
                for k, v in _flatten(table, value)
                if not _retired_at(table, k, v, f"axes.{key}.{k}")
            }

        axes = tuple(
            (key, tuple(settled(key, value) for value in values))
            for key, values in self.axes
            if not all(_retired_at(base, key, v, f"axes.{key}") for v in values)
        )
        object.__setattr__(self, "axes", axes)
        if self.points and self.axes:
            raise SpecError("points", "a sweep may define 'points' or 'axes', not both")

    def expand(self) -> List[Dict[str, Any]]:
        """The ordered list of per-point override mappings."""
        if self.points:
            return [dict(point) for point in self.points]
        if self.axes:
            keys = [key for key, _ in self.axes]
            products = itertools.product(*(values for _, values in self.axes))
            return [dict(zip(keys, combo)) for combo in products]
        return [{}]

    def scenarios(self) -> List[ScenarioSpec]:
        """One fully-validated :class:`ScenarioSpec` per grid point, in order.

        A point's error names where the point sits: ``points[i].<path>``, or
        ``axes.<path>`` for a grid of axes.
        """
        specs = []
        for i, overrides in enumerate(self.expand()):
            try:
                specs.append(spec_with_overrides(self.base, overrides))
            except SpecError as exc:
                raise SpecError(_join(self.point_path(i), exc.path), exc.message) from exc
        return specs

    def point_path(self, i: int) -> str:
        """Where grid point ``i`` sits: ``points[i]``, ``axes``, or ``""`` (the base alone)."""
        if self.points:
            return f"points[{i}]"
        return "axes" if self.axes else ""

    def with_base_overrides(self, overrides: Mapping[str, Any]) -> "SweepSpec":
        """This sweep with dotted-path overrides applied to its base spec."""
        return dataclasses.replace(self, base=spec_with_overrides(self.base, overrides))
