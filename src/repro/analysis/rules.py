"""The RPA rule set: determinism & contract rules over Python ASTs.

Rules are listed in :data:`RULES`, a plain ``{code: rule class}`` mapping: a
class added there is reachable from the engine, ``--select``, the self-check
test and CI with no new plumbing.  A rule has ``code``/``name``/``summary``
attributes and a ``check(module)`` method yielding :class:`Finding`\\ s.

The shipped rules, and the runtime bug class each one pins down statically:

==========  ====================================================================
code        what it catches
==========  ====================================================================
RPA001      nondeterministic call (wall clock, global RNG, host entropy) in a
            deterministic path — the bit-identity guarantee's failure mode
RPA002      iteration over an unordered collection in a deterministic path —
            the PR 4 ``RoundRobinScheduler`` PYTHONHASHSEED bug class
RPA003      exception class whose constructor breaks ``BaseException`` pickling
            — the PR 3 ``SpecError``-across-the-process-pool bug class
RPA005      ``*Spec`` class that is not a frozen dataclass with typed fields —
            the registry/spec-file contract
==========  ====================================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.analysis.findings import Finding
from repro.analysis.paths import PathClass

__all__ = ["RULES", "Rule", "SourceModule"]


@dataclass(frozen=True)
class SourceModule:
    """One parsed file handed to every rule: source text, AST and path class."""

    path_class: PathClass
    source: str
    tree: ast.Module

    @property
    def display_path(self) -> str:
        return self.path_class.display_path


class Rule:
    """Base class: subclasses set the class attributes and implement ``check``."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def check(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


# ------------------------------------------------------------ shared helpers --
def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin, for every module/name import in the file.

    ``import numpy as np`` maps ``np -> numpy``; ``import numpy.random`` maps
    ``numpy -> numpy`` (attribute access supplies the rest); ``from random
    import randint`` maps ``randint -> random.randint``.  Relative imports are
    ignored — the taint table only names stdlib/numpy origins.
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    mapping[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def _dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ``("a", "b", "c")`` for pure Name/Attribute chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


def _resolve_call_origin(func: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """The imported dotted origin of a called name, or None if not import-rooted."""
    parts = _dotted_name(func)
    if parts is None:
        return None
    origin = imports.get(parts[0])
    if origin is None:
        return None
    return ".".join((origin,) + parts[1:])


# ------------------------------------------------------------------- RPA001 --
#: Calls that are nondeterministic, full stop.
_TAINTED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)

#: Module prefixes where *every* call is host entropy.
_TAINTED_PREFIXES = ("secrets.",)

#: Seedable RNG constructors: deterministic exactly when given a seed argument.
_SEEDABLE_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.MT19937",
        "numpy.random.Philox",
        "numpy.random.SFC64",
    }
)


class DeterminismTaintRule(Rule):
    """RPA001: wall clock, global RNG state or host entropy in a deterministic path."""

    code = "RPA001"
    name = "determinism-tainted-call"
    summary = (
        "no wall-clock, module-level RNG or host-entropy calls in deterministic paths"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.path_class.deterministic:
            return
        imports = _import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = _resolve_call_origin(node.func, imports)
            if origin is None:
                continue
            reason = self._taint_reason(origin, node)
            if reason is not None:
                yield self.finding(module, node, reason)

    @staticmethod
    def _taint_reason(origin: str, call: ast.Call) -> Optional[str]:
        if origin in _TAINTED_CALLS:
            return (
                f"call to {origin}() is nondeterministic; deterministic paths "
                f"must derive every value from the scenario seed"
            )
        if origin.startswith(_TAINTED_PREFIXES):
            return f"call to {origin}() draws host entropy in a deterministic path"
        if origin in _SEEDABLE_CONSTRUCTORS:
            if not call.args and not call.keywords:
                return (
                    f"{origin}() without a seed falls back to OS entropy; pass an "
                    f"explicit seed derived from the scenario seed"
                )
            return None
        if origin.startswith("random."):
            return (
                f"call to {origin}() uses the module-level RNG, whose state is "
                f"process-global; use a seeded random.Random instance instead"
            )
        if origin.startswith("numpy.random."):
            return (
                f"call to {origin}() mutates numpy's global RNG state; use a "
                f"seeded Generator/RandomState instance instead"
            )
        return None


# ------------------------------------------------------------------- RPA002 --
_SET_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)
#: Wrappers that materialise their argument's iteration order.
_ORDER_MATERIALISERS = frozenset({"list", "tuple", "enumerate"})


class UnorderedIterationRule(Rule):
    """RPA002: iterating an unordered collection in a deterministic path."""

    code = "RPA002"
    name = "unordered-iteration"
    summary = "no iteration over sets/unordered views in deterministic paths"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.path_class.deterministic:
            return
        for node in ast.walk(module.tree):
            iterables: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables.extend(comp.iter for comp in node.generators)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_MATERIALISERS
                    and node.args
                ):
                    iterables.append(node.args[0])
            for iterable in iterables:
                label = self._unordered_label(iterable)
                if label is not None:
                    yield self.finding(
                        module,
                        iterable,
                        f"iteration over {label} has no deterministic order "
                        f"(PYTHONHASHSEED-dependent); sort it or use an "
                        f"insertion-ordered structure",
                    )

    @staticmethod
    def _unordered_label(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"{func.id}(...)"
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                return f".{func.attr}(...)"
        return None


# ------------------------------------------------------------------- RPA003 --
_EXCEPTION_BASE_SUFFIXES = ("Error", "Exception", "Warning")


def _is_exception_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        parts = _dotted_name(base)
        if parts is None:
            continue
        leaf = parts[-1]
        if leaf == "BaseException" or leaf.endswith(_EXCEPTION_BASE_SUFFIXES):
            return True
    return False


class PoolSafeExceptionRule(Rule):
    """RPA003: exception ``__init__`` that breaks BaseException pickling.

    ``BaseException.__reduce__`` replays ``type(exc)(*exc.args)``, and ``args``
    is whatever reached ``BaseException.__init__``.  A subclass whose
    ``__init__`` forwards anything *other than its own parameters, in order*
    (e.g. one pre-formatted string built from two parameters — the pre-PR-3
    ``SpecError``) therefore unpickles with the wrong arity on the far side of
    a process pool.  Such classes must define ``__reduce__`` explicitly.
    """

    code = "RPA003"
    name = "pool-unsafe-exception"
    summary = "exception constructors must survive pickling across the process pool"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or not _is_exception_class(node):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            init = methods.get("__init__")
            if init is None or "__reduce__" in methods:
                continue
            if not self._mirrors_parameters(init):
                yield self.finding(
                    module,
                    init,
                    f"exception class {node.name!r} defines __init__ without "
                    f"__reduce__, and its super().__init__ call does not mirror "
                    f"the parameters — it will not survive pickling across the "
                    f"process pool (BaseException replays __init__(*self.args))",
                )

    @staticmethod
    def _mirrors_parameters(init: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
        """True when ``super().__init__`` receives exactly the init parameters."""
        params = [arg.arg for arg in init.args.args[1:]]  # drop self
        vararg = init.args.vararg.arg if init.args.vararg else None
        if init.args.kwonlyargs or init.args.posonlyargs:
            return False
        for node in ast.walk(init):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            ):
                continue
            if node.keywords:
                return False
            expected: List[str] = list(params)
            passed: List[Optional[str]] = []
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    passed.append(arg.id)
                elif isinstance(arg, ast.Starred) and isinstance(arg.value, ast.Name):
                    passed.append(f"*{arg.value.id}")
                else:
                    return False
            if vararg is not None:
                expected.append(f"*{vararg}")
            return passed == expected
        # No super().__init__ at all: BaseException.__new__ still captures the
        # constructor arguments as args, so the replay arity matches.
        return True


# ------------------------------------------------------------------- RPA005 --
class FrozenSpecRule(Rule):
    """RPA005: every ``*Spec`` class is a ``frozen=True`` dataclass, fields typed."""

    code = "RPA005"
    name = "spec-contract"
    summary = "*Spec classes must be frozen dataclasses with typed fields"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or not node.name.endswith("Spec"):
                continue
            frozen = self._frozen_dataclass_state(node)
            if frozen is None:
                yield self.finding(
                    module,
                    node,
                    f"spec class {node.name!r} is not a dataclass; spec trees "
                    f"must be @dataclass(frozen=True) so specs stay pure data "
                    f"with value semantics",
                )
            elif frozen is False:
                yield self.finding(
                    module,
                    node,
                    f"spec class {node.name!r} is a mutable dataclass; declare "
                    f"@dataclass(frozen=True) so shared specs cannot drift "
                    f"between workers",
                )
            for item in node.body:
                if isinstance(item, ast.Assign):
                    for target in item.targets:
                        if (
                            isinstance(target, ast.Name)
                            and not target.id.startswith("_")
                            and not target.id.isupper()
                        ):
                            yield self.finding(
                                module,
                                item,
                                f"untyped assignment {target.id!r} in spec class "
                                f"{node.name!r} is silently NOT a dataclass "
                                f"field; add a type annotation",
                            )

    @staticmethod
    def _frozen_dataclass_state(node: ast.ClassDef) -> Optional[bool]:
        """None: not a dataclass.  True/False: dataclass, frozen or not."""
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            parts = _dotted_name(target)
            if parts is None or parts[-1] != "dataclass":
                continue
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if keyword.arg == "frozen":
                        return (
                            isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        )
            return False
        return None


# --------------------------------------------------------------------- rules --
#: Rule classes by stable code: the code list ``--select`` checks against.
RULES: Dict[str, Type[Rule]] = {
    rule.code: rule
    for rule in (
        DeterminismTaintRule,
        UnorderedIterationRule,
        PoolSafeExceptionRule,
        FrozenSpecRule,
    )
}
