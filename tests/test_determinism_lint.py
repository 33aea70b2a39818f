"""A static determinism guard over ``src/repro``: no wall clock, no set order.

Every correct provider must output exactly what the trusted auctioneer would,
and the repo pins that bit-identical across engines, schedulers, executors and
``PYTHONHASHSEED`` values.  The differential suites catch a divergence per
seed; this test rules out its two usual sources by reading the source once:

* **RPA001** — a wall-clock read, host entropy, an unseeded RNG constructor or
  a call on the module-level ``random`` / ``numpy.random`` state.
* **RPA002** — iteration over a set expression, whose order follows
  ``PYTHONHASHSEED`` (the ``RoundRobinScheduler`` rotation bug).
* **RPA003** — an exception whose ``__init__`` breaks ``BaseException``
  pickling across the process pool (the ``SpecError`` bug).

RPA001 and RPA002 read the deterministic packages only; ``scenarios/dispatch.py``
is exempt because resolving workers must read the real host.  Compute time
is modelled, so ``src/repro`` has no wall-clock read at all: nothing is
allowlisted.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

DETERMINISTIC_PACKAGES = frozenset(
    {"adversary", "auctions", "community", "consensus", "core", "gametheory",
     "net", "obs", "runtime", "scenarios"}
)
EXEMPT_FILES = frozenset({"scenarios/dispatch.py"})

TAINTED_CALLS = frozenset(
    {"time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
     "time.monotonic", "time.monotonic_ns", "time.process_time", "time.process_time_ns",
     "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
     "datetime.date.today", "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
     "random.SystemRandom"}
)
#: Deterministic exactly when given a seed.
SEEDABLE_CONSTRUCTORS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState",
     "numpy.random.SeedSequence", "numpy.random.PCG64", "numpy.random.MT19937",
     "numpy.random.Philox", "numpy.random.SFC64"}
)
SET_METHODS = frozenset({"intersection", "union", "difference", "symmetric_difference"})
SET_OPERATORS = (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)


class Finding(NamedTuple):
    path: str
    line: int
    scope: str
    code: str
    detail: str


def _scoped(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Every node with the dotted name of the classes and functions around it."""
    stack: List[Tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def _dotted(node: ast.AST) -> Optional[str]:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _imports(tree: ast.AST) -> Dict[str, str]:
    """Local name -> imported origin (``np -> numpy``, ``randint -> random.randint``)."""
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".", 1)[0]
                names[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _tainted(origin: str, call: ast.Call) -> bool:
    if origin in SEEDABLE_CONSTRUCTORS:
        return not call.args and not call.keywords
    return (
        origin in TAINTED_CALLS
        or origin.startswith(("secrets.", "random.", "numpy.random."))
    )


def _unordered(node: ast.AST) -> bool:
    """A set-valued expression: literal, comprehension, constructor, set method or operator."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, SET_OPERATORS):
        # A dict view's operators return sets too; ``dict | dict`` stays ordered.
        return any(
            _unordered(side)
            or isinstance(side, ast.Call) and (_dotted(side.func) or "").endswith((".keys", ".items"))
            for side in (node.left, node.right)
        )
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        return isinstance(func, ast.Attribute) and func.attr in SET_METHODS
    return False


def _iterated(node: ast.AST) -> List[ast.AST]:
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return [comp.iter for comp in node.generators]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate") and node.args):
        return [node.args[0]]
    return []


def _pool_unsafe(cls: ast.ClassDef) -> bool:
    """An exception ``__init__`` whose ``super().__init__`` does not get its parameters.

    ``BaseException.__reduce__`` replays ``type(exc)(*exc.args)``; unless the
    class defines ``__reduce__``, ``args`` must be the parameters, in order.
    """
    if not any((_dotted(base) or "").endswith(("Error", "Exception", "Warning"))
               for base in cls.bases):
        return False
    methods = {item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)}
    init = methods.get("__init__")
    if init is None or "__reduce__" in methods:
        return False
    if init.args.kwonlyargs or init.args.posonlyargs:
        return True
    expected = [arg.arg for arg in init.args.args[1:]]
    if init.args.vararg:
        expected.append(f"*{init.args.vararg.arg}")
    for node in ast.walk(init):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__init__" and isinstance(node.func.value, ast.Call)
                and _dotted(node.func.value.func) == "super"):
            passed = [
                arg.id if isinstance(arg, ast.Name)
                else f"*{arg.value.id}" if isinstance(arg, ast.Starred)
                and isinstance(arg.value, ast.Name) else None
                for arg in node.args
            ]
            return bool(node.keywords) or passed != expected
    return False  # BaseException.__new__ keeps the constructor arguments as args


def deterministic(path: str) -> bool:
    """Whether RPA001/RPA002 read ``path``, a file under ``src/repro``."""
    return path.split("/")[0] in DETERMINISTIC_PACKAGES and path not in EXEMPT_FILES


def lint(source: str, path: str) -> List[Finding]:
    """Every finding in ``source``, read as the file ``path`` under ``src/repro``."""
    tree = ast.parse(source)
    checked = deterministic(path)
    imports = _imports(tree)
    found = []
    for node, scope in _scoped(tree):
        if isinstance(node, ast.ClassDef) and _pool_unsafe(node):
            found.append(Finding(path, node.lineno, scope, "RPA003", node.name))
        if not checked:
            continue
        if isinstance(node, ast.Call):
            head, dot, tail = (_dotted(node.func) or "").partition(".")
            origin = imports.get(head, "") and imports[head] + dot + tail
            if origin and _tainted(origin, node):
                found.append(Finding(path, node.lineno, scope, "RPA001", origin))
        for iterable in _iterated(node):
            if _unordered(iterable):
                found.append(Finding(path, iterable.lineno, scope, "RPA002", ast.unparse(iterable)))
    return sorted(found)


@functools.lru_cache(maxsize=None)
def _sources() -> Dict[str, str]:
    return {path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
            for path in sorted(SRC.rglob("*.py"))}


@functools.lru_cache(maxsize=None)
def _src_findings() -> Dict[str, List[Finding]]:
    return {path: lint(source, path) for path, source in _sources().items()}


def _lint_src(**planted: str) -> List[Finding]:
    """The findings of ``src/repro`` with the ``planted`` files' sources swapped in."""
    found = {**_src_findings(), **{path: lint(source, path) for path, source in planted.items()}}
    return [finding for path in sorted(found) for finding in found[path]]


# ------------------------------------------------------------------- the repo --
def test_the_package_table_matches_src():
    # A new sub-package left out of the table would go unread.
    packages = {path.name for path in SRC.iterdir()
                if path.is_dir() and (path / "__init__.py").exists()}
    assert packages == DETERMINISTIC_PACKAGES
    assert all(path in _sources() for path in EXEMPT_FILES)


def test_src_has_no_finding():
    assert len(_sources()) > 50
    assert _lint_src() == []


FUTURE = "from __future__ import annotations\n"
START_NODE = "        node.on_start(self._contexts[node_id])\n"
CENTRAL_RUN = '        """Execute the auction centrally."""\n'
CENTRAL_INIT = "    def __init__(self, algorithm: AllocationAlgorithm, seed: int = 0) -> None:\n"
STOPWATCH = "        import time\n        time.perf_counter()\n"


def _plant(path: str, anchor: str, line: str) -> str:
    source = _sources()[path]
    assert anchor in source
    return source.replace(anchor, anchor + line, 1)


@pytest.mark.parametrize(
    "path, anchor, line",
    [
        ("net/network.py", START_NODE, STOPWATCH),
        ("net/network.py", START_NODE, "        import time\n        time.time()\n"),
        ("core/framework.py", CENTRAL_RUN, STOPWATCH),
        ("core/framework.py", CENTRAL_INIT, STOPWATCH),
        ("net/channel.py", FUTURE, "import time\nSTAMP = time.perf_counter()\n"),
        ("net/channel.py", FUTURE, "import time\nSTAMP = time.time()\n"),
        ("net/channel.py", FUTURE, "import random\nRNG = random.Random()\n"),
        ("net/channel.py", FUTURE, "import random\nDRAW = random.random()\n"),
        ("net/channel.py", FUTURE, "for x in set('ab') - set('b'):\n    pass\n"),
        ("net/channel.py", FUTURE, "for x in set('ab'):\n    pass\n"),
    ],
)
def test_a_planted_hazard_in_src_fails_it(path, anchor, line):
    found = _lint_src(**{path: _plant(path, anchor, line)})
    assert [finding.path for finding in found] == [path]


def test_the_dispatch_exemption_holds_in_src():
    planted = _plant("scenarios/dispatch.py", FUTURE, "import time\nSTAMP = time.time()\n")
    assert _lint_src(**{"scenarios/dispatch.py": planted}) == []


# ------------------------------------------------------------------ the checks --
DET = "net/fixture.py"
NON_DET = "cli.py"
PROTOCOL_PATHS = ["core/bid_agreement.py", "runtime/auction_run.py",
                  "community/workload.py", "adversary/coalition.py"]

PRE_PR3_SPEC_ERROR = (
    "class PathError(ValueError):\n"
    "    def __init__(self, path, message):\n"
    "        self.path = path\n"
    "        super().__init__(f'{path}: {message}')\n"
)

FIRES = [
    ("import time\n\nx = time.time()\n", DET, ("RPA001", 3)),
    ("import time\n\nx = time.perf_counter()\n", DET, ("RPA001", 3)),
    ("import random\n\nx = random.randint(0, 3)\n", DET, ("RPA001", 3)),
    ("from random import randint\n\nx = randint(0, 3)\n", DET, ("RPA001", 3)),
    ("import random\n\nrng = random.Random()\n", DET, ("RPA001", 3)),
    ("import numpy as np\n\nnp.random.seed(0)\n", DET, ("RPA001", 3)),
    ("import numpy as np\n\nx = np.random.rand(4)\n", DET, ("RPA001", 3)),
    ("import numpy as np\n\nrng = np.random.default_rng()\n", DET, ("RPA001", 3)),
    ("import os\n\nx = os.urandom(8)\n", DET, ("RPA001", 3)),
    ("import uuid\n\nx = uuid.uuid4()\n", DET, ("RPA001", 3)),
    ("import secrets\n\nx = secrets.token_bytes(8)\n", DET, ("RPA001", 3)),
    ("from datetime import datetime\n\nx = datetime.now()\n", DET, ("RPA001", 3)),
    ("import time\n\nx = time.monotonic()\n", DET, ("RPA001", 3)),
    ("import time as clock\n\nx = clock.time_ns()\n", DET, ("RPA001", 3)),
    ("from time import perf_counter as tick\n\nx = tick()\n", DET, ("RPA001", 3)),
    ("import datetime\n\nx = datetime.date.today()\n", DET, ("RPA001", 3)),
    ("import uuid\n\nx = uuid.uuid1()\n", DET, ("RPA001", 3)),
    ("import os\n\nx = os.getrandom(8)\n", DET, ("RPA001", 3)),
    ("import random\n\nrng = random.SystemRandom(7)\n", DET, ("RPA001", 3)),
    ("import random\n\nrandom.shuffle(items)\n", DET, ("RPA001", 3)),
    ("import numpy\n\nseq = numpy.random.SeedSequence()\n", DET, ("RPA001", 3)),
    ("import time\n\nx = time.time()\n", "scenarios/sweep.py", ("RPA001", 3)),
    *[("import time\n\nx = time.perf_counter()\n", path, ("RPA001", 3)) for path in PROTOCOL_PATHS],
    ("for x in {1, 2, 3}:\n    print(x)\n", DET, ("RPA002", 1)),
    ("items = [x for x in {n for n in range(3)}]\n", DET, ("RPA002", 1)),
    ("for x in set([3, 1, 2]):\n    print(x)\n", DET, ("RPA002", 1)),
    ("values = list(frozenset((1, 2)))\n", DET, ("RPA002", 1)),
    ("def f(a, b):\n    for x in a.intersection(b):\n        yield x\n", DET, ("RPA002", 2)),
    ("pairs = list(enumerate(set('ab')))\n", DET, ("RPA002", 1)),
    ("def f(a, b):\n    for x in set(a) - set(b):\n        yield x\n", DET, ("RPA002", 2)),
    ("def f(a, b):\n    return [x for x in set(a) | b]\n", DET, ("RPA002", 2)),
    ("def f(a, b):\n    return tuple(a & frozenset(b))\n", DET, ("RPA002", 2)),
    ("def f(a, b, c):\n    for x in set(a) ^ b ^ c:\n        yield x\n", DET, ("RPA002", 2)),
    ("def f(d, b):\n    for x in d.keys() - b:\n        yield x\n", DET, ("RPA002", 2)),
    ("def f(d, b):\n    return [k for k in d.items() ^ b]\n", DET, ("RPA002", 2)),
    ("def f(a, b):\n    return list(a.union(b))\n", DET, ("RPA002", 2)),
    ("def f(a, b):\n    for x in a.difference(b):\n        yield x\n", DET, ("RPA002", 2)),
    ("def f(a, b):\n    return {k: 1 for k in a.symmetric_difference(b)}\n", DET, ("RPA002", 2)),
    ("total = tuple(x for x in {1, 2})\n", DET, ("RPA002", 1)),
    ("async def f(a):\n    async for x in set(a):\n        yield x\n", DET, ("RPA002", 2)),
    *[("for x in {1, 2}:\n    print(x)\n", path, ("RPA002", 1)) for path in PROTOCOL_PATHS],
    (PRE_PR3_SPEC_ERROR, NON_DET, ("RPA003", 1)),
    (PRE_PR3_SPEC_ERROR, DET, ("RPA003", 1)),
    ("class E(Exception):\n    def __init__(self, *, code):\n        super().__init__(code)\n",
     NON_DET, ("RPA003", 1)),
    ("class E(RuntimeError):\n    def __init__(self, code):\n        super().__init__(code, hint=1)\n",
     NON_DET, ("RPA003", 1)),
    ("class E(ValueError):\n    def __init__(self, a, b):\n        super().__init__(b, a)\n",
     NON_DET, ("RPA003", 1)),
    ("class W(UserWarning):\n    def __init__(self, a):\n        super().__init__(f'{a}')\n",
     NON_DET, ("RPA003", 1)),
]

CLEAN = [
    "import random\n\nrng = random.Random(42)\n",
    "import numpy as np\n\nrng = np.random.default_rng(7)\n",
    "def draw(rng):\n    return rng.random()\n",
    "import random\n\n\ndef f(rng: random.Random) -> None:\n    pass\n",
    "for x in sorted({1, 2, 3}):\n    print(x)\n",
    "values = sorted(set([3, 1, 2]))\n",
    "def f(a, b):\n    return sorted(set(a) - set(b))\n",
    "def f(a, b):\n    if set(a) - set(b):\n        return 1\n",
    "def f(a, b):\n    for k in dict(a) | dict(b):\n        yield k\n",
    "d = {'a': 1}\nfor k in d:\n    print(k)\n",
    "s = {1, 2}\nok = 1 in s\n",
    "total = sum({1, 2, 3})\nbiggest = max(set([1, 2]))\n",
    PRE_PR3_SPEC_ERROR + "\n    def __reduce__(self):\n        return (PathError, (self.path, ''))\n",
    "class SimpleError(ValueError):\n"
    "    def __init__(self, path, message):\n"
    "        super().__init__(path, message)\n",
    "class QuietError(RuntimeError):\n    pass\n",
    "import numpy as np\n\nseq = np.random.SeedSequence(5)\n",
    "import random\n\nrng = random.Random(x=3)\n",
    "import time\n\n\ndef f(t: time.struct_time) -> None:\n    pass\n",
    "def f(a):\n    return len(set(a))\n",
    "def f(a, b):\n    return sorted(a.union(b))\n",
    "class E(ValueError):\n    def __init__(self, a, *rest):\n        super().__init__(a, *rest)\n",
    "class E(ValueError):\n    def __init__(self, a, b):\n        self.a = a\n",
    "class Box(Base):\n    def __init__(self, a, b):\n        super().__init__(f'{a}{b}')\n",
]


@pytest.mark.parametrize("source, path, expected", FIRES)
def test_a_hazard_fires(source, path, expected):
    assert [(finding.code, finding.line) for finding in lint(source, path)] == [expected]


@pytest.mark.parametrize("source", CLEAN)
def test_a_clean_idiom_passes(source):
    assert lint(source, DET) == []


@pytest.mark.parametrize("path", [NON_DET, "scenarios/dispatch.py", "__init__.py"])
def test_outside_the_deterministic_packages_only_rpa003_reads(path):
    source = "import time\n\nx = time.time()\nfor y in {1, 2}:\n    print(y)\n"
    assert lint(source, path) == []


#: Real files of each kind: nested packages inherit, and ``obs`` traces sim time only.
READ = ["auctions/base.py", "auctions/engine/kernel.py", "net/scheduler.py", "net/network.py",
        "consensus/commitment.py", "gametheory/resilience.py", "scenarios/sweep.py", "obs/trace.py",
        "core/framework.py", "core/allocator.py", "core/common_coin.py", *PROTOCOL_PATHS]
NOT_READ = [*EXEMPT_FILES, NON_DET, "common.py", "__init__.py"]


@pytest.mark.parametrize("path", READ + NOT_READ)
def test_which_files_the_determinism_checks_read(path):
    assert path in _sources()
    assert deterministic(path) is (path in READ)
