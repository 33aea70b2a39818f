"""Per-rule fixtures: every RPA rule fires on seeded-bad code and stays quiet on good.

Each rule gets at least one *failing* fixture (the finding's code and line are
asserted, not just "something was found") and one *clean* fixture exercising
the nearest legitimate idiom — the pattern the rule must NOT confuse with the
bug class.  Plus: the ``# repro: noqa[RPAxxx]`` suppression contract and the
JSON report schema.
"""

import json

import pytest

from repro.analysis import (
    REPORT_VERSION,
    RULES,
    lint_source,
    report_to_dict,
    select_rules,
)
from repro.scenarios.spec import SpecError

#: A virtual path inside a deterministic package (RPA001/RPA002 apply here).
DET_PATH = "src/repro/net/fixture.py"
#: A virtual path outside the deterministic packages.
CORE_PATH = "src/repro/core/fixture.py"


def codes_at(report):
    return [(finding.code, finding.line) for finding in report.findings]


# ---------------------------------------------------------------------- RPA001 --
class TestDeterminismTaint:
    @pytest.mark.parametrize(
        "snippet, line",
        [
            ("import time\n\nx = time.time()\n", 3),
            ("import time\n\nx = time.perf_counter()\n", 3),
            ("import random\n\nx = random.randint(0, 3)\n", 3),
            ("from random import randint\n\nx = randint(0, 3)\n", 3),
            ("import random\n\nrng = random.Random()\n", 3),
            ("import numpy as np\n\nnp.random.seed(0)\n", 3),
            ("import numpy as np\n\nx = np.random.rand(4)\n", 3),
            ("import numpy as np\n\nrng = np.random.default_rng()\n", 3),
            ("import os\n\nx = os.urandom(8)\n", 3),
            ("import uuid\n\nx = uuid.uuid4()\n", 3),
            ("import secrets\n\nx = secrets.token_bytes(8)\n", 3),
            ("from datetime import datetime\n\nx = datetime.now()\n", 3),
        ],
    )
    def test_tainted_calls_fire(self, snippet, line):
        report = lint_source(snippet, DET_PATH, select=["RPA001"])
        assert codes_at(report) == [("RPA001", line)]

    @pytest.mark.parametrize(
        "snippet",
        [
            # seeded RNG construction is the blessed idiom
            "import random\n\nrng = random.Random(42)\n",
            "import numpy as np\n\nrng = np.random.default_rng(7)\n",
            # instance methods on a passed-in rng are invisible to the rule
            "def draw(rng):\n    return rng.random()\n",
            # annotations mention random.Random without calling it
            "import random\n\n\ndef f(rng: random.Random) -> None:\n    pass\n",
        ],
    )
    def test_clean_idioms(self, snippet):
        assert lint_source(snippet, DET_PATH, select=["RPA001"]).clean

    def test_outside_deterministic_paths_not_flagged(self):
        snippet = "import time\n\nx = time.time()\n"
        assert lint_source(snippet, CORE_PATH, select=["RPA001"]).clean

    def test_dispatch_py_is_exempt(self):
        snippet = "import time\n\nx = time.time()\n"
        path = "src/repro/scenarios/dispatch.py"
        assert lint_source(snippet, path, select=["RPA001"]).clean
        sibling = "src/repro/scenarios/sweep.py"
        assert not lint_source(snippet, sibling, select=["RPA001"]).clean


# ---------------------------------------------------------------------- RPA002 --
class TestUnorderedIteration:
    @pytest.mark.parametrize(
        "snippet, line",
        [
            ("for x in {1, 2, 3}:\n    print(x)\n", 1),
            ("items = [x for x in {n for n in range(3)}]\n", 1),
            ("for x in set([3, 1, 2]):\n    print(x)\n", 1),
            ("values = list(frozenset((1, 2)))\n", 1),
            ("def f(a, b):\n    for x in a.intersection(b):\n        yield x\n", 2),
            ("pairs = list(enumerate(set('ab')))\n", 1),
        ],
    )
    def test_unordered_iteration_fires(self, snippet, line):
        report = lint_source(snippet, DET_PATH, select=["RPA002"])
        assert ("RPA002", line) in codes_at(report)

    @pytest.mark.parametrize(
        "snippet",
        [
            # sorting restores determinism
            "for x in sorted({1, 2, 3}):\n    print(x)\n",
            "values = sorted(set([3, 1, 2]))\n",
            # dicts are insertion-ordered; membership tests are order-free
            "d = {'a': 1}\nfor k in d:\n    print(k)\n",
            "s = {1, 2}\nok = 1 in s\n",
            # order-independent reductions over sets are fine
            "total = sum({1, 2, 3})\nbiggest = max(set([1, 2]))\n",
        ],
    )
    def test_clean_idioms(self, snippet):
        assert lint_source(snippet, DET_PATH, select=["RPA002"]).clean

    def test_outside_deterministic_paths_not_flagged(self):
        snippet = "for x in {1, 2}:\n    print(x)\n"
        assert lint_source(snippet, CORE_PATH, select=["RPA002"]).clean


# ---------------------------------------------------------------------- RPA003 --
BAD_EXCEPTION = '''\
class PathError(ValueError):
    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
'''

GOOD_EXCEPTION_REDUCE = '''\
class PathError(ValueError):
    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")

    def __reduce__(self):
        return (PathError, (self.path, self.message))
'''

GOOD_EXCEPTION_MIRROR = '''\
class SimpleError(ValueError):
    def __init__(self, path, message):
        super().__init__(path, message)
        self.path = path
'''


class TestPoolSafeException:
    def test_pre_pr3_specerror_shape_fires(self):
        # The exact PR 3 bug class: args holds one formatted string, __init__
        # expects two parameters — unpickling in the pool explodes.
        report = lint_source(BAD_EXCEPTION, CORE_PATH, select=["RPA003"])
        assert codes_at(report) == [("RPA003", 2)]

    def test_reduce_makes_it_safe(self):
        assert lint_source(GOOD_EXCEPTION_REDUCE, CORE_PATH, select=["RPA003"]).clean

    def test_parameter_mirroring_super_call_is_safe(self):
        assert lint_source(GOOD_EXCEPTION_MIRROR, CORE_PATH, select=["RPA003"]).clean

    def test_trivial_exception_is_safe(self):
        snippet = "class QuietError(RuntimeError):\n    pass\n"
        assert lint_source(snippet, CORE_PATH, select=["RPA003"]).clean

    def test_applies_everywhere_not_just_deterministic_paths(self):
        assert not lint_source(BAD_EXCEPTION, CORE_PATH, select=["RPA003"]).clean


# ---------------------------------------------------------------------- RPA004 --
class TestPicklableSubmission:
    def test_lambda_submission_fires(self):
        snippet = "def run(pool, data):\n    return pool.submit(lambda: data)\n"
        report = lint_source(snippet, CORE_PATH, select=["RPA004"])
        assert codes_at(report) == [("RPA004", 2)]

    def test_nested_def_submission_fires(self):
        snippet = (
            "def run(pool, data):\n"
            "    def work():\n"
            "        return data\n"
            "    return pool.submit(work)\n"
        )
        report = lint_source(snippet, CORE_PATH, select=["RPA004"])
        assert codes_at(report) == [("RPA004", 4)]

    def test_lambda_inside_partial_fires(self):
        snippet = (
            "import functools\n"
            "def run(backend, chunks, n):\n"
            "    worker = None\n"
            "    return backend.execute(chunks, functools.partial(lambda c: c), n)\n"
        )
        report = lint_source(snippet, CORE_PATH, select=["RPA004"])
        assert codes_at(report) == [("RPA004", 4)]

    def test_module_level_callable_is_clean(self):
        snippet = (
            "import functools\n"
            "def work(chunk):\n"
            "    return chunk\n"
            "def run(pool, backend, chunks, n):\n"
            "    pool.submit(work, chunks[0])\n"
            "    return backend.execute(chunks, functools.partial(work), n)\n"
        )
        assert lint_source(snippet, CORE_PATH, select=["RPA004"]).clean

    def test_unrelated_execute_is_clean(self):
        snippet = "def q(cursor):\n    cursor.execute('SELECT 1', ())\n"
        assert lint_source(snippet, CORE_PATH, select=["RPA004"]).clean


# ---------------------------------------------------------------------- RPA005 --
class TestFrozenSpec:
    def test_unfrozen_dataclass_spec_fires(self):
        snippet = (
            "from dataclasses import dataclass\n\n\n"
            "@dataclass\n"
            "class ShardSpec:\n"
            "    shards: int = 1\n"
        )
        report = lint_source(snippet, CORE_PATH, select=["RPA005"])
        assert codes_at(report) == [("RPA005", 5)]

    def test_non_dataclass_spec_fires(self):
        snippet = "class ShardSpec:\n    shards = 1\n"
        report = lint_source(snippet, CORE_PATH, select=["RPA005"])
        assert ("RPA005", 1) in codes_at(report)

    def test_untyped_field_fires(self):
        snippet = (
            "from dataclasses import dataclass\n\n\n"
            "@dataclass(frozen=True)\n"
            "class ShardSpec:\n"
            "    shards: int = 1\n"
            "    replicas = 2\n"
        )
        report = lint_source(snippet, CORE_PATH, select=["RPA005"])
        assert codes_at(report) == [("RPA005", 7)]

    def test_frozen_typed_spec_is_clean(self):
        snippet = (
            "from dataclasses import dataclass\n"
            "from typing import ClassVar\n\n\n"
            "@dataclass(frozen=True)\n"
            "class ShardSpec:\n"
            "    KINDS: ClassVar[tuple] = ('a',)\n"
            "    shards: int = 1\n"
        )
        assert lint_source(snippet, CORE_PATH, select=["RPA005"]).clean

    def test_non_spec_class_untouched(self):
        snippet = "class Mutable:\n    pass\n"
        assert lint_source(snippet, CORE_PATH, select=["RPA005"]).clean


# ---------------------------------------------------------------------- RPA009 --
UNBOUNDED_RETRY = """\
def fetch(op):
    while True:
        try:
            return op()
        except OSError:
            continue
"""

SLEEPING_RETRY = """\
import time


def fetch(op):
    for attempt in range(3):
        try:
            return op()
        except OSError:
            time.sleep(0.1 * attempt)
"""

DYNAMIC_BOUND_RETRY = """\
def fetch(op, attempts):
    for attempt in range(attempts):
        try:
            return op()
        except OSError:
            continue
"""

LITERAL_BOUND_RETRY = """\
def fetch(op):
    for attempt in range(3):
        try:
            return op()
        except OSError:
            continue
    raise TimeoutError
"""

CONSTANT_BOUND_RETRY = """\
MAX_RETRIES = 4


def fetch(op):
    for attempt in range(MAX_RETRIES):
        try:
            return op()
        except OSError:
            continue
    raise TimeoutError
"""


class TestBoundedRetry:
    def test_while_true_retry_fires(self):
        report = lint_source(UNBOUNDED_RETRY, DET_PATH, select=["RPA009"])
        assert codes_at(report) == [("RPA009", 2)]

    def test_sleep_inside_loop_fires(self):
        report = lint_source(SLEEPING_RETRY, DET_PATH, select=["RPA009"])
        assert codes_at(report) == [("RPA009", 9)]

    def test_dynamic_bound_fires(self):
        report = lint_source(DYNAMIC_BOUND_RETRY, DET_PATH, select=["RPA009"])
        assert codes_at(report) == [("RPA009", 2)]

    def test_literal_bound_is_clean(self):
        assert lint_source(LITERAL_BOUND_RETRY, DET_PATH, select=["RPA009"]).clean

    def test_module_constant_bound_is_clean(self):
        assert lint_source(CONSTANT_BOUND_RETRY, DET_PATH, select=["RPA009"]).clean

    def test_dynamic_exit_condition_is_out_of_scope(self):
        # `while not done` is the protocol's own progress argument, not a
        # retry bound — the transport's poll loop must stay clean.
        snippet = (
            "def drain(mailbox, node):\n"
            "    while not node.finished:\n"
            "        try:\n"
            "            node.on_message(mailbox.get())\n"
            "        except KeyError:\n"
            "            continue\n"
        )
        assert lint_source(snippet, DET_PATH, select=["RPA009"]).clean

    def test_handler_that_raises_is_not_a_retry(self):
        snippet = (
            "def run_all(cells, op):\n"
            "    while True:\n"
            "        try:\n"
            "            return op(cells)\n"
            "        except OSError as exc:\n"
            "            raise RuntimeError('fatal') from exc\n"
        )
        assert lint_source(snippet, DET_PATH, select=["RPA009"]).clean

    def test_iterating_real_items_is_clean(self):
        snippet = (
            "def parse(lines):\n"
            "    out = []\n"
            "    for line in lines:\n"
            "        try:\n"
            "            out.append(int(line))\n"
            "        except ValueError:\n"
            "            continue\n"
            "    return out\n"
        )
        assert lint_source(snippet, DET_PATH, select=["RPA009"]).clean

    def test_nested_bounded_loop_does_not_taint_outer(self):
        # the try lives in the (bounded) inner loop; the outer `while True`
        # has no retry handler of its own.
        snippet = (
            "def pump(queue, op):\n"
            "    while True:\n"
            "        item = queue.pop()\n"
            "        if item is None:\n"
            "            break\n"
            "        for attempt in range(2):\n"
            "            try:\n"
            "                op(item)\n"
            "                break\n"
            "            except OSError:\n"
            "                continue\n"
        )
        assert lint_source(snippet, DET_PATH, select=["RPA009"]).clean

    def test_sleep_outside_loops_is_out_of_scope(self):
        snippet = "import time\n\n\ndef nap():\n    time.sleep(1.0)\n"
        assert lint_source(snippet, DET_PATH, select=["RPA009"]).clean

    def test_outside_deterministic_paths_not_flagged(self):
        assert lint_source(UNBOUNDED_RETRY, CORE_PATH, select=["RPA009"]).clean
        assert lint_source(SLEEPING_RETRY, CORE_PATH, select=["RPA009"]).clean


# ---------------------------------------------------------------- suppression --
class TestNoqaSuppression:
    def test_line_scoped_code_scoped_suppression(self):
        snippet = (
            "import time\n\n"
            "a = time.time()  # repro: noqa[RPA001] wall-clock field, journaled as-is\n"
            "b = time.time()\n"
        )
        report = lint_source(snippet, DET_PATH, select=["RPA001"])
        assert codes_at(report) == [("RPA001", 4)]
        assert report.suppressed == 1

    def test_wrong_code_does_not_suppress(self):
        snippet = "import time\n\na = time.time()  # repro: noqa[RPA002] wrong code\n"
        report = lint_source(snippet, DET_PATH, select=["RPA001"])
        assert codes_at(report) == [("RPA001", 3)]
        assert report.suppressed == 0

    def test_bare_noqa_without_codes_is_ignored(self):
        snippet = "import time\n\na = time.time()  # repro: noqa\n"
        report = lint_source(snippet, DET_PATH, select=["RPA001"])
        assert codes_at(report) == [("RPA001", 3)]

    def test_multi_code_suppression(self):
        snippet = (
            "import time\n\n"
            "a = list(set(str(time.time())))  # repro: noqa[RPA001, RPA002] fixture\n"
        )
        report = lint_source(snippet, DET_PATH, select=["RPA001", "RPA002"])
        assert report.clean
        assert report.suppressed == 2


# --------------------------------------------------------------- JSON schema --
class TestJsonReportSchema:
    def test_schema_fields_and_types(self):
        snippet = (
            "import time\n\n"
            "a = time.time()\n"
            "b = time.time()  # repro: noqa[RPA001] fixture\n"
        )
        report = lint_source(snippet, DET_PATH)
        document = report_to_dict(report)
        # stable envelope
        assert document["version"] == REPORT_VERSION
        assert document["tool"] == "repro-lint"
        assert document["rules"] == list(RULES.available())
        assert document["files_checked"] == 1
        assert document["suppressed"] == 1
        assert isinstance(document["summary"], str)
        assert document["counts"] == {"RPA001": 1}
        (finding,) = document["findings"]
        assert set(finding) == {"code", "path", "line", "col", "message"}
        assert finding["code"] == "RPA001"
        assert finding["path"] == DET_PATH
        assert isinstance(finding["line"], int) and isinstance(finding["col"], int)
        # byte-stable: rendering twice gives identical documents
        from repro.analysis import render_json

        assert render_json(report) == render_json(report)
        json.loads(render_json(report))


# ------------------------------------------------------------------ selection --
class TestSelection:
    def test_unknown_code_is_path_precise(self):
        with pytest.raises(SpecError) as excinfo:
            select_rules(["RPA001", "RPA999"])
        assert excinfo.value.path == "--select[1]"
        assert "RPA999" in str(excinfo.value)
        assert "available" in str(excinfo.value)

    def test_comma_separated_and_case_insensitive(self):
        rules = select_rules(["rpa001,RPA004"])
        assert [rule.code for rule in rules] == ["RPA001", "RPA004"]

    def test_empty_selection_rejected(self):
        with pytest.raises(SpecError):
            select_rules([","])

    def test_registry_shape(self):
        # RULES is a scenario-style registry: stable sorted codes, membership.
        assert RULES.available() == sorted(RULES.available())
        assert "RPA001" in RULES and "RPA999" not in RULES
