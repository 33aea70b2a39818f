"""The determinism & contract linter as a library: rules, reports, extension.

Part 1 — lint source snippets in memory: the same engine behind ``repro-auction
lint``, pointed at fixture strings under virtual paths, showing a finding from
each determinism rule and the line-scoped ``# repro: noqa[RPAxxx]`` override.

Part 2 — the extension contract: add a project-local rule class to the
``RULES`` mapping under its code and watch it run with no further plumbing,
then remove it.

Part 3 — lint the repo itself, exactly like the CI ``lint`` job and the
self-check test: zero unsuppressed findings is the contract.

Run with::

    python examples/lint_repo.py
"""

from pathlib import Path

from repro.analysis import Finding, RULES, Rule, lint_paths, lint_source, render_text

REPO_ROOT = Path(__file__).resolve().parents[1]


def part_one_rules_and_noqa() -> None:
    tainted = (
        "import time\n"
        "import random\n"
        "\n"
        "def jitter():\n"
        "    return time.time() + random.random()\n"
    )
    # The virtual path puts the snippet inside a deterministic package, where
    # the RPA001/RPA002 rules apply (see DESIGN.md for the taint-path table).
    report = lint_source(tainted, "src/repro/net/demo.py")
    print("two wall-clock/RNG findings:")
    print(render_text(report))

    suppressed = (
        "import time\n"
        "\n"
        "start = time.time()  # repro: noqa[RPA001] demo wall-clock field\n"
    )
    report = lint_source(suppressed, "src/repro/net/demo.py")
    print("\nsuppressed on the line, counted in the report:")
    print(render_text(report))


def part_two_custom_rule() -> None:
    class TodoBanRule(Rule):
        code = "RPA900"
        name = "todo-ban"
        summary = "demo rule: no FIXME markers in deterministic paths"

        def check(self, module):
            for lineno, line in enumerate(module.source.splitlines(), start=1):
                if "FIXME" in line:
                    yield Finding(
                        path=module.display_path, line=lineno, col=0,
                        code=self.code, message="FIXME marker left in source",
                    )

    RULES[TodoBanRule.code] = TodoBanRule
    try:
        report = lint_source("x = 1  # FIXME tune\n", select=["RPA900"])
        print("\ncustom rule, added to RULES under its code:")
        print(render_text(report))
    finally:
        del RULES[TodoBanRule.code]


def part_three_lint_the_repo() -> None:
    trees = [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]
    report = lint_paths([tree for tree in trees if tree.is_dir()])
    print("\nthe repo's own contract (the CI lint job and the self-check test):")
    print(render_text(report))
    if not report.clean:
        raise SystemExit(1)


if __name__ == "__main__":
    part_one_rules_and_noqa()
    part_two_custom_rule()
    part_three_lint_the_repo()
