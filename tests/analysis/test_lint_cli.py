"""The ``repro-auction lint`` front door: flags, formats and the exit contract.

Exit status is part of the interface (CI branches on it): 0 clean, 1 findings,
2 the lint run itself failed (unknown ``--select`` code, missing path,
unparseable file).
"""

import json

import pytest

from repro.cli import build_parser, main

CLEAN = "import random\n\nrng = random.Random(7)\n"
TAINTED = "import time\n\nx = time.time()\n"


@pytest.fixture()
def det_tree(tmp_path, monkeypatch):
    """A tmp repo-shaped tree with one deterministic-path module; cwd inside."""
    package = tmp_path / "src" / "repro" / "net"
    package.mkdir(parents=True)
    monkeypatch.chdir(tmp_path)

    def write(body: str):
        (package / "fixture.py").write_text(body)
        return package / "fixture.py"

    return write


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"
        assert args.paths == [] and args.format == "text" and args.select == []

    def test_flags(self):
        args = build_parser().parse_args(
            ["lint", "src", "--format", "json", "--select", "RPA001,RPA002",
             "--select", "RPA007"]
        )
        assert args.paths == ["src"]
        assert args.format == "json"
        assert args.select == ["RPA001,RPA002", "RPA007"]

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--format", "yaml"])


class TestExitContract:
    def test_clean_tree_exits_0(self, det_tree, capsys):
        det_tree(CLEAN)
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_1(self, det_tree, capsys):
        det_tree(TAINTED)
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "RPA001" in out and "fixture.py:3" in out

    # RPA004 and RPA009 are deleted rules: their ids must not resolve either.
    @pytest.mark.parametrize("code", ["RPA999", "RPA004", "RPA009"])
    def test_unknown_select_code_exits_2_with_path(self, det_tree, capsys, code):
        det_tree(CLEAN)
        assert main(["lint", "--select", f"RPA001,{code}"]) == 2
        err = capsys.readouterr().err
        assert "--select[0]" in err and code in err and "available" in err

    def test_missing_path_exits_2(self, det_tree, capsys):
        det_tree(CLEAN)
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_syntax_error_exits_2_naming_the_file(self, det_tree, capsys):
        det_tree("def broken(:\n")
        assert main(["lint"]) == 2
        err = capsys.readouterr().err
        assert "fixture.py" in err and "cannot parse" in err

    def test_no_paths_and_no_default_dirs_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["lint"]) == 2
        assert "name paths to lint" in capsys.readouterr().err


class TestFormats:
    def test_json_document(self, det_tree, capsys):
        det_tree(TAINTED)
        assert main(["lint", "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["counts"] == {"RPA001": 1}
        (finding,) = document["findings"]
        assert finding["code"] == "RPA001" and finding["line"] == 3

    def test_select_narrows_the_run(self, det_tree, capsys):
        det_tree(TAINTED)
        # RPA002 alone does not see the wall-clock call
        assert main(["lint", "--select", "RPA002"]) == 0
        assert "rules RPA002" in capsys.readouterr().out

    def test_explicit_file_argument(self, det_tree, capsys):
        path = det_tree(TAINTED)
        assert main(["lint", str(path), "--select", "RPA001"]) == 1
        assert "RPA001" in capsys.readouterr().out

    def test_suppressed_count_reported(self, det_tree, capsys):
        det_tree(
            "import time\n\n"
            "x = time.time()  # repro: noqa[RPA001] fixture timing field\n"
        )
        assert main(["lint"]) == 0
        assert "1 suppressed" in capsys.readouterr().out
