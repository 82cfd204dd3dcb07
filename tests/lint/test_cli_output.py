"""Renderers, CLI exit codes, and the repo-wide clean gate."""

import json
import time
from pathlib import Path

import pytest

import repro.analysis.lint as lint_pkg
from repro.analysis.lint import (
    RULES,
    Violation,
    lint_files,
    lint_repo,
    render_json,
    render_sarif,
    render_text,
)
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]

D1_BAD = (
    "class DurableIndex:\n"
    "    def insert(self, key, tid):\n"
    "        return self.inner.insert(key, tid)\n"
)


def make_repo(tmp_path):
    bad = tmp_path / "src" / "repro" / "persist" / "durable.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(D1_BAD)
    return tmp_path


def sample():
    return [
        Violation("D1", "durability-ordering", "src/a.py", 3, "boom"),
        Violation("U1", "suppression", "src/b.py", 9, "stale"),
    ]


class TestRenderers:
    def test_text_lines_and_count(self):
        out = render_text(sample())
        assert "src/a.py:3: [D1 durability-ordering] boom" in out
        assert out.rstrip().endswith("reprolint: 2 findings")

    def test_text_singular_count(self):
        assert render_text(sample()[:1]).rstrip().endswith("1 finding")

    def test_json_payload(self):
        doc = json.loads(render_json(sample()))
        assert [f["rule"] for f in doc["findings"]] == ["D1", "U1"]
        assert doc["findings"][0] == {
            "rule": "D1", "category": "durability-ordering",
            "path": "src/a.py", "line": 3, "message": "boom",
        }

    def test_sarif_structure(self):
        doc = json.loads(render_sarif(sample()))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        assert {r["id"] for r in driver["rules"]} == set(RULES)
        d1, u1 = run["results"]
        assert d1["level"] == "error"
        assert u1["level"] == "warning"  # hygiene findings are advisory
        loc = d1["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/a.py"
        assert loc["region"]["startLine"] == 3


class TestOrdering:
    def test_findings_sorted_by_path_line_rule(self, tmp_path):
        root = make_repo(tmp_path)
        other = root / "src" / "repro" / "persist" / "apply.py"
        other.write_text(D1_BAD)
        vs = lint_files(
            [root / "src/repro/persist/durable.py", other], root)
        keys = [(v.path, v.line, v.rule) for v in vs]
        assert keys == sorted(keys)
        assert vs[0].path.endswith("apply.py")  # path order, not arg order


@pytest.fixture(scope="class")
def repo_lint():
    """One timed whole-repo lint: (findings, wall seconds)."""
    start = time.monotonic()
    findings = lint_repo(ROOT)
    return findings, time.monotonic() - start


class TestRepoGate:
    def test_repository_lints_clean(self, repo_lint):
        assert repo_lint[0] == []

    def test_whole_repo_lint_under_ten_seconds(self, repo_lint):
        assert repo_lint[1] < 10.0


class TestCliExitCodes:
    def test_clean_repo_exits_zero(self, capsys):
        assert main(["lint", "--root", str(ROOT)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = make_repo(tmp_path)
        assert main(["lint", "--root", str(root)]) == 1
        assert "[D1 durability-ordering]" in capsys.readouterr().out

    def test_engine_error_exits_two(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(lint_pkg, "lint_repo", explode)
        assert main(["lint", "--root", str(tmp_path)]) == 2
        assert "engine bug" in capsys.readouterr().err

    def test_out_writes_file(self, tmp_path, capsys):
        root = make_repo(tmp_path)
        out = tmp_path / "findings.sarif"
        code = main(["lint", "--root", str(root),
                     "--format", "sarif", "--out", str(out)])
        assert code == 1  # findings still gate even when written to a file
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"][0]["ruleId"] == "D1"

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = make_repo(tmp_path)
        assert main(["lint", "--root", str(root), "--write-baseline"]) == 0
        assert (root / "reprolint-baseline.json").is_file()
        assert main(["lint", "--root", str(root)]) == 0

    def test_changed_without_git_falls_back_to_full_run(self, tmp_path,
                                                        capsys):
        root = make_repo(tmp_path)
        assert main(["lint", "--root", str(root), "--changed"]) == 1
        captured = capsys.readouterr()
        assert "running the full tree instead" in captured.err
        assert "[D1 durability-ordering]" in captured.out

    def test_changed_in_this_repo_runs(self, capsys):
        # The checkout is a git repo with a main ref, so --changed takes
        # the fast path; the tree is clean either way.
        assert main(["lint", "--root", str(ROOT), "--changed"]) == 0


def test_committed_baseline_is_empty():
    doc = json.loads((ROOT / "reprolint-baseline.json").read_text())
    assert doc == {"version": 1, "findings": []}
