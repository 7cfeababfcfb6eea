"""Fixer tests: span application mechanics (conflicts, duplicate
inserts, byte fidelity), the lint→fix driver properties the docs
promise (idempotence, lint-clean-after-fix, clean-tree no-op), and the
CLI satellites that ride along (``--fix`` reporting,
``--update-baseline`` pruning, ``--changed-since`` degradation)."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.devtools.fixer import (
    apply_fixes_to_file,
    fix_paths,
)
from repro.devtools.lint import main, run_lint
from repro.devtools.rules import Edit, Finding, Fix

REPO_ROOT = Path(__file__).resolve().parents[1]

MOD = "src/repro/analysis/mod.py"

#: Fixable fixture sources, each carrying one fixable defect.
MAGIC_CONSTANT = (
    "def f(span_seconds):\n"
    "    return span_seconds / 86400.0\n"
)
FIXABLE_SOURCES = {
    "magic-constant": MAGIC_CONSTANT,
}


def write(tmp_path: Path, source: str, rel: str = MOD) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def synthetic(path: Path, *fixes: Fix) -> list:
    return [
        Finding("RPL102", str(path), 1, 0, "synthetic", fix=fix)
        for fix in fixes
    ]


# ---------------------------------------------------------------------------
# span application mechanics
# ---------------------------------------------------------------------------
class TestApplyFixes:
    def test_overlapping_fixes_defer_the_later(self, tmp_path):
        path = tmp_path / "file.py"
        path.write_text("abcdef\n", encoding="utf-8")
        first = Fix("a", (Edit(1, 0, 1, 4, "XXXX"),))
        second = Fix("b", (Edit(1, 2, 1, 6, "YYYY"),))
        applied, deferred = apply_fixes_to_file(
            path, synthetic(path, first, second)
        )
        assert (applied, deferred) == (1, 1)
        assert path.read_text() == "XXXXef\n"

    def test_identical_inserts_collapse(self, tmp_path):
        """Two fixes adding the same import line produce it once."""
        path = tmp_path / "file.py"
        path.write_text("x = 1\ny = 2\n", encoding="utf-8")
        insert = Edit(1, 0, 1, 0, "import numpy as np\n")
        applied, deferred = apply_fixes_to_file(
            path,
            synthetic(path, Fix("a", (insert,)), Fix("b", (insert,))),
        )
        assert (applied, deferred) == (2, 0)
        assert path.read_text().count("import numpy as np") == 1

    def test_missing_trailing_newline_survives(self, tmp_path):
        path = tmp_path / "file.py"
        path.write_bytes(b"value = old")  # no trailing newline
        apply_fixes_to_file(
            path, synthetic(path, Fix("a", (Edit(1, 8, 1, 11, "new"),)))
        )
        assert path.read_bytes() == b"value = new"

    def test_declared_encoding_survives(self, tmp_path):
        path = tmp_path / "file.py"
        raw = (
            "# -*- coding: latin-1 -*-\n"
            "# caf\xe9\n"
            "value = old\n"
        ).encode("latin-1")
        path.write_bytes(raw)
        apply_fixes_to_file(
            path, synthetic(path, Fix("a", (Edit(3, 8, 3, 11, "new"),)))
        )
        out = path.read_bytes()
        assert b"caf\xe9" in out  # still latin-1, not re-encoded utf-8
        assert out.decode("latin-1").splitlines()[2] == "value = new"


# ---------------------------------------------------------------------------
# driver properties
# ---------------------------------------------------------------------------
class TestFixDriver:
    @pytest.mark.parametrize("name", sorted(FIXABLE_SOURCES))
    def test_fix_leaves_fixture_lint_clean(self, tmp_path, name):
        """Property: after ``--fix``, a re-lint of the fixture has no
        findings at all, from any rule family."""
        path = write(tmp_path, FIXABLE_SOURCES[name])
        report = fix_paths([str(path)])
        assert report.applied >= 1
        assert not report.cycle
        assert run_lint([str(path)]).new == []

    @pytest.mark.parametrize("name", sorted(FIXABLE_SOURCES))
    def test_fix_is_idempotent(self, tmp_path, name):
        path = write(tmp_path, FIXABLE_SOURCES[name])
        fix_paths([str(path)])
        after_first = path.read_bytes()
        rerun = fix_paths([str(path)])
        assert rerun.applied == 0
        assert path.read_bytes() == after_first

    def test_magic_constant_becomes_named_import(self, tmp_path):
        path = write(tmp_path, MAGIC_CONSTANT)
        fix_paths([str(path)])
        text = path.read_text()
        assert "from repro.core.timeutil import DAY" in text
        assert "span_seconds / DAY" in text
        assert "86400" not in text

    def test_clean_tree_is_a_no_op(self, tmp_path):
        path = write(
            tmp_path,
            "def ages(dataset):\n"
            "    return [t.error_time for t in dataset.tickets]\n",
        )
        before = path.read_bytes()
        report = fix_paths([str(path)])
        assert report.applied == 0
        assert report.passes == 1
        assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# CLI: --fix
# ---------------------------------------------------------------------------
class TestFixCli:
    def test_fix_reports_and_exits_clean(self, tmp_path, capsys):
        path = write(tmp_path, MAGIC_CONSTANT)
        code = main([str(path), "--fix", "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "applied 1 fix(es)" in out
        assert "0 finding(s)" in out

    def test_fix_on_clean_input_reports_zero(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "def ages(dataset):\n"
            "    return [t.error_time for t in dataset.tickets]\n",
        )
        code = main([str(path), "--fix", "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "applied 0 fix(es)" in out


# ---------------------------------------------------------------------------
# CLI: --update-baseline
# ---------------------------------------------------------------------------
BAD_EFFECTS = (
    "import time\n"
    "async def f():\n"
    "    time.sleep(1)\n"
)


class TestUpdateBaseline:
    def test_prunes_missing_files_and_stale_entries(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, BAD_EFFECTS, rel="src/repro/analysis/kept.py")
        write(tmp_path, BAD_EFFECTS, rel="src/repro/analysis/gone.py")
        write(tmp_path, BAD_EFFECTS, rel="src/repro/analysis/fixed.py")
        baseline = tmp_path / "baseline.json"
        assert main(["src", "--baseline",
                     str(baseline), "--write-baseline"]) == 0
        capsys.readouterr()
        assert len(json.loads(baseline.read_text())["findings"]) == 3

        (tmp_path / "src/repro/analysis/gone.py").unlink()
        write(tmp_path, "def f():\n    return 1\n",
              rel="src/repro/analysis/fixed.py")
        assert main(["src", "--baseline",
                     str(baseline), "--update-baseline"]) == 0
        out = capsys.readouterr().out
        assert "kept 1 entry" in out
        assert "pruned 1 for missing files" in out
        assert "1 no longer matching any finding" in out
        payload = json.loads(baseline.read_text())
        assert len(payload["findings"]) == 1
        assert "kept.py" in payload["findings"][0]["path"]

    def test_never_adds_new_debt(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, BAD_EFFECTS, rel="src/repro/analysis/old.py")
        baseline = tmp_path / "baseline.json"
        assert main(["src", "--baseline",
                     str(baseline), "--write-baseline"]) == 0
        # A brand-new defect appears after the baseline was recorded.
        write(tmp_path, BAD_EFFECTS, rel="src/repro/analysis/new.py")
        assert main(["src", "--baseline",
                     str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()
        entries = json.loads(baseline.read_text())["findings"]
        assert len(entries) == 1
        assert "old.py" in entries[0]["path"]


# ---------------------------------------------------------------------------
# CLI: --changed-since degradation
# ---------------------------------------------------------------------------
class TestChangedSinceDegradation:
    def _git(self, cwd: Path, *argv: str) -> None:
        proc = subprocess.run(
            ["git", *argv], cwd=cwd, capture_output=True, text=True,
            env={
                "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
                "HOME": str(cwd),
            },
        )
        assert proc.returncode == 0, proc.stderr

    def test_repo_without_commits_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        write(tmp_path, "def f():\n    return 1\n")
        self._git(tmp_path, "init", "-q")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["src", "--no-baseline", "--changed-since", "HEAD"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--changed-since" in err
        assert "at least one commit" in err

    def test_invalid_ref_exits_two(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "def f():\n    return 1\n")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["src", "--no-baseline",
                  "--changed-since", "no-such-ref"])
        assert excinfo.value.code == 2
        assert "no-such-ref" in capsys.readouterr().err
