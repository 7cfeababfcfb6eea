"""Project-level tests for the effects analysis: interprocedural
blocking summaries, attribute-type call resolution, the
no-silently-skipped-coroutines property over ``repro.serve``, and
``--changed-since`` diff-aware reporting."""

from __future__ import annotations

import ast
import subprocess
from pathlib import Path

import pytest

from repro.devtools.dataflow import DataflowProject
from repro.devtools.effect_rules import (
    check_module,
    describe_blocking,
    effect_summaries,
)
from repro.devtools.lint import (
    changed_files,
    collect_files,
    main,
    run_lint,
)
from repro.devtools.rules import module_name

REPO_ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def build_project(*paths: Path) -> DataflowProject:
    trees = {
        p: ast.parse(p.read_text(encoding="utf-8")) for p in paths
    }
    project = DataflowProject(trees)
    effect_summaries(project)
    return project


# ---------------------------------------------------------------------------
# blocking summaries
# ---------------------------------------------------------------------------
class TestBlockingSummaries:
    def test_blocking_propagates_through_sync_call_chain(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/mod.py",
            "def low(p):\n"
            "    return open(p).read()\n"
            "def mid(p):\n"
            "    return low(p)\n"
            "def top(p):\n"
            "    return mid(p)\n",
        )
        project = build_project(path)
        fns = project.functions
        assert fns["repro.analysis.mod.low"].blocking
        assert fns["repro.analysis.mod.mid"].blocking
        assert fns["repro.analysis.mod.top"].blocking
        assert describe_blocking(project, "repro.analysis.mod.top") == (
            "top -> mid -> low: open() performs blocking I/O"
        )

    def test_blocking_stops_at_async_callees(self, tmp_path):
        """A coroutine that blocks is reported inside itself; awaiting
        it must not smear the blocking effect onto its callers."""
        path = write(
            tmp_path, "src/repro/analysis/mod.py",
            "import time\n"
            "async def inner():\n"
            "    time.sleep(1)\n"
            "async def outer():\n"
            "    await inner()\n",
        )
        project = build_project(path)
        assert project.functions["repro.analysis.mod.inner"].blocking
        assert not project.functions["repro.analysis.mod.outer"].blocking

    def test_methods_are_first_class_summaries(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/mod.py",
            "class Store:\n"
            "    def put(self, p, x):\n"
            "        with open(p, 'w') as fh:\n"
            "            fh.write(x)\n"
            "class Owner:\n"
            "    def __init__(self):\n"
            "        self.store = Store()\n"
            "    def save(self, p, x):\n"
            "        self.store.put(p, x)\n",
        )
        project = build_project(path)
        assert project.functions["repro.analysis.mod.Store.put"].blocking
        owner = project.functions["repro.analysis.mod.Owner.save"]
        assert owner.blocking
        assert owner.blocking_via == "repro.analysis.mod.Store.put"

    def test_attr_type_sets_cover_both_branches(self, tmp_path):
        """A branchy ctor (disk store | memory store) yields a type
        *set*; the call resolves to every member."""
        path = write(
            tmp_path, "src/repro/analysis/mod.py",
            "class DiskStore:\n"
            "    def put(self, x):\n"
            "        with open('f', 'a') as fh:\n"
            "            fh.write(x)\n"
            "class MemoryStore:\n"
            "    def put(self, x):\n"
            "        pass\n"
            "class Owner:\n"
            "    def __init__(self, durable):\n"
            "        if durable:\n"
            "            self.store = DiskStore()\n"
            "        else:\n"
            "            self.store = MemoryStore()\n",
        )
        project = build_project(path)
        info = project.classes["repro.analysis.mod.Owner"]
        assert info.attr_types["store"] == {
            "repro.analysis.mod.DiskStore",
            "repro.analysis.mod.MemoryStore",
        }

    def test_first_blocking_call_follows_walk_order(self, tmp_path):
        """A summary keeps the first blocking call its walk meets.  The
        walk pops the last child first, so of ``open()`` and a later
        ``time.sleep()`` it meets the sleep first, and the RPL201
        message at the async caller names it."""
        path = write(
            tmp_path, "src/repro/serve/mixed.py",
            "import time\n"
            "def helper(path):\n"
            "    with open(path) as fh:\n"
            "        data = fh.read()\n"
            "    time.sleep(0.1)\n"
            "    return data\n"
            "async def handle(path):\n"
            "    return helper(path)\n",
        )
        project = build_project(path)
        assert describe_blocking(project, "repro.serve.mixed.helper") == (
            "helper: time.sleep() blocks the calling thread"
        )
        messages = [f.message for f in run_lint([str(path)]).new]
        assert messages == [
            "call blocks the event loop through helper: time.sleep() "
            "blocks the calling thread; wrap the call in "
            "loop.run_in_executor()/asyncio.to_thread()"
        ]

    def test_resource_returns_seeded_at_build_time(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/mod.py",
            "def acquire(p):\n"
            "    return open(p)\n",
        )
        project = build_project(path)
        assert project.functions["repro.analysis.mod.acquire"].returns_resource


# ---------------------------------------------------------------------------
# coverage properties over the real tree
# ---------------------------------------------------------------------------
class TestServeCoverage:
    @pytest.fixture(scope="class")
    def serve_analysis(self):
        files = collect_files([str(REPO_ROOT / "src")])
        trees = {
            p: ast.parse(p.read_text(encoding="utf-8")) for p in files
        }
        project = DataflowProject(trees)
        effect_summaries(project)
        serve_files = [
            p for p in files if "serve" in p.parts
        ]
        findings = []
        for p in serve_files:
            findings.extend(check_module(p, trees[p], project))
        return project, trees, serve_files, findings

    def test_every_serve_coroutine_is_analyzed(self, serve_analysis):
        """Property: no ``async def`` in ``repro.serve`` is silently
        skipped by the RPL201/202 pass — nesting, methods and module
        functions all land in ``analyzed_async``."""
        project, trees, serve_files, _ = serve_analysis
        covered = {
            (module, lineno)
            for module, _qualname, lineno in project.analyzed_async
        }
        census = []
        for path in serve_files:
            module = module_name(path)
            for node in ast.walk(trees[path]):
                if isinstance(node, ast.AsyncFunctionDef):
                    census.append((module, node.lineno, node.name))
        assert len(census) >= 10  # serve is genuinely coroutine-heavy
        missed = [
            entry for entry in census if (entry[0], entry[1]) not in covered
        ]
        assert missed == []

    def test_facade_blocks_through_a_from_imported_module(
        self, serve_analysis
    ):
        """``repro.api.load`` reads its file through ``_io.load``, which
        ``from repro.core import io as _io`` binds."""
        project, *_rest = serve_analysis
        load = project.functions["repro.api.load"]
        assert load.blocking
        assert load.blocking_via == "repro.core.io.load"

    def test_serve_has_no_effects_findings(self, serve_analysis):
        *_rest, findings = serve_analysis
        assert [f.render() for f in findings] == []


def test_effects_engine_clean_over_src(repo_lint):
    """End to end: the concurrency & resource-safety rules (RPL201–213)
    have zero unsuppressed findings over the real ``src/`` tree."""
    src = (REPO_ROOT / "src").as_posix()
    found = [
        f.render() for f in repo_lint.new
        if f.rule.startswith("RPL2") and f.path.startswith(src)
    ]
    assert found == []


# ---------------------------------------------------------------------------
# --changed-since
# ---------------------------------------------------------------------------
GOOD = "def f():\n    return 1\n"
BAD = (
    "import time\n"
    "async def f():\n"
    "    time.sleep(1)\n"
)


class TestChangedSince:
    def _git(self, cwd: Path, *argv: str) -> str:
        proc = subprocess.run(
            ["git", *argv], cwd=cwd, capture_output=True, text=True,
            env={
                "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
                "HOME": str(cwd),
            },
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.fixture()
    def repo(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/analysis/stable.py", BAD)
        write(tmp_path, "src/repro/analysis/touched.py", GOOD)
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_restrict_to_limits_reported_files(self, tmp_path):
        stable = write(tmp_path, "src/repro/analysis/stable.py", BAD)
        touched = write(tmp_path, "src/repro/analysis/touched.py", GOOD)
        unrestricted = run_lint([str(stable), str(touched)])
        assert len(unrestricted.new) == 1
        restricted = run_lint(
            [str(stable), str(touched)],
            restrict_to={touched.resolve().as_posix()},
        )
        assert restricted.new == []

    def test_changed_files_sees_edits_and_untracked(self, repo):
        (repo / "src/repro/analysis/touched.py").write_text(BAD)
        write(repo, "src/repro/analysis/fresh.py", GOOD)
        changed = changed_files("HEAD")
        names = {Path(p).name for p in changed}
        assert names == {"touched.py", "fresh.py"}

    def test_cli_changed_since_only_reports_diffed_files(
        self, repo, capsys
    ):
        # stable.py has a finding but predates the ref; touched.py
        # acquires the same defect in the diff — only it is reported.
        (repo / "src/repro/analysis/touched.py").write_text(BAD)
        code = main(["src", "--no-baseline", "--changed-since", "HEAD"])
        out = capsys.readouterr().out
        assert code == 1
        assert "touched.py" in out
        assert "stable.py" not in out

    def test_cli_changed_since_clean_diff_exits_zero(self, repo, capsys):
        code = main(["src", "--no-baseline", "--changed-since", "HEAD"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out
