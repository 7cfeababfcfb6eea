"""The one-pass analyzer and the dirty summary rounds against the code
they replaced.

reprolint's interpreter (:mod:`repro.devtools.dataflow`) used to
transfer every reached block once more after each fixpoint, with
reporting switched on, and its summary inference analyzed every
module-level function in every round.  Now each block reports from its
last fixpoint transfer, which ran on its converged in-environment, and
after the first round only a summary whose callee changed is analyzed
again.  The parent's two-pass ``_Analyzer.run`` and full-round
``_infer_summaries`` are kept below verbatim as references, but for the
hoisted visit bound (``VISITS_PER_BLOCK``, formerly a literal ``50``)
and the reference analyzer's class name; the parent's ``_flag`` and
``_escape``, and its joining of return facts, come back as overrides
of the shared interpreter.  Asserted:

(a) every scope (each module body and each ``def``) of productbench's
    frozen lint corpus and of ``src tests benchmarks`` gives equal
    findings in order, return fact and exit environment;
(b) so do drawn bodies under ``repro/core`` and ``repro/analysis``,
    whose loops, branches and ``try`` statements transfer blocks more
    than once;
(c) so does a fixpoint the visit bound cuts off;
(d) every summary's ``returns_unit`` and ``returns_unordered`` are
    equal on both corpora and on drawn call graphs, and the frozen
    corpus takes 430 summary analyses where the full rounds took 850.
"""

from __future__ import annotations

import ast
import dataclasses
import textwrap
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools import dataflow
from repro.devtools.dataflow import (
    SUMMARY_ROUNDS,
    DataflowProject,
    _Analyzer,
    _BlockReport,
    _RuleFlags,
)
from repro.devtools.lattice import BOTTOM, Env, Fact, is_time_unit, join_envs
from repro.devtools.lint import collect_files
from repro.devtools.rules import Finding, module_name

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Every rule on, so each scope reports all it can.
ALL_RULES = _RuleFlags(units=True, order=True, inter_determinism=True,
                       immutability=True)


# ---------------------------------------------------------------------------
# references: the replaced code, verbatim
# ---------------------------------------------------------------------------
class _TwoPassAnalyzer(_Analyzer):
    """The parent's analyzer: a fixpoint that reports nothing, then a
    reporting transfer of every reached block, in block order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._emitting = False
        self._return_fact = BOTTOM
        #: creation site -> line of its last escape while maybe writable.
        self._escapes: Dict[Tuple[int, int, str], int] = {}

    def run(self) -> Fact:
        """Fixpoint then reporting pass; returns the joined fact of all
        ``return`` expressions (the function's summary fact)."""
        in_envs: Dict[int, Env] = {self.cfg.entry: self._seed_env()}
        worklist = deque([self.cfg.entry])
        iterations = 0
        limit = dataflow.VISITS_PER_BLOCK * max(1, len(self.cfg.blocks))
        while worklist and iterations < limit:
            iterations += 1
            idx = worklist.popleft()
            env = dict(in_envs.get(idx, {}))
            out = self._transfer_block(idx, env)
            for succ in self.cfg.blocks[idx].succs:
                joined = join_envs(in_envs.get(succ), out)
                if joined != in_envs.get(succ):
                    in_envs[succ] = joined
                    if succ not in worklist:
                        worklist.append(succ)
        self._emitting = True
        self._return_fact = BOTTOM
        for block in self.cfg.blocks:
            if block.idx in in_envs:
                self._transfer_block(block.idx, dict(in_envs[block.idx]))
        for (line, col, name), escape in self._escapes.items():
            self.findings.append(Finding(
                "RPL002", self.path, line, col,
                f"array '{name}' created in core/ escapes (line {escape}) "
                "without setflags(write=False)",
            ))
        self._emitting = False
        self.exit_env = in_envs.get(self.cfg.exit, {})
        return self._return_fact

    def _flag(self, rule, node, message, fix=None) -> None:
        if self._emitting:
            self.findings.append(
                Finding(rule, self.path, getattr(node, "lineno", 1),
                        getattr(node, "col_offset", 0), message, fix=fix)
            )

    def _escape(self, value, node, env) -> None:
        """``value``, a name or a tuple of names, leaves at ``node``."""
        for name in value.elts if isinstance(value, ast.Tuple) else [value]:
            fact = env.get(name.id) if isinstance(name, ast.Name) else None
            if self._emitting and fact and fact.created and fact.unfrozen:
                self._escapes[fact.created] = max(
                    self._escapes.get(fact.created, 0), node.lineno)

    def _transfer_block(self, idx, env):
        # The parent joined each return fact as it was evaluated; the
        # shared ``_transfer_item`` now hands them to a block report.
        self._report = _BlockReport()
        for item in self.cfg.blocks[idx].items:
            self._transfer_item(item, env)
        for fact in self._report.returns:
            self._return_fact = self._return_fact.join(fact)
        return env


class _FullRoundProject(DataflowProject):
    """The parent's summary inference: every summary in every round,
    each analyzed by the parent's analyzer."""

    def _infer_summaries(self) -> None:
        """Iterate return-fact inference to a (bounded) fixpoint so unit
        facts flow through helper calls."""
        for _ in range(SUMMARY_ROUNDS):
            changed = False
            for summary in self.summaries.values():
                analyzer = _TwoPassAnalyzer(
                    path="",
                    ctx=self.contexts[summary.module],
                    project=self,
                    flags=_RuleFlags(),  # summaries never emit findings
                    fn=summary.node,
                )
                returned = analyzer.run()
                inferred_unit = summary.declared_unit
                if inferred_unit is None and is_time_unit(returned.unit):
                    inferred_unit = returned.unit
                if (inferred_unit != summary.returns_unit
                        or returned.unordered != summary.returns_unordered):
                    summary.returns_unit = inferred_unit
                    summary.returns_unordered = returned.unordered
                    changed = True
            if not changed:
                break


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------
Returns = Dict[str, Tuple[Optional[str], bool]]


def _returns(project: DataflowProject) -> Returns:
    return {key: (s.returns_unit, s.returns_unordered)
            for key, s in project.summaries.items()}


def _summary_analyses(project_class, trees) -> Tuple[DataflowProject, int]:
    """The project, and how many functions its inference analyzed (the
    only analyses of a ``def`` while a project is built)."""
    analyzed: List[ast.AST] = []

    def counted(run):
        def counting_run(self):
            if isinstance(self.fn, ast.FunctionDef):
                analyzed.append(self.fn)
            return run(self)
        return counting_run

    with mock.patch.object(_Analyzer, "run", counted(_Analyzer.run)), \
            mock.patch.object(_TwoPassAnalyzer, "run",
                              counted(_TwoPassAnalyzer.run)):
        project = project_class(trees)
    return project, len(analyzed)


def _scope_reports(cls, path: Path, project: DataflowProject,
                   scope: ast.AST) -> Tuple[List[Finding], Fact, Env]:
    ctx = project.contexts[module_name(path)]
    analyzer = cls(path.as_posix(), ctx, project, ALL_RULES, fn=scope)
    returned = analyzer.run()
    return analyzer.findings, returned, analyzer.exit_env


def _assert_scopes_agree(trees: Dict[Path, ast.Module],
                         project: DataflowProject) -> int:
    """Both analyzers on every scope, as ``analyze_module`` orders them
    (the module body first, whose exit env the defs then read);
    returns how many findings they agreed on."""
    agreed = 0
    for path, tree in trees.items():
        ours = _scope_reports(_Analyzer, path, project, tree)
        assert ours == _scope_reports(_TwoPassAnalyzer, path, project,
                                      tree), path
        project.contexts[module_name(path)].module_env = ours[2]
        agreed += len(ours[0])
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ours = _scope_reports(_Analyzer, path, project, node)
                assert ours == _scope_reports(
                    _TwoPassAnalyzer, path, project, node), \
                    (path, node.name, node.lineno)
                agreed += len(ours[0])
    return agreed


@dataclasses.dataclass
class _Corpus:
    trees: Dict[Path, ast.Module]
    project: DataflowProject
    analyses: int
    reference_returns: Returns
    reference_analyses: int


def _corpus(paths: List[Path]) -> _Corpus:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path)) for path in paths}
    project, analyses = _summary_analyses(DataflowProject, trees)
    reference, reference_analyses = _summary_analyses(_FullRoundProject,
                                                      trees)
    return _Corpus(trees, project, analyses, _returns(reference),
                   reference_analyses)


@pytest.fixture(scope="module")
def frozen_corpus(corpus_lint) -> _Corpus:
    root, _ = corpus_lint
    return _corpus(collect_files([str(root / "src" / "repro")]))


@pytest.fixture(scope="module")
def tree_corpus() -> _Corpus:
    return _corpus(collect_files([str(REPO_ROOT / name)
                                  for name in ("src", "tests", "benchmarks")]))


# -- (d) summaries --------------------------------------------------------
def test_frozen_corpus_summaries_match_reference(frozen_corpus):
    assert _returns(frozen_corpus.project) == frozen_corpus.reference_returns
    assert len(frozen_corpus.project.summaries) == 425
    assert (frozen_corpus.analyses, frozen_corpus.reference_analyses) \
        == (430, 850)


def test_tree_summaries_match_reference(tree_corpus):
    assert _returns(tree_corpus.project) == tree_corpus.reference_returns
    assert tree_corpus.analyses < tree_corpus.reference_analyses


# -- (a) every scope ------------------------------------------------------
def test_frozen_corpus_scopes_match_reference(frozen_corpus):
    assert _assert_scopes_agree(frozen_corpus.trees,
                                frozen_corpus.project) > 0


def test_tree_scopes_match_reference(tree_corpus):
    assert _assert_scopes_agree(tree_corpus.trees, tree_corpus.project) > 0


# ---------------------------------------------------------------------------
# drawn bodies
# ---------------------------------------------------------------------------
PRELUDE = """\
import os

import numpy as np
from repro.core.timeutil import DAY, HOUR


def helper(arr):
    arr[0] = 1.0
    return arr


def f(self, ds, store, rows, ctx, path, span_days, span_seconds, span_hours):
"""

_NAME = st.sampled_from(("a", "b", "c"))
#: Right-hand sides: column views, core creations, units, unordered
#: values, and a call into a parameter-mutating helper.
_SOURCES = st.sampled_from((
    "ds.error_times", "ds.op_times", 'store.column("error_time")',
    "np.zeros(3)", "np.arange(3)", "rows.copy()", "span_days",
    "span_seconds", "{n} * HOUR", "{n} / DAY", "{n}[1:]", "{{1.0, 2.0}}",
    "sorted({n})", "helper({n})", "{n} + span_days",
))
#: Simple statements: assignments, column writes and freezes, unit
#: mixes, a magic constant, a narrowing cast, an ordered fold, stores
#: that let a core array escape, and a deletion.
_SIMPLE = st.sampled_from((
    "{n} = {src}", "{n} = {m} = {src}", "{n}[0] = 1.0", "{n} += 1.0",
    "{n}.sort()", "{n}.setflags(write=True)", "{n}.setflags(write=False)",
    "t = {n} - span_seconds", "ok = {n} < span_hours", "t = {n} * 86400",
    "w = {n}.astype(np.int32)", "acc = list({n})", "self.x = {n}",
    "self.items[0] = {n}", "del {n}",
))
_LEAVE = st.sampled_from(("return {n}", "return {n}, {m}",
                          "raise ValueError({n})"))
_ITERABLES = st.sampled_from(("rows", "{n}", "set(rows)",
                              "sorted(set(rows))", "os.listdir(path)"))


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


@st.composite
def _suite(draw, depth: int = 0, in_loop: bool = False) -> List[str]:
    """One to three statements, nested at most three deep: ``if``/
    ``else``, ``for``/``while`` with ``break``/``continue``/``else``,
    ``try``/``except``/``else``/``finally``, ``with``, and returns or
    raises anywhere."""
    lines: List[str] = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["simple", "simple", "leave"]
        if depth < 3:
            kinds += ["if", "loop", "try", "with"]
        if in_loop:
            kinds += ["break", "continue"]
        kind = draw(st.sampled_from(kinds))
        n, m = draw(_NAME), draw(_NAME)

        def suite(loop: bool = in_loop) -> List[str]:
            return _indent(draw(_suite(depth + 1, loop)))

        if kind == "simple":
            src = draw(_SOURCES).format(n=draw(_NAME))
            lines.append(draw(_SIMPLE).format(n=n, m=m, src=src))
        elif kind == "leave":
            lines.append(draw(_LEAVE).format(n=n, m=m))
        elif kind in ("break", "continue"):
            lines.append(kind)
        elif kind == "if":
            lines += [f"if {n}:", *suite()]
            if draw(st.booleans()):
                lines += ["else:", *suite()]
        elif kind == "loop":
            header = draw(st.sampled_from(("for {n} in {it}:", "while {n}:")))
            it = draw(_ITERABLES).format(n=m)
            lines += [header.format(n=n, it=it), *suite(True)]
            if draw(st.booleans()):
                lines += ["else:", *suite()]
        elif kind == "try":
            lines += ["try:", *suite()]
            handlers = draw(st.integers(0, 2))
            for i in range(handlers):
                lines += [f"except ValueError as {n}:" if i == 0
                          else "except KeyError:", *suite()]
            if handlers and draw(st.booleans()):
                lines += ["else:", *suite()]
            if not handlers or draw(st.booleans()):
                lines += ["finally:", *suite()]
        else:
            lines += [f"with ctx as {n}:", *suite()]
    return lines


def _drawn_module(body: List[str], package: str) -> Tuple[Path, ast.Module]:
    path = Path(f"src/repro/{package}/drawn.py")
    return path, ast.parse(PRELUDE + "\n".join(_indent(body)) + "\n")


def _assert_drawn_agree(body: List[str], package: str) -> None:
    path, tree = _drawn_module(body, package)
    project = DataflowProject({path: tree})
    _assert_scopes_agree({path: tree}, project)


@settings(max_examples=150, deadline=None)
@given(body=_suite(), package=st.sampled_from(["core", "analysis"]))
def test_drawn_bodies_match_reference(body, package):
    _assert_drawn_agree(body, package)


LOOP_REBINDS_A_COLUMN = """
    def clobber(ds, rows):
        v = rows.copy()
        for row in rows:
            v[0] = row
            v = ds.error_times
"""
WRITE = ("subscript assignment into column property '.error_times' — "
         "column views are immutable; build a new array instead")


def _loop_findings(cls) -> List[Tuple[int, int, str]]:
    path = Path("src/repro/analysis/fixture.py")
    tree = ast.parse(textwrap.dedent(LOOP_REBINDS_A_COLUMN).lstrip("\n"))
    project = DataflowProject({path: tree})
    findings, _, _ = _scope_reports(cls, path, project, tree.body[0])
    return [(f.line, f.col, f.message) for f in findings]


def test_loop_body_reports_from_its_last_transfer():
    # The body's first transfer sees ``v`` as a copy and reports
    # nothing; the column reaches it only around the back edge.
    assert _loop_findings(_Analyzer) == _loop_findings(_TwoPassAnalyzer) \
        == [(4, 8, WRITE)]


# -- (c) the cut-off path -------------------------------------------------
def test_cut_off_loop_body_is_transferred_on_its_final_env(monkeypatch):
    # One visit per block: the bound stops the worklist with the loop
    # body queued on the env that holds the column.
    monkeypatch.setattr(dataflow, "VISITS_PER_BLOCK", 1)
    assert _loop_findings(_Analyzer) == _loop_findings(_TwoPassAnalyzer) \
        == [(4, 8, WRITE)]


# ---------------------------------------------------------------------------
# drawn call graphs
# ---------------------------------------------------------------------------
_RETURNS = st.sampled_from((
    "return {g}()", "return {{{g}()}}", "return sorted({g}())",
    "return {g}() + {h}()", "return {g}() / DAY", "return {g}() * HOUR",
    "return list({g}())", "return span_days", "return span_seconds",
    "return {{1, 2}}", "return 1",
    "if c:\n    return {g}()\nreturn {h}()",
    "x = {g}()\nfor r in rows:\n    x = {h}()\nreturn x",
))


@st.composite
def _call_graph(draw) -> Dict[Path, ast.Module]:
    """Two modules of two to six functions in all that call one another
    (themselves too) and import each other's functions by name."""
    count = draw(st.integers(2, 6))
    names = [f"f{i}{draw(st.sampled_from(['', '', '_days', '_seconds']))}"
             for i in range(count)]
    homes = [draw(st.integers(0, 1)) for _ in names]
    modules: List[List[str]] = [[], []]
    for name, home in zip(names, homes):
        body = draw(_RETURNS).format(g=draw(st.sampled_from(names)),
                                     h=draw(st.sampled_from(names)))
        modules[home].append(f"def {name}(c, rows):\n"
                             + textwrap.indent(body, "    ") + "\n")
    trees = {}
    for home, defs in enumerate(modules):
        imported = [n for n, h in zip(names, homes) if h != home]
        header = "from repro.core.timeutil import DAY, HOUR\n"
        if imported:
            header += (f"from repro.analysis.m{1 - home} import "
                       f"{', '.join(imported)}\n")
        path = Path(f"src/repro/analysis/m{home}.py")
        trees[path] = ast.parse(header + "\n\n" + "\n\n".join(defs))
    return trees


@settings(max_examples=150, deadline=None)
@given(trees=_call_graph())
def test_drawn_call_graphs_match_reference(trees):
    assert _returns(DataflowProject(trees)) \
        == _returns(_FullRoundProject(trees))


def _graph(text: str) -> Dict[Path, ast.Module]:
    return {Path("src/repro/analysis/graph.py"):
            ast.parse(textwrap.dedent(text))}


def test_callee_defined_later_reruns_its_caller():
    # Round one analyzes ``caller`` before ``helper`` learns its unit,
    # so ``caller`` alone is analyzed again in round two.
    trees = _graph("""
        def caller():
            return helper()


        def helper():
            return span_days
        """)
    project, analyses = _summary_analyses(DataflowProject, trees)
    reference, reference_analyses = _summary_analyses(_FullRoundProject,
                                                      trees)
    assert _returns(project) == _returns(reference) == {
        "repro.analysis.graph.caller": ("days", False),
        "repro.analysis.graph.helper": ("days", False),
    }
    assert (analyses, reference_analyses) == (3, 6)


def test_chain_longer_than_the_rounds_is_cut_the_same_way():
    # Each round carries the unit one call further up the chain.
    depth = SUMMARY_ROUNDS + 2
    trees = _graph("\n\n".join(
        [f"def f{i}():\n    return f{i + 1}()\n" for i in range(depth - 1)]
        + [f"def f{depth - 1}():\n    return span_days\n"]))
    ours = _returns(DataflowProject(trees))
    assert ours == _returns(_FullRoundProject(trees))
    units = [ours[f"repro.analysis.graph.f{i}"][0] for i in range(depth)]
    assert units == [None] * (depth - SUMMARY_ROUNDS) \
        + ["days"] * SUMMARY_ROUNDS
