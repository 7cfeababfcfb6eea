"""Unit tests for the dataflow engine's machinery: the fact lattice,
CFG construction, and worklist-fixpoint behaviour (loops, branches,
try/except edges)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.devtools.cfg import build_cfg
from repro.devtools.dataflow import (
    DataflowProject,
    ModuleContext,
    _Analyzer,
    _RuleFlags,
    analyze_module,
    unit_from_name,
)
from repro.devtools.index import NodeIndex
from repro.devtools.lattice import (
    BOTTOM,
    DIMENSIONLESS,
    TOP,
    Fact,
    conversion,
    dimensionless,
    join_envs,
    unit_fact,
)


# ---------------------------------------------------------------------------
# lattice laws
# ---------------------------------------------------------------------------
FACTS = [
    BOTTOM,
    unit_fact("seconds"),
    unit_fact("days"),
    conversion("hours"),
    dimensionless(),
    Fact(unordered=True),
    Fact(width="int32"),
    Fact(unit=TOP),
]


class TestLattice:
    @pytest.mark.parametrize("fact", FACTS)
    def test_join_idempotent(self, fact):
        assert fact.join(fact) == fact

    @pytest.mark.parametrize("a", FACTS)
    @pytest.mark.parametrize("b", FACTS)
    def test_join_commutative(self, a, b):
        assert a.join(b) == b.join(a)

    @pytest.mark.parametrize("a", FACTS)
    @pytest.mark.parametrize("b", FACTS)
    @pytest.mark.parametrize("c", FACTS)
    def test_join_associative(self, a, b, c):
        assert a.join(b).join(c) == a.join(b.join(c))

    @pytest.mark.parametrize("fact", FACTS)
    def test_bottom_is_identity(self, fact):
        assert BOTTOM.join(fact) == fact

    def test_conflicting_units_go_to_top(self):
        joined = unit_fact("seconds").join(unit_fact("days"))
        assert joined.unit == TOP
        assert not joined.is_time

    def test_unordered_joins_as_or(self):
        assert unit_fact("seconds").join(Fact(unordered=True)).unordered
        assert not unit_fact("seconds").join(unit_fact("seconds")).unordered

    def test_conversion_predicates(self):
        hour = conversion("hours")
        assert hour.is_conversion
        assert hour.unit == "seconds"  # a conversion constant IS seconds
        assert not dimensionless().is_time
        assert dimensionless().unit == DIMENSIONLESS

    def test_join_envs_missing_key_is_bottom(self):
        left = {"x": unit_fact("seconds")}
        right = {"x": unit_fact("days"), "y": unit_fact("hours")}
        joined = join_envs(left, right)
        assert joined["x"].unit == TOP
        assert joined["y"] == unit_fact("hours")  # bottom is the identity


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------
def cfg_of(source: str):
    tree = ast.parse(source)
    return build_cfg(tree.body)


def block_holding(cfg, kind, name=None):
    """The first block with an item of type ``kind`` (an assignment to
    ``name`` when given)."""
    return next(
        b for b in cfg.blocks
        if any(isinstance(i, kind)
               and (name is None or getattr(i.targets[0], "id", "") == name)
               for i in b.items)
    )


class TestCFG:
    def test_straight_line_single_block(self):
        cfg = cfg_of("a = 1\nb = a + 1\n")
        reachable = {cfg.entry}
        assert cfg.blocks[cfg.entry].succs == [cfg.exit]
        assert len(cfg.blocks[cfg.entry].items) == 2
        assert reachable  # entry flows straight to exit

    def test_if_else_diamond(self):
        cfg = cfg_of("if c:\n    a = 1\nelse:\n    a = 2\nb = a\n")
        entry = cfg.blocks[cfg.entry]
        assert len(entry.succs) == 2  # then + else
        # both arms re-join before exit
        join_targets = [set(cfg.blocks[s].succs) for s in entry.succs]
        assert join_targets[0] == join_targets[1]

    def test_if_without_else_falls_through(self):
        cfg = cfg_of("if c:\n    a = 1\nb = 2\n")
        entry = cfg.blocks[cfg.entry]
        assert len(entry.succs) == 2  # body and fall-through

    def test_while_has_back_edge(self):
        cfg = cfg_of("while c:\n    a = 1\nb = 2\n")
        header = next(
            b for b in cfg.blocks
            if any(isinstance(i, ast.While) for i in b.items)
        )
        body = next(
            b for b in cfg.blocks
            if any(isinstance(i, ast.Assign)
                   and getattr(i.targets[0], "id", "") == "a"
                   for i in b.items)
        )
        assert header.idx in body.succs  # genuine back edge
        assert len(header.succs) == 2    # body + after

    def test_loop_else_follows_the_header(self):
        cfg = cfg_of("for x in xs:\n    a = 1\nelse:\n    b = 2\nc = 3\n")
        header = next(
            b for b in cfg.blocks
            if any(isinstance(i, ast.For) for i in b.items)
        )
        orelse = next(
            b for b in cfg.blocks
            if any(isinstance(i, ast.Assign)
                   and getattr(i.targets[0], "id", "") == "b"
                   for i in b.items)
        )
        assert orelse.idx in header.succs  # the else clause is reachable

    def test_break_exits_loop(self):
        cfg = cfg_of("while c:\n    break\nb = 2\n")
        header = next(
            b for b in cfg.blocks
            if any(isinstance(i, ast.While) for i in b.items)
        )
        body_idx = header.succs[0]
        after_idx = header.succs[1]
        assert after_idx in cfg.blocks[body_idx].succs  # break -> after

    def test_return_edges_to_exit(self):
        cfg = cfg_of("def f():\n    return 1\n    x = 2\n")
        inner = build_cfg(ast.parse("return 1\nx = 2\n").body)
        return_block = next(
            b for b in inner.blocks
            if any(isinstance(i, ast.Return) for i in b.items)
        )
        assert inner.exit in return_block.succs
        assert cfg is not None

    def test_try_body_edges_into_every_handler(self):
        cfg = cfg_of(
            "try:\n    a = f()\n    b = g()\n"
            "except ValueError:\n    x = 1\n"
            "except KeyError:\n    y = 2\n"
            "z = 3\n"
        )
        handler_blocks = [
            b.idx for b in cfg.blocks
            if any(isinstance(i, ast.ExceptHandler) for i in b.items)
        ]
        assert len(handler_blocks) == 2
        body = next(
            b for b in cfg.blocks
            if any(isinstance(i, ast.Assign)
                   and getattr(i.targets[0], "id", "") == "a"
                   for i in b.items)
        )
        for handler_idx in handler_blocks:
            assert handler_idx in body.succs

    def test_finally_after_a_leaving_try_follows_its_blocks(self):
        # No path falls out of the try, so nothing would reach the
        # finally; it follows every block of the body and the handlers
        # instead, and the code after the try stays unreachable.
        cfg = cfg_of(
            "try:\n    a = f()\n    return a\n"
            "except ValueError:\n    if a:\n        x = 1\n    raise\n"
            "finally:\n    b = 2\n"
            "c = 3\n"
        )
        final = block_holding(cfg, ast.Assign, "b")
        for block in (block_holding(cfg, ast.Assign, "a"),
                      block_holding(cfg, ast.ExceptHandler),
                      block_holding(cfg, ast.Assign, "x"),
                      block_holding(cfg, ast.Raise)):
            assert final.idx in block.succs
        assert final.succs == [cfg.exit]
        after = block_holding(cfg, ast.Assign, "c")
        assert after is not final
        assert not any(after.idx in b.succs for b in cfg.blocks)

    def test_finally_after_a_falling_try_keeps_its_graph(self):
        cfg = cfg_of("try:\n    return f()\nexcept ValueError:\n"
                     "    a = 1\nfinally:\n    b = 2\nc = 3\n")
        # The handler falls into the finally and the return leaves
        # through it, so its end reaches the exit and, in a block of
        # its own, the code after the try.
        final = block_holding(cfg, ast.Assign, "b")
        after = block_holding(cfg, ast.Assign, "c")
        assert final is not after
        assert final.idx in block_holding(cfg, ast.Assign, "a").succs
        assert final.idx in block_holding(cfg, ast.Return).succs
        assert final.succs == [cfg.exit, after.idx]

    def test_finally_after_a_leaving_try_reaches_its_jump_targets(self):
        # The break and the continue leave the try through the finally,
        # so its end reaches the block after the loop and the loop's
        # header besides the exit; the continue of the loop inside the
        # try does not pass through it.
        tree = ast.parse(
            "for row in rows:\n    try:\n"
            "        for x in row:\n            continue\n"
            "        if row:\n            break\n        continue\n"
            "    finally:\n        b = 2\n"
            "c = 3\n"
        )
        cfg = build_cfg(tree.body)
        outer, inner = tree.body[0], tree.body[0].body[0].body[0]
        headers = [b for b in cfg.blocks
                   if any(i is outer or i is inner for i in b.items)]
        final = block_holding(cfg, ast.Assign, "b")
        after = block_holding(cfg, ast.Assign, "c")
        assert final.succs == [cfg.exit, after.idx, headers[0].idx]
        assert headers[1].idx not in final.succs

    def test_unreachable_code_keeps_analysis_total(self):
        cfg = cfg_of("raise ValueError()\nx = 1\n")
        # the statement after raise still lives in some block
        assert any(
            any(isinstance(i, ast.Assign) for i in b.items)
            for b in cfg.blocks
        )


# ---------------------------------------------------------------------------
# fixpoint behaviour
# ---------------------------------------------------------------------------
def analyze_function(source: str):
    """Analyze the single function in ``source`` with all rules on;
    returns (analyzer, findings)."""
    tree = ast.parse(source)
    ctx = ModuleContext("repro.analysis.fixture", tree, NodeIndex([tree]))
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))
    flags = _RuleFlags(units=True, order=True)
    analyzer = _Analyzer("fixture.py", ctx, None, flags, fn=fn)
    analyzer.run()
    return analyzer, analyzer.findings


def finding_sites(source: str):
    """``(rule, line, col)`` of every finding in ``source``, analyzed as
    a module of ``repro.analysis``."""
    path = Path("src/repro/analysis/fixture.py")
    tree = ast.parse(source)
    return [(f.rule, f.line, f.col)
            for f in analyze_module(path, tree, DataflowProject({path: tree}))]


class TestFixpoint:
    def test_loop_reaches_fixpoint_and_joins(self):
        # x is seconds on iteration 0 and days after the loop body —
        # the join over the back edge must reach TOP without divergence.
        _, findings = analyze_function(
            "from repro.core.timeutil import DAY\n"
            "def f(span_seconds, span_days):\n"
            "    x = span_seconds\n"
            "    for i in range(3):\n"
            "        x = span_days\n"
            "    return x\n"
        )
        assert findings == []  # joined to TOP, never a spurious RPL101

    def test_branch_join_conflicting_units_is_silent(self):
        _, findings = analyze_function(
            "def f(c, span_seconds, span_days):\n"
            "    if c:\n"
            "        x = span_seconds\n"
            "    else:\n"
            "        x = span_days\n"
            "    return x\n"
        )
        assert findings == []

    def test_facts_flow_through_try_except(self):
        # the handler must see the pre-assignment state: flagging relies
        # on 'window' being in days on the exception path
        _, findings = analyze_function(
            "def f(window_days, limit_seconds):\n"
            "    try:\n"
            "        window = window_days\n"
            "    except ValueError:\n"
            "        window = window_days\n"
            "    return window + limit_seconds\n"
        )
        assert [f.rule for f in findings] == ["RPL101"]

    def test_break_through_a_falling_finally_reaches_the_loop_exit(self):
        assert finding_sites(
            "def f(ds, rows, c):\n"
            "    v = rows.copy()\n"
            "    for row in rows:\n"
            "        try:\n"
            "            if c:\n"
            "                break\n"
            "        finally:\n"
            "            v = ds.error_times\n"
            "        v = rows.copy()\n"
            "    v[0] = 1\n"
        ) == [("RPL002", 10, 4)]

    def test_return_through_a_falling_finally_carries_its_facts(self):
        # The finally sees the column bound before the return, although
        # the path that falls out of the try rebinds it to a copy.
        assert finding_sites(
            "def f(ds, rows, c):\n"
            "    try:\n"
            "        v = ds.error_times\n"
            "        if c:\n"
            "            return 1\n"
            "        v = rows.copy()\n"
            "    finally:\n"
            "        v[0] = 1\n"
        ) == [("RPL002", 8, 8)]

    def test_continue_through_a_finally_reaches_the_next_iteration(self):
        # What the finally binds on the way out of the continue reaches
        # the write in the next iteration, as it does without the try,
        # also when another path falls out of the try.
        source = ("def f(ds, rows, c):\n"
                  "    v = rows.copy()\n"
                  "    for row in rows:\n"
                  "        v[0] = row\n"
                  "{}")
        found = [
            finding_sites(source.format(tail))
            for tail in ("        try:\n            continue\n"
                         "        finally:\n            v = ds.error_times\n",
                         "        try:\n            if c:\n"
                         "                continue\n"
                         "        finally:\n            v = ds.error_times\n"
                         "        v = rows.copy()\n",
                         "        v = ds.error_times\n        continue\n")
        ]
        assert found == [[("RPL002", 4, 8)]] * 3

    def test_fixpoint_terminates_on_nested_loops(self):
        analyzer, _ = analyze_function(
            "def f(ts):\n"
            "    while True:\n"
            "        for i in range(3):\n"
            "            while ts > 0:\n"
            "                ts = ts - 1\n"
            "    return ts\n"
        )
        assert analyzer is not None  # no hang, no explosion


# ---------------------------------------------------------------------------
# name heuristics
# ---------------------------------------------------------------------------
class TestUnitFromName:
    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            ("span_seconds", "seconds"),
            ("window_days", "days"),
            ("batch_window_hours", "hours"),
            ("error_times", "seconds"),
            ("deployed_at", "seconds"),
            ("ts", "seconds"),
            ("seconds", "seconds"),
            ("months", "months"),
            ("n_days", None),       # counts are dimensionless
            ("num_hours", None),
            ("sometimes", None),    # suffix must be word-aligned
            ("runtime", None),
            ("datetime", None),
            ("host_id", None),
        ],
    )
    def test_suffix_rules(self, name, expected):
        assert unit_from_name(name) == expected


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------
class TestSummaries(object):
    def test_transitive_nondeterminism(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "fleet"
        pkg.mkdir(parents=True)
        helper = pkg / "helper.py"
        helper.write_text(
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
            "def wrapper():\n"
            "    return now()\n"
        )
        trees = {helper: ast.parse(helper.read_text())}
        project = DataflowProject(trees)
        key = "repro.fleet.helper"
        assert project.summaries[f"{key}.now"].nondet_direct
        assert project.summaries[f"{key}.wrapper"].nondet
        assert not project.summaries[f"{key}.wrapper"].nondet_direct

    def test_returns_unit_inferred_through_helper(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "analysis"
        pkg.mkdir(parents=True)
        mod = pkg / "helpers.py"
        mod.write_text(
            "from repro.core.timeutil import DAY\n"
            "def to_days(span_seconds):\n"
            "    return span_seconds / DAY\n"
            "def via(span_seconds):\n"
            "    return to_days(span_seconds)\n"
        )
        trees = {mod: ast.parse(mod.read_text())}
        project = DataflowProject(trees)
        key = "repro.analysis.helpers"
        assert project.summaries[f"{key}.to_days"].returns_unit == "days"
        assert project.summaries[f"{key}.via"].returns_unit == "days"

    def test_mutated_params_collected(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "stats"
        pkg.mkdir(parents=True)
        mod = pkg / "mut.py"
        mod.write_text(
            "def clobber(arr, other):\n"
            "    arr[0] = 1.0\n"
            "    return other\n"
        )
        trees = {mod: ast.parse(mod.read_text())}
        project = DataflowProject(trees)
        summary = project.summaries["repro.stats.mut.clobber"]
        assert summary.mutated_params == {"arr": 0}
