"""RPL002 in the dataflow interpreter against the walk it replaced.

reprolint's immutability rule (RPL002) used to be written twice: a
syntactic, order-sensitive walk of each function body in
``repro.devtools.rules`` with its own taint, and the interpreter's
column facts with its summaries of parameter-mutating functions.  The
interpreter (:mod:`repro.devtools.dataflow`) now emits every RPL002
finding.  The walk and the summaries' former mutation collector are
kept below verbatim as references:

* on every file of ``src tests benchmarks`` and of productbench's
  frozen lint corpus, the RPL002 findings and the mutated parameters
  of every summarized (module-level) function equal the references';
* on straight-line function bodies drawn by Hypothesis, under
  ``repro/core`` and ``repro/analysis``, the findings are equal;
* each deliberate difference has its own fixture below.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools.dataflow import (
    MUTATOR_METHODS,
    NP_CONSTRUCTORS,
    DataflowProject,
    _collect_mutated_params,
    analyze_module,
)
from repro.devtools.index import NodeIndex
from repro.devtools.lint import collect_files
from repro.devtools.rules import COLUMN_PROPERTIES, Finding, module_parts

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# references: the replaced code, verbatim
# ---------------------------------------------------------------------------
class _Creation:
    __slots__ = ("line", "col", "name", "frozen", "escaped", "escape_line")

    def __init__(self, name: str, line: int, col: int):
        self.name = name
        self.line = line
        self.col = col
        self.frozen = False
        self.escaped = False
        self.escape_line = 0


class _ImmutabilityScope:
    """Linear, order-sensitive walk of one function (or module) body."""

    def __init__(self, path: str, check_creation: bool):
        self.path = path
        self.check_creation = check_creation
        self.findings: List[Finding] = []
        self.tainted: Dict[str, str] = {}  # name -> origin description
        self.created: Dict[str, _Creation] = {}

    # -- expression classification -------------------------------------
    def _taint_origin(self, node: ast.AST) -> Optional[str]:
        """Origin description when ``node`` evaluates to a store/dataset
        column (or a view of one), else None."""
        if isinstance(node, ast.Name):
            return self.tainted.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr in COLUMN_PROPERTIES:
            return f"column property '.{node.attr}'"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "column":
                return "store.column(...)"
            return None
        if isinstance(node, ast.Subscript):
            origin = self._taint_origin(node.value)
            return f"view of {origin}" if origin else None
        return None

    def _np_ctor(self, node: ast.AST) -> Optional[str]:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id in {"np", "numpy"} \
                and func.attr in NP_CONSTRUCTORS:
            return func.attr
        return None

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding("RPL002", self.path, getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0), message)
        )

    # -- statement walk -------------------------------------------------
    def run(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            self._statement(statement)
        if self.check_creation:
            reported = set()
            for creation in self.created.values():
                if creation.escaped and not creation.frozen \
                        and id(creation) not in reported:
                    reported.add(id(creation))
                    self._flag_creation(creation)

    def _flag_creation(self, creation: _Creation) -> None:
        self.findings.append(
            Finding(
                "RPL002", self.path, creation.line, creation.col,
                f"array '{creation.name}' created in core/ escapes (line "
                f"{creation.escape_line}) without setflags(write=False)",
            )
        )

    def _statement(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs get their own scope from the caller
        if isinstance(node, ast.Assign):
            self._handle_assign(node.targets, node.value)
            self._scan_calls(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._handle_assign([node.target], node.value)
            self._scan_calls(node.value)
        elif isinstance(node, ast.AugAssign):
            self._handle_augassign(node)
            self._scan_calls(node.value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._mark_escapes(node.value, node.lineno)
                self._scan_calls(node.value)
        elif isinstance(node, ast.Expr):
            self._scan_calls(node.value)
        elif isinstance(node, (ast.If, ast.For, ast.While, ast.With,
                               ast.AsyncFor, ast.AsyncWith)):
            for attr in ("test", "iter"):
                value = getattr(node, attr, None)
                if value is not None:
                    self._scan_calls(value)
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._clear_bindings(node.target)
            for child in node.body:
                self._statement(child)
            for child in getattr(node, "orelse", []):
                self._statement(child)
        elif isinstance(node, ast.Try):
            for child in node.body:
                self._statement(child)
            for handler in node.handlers:
                for child in handler.body:
                    self._statement(child)
            for child in node.orelse + node.finalbody:
                self._statement(child)
        else:
            for value in ast.iter_child_nodes(node):
                if isinstance(value, ast.expr):
                    self._scan_calls(value)

    def _clear_bindings(self, target: ast.AST) -> None:
        for name_node in ast.walk(target):
            if isinstance(name_node, ast.Name):
                self.tainted.pop(name_node.id, None)
                self.created.pop(name_node.id, None)

    def _handle_assign(self, targets: Iterable[ast.AST], value: ast.expr) -> None:
        origin = self._taint_origin(value)
        ctor = self._np_ctor(value)
        alias = self.created.get(value.id) if isinstance(value, ast.Name) else None
        for target in targets:
            if isinstance(target, ast.Name):
                self.tainted.pop(target.id, None)
                self.created.pop(target.id, None)
                if origin:
                    self.tainted[target.id] = origin
                if ctor and self.check_creation:
                    self.created[target.id] = _Creation(
                        target.id, value.lineno, value.col_offset
                    )
                elif alias is not None:
                    self.created[target.id] = alias
            elif isinstance(target, ast.Subscript):
                base_origin = self._taint_origin(target.value)
                if base_origin:
                    self._flag(
                        target,
                        f"subscript assignment into {base_origin} — column "
                        "views are immutable; build a new array instead",
                    )
                if isinstance(value, ast.Name) and value.id in self.created:
                    self.created[value.id].escaped = True
                    self.created[value.id].escape_line = target.lineno
            elif isinstance(target, ast.Attribute):
                if isinstance(value, ast.Name) and value.id in self.created:
                    self.created[value.id].escaped = True
                    self.created[value.id].escape_line = target.lineno
            elif isinstance(target, (ast.Tuple, ast.List)):
                self._clear_bindings(target)

    def _handle_augassign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name) and target.id in self.tainted:
            self._flag(
                node,
                f"augmented assignment mutates {self.tainted[target.id]} — "
                "column views are immutable; assign a new array instead",
            )
        elif isinstance(target, ast.Subscript):
            origin = self._taint_origin(target.value)
            if origin:
                self._flag(
                    node,
                    f"augmented subscript assignment into {origin} — column "
                    "views are immutable",
                )

    def _mark_escapes(self, value: ast.expr, line: int) -> None:
        names = []
        if isinstance(value, ast.Name):
            names = [value]
        elif isinstance(value, ast.Tuple):
            names = [e for e in value.elts if isinstance(e, ast.Name)]
        for name_node in names:
            creation = self.created.get(name_node.id)
            if creation is not None:
                creation.escaped = True
                creation.escape_line = line

    def _scan_calls(self, node: ast.expr) -> None:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in MUTATOR_METHODS:
                origin = self._taint_origin(func.value)
                if origin:
                    self._flag(
                        call,
                        f".{func.attr}() mutates {origin} — column views are "
                        f"immutable; use the copying variant (np.{func.attr}"
                        "(...)) instead",
                    )
            elif func.attr == "setflags" and isinstance(func.value, ast.Name):
                write_true = any(
                    kw.arg == "write" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in call.keywords
                )
                if write_true:
                    origin = self._taint_origin(func.value)
                    target = origin or f"array '{func.value.id}'"
                    self._flag(call, f"setflags(write=True) thaws {target}")
                elif func.value.id in self.created:
                    self.created[func.value.id].frozen = True


def check_immutability(path: str, parts: Tuple[str, ...],
                       tree: ast.Module) -> List[Finding]:
    if not parts or parts[0] not in {"repro", "tests", "benchmarks"}:
        return []
    check_creation = len(parts) >= 2 and parts[0] == "repro" and parts[1] == "core"
    findings: List[Finding] = []
    module_scope = _ImmutabilityScope(path, check_creation=False)
    module_scope.run([n for n in tree.body
                      if not isinstance(n, (ast.FunctionDef, ast.ClassDef))])
    findings.extend(module_scope.findings)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = _ImmutabilityScope(path, check_creation=check_creation)
            scope.run(node.body)
            findings.extend(scope.findings)
    return findings


def _ref_collect_mutated_params(fn: ast.FunctionDef) -> Dict[str, int]:
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    param_set = set(params) | {a.arg for a in fn.args.kwonlyargs}
    index = {name: i for i, name in enumerate(params)}
    mutated: Dict[str, int] = {}

    def root(node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    for node in ast.walk(fn):
        target_name: Optional[str] = None
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    target_name = root(target.value)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Subscript):
                target_name = root(node.target.value)
            elif isinstance(node.target, ast.Name):
                # ``arr += x`` mutates in place when arr is an ndarray.
                target_name = node.target.id
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in MUTATOR_METHODS:
                target_name = root(func.value)
            elif func.attr == "setflags" and any(
                kw.arg == "write" and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            ):
                target_name = root(func.value)
        if target_name and target_name in param_set:
            mutated.setdefault(target_name, index.get(target_name, -1))
    return mutated


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------
Key = Tuple[int, int, str]


def _keys(findings: Iterable[Finding]) -> List[Tuple[str, int, int, str]]:
    return sorted((f.path, f.line, f.col, f.message)
                  for f in findings if f.rule == "RPL002")


def _reference_findings(paths: Sequence[Path]) -> List[Tuple[str, int, int, str]]:
    found: List[Finding] = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += check_immutability(path.as_posix(), module_parts(path), tree)
    return _keys(found)


def _tree_paths() -> List[Path]:
    return collect_files([str(REPO_ROOT / name)
                          for name in ("src", "tests", "benchmarks")])


def test_tree_findings_match_reference(repo_lint):
    assert _keys(repo_lint.new + repo_lint.suppressed) \
        == _reference_findings(_tree_paths())


def test_lint_corpus_findings_match_reference(corpus_lint):
    root, result = corpus_lint
    paths = collect_files([str(root / "src" / "repro")])
    assert _keys(result.new + result.suppressed) == _reference_findings(paths)


def test_mutated_params_match_reference(corpus_lint):
    # Summaries are built for module-level functions only.
    root, _ = corpus_lint
    for path in _tree_paths() + collect_files([str(root / "src" / "repro")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        index = NodeIndex([tree])
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                assert _collect_mutated_params(node, index) \
                    == _ref_collect_mutated_params(node), (path, node.name)


def _source(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def _fold(text: str, rel: str = "src/repro/analysis/fixture.py") -> List[Key]:
    path = Path(rel)
    tree = ast.parse(_source(text))
    found = analyze_module(path, tree, DataflowProject({path: tree}))
    return sorted((f.line, f.col, f.message)
                  for f in found if f.rule == "RPL002")


def _ref(text: str, rel: str = "src/repro/analysis/fixture.py") -> List[Key]:
    path = Path(rel)
    found = check_immutability(path.as_posix(), module_parts(path),
                               ast.parse(_source(text)))
    return sorted((f.line, f.col, f.message) for f in found)


# ---------------------------------------------------------------------------
# straight-line bodies
# ---------------------------------------------------------------------------
_NAMES = ("a", "b", "c")
_SOURCES = st.sampled_from(
    ["ds.error_times", "ds.op_times", "ds.host_ids",
     'store.column("error_time")', "np.zeros(3)", "np.arange(3)",
     "np.empty(3)", "np.ones(3)", *_NAMES]
)
_WRITES = st.sampled_from(
    ["{}[0] = 1.0", "{}[0]: float = 1.0", "{}[0] += 1.0", "{} += 1.0",
     "{}.sort()", "{}.fill(0.0)", "{}.setflags(write=True)",
     "{}.setflags(write=False)"]
)


@st.composite
def _bodies(draw) -> List[str]:
    """Assignments (some chained) and writes in any order, then
    ``self.x =`` stores and an optional return."""
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        names = draw(st.lists(st.sampled_from(_NAMES), min_size=1,
                              max_size=2))
        if draw(st.booleans()):
            lines.append(" = ".join([*names, draw(_SOURCES)]))
        else:
            lines.append(draw(_WRITES).format(names[0]))
    stored = draw(st.lists(st.sampled_from(_NAMES), max_size=2))
    lines += [f"self.x{i}{draw(st.sampled_from(['', ': object']))} = {name}"
              for i, name in enumerate(stored)]
    returned = draw(st.lists(st.sampled_from(_NAMES), max_size=2))
    if returned:
        lines.append(f"return {', '.join(returned)}")
    return lines


@settings(max_examples=300, deadline=None)
@given(body=_bodies(), package=st.sampled_from(["core", "analysis"]))
def test_straight_line_bodies_match_reference(body, package):
    text = "import numpy as np\n\n\ndef f(self, ds, store):\n" \
        + "".join(f"    {line}\n" for line in body)
    rel = f"src/repro/{package}/drawn.py"
    assert _fold(text, rel) == _ref(text, rel)


# ---------------------------------------------------------------------------
# deliberate differences, one fixture each
# ---------------------------------------------------------------------------
SUBSCRIPT = ("subscript assignment into {} — column views are immutable; "
             "build a new array instead")
SORT = (".sort() mutates {} — column views are immutable; use the copying "
        "variant (np.sort(...)) instead")
ESCAPES = ("array 'out' created in core/ escapes (line {}) without "
           "setflags(write=False)")
CORE = "src/repro/core/fixture.py"
ERROR_TIMES = "column property '.error_times'"


class TestFoldReportsMore:
    """Shapes the walk missed.  It read a body top to bottom, so the
    binding last in the text won over every path, and it forgot a
    creation whose name was rebound."""

    def test_column_bound_on_one_branch_written_after_join(self):
        text = """
            def clobber(ds, fresh):
                if fresh is None:
                    v = ds.error_times
                else:
                    v = fresh.copy()
                v[0] = 1.0
            """
        assert _ref(text) == []
        assert _fold(text) == [(6, 4, SUBSCRIPT.format(ERROR_TIMES))]

    def test_tuple_unpacking_binds_the_column(self):
        text = """
            def clobber(ds):
                a, b = ds.error_times, 1
                a[0] = 2.0
            """
        assert _ref(text) == []
        assert _fold(text) == [(3, 4, SUBSCRIPT.format(ERROR_TIMES))]

    def test_core_array_stored_on_self_then_name_rebound(self):
        text = """
            import numpy as np


            class Holder:
                def load(self, n):
                    out = np.zeros(n)
                    self.out = out
                    out = None
            """
        assert _ref(text, CORE) == []
        assert _fold(text, CORE) == [(6, 14, ESCAPES.format(7))]

    def test_core_array_frozen_on_one_branch_only(self):
        text = """
            import numpy as np


            def build(n, freeze):
                out = np.zeros(n)
                if freeze:
                    out.setflags(write=False)
                return out
            """
        assert _ref(text, CORE) == []
        assert _fold(text, CORE) == [(5, 10, ESCAPES.format(8))]

    def test_core_array_frozen_after_it_is_stored(self):
        # The rule is "freeze, then publish": a store before the freeze
        # escapes, even though the walk accepted a freeze anywhere.
        text = """
            import numpy as np


            class Holder:
                def load(self, n):
                    out = np.zeros(n)
                    self.out = out
                    out.setflags(write=False)
            """
        assert _ref(text, CORE) == []
        assert _fold(text, CORE) == [(6, 14, ESCAPES.format(7))]

    def test_core_array_stored_in_a_tuple(self):
        # A stored tuple of names escapes each, as a returned one does.
        text = """
            import numpy as np


            class Holder:
                def load(self, n):
                    out = np.zeros(n)
                    self.pair = (out, n)
            """
        assert _ref(text, CORE) == []
        assert _fold(text, CORE) == [(6, 14, ESCAPES.format(7))]

    def test_conditional_expression_of_two_columns(self):
        text = """
            def clobber(ds, c):
                v = ds.error_times if c else ds.op_times
                v.sort()
            """
        assert _ref(text) == []
        assert _fold(text) == [(3, 4, SORT.format("a column view"))]

    def test_column_bound_later_in_a_loop_body(self):
        text = """
            def clobber(ds, rows):
                v = rows.copy()
                for row in rows:
                    v[0] = row
                    v = ds.error_times
            """
        assert _ref(text) == []
        assert _fold(text) == [(4, 8, SUBSCRIPT.format(ERROR_TIMES))]

    def test_module_level_column_written_in_a_function(self):
        text = """
            from repro.core.dataset import FOTDataset

            TIMES = FOTDataset([]).error_times


            def clobber():
                TIMES[0] = 1.0
            """
        assert _ref(text) == []
        assert _fold(text) == [(7, 4, SUBSCRIPT.format(ERROR_TIMES))]

    def test_thaw_of_a_column_that_is_not_a_bare_name(self):
        text = """
            def thaw(ds):
                ds.error_times.setflags(write=True)
            """
        assert _ref(text) == []
        assert _fold(text) == [
            (2, 4, f"setflags(write=True) thaws {ERROR_TIMES}")
        ]

    def test_calls_in_with_headers_and_augmented_targets(self):
        # The walk scanned neither; the interpreter evaluates both.
        text = """
            def clobber(ds, counts, ctx):
                times = ds.error_times
                with ctx(times.sort()):
                    counts[times.sort()] += 1
            """
        assert _ref(text) == []
        assert _fold(text) == [(3, 13, SORT.format(ERROR_TIMES)),
                               (4, 15, SORT.format(ERROR_TIMES))]

    def test_numpy_imported_under_another_name(self):
        # Creations are numpy calls through the names numpy is imported
        # as, where the walk took the literal names np and numpy.
        text = """
            import numpy as xp


            def build(n):
                out = xp.zeros(n)
                return out
            """
        assert _ref(text, CORE) == []
        assert _fold(text, CORE) == [(5, 10, ESCAPES.format(6))]


class TestInterproceduralCheck:
    """The call-site check against summaries of parameter-mutating
    functions: its taint now has the walk's ``store.column(...)``
    origin, it runs over ``tests/`` and ``benchmarks/`` too, and a
    negated column is a new array."""

    CLOBBER = """
        def clobber(arr):
            arr[0] = 1.0


        def f(store, ds):
            clobber({})
        """
    MESSAGE = ("passes store.column(...) to 'clobber' ({}), which mutates "
               "its parameter 'arr' — column views are immutable")

    def test_store_column_is_a_column_view(self):
        text = self.CLOBBER.format('store.column("error_time")')
        assert _fold(text) == [
            (6, 12, self.MESSAGE.format("repro.analysis.fixture"))
        ]

    def test_checked_in_tests(self):
        text = self.CLOBBER.format('store.column("error_time")')
        assert _fold(text, "tests/test_fixture.py") == [
            (6, 12, self.MESSAGE.format("tests.test_fixture"))
        ]

    def test_checked_inside_a_lambda(self):
        text = self.CLOBBER.format(
            "sorted(store, key=lambda row: clobber(ds.error_times))")
        assert _fold(text) == [(6, 50, (
            f"passes {ERROR_TIMES} to 'clobber' (repro.analysis.fixture), "
            "which mutates its parameter 'arr' — column views are immutable"
        ))]

    def test_negated_column_is_a_new_array(self):
        assert _fold(self.CLOBBER.format("-ds.error_times")) == []

    def test_every_subscript_store_mutates_a_parameter(self):
        # The old collector read only an assignment's last subscript
        # target, and none inside a tuple target.
        tree = ast.parse(_source("""
            def clobber(arr, other, more):
                arr[0], n = 1.0, 2
                other[0] = more[0] = 1.0
            """))
        fn = tree.body[0]
        assert _ref_collect_mutated_params(fn) == {"more": 2}
        assert _collect_mutated_params(fn, NodeIndex([tree])) \
            == {"arr": 0, "other": 1, "more": 2}


class TestFoldReportsLess:
    """What the walk flagged and the fold does not."""

    def test_rebinding_forms_clear_the_taint(self):
        # The walk knew only assignments and for targets, so these
        # names kept a stale column taint there.
        text = """
            def f(ds, rows, ctx):
                v = ds.error_times
                with ctx as v:
                    v.sort()
                w = ds.op_times
                [w.sort() for w in rows]
                x = ds.host_ids
                rows.sort(key=lambda x: x.sort())
            """
        assert [line for line, _, _ in _ref(text)] == [4, 6, 8]
        assert _fold(text) == []

    def test_nested_view_wording(self):
        text = """
            def clobber(ds):
                v = ds.error_times[1:]
                v[1:][0] = 4.0
            """
        view = f"view of {ERROR_TIMES}"
        assert _ref(text) == [(3, 4, SUBSCRIPT.format(f"view of {view}"))]
        assert _fold(text) == [(3, 4, SUBSCRIPT.format(view))]

    def test_write_after_unconditional_return(self):
        # The interpreter never visits unreachable blocks, as for
        # RPL101-104.
        text = """
            def clobber(ds):
                return None
                ds.error_times[0] = 1.0
            """
        assert _ref(text) == [(3, 4, SUBSCRIPT.format(ERROR_TIMES))]
        assert _fold(text) == []


class TestSame:
    def test_freeze_through_an_alias_counts(self):
        text = """
            import numpy as np


            def build(n):
                out = np.zeros(n)
                view = out
                view.setflags(write=False)
                return out
            """
        assert _ref(text, CORE) == _fold(text, CORE) == []

    def test_write_in_a_loop_else_clause(self):
        text = """
            def clobber(ds, rows):
                times = ds.error_times
                for row in rows:
                    pass
                else:
                    times.sort()
            """
        assert _fold(text) == _ref(text) == [(6, 8, SORT.format(ERROR_TIMES))]

    def test_write_in_finally_after_a_returning_try(self):
        # No path falls out of the try, so the finally follows each of
        # its blocks instead.
        text = """
            def clobber(ds):
                times = ds.error_times
                try:
                    return None
                finally:
                    times.sort()
            """
        assert _fold(text) == _ref(text) == [(6, 8, SORT.format(ERROR_TIMES))]

    def test_write_inside_a_lambda(self):
        text = """
            def f(ds, rows):
                times = ds.error_times
                return sorted(rows, key=lambda row: times.sort())
            """
        assert _fold(text) == _ref(text) == [(3, 40, SORT.format(ERROR_TIMES))]

    def test_freeze_of_a_join_freezes_neither(self):
        text = """
            import numpy as np


            def build(n, c, other):
                out = np.zeros(n)
                view = out if c else np.ones(n)
                view.setflags(write=False)
                return out
            """
        assert _fold(text, CORE) == _ref(text, CORE) == [
            (5, 10, ESCAPES.format(8))
        ]
