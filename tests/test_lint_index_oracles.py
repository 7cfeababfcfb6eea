"""The reprolint node index and call resolver against the code they
replaced.

:mod:`repro.devtools.index` is the only code that decides what a scope
owns, and its walk is the only whole-tree walk of a lint run.  It
replaced own-subtree walkers and a parent map, and then the
``ast.walk`` passes of the import contexts, the call-graph summaries,
the dataflow's def list and the effects' attribute types.  The walkers
whose views the index still serves, the parent map and those passes
are kept below verbatim as references.  For every scope of every file
under ``src``, ``tests`` and ``benchmarks`` and of productbench's
frozen lint corpus, the index must give the nodes each reference gave,
in the same order, with the same parents, and every pass that now
reads the index must give what its walk gave.

:meth:`DataflowProject.resolve_call` replaced two resolvers: the
dataflow's per-module ``resolution`` tables behind ``summary_for_call``
and the effects analysis's own ``resolve_call``.  Both are kept below
verbatim.  Over the same trees, and over a small project with the
doubly bound names they lack, ``summary_for_call`` must give what the
tables gave at every call site, and ``resolve_call`` what the effects
resolver gave at every call a function owns, except for the one shape
only the tables knew: ``m.f()`` where ``from pkg import m`` binds
``m``.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import textwrap
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set
from unittest import mock

import pytest

from repro.devtools import dataflow
from repro.devtools.dataflow import (
    CONVERSION_CONSTANTS,
    TIMEUTIL_UNIT_EXPORTS,
    ClassInfo,
    DataflowProject,
    FunctionSummary,
    ModuleContext,
    analyze_module,
    conversion,
    unit_fact,
    written_array,
)
from repro.devtools.index import SCOPES, NodeIndex
from repro.devtools.lint import collect_files, run_lint
from repro.devtools.rules import module_name

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# references: the replaced code, verbatim
# ---------------------------------------------------------------------------
def _parents(tree: ast.AST) -> Dict[int, ast.AST]:
    """Child node id -> parent node, for every node under ``tree``.
    Built once per module and dropped after it, never per function."""
    out: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            out[id(child)] = node
    return out


def _own_walk(fn: ast.AST) -> Iterable[ast.AST]:
    """Subtree walk excluding nested function/class bodies (nested defs
    are checked on their own); lambdas stay in — they run in this frame
    unless an executor handoff exempts them."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _effects_own_nodes(fn: ast.AST) -> Iterable[ast.AST]:
    """Walk ``fn`` excluding nested function/class bodies (lambdas are
    included: they execute in the enclosing frame unless shipped to an
    executor, which the exemption set handles)."""
    stack: List[ast.AST] = [fn]
    first = True
    while stack:
        node = stack.pop()
        if not first and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        first = False
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _WalkContext(ModuleContext):
    """:class:`ModuleContext` with its former ``_collect``, a method of
    the class until the index took over."""

    def __init__(self, module: str, tree: ast.Module, index: NodeIndex):
        self._tree = tree
        super().__init__(module, tree, index)

    def _collect(self, nodes) -> None:
        self._walk_collect(self._tree)

    def _walk_collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        self.numpy_aliases.add(bound)
                    elif alias.name == "os":
                        self.os_aliases.add(bound)
                    elif alias.name == "glob":
                        self.glob_aliases.add(bound)
                    elif alias.name.endswith("timeutil"):
                        self.timeutil_aliases.add(bound)
                    self.module_aliases[bound] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.from_imports[bound] = (node.module, alias.name)
                    if alias.name == "timeutil":
                        self.timeutil_aliases.add(bound)
                    if node.module.endswith("timeutil"):
                        target = CONVERSION_CONSTANTS.get(alias.name)
                        if target:
                            self.global_facts[bound] = conversion(target)
                        unit = TIMEUTIL_UNIT_EXPORTS.get(alias.name)
                        if unit:
                            self.global_facts[bound] = unit_fact(unit)


def _walk_collect_mutated_params(fn: ast.FunctionDef) -> Dict[str, int]:
    """The former ``dataflow._collect_mutated_params``."""
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    param_set = set(params) | {a.arg for a in fn.args.kwonlyargs}
    index = {name: i for i, name in enumerate(params)}
    mutated: Dict[str, int] = {}
    for node in ast.walk(fn):
        written = written_array(node)
        root = written[0] if written else None
        while isinstance(root, (ast.Subscript, ast.Attribute)):
            root = root.value
        if isinstance(root, ast.Name) and root.id in param_set:
            mutated.setdefault(root.id, index.get(root.id, -1))
    return mutated


def _walk_callees(self: DataflowProject, summary) -> Set[str]:
    """The callee walk of the former ``DataflowProject._resolve_calls``
    for one summary, collected into a new set instead of
    ``summary.callees``."""
    callees: Set[str] = set()
    for node in ast.walk(summary.node):
        if isinstance(node, ast.Call):
            callee = self.summary_for_call(summary.module, node.func)
            if callee is not None:
                callees.add(callee.key)
    return callees


def _walk_defs(tree: ast.Module) -> Iterable[ast.AST]:
    """The def walk of the former ``dataflow.analyze_module``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _walk_infer_attr_types(self: DataflowProject) -> None:
    """The former ``EffectsProject._infer_attr_types``."""
    for info in self.classes.values():
        for method_key in info.methods.values():
            fn = self.functions[method_key].node
            param_types: Dict[str, str] = {}
            args = getattr(fn, "args", None)
            if args is not None:
                for arg in list(args.posonlyargs) + list(args.args) \
                        + list(args.kwonlyargs):
                    ann = arg.annotation
                    name: Optional[str] = None
                    if isinstance(ann, ast.Name):
                        name = ann.id
                    elif isinstance(ann, ast.Constant) \
                            and isinstance(ann.value, str):
                        name = ann.value.split(".")[-1]
                    if name is not None:
                        key = self.resolve_class(info.module, name)
                        if key is not None:
                            param_types[arg.arg] = key
            for node in ast.walk(fn):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value:
                    targets, value = [node.target], node.value
                for target in targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    key = self._class_of_expr(info.module, value)
                    if key is None and isinstance(value, ast.Name):
                        key = param_types.get(value.id)
                    if key is not None:
                        info.attr_types.setdefault(
                            target.attr, set()
                        ).add(key)


class _TableResolver:
    """The former ``DataflowProject`` resolution tables, built as its
    ``_resolve_calls`` built them, and its ``summary_for_call``."""

    def __init__(self, project: DataflowProject):
        self.contexts = project.contexts
        self.summaries = project.summaries
        self.resolution: Dict[str, Dict[str, str]] = {}
        for module, ctx in self.contexts.items():
            table: Dict[str, str] = {}
            for key, summary in self.summaries.items():
                if summary.module == module:
                    table[summary.name] = key
            for bound, (source, original) in ctx.from_imports.items():
                key = f"{source}.{original}"
                if key in self.summaries:
                    table[bound] = key
            self.resolution[module] = table

    def summary_for_call(self, module: str,
                         func: ast.AST) -> Optional[FunctionSummary]:
        table = self.resolution.get(module, {})
        ctx = self.contexts.get(module)
        if isinstance(func, ast.Name):
            key = table.get(func.id)
            return self.summaries.get(key) if key else None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and ctx is not None:
            target_module = ctx.module_aliases.get(func.value.id)
            if target_module is None:
                imported = ctx.from_imports.get(func.value.id)
                if imported:
                    target_module = f"{imported[0]}.{imported[1]}"
            if target_module:
                return self.summaries.get(f"{target_module}.{func.attr}")
        return None


class _EffectsResolver:
    """The former ``EffectsProject`` call resolution: its
    ``_class_base_keys``, ``method_key``, ``_local_types`` and
    ``resolve_call``, over a project's tables."""

    def __init__(self, project: DataflowProject):
        self.contexts = project.contexts
        self.functions = project.functions
        self.classes = project.classes
        self.index = project.index
        self.resolve_class = project.resolve_class
        self._class_of_expr = project._class_of_expr

    def _class_base_keys(self, info: ClassInfo) -> List[str]:
        out = []
        for base in info.bases:
            key = self.resolve_class(info.module, base)
            if key is not None:
                out.append(key)
        return out

    def method_key(self, class_key: str, method: str,
                   _seen: Optional[Set[str]] = None) -> Optional[str]:
        """Summary key of ``method`` on ``class_key``, walking bases."""
        seen = _seen if _seen is not None else set()
        if class_key in seen:
            return None
        seen.add(class_key)
        info = self.classes.get(class_key)
        if info is None:
            return None
        if method in info.methods:
            return info.methods[method]
        for base_key in self._class_base_keys(info):
            found = self.method_key(base_key, method, seen)
            if found is not None:
                return found
        return None

    def _local_types(self, module: str, fn: ast.AST) -> Dict[str, str]:
        """``x = ClassName(...)`` local variable typing (plus ``with
        Ctor() as x``), best effort."""
        out: Dict[str, str] = {}
        for node in self.index.own(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                key = self._class_of_expr(module, node.value)
                if key is not None:
                    out[node.targets[0].id] = key
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        key = self._class_of_expr(module, item.context_expr)
                        if key is not None:
                            out[item.optional_vars.id] = key
        return out

    def resolve_call(
        self,
        module: str,
        func: ast.expr,
        class_key: Optional[str] = None,
        local_types: Optional[Dict[str, str]] = None,
    ) -> List[str]:
        """Candidate summary keys for a call's func expression.

        Returns every key the call may dispatch to (a type-set
        attribute like the router's dead-letter store yields one key
        per member class); empty when unresolvable.
        """
        ctx = self.contexts.get(module)
        if ctx is None:
            return []
        if isinstance(func, ast.Name):
            name = func.id
            imported = ctx.from_imports.get(name)
            if imported is not None:
                target = f"{imported[0]}.{imported[1]}"
                if target in self.functions:
                    return [target]
            local = f"{module}.{name}"
            if local in self.functions:
                return [local]
            cls = self.resolve_class(module, name)
            if cls is not None:  # constructor call
                init = self.method_key(cls, "__init__")
                return [init] if init is not None else []
            return []
        if not isinstance(func, ast.Attribute):
            return []
        # self.method(...)
        if isinstance(func.value, ast.Name):
            base = func.value.id
            if base == "self" and class_key is not None:
                found = self.method_key(class_key, func.attr)
                return [found] if found is not None else []
            if local_types and base in local_types:
                found = self.method_key(local_types[base], func.attr)
                return [found] if found is not None else []
            target_module = ctx.module_aliases.get(base)
            if target_module is not None:
                target = f"{target_module}.{func.attr}"
                if target in self.functions:
                    return [target]
            imported = ctx.from_imports.get(base)
            if imported is not None:
                cls = self.resolve_class(module, base)
                if cls is not None:
                    found = self.method_key(cls, func.attr)
                    return [found] if found is not None else []
            return []
        # self.attr.method(...) through the inferred attribute type set
        if isinstance(func.value, ast.Attribute) \
                and isinstance(func.value.value, ast.Name) \
                and func.value.value.id == "self" and class_key is not None:
            info = self.classes.get(class_key)
            if info is None:
                return []
            out: List[str] = []
            for cls in sorted(info.attr_types.get(func.value.attr, ())):
                found = self.method_key(cls, func.attr)
                if found is not None:
                    out.append(found)
            return out
        return []


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------
#: The parser shares one instance of each context and operator node
#: across a tree, so a child -> parent map cannot hold their parents.
_SHARED = (ast.expr_context, ast.boolop, ast.operator, ast.unaryop,
           ast.cmpop)

#: What :meth:`NodeIndex.walk_order` lists.
_MARKED = (*SCOPES, ast.Import, ast.ImportFrom)


def _same(got: Iterable[ast.AST], want: Iterable[ast.AST]) -> bool:
    got, want = list(got), list(want)
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def _check_module(path: Path, tree: ast.Module, index: NodeIndex) -> int:
    """Compare every scope of one file; returns the scopes checked."""
    parents = _parents(tree)
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, SCOPES))]
    for scope in scopes:
        own = index.own(scope)
        assert _same(own, _own_walk(scope)), (path, scope)
        for node, parent in index.own_with_parents(scope):
            if not isinstance(node, _SHARED):
                assert parents[id(node)] is parent, (path, node)
        if not isinstance(scope, ast.Module):
            assert _same(
                [scope, *(n for n in own if not isinstance(n, SCOPES))],
                _effects_own_nodes(scope),
            ), (path, scope)
        # Lambda scopes: their own nodes follow them in their enclosing
        # scope's walk.
        for i, node in enumerate(own):
            if isinstance(node, ast.Lambda):
                want = list(_own_walk(node))
                assert _same(own[i + 1:i + 1 + len(want)], want), (path, node)
        # A shared node appears once per use, in both.
        assert sorted(map(id, index.subtree(scope))) \
            == sorted(map(id, list(ast.walk(scope))[1:])), (path, scope)
    assert _same(index.walk_order(tree),
                 (n for n in ast.walk(tree) if isinstance(n, _MARKED))), path
    return len(scopes)


def _context_state(ctx: ModuleContext) -> dict:
    """Every collected alias set, and the three dicts with their order."""
    state = {name: value for name, value in vars(ctx).items()
             if name != "_tree"}
    for name in ("from_imports", "module_aliases", "global_facts"):
        state[name] = list(state[name].items())
    return state


class _Recorder:
    """Stands in for the interpreter in ``analyze_module`` and records
    the scope it is given."""

    def __init__(self, seen: List[ast.AST], ctx: ModuleContext,
                 fn: ast.AST):
        seen.append(fn)
        self.findings: list = []
        self.exit_env = ctx.module_env

    def run(self) -> None:
        return None


def _analyzed_scopes(path: Path, tree: ast.Module,
                     project: DataflowProject) -> List[ast.AST]:
    seen: List[ast.AST] = []
    with mock.patch.object(
        dataflow, "_Analyzer",
        lambda rel, ctx, project, flags, fn: _Recorder(seen, ctx, fn),
    ):
        analyze_module(path, tree, project)
    return seen


@pytest.fixture(scope="module",
                params=["src", "tests", "benchmarks", "corpus"])
def project(request) -> DataflowProject:
    """The dataflow project of one top-level directory, or of the
    frozen lint corpus."""
    if request.param == "corpus":
        root = request.getfixturevalue("corpus_lint")[0] / "src" / "repro"
    else:
        root = REPO_ROOT / request.param
    files = collect_files([str(root)])
    assert files
    return DataflowProject({
        path: ast.parse(path.read_text(encoding="utf-8")) for path in files
    })


def test_index_matches_replaced_walkers(project):
    checked = sum(_check_module(path, tree, project.index)
                  for path, tree in project.trees.items())
    assert checked > len(project.trees)


def test_passes_match_their_walks(project):
    # A module name two files share keeps the context of the last one.
    owners = {module_name(path): path for path in project.trees}
    for path, tree in project.trees.items():
        module = module_name(path)
        ctx = project.contexts[module]
        if owners[module] == path:
            want = _WalkContext(module, tree, project.index)
            want.module_env = ctx.module_env
            assert _context_state(ctx) == _context_state(want), path
        scopes = _analyzed_scopes(path, tree, project)
        if scopes:
            assert scopes[0] is tree
            assert _same(scopes[1:], _walk_defs(tree)), path
    for summary in project.summaries.values():
        assert summary.mutated_params \
            == _walk_collect_mutated_params(summary.node), summary.key
        assert summary.callees == _walk_callees(project, summary), \
            summary.key
    walked = copy.copy(project)
    walked.classes = {key: dataclasses.replace(info, attr_types={})
                      for key, info in project.classes.items()}
    _walk_infer_attr_types(walked)
    assert {key: info.attr_types for key, info in project.classes.items()} \
        == {key: info.attr_types for key, info in walked.classes.items()}


def _summaries_match_the_tables(project: DataflowProject) -> int:
    """Assert ``summary_for_call`` against the tables at every call
    site of ``project``; returns how many sites were checked."""
    tables = _TableResolver(project)
    sites = 0
    for path, tree in project.trees.items():
        module = module_name(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                sites += 1
                assert project.summary_for_call(module, node.func) \
                    is tables.summary_for_call(module, node.func), \
                    (path, node.lineno, node.col_offset)
    return sites


def test_summary_for_call_matches_the_resolution_tables(project):
    assert _summaries_match_the_tables(project) > len(project.trees)


def test_summary_for_call_keeps_the_tables_precedence():
    # Shapes none of the four trees has: a name bound by a from-import
    # and by a local def, the import a coroutine (``f``), a sync def
    # (``h``) or a def the module defines again later (``k``); and a
    # module name bound by ``import x as m`` and by ``from y import m``.
    sources = {
        "a": """
            async def f(v):
                return v
            def h(v):
                v[0] = 1
            def k(v):
                return v
            """,
        "b": """
            import repro.analysis.a as m
            from repro.analysis import c as m
            from repro.analysis.a import f, h, k
            def f(v):
                v[0] = 1
            def h(v):
                return v
            def g(ds):
                f(ds.x), h(ds.x), k(ds.x), m.h(ds.x), m.q(ds.x)
            def k(v):
                v[1] = 2
            """,
        "c": """
            def h(v):
                return v
            def q(v):
                v[0] = 1
            """,
    }
    project = DataflowProject({
        Path(f"src/repro/analysis/{name}.py"): ast.parse(
            textwrap.dedent(source))
        for name, source in sources.items()
    })
    assert _summaries_match_the_tables(project) == 5
    resolved = {
        node.func.id if isinstance(node.func, ast.Name)
        else f"m.{node.func.attr}":
            getattr(project.summary_for_call("repro.analysis.b", node.func),
                    "key", None)
        for node in ast.walk(project.trees[Path("src/repro/analysis/b.py")])
        if isinstance(node, ast.Call)
    }
    assert resolved == {
        "f": "repro.analysis.b.f", "h": "repro.analysis.a.h",
        "k": "repro.analysis.a.k", "m.h": "repro.analysis.a.h",
        "m.q": None,
    }


def test_resolve_call_matches_the_effects_resolver(project):
    """Equal at every call a function owns, but where the effects
    resolver found nothing for ``m.f()`` with ``m`` from-imported and
    ``pkg.m.f`` a function of the tree: that call now resolves to it."""
    effects = _EffectsResolver(project)
    sites = 0
    for fn in project.functions.values():
        ctx = project.contexts[fn.module]
        local_types = project.local_types(fn.module, fn.node)
        assert local_types == effects._local_types(fn.module, fn.node)
        for node in project.index.own(fn.node):
            if not isinstance(node, ast.Call):
                continue
            sites += 1
            got = project.resolve_call(fn.module, node.func, fn.class_key,
                                       local_types)
            want = effects.resolve_call(fn.module, node.func, fn.class_key,
                                        local_types)
            if got != want:
                where = (fn.key, node.lineno, node.col_offset)
                func = node.func
                assert want == [], where
                assert isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name), where
                source, original = ctx.from_imports[func.value.id]
                assert got == [f"{source}.{original}.{func.attr}"], where
                assert got[0] in project.functions, where
    assert sites > len(project.functions)


def test_name_bound_twice_keeps_the_walks_winner():
    # ``json``, ``loads`` and ``D`` are bound at module level, inside a
    # def and inside a try.  ``ast.walk`` sees every module-level import
    # first, then the def's and the try's at the next depth, in source
    # order: the try's bindings win, although the index's stack walk
    # reaches the def's body last and the last module-level imports
    # come last in the source.
    tree = ast.parse(textwrap.dedent("""
        import json
        from json import loads
        from repro.core.timeutil import DAY as D


        def load():
            import simplejson as json
            from ujson import loads
            from repro.core.timeutil import MINUTE as D, DAY as M


        try:
            import orjson as json
            from orjson import loads
            from repro.core.timeutil import HOUR as D, DAY as T
        except ImportError:
            pass

        import rapidjson as json
        from rapidjson import loads
        from repro.core.timeutil import YEAR as D, DAY as L
        """))
    index = NodeIndex([tree])
    ctx = ModuleContext("repro.analysis.fixture", tree, index)
    want = _WalkContext("repro.analysis.fixture", tree, index)
    assert _context_state(ctx) == _context_state(want)
    assert ctx.module_aliases["json"] == "orjson"
    assert ctx.from_imports["loads"] == ("orjson", "loads")
    assert ctx.global_facts["D"] == conversion("hours")
    assert ctx.global_facts["T"] == conversion("days")


def test_lint_walks_each_node_about_once(corpus_lint):
    # The index's walk calls ``ast.iter_child_nodes`` once per node;
    # what is left are walks over single expressions.
    core = corpus_lint[0] / "src" / "repro" / "core"
    nodes = sum(
        1 for path in collect_files([str(core)])
        for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )
    calls = 0
    iter_child_nodes = ast.iter_child_nodes

    def counting(node):
        nonlocal calls
        calls += 1
        return iter_child_nodes(node)

    with mock.patch.object(ast, "iter_child_nodes", counting):
        run_lint([str(core)])
    assert nodes > 10_000
    assert calls <= 1.5 * nodes, (calls, nodes)
