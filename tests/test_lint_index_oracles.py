"""The reprolint node index against the walkers it replaced.

:mod:`repro.devtools.index` is the only code that decides what a scope
owns.  It replaced own-subtree walkers and a parent map; the two
walkers whose views it still serves and the parent map are kept below
verbatim as references.  For every scope of every file under
``src``, ``tests`` and ``benchmarks``, the index must give the nodes
each reference gave, in the same order, with the same parents.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List

import pytest

from repro.devtools.index import SCOPES, NodeIndex

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


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------
#: The parser shares one instance of each context and operator node
#: across a tree, so a child -> parent map cannot hold their parents.
_SHARED = (ast.expr_context, ast.boolop, ast.operator, ast.unaryop,
           ast.cmpop)


def _same(got: Iterable[ast.AST], want: Iterable[ast.AST]) -> bool:
    got, want = list(got), list(want)
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def _check_module(path: Path) -> int:
    """Compare every scope of one file; returns the scopes checked."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    index = NodeIndex([tree])
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
    return len(scopes)


@pytest.mark.parametrize("top", ["src", "tests", "benchmarks"])
def test_index_matches_replaced_walkers(top):
    files = sorted(
        p for p in (REPO_ROOT / top).rglob("*.py")
        if "__pycache__" not in p.parts
    )
    assert files
    assert sum(_check_module(path) for path in files) > len(files)

