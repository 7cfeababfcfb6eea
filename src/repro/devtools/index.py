"""The node index: what each scope of a linted module owns.

A scope is a module, a class or a function.  Its *own nodes* are the
nodes below it, in the order of a stack walk that pops the last child
first, and the walk does not enter nested scopes: a nested ``def`` or
``class`` node is listed, but its decorators, arguments and body belong
to the nested scope.  Lambda bodies are entered, because they run in
the enclosing frame.  Each own node is stored next to its parent.

This module is the only code that decides what a scope owns.  The
effect summaries and the RPL2xx checks read whole scopes from
:class:`NodeIndex`.  The RPL3xx checks walk statement subtrees through
:class:`Subtrees`, the one view that also skips lambda bodies.  The
index is built once per lint run, with one stack walk per module.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Tuple

#: Nodes that open a nested scope.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Nodes a :class:`Subtrees` walk does not enter.
_UNWALKED = (ast.Lambda, *SCOPES)


class NodeIndex:
    """Own nodes and their parents for every scope of some modules."""

    def __init__(self, trees: Iterable[ast.Module]):
        self._scopes: Dict[int, Tuple[List[ast.AST], List[ast.AST]]] = {}
        for tree in trees:
            stack: list = [(tree, None, None)]
            while stack:
                node, parent, scope = stack.pop()
                if scope is not None:
                    scope[0].append(node)
                    scope[1].append(parent)
                if scope is None or isinstance(node, SCOPES):
                    scope = self._scopes[id(node)] = ([], [])
                for child in ast.iter_child_nodes(node):
                    stack.append((child, node, scope))

    def own(self, scope: ast.AST) -> List[ast.AST]:
        """The own nodes of a module, class or def node, in walk order."""
        return self._scopes[id(scope)][0]

    def own_with_parents(self, scope: ast.AST
                         ) -> Iterator[Tuple[ast.AST, ast.AST]]:
        """``(node, parent)`` for each own node of ``scope``."""
        return zip(*self._scopes[id(scope)])

    def subtrees(self, scope: ast.AST) -> "Subtrees":
        return Subtrees(*self._scopes[id(scope)])


class Subtrees:
    """Walks of the statement subtrees of one scope, for the RPL3xx
    checks.  Statement positions and subtree ends are computed once per
    scope and dropped with this object."""

    def __init__(self, nodes: List[ast.AST], parents: List[ast.AST]):
        self._nodes = nodes
        self._parents = parents
        self._position = {
            id(node): i for i, node in enumerate(nodes)
            if isinstance(node, ast.stmt)
        }
        # A subtree is contiguous in walk order: it ends at the first
        # node whose parent is not inside it.
        self._ends = [len(nodes)] * len(nodes)
        open_: List[int] = []
        for i, parent in enumerate(parents):
            while open_ and nodes[open_[-1]] is not parent:
                self._ends[open_.pop()] = i
            open_.append(i)

    def parent(self, stmt: ast.stmt) -> ast.AST:
        return self._parents[self._position[id(stmt)]]

    def walk(self, stmt: ast.stmt) -> Iterator[ast.AST]:
        """``stmt`` and its own descendants in walk order, skipping
        lambdas and nested scopes with everything below them."""
        nodes, ends = self._nodes, self._ends
        i = self._position[id(stmt)]
        stop = ends[i]
        yield stmt
        i += 1
        while i < stop:
            node = nodes[i]
            if isinstance(node, _UNWALKED):
                i = ends[i]
            else:
                yield node
                i += 1


__all__ = ["SCOPES", "NodeIndex", "Subtrees"]
