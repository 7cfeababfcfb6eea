"""The node index: what each scope of a linted module owns.

A scope is a module, a class or a function.  Its *own nodes* are the
nodes below it, in the order of a stack walk that pops the last child
first, and the walk does not enter nested scopes: a nested ``def`` or
``class`` node is listed, but its decorators, arguments and body belong
to the nested scope.  Lambda bodies are entered, because they run in
the enclosing frame.  Each own node is stored next to its parent, and
each scope lists the scopes nested directly in it.

This module is the only code that decides what a scope owns, and its
walk, one stack walk per module built once per lint run, is the only
walk of a whole module or def: every pass reads :class:`NodeIndex`.
"""

from __future__ import annotations

import ast
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Tuple

#: Nodes that open a nested scope.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: Nodes whose depth the walk records, for :meth:`NodeIndex.walk_order`.
_MARKED = (*SCOPES, ast.Import, ast.ImportFrom)


class NodeIndex:
    """Own nodes, their parents and nested scopes for every scope of
    some modules."""

    def __init__(self, trees: Iterable[ast.Module]):
        self._scopes: Dict[int, Tuple[List[ast.AST], ...]] = {}
        #: module id -> (depth, node) of its imports and scopes.
        self._marks: Dict[int, List[Tuple[int, ast.AST]]] = {}
        for tree in trees:
            marks = self._marks[id(tree)] = []
            scope = self._scopes[id(tree)] = ([], [], [])
            stack: list = [(child, tree, scope, 1)
                           for child in ast.iter_child_nodes(tree)]
            while stack:
                node, parent, scope, depth = stack.pop()
                scope[0].append(node)
                scope[1].append(parent)
                if isinstance(node, _MARKED):
                    marks.append((depth, node))
                    if isinstance(node, SCOPES):
                        scope[2].append(node)
                        scope = self._scopes[id(node)] = ([], [], [])
                for child in ast.iter_child_nodes(node):
                    stack.append((child, node, scope, depth + 1))

    def own(self, scope: ast.AST) -> List[ast.AST]:
        """The own nodes of a module, class or def node, in walk order."""
        return self._scopes[id(scope)][0]

    def own_with_parents(self, scope: ast.AST
                         ) -> Iterator[Tuple[ast.AST, ast.AST]]:
        """``(node, parent)`` for each own node of ``scope``."""
        return zip(*self._scopes[id(scope)][:2])

    def subtree(self, scope: ast.AST) -> Iterator[ast.AST]:
        """The nodes ``ast.walk(scope)`` yields but ``scope``, in another
        order: its own nodes, then its nested scopes' subtrees."""
        own, _, nested = self._scopes[id(scope)]
        return chain(own, *map(self.subtree, nested))

    def walk_order(self, tree: ast.Module) -> List[ast.AST]:
        """A module's imports, classes and defs in ``ast.walk`` order:
        by depth, then in source order, which among nodes of one depth
        is the reverse of the stack walk's."""
        marks = sorted(self._marks[id(tree)][::-1], key=itemgetter(0))
        return [node for _, node in marks]


__all__ = ["SCOPES", "NodeIndex"]
