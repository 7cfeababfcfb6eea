"""The node index: what each scope of a linted module owns.

A scope is a module, a class or a function.  Its *own nodes* are the
nodes below it, in the order of a stack walk that pops the last child
first, and the walk does not enter nested scopes: a nested ``def`` or
``class`` node is listed, but its decorators, arguments and body belong
to the nested scope.  Lambda bodies are entered, because they run in
the enclosing frame.  Each own node is stored next to its parent.

This module is the only code that decides what a scope owns.  The
effect summaries and the RPL2xx checks read whole scopes from
:class:`NodeIndex`.  The index is built once per lint run, with one
stack walk per module.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Tuple

#: Nodes that open a nested scope.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


__all__ = ["SCOPES", "NodeIndex"]
