"""Per-function control-flow graphs over Python ASTs.

A :class:`CFG` is a list of basic blocks.  Each block carries the AST
*items* the transfer function must interpret in order — plain simple
statements, plus structured-statement *headers* (the ``ast.If`` /
``ast.While`` node for its test expression, the ``ast.For`` node for
its iterable and target binding).  Bodies of structured statements live
in their own blocks connected by edges, so a loop becomes a genuine
back edge and the worklist fixpoint in
:mod:`repro.devtools.dataflow` joins facts around it.

Handled control flow: ``if``/``elif``/``else``, ``while``/``for``
(+ ``else``), ``break``/``continue``, ``try``/``except``/``else``/
``finally`` (conservatively: every block of the ``try`` body may jump
to every handler; the ``finally`` runs on every way out of the
``try``, so it follows every block of the body, the ``else`` and the
handlers, and falls through to the exit, to the target of every
``break``/``continue`` in the ``try`` that leaves it, and, when some
path of the body or the handlers falls into it, to the code after the
``try``), ``with``, ``return``/``raise``.  ``match`` is treated as
opaque straight-line code (none in this repo).  Nested function and
class definitions are *name bindings only* — their bodies get their own
CFGs from the caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

#: What a block stores: simple statements, or the header node of a
#: structured statement (only its test/iter is interpreted there).
Item = Union[ast.stmt, ast.expr]


@dataclass
class Block:
    idx: int
    items: List[Item] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)

    def add_succ(self, idx: int) -> None:
        if idx not in self.succs:
            self.succs.append(idx)


@dataclass
class CFG:
    blocks: List[Block]
    entry: int
    exit: int


class _Builder:
    def __init__(self) -> None:
        self.blocks: List[Block] = []
        #: (continue_target, break_target) per enclosing loop.
        self.loops: List[tuple] = []
        #: handler-entry block ids per enclosing ``try``.
        self.handlers: List[List[int]] = []
        #: (loop depth, target block id) of every ``break``/``continue``.
        self.jumps: List[tuple] = []
        self.exit = -1

    def new_block(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def edge(self, src: Block, dst: Block) -> None:
        src.add_succ(dst.idx)

    # -- statement sequences -------------------------------------------
    def seq(self, stmts: Sequence[ast.stmt],
            cur: Optional[Block]) -> Optional[Block]:
        """Thread ``stmts`` through the graph starting at ``cur``;
        returns the fall-through block, or None when every path left."""
        for stmt in stmts:
            if cur is None:
                cur = self.new_block()  # unreachable; keeps analysis total
            cur = self.stmt(stmt, cur)
        return cur

    def _may_raise_to_handlers(self, block: Block) -> None:
        if self.handlers:
            for handler_idx in self.handlers[-1]:
                block.add_succ(handler_idx)

    def stmt(self, node: ast.stmt, cur: Block) -> Optional[Block]:
        if isinstance(node, ast.If):
            cur.items.append(node)
            after = self.new_block()
            then = self.new_block()
            self.edge(cur, then)
            then_end = self.seq(node.body, then)
            if then_end is not None:
                self.edge(then_end, after)
            if node.orelse:
                orelse = self.new_block()
                self.edge(cur, orelse)
                orelse_end = self.seq(node.orelse, orelse)
                if orelse_end is not None:
                    self.edge(orelse_end, after)
            else:
                self.edge(cur, after)
            return after

        if isinstance(node, (ast.While, ast.For, ast.AsyncFor)):
            header = self.new_block()
            self.edge(cur, header)
            header.items.append(node)
            after = self.new_block()
            body = self.new_block()
            self.edge(header, body)
            self.edge(header, after)  # loop may not run / terminates
            self.loops.append((header, after))
            body_end = self.seq(node.body, body)
            self.loops.pop()
            if body_end is not None:
                self.edge(body_end, header)
            if node.orelse:
                orelse = self.new_block()
                self.edge(header, orelse)
                orelse_end = self.seq(node.orelse, orelse)
                if orelse_end is not None:
                    self.edge(orelse_end, after)
            return after

        if isinstance(node, ast.Try):
            handler_blocks = [self.new_block() for _ in node.handlers]
            for handler, block in zip(node.handlers, handler_blocks):
                block.items.append(handler)
            self.handlers.append([b.idx for b in handler_blocks])
            first_body, first_jump = len(self.blocks), len(self.jumps)
            body_start = self.new_block()
            self.edge(cur, body_start)
            self._may_raise_to_handlers(cur)
            body_end = self.seq(node.body, body_start)
            # Any block materialized for the try body may raise into any
            # handler.
            for idx in range(first_body, len(self.blocks)):
                if idx not in {b.idx for b in handler_blocks}:
                    for handler_block in handler_blocks:
                        self.blocks[idx].add_succ(handler_block.idx)
            self.handlers.pop()
            after = self.new_block()
            reached = False
            if body_end is not None:
                orelse_end = self.seq(node.orelse, body_end)
                if orelse_end is not None:
                    self.edge(orelse_end, after)
                    reached = True
            for handler, block in zip(node.handlers, handler_blocks):
                handler_end = self.seq(handler.body, block)
                if handler_end is not None:
                    self.edge(handler_end, after)
                    reached = True
            if not node.finalbody:
                return after
            # The finally runs on every way out of the try: it follows
            # every block of the body, the else and the handlers, and
            # its end reaches the exit, the try's break/continue targets
            # and, when some path falls into it, the code after the try.
            for block in self.blocks[first_body - len(handler_blocks):]:
                if block is not after:
                    self.edge(block, after)
            final_end = self.seq(node.finalbody, after)
            if final_end is None:
                return None
            self.edge(final_end, self.blocks[self.exit])
            for depth, target in self.jumps[first_jump:]:
                if depth == len(self.loops):  # not a nested loop's
                    final_end.add_succ(target)
            if not reached:
                return None
            rest = self.new_block()
            self.edge(final_end, rest)
            return rest

        if isinstance(node, (ast.With, ast.AsyncWith)):
            cur.items.append(node)
            return self.seq(node.body, cur)

        if isinstance(node, (ast.Return, ast.Raise)):
            cur.items.append(node)
            self._may_raise_to_handlers(cur)
            self.edge(cur, self.blocks[self.exit])
            return None

        if isinstance(node, (ast.Break, ast.Continue)):
            if self.loops:
                target = self.loops[-1][isinstance(node, ast.Break)]
                self.edge(cur, target)
                self.jumps.append((len(self.loops), target.idx))
            return None

        # Simple statement (or nested def/class treated as a binding).
        cur.items.append(node)
        if isinstance(node, (ast.Expr, ast.Assign, ast.AugAssign,
                             ast.AnnAssign, ast.Assert, ast.Delete)):
            self._may_raise_to_handlers(cur)
        return cur


def build_cfg(body: Sequence[ast.stmt]) -> CFG:
    """CFG of one statement list (a function body or a module body)."""
    builder = _Builder()
    entry = builder.new_block()
    exit_block = builder.new_block()
    builder.exit = exit_block.idx
    end = builder.seq(body, entry)
    if end is not None:
        builder.edge(end, exit_block)
    return CFG(blocks=builder.blocks, entry=entry.idx, exit=exit_block.idx)


__all__ = ["Block", "CFG", "build_cfg"]
