"""Static scale-hazard rules (RPL301–RPL305).

The checks run over the hot packages and read the per-statement
environments that the dataflow reporting pass
(:func:`repro.devtools.dataflow.analyze_module`) records, so they add
no fixpoint of their own.  Every rule keys on the **dataset-scale
taint**: the ``scale`` component of the
:class:`~repro.devtools.lattice.Fact` lattice, seeded from
``ColumnStore`` / ``FOTDataset`` accessors, loader returns and
dataset-typed parameters.  A loop is only a hazard when *n* is the
ticket count; a loop over the handful of IDCs returned by a ``by_*``
group-by is not.

Rules
-----
RPL301
    Python-level ``for`` statement directly over dataset rows or
    columns.  Column math belongs in numpy; genuinely element-wise
    work belongs in a comprehension feeding ``np.fromiter`` — which is
    exactly the shape ``--fix`` rewrites RPL302 into, so comprehensions
    are deliberately *not* flagged.  Generator functions (``yield``)
    are exempt: streaming serializers must iterate.
RPL302
    Array growth inside a dataset-scale loop: ``np.append`` /
    ``np.concatenate`` re-allocating the target each iteration
    (quadratic copying), or a bare-list ``append`` accumulator that is
    later materialized.  The single-append accumulator form carries a
    machine-applicable fix to a list comprehension.
RPL303
    Redundant materialization: ``np.asarray`` over a value already
    known to be an ndarray (fix: drop the wrapper), and ``.tolist()``
    on a dataset-scale value (boxes every element).
RPL304
    Quadratic patterns: membership tests against list/array operands
    inside loops, nested dataset-scale loops, and dataset-scale
    sort/group-by work performed per iteration of a dataset-scale loop.
RPL305
    Loop-invariant recomputation of expensive calls (group-bys,
    sorts, fingerprints, distribution batch math) — every name the
    call reads is bound outside the loop, so it can be hoisted.

Suppression of deliberate sequential scans uses the justified inline
mechanism (``# reprolint: disable=RPL301 -- reason``),
*not* the baseline: the baseline is for debt, suppressions are for
documented intent.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.devtools.dataflow import _Analyzer
from repro.devtools.index import SCOPES, Subtrees
from repro.devtools.lattice import Env, Fact
from repro.devtools.rules import (
    Edit,
    Finding,
    Fix,
    MUTATOR_METHODS,
    module_parts,
)

#: Packages whose modules sit on the hot path of a full-trace run.
HOT_PACKAGES = frozenset(
    {"core", "engine", "analysis", "serve", "simulation"}
)

#: numpy callables that re-allocate their whole input per call — growth
#: via these inside a loop is quadratic copying.
NP_GROWTH_CALLS = frozenset({"append", "concatenate", "hstack", "vstack"})

#: Plain-name callables considered expensive enough that recomputing
#: them per loop iteration is a finding when loop-invariant.
EXPENSIVE_FUNCS = frozenset({"sorted", "fingerprint"})

#: numpy / scipy-style callables that do batch math over whole arrays.
EXPENSIVE_NP_FUNCS = frozenset(
    {"argsort", "sort", "unique", "percentile", "quantile", "ppf", "cdf",
     "sf", "gammainc", "gammaincc", "erf"}
)

#: Method names that group, sort or fingerprint an entire dataset/array.
EXPENSIVE_METHODS = frozenset(
    {"by_idc", "by_category", "by_component", "by_product_line",
     "by_source", "sorted_by_time", "argsort", "fingerprint", "ppf",
     "cdf", "sf"}
)

#: Iteration wrappers that are transparent for scale purposes:
#: ``for i, t in enumerate(ds.tickets)`` is still a row loop.
_ITER_WRAPPERS = frozenset({"enumerate", "zip", "reversed"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)


def _own_statements(body: Sequence[ast.stmt]):
    """All statements in ``body`` transitively, excluding nested
    function/class bodies."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield stmt
        for field in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, field, None)
            if inner:
                yield from _own_statements(inner)
        for handler in getattr(stmt, "handlers", ()) or ():
            yield from _own_statements(handler.body)


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _bound_names(loop: ast.stmt, subtrees: Subtrees) -> Set[str]:
    """Names (re)bound anywhere inside the loop, including its target —
    an expensive call reading only *other* names is loop-invariant."""
    bound: Set[str] = set()
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        bound |= _names_in(loop.target)
    for node in subtrees.walk(loop):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bound |= _names_in(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            bound |= _names_in(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)) and node is not loop:
            bound |= _names_in(node.target)
        elif isinstance(node, ast.NamedExpr):
            bound |= _names_in(node.target)
        elif isinstance(node, ast.withitem) and node.optional_vars:
            bound |= _names_in(node.optional_vars)
        elif isinstance(node, ast.Call):
            # ``acc.append(x)`` and friends mutate their receiver;
            # plain reads (``dataset.by_idc()``) do not.
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in MUTATOR_METHODS \
                    and isinstance(func.value, ast.Name):
                bound.add(func.value.id)
    return bound


class _FunctionPerf:
    """RPL301–305 checks for one scope the dataflow pass analyzed."""

    def __init__(self, path: str, analyzer: _Analyzer, source: str):
        self.path = path
        self.analyzer = analyzer
        self.body = analyzer.body
        self.source = source
        self.findings: List[Finding] = []
        self.subtrees = analyzer.project.index.subtrees(analyzer.fn)
        self.walk = self.subtrees.walk
        self.is_generator = any(
            isinstance(n, (ast.Yield, ast.YieldFrom))
            for stmt in self.body if not isinstance(stmt, SCOPES)
            for n in self.walk(stmt)
        )
        #: names initialized as empty-list accumulators in this scope.
        self.list_inits: Dict[str, ast.Assign] = {}
        for stmt in _own_statements(self.body):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.List) \
                    and not stmt.value.elts:
                self.list_inits[stmt.targets[0].id] = stmt

    # -- plumbing -------------------------------------------------------
    def env_at(self, stmt: ast.AST) -> Env:
        return self.analyzer.stmt_envs.get(id(stmt), {})

    def fact(self, expr: ast.AST, env: Env) -> Fact:
        return self.analyzer.eval(expr, dict(env))

    def iter_fact(self, expr: ast.AST, env: Env) -> Fact:
        """Scale of a loop's iterable, looking through enumerate/zip."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
                and expr.func.id in _ITER_WRAPPERS:
            fact = Fact()
            for arg in expr.args:
                fact = fact.join(self.fact(arg, env))
            return fact
        return self.fact(expr, env)

    def segment(self, node: ast.AST) -> Optional[str]:
        return ast.get_source_segment(self.source, node)

    def _is_np(self, func: ast.AST) -> Optional[str]:
        """The numpy function name when ``func`` is ``np.<attr>``."""
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in self.analyzer.ctx.numpy_aliases:
            return func.attr
        return None

    def flag(self, rule: str, node: ast.AST, message: str,
             fix: Optional[Fix] = None) -> None:
        self.findings.append(
            Finding(rule, self.path, getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0), message, fix=fix)
        )

    # -- driver ---------------------------------------------------------
    def run(self) -> List[Finding]:
        statements = list(_own_statements(self.body))
        for stmt in statements:
            if isinstance(stmt, ast.For):
                self._check_for_loop(stmt)
            elif isinstance(stmt, ast.While):
                self._check_invariant_calls(stmt, stmt.body)
            self._check_materialization(stmt)
        self._check_list_accumulators(self.body)
        # Nested statement walks can visit one node from two enclosing
        # scopes; keep the first of each identical finding.
        unique: Dict[tuple, Finding] = {}
        for finding in self.findings:
            unique.setdefault(
                (finding.rule, finding.line, finding.col, finding.message),
                finding,
            )
        return list(unique.values())

    # -- RPL301 ---------------------------------------------------------
    def _check_for_loop(self, loop: ast.For) -> None:
        env = self.env_at(loop)
        loop_fact = self.iter_fact(loop.iter, env)
        loop_is_ds = loop_fact.is_dataset_scale
        if loop_is_ds and not self.is_generator:
            self.flag(
                "RPL301", loop,
                "Python-level loop over dataset rows/columns — each of "
                "~n tickets round-trips the interpreter; use a "
                "vectorized column op (boolean masks, np reductions) or "
                "a comprehension feeding np.fromiter",
            )
        self._check_growth(loop, loop_is_ds)
        self._check_quadratic(loop, loop_is_ds)
        self._check_invariant_calls(loop, loop.body)

    # -- RPL302 (np growth form) ----------------------------------------
    def _check_growth(self, loop: ast.For, loop_is_ds: bool) -> None:
        for stmt in _own_statements(loop.body):
            if not isinstance(stmt, (ast.Assign, ast.AugAssign)):
                continue
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            np_name = self._is_np(value.func)
            if np_name not in NP_GROWTH_CALLS:
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            target_names = set()
            for target in targets:
                target_names |= _names_in(target)
            arg_names: Set[str] = set()
            for arg in value.args:
                arg_names |= _names_in(arg)
            env = self.env_at(stmt)
            arg_ds = any(self.fact(arg, env).is_dataset_scale
                         for arg in value.args)
            if target_names & arg_names and (loop_is_ds or arg_ds):
                self.flag(
                    "RPL302", stmt,
                    f"np.{np_name} re-allocates and copies the whole "
                    "array every iteration (quadratic growth) — "
                    "preallocate with np.empty, or collect into a list "
                    "and materialize once after the loop",
                )

    # -- RPL302 (list-append accumulator form) --------------------------
    def _check_list_accumulators(self, body: Sequence[ast.stmt]) -> None:
        for stmt in _own_statements(body):
            if not isinstance(stmt, ast.For):
                continue
            env = self.env_at(stmt)
            if not self.iter_fact(stmt.iter, env).is_dataset_scale:
                continue
            appends = [
                inner for inner in _own_statements(stmt.body)
                if isinstance(inner, ast.Expr)
                and isinstance(inner.value, ast.Call)
                and isinstance(inner.value.func, ast.Attribute)
                and inner.value.func.attr == "append"
                and isinstance(inner.value.func.value, ast.Name)
                and inner.value.func.value.id in self.list_inits
            ]
            for append_stmt in appends:
                acc = append_stmt.value.func.value.id
                if not self._materialized_later(acc, stmt):
                    continue
                fix = self._accumulator_fix(stmt, append_stmt, acc)
                self.flag(
                    "RPL302", append_stmt,
                    f"'{acc}' grows element-by-element over a "
                    "dataset-scale loop and is materialized later — "
                    "build it in one shot with a comprehension (then "
                    "np.fromiter/np.array) instead",
                    fix=fix,
                )

    def _materialized_later(self, acc: str, loop: ast.For) -> bool:
        """True when ``acc`` is fed to np.array/asarray/fromiter after
        the loop — the list was only ever a staging buffer."""
        parent_body = self._body_containing(loop)
        if parent_body is None:
            return False
        after = parent_body[parent_body.index(loop) + 1:]
        for stmt in _own_statements(after):
            for node in self.walk(stmt):
                if isinstance(node, ast.Call):
                    np_name = self._is_np(node.func)
                    if np_name in {"array", "asarray", "fromiter"} \
                            and any(acc in _names_in(arg)
                                    for arg in node.args):
                        return True
        return False

    def _accumulator_fix(self, loop: ast.For, append_stmt: ast.Expr,
                         acc: str) -> Optional[Fix]:
        """Rewrite ``acc = []; for t in it: acc.append(e)`` into
        ``acc = [e for t in it]`` when provably equivalent."""
        init = self.list_inits[acc]
        # The init must immediately precede the loop in the same body.
        parent_body = self._body_containing(loop)
        if parent_body is None or init not in parent_body:
            return None
        if parent_body.index(init) + 1 != parent_body.index(loop):
            return None
        # The loop body must be exactly the single append, no else.
        if loop.orelse or loop.body != [append_stmt]:
            return None
        call = append_stmt.value
        if len(call.args) != 1 or call.keywords:
            return None
        element = call.args[0]
        if acc in _names_in(element):
            return None
        # The loop target must not be read after the loop.
        target_names = _names_in(loop.target)
        for later in _own_statements(parent_body[parent_body.index(loop) + 1:]):
            if _names_in(later) & target_names:
                return None
        element_src = self.segment(element)
        target_src = self.segment(loop.target)
        iter_src = self.segment(loop.iter)
        end_line = getattr(loop, "end_lineno", None)
        end_col = getattr(loop, "end_col_offset", None)
        if None in (element_src, target_src, iter_src, end_line, end_col):
            return None
        replacement = f"{acc} = [{element_src} for {target_src} in {iter_src}]"
        return Fix(
            description=f"build '{acc}' with a list comprehension "
                        "instead of growing it per iteration",
            edits=(Edit(init.lineno, init.col_offset,
                        end_line, end_col, replacement),),
        )

    def _body_containing(self, stmt: ast.stmt) -> Optional[List[ast.stmt]]:
        parent = self.subtrees.parent(stmt)
        for field in ("body", "orelse", "finalbody"):
            body = getattr(parent, field, None)
            if body and stmt in body:
                return body
        return None

    # -- RPL303 ---------------------------------------------------------
    def _check_materialization(self, stmt: ast.stmt) -> None:
        env = self.env_at(stmt)
        for node in self.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            np_name = self._is_np(node.func)
            if np_name == "asarray" and len(node.args) == 1 \
                    and not node.keywords \
                    and isinstance(node.args[0], (ast.Name, ast.Attribute)):
                # Only a plain variable/attribute can be "already an
                # array" — np.asarray over a list display or
                # comprehension is the materialization itself.
                arg = node.args[0]
                fact = self.fact(arg, env)
                if fact.width is not None or fact.column is not None:
                    fix = None
                    arg_src = self.segment(arg)
                    end_line = getattr(node, "end_lineno", None)
                    end_col = getattr(node, "end_col_offset", None)
                    if arg_src and end_line is not None \
                            and end_col is not None:
                        fix = Fix(
                            description="drop the redundant np.asarray "
                                        "wrapper",
                            edits=(Edit(node.lineno, node.col_offset,
                                        end_line, end_col, arg_src),),
                        )
                    self.flag(
                        "RPL303", node,
                        "np.asarray over a value that is already an "
                        "ndarray is a no-op wrapper on the hot path — "
                        "drop it (columns are served as arrays)",
                        fix=fix,
                    )
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "tolist" \
                    and not node.args and not node.keywords:
                receiver = self.fact(node.func.value, env)
                if receiver.is_dataset_scale:
                    self.flag(
                        "RPL303", node,
                        ".tolist() boxes every element of a "
                        "dataset-scale array into Python objects — "
                        "keep it as an ndarray, or slice first",
                    )

    # -- RPL304 ---------------------------------------------------------
    def _check_quadratic(self, loop: ast.For, loop_is_ds: bool) -> None:
        bound = _bound_names(loop, self.subtrees)
        appended_lists = {
            name for name in self.list_inits
            if any(isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "append"
                   and isinstance(n.func.value, ast.Name)
                   and n.func.value.id == name
                   for stmt in _own_statements(loop.body)
                   for n in self.walk(stmt))
        }
        for stmt in _own_statements(loop.body):
            env = self.env_at(stmt)
            for node in self.walk(stmt):
                if isinstance(node, ast.Compare) and any(
                        isinstance(op, (ast.In, ast.NotIn))
                        for op in node.ops):
                    self._check_membership(node, env, appended_lists,
                                           loop_is_ds)
                elif isinstance(node, _COMPREHENSIONS) and loop_is_ds:
                    for gen in node.generators:
                        if self.fact(gen.iter, env).is_dataset_scale:
                            self.flag(
                                "RPL304", node,
                                "comprehension over a dataset-scale "
                                "iterable nested in a dataset-scale "
                                "loop — O(n²); restructure with a "
                                "group-by or vectorized join",
                            )
                            break
                elif isinstance(node, ast.Call) and loop_is_ds:
                    self._check_sort_in_loop(node, env, bound)
            if isinstance(stmt, ast.For) and loop_is_ds:
                env = self.env_at(stmt)
                if self.iter_fact(stmt.iter, env).is_dataset_scale:
                    self.flag(
                        "RPL304", stmt,
                        "nested loop over dataset-scale iterables — "
                        "O(n²) over the trace; group or sort once, "
                        "then merge linearly",
                    )

    def _check_membership(self, node: ast.Compare, env: Env,
                          appended_lists: Set[str],
                          loop_is_ds: bool) -> None:
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.In, ast.NotIn)):
                continue
            fact = self.fact(comparator, env)
            linear_scan = fact.is_dataset_scale and loop_is_ds
            accum_scan = (isinstance(comparator, ast.Name)
                          and comparator.id in appended_lists)
            if linear_scan or accum_scan:
                what = (
                    f"list accumulator '{comparator.id}'"
                    if accum_scan and isinstance(comparator, ast.Name)
                    else "a dataset-scale operand"
                )
                self.flag(
                    "RPL304", node,
                    f"membership test against {what} inside a loop is "
                    "a linear scan per iteration (O(n²)) — use a "
                    "set/dict, or np.isin on whole columns",
                )

    def _check_sort_in_loop(self, node: ast.Call, env: Env,
                            bound: Set[str]) -> None:
        name = None
        arg = None
        if isinstance(node.func, ast.Name) and node.func.id == "sorted" \
                and node.args:
            name, arg = "sorted", node.args[0]
        else:
            np_name = self._is_np(node.func)
            if np_name in {"sort", "argsort", "unique"} and node.args:
                name, arg = f"np.{np_name}", node.args[0]
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in EXPENSIVE_METHODS:
                name, arg = node.func.attr + "()", node.func.value
        if name is None or arg is None:
            return
        if not self.fact(arg, env).is_dataset_scale:
            return
        if _names_in(node) & bound:
            # Depends on the loop variable: genuinely per-iteration
            # work, quadratic-or-worse inside a dataset-scale loop.
            self.flag(
                "RPL304", node,
                f"{name} over a dataset-scale value inside a "
                "dataset-scale loop — n·n log n; sort/group once "
                "outside the loop and reuse the result",
            )

    # -- RPL305 ---------------------------------------------------------
    def _check_invariant_calls(self, loop: ast.AST,
                               body: Sequence[ast.stmt]) -> None:
        bound = _bound_names(loop, self.subtrees)
        for stmt in _own_statements(body):
            env = self.env_at(stmt)
            for node in self.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                label = self._expensive_label(node, env)
                if label is None:
                    continue
                names = _names_in(node)
                if not names or names & bound:
                    continue
                self.flag(
                    "RPL305", node,
                    f"{label} is recomputed every iteration but reads "
                    "nothing the loop changes — hoist it above the "
                    "loop",
                )

    def _expensive_label(self, node: ast.Call,
                         env: Env) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in EXPENSIVE_FUNCS:
            if func.id == "sorted" and node.args \
                    and not self.fact(node.args[0], env).is_dataset_scale:
                return None
            return f"{func.id}(...)"
        np_name = self._is_np(func)
        if np_name in EXPENSIVE_NP_FUNCS:
            return f"np.{np_name}(...)"
        if isinstance(func, ast.Attribute) and func.attr in EXPENSIVE_METHODS:
            receiver = self.fact(func.value, env)
            if func.attr.startswith("by_") or func.attr == "sorted_by_time":
                if not receiver.is_dataset_scale:
                    return None
            return f".{func.attr}(...)"
        return None


# ---------------------------------------------------------------------------
# per-scope entry point
# ---------------------------------------------------------------------------
def check_scope(path: Path, source: str, scope: _Analyzer) -> List[Finding]:
    """RPL3xx findings for one scope that
    :func:`repro.devtools.dataflow.analyze_module` analyzed (hot
    packages only)."""
    parts = module_parts(path)
    if len(parts) < 2 or parts[0] != "repro" or parts[1] not in HOT_PACKAGES:
        return []
    return _FunctionPerf(path.as_posix(), scope, source).run()


__all__ = [
    "HOT_PACKAGES",
    "NP_GROWTH_CALLS",
    "EXPENSIVE_FUNCS",
    "EXPENSIVE_METHODS",
    "check_scope",
]
