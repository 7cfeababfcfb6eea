"""Forward abstract interpretation over Python ASTs for *reprolint*.

Every function (and each module body) is lowered to a CFG
(:mod:`repro.devtools.cfg`) and interpreted over the fact lattice in
:mod:`repro.devtools.lattice` with a classic worklist fixpoint; rules
query the stable per-block environments instead of doing ad-hoc taint
walks.  The interpreter powers four semantic rules on top of the
syntactic RPL001–005 set:

* **RPL101 — time-unit safety.** Facts are seeded from
  :mod:`repro.core.timeutil` (``HOUR``/``DAY``/... are *conversion
  constants*: values in seconds whose division yields the target unit),
  from the FOT schema's timestamp fields and dataset column properties,
  from ``Seconds``/``Hours``/``Days`` annotations and ``@unit(...)``
  decorators, and from canonical name suffixes (``*_seconds``,
  ``*_days``, ...).  Adding, subtracting or comparing two different
  concrete time units is flagged, as is assigning/returning a value
  whose inferred unit contradicts the declared one.
* **RPL102 — no magic unit constants.** Numeric literals like
  ``3600``/``86400`` folded into arithmetic must be the named
  ``timeutil`` constants; the literal silently fixes a unit the reader
  cannot see.
* **RPL103 — dtype width.** Narrowing casts (``astype(np.int32)``,
  ``dtype=np.float32``) and narrow accumulations over time-unit values
  are flagged: int32 sums of second-resolution timestamps overflow and
  float32 cannot even represent a 4-year offset to the second.
* **RPL104 — shard-order determinism.** Values whose iteration order
  depends on set hashing or filesystem listing order (``set``/
  ``frozenset``, ``os.listdir``, ``Path.glob``/``iterdir``) must be
  sorted before they are folded into ordered results inside the
  deterministic packages — the exact bug class that would break the
  sharded engine's bit-equivalence guarantee.

The :class:`DataflowProject` summary pass additionally makes RPL001 and
RPL002 **interprocedural**: a per-function call-graph summary records
(transitively) nondeterministic functions and parameter-mutating
functions, so a deterministic-package call into an unvetted helper that
reads the wall clock — or passes a frozen column view to a function
that writes through its parameter — is flagged at the call site.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from collections import deque
from pathlib import Path
from typing import (
    Callable, Dict, List, Optional, Set, Tuple,
)

from repro.devtools.cfg import CFG, build_cfg
from repro.devtools.lattice import (
    BOTTOM,
    DIMENSIONLESS,
    Env,
    Fact,
    NARROW_WIDTHS,
    TIME_UNITS,
    TOP,
    conversion,
    dimensionless,
    is_time_unit,
    join_envs,
    unit_fact,
)
from repro.devtools.rules import (
    COLUMN_PROPERTIES,
    DETERMINISTIC_PACKAGES,
    Edit,
    Finding,
    Fix,
    MUTATOR_METHODS,
    Project,
    module_name,
    module_parts,
)

# ---------------------------------------------------------------------------
# canonical unit knowledge
# ---------------------------------------------------------------------------
#: timeutil constant -> the unit its division produces.
CONVERSION_CONSTANTS: Dict[str, str] = {
    "MINUTE": "minutes",
    "HOUR": "hours",
    "DAY": "days",
    "MONTH": "months",
    "YEAR": "years",
}

#: Other timeutil exports with a plain unit.
TIMEUTIL_UNIT_EXPORTS: Dict[str, str] = {
    "PAPER_TRACE_SECONDS": "seconds",
    "PAPER_TRACE_DAYS": "days",
}

#: Dataset column properties that are timestamps in trace seconds.
TIME_COLUMN_PROPERTIES = frozenset(
    {"error_times", "op_times", "response_times", "deployed_ats"}
)

#: Annotation names (core.timeutil NewTypes) -> unit.
ANNOTATION_UNITS: Dict[str, str] = {
    "Seconds": "seconds",
    "Minutes": "minutes",
    "Hours": "hours",
    "Days": "days",
    "Months": "months",
    "Years": "years",
}

#: Magic second-count literals that must be written as timeutil
#: constants when folded into arithmetic (RPL102).
MAGIC_LITERALS: Dict[float, Tuple[str, str]] = {
    3600.0: ("HOUR", "hours"),
    86400.0: ("DAY", "days"),
    1440.0: ("DAY / MINUTE", "minutes"),
    604800.0: ("7 * DAY", "days"),
    2592000.0: ("MONTH", "months"),
    31536000.0: ("YEAR", "years"),
}

#: Exact variable/attribute names seeded as trace-second timestamps.
_EXACT_TIME_NAMES: Dict[str, str] = {
    "ts": "seconds",
    "timestamp": "seconds",
    "timestamps": "seconds",
    "deployed_at": "seconds",
    "deployed_ats": "seconds",
    "error_time": "seconds",
    "op_time": "seconds",
}

_UNIT_WORDS: Tuple[Tuple[str, str], ...] = (
    ("seconds", "seconds"),
    ("secs", "seconds"),
    ("minutes", "minutes"),
    ("hours", "hours"),
    ("days", "days"),
    ("months", "months"),
    ("years", "years"),
    ("time", "seconds"),
    ("times", "seconds"),
)

#: Builtins whose result does not depend on the argument's iteration
#: order — iterating an unordered value into them is fine.
ORDER_INSENSITIVE_FUNCS = frozenset(
    {"sorted", "len", "min", "max", "any", "all", "sum", "set", "frozenset"}
)

#: numpy callables that preserve the unit of their first argument.
NP_UNIT_PRESERVING = frozenset(
    {
        "asarray", "array", "ascontiguousarray", "sort", "diff", "maximum",
        "minimum", "median", "mean", "quantile", "percentile", "abs",
        "absolute", "clip", "cumsum", "sum", "nansum", "nanmean",
        "nanmedian", "std", "round", "floor", "ceil", "concatenate",
        "unique", "ravel", "copy", "atleast_1d", "full_like",
    }
)

#: ndarray methods that preserve the receiver's unit.
METHOD_UNIT_PRESERVING = frozenset(
    {
        "mean", "sum", "min", "max", "std", "cumsum", "copy", "clip",
        "round", "reshape", "ravel", "flatten", "take", "compress",
        "item", "astype", "squeeze",
    }
)

#: Accumulating reductions where a narrow dtype overflows (RPL103).
ACCUMULATORS = frozenset({"sum", "cumsum", "nansum", "prod", "cumprod"})

#: Methods returning filesystem-listing-ordered iterables (RPL104).
FS_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob", "scandir"})


def unit_from_name(name: str) -> Optional[str]:
    """Unit implied by a canonical identifier name, or None."""
    lowered = name.lower()
    exact = _EXACT_TIME_NAMES.get(lowered)
    if exact:
        return exact
    if lowered.startswith(("n_", "num_", "count")):
        return None
    for word, unit in _UNIT_WORDS:
        if lowered == word or lowered.endswith("_" + word):
            return unit
    return None


def _magic_literal(node: ast.AST) -> Optional[Tuple[str, str]]:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return MAGIC_LITERALS.get(float(node.value))
    return None


def _annotation_unit(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Name):
        return ANNOTATION_UNITS.get(node.id)
    if isinstance(node, ast.Attribute):
        return ANNOTATION_UNITS.get(node.attr)
    return None


def _decorator_unit(fn: ast.AST) -> Optional[str]:
    for decorator in getattr(fn, "decorator_list", []):
        if not isinstance(decorator, ast.Call) or not decorator.args:
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "unit" and isinstance(decorator.args[0], ast.Constant) \
                and isinstance(decorator.args[0].value, str):
            return decorator.args[0].value
    return None


# ---------------------------------------------------------------------------
# per-module import context
# ---------------------------------------------------------------------------
class ModuleContext:
    """Import aliases and seeded global facts for one module."""

    def __init__(self, module: str, tree: ast.Module):
        self.module = module
        self.numpy_aliases: Set[str] = set()
        self.os_aliases: Set[str] = set()
        self.glob_aliases: Set[str] = set()
        self.timeutil_aliases: Set[str] = set()
        #: names bound by from-imports -> (source module, original name).
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        #: module aliases -> full module name (``import x.y as z``).
        self.module_aliases: Dict[str, str] = {}
        #: facts for names bound at import time (timeutil constants).
        self.global_facts: Dict[str, Fact] = {}
        #: timeutil constant name -> the local name it is bound to
        #: (``from ... import DAY as D`` -> {"DAY": "D"}); the RPL102
        #: auto-fix uses it to reuse existing imports.
        self.conversion_bindings: Dict[str, str] = {}
        #: 1-based line *before* which a new import can be inserted.
        self.import_insert_line: int = 1
        #: final abstract env of the module body (module constants).
        self.module_env: Env = {}
        self._collect(tree)
        self._locate_import_insert(tree)
        if module.endswith("core.timeutil"):
            # Inside timeutil itself ``DAY = 86400.0`` is a bare number;
            # the module is the root of trust, so seed its own constants.
            for const, target in CONVERSION_CONSTANTS.items():
                self.global_facts[const] = conversion(target)
            for const, unit in TIMEUTIL_UNIT_EXPORTS.items():
                self.global_facts[const] = unit_fact(unit)

    def _collect(self, tree: ast.Module) -> None:
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
                            self.conversion_bindings[alias.name] = bound
                        unit = TIMEUTIL_UNIT_EXPORTS.get(alias.name)
                        if unit:
                            self.global_facts[bound] = unit_fact(unit)

    def _locate_import_insert(self, tree: ast.Module) -> None:
        """Line before which an added import keeps the module valid:
        after the last top-level import, else after the docstring."""
        line = 1
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                line = (getattr(node, "end_lineno", node.lineno) or
                        node.lineno) + 1
            elif isinstance(node, ast.Expr) \
                    and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str) and line == 1:
                line = (getattr(node, "end_lineno", node.lineno) or
                        node.lineno) + 1
        self.import_insert_line = line


# ---------------------------------------------------------------------------
# interprocedural summaries
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class FunctionSummary:
    """Call-graph summary of one module-level function."""

    key: str                      # "module.function"
    module: str
    name: str
    node: ast.FunctionDef
    params: List[str]
    declared_unit: Optional[str]
    returns_unit: Optional[str] = None
    returns_unordered: bool = False
    #: parameter name -> 0-based index, for parameters the body mutates.
    mutated_params: Dict[str, int] = dataclasses.field(default_factory=dict)
    nondet_direct: bool = False
    nondet_reason: str = ""
    nondet: bool = False
    callees: Set[str] = dataclasses.field(default_factory=set)

    @property
    def package(self) -> str:
        parts = self.module.split(".")
        return parts[1] if len(parts) > 1 and parts[0] == "repro" else ""


def _collect_mutated_params(fn: ast.FunctionDef) -> Dict[str, int]:
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


class DataflowProject(Project):
    """Cross-file context on top of :class:`Project`: module contexts,
    call graph and summaries."""

    def __init__(self, trees: Dict[Path, ast.Module], summary_rounds: int = 3):
        super().__init__(trees)
        self.trees = trees
        self.contexts: Dict[str, ModuleContext] = {}
        self.summaries: Dict[str, FunctionSummary] = {}
        #: per-module resolution map: local name -> summary key.
        self.resolution: Dict[str, Dict[str, str]] = {}
        for path, tree in trees.items():
            module = module_name(path)
            self.contexts[module] = ModuleContext(module, tree)
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self._add_summary(module, node)
        self._resolve_calls()
        self._seed_nondeterminism()
        self._compute_module_envs()
        self._infer_summaries(summary_rounds)
        self._propagate_nondeterminism()

    # -- construction ---------------------------------------------------
    def _add_summary(self, module: str, node: ast.FunctionDef) -> None:
        key = f"{module}.{node.name}"
        declared = (
            _decorator_unit(node)
            or _annotation_unit(node.returns)
            or unit_from_name(node.name)
        )
        self.summaries[key] = FunctionSummary(
            key=key,
            module=module,
            name=node.name,
            node=node,
            params=[a.arg for a in node.args.posonlyargs + node.args.args],
            declared_unit=declared,
            returns_unit=declared,
            mutated_params=_collect_mutated_params(node),
        )

    def _resolve_calls(self) -> None:
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
        for summary in self.summaries.values():
            for node in ast.walk(summary.node):
                if isinstance(node, ast.Call):
                    callee = self.summary_for_call(summary.module, node.func)
                    if callee is not None:
                        summary.callees.add(callee.key)

    def _seed_nondeterminism(self) -> None:
        for path, findings in self.determinism.items():
            if not findings:
                continue
            module = module_name(path)
            for summary in self.summaries.values():
                if summary.module != module:
                    continue
                start = summary.node.lineno
                end = getattr(summary.node, "end_lineno", start)
                for finding in findings:
                    if start <= finding.line <= end:
                        summary.nondet_direct = True
                        summary.nondet_reason = finding.message
                        break

    def _compute_module_envs(self) -> None:
        """Abstractly execute each module body once so module-level
        constants (``_MAX_SKEW_SECONDS = 6 * HOUR``) are visible to
        function analyses in the same module."""
        for path, tree in self.trees.items():
            module = module_name(path)
            ctx = self.contexts[module]
            analyzer = _Analyzer(path="", ctx=ctx, project=self,
                                 flags=_RuleFlags(), fn=tree)
            analyzer.run()
            ctx.module_env = analyzer.exit_env

    def _infer_summaries(self, rounds: int) -> None:
        """Iterate return-fact inference to a (bounded) fixpoint so unit
        facts flow through helper calls."""
        for _ in range(max(1, rounds)):
            changed = False
            for summary in self.summaries.values():
                analyzer = _Analyzer(
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

    def _propagate_nondeterminism(self) -> None:
        for summary in self.summaries.values():
            summary.nondet = summary.nondet_direct
        changed = True
        while changed:
            changed = False
            for summary in self.summaries.values():
                if summary.nondet:
                    continue
                for callee in sorted(summary.callees):
                    target = self.summaries.get(callee)
                    if target is not None and target.nondet:
                        summary.nondet = True
                        if not summary.nondet_reason:
                            summary.nondet_reason = (
                                f"calls nondeterministic '{target.name}'"
                            )
                        changed = True
                        break

    # -- lookups --------------------------------------------------------
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


# ---------------------------------------------------------------------------
# the abstract interpreter
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class _RuleFlags:
    """Which rule families apply to the scope being analyzed."""

    units: bool = False          # RPL101 + RPL102 + RPL103
    order: bool = False          # RPL104
    inter_determinism: bool = False   # interprocedural RPL001
    inter_immutability: bool = False  # interprocedural RPL002


class _Analyzer:
    """Worklist fixpoint + reporting pass over one function or module
    scope."""

    def __init__(
        self,
        path: str,
        ctx: ModuleContext,
        project: Optional["DataflowProject"],
        flags: _RuleFlags,
        fn: ast.AST,
    ):
        self.path = path
        self.ctx = ctx
        self.project = project
        self.flags = flags
        #: the scope: a def node, or the module for the module body.
        self.fn = fn
        self.body = list(fn.body)
        self.cfg: CFG = build_cfg(
            [s for s in self.body
             if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))]
        )
        self.findings: List[Finding] = []
        self.declared_unit: Optional[str] = None
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.declared_unit = (
                _decorator_unit(fn)
                or _annotation_unit(fn.returns)
                or unit_from_name(fn.name)
            )
        self._emitting = False
        self._return_fact = BOTTOM
        self.exit_env: Env = {}

    # -- driver ---------------------------------------------------------
    def run(self) -> Fact:
        """Fixpoint then reporting pass; returns the joined fact of all
        ``return`` expressions (the function's summary fact)."""
        in_envs: Dict[int, Env] = {self.cfg.entry: self._seed_env()}
        worklist = deque([self.cfg.entry])
        iterations = 0
        limit = 50 * max(1, len(self.cfg.blocks))
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
        self._emitting = False
        self.exit_env = in_envs.get(self.cfg.exit, {})
        return self._return_fact

    def _seed_env(self) -> Env:
        env: Env = {}
        if isinstance(self.fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = self.fn.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                unit = _annotation_unit(arg.annotation) \
                    or unit_from_name(arg.arg)
                if unit:
                    env[arg.arg] = unit_fact(unit)
        return env

    # -- reporting ------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, message: str,
              fix: Optional[Fix] = None) -> None:
        if self._emitting:
            self.findings.append(
                Finding(rule, self.path, getattr(node, "lineno", 1),
                        getattr(node, "col_offset", 0), message, fix=fix)
            )

    # -- block transfer --------------------------------------------------
    def _transfer_block(self, idx: int, env: Env) -> Env:
        for item in self.cfg.blocks[idx].items:
            self._transfer_item(item, env)
        return env

    def _transfer_item(self, item: ast.AST, env: Env) -> None:
        if isinstance(item, ast.Assign):
            targets = item.targets
            if (len(targets) == 1
                    and isinstance(targets[0], (ast.Tuple, ast.List))
                    and isinstance(item.value, (ast.Tuple, ast.List))
                    and len(targets[0].elts) == len(item.value.elts)):
                # Element-wise tuple assignment: evaluate each value
                # exactly once so findings are not duplicated.
                facts = [self.eval(element, env)
                         for element in item.value.elts]
                for sub_target, sub_fact in zip(targets[0].elts, facts):
                    self._bind_quiet(sub_target, sub_fact, env)
                return
            fact = self.eval(item.value, env)
            for target in targets:
                self._bind(target, item.value, fact, env)
        elif isinstance(item, ast.AnnAssign):
            declared = _annotation_unit(item.annotation)
            fact = self.eval(item.value, env) if item.value is not None else BOTTOM
            if declared:
                self._check_declared(item, declared, fact)
                fact = fact.with_unit(declared)
            if isinstance(item.target, ast.Name):
                self._bind(item.target, item.value, fact, env)
        elif isinstance(item, ast.AugAssign):
            value = self.eval(item.value, env)
            if isinstance(item.target, ast.Name):
                current = env.get(item.target.id, BOTTOM)
                env[item.target.id] = self._binop_fact(
                    item, item.op, current, value,
                    item.target, item.value, env,
                )
            else:
                self.eval(item.target, env)
        elif isinstance(item, ast.Return):
            if item.value is not None:
                fact = self.eval(item.value, env)
                self._return_fact = self._return_fact.join(fact)
                if self.declared_unit:
                    self._check_return(item, fact)
        elif isinstance(item, (ast.If, ast.While)):
            self.eval(item.test, env)
        elif isinstance(item, (ast.For, ast.AsyncFor)):
            self._transfer_for(item, env)
        elif isinstance(item, (ast.With, ast.AsyncWith)):
            for with_item in item.items:
                self.eval(with_item.context_expr, env)
                if isinstance(with_item.optional_vars, ast.Name):
                    env[with_item.optional_vars.id] = BOTTOM
        elif isinstance(item, ast.ExceptHandler):
            if item.name:
                env[item.name] = BOTTOM
        elif isinstance(item, ast.Expr):
            self.eval(item.value, env)
        elif isinstance(item, ast.Assert):
            self.eval(item.test, env)
        elif isinstance(item, ast.Delete):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            env[item.name] = BOTTOM
        elif isinstance(item, ast.Raise):
            if item.exc is not None:
                self.eval(item.exc, env)
        elif isinstance(item, (ast.Global, ast.Nonlocal, ast.Pass,
                               ast.Import, ast.ImportFrom)):
            pass
        elif isinstance(item, ast.expr):
            self.eval(item, env)

    def _transfer_for(self, node: ast.AST, env: Env) -> None:
        iter_fact = self.eval(node.iter, env)
        if iter_fact.unordered:
            self._flag_order(node.iter, "a for-loop")
        element = Fact(unit=iter_fact.unit, width=iter_fact.width)
        if isinstance(node.target, ast.Name):
            env[node.target.id] = element
        else:
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    env[name_node.id] = BOTTOM

    def _flag_order(self, node: ast.AST, sink: str) -> None:
        if self.flags.order:
            self._flag(
                "RPL104", node,
                f"iteration order of this value is nondeterministic "
                f"(set hashing / filesystem listing) and {sink} folds it "
                "into an ordered result — sort it first, or the sharded "
                "engine's bit-equivalence breaks",
            )

    # -- binding --------------------------------------------------------
    def _bind(self, target: ast.AST, value: Optional[ast.AST],
              fact: Fact, env: Env) -> None:
        if isinstance(target, ast.Name):
            self._check_declared_name(target, target.id, fact)
            env[target.id] = fact
        elif isinstance(target, ast.Attribute):
            self._check_declared_name(target, target.attr, fact)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for sub_target in target.elts:
                self._bind_quiet(sub_target, BOTTOM, env)
        elif isinstance(target, ast.Subscript):
            self.eval(target.value, env)

    def _bind_quiet(self, target: ast.AST, fact: Fact, env: Env) -> None:
        if isinstance(target, ast.Name):
            self._check_declared_name(target, target.id, fact)
            env[target.id] = fact
        elif isinstance(target, (ast.Tuple, ast.List)):
            for sub in target.elts:
                self._bind_quiet(sub, BOTTOM, env)

    def _check_declared_name(self, node: ast.AST, name: str,
                             fact: Fact) -> None:
        if not self.flags.units:
            return
        declared = unit_from_name(name)
        if declared and is_time_unit(declared) and fact.is_time \
                and fact.unit != declared and not fact.is_conversion:
            self._flag(
                "RPL101", node,
                f"assigns a value in {fact.unit} to '{name}', which is "
                f"named as {declared} — convert via core.timeutil first",
            )

    def _check_declared(self, node: ast.AST, declared: str,
                        fact: Fact) -> None:
        if self.flags.units and is_time_unit(declared) and fact.is_time \
                and fact.unit != declared:
            self._flag(
                "RPL101", node,
                f"annotated as {declared} but the value is in {fact.unit}",
            )

    def _check_return(self, node: ast.AST, fact: Fact) -> None:
        if self.flags.units and is_time_unit(self.declared_unit) \
                and fact.is_time and fact.unit != self.declared_unit \
                and not fact.is_conversion:
            self._flag(
                "RPL101", node,
                f"returns a value in {fact.unit} from a function declared "
                f"to return {self.declared_unit}",
            )

    # -- expressions -----------------------------------------------------
    def eval(self, node: Optional[ast.AST], env: Env,
             order_ok: bool = False) -> Fact:
        if node is None:
            return BOTTOM
        method: Optional[Callable] = getattr(
            self, f"_eval_{type(node).__name__}", None
        )
        if method is not None:
            return method(node, env, order_ok)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child, env)
        return BOTTOM

    def _eval_Constant(self, node: ast.Constant, env: Env,
                       order_ok: bool) -> Fact:
        if isinstance(node.value, bool) or node.value is None \
                or isinstance(node.value, str):
            return BOTTOM
        if isinstance(node.value, (int, float)):
            return dimensionless()
        return BOTTOM

    def _eval_Name(self, node: ast.Name, env: Env, order_ok: bool) -> Fact:
        if node.id in env:
            return env[node.id]
        if node.id in self.ctx.global_facts:
            return self.ctx.global_facts[node.id]
        if node.id in self.ctx.module_env:
            return self.ctx.module_env[node.id]
        unit = unit_from_name(node.id)
        return unit_fact(unit) if unit else BOTTOM

    def _eval_Attribute(self, node: ast.Attribute, env: Env,
                        order_ok: bool) -> Fact:
        base = node.value
        if isinstance(base, ast.Name) and base.id in self.ctx.timeutil_aliases:
            target = CONVERSION_CONSTANTS.get(node.attr)
            if target:
                return conversion(target)
            unit = TIMEUTIL_UNIT_EXPORTS.get(node.attr)
            if unit:
                return unit_fact(unit)
        base_fact = self.eval(base, env)
        if node.attr in COLUMN_PROPERTIES:
            unit = "seconds" if node.attr in TIME_COLUMN_PROPERTIES else None
            return Fact(unit=unit, column=f"column property '.{node.attr}'")
        unit = unit_from_name(node.attr)
        if unit:
            return unit_fact(unit)
        if node.attr in {"keys", "values", "items"}:
            return base_fact  # bound method; Call handling reads .unordered
        return BOTTOM

    def _eval_Subscript(self, node: ast.Subscript, env: Env,
                        order_ok: bool) -> Fact:
        base = self.eval(node.value, env)
        self.eval(node.slice, env)
        column = base.column
        if column and not column.startswith("view of"):
            column = f"view of {column}"
        return Fact(unit=base.unit, width=base.width, column=column)

    def _eval_Starred(self, node: ast.Starred, env: Env,
                      order_ok: bool) -> Fact:
        fact = self.eval(node.value, env)
        if fact.unordered and not order_ok:
            self._flag_order(node, "star-unpacking")
        return fact

    def _eval_UnaryOp(self, node: ast.UnaryOp, env: Env,
                      order_ok: bool) -> Fact:
        fact = self.eval(node.operand, env)
        if isinstance(node.op, ast.Not):
            return dimensionless()
        return fact

    def _eval_BoolOp(self, node: ast.BoolOp, env: Env,
                     order_ok: bool) -> Fact:
        result = BOTTOM
        for value in node.values:
            result = result.join(self.eval(value, env))
        return result

    def _eval_IfExp(self, node: ast.IfExp, env: Env, order_ok: bool) -> Fact:
        self.eval(node.test, env)
        return self.eval(node.body, env).join(self.eval(node.orelse, env))

    def _eval_Tuple(self, node: ast.Tuple, env: Env, order_ok: bool) -> Fact:
        result = BOTTOM
        for element in node.elts:
            result = result.join(self.eval(element, env, order_ok=order_ok))
        return result

    _eval_List = _eval_Tuple

    def _eval_Set(self, node: ast.Set, env: Env, order_ok: bool) -> Fact:
        result = BOTTOM
        for element in node.elts:
            result = result.join(self.eval(element, env))
        return dataclasses.replace(result, unordered=True, column=None)

    def _eval_Dict(self, node: ast.Dict, env: Env, order_ok: bool) -> Fact:
        for key in node.keys:
            if key is not None:
                self.eval(key, env)
        for value in node.values:
            self.eval(value, env)
        return BOTTOM

    def _eval_JoinedStr(self, node: ast.JoinedStr, env: Env,
                        order_ok: bool) -> Fact:
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                self.eval(value.value, env)
        return BOTTOM

    def _eval_Lambda(self, node: ast.Lambda, env: Env,
                     order_ok: bool) -> Fact:
        return BOTTOM

    def _eval_NamedExpr(self, node: ast.NamedExpr, env: Env,
                        order_ok: bool) -> Fact:
        fact = self.eval(node.value, env, order_ok=order_ok)
        if isinstance(node.target, ast.Name):
            env[node.target.id] = fact
        return fact

    def _eval_Compare(self, node: ast.Compare, env: Env,
                      order_ok: bool) -> Fact:
        membership = all(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        left_fact = self.eval(node.left, env)
        previous = left_fact
        for op, comparator in zip(node.ops, node.comparators):
            current = self.eval(comparator, env, order_ok=membership)
            if self.flags.units and not isinstance(op, (ast.In, ast.NotIn,
                                                        ast.Is, ast.IsNot)):
                if previous.is_time and current.is_time \
                        and previous.unit != current.unit:
                    self._flag(
                        "RPL101", node,
                        f"comparing a value in {previous.unit} to a value "
                        f"in {current.unit} — convert via core.timeutil "
                        "before comparing",
                    )
            previous = current
        return dimensionless()

    # -- comprehensions --------------------------------------------------
    def _eval_comprehension(self, node: ast.AST, env: Env,
                            order_ok: bool) -> Tuple[Env, bool]:
        inner = dict(env)
        source_unordered = False
        for gen in node.generators:
            iter_fact = self.eval(gen.iter, inner)
            if iter_fact.unordered:
                if isinstance(node, (ast.SetComp, ast.DictComp)) or order_ok:
                    source_unordered = True
                else:
                    self._flag_order(gen.iter, "a comprehension")
            element = Fact(unit=iter_fact.unit, width=iter_fact.width)
            if isinstance(gen.target, ast.Name):
                inner[gen.target.id] = element
            else:
                for name_node in ast.walk(gen.target):
                    if isinstance(name_node, ast.Name):
                        inner[name_node.id] = BOTTOM
            for condition in gen.ifs:
                self.eval(condition, inner)
        return inner, source_unordered

    def _eval_ListComp(self, node: ast.ListComp, env: Env,
                       order_ok: bool) -> Fact:
        inner, unordered = self._eval_comprehension(node, env, order_ok)
        fact = self.eval(node.elt, inner)
        return dataclasses.replace(fact, unordered=unordered, column=None)

    _eval_GeneratorExp = _eval_ListComp

    def _eval_SetComp(self, node: ast.SetComp, env: Env,
                      order_ok: bool) -> Fact:
        inner, _ = self._eval_comprehension(node, env, order_ok)
        fact = self.eval(node.elt, inner)
        return dataclasses.replace(fact, unordered=True, column=None)

    def _eval_DictComp(self, node: ast.DictComp, env: Env,
                       order_ok: bool) -> Fact:
        inner, unordered = self._eval_comprehension(node, env, order_ok)
        self.eval(node.key, inner)
        self.eval(node.value, inner)
        return Fact(unordered=unordered)

    # -- arithmetic ------------------------------------------------------
    def _eval_BinOp(self, node: ast.BinOp, env: Env, order_ok: bool) -> Fact:
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        return self._binop_fact(node, node.op, left, right,
                                node.left, node.right, env)

    def _binop_fact(self, node: ast.AST, op: ast.operator,
                    left: Fact, right: Fact,
                    left_node: ast.AST, right_node: ast.AST,
                    env: Env) -> Fact:
        if self.flags.units:
            for operand_node in (left_node, right_node):
                magic = _magic_literal(operand_node)
                if magic and isinstance(op, (ast.Mult, ast.Div, ast.FloorDiv,
                                             ast.Mod)):
                    constant, target = magic
                    self._flag(
                        "RPL102", node,
                        f"magic time constant "
                        f"{ast.literal_eval(operand_node):g} folded into "
                        f"arithmetic — use core.timeutil.{constant} so the "
                        "unit is visible",
                        fix=self._rpl102_fix(operand_node, constant),
                    )
        # Treat a magic literal as the conversion constant it encodes so
        # downstream unit inference stays coherent.
        left_magic = _magic_literal(left_node)
        right_magic = _magic_literal(right_node)
        if left_magic:
            left = conversion(left_magic[1])
        if right_magic:
            right = conversion(right_magic[1])

        unordered = left.unordered or right.unordered
        result = self._binop_unit(node, op, left, right)
        return dataclasses.replace(result, unordered=unordered)

    def _binop_unit(self, node: ast.AST, op: ast.operator,
                    left: Fact, right: Fact) -> Fact:
        if isinstance(op, (ast.Add, ast.Sub)):
            if self.flags.units and left.is_time and right.is_time \
                    and left.unit != right.unit:
                self._flag(
                    "RPL101", node,
                    f"mixing time units: {left.unit} "
                    f"{'+' if isinstance(op, ast.Add) else '-'} "
                    f"{right.unit} — convert via core.timeutil first",
                )
                return Fact(unit=TOP)
            if left.is_time:
                return unit_fact(left.unit)
            if right.is_time:
                return unit_fact(right.unit)
            if left.unit == DIMENSIONLESS and right.unit == DIMENSIONLESS:
                return dimensionless()
            return BOTTOM

        if isinstance(op, ast.Mult):
            if left.is_conversion and not right.is_conversion:
                return self._mult_conversion(node, right, left)
            if right.is_conversion and not left.is_conversion:
                return self._mult_conversion(node, left, right)
            if left.is_conversion and right.is_conversion:
                return Fact(unit=TOP)
            if left.is_time and right.unit in (DIMENSIONLESS, None, TOP):
                return unit_fact(left.unit)
            if right.is_time and left.unit in (DIMENSIONLESS, None, TOP):
                return unit_fact(right.unit)
            if left.unit == DIMENSIONLESS and right.unit == DIMENSIONLESS:
                return dimensionless()
            return BOTTOM

        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if left.is_conversion and right.is_conversion:
                # DAY / MINUTE — a units-per-unit ratio, dimensionless.
                return dimensionless()
            if right.is_conversion:
                if left.unit == "seconds" and not left.is_conversion:
                    return unit_fact(right.conv)
                if left.is_time:
                    self._maybe_flag_conversion(
                        node, f"dividing a value in {left.unit} by "
                        f"seconds-per-{_singular(right.conv)} — double "
                        "conversion or missing one",
                    )
                    return Fact(unit=TOP)
                if left.unit == DIMENSIONLESS:
                    return BOTTOM
                return unit_fact(right.conv)
            if left.is_conversion:
                if right.unit in (DIMENSIONLESS, None, TOP):
                    return unit_fact("seconds")
                return Fact(unit=TOP)
            if left.is_time and right.is_time:
                if left.unit == right.unit:
                    return dimensionless()
                self._maybe_flag_conversion(
                    node, f"dividing {left.unit} by {right.unit} — "
                    "mismatched units",
                )
                return Fact(unit=TOP)
            if left.is_time:
                return unit_fact(left.unit)
            if left.unit == DIMENSIONLESS and right.unit == DIMENSIONLESS:
                return dimensionless()
            return BOTTOM

        if isinstance(op, ast.Mod):
            if right.is_conversion:
                return unit_fact(left.unit if left.is_time else "seconds")
            if self.flags.units and left.is_time and right.is_time \
                    and left.unit != right.unit:
                self._flag(
                    "RPL101", node,
                    f"mixing time units: {left.unit} % {right.unit}",
                )
                return Fact(unit=TOP)
            if left.is_time:
                return unit_fact(left.unit)
            return BOTTOM

        return BOTTOM

    def _rpl102_fix(self, operand_node: ast.AST,
                    constant_expr: str) -> Optional[Fix]:
        """Span rewrite replacing a magic literal with the named
        ``core.timeutil`` constant(s), reusing an existing import or
        adding one."""
        end_line = getattr(operand_node, "end_lineno", None)
        end_col = getattr(operand_node, "end_col_offset", None)
        if end_line is None or end_col is None or not self.path:
            return None
        rendered = constant_expr
        imports_needed: List[str] = []
        for name in CONVERSION_CONSTANTS:
            if not re.search(rf"\b{name}\b", constant_expr):
                continue
            bound = self.ctx.conversion_bindings.get(name)
            if bound is not None:
                if bound != name:
                    rendered = re.sub(rf"\b{name}\b", bound, rendered)
            elif self.ctx.timeutil_aliases:
                alias = sorted(self.ctx.timeutil_aliases)[0]
                rendered = re.sub(rf"\b{name}\b", f"{alias}.{name}", rendered)
            else:
                imports_needed.append(name)
        if " " in rendered:
            rendered = f"({rendered})"
        edits = [
            Edit(operand_node.lineno, operand_node.col_offset,
                 end_line, end_col, rendered)
        ]
        if imports_needed:
            line = self.ctx.import_insert_line
            names = ", ".join(sorted(set(imports_needed)))
            edits.append(
                Edit(line, 0, line, 0,
                     f"from repro.core.timeutil import {names}\n")
            )
        return Fix(
            description=f"replace magic time constant with "
                        f"core.timeutil {constant_expr}",
            edits=tuple(edits),
        )

    def _mult_conversion(self, node: ast.AST, value: Fact,
                         conv: Fact) -> Fact:
        if value.unit == conv.conv:
            return unit_fact("seconds")
        if value.unit in (DIMENSIONLESS, None, TOP):
            return unit_fact("seconds")
        if value.is_time:
            self._maybe_flag_conversion(
                node, f"multiplying a value in {value.unit} by "
                f"seconds-per-{_singular(conv.conv)} — the result is in "
                "no coherent unit",
            )
            return Fact(unit=TOP)
        return unit_fact("seconds")

    def _maybe_flag_conversion(self, node: ast.AST, message: str) -> None:
        if self.flags.units:
            self._flag("RPL101", node, message)

    # -- calls -----------------------------------------------------------
    def _eval_Call(self, node: ast.Call, env: Env, order_ok: bool) -> Fact:
        func = node.func
        arg_order_ok = False
        func_name = func.id if isinstance(func, ast.Name) else None
        if func_name in ORDER_INSENSITIVE_FUNCS:
            arg_order_ok = True
        arg_facts = [self.eval(arg, env, order_ok=arg_order_ok)
                     for arg in node.args]
        kw_facts: Dict[str, Fact] = {}
        for keyword in node.keywords:
            kw_facts[keyword.arg or "**"] = self.eval(keyword.value, env)
            if keyword.arg:
                self._check_declared_kwarg(keyword, kw_facts[keyword.arg])
        first = arg_facts[0] if arg_facts else BOTTOM

        # ---- plain-name callables -------------------------------------
        if func_name is not None:
            if func_name in ANNOTATION_UNITS:
                return unit_fact(ANNOTATION_UNITS[func_name])
            if func_name in {"float", "int", "abs", "round"}:
                return dataclasses.replace(first, column=None)
            if func_name in {"min", "max", "sum"}:
                return Fact(unit=first.unit, width=first.width)
            if func_name == "sorted":
                return dataclasses.replace(first, unordered=False,
                                           column=None)
            if func_name in {"set", "frozenset"}:
                return Fact(unit=first.unit, unordered=True)
            if func_name in {"list", "tuple"}:
                if first.unordered and not order_ok:
                    self._flag_order(node, f"{func_name}() materialization")
                return dataclasses.replace(first, unordered=False,
                                           column=None)
            if func_name == "len":
                return dimensionless()
            summary = self._project_summary(func)
            if summary is not None:
                return self._apply_summary(node, summary, arg_facts)
            return BOTTOM

        # ---- attribute callables --------------------------------------
        if isinstance(func, ast.Attribute):
            base = func.value
            attr = func.attr
            if isinstance(base, ast.Name):
                if base.id in self.ctx.numpy_aliases:
                    return self._eval_numpy_call(node, attr, arg_facts,
                                                 kw_facts, env)
                if base.id in self.ctx.os_aliases \
                        and attr in {"listdir", "scandir"}:
                    return Fact(unordered=True)
                if base.id in self.ctx.glob_aliases \
                        and attr in {"glob", "iglob"}:
                    return Fact(unordered=True)
            summary = self._project_summary(func)
            if summary is not None:
                return self._apply_summary(node, summary, arg_facts)
            receiver = self.eval(base, env)
            return self._eval_method_call(node, attr, receiver, arg_facts,
                                          kw_facts)
        self.eval(func, env)
        return BOTTOM

    def _check_declared_kwarg(self, keyword: ast.keyword, fact: Fact) -> None:
        if not self.flags.units or keyword.arg is None:
            return
        declared = unit_from_name(keyword.arg)
        if declared and is_time_unit(declared) and fact.is_time \
                and fact.unit != declared and not fact.is_conversion:
            self._flag(
                "RPL101", keyword.value,
                f"passes a value in {fact.unit} as '{keyword.arg}', which "
                f"is named as {declared}",
            )

    def _project_summary(self, func: ast.AST) -> Optional[FunctionSummary]:
        if self.project is None:
            return None
        return self.project.summary_for_call(self.ctx.module, func)

    def _apply_summary(self, node: ast.Call, summary: FunctionSummary,
                       arg_facts: List[Fact]) -> Fact:
        if self.flags.inter_determinism and summary.nondet \
                and summary.package not in DETERMINISTIC_PACKAGES:
            self._flag(
                "RPL001", node,
                f"call to '{summary.name}' ({summary.module}) which is "
                f"nondeterministic: {summary.nondet_reason}",
            )
        if self.flags.inter_immutability and summary.mutated_params:
            mutated_by_index = {index: name for name, index
                               in summary.mutated_params.items()}
            for position, fact in enumerate(arg_facts):
                if fact.column and position in mutated_by_index:
                    self._flag(
                        "RPL002", node.args[position],
                        f"passes {fact.column} to '{summary.name}' "
                        f"({summary.module}), which mutates its parameter "
                        f"'{mutated_by_index[position]}' — column views "
                        "are immutable",
                    )
        return Fact(
            unit=summary.returns_unit if is_time_unit(summary.returns_unit)
            else None,
            unordered=summary.returns_unordered,
        )

    def _dtype_width(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    def _check_narrowing(self, node: ast.AST, width: Optional[str],
                         operand: Fact, context: str) -> None:
        if not self.flags.units or width is None:
            return
        if width in NARROW_WIDTHS and operand.is_time:
            self._flag(
                "RPL103", node,
                f"{context} narrows a value in {operand.unit} to {width} — "
                "second-resolution offsets over a multi-year trace "
                "overflow int32 sums and exceed float32 precision; keep "
                "int64/float64",
            )

    def _eval_numpy_call(self, node: ast.Call, attr: str,
                         arg_facts: List[Fact], kw_facts: Dict[str, Fact],
                         env: Env) -> Fact:
        first = arg_facts[0] if arg_facts else BOTTOM
        dtype_node = next(
            (kw.value for kw in node.keywords if kw.arg == "dtype"), None
        )
        width = self._dtype_width(dtype_node) if dtype_node is not None else None
        if width is not None:
            self._check_narrowing(node, width, first, f"np.{attr}(dtype=...)")
        if attr in {"int8", "int16", "int32", "uint8", "uint16", "uint32",
                    "float16", "float32"}:
            self._check_narrowing(node, attr, first, f"np.{attr}(...)")
            return dataclasses.replace(first, width=attr, column=None)
        if attr == "fromiter":
            if first.unordered:
                self._flag_order(node, "np.fromiter")
            return Fact(unit=first.unit, width=width)
        if attr in ACCUMULATORS and first.is_narrow:
            self._check_narrowing(node, first.width, first,
                                  f"np.{attr}() accumulation")
        if attr in NP_UNIT_PRESERVING:
            unit = first.unit if first.is_time or first.unit == DIMENSIONLESS \
                else None
            ordered = attr in {"sort", "unique"}
            if attr == "where" and len(arg_facts) == 3:
                joined = arg_facts[1].join(arg_facts[2])
                unit = joined.unit if is_time_unit(joined.unit) else None
            return Fact(unit=unit, width=width or first.width,
                        unordered=False if ordered else first.unordered)
        return BOTTOM

    def _eval_method_call(self, node: ast.Call, attr: str, receiver: Fact,
                          arg_facts: List[Fact],
                          kw_facts: Dict[str, Fact]) -> Fact:
        if attr == "astype" and node.args:
            width = self._dtype_width(node.args[0])
            self._check_narrowing(node, width, receiver, ".astype(...)")
            return dataclasses.replace(receiver, width=width, column=None)
        if attr in ACCUMULATORS and receiver.is_narrow:
            self._check_narrowing(node, receiver.width, receiver,
                                  f".{attr}() accumulation")
        if attr == "total_seconds":
            return unit_fact("seconds")
        if attr in FS_LISTING_METHODS:
            return Fact(unordered=True)
        if attr in {"keys", "values", "items"}:
            return Fact(unordered=receiver.unordered)
        if attr in METHOD_UNIT_PRESERVING:
            return Fact(unit=receiver.unit
                        if receiver.is_time or receiver.unit == DIMENSIONLESS
                        else None,
                        width=receiver.width)
        unit = unit_from_name(attr)
        if unit:
            return unit_fact(unit)
        return BOTTOM


def _singular(unit: Optional[str]) -> str:
    return unit.rstrip("s") if unit else "?"


# ---------------------------------------------------------------------------
# per-file entry point
# ---------------------------------------------------------------------------
def _flags_for(parts: Tuple[str, ...]) -> _RuleFlags:
    if not parts or parts[0] != "repro":
        return _RuleFlags()
    package = parts[1] if len(parts) > 1 else ""
    in_deterministic = package in DETERMINISTIC_PACKAGES
    return _RuleFlags(
        units=True,
        order=in_deterministic,
        inter_determinism=in_deterministic,
        inter_immutability=True,
    )


def analyze_module(path: Path, tree: ast.Module,
                   project: DataflowProject) -> List[Finding]:
    """The reporting pass over one file: its module body, then every
    function, each run to fixpoint; their findings in that order."""
    parts = module_parts(path)
    flags = _flags_for(parts)
    if not (flags.units or flags.order or flags.inter_determinism
            or flags.inter_immutability):
        return []
    module = module_name(path)
    ctx = project.contexts.get(module) or ModuleContext(module, tree)
    rel = path.as_posix()

    module_scope = _Analyzer(rel, ctx, project, flags, fn=tree)
    module_scope.run()
    ctx.module_env = module_scope.exit_env
    findings = module_scope.findings
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyzer = _Analyzer(rel, ctx, project, flags, fn=node)
            analyzer.run()
            findings += analyzer.findings
    return findings


__all__ = [
    "CONVERSION_CONSTANTS",
    "MAGIC_LITERALS",
    "TIME_COLUMN_PROPERTIES",
    "ANNOTATION_UNITS",
    "DataflowProject",
    "FunctionSummary",
    "ModuleContext",
    "analyze_module",
    "unit_from_name",
]
