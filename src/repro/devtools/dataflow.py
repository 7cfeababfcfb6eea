"""Forward abstract interpretation over Python ASTs for *reprolint*.

Every function (and each module body) is lowered to a CFG
(:mod:`repro.devtools.cfg`) and interpreted over the fact lattice in
:mod:`repro.devtools.lattice` with a classic worklist fixpoint; rules
query the stable per-block environments instead of doing ad-hoc taint
walks.  The interpreter powers five rules next to the syntactic RPL001
and RPL003–005:

* **RPL002 — immutability.** A value's ``column`` fact, its only
  taint, is set when it is a ``ColumnStore``/``FOTDataset`` column (a
  column property or ``store.column(...)``) or a view of one; a write
  through it (:func:`written_array`: a subscript store, an augmented
  assignment, an in-place ndarray method, ``setflags(write=True)``) is
  flagged, as is thawing any named array.  In ``repro/core`` an array a
  numpy constructor built must be frozen with ``setflags(write=False)``
  before any path returns it or stores it into an attribute or a
  subscript; a freeze through an alias counts.
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
(transitively) nondeterministic functions and the parameters a function
writes through (by the same :func:`written_array`), so a
deterministic-package call into an unvetted helper that reads the wall
clock — or passes a frozen column view to a function that writes
through its parameter — is flagged at the call site.  RPL002 covers
``repro/``, ``tests/`` and ``benchmarks/``; the other rules ``repro/``.

The project is also the one call graph of a lint run.  It holds every
module-level def and every method of a top-level class, the classes
with their attribute type sets (``self.store = DiskStore()`` in one
branch and ``MemoryStore()`` in another), and
:meth:`DataflowProject.resolve_call`, the only call resolver: the
RPL001/RPL002 summaries and the RPL201/RPL212 effect summaries of
:mod:`repro.devtools.effect_rules` both resolve calls through it.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.devtools.cfg import CFG, build_cfg
from repro.devtools.index import NodeIndex
from repro.devtools.lattice import (
    BOTTOM,
    DIMENSIONLESS,
    Env,
    Fact,
    NARROW_WIDTHS,
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
    Finding,
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

#: ndarray methods that mutate in place (RPL002).
MUTATOR_METHODS = frozenset(
    {"sort", "fill", "resize", "put", "partition", "itemset", "byteswap"}
)

#: numpy constructors whose results must be frozen before escaping
#: a function in repro/core (RPL002).
NP_CONSTRUCTORS = frozenset(
    {
        "empty",
        "zeros",
        "ones",
        "full",
        "arange",
        "asarray",
        "array",
        "fromiter",
        "concatenate",
        "linspace",
        "empty_like",
        "zeros_like",
        "ones_like",
        "full_like",
    }
)

#: Rounds of return-fact inference over the call graph.
SUMMARY_ROUNDS = 3

#: Worklist visits per CFG block before a fixpoint is cut off.
VISITS_PER_BLOCK = 50


@functools.lru_cache(maxsize=None)
def unit_from_name(name: str) -> Optional[str]:
    """Unit implied by a canonical identifier name, or None (cached)."""
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

    def __init__(self, module: str, tree: ast.Module, index: NodeIndex):
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
        #: final abstract env of the module body (module constants).
        self.module_env: Env = {}
        self._collect(index.walk_order(tree))
        if module.endswith("core.timeutil"):
            # Inside timeutil itself ``DAY = 86400.0`` is a bare number;
            # the module is the root of trust, so seed its own constants.
            for const, target in CONVERSION_CONSTANTS.items():
                self.global_facts[const] = conversion(target)
            for const, unit in TIMEUTIL_UNIT_EXPORTS.items():
                self.global_facts[const] = unit_fact(unit)

    def _collect(self, nodes: List[ast.AST]) -> None:
        """Read the imports among ``nodes``, given in ``ast.walk`` order."""
        for node in nodes:
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


@dataclasses.dataclass
class FunctionEffects:
    """One def of the call graph, with the effect summary that
    :func:`repro.devtools.effect_rules.effect_summaries` fills in."""

    key: str                  # "module.func" or "module.Class.func"
    module: str
    qualname: str             # "func" or "Class.func"
    node: ast.AST             # FunctionDef | AsyncFunctionDef
    is_async: bool
    class_key: Optional[str] = None
    #: can calling this (synchronously) block the thread?
    blocking: bool = False
    #: human reason for direct blocking ("open() performs ...").
    blocking_reason: str = ""
    #: callee key the blocking effect arrived through (chain rendering).
    blocking_via: Optional[str] = None
    #: does a return value carry an open OS resource?
    returns_resource: bool = False
    #: resolved callee keys of the function's own calls.
    callees: Set[str] = dataclasses.field(default_factory=set)


@dataclasses.dataclass
class ClassInfo:
    """What the analysis knows about one class definition."""

    key: str                  # "module.Class"
    module: str
    name: str
    bases: List[str] = dataclasses.field(default_factory=list)
    methods: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: attribute -> set of class keys it may hold (union over branches,
    #: e.g. the router's DeadLetterStore | MemoryDeadLetterStore).
    attr_types: Dict[str, Set[str]] = dataclasses.field(default_factory=dict)


def written_array(node: ast.AST) -> Optional[Tuple[ast.expr, str]]:
    """The array that ``node`` writes through in place, with the RPL002
    message for the write (``{}`` stands for the array's origin); None
    when ``node`` writes through no array.  Writes are subscript stores
    (``a[i] = v``; ``a[i] += v`` counts once, as the augmented
    assignment), augmented assignment of a name (in place for an
    ndarray) and calls of an in-place method or ``setflags(write=True)``."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        return node.value, ("subscript assignment into {} — column views "
                            "are immutable; build a new array instead")
    if isinstance(node, ast.AugAssign):
        if isinstance(node.target, ast.Subscript):
            return node.target.value, ("augmented subscript assignment "
                                       "into {} — column views are "
                                       "immutable")
        if isinstance(node.target, ast.Name):
            return node.target, ("augmented assignment mutates {} — column "
                                 "views are immutable; assign a new array "
                                 "instead")
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        if attr in MUTATOR_METHODS:
            return node.func.value, (
                f".{attr}() mutates {{}} — column views are immutable; use "
                f"the copying variant (np.{attr}(...)) instead"
            )
        if attr == "setflags" and any(
            kw.arg == "write" and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        ):
            return node.func.value, "setflags(write=True) thaws {}"
    return None


def _collect_mutated_params(fn: ast.FunctionDef,
                            index: NodeIndex) -> Dict[str, int]:
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    param_set = set(params) | {a.arg for a in fn.args.kwonlyargs}
    position = {name: i for i, name in enumerate(params)}
    mutated: Dict[str, int] = {}
    for node in index.subtree(fn):
        written = written_array(node)
        root = written[0] if written else None
        while isinstance(root, (ast.Subscript, ast.Attribute)):
            root = root.value
        if isinstance(root, ast.Name) and root.id in param_set:
            mutated.setdefault(root.id, position.get(root.id, -1))
    return mutated


class DataflowProject(Project):
    """Cross-file context on top of :class:`Project`: module contexts,
    the call graph, its classes and the dataflow summaries."""

    def __init__(self, trees: Dict[Path, ast.Module]):
        super().__init__(trees)
        self.trees = trees
        self.contexts: Dict[str, ModuleContext] = {}
        #: summaries of the module-level sync defs.
        self.summaries: Dict[str, FunctionSummary] = {}
        #: every module-level def and every method of a top-level class.
        self.functions: Dict[str, FunctionEffects] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: bare class name -> defining keys (fallback when an import
        #: goes through a package facade rather than the source module).
        self._class_by_name: Dict[str, List[str]] = {}
        #: (module, qualname, lineno) of every async def the effect
        #: rules visited: no coroutine may be skipped silently.
        self.analyzed_async: Set[Tuple[str, str, int]] = set()
        self._local_types_of: Dict[int, Dict[str, str]] = {}
        for path, tree in trees.items():
            module = module_name(path)
            self.contexts[module] = ModuleContext(module, tree, self.index)
            self._collect(module, tree)
        self._infer_attr_types()
        self._resolve_calls()
        self._seed_nondeterminism()
        self._compute_module_envs()
        self._infer_summaries()
        self._propagate_nondeterminism()

    # -- construction ---------------------------------------------------
    def _collect(self, module: str, tree: ast.Module) -> None:
        """The module's defs, a summary for each sync one, and its
        classes with their methods."""
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node.name, node, None)
                if isinstance(node, ast.FunctionDef):
                    self._add_summary(module, node)
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(key=f"{module}.{node.name}", module=module,
                                 name=node.name)
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        info.bases.append(base.id)
                self.classes[info.key] = info
                self._class_by_name.setdefault(node.name, []).append(info.key)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        info.methods[item.name] = self._add_function(
                            module, f"{node.name}.{item.name}", item,
                            info.key,
                        )

    def _add_function(self, module: str, qualname: str, node: ast.AST,
                      class_key: Optional[str]) -> str:
        key = f"{module}.{qualname}"
        self.functions[key] = FunctionEffects(
            key=key, module=module, qualname=qualname, node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_key=class_key,
        )
        return key

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
            declared_unit=declared,
            returns_unit=declared,
            mutated_params=_collect_mutated_params(node, self.index),
        )

    def _resolve_calls(self) -> None:
        for summary in self.summaries.values():
            for node in self.index.subtree(summary.node):
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

    def _infer_summaries(self) -> None:
        """Iterate return-fact inference to a (bounded) fixpoint so unit
        facts flow through helper calls.

        An analysis reads other summaries only through the calls under
        its def, which are its ``callees``; so after the first round
        only a summary whose callee changed since its last analysis is
        analyzed again, and the rest would reproduce their result."""
        callers: Dict[str, List[str]] = {}
        for summary in self.summaries.values():
            for callee in summary.callees:
                callers.setdefault(callee, []).append(summary.key)
        dirty = set(self.summaries)
        for _ in range(SUMMARY_ROUNDS):
            changed = False
            for summary in self.summaries.values():
                if summary.key not in dirty:
                    continue
                dirty.discard(summary.key)
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
                    dirty.update(callers.get(summary.key, ()))
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

    # -- classes ----------------------------------------------------------
    def resolve_class(self, module: str, name: str) -> Optional[str]:
        """Class key for ``name`` as written in ``module``."""
        ctx = self.contexts.get(module)
        if ctx is not None:
            imported = ctx.from_imports.get(name)
            if imported is not None:
                direct = f"{imported[0]}.{imported[1]}"
                if direct in self.classes:
                    return direct
                name = imported[1]  # facade import: fall through by name
        local = f"{module}.{name}"
        if local in self.classes:
            return local
        keys = self._class_by_name.get(name, [])
        return keys[0] if len(keys) == 1 else None

    def method_key(self, class_key: str, method: str,
                   _seen: Optional[Set[str]] = None) -> Optional[str]:
        """Function key of ``method`` on ``class_key``, walking bases."""
        seen = _seen if _seen is not None else set()
        if class_key in seen:
            return None
        seen.add(class_key)
        info = self.classes.get(class_key)
        if info is None:
            return None
        if method in info.methods:
            return info.methods[method]
        for base in info.bases:
            base_key = self.resolve_class(info.module, base)
            if base_key is not None:
                found = self.method_key(base_key, method, seen)
                if found is not None:
                    return found
        return None

    def _infer_attr_types(self) -> None:
        """``self.attr = ClassName(...)`` (any method, any branch) and
        annotated assigns feed ``ClassInfo.attr_types`` as a type set."""
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
                for node in self.index.subtree(fn):
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

    def _class_of_expr(self, module: str,
                       expr: Optional[ast.expr]) -> Optional[str]:
        """Class key of a constructor call expression, else None."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return self.resolve_class(module, expr.func.id)
        return None

    def local_types(self, module: str, fn: ast.AST) -> Dict[str, str]:
        """``x = ClassName(...)`` local variable typing (plus ``with
        Ctor() as x``) of ``fn``, best effort, computed once per def."""
        out = self._local_types_of.get(id(fn))
        if out is not None:
            return out
        out = self._local_types_of[id(fn)] = {}
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

    # -- call resolution ------------------------------------------------
    def resolve_call(
        self,
        module: str,
        func: ast.expr,
        class_key: Optional[str] = None,
        local_types: Optional[Dict[str, str]] = None,
    ) -> List[str]:
        """Candidate function keys for a call's func expression in
        ``module``; ``class_key`` and ``local_types`` type ``self`` and
        locals where the caller knows them.

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
        if isinstance(func.value, ast.Name):
            base = func.value.id
            if base == "self" and class_key is not None:
                found = self.method_key(class_key, func.attr)
                return [found] if found is not None else []
            if local_types and base in local_types:
                found = self.method_key(local_types[base], func.attr)
                return [found] if found is not None else []
            # m.f(): ``import pkg.m as m`` first, then ``from pkg import m``.
            imported = ctx.from_imports.get(base)
            target_module = ctx.module_aliases.get(base)
            if target_module is None and imported is not None:
                target_module = f"{imported[0]}.{imported[1]}"
            if target_module is not None:
                target = f"{target_module}.{func.attr}"
                if target in self.functions:
                    return [target]
            if imported is not None:  # Cls.f() on an imported class
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

    def summary_for_call(self, module: str,
                         func: ast.AST) -> Optional[FunctionSummary]:
        """The dataflow summary of the first key :meth:`resolve_call`
        gives that has one, then, for a bare name, its local def's: a
        from-imported def without one (a coroutine) must not hide it."""
        keys = self.resolve_call(module, func)
        if isinstance(func, ast.Name):
            keys.append(f"{module}.{func.id}")
        for key in keys:
            if key in self.summaries:
                return self.summaries[key]
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
    immutability: bool = False   # RPL002


@dataclasses.dataclass
class _BlockReport:
    """What one transfer of a block reports, in transfer order."""

    findings: List[Finding] = dataclasses.field(default_factory=list)
    #: facts of the block's ``return`` expressions.
    returns: List[Fact] = dataclasses.field(default_factory=list)
    #: (creation site, line) of each core array escaping while writable.
    escapes: List[Tuple[Tuple[int, int, str], int]] = dataclasses.field(
        default_factory=list)


class _Analyzer:
    """Worklist fixpoint over one function or module scope; each block
    reports from its last transfer."""

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
        self.cfg: CFG = build_cfg(
            [s for s in fn.body
             if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))]
        )
        self.findings: List[Finding] = []
        self.declared_unit: Optional[str] = None
        #: RPL002's creation rule: functions in repro/core only.
        self.check_creation = False
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.declared_unit = (
                _decorator_unit(fn)
                or _annotation_unit(fn.returns)
                or unit_from_name(fn.name)
            )
            self.check_creation = flags.immutability \
                and ctx.module.split(".")[:2] == ["repro", "core"]
        #: per block index, the report of its latest transfer.
        self._reports: List[Optional[_BlockReport]] = \
            [None] * len(self.cfg.blocks)
        self._report = _BlockReport()
        self.exit_env: Env = {}

    # -- driver ---------------------------------------------------------
    def run(self) -> Fact:
        """Fixpoint, then the blocks' reports in block order; returns
        the joined fact of all ``return`` expressions (the function's
        summary fact).

        A block is queued again whenever its in-environment changes, so
        its last transfer ran on the converged one and what that
        transfer reported is the block's report."""
        in_envs: Dict[int, Env] = {self.cfg.entry: self._seed_env()}
        worklist = deque([self.cfg.entry])
        iterations = 0
        limit = VISITS_PER_BLOCK * max(1, len(self.cfg.blocks))
        while worklist and iterations < limit:
            iterations += 1
            idx = worklist.popleft()
            out = self._transfer_block(idx, dict(in_envs[idx]))
            for succ in self.cfg.blocks[idx].succs:
                joined = join_envs(in_envs.get(succ), out)
                if joined != in_envs.get(succ):
                    in_envs[succ] = joined
                    if succ not in worklist:
                        worklist.append(succ)
        # Cut off by the bound: a block still queued has not run on its
        # final in-environment yet.
        for idx in worklist:
            self._transfer_block(idx, dict(in_envs[idx]))
        returned = BOTTOM
        # creation site -> line of its last escape while maybe writable
        escapes: Dict[Tuple[int, int, str], int] = {}
        for report in self._reports:
            if report is None:
                continue
            self.findings += report.findings
            for fact in report.returns:
                returned = returned.join(fact)
            for site, line in report.escapes:
                escapes[site] = max(escapes.get(site, 0), line)
        for (line, col, name), escape in escapes.items():
            self.findings.append(Finding(
                "RPL002", self.path, line, col,
                f"array '{name}' created in core/ escapes (line {escape}) "
                "without setflags(write=False)",
            ))
        self.exit_env = in_envs.get(self.cfg.exit, {})
        return returned

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
    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self._report.findings.append(
            Finding(rule, self.path, getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0), message)
        )

    # -- block transfer --------------------------------------------------
    def _transfer_block(self, idx: int, env: Env) -> Env:
        """Interpret block ``idx`` on ``env``; its report replaces the
        one of the block's previous transfer."""
        self._report = self._reports[idx] = _BlockReport()
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
                self._check_unit(item, declared, fact, "annotated as "
                                 "{declared} but the value is in {unit}",
                                 conversion_ok=False)
                fact = dataclasses.replace(fact, unit=declared, conv=None)
            if isinstance(item.target, ast.Name):
                self._bind(item.target, item.value, fact, env)
            elif item.value is not None:
                self._store(item.target, item.value, env)
        elif isinstance(item, ast.AugAssign):
            value = self.eval(item.value, env)
            if isinstance(item.target, ast.Name):
                current = env.get(item.target.id, BOTTOM)
                self._check_write(item, current)
                # In place for an ndarray: the name keeps its identity.
                env[item.target.id] = dataclasses.replace(
                    self._binop_fact(item, item.op, current, value,
                                     item.target, item.value),
                    column=current.column, created=current.created,
                    unfrozen=current.unfrozen,
                )
            elif isinstance(item.target, ast.Subscript):
                self._check_write(item, self.eval(item.target.value, env))
                self.eval(item.target.slice, env)
            else:
                self.eval(item.target, env)
        elif isinstance(item, ast.Return):
            if item.value is not None:
                fact = self.eval(item.value, env)
                self._report.returns.append(fact)
                self._escape(item.value, item, env)
                self._check_unit(item, self.declared_unit, fact,
                                 "returns a value in {unit} from a function "
                                 "declared to return {declared}")
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
            self.eval(item.msg, env)
        elif isinstance(item, ast.Delete):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            if isinstance(item, ast.ClassDef):
                for expr in item.bases + item.keywords + item.decorator_list:
                    self.eval(expr, env)
            env[item.name] = BOTTOM
        elif isinstance(item, ast.Raise):
            self.eval(item.exc, env)
            self.eval(item.cause, env)
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
            if self.check_creation and isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Attribute) \
                    and isinstance(value.func.value, ast.Name) \
                    and value.func.value.id in self.ctx.numpy_aliases \
                    and value.func.attr in NP_CONSTRUCTORS:
                site = (value.lineno, value.col_offset, target.id)
                fact = dataclasses.replace(fact, created=site, unfrozen=True)
            env[target.id] = fact
        elif isinstance(target, ast.Attribute):
            self._check_declared_name(target, target.attr, fact)
            self._store(target, value, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for sub_target in target.elts:
                self._bind_quiet(sub_target, BOTTOM, env)
        elif isinstance(target, ast.Subscript):
            self._store(target, value, env)

    # -- RPL002 ----------------------------------------------------------
    def _store(self, target: ast.AST, value: ast.AST, env: Env) -> None:
        """A name stored into an attribute or a subscript escapes; a
        subscript store writes through its base."""
        if isinstance(target, ast.Subscript):
            self._check_write(target, self.eval(target.value, env))
        self._escape(value, target, env)

    def _escape(self, value: ast.AST, node: ast.AST, env: Env) -> None:
        """``value``, a name or a tuple of names, leaves at ``node``."""
        for name in value.elts if isinstance(value, ast.Tuple) else [value]:
            fact = env.get(name.id) if isinstance(name, ast.Name) else None
            if fact and fact.created and fact.unfrozen:
                self._report.escapes.append((fact.created, node.lineno))

    def _check_write(self, node: ast.AST, fact: Fact) -> None:
        """Flag ``node`` when it writes through a column view, or thaws
        any named array, whose fact is ``fact``."""
        written = written_array(node)
        if written is None or not self.flags.immutability:
            return
        array, message = written
        origin = _origin(fact)
        if origin is None and isinstance(array, ast.Name) \
                and isinstance(node, ast.Call) \
                and node.func.attr == "setflags":
            origin = f"array '{array.id}'"
        if origin is not None:
            self._flag("RPL002", node, message.format(origin))

    def _bind_quiet(self, target: ast.AST, fact: Fact, env: Env) -> None:
        if isinstance(target, ast.Name):
            self._check_declared_name(target, target.id, fact)
            env[target.id] = fact
        elif isinstance(target, (ast.Tuple, ast.List)):
            for sub in target.elts:
                self._bind_quiet(sub, BOTTOM, env)
        elif isinstance(target, ast.Starred):
            self._bind_quiet(target.value, BOTTOM, env)

    def _check_declared_name(self, node: ast.AST, name: str,
                             fact: Fact) -> None:
        if self.flags.units:
            self._check_unit(node, unit_from_name(name), fact,
                             f"assigns a value in {{unit}} to '{name}', which "
                             "is named as {declared} — convert via "
                             "core.timeutil first")

    def _check_unit(self, node: ast.AST, declared: Optional[str], fact: Fact,
                    message: str, conversion_ok: bool = True) -> None:
        """RPL101 when ``fact`` is in a time unit other than the
        ``declared`` one (``message`` formats ``{unit}`` and
        ``{declared}``); a conversion constant passes unless
        ``conversion_ok`` is False."""
        if self.flags.units and is_time_unit(declared) and fact.is_time \
                and fact.unit != declared \
                and not (conversion_ok and fact.is_conversion):
            self._flag("RPL101", node,
                       message.format(unit=fact.unit, declared=declared))

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
        return fact.derived()

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
        return result.derived(unordered=True)

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
        # Only RPL002 looks into a lambda: its writes happen in this frame.
        flags = self.flags
        self.flags = _RuleFlags(immutability=flags.immutability)
        for default in node.args.defaults + node.args.kw_defaults:
            self.eval(default, env)
        inner = dict(env)
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            inner[arg.arg] = BOTTOM
        self.eval(node.body, inner)
        self.flags = flags
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
        return fact.derived(unordered=unordered)

    _eval_GeneratorExp = _eval_ListComp

    def _eval_SetComp(self, node: ast.SetComp, env: Env,
                      order_ok: bool) -> Fact:
        inner, _ = self._eval_comprehension(node, env, order_ok)
        fact = self.eval(node.elt, inner)
        return fact.derived(unordered=True)

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
                                node.left, node.right)

    def _binop_fact(self, node: ast.AST, op: ast.operator,
                    left: Fact, right: Fact,
                    left_node: ast.AST, right_node: ast.AST) -> Fact:
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
        for keyword in node.keywords:
            kw_fact = self.eval(keyword.value, env)
            if keyword.arg and self.flags.units:
                self._check_unit(keyword.value, unit_from_name(keyword.arg),
                                 kw_fact, f"passes a value in {{unit}} as "
                                 f"'{keyword.arg}', which is named as "
                                 "{declared}")
        first = arg_facts[0] if arg_facts else BOTTOM

        # ---- plain-name callables -------------------------------------
        if func_name is not None:
            if func_name in ANNOTATION_UNITS:
                return unit_fact(ANNOTATION_UNITS[func_name])
            if func_name in {"float", "int", "abs", "round"}:
                return first.derived()
            if func_name in {"min", "max", "sum"}:
                return Fact(unit=first.unit, width=first.width)
            if func_name == "sorted":
                return first.derived(unordered=False)
            if func_name in {"set", "frozenset"}:
                return Fact(unit=first.unit, unordered=True)
            if func_name in {"list", "tuple"}:
                if first.unordered and not order_ok:
                    self._flag_order(node, f"{func_name}() materialization")
                return first.derived(unordered=False)
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
                    return self._eval_numpy_call(node, attr, arg_facts)
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
            self._check_write(node, receiver)
            if attr == "setflags" and written_array(node) is None \
                    and receiver.created:
                # Freezes count per creation site, so through any alias.
                for name, fact in env.items():
                    if fact.created == receiver.created:
                        env[name] = dataclasses.replace(fact, unfrozen=False)
            return self._eval_method_call(node, attr, receiver)
        self.eval(func, env)
        return BOTTOM

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
        if self.flags.immutability and summary.mutated_params:
            mutated_by_index = {index: name for name, index
                               in summary.mutated_params.items()}
            for position, fact in enumerate(arg_facts):
                if fact.column and position in mutated_by_index:
                    self._flag(
                        "RPL002", node.args[position],
                        f"passes {_origin(fact)} to '{summary.name}' "
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
                         arg_facts: List[Fact]) -> Fact:
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
            return first.derived(width=attr)
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
            return Fact(unit=unit, width=width or first.width,
                        unordered=False if ordered else first.unordered)
        return BOTTOM

    def _eval_method_call(self, node: ast.Call, attr: str,
                          receiver: Fact) -> Fact:
        if attr == "astype" and node.args:
            width = self._dtype_width(node.args[0])
            self._check_narrowing(node, width, receiver, ".astype(...)")
            return receiver.derived(width=width)
        if attr in ACCUMULATORS and receiver.is_narrow:
            self._check_narrowing(node, receiver.width, receiver,
                                  f".{attr}() accumulation")
        if attr == "total_seconds":
            return unit_fact("seconds")
        if attr in FS_LISTING_METHODS:
            return Fact(unordered=True)
        if attr in {"keys", "values", "items"}:
            return Fact(unordered=receiver.unordered)
        if attr == "column":
            return Fact(column="store.column(...)")
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


def _origin(fact: Fact) -> Optional[str]:
    """How RPL002 names the column view a value is, if it is one."""
    return "a column view" if fact.column == TOP else fact.column


# ---------------------------------------------------------------------------
# per-file entry point
# ---------------------------------------------------------------------------
def _flags_for(parts: Tuple[str, ...]) -> _RuleFlags:
    if not parts or parts[0] not in {"repro", "tests", "benchmarks"}:
        return _RuleFlags()
    if parts[0] != "repro":
        return _RuleFlags(immutability=True)
    package = parts[1] if len(parts) > 1 else ""
    in_deterministic = package in DETERMINISTIC_PACKAGES
    return _RuleFlags(
        units=True,
        order=in_deterministic,
        inter_determinism=in_deterministic,
        immutability=True,
    )


def analyze_module(path: Path, tree: ast.Module,
                   project: DataflowProject) -> List[Finding]:
    """The dataflow findings of one file: its module body, then every
    function, each run to fixpoint; their findings in that order."""
    parts = module_parts(path)
    flags = _flags_for(parts)
    if not flags.immutability:
        return []
    module = module_name(path)
    ctx = project.contexts[module]
    rel = path.as_posix()

    module_scope = _Analyzer(rel, ctx, project, flags, fn=tree)
    module_scope.run()
    ctx.module_env = module_scope.exit_env
    findings = module_scope.findings
    for node in project.index.walk_order(tree):
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
