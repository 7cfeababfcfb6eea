"""Concurrency & resource-safety summaries for *reprolint*.

Layered on the same per-function CFGs (:mod:`repro.devtools.cfg`) and
worklist-fixpoint style as :mod:`repro.devtools.dataflow`, and built on
its per-module import contexts.  Where the dataflow analysis tracks
*value* facts (time units, dtypes, orderedness), this one tracks
*effect* summaries:

* **async-effect** — is a function a coroutine, and is every await-free
  stretch of it loop-safe?
* **blocking-effect** — can calling the function block the thread
  (file I/O, ``time.sleep``, subprocess, unbounded JSON decode)?
  Propagated interprocedurally through a callee fixpoint so an async
  handler that calls a sync helper three frames above ``open()`` is
  still caught at the handler.
* **capture-set** — what module globals / closure cells a function
  drags into a process pool.
* **resource-return** — does a function hand its caller an open OS
  resource it must manage?

The rule checkers themselves (RPL201–RPL213) live in
:mod:`repro.devtools.effect_rules`; this module builds the
:class:`EffectsProject` — class attribute type inference (so
``self.dead_letters.put(...)`` resolves through the
``DeadLetterStore | MemoryDeadLetterStore`` type set), the function
summary table, and the blocking-propagation fixpoint.

Design notes:

* Methods are first-class: summaries are keyed ``module.Class.name`` as
  well as ``module.name`` (the dataflow summaries cover module-level
  functions only; the serve subsystem is all methods, so these
  summaries cannot afford that restriction).
* Blocking never propagates *through* an async callee: awaiting a
  coroutine that itself blocks is reported once, inside that coroutine,
  where the fix belongs.
* Every ``async def`` analyzed is recorded in
  :attr:`EffectsProject.analyzed_async`; a property test asserts the
  set covers every coroutine in ``repro.serve`` so none is silently
  skipped.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.devtools.dataflow import DataflowProject, ModuleContext
from repro.devtools.rules import module_name

#: ``module -> {function}`` calls that can block the calling thread.
#: Scoped to the call surface this codebase actually uses plus the
#: classic offenders; ``json.dumps`` is deliberately absent (response
#: encoding is bounded by what the process already holds in memory,
#: while ``json.loads`` on a request body is attacker-sized).
BLOCKING_MODULE_CALLS: Dict[str, frozenset] = {
    "time": frozenset({"sleep"}),
    "subprocess": frozenset(
        {"run", "call", "check_call", "check_output", "Popen"}
    ),
    "os": frozenset(
        {"replace", "rename", "unlink", "remove", "makedirs", "listdir",
         "scandir", "stat", "fsync", "system", "popen"}
    ),
    "shutil": frozenset({"copy", "copy2", "copyfile", "copytree", "rmtree",
                         "move"}),
    "json": frozenset({"load", "loads"}),
    "pickle": frozenset({"load", "loads", "dump", "dumps"}),
    "tempfile": frozenset({"mkstemp", "mkdtemp", "NamedTemporaryFile",
                           "TemporaryDirectory"}),
    "urllib.request": frozenset({"urlopen"}),
    "socket": frozenset({"create_connection", "getaddrinfo"}),
    "gzip": frozenset({"open"}),
    "bz2": frozenset({"open"}),
    "lzma": frozenset({"open"}),
    "mmap": frozenset({"mmap"}),
}

#: Builtin calls that block (console input, file open).
BLOCKING_BUILTINS = frozenset({"open", "input"})

#: Attribute-call names that mean file I/O on any receiver we cannot
#: type (``Path`` methods dominate; the names are distinctive enough
#: that untyped receivers do not false-positive in this codebase).
PATH_BLOCKING_METHODS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes", "mkdir",
     "rmdir", "touch", "glob", "rglob", "iterdir", "hardlink_to",
     "symlink_to"}
)

#: Attribute-call names treated as executor handoffs: every call inside
#: their argument list runs off the event loop and is exempt from
#: RPL201 (the allowlist for executor-wrapped calls).
EXECUTOR_METHODS = frozenset({"run_in_executor", "to_thread"})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute chains rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _qual_prefix(ctx: ModuleContext, func: ast.expr) -> Optional[Tuple[str, str]]:
    """Resolve a call's func expression to ``(module, name)`` through
    the import context, e.g. ``t.sleep`` with ``import time as t`` ->
    ``("time", "sleep")`` and a bare ``sleep`` with ``from time import
    sleep`` -> the same."""
    if isinstance(func, ast.Name):
        imported = ctx.from_imports.get(func.id)
        if imported is not None:
            return imported
        return None
    if isinstance(func, ast.Attribute):
        dotted = _dotted(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = ctx.module_aliases.get(head)
        if target is None:
            imported = ctx.from_imports.get(head)
            if imported is not None:
                target = f"{imported[0]}.{imported[1]}"
        if target is None:
            return None
        full = f"{target}.{rest}" if rest else target
        module, _, name = full.rpartition(".")
        return (module, name) if module else None
    return None


def blocking_call_reason(ctx: ModuleContext, call: ast.Call) -> Optional[str]:
    """Why ``call`` blocks the calling thread, or None.

    Purely syntactic classification (module tables + builtins + the
    distinctive ``Path`` method names); interprocedural blocking goes
    through :class:`FunctionEffects` summaries instead.
    """
    func = call.func
    if isinstance(func, ast.Name) and func.id in BLOCKING_BUILTINS \
            and func.id not in ctx.from_imports:
        return f"{func.id}() performs blocking I/O"
    resolved = _qual_prefix(ctx, func)
    if resolved is not None:
        module, name = resolved
        names = BLOCKING_MODULE_CALLS.get(module)
        if names is not None and name in names:
            return f"{module}.{name}() blocks the calling thread"
        if module == "requests":
            return "requests performs synchronous network I/O"
    if isinstance(func, ast.Attribute) and func.attr in PATH_BLOCKING_METHODS:
        receiver = _dotted(func.value) or "<expr>"
        return f"{receiver}.{func.attr}() performs file I/O"
    if isinstance(func, ast.Attribute) and func.attr == "open" \
            and _qual_prefix(ctx, func) is None:
        receiver = _dotted(func.value) or "<expr>"
        return f"{receiver}.open() performs file I/O"
    return None


def is_executor_handoff(call: ast.Call) -> bool:
    """``loop.run_in_executor(...)`` / ``asyncio.to_thread(...)``."""
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr in EXECUTOR_METHODS)


def executor_exempt_nodes(fn: ast.AST, project: "EffectsProject") -> "Set[int]":
    """ids of every AST node that executes off the event loop: the
    argument subtrees of executor handoffs (callables, their bound
    arguments, and lambda bodies shipped to a worker thread)."""
    exempt: Set[int] = set()
    for node in project.index.subtree(fn):
        if isinstance(node, ast.Call) and is_executor_handoff(node):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    exempt.add(id(sub))
    return exempt


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class FunctionEffects:
    """Effect summary of one function or method."""

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
    #: resolved callee summary keys (sync calls only).
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


class EffectsProject:
    """Whole-tree effect summaries: collection, class-attribute type
    inference, call resolution, and the blocking fixpoint."""

    def __init__(self, dataflow: DataflowProject):
        #: the dataflow pass's import contexts and node index, shared
        #: rather than rebuilt.
        self.contexts: Dict[str, ModuleContext] = dataflow.contexts
        self.index = dataflow.index
        self.functions: Dict[str, FunctionEffects] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: bare class name -> defining keys (fallback when an import
        #: goes through a package facade rather than the source module).
        self._class_by_name: Dict[str, List[str]] = {}
        #: (module, qualname, lineno) of every async def the rule pass
        #: visited — the no-silently-skipped-coroutines property test.
        self.analyzed_async: Set[Tuple[str, str, int]] = set()
        self._local_types_of: Dict[int, Dict[str, str]] = {}
        for path, tree in dataflow.trees.items():
            self._collect(module_name(path), tree)
        self._infer_attr_types()
        self._scan_calls()
        self._propagate_blocking()
        # Deferred import: the rule module owns the resource classifier.
        from repro.devtools.effect_rules import seed_resource_returns

        seed_resource_returns(self)

    # -- collection -----------------------------------------------------
    def _collect(self, module: str, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node.name, node, None)
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
                        effects = self._add_function(
                            module, f"{node.name}.{item.name}", item,
                            info.key,
                        )
                        info.methods[item.name] = effects.key

    def _add_function(self, module: str, qualname: str, node: ast.AST,
                      class_key: Optional[str]) -> FunctionEffects:
        effects = FunctionEffects(
            key=f"{module}.{qualname}",
            module=module,
            qualname=qualname,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_key=class_key,
        )
        self.functions[effects.key] = effects
        return effects

    # -- class resolution ----------------------------------------------
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

    # -- attribute type inference ---------------------------------------
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
        """:meth:`_local_types` of ``fn``, computed once per function."""
        out = self._local_types_of.get(id(fn))
        if out is None:
            out = self._local_types_of[id(fn)] = self._local_types(module, fn)
        return out

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

    # -- call resolution ------------------------------------------------
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

    # -- blocking fixpoint ----------------------------------------------
    def _scan_calls(self) -> None:
        """One pass over each summary's own calls: the first blocking
        call it meets seeds the blocking effect, and every call adds
        the keys it resolves to as callees."""
        for effects in self.functions.values():
            ctx = self.contexts[effects.module]
            local_types = self.local_types(effects.module, effects.node)
            for node in self.index.own(effects.node):
                if not isinstance(node, ast.Call):
                    continue
                if not effects.blocking:
                    reason = blocking_call_reason(ctx, node)
                    if reason is not None:
                        effects.blocking = True
                        effects.blocking_reason = reason
                for key in self.resolve_call(
                    effects.module, node.func, effects.class_key,
                    local_types,
                ):
                    if key != effects.key:
                        effects.callees.add(key)

    def _propagate_blocking(self) -> None:
        """Callee fixpoint: blocking flows caller-ward through sync
        calls only.  An async callee is a loop-level citizen — if *it*
        blocks, RPL201 reports it inside that coroutine and the fix
        there clears every caller at once."""
        callers: Dict[str, Set[str]] = {}
        for effects in self.functions.values():
            for callee in effects.callees:
                callers.setdefault(callee, set()).add(effects.key)
        worklist = [e.key for e in self.functions.values() if e.blocking]
        while worklist:
            key = worklist.pop()
            source = self.functions[key]
            if source.is_async:
                continue  # never propagate through a coroutine
            for caller_key in sorted(callers.get(key, ())):
                caller = self.functions[caller_key]
                if not caller.blocking:
                    caller.blocking = True
                    caller.blocking_via = key
                    worklist.append(caller_key)

    def blocking_chain(self, key: str, limit: int = 6) -> List[str]:
        """Keys from ``key`` down to the direct blocking call."""
        chain = [key]
        seen = {key}
        while len(chain) < limit:
            via = self.functions[chain[-1]].blocking_via
            if via is None or via in seen:
                break
            chain.append(via)
            seen.add(via)
        return chain

    def describe_blocking(self, key: str) -> str:
        """``a -> b -> c: open() performs ...`` for messages."""
        chain = self.blocking_chain(key)
        names = [self.functions[k].qualname for k in chain]
        reason = self.functions[chain[-1]].blocking_reason or "blocks"
        return " -> ".join(names) + f": {reason}"


__all__ = [
    "BLOCKING_BUILTINS",
    "BLOCKING_MODULE_CALLS",
    "EXECUTOR_METHODS",
    "PATH_BLOCKING_METHODS",
    "ClassInfo",
    "EffectsProject",
    "FunctionEffects",
    "blocking_call_reason",
    "executor_exempt_nodes",
    "is_executor_handoff",
]
