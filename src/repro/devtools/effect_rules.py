"""RPL201–RPL213: the concurrency & resource-safety rules.

:func:`effect_summaries` runs once per lint run, on the
:class:`~repro.devtools.dataflow.DataflowProject` whose call graph the
dataflow summaries also use, and fills in each function's effects:

* **blocking** — can calling the function block the thread (file I/O,
  ``time.sleep``, subprocess, unbounded JSON decode)?  Propagated
  caller-ward through a callee fixpoint, so an async handler that calls
  a sync helper three frames above ``open()`` is still caught at the
  handler.  Blocking never propagates *through* an async callee:
  awaiting a coroutine that itself blocks is reported once, inside that
  coroutine, where the fix belongs.
* **resource-return** — does a function hand its caller an open OS
  resource it must manage?

Six rules read them, scoped to the ``repro`` package (fixtures exercise
them via synthetic ``src/repro/...`` trees, same as the dataflow rules):

* **RPL201** — blocking calls inside ``async def``; direct (classifier
  tables) and interprocedural (blocking summaries), with the executor
  allowlist carving out ``run_in_executor`` / ``to_thread`` arguments.
  Every ``async def`` it visits is recorded in
  :attr:`~repro.devtools.dataflow.DataflowProject.analyzed_async`; a
  property test asserts the set covers every coroutine in
  ``repro.serve``.
* **RPL202** — shared mutable state (``self.*`` chains, declared
  globals) read before an ``await`` and written after it: a per-location
  {clean, read, read-then-await} lattice run to fixpoint over the
  function CFG, so the hazard is caught through loop back edges too.
  ``with``/``async with`` bodies whose context mentions a lock are
  exempt regions.
* **RPL203** — ``create_task``/``ensure_future`` results that nothing
  retains (bare expression, or a local never read again): the loop only
  holds weak references, so the task can be garbage-collected mid-run
  and its exceptions are silently lost.
* **RPL211** — process-pool submissions (``ProcessPoolExecutor`` /
  ``multiprocessing`` ``Pool``) whose work functions are lambdas,
  capture-bearing closures, read mutable module globals not assigned by
  the pool initializer, or draw unseeded RNG — each a hole in the
  bit-identity contract of ``engine.parallel.run_shards``.
* **RPL212** — resource lifetime: ``open``/``mmap``/``tempfile``
  resources need a ``with``, a ``.close()``, a wrapper
  (``contextlib.closing``, ``os.fdopen``), or to be returned (which
  marks the function ``returns_resource`` so *callers* that discard the
  result are flagged instead); buffer views built over a with-managed
  resource must not escape the block.
* **RPL213** — durable writes in ``core``/``serve``/``engine``/
  ``robustness`` must follow the repo's write-then-rename /
  blob-before-manifest idiom: an in-place ``open(.., "w")`` or
  ``write_text`` with no rename marker in the function is a torn-file
  window.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.cfg import build_cfg
from repro.devtools.dataflow import DataflowProject, ModuleContext
from repro.devtools.rules import Finding, module_name, module_parts

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

#: Packages whose durable files must be written atomically (RPL213).
ATOMIC_WRITE_PACKAGES = frozenset({"core", "serve", "engine", "robustness"})

#: Context-manager expressions matching this are treated as lock
#: regions for RPL202 (reads/writes inside are protected).
_LOCK_NAME_RE = re.compile(r"lock|mutex|semaphore|condition", re.IGNORECASE)

#: Work-function parameter names that satisfy the RPL211 seed contract.
_SEED_PARAM_RE = re.compile(r"seed|rng|entropy", re.IGNORECASE)

#: Callees that take ownership of a resource passed as an argument.
_RESOURCE_WRAPPERS = frozenset(
    {"closing", "enter_context", "push", "callback", "register", "fdopen",
     "close", "detach"}
)

#: ``(module, name)`` calls that return an OS resource the caller owns.
_RESOURCE_CALLS = frozenset(
    {("gzip", "open"), ("bz2", "open"), ("lzma", "open"), ("mmap", "mmap"),
     ("tempfile", "NamedTemporaryFile"), ("tempfile", "TemporaryDirectory"),
     ("tempfile", "mkstemp"), ("tempfile", "mkdtemp"), ("io", "open")}
)

_POOL_SUBMIT_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "starmap", "apply_async"}
)


def _flag(findings: List[Finding], rule: str, path: str, node: ast.AST,
          message: str) -> None:
    findings.append(
        Finding(rule, path, getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0), message)
    )


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
        return ctx.from_imports.get(func.id)
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


# ---------------------------------------------------------------------------
# effect summaries
# ---------------------------------------------------------------------------
def blocking_call_reason(ctx: ModuleContext, call: ast.Call) -> Optional[str]:
    """Why ``call`` blocks the calling thread, or None.

    Purely syntactic classification (module tables + builtins + the
    distinctive ``Path`` method names); interprocedural blocking goes
    through the functions' blocking summaries instead.
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


def effect_summaries(project: DataflowProject) -> None:
    """Fill in every function's effects: one pass over each function's
    own calls seeds the blocking effect from the first blocking call it
    meets and collects the keys every call resolves to; then blocking
    flows caller-ward to a fixpoint through sync functions only; then
    the resource returns are marked.  Runs once, before any rule."""
    for effects in project.functions.values():
        ctx = project.contexts[effects.module]
        local_types = project.local_types(effects.module, effects.node)
        for node in project.index.own(effects.node):
            if not isinstance(node, ast.Call):
                continue
            if not effects.blocking:
                reason = blocking_call_reason(ctx, node)
                if reason is not None:
                    effects.blocking = True
                    effects.blocking_reason = reason
            for key in project.resolve_call(
                effects.module, node.func, effects.class_key, local_types,
            ):
                if key != effects.key:
                    effects.callees.add(key)
    callers: Dict[str, Set[str]] = {}
    for effects in project.functions.values():
        for callee in effects.callees:
            callers.setdefault(callee, set()).add(effects.key)
    worklist = [e.key for e in project.functions.values() if e.blocking]
    while worklist:
        key = worklist.pop()
        if project.functions[key].is_async:
            continue  # never propagate through a coroutine
        for caller_key in sorted(callers.get(key, ())):
            caller = project.functions[caller_key]
            if not caller.blocking:
                caller.blocking = True
                caller.blocking_via = key
                worklist.append(caller_key)
    seed_resource_returns(project)


def describe_blocking(project: DataflowProject, key: str) -> str:
    """``a -> b -> c: open() performs ...`` for messages: the chain of
    at most six functions from ``key`` down to the direct blocking
    call."""
    chain = [key]
    while len(chain) < 6:
        via = project.functions[chain[-1]].blocking_via
        if via is None or via in chain:
            break
        chain.append(via)
    names = [project.functions[k].qualname for k in chain]
    reason = project.functions[chain[-1]].blocking_reason or "blocks"
    return " -> ".join(names) + f": {reason}"


# ---------------------------------------------------------------------------
# RPL201 — blocking calls on the event loop
# ---------------------------------------------------------------------------
def is_executor_handoff(call: ast.Call) -> bool:
    """``loop.run_in_executor(...)`` / ``asyncio.to_thread(...)``."""
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr in EXECUTOR_METHODS)


def executor_exempt_nodes(fn: ast.AST, project: DataflowProject) -> Set[int]:
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


def check_async_blocking(
    fn: ast.AsyncFunctionDef, module: str, class_key: Optional[str],
    project: DataflowProject, path: str, findings: List[Finding],
) -> None:
    ctx = project.contexts[module]
    exempt = executor_exempt_nodes(fn, project)
    local_types = project.local_types(module, fn)
    for node in project.index.own(fn):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        if is_executor_handoff(node):
            continue
        reason = blocking_call_reason(ctx, node)
        if reason is not None:
            _flag(
                findings, "RPL201", path, node,
                f"blocking call on the event loop: {reason}; move it "
                "behind loop.run_in_executor()/asyncio.to_thread() or use "
                "an async equivalent",
            )
            continue
        for key in project.resolve_call(module, node.func, class_key,
                                        local_types):
            callee = project.functions.get(key)
            if callee is not None and callee.blocking and not callee.is_async:
                _flag(
                    findings, "RPL201", path, node,
                    "call blocks the event loop through "
                    f"{describe_blocking(project, key)}; wrap the call in "
                    "loop.run_in_executor()/asyncio.to_thread()",
                )
                break


# ---------------------------------------------------------------------------
# RPL202 — shared state mutated across an await
# ---------------------------------------------------------------------------
_CLEAN, _READ, _READ_THEN_AWAIT = 0, 1, 2


def _shared_location(target: ast.expr,
                     global_names: Set[str]) -> Optional[str]:
    if isinstance(target, ast.Attribute):
        dotted = _dotted(target)
        if dotted is not None and dotted.startswith("self."):
            return dotted
        return None
    if isinstance(target, ast.Name) and target.id in global_names:
        return target.id
    return None


def _interpreted_exprs(item: ast.AST) -> List[ast.AST]:
    """The expressions a CFG block item actually evaluates (structured
    statement headers carry their whole subtree; only the header
    expression belongs to the block)."""
    if isinstance(item, (ast.If, ast.While)):
        return [item.test]
    if isinstance(item, (ast.For, ast.AsyncFor)):
        return [item.iter]
    if isinstance(item, (ast.With, ast.AsyncWith)):
        return [w.context_expr for w in item.items]
    if isinstance(item, ast.ExceptHandler):
        return [item.type] if item.type is not None else []
    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    return [item]


def _names_under(node: ast.AST) -> Iterator[str]:
    """Every name and attribute name in ``node``'s subtree."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _lock_region_nodes(own: List[ast.AST]) -> Set[int]:
    """ids of every node inside a lock-guarded ``with`` body."""
    out: Set[int] = set()
    for node in own:
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        if any(_LOCK_NAME_RE.search(name) for item in node.items
               for name in _names_under(item.context_expr)):
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    out.add(id(sub))
    return out


class _SharedStateAnalyzer:
    """Fixpoint of the read/read-then-await lattice over one coroutine."""

    def __init__(self, fn: ast.AsyncFunctionDef, own: List[ast.AST],
                 qualname: str, path: str):
        self.fn = fn
        self.qualname = qualname
        self.path = path
        self.global_names = {
            name for node in own if isinstance(node, ast.Global)
            for name in node.names
        }
        self.tracked: Set[str] = set()
        for node in own:
            for target in self._write_targets(node):
                loc = _shared_location(target, self.global_names)
                if loc is not None:
                    self.tracked.add(loc)
        self.lock_nodes = _lock_region_nodes(own)
        self.flagged: Set[Tuple[str, int]] = set()

    @staticmethod
    def _write_targets(node: ast.AST) -> List[ast.expr]:
        if isinstance(node, ast.Assign):
            out: List[ast.expr] = []
            for target in node.targets:
                if isinstance(target, ast.Tuple):
                    out.extend(target.elts)
                else:
                    out.append(target)
            return out
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        return []

    def run(self, findings: List[Finding]) -> None:
        if not self.tracked:
            return
        cfg = build_cfg(self.fn.body)
        envs: List[Dict[str, int]] = [{} for _ in cfg.blocks]
        # Every block is seeded so straight-line facts flow even before
        # any env changes; the worklist then re-runs only what joins
        # re-dirty.
        worklist = list(range(len(cfg.blocks)))
        iterations = 0
        limit = 40 * max(1, len(cfg.blocks))
        while worklist and iterations < limit:
            iterations += 1
            idx = worklist.pop()
            out = self._transfer(cfg.blocks[idx].items, dict(envs[idx]), None)
            for succ in cfg.blocks[idx].succs:
                joined = dict(envs[succ])
                changed = False
                for loc, state in out.items():
                    if state > joined.get(loc, _CLEAN):
                        joined[loc] = state
                        changed = True
                if changed:
                    envs[succ] = joined
                    if succ not in worklist:
                        worklist.append(succ)
        for block in cfg.blocks:
            self._transfer(block.items, dict(envs[block.idx]), findings)

    def _transfer(self, items: Sequence[ast.AST], env: Dict[str, int],
                  findings: Optional[List[Finding]]) -> Dict[str, int]:
        for item in items:
            if id(item) in self.lock_nodes:
                continue
            exprs = _interpreted_exprs(item)
            reads: Set[str] = set()
            writes: List[Tuple[str, ast.AST]] = []
            has_await = isinstance(item, (ast.AsyncFor, ast.AsyncWith))
            for expr in exprs:
                for node in ast.walk(expr):
                    if id(node) in self.lock_nodes:
                        continue
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        continue
                    if isinstance(node, ast.Await):
                        has_await = True
                    loc = None
                    if isinstance(node, (ast.Attribute, ast.Name)):
                        loc = _shared_location(node, self.global_names)
                    if loc is None or loc not in self.tracked:
                        continue
                    if isinstance(node.ctx, ast.Load):
                        reads.add(loc)
                    elif isinstance(node.ctx, ast.Store):
                        writes.append((loc, node))
                        if isinstance(item, ast.AugAssign):
                            reads.add(loc)
            for loc in reads:
                env[loc] = max(env.get(loc, _CLEAN), _READ)
            if has_await:
                for loc, state in env.items():
                    if state == _READ:
                        env[loc] = _READ_THEN_AWAIT
            for loc, node in writes:
                if env.get(loc, _CLEAN) == _READ_THEN_AWAIT:
                    mark = (loc, getattr(node, "lineno", 1))
                    if findings is not None and mark not in self.flagged:
                        self.flagged.add(mark)
                        _flag(
                            findings, "RPL202", self.path, node,
                            f"'{loc}' is read before an await and written "
                            f"after it in {self.qualname}(); an interleaved "
                            "task can change it mid-flight — hold a lock "
                            "across the await, collapse to a single "
                            "read-modify-write, or justify the single-writer "
                            "invariant with a suppression",
                        )
                env[loc] = _CLEAN
        return env


# ---------------------------------------------------------------------------
# RPL203 — fire-and-forget tasks
# ---------------------------------------------------------------------------
def _is_task_spawn(ctx, call: ast.Call) -> bool:
    resolved = _qual_prefix(ctx, call.func)
    if resolved is not None and resolved[0] == "asyncio" \
            and resolved[1] in ("create_task", "ensure_future"):
        return True
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr in ("create_task", "ensure_future"))


def check_fire_and_forget(
    fn: ast.AST, module: str, project: DataflowProject, path: str,
    findings: List[Finding],
) -> None:
    ctx = project.contexts[module]
    name_loads: Dict[str, int] = {}
    for node in project.index.own(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name_loads[node.id] = name_loads.get(node.id, 0) + 1
    for node, parent in project.index.own_with_parents(fn):
        if not (isinstance(node, ast.Call) and _is_task_spawn(ctx, node)):
            continue
        if isinstance(parent, ast.Expr):
            _flag(
                findings, "RPL203", path, node,
                "fire-and-forget task: the loop holds only a weak "
                "reference, so the task can be garbage-collected mid-run "
                "and its exception silently lost — retain the result "
                "(e.g. on self or in a set) or chain .add_done_callback()",
            )
        elif isinstance(parent, ast.Assign) and len(parent.targets) == 1 \
                and isinstance(parent.targets[0], ast.Name):
            if name_loads.get(parent.targets[0].id, 0) == 0:
                _flag(
                    findings, "RPL203", path, node,
                    f"task assigned to '{parent.targets[0].id}' which is "
                    "never read again — the reference dies with the scope; "
                    "store it somewhere that outlives this frame or add a "
                    "done-callback",
                )


# ---------------------------------------------------------------------------
# RPL211 — process-pool captures
# ---------------------------------------------------------------------------
def _mutable_module_globals(tree: ast.Module) -> Set[str]:
    """Module-level names bound to mutable literals/constructors."""
    mutable: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        is_mutable = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                        ast.ListComp, ast.DictComp,
                                        ast.SetComp))
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id in ("list", "dict", "set", "bytearray",
                                      "deque", "defaultdict", "Counter"):
            is_mutable = True
        if not is_mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                mutable.add(target.id)
    return mutable


def _globals_assigned_by(fn: ast.AST, project: DataflowProject) -> Set[str]:
    return {
        name for node in project.index.subtree(fn)
        if isinstance(node, ast.Global) for name in node.names
    }


def _free_names(fn: ast.AST, project: DataflowProject) -> Set[str]:
    """Names a nested function loads but does not bind locally."""
    bound = {a.arg for a in list(fn.args.posonlyargs) + list(fn.args.args)
             + list(fn.args.kwonlyargs)}
    if fn.args.vararg:
        bound.add(fn.args.vararg.arg)
    if fn.args.kwarg:
        bound.add(fn.args.kwarg.arg)
    loads: Set[str] = set()
    for node in project.index.subtree(fn):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node.ctx, ast.Load):
                loads.add(node.id)
    import builtins

    return {name for name in loads - bound if not hasattr(builtins, name)}


def _work_fn_rng_reason(ctx, fn: ast.AST) -> Optional[str]:
    """Unseeded RNG inside a pool work function (no seed/rng param)."""
    from repro.devtools.rules import NP_RANDOM_ALLOWED

    params = [a.arg for a in list(fn.args.posonlyargs) + list(fn.args.args)
              + list(fn.args.kwonlyargs)]
    if any(_SEED_PARAM_RE.search(p) for p in params):
        return None
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        resolved = _qual_prefix(ctx, node.func)
        if resolved is None:
            continue
        module, name = resolved
        if module == "random":
            return f"random.{name}() draws from process-global RNG state"
        if module in ("numpy.random", "np.random") \
                and name not in NP_RANDOM_ALLOWED:
            return f"numpy.random.{name}() draws unseeded entropy"
        if name == "default_rng" and not node.args and not node.keywords:
            return "default_rng() without a SeedSequence-derived seed"
    return None


def check_pool_captures(
    fn: ast.AST, module: str, tree: ast.Module, project: DataflowProject,
    path: str, findings: List[Finding],
) -> None:
    ctx = project.contexts[module]
    own = project.index.own(fn)
    pool_names: Set[str] = set()
    initializer_names: Set[str] = set()
    for node in own:
        ctor: Optional[ast.Call] = None
        target_name: Optional[str] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call):
            ctor, target_name = node.value, node.targets[0].id
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call) \
                        and isinstance(item.optional_vars, ast.Name):
                    ctor = item.context_expr
                    target_name = item.optional_vars.id
        if ctor is None or target_name is None:
            continue
        func = ctor.func
        is_pool = (isinstance(func, ast.Name)
                   and func.id == "ProcessPoolExecutor") \
            or (isinstance(func, ast.Attribute)
                and func.attr in ("Pool", "ProcessPoolExecutor"))
        if not is_pool:
            continue
        pool_names.add(target_name)
        for kw in ctor.keywords:
            if kw.arg == "initializer" and isinstance(kw.value, ast.Name):
                initializer_names.add(kw.value.id)
    if not pool_names:
        return

    local_defs = {
        node.name: node for node in own
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    module_defs = {
        node.name: node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    allowed_globals: Set[str] = set()
    for name in initializer_names:
        init_fn = local_defs.get(name) or module_defs.get(name)
        if init_fn is not None:
            allowed_globals |= _globals_assigned_by(init_fn, project)
    mutable_globals = _mutable_module_globals(tree)

    for node in own:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_SUBMIT_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in pool_names):
            continue
        if not node.args:
            continue
        work = node.args[0]
        if isinstance(work, ast.Lambda):
            _flag(
                findings, "RPL211", path, work,
                "lambda submitted to a process pool: unpicklable under "
                "spawn and its captures are invisible to the bit-identity "
                "contract — use a module-level function",
            )
        elif isinstance(work, ast.Name):
            work_fn = local_defs.get(work.id)
            if work_fn is not None:
                captured = sorted(
                    _free_names(work_fn, project) - set(module_defs)
                    - allowed_globals
                )
                if captured:
                    _flag(
                        findings, "RPL211", path, work,
                        f"nested work function '{work.id}' captures "
                        f"{captured} from the enclosing frame; captures do "
                        "not exist in spawned workers and mutate invisibly "
                        "under fork — pass state via initargs or arguments",
                    )
                work_fn_node: Optional[ast.AST] = work_fn
            else:
                work_fn_node = module_defs.get(work.id)
            if work_fn_node is not None:
                rng_reason = _work_fn_rng_reason(ctx, work_fn_node)
                if rng_reason is not None:
                    _flag(
                        findings, "RPL211", path, work,
                        f"pool work function '{work.id}' is RNG-bearing "
                        f"without a seed parameter: {rng_reason}; thread a "
                        "SeedSequence-derived seed through the task instead",
                    )
                reads = {
                    n.id for n in project.index.subtree(work_fn_node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                bad = sorted(
                    (reads & mutable_globals) - allowed_globals
                    - _globals_assigned_by(work_fn_node, project)
                )
                if bad:
                    _flag(
                        findings, "RPL211", path, work,
                        f"pool work function '{work.id}' reads mutable "
                        f"module global(s) {bad} not assigned by the pool "
                        "initializer; worker copies diverge silently — "
                        "prime them in the initializer or pass them as "
                        "arguments",
                    )
        for extra in node.args[1:]:
            if isinstance(extra, ast.Name) and extra.id in mutable_globals:
                _flag(
                    findings, "RPL211", path, extra,
                    f"mutable module global '{extra.id}' passed into a "
                    "process pool; each worker gets a divergent copy — "
                    "pass an immutable snapshot instead",
                )


# ---------------------------------------------------------------------------
# RPL212 — resource lifetime & buffer escape
# ---------------------------------------------------------------------------
def _resource_call_reason(ctx, call: ast.Call,
                          project: DataflowProject, module: str,
                          class_key: Optional[str]) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open" \
            and func.id not in ctx.from_imports:
        return "open()"
    resolved = _qual_prefix(ctx, func)
    if resolved is not None and resolved in _RESOURCE_CALLS:
        return f"{resolved[0]}.{resolved[1]}()"
    if isinstance(func, ast.Attribute) and func.attr == "open" \
            and resolved is None:
        # ``.open()`` on an untyped receiver is a file open *unless* it
        # resolves to a project function (e.g. LiveDataset.open).
        if not project.resolve_call(module, func, class_key):
            receiver = _dotted(func.value) or "<expr>"
            return f"{receiver}.open()"
    return None


def _name_has_close(own: List[ast.AST], name: str) -> bool:
    for node in own:
        if isinstance(node, ast.Attribute) \
                and node.attr in ("close", "closed", "__exit__") \
                and isinstance(node.value, ast.Name) \
                and node.value.id == name:
            return True
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    return True
        if isinstance(node, ast.Call):
            wrapper = None
            if isinstance(node.func, ast.Attribute):
                wrapper = node.func.attr
            elif isinstance(node.func, ast.Name):
                wrapper = node.func.id
            if wrapper in _RESOURCE_WRAPPERS and any(
                isinstance(a, ast.Name) and a.id == name for a in node.args
            ):
                return True
    return False


def _escapes_via(value: ast.expr, name: str) -> bool:
    """Does the handle ``name`` itself escape through ``value``?
    ``return fh`` / ``return (a, fh)`` / ``return closing(fh)`` do;
    ``return fh.read()`` only returns derived data — the handle stays
    this function's problem."""
    receivers = {
        id(node.value) for node in ast.walk(value)
        if isinstance(node, ast.Attribute)
    }
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        and id(sub) not in receivers
        for sub in ast.walk(value)
    )


def _name_is_returned(own: List[ast.AST], name: str) -> bool:
    for node in own:
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) \
                and node.value is not None \
                and _escapes_via(node.value, name):
            return True
    return False


def seed_resource_returns(project: DataflowProject) -> None:
    """Mark every function that hands back an open resource (directly
    returned, or bound to a name that is returned without a local
    close).  :func:`effect_summaries` runs it before any rule, so
    callers see callee summaries regardless of file order."""
    for effects in project.functions.values():
        ctx = project.contexts[effects.module]
        own = project.index.own(effects.node)
        for node, parent in project.index.own_with_parents(effects.node):
            if not isinstance(node, ast.Call):
                continue
            reason = _resource_call_reason(ctx, node, project, effects.module,
                                           effects.class_key)
            if reason is None:
                continue
            if isinstance(parent, (ast.Return, ast.Yield)):
                effects.returns_resource = True
            elif isinstance(parent, ast.Assign) \
                    and len(parent.targets) == 1 \
                    and isinstance(parent.targets[0], ast.Name) \
                    and _name_is_returned(own, parent.targets[0].id) \
                    and not _name_has_close(own, parent.targets[0].id):
                effects.returns_resource = True


def check_resource_lifetime(
    fn: ast.AST, module: str, class_key: Optional[str],
    project: DataflowProject, path: str, findings: List[Finding],
) -> None:
    ctx = project.contexts[module]
    local_types = project.local_types(module, fn)
    own = project.index.own(fn)
    managed_names: Set[str] = set()
    for node, parent in project.index.own_with_parents(fn):
        if not isinstance(node, ast.Call):
            continue
        reason = _resource_call_reason(ctx, node, project, module, class_key)
        if reason is None:
            continue
        if isinstance(parent, ast.withitem):
            if isinstance(parent.optional_vars, ast.Name):
                managed_names.add(parent.optional_vars.id)
            continue
        resolved = _qual_prefix(ctx, node.func)
        if resolved is not None and resolved[1] in ("mkstemp", "mkdtemp"):
            # fd/path tuples: managed when the fd reaches os.fdopen /
            # os.close (the repo's atomic-write idiom).
            if isinstance(parent, ast.Assign) \
                    and isinstance(parent.targets[0], ast.Tuple) \
                    and parent.targets[0].elts \
                    and isinstance(parent.targets[0].elts[0], ast.Name):
                fd_name = parent.targets[0].elts[0].id
                if _name_has_close(own, fd_name):
                    continue
            _flag(
                findings, "RPL212", path, node,
                f"{reason} creates an fd nothing closes — pass it to "
                "os.fdopen() under a context manager (see core.io)",
            )
            continue
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            if isinstance(target, ast.Name):
                if _name_has_close(own, target.id):
                    continue
                if _name_is_returned(own, target.id):
                    continue  # effect_summaries marked returns_resource
                _flag(
                    findings, "RPL212", path, node,
                    f"{reason} result bound to '{target.id}' is never "
                    "closed, context-managed, or returned — the handle "
                    "leaks until GC finalizes it at an arbitrary point",
                )
                continue
            if isinstance(target, ast.Attribute):
                # Ownership moved onto an object; require a finalizer or
                # close elsewhere — beyond one-function scope, allow it.
                continue
        if isinstance(parent, ast.Call):
            wrapper = None
            if isinstance(parent.func, ast.Attribute):
                wrapper = parent.func.attr
            elif isinstance(parent.func, ast.Name):
                wrapper = parent.func.id
            if wrapper in _RESOURCE_WRAPPERS:
                continue
            _flag(
                findings, "RPL212", path, node,
                f"{reason} passed straight into {wrapper or 'a call'}(); "
                "no reference survives to close it — open under a `with` "
                "and pass the handle",
            )
            continue
        if isinstance(parent, ast.Expr):
            _flag(
                findings, "RPL212", path, node,
                f"{reason} result discarded — the resource is opened and "
                "immediately leaked",
            )

    # Callers that discard a resource-returning function's result.
    for node, parent in project.index.own_with_parents(fn):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(parent, ast.Expr):
            continue
        for key in project.resolve_call(module, node.func, class_key,
                                        local_types):
            callee = project.functions.get(key)
            if callee is not None and callee.returns_resource:
                _flag(
                    findings, "RPL212", path, node,
                    f"result of {callee.qualname}() is discarded but "
                    "carries an open resource the caller must close",
                )
                break

    # Buffer escape: views built over a with-managed resource must not
    # outlive the block.
    for node, parent in project.index.own_with_parents(fn):
        if not isinstance(node, ast.Call):
            continue
        is_view = (isinstance(node.func, ast.Name)
                   and node.func.id == "memoryview") \
            or (isinstance(node.func, ast.Attribute)
                and node.func.attr == "frombuffer")
        if not is_view:
            continue
        over_managed = any(
            isinstance(sub, ast.Name) and sub.id in managed_names
            for arg in node.args for sub in ast.walk(arg)
        )
        if not over_managed:
            continue
        escapes = isinstance(parent, ast.Return) \
            or (isinstance(parent, ast.Assign)
                and any(isinstance(t, ast.Attribute)
                        for t in parent.targets)) \
            or (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Attribute)
                and parent.func.attr == "from_columns")
        if not escapes and isinstance(parent, ast.Assign) \
                and isinstance(parent.targets[0], ast.Name):
            escapes = _name_is_returned(own, parent.targets[0].id)
        if escapes:
            _flag(
                findings, "RPL212", path, node,
                "buffer view over a with-managed resource escapes the "
                "block; the backing store closes at exit and the view "
                "dangles — copy the data or keep the store open for the "
                "view's lifetime (np.memmap keeps its own reference and "
                "is safe)",
            )


# ---------------------------------------------------------------------------
# RPL213 — atomic write idiom
# ---------------------------------------------------------------------------
def _write_mode_of(call: ast.Call) -> Optional[str]:
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return None
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _has_rename_marker(ctx, own: List[ast.AST]) -> bool:
    for node in own:
        if not isinstance(node, ast.Call):
            continue
        resolved = _qual_prefix(ctx, node.func)
        if resolved is not None and resolved[0] in ("os", "tempfile") \
                and resolved[1] in ("replace", "rename", "mkstemp",
                                    "mkdtemp", "NamedTemporaryFile"):
            return True
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("replace", "rename") \
                and len(node.args) == 1:
            return True
    return False


def _mentions_temp(node: ast.AST) -> bool:
    return any("tmp" in name.lower() or "temp" in name.lower()
               for name in _names_under(node))


def check_atomic_writes(
    fn: ast.AST, module: str, project: DataflowProject, path: str,
    findings: List[Finding],
) -> None:
    ctx = project.contexts[module]
    own = project.index.own(fn)
    if _has_rename_marker(ctx, own):
        return
    for node in own:
        if not isinstance(node, ast.Call):
            continue
        target: Optional[ast.AST] = None
        mode: Optional[str] = None
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = _write_mode_of(node)
            target = node.args[0] if node.args else None
        elif isinstance(node.func, ast.Attribute):
            if node.func.attr == "open":
                mode = _write_mode_of(node)
                target = node.func.value
            elif node.func.attr in ("write_text", "write_bytes"):
                mode = "w"
                target = node.func.value
        if mode is None or not any(c in mode for c in "wx") or "a" in mode:
            continue
        if target is not None and _mentions_temp(target):
            continue
        _flag(
            findings, "RPL213", path, node,
            "in-place write: a crash mid-write leaves a torn file other "
            "readers can see — write to a temp file in the same directory "
            "and os.replace() it over the target (core.io._atomic_write), "
            "staging blobs before any manifest references them",
        )


# ---------------------------------------------------------------------------
# module driver
# ---------------------------------------------------------------------------
def _iter_functions(
    body: Sequence[ast.stmt], module: str, class_key: Optional[str],
    prefix: str, out: List[Tuple[ast.AST, Optional[str], str]],
) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}"
            out.append((node, class_key, qualname))
            _iter_functions(node.body, module, class_key,
                            f"{qualname}.<locals>.", out)
        elif isinstance(node, ast.ClassDef):
            nested_key = f"{module}.{node.name}" if not prefix else None
            _iter_functions(node.body, module, nested_key,
                            f"{prefix}{node.name}.", out)


def check_module(path: Path, tree: ast.Module,
                 project: DataflowProject) -> List[Finding]:
    parts = module_parts(path)
    if not parts or parts[0] != "repro":
        return []
    module = module_name(path)
    package = module.split(".")[1] if "." in module else ""
    rel = path.as_posix()
    findings: List[Finding] = []
    functions: List[Tuple[ast.AST, Optional[str], str]] = []
    _iter_functions(tree.body, module, None, "", functions)
    for fn, class_key, qualname in functions:
        if isinstance(fn, ast.AsyncFunctionDef):
            project.analyzed_async.add((module, qualname, fn.lineno))
            check_async_blocking(fn, module, class_key, project, rel,
                                 findings)
            _SharedStateAnalyzer(fn, project.index.own(fn), qualname,
                                 rel).run(findings)
        check_fire_and_forget(fn, module, project, rel, findings)
        check_pool_captures(fn, module, tree, project, rel, findings)
        check_resource_lifetime(fn, module, class_key, project, rel, findings)
        if package in ATOMIC_WRITE_PACKAGES:
            check_atomic_writes(fn, module, project, rel, findings)
    return findings


__all__ = [
    "ATOMIC_WRITE_PACKAGES",
    "blocking_call_reason",
    "check_async_blocking",
    "check_atomic_writes",
    "check_fire_and_forget",
    "check_module",
    "check_pool_captures",
    "check_resource_lifetime",
    "describe_blocking",
    "effect_summaries",
]
