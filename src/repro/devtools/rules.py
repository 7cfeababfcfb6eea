"""The *reprolint* rule catalogue and the syntactic rules RPL001 and
RPL003–RPL005.

Each rule encodes one repo-specific invariant that generic linters
cannot express because it depends on knowledge of this codebase — the
canonical FOT schema, the :class:`~repro.core.dataset.FOTDataset` column
surface, and the analysis-cache registries:

* **RPL001 determinism** — no unseeded randomness or wall-clock reads in
  the data-producing packages.  Seeded ``numpy.random.default_rng`` /
  ``SeedSequence`` flows are the only sanctioned entropy source.
* **RPL003 cache purity** — functions registered with the
  :class:`~repro.engine.cache.AnalysisCache` (the ``repro.api.ANALYSES``
  registry and the ``full_report`` section builders) must be pure:
  no file I/O, no module-global mutation, no argument mutation.
* **RPL004 schema integrity** — FOT field names referenced as string
  literals (loader record keys, corruptor field lists) must exist in
  the canonical :class:`~repro.core.ticket.FOT` schema.
* **RPL005 API hygiene** — every ``__all__`` entry must resolve to a
  real binding (including PEP 562 lazy-export tables), and the facade
  re-exports in ``repro/__init__.py`` / ``repro.api`` must agree with
  the source modules' ``__all__``.

The checks are deliberately heuristic (single-pass, order-sensitive,
no CFG).  RPL002 (immutability) is emitted by the abstract interpreter
in :mod:`repro.devtools.dataflow`, from the column taint sources named
here (:data:`COLUMN_PROPERTIES`); the runtime sanitizer in
:mod:`repro.devtools.sanitize` is the ground-truth complement that
validates RPL002 and RPL003 dynamically.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.devtools.index import NodeIndex

#: rule id -> one-line description (also rendered by ``--list-rules``).
RULES: Dict[str, str] = {
    "RPL000": "meta: malformed or unused reprolint suppression",
    "RPL001": "determinism: no unseeded randomness or wall-clock reads in data code",
    "RPL002": "immutability: never mutate arrays derived from ColumnStore/FOTDataset",
    "RPL003": "cache purity: cached analysis functions must be side-effect free",
    "RPL004": "schema integrity: FOT field literals must exist in the canonical schema",
    "RPL005": "API hygiene: __all__ must match real bindings and facade re-exports",
    # Semantic rules implemented by the abstract interpreter
    # (repro.devtools.dataflow).
    "RPL101": "time units: no cross-unit arithmetic/comparison; convert via core.timeutil",
    "RPL102": "time units: no magic second-count literals folded into arithmetic",
    "RPL103": "dtype width: no narrowing casts/accumulation over time-unit values",
    "RPL104": "shard determinism: sort set/dict/fs-listing iteration before ordered folds",
    # Concurrency & resource-safety rules over the effect summaries
    # (repro.devtools.effect_rules) of the dataflow project's call graph.
    "RPL201": "async blocking: no synchronous blocking calls on the event loop",
    "RPL202": "async sharing: no shared mutable state read-then-written across an await",
    "RPL203": "async tasks: create_task results must be retained or given a done-callback",
    "RPL211": "pool captures: process-pool work must not capture mutable/unpicklable/unseeded-RNG state",
    "RPL212": "resource lifetime: files/mmaps need a context manager, close, or finalizer; buffers must not outlive their backing store",
    "RPL213": "atomic writes: durable files are written via write-then-rename, never in place",
}


@dataclasses.dataclass(frozen=True)
class Finding:
    """One linter finding, anchored to a file position."""

    rule: str
    path: str
    line: int
    col: int              # 0-based, in UTF-8 bytes like ``ast``'s offsets
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# ---------------------------------------------------------------------------
# canonical knowledge imported from the library itself (no drift possible)
# ---------------------------------------------------------------------------
def _schema_fields() -> "frozenset[str]":
    from repro.core.ticket import FOT

    return frozenset(f.name for f in dataclasses.fields(FOT))


def _column_properties() -> "frozenset[str]":
    """Names of ``FOTDataset`` properties that expose store columns —
    RPL002's taint sources (with ``store.column(...)``)."""
    from repro.core.dataset import FOTDataset

    names = set()
    for name, member in vars(FOTDataset).items():
        if isinstance(member, property) and member.fget is not None:
            try:
                source = inspect.getsource(member.fget)
            except (OSError, TypeError):  # pragma: no cover - source always on disk
                continue
            if "_col(" in source or "_derived(" in source:
                names.add(name)
    return frozenset(names)


SCHEMA_FIELDS = _schema_fields()
COLUMN_PROPERTIES = _column_properties()

#: Packages under ``repro`` whose code must be deterministic (RPL001).
DETERMINISTIC_PACKAGES = frozenset(
    {"simulation", "analysis", "stats", "engine", "core", "fms", "fleet", "robustness"}
)

#: The only sanctioned names on ``numpy.random`` (seeded-generator flows).
NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Variable names treated as raw FOT record dicts in the record modules
#: (RPL004).  Scoped to a name list so unrelated dicts (manifests,
#: counters) never false-positive.
RECORD_NAMES = frozenset(
    {"record", "records", "row", "rows", "rec", "raw", "dup", "dropped", "bad",
     "mislabeled", "repaired"}
)

#: Modules whose record-dict subscripts/get() keys are schema-checked.
RECORD_MODULES = frozenset({"repro.core.io", "repro.robustness.chaos"})

#: Keys legal on a record dict beyond the FOT schema.
RECORD_EXTRA_KEYS = frozenset({"detail"})

#: Methods that mutate their receiver (RPL003 argument/global mutation).
IMPURE_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "clear", "pop", "popitem",
        "update", "setdefault", "sort", "reverse", "add", "discard",
        "fill", "resize", "put", "itemset", "setflags",
    }
)

#: File-touching callables banned inside cached analyses (RPL003).
IO_PATH_METHODS = frozenset(
    {
        "write_text", "write_bytes", "read_text", "read_bytes", "unlink",
        "mkdir", "rmdir", "touch", "rename", "replace", "symlink_to",
    }
)
IO_OS_FUNCTIONS = frozenset(
    {"remove", "unlink", "rename", "replace", "makedirs", "mkdir", "rmdir",
     "system", "popen"}
)


# ---------------------------------------------------------------------------
# path / module helpers
# ---------------------------------------------------------------------------
def module_parts(path: Path) -> Tuple[str, ...]:
    """Path components from the package anchor (``repro`` / ``tests`` /
    ``benchmarks``) down to the file."""
    parts = path.parts
    for anchor in ("repro", "tests", "benchmarks"):
        if anchor in parts:
            return parts[parts.index(anchor):]
    return (path.name,)


def module_name(path: Path) -> str:
    """Dotted module name of a source file (``repro.core.io``)."""
    parts = list(module_parts(path))
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return ".".join(parts)


def _is_str(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _str_elements(node: ast.AST) -> Optional[List[Tuple[str, int, int]]]:
    """String elements of a list/tuple/set literal (or a ``frozenset``/
    ``set``/``tuple`` call wrapping one); None when not such a literal."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in {"frozenset", "set", "tuple", "list"} \
            and len(node.args) == 1:
        node = node.args[0]
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        out = []
        for element in node.elts:
            if not _is_str(element):
                return None
            assert isinstance(element, ast.Constant)
            out.append((element.value, element.lineno, element.col_offset))
        return out
    return None


# ---------------------------------------------------------------------------
# project-wide context (cross-file registries for RPL003 / RPL005)
# ---------------------------------------------------------------------------
class Project:
    """Parsed view of every file in one lint run."""

    def __init__(self, files: Dict[Path, ast.Module]):
        self.files = files
        self.by_module: Dict[str, ast.Module] = {
            module_name(path): tree for path, tree in files.items()
        }
        #: own nodes and parents of every scope of every file.
        self.index = NodeIndex(files.values())
        #: RPL001 visitor findings of every file, one pass each: the
        #: rule reports them in the deterministic packages, and the
        #: dataflow summaries are seeded from them in every package.
        self.determinism: Dict[Path, List[Finding]] = {}
        for path, tree in files.items():
            visitor = _DeterminismVisitor(path.as_posix())
            visitor.visit(tree)
            self.determinism[path] = visitor.findings
        #: module name -> function names that must be cache-pure.
        self.registered_pure: Dict[str, Set[str]] = {}
        self._collect_registries()

    # -- registry collection -------------------------------------------
    def _collect_registries(self) -> None:
        api = self.by_module.get("repro.api")
        if api is not None:
            self._collect_analyses_registry(api)
        full_report = self.by_module.get("repro.analysis.full_report")
        if full_report is not None:
            self._collect_function_references(
                "repro.analysis.full_report", full_report
            )

    def _register(self, module: str, func: str) -> None:
        self.registered_pure.setdefault(module, set()).add(func)

    def _collect_analyses_registry(self, tree: ast.Module) -> None:
        """Functions referenced in ``repro.api.ANALYSES`` are cached via
        ``AnalysisCache.call`` and must be pure."""
        alias_to_module: Dict[str, str] = {}
        for node in self.index.walk_order(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    alias_to_module[bound] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    alias_to_module.setdefault(bound, alias.name)
        for node in self.index.subtree(tree):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Name) and target.id == "ANALYSES"):
                continue
            if not isinstance(node.value, ast.Dict):
                continue
            for value in node.value.values:
                ref = value.elts[0] if (
                    isinstance(value, ast.Tuple) and value.elts
                ) else value
                if isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name):
                    target_module = alias_to_module.get(ref.value.id)
                    if target_module:
                        self._register(target_module, ref.attr)
                elif isinstance(ref, ast.Name):
                    self._register("repro.api", ref.id)

    def _collect_function_references(self, module: str, tree: ast.Module) -> None:
        """Module-level functions referenced *as values* (not called) are
        handed to the cache by ``full_report`` and must be pure."""
        local_functions = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        called = {id(node.func) for node in self.index.subtree(tree)
                  if isinstance(node, ast.Call)}
        for node in self.index.subtree(tree):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in local_functions
                and id(node) not in called
            ):
                self._register(module, node.id)

    # -- lookups --------------------------------------------------------
    def module_all(self, module: str) -> Optional[List[str]]:
        """The ``__all__`` literal of a module, or None."""
        tree = self.by_module.get(module)
        if tree is None:
            return None
        names = _module_all_names(tree)
        return names[0] if names else None


def _module_all_names(tree: ast.Module) -> Optional[Tuple[List[str], int]]:
    """``(__all__ entries, line)`` from top-level assignments (including
    ``__all__ += [...]`` extensions)."""
    collected: List[str] = []
    line = 0
    seen = False
    for node in tree.body:
        value = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == "__all__":
            value = node.value
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name) \
                and node.target.id == "__all__":
            value = node.value
        if value is None:
            continue
        elements = _str_elements(value)
        if elements is None:
            return None  # dynamic __all__ — out of scope
        seen = True
        line = line or node.lineno
        collected.extend(name for name, _, _ in elements)
    return (collected, line) if seen else None


def _module_bound_names(tree: ast.Module) -> Set[str]:
    """Names statically bound at module top level, including keys of
    lazy-export dict literals when the module defines ``__getattr__``
    (PEP 562)."""
    bound: Set[str] = set()
    has_getattr = False
    lazy_keys: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if node.name == "__getattr__":
                has_getattr = True
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        bound.add(name_node.id)
            if isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if _is_str(key):
                        assert isinstance(key, ast.Constant)
                        lazy_keys.add(key.value)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    if has_getattr:
        bound |= lazy_keys
    return bound


# ---------------------------------------------------------------------------
# RPL001 — determinism
# ---------------------------------------------------------------------------
class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self.random_mods: Set[str] = set()
        self.nprandom_mods: Set[str] = set()
        self.np_mods: Set[str] = set()
        self.time_mods: Set[str] = set()
        self.os_mods: Set[str] = set()
        self.uuid_mods: Set[str] = set()
        self.secrets_mods: Set[str] = set()
        self.datetime_mods: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        self.banned_names: Dict[str, str] = {}

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding("RPL001", self.path, getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0), message)
        )

    # imports ----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            mod = alias.name
            if mod == "random":
                self.random_mods.add(bound)
            elif mod in {"numpy", "np"}:
                self.np_mods.add(bound)
            elif mod == "numpy.random":
                if alias.asname:
                    self.nprandom_mods.add(bound)
                else:
                    self.np_mods.add("numpy")
            elif mod == "time":
                self.time_mods.add(bound)
            elif mod == "os":
                self.os_mods.add(bound)
            elif mod == "uuid":
                self.uuid_mods.add(bound)
            elif mod == "secrets":
                self.secrets_mods.add(bound)
                self._flag(node, "import of 'secrets' in deterministic code")
            elif mod == "datetime":
                self.datetime_mods.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if module == "random":
                self._flag(
                    node,
                    f"'from random import {alias.name}' — stdlib random is "
                    "unseeded; use a numpy Generator threaded from SeedSequence",
                )
            elif module == "secrets":
                self._flag(node, "import from 'secrets' in deterministic code")
            elif module == "numpy" and alias.name == "random":
                self.nprandom_mods.add(bound)
            elif module == "numpy.random" and alias.name not in NP_RANDOM_ALLOWED:
                self._flag(
                    node,
                    f"legacy numpy.random.{alias.name} import — only seeded "
                    "Generator/SeedSequence flows are allowed",
                )
            elif module == "time" and alias.name in {"time", "time_ns"}:
                self.banned_names[bound] = f"time.{alias.name}"
            elif module == "os" and alias.name == "urandom":
                self.banned_names[bound] = "os.urandom"
            elif module == "uuid" and alias.name in {"uuid1", "uuid4"}:
                self.banned_names[bound] = f"uuid.{alias.name}"
            elif module == "datetime" and alias.name in {"datetime", "date"}:
                self.datetime_classes.add(bound)
        self.generic_visit(node)

    # usage ------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        base = node.value
        if isinstance(base, ast.Name):
            name = base.id
            if name in self.random_mods:
                self._flag(
                    node,
                    f"random.{node.attr} — stdlib random is unseeded; use a "
                    "numpy Generator threaded from SeedSequence",
                )
            elif name in self.nprandom_mods and node.attr not in NP_RANDOM_ALLOWED:
                self._flag(
                    node,
                    f"legacy numpy.random.{node.attr} — only "
                    "default_rng/Generator/SeedSequence flows are allowed",
                )
            elif name in self.time_mods and node.attr in {"time", "time_ns"}:
                self._flag(node, f"time.{node.attr}() wall-clock read in "
                                 "deterministic code")
            elif name in self.os_mods and node.attr == "urandom":
                self._flag(node, "os.urandom — nondeterministic entropy source")
            elif name in self.uuid_mods and node.attr in {"uuid1", "uuid4"}:
                self._flag(node, f"uuid.{node.attr} — nondeterministic id source")
            elif name in self.secrets_mods:
                self._flag(node, f"secrets.{node.attr} — nondeterministic "
                                 "entropy source")
            elif name in self.datetime_classes and node.attr in {
                "now", "utcnow", "today",
            }:
                self._flag(node, f"datetime.{node.attr}() wall-clock read in "
                                 "deterministic code")
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            root = base.value.id
            if root in self.np_mods and base.attr == "random" \
                    and node.attr not in NP_RANDOM_ALLOWED:
                self._flag(
                    node,
                    f"legacy numpy.random.{node.attr} — only "
                    "default_rng/Generator/SeedSequence flows are allowed",
                )
            elif root in self.datetime_mods and base.attr in {"datetime", "date"} \
                    and node.attr in {"now", "utcnow", "today"}:
                self._flag(node, f"datetime.{base.attr}.{node.attr}() wall-clock "
                                 "read in deterministic code")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in self.banned_names:
            self._flag(node, f"{self.banned_names[node.id]} — nondeterministic "
                             "in data code")
        self.generic_visit(node)


def check_determinism(path: Path, parts: Tuple[str, ...],
                      project: Project) -> List[Finding]:
    if len(parts) < 2 or parts[0] != "repro" or parts[1] not in DETERMINISTIC_PACKAGES:
        return []
    return project.determinism[path]


# ---------------------------------------------------------------------------
# RPL003 — cache purity
# ---------------------------------------------------------------------------
def _purity_findings(path: str, fn: ast.FunctionDef,
                     module_globals: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
    if fn.args.vararg:
        params.add(fn.args.vararg.arg)
    if fn.args.kwarg:
        params.add(fn.args.kwarg.arg)

    def flag(node: ast.AST, message: str) -> None:
        findings.append(
            Finding("RPL003", path, getattr(node, "lineno", fn.lineno),
                    getattr(node, "col_offset", 0),
                    f"cached analysis '{fn.name}' {message}")
        )

    def root_name(node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    local_binds: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            flag(node, f"declares {type(node).__name__.lower()} "
                       f"{', '.join(node.names)} — cached analyses may not "
                       "rebind outer state")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id == "open":
                    flag(node, "opens a file — cached analyses must not do I/O")
                elif func.id == "print":
                    flag(node, "prints — cached analyses must return data, "
                               "not write streams")
            elif isinstance(func, ast.Attribute):
                base = func.value
                if func.attr in IO_PATH_METHODS:
                    flag(node, f"calls .{func.attr}() — cached analyses must "
                               "not touch the filesystem")
                elif isinstance(base, ast.Name) and base.id == "os" \
                        and func.attr in IO_OS_FUNCTIONS:
                    flag(node, f"calls os.{func.attr}() — cached analyses "
                               "must not touch the filesystem")
                elif isinstance(base, ast.Name) and base.id in {"shutil"}:
                    flag(node, f"calls shutil.{func.attr}() — cached analyses "
                               "must not touch the filesystem")
                elif isinstance(base, ast.Name) and base.id in {"json", "pickle"} \
                        and func.attr in {"dump", "load"}:
                    flag(node, f"calls {base.id}.{func.attr}() on a stream — "
                               "cached analyses must not do I/O")
                elif func.attr in IMPURE_METHODS:
                    root = root_name(func.value)
                    if root in params and root not in local_binds:
                        flag(node, f"mutates argument '{root}' via "
                                   f".{func.attr}() — arguments are caller "
                                   "state")
                    elif root in module_globals:
                        flag(node, f"mutates module global '{root}' via "
                                   f".{func.attr}() — results must depend on "
                                   "inputs only")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    root = root_name(target.value)
                    if root in params and root not in local_binds:
                        flag(node, f"assigns into argument '{root}' — "
                                   "arguments are caller state")
                    elif root in module_globals:
                        flag(node, f"assigns into module global '{root}' — "
                                   "results must depend on inputs only")
                elif isinstance(target, ast.Name):
                    local_binds.add(target.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                            ast.Subscript):
            root = root_name(node.target.value)
            if root in params and root not in local_binds:
                flag(node, f"augments into argument '{root}' — arguments are "
                           "caller state")
            elif root in module_globals:
                flag(node, f"augments module global '{root}' — results must "
                           "depend on inputs only")
    return findings


def check_cache_purity(path: str, parts: Tuple[str, ...], tree: ast.Module,
                       project: Project) -> List[Finding]:
    registered = project.registered_pure.get(module_name(Path(path)))
    if not registered:
        return []
    module_globals = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and not target.id.startswith("__")
    }
    findings: List[Finding] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in registered:
            findings.extend(_purity_findings(path, node, module_globals))
    return findings


# ---------------------------------------------------------------------------
# RPL004 — schema integrity
# ---------------------------------------------------------------------------
def _check_field_literal(path: str, value: str, line: int, col: int,
                         context: str) -> Optional[Finding]:
    if value in SCHEMA_FIELDS or value in RECORD_EXTRA_KEYS:
        return None
    return Finding(
        "RPL004", path, line, col,
        f"{context} references field {value!r} which is not in the canonical "
        f"FOT schema — stringly-typed drift",
    )


def check_schema_integrity(path: str, parts: Tuple[str, ...],
                           tree: ast.Module, project: Project) -> List[Finding]:
    findings: List[Finding] = []
    module = module_name(Path(path))
    in_record_module = module in RECORD_MODULES

    # FIELDS-style module constants anywhere under repro/.
    if parts and parts[0] == "repro":
        for node in tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Name) and "FIELDS" in target.id.upper()):
                continue
            elements = _str_elements(node.value)
            if elements is None:
                continue
            for value, line, col in elements:
                finding = _check_field_literal(
                    path, value, line, col, f"constant {target.id}"
                )
                if finding:
                    findings.append(finding)

    if not in_record_module:
        return findings

    for node in project.index.subtree(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                and node.value.id in RECORD_NAMES and _is_str(node.slice):
            assert isinstance(node.slice, ast.Constant)
            finding = _check_field_literal(
                path, node.slice.value, node.lineno, node.col_offset,
                f"record subscript {node.value.id}[...]",
            )
            if finding:
                findings.append(finding)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "get" \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in RECORD_NAMES \
                    and node.args and _is_str(node.args[0]):
                key = node.args[0]
                assert isinstance(key, ast.Constant)
                finding = _check_field_literal(
                    path, key.value, node.lineno, node.col_offset,
                    f"{func.value.id}.get(...)",
                )
                if finding:
                    findings.append(finding)
            elif isinstance(func, ast.Name) and func.id == "_require" \
                    and len(node.args) >= 2 and _is_str(node.args[1]):
                key = node.args[1]
                assert isinstance(key, ast.Constant)
                finding = _check_field_literal(
                    path, key.value, node.lineno, node.col_offset, "_require(...)"
                )
                if finding:
                    findings.append(finding)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if not isinstance(value, ast.Dict):
                continue
            if not any(isinstance(t, ast.Name) and t.id in RECORD_NAMES
                       for t in targets):
                continue
            for key in value.keys:
                if _is_str(key):
                    assert isinstance(key, ast.Constant)
                    finding = _check_field_literal(
                        path, key.value, key.lineno, key.col_offset,
                        "record dict literal",
                    )
                    if finding:
                        findings.append(finding)
    return findings


# ---------------------------------------------------------------------------
# RPL005 — API hygiene
# ---------------------------------------------------------------------------
#: Facade modules whose re-export imports must agree with source __all__.
FACADE_MODULES = frozenset({"repro", "repro.api"})


def check_api_hygiene(path: str, parts: Tuple[str, ...], tree: ast.Module,
                      project: Project) -> List[Finding]:
    if not parts or parts[0] != "repro":
        return []
    findings: List[Finding] = []
    module = module_name(Path(path))

    all_names = _module_all_names(tree)
    if all_names is not None:
        names, line = all_names
        bound = _module_bound_names(tree)
        for name in names:
            if name not in bound:
                findings.append(
                    Finding(
                        "RPL005", path, line, 0,
                        f"__all__ exports {name!r} but the module never binds "
                        "it (stale re-export?)",
                    )
                )

    if module in FACADE_MODULES:
        for node in tree.body:
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("repro")):
                continue
            if node.module == module:
                continue
            exported = project.module_all(node.module)
            if exported is None:
                continue
            source_tree = project.by_module.get(node.module)
            source_bound = (
                _module_bound_names(source_tree) if source_tree else set()
            )
            for alias in node.names:
                # Submodule imports (``from repro.analysis import overview``)
                # re-export modules, not names; skip when it resolves to one.
                if f"{node.module}.{alias.name}" in project.by_module:
                    continue
                if alias.name not in exported and alias.name in source_bound:
                    findings.append(
                        Finding(
                            "RPL005", path, node.lineno, node.col_offset,
                            f"facade re-exports {alias.name!r} from "
                            f"{node.module} but it is missing from that "
                            "module's __all__",
                        )
                    )
                elif alias.name not in exported and alias.name not in source_bound:
                    findings.append(
                        Finding(
                            "RPL005", path, node.lineno, node.col_offset,
                            f"facade imports {alias.name!r} but {node.module} "
                            "neither binds nor exports it",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# entry point used by repro.devtools.lint
# ---------------------------------------------------------------------------
def check_file(path: Path, tree: ast.Module, project: Project) -> List[Finding]:
    """Run every rule that applies to ``path``."""
    parts = module_parts(path)
    rel = path.as_posix()
    findings: List[Finding] = []
    findings.extend(check_determinism(path, parts, project))
    findings.extend(check_cache_purity(rel, parts, tree, project))
    findings.extend(check_schema_integrity(rel, parts, tree, project))
    findings.extend(check_api_hygiene(rel, parts, tree, project))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


__all__ = [
    "RULES",
    "Finding",
    "Project",
    "SCHEMA_FIELDS",
    "COLUMN_PROPERTIES",
    "DETERMINISTIC_PACKAGES",
    "check_file",
    "module_name",
    "module_parts",
]
