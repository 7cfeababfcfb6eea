"""Span tracing from outside the program.

The benchmark may not edit ``src/``, so layers are timed by wrapping
their public functions at run time.  A :class:`Tracer` replaces each
target with a wrapper that records one span per call (name, start,
end, parent span) in memory, and :meth:`Tracer.restore` puts every
original back.

A function imported by name into other modules (``from x import f``)
is replaced in every ``repro`` module that holds it, so calls through
any of those names are seen.  Parents are tracked with a context
variable, so spans nest correctly inside each asyncio task and each
thread; work handed to an executor starts a new root.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_PARENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "productbench_parent_span", default=None
)


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``path`` is ``module:attr`` or ``module:Class.attr``; ``name`` is the
    span name reported.  ``spans=False`` only counts calls, for
    functions called per row where a span per call would dominate.
    """

    path: str
    name: str
    spans: bool = True


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


@dataclass(frozen=True)
class LayerStats:
    total_s: float
    self_s: float
    durations: Tuple[float, ...]


def _resolve(path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw attribute value)`` for ``module:a.b``."""
    module_name, _, qualname = path.partition(":")
    owner: Any = import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        raw = inspect.getattr_static(owner, attr)
    else:
        raw = getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Wraps targets, records spans and counts, restores originals."""

    def __init__(self, targets: Iterable[Target]):
        self.targets = tuple(targets)
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._tallies: Dict[str, List[None]] = {}
        self._lock = threading.Lock()  # pairs a span with its index
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        for target in self.targets:
            try:
                owner, attr, raw = _resolve(target.path)
            except (ImportError, AttributeError):
                self.missing.append(target.path)
                continue
            self._patch(owner, attr, raw, target)
        return self

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def calls(self, name: str) -> int:
        """Calls recorded under ``name`` (spanned or only counted)."""
        spanned = sum(1 for span in self.spans if span.name == name)
        return spanned + len(self._tallies.get(name, ()))

    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, raw: Any, target: Target) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, target))
        else:
            wrapped = self._wrap(raw, target)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        # A plain function may also live under its name in modules that
        # imported it; replace those references too.
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patched.append((module, key, raw))
                    setattr(module, key, wrapped)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name = target.name
        if not target.spans:
            # list.append is one atomic, cheap step per call: no lock.
            tally = self._tallies.setdefault(name, [])

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tally.append(None)
                return fn(*args, **kwargs)

            return counted

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index, token = self.open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.close(index, token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, token = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index, token)

        return traced

    def open(self, name: str) -> Tuple[int, contextvars.Token]:
        span = Span(name, time.perf_counter(), 0.0, _PARENT.get())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        return index, _PARENT.set(index)

    def close(self, index: int, token: contextvars.Token) -> None:
        self.spans[index].end = time.perf_counter()
        try:
            _PARENT.reset(token)
        except ValueError:
            # Closed in another context than it was opened (a coroutine
            # resumed elsewhere): the parent link stays as recorded.
            pass

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, LayerStats]:
        """Per span name: inclusive time, self time and each duration.

        Self time is a span's duration minus the time its direct child
        spans cover.
        """
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        durations: Dict[str, List[float]] = defaultdict(list)
        own: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            durations[span.name].append(duration)
            own[span.name] += max(0.0, duration - child_time[index])
        return {
            name: LayerStats(
                total_s=sum(values), self_s=own[name], durations=tuple(values)
            )
            for name, values in durations.items()
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines (one span a line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": span.name, "parent": span.parent,
                    "start": span.start, "end": span.end,
                }) + "\n")


def bindings(targets: Iterable[Target]) -> Dict[Tuple[str, str], int]:
    """Identity of every binding a :class:`Tracer` over ``targets`` may
    replace: each target attribute and every global of a loaded
    ``repro`` module.  Equal before and after a traced run means every
    original was restored."""
    seen: Dict[Tuple[str, str], int] = {}
    for target in targets:
        try:
            _, _, raw = _resolve(target.path)
        except (ImportError, AttributeError):
            continue
        seen[("target", target.path)] = id(raw)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for key, value in list(vars(module).items()):
                if callable(value):
                    seen[(name, key)] = id(value)
    return seen
