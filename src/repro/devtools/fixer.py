"""Applying machine-attached fixes (``reprolint --fix``).

Rules may attach a :class:`~repro.devtools.rules.Fix` — a description
plus span-based :class:`~repro.devtools.rules.Edit`\\ s — to a finding.
This module turns those spans into file rewrites with three guarantees:

* **conflict safety** — two fixes whose spans overlap are never both
  applied in one pass; the later one is deferred (the driver re-lints
  and retries, so deferral is not loss).
* **byte fidelity** — files are decoded with their declared source
  encoding (:func:`tokenize.detect_encoding`, honouring BOMs and
  coding cookies) and re-encoded the same way; untouched bytes,
  including the presence or absence of a trailing newline, survive
  round-trip.
* **idempotence** — the driver loops lint→fix until a lint pass
  yields no fixable findings, so a second ``--fix`` run finds nothing
  to do.  A bounded pass count guards against a pathological
  fix-introduces-fixable cycle (which would be a rule bug, reported
  rather than spun on).

Only *new* findings are fixed — baselined and suppressed findings are
accepted debt/intent and are left alone.
"""

from __future__ import annotations

import dataclasses
import io
import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.devtools.rules import Edit, Finding

#: lint→fix rounds before declaring a fix cycle (a rule bug).
MAX_PASSES = 4


@dataclasses.dataclass
class FixReport:
    """What one ``--fix`` invocation did."""

    applied: int = 0
    deferred: int = 0
    passes: int = 0
    files: List[str] = dataclasses.field(default_factory=list)
    #: True when MAX_PASSES was hit with fixable findings remaining —
    #: some fix re-introduces a finding instead of resolving it.
    cycle: bool = False

    def merge_pass(self, applied: int, deferred: int,
                   files: Sequence[str]) -> None:
        self.applied += applied
        self.deferred += deferred
        for name in files:
            if name not in self.files:
                self.files.append(name)


def _line_starts(text: str) -> List[int]:
    starts = [0]
    for index, char in enumerate(text):
        if char == "\n":
            starts.append(index + 1)
    return starts


def _offset(starts: List[int], text: str, line: int, col: int) -> int:
    """Absolute character offset of (1-based line, 0-based col), clamped
    to the end of the text for inserts just past the last line."""
    if line - 1 >= len(starts):
        return len(text)
    return min(starts[line - 1] + col, len(text))


def _read(path: Path) -> Tuple[str, str]:
    """(decoded text, encoding) honouring BOM/coding-cookie."""
    data = path.read_bytes()
    encoding, _ = tokenize.detect_encoding(io.BytesIO(data).readline)
    return data.decode(encoding), encoding


def apply_fixes_to_file(path: Path,
                        findings: Sequence[Finding]) -> Tuple[int, int]:
    """Apply the non-conflicting subset of fixes to one file.

    Returns ``(applied, deferred)`` fix counts; the file is rewritten
    only when at least one fix applied.
    """
    fixes = [f.fix for f in findings if f.fix is not None]
    if not fixes:
        return 0, 0
    text, encoding = _read(path)
    starts = _line_starts(text)

    # Resolve every fix to absolute spans, then accept greedily in
    # document order, deferring any fix that overlaps an accepted span.
    resolved: List[Tuple[int, List[Tuple[int, int, str]]]] = []
    for fix in fixes:
        spans = []
        for edit in fix.edits:
            start = _offset(starts, text, edit.start_line, edit.start_col)
            end = _offset(starts, text, edit.end_line, edit.end_col)
            if end < start:
                spans = None
                break
            spans.append((start, end, edit.replacement))
        if spans:
            resolved.append((min(s[0] for s in spans), spans))
    resolved.sort(key=lambda item: item[0])

    accepted: List[Tuple[int, int, str]] = []

    def overlaps(span: Tuple[int, int, str],
                 other: Tuple[int, int, str]) -> bool:
        s0, s1, _ = span
        o0, o1, _ = other
        if s0 == s1 and o0 == o1:
            # Two pure inserts never overlap (identical duplicates are
            # filtered out before this check).
            return False
        if s0 == s1:
            return o0 < s0 < o1
        if o0 == o1:
            return s0 < o0 < s1
        return s0 < o1 and o0 < s1

    applied = 0
    deferred = 0
    for _, spans in resolved:
        # An insert identical to one already accepted (e.g. two fixes
        # both adding the same import line) collapses to one.
        fresh = [s for s in spans
                 if not (s[0] == s[1] and s in accepted)]
        if any(overlaps(s, a) for s in fresh for a in accepted):
            deferred += 1
            continue
        accepted.extend(fresh)
        applied += 1

    if not accepted:
        return 0, deferred

    for start, end, replacement in sorted(
            accepted, key=lambda s: (s[0], s[1]), reverse=True):
        text = text[:start] + replacement + text[end:]
    path.write_bytes(text.encode(encoding))
    return applied, deferred


def apply_fixes(findings: Sequence[Finding]) -> Tuple[int, int, List[str]]:
    """Apply fixes grouped per file; returns (applied, deferred, files)."""
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        if finding.fix is not None:
            by_path.setdefault(finding.path, []).append(finding)
    applied = 0
    deferred = 0
    touched: List[str] = []
    for rel, group in sorted(by_path.items()):
        path = Path(rel)
        if not path.exists():
            continue
        done, waiting = apply_fixes_to_file(path, group)
        applied += done
        deferred += waiting
        if done:
            touched.append(rel)
    return applied, deferred, touched


def fix_paths(paths: Sequence[str],
              baseline: Optional[Path] = None,
              restrict_to: Optional[Set[str]] = None,
              max_passes: int = MAX_PASSES) -> FixReport:
    """Loop lint→apply until a lint pass yields no applicable fixes.

    Every pass re-lints from source, so span coordinates are always
    computed against the file state they are applied to; deferred
    (conflicting) fixes from one pass are picked up by the next.
    """
    from repro.devtools.lint import run_lint

    report = FixReport()
    for _ in range(max_passes):
        report.passes += 1
        result = run_lint(paths, baseline=baseline, restrict_to=restrict_to)
        fixable = [f for f in result.new if f.fix is not None]
        if not fixable:
            return report
        applied, deferred, files = apply_fixes(fixable)
        report.merge_pass(applied, deferred, files)
        if applied == 0:
            # Nothing progressed: stop rather than spin.
            report.cycle = deferred > 0
            return report
    result = run_lint(paths, baseline=baseline, restrict_to=restrict_to)
    report.cycle = any(f.fix is not None for f in result.new)
    return report


__all__ = [
    "FixReport",
    "MAX_PASSES",
    "apply_fixes",
    "apply_fixes_to_file",
    "fix_paths",
]
