"""``reprolint`` — the repo-specific invariant checker.

Run it over the default tree::

    python -m repro.devtools.lint src tests benchmarks
    repro lint                      # CLI alias, same defaults

Every run checks the whole rule catalogue in one pass: the syntactic
RPL000, RPL001 and RPL003–005 rules (:mod:`repro.devtools.rules`), the
abstract interpretation behind RPL002, RPL101–104 and interprocedural
RPL001 (:mod:`repro.devtools.dataflow`), and the concurrency &
resource-safety rules RPL201–213 (:mod:`repro.devtools.effect_rules`).

Exit status is 0 when every finding is either inline-suppressed or
recorded in the baseline file, 1 otherwise, and 2 for usage errors: a
missing or non-Python path, a file that does not parse, an unreadable
or wrong-version baseline, or a ``--changed-since`` ref that does not
resolve.

**Suppressions** are inline comments with *required* justification
text::

    arr[0] = 1  # reprolint: disable=RPL002 -- fixture exercising the raise

A suppression without the ``-- reason`` tail does not suppress anything
and is itself reported (RPL000), as is a suppression that matches no
finding on its line — so stale suppressions cannot rot in place.

**Baseline**: ``--write-baseline`` records the current findings into a
JSON file (default ``reprolint-baseline.json``) keyed by content
fingerprints (rule + path + source line text + occurrence), so
pre-existing accepted findings survive unrelated line drift without
blocking CI.  New code starts from an empty baseline.
``--update-baseline`` rewrites the baseline keeping only fingerprints
that still match a current finding — entries for deleted files or
fixed findings are pruned and counted, and no new debt is ever added
silently.

``--changed-since <ref>`` restricts *reported* findings to files that
differ from a git ref (analysis still sees the whole tree, so
interprocedural summaries stay accurate).

Reporters: human ``file:line:col: RPLxxx message`` (default),
``--format json`` emitting ``{"version", "findings", "summary"}``, and
``--format sarif``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NoReturn, Optional, Sequence, Set, Tuple

from repro.devtools.rules import RULES, Finding, check_file

BASELINE_VERSION = 3
JSON_VERSION = 2
DEFAULT_PATHS = ("src", "tests", "benchmarks")
DEFAULT_BASELINE = "reprolint-baseline.json"

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*"
    r"(?P<codes>RPL\d{3}(?:\s*,\s*RPL\d{3})*)"
    r"(?P<tail>.*)$"
)
_JUSTIFY_RE = re.compile(r"^\s*--\s*\S")


def _usage_error(message: str) -> NoReturn:
    """Report bad input on stderr and exit 2, so it never reads as lint
    debt (exit 1)."""
    print(f"reprolint: {message}", file=sys.stderr)
    raise SystemExit(2)


@dataclass
class Suppression:
    line: int
    codes: Tuple[str, ...]
    file_level: bool
    justified: bool
    used: bool = False


def _parse_suppressions(source: str, path: str) -> Tuple[List[Suppression],
                                                         List[Finding]]:
    """Extract suppression comments via tokenize so comment-lookalikes
    inside string literals (e.g. linter test fixtures) are ignored.

    Every suppression and every malformed-comment RPL000 needs a
    comment holding ``reprolint:``, so a source without that marker is
    not tokenized."""
    if "reprolint:" not in source:
        return [], []
    suppressions: List[Suppression] = []
    findings: List[Finding] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except tokenize.TokenizeError:  # pragma: no cover - file already parsed
        return [], []
    for token in comments:
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            if "reprolint:" in token.string:
                findings.append(
                    Finding("RPL000", path, token.start[0], token.start[1],
                            f"malformed reprolint comment {token.string.strip()!r}")
                )
            continue
        codes = tuple(
            code.strip() for code in match.group("codes").split(",")
        )
        unknown = [code for code in codes if code not in RULES]
        if unknown:
            findings.append(
                Finding("RPL000", path, token.start[0], token.start[1],
                        f"suppression names unknown rule(s) {unknown}")
            )
        justified = bool(_JUSTIFY_RE.match(match.group("tail")))
        if not justified:
            findings.append(
                Finding(
                    "RPL000", path, token.start[0], token.start[1],
                    "suppression is missing its justification — write "
                    "'# reprolint: disable=RPLxxx -- <why this is safe>'",
                )
            )
        suppressions.append(
            Suppression(
                line=token.start[0],
                codes=codes,
                file_level=match.group(1) == "disable-file",
                justified=justified,
            )
        )
    return suppressions, findings


def _apply_suppressions(
    findings: List[Finding], suppressions: List[Suppression], path: str,
) -> Tuple[List[Finding], List[Finding], List[Finding]]:
    """Split raw findings into (active, suppressed) and report unused or
    unjustified suppressions as RPL000 meta-findings."""
    by_line: Dict[int, List[Suppression]] = {}
    file_level: List[Suppression] = []
    for suppression in suppressions:
        if suppression.file_level:
            file_level.append(suppression)
        else:
            by_line.setdefault(suppression.line, []).append(suppression)

    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        hit = None
        for suppression in by_line.get(finding.line, []):
            if finding.rule in suppression.codes:
                hit = suppression
                break
        if hit is None:
            for suppression in file_level:
                if finding.rule in suppression.codes:
                    hit = suppression
                    break
        if hit is not None and hit.justified:
            hit.used = True
            suppressed.append(finding)
        else:
            if hit is not None:
                hit.used = True  # unjustified: finding stays, no "unused" noise
            active.append(finding)

    meta: List[Finding] = []
    for suppression in suppressions:
        if not suppression.used:
            meta.append(
                Finding(
                    "RPL000", path, suppression.line, 0,
                    f"unused suppression for {', '.join(suppression.codes)} — "
                    "no such finding on this line; delete it",
                )
            )
    return active, suppressed, meta


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------
def fingerprint(finding: Finding, line_text: str, occurrence: int) -> str:
    """Content fingerprint: rule, path, stripped line text and the
    occurrence index of that triple, so line drift leaves it stable."""
    raw = "|".join(
        (finding.rule, finding.path, line_text.strip(), str(occurrence))
    )
    return hashlib.sha1(raw.encode()).hexdigest()


def _fingerprints(findings: Sequence[Finding],
                  sources: Dict[str, List[str]]) -> List[str]:
    """Stable content fingerprint per finding; duplicate (rule, path,
    text) triples are disambiguated by occurrence index."""
    seen: Dict[Tuple[str, str, str], int] = {}
    out = []
    for finding in findings:
        lines = sources.get(finding.path, [])
        text = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        key = (finding.rule, finding.path, text.strip())
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        out.append(fingerprint(finding, text, occurrence))
    return out


def load_baseline_entries(path: Path) -> List[Dict[str, object]]:
    """Baseline entries (fingerprint + provenance); none when ``path``
    does not exist."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return []
    except (OSError, ValueError) as exc:
        _usage_error(f"unreadable baseline {path}: {exc}")
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != BASELINE_VERSION:
        _usage_error(
            f"baseline {path} has unsupported version {version!r} (this "
            f"reprolint reads version {BASELINE_VERSION}); regenerate it "
            "with --write-baseline"
        )
    return list(payload.get("findings", []))


def load_baseline(path: Path) -> "set[str]":
    return {str(entry["fingerprint"]) for entry in load_baseline_entries(path)}


def write_baseline(path: Path, findings: Sequence[Finding],
                   prints: Sequence[str]) -> None:
    payload = {
        "version": BASELINE_VERSION,
        "findings": [
            {
                "fingerprint": print_,
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "message": finding.message,
            }
            for finding, print_ in sorted(
                zip(findings, prints), key=lambda pair: pair[0].render()
            )
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------
@dataclass
class LintResult:
    new: List[Finding]
    baselined: List[Finding]
    suppressed: List[Finding]
    new_fingerprints: List[str]

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0


def collect_files(paths: Sequence[str]) -> List[Path]:
    """The python files under ``paths``, each once: a file reached
    through two overlapping paths keeps its first spelling and place."""
    files: Dict[Path, Path] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = [p for p in sorted(path.rglob("*.py"))
                     if "__pycache__" not in p.parts]
        elif not path.exists():
            _usage_error(f"no such file or directory: {path}")
        elif path.suffix == ".py":
            found = [path]
        else:
            _usage_error(f"not a python file or directory: {path}")
        for p in found:
            files.setdefault(p.resolve(), p)
    return list(files.values())


def run_lint(paths: Sequence[str],
             baseline: Optional[Path] = None,
             restrict_to: Optional["Set[str]"] = None,
             *, engine: str = "perf") -> LintResult:
    """Lint ``paths`` with the whole rule catalogue and classify the
    findings against ``baseline``.

    ``restrict_to`` (resolved posix paths) limits *reported* findings
    to those files — interprocedural summaries are still built from
    every linted file, so cross-file effects stay visible.

    ``engine`` survives only for callers that still pass
    ``engine="perf"``; any other value is a usage error.
    """
    if engine != "perf":
        _usage_error(f"unknown engine {engine!r}: every run checks the "
                     "whole rule catalogue, and engine= accepts only 'perf'")
    # Deferred: the analyses cost more to import than --list-rules and
    # the usage-error paths need.
    from repro.devtools.dataflow import DataflowProject, analyze_module
    from repro.devtools.effect_rules import check_module as check_effects
    from repro.devtools.effects import EffectsProject

    files = collect_files(paths)
    trees: Dict[Path, ast.Module] = {}
    sources: Dict[str, List[str]] = {}
    raw_sources: Dict[Path, str] = {}
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            _usage_error(f"cannot read {path}: {exc}")
        try:
            trees[path] = ast.parse(text, filename=str(path))
        except (SyntaxError, ValueError) as exc:
            _usage_error(f"cannot parse {path}: {exc}")
        raw_sources[path] = text
        sources[path.as_posix()] = text.splitlines()

    project = DataflowProject(trees)
    effects_project = EffectsProject(project)
    all_findings: List[Finding] = []
    suppressed_all: List[Finding] = []
    for path in files:
        if restrict_to is not None \
                and path.resolve().as_posix() not in restrict_to:
            continue
        rel = path.as_posix()
        tree = trees[path]
        raw_findings = check_file(path, tree, project)
        raw_findings += analyze_module(path, tree, project)
        raw_findings += check_effects(path, tree, effects_project)
        raw_findings.sort(key=lambda f: (f.line, f.col, f.rule, f.message))
        suppressions, meta = _parse_suppressions(raw_sources[path], rel)
        active, suppressed, unused = _apply_suppressions(
            raw_findings, suppressions, rel
        )
        all_findings.extend(active)
        all_findings.extend(meta)
        all_findings.extend(unused)
        suppressed_all.extend(suppressed)

    prints = _fingerprints(all_findings, sources)
    known = load_baseline(baseline) if baseline else set()
    new: List[Finding] = []
    new_prints: List[str] = []
    baselined: List[Finding] = []
    for finding, print_ in zip(all_findings, prints):
        if print_ in known:
            baselined.append(finding)
        else:
            new.append(finding)
            new_prints.append(print_)
    return LintResult(
        new=new,
        baselined=baselined,
        suppressed=suppressed_all,
        new_fingerprints=new_prints,
    )


def _report_json(result: LintResult) -> str:
    return json.dumps(
        {
            "version": JSON_VERSION,
            "findings": [
                {
                    "rule": finding.rule,
                    "path": finding.path,
                    "line": finding.line,
                    "col": finding.col,
                    "message": finding.message,
                    "fingerprint": print_,
                }
                for finding, print_ in zip(result.new, result.new_fingerprints)
            ],
            "summary": {
                "new": len(result.new),
                "baselined": len(result.baselined),
                "suppressed": len(result.suppressed),
            },
        },
        indent=2,
    )


def _report_sarif(result: LintResult) -> str:
    from repro.devtools.sarif import render_sarif

    fingerprints = dict(zip(result.new, result.new_fingerprints))
    return render_sarif(result.new, fingerprints).rstrip("\n")


def _report_text(result: LintResult) -> str:
    lines = [finding.render() for finding in result.new]
    lines.append(
        f"reprolint: {len(result.new)} finding(s), "
        f"{len(result.baselined)} baselined, "
        f"{len(result.suppressed)} suppressed"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Invariant checker for the repro codebase: every run "
                    "checks the whole rule catalogue (determinism, "
                    "immutability, cache purity, schema and API hygiene, "
                    "time units, concurrency and resource safety)",
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline file (default: {DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline keeping only fingerprints that "
             "still match a current finding (prunes entries for "
             "deleted files and fixed findings, reports the counts, "
             "never adds new debt) and exit 0",
    )
    parser.add_argument(
        "--changed-since", default=None, metavar="REF",
        help="only report findings in files that differ from git REF "
             "(tracked changes plus untracked files); analysis still "
             "covers every linted file so interprocedural summaries "
             "stay whole-tree",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        dest="fmt", help="report format",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog",
    )
    return parser


def changed_files(ref: str) -> "Set[str]":
    """Resolved posix paths of files changed vs ``ref`` — tracked
    modifications plus untracked (not-ignored) files, so a new module
    is linted on the PR that introduces it.

    Degrades gracefully (message + usage exit status 2) when the ref
    does not resolve — not a git repo, a repo with no commits yet, or
    a typo'd ref — instead of surfacing a raw git traceback.
    """
    import subprocess

    def _git(*argv: str) -> str:
        try:
            proc = subprocess.run(
                ["git", *argv], capture_output=True, text=True,
            )
        except OSError as exc:  # git binary missing
            _usage_error(f"--changed-since {ref!r}: cannot run git: {exc}")
        if proc.returncode != 0:
            detail = proc.stderr.strip().splitlines()
            reason = detail[0] if detail else f"git exited {proc.returncode}"
            _usage_error(
                f"--changed-since {ref!r}: {reason}\n"
                "reprolint: the ref must resolve in a git repository "
                "with at least one commit; try 'git log --oneline -1' "
                "to check"
            )
        return proc.stdout

    top = Path(_git("rev-parse", "--show-toplevel").strip())
    names = set(_git("diff", "--name-only", "-z", ref, "--").split("\0"))
    names |= set(
        _git("ls-files", "--others", "--exclude-standard", "-z").split("\0")
    )
    return {
        (top / name).resolve().as_posix() for name in names if name
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}  {description}")
        return 0

    baseline: Optional[Path] = None
    if not args.no_baseline:
        if args.baseline is not None:
            baseline = Path(args.baseline)
        elif Path(DEFAULT_BASELINE).exists() or args.write_baseline:
            baseline = Path(DEFAULT_BASELINE)

    restrict: Optional["Set[str]"] = None
    if args.changed_since is not None:
        restrict = changed_files(args.changed_since)

    if args.write_baseline:
        result = run_lint(args.paths, restrict_to=restrict)
        target = baseline or Path(DEFAULT_BASELINE)
        write_baseline(target, result.new, result.new_fingerprints)
        print(
            f"reprolint: wrote {len(result.new)} finding(s) to {target}"
        )
        return 0

    if args.update_baseline:
        target = baseline or Path(DEFAULT_BASELINE)
        entries = load_baseline_entries(target)
        result = run_lint(args.paths, restrict_to=restrict)
        old_prints = {entry["fingerprint"] for entry in entries}
        kept = [
            (finding, print_)
            for finding, print_ in zip(result.new, result.new_fingerprints)
            if print_ in old_prints
        ]
        kept_prints = {print_ for _, print_ in kept}
        gone_files = sum(
            1 for entry in entries
            if entry["fingerprint"] not in kept_prints
            and not Path(str(entry.get("path", ""))).exists()
        )
        stale = len(entries) - len(kept) - gone_files
        write_baseline(target, [f for f, _ in kept],
                       [p for _, p in kept])
        print(
            f"reprolint: baseline {target} updated — kept {len(kept)} "
            f"entr{'y' if len(kept) == 1 else 'ies'}, pruned "
            f"{gone_files} for missing files, {stale} no longer "
            "matching any finding"
        )
        return 0

    result = run_lint(args.paths, baseline=baseline, restrict_to=restrict)
    if args.fmt == "json":
        report = _report_json(result)
    elif args.fmt == "sarif":
        report = _report_sarif(result)
    else:
        report = _report_text(result)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print(f"reprolint: wrote {args.fmt} report to {args.output} "
              f"({len(result.new)} new finding(s))")
    else:
        print(report)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())


__all__ = [
    "LintResult",
    "changed_files",
    "run_lint",
    "load_baseline",
    "load_baseline_entries",
    "write_baseline",
    "collect_files",
    "main",
]
