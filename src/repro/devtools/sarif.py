"""SARIF 2.1.0 output for reprolint.

Emits a single-run SARIF log so CI can upload findings via
``github/codeql-action/upload-sarif`` and annotate PRs inline.  Only the
small, stable subset of the format that GitHub code scanning consumes
is produced: tool driver metadata with one ``reportingDescriptor`` per
rule, and one ``result`` per finding with a physical location and a
content-stable ``partialFingerprints`` entry (the same fingerprint the
baseline machinery uses, so dedup survives line drift).  Columns count
UTF-16 code units, as the log declares, where the finding's source line
is given; ``ast`` counts UTF-8 bytes.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.devtools.rules import Finding, RULES

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

TOOL_NAME = "reprolint"
TOOL_URI = "https://github.com/fouryears/repro"


def _rule_descriptor(rule_id: str, description: str) -> Dict:
    return {
        "id": rule_id,
        "name": rule_id,
        "shortDescription": {"text": description},
        "defaultConfiguration": {"level": "error"},
    }


def _result(finding: Finding, fingerprint: str,
            line: Optional[str]) -> Dict:
    col = finding.col
    if line is not None:  # UTF-8 byte offset -> UTF-16 code units
        prefix = line.encode("utf-8")[:col].decode("utf-8", "replace")
        col = len(prefix.encode("utf-16-le")) // 2
    return {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        # SARIF regions are 1-based, Finding's 0-based.
                        "startLine": max(1, finding.line),
                        "startColumn": col + 1,
                    },
                }
            }
        ],
        # The baseline fingerprint (rule, path, line text, occurrence);
        # the version suffix changes whenever that hash does.
        "partialFingerprints": {"reprolintFingerprint/v3": fingerprint},
    }


def to_sarif(findings: Iterable[Finding],
             fingerprints: Dict[Finding, str],
             sources: Optional[Dict[str, Sequence[str]]] = None) -> Dict:
    """Build the SARIF log dict for ``findings``.

    ``fingerprints`` maps each finding to its content-stable baseline
    fingerprint (see :mod:`repro.devtools.lint`); findings without an
    entry get a positional fallback.  ``sources`` maps a finding's path
    to its source lines (``LintResult.sources``), through which its
    column, a UTF-8 byte offset, becomes UTF-16 code units; a finding
    whose line is not there (a synthetic one) keeps its column.
    """
    results: List[Dict] = []
    for finding in findings:
        fingerprint = fingerprints.get(
            finding,
            f"{finding.rule}:{finding.path}:{finding.line}:{finding.col}",
        )
        lines = (sources or {}).get(finding.path, ())
        line = lines[finding.line - 1] \
            if 0 < finding.line <= len(lines) else None
        results.append(_result(finding, fingerprint, line))
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "rules": [
                            _rule_descriptor(rule_id, description)
                            for rule_id, description in sorted(RULES.items())
                        ],
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }


def render_sarif(findings: Iterable[Finding],
                 fingerprints: Dict[Finding, str],
                 sources: Optional[Dict[str, Sequence[str]]] = None) -> str:
    return json.dumps(to_sarif(findings, fingerprints, sources), indent=2,
                      sort_keys=True) + "\n"


def validate_sarif(payload: Dict) -> List[str]:
    """Structural validation of the subset of SARIF 2.1.0 we emit.

    Returns a list of problems (empty when valid).  Tests additionally
    validate against a JSON-Schema extract of the official 2.1.0 schema;
    this function is the dependency-free runtime check.
    """
    problems: List[str] = []

    def need(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    need(payload.get("version") == SARIF_VERSION,
         f"version must be {SARIF_VERSION!r}")
    need(isinstance(payload.get("$schema"), str), "$schema must be a string")
    runs = payload.get("runs")
    need(isinstance(runs, list) and len(runs) >= 1,
         "runs must be a non-empty list")
    if not isinstance(runs, list):
        return problems
    for i, run in enumerate(runs):
        driver = run.get("tool", {}).get("driver", {})
        need(isinstance(driver.get("name"), str) and driver.get("name"),
             f"runs[{i}].tool.driver.name required")
        for j, rule in enumerate(driver.get("rules", [])):
            need(isinstance(rule.get("id"), str),
                 f"runs[{i}] rules[{j}].id required")
        results = run.get("results", [])
        need(isinstance(results, list), f"runs[{i}].results must be a list")
        rule_ids = {rule.get("id") for rule in driver.get("rules", [])}
        for j, result in enumerate(results if isinstance(results, list) else []):
            where = f"runs[{i}].results[{j}]"
            need(isinstance(result.get("ruleId"), str),
                 f"{where}.ruleId required")
            need(result.get("ruleId") in rule_ids,
                 f"{where}.ruleId not declared in tool.driver.rules")
            need(isinstance(result.get("message", {}).get("text"), str),
                 f"{where}.message.text required")
            for k, location in enumerate(result.get("locations", [])):
                region = location.get("physicalLocation", {}).get("region", {})
                for key in ("startLine", "startColumn"):
                    value = region.get(key)
                    need(isinstance(value, int) and value >= 1,
                         f"{where}.locations[{k}] region.{key} must be a "
                         "1-based int")
                uri = (location.get("physicalLocation", {})
                       .get("artifactLocation", {}).get("uri"))
                need(isinstance(uri, str) and uri,
                     f"{where}.locations[{k}] artifactLocation.uri required")
    return problems


__all__ = [
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "TOOL_NAME",
    "render_sarif",
    "to_sarif",
    "validate_sarif",
]
