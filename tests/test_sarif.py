"""SARIF 2.1.0 reporter tests: structural validation, JSON-Schema
validation of the emitted subset, and the CLI ``--format sarif`` path."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint import main, run_lint
from repro.devtools.rules import RULES, Finding
from repro.devtools.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    render_sarif,
    to_sarif,
    validate_sarif,
)

jsonschema = pytest.importorskip("jsonschema")

#: Extract of the official SARIF 2.1.0 schema covering the subset the
#: reporter emits (the full schema is ~200kB; this keeps the invariant
#: without vendoring it).
SARIF_MINI_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "level": {
                                    "enum": ["none", "note", "warning",
                                             "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"}
                                    },
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {
                                                                "type": "string"
                                                            }
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                                "partialFingerprints": {
                                    "type": "object",
                                    "additionalProperties": {
                                        "type": "string"
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


FINDINGS = [
    Finding("RPL101", "src/repro/analysis/bad.py", 12, 4,
            "mixing time units: seconds + days"),
    Finding("RPL104", "src/repro/engine/bad.py", 3, 0,
            "iteration order of this value is nondeterministic"),
]
PRINTS = {FINDINGS[0]: "aaaa", FINDINGS[1]: "bbbb"}


def test_sarif_passes_structural_validation():
    payload = to_sarif(FINDINGS, PRINTS)
    assert validate_sarif(payload) == []


def test_sarif_passes_json_schema():
    payload = to_sarif(FINDINGS, PRINTS)
    jsonschema.validate(payload, SARIF_MINI_SCHEMA)


def test_sarif_empty_result_is_valid():
    payload = to_sarif([], {})
    assert payload["version"] == SARIF_VERSION
    assert payload["runs"][0]["results"] == []
    assert validate_sarif(payload) == []
    jsonschema.validate(payload, SARIF_MINI_SCHEMA)


def test_sarif_declares_every_rule():
    payload = to_sarif([], {})
    declared = {r["id"] for r in payload["runs"][0]["tool"]["driver"]["rules"]}
    assert declared == set(RULES)


def test_sarif_positions_are_one_based():
    payload = to_sarif(FINDINGS, PRINTS)
    region = (payload["runs"][0]["results"][1]["locations"][0]
              ["physicalLocation"]["region"])
    assert region["startLine"] == 3
    assert region["startColumn"] == 1  # col_offset 0 -> column 1


def test_sarif_carries_baseline_fingerprints():
    payload = to_sarif(FINDINGS, PRINTS)
    prints = [r["partialFingerprints"]["reprolintFingerprint/v3"]
              for r in payload["runs"][0]["results"]]
    assert prints == ["aaaa", "bbbb"]


def test_sarif_schema_uri_pins_2_1_0():
    assert "2.1.0" in SARIF_SCHEMA
    payload = json.loads(render_sarif([], {}))
    assert payload["$schema"] == SARIF_SCHEMA


def test_validate_sarif_catches_breakage():
    payload = to_sarif(FINDINGS, PRINTS)
    payload["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
        "region"]["startLine"] = 0
    problems = validate_sarif(payload)
    assert problems and "startLine" in problems[0]


def test_validate_sarif_requires_declared_rule():
    payload = to_sarif(FINDINGS, PRINTS)
    payload["runs"][0]["results"][0]["ruleId"] = "RPL999"
    assert any("not declared" in p for p in validate_sarif(payload))


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
def _write_fixture(tmp_path: Path) -> Path:
    path = tmp_path / "src" / "repro" / "analysis" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        "def f(span_seconds, window_days):\n"
        "    return span_seconds + window_days\n",
        encoding="utf-8",
    )
    return path


def test_cli_format_sarif_to_stdout(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    code = main(["--format", "sarif",
                 "--no-baseline", str(path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert validate_sarif(payload) == []
    assert payload["runs"][0]["results"][0]["ruleId"] == "RPL101"


def test_cli_output_writes_sarif_file(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    out = tmp_path / "reprolint.sarif"
    code = main(["--format", "sarif",
                 "--no-baseline", "--output", str(out), str(path)])
    assert code == 1
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert validate_sarif(payload) == []
    jsonschema.validate(payload, SARIF_MINI_SCHEMA)
    assert "wrote sarif report" in capsys.readouterr().out


def test_sarif_fingerprints_match_lint_result(tmp_path):
    path = _write_fixture(tmp_path)
    result = run_lint([str(path)])
    payload = to_sarif(result.new,
                       dict(zip(result.new, result.new_fingerprints)))
    emitted = {r["partialFingerprints"]["reprolintFingerprint/v3"]
               for r in payload["runs"][0]["results"]}
    assert emitted == set(result.new_fingerprints)


@pytest.mark.parametrize("text, byte_col, column", [
    ("eee", 23, 24),
    ("ééé", 26, 24),  # two UTF-8 bytes, one UTF-16 code unit each
    ("𝄞", 24, 23),    # four UTF-8 bytes, two UTF-16 code units
])
def test_sarif_columns_count_utf16_code_units(tmp_path, capsys, text,
                                              byte_col, column):
    path = tmp_path / "src" / "repro" / "analysis" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        "def f(span_seconds):\n"
        f'    return {{"{text}": 1}}, span_seconds / 86400.0\n',
        encoding="utf-8",
    )
    [finding] = run_lint([str(path)]).new
    assert (finding.rule, finding.line, finding.col) == ("RPL102", 2,
                                                         byte_col)
    assert main(["--format", "sarif", "--no-baseline", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    [result] = payload["runs"][0]["results"]
    region = result["locations"][0]["physicalLocation"]["region"]
    assert (region["startLine"], region["startColumn"]) == (2, column)


def test_sarif_suppression_comment_column_counts_utf16_code_units(
        tmp_path, capsys):
    # The comment starts at code point 11 and UTF-8 byte 14; the
    # unused-suppression finding sits at column 0.
    path = tmp_path / "src" / "repro" / "analysis" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text('x = "ééé"  # reprolint: disable=RPL999 -- ok\n',
                    encoding="utf-8")
    assert [(f.rule, f.line, f.col) for f in run_lint([str(path)]).new] \
        == [("RPL000", 1, 14), ("RPL000", 1, 0)]
    assert main(["--format", "sarif", "--no-baseline", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [result["locations"][0]["physicalLocation"]["region"]
            for result in payload["runs"][0]["results"]] \
        == [{"startLine": 1, "startColumn": 12},
            {"startLine": 1, "startColumn": 1}]
