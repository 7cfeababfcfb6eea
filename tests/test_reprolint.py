"""Tests for ``reprolint`` (:mod:`repro.devtools.lint` / ``rules``).

Each rule gets a positive fixture (a synthetic file that must be
flagged) and a suppressed negative (the same code with a justified
inline suppression).  Fixtures are written under ``tmp_path`` using the
real package anchors (``src/repro/...``) so the path-scoped rules see
the module names they key on.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import (
    LintResult,
    collect_files,
    load_baseline,
    main,
    run_lint,
    write_baseline,
)
from repro.devtools.rules import (
    COLUMN_PROPERTIES,
    RULES,
    SCHEMA_FIELDS,
    module_name,
    module_parts,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def lint(*paths: Path) -> LintResult:
    return run_lint([str(p) for p in paths])


def rules_hit(result: LintResult) -> set:
    return {finding.rule for finding in result.new}


# ---------------------------------------------------------------------------
# scaffolding
# ---------------------------------------------------------------------------
def test_module_name_and_parts(tmp_path):
    path = write(tmp_path, "src/repro/core/io.py", "")
    assert module_parts(path) == ("repro", "core", "io.py")
    assert module_name(path) == "repro.core.io"
    init = write(tmp_path, "src/repro/core/__init__.py", "")
    assert module_name(init) == "repro.core"


def test_collect_files_skips_pycache(tmp_path):
    write(tmp_path, "pkg/a.py", "")
    write(tmp_path, "pkg/__pycache__/a.cpython-39.py", "")
    files = collect_files([str(tmp_path / "pkg")])
    assert [p.name for p in files] == ["a.py"]


def test_collect_files_rejects_non_python(tmp_path):
    target = write(tmp_path, "notes.txt", "")
    with pytest.raises(SystemExit):
        collect_files([str(target)])


def test_overlapping_paths_lint_each_file_once(tmp_path):
    """A file reached through two overlapping paths is linted once, under
    its first spelling and in its first place."""
    src = tmp_path / "src"
    bad = write(tmp_path, "src/repro/analysis/bad.py", RPL001_BAD)
    write(tmp_path, "src/repro/analysis/good.py", "X = 1\n")
    spellings = [str(src), str(bad), str(src / "repro" / ".." / "repro")]
    assert collect_files(spellings) == collect_files([str(src)])
    assert collect_files([str(bad), str(src)]) == [
        bad, src / "repro" / "analysis" / "good.py",
    ]
    result = run_lint(spellings)
    assert len(result.new) == 2  # random.random and time.time, once each
    assert len(set(result.new_fingerprints)) == 2


def test_rule_catalog_is_complete():
    syntactic = {f"RPL00{i}" for i in range(6)}
    dataflow = {f"RPL10{i}" for i in range(1, 5)}
    effects = {"RPL201", "RPL202", "RPL203", "RPL211", "RPL212", "RPL213"}
    assert set(RULES) == syntactic | dataflow | effects


# ---------------------------------------------------------------------------
# RPL001 — determinism
# ---------------------------------------------------------------------------
RPL001_BAD = """\
import random
import time


def jitter():
    return random.random() + time.time()
"""


def test_rpl001_flags_unseeded_randomness(tmp_path):
    path = write(tmp_path, "src/repro/simulation/bad.py", RPL001_BAD)
    result = lint(path)
    assert rules_hit(result) == {"RPL001"}
    assert len(result.new) == 2  # random.random and time.time


def test_rpl001_flags_legacy_numpy_random(tmp_path):
    path = write(
        tmp_path, "src/repro/stats/bad.py",
        "import numpy as np\n\n\ndef draw():\n    return np.random.rand(3)\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL001"}
    assert "legacy numpy.random" in result.new[0].message


def test_rpl001_allows_seeded_generator(tmp_path):
    path = write(
        tmp_path, "src/repro/simulation/good.py",
        "import numpy as np\n\n\ndef draw(seed):\n"
        "    return np.random.default_rng(seed).random(3)\n",
    )
    assert lint(path).new == []


def test_rpl001_scoped_to_deterministic_packages(tmp_path):
    # Same nondeterministic code outside the data-producing packages.
    path = write(tmp_path, "src/repro/cli2.py", RPL001_BAD)
    assert lint(path).new == []


def test_rpl001_callee_and_rpl201_chain_ignore_the_hash_seed(tmp_path):
    """A summary with two nondeterministic callees, and a blocking helper
    reached through two callers, print the same messages under every
    ``PYTHONHASHSEED``: the propagation walks callees and callers in
    sorted order, not in set order.  (Seeds 0 and 13 named different
    callees and chains before.)"""
    write(tmp_path, "src/repro/serve/stamps.py",
          "import time\n"
          "def stamp_a():\n    return time.time()\n"
          "def stamp_b():\n    return time.time()\n"
          "def both():\n    return stamp_a() + stamp_b()\n")
    write(tmp_path, "src/repro/analysis/clock.py",
          "from repro.serve.stamps import both\n"
          "def now():\n    return both()\n")
    write(tmp_path, "src/repro/serve/chain.py",
          "def blk(path):\n    return open(path).read()\n"
          "def path_p(path):\n    return blk(path)\n"
          "def path_q(path):\n    return blk(path)\n"
          "def top(path):\n    return path_p(path) + path_q(path)\n"
          "async def handler(path):\n    return top(path)\n")
    outputs = set()
    for seed in ("0", "13"):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", "src",
             "--no-baseline"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 1, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    out = outputs.pop()
    assert "calls nondeterministic 'stamp_" in out
    assert "through top -> path_" in out


def test_rpl001_suppressed_with_justification(tmp_path):
    source = RPL001_BAD.replace(
        "    return random.random() + time.time()",
        "    return random.random() + time.time()"
        "  # reprolint: disable=RPL001 -- fixture exercising the rule",
    )
    path = write(tmp_path, "src/repro/simulation/bad.py", source)
    result = lint(path)
    assert result.new == []
    assert len(result.suppressed) == 2


# ---------------------------------------------------------------------------
# RPL002 — immutability
# ---------------------------------------------------------------------------
def test_rpl002_flags_subscript_store_into_column(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/bad.py",
        "def clobber(dataset):\n    dataset.error_times[0] = 0.0\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL002"}
    assert "immutable" in result.new[0].message


def test_rpl002_tracks_taint_through_aliases(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/bad.py",
        "def clobber(dataset):\n"
        "    times = dataset.error_times\n"
        "    times.sort()\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL002"}
    assert ".sort()" in result.new[0].message


def test_rpl002_flags_setflags_thaw(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/bad.py",
        "def thaw(dataset):\n"
        "    times = dataset.error_times\n"
        "    times.setflags(write=True)\n",
    )
    assert rules_hit(lint(path)) == {"RPL002"}


def test_rpl002_core_creation_must_freeze_before_escape(tmp_path):
    path = write(
        tmp_path, "src/repro/core/newmod.py",
        "import numpy as np\n\n\ndef build(n):\n"
        "    out = np.zeros(n)\n    return out\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL002"}
    assert "escapes" in result.new[0].message


def test_rpl002_core_frozen_escape_is_clean(tmp_path):
    path = write(
        tmp_path, "src/repro/core/newmod.py",
        "import numpy as np\n\n\ndef build(n):\n"
        "    out = np.zeros(n)\n    out.setflags(write=False)\n    return out\n",
    )
    assert lint(path).new == []


def test_rpl002_copy_then_mutate_is_clean(tmp_path):
    # np.sort(column) copies; only in-place mutation of the view is banned.
    path = write(
        tmp_path, "src/repro/analysis/good.py",
        "import numpy as np\n\n\ndef ordered(dataset):\n"
        "    return np.sort(dataset.error_times)\n",
    )
    assert lint(path).new == []


def test_rpl002_suppressed_with_justification(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/bad.py",
        "def clobber(dataset):\n"
        "    dataset.error_times[0] = 0.0"
        "  # reprolint: disable=RPL002 -- asserts the write raises\n",
    )
    result = lint(path)
    assert result.new == []
    assert len(result.suppressed) == 1


# ---------------------------------------------------------------------------
# RPL003 — cache purity (cross-file registry)
# ---------------------------------------------------------------------------
def fake_api(registry_line: str) -> str:
    return (
        "from repro.analysis import overview\n\n"
        f"ANALYSES = {{\n    {registry_line}\n}}\n"
    )


def test_rpl003_flags_impure_registered_analysis(tmp_path):
    api = write(
        tmp_path, "src/repro/api.py",
        fake_api('"categories": (overview.categories, {}),'),
    )
    impl = write(
        tmp_path, "src/repro/analysis/overview.py",
        "RESULTS = {}\n\n\ndef categories(dataset):\n"
        "    RESULTS['last'] = len(dataset)\n"
        "    print('done')\n"
        "    return RESULTS\n",
    )
    result = lint(api, impl)
    messages = [f.message for f in result.new]
    assert rules_hit(result) == {"RPL003"}
    assert any("module global" in m for m in messages)
    assert any("prints" in m for m in messages)


def test_rpl003_flags_argument_mutation_and_io(tmp_path):
    api = write(
        tmp_path, "src/repro/api.py",
        fake_api('"categories": (overview.categories, {}),'),
    )
    impl = write(
        tmp_path, "src/repro/analysis/overview.py",
        "def categories(dataset, acc=None):\n"
        "    acc.append(len(dataset))\n"
        "    open('/tmp/x').read()\n"
        "    return acc\n",
    )
    result = lint(api, impl)
    messages = [f.message for f in result.new]
    assert any("mutates argument 'acc'" in m for m in messages)
    assert any("opens a file" in m for m in messages)


def test_rpl003_unregistered_functions_unchecked(tmp_path):
    api = write(
        tmp_path, "src/repro/api.py",
        fake_api('"categories": (overview.categories, {}),'),
    )
    impl = write(
        tmp_path, "src/repro/analysis/overview.py",
        "def categories(dataset):\n    return len(dataset)\n\n\n"
        "def save(dataset):\n    open('/tmp/x', 'w').write('x')\n",
    )
    assert lint(api, impl).new == []


def test_rpl003_suppressed_with_justification(tmp_path):
    api = write(
        tmp_path, "src/repro/api.py",
        fake_api('"categories": (overview.categories, {}),'),
    )
    impl = write(
        tmp_path, "src/repro/analysis/overview.py",
        "def categories(dataset):\n"
        "    print('x')"
        "  # reprolint: disable=RPL003 -- debug hook stripped in release\n"
        "    return len(dataset)\n",
    )
    result = lint(api, impl)
    assert result.new == []
    assert len(result.suppressed) == 1


# ---------------------------------------------------------------------------
# RPL004 — schema integrity
# ---------------------------------------------------------------------------
def test_rpl004_flags_unknown_record_key(tmp_path):
    path = write(
        tmp_path, "src/repro/core/io.py",
        "def read(record):\n    return record['hostname_typo']\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL004"}
    assert "hostname_typo" in result.new[0].message


def test_rpl004_flags_unknown_fields_constant(tmp_path):
    path = write(
        tmp_path, "src/repro/fleet/consts.py",
        "CSV_FIELDS = ['host_id', 'no_such_field']\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL004"}
    assert "no_such_field" in result.new[0].message


def test_rpl004_accepts_canonical_fields(tmp_path):
    fields = ", ".join(repr(f) for f in sorted(SCHEMA_FIELDS))
    path = write(
        tmp_path, "src/repro/core/io.py",
        f"CSV_FIELDS = [{fields}]\n\n\n"
        "def read(record):\n    return record['host_id'], record.get('detail')\n",
    )
    assert lint(path).new == []


def test_rpl004_unscoped_dicts_not_checked(tmp_path):
    # A dict that is not named like a record is out of scope even in a
    # record module.
    path = write(
        tmp_path, "src/repro/core/io.py",
        "def stats():\n    counters = {}\n    counters['whatever'] = 1\n"
        "    return counters\n",
    )
    assert lint(path).new == []


def test_rpl004_suppressed_with_justification(tmp_path):
    path = write(
        tmp_path, "src/repro/core/io.py",
        "def read(record):\n"
        "    return record['hostname_typo']"
        "  # reprolint: disable=RPL004 -- chaos fixture injects bad keys\n",
    )
    result = lint(path)
    assert result.new == []
    assert len(result.suppressed) == 1


# ---------------------------------------------------------------------------
# RPL005 — API hygiene
# ---------------------------------------------------------------------------
def test_rpl005_flags_unbound_export(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/mod.py",
        "__all__ = ['exists', 'ghost']\n\n\ndef exists():\n    return 1\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL005"}
    assert "ghost" in result.new[0].message


def test_rpl005_understands_lazy_exports(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/mod.py",
        "__all__ = ['lazy_thing']\n"
        "_LAZY = {'lazy_thing': 'repro.analysis.other'}\n\n\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n",
    )
    assert lint(path).new == []


def test_rpl005_facade_import_must_be_exported(tmp_path):
    api = write(
        tmp_path, "src/repro/api.py",
        "from repro.analysis.mod import hidden\n\n__all__ = ['hidden']\n",
    )
    mod = write(
        tmp_path, "src/repro/analysis/mod.py",
        "__all__ = ['public']\n\n\ndef public():\n    return 1\n\n\n"
        "def hidden():\n    return 2\n",
    )
    result = lint(api, mod)
    assert rules_hit(result) == {"RPL005"}
    assert "missing from that module's __all__" in result.new[0].message


def test_rpl005_suppressed_with_justification(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/mod.py",
        "__all__ = ['ghost']"
        "  # reprolint: disable=RPL005 -- bound dynamically at import\n",
    )
    result = lint(path)
    assert result.new == []
    assert len(result.suppressed) == 1


# ---------------------------------------------------------------------------
# RPL000 — suppression hygiene
# ---------------------------------------------------------------------------
def test_rpl000_missing_justification_does_not_suppress(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/bad.py",
        "def clobber(dataset):\n"
        "    dataset.error_times[0] = 0.0  # reprolint: disable=RPL002\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL000", "RPL002"}
    assert any("justification" in f.message for f in result.new)


def test_rpl000_unused_suppression_is_flagged(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/fine.py",
        "def fine():\n"
        "    return 1  # reprolint: disable=RPL002 -- nothing here\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL000"}
    assert "unused suppression" in result.new[0].message


def test_rpl000_unknown_rule_is_flagged(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/fine.py",
        "X = 1  # reprolint: disable=RPL999 -- bogus\n",
    )
    result = lint(path)
    assert any("unknown rule" in f.message for f in result.new)


def test_rpl000_malformed_comment_is_flagged(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/fine.py",
        "X = 1  # reprolint: disble=RPL002 -- typo in keyword\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL000"}
    assert "malformed" in result.new[0].message


def test_suppression_lookalike_inside_string_ignored(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/fine.py",
        'DOC = "x = 1  # reprolint: disable=RPL002"\n',
    )
    assert lint(path).new == []


# ---------------------------------------------------------------------------
# baseline round-trip
# ---------------------------------------------------------------------------
def test_baseline_round_trip(tmp_path):
    bad = write(tmp_path, "src/repro/simulation/bad.py", RPL001_BAD)
    first = lint(bad)
    assert first.exit_code == 1 and len(first.new) == 2

    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, first.new, first.new_fingerprints)
    assert load_baseline(baseline_path) == set(first.new_fingerprints)

    second = run_lint([str(bad)], baseline=baseline_path)
    assert second.exit_code == 0
    assert second.new == []
    assert len(second.baselined) == 2


def test_baseline_survives_line_drift(tmp_path):
    bad = write(tmp_path, "src/repro/simulation/bad.py", RPL001_BAD)
    first = lint(bad)
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, first.new, first.new_fingerprints)

    # Prepend lines: positions move, content fingerprints do not.
    bad.write_text("# moved\n# down\n" + RPL001_BAD, encoding="utf-8")
    drifted = run_lint([str(bad)], baseline=baseline_path)
    assert drifted.exit_code == 0
    assert len(drifted.baselined) == 2


def test_baseline_does_not_hide_new_findings(tmp_path):
    bad = write(tmp_path, "src/repro/simulation/bad.py", RPL001_BAD)
    first = lint(bad)
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, first.new, first.new_fingerprints)

    bad.write_text(RPL001_BAD + "\n\ndef more():\n    return random.random()\n",
                   encoding="utf-8")
    drifted = run_lint([str(bad)], baseline=baseline_path)
    assert drifted.exit_code == 1
    assert len(drifted.new) == 1
    assert len(drifted.baselined) == 2


def test_baseline_rejects_unknown_version(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(SystemExit):
        load_baseline(baseline_path)


def test_v2_baseline_rejected_with_regenerate_message(tmp_path, capsys):
    """v2 fingerprints also hashed the lint engine, so a v2 file can
    match nothing today; it is refused with one regenerate message."""
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps({"version": 2, "findings": []}))
    with pytest.raises(SystemExit) as excinfo:
        load_baseline(baseline_path)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unsupported version 2" in err
    assert "reads version 3" in err
    assert "--write-baseline" in err


def test_baseline_entries_carry_no_engine(tmp_path):
    bad = write(tmp_path, "src/repro/simulation/bad.py", RPL001_BAD)
    first = lint(bad)
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, first.new, first.new_fingerprints)
    payload = json.loads(baseline_path.read_text())
    assert payload["version"] == 3
    for entry in payload["findings"]:
        assert set(entry) == {"fingerprint", "rule", "path", "line",
                              "message"}


def test_run_lint_engine_accepts_only_perf(tmp_path, capsys):
    path = write(tmp_path, "src/repro/simulation/bad.py", RPL001_BAD)
    assert run_lint([str(path)], engine="perf").new == lint(path).new
    with pytest.raises(SystemExit) as excinfo:
        run_lint([str(path)], engine="ast")
    assert excinfo.value.code == 2
    assert "engine= accepts only 'perf'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage errors exit 2, never 1 (the "new findings" status)
# ---------------------------------------------------------------------------
def _usage_exit(argv, capsys) -> str:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("reprolint: ")
    return err


def test_missing_path_exits_two(tmp_path, capsys):
    err = _usage_exit([str(tmp_path / "x.py"), "--no-baseline"], capsys)
    assert "no such file or directory" in err


def test_non_python_path_exits_two(tmp_path, capsys):
    notes = write(tmp_path, "notes.txt", "")
    err = _usage_exit([str(notes), "--no-baseline"], capsys)
    assert "not a python file" in err


def test_unparsable_file_exits_two(tmp_path, capsys):
    broken = write(tmp_path, "src/repro/analysis/broken.py", "def f(:\n")
    err = _usage_exit([str(broken), "--no-baseline"], capsys)
    assert "cannot parse" in err


def test_undecodable_file_exits_two(tmp_path, capsys):
    latin1 = tmp_path / "src" / "repro" / "analysis" / "latin1.py"
    latin1.parent.mkdir(parents=True)
    latin1.write_bytes(b"NAME = '\xe9'\n")
    err = _usage_exit([str(latin1), "--no-baseline"], capsys)
    assert "cannot read" in err


def test_unreadable_baseline_exits_two(tmp_path, capsys):
    fine = write(tmp_path, "src/repro/analysis/fine.py", "X = 1\n")
    baseline_path = write(tmp_path, "baseline.json", "{not json")
    err = _usage_exit([str(fine), "--baseline", str(baseline_path)], capsys)
    assert "unreadable baseline" in err


def test_wrong_version_baseline_exits_two(tmp_path, capsys):
    fine = write(tmp_path, "src/repro/analysis/fine.py", "X = 1\n")
    baseline_path = write(tmp_path, "baseline.json",
                          json.dumps({"version": 1, "findings": []}))
    err = _usage_exit([str(fine), "--baseline", str(baseline_path)], capsys)
    assert "unsupported version 1" in err
    assert "--write-baseline" in err


# ---------------------------------------------------------------------------
# reporters / CLI
# ---------------------------------------------------------------------------
def test_json_reporter_schema(tmp_path, capsys, monkeypatch):
    write(tmp_path, "src/repro/simulation/bad.py", RPL001_BAD)
    monkeypatch.chdir(tmp_path)
    code = main(["src", "--no-baseline", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == 2
    assert payload["summary"] == {"new": 2, "baselined": 0, "suppressed": 0}
    for finding in payload["findings"]:
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "fingerprint",
        }
        assert finding["rule"] == "RPL001"


def test_cli_write_baseline_then_clean(tmp_path, capsys, monkeypatch):
    write(tmp_path, "src/repro/simulation/bad.py", RPL001_BAD)
    monkeypatch.chdir(tmp_path)
    assert main(["src", "--write-baseline"]) == 0
    assert main(["src"]) == 0  # default baseline picked up
    out = capsys.readouterr().out
    assert "2 baselined" in out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_cli_has_no_fix_option(capsys):
    """reprolint reports findings and never edits files: ``--fix`` is
    an unknown option, a usage error."""
    with pytest.raises(SystemExit) as excinfo:
        main(["--fix"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --fix" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: --update-baseline
# ---------------------------------------------------------------------------
BAD_EFFECTS = (
    "import time\n"
    "async def f():\n"
    "    time.sleep(1)\n"
)


class TestUpdateBaseline:
    def test_prunes_missing_files_and_stale_entries(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "src/repro/analysis/kept.py", BAD_EFFECTS)
        write(tmp_path, "src/repro/analysis/gone.py", BAD_EFFECTS)
        write(tmp_path, "src/repro/analysis/fixed.py", BAD_EFFECTS)
        baseline = tmp_path / "baseline.json"
        assert main(["src", "--baseline",
                     str(baseline), "--write-baseline"]) == 0
        capsys.readouterr()
        assert len(json.loads(baseline.read_text())["findings"]) == 3

        (tmp_path / "src/repro/analysis/gone.py").unlink()
        write(tmp_path, "src/repro/analysis/fixed.py",
              "def f():\n    return 1\n")
        assert main(["src", "--baseline",
                     str(baseline), "--update-baseline"]) == 0
        out = capsys.readouterr().out
        assert "kept 1 entry" in out
        assert "pruned 1 for missing files" in out
        assert "1 no longer matching any finding" in out
        payload = json.loads(baseline.read_text())
        assert len(payload["findings"]) == 1
        assert "kept.py" in payload["findings"][0]["path"]

    def test_never_adds_new_debt(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "src/repro/analysis/old.py", BAD_EFFECTS)
        baseline = tmp_path / "baseline.json"
        assert main(["src", "--baseline",
                     str(baseline), "--write-baseline"]) == 0
        # A brand-new defect appears after the baseline was recorded.
        write(tmp_path, "src/repro/analysis/new.py", BAD_EFFECTS)
        assert main(["src", "--baseline",
                     str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()
        entries = json.loads(baseline.read_text())["findings"]
        assert len(entries) == 1
        assert "old.py" in entries[0]["path"]


# ---------------------------------------------------------------------------
# CLI: --changed-since degradation
# ---------------------------------------------------------------------------
class TestChangedSinceDegradation:
    def _git(self, cwd: Path, *argv: str) -> None:
        proc = subprocess.run(
            ["git", *argv], cwd=cwd, capture_output=True, text=True,
            env={
                "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
                "HOME": str(cwd),
            },
        )
        assert proc.returncode == 0, proc.stderr

    def test_repo_without_commits_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        write(tmp_path, "src/repro/analysis/mod.py", "def f():\n    return 1\n")
        self._git(tmp_path, "init", "-q")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["src", "--no-baseline", "--changed-since", "HEAD"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--changed-since" in err
        assert "at least one commit" in err

    def test_invalid_ref_exits_two(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "src/repro/analysis/mod.py", "def f():\n    return 1\n")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["src", "--no-baseline",
                  "--changed-since", "no-such-ref"])
        assert excinfo.value.code == 2
        assert "no-such-ref" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the real tree
# ---------------------------------------------------------------------------
def test_repo_tree_is_lint_clean(repo_lint):
    """The whole catalogue over the committed tree, with no baseline,
    has zero unsuppressed findings."""
    assert repo_lint.new == [], "\n".join(f.render() for f in repo_lint.new)


def test_lint_corpus_findings_pinned(corpus_lint):
    """productbench's ``lint_corpus`` workload lints this archive: a
    change that moves any finding or suppression there fails here
    instead of showing only as a benchmark note.  The frozen corpus
    still carries two ``disable=RPL301`` comments for a retired rule,
    so it has 4 RPL000 findings by design."""
    root, result = corpus_lint

    def render(finding):
        return [finding.rule, Path(finding.path).relative_to(root).as_posix(),
                finding.line, finding.col, finding.message]

    payload = json.dumps({"new": [render(f) for f in result.new],
                          "suppressed": [render(f) for f in result.suppressed]})
    assert (len(result.new), len(result.suppressed)) == (4, 1)
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        "31e84ae8cff8baad76ff6da033e6b3c44c5a36a0bbca046d1cf8241cd1beea3e"
    )


def test_column_properties_reflect_dataset_surface():
    # Drift guard: the RPL002 taint sources are derived from the real
    # FOTDataset property surface; a rename there must surface here.
    assert {"error_times", "op_times", "response_times",
            "category_codes"} <= COLUMN_PROPERTIES
    assert "store" not in COLUMN_PROPERTIES
    assert "host_id" in SCHEMA_FIELDS and "hostname_typo" not in SCHEMA_FIELDS
