"""Rule-level tests for the dataflow rules: positive/negative fixtures
for RPL101–RPL104, the interprocedural RPL001/002 analyses, and
suppression handling."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.dataflow import MAGIC_LITERALS
from repro.devtools.lint import LintResult, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def lint_dataflow(*paths: Path) -> LintResult:
    return run_lint([str(p) for p in paths])


def rules_hit(result: LintResult) -> set:
    return {finding.rule for finding in result.new}


# ---------------------------------------------------------------------------
# RPL101 — cross-unit arithmetic and comparison
# ---------------------------------------------------------------------------
class TestRPL101:
    def test_flags_cross_unit_addition(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "def f(span_seconds, window_days):\n"
            "    return span_seconds + window_days\n",
        )
        result = lint_dataflow(path)
        assert rules_hit(result) == {"RPL101"}
        assert "seconds + days" in result.new[0].message

    def test_flags_cross_unit_comparison(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "def f(span_seconds, window_days):\n"
            "    return span_seconds < window_days\n",
        )
        result = lint_dataflow(path)
        assert rules_hit(result) == {"RPL101"}
        assert "comparing" in result.new[0].message

    def test_flags_unit_mismatched_assignment(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "def f(span_seconds):\n"
            "    days = span_seconds\n"
            "    return days\n",
        )
        assert rules_hit(lint_dataflow(path)) == {"RPL101"}

    def test_flags_unit_mismatched_kwarg(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "def g(window_days):\n"
            "    return window_days\n"
            "def f(span_seconds):\n"
            "    return g(window_days=span_seconds)\n",
        )
        assert rules_hit(lint_dataflow(path)) == {"RPL101"}

    def test_allows_conversion_through_timeutil(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "from repro.core.timeutil import DAY, HOUR\n"
            "def f(span_seconds):\n"
            "    days = span_seconds / DAY\n"
            "    hours = span_seconds / HOUR\n"
            "    return days, hours\n",
        )
        assert lint_dataflow(path).new == []

    def test_allows_threshold_against_conversion_constant(self, tmp_path):
        # DAY is a value *in seconds*, so seconds < DAY is coherent.
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "from repro.core.timeutil import DAY\n"
            "def f(span_seconds):\n"
            "    return span_seconds < DAY\n",
        )
        assert lint_dataflow(path).new == []

    def test_allows_dimensionless_offsets(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "from repro.core.timeutil import DAY\n"
            "def f(span_seconds):\n"
            "    n_days = int(span_seconds // DAY) + 1\n"
            "    return n_days\n",
        )
        assert lint_dataflow(path).new == []

    def test_respects_unit_decorator_declaration(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "from repro.core.timeutil import unit\n"
            "@unit('days')\n"
            "def age(span_seconds):\n"
            "    return span_seconds\n",
        )
        result = lint_dataflow(path)
        assert rules_hit(result) == {"RPL101"}
        assert "declared to return days" in result.new[0].message

    def test_respects_newtype_annotations(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "from repro.core.timeutil import Hours\n"
            "def f(span_seconds):\n"
            "    x: Hours = span_seconds\n"
            "    return x\n",
        )
        result = lint_dataflow(path)
        assert rules_hit(result) == {"RPL101"}
        assert "annotated as hours" in result.new[0].message


# ---------------------------------------------------------------------------
# RPL102 — magic unit constants
# ---------------------------------------------------------------------------
class TestRPL102:
    @pytest.mark.parametrize("literal", sorted(MAGIC_LITERALS))
    def test_flags_magic_day_divisor(self, tmp_path, literal):
        # The message is the only place that names the replacement.
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "def f(span_seconds):\n"
            f"    return span_seconds / {literal!r}\n",
        )
        result = lint_dataflow(path)
        assert rules_hit(result) == {"RPL102"}
        replacement = MAGIC_LITERALS[literal][0]
        assert f"use core.timeutil.{replacement} so the unit is visible" \
            in result.new[0].message

    def test_flags_magic_hour_multiplier_int(self, tmp_path):
        path = write(
            tmp_path, "src/repro/fms/bad.py",
            "def f(hour_index):\n"
            "    return hour_index * 3600\n",
        )
        assert rules_hit(lint_dataflow(path)) == {"RPL102"}

    def test_allows_default_argument_literal(self, tmp_path):
        # a bare default is a declaration, not arithmetic
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "def f(window_seconds=86400.0):\n"
            "    return window_seconds\n",
        )
        assert lint_dataflow(path).new == []

    def test_allows_named_constants(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "from repro.core.timeutil import DAY\n"
            "def f(span_seconds):\n"
            "    return span_seconds / DAY\n",
        )
        assert lint_dataflow(path).new == []

    def test_magic_literal_still_infers_target_unit(self, tmp_path):
        # the engine treats 3600.0 as seconds-per-hour, so the division
        # result is hours and assigning it to 'days' double-flags
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "def f(span_seconds):\n"
            "    days = span_seconds / 3600.0\n"
            "    return days\n",
        )
        assert rules_hit(lint_dataflow(path)) == {"RPL101", "RPL102"}


# ---------------------------------------------------------------------------
# RPL103 — dtype narrowing over time values
# ---------------------------------------------------------------------------
class TestRPL103:
    def test_flags_int32_cast_of_timestamps(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import numpy as np\n"
            "def f(dataset):\n"
            "    return dataset.error_times.astype(np.int32)\n",
        )
        result = lint_dataflow(path)
        assert rules_hit(result) == {"RPL103"}
        assert "int32" in result.new[0].message

    def test_flags_narrow_dtype_kwarg(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import numpy as np\n"
            "def f(span_seconds):\n"
            "    return np.asarray(span_seconds, dtype=np.float32)\n",
        )
        assert rules_hit(lint_dataflow(path)) == {"RPL103"}

    def test_flags_narrow_accumulation(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import numpy as np\n"
            "def f(dataset):\n"
            "    narrow = dataset.error_times.astype(np.int32)\n"
            "    return np.cumsum(narrow)\n",
        )
        result = lint_dataflow(path)
        assert "RPL103" in rules_hit(result)

    def test_allows_wide_cast(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import numpy as np\n"
            "def f(dataset):\n"
            "    return dataset.error_times.astype(np.float64)\n",
        )
        assert lint_dataflow(path).new == []

    def test_allows_narrow_cast_of_counts(self, tmp_path):
        # hour-of-day indexes in 0..23 are counts, not timestamps
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import numpy as np\n"
            "def f(n_hosts):\n"
            "    return np.asarray(n_hosts, dtype=np.int32)\n",
        )
        assert lint_dataflow(path).new == []


# ---------------------------------------------------------------------------
# RPL104 — shard-order sensitivity
# ---------------------------------------------------------------------------
class TestRPL104:
    def test_flags_for_loop_over_set(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "def f(idcs):\n"
            "    seen = set(idcs)\n"
            "    out = []\n"
            "    for idc in seen:\n"
            "        out.append(idc)\n"
            "    return out\n",
        )
        result = lint_dataflow(path)
        assert rules_hit(result) == {"RPL104"}
        assert "bit-equivalence" in result.new[0].message

    def test_flags_listing_materialization(self, tmp_path):
        path = write(
            tmp_path, "src/repro/engine/bad.py",
            "import os\n"
            "def f(root):\n"
            "    return list(os.listdir(root))\n",
        )
        assert rules_hit(lint_dataflow(path)) == {"RPL104"}

    def test_flags_comprehension_over_glob(self, tmp_path):
        path = write(
            tmp_path, "src/repro/engine/bad.py",
            "def f(directory):\n"
            "    return [p.name for p in directory.glob('*.pkl')]\n",
        )
        assert rules_hit(lint_dataflow(path)) == {"RPL104"}

    def test_allows_sorted_iteration(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "def f(idcs, directory):\n"
            "    out = []\n"
            "    for idc in sorted(set(idcs)):\n"
            "        out.append(idc)\n"
            "    files = sorted(directory.glob('*.pkl'))\n"
            "    return out, [p.name for p in files]\n",
        )
        assert lint_dataflow(path).new == []

    def test_allows_order_insensitive_consumers(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "def f(idcs):\n"
            "    seen = set(idcs)\n"
            "    return len(seen), min(seen), max(seen), sum(seen)\n",
        )
        assert lint_dataflow(path).new == []

    def test_allows_membership_tests(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "def f(idcs, probe):\n"
            "    seen = set(idcs)\n"
            "    return probe in seen\n",
        )
        assert lint_dataflow(path).new == []

    def test_scoped_to_deterministic_packages(self, tmp_path):
        # the CLI may iterate sets for display; only the packages behind
        # the bit-equivalence guarantee are in scope
        path = write(
            tmp_path, "src/repro/cli2.py",
            "def f(idcs):\n"
            "    out = []\n"
            "    for idc in set(idcs):\n"
            "        out.append(idc)\n"
            "    return out\n",
        )
        assert lint_dataflow(path).new == []

    def test_taint_propagates_through_assignment(self, tmp_path):
        path = write(
            tmp_path, "src/repro/stats/bad.py",
            "def f(idcs):\n"
            "    seen = set(idcs)\n"
            "    aliased = seen\n"
            "    return [x for x in aliased]\n",
        )
        assert rules_hit(lint_dataflow(path)) == {"RPL104"}


# ---------------------------------------------------------------------------
# interprocedural RPL001/RPL002
# ---------------------------------------------------------------------------
class TestInterprocedural:
    def test_rpl001_flags_call_into_nondeterministic_helper(self, tmp_path):
        write(
            tmp_path, "src/repro/helpers2.py",
            "import time\n"
            "def now():\n"
            "    return time.time()\n",
        )
        user = write(
            tmp_path, "src/repro/analysis/uses.py",
            "from repro.helpers2 import now\n"
            "def f():\n"
            "    return now()\n",
        )
        result = lint_dataflow(tmp_path / "src")
        rpl001 = [f for f in result.new if f.rule == "RPL001"]
        assert any(f.path == user.as_posix() for f in rpl001)
        assert any("nondeterministic" in f.message for f in rpl001)

    def test_rpl001_follows_transitive_calls(self, tmp_path):
        write(
            tmp_path, "src/repro/helpers2.py",
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
            "def wrapper():\n"
            "    return now()\n",
        )
        user = write(
            tmp_path, "src/repro/analysis/uses.py",
            "from repro.helpers2 import wrapper\n"
            "def f():\n"
            "    return wrapper()\n",
        )
        result = lint_dataflow(tmp_path / "src")
        assert any(
            f.rule == "RPL001" and f.path == user.as_posix()
            for f in result.new
        )

    def test_rpl001_no_double_flag_inside_deterministic_packages(
        self, tmp_path
    ):
        # the definition itself is already flagged by the syntactic rule;
        # calls within deterministic packages must not re-flag it
        write(
            tmp_path, "src/repro/analysis/direct.py",
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
            "def f():\n"
            "    return now()\n",
        )
        result = lint_dataflow(tmp_path / "src")
        rpl001 = [f for f in result.new if f.rule == "RPL001"]
        assert len(rpl001) == 1  # the time.time() read, not the call

    def test_rpl002_flags_column_passed_to_mutator(self, tmp_path):
        write(
            tmp_path, "src/repro/stats/mut2.py",
            "def clobber(arr):\n"
            "    arr[0] = 1.0\n"
            "    return arr\n",
        )
        user = write(
            tmp_path, "src/repro/analysis/passer.py",
            "from repro.stats.mut2 import clobber\n"
            "def f(dataset):\n"
            "    return clobber(dataset.error_times)\n",
        )
        result = lint_dataflow(tmp_path / "src")
        rpl002 = [f for f in result.new if f.rule == "RPL002"]
        assert any(
            f.path == user.as_posix() and "mutates its parameter" in f.message
            for f in rpl002
        )

    def test_rpl002_allows_read_only_callee(self, tmp_path):
        write(
            tmp_path, "src/repro/stats/pure2.py",
            "def mean_of(arr):\n"
            "    return float(arr.mean())\n",
        )
        write(
            tmp_path, "src/repro/analysis/passer.py",
            "from repro.stats.pure2 import mean_of\n"
            "def f(dataset):\n"
            "    return mean_of(dataset.error_times)\n",
        )
        result = lint_dataflow(tmp_path / "src")
        assert not [f for f in result.new if f.rule == "RPL002"]


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------
class TestSuppressionAndParity:
    def test_dataflow_findings_are_suppressible(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/justified.py",
            "def f(span_seconds, window_days):\n"
            "    return span_seconds + window_days"
            "  # reprolint: disable=RPL101 -- fixture exercising suppression\n",
        )
        result = lint_dataflow(path)
        assert result.new == []
        assert len(result.suppressed) == 1


def test_repo_tree_is_dataflow_clean(repo_lint):
    """The dataflow rules (RPL101–104) have zero unsuppressed findings
    over ``src tests benchmarks``, with no baseline."""
    found = [f.render() for f in repo_lint.new if f.rule.startswith("RPL1")]
    assert found == []
