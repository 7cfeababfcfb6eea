"""Tests for the RPL301–305 scale-hazard rules and their deliberate
negative space (comprehensions, generators, group-by views)."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Every fixture lives in a hot package so the perf pass analyzes it.
MOD = "src/repro/analysis/mod.py"


def write(tmp_path: Path, source: str, rel: str = MOD) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def lint(path: Path):
    return run_lint([str(path)])


def rules_of(result):
    return {f.rule for f in result.new}


# ---------------------------------------------------------------------------
# RPL301 — row loops
# ---------------------------------------------------------------------------
class TestRPL301:
    def test_row_loop_over_dataset_flags(self, tmp_path):
        path = write(
            tmp_path,
            "def ages(dataset):\n"
            "    out = set()\n"
            "    for t in dataset.tickets:\n"
            "        out.add(t.error_time)\n"
            "    return out\n",
        )
        assert "RPL301" in rules_of(lint(path))

    def test_enumerate_is_looked_through(self, tmp_path):
        path = write(
            tmp_path,
            "def ages(dataset):\n"
            "    out = set()\n"
            "    for i, t in enumerate(dataset.tickets):\n"
            "        out.add(i)\n"
            "    return out\n",
        )
        assert "RPL301" in rules_of(lint(path))

    def test_comprehension_is_not_flagged(self, tmp_path):
        """Comprehensions are the sanctioned ``--fix`` output form."""
        path = write(
            tmp_path,
            "def ages(dataset):\n"
            "    return [t.error_time for t in dataset.tickets]\n",
        )
        assert lint(path).new == []

    def test_generator_functions_are_exempt(self, tmp_path):
        """Streaming serializers must iterate — ``yield`` opts out."""
        path = write(
            tmp_path,
            "def stream(dataset):\n"
            "    for t in dataset.tickets:\n"
            "        yield t.error_time\n",
        )
        assert lint(path).new == []

    def test_group_by_views_are_small(self, tmp_path):
        """``by_idc()`` returns a handful of groups, not n rows."""
        path = write(
            tmp_path,
            "def per_idc(dataset):\n"
            "    out = {}\n"
            "    for idc, sub in dataset.by_idc().items():\n"
            "        out[idc] = len(sub)\n"
            "    return out\n",
        )
        assert lint(path).new == []

    def test_cold_packages_are_not_analyzed(self, tmp_path):
        path = write(
            tmp_path,
            "def ages(dataset):\n"
            "    out = set()\n"
            "    for t in dataset.tickets:\n"
            "        out.add(t.error_time)\n"
            "    return out\n",
            rel="src/repro/report/mod.py",
        )
        assert lint(path).new == []

    def test_inline_suppression_with_reason_is_honoured(self, tmp_path):
        path = write(
            tmp_path,
            "def ages(dataset):\n"
            "    out = set()\n"
            "    for t in dataset.tickets:  "
            "# reprolint: disable=RPL301 -- sequential scan by design\n"
            "        out.add(t.error_time)\n"
            "    return out\n",
        )
        result = lint(path)
        assert result.new == []
        assert [f.rule for f in result.suppressed] == ["RPL301"]


# ---------------------------------------------------------------------------
# RPL302 — array growth
# ---------------------------------------------------------------------------
class TestRPL302:
    def test_np_append_in_loop_flags(self, tmp_path):
        path = write(
            tmp_path,
            "import numpy as np\n"
            "def build(dataset):\n"
            "    out = np.zeros(0)\n"
            "    for t in dataset.tickets:\n"
            "        out = np.append(out, t.error_time)\n"
            "    return out\n",
        )
        assert "RPL302" in rules_of(lint(path))

    def test_materialized_accumulator_flags_with_fix(self, tmp_path):
        path = write(
            tmp_path,
            "import numpy as np\n"
            "def build(dataset):\n"
            "    acc = []\n"
            "    for t in dataset.tickets:\n"
            "        acc.append(t.error_time)\n"
            "    return np.array(acc)\n",
        )
        found = [f for f in lint(path).new if f.rule == "RPL302"]
        assert len(found) == 1
        assert found[0].fix is not None
        assert "comprehension" in found[0].fix.description

    def test_unmaterialized_list_is_not_array_growth(self, tmp_path):
        """A list that stays a list is RPL301's business, not RPL302's."""
        path = write(
            tmp_path,
            "def build(dataset):\n"
            "    acc = []\n"
            "    for t in dataset.tickets:\n"
            "        acc.append(t.error_time)\n"
            "    return acc\n",
        )
        assert "RPL302" not in rules_of(lint(path))

    def test_multi_statement_body_gets_no_fix(self, tmp_path):
        """Only the provably-equivalent single-append shape is rewritten;
        the finding itself still fires."""
        path = write(
            tmp_path,
            "import numpy as np\n"
            "def build(dataset):\n"
            "    acc = []\n"
            "    for t in dataset.tickets:\n"
            "        x = t.error_time\n"
            "        acc.append(x)\n"
            "    return np.array(acc)\n",
        )
        found = [f for f in lint(path).new if f.rule == "RPL302"]
        assert len(found) == 1
        assert found[0].fix is None


# ---------------------------------------------------------------------------
# RPL303 — redundant materialization
# ---------------------------------------------------------------------------
class TestRPL303:
    def test_asarray_over_known_array_flags_with_fix(self, tmp_path):
        path = write(
            tmp_path,
            "import numpy as np\n"
            "def f(dataset):\n"
            "    times = dataset.error_times\n"
            "    return np.asarray(times)\n",
        )
        found = [f for f in lint(path).new if f.rule == "RPL303"]
        assert len(found) == 1
        assert found[0].fix is not None

    def test_asarray_over_list_display_is_the_materialization(
        self, tmp_path
    ):
        path = write(
            tmp_path,
            "import numpy as np\n"
            "def f(dataset):\n"
            "    return np.asarray([t.error_time "
            "for t in dataset.tickets])\n",
        )
        assert "RPL303" not in rules_of(lint(path))

    def test_tolist_on_column_flags_without_fix(self, tmp_path):
        path = write(
            tmp_path,
            "def f(dataset):\n"
            "    return dataset.error_times.tolist()\n",
        )
        found = [f for f in lint(path).new if f.rule == "RPL303"]
        assert len(found) == 1
        assert found[0].fix is None


# ---------------------------------------------------------------------------
# RPL304 — quadratic patterns
# ---------------------------------------------------------------------------
class TestRPL304:
    def test_membership_against_accumulator_flags(self, tmp_path):
        path = write(
            tmp_path,
            "def dedup(dataset):\n"
            "    seen = []\n"
            "    for t in dataset.tickets:\n"
            "        if t.host_id in seen:\n"
            "            continue\n"
            "        seen.append(t.host_id)\n"
            "    return seen\n",
        )
        messages = [
            f.message for f in lint(path).new if f.rule == "RPL304"
        ]
        assert any("'seen'" in m for m in messages)

    def test_membership_against_set_is_fine(self, tmp_path):
        path = write(
            tmp_path,
            "def dedup(dataset):\n"
            "    seen = set()\n"
            "    for t in dataset.tickets:\n"
            "        if t.host_id in seen:\n"
            "            continue\n"
            "        seen.add(t.host_id)\n"
            "    return seen\n",
        )
        assert "RPL304" not in rules_of(lint(path))

    def test_nested_dataset_loops_flag(self, tmp_path):
        path = write(
            tmp_path,
            "def pairs(dataset):\n"
            "    n = 0\n"
            "    for a in dataset.tickets:\n"
            "        for b in dataset.tickets:\n"
            "            n += 1\n"
            "    return n\n",
        )
        messages = [
            f.message for f in lint(path).new if f.rule == "RPL304"
        ]
        assert any("nested loop" in m for m in messages)

    def test_loop_dependent_sort_in_ds_loop_flags(self, tmp_path):
        path = write(
            tmp_path,
            "def f(dataset):\n"
            "    out = set()\n"
            "    for t in dataset.tickets:\n"
            "        out.add(sorted(dataset.tickets,\n"
            "                       key=lambda x: x.error_time"
            " - t.error_time)[0])\n"
            "    return out\n",
        )
        assert "RPL304" in rules_of(lint(path))


# ---------------------------------------------------------------------------
# RPL305 — loop-invariant recomputation
# ---------------------------------------------------------------------------
class TestRPL305:
    def test_invariant_expensive_call_flags(self, tmp_path):
        path = write(
            tmp_path,
            "def f(dataset, codes):\n"
            "    out = {}\n"
            "    for code in codes:\n"
            "        out[code] = dataset.sorted_by_time()\n"
            "    return out\n",
        )
        assert "RPL305" in rules_of(lint(path))

    def test_loop_dependent_call_is_fine(self, tmp_path):
        path = write(
            tmp_path,
            "def g(dataset):\n"
            "    out = {}\n"
            "    for key, sub in dataset.by_idc().items():\n"
            "        out[key] = sub.sorted_by_time()\n"
            "    return out\n",
        )
        assert "RPL305" not in rules_of(lint(path))


def test_perf_engine_clean_over_src(repo_lint):
    """End to end: the scale-hazard rules (RPL301–305) have zero
    unsuppressed findings over the real ``src/`` tree."""
    src = (REPO_ROOT / "src").as_posix()
    found = [
        f.render() for f in repo_lint.new
        if f.rule.startswith("RPL3") and f.path.startswith(src)
    ]
    assert found == []
