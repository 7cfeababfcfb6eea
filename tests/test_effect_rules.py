"""Rule-level tests for the concurrency & resource-safety rules:
positive/negative fixtures for RPL201–RPL213, executor/lock/seed exemptions, and the
interprocedural blocking-summary behavior (report-at-innermost-
coroutine, chain rendering)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import LintResult, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def lint_effects(*paths: Path) -> LintResult:
    return run_lint([str(p) for p in paths])


def rules_hit(result: LintResult) -> set:
    return {finding.rule for finding in result.new}


# ---------------------------------------------------------------------------
# RPL201 — blocking calls on the event loop
# ---------------------------------------------------------------------------
class TestRPL201:
    def test_flags_time_sleep_in_coroutine(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import time\n"
            "async def f():\n"
            "    time.sleep(1)\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL201"}
        assert "time.sleep()" in result.new[0].message

    def test_flags_builtin_open_in_coroutine(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "async def f(p):\n"
            "    with open(p) as fh:\n"
            "        return fh.read()\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL201"}
        assert "open()" in result.new[0].message

    def test_flags_json_loads_on_request_body(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import json\n"
            "async def handler(body):\n"
            "    return json.loads(body)\n",
        )
        assert rules_hit(lint_effects(path)) == {"RPL201"}

    def test_flags_blocking_through_sync_helper_chain(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "def inner(p):\n"
            "    return open(p).read()\n"
            "def outer(p):\n"
            "    return inner(p)\n"
            "async def f(p):\n"
            "    return outer(p)\n",
        )
        result = lint_effects(path)
        rpl201 = [f for f in result.new if f.rule == "RPL201"]
        assert len(rpl201) == 1
        assert "outer -> inner" in rpl201[0].message
        assert rpl201[0].line == 6

    @pytest.mark.parametrize("binding, call", [
        ("from repro.serve import helpers", "helpers.slow()"),
        ("from repro.serve.helpers import slow", "slow()"),
        ("import repro.serve.helpers as helpers", "helpers.slow()"),
    ])
    def test_flags_blocking_helper_in_another_module(self, tmp_path,
                                                     binding, call):
        """Every spelling of a call into a helper module resolves to the
        helper, the from-imported module too."""
        helpers = write(
            tmp_path, "src/repro/serve/helpers.py",
            "import time\n"
            "def slow():\n"
            "    time.sleep(1)\n",
        )
        handlers = write(
            tmp_path, "src/repro/serve/handlers.py",
            f"{binding}\n"
            "async def handler():\n"
            f"    {call}\n",
        )
        result = lint_effects(helpers, handlers)
        assert [(f.rule, Path(f.path).name, f.line, f.message)
                for f in result.new] == [(
                    "RPL201", "handlers.py", 3,
                    "call blocks the event loop through slow: time.sleep() "
                    "blocks the calling thread; wrap the call in "
                    "loop.run_in_executor()/asyncio.to_thread()",
                )]

    def test_allows_executor_wrapped_call(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import asyncio, time\n"
            "async def f():\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, lambda: time.sleep(1))\n"
            "    await asyncio.to_thread(time.sleep, 1)\n",
        )
        assert rules_hit(lint_effects(path)) == set()

    def test_reports_inside_the_blocking_coroutine_not_callers(
        self, tmp_path
    ):
        """Blocking never propagates through an async callee: the fix
        belongs in the innermost coroutine and clears every caller."""
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import time\n"
            "async def inner():\n"
            "    time.sleep(1)\n"
            "async def outer():\n"
            "    await inner()\n",
        )
        result = lint_effects(path)
        rpl201 = [f for f in result.new if f.rule == "RPL201"]
        assert len(rpl201) == 1
        assert rpl201[0].line == 3

    def test_sync_functions_are_not_flagged(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import time\n"
            "def f():\n"
            "    time.sleep(1)\n",
        )
        assert rules_hit(lint_effects(path)) == set()


# ---------------------------------------------------------------------------
# RPL202 — shared state mutated across an await
# ---------------------------------------------------------------------------
class TestRPL202:
    STOP_SHAPED = (
        "class Router:\n"
        "    async def stop(self):\n"
        "        if self._worker is not None:\n"
        "            self._worker.cancel()\n"
        "            await self._worker\n"
        "            self._worker = None\n"
    )

    def test_flags_read_await_write(self, tmp_path):
        path = write(tmp_path, "src/repro/analysis/bad.py", self.STOP_SHAPED)
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL202"}
        assert "'self._worker'" in result.new[0].message
        assert result.new[0].line == 6

    def test_allows_capture_and_swap(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "class Router:\n"
            "    async def stop(self):\n"
            "        worker, self._worker = self._worker, None\n"
            "        if worker is not None:\n"
            "            worker.cancel()\n"
            "            await worker\n",
        )
        assert rules_hit(lint_effects(path)) == set()

    def test_allows_lock_guarded_region(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "class Router:\n"
            "    async def stop(self):\n"
            "        async with self._lock:\n"
            "            if self._worker is not None:\n"
            "                await self._worker\n"
            "                self._worker = None\n",
        )
        assert rules_hit(lint_effects(path)) == set()

    def test_allows_read_write_without_intervening_await(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import asyncio\n"
            "class Counter:\n"
            "    async def bump(self):\n"
            "        self._n = self._n + 1\n"
            "        await asyncio.sleep(0)\n",
        )
        assert rules_hit(lint_effects(path)) == set()

    def test_flags_through_loop_back_edge(self, tmp_path):
        """The hazard survives a loop: the read happens on iteration N,
        the await and write on the same pass — caught via fixpoint."""
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "class Poller:\n"
            "    async def run(self):\n"
            "        while True:\n"
            "            if self._pending:\n"
            "                await self.flush()\n"
            "                self._pending = False\n",
        )
        assert rules_hit(lint_effects(path)) == {"RPL202"}

    def test_tracks_declared_globals(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "_STATE = None\n"
            "async def f(x):\n"
            "    global _STATE\n"
            "    if _STATE is None:\n"
            "        await x\n"
            "        _STATE = x\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL202"}
        assert "'_STATE'" in result.new[0].message


# ---------------------------------------------------------------------------
# RPL203 — fire-and-forget tasks
# ---------------------------------------------------------------------------
class TestRPL203:
    def test_flags_bare_create_task(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import asyncio\n"
            "async def f(coro):\n"
            "    asyncio.create_task(coro)\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL203"}
        assert "weak reference" in result.new[0].message

    def test_flags_task_bound_to_dead_local(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import asyncio\n"
            "async def f(coro):\n"
            "    task = asyncio.create_task(coro)\n"
            "    return 1\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL203"}
        assert "'task'" in result.new[0].message

    def test_allows_awaited_task(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import asyncio\n"
            "async def f(coro):\n"
            "    task = asyncio.create_task(coro)\n"
            "    await task\n",
        )
        assert rules_hit(lint_effects(path)) == set()

    def test_allows_retained_on_self_or_done_callback(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import asyncio\n"
            "class Owner:\n"
            "    async def start(self, coro, on_done):\n"
            "        self._task = asyncio.create_task(coro)\n"
            "        asyncio.create_task(coro).add_done_callback(on_done)\n",
        )
        assert rules_hit(lint_effects(path)) == set()


# ---------------------------------------------------------------------------
# RPL211 — process-pool captures
# ---------------------------------------------------------------------------
class TestRPL211:
    def test_flags_lambda_work_function(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(lambda x: x + 1, items))\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL211"}
        assert "lambda" in result.new[0].message

    def test_flags_closure_capture(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(items, scale):\n"
            "    def work(x):\n"
            "        return x * scale\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, items))\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL211"}
        assert "captures ['scale']" in result.new[0].message

    def test_flags_unseeded_rng_work_function(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import random\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def work(x):\n"
            "    return x + random.random()\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, items))\n",
        )
        result = lint_effects(path)
        # The pool submission is RPL211; work() itself also trips the
        # syntactic determinism rule — both should fire.
        assert "RPL211" in rules_hit(result)
        rpl211 = [f for f in result.new if f.rule == "RPL211"]
        assert "RNG-bearing" in rpl211[0].message

    def test_seed_parameter_satisfies_rng_contract(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import numpy as np\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def work(x, seed):\n"
            "    return x + np.random.default_rng(seed).random()\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, items))\n",
        )
        assert "RPL211" not in rules_hit(lint_effects(path))

    def test_flags_mutable_global_read_by_work_function(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "CACHE = {}\n"
            "def work(x):\n"
            "    return CACHE.get(x, x)\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, items))\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL211"}
        assert "CACHE" in result.new[0].message

    def test_initializer_assigned_global_is_allowed(self, tmp_path):
        """The ``run_shards`` idiom: the initializer primes the global
        in every worker, so reads of it are deterministic."""
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "PLAN = {}\n"
            "def _init(plan):\n"
            "    global PLAN\n"
            "    PLAN = plan\n"
            "def work(x):\n"
            "    return PLAN.get(x, x)\n"
            "def run(items, plan):\n"
            "    with ProcessPoolExecutor(initializer=_init,\n"
            "                             initargs=(plan,)) as pool:\n"
            "        return list(pool.map(work, items))\n",
        )
        assert "RPL211" not in rules_hit(lint_effects(path))

    def test_flags_mutable_global_passed_as_argument(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "SHARED = []\n"
            "def work(x, acc):\n"
            "    acc.append(x)\n"
            "def run(x):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        pool.submit(work, x, SHARED)\n",
        )
        result = lint_effects(path)
        assert "RPL211" in rules_hit(result)
        assert any("divergent copy" in f.message for f in result.new)


# ---------------------------------------------------------------------------
# RPL212 — resource lifetime & buffer escape
# ---------------------------------------------------------------------------
class TestRPL212:
    def test_flags_unclosed_open(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "def f(p):\n"
            "    fh = open(p)\n"
            "    return fh.read()\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL212"}
        assert "never" in result.new[0].message

    def test_flags_discarded_open(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "def f(p):\n"
            "    open(p)\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL212"}
        assert "discarded" in result.new[0].message

    def test_allows_with_and_closed_handles(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "def f(p):\n"
            "    with open(p) as fh:\n"
            "        return fh.read()\n"
            "def g(p):\n"
            "    fh = open(p)\n"
            "    try:\n"
            "        return fh.read()\n"
            "    finally:\n"
            "        fh.close()\n",
        )
        assert rules_hit(lint_effects(path)) == set()

    def test_returned_resource_moves_the_obligation_to_callers(
        self, tmp_path
    ):
        """``return open(...)`` is legal — but a caller that discards
        the result leaks the resource and is flagged instead."""
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "def acquire(p):\n"
            "    fh = open(p)\n"
            "    return fh\n"
            "def leak(p):\n"
            "    acquire(p)\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL212"}
        assert len(result.new) == 1
        assert "acquire" in result.new[0].message
        assert result.new[0].line == 5

    def test_flags_discarded_resource_from_an_imported_module(
        self, tmp_path
    ):
        """``handles.acquire(path)`` resolves through ``from repro.core
        import handles`` to the function that returns the open file."""
        handles = write(
            tmp_path, "src/repro/core/handles.py",
            "def acquire(path):\n"
            "    return open(path)\n",
        )
        caller = write(
            tmp_path, "src/repro/analysis/leak.py",
            "from repro.core import handles\n"
            "def leak(path):\n"
            "    handles.acquire(path)\n",
        )
        result = lint_effects(handles, caller)
        assert [(f.rule, Path(f.path).name, f.line, f.message)
                for f in result.new] == [(
                    "RPL212", "leak.py", 3,
                    "result of acquire() is discarded but carries an open "
                    "resource the caller must close",
                )]

    def test_flags_mkstemp_fd_without_fdopen(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import os, tempfile\n"
            "def f(payload):\n"
            "    fd, tmp = tempfile.mkstemp()\n"
            "    os.write(fd, payload)\n"
            "    return tmp\n",
        )
        result = lint_effects(path)
        assert "RPL212" in rules_hit(result)
        assert any("fd" in f.message for f in result.new)

    def test_allows_mkstemp_fd_through_fdopen(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import os, tempfile\n"
            "def f(payload):\n"
            "    fd, tmp = tempfile.mkstemp()\n"
            "    with os.fdopen(fd, 'wb') as fh:\n"
            "        fh.write(payload)\n"
            "    return tmp\n",
        )
        assert "RPL212" not in rules_hit(lint_effects(path))

    def test_flags_buffer_view_escaping_with_block(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import mmap\n"
            "import numpy as np\n"
            "def load(p):\n"
            "    with open(p, 'rb') as fh:\n"
            "        with mmap.mmap(fh.fileno(), 0) as mm:\n"
            "            return np.frombuffer(mm, dtype='u1')\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL212"}
        assert "escapes" in result.new[0].message

    def test_allows_copied_buffer_view(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import mmap\n"
            "import numpy as np\n"
            "def load(p):\n"
            "    with open(p, 'rb') as fh:\n"
            "        with mmap.mmap(fh.fileno(), 0) as mm:\n"
            "            return np.frombuffer(mm, dtype='u1').copy()\n",
        )
        assert rules_hit(lint_effects(path)) == set()


# ---------------------------------------------------------------------------
# RPL213 — atomic write idiom
# ---------------------------------------------------------------------------
class TestRPL213:
    def test_flags_in_place_write_in_core(self, tmp_path):
        path = write(
            tmp_path, "src/repro/core/bad.py",
            "def save(path, payload):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(payload)\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL213"}
        assert "torn file" in result.new[0].message

    def test_flags_write_text_in_serve(self, tmp_path):
        path = write(
            tmp_path, "src/repro/serve/bad.py",
            "def save(path, payload):\n"
            "    path.write_text(payload)\n",
        )
        assert rules_hit(lint_effects(path)) == {"RPL213"}

    def test_rename_marker_exempts_the_function(self, tmp_path):
        path = write(
            tmp_path, "src/repro/core/good.py",
            "import os, tempfile\n"
            "def save(path, payload):\n"
            "    fd, tmp = tempfile.mkstemp(dir='.')\n"
            "    with os.fdopen(fd, 'w') as fh:\n"
            "        fh.write(payload)\n"
            "    os.replace(tmp, path)\n",
        )
        assert rules_hit(lint_effects(path)) == set()

    def test_append_mode_is_exempt(self, tmp_path):
        path = write(
            tmp_path, "src/repro/core/good.py",
            "def log(path, line):\n"
            "    with open(path, 'a') as fh:\n"
            "        fh.write(line)\n",
        )
        assert rules_hit(lint_effects(path)) == set()

    def test_outside_durable_packages_is_exempt(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "def save(path, payload):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(payload)\n",
        )
        assert rules_hit(lint_effects(path)) == set()


# ---------------------------------------------------------------------------
# suppression interplay
# ---------------------------------------------------------------------------
class TestSuppression:
    def test_justified_suppression_silences_effects_finding(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/ok.py",
            "import time\n"
            "async def f():\n"
            "    time.sleep(1)  # reprolint: disable=RPL201 -- test fixture\n",
        )
        result = lint_effects(path)
        assert result.new == []
        assert len(result.suppressed) == 1
