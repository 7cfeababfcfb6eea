"""Sharded execution engine: serial vs. parallel bit-equivalence."""

import numpy as np
import pytest

from repro.config import FleetConfig, ScenarioConfig, tiny_scenario
from repro.core.columns import COLUMN_NAMES, TABLE_NAMES
from repro.engine.parallel import run_shards
from repro.simulation.trace import (
    CHAIN_ID_STRIDE,
    assemble_store,
    finish_trace,
    generate_trace,
    plan_trace,
    run_shard,
)


def _scenario(n_dcs: int, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        fleet=FleetConfig(
            n_datacenters=n_dcs, servers_per_dc=200, n_product_lines=12
        ),
        horizon_days=400,
        target_failures=3000,
        seed=seed,
    )


def assert_traces_identical(left, right) -> None:
    ls, rs = left.dataset.store, right.dataset.store
    assert ls.n == rs.n
    for name in COLUMN_NAMES:
        lcol, rcol = ls.column(name), rs.column(name)
        if lcol.dtype == object:
            assert list(lcol) == list(rcol), name
        else:
            np.testing.assert_array_equal(lcol, rcol, err_msg=name)
    for name in TABLE_NAMES:
        assert ls.table(name) == rs.table(name), name
    assert left.fms_stats == right.fms_stats


class TestBitEquivalence:
    @pytest.mark.parametrize("seed", [7, 1234, 20170626])
    def test_jobs2_matches_serial(self, seed):
        config = tiny_scenario(seed=seed)
        serial = generate_trace(config, jobs=1)
        sharded = generate_trace(config, jobs=2)
        assert_traces_identical(serial, sharded)
        assert serial.dataset.fingerprint() == sharded.dataset.fingerprint()

    @pytest.mark.parametrize("n_dcs", [1, 3, 8])
    def test_idc_counts(self, n_dcs):
        config = _scenario(n_dcs, seed=99)
        serial = generate_trace(config, jobs=1)
        sharded = generate_trace(config, jobs=4)
        assert_traces_identical(serial, sharded)

    def test_jobs_exceeding_shards(self):
        config = _scenario(2, seed=5)
        serial = generate_trace(config, jobs=1)
        sharded = generate_trace(config, jobs=16)
        assert_traces_identical(serial, sharded)


class TestPlanAndShards:
    def test_plan_covers_fleet(self):
        config = _scenario(4, seed=11)
        plan = plan_trace(config)
        assert len(plan.tasks) == 4
        assert sum(len(t.rows) for t in plan.tasks) == len(plan.fleet)
        seeds = [t.seed for t in plan.tasks]
        assert len(seeds) == len(set(map(id, seeds)))

    def test_grown_chain_ids_disjoint_across_shards(self):
        config = _scenario(3, seed=13)
        plan = plan_trace(config)
        # Injected events carry parent-assigned chain ids (sentinels and
        # global group indices) that may appear in any shard; only the
        # FMS-grown repeat chains must obey the per-shard stride.
        injected = {
            event.chain_id
            for task in plan.tasks
            for event in task.injected
            if event.chain_id is not None
        }
        results = run_shards(plan.tasks, plan.shared, jobs=1)
        seen_any = False
        for task, result in zip(plan.tasks, results):
            grown = [
                d["chain_id"] for d in result.arrays["details"]
                if d and "chain_id" in d and d["chain_id"] not in injected
            ]
            if grown:
                seen_any = True
                base = task.index * CHAIN_ID_STRIDE
                assert min(grown) >= base
                assert max(grown) < base + CHAIN_ID_STRIDE
        assert seen_any

    def test_run_shards_orders_results(self):
        config = _scenario(3, seed=13)
        plan = plan_trace(config)
        serial = run_shards(plan.tasks, plan.shared, jobs=1)
        pooled = run_shards(plan.tasks, plan.shared, jobs=3)
        assert [r.index for r in pooled] == [r.index for r in serial]
        left = finish_trace(plan, serial)
        right = finish_trace(plan, pooled)
        assert_traces_identical(left, right)

    def test_assemble_store_sorted_by_time(self):
        config = _scenario(4, seed=3)
        plan = plan_trace(config)
        results = run_shards(plan.tasks, plan.shared, jobs=1)
        store = assemble_store(results)
        times = store.column("error_times")
        assert np.all(np.diff(times) >= 0)
        np.testing.assert_array_equal(
            store.column("fot_ids"), np.arange(store.n, dtype=np.int64)
        )


class TestFacadeJobs:
    def test_api_simulate_policy_jobs(self):
        import repro

        serial = repro.simulate(
            scale=0.01, seed=42, policy=repro.ExecutionPolicy(jobs="serial")
        )
        sharded = repro.simulate(
            scale=0.01, seed=42, policy=repro.ExecutionPolicy(jobs=2)
        )
        assert_traces_identical(serial, sharded)


class TestSingleCpuSerialDecision:
    """``jobs>1`` (or ``"auto"``) on a 1-CPU host must run serially —
    silently, with the decision recorded in telemetry instead of a
    RuntimeWarning (the PR-7 warning fired on every CI run and told
    the user nothing actionable)."""

    def _one_cpu(self, monkeypatch):
        import repro.engine.adaptive as adaptive

        monkeypatch.setattr(
            adaptive, "probe_cpu_count",
            lambda: adaptive.CpuProbe(count=1, source="test"),
        )

    def test_serial_and_identical_without_warning(self, monkeypatch, recwarn):
        from repro.engine import ExecutionPolicy, InMemoryTelemetrySink

        config = tiny_scenario(seed=5)
        serial = generate_trace(config, jobs=1)
        self._one_cpu(monkeypatch)
        sink = InMemoryTelemetrySink()
        trace = generate_trace(
            config, policy=ExecutionPolicy(jobs=4, telemetry_sink=sink)
        )
        assert trace.dataset.fingerprint() == serial.dataset.fingerprint()
        assert not [w for w in recwarn if w.category is RuntimeWarning]
        plan = sink.last.plan
        assert plan.mode == "serial"
        assert plan.jobs == 1
        assert "1 usable CPU" in plan.reason

    def test_auto_on_one_cpu_plans_serial(self, monkeypatch):
        self._one_cpu(monkeypatch)
        trace = generate_trace(tiny_scenario(seed=5), jobs="auto")
        plan = trace.telemetry.plan
        assert plan.mode == "serial"
        assert plan.probed_cpus == 1
        assert plan.cpu_source == "test"

    def test_jobs1_never_warns(self, monkeypatch, recwarn):
        self._one_cpu(monkeypatch)
        generate_trace(tiny_scenario(seed=5), jobs=1)
        assert not [w for w in recwarn if w.category is RuntimeWarning]
