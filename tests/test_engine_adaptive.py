"""Self-tuning execution planner: probing, cost model, plan decisions."""

import numpy as np
import pytest

from repro.config import FleetConfig, ScenarioConfig, tiny_scenario
from repro.engine.adaptive import (
    MIN_PARALLEL_SECONDS,
    MODE_PARALLEL,
    MODE_SERIAL,
    CpuProbe,
    calibrate_seconds_per_unit,
    estimate_shard_costs,
    plan_execution,
    probe_cpu_count,
)
from repro.engine.policy import ExecutionPolicy
from repro.engine.telemetry import InMemoryTelemetrySink
from repro.simulation.trace import generate_trace, plan_trace


def _scenario(n_dcs: int, seed: int = 11) -> ScenarioConfig:
    return ScenarioConfig(
        fleet=FleetConfig(
            n_datacenters=n_dcs, servers_per_dc=200, n_product_lines=12
        ),
        horizon_days=400,
        target_failures=3000,
        seed=seed,
    )


@pytest.fixture(scope="module")
def tasks():
    return plan_trace(_scenario(4)).tasks


#: A fast fake calibration: one abstract unit = 1 ms of work, so a
#: 4x200-server plan estimates ~0.8s serial — under the payoff
#: threshold — while scaled variants can push it over deterministically.
FAST_UNIT = 1e-3
SLOW_UNIT = 1.0  # one unit = 1s: everything looks worth parallelizing


class TestProbe:
    def test_probe_reports_positive_count_and_source(self):
        probe = probe_cpu_count()
        assert probe.count >= 1
        assert probe.source in (
            "process_cpu_count", "sched_getaffinity", "cpu_count",
            "cgroup_quota",
        )

    def test_cgroup_quota_caps_affinity(self, monkeypatch):
        import repro.engine.adaptive as adaptive

        monkeypatch.setattr(adaptive.os, "sched_getaffinity",
                            lambda pid: set(range(16)), raising=False)
        monkeypatch.delattr(adaptive.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(adaptive, "_cgroup_quota_cpus", lambda: 2.0)
        probe = adaptive.probe_cpu_count()
        assert probe.count == 2
        assert probe.source == "cgroup_quota"

    def test_uncapped_cgroup_keeps_affinity_count(self, monkeypatch):
        import repro.engine.adaptive as adaptive

        monkeypatch.setattr(adaptive.os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        monkeypatch.delattr(adaptive.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(adaptive, "_cgroup_quota_cpus", lambda: None)
        probe = adaptive.probe_cpu_count()
        assert probe.count == 8
        assert probe.source == "sched_getaffinity"


class TestCostModel:
    def test_costs_track_shard_sizes(self, tasks):
        costs = estimate_shard_costs(tasks)
        assert len(costs) == len(tasks)
        for task, cost in zip(tasks, costs):
            assert cost >= len(task.rows)

    def test_calibration_is_cached_and_positive(self):
        first = calibrate_seconds_per_unit(refresh=True)
        second = calibrate_seconds_per_unit()
        assert first == second
        assert first > 0


class TestPlanDecisions:
    def test_serial_request_is_serial(self, tasks):
        plan = plan_execution(
            tasks, requested="serial",
            probe=CpuProbe(8, "test"), seconds_per_unit=SLOW_UNIT,
        )
        assert plan.mode == MODE_SERIAL and plan.jobs == 1
        assert not plan.parallel
        assert plan.decision.requested_jobs == "serial"

    def test_int_request_on_multicore_is_honored(self, tasks):
        plan = plan_execution(
            tasks, requested=3,
            probe=CpuProbe(8, "test"), seconds_per_unit=FAST_UNIT,
        )
        assert plan.mode == MODE_PARALLEL and plan.jobs == 3

    def test_int_request_capped_by_shard_count(self, tasks):
        plan = plan_execution(
            tasks, requested=64,
            probe=CpuProbe(128, "test"), seconds_per_unit=FAST_UNIT,
        )
        assert plan.jobs == len(tasks)

    def test_int_request_on_one_cpu_degrades_to_serial(self, tasks):
        plan = plan_execution(
            tasks, requested=4,
            probe=CpuProbe(1, "test"), seconds_per_unit=FAST_UNIT,
        )
        assert plan.mode == MODE_SERIAL
        assert "1 usable CPU" in plan.decision.reason

    def test_auto_on_one_cpu_is_serial(self, tasks):
        plan = plan_execution(
            tasks, requested="auto",
            probe=CpuProbe(1, "test"), seconds_per_unit=SLOW_UNIT,
        )
        assert plan.mode == MODE_SERIAL
        assert plan.decision.probed_cpus == 1

    def test_auto_below_payoff_threshold_is_serial(self, tasks):
        plan = plan_execution(
            tasks, requested="auto",
            probe=CpuProbe(8, "test"), seconds_per_unit=FAST_UNIT,
        )
        assert plan.decision.estimated_serial_seconds < MIN_PARALLEL_SECONDS
        assert plan.mode == MODE_SERIAL
        assert "payoff threshold" in plan.decision.reason

    def test_auto_on_big_work_goes_parallel(self, tasks):
        plan = plan_execution(
            tasks, requested="auto",
            probe=CpuProbe(8, "test"), seconds_per_unit=SLOW_UNIT,
        )
        assert plan.mode == MODE_PARALLEL
        assert plan.jobs == len(tasks)  # min(8 cpus, 4 shards)
        assert (
            plan.decision.estimated_parallel_seconds
            < plan.decision.estimated_serial_seconds
        )

    def test_single_shard_never_parallel(self):
        single = plan_trace(_scenario(1)).tasks
        plan = plan_execution(
            single, requested="auto",
            probe=CpuProbe(8, "test"), seconds_per_unit=SLOW_UNIT,
        )
        assert plan.mode == MODE_SERIAL
        assert "single shard" in plan.decision.reason

    def test_unknown_request_rejected(self, tasks):
        with pytest.raises(ValueError, match="unknown jobs request"):
            plan_execution(tasks, requested="fastest")

    def test_unknown_strategy_rejected(self, tasks):
        with pytest.raises(ValueError, match="shard_strategy"):
            plan_execution(tasks, shard_strategy="random")


class TestDispatchOrder:
    def test_cost_order_is_descending_cost_permutation(self, tasks):
        plan = plan_execution(
            tasks, probe=CpuProbe(4, "test"), seconds_per_unit=FAST_UNIT,
        )
        assert sorted(plan.dispatch_order) == list(range(len(tasks)))
        dispatched = [plan.costs[i] for i in plan.dispatch_order]
        assert dispatched == sorted(dispatched, reverse=True)

    def test_count_strategy_keeps_natural_order(self, tasks):
        plan = plan_execution(
            tasks, shard_strategy="count",
            probe=CpuProbe(4, "test"), seconds_per_unit=FAST_UNIT,
        )
        assert plan.dispatch_order == tuple(range(len(tasks)))

    def test_queue_depth_decreases_to_zero(self, tasks):
        plan = plan_execution(
            tasks, requested=2,
            probe=CpuProbe(4, "test"), seconds_per_unit=FAST_UNIT,
        )
        depths = [
            plan.queue_depth_at(pos)
            for pos in range(len(plan.dispatch_order))
        ]
        assert depths == sorted(depths, reverse=True)
        assert depths[-1] == 0


class TestAutoBitIdentity:
    """``jobs="auto"`` must be bit-identical to ``jobs=1`` whatever
    hardware the probe reports."""

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_auto_matches_serial(self, monkeypatch, cores):
        import repro.engine.adaptive as adaptive

        config = tiny_scenario(seed=17)
        serial = generate_trace(config, jobs=1)
        monkeypatch.setattr(
            adaptive, "probe_cpu_count",
            lambda: CpuProbe(count=cores, source="test"),
        )
        # Make every estimate scream "parallelize" so multi-core runs
        # actually take the pool path.
        monkeypatch.setattr(
            adaptive, "calibrate_seconds_per_unit",
            lambda refresh=False: SLOW_UNIT,
        )
        sink = InMemoryTelemetrySink()
        auto = generate_trace(
            config,
            policy=ExecutionPolicy(jobs="auto", telemetry_sink=sink),
        )
        assert auto.dataset.fingerprint() == serial.dataset.fingerprint()
        ls, rs = serial.dataset.store, auto.dataset.store
        np.testing.assert_array_equal(
            ls.column("error_times"), rs.column("error_times")
        )
        plan = sink.last.plan
        expected_mode = MODE_SERIAL if cores == 1 else MODE_PARALLEL
        assert plan.mode == expected_mode

    def test_count_strategy_matches_cost_strategy(self):
        config = tiny_scenario(seed=23)
        by_cost = generate_trace(
            config, policy=ExecutionPolicy(jobs=2, shard_strategy="cost")
        )
        by_count = generate_trace(
            config, policy=ExecutionPolicy(jobs=2, shard_strategy="count")
        )
        assert (
            by_cost.dataset.fingerprint() == by_count.dataset.fingerprint()
        )


class TestTraceTelemetry:
    def test_trace_records_plan_stages_and_shards(self):
        sink = InMemoryTelemetrySink()
        trace = generate_trace(
            tiny_scenario(seed=9),
            policy=ExecutionPolicy(jobs="serial", telemetry_sink=sink),
        )
        run = sink.last
        assert run is trace.telemetry
        assert run.kind == "trace"
        assert {s.name for s in run.stages} >= {
            "plan", "execute", "assemble", "total"
        }
        assert run.plan.n_shards == len(run.shards)
        assert sorted(s.index for s in run.shards) == list(
            range(len(run.shards))
        )
        total = run.stage("total")
        assert total.wall_seconds >= run.stage("execute").wall_seconds
        for shard in run.shards:
            assert shard.wall_seconds > 0
            assert shard.n_tickets >= 0
        assert sum(s.n_tickets for s in run.shards) >= len(trace.dataset)

    def test_no_sink_still_attaches_telemetry(self):
        trace = generate_trace(tiny_scenario(seed=9), jobs=1)
        assert trace.telemetry is not None
        assert trace.telemetry.plan.mode == MODE_SERIAL


class TestReprolintClean:
    """The execution-engine modules must be reprolint-clean with no
    baseline entries — determinism rules included (telemetry uses only
    monotonic clocks).  One lint run; its findings are checked per rule
    family so a failure names the family."""

    #: rule family -> rule-id prefix
    FAMILIES = {"ast": "RPL0", "dataflow": "RPL1", "effects": "RPL2"}

    @pytest.fixture(scope="class")
    def lint_result(self):
        from pathlib import Path

        from repro.devtools.lint import run_lint

        root = Path(__file__).resolve().parent.parent / "src" / "repro"
        targets = [
            root / "engine" / "adaptive.py",
            root / "engine" / "telemetry.py",
            root / "engine" / "policy.py",
        ]
        return run_lint([str(p) for p in targets])

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_new_modules_lint_clean(self, lint_result, family):
        prefix = self.FAMILIES[family]
        found = [f.render() for f in lint_result.new
                 if f.rule.startswith(prefix)]
        assert found == []
