"""Incident mining (the Section VII-B tool)."""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import mining
from repro.core.dataset import FOTDataset
from repro.core.timeutil import DAY, HOUR, MINUTE
from repro.core.types import ComponentClass
from tests.test_ticket import make_ticket


def repeat_chain(host=1, n=4, gap_days=5.0, start=10 * DAY):
    return [
        make_ticket(
            fot_id=host * 100 + i,
            host_id=host,
            error_time=start + i * gap_days * DAY,
            op_time=start + i * gap_days * DAY + HOUR,
        )
        for i in range(n)
    ]


class TestMineIncidents:
    def test_repeat_chain_becomes_one_incident(self):
        ds = FOTDataset(repeat_chain())
        incidents = mining.mine_incidents(ds)
        assert len(incidents) == 1
        assert incidents[0].kind == "repeat"
        assert len(incidents[0]) == 4
        assert "repeating" in incidents[0].summary

    def test_singletons_not_reported(self):
        tickets = [
            make_ticket(fot_id=i, host_id=i, error_time=i * 30 * DAY)
            for i in range(5)
        ]
        assert mining.mine_incidents(FOTDataset(tickets)) == []

    def test_multi_component_incident(self):
        t0 = 20 * DAY
        tickets = [
            make_ticket(fot_id=0, host_id=9, error_time=t0,
                        error_device=ComponentClass.POWER),
            make_ticket(fot_id=1, host_id=9, error_time=t0 + 2 * MINUTE,
                        error_device=ComponentClass.FAN),
        ]
        incidents = mining.mine_incidents(FOTDataset(tickets))
        assert len(incidents) == 1
        assert incidents[0].kind == "multi_component"
        assert "fan" in incidents[0].summary and "power" in incidents[0].summary

    def test_batch_incident(self):
        # 60 HDD failures on 60 servers within two hours, against an
        # otherwise quiet trace.
        tickets = [
            make_ticket(fot_id=i, host_id=i, error_time=i * 20 * DAY + HOUR)
            for i in range(10)
        ]
        tickets += [
            make_ticket(fot_id=100 + i, host_id=100 + i,
                        error_time=50 * DAY + i * MINUTE)
            for i in range(60)
        ]
        incidents = mining.mine_incidents(FOTDataset(tickets), min_batch=30)
        batch = [i for i in incidents if i.kind == "batch"]
        assert batch
        assert len(batch[0]) >= 60
        assert len(batch[0].servers) >= 60

    def test_batch_summary_tie_independent_of_hash_seed(self):
        # 3 HDD and 3 power tickets: the summary names the class declared
        # first, under every PYTHONHASHSEED (an Enum hashes its name, so
        # set order used to pick the class).
        script = (
            "from repro.analysis import mining\n"
            "from repro.core.dataset import FOTDataset\n"
            "from repro.core.timeutil import DAY, MINUTE\n"
            "from repro.core.types import ComponentClass\n"
            "from tests.test_ticket import make_ticket\n"
            "devices = [ComponentClass.HDD] * 3 + [ComponentClass.POWER] * 3\n"
            "tickets = [make_ticket(fot_id=i, host_id=host, "
            "error_time=10 * DAY + i * MINUTE, error_device=device) for i, "
            "(host, device) in enumerate(zip([0, 1, 2, 2, 3, 4], devices))]\n"
            "incidents = mining.mine_incidents(FOTDataset(tickets), "
            "min_batch=3)\n"
            "print(incidents[0].summary)\n"
        )
        root = Path(__file__).resolve().parents[1]
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                   str(root)]))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout.startswith("batch: 6 hdd tickets"), (seed,
                                                                   out.stdout)

    def test_incidents_sorted_by_size(self, small_dataset):
        incidents = mining.mine_incidents(small_dataset)
        sizes = [len(i) for i in incidents]
        assert sizes == sorted(sizes, reverse=True)
        assert [i.incident_id for i in incidents] == list(range(len(incidents)))

    def test_finds_injected_structures(self, small_trace):
        incidents = mining.mine_incidents(small_trace.dataset)
        kinds = {i.kind for i in incidents}
        assert {"repeat", "batch"} <= kinds
        # The flapping BBU server must surface as a large incident.
        flap_row = next(
            r.server_rows[0]
            for r in small_trace.injections
            if r.kind == "bbu_flapping"
        )
        flap_host = int(small_trace.fleet.host_ids[flap_row])
        flap_incidents = [i for i in incidents if flap_host in i.servers]
        assert flap_incidents
        assert max(len(i) for i in flap_incidents) >= 10

    def test_empty_dataset(self):
        assert mining.mine_incidents(FOTDataset([])) == []


class TestTicketContext:
    def test_component_history_collected(self):
        chain = repeat_chain(n=3)
        ds = FOTDataset(chain)
        ctx = mining.component_context(ds, chain[-1])
        assert ctx.prior_component_failures == 2
        assert ctx.is_probable_repeat
        assert len(ctx.same_server_history) == 2

    def test_fresh_component_is_not_repeat(self):
        tickets = [
            make_ticket(fot_id=0, host_id=1, error_time=10 * DAY),
            make_ticket(fot_id=1, host_id=1, error_time=300 * DAY),
        ]
        ds = FOTDataset(tickets)
        ctx = mining.component_context(ds, tickets[1])
        # Same component key but 290 days apart: history exists, but it
        # is not a probable repeat of a just-solved problem.
        assert ctx.prior_component_failures == 1
        assert not ctx.is_probable_repeat

    def test_active_batch_flagged(self):
        target = make_ticket(fot_id=0, host_id=0, error_time=50 * DAY)
        others = [
            make_ticket(fot_id=1 + i, host_id=1 + i,
                        error_time=50 * DAY + i * MINUTE)
            for i in range(40)
        ]
        ctx = mining.component_context(
            FOTDataset([target] + others), target, batch_threshold=30
        )
        assert ctx.active_batch is not None
        assert "batch" in ctx.active_batch

    def test_quiet_times_no_batch(self):
        target = make_ticket(fot_id=0, host_id=0, error_time=50 * DAY)
        ctx = mining.component_context(FOTDataset([target]), target)
        assert ctx.active_batch is None
