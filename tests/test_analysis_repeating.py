"""Repeating failures (Section III-D, Table VIII)."""

import pytest

from repro.analysis import repeating
from repro.core.dataset import FOTDataset
from repro.core.timeutil import DAY
from repro.core.types import FOTCategory
from tests.test_ticket import make_ticket


def chain_tickets(host=1, slot=0, n=3, gap_days=5.0, start=0.0,
                  category=FOTCategory.FIXING, error_type="SMARTFail"):
    out = []
    for i in range(n):
        t = start + i * gap_days * DAY
        out.append(make_ticket(
            fot_id=int(t) + host * 1000 + i,
            host_id=host,
            device_slot=slot,
            error_type=error_type,
            error_time=t,
            category=category,
            op_time=t + DAY if category is not FOTCategory.ERROR else None,
        ))
    return out


class TestRepeatChains:
    def test_fixed_then_recurred_detected(self):
        ds = FOTDataset(chain_tickets(n=3))
        chains = repeating.repeat_chains(ds)
        assert len(chains) == 1
        (key, tickets), = chains.items()
        assert len(tickets) == 3

    def test_unfixed_errors_not_repeats(self):
        # D_error components failing again are expected, not repeats.
        ds = FOTDataset(chain_tickets(n=3, category=FOTCategory.ERROR))
        assert repeating.repeat_chains(ds) == {}

    def test_window_splits_distant_occurrences(self):
        # Two failures 300 days apart: the replacement failing, not a
        # repeat of the "solved" problem.
        ds = FOTDataset(chain_tickets(n=2, gap_days=300.0))
        assert repeating.repeat_chains(ds) == {}
        # Same two failures 10 days apart: a repeat.
        ds2 = FOTDataset(chain_tickets(n=2, gap_days=10.0))
        assert len(repeating.repeat_chains(ds2)) == 1

    def test_different_slots_are_different_components(self):
        tickets = chain_tickets(slot=0, n=1) + chain_tickets(slot=1, n=1, start=DAY)
        assert repeating.repeat_chains(FOTDataset(tickets)) == {}

    def test_different_types_are_different_problems(self):
        tickets = chain_tickets(n=1, error_type="SMARTFail")
        tickets += chain_tickets(n=1, start=DAY, error_type="NotReady")
        assert repeating.repeat_chains(FOTDataset(tickets)) == {}

    def test_window_validation(self, small_dataset):
        with pytest.raises(ValueError):
            repeating.repeat_chains(small_dataset, window_days=0)


class TestRepeatingStats:
    def test_paper_shape(self, small_dataset):
        stats = repeating.repeating_stats(small_dataset)
        # paper: >85 % of fixed components never repeat.
        assert stats.repeat_free_fraction > 0.85
        # paper: ~4.5 % of ever-failed servers repeat.
        assert 0.01 <= stats.repeating_server_fraction <= 0.12

    def test_extreme_server_exists(self, small_dataset):
        # The 400-failure BBU server anecdote, scaled down.
        stats = repeating.repeating_stats(small_dataset)
        assert stats.max_failures_single_server >= 25

    def test_consistency(self, small_dataset):
        stats = repeating.repeating_stats(small_dataset)
        assert stats.n_repeating_components <= stats.n_fixed_components
        assert stats.n_repeating_servers <= stats.n_failed_servers

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            repeating.repeating_stats(FOTDataset([]))


class TestSynchronousGroups:
    def test_crafted_lockstep_pair_found(self):
        a = chain_tickets(host=1, n=5, gap_days=7.0)
        b = chain_tickets(host=2, n=5, gap_days=7.0)
        groups = repeating.synchronous_groups(
            FOTDataset(a + b), window_seconds=60.0, min_matches=3
        )
        assert any(set(g.host_ids) == {1, 2} for g in groups)

    def test_unsynchronized_servers_not_grouped(self):
        a = chain_tickets(host=1, n=5, gap_days=7.0)
        b = chain_tickets(host=2, n=5, gap_days=7.0, start=3.33 * DAY)
        groups = repeating.synchronous_groups(
            FOTDataset(a + b), window_seconds=60.0, min_matches=3
        )
        assert not any(set(g.host_ids) == {1, 2} for g in groups)

    def test_injected_groups_recovered(self, small_trace):
        # The injector plants lockstep cohorts (Table VIII); the
        # detector must find at least one of them.
        injected = {
            r.server_rows
            for r in small_trace.injections
            if r.kind == "synchronous_group"
        }
        assert injected
        host_ids = small_trace.fleet.host_ids
        injected_hosts = {
            frozenset(host_ids[list(rows)].tolist()) for rows in injected
        }
        groups = repeating.synchronous_groups(
            small_trace.dataset, window_seconds=60.0, min_matches=3
        )
        found = {frozenset(g.host_ids) for g in groups}
        assert injected_hosts & found

    def test_window_validation(self, small_dataset):
        with pytest.raises(ValueError):
            repeating.synchronous_groups(small_dataset, window_seconds=-1.0)
