"""Property-based tests over core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.dataset import FOTDataset
from repro.core.timeutil import DAY, day_index, day_of_week, hour_of_day
from repro.stats.chisquare import chi_square_counts
from repro.stats.empirical import ecdf, gini
from tests.test_fms_oracles import EventQueue
from tests.test_ticket import make_ticket


times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1400 * DAY), min_size=1, max_size=80
)


class TestDatasetProperties:
    @given(times=times_strategy)
    @settings(max_examples=50, deadline=None)
    def test_sort_then_filter_is_filter_then_sort(self, times):
        ds = FOTDataset([
            make_ticket(fot_id=i, error_time=t, host_id=i % 7)
            for i, t in enumerate(times)
        ])
        a = ds.sorted_by_time().filter(lambda t: t.host_id == 0)
        b = ds.filter(lambda t: t.host_id == 0).sorted_by_time()
        assert [t.fot_id for t in a] == [t.fot_id for t in b]

    @given(times=times_strategy)
    @settings(max_examples=50, deadline=None)
    def test_grouping_partitions(self, times):
        ds = FOTDataset([
            make_ticket(fot_id=i, error_time=t, host_id=i % 5)
            for i, t in enumerate(times)
        ])
        groups = ds.by_host()
        assert sum(len(g) for g in groups.values()) == len(ds)
        recovered = sorted(
            t.fot_id for group in groups.values() for t in group
        )
        assert recovered == sorted(t.fot_id for t in ds)

    @given(times=times_strategy, split=st.floats(min_value=0.0, max_value=1400 * DAY))
    @settings(max_examples=50, deadline=None)
    def test_between_partitions_time_axis(self, times, split):
        ds = FOTDataset([
            make_ticket(fot_id=i, error_time=t) for i, t in enumerate(times)
        ])
        left = ds.between(0.0, split)
        right = ds.between(split, 2000 * DAY)
        assert len(left) + len(right) == len(ds)


class TestTimeProperties:
    @given(ts=st.floats(min_value=0, max_value=3000 * DAY))
    @settings(max_examples=100, deadline=None)
    def test_facets_in_range(self, ts):
        assert 0 <= hour_of_day(ts) <= 23
        assert 0 <= day_of_week(ts) <= 6
        assert day_index(ts) >= 0

    @given(ts=st.floats(min_value=0, max_value=3000 * DAY))
    @settings(max_examples=100, deadline=None)
    def test_shifting_a_week_preserves_dow(self, ts):
        assert day_of_week(ts) == day_of_week(ts + 7 * DAY)


class TestEventQueueProperties:
    @given(times=st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_drain_is_sorted_permutation(self, times):
        q = EventQueue()
        for i, t in enumerate(times):
            q.schedule(t, i)
        drained = list(q.drain())
        assert [t for t, _ in drained] == sorted(times)
        assert sorted(p for _, p in drained) == list(range(len(times)))


class TestStatsProperties:
    @given(counts=st.lists(st.integers(min_value=0, max_value=5000), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_chi_square_valid_output(self, counts):
        if sum(counts) == 0:
            return
        try:
            result = chi_square_counts(counts)
        except ValueError:
            return  # pooling can legitimately leave < 2 bins
        assert result.statistic >= 0
        assert 0.0 <= result.p_value <= 1.0
        assert result.df >= 1

    @given(values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_gini_bounded(self, values):
        g = gini(values)
        assert -1e-9 <= g < 1.0

    @given(data=st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_ecdf_quantile_round_trip(self, data):
        e = ecdf(data)
        for q in (0.0, 0.5, 1.0):
            x = e.quantile(q)
            assert float(e(x)) >= q - 1e-9
