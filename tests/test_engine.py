"""Discrete-event queue semantics (of the reference queue the FMS oracles keep)."""

import pytest

from tests.test_fms_oracles import EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        for t in [5.0, 1.0, 3.0, 2.0, 4.0]:
            q.schedule(t, f"e{t}")
        times = [q.pop()[0] for _ in range(5)]
        assert times == sorted(times)

    def test_fifo_for_ties(self):
        q = EventQueue()
        q.schedule(1.0, "first")
        q.schedule(1.0, "second")
        q.schedule(1.0, "third")
        assert [q.pop()[1] for _ in range(3)] == ["first", "second", "third"]

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.schedule(1.0, "x")
        assert q and len(q) == 1

    def test_peek(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.schedule(7.0, "x")
        assert q.peek_time() == 7.0
        assert len(q) == 1  # peek does not pop


class TestCausality:
    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.schedule(10.0, "a")
        q.pop()
        with pytest.raises(ValueError, match="clock"):
            q.schedule(5.0, "late")

    def test_can_schedule_at_now(self):
        q = EventQueue()
        q.schedule(10.0, "a")
        q.pop()
        q.schedule(10.0, "cascade")
        assert q.pop() == (10.0, "cascade")

    def test_now_tracks_pops(self):
        q = EventQueue()
        assert q.now == float("-inf")
        q.schedule(3.0, "x")
        q.pop()
        assert q.now == 3.0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestDrain:
    def test_drain_delivers_everything(self):
        q = EventQueue()
        q.schedule_all((float(t), t) for t in range(10))
        assert [p for _, p in q.drain()] == list(range(10))
        assert not q

    def test_events_scheduled_during_drain_are_delivered_in_order(self):
        # The repeat-chain property: processing an event at t may
        # schedule another at t + delta and it must interleave correctly.
        q = EventQueue()
        q.schedule(1.0, "seed")
        q.schedule(10.0, "late")
        seen = []
        for t, payload in q.drain():
            seen.append((t, payload))
            if payload == "seed":
                q.schedule(5.0, "spawned")
        assert seen == [(1.0, "seed"), (5.0, "spawned"), (10.0, "late")]

    def test_chain_of_spawns(self):
        q = EventQueue()
        q.schedule(0.0, 0)
        order = []
        for t, n in q.drain():
            order.append(n)
            if n < 5:
                q.schedule(t + 1.0, n + 1)
        assert order == [0, 1, 2, 3, 4, 5]
