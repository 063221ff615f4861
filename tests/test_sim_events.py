"""Event queue: ordering, cancellation, determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.events import EventQueue


def test_pop_returns_events_in_time_order():
    queue = EventQueue()
    fired = []
    queue.push(3.0, lambda: fired.append("c"))
    queue.push(1.0, lambda: fired.append("a"))
    queue.push(2.0, lambda: fired.append("b"))
    while (event := queue.pop()) is not None:
        event.action()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    queue = EventQueue()
    fired = []
    for name in "abcde":
        queue.push(1.0, lambda n=name: fired.append(n))
    while (event := queue.pop()) is not None:
        event.action()
    assert fired == list("abcde")


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    keep = queue.push(1.0, lambda: None)
    cancel = queue.push(0.5, lambda: None)
    cancel.cancel()
    assert queue.pop() is keep
    assert queue.pop() is None


def test_len_ignores_cancelled_events():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    event = queue.push(2.0, lambda: None)
    assert len(queue) == 2
    event.cancel()
    assert len(queue) == 1


def test_bool_reflects_pending_events():
    queue = EventQueue()
    assert not queue
    event = queue.push(1.0, lambda: None)
    assert queue
    event.cancel()
    assert not queue


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert queue.peek_time() == 1.0
    first.cancel()
    assert queue.peek_time() == 2.0


def test_peek_time_empty_returns_none():
    assert EventQueue().peek_time() is None


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        EventQueue().push(-1.0, lambda: None)


def test_clear_drops_everything():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.clear()
    assert queue.pop() is None
    assert len(queue) == 0
    assert not queue


def test_len_constant_under_cancellation_churn():
    """The live counter tracks push/cancel/pop exactly."""
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(100)]
    assert len(queue) == 100
    for event in events[::2]:
        event.cancel()
    assert len(queue) == 50
    # Double-cancel must not double-decrement.
    events[0].cancel()
    assert len(queue) == 50
    popped = 0
    while queue.pop() is not None:
        popped += 1
    assert popped == 50
    assert len(queue) == 0 and not queue


def test_cancel_after_pop_does_not_corrupt_count():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert queue.pop() is first
    first.cancel()  # e.g. a timer cancelled after it fired
    assert len(queue) == 1
    assert queue.pop() is not None
    assert len(queue) == 0


def test_compaction_removes_cancelled_events():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(256)]
    for event in events[:200]:
        event.cancel()
    # Cancelled events exceeded half the heap: the heap was compacted and
    # stays within a small constant factor of the live count.
    assert len(queue) == 56
    assert len(queue._heap) <= 2 * len(queue) + 1
    # Compaction preserves ordering and the remaining events.
    times = []
    while (event := queue.pop()) is not None:
        times.append(event.time)
    assert times == [float(i) for i in range(200, 256)]


def test_small_heaps_are_not_compacted():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(10)]
    for event in events[:9]:
        event.cancel()
    assert len(queue) == 1
    assert len(queue._heap) == 10  # below the compaction floor; popped lazily
    assert queue.pop() is events[9]


def test_cancel_after_clear_is_harmless():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.clear()
    event.cancel()
    assert len(queue) == 0
    queue.push(2.0, lambda: None)
    assert len(queue) == 1


# -- random operation sequences ------------------------------------------------

_OPS = st.one_of(
    st.tuples(st.just("push"), st.integers(0, 40)),
    st.tuples(st.just("burst"), st.integers(0, 40)),  # 70 pushes: past the compaction floor
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("sweep"), st.integers(1, 3)),  # cancel every n-th event
    st.tuples(st.just("pop"), st.integers(0, 40)),  # pop(until=...)
    st.tuples(st.just("pop"), st.none()),
    st.tuples(st.just("peek"), st.none()),
    st.tuples(st.just("clear"), st.none()),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=120))
def test_random_operations_pop_in_time_seq_order(ops):
    """Against a model: pops come out in ``(time, seq)`` order, an event
    due after ``until`` stays queued, and ``len`` counts live events --
    through cancellations that cross the compaction threshold."""
    queue = EventQueue()
    events = []  # every event pushed, in seq order
    live: dict[int, float] = {}  # seq -> time of the events not popped/cancelled/cleared
    for op, arg in ops:
        if op in ("push", "burst"):
            for k in range(1 if op == "push" else 70):
                time = float((arg + 7 * k) % 41)
                event = queue.push(time, lambda: None)
                assert event.seq == len(events)
                events.append(event)
                live[event.seq] = time
        elif op == "cancel" and events:
            event = events[arg % len(events)]
            event.cancel()
            live.pop(event.seq, None)
        elif op == "sweep":
            for event in events[::arg]:
                event.cancel()
                live.pop(event.seq, None)
        elif op == "pop":
            until = float("inf") if arg is None else float(arg)
            due = [(time, seq) for seq, time in live.items() if time <= until]
            event = queue.pop(until)
            if not due:
                assert event is None
            else:
                assert (event.time, event.seq) == min(due)
                del live[event.seq]
        elif op == "peek":
            expected = min(live.values()) if live else None
            assert queue.peek_time() == expected
        elif op == "clear":
            queue.clear()
            live.clear()
        assert len(queue) == len(live)
        assert bool(queue) == bool(live)
        assert len(queue._heap) >= len(live)
    drained = []
    while (event := queue.pop()) is not None:
        drained.append((event.time, event.seq))
    assert drained == sorted((time, seq) for seq, time in live.items())
