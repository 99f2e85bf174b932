"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Engine, SimulationError


def test_timeout_advances_clock():
    eng = Engine()

    def prog():
        yield eng.timeout(1.5)
        yield eng.timeout(2.5)

    eng.process(prog())
    eng.run()
    assert eng.now == pytest.approx(4.0)


def test_process_return_value():
    eng = Engine()

    def prog():
        yield eng.timeout(1.0)
        return 42

    p = eng.process(prog())
    eng.run()
    assert p.triggered and p.ok
    assert p.value == 42


def test_zero_delay_timeout():
    eng = Engine()
    seen = []

    def prog():
        yield eng.timeout(0.0)
        seen.append(eng.now)

    eng.process(prog())
    eng.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.timeout(-1.0)


def test_events_fire_in_time_order():
    eng = Engine()
    order = []

    def prog(delay, tag):
        yield eng.timeout(delay)
        order.append(tag)

    eng.process(prog(3.0, "c"))
    eng.process(prog(1.0, "a"))
    eng.process(prog(2.0, "b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_same_time_fifo_order():
    eng = Engine()
    order = []

    def prog(tag):
        yield eng.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        eng.process(prog(tag))
    eng.run()
    assert order == list(range(5))


def test_process_waits_on_event():
    eng = Engine()
    ev = eng.event()
    got = []

    def waiter():
        value = yield ev
        got.append((eng.now, value))

    def trigger():
        yield eng.timeout(2.0)
        ev.succeed("hello")

    eng.process(waiter())
    eng.process(trigger())
    eng.run()
    assert got == [(2.0, "hello")]


def test_waiting_on_already_processed_event():
    eng = Engine()
    ev = eng.event()
    ev.succeed("early")
    got = []

    def late_waiter():
        yield eng.timeout(5.0)
        value = yield ev  # already processed by now
        got.append((eng.now, value))

    eng.process(late_waiter())
    eng.run()
    assert got == [(5.0, "early")]


def test_event_failure_raises_in_process():
    eng = Engine()
    ev = eng.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield eng.timeout(1.0)
        ev.fail(ValueError("boom"))

    eng.process(waiter())
    eng.process(trigger())
    eng.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_marks_process_failed():
    eng = Engine()

    def bad():
        yield eng.timeout(1.0)
        raise RuntimeError("died")

    p = eng.process(bad())
    eng.run()
    assert p.triggered and not p.ok
    assert isinstance(p.value, RuntimeError)


def test_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_process_waits_on_process():
    eng = Engine()

    def child():
        yield eng.timeout(3.0)
        return "child-result"

    def parent():
        result = yield eng.process(child())
        return (eng.now, result)

    p = eng.process(parent())
    eng.run()
    assert p.value == (3.0, "child-result")


def test_all_of_waits_for_every_child():
    eng = Engine()

    def prog():
        values = yield eng.all_of([eng.timeout(1.0, "a"), eng.timeout(4.0, "b"),
                                   eng.timeout(2.0, "c")])
        return (eng.now, values)

    p = eng.process(prog())
    eng.run()
    assert p.value == (4.0, ["a", "b", "c"])


def test_all_of_empty_triggers_immediately():
    eng = Engine()

    def prog():
        values = yield eng.all_of([])
        return (eng.now, values)

    p = eng.process(prog())
    eng.run()
    assert p.value == (0.0, [])


def test_run_until_stops_clock():
    eng = Engine()

    def prog():
        yield eng.timeout(10.0)

    eng.process(prog())
    eng.run(until=4.0)
    assert eng.now == pytest.approx(4.0)
    eng.run()
    assert eng.now == pytest.approx(10.0)


def test_yield_non_event_is_error():
    eng = Engine()

    def bad():
        yield 42  # type: ignore[misc]

    p = eng.process(bad())
    eng.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


class TestBatchEngine:
    """The cohort-batched core: dispatch by time then scheduling order,
    cancellation and the cohort counters."""

    @staticmethod
    def _trace_program(record):
        def run_on(eng):
            def mark(label):
                record.append((round(eng.now, 12), label))

            # interleave zero-delay defers, timers and same-time timers so
            # the cohort merge order is exercised
            eng.defer(mark, "defer-a")
            eng.call_later(0.5, mark, "timer-half")
            eng.call_later(1.0, mark, "timer-one-first")
            eng.call_later(1.0, mark, "timer-one-second")
            eng.defer(mark, "defer-b")

            def prog():
                yield eng.timeout(0.5)
                mark("proc-half")
                eng.defer(mark, "proc-defer")
                yield eng.timeout(0.5)
                mark("proc-one")

            eng.process(prog())
            eng.run()
        return run_on

    def test_dispatch_order_matches_scalar(self):
        """The total (when, seq) order a single global event heap gives:
        by time, then FIFO by scheduling order."""
        rec = []
        self._trace_program(rec)(Engine())
        assert rec == [(0.0, "defer-a"), (0.0, "defer-b"),
                       (0.5, "timer-half"), (0.5, "proc-half"),
                       (0.5, "proc-defer"), (1.0, "timer-one-first"),
                       (1.0, "timer-one-second"), (1.0, "proc-one")]

    def test_run_until_and_resume(self):
        fired = []
        eng = Engine()
        eng.call_later(1.0, fired.append, "one")
        eng.call_later(2.0, fired.append, "two")
        eng.run(until=1.5)
        assert fired == ["one"] and eng.now == 1.5
        eng.run()
        assert fired == ["one", "two"] and eng.now == 2.0

    def test_cancel_scheduled_never_fires(self):
        fired = []
        eng = Engine()
        h = eng.call_later(1.0, fired.append, "cancelled")
        eng.call_later(2.0, fired.append, "kept")
        eng.cancel_scheduled(h)
        with pytest.raises(ValueError):
            eng.cancel_scheduled(h)
        eng.run()
        assert fired == ["kept"]

    def test_cancelled_tail_does_not_advance_clock(self):
        eng = Engine()
        eng.call_later(1.0, lambda: None)
        h = eng.call_later(5.0, lambda: None)
        eng.cancel_scheduled(h)
        eng.run()
        assert eng.now == 1.0   # the cancelled bucket at t=5 is not a jump

    def test_stale_handle_cancels_nothing(self):
        """The handle of a callback that already ran cannot cancel a
        later, unrelated callback."""
        fired = []
        eng = Engine()
        h = eng.call_later(1.0, fired.append, "a")
        eng.run()
        eng.call_later(1.0, fired.append, "b")
        eng.cancel_scheduled(h)
        eng.run()
        assert fired == ["a", "b"] and eng.now == 2.0

    def test_cohort_counters(self):
        eng = Engine()
        for _ in range(4):
            eng.call_later(1.0, lambda: None)
        eng.call_later(2.0, lambda: None)
        eng.run()
        c = eng.counters()
        assert c["events_processed"] == 5
        assert c["batch"]["cohorts"] == 2
        assert "plans" not in c["batch"]     # no Team attached an arbiter


class TestCompletionOrder:
    """Task completions run after a timestamp's plain entries, in dispatch
    key order, whatever order they were inserted in."""

    def test_completion_runs_after_later_plain_entries(self):
        eng = Engine()
        order = []
        eng.schedule_completion(1.0, eng.completion_key(), order.append,
                                "completion")

        def prog():
            yield eng.timeout(1.0)
            order.append("process")

        eng.process(prog())
        eng.call_later(1.0, order.append, "timer")
        eng.run()
        assert order == ["timer", "process", "completion"]

    def test_out_of_order_insertions_run_in_key_order(self):
        eng = Engine()
        keys = [eng.completion_key() for _ in range(6)]
        order = []
        for i in (3, 0, 5, 1, 4, 2):
            eng.schedule_completion(2.0, keys[i], order.append, i)
        eng.run()
        assert order == list(range(6))

    def test_plain_entries_wait_for_the_completion_segment(self):
        """Plain entries a completion schedules run after every completion
        of the timestamp; a completion it schedules for now joins the
        running segment."""
        eng = Engine()
        order = []

        def first():
            order.append("c1")
            eng.defer(order.append, "plain from c1")
            eng.schedule_completion(eng.now, eng.completion_key(),
                                    order.append, "c3 from c1")

        eng.schedule_completion(1.0, eng.completion_key(), first)
        eng.schedule_completion(1.0, eng.completion_key(), order.append,
                                "c2")
        eng.run()
        assert order == ["c1", "c2", "c3 from c1", "plain from c1"]

    def test_key_taken_in_a_completion_sorts_after_it(self):
        eng = Engine()
        seen = {}

        def first():
            seen["key"] = eng.completion_key()

        k1 = eng.completion_key()
        eng.schedule_completion(1.0, k1, first)
        eng.run()
        key = seen["key"]
        assert key[:3] == (1.0, 1, k1) and key > k1

    def test_key_before_a_completion_already_run_is_rejected(self):
        eng = Engine()
        early, late = eng.completion_key(), eng.completion_key()
        raised = []

        def run_late():
            try:
                eng.schedule_completion(1.0, early, lambda: None)
            except SimulationError:
                raised.append(True)

        eng.schedule_completion(1.0, late, run_late)
        eng.run()
        assert raised == [True]
