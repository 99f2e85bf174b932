"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    SimulationError,
    Store,
    Resource,
)


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


def test_any_of_fires_at_first_child():
    eng = Engine()

    def prog():
        value = yield eng.any_of([eng.timeout(5.0, "slow"),
                                  eng.timeout(1.0, "fast")])
        return (eng.now, value)

    p = eng.process(prog())
    eng.run()
    assert p.value == (1.0, "fast")


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


class TestResource:
    def test_grants_up_to_capacity(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        held = []

        def holder(tag, hold_time):
            yield res.request()
            held.append((tag, eng.now))
            yield eng.timeout(hold_time)
            res.release()

        eng.process(holder("a", 2.0))
        eng.process(holder("b", 2.0))
        eng.process(holder("c", 2.0))
        eng.run()
        times = dict((tag, t) for tag, t in held)
        assert times["a"] == 0.0 and times["b"] == 0.0
        assert times["c"] == pytest.approx(2.0)

    def test_fifo_grant_order(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def holder(tag):
            yield res.request()
            order.append(tag)
            yield eng.timeout(1.0)
            res.release()

        for tag in range(4):
            eng.process(holder(tag))
        eng.run()
        assert order == [0, 1, 2, 3]

    def test_release_without_request_rejected(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_capacity_validation(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            Resource(eng, capacity=0)

    def test_available_accounting(self):
        eng = Engine()
        res = Resource(eng, capacity=3)

        def prog():
            yield res.request()
            yield res.request()
            assert res.available == 1
            res.release()
            assert res.available == 2

        p = eng.process(prog())
        eng.run()
        assert p.ok, p.value


class TestStore:
    def test_put_then_get(self):
        eng = Engine()
        store = Store(eng)
        store.put("x")

        def prog():
            item = yield store.get()
            return item

        p = eng.process(prog())
        eng.run()
        assert p.value == "x"

    def test_get_blocks_until_put(self):
        eng = Engine()
        store = Store(eng)

        def getter():
            item = yield store.get()
            return (eng.now, item)

        def putter():
            yield eng.timeout(3.0)
            store.put("late")

        p = eng.process(getter())
        eng.process(putter())
        eng.run()
        assert p.value == (3.0, "late")

    def test_fifo_item_order(self):
        eng = Engine()
        store = Store(eng)
        for i in range(3):
            store.put(i)

        def prog():
            items = []
            for _ in range(3):
                items.append((yield store.get()))
            return items

        p = eng.process(prog())
        eng.run()
        assert p.value == [0, 1, 2]

    def test_predicate_matching(self):
        eng = Engine()
        store = Store(eng)
        store.put({"tag": 1, "data": "one"})
        store.put({"tag": 2, "data": "two"})

        def prog():
            item = yield store.get(lambda m: m["tag"] == 2)
            return item["data"]

        p = eng.process(prog())
        eng.run()
        assert p.value == "two"
        assert len(store) == 1

    def test_pending_predicate_get_matched_later(self):
        eng = Engine()
        store = Store(eng)

        def getter():
            item = yield store.get(lambda m: m == "wanted")
            return (eng.now, item)

        def putter():
            yield eng.timeout(1.0)
            store.put("other")
            yield eng.timeout(1.0)
            store.put("wanted")

        p = eng.process(getter())
        eng.process(putter())
        eng.run()
        assert p.value == (2.0, "wanted")
        assert store.peek_all() == ["other"]


class TestBatchEngine:
    """The cohort-batched core: (when, seq) FIFO dispatch order, arena slot
    recycling, cancellation and the cohort counters."""

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

    def test_step_parity_with_run(self):
        def schedule(eng, out):
            eng.call_later(1.0, out.append, "a")
            eng.call_later(1.0, out.append, "b")
            eng.call_later(2.0, out.append, "c")
        e1, e2 = Engine(), Engine()
        r1, r2 = [], []
        schedule(e1, r1)
        schedule(e2, r2)
        e1.run()
        while r2 != r1:
            e2.step()
        assert e2.now == e1.now
        assert e2.events_processed == e1.events_processed

    def test_cancel_scheduled_never_fires(self):
        fired = []
        eng = Engine()
        h = eng.call_later(1.0, fired.append, "cancelled")
        eng.call_later(2.0, fired.append, "kept")
        eng.cancel_scheduled(h)
        eng.run()
        assert fired == ["kept"]
        assert eng.arena.cancelled == 1
        assert eng.arena.live == 0      # cancelled slot was recycled

    def test_cancelled_tail_does_not_advance_clock(self):
        eng = Engine()
        eng.call_later(1.0, lambda: None)
        h = eng.call_later(5.0, lambda: None)
        eng.cancel_scheduled(h)
        eng.run()
        assert eng.now == 1.0   # the cancelled bucket at t=5 is not a jump

    def test_arena_free_list_recycles(self):
        eng = Engine()

        def chain(n):
            if n:
                eng.call_later(1.0, chain, n - 1)

        chain(1000)
        eng.run()
        assert eng.arena.allocated == 1000
        assert eng.arena.capacity <= 2          # one slot, recycled 999x
        assert eng.arena.recycled >= 998

    def test_cohort_counters(self):
        from repro.perf.instrument import engine_counters
        eng = Engine()
        for _ in range(4):
            eng.call_later(1.0, lambda: None)
        eng.call_later(2.0, lambda: None)
        eng.run()
        c = engine_counters(eng)["batch"]
        assert c["cohorts"] == 2
        assert c["max_cohort"] == 4
        assert c["cohort_events"] == 5
        assert c["bulk_jumps"] == 2
        assert c["jump_total_time"] == pytest.approx(2.0)
        assert c["cohort_hist"] == {"1": 1, "4-7": 1}
