"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import AllOf, Event, FIFOResource, Simulator
from repro.telemetry import METRICS


class TestSimulator:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        log = []

        def proc():
            yield sim.timeout(3)
            log.append(sim.now)
            yield sim.timeout(2)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [3.0, 5.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_run_until(self):
        sim = Simulator()
        log = []

        def proc():
            for _ in range(10):
                yield sim.timeout(1)
                log.append(sim.now)

        sim.process(proc())
        sim.run(until=4.5)
        assert log == [1.0, 2.0, 3.0, 4.0]
        assert sim.now == 4.5

    def test_deterministic_tie_order(self):
        sim = Simulator()
        log = []

        def proc(tag):
            yield sim.timeout(1)
            log.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_event_double_trigger_rejected(self):
        sim = Simulator()
        ev = Event(sim)
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_process_result_value(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1)
            return 42

        def outer(out):
            value = yield sim.process(inner())
            out.append(value)

        out = []
        sim.process(outer(out))
        sim.run()
        assert out == [42]

    def test_process_yielding_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 5

        sim.process(bad())
        with pytest.raises(TypeError):
            sim.run()


class TestDaemonEvents:
    def test_daemon_only_heap_does_not_run(self):
        sim = Simulator()
        log = []

        def beat():
            while True:
                log.append(sim.now)
                yield sim.timeout(1, daemon=True)

        sim.process(beat(), daemon=True)
        sim.run()
        # nothing non-daemon pending: the loop never spins, clock stays put
        assert log == [] and sim.now == 0.0

    def test_daemon_interleaves_then_stops_with_foreground(self):
        sim = Simulator()
        beats = []

        def beat():
            while True:
                beats.append(sim.now)
                yield sim.timeout(2, daemon=True)

        def work():
            yield sim.timeout(5)

        sim.process(beat(), daemon=True)
        sim.process(work())
        sim.run()
        # samples at 0/2/4 while work is pending; run ends when work does
        assert beats == [0.0, 2.0, 4.0]
        assert sim.now == 5.0

    def test_daemon_does_not_change_foreground_schedule(self):
        def drive(with_daemon):
            sim = Simulator()
            log = []

            def work(tag, delay):
                yield sim.timeout(delay)
                log.append((tag, sim.now))

            if with_daemon:

                def beat():
                    while True:
                        yield sim.timeout(0.5, daemon=True)

                sim.process(beat(), daemon=True)
            for tag, delay in (("a", 1), ("b", 3), ("c", 2)):
                sim.process(work(tag, delay))
            sim.run()
            return log, sim.now

        assert drive(with_daemon=False) == drive(with_daemon=True)

    def test_run_until_still_honoured_with_daemons(self):
        sim = Simulator()
        beats = []

        def beat():
            while True:
                beats.append(sim.now)
                yield sim.timeout(1, daemon=True)

        def work():
            yield sim.timeout(10)

        sim.process(beat(), daemon=True)
        sim.process(work())
        sim.run(until=2.5)
        assert beats == [0.0, 1.0, 2.0]
        assert sim.now == 2.5


class TestAllOf:
    def test_barrier_waits_for_slowest(self):
        sim = Simulator()
        done = []

        def worker(d):
            yield sim.timeout(d)

        def coordinator():
            yield AllOf(sim, [sim.process(worker(d)) for d in (1, 5, 3)])
            done.append(sim.now)

        sim.process(coordinator())
        sim.run()
        assert done == [5.0]

    def test_empty_barrier_fires_immediately(self):
        sim = Simulator()
        done = []

        def coordinator():
            yield AllOf(sim, [])
            done.append(sim.now)

        sim.process(coordinator())
        sim.run()
        assert done == [0.0]

    def test_already_triggered_children(self):
        sim = Simulator()
        ev = Event(sim)
        ev.succeed()
        done = []

        def proc():
            yield AllOf(sim, [ev])
            done.append(True)

        sim.process(proc())
        sim.run()
        assert done == [True]


class TestFIFOResource:
    def test_serializes_users(self):
        sim = Simulator()
        res = FIFOResource(sim, "r")
        log = []

        def user(tag, hold):
            yield from res.use(hold)
            log.append((tag, sim.now))

        for tag, hold in (("a", 3), ("b", 2), ("c", 1)):
            sim.process(user(tag, hold))
        sim.run()
        assert log == [("a", 3.0), ("b", 5.0), ("c", 6.0)]

    def test_release_without_acquire(self):
        sim = Simulator()
        res = FIFOResource(sim, "r")
        with pytest.raises(RuntimeError):
            res.release()

    def test_negative_duration_rejected(self):
        sim = Simulator()
        res = FIFOResource(sim, "r")

        def proc():
            yield from res.use(-1)

        sim.process(proc())
        with pytest.raises(ValueError):
            sim.run()

    def test_busy_time_accounting(self):
        sim = Simulator()
        res = FIFOResource(sim, "r")

        def user():
            yield from res.use(2.5)

        sim.process(user())
        sim.process(user())
        sim.run()
        assert res.busy_time == pytest.approx(5.0)
        assert res.served == 2

    def test_queue_depth_counts_waiting_and_in_service(self):
        sim = Simulator()
        res = FIFOResource(sim, "r")
        depths = []

        def user():
            yield from res.use(2)

        def watcher():
            # sample at t=1/3/5, between the t=2 and t=4 hand-offs
            yield sim.timeout(1)
            for _ in range(3):
                depths.append(res.queue_depth)
                yield sim.timeout(2)

        sim.process(user())
        sim.process(user())
        sim.process(watcher())
        sim.run()
        assert depths == [2, 1, 0]

    def test_parallel_resources_do_not_serialize(self):
        sim = Simulator()
        r1, r2 = FIFOResource(sim, "r1"), FIFOResource(sim, "r2")
        log = []

        def user(res, tag):
            yield from res.use(4)
            log.append((tag, sim.now))

        sim.process(user(r1, "a"))
        sim.process(user(r2, "b"))
        sim.run()
        assert log == [("a", 4.0), ("b", 4.0)]


class TestEventFailure:
    """Failure propagation: failed events throw into waiters (simpy-style)."""

    def test_fail_throws_into_waiting_process(self):
        sim = Simulator()
        ev = Event(sim)
        caught = []

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))
            yield sim.timeout(1)

        sim.process(proc())

        def failer():
            yield sim.timeout(2)
            ev.fail(RuntimeError("boom"))

        sim.process(failer())
        sim.run()
        assert caught == ["boom"]
        assert sim.now == 3.0  # the catching process kept running

    def test_unhandled_failure_propagates_to_process_waiter(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1)
            raise ValueError("inner exploded")

        def outer():
            with pytest.raises(ValueError, match="inner exploded"):
                yield sim.process(inner())
            yield sim.timeout(1)

        sim.process(outer())
        sim.run()
        assert sim.now == 2.0

    def test_failure_with_no_waiter_raises_out_of_run(self):
        sim = Simulator()

        def doomed():
            yield sim.timeout(1)
            raise ValueError("nobody is listening")

        sim.process(doomed())
        # keep the loop alive past t=1 so the failure happens inside run()
        def bystander():
            yield sim.timeout(5)

        sim.process(bystander())
        with pytest.raises(ValueError, match="nobody is listening"):
            sim.run()

    def test_fail_requires_exception_instance(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            Event(sim).fail("not an exception")

    def test_fail_after_trigger_rejected(self):
        sim = Simulator()
        ev = Event(sim)
        ev.callbacks.append(lambda e: None)
        ev.fail(RuntimeError("x"))
        with pytest.raises(RuntimeError, match="already triggered"):
            ev.fail(RuntimeError("y"))

    def test_allof_fails_on_first_child_failure(self):
        sim = Simulator()

        def ok(delay):
            yield sim.timeout(delay)

        def bad():
            yield sim.timeout(2)
            raise OSError("disk gone")

        caught = []

        def waiter():
            try:
                yield sim.all_of([sim.process(ok(1)), sim.process(bad()), sim.process(ok(5))])
            except OSError as exc:
                caught.append((sim.now, str(exc)))

        sim.process(waiter())
        sim.run()
        assert caught == [(2.0, "disk gone")]

    def test_allof_late_sibling_failure_is_ignored(self):
        sim = Simulator()

        def bad(delay, msg):
            yield sim.timeout(delay)
            raise OSError(msg)

        caught = []

        def waiter():
            try:
                yield sim.all_of([sim.process(bad(1, "first")), sim.process(bad(2, "second"))])
            except OSError as exc:
                caught.append(str(exc))
            yield sim.timeout(5)  # outlive the second failure

        sim.process(waiter())
        sim.run()  # the second failure must not re-raise out of run()
        assert caught == ["first"]


# ----------------------------------------------------------- exactness oracle
def reference_use_ev(res, duration, waits):
    """The closure-based ``FIFOResource.use_ev`` the grant-record path replaced.

    Kept as the executable reference for event order: an uncontended
    hold (with metrics off) schedules its completion directly; a queued
    one goes through an ``acquire()`` grant event, a ``_granted`` closure
    that schedules the hold timeout, and a ``_finished`` closure that
    releases and then fires ``done``.  The only addition is ``waits``, a
    log of each hold's queue wait (the metered fork's observation).
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    sim = res.sim
    if res._in_service < res.capacity and not METRICS.enabled:
        res._in_service += 1
        res.busy_time += duration
        res.served += 1
        waits.append((res.name, 0.0))
        done = sim.timeout(duration)
        done.callbacks.append(res._release_cb)
        return done
    done = Event(sim)
    queued_at = sim.now

    def _finished(_ev):
        res.release()
        done.succeed()

    def _granted(_ev):
        res.busy_time += duration
        res.served += 1
        waits.append((res.name, sim.now - queued_at))
        hold = sim.timeout(duration)
        hold.callbacks.append(_finished)

    res.acquire().wait(_granted)
    return done


#: capacity-1 holds ("disk", "nic", "cpu"), capacity-2 holds and slots
#: ("pool"), and a capacity-1 lock taken with acquire/release ("lock");
#: names carry no digits, so each is its own ``sim.*.<name>`` series
RESOURCES = (("disk", 1), ("nic", 1), ("cpu", 1), ("pool", 2), ("lock", 1))
#: a few exact binary fractions, so equal-length holds started at the
#: same instant end in exact ties (zero-length holds included)
DURATIONS = (0.0, 0.25, 0.5, 1.0)

step_strategy = st.one_of(
    st.tuples(st.just("hold"), st.integers(0, 3), st.sampled_from(DURATIONS)),
    st.tuples(st.just("acquire"), st.sampled_from((3, 4)), st.sampled_from(DURATIONS)),
    st.tuples(st.just("sleep"), st.just(0), st.sampled_from(DURATIONS)),
)
schedule_strategy = st.lists(
    st.tuples(st.sampled_from((0.0, 0.25, 1.0)), st.lists(step_strategy, max_size=6)),
    min_size=1,
    max_size=8,
)


def replay(schedule, use_ev):
    """Run ``schedule`` with ``use_ev`` as the hold primitive; what it saw."""
    sim = Simulator()
    resources = [FIFOResource(sim, name, capacity) for name, capacity in RESOURCES]
    fired = []
    waits = []
    depths = []

    def proc(pid, steps):
        for i, (kind, which, duration) in enumerate(steps):
            res = resources[which]
            if kind == "hold":
                yield use_ev(res, duration, waits)
            elif kind == "acquire":
                yield res.acquire()
                fired.append((sim.now, pid, i, "granted"))
                yield sim.timeout(duration)
                res.release()
            else:
                yield sim.timeout(duration)
            fired.append((sim.now, pid, i))

    def watcher():
        # samples land on the same quarter-second grid as the holds, so
        # they tie with completions and hand-offs
        for _ in range(16):
            depths.append((sim.now, tuple(r.queue_depth for r in resources)))
            yield sim.timeout(0.25)

    sim.process(watcher())
    for pid, (start, steps) in enumerate(schedule):
        sim.process(proc(pid, steps), at=start)
    sim.run()
    accounts = [(r.busy_time, r.served) for r in resources]
    return fired, accounts, depths, sorted(waits)


def kernel_use_ev(res, duration, _waits):
    return res.use_ev(duration)


class TestGrantRecordExactness:
    """The grant-record ``use_ev`` replays the closure-based one exactly."""

    @settings(max_examples=150, deadline=None)
    @given(schedule=schedule_strategy, metered=st.booleans())
    def test_matches_closure_reference(self, schedule, metered):
        METRICS.disable()
        METRICS.reset()
        fired, accounts, depths, waits = replay(schedule, reference_use_ev)
        if metered:
            METRICS.enable()
        try:
            got = replay(schedule, kernel_use_ev)
            series = {
                name: (
                    METRICS.histogram(f"sim.queue_wait.{name}").count,
                    METRICS.histogram(f"sim.queue_wait.{name}").total,
                    METRICS.counter(f"sim.busy_time.{name}").value,
                    METRICS.counter(f"sim.served.{name}").value,
                )
                for name, _ in RESOURCES[:4]
            }
        finally:
            METRICS.disable()
            METRICS.reset()
        assert got[:3] == (fired, accounts, depths)
        if metered:
            for j, (name, _) in enumerate(RESOURCES[:4]):
                ref_waits = [w for n, w in waits if n == name]
                busy, served = accounts[j]
                assert series[name] == (len(ref_waits), sum(ref_waits), busy, served)

    def test_metered_hold_keeps_unmetered_tie_order(self):
        # A free-server hold and a plain timeout of the same length end
        # in a tie; the hold was scheduled first, so it fires first —
        # with telemetry on too (the acquire-event form let a metered
        # hold fall behind the timeout).
        def order():
            sim = Simulator()
            res = FIFOResource(sim, "disk")
            log = []

            def holder():
                yield res.use_ev(1.0)
                log.append("hold")

            def sleeper():
                yield sim.timeout(1.0)
                log.append("sleep")

            sim.process(holder())
            sim.process(sleeper())
            sim.run()
            return log

        assert order() == ["hold", "sleep"]
        METRICS.enable()
        try:
            assert order() == ["hold", "sleep"]
            assert METRICS.histogram("sim.queue_wait.disk").total == 0.0
        finally:
            METRICS.disable()
            METRICS.reset()


class TestProcessAt:
    def test_starts_at_absolute_time(self):
        sim = Simulator()
        log = []

        def proc(tag):
            log.append((tag, sim.now))
            yield sim.timeout(0)

        sim.process(proc("late"), at=2.5)
        sim.process(proc("now"))
        sim.run()
        assert log == [("now", 0.0), ("late", 2.5)]

    def test_past_start_rejected(self):
        sim = Simulator()
        sim.run(until=3.0)

        def proc():
            yield sim.timeout(0)

        with pytest.raises(ValueError):
            sim.process(proc(), at=1.0)
