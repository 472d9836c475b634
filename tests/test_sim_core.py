"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from repro.sim.core import EmptySchedule

def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=10.0)
    assert env.now == 10.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)

    env.process(proc(env))
    env.run()
    assert env.now == 3.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_value_passed_through():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 42

    p = env.process(proc(env))
    env.run()
    assert p.value == 42
    assert p.ok


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10)

    env.process(proc(env))
    env.run(until=25)
    assert env.now == 25


def test_run_until_event():
    env = Environment()

    def proc(env):
        yield env.timeout(7)
        return "done"

    p = env.process(proc(env))
    result = env.run(until=p)
    assert result == "done"
    assert env.now == 7


def test_run_until_past_time_raises():
    env = Environment(initial_time=100)
    with pytest.raises(ValueError):
        env.run(until=50)


def test_events_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, name):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, 3, "c"))
    env.process(proc(env, 1, "a"))
    env.process(proc(env, 2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1)
        order.append(name)

    for name in "abcd":
        env.process(proc(env, name))
    env.run()
    assert order == list("abcd")


def test_nested_process_waiting():
    env = Environment()

    def child(env):
        yield env.timeout(5)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return result

    p = env.process(parent(env))
    env.run()
    assert p.value == "child-result"


def test_event_succeed_resumes_waiter():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter(env):
        value = yield gate
        seen.append((env.now, value))

    def opener(env):
        yield env.timeout(4)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert seen == [(4, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_value_before_trigger_rejected():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_failed_event_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer(env):
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("bad")

    env.process(bad(env))
    with pytest.raises(ValueError, match="bad"):
        env.run()


def test_handled_child_failure_does_not_propagate():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1)
        raise ValueError("bad")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["bad"]


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    with pytest.raises(SimulationError):
        env.process(bad(env))
        env.run()


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env):
        t1 = env.timeout(2, value="a")
        t2 = env.timeout(5, value="b")
        results = yield AllOf(env, [t1, t2])
        return sorted(results.values())

    p = env.process(proc(env))
    env.run()
    assert env.now == 5
    assert p.value == ["a", "b"]


def test_any_of_waits_for_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(2, value="fast")
        t2 = env.timeout(5, value="slow")
        results = yield AnyOf(env, [t1, t2])
        return list(results.values())

    p = env.process(proc(env))
    env.run(until=p)
    assert env.now == 2
    assert p.value == ["fast"]


def test_and_or_operators():
    env = Environment()

    def proc(env):
        yield env.timeout(1) & env.timeout(2)
        mid = env.now
        yield env.timeout(10) | env.timeout(3)
        return (mid, env.now)

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == (2, 5)


def test_empty_all_of_succeeds_immediately():
    env = Environment()

    def proc(env):
        result = yield AllOf(env, [])
        return result

    p = env.process(proc(env))
    env.run()
    assert p.value == {}


def test_interrupt_delivers_cause():
    env = Environment()
    seen = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            seen.append((env.now, intr.cause))

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt(cause="wake-up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert seen == [(3, "wake-up")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_process_cannot_interrupt_itself():
    env = Environment()

    def selfish(env):
        with pytest.raises(SimulationError):
            env.active_process.interrupt()
        yield env.timeout(1)

    env.process(selfish(env))
    env.run()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(5)
        log.append(("finished", env.now))

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", 2), ("finished", 7)]


def test_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(9)
    assert env.peek() == 9


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    gate = env.event()
    with pytest.raises(SimulationError):
        env.run(until=gate)


def test_many_processes_complete():
    env = Environment()
    done = []

    def proc(env, i):
        yield env.timeout(i % 7 + 1)
        done.append(i)

    for i in range(500):
        env.process(proc(env, i))
    env.run()
    assert sorted(done) == list(range(500))


def test_zero_delay_timeout_runs_at_same_time():
    env = Environment()

    def proc(env):
        yield env.timeout(0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


# ---------------------------------------------------------------------------
# events_processed accounting.
#
# The counter is maintained explicitly by the event loop (it used to be
# derived as ``_eid - len(self._queue)``, which miscounts whenever
# scheduled entries outlive their usefulness — e.g. the stale wakeup of
# an interrupted sleep — and assumes the schedule is the builtin list).
# These tests pin the explicit semantics: one increment per retired
# entry, exact across run()/step() mixes, failures, and both backends.
# ---------------------------------------------------------------------------
def _three_sleepers(env):
    def proc(env, d):
        yield env.timeout(d)

    for d in (1.0, 1.0, 2.0):
        env.process(proc(env, d))


def test_events_processed_matches_manual_step_loop():
    auto = Environment()
    _three_sleepers(auto)
    auto.run()

    manual = Environment()
    _three_sleepers(manual)
    steps = 0
    while True:
        try:
            manual.step()
        except EmptySchedule:
            break
        steps += 1
    assert auto.events_processed == manual.events_processed == steps
    assert auto.events_processed > 0


def test_events_processed_ignores_pending_events():
    """Scheduled-but-not-yet-retired entries must not count."""
    env = Environment()
    _three_sleepers(env)
    env.run(until=1.5)
    mid = env.events_processed
    assert mid > 0
    assert len(env._queue) > 0  # the d=2.0 wakeup is still scheduled
    env.run()
    # The remaining process retires its wakeup plus its terminal event.
    assert env.events_processed == mid + 2


def test_events_processed_counts_stale_wakeup_of_interrupted_sleep():
    """An interrupt strands the victim's original wakeup in the queue;
    the entry is still retired (and counted) when its time comes."""
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            pass

    def interrupter(env, victim):
        yield env.timeout(1)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run(until=2.0)
    mid = env.events_processed
    # Only the stale t=100 wakeup remains.
    assert len(env._queue) == 1
    env.run()
    assert env.now == 100.0
    assert env.events_processed == mid + 1


def test_events_processed_counts_defused_failure():
    """A failure somebody waited for (defused) still retires its event."""
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError:
            pass

    env.process(parent(env))
    env.run()
    witness = Environment()

    def good(env):
        yield env.timeout(1)

    def watcher(env):
        yield env.process(good(env))

    witness.process(watcher(witness))
    witness.run()
    # Failure vs success of the child changes nothing about the count.
    assert env.events_processed == witness.events_processed


def test_events_processed_exact_when_callback_raises():
    """The loop flushes its local counter on the way out of a raising
    run(), so the failing event itself is already counted."""
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("bad")

    env.process(bad(env))
    with pytest.raises(ValueError, match="bad"):
        env.run()
    counted = env.events_processed
    assert counted > 0
    # Nothing left to do; the count is stable.
    env.run()
    assert env.events_processed == counted


def test_events_processed_step_and_run_agree():
    """Mixing step() with run() keeps one shared, exact counter."""
    env = Environment()
    _three_sleepers(env)
    env.step()
    env.step()
    after_steps = env.events_processed
    assert after_steps == 2
    env.run()
    total = env.events_processed

    ref = Environment()
    _three_sleepers(ref)
    ref.run()
    assert total == ref.events_processed


# ---------------------------------------------------------------------------
# run(until=<number>) boundary semantics.
#
# The contract: the clock lands exactly on ``until`` whether the queue
# drains early or the next event lies beyond it, and events scheduled
# exactly at ``until`` are processed identically to a manual
# peek()/step() loop.
# ---------------------------------------------------------------------------
def test_run_until_lands_on_until_when_queue_drains_early():
    env = Environment()

    def proc(env):
        yield env.timeout(3)

    env.process(proc(env))
    env.run(until=10)
    assert env.now == 10.0
    assert len(env._queue) == 0


def test_run_until_lands_on_until_when_next_event_is_beyond():
    env = Environment()
    log = []

    def proc(env, d):
        yield env.timeout(d)
        log.append(env.now)

    env.process(proc(env, 3))
    env.process(proc(env, 20))
    env.run(until=10)
    assert env.now == 10.0
    assert log == [3.0]
    env.run()
    assert log == [3.0, 20.0]
    assert env.now == 20.0


def test_run_until_processes_events_exactly_at_until():
    """Events at t == until fire inside run(until), including zero-delay
    chains they spawn at that same timestamp."""
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(5.0)
        log.append(("wake", env.now))
        yield env.timeout(0.0)
        log.append(("chained", env.now))

    env.process(proc(env))
    env.run(until=5.0)
    assert log == [("wake", 5.0), ("chained", 5.0)]
    assert env.now == 5.0


def test_run_until_matches_manual_step_loop():
    """Differential: run(until=T) retires exactly the events a manual
    ``while peek() <= T: step()`` loop retires, in the same order."""
    STOP = 5.0

    def build():
        env = Environment()
        log = []

        def proc(env, i, d):
            yield env.timeout(d)
            log.append((i, env.now))

        for i, d in enumerate([1.0, 5.0, 5.0, 9.0]):
            env.process(proc(env, i, d))
        return env, log

    auto, auto_log = build()
    auto.run(until=STOP)

    manual, manual_log = build()
    while manual.peek() <= STOP:
        manual.step()

    assert auto_log == manual_log == [(0, 1.0), (1, 5.0), (2, 5.0)]
    assert auto.events_processed == manual.events_processed
    # The only divergence is by design: run() advances the clock to the
    # stop time, the manual loop leaves it at the last retired event.
    assert auto.now == STOP
    assert manual.now == 5.0
