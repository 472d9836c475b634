"""Property-based lockdown of kernel event ordering.

The fast-path rewrite packed the heap entry's priority and FIFO counter
into one integer and added bare-delay yields; these properties pin the
ordering contract those tricks must preserve:

* events scheduled for the same timestamp fire in creation (FIFO) order;
* URGENT events beat NORMAL events at the same timestamp, FIFO within
  each class;
* a program replayed on two fresh :class:`Environment`\\ s produces a
  bit-identical event log (same wake times via ``repr``, same event
  count);
* ``yield <float>`` (the bare-delay fast path) is observationally
  identical to ``yield env.timeout(<float>)``.

The golden audit digest (``tests/test_determinism_golden.py``) checks
the same laws end to end; these properties localise a violation to the
kernel when that digest breaks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt
from repro.sim.core import NORMAL, URGENT

#: Few distinct delays on purpose: maximal timestamp collisions is the
#: hard case for tie-breaking.
DELAYS = st.sampled_from([0.0, 0.001, 0.002, 0.25])


@given(st.lists(DELAYS, min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_same_timestamp_fifo(delays):
    """Timeouts created in index order wake in index order on ties."""
    env = Environment()
    log = []

    def proc(i, d):
        yield env.timeout(d)
        log.append((d, i))

    for i, d in enumerate(delays):
        env.process(proc(i, d))
    env.run()
    # All processes start at t=0 in creation order, so equal delays must
    # wake in creation order: the log is sorted by (delay, index).
    assert log == sorted(log)


@given(st.lists(st.booleans(), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_urgent_before_normal_fifo_within_class(flags):
    """At one timestamp: every URGENT event fires before any NORMAL one,
    and creation order is preserved inside each priority class."""
    env = Environment()
    log = []
    for i, urgent in enumerate(flags):
        event = env.event()
        event.callbacks.append(lambda _e, i=i, u=urgent: log.append((u, i)))
        # Trigger by hand so we control the priority class (succeed()
        # always schedules NORMAL; Initialize/Interruption go URGENT).
        event._ok = True
        event._value = None
        env._schedule(event, URGENT if urgent else NORMAL)
    env.run()
    expected = sorted(
        ((u, i) for i, u in enumerate(flags)),
        key=lambda pair: (0 if pair[0] else 1, pair[1]),
    )
    assert log == expected


# A program is a list of per-process specs: (delays, interrupts_child).
PROGRAMS = st.lists(
    st.tuples(st.lists(DELAYS, max_size=5), st.booleans()),
    min_size=1,
    max_size=8,
)


def _run_program(program, bare_delays=False):
    """Run an interleaved process/timeout/interrupt program; return a
    replayable transcript (repr() so float identity is bit-exact)."""
    env = Environment()
    log = []

    def child(i):
        try:
            yield env.timeout(100.0)
            log.append(("child-done", i, repr(env.now)))
        except Interrupt as exc:
            log.append(("interrupted", i, repr(env.now), repr(exc.cause)))

    def parent(i, delays, interrupts):
        victim = env.process(child(i)) if interrupts else None
        for d in delays:
            if bare_delays:
                yield d
            else:
                yield env.timeout(d)
            log.append(("tick", i, repr(env.now)))
        if victim is not None and victim.is_alive:
            victim.interrupt(cause=i)

    for i, (delays, interrupts) in enumerate(program):
        env.process(parent(i, delays, interrupts))
    env.run()
    return log, repr(env.now), env.events_processed


@given(PROGRAMS)
@settings(max_examples=50, deadline=None)
def test_replay_identical_across_environments(program):
    """The same program on two fresh kernels yields identical transcripts."""
    assert _run_program(program) == _run_program(program)


@given(PROGRAMS)
@settings(max_examples=50, deadline=None)
def test_bare_delay_yield_matches_timeout(program):
    """``yield d`` schedules exactly like ``yield env.timeout(d)``:
    same wake order, same timestamps, same event count."""
    assert _run_program(program, bare_delays=False) == _run_program(
        program, bare_delays=True
    )
