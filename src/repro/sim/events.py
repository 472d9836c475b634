"""Event primitives for the discrete-event simulation kernel.

Events are one-shot synchronisation objects.  A process waits on an event
by yielding it; when the event is *triggered* (succeeded or failed) the
environment resumes every waiting process with the event's value (or
raises its exception inside the process).

Performance notes
-----------------
This module is the hottest code in the repository: every simulated DMA
transfer, decode iteration and retry timer allocates events here, and
its per-event cost is what perfbench reports as ``sim.us_per_event``
on every workload (see ``perfbench/README.md``).  Three deliberate choices
keep it fast, locked down by ``tests/test_determinism_golden.py`` and
``tests/test_sim_ordering.py``:

* every event class declares ``__slots__`` (no per-instance dict);
* :class:`Timeout` — the single most-allocated type — initialises its
  slots directly and pushes itself onto the environment's heap inline
  instead of chaining ``Event.__init__`` + ``Environment._schedule``;
* :meth:`Process._resume` keeps the generator trampoline flat, with the
  pending-target wait as the first branch.

The inlined scheduling writes ``env._eid``/``env._queue`` directly; the
entry layout is owned by :mod:`repro.sim.core` (see ``_SEQ_STRIDE``
there) and must stay in sync.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double trigger)."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupt ``cause`` is available as :attr:`cause` and as
    ``exc.args[0]``.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


# Event lifecycle states.
PENDING = "pending"
TRIGGERED = "triggered"  # scheduled, callbacks not yet run
PROCESSED = "processed"  # callbacks have run

#: NORMAL-priority bias for inlined heap pushes; must equal
#: ``core.NORMAL * core._SEQ_STRIDE``.
_NORMAL_SEQ = 1 << 52

#: Sentinel stored in ``Process._target`` while the process sleeps on a
#: bare-delay yield (``yield 0.004``).  Such sleeps have no Timeout
#: object to detach a callback from, so they are not interruptible.
_BARE_SLEEP = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = None
        self._ok: bool | None = None
        self._state = PENDING
        # Whether a failure was delivered to at least one waiter.  Used to
        # emulate "unhandled failure" detection: a failed event nobody
        # waits on is re-raised by the environment's event loop.
        self._defused = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has succeeded or failed."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """``True`` once all callbacks have been executed."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only valid once triggered."""
        if self._state == PENDING:
            raise SimulationError("event has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception if it failed)."""
        if self._state == PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now, _NORMAL_SEQ + eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Every waiting process will see ``exception`` raised at its yield
        point.  If no process waits on the event, the exception propagates
        out of :meth:`Environment.run`.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event.

        Useful as a callback: ``other.callbacks.append(this.trigger)``.
        """
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x} state={self._state}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Flat initialisation: a Timeout is born triggered, so skip
        # Event.__init__ and push straight onto the schedule.  ``_defused``
        # is deliberately left unset: it is only ever read behind an
        # ``event._ok`` check, and a Timeout's ``_ok`` is always True.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self.delay = delay
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + delay, _NORMAL_SEQ + eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


def _timeout_factory(env: "Environment") -> Callable[..., Timeout]:
    """Build the ``env.timeout`` fast path.

    Must stay store-for-store identical to :meth:`Timeout.__init__`
    (which remains the path for direct ``Timeout(env, ...)``
    construction): a closure over the environment's queue skips the
    ``partial`` → ``type.__call__`` → ``__init__`` dispatch chain,
    which is one Python frame and two C calls per simulated delay.
    """
    queue = env._queue  # bound once; Environment never rebinds it
    tnew = Timeout.__new__
    cls = Timeout
    push = heappush
    nseq = _NORMAL_SEQ
    triggered = TRIGGERED

    def timeout(delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        t = tnew(cls)
        t.env = env
        t.callbacks = []
        t._value = value
        t._ok = True
        t._state = triggered
        t.delay = delay
        env._eid = eid = env._eid + 1
        push(queue, (env._now + delay, nseq + eid, t))
        return t

    return timeout


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._state = TRIGGERED
        self._defused = False
        env._schedule(self, priority=0)


class Process(Event):
    """A running process: wraps a generator that yields events.

    A process is itself an event that triggers when the generator returns
    (successfully, with the generator's return value) or raises (failing
    with the exception).
    """

    __slots__ = ("_generator", "_target", "_resume_cb", "_send")

    def __init__(self, env: "Environment", generator: Generator[Any, Any, Any]) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Bind once per process, not once per yield: registering a wait
        # is a list append and advancing the generator is a plain call,
        # with no method-object allocation on the hot path.
        self._resume_cb = self._resume
        self._send = generator.send
        self._target: Event | None = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not finished."""
        return self._state == PENDING

    @property
    def target(self) -> Event | None:
        """The event this process is currently waiting for.

        ``None`` while the process is running, finished, or sleeping on
        a bare-delay yield (which has no event object).
        """
        target = self._target
        return None if target is _BARE_SLEEP else target

    def interrupt(self, cause: Any = None) -> None:
        """Raise an :class:`Interrupt` inside the process.

        The interrupt is delivered asynchronously (as an immediately
        scheduled event) so the caller keeps running first.  Interrupting
        a finished process is an error; interrupting a process that is
        waiting on an event detaches it from that event.
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        if self._target is _BARE_SLEEP:
            raise SimulationError(
                "cannot interrupt a process sleeping on a bare-delay yield; "
                "use `yield env.timeout(delay)` in interruptible processes"
            )
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event._state = TRIGGERED
        event.callbacks = [self._resume_interrupt]
        self.env._schedule(event, priority=0)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        # Detach from whatever we were waiting on and deliver the interrupt.
        if not self.is_alive:  # finished in the meantime: drop silently
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env._active_process = self
        send = self._send
        while True:
            if event._ok:
                try:
                    target = send(event._value)
                except StopIteration as stop:
                    self._finish(ok=True, value=stop.value)
                    break
                except BaseException as exc:
                    self._finish(ok=False, value=exc)
                    break
            else:
                event._defused = True
                try:
                    target = self._generator.throw(event._value)
                except StopIteration as stop:
                    self._finish(ok=True, value=stop.value)
                    break
                except BaseException as exc:
                    # When the process did not handle the failure (exc is
                    # event._value) it simply propagated; either way the
                    # process fails with the exception, original traceback
                    # preserved.
                    self._finish(ok=False, value=exc)
                    break

            if target.__class__ is float:
                # Bare-delay sleep: ``yield 0.004`` schedules this
                # process's resume directly — no Timeout object, no
                # callbacks list, no per-hop allocations beyond the heap
                # entry.  Ordering is identical to ``yield
                # env.timeout(0.004)``: same timestamp, same NORMAL
                # priority, same insertion-counter tie-break.
                if target < 0:
                    exc = ValueError(f"negative delay {target}")
                    event = Event(env)
                    event._ok = False
                    event._value = exc
                    event._state = TRIGGERED
                    continue
                env._eid = eid = env._eid + 1
                heappush(
                    env._queue, (env._now + target, _NORMAL_SEQ + eid, self._resume_cb)
                )
                self._target = _BARE_SLEEP
                break
            try:
                callbacks = target.callbacks
                target_env = target.env
            except AttributeError:
                exc = SimulationError(f"process yielded a non-event: {target!r}")
                event = Event(env)
                event._ok = False
                event._value = exc
                event._state = TRIGGERED
                continue
            if target_env is not env:
                raise SimulationError(
                    "cannot wait on an event from another environment"
                )
            if callbacks is not None:
                # Target not yet processed: wait for it.
                callbacks.append(self._resume_cb)
                self._target = target
                break
            # Target already processed: continue immediately with its state.
            event = target

        env._active_process = None

    def _finish(self, ok: bool, value: Any) -> None:
        self._target = None
        self._ok = ok
        self._value = value
        self._state = TRIGGERED
        if not ok and isinstance(value, BaseException):
            # Will be re-raised by the environment if nobody waits on us.
            self._defused = bool(self.callbacks)
        self.env._schedule(self)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process({name}) state={self._state}>"


#: Shared immutable "succeeded with None" event handed to a process
#: resumed from a bare-delay sleep.  Never mutated; every reader only
#: inspects ``_ok`` / ``_value``.
_OK_NONE = Event.__new__(Event)
_OK_NONE.env = None  # type: ignore[assignment]
_OK_NONE.callbacks = None
_OK_NONE._value = None
_OK_NONE._ok = True
_OK_NONE._state = PROCESSED
_OK_NONE._defused = True


class Condition(Event):
    """Base for events composed of several sub-events."""

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not self.env:
                raise SimulationError("events from different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict[Event, Any]:
        # Only events whose callbacks have already run count as "happened";
        # Timeouts are born in the triggered state, so checking _state alone
        # would wrongly include timeouts that have not fired yet.
        return {
            event: event._value
            for event in self._events
            if event.callbacks is None and event._ok
        }

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Succeeds once *all* sub-events have succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda events, count: count >= len(events), events)


class AnyOf(Condition):
    """Succeeds once *any* sub-event has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda events, count: count >= 1, events)
