"""DMA transfers over the channel Resources: pricing, faults, teardown.

* Live degradation: a transfer starting after a ``degradation`` change
  pays the new bandwidth, one already on the wire does not.
* Stalls: a stalled channel rejects new transfers at start.
* Mid-acquisition teardown: a Transfer interrupted while waiting in
  ``AllOf`` releases granted *and* queued channel claims without
  corrupting FIFO order for the waiters behind it.
* The ``copy()`` convenience wrapper forwards telemetry and request
  context to the underlying Transfer.
"""

import pytest

from repro.hardware import Server
from repro.hardware.dma import Transfer, TransferStalled
from repro.hardware.dma import copy as dma_copy
from repro.sim import Environment, Interrupt

MiB = float(2**20)


# ---------------------------------------------------------------------------
# Live fault state: degradation pricing and stalls
# ---------------------------------------------------------------------------
def test_live_degradation_prices_new_transfers_only():
    """A transfer already on the wire when ``degradation`` changes keeps
    its healthy-bandwidth completion; one starting afterwards pays the
    degraded bandwidth."""
    env = Environment()
    server = Server(env, n_gpus=2)
    g0, g1 = server.gpus
    route = server.interconnect.route(g0, g1)
    link = route.channels[0]
    healthy_time = route.transfer_time(256 * MiB)
    transfers = {}

    def start(name, at, nbytes):
        yield env.timeout(at)
        t = Transfer(env, server.interconnect, g0, g1, nbytes)
        transfers[name] = t
        yield from t.run()

    def degrade_midflight():
        # Inside transfer "early"'s wire window, before "late" starts.
        yield env.timeout(healthy_time / 2)
        link.degrade(0.25)

    env.process(start("early", 0.0, 256 * MiB))
    env.process(degrade_midflight())
    env.process(start("late", healthy_time * 1.5, 256 * MiB))
    env.run()

    early, late = transfers["early"], transfers["late"]
    # Already on the wire: unaffected by the mid-flight degradation.
    assert early.finished_at == pytest.approx(healthy_time)
    # Started after the change: pays the degraded bandwidth.
    degraded_time = route.transfer_time(256 * MiB)
    assert link.degradation == 0.25
    assert late.duration == pytest.approx(degraded_time)
    assert late.duration > early.duration * 2


def test_restore_reprices_subsequent_transfers():
    env = Environment()
    server = Server(env, n_gpus=2)
    g0, g1 = server.gpus
    route = server.interconnect.route(g0, g1)
    link = route.channels[0]
    link.degrade(0.5)
    degraded = server.transfer_time(g0, g1, 128 * MiB)

    results = []

    def one(nbytes):
        t = Transfer(env, server.interconnect, g0, g1, nbytes)
        yield from t.run()
        results.append(t.duration)

    env.process(one(128 * MiB))
    env.run()
    link.restore()
    env.process(one(128 * MiB))
    env.run()
    assert results[0] == pytest.approx(degraded)
    assert results[1] == pytest.approx(server.transfer_time(g0, g1, 128 * MiB))
    assert results[1] < results[0]


def test_stalled_channel_rejects_new_transfers():
    env = Environment()
    server = Server(env, n_gpus=2)
    server.interconnect.route(server.gpus[0], server.gpus[1]).channels[0].stall()
    caught = []

    def proc():
        try:
            yield from server.transfer(server.gpus[0], server.gpus[1], 8 * MiB)
        except TransferStalled as exc:
            caught.append(exc)
    env.process(proc())
    env.run()
    assert len(caught) == 1


# ---------------------------------------------------------------------------
# Mid-acquisition teardown
# ---------------------------------------------------------------------------
def test_interrupted_transfer_releases_granted_and_queued_claims():
    """A Transfer interrupted while waiting in ``AllOf`` — some channel
    requests granted, others still queued — must surrender everything
    without corrupting FIFO order for the waiters behind it."""
    env = Environment()
    server = Server(env, n_gpus=4, topology="nvswitch")
    g0, g1, g2, _ = server.gpus
    ic = server.interconnect
    egress0, ingress1 = ic.route(g0, g1).sorted_channels

    # Occupy g1's ingress port so a g0->g1 transfer is granted its
    # egress hop but queues on the ingress hop.
    blocker_time = server.transfer_time(g2, g1, 512 * MiB)
    blocker = Transfer(env, ic, g2, g1, 512 * MiB)
    env.process(blocker.run())

    victim = Transfer(env, ic, g0, g1, 64 * MiB)
    interrupted = []

    def victim_driver():
        try:
            yield from victim.run()
        except Interrupt as intr:
            interrupted.append(intr.cause)
    victim_proc = env.process(victim_driver())

    # Waiters *behind* the victim on each of its two hops.
    done = []

    def chase(name, transfer, delay):
        yield env.timeout(delay)
        yield from transfer.run()
        done.append((name, transfer.acquired_at, transfer.finished_at))

    behind_same_route = Transfer(env, ic, g0, g1, 32 * MiB)     # both hops
    env.process(chase("same-route", behind_same_route, 1e-6))
    behind_egress = Transfer(env, ic, g0, g2, 32 * MiB)         # egress hop only
    env.process(chase("egress-only", behind_egress, 2e-6))

    def interrupter():
        yield env.timeout(blocker_time / 4)
        # The victim is mid-acquisition: its egress request is granted,
        # its ingress request queued behind the blocker, and both
        # chasers queued behind *it*.
        assert victim.acquired_at is None
        assert len(egress0.engine.users) == 1
        assert len(egress0.engine.queue) == 2
        assert len(ingress1.engine.queue) == 2
        victim_proc.interrupt("teardown")
    env.process(interrupter())
    env.run()

    assert interrupted == ["teardown"]
    assert victim.finished_at is None

    # Every channel drained: no leaked users or queue entries.
    for ch in ic.channels.values():
        assert ch.engine.users == [], ch.name
        assert ch.engine.queue == [], ch.name

    # FIFO for the waiters behind the victim survived: the same-route
    # chaser inherited the victim's egress grant immediately and the
    # ingress right when the blocker released it; the egress-only chaser
    # then got the egress the instant the same-route chaser finished.
    by_name = {name: (acq, fin) for name, acq, fin in done}
    assert by_name["same-route"][0] == pytest.approx(blocker_time)
    assert by_name["egress-only"][0] == pytest.approx(by_name["same-route"][1])
    assert all(t.finished_at is not None for t in (blocker, behind_same_route, behind_egress))


def test_interrupted_transfer_matches_never_started_run():
    """After the teardown, remaining waiters complete at the same times
    as in a run where the victim never existed."""
    def run(with_victim):
        env = Environment()
        server = Server(env, n_gpus=4, topology="nvswitch")
        g0, g1, g2, _ = server.gpus
        ic = server.interconnect
        blocker_time = server.transfer_time(g2, g1, 512 * MiB)
        env.process(Transfer(env, ic, g2, g1, 512 * MiB).run())
        if with_victim:
            def victim_driver():
                try:
                    yield from Transfer(env, ic, g0, g1, 64 * MiB).run()
                except Interrupt:
                    pass
            victim_proc = env.process(victim_driver())

            def interrupter():
                yield env.timeout(blocker_time / 4)
                victim_proc.interrupt("teardown")
            env.process(interrupter())
        done = []

        def chase(name, t, delay):
            yield env.timeout(delay)
            yield from t.run()
            done.append((name, t.acquired_at, t.finished_at))
        env.process(chase("a", Transfer(env, ic, g0, g1, 32 * MiB), blocker_time / 2))
        env.process(chase("b", Transfer(env, ic, g0, g2, 32 * MiB), blocker_time / 2))
        env.run()
        return sorted(done)

    assert run(with_victim=True) == run(with_victim=False)


# ---------------------------------------------------------------------------
# copy() wrapper parity
# ---------------------------------------------------------------------------
class _SpyTelemetry:
    def __init__(self):
        self.seen = []

    def record_transfer(self, transfer, channels):
        self.seen.append((transfer, tuple(channels)))


def test_copy_wrapper_forwards_telemetry_and_ctx():
    env = Environment()
    server = Server(env, n_gpus=2)
    spy = _SpyTelemetry()

    env.process(
        dma_copy(
            env, server.interconnect, server.gpus[0], server.gpus[1],
            4 * MiB, stats=server.transfer_stats, telemetry=spy, ctx=7,
        )
    )
    env.run()
    [(transfer, channels)] = spy.seen
    assert transfer.telemetry is spy
    assert transfer.ctx == 7
    assert channels  # the route's channels reached the hub too
