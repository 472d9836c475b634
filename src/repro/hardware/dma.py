"""DMA transfers over interconnect routes.

A :class:`Transfer` is a simulation process that holds every channel on
its route for the duration of the copy.  Channels are acquired in a
global deterministic order (by channel name) so that two transfers with
overlapping routes can never deadlock.

Copies consume (a little) compute on both endpoint GPUs: while a
transfer is in flight the endpoint GPUs report copy activity, which
dilates concurrent compute kernels by ``GPUSpec.copy_interference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Hashable, Optional, Sequence

from repro.hardware.gpu import GPU
from repro.hardware.interconnect import Channel, Interconnect, Route
from repro.sim import AllOf, Environment

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

#: Observer signature for completed transfers: ``(route_name, channels,
#: nbytes, duration)``.  Every hop carries the full payload, so a
#: listener that sums ``nbytes`` once per channel reconstructs the
#: per-channel ledger exactly (see :mod:`repro.audit`).
TransferListener = Callable[[str, Sequence[Channel], float, float], None]


class TransferError(RuntimeError):
    """A DMA copy could not run because of a hardware fault.

    Base class of the fault-injection error family; callers that want
    blanket handling (retry, re-placement) catch this, while the
    subclasses distinguish transient from fatal conditions.
    """


class TransferStalled(TransferError):
    """A channel on the route has a stalled copy engine.

    Transient: raised at transfer start while a
    :class:`~repro.faults.DmaStall` fault is active.  The right
    response is to retry with backoff — AQUA-LIB does exactly that.
    """


class GpuFailedError(TransferError):
    """An endpoint GPU of the transfer has failed.

    Fatal for the data on that GPU: copies *from* it mean the payload
    is lost (the owner must recompute), copies *to* it are pointless
    until :meth:`~repro.hardware.gpu.GPU.recover`.
    """


@dataclass
class TransferStats:
    """Aggregate statistics of completed transfers (for reports).

    ``bytes_total`` counts each payload once, whatever the hop count of
    its route; the per-channel ``bytes_moved`` ledgers count the payload
    once *per hop*.  Listeners registered in :attr:`listeners` observe
    every completed transfer together with the channels it traversed,
    which is how the conservation audit (:mod:`repro.audit`) keeps an
    independent shadow ledger to reconcile both views against.
    """

    count: int = 0
    bytes_total: float = 0.0
    busy_time: float = 0.0
    per_route: dict[str, float] = field(default_factory=dict)
    listeners: list[TransferListener] = field(default_factory=list)

    def record(
        self,
        route_name: str,
        nbytes: float,
        duration: float,
        channels: Sequence[Channel] = (),
    ) -> None:
        self.count += 1
        self.bytes_total += nbytes
        self.busy_time += duration
        self.per_route[route_name] = self.per_route.get(route_name, 0.0) + nbytes
        for listener in self.listeners:
            listener(route_name, channels, nbytes, duration)


class Transfer:
    """A single DMA copy of ``nbytes`` from ``src`` to ``dst``.

    Parameters
    ----------
    env, interconnect:
        Simulation context and server wiring.
    src, dst:
        Device identifiers known to the interconnect (GPU / HostDRAM).
    nbytes:
        Payload size.  A transfer of zero bytes completes immediately.
    pieces:
        Number of separate buffers the payload is scattered across.
        Each piece pays the route's setup latency — this is how naive
        per-tensor offloading of small KV buffers loses NVLink bandwidth
        (the motivation for AQUA's gather/scatter batching, §5).
    stats:
        Optional aggregate collector.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hub; completed
        copies report per-channel bytes/contention and, when ``ctx`` is
        set, per-hop ``dma`` spans and flow steps on ``link:*`` tracks.
    ctx:
        Trace ID of the request this copy serves (``None`` when the
        copy is not request-scoped — producer swaps, cache loads).
    """

    def __init__(
        self,
        env: Environment,
        interconnect: Interconnect,
        src: Hashable,
        dst: Hashable,
        nbytes: float,
        pieces: int = 1,
        stats: Optional[TransferStats] = None,
        telemetry=None,
        ctx: Optional[int] = None,
    ) -> None:
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if pieces < 1:
            raise ValueError(f"pieces must be >= 1, got {pieces}")
        self.env = env
        self.interconnect = interconnect
        self.src = src
        self.dst = dst
        self.nbytes = float(nbytes)
        self.pieces = pieces
        self.stats = stats
        self.telemetry = telemetry
        self.ctx = ctx
        self.started_at: Optional[float] = None
        #: When every channel grant was held — ``acquired_at - started_at``
        #: is the link-contention wait this copy paid.
        self.acquired_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def _endpoints(self) -> list[GPU]:
        return [dev for dev in (self.src, self.dst) if isinstance(dev, GPU)]

    def wire_time(self, route: Route) -> float:
        """Uncontended on-the-wire time, accounting for scatter pieces."""
        if self.nbytes == 0:
            return 0.0
        piece = self.nbytes / self.pieces
        return self.pieces * route.transfer_time(piece)

    def _check_health(self, route: Route) -> None:
        """Raise if a fault blocks this copy.

        Health is checked once, at transfer start: copies already on
        the wire when a fault lands run to completion (a degraded
        link only slows *new* transfers; a stall or GPU failure only
        rejects *new* transfers).  This matches how DMA engines drain
        in flight descriptors and keeps the simulation deterministic.
        """
        for gpu in self._endpoints():
            if gpu.failed:
                raise GpuFailedError(f"endpoint {gpu.name} has failed")
        stalled = [ch.name for ch in route.channels if ch.stalled]
        if stalled:
            raise TransferStalled(f"stalled channel(s): {', '.join(stalled)}")

    def run(self) -> Generator:
        """Execute the copy; use as ``yield from transfer.run()``.

        Raises
        ------
        GpuFailedError
            If either endpoint GPU is marked failed at start.
        TransferStalled
            If any channel on the route is stalled at start.
        """
        self.started_at = self.env.now
        if self.nbytes == 0:
            self.acquired_at = self.finished_at = self.env.now
            return self

        route = self.interconnect.route(self.src, self.dst)
        self._check_health(route)
        ordered = route.sorted_channels
        # Deadlock-free acquisition: all requests issued together, granted
        # in each channel's FIFO order, and we proceed once all are held.
        requests = [ch.engine.request() for ch in ordered]
        endpoints = self._endpoints()
        try:
            yield AllOf(self.env, requests)
            self.acquired_at = self.env.now
            duration = self.wire_time(route)
            for gpu in endpoints:
                gpu.active_copies += 1
            try:
                # Bare-delay yield: same ordering as env.timeout(duration)
                # without a Timeout allocation per copy.
                yield duration
            finally:
                for gpu in endpoints:
                    gpu.active_copies -= 1
            # Every hop carries the full payload: a 2-hop NVSwitch route
            # moves the bytes over the egress *and* the ingress port, so
            # each channel's ledger gets the whole transfer (splitting it
            # per hop under-counted multi-hop routes).
            for channel in ordered:
                channel.record(self.nbytes)
            self.finished_at = self.env.now
            if self.stats is not None:
                route_name = f"{getattr(self.src, 'name', self.src)}->" f"{getattr(self.dst, 'name', self.dst)}"
                self.stats.record(route_name, self.nbytes, duration, channels=ordered)
            if self.telemetry is not None:
                self.telemetry.record_transfer(self, ordered)
        finally:
            for channel, request in zip(ordered, requests):
                channel.engine.release(request)
        return self


def copy(
    env: Environment,
    interconnect: Interconnect,
    src: Hashable,
    dst: Hashable,
    nbytes: float,
    pieces: int = 1,
    stats: Optional[TransferStats] = None,
    telemetry=None,
    ctx: Optional[int] = None,
) -> Generator:
    """Convenience wrapper: ``yield from copy(env, ic, a, b, n)``.

    Forwards ``telemetry`` and ``ctx`` to the underlying
    :class:`Transfer` so convenience-path copies keep their per-hop
    spans and request attribution (they used to be dropped here).
    """
    transfer = Transfer(
        env, interconnect, src, dst, nbytes,
        pieces=pieces, stats=stats, telemetry=telemetry, ctx=ctx,
    )
    return (yield from transfer.run())
