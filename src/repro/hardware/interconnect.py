"""Interconnect topologies: channels, routes, and path lookup.

A :class:`Channel` is one directed link (e.g. GPU0 -> GPU1 NVLink, or a
GPU's PCIe lane towards host DRAM) guarded by a simulation
:class:`~repro.sim.Resource` so that concurrent transfers sharing the
channel serialize, the way DMA copy engines do.

An :class:`Interconnect` holds the set of channels of one server and
answers ``route(src, dst)`` queries with the ordered list of channels a
transfer must hold.  Two topologies are provided, matching the paper's
two testbeds:

* ``p2p`` — every GPU pair is joined by a dedicated direct NVLink
  (the 2-GPU server).
* ``nvswitch`` — each GPU has one egress and one ingress port into a
  non-blocking switch fabric (the 8-GPU DGX-style server).

Host DRAM is reachable from every GPU over that GPU's PCIe channel pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Hashable

from repro.hardware.specs import LinkSpec
from repro.sim import Environment, Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


class RoutingError(LookupError):
    """Raised when no route exists between two devices."""


@dataclass
class Channel:
    """One directed link with an exclusive DMA engine.

    Attributes
    ----------
    name:
        Unique channel identifier, e.g. ``"nvlink:gpu0->gpu1"``.
    spec:
        The link's latency/bandwidth cost model.
    engine:
        Simulation resource serializing transfers on this channel.
    bytes_moved:
        Lifetime counter of payload bytes carried (for reports).
    degradation:
        Bandwidth multiplier in ``(0, 1]``; ``1.0`` means healthy.  Set
        by fault injection (:mod:`repro.faults`) and read live by
        :meth:`Route.transfer_time`, so transfers started while a link
        is degraded pay the reduced bandwidth.
    stalled:
        While ``True`` the channel's copy engine accepts no new work:
        transfers whose route includes this channel raise
        :class:`~repro.hardware.dma.TransferStalled` at start.
    """

    name: str
    spec: LinkSpec
    engine: Resource
    bytes_moved: float = 0.0
    transfer_count: int = 0
    degradation: float = 1.0
    stalled: bool = False

    def record(self, nbytes: float) -> None:
        self.bytes_moved += nbytes
        self.transfer_count += 1

    @property
    def effective_bandwidth(self) -> float:
        """Peak bandwidth scaled by the current degradation factor."""
        return self.spec.peak_bandwidth * self.degradation

    @property
    def healthy(self) -> bool:
        """Whether the channel runs at full bandwidth and is not stalled."""
        return self.degradation >= 1.0 and not self.stalled

    def degrade(self, factor: float) -> None:
        """Clamp the channel to ``factor`` of its peak bandwidth.

        ``factor`` must be in ``(0, 1]``; degradations do not stack —
        the most recent call wins, and :meth:`restore` clears it.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"degradation factor must be in (0, 1], got {factor}")
        self.degradation = factor

    def restore(self) -> None:
        """Return the channel to full bandwidth."""
        self.degradation = 1.0

    def stall(self) -> None:
        """Freeze the channel's copy engine (a DMA stall fault)."""
        self.stalled = True

    def unstall(self) -> None:
        """Release a DMA stall; queued retries can proceed again."""
        self.stalled = False

    def __repr__(self) -> str:
        return f"<Channel {self.name} ({self.spec.name})>"


@dataclass
class Route:
    """An ordered list of channels a transfer must traverse."""

    channels: list[Channel]

    @cached_property
    def sorted_channels(self) -> list[Channel]:
        """Channels in global acquisition order (by name).

        Transfers grab every hop in this deterministic order so
        overlapping routes can never deadlock; cached because channel
        membership of a route never changes after construction.
        """
        return sorted(self.channels, key=lambda ch: ch.name)

    @property
    def latency(self) -> float:
        """Total setup latency: the per-hop latencies are paid in series."""
        return sum(ch.spec.latency for ch in self.channels)

    @property
    def bottleneck_bandwidth(self) -> float:
        """Effective bandwidth of the slowest hop.

        Honours per-channel :attr:`Channel.degradation`, so a degraded
        NVLink route reports (and delivers) less bandwidth than its
        spec — the signal the AQUA coordinator uses to fail over to
        the PCIe path.
        """
        return min(ch.effective_bandwidth for ch in self.channels)

    @property
    def healthy(self) -> bool:
        """Whether every hop is undegraded and unstalled."""
        return all(ch.healthy for ch in self.channels)

    def transfer_time(self, nbytes: float) -> float:
        """Uncontended seconds to move ``nbytes`` along this route."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.latency + nbytes / self.bottleneck_bandwidth

    def effective_bandwidth(self, nbytes: float) -> float:
        if nbytes <= 0:
            return 0.0
        return nbytes / self.transfer_time(nbytes)

    def __repr__(self) -> str:
        hops = " -> ".join(ch.name for ch in self.channels)
        return f"<Route {hops}>"


class Interconnect:
    """The wiring of one server: channels between device identifiers.

    Devices are referenced by hashable identifiers (the GPU / DRAM
    objects themselves in practice).  Build the topology with
    :meth:`add_channel` / :meth:`add_route`, or use the classmethod
    constructors for the standard server layouts.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.channels: dict[str, Channel] = {}
        self._routes: dict[tuple[Hashable, Hashable], list[str]] = {}
        #: Route objects are immutable views over mutable channels, so
        #: they can be cached per endpoint pair instead of rebuilt for
        #: every transfer.  Invalidated by :meth:`add_route`.
        self._route_cache: dict[tuple[Hashable, Hashable], Route] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_channel(self, name: str, spec: LinkSpec) -> Channel:
        """Create (or return an existing) named channel."""
        if name in self.channels:
            return self.channels[name]
        channel = Channel(name=name, spec=spec, engine=Resource(self.env, capacity=1))
        self.channels[name] = channel
        return channel

    def add_route(self, src: Hashable, dst: Hashable, channel_names: list[str]) -> None:
        """Declare that transfers from ``src`` to ``dst`` use these channels."""
        for name in channel_names:
            if name not in self.channels:
                raise KeyError(f"unknown channel {name!r}")
        self._routes[(src, dst)] = list(channel_names)
        self._route_cache.pop((src, dst), None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def route(self, src: Hashable, dst: Hashable) -> Route:
        """Return the route from ``src`` to ``dst``.

        Raises
        ------
        RoutingError
            If the two devices are not connected.
        """
        key = (src, dst)
        route = self._route_cache.get(key)
        if route is not None:
            return route
        if src is dst or src == dst:
            raise RoutingError(f"source and destination are the same device: {src!r}")
        try:
            names = self._routes[key]
        except KeyError:
            raise RoutingError(f"no route from {src!r} to {dst!r}") from None
        route = self._route_cache[key] = Route(
            [self.channels[name] for name in names]
        )
        return route

    def connected(self, src: Hashable, dst: Hashable) -> bool:
        """Whether a route exists from ``src`` to ``dst``."""
        return (src, dst) in self._routes

    def peers(self, device: Hashable) -> list[Hashable]:
        """All devices reachable from ``device``."""
        return [dst for (src, dst) in self._routes if src == device]

    def __repr__(self) -> str:
        return (
            f"<Interconnect channels={len(self.channels)} "
            f"routes={len(self._routes)}>"
        )


@dataclass
class TopologyDescription:
    """Summary of a built topology, useful for logging and tests."""

    kind: str
    n_gpus: int
    gpu_link: LinkSpec
    pcie_link: LinkSpec
    extra: dict = field(default_factory=dict)
