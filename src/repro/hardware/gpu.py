"""Devices: GPUs with HBM accounting and compute, and host DRAM."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

from repro.hardware.specs import GPUSpec
from repro.sim import Environment, Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.server import Server


class OutOfDeviceMemory(MemoryError):
    """Raised when a reservation exceeds the free capacity of a pool."""


@dataclass
class MemoryPool:
    """Byte-granularity accounting for a device memory.

    The pool tracks named reservations so tests and reports can see who
    holds memory; fine-grained (block) allocation for KV caches is
    layered on top in :mod:`repro.memory`.
    """

    capacity: int
    reservations: dict[str, int] = field(default_factory=dict)
    #: High-water mark of :attr:`used` over the pool's lifetime —
    #: exported as ``aqua_pool_peak_bytes`` by the telemetry layer.
    peak: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        self.peak = max(self.peak, self.used)

    @property
    def used(self) -> int:
        return sum(self.reservations.values())

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def reserve(self, tag: str, nbytes: int) -> None:
        """Reserve ``nbytes`` under ``tag`` (tags accumulate)."""
        if nbytes < 0:
            raise ValueError(f"negative reservation {nbytes}")
        if nbytes > self.free:
            raise OutOfDeviceMemory(
                f"cannot reserve {nbytes} bytes under {tag!r}: "
                f"only {self.free} of {self.capacity} free"
            )
        self.reservations[tag] = self.reservations.get(tag, 0) + nbytes
        if self.used > self.peak:
            self.peak = self.used

    def release(self, tag: str, nbytes: Optional[int] = None) -> int:
        """Release ``nbytes`` (default: all) held under ``tag``.

        Returns the number of bytes actually released.
        """
        held = self.reservations.get(tag, 0)
        if nbytes is None:
            nbytes = held
        if nbytes < 0:
            raise ValueError(f"negative release {nbytes}")
        if nbytes > held:
            raise ValueError(
                f"cannot release {nbytes} bytes from {tag!r}: only {held} held"
            )
        remaining = held - nbytes
        if remaining:
            self.reservations[tag] = remaining
        else:
            self.reservations.pop(tag, None)
        return nbytes

    def held(self, tag: str) -> int:
        """Bytes currently held under ``tag``."""
        return self.reservations.get(tag, 0)

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of the reservation table.

        Used by the conservation audit (:mod:`repro.audit`) so invariant
        checks iterate a stable view even if a monitor callback runs
        concurrently with pool mutation.
        """
        return dict(self.reservations)


class GPU:
    """One simulated GPU: HBM pool, a compute queue, and copy bookkeeping.

    Compute work is modelled as exclusive occupancy of the GPU for a
    duration derived from the model performance rooflines; concurrent
    interconnect copies touching this GPU dilate compute slightly
    (``spec.copy_interference``), matching the paper's Figure 3b finding
    that memory donation costs producers <5% throughput.
    """

    def __init__(
        self,
        env: Environment,
        index: int,
        spec: GPUSpec,
        server: Optional["Server"] = None,
    ) -> None:
        self.env = env
        self.index = index
        self.spec = spec
        self.server = server
        self.hbm = MemoryPool(capacity=spec.hbm_bytes)
        self.compute = Resource(env, capacity=1)
        self.active_copies = 0
        self.busy_time = 0.0
        #: Health flag set by fault injection (:mod:`repro.faults`).
        #: While ``True``, new DMA transfers touching this GPU raise
        #: :class:`~repro.hardware.dma.GpuFailedError` and the memory
        #: it held is considered lost by anyone who offloaded to it.
        self.failed = False

    def fail(self) -> None:
        """Mark the GPU failed: its HBM contents are gone.

        The accounting pools are left untouched — owners of the data
        (AQUA tensors, engines) discover the loss when their next
        transfer raises and release their reservations themselves,
        mirroring how a real driver reports ECC/Xid errors lazily.
        """
        self.failed = True

    def recover(self) -> None:
        """Bring the GPU back (empty — lost data does not return)."""
        self.failed = False

    @property
    def name(self) -> str:
        prefix = self.server.name if self.server is not None else "gpu"
        return f"{prefix}/gpu{self.index}"

    @property
    def free_hbm(self) -> int:
        """Free HBM bytes."""
        return self.hbm.free

    def dilation(self) -> float:
        """Current compute slow-down factor due to active copies."""
        if self.active_copies > 0:
            return 1.0 + self.spec.copy_interference
        return 1.0

    def compute_op(self, duration: float) -> Generator:
        """Run an exclusive compute kernel of ``duration`` seconds.

        Usage (inside a simulation process)::

            yield from gpu.compute_op(0.016)
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        with self.compute.request() as req:
            yield req
            dilated = duration * self.dilation()
            self.busy_time += dilated
            # Bare-delay yield: identical ordering to env.timeout(dilated)
            # without allocating a Timeout per compute kernel.
            yield dilated

    def __repr__(self) -> str:
        return f"<GPU {self.name} free={self.free_hbm / 2**30:.1f}GiB>"

    # GPUs are used as dict keys / route endpoints: identity semantics.
    __hash__ = object.__hash__


class HostDRAM:
    """Host memory: a large pool reachable over PCIe."""

    def __init__(self, env: Environment, capacity: int, server: Optional["Server"] = None) -> None:
        self.env = env
        self.pool = MemoryPool(capacity=capacity)
        self.server = server

    @property
    def name(self) -> str:
        prefix = self.server.name if self.server is not None else "host"
        return f"{prefix}/dram"

    @property
    def free(self) -> int:
        return self.pool.free

    def __repr__(self) -> str:
        return f"<HostDRAM free={self.pool.free / 2**30:.0f}GiB>"

    __hash__ = object.__hash__
