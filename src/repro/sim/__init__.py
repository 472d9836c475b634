"""Discrete-event simulation kernel.

This package provides a small, self-contained discrete-event simulator in
the style of SimPy: an :class:`Environment` advances a virtual clock by
processing scheduled events, and *processes* (Python generators) model
concurrent activities by yielding events they want to wait for.

The rest of the repository builds GPUs, interconnects, serving engines and
the AQUA control plane on top of this kernel, so that the paper's
experiments run deterministically and in milliseconds instead of requiring
an 8-GPU NVLink server.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(5.0)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
5.0
"""

from repro.sim.core import Environment
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import PriorityResource, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "PriorityResource",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
