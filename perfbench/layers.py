"""Per-layer host-time attribution for the traced run.

The layers are the ``repro`` packages.  :class:`SpanTracer` wraps public
entry points at runtime (nothing under ``src/`` changes) and records a
span around every call: name, start, end and parent.  Generator
functions, and every generator a simulation process runs, are timed per
*resumption*, not per call, so a span covers exactly the host time the
generator body executed.  A layer's self time is its spans' time minus
the time their child spans cover; host time in the timed phase outside
every span is the *untraced remainder*, so::

    sum(layer self times) + untraced remainder == traced wall

Counts come from the same wrappers.  :func:`profile_calls` is a separate
pass that counts Python calls per layer with :mod:`cProfile`; it runs
apart from the span pass so its cost never inflates a self time.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import json
import os
import pstats
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

LAYERS = (
    "sim",
    "hardware",
    "memory",
    "serving",
    "aqua",
    "placer",
    "telemetry",
    "models",
)

#: Classes whose public methods are layer entry points, by module.  The
#: layer of each comes from its module (see :func:`layer_of`).
ENTRY_CLASSES = {
    "repro.hardware.server": ("Server",),
    "repro.hardware.gpu": ("GPU", "HostDRAM", "MemoryPool"),
    "repro.hardware.interconnect": ("Interconnect",),
    "repro.memory.kv_cache": ("PagedKVCache",),
    "repro.memory.allocator": ("BlockAllocator",),
    "repro.memory.tensor": ("SimTensor",),
    "repro.serving.engine": ("LLMEngineBase",),
    "repro.serving.vllm_engine": ("VLLMEngine",),
    "repro.serving.cfs": ("CFSEngine",),
    "repro.serving.flexgen_engine": ("FlexGenEngine",),
    "repro.serving.batch_engine": ("BatchEngine",),
    "repro.aqua.lib": ("AquaLib",),
    "repro.aqua.coordinator": ("Coordinator",),
    "repro.aqua.tensor": ("AquaTensor",),
    "repro.aqua.informers": ("LlmInformer", "BatchInformer"),
    "repro.aqua.placer": ("AquaPlacer",),
    "repro.telemetry.hub": ("Telemetry",),
    "repro.telemetry.timeseries": ("MetricScraper",),
    "repro.telemetry.recorder": ("FlightRecorder",),
    "repro.trace": ("Tracer",),
    "repro.models.llm": ("LLMSpec",),
    "repro.models.diffusion": ("DiffusionSpec",),
    "repro.models.audio": ("AudioModelSpec",),
}


def layer_of(path: str) -> str:
    """Layer of a module name (``repro.aqua.lib``) or source file path;
    ``other`` for code outside the eight layers."""
    parts = path.replace(os.sep, ".").split(".")
    if "repro" not in parts:
        return "other"
    rest = parts[len(parts) - 1 - parts[::-1].index("repro") + 1 :]
    if not rest:
        return "other"
    if rest[0] == "aqua" and len(rest) > 1 and rest[1] == "placer":
        return "placer"
    if rest[0] == "trace":
        return "telemetry"
    return rest[0] if rest[0] in LAYERS else "other"


class SpanTracer:
    """Span stack with online self-time accounting.

    Spans are kept in memory up to ``keep`` of them (later ones are still
    accounted, just not stored) and can be written as a Chrome trace.
    """

    def __init__(self, keep: int = 100_000) -> None:
        self.keep = keep
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Host time covered by root spans.
        self.root_s = 0.0
        self.n_spans = 0
        #: ``(name, layer, start, end, parent_id)``; ids are list indices
        #: in start order, ``-1`` for a root span.
        self.spans: list[Optional[tuple]] = []
        #: Modelled link-contention wait summed over ``Server.transfer``.
        self.queue_sim_s = 0.0
        self._stack: list[list] = []  # [name, layer, start, child_s, span_id]
        self._undo: list[Callable[[], None]] = []

    def reset(self) -> None:
        """Forget everything recorded so far; wrappers stay installed."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.self_s.clear()
        self.calls.clear()
        self.root_s = 0.0
        self.n_spans = 0
        self.spans = []
        self.queue_sim_s = 0.0

    # -- span stack ----------------------------------------------------
    def enter(self, name: str, layer: str) -> None:
        span_id = self.n_spans
        self.n_spans += 1
        if span_id < self.keep:
            self.spans.append(None)  # filled in on exit
        self._stack.append([name, layer, time.perf_counter(), 0.0, span_id])

    def exit(self) -> None:
        end = time.perf_counter()
        name, layer, start, child_s, span_id = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        stack = self._stack
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][4]
        else:
            self.root_s += duration
            parent = -1
        if span_id < self.keep:
            self.spans[span_id] = (name, layer, start, end, parent)

    # -- wrappers ------------------------------------------------------
    def timed_generator(self, gen, name: str, layer: str):
        """Drive ``gen`` like ``yield from`` does, one span per resumption."""
        send, throw = gen.send, gen.throw
        value, error = None, None
        while True:
            self.enter(name, layer)
            try:
                if error is None:
                    item = send(value)
                else:
                    item, error = throw(error), None
            except StopIteration as stop:
                self.exit()
                return stop.value
            except BaseException:
                self.exit()
                raise
            self.exit()
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into gen on resumption
                value, error = None, exc

    def _call_generator(self, fn, name, layer, args, kwargs):
        result = yield from self.timed_generator(fn(*args, **kwargs), name, layer)
        if name == "Server.transfer" and getattr(result, "acquired_at", None) is not None:
            # The modelled wait for a busy channel.
            self.queue_sim_s += result.acquired_at - result.started_at
        return result

    def wrap_function(self, fn, name: str, layer: str):
        tracer = self
        calls = self.calls
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                return tracer._call_generator(fn, name, layer, args, kwargs)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            tracer.enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> "SpanTracer":
        """Wrap every entry point; :meth:`uninstall` restores them."""
        import importlib

        from repro.sim.core import Environment
        from repro.sim.events import Process

        for module_name, class_names in ENTRY_CLASSES.items():
            module = importlib.import_module(module_name)
            layer = layer_of(module_name)
            for class_name in class_names:
                cls = getattr(module, class_name)
                for attr, fn in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    self._patch(cls, attr, self.wrap_function(
                        fn, f"{class_name}.{attr}", layer))

        self._patch(Environment, "run",
                    self.wrap_function(Environment.run, "Environment.run", "sim"))

        tracer = self
        process_init = Process.__init__
        # Generators that already time themselves.
        timed_codes = (
            SpanTracer.timed_generator.__code__,
            SpanTracer._call_generator.__code__,
        )

        @functools.wraps(process_init)
        def init(proc, env, generator):
            code = getattr(generator, "gi_code", None)
            if code is not None and code not in timed_codes:
                generator = tracer.timed_generator(
                    generator, f"process:{code.co_name}", layer_of(code.co_filename)
                )
            process_init(proc, env, generator)

        self._patch(Process, "__init__", init)
        return self

    def _patch(self, cls, attr: str, value) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, value)
        self._undo.append(lambda: setattr(cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------
    def count(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome trace-event JSON (µs, one track
        per layer) with each span's id and parent id in its args."""
        kept = [(i, span) for i, span in enumerate(self.spans) if span is not None]
        if not kept:
            return
        t0 = min(span[2] for _, span in kept)
        events = []
        for i, (name, layer, start, end, parent) in kept:
            events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": layer,
                "args": {"id": i, "parent": parent},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "spans_total": self.n_spans}, fh)


def profile_calls(run: Callable[[], object]) -> tuple[object, dict[str, int]]:
    """Run ``run()`` under cProfile; return its result and the exact
    Python call count per layer.

    Generator resumptions count as calls, as cProfile counts them.  C
    functions and the benchmark's own code (whose probe count depends on
    host speed) are not counted.  Python functions outside ``repro`` (the
    dataclass-generated ``__eq__``, NumPy, the standard library) are
    charged to the layer of their direct caller.
    """
    own = os.path.dirname(os.path.abspath(__file__))

    def bucket(filename: str) -> Optional[str]:
        return None if filename.startswith(own) else layer_of(filename)

    profiler = cProfile.Profile()
    result = profiler.runcall(run)
    stats = pstats.Stats(profiler).stats
    per_layer: Counter = Counter({layer: 0 for layer in LAYERS + ("other",)})
    for (filename, _line, _name), (_cc, ncalls, _tt, _ct, callers) in stats.items():
        layer = bucket(filename)
        if filename == "~" or layer is None:  # C function, or the benchmark
            continue
        if layer == "other":
            for (caller_file, _l, _n), caller in callers.items():
                ncalls -= caller[0]
                if bucket(caller_file) is not None:
                    per_layer[bucket(caller_file)] += caller[0]
        per_layer[layer] += ncalls
    return result, dict(per_layer)
