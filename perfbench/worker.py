"""Run one workload in this (fresh) interpreter and print its result.

Started by ``run.py``; prints one JSON object as its last stdout line.
Modes:

``setup``  build the inputs and the first rig, report when the timed
           phase would start, and exit.
``e2e``    time passes until ``--seconds`` have elapsed (at least one),
           then run an audited pass outside the timed phase.
``trace``  one untimed-tracing pass, one span-traced pass and one
           cProfile pass; reports the per-layer metrics.

Every pass is scored: each must reproduce the expected digest (the
stored reference on the default seed, else the first pass's) and keep
the workload's invariants; a pass that does not counts its ops failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from layers import LAYERS, SpanTracer, profile_calls  # noqa: E402
from speed import HostSpeed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, PassResult, score  # noqa: E402

REFERENCE = HERE / "reference.json"


class Scorer:
    """Counts attempted and failed ops over every pass of a run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.expected = None
        if seed == DEFAULT_SEED:
            self.expected = json.loads(REFERENCE.read_text())[workload]
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.digest = None

    def add(self, result: PassResult, label: str) -> PassResult:
        if self.digest is None:
            self.digest = result.digest
        expected = self.expected if self.expected is not None else self.digest
        failed = score(result, expected)
        self.attempted += result.ops
        self.failed += failed
        self.notes.extend(f"{label}: {note}" for note in result.notes)
        return result


def run_e2e(workload, rig, seconds: float, scorer: Scorer) -> dict:
    """Time passes until ``seconds`` have elapsed; ``wall_s`` and the step
    percentiles are reference-speed times, ``raw_*`` the host's own."""
    passes: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    while True:
        result = scorer.add(workload.run_pass(rig), f"pass {len(passes)}")
        result.handles.clear()
        passes.append(result)
        del rig
        if len(passes) == 1:
            # Read after the first pass: how many passes fit in the timed
            # phase depends on host speed, and later passes can still
            # raise the allocator's high-water mark a little.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() >= deadline:
            break
        gc.collect()
        rig = workload.build()
    gc.collect()
    if hasattr(workload, "trace"):  # simulations: audited pass
        scorer.add(workload.run_pass(workload.build(audit=True)), "audit pass")
    steps_ms = [s * 1e3 for p in passes for s in p.scaled_s]
    raw_ms = [s * 1e3 for p in passes for s in p.step_s]
    out = {
        "passes": len(passes),
        "wall_s": statistics.median(p.scaled_wall_s for p in passes),
        "step_ms_p50": statistics.median(steps_ms),
        "steps": len(steps_ms),
        "peak_rss_mb": peak_rss_mb,
        "raw_wall_s": statistics.median(p.wall_s for p in passes),
        "raw_step_ms_p50": statistics.median(raw_ms),
    }
    # A p90 needs at least ten samples beyond it.
    if len(steps_ms) >= 100:
        for key, values in (("step_ms_p90", steps_ms), ("raw_step_ms_p90", raw_ms)):
            out[key] = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return out


def _baseline(rig) -> dict:
    """Cumulative public counters of a rig before its timed drain."""
    if isinstance(rig, list):  # placer
        return {}
    return {
        "events": rig.env.events_processed,
        "transfers": sum(s.transfer_stats.count for s in rig.servers),
        "bytes": sum(s.transfer_stats.bytes_total for s in rig.servers),
        "scrapes": sum(h.scraper.scrapes for h in rig.hubs if h.scraper),
    }


def run_trace(workload, rig, scorer: Scorer, spans_path: Path) -> dict:
    untraced = scorer.add(workload.run_pass(rig), "untraced pass")
    del rig
    gc.collect()

    tracer = SpanTracer().install()
    try:
        rig = workload.build()
        base = _baseline(rig)
        tracer.reset()
        traced = scorer.add(workload.run_pass(rig), "traced pass")
    finally:
        tracer.uninstall()
    after = _baseline(rig)
    del rig
    gc.collect()

    rig = workload.build()
    profiled, py_calls = profile_calls(lambda: workload.run_pass(rig))
    scorer.add(profiled, "profiled pass")

    # Self times are rescaled by the traced pass's host-speed factor, so
    # they add up to its reference-speed wall like the raw ones do.
    scale = traced.scaled_wall_s / traced.wall_s
    calls = tracer.calls
    m: dict[str, float] = {}
    for layer in LAYERS + ("other",):
        m[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0) * scale
        m[f"{layer}.py_calls"] = py_calls[layer]

    sim = traced.handles.get("rig")
    engines = [e for e in sim.engines if hasattr(e, "metrics")] if sim else []
    tokens = sum(e.metrics.tokens_generated for e in engines)
    events = after.get("events", 0) - base.get("events", 0)
    placements = traced.handles.get("placements", [])
    m.update({
        "serving.steps": sum(getattr(e, "iteration", 0) for e in engines),
        "serving.tokens": tokens,
        "serving.preemptions": sum(getattr(e, "preemptions", 0) for e in engines),
        "serving.us_per_token": m["serving.self_s"] / tokens * 1e6 if tokens else 0.0,
        "memory.kv_calls": tracer.count("PagedKVCache."),
        "memory.swaps": calls["PagedKVCache.swap_out"] + calls["PagedKVCache.swap_in"],
        "sim.events": events,
        "sim.us_per_event": m["sim.self_s"] / events * 1e6 if events else 0.0,
        "hardware.transfers": after.get("transfers", 0) - base.get("transfers", 0),
        "hardware.bytes": after.get("bytes", 0) - base.get("bytes", 0),
        "hardware.queue_sim_s": tracer.queue_sim_s,
        "aqua.coord_calls": calls["Coordinator.request"],
        "aqua.moves": calls["Coordinator.moved"],
        "telemetry.hook_calls": tracer.count("Telemetry."),
        "telemetry.scrapes": after.get("scrapes", 0) - base.get("scrapes", 0),
        "placer.solves": calls["AquaPlacer.place"],
        "placer.solve_s": sum(p.solve_seconds for p in placements),
        "placer.objective": sum(p.objective for p in placements),
        "models.calls": sum(
            tracer.count(f"{c}.") for c in ("LLMSpec", "DiffusionSpec", "AudioModelSpec")
        ),
        "trace.wall_s": traced.scaled_wall_s,
        "trace.untraced_s": (traced.wall_s - tracer.root_s) * scale,
        "trace.overhead": traced.scaled_wall_s / untraced.scaled_wall_s,
    })

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome_trace(str(spans_path))
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "e2e", "trace"))
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    rig = workload.build()
    out: dict = {"ready_wall": time.time()}
    # Host speed right after set-up, to rescale the set-up time.
    out["setup_scale"] = HostSpeed().scale()
    if args.mode != "setup":
        scorer = Scorer(args.workload, args.seed)
        if args.mode == "e2e":
            out["metrics"] = run_e2e(workload, rig, args.seconds, scorer)
        else:
            spans = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}.trace.json"
            out["metrics"] = run_trace(workload, rig, scorer, spans)
            out["spans_file"] = str(spans.relative_to(ROOT))
        out.update(
            attempted=scorer.attempted,
            failed=scorer.failed,
            digest=scorer.digest,
            reference_checked=scorer.expected is not None,
            notes=scorer.notes,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
