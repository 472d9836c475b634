"""Run benchmark scenarios, persist BENCH JSON, gate regressions.

The persistent artifact is ``BENCH_<n>.json`` at the repo root (one per
PR index, so the trajectory of the repo's performance is readable from
the checked-in files).  Schema, loosely::

    {
      "schema": "aqua-repro-bench/v1",
      "bench_index": 5,
      "quick": false,
      "jobs": 1,
      "python": "3.11.x",
      "platform": "Linux-...",
      "baseline": {"kernel_events_per_s": 531646, "source": "..."},
      "scenarios": {"kernel": {"events_per_s": ...}, ...},
      "cache": {"hits": 0, "misses": 8},
      "peak_rss_bytes": 123456789
    }

``jobs`` is the ``--jobs`` value the harness ran with and ``cache``
aggregates run-cache hit/miss counts across scenarios (today only
``runall_parallel`` exercises the cache) — both recorded so an artifact
is interpretable without knowing the command line that produced it.

``baseline`` records the *pre-PR* kernel throughput this PR's fast path
is measured against; it is data carried in the file, not recomputed.
``compare_bench`` gates a fresh run against a previously written file
(the ``--baseline`` flag), flagging any scenario whose primary metric
regressed by more than the tolerance.
"""

from __future__ import annotations

import inspect
import json
import platform
import resource
import sys
from typing import Iterable, Optional

from repro.benchmarks.scenarios import SCENARIOS

SCHEMA = "aqua-repro-bench/v1"

#: Index of the current BENCH artifact; names the default output
#: file (``BENCH_7.json``).
BENCH_INDEX = 7

#: The kernel throughput recorded immediately before the fast-path PR,
#: measured by the then-current ``benchmarks/test_simulator_performance.py``
#: (same 200-process x 200-hop microbenchmark, ``env.timeout`` workers)
#: at commit 43b88d4 on this machine.  Carried into every BENCH file so
#: the speedup is computable from the artifact alone.
RECORDED_BASELINE = {
    "kernel_events_per_s": 531_646,
    "source": (
        "benchmarks/test_simulator_performance.py at 43b88d4 "
        "(pre fast-path kernel, env.timeout workers)"
    ),
}

#: The headline metric per scenario — what ``compare_bench`` gates on.
#: Bigger is better for all of them.
PRIMARY_METRIC = {
    "kernel": "events_per_s",
    "vllm_e2e": "sim_s_per_wall_s",
    "flexgen_e2e": "sim_s_per_wall_s",
    "cluster": "sim_s_per_wall_s",
    # Modeled transfers retired per wall second on the DMA hot loop.
    "transfer": "transfers_per_s",
    # Cold-vs-warm-cache speedup: nearly hardware-independent, unlike
    # the core-count-bounded parallel ``speedup`` reported alongside.
    "runall_parallel": "warm_speedup",
}


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is KiB on Linux (bytes on macOS, where this would
    overstate by 1024x — acceptable for a relative gate, and the
    harness runs in Linux CI).
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def run_bench(
    names: Optional[Iterable[str]] = None,
    quick: bool = False,
    jobs: int = 1,
) -> dict:
    """Run the named scenarios (default: all) and return the BENCH doc.

    ``jobs`` is forwarded to every scenario that declares a ``jobs``
    parameter (the kernel repeat loop and the experiment fan-out); the
    default of 1 keeps timed regions uncontended.  The artifact records ``jobs`` plus aggregate run-cache hit/miss counts.
    """
    selected = list(names) if names else list(SCENARIOS)
    unknown = [n for n in selected if n not in SCENARIOS]
    if unknown:
        raise KeyError(
            f"unknown scenario(s) {unknown}; available: {sorted(SCENARIOS)}"
        )
    doc = {
        "schema": SCHEMA,
        "bench_index": BENCH_INDEX,
        "quick": quick,
        "jobs": jobs,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "baseline": dict(RECORDED_BASELINE),
        "scenarios": {},
    }
    for name in selected:
        fn = SCENARIOS[name]
        kwargs = {"quick": quick}
        if "jobs" in inspect.signature(fn).parameters:
            kwargs["jobs"] = jobs
        doc["scenarios"][name] = fn(**kwargs)
    doc["cache"] = {
        "hits": sum(
            m.get("cache_hits", 0) for m in doc["scenarios"].values()
        ),
        "misses": sum(
            m.get("cache_misses", 0) for m in doc["scenarios"].values()
        ),
    }
    doc["peak_rss_bytes"] = peak_rss_bytes()
    return doc


def validate_bench(doc: dict) -> None:
    """Raise ``ValueError`` listing every schema problem in ``doc``."""
    problems = []
    if not isinstance(doc, dict):
        raise ValueError(f"BENCH document must be a dict, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("bench_index"), int):
        problems.append("bench_index must be an int")
    baseline = doc.get("baseline")
    if not isinstance(baseline, dict):
        problems.append("baseline must be a dict")
    else:
        kps = baseline.get("kernel_events_per_s")
        if not isinstance(kps, (int, float)) or kps <= 0:
            problems.append("baseline.kernel_events_per_s must be a positive number")
        if not isinstance(baseline.get("source"), str):
            problems.append("baseline.source must be a string")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        problems.append("scenarios must be a non-empty dict")
    else:
        for name, metrics in scenarios.items():
            if not isinstance(metrics, dict):
                problems.append(f"scenarios[{name!r}] must be a dict")
                continue
            primary = PRIMARY_METRIC.get(name)
            if primary is None:
                continue  # user-defined scenario; no gate metric required
            value = metrics.get(primary)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"scenarios[{name!r}].{primary} must be a positive number"
                )
    rss = doc.get("peak_rss_bytes")
    if not isinstance(rss, int) or rss <= 0:
        problems.append("peak_rss_bytes must be a positive int")
    if problems:
        raise ValueError("invalid BENCH document:\n  " + "\n  ".join(problems))


def compare_bench(
    current: dict, baseline: dict, tolerance: float = 0.10
) -> tuple[list[str], list[str]]:
    """Compare two BENCH docs scenario by scenario.

    Returns ``(regressions, report_lines)``: a regression is a scenario
    whose primary metric fell more than ``tolerance`` (fractional) below
    the baseline document's value.  Scenarios present in only one
    document are reported but never gate.  The coarsened companion
    metrics (``token_steps_per_s`` etc.) are informational — only the
    raw primary metric gates.
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    regressions: list[str] = []
    lines: list[str] = []
    base_scenarios = baseline.get("scenarios", {})
    for name, metrics in current.get("scenarios", {}).items():
        primary = PRIMARY_METRIC.get(name)
        if primary is None or primary not in metrics:
            continue
        base_metrics = base_scenarios.get(name)
        if not base_metrics or primary not in base_metrics:
            lines.append(f"{name}: no baseline value (new scenario)")
            continue
        cur, base = metrics[primary], base_metrics[primary]
        ratio = cur / base if base else float("inf")
        line = f"{name}: {primary} {cur:,.0f} vs baseline {base:,.0f} ({ratio:.2f}x)"
        if cur < base * (1.0 - tolerance):
            regressions.append(line)
            lines.append(line + "  <-- REGRESSION")
        else:
            lines.append(line)
    for name in base_scenarios:
        if name not in current.get("scenarios", {}):
            lines.append(f"{name}: in baseline but not in this run")
    return regressions, lines


def write_bench(doc: dict, path: str) -> None:
    validate_bench(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_bench(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    validate_bench(doc)
    return doc


def main(argv=None) -> int:  # pragma: no cover - thin wrapper, CLI-tested
    """Entry point for ``python -m repro.benchmarks``."""
    from repro.cli import main as cli_main

    return cli_main(["bench"] + list(argv if argv is not None else sys.argv[1:]))
