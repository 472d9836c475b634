"""Benchmark entry point: time one workload end to end, or per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vllm_batch --seed 0 --seconds 10 --trace 0

Each workload runs in fresh interpreters, single-threaded, with no
process pool and no run cache.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs a separate traced pass and reports the
per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print the same numbers for people.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Interpreters whose set-up is timed; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Printed under the gated metrics of an untraced run.
DIAGNOSTICS = ("step_ms_p90", "steps", "passes", "raw_wall_s", "raw_step_ms_p50",
               "raw_step_ms_p90", "raw_setup_s")
#: Per-child wall-clock limits, so a run always ends within 180 s.
MAIN_TIMEOUT_S = 130.0
SETUP_TIMEOUT_S = 8.0


def spawn(workload: str, seed: int, seconds: float, mode: str, timeout: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter; return its JSON result
    with ``setup_s`` measured from just before the spawn."""
    env = dict(os.environ)
    # Single-threaded native code: BLAS pools and HiGHS stay on one core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
    ]
    spawned = time.time()
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {workload} ({mode}) exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["ready_wall"] - spawned
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no simulator sources under {ROOT / 'src'}; nothing to run\n")
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {names}\n")
        return 2

    mode = "trace" if args.trace else "e2e"
    main_run = spawn(args.workload, args.seed, args.seconds, mode, MAIN_TIMEOUT_S)
    measured = main_run["metrics"]
    if not args.trace:
        setups = [main_run] + [
            spawn(args.workload, args.seed, args.seconds, "setup", SETUP_TIMEOUT_S)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        for key in ("setup_s", "raw_setup_s"):
            measured[key] = statistics.median(run[key] for run in setups)

    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
    }

    attempted, failed = main_run["attempted"], main_run["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    for name, metric in metrics.items():
        print(f"  {name:<24} {metric['value']:>16.6g} {metric['unit']}")
    for name in DIAGNOSTICS:
        if name in measured:
            print(f"  {name:<24} {measured[name]:>16.6g}")
    print(f"  {'ops':<24} {attempted:>16d}")
    print(f"  {'failed_frac':<24} {failed / attempted:>16.6g}")
    print(f"  digest {main_run['digest']}"
          + ("  (matches reference)" if main_run["reference_checked"] and not failed
             else ""))
    if "spans_file" in main_run:
        print(f"  spans written to {main_run['spans_file']}")
    for note in main_run["notes"]:
        print(f"  FAILED {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
