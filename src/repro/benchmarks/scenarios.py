"""Benchmark scenarios: what the ``aqua-repro bench`` harness measures.

Each scenario is a plain function ``fn(quick: bool) -> dict`` returning
a flat metrics dict.  Three layers of the stack are covered:

* ``kernel`` — the simulation kernel alone: a pure process/sleep
  microbenchmark whose events/second is the repo's headline speed
  number (tracked against the recorded pre-fast-path baseline).
* ``vllm_e2e`` / ``flexgen_e2e`` — loaded serving engines, measuring
  how much faster than realtime a full rig simulates.
* ``cluster`` — the 8-GPU NVSwitch stress rig (four consumer/producer
  pairs sharing one fabric), the heaviest standard configuration.
* ``transfer`` — the DMA/offload hot loop alone: a storm of copies
  over the NVSwitch fabric, measured in transfers per wall second.
* ``runall_parallel`` — the experiment layer: a fixed subset of
  independent simulation cells run serially, fanned out over the
  process pool, and replayed from a warm run cache (PR 5; see
  ``docs/parallelism.md``).

Methodology notes
-----------------
* The kernel scenario reports the **best** of several repeats: on a
  noisy machine the minimum wall time is the least-contaminated
  estimate of the true cost, and the per-repeat spread is reported so
  regressions can be told apart from noise.
* Delays are precomputed per process so the generator body is nothing
  but the yield — the benchmark measures the kernel, not arithmetic.
* Workers use bare-delay yields (``yield d``), the kernel's cheapest
  sleep.
* GC stays enabled: disabling it flatters allocation-heavy code, and
  real runs (pytest, the CLI) keep it on.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.sim import Environment

#: Registry of scenario name -> fn(quick) -> metrics dict.  Order is
#: the order ``aqua-repro bench`` runs and reports them in.
SCENARIOS: dict[str, Callable[[bool], dict]] = {}


def scenario(fn: Callable[[bool], dict]) -> Callable[[bool], dict]:
    SCENARIOS[fn.__name__] = fn
    return fn


# ---------------------------------------------------------------------------
# Kernel microbenchmark
# ---------------------------------------------------------------------------
def _kernel_round(n_processes: int, hops: int, coarsen: int = 1) -> float:
    """One timed run of the process/sleep microbenchmark; returns wall s.

    ``coarsen > 1`` is the microbenchmark analogue of time-warp decode
    coarsening: each worker still models ``hops`` per-token steps of
    simulated time, but fuses every ``coarsen`` consecutive delays into
    one aggregate sleep — same simulated horizon, ~``coarsen``x fewer
    kernel events.
    """
    env = Environment()

    # Precompute each worker's delay sequence (7 distinct values keeps
    # the schedule honest without putting arithmetic on the timed path).
    all_delays = [
        tuple(0.001 * ((i + step) % 7 + 1) for step in range(hops))
        for i in range(n_processes)
    ]
    if coarsen > 1:
        all_delays = [
            tuple(
                sum(delays[j : j + coarsen])
                for j in range(0, len(delays), coarsen)
            )
            for delays in all_delays
        ]

    def worker(delays):
        for d in delays:
            yield d

    for delays in all_delays:
        env.process(worker(delays))
    started = time.perf_counter()
    env.run()
    return time.perf_counter() - started


def kernel_event_count(n_processes: int, hops: int) -> int:
    """Events the microbenchmark schedules, counted analytically.

    Per process: one Initialize, one sleep per hop, one process-completion
    event.  Analytic so the same number applies to kernels with and
    without an ``events_processed`` counter.
    """
    return n_processes * (hops + 2)


#: Aggregation window for the kernel scenario's coarsened companion run
#: (the time-warp analogue: same modeled token-steps, ~8x fewer events).
KERNEL_COARSEN = 8


@scenario
def kernel(quick: bool = False, jobs: int = 1) -> dict:
    n_processes, hops = (100, 60) if quick else (200, 200)
    repeats = 3 if quick else 7
    # One untimed warm-up round: the first run in a fresh process pays
    # import-cold caches and allocator growth that no steady-state
    # caller of the kernel pays.
    _kernel_round(n_processes, hops)
    # The repeat loop submits through the experiment pool; ``jobs=1``
    # (the bench default) is the historical inline loop, ``jobs>1``
    # gives each repeat its own core.  Each round times itself, so the
    # best-of-N statistic survives fan-out as long as cores are not
    # oversubscribed.
    from repro.experiments.pool import RunSpec, run_specs

    def rounds(coarsen: int) -> list[float]:
        specs = [
            RunSpec(
                task=f"{__name__}:_kernel_round",
                kwargs={
                    "n_processes": n_processes,
                    "hops": hops,
                    "coarsen": coarsen,
                },
                label=f"kernel round {i} (coarsen={coarsen})",
            )
            for i in range(repeats)
        ]
        return [r.value for r in run_specs(specs, jobs=jobs)]

    # Exact pass: one event per modeled step — the raw events/s number,
    # like-for-like with every earlier BENCH artifact.
    walls = rounds(coarsen=1)
    events = kernel_event_count(n_processes, hops)
    best = min(walls)

    # Coarsened companion: identical modeled work (``token_steps``
    # per-token steps of simulated time), aggregated KERNEL_COARSEN
    # steps per event.  ``token_steps_per_s`` is the modeled-throughput
    # metric decode coarsening buys; ``events_per_s`` above stays the
    # raw kernel number so the regression gate compares like-for-like.
    coarse_hops = -(-hops // KERNEL_COARSEN)  # ceil
    coarse_walls = rounds(coarsen=KERNEL_COARSEN)
    coarse_events = kernel_event_count(n_processes, coarse_hops)
    coarse_best = min(coarse_walls)
    token_steps = n_processes * hops

    return {
        "events_per_s": events / best,
        "events_per_s_median": events / sorted(walls)[len(walls) // 2],
        "events": events,
        "wall_s_best": best,
        "wall_s_spread": max(walls) - best,
        "repeats": repeats,
        "token_steps": token_steps,
        "token_steps_per_s": token_steps / coarse_best,
        "coarsen": KERNEL_COARSEN,
        "coarse_events": coarse_events,
        "coarse_events_per_s": coarse_events / coarse_best,
        "coarse_wall_s_best": coarse_best,
    }


# ---------------------------------------------------------------------------
# End-to-end serving rigs
# ---------------------------------------------------------------------------
#: Repeats for the e2e scenarios.  The sims are deterministic, so every
#: repeat models identical work and the minimum wall time is the least
#: noise-contaminated estimate — the same best-of methodology as the
#: kernel scenario, extended here because single-shot e2e walls (tens
#: to hundreds of ms) made the regression gate flap on busy machines.
E2E_REPEATS = 5


def _best_of(run_once: Callable[[], tuple], repeats: int = E2E_REPEATS) -> tuple:
    """Run ``run_once() -> (env, wall_s, tokens)`` ``repeats`` times;
    return ``(env, best_wall, spread, tokens)`` from the fastest run."""
    walls = []
    env = tokens = None
    for _ in range(repeats):
        env, wall, tokens = run_once()
        walls.append(wall)
    best = min(walls)
    return env, best, max(walls) - best, tokens


def _e2e_metrics(env: Environment, sim_s: float, wall_s: float) -> dict:
    out = {
        "sim_s": sim_s,
        "wall_s": wall_s,
        "sim_s_per_wall_s": sim_s / wall_s,
    }
    # Raw kernel events: deflated by design under decode coarsening
    # (that is the point), so BENCH artifacts carry modeled tokens
    # alongside and the regression gate never compares events/s across
    # different coarsening settings.
    processed = env.events_processed
    out["events"] = processed
    out["events_per_s"] = processed / wall_s
    return out


@scenario
def vllm_e2e(quick: bool = False) -> dict:
    """A loaded vLLM engine on one GPU (continuous batching hot loop)."""
    from repro.hardware import Server
    from repro.models import MISTRAL_7B
    from repro.serving import VLLMEngine
    from repro.workloads import sharegpt_requests
    from repro.workloads.arrivals import submit_all

    duration, count = (30.0, 50) if quick else (120.0, 200)

    def once():
        env = Environment()
        server = Server(env, n_gpus=1)
        engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)
        engine.start()
        submit_all(env, engine, sharegpt_requests(rate=5.0, count=count, seed=0))
        started = time.perf_counter()
        env.run(until=duration)
        wall = time.perf_counter() - started
        return env, wall, engine.metrics.tokens_generated

    env, wall, spread, tokens = _best_of(once)
    out = _e2e_metrics(env, duration, wall)
    out["wall_s_spread"] = spread
    out["tokens"] = tokens
    out["tokens_per_wall_s"] = tokens / wall
    return out


@scenario
def flexgen_e2e(quick: bool = False) -> dict:
    """The offloading rig of the determinism golden: FlexGen consumer +
    LLM producer over AQUA, long-prompt and ShareGPT traffic."""
    from repro.experiments.harness import build_consumer_rig
    from repro.models import LLAMA2_13B, OPT_30B
    from repro.workloads.arrivals import submit_all
    from repro.workloads.longprompt import long_prompt_requests
    from repro.workloads.sharegpt import sharegpt_requests

    duration = 10.0 if quick else 30.0

    def once():
        rig = build_consumer_rig(
            "flexgen", OPT_30B, producer_model=LLAMA2_13B, use_aqua=True
        )
        rig.start()
        submit_all(rig.env, rig.consumer_engine, long_prompt_requests(start=2.0))
        submit_all(
            rig.env, rig.producer_engine,
            sharegpt_requests(rate=3.0, count=40, seed=7),
        )
        started = time.perf_counter()
        rig.env.run(until=duration)
        wall = time.perf_counter() - started
        return rig.env, wall, rig.consumer_engine.metrics.tokens_generated

    env, wall, spread, tokens = _best_of(once)
    out = _e2e_metrics(env, duration, wall)
    out["wall_s_spread"] = spread
    out["tokens"] = tokens
    out["tokens_per_wall_s"] = tokens / wall
    return out


@scenario
def cluster(quick: bool = False) -> dict:
    """8-GPU NVSwitch stress: four consumer/producer pairs, one fabric."""
    from repro.aqua import Coordinator
    from repro.experiments.harness import build_consumer_rig
    from repro.hardware import Server
    from repro.models import AUDIOGEN, KANDINSKY, OPT_30B, SD_15, SD_XL
    from repro.workloads.arrivals import submit_all
    from repro.workloads.longprompt import long_prompt_requests

    duration = 5.0 if quick else 20.0

    def once():
        env = Environment()
        server = Server(env, n_gpus=8, topology="nvswitch")
        coordinator = Coordinator()
        rigs = []
        for i, producer_model in enumerate((SD_15, SD_XL, KANDINSKY, AUDIOGEN)):
            rigs.append(
                build_consumer_rig(
                    "flexgen",
                    OPT_30B,
                    producer_model=producer_model,
                    use_aqua=True,
                    env=env,
                    server=server,
                    consumer_gpu=i,
                    producer_gpu=4 + i,
                    coordinator=coordinator,
                    name_prefix=f"pair{i}-",
                ).start()
            )
        env.run(until=1.0)  # producers donate before the workload starts
        for rig in rigs:
            submit_all(env, rig.consumer_engine, long_prompt_requests(start=1.0))
        started = time.perf_counter()
        env.run(until=1.0 + duration)
        wall = time.perf_counter() - started
        tokens = sum(r.consumer_engine.metrics.tokens_generated for r in rigs)
        return env, wall, tokens

    env, wall, spread, tokens = _best_of(once)
    out = _e2e_metrics(env, duration, wall)
    out["wall_s_spread"] = spread
    out["tokens"] = tokens
    out["tokens_per_wall_s"] = tokens / wall
    return out


# ---------------------------------------------------------------------------
# The DMA hot loop itself
# ---------------------------------------------------------------------------
def _transfer_storm(rounds: int) -> tuple:
    """Offload-heavy pure-transfer workload on the 8-GPU NVSwitch fabric.

    Four consumer/producer pairs ping-pong gather/fetch payloads over
    the switch (2-hop routes, at 4 events per copy) with periodic PCIe
    spills, while a second process per pair hammers the same route so
    a realistic fraction of copies is *contended*.  Returns
    ``(env, wall_s, transfers)``.
    """
    from repro.hardware import Server

    MiB = float(2**20)
    env = Environment()
    server = Server(env, n_gpus=8, topology="nvswitch")

    def pair_traffic(consumer, producer):
        for i in range(rounds):
            # Gather/scatter offload batch to the producer, fetch back.
            yield from server.transfer(consumer, producer, 64 * MiB, pieces=2)
            yield from server.transfer(producer, consumer, 48 * MiB)
            if i % 4 == 0:  # occasional DRAM spill over PCIe (1-hop)
                yield from server.transfer(consumer, server.dram, 16 * MiB)

    def contender(consumer, producer):
        # Same route as the pair's main traffic: these copies queue
        # behind it in the channels' FIFO order.
        for _ in range(rounds // 2):
            yield from server.transfer(consumer, producer, 8 * MiB)

    for i in range(4):
        env.process(pair_traffic(server.gpus[i], server.gpus[4 + i]))
        env.process(contender(server.gpus[i], server.gpus[4 + i]))

    started = time.perf_counter()
    env.run()
    wall = time.perf_counter() - started
    return env, wall, server.transfer_stats.count


@scenario
def transfer(quick: bool = False) -> dict:
    """The DMA/offload hot loop: a deterministic transfer storm.

    ``transfers_per_s`` — the gated primary metric — is modeled
    transfers retired per wall second, best of ``repeats`` runs.
    """
    rounds = 250 if quick else 1500
    repeats = 3 if quick else E2E_REPEATS

    env, wall, spread, transfers = _best_of(lambda: _transfer_storm(rounds), repeats)
    events = env.events_processed
    return {
        "transfers": transfers,
        "transfers_per_s": transfers / wall,
        "wall_s": wall,
        "wall_s_spread": spread,
        "events": events,
        "events_per_transfer": events / transfers,
        "repeats": repeats,
    }


# ---------------------------------------------------------------------------
# Experiment-layer fan-out + run cache (PR 5)
# ---------------------------------------------------------------------------
def _runall_cell(seed: int = 0, duration: float = 120.0, count: int = 400) -> dict:
    """One experiment cell: the golden offloading rig, seeded traffic.

    Module-level and JSON-kwargs only, so it fans out through the
    experiment pool and memoises in the run cache.  Distinct seeds make
    distinct cells — the shape of a figure ensemble without its cost.
    """
    from repro.experiments.harness import build_consumer_rig
    from repro.models import LLAMA2_13B, OPT_30B
    from repro.workloads.arrivals import submit_all
    from repro.workloads.longprompt import long_prompt_requests
    from repro.workloads.sharegpt import sharegpt_requests

    rig = build_consumer_rig(
        "flexgen", OPT_30B, producer_model=LLAMA2_13B, use_aqua=True
    )
    rig.start()
    submit_all(rig.env, rig.consumer_engine, long_prompt_requests(start=2.0))
    submit_all(
        rig.env,
        rig.producer_engine,
        sharegpt_requests(rate=5.0, count=count, seed=seed),
    )
    rig.env.run(until=duration)
    return {
        "seed": seed,
        "tokens": rig.consumer_engine.metrics.tokens_generated,
        "producer_tokens": rig.producer_engine.metrics.tokens_generated,
    }


@scenario
def runall_parallel(quick: bool = False, jobs: int = 0) -> dict:
    """Experiment fan-out: a fixed cell subset, serial vs pool vs cache.

    Three passes over the same cells: ``--jobs 1`` serial (the
    pre-PR-5 execution model), ``--jobs N`` cold through the process
    pool, and ``--jobs N`` again against the warm content-addressed
    cache.  ``speedup`` is parallel-vs-serial wall clock (bounded by
    the machine's core count — ``cpus`` is recorded alongside so a
    1-core container's ~1x is interpretable); ``warm_speedup`` is
    cold-vs-warm and is the regression-gated primary metric because it
    is nearly hardware-independent.  The three passes must agree
    byte-for-byte (``digests_match``).
    """
    import hashlib
    import json
    import os
    import shutil
    import tempfile

    from repro.experiments.pool import RunCache, RunSpec, derive_seed, run_specs

    cells, duration, count = (4, 60.0, 200) if quick else (8, 120.0, 400)
    parallel_jobs = jobs if jobs and jobs > 1 else 4
    specs = [
        RunSpec(
            task=f"{__name__}:_runall_cell",
            kwargs={"duration": duration, "count": count},
            seed=derive_seed("runall_parallel", i),
            label=f"cell {i}",
        )
        for i in range(cells)
    ]

    def digest(results) -> str:
        payload = json.dumps([r.value for r in results], sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    started = time.perf_counter()
    serial = run_specs(specs, jobs=1)
    serial_wall = time.perf_counter() - started

    cache_dir = tempfile.mkdtemp(prefix="aqua-bench-cache-")
    try:
        cache = RunCache(cache_dir)
        started = time.perf_counter()
        cold = run_specs(specs, jobs=parallel_jobs, cache=cache)
        cold_wall = time.perf_counter() - started

        # The warm wall is ~milliseconds (pure cache replay), so a
        # single-shot measurement is dominated by scheduler jitter on a
        # busy host; replay several times and gate on the best, the
        # same best-of-N methodology the kernel scenario uses.
        warm_repeats = 5
        warm_walls = []
        for _ in range(warm_repeats):
            started = time.perf_counter()
            warm = run_specs(specs, jobs=parallel_jobs, cache=cache)
            warm_walls.append(time.perf_counter() - started)
        warm_wall = min(warm_walls)
        hits, misses = cache.stats.hits, cache.stats.misses
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    return {
        "cells": cells,
        "jobs": parallel_jobs,
        "cpus": os.cpu_count() or 1,
        "serial_wall_s": serial_wall,
        "parallel_wall_s": cold_wall,
        "speedup": serial_wall / cold_wall,
        "warm_wall_s": warm_wall,
        "warm_repeats": warm_repeats,
        "warm_speedup": cold_wall / warm_wall,
        "warm_over_cold_fraction": warm_wall / cold_wall,
        "cache_hits": hits,
        "cache_misses": misses,
        "all_cells_hit_warm": hits == cells * warm_repeats,
        "digests_match": digest(serial) == digest(cold) == digest(warm),
    }
