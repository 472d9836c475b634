"""Time-warp decode coarsening (PR 7): fidelity and event savings.

``decode_coarsen=k`` fuses up to ``k`` per-token decode steps of a
frozen batch into one aggregate compute event whose duration is the
*exact sum* of the per-step roofline times, then replays the per-token
bookkeeping at the window end.  The contract tested here:

* modelled outcomes (token totals, completions — and, whenever the
  batch composition is pinned, completion *times*) match the exact
  per-token path;
* the kernel retires strictly fewer events, which is the whole point;
* windows clamp to the boundaries that carry semantics: request
  completion, ``inform_every``, CFS slice budgets, FlexGen
  ``respond_every``;
* ``decode_coarsen=1`` (the default) takes the original code path —
  byte-identical behaviour is locked down by the golden digest in
  ``tests/test_determinism_golden.py``.
"""

import pytest

from repro.experiments.harness import build_consumer_rig
from repro.hardware import Server
from repro.models import KANDINSKY, MISTRAL_7B, OPT_30B, SD_15
from repro.serving import (
    BatchEngine,
    CFSEngine,
    FlexGenEngine,
    OrcaEngine,
    Request,
    VLLMEngine,
)
from repro.sim import Environment
from repro.workloads.arrivals import submit_all
from repro.workloads.sharegpt import sharegpt_requests


def make_server(n_gpus=1):
    env = Environment()
    return env, Server(env, n_gpus=n_gpus, topology="p2p")


def closed_batch(n, prompt=100, gen=40):
    """All arrivals at t=0 with equal lengths: the batch composition is
    frozen for the whole run, so coarsened timings must match exactly."""
    return [
        Request(arrival_time=0.0, prompt_tokens=prompt, max_new_tokens=gen)
        for _ in range(n)
    ]


def finish_times(requests):
    return [r.finish_time for r in requests]


# ---------------------------------------------------------------------------
# vLLM
# ---------------------------------------------------------------------------
def run_vllm(coarsen, requests):
    env, server = make_server()
    engine = VLLMEngine(
        server.gpus[0], server, MISTRAL_7B, decode_coarsen=coarsen
    )
    engine.start()
    submit_all(env, engine, requests)
    env.run(until=600)
    return env, engine


def test_vllm_coarsened_run_matches_exact_run():
    exact_reqs, coarse_reqs = closed_batch(12), closed_batch(12)
    env1, e1 = run_vllm(1, exact_reqs)
    env8, e8 = run_vllm(8, coarse_reqs)
    assert all(r.done for r in exact_reqs) and all(r.done for r in coarse_reqs)
    assert e8.metrics.tokens_generated == e1.metrics.tokens_generated
    # Frozen batch: window durations are exact sums of the per-step
    # roofline times, so completion times agree to float precision.
    for a, b in zip(finish_times(exact_reqs), finish_times(coarse_reqs)):
        assert b == pytest.approx(a, rel=1e-9)
    # ~8x fewer decode events is the payoff.
    assert env8.events_processed < env1.events_processed


def test_vllm_coarsening_with_open_arrivals_still_completes():
    """Open arrivals change batch composition between windows; totals
    must still be exact even though per-token timestamps may shift."""
    exact_reqs = sharegpt_requests(rate=5, count=20, seed=3)
    coarse_reqs = sharegpt_requests(rate=5, count=20, seed=3)
    _, e1 = run_vllm(1, exact_reqs)
    _, e8 = run_vllm(8, coarse_reqs)
    assert all(r.done for r in coarse_reqs)
    assert e8.metrics.tokens_generated == e1.metrics.tokens_generated
    assert len(e8.metrics.completed) == len(e1.metrics.completed)


def test_vllm_window_clamps_to_remaining_tokens():
    """decode_coarsen far beyond max_new_tokens must not overshoot."""
    reqs = closed_batch(4, gen=5)
    _, engine = run_vllm(64, reqs)
    assert all(r.done for r in reqs)
    assert all(r.generated_tokens == 5 for r in reqs)
    assert engine.metrics.tokens_generated == 20


def test_vllm_preemption_survives_coarsening():
    """KV exhaustion mid-run: lazy repair at window boundaries must not
    break the preempt/resume machinery."""
    env, server = make_server()
    from repro.models import CODELLAMA_34B

    engine = VLLMEngine(
        server.gpus[0], server, CODELLAMA_34B, decode_coarsen=8
    )
    engine.start()
    requests = [
        Request(arrival_time=0.0, prompt_tokens=2000, max_new_tokens=4000)
        for _ in range(10)
    ]
    submit_all(env, engine, requests)
    env.run(until=1200)
    assert engine.preemptions > 0
    assert all(r.done for r in requests)


# ---------------------------------------------------------------------------
# Orca
# ---------------------------------------------------------------------------
def test_orca_coarsened_run_matches_exact_run():
    def run(coarsen):
        env, server = make_server()
        engine = OrcaEngine(
            server.gpus[0], server, MISTRAL_7B, decode_coarsen=coarsen
        )
        engine.start()
        reqs = closed_batch(8)
        submit_all(env, engine, reqs)
        env.run(until=600)
        return env, engine, reqs

    env1, e1, r1 = run(1)
    env8, e8, r8 = run(8)
    assert all(r.done for r in r1) and all(r.done for r in r8)
    assert e8.metrics.tokens_generated == e1.metrics.tokens_generated
    for a, b in zip(finish_times(r1), finish_times(r8)):
        assert b == pytest.approx(a, rel=1e-9)
    assert env8.events_processed < env1.events_processed


# ---------------------------------------------------------------------------
# CFS
# ---------------------------------------------------------------------------
def test_cfs_coarsened_run_matches_exact_run():
    """Coarse windows never cross a slice boundary, so scheduling
    decisions — and therefore times — are identical for any workload."""

    def run(coarsen):
        env, server = make_server()
        engine = CFSEngine(
            server.gpus[0],
            server,
            MISTRAL_7B,
            use_aqua=False,
            slice_tokens=5,
            decode_coarsen=coarsen,
        )
        engine.start()
        reqs = [
            Request(arrival_time=i * 0.2, prompt_tokens=200, max_new_tokens=30)
            for i in range(10)
        ]
        submit_all(env, engine, reqs)
        env.run(until=600)
        return env, engine, reqs

    env1, e1, r1 = run(1)
    env8, e8, r8 = run(8)
    assert all(r.done for r in r1) and all(r.done for r in r8)
    assert e8.metrics.tokens_generated == e1.metrics.tokens_generated
    assert e8.slices_run == e1.slices_run
    for a, b in zip(finish_times(r1), finish_times(r8)):
        assert b == pytest.approx(a, rel=1e-9)
    assert env8.events_processed < env1.events_processed


# ---------------------------------------------------------------------------
# FlexGen
# ---------------------------------------------------------------------------
def test_flexgen_coarsened_run_matches_exact_run():
    from repro.aqua import AquaLib, Coordinator

    def run(coarsen):
        env, server = make_server(n_gpus=2)
        coord = Coordinator()
        lib = AquaLib(server.gpus[0], server, coord)
        engine = FlexGenEngine(
            server.gpus[0],
            server,
            OPT_30B,
            aqua_lib=lib,
            workspace_tokens=8000,
            decode_coarsen=coarsen,
        )
        engine.start()
        reqs = [
            Request(arrival_time=0.0, prompt_tokens=3000, max_new_tokens=48)
            for _ in range(2)
        ]
        submit_all(env, engine, reqs)
        env.run(until=900)
        return env, engine, reqs

    env1, e1, r1 = run(1)
    env8, e8, r8 = run(8)
    assert all(r.done for r in r1) and all(r.done for r in r8)
    assert e8.metrics.tokens_generated == e1.metrics.tokens_generated
    for a, b in zip(finish_times(r1), finish_times(r8)):
        assert b == pytest.approx(a, rel=1e-9)
    assert env8.events_processed < env1.events_processed
    # Window ends are clamped to respond_every boundaries, so the
    # streaming-response cadence is unchanged.
    assert all(r.generated_tokens == 48 for r in r8)


# ---------------------------------------------------------------------------
# BatchEngine (producer-side analogue)
# ---------------------------------------------------------------------------
def test_batch_engine_coarsened_backlog_matches_exact_run():
    def run(coarsen):
        env, server = make_server()
        engine = BatchEngine(
            server.gpus[0], server, SD_15, batch_size=8, decode_coarsen=coarsen
        )
        engine.start()
        reqs = [
            Request(arrival_time=0.0, prompt_tokens=1, max_new_tokens=1)
            for _ in range(32)
        ]
        submit_all(env, engine, reqs)
        env.run(until=600)
        return env, engine, reqs

    env1, e1, r1 = run(1)
    env4, e4, r4 = run(4)
    assert all(r.done for r in r1) and all(r.done for r in r4)
    assert e4.batches_run == e1.batches_run == 4
    assert len(e4.metrics.completed) == len(e1.metrics.completed) == 32
    # The last batch of the window finishes at the same modelled time;
    # earlier batches inside a window are stamped at the window end (the
    # documented fidelity trade).
    assert max(finish_times(r4)) == pytest.approx(max(finish_times(r1)), rel=1e-9)
    assert env4.events_processed < env1.events_processed


def test_batch_engine_partial_backlog_takes_exact_path():
    """Below two full batches the coarse branch never engages, so the
    per-batch path (and its timestamps) is untouched."""
    env, server = make_server()
    engine = BatchEngine(
        server.gpus[0], server, KANDINSKY, batch_size=8, decode_coarsen=4
    )
    engine.start()
    reqs = [
        Request(arrival_time=0.0, prompt_tokens=1, max_new_tokens=1)
        for _ in range(8)
    ]
    submit_all(env, engine, reqs)
    env.run(until=300)
    assert all(r.done for r in reqs)
    assert engine.batches_run == 1


# ---------------------------------------------------------------------------
# Validation + harness threading
# ---------------------------------------------------------------------------
def test_invalid_decode_coarsen_rejected():
    env, server = make_server()
    with pytest.raises(ValueError, match="decode_coarsen"):
        VLLMEngine(server.gpus[0], server, MISTRAL_7B, decode_coarsen=0)
    with pytest.raises(ValueError, match="decode_coarsen"):
        BatchEngine(server.gpus[0], server, SD_15, decode_coarsen=-1)


def test_harness_threads_decode_coarsen():
    rig = build_consumer_rig(
        "vllm",
        MISTRAL_7B,
        producer_model=SD_15,
        use_aqua=True,
        decode_coarsen=4,
    )
    assert rig.consumer_engine.decode_coarsen == 4
    assert rig.producer_engine.decode_coarsen == 4


def test_harness_defaults_stay_exact():
    rig = build_consumer_rig("vllm", MISTRAL_7B, use_aqua=False)
    assert rig.consumer_engine.decode_coarsen == 1
