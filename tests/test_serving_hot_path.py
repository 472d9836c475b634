"""The serving hot path's contracts: identity equality, one KV call per
token, and the skip set of one decode step.

``Request`` and ``SequenceState`` compare and hash by identity, so the
engines' per-token membership tests never compare fields.  vLLM's
decode bookkeeping skips this step's preemption victims through an
identity set; without it a victim later in the batch would append to
its released sequence.
"""

import dataclasses

import pytest

from repro.hardware import Server
from repro.memory import AllocationError, SequenceState
from repro.models import MISTRAL_7B
from repro.serving import CFSEngine, Request, VLLMEngine
from repro.sim import Environment
from repro.workloads.arrivals import submit_all


# ---------------------------------------------------------------------------
# Identity contract
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "make",
    [
        lambda: Request(
            arrival_time=0.0, prompt_tokens=10, max_new_tokens=5, req_id=7
        ),
        lambda: SequenceState(seq_id=7, tokens=10, blocks=[0]),
    ],
    ids=["Request", "SequenceState"],
)
def test_equality_is_identity(make):
    x = make()
    twin = dataclasses.replace(x)
    assert x == x
    assert x != twin  # equal fields, different objects
    members = {x, twin}
    assert len(members) == 2
    assert x in members and twin in members
    members.discard(twin)
    assert members == {x}


def test_list_remove_takes_the_identical_request():
    a = Request(arrival_time=0.0, prompt_tokens=10, max_new_tokens=5, req_id=1)
    b = dataclasses.replace(a)
    running = [a, b]
    running.remove(b)
    assert running[0] is a


# ---------------------------------------------------------------------------
# vLLM: aborts and preemptions inside one decode step
# ---------------------------------------------------------------------------
def make_vllm_with_blocks(n_blocks, model=MISTRAL_7B):
    env = Environment()
    server = Server(env, n_gpus=1, topology="p2p")
    engine = VLLMEngine(server.gpus[0], server, model)
    engine.allocator.shrink_any(engine.allocator.n_blocks - n_blocks)
    assert engine.allocator.n_blocks == n_blocks
    return env, engine


def test_vllm_lone_sequence_outgrowing_kv_aborts_once():
    """A lone sequence runs out of KV with nothing to preempt.

    The cache holds 10 blocks (160 tokens); the 100-token prompt's 61st
    decode append needs an 11th block.  The abort must end the request
    exactly once, with that step's token, and release every block.
    """
    env, engine = make_vllm_with_blocks(10)
    request = Request(arrival_time=0.0, prompt_tokens=100, max_new_tokens=500)
    engine.start()
    submit_all(env, engine, [request])
    env.run(until=60)

    assert request.done
    assert request.generated_tokens == request.max_new_tokens == 62
    assert engine.metrics.completed == [request]
    assert engine.metrics.tokens_generated == 62
    assert engine.preemptions == 0
    assert engine.running == []
    assert request.req_id not in engine.kv.sequences
    assert engine.allocator.used_blocks == 0
    assert engine.allocator.free_blocks == 10


def test_vllm_skips_a_victim_preempted_earlier_in_the_same_step():
    """The youngest sequence sits last in the batch, so when an older
    one runs out of KV the victim is still ahead in the same step's
    loop.  It must be skipped there, not appended to after its blocks
    were released, and later recompute to its exact token budget."""
    env, engine = make_vllm_with_blocks(12)
    requests = [
        Request(arrival_time=0.01 * i, prompt_tokens=48, max_new_tokens=40)
        for i in range(3)
    ]
    engine.start()
    submit_all(env, engine, requests)
    env.run(until=120)

    assert engine.preemptions > 0
    assert all(r.done for r in requests)
    assert all(r.generated_tokens == r.max_new_tokens for r in requests)
    assert engine.metrics.tokens_generated == sum(r.max_new_tokens for r in requests)
    assert len(engine.metrics.completed) == 3
    assert engine.allocator.used_blocks == 0
    assert engine.allocator.free_blocks == 12


# ---------------------------------------------------------------------------
# CFS: a refused append inside a budgeted slice is an error
# ---------------------------------------------------------------------------
def test_cfs_refused_append_raises_instead_of_dropping_the_token():
    env = Environment()
    server = Server(env, n_gpus=1, topology="p2p")
    engine = CFSEngine(server.gpus[0], server, MISTRAL_7B)
    engine.kv.append_token = lambda seq_id: False  # a budget bug
    engine.start()
    submit_all(
        env, engine, [Request(arrival_time=0.0, prompt_tokens=50, max_new_tokens=20)]
    )
    with pytest.raises(AllocationError, match="budgeted slice"):
        env.run(until=10)
