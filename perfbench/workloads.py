"""The four benchmark workloads, driven only through public ``repro`` APIs.

A workload turns a seed into a pre-generated input trace (in simulated
time), builds fresh rigs from it, and runs *passes*.  One pass is one
complete modelled job: a simulation drained until every request has
finished, sliced into one-simulated-second steps with public
``env.run(until=t+1)``, or the fig14 family of ``AquaPlacer.place``
solves, one step per solve.  Every pass yields a :class:`PassResult`
carrying host timings, the modelled-output digest and the invariant
failures found.

Workloads
---------
``vllm_batch``
    ``VLLMEngine`` serving Mistral-7B on one GPU, no AQUA; a ShareGPT
    Poisson trace offered near saturation.
``cfs_aqua``
    The ``aqua`` arm of ``run_scheduler_comparison``: a CFS consumer
    (CodeLlama-34B, ``slice_tokens=5``) paired with a Kandinsky producer
    over 2-GPU NVLink, fed the Fig 1/9 code-summary burst.
``nvswitch_observed``
    The Fig 18 rig: four FlexGen OPT-30B consumers paired with
    SD/SD-XL/Kandinsky/AudioGen producers on one 8-GPU NVSwitch server,
    with telemetry and a 1 s metric scrape on (the ``--dashboard`` path).
``placer_milp``
    ``AquaPlacer.place`` on the fig14 instance family (16/32/64 GPUs,
    mixed-modality and 50/50) that ``aqua-repro all`` solves.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

from repro.aqua import AquaPlacer, Coordinator, ModelInstance
from repro.audit import ConservationAuditor
from repro.experiments.harness import build_consumer_rig
from repro.hardware import Server
from repro.hardware.specs import GiB
from repro.models import (
    AUDIOGEN,
    CODELLAMA_34B,
    KANDINSKY,
    MISTRAL_7B,
    OPT_30B,
    SD_15,
    SD_XL,
)
from repro.serving import Request, VLLMEngine
from repro.sim import Environment
from repro.workloads.arrivals import poisson_arrival_times, submit_all
from repro.workloads.codesummary import CODE_PROMPT, CODE_RESPONSE
from repro.workloads.longprompt import PAPER_PROMPT_TOKENS
from repro.workloads.sharegpt import (
    SHAREGPT_PROMPT,
    SHAREGPT_RESPONSE,
    LengthDistribution,
)
from speed import WINDOW, HostSpeed

#: Seed whose digests are pinned in ``reference.json``.
DEFAULT_SEED = 0

#: Length of one step in simulated seconds.
STEP_S = 1.0


@dataclass
class PassResult:
    """Host timings and modelled outputs of one pass."""

    #: Raw host seconds of each step.
    step_s: list[float]
    #: The same, rescaled to reference host speed (see ``speed.py``).
    scaled_s: list[float]
    ops: int
    digest: str
    #: Ops that broke an invariant (incomplete, wrong token count,
    #: placement over capacity, solve that hit the wall-clock limit).
    failed_ops: int = 0
    notes: list[str] = field(default_factory=list)
    #: Public objects the traced run reads its counters from.
    handles: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.step_s)

    @property
    def scaled_wall_s(self) -> float:
        return sum(self.scaled_s)


class Digest:
    """SHA-256 over modelled outputs, fed in a fixed order."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def add(self, *fields) -> None:
        self._sha.update(("|".join(repr(f) for f in fields) + "\n").encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def request_digest(requests: list[Request], transfer_stats=()) -> str:
    """Digest of a drained simulation.

    Requests are keyed by their index in arrival order, never by
    ``Request.req_id``: ids come from a process-global counter, so they
    depend on whatever ran earlier in the process.
    """
    d = Digest()
    for index, r in enumerate(requests):
        d.add("R", index, r.ttft, r.finish_time, r.generated_tokens)
    for stats in transfer_stats:
        d.add("T", stats.count, stats.bytes_total)
        for route in sorted(stats.per_route):
            d.add("route", route, stats.per_route[route])
    return d.hexdigest()


def request_failures(requests: list[Request]) -> int:
    """Requests that did not complete with exactly their token budget."""
    return sum(
        1
        for r in requests
        if r.finish_time is None or r.generated_tokens != r.max_new_tokens
    )


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------
@dataclass
class SimRig:
    """One freshly built simulation, ready for its timed drain."""

    env: Environment
    servers: list
    #: Every request of the input trace, in arrival order.
    requests: list[Request]
    #: Engines whose ``metrics.completed`` count the trace's completions.
    consumers: list
    engines: list
    coordinator: Optional[Coordinator] = None
    hubs: list = field(default_factory=list)
    auditor: Optional[ConservationAuditor] = None


class SimWorkload:
    """A simulation drained to completion in one-second steps.

    ``trace`` is a list of plain tuples generated from the seed; every
    pass builds fresh :class:`Request` objects from it, so passes in one
    process model identical work.
    """

    #: Simulated-time cap on one drain; a pass that reaches it leaves
    #: requests incomplete, which counts them as failed.
    horizon_s = 3600.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.trace = self.make_trace(seed)

    def make_trace(self, seed: int) -> list[tuple]:
        raise NotImplementedError

    def build(self, audit: bool = False) -> SimRig:
        raise NotImplementedError

    @property
    def ops(self) -> int:
        return len(self.trace)

    def run_pass(self, rig: SimRig, single_run: bool = False) -> PassResult:
        """Drain ``rig``; ``single_run`` replaces the 1 s slicing with one
        ``env.run(until=horizon)`` (used to check the slicing is inert)."""
        env = rig.env
        total = len(rig.requests)
        consumers = rig.consumers
        step_s: list[float] = []
        scaled_s: list[float] = []
        speed = HostSpeed()
        clock = time.perf_counter
        if single_run:
            t0 = clock()
            env.run(until=self.horizon_s)
            step_s.append(clock() - t0)
            scaled_s.append(step_s[-1] * speed.scale())
        else:
            while env.now < self.horizon_s:
                if sum(len(e.metrics.completed) for e in consumers) >= total:
                    break
                scale = speed.scale()
                t0 = clock()
                env.run(until=env.now + STEP_S)
                step_s.append(clock() - t0)
                scaled_s.append(step_s[-1] * scale)
                speed.maybe_probe()
        notes = []
        failed = request_failures(rig.requests)
        if failed:
            notes.append(f"{failed} request(s) incomplete or off-budget")
        if rig.auditor is not None:
            rig.auditor.check("final")
            violations = rig.auditor.report().violations
            if violations:
                # A pass that breaks conservation is wrong throughout.
                notes.append(f"audit: {len(violations)} violation(s)")
                failed = total
        digest = request_digest(
            rig.requests, [server.transfer_stats for server in rig.servers]
        )
        return PassResult(
            step_s=step_s,
            scaled_s=scaled_s,
            ops=total,
            digest=digest,
            failed_ops=failed,
            notes=notes,
            handles={"rig": rig},
        )

    def _audit(self, env: Environment, servers, coordinator=None) -> ConservationAuditor:
        auditor = ConservationAuditor(env)
        for server in servers:
            auditor.attach_server(server)
        if coordinator is not None:
            auditor.attach_coordinator(coordinator)
        auditor.watch(interval=STEP_S)
        return auditor


def stratified_lengths(dist: LengthDistribution, count: int) -> list[int]:
    """``count`` lengths at the quantile midpoints of a workload length
    distribution (a clipped lognormal): one fixed multiset per size."""
    normal = NormalDist()
    lengths = []
    for i in range(count):
        z = normal.inv_cdf((i + 0.5) / count)
        value = round(math.exp(dist.mean_log + dist.sigma_log * z))
        lengths.append(int(np.clip(value, dist.minimum, dist.maximum)))
    return lengths


def stratified_trace(
    seed: int,
    rate: float,
    count: int,
    prompt: LengthDistribution,
    response: LengthDistribution,
) -> list[tuple]:
    """A Poisson trace of ``(arrival, prompt, response)`` tuples.

    Every seed draws the same multiset of prompt lengths and of response
    lengths (see :func:`stratified_lengths`); the seed sets how they pair
    up, their order and the arrival times.  Sampling the lengths freely
    instead made the modelled work, and so the host time, differ by more
    than 10% between seeds.
    """
    rng = np.random.default_rng(seed)
    prompts = stratified_lengths(prompt, count)
    responses = stratified_lengths(response, count)
    rng.shuffle(prompts)
    rng.shuffle(responses)
    times = poisson_arrival_times(rng, rate, count)
    return list(zip(times, prompts, responses))


def _requests(trace: list[tuple]) -> list[Request]:
    return [
        Request(arrival_time=t, prompt_tokens=p, max_new_tokens=n) for t, p, n in trace
    ]


class VLLMBatch(SimWorkload):
    """vLLM continuous batching on one GPU; serving and KV bookkeeping
    dominate, DMA/AQUA/telemetry/placer are bypassed."""

    def __init__(self, seed: int, rate: float = 20.0, count: int = 1500) -> None:
        self.rate, self.count = rate, count
        super().__init__(seed)

    def make_trace(self, seed: int) -> list[tuple]:
        return stratified_trace(
            seed, self.rate, self.count, SHAREGPT_PROMPT, SHAREGPT_RESPONSE
        )

    def build(self, audit: bool = False) -> SimRig:
        env = Environment()
        server = Server(env, n_gpus=1)
        engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)
        engine.start()
        requests = _requests(self.trace)
        submit_all(env, engine, requests)
        return SimRig(
            env=env,
            servers=[server],
            requests=requests,
            consumers=[engine],
            engines=[engine],
            auditor=self._audit(env, [server]) if audit else None,
        )


class CFSAqua(SimWorkload):
    """The paper's headline system: CFS context switches swap KV out to
    the producer's HBM and back through AQUA-LIB, the coordinator and
    DMA."""

    def __init__(self, seed: int, rate: float = 5.0, count: int = 400) -> None:
        self.rate, self.count = rate, count
        super().__init__(seed)

    def make_trace(self, seed: int) -> list[tuple]:
        return stratified_trace(seed, self.rate, self.count, CODE_PROMPT, CODE_RESPONSE)

    def build(self, audit: bool = False) -> SimRig:
        # Mirrors the "aqua" arm of run_scheduler_comparison.
        env = Environment()
        server = Server(env, n_gpus=2, topology="p2p")
        rig = build_consumer_rig(
            "cfs",
            CODELLAMA_34B,
            producer_model=KANDINSKY,
            use_aqua=True,
            env=env,
            server=server,
            consumer_kwargs={"slice_tokens": 5},
            audit=audit,
            audit_interval=STEP_S,
        ).start()
        rig.warm_up(1.0)
        requests = _requests(self.trace)
        submit_all(env, rig.consumer_engine, requests)
        return SimRig(
            env=env,
            servers=[server],
            requests=requests,
            consumers=[rig.consumer_engine],
            engines=[rig.consumer_engine, rig.producer_engine],
            coordinator=rig.coordinator,
            auditor=rig.auditor,
        )


class NVSwitchObserved(SimWorkload):
    """Fig 18 on one 8-GPU NVSwitch server with full telemetry and a 1 s
    scrape; the kernel, DMA and telemetry carry the cost.

    Each consumer runs ``jobs`` long-prompt jobs back to back.  The seed
    splits a fixed per-consumer token budget into the jobs' lengths, so
    every seed models the same amount of decoding.
    """

    PRODUCERS = (SD_15, SD_XL, KANDINSKY, AUDIOGEN)

    def __init__(
        self,
        seed: int,
        jobs: int = 4,
        tokens_per_consumer: int = 4400,
    ) -> None:
        self.jobs = jobs
        self.tokens_per_consumer = tokens_per_consumer
        super().__init__(seed)

    def make_trace(self, seed: int) -> list[tuple]:
        rng = np.random.default_rng(seed)
        trace = []
        for _consumer in self.PRODUCERS:
            # Split the budget at jobs-1 random cut points; each job keeps
            # at least a tenth of an equal share.
            floor = max(1, self.tokens_per_consumer // (10 * self.jobs))
            spare = self.tokens_per_consumer - floor * self.jobs
            cuts = np.sort(rng.integers(0, spare + 1, size=self.jobs - 1))
            shares = np.diff(np.concatenate(([0], cuts, [spare])))
            trace.extend(
                (1.0, PAPER_PROMPT_TOKENS, int(floor + s)) for s in shares
            )
        return trace

    def build(self, audit: bool = False) -> SimRig:
        env = Environment()
        server = Server(env, n_gpus=8, topology="nvswitch")
        coordinator = Coordinator()
        rigs = []
        for i, producer_model in enumerate(self.PRODUCERS):
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
                    telemetry=True,
                    scrape_interval=1.0,
                ).start()
            )
        env.run(until=1.0)  # producers donate before the workload starts
        requests = _requests(self.trace)
        for i, rig in enumerate(rigs):
            submit_all(
                env,
                rig.consumer_engine,
                requests[i * self.jobs : (i + 1) * self.jobs],
            )
        consumers = [rig.consumer_engine for rig in rigs]
        return SimRig(
            env=env,
            servers=[server],
            requests=requests,
            consumers=consumers,
            engines=consumers + [rig.producer_engine for rig in rigs],
            coordinator=coordinator,
            hubs=[rig.telemetry for rig in rigs],
            auditor=self._audit(env, [server], coordinator) if audit else None,
        )


# ---------------------------------------------------------------------------
# Placer workload
# ---------------------------------------------------------------------------
def fig14_instances(gpu_counts) -> list[tuple[int, int, list[ModelInstance]]]:
    """The fig14 instance family, in solve order, as
    ``(n_servers, gpus_per_server, instances)``: the same draws as
    ``repro.experiments.figures.fig14_placer_convergence`` at its default
    seed, which is what ``aqua-repro all`` solves."""
    gpus_per_server = 8
    rng = np.random.default_rng(0)
    family = []
    for n_gpus in gpu_counts:
        n_servers = n_gpus // gpus_per_server
        mixed = []
        for i in range(n_gpus):
            kind = i % 3
            if kind == 0:
                mem = int(rng.integers(30, 60)) * GiB
                mixed.append(ModelInstance(f"img-{i}", "SD", mem))
            elif kind == 1:
                mem = int(rng.integers(30, 60)) * GiB
                mixed.append(ModelInstance(f"aud-{i}", "AudioGen", mem))
            else:
                mem = -int(rng.integers(10, 40)) * GiB
                mixed.append(ModelInstance(f"llm-{i}", "Llama", mem))
        half = [
            ModelInstance(f"prod-{i}", "Llama", 20 * GiB)
            if i % 2 == 0
            else ModelInstance(f"cons-{i}", "Llama", -20 * GiB)
            for i in range(n_gpus)
        ]
        family.append((n_servers, gpus_per_server, mixed))
        family.append((n_servers, gpus_per_server, half))
    return family


class PlacerMilp:
    """The fig14 MILP family; one step is one ``place()`` call.

    The instance family is the fixed one ``aqua-repro all`` solves, and
    the seed does not change it: at 64 GPUs the HiGHS branch-and-bound
    effort swings several-fold between instance seeds, so a seeded
    family would measure the seed rather than the code.
    """

    def __init__(self, seed: int, gpu_counts=(16, 32, 64)) -> None:
        self.seed = seed
        self.family = fig14_instances(gpu_counts)
        # The first solve in a process imports SciPy's MILP stack (about
        # 0.5 s), which ``aqua-repro all`` pays once; pay it in set-up.
        AquaPlacer(n_servers=1, gpus_per_server=2).place([
            ModelInstance("warm-up-producer", "SD", 10 * GiB),
            ModelInstance("warm-up-consumer", "Llama", -10 * GiB),
        ])

    @property
    def ops(self) -> int:
        return len(self.family)

    def build(self, audit: bool = False) -> list:
        return [
            (AquaPlacer(n_servers=s, gpus_per_server=g), instances)
            for s, g, instances in self.family
        ]

    def run_pass(self, rig: list, single_run: bool = False) -> PassResult:
        clock = time.perf_counter
        step_s, scaled_s, placements = [], [], []
        speed = HostSpeed()
        for placer, instances in rig:
            # A solve is too long to interleave probes with: rescale it
            # by the mean speed of probe bursts just before and after.
            speed.probe(WINDOW)
            before = speed.scale()
            t0 = clock()
            placements.append(placer.place(instances))
            step_s.append(clock() - t0)
            speed.probe(WINDOW)
            scaled_s.append(step_s[-1] * (before + speed.scale()) / 2)
        d = Digest()
        failed, notes = 0, []
        for (placer, instances), placement in zip(rig, placements):
            d.add("P", len(instances), placement.objective, sorted(placement.pairs))
            crowded = [
                s
                for s in range(placer.n_servers)
                if len(placement.models_on_server(s)) > placer.gpus_per_server
            ]
            # A solve stopped by the wall-clock limit returns whatever
            # incumbent it held, so its placement depends on host speed.
            timed_out = (
                placer.time_limit is not None
                and placement.solve_seconds >= placer.time_limit
            )
            if crowded or timed_out:
                failed += 1
                notes.append(
                    f"{len(instances)} models: over-capacity servers {crowded}"
                    if crowded
                    else f"{len(instances)} models: solve hit the time limit"
                )
        return PassResult(
            step_s=step_s,
            scaled_s=scaled_s,
            ops=len(rig),
            digest=d.hexdigest(),
            failed_ops=failed,
            notes=notes,
            handles={"placements": placements},
        )


WORKLOADS: dict[str, Callable[[int], object]] = {
    "vllm_batch": VLLMBatch,
    "cfs_aqua": CFSAqua,
    "nvswitch_observed": NVSwitchObserved,
    "placer_milp": PlacerMilp,
}


def score(result: PassResult, expected_digest: Optional[str]) -> int:
    """Failed ops of one pass: its invariant failures, or every op when
    the digest differs from the one expected."""
    if expected_digest is not None and result.digest != expected_digest:
        result.notes.append(
            f"digest {result.digest[:12]} != expected {expected_digest[:12]}"
        )
        return result.ops
    return result.failed_ops
