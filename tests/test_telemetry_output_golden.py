"""Pins what telemetry itself emits, not only that it is inert.

The determinism goldens (``test_determinism_golden.py``) and
``test_telemetry_is_observation_only`` prove that telemetry does not
perturb the simulation.  This module pins the telemetry *output*: the
scrape store (key order included), the flight recorder's ring and
bundles, the Prometheus text, the attribution report, and every span
and flow of one small telemetered rig.  The digest was recorded before
the scrape plan and bound children replaced the per-event label lookups
and the per-scrape walk over ``Family.samples()``; a mismatch means the
hot path changed what an operator sees.

It also checks the scrape plan against that old walk, kept here as the
oracle.
"""

import hashlib
import itertools

import pytest

import repro.aqua.tensor as aqua_tensor_module
import repro.memory.tensor as memory_tensor_module
import repro.serving.request as request_module
from repro.experiments.harness import build_consumer_rig
from repro.faults import DmaStall, FaultInjector, FaultSchedule
from repro.models import LLAMA2_13B, OPT_30B
from repro.sim import Environment
from repro.telemetry.registry import Registry
from repro.telemetry.slo import default_slo_policy
from repro.telemetry.timeseries import MetricScraper, RingSeries, sample_key
from repro.workloads.arrivals import submit_all
from repro.workloads.longprompt import long_prompt_requests
from repro.workloads.sharegpt import sharegpt_requests

#: SHA-256 over ``repr`` of the output of :func:`_telemetry_output`.
GOLDEN_OUTPUT_DIGEST = "95c65d87bc4710f8832e910d1b3064749ff606b44e0dc822ad5151e9dfad00b3"


def _telemetry_output() -> dict:
    rig = build_consumer_rig(
        "flexgen",
        OPT_30B,
        producer_model=LLAMA2_13B,
        use_aqua=True,
        telemetry=True,
        scrape_interval=0.5,
        slo_policy=default_slo_policy(),
    )
    injector = FaultInjector(
        rig.server, coordinator=rig.coordinator, telemetry=rig.telemetry
    )
    injector.install(
        FaultSchedule([DmaStall(at=8.0, channel="nvlink:gpu1->gpu0", duration=2.0)])
    )
    rig.start()

    def bulk_copies():
        # A copy that competes with AQUA-LIB for the NVLink, so some
        # transfers wait for a grant and link contention is emitted.
        gpus = rig.server.gpus
        for i in range(4):  # done before the stall at t=8
            yield rig.env.timeout(1.5)
            yield from rig.server.transfer(gpus[i % 2], gpus[1 - i % 2], 8 * 2**30)

    rig.env.process(bulk_copies())
    submit_all(
        rig.env, rig.consumer_engine, long_prompt_requests(start=2.0, max_new_tokens=40)
    )
    submit_all(
        rig.env, rig.producer_engine, sharegpt_requests(rate=3.0, count=30, seed=7)
    )
    rig.env.run(until=20.0)
    tm = rig.telemetry
    return {
        "scrape": tm.scraper.to_dict(),
        "recorder": tm.recorder.to_dict(),
        "slo": tm.slo.report(),
        "prometheus": tm.prometheus_text(),
        "attribution": tm.attribution_report(),
        "spans": [(s.name, s.track, s.start, s.end, s.args) for s in tm.tracer.spans],
        "flows": [
            (f.name, f.track, f.time, f.flow_id, f.phase, f.args)
            for f in tm.tracer.flows
        ],
        "instants": [(i.name, i.track, i.time, i.args) for i in tm.tracer.instants],
    }


@pytest.fixture
def fresh_ids(monkeypatch):
    """Request and tensor ids come from process-global counters; restart
    them so spans, flows and attribution entries do not depend on what
    ran earlier in the process."""
    monkeypatch.setattr(request_module, "_REQUEST_IDS", itertools.count())
    monkeypatch.setattr(aqua_tensor_module, "_AQUA_TENSOR_IDS", itertools.count())
    monkeypatch.setattr(memory_tensor_module, "_TENSOR_IDS", itertools.count())


def test_telemetry_output_matches_golden(fresh_ids):
    output = _telemetry_output()
    # The scenario must exercise every output it pins.
    assert output["scrape"]["scrapes"] >= 30
    assert output["recorder"]["ring"] and output["recorder"]["bundles"]
    assert output["spans"] and output["flows"]
    assert output["attribution"]["count"] > 0
    assert any(k.startswith("aqua_link_contention") for k in output["scrape"]["series"])
    digest = hashlib.sha256(repr(output).encode()).hexdigest()
    assert digest == GOLDEN_OUTPUT_DIGEST


# ---------------------------------------------------------------------------
# The scrape plan against the old walk over Family.samples()
# ---------------------------------------------------------------------------
def _oracle_scrape(registry: Registry, store: dict, now: float) -> None:
    """The scrape as it was before the plan: every family, every sample,
    a key rendered per sample, buckets skipped."""
    for family in registry.collect():
        for name, labels, value in family.samples():
            if name.endswith("_bucket"):
                continue
            key = sample_key(name, labels)
            series = store.get(key)
            if series is None:
                series = store[key] = RingSeries(key)
            series.append(now, value)


def test_scrape_plan_picks_up_children_created_after_first_scrape():
    env = Environment()
    registry = Registry()
    tokens = registry.counter("toy_tokens_total", "tokens", ["engine"])
    depth = registry.gauge("toy_depth", "depth")
    latency = registry.histogram("toy_latency_seconds", "latency", ["engine"],
                                 buckets=(0.1, 1.0))
    tokens.labels(engine="b").inc(1.0)
    depth.set(3.0)
    scraper = MetricScraper(env, registry)
    oracle: dict = {}

    def scrape_both(now):
        scraper.scrape(now)
        _oracle_scrape(registry, oracle, now)

    scrape_both(0.0)
    # New children after the first scrape, one sorting before the
    # existing "b" child, plus a histogram child and a late family.
    tokens.labels(engine="a").inc(2.0)
    latency.labels(engine="a").observe(0.5)
    scrape_both(1.0)
    late = registry.counter("toy_late_total", "late", ["slo"])
    late.labels(slo="x").inc()
    tokens.labels(engine="b").inc(4.0)
    depth.set(1.0)
    latency.labels(engine="a").observe(2.0)
    scrape_both(2.0)
    scrape_both(3.0)

    assert list(scraper.series) == list(oracle)
    for key, series in oracle.items():
        assert scraper.series[key].to_dict() == series.to_dict(), key
    assert 'toy_tokens_total{engine="a"}' in oracle
    assert "toy_late_total{slo=\"x\"}" in oracle
    assert scraper.series['toy_latency_seconds_count{engine="a"}'].values == [1, 2, 2]
