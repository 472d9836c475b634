"""Self-test of the benchmark's correctness gate and tracing.

Run from the repository root::

    python3 -m pytest perfbench -q

The workloads here are shrunk versions of the benchmark's, so the test
takes seconds; the gate logic they exercise is the benchmark's own.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from layers import LAYERS, SpanTracer, layer_of, profile_calls  # noqa: E402
from worker import Scorer  # noqa: E402
from workloads import CFSAqua, NVSwitchObserved, PlacerMilp, VLLMBatch  # noqa: E402

SEED = 3  # not the default seed: digests are compared pass to pass


def small(name: str):
    return {
        "vllm_batch": lambda: VLLMBatch(SEED, count=40),
        "cfs_aqua": lambda: CFSAqua(SEED, count=12),
        "nvswitch_observed": lambda: NVSwitchObserved(
            SEED, jobs=2, tokens_per_consumer=60
        ),
        "placer_milp": lambda: PlacerMilp(SEED, gpu_counts=(16,)),
    }[name]()


def failed_frac(scorer: Scorer) -> float:
    return scorer.failed / scorer.attempted


@pytest.mark.parametrize(
    "name", ["vllm_batch", "cfs_aqua", "nvswitch_observed", "placer_milp"]
)
def test_clean_passes_report_no_failure(name):
    workload = small(name)
    scorer = Scorer(name, SEED)
    for label in ("first", "second"):
        scorer.add(workload.run_pass(workload.build()), label)
    assert scorer.attempted == 2 * workload.ops
    assert failed_frac(scorer) == 0, scorer.notes


def test_wrong_digest_fails_every_op_of_the_pass():
    workload = small("cfs_aqua")
    scorer = Scorer("cfs_aqua", SEED)
    scorer.expected = "0" * 64
    scorer.add(workload.run_pass(workload.build()), "pass")
    assert scorer.failed == workload.ops
    assert failed_frac(scorer) == 1.0


def test_dropped_request_is_a_failure():
    workload = small("vllm_batch")
    scorer = Scorer("vllm_batch", SEED)
    scorer.add(workload.run_pass(workload.build()), "clean")
    rig = workload.build()
    engine = rig.consumers[0]
    dropped = rig.requests[5]
    submit = engine.submit
    engine.submit = lambda r: None if r is dropped else submit(r)
    scorer.add(workload.run_pass(rig), "tampered")
    assert scorer.failed > 0
    assert failed_frac(scorer) > 0


@pytest.mark.parametrize("name", ["vllm_batch", "cfs_aqua", "nvswitch_observed"])
def test_one_second_slicing_is_inert(name):
    workload = small(name)
    sliced = workload.run_pass(workload.build())
    single = workload.run_pass(workload.build(), single_run=True)
    assert sliced.digest == single.digest


@pytest.mark.parametrize("name", ["vllm_batch", "cfs_aqua", "nvswitch_observed"])
def test_audited_pass_is_clean_and_digest_neutral(name):
    workload = small(name)
    plain = workload.run_pass(workload.build())
    audited = workload.run_pass(workload.build(audit=True))
    assert audited.failed_ops == 0, audited.notes
    assert audited.digest == plain.digest


def test_traced_pass_accounts_every_second_and_changes_nothing():
    workload = small("cfs_aqua")
    plain = workload.run_pass(workload.build())
    tracer = SpanTracer(keep=50).install()
    try:
        rig = workload.build()
        tracer.reset()
        traced = workload.run_pass(rig)
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.root_s, rel=1e-9)
    assert 0 < tracer.root_s <= traced.wall_s
    assert {"sim", "serving", "memory", "hardware", "aqua"} <= set(tracer.self_s)
    assert tracer.calls["Coordinator.request"] > 0
    assert len(tracer.spans) == 50 and tracer.n_spans > 50
    # Uninstalled: a fresh pass records nothing more.
    before = tracer.n_spans
    workload.run_pass(workload.build())
    assert tracer.n_spans == before


def test_profile_pass_counts_calls_per_layer():
    workload = small("vllm_batch")
    rig = workload.build()
    _, calls = profile_calls(lambda: workload.run_pass(rig))
    assert set(calls) == set(LAYERS) | {"other"}
    assert calls["serving"] > calls["sim"] > 0
    rig = workload.build()
    assert profile_calls(lambda: workload.run_pass(rig))[1] == calls


def test_layer_of():
    assert layer_of("repro.aqua.lib") == "aqua"
    assert layer_of("repro.aqua.placer") == "placer"
    assert layer_of("/x/src/repro/trace.py") == "telemetry"
    assert layer_of("/x/src/repro/workloads/arrivals.py") == "other"
    assert layer_of("<string>") == "other"


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "vllm_batch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
