"""The bench harness produces valid artifacts and catches regressions."""

import copy
import json
from pathlib import Path

import pytest

from repro import benchmarks
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def quick_kernel_doc():
    """One real --quick kernel run, shared across the module's tests."""
    return benchmarks.run_bench(["kernel"], quick=True)


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------
def test_quick_run_is_schema_valid(quick_kernel_doc):
    benchmarks.validate_bench(quick_kernel_doc)  # must not raise
    kernel = quick_kernel_doc["scenarios"]["kernel"]
    assert kernel["events_per_s"] > 0
    assert kernel["events"] == benchmarks.kernel_event_count(100, 60)
    assert quick_kernel_doc["peak_rss_bytes"] > 0
    assert quick_kernel_doc["baseline"]["kernel_events_per_s"] == 531_646


def test_kernel_doc_records_coarsened_companion_metrics(quick_kernel_doc):
    """BENCH artifacts carry raw events AND modelled token-steps (PR 7):
    coarsening deflates events/s by design, so the artifact records both
    bases and the gate only ever compares the raw one."""
    from repro.benchmarks.scenarios import KERNEL_COARSEN

    kernel = quick_kernel_doc["scenarios"]["kernel"]
    assert kernel["coarsen"] == KERNEL_COARSEN > 1
    assert kernel["token_steps"] == 100 * 60  # quick: 100 procs x 60 hops
    assert kernel["token_steps_per_s"] > 0
    # The coarse companion modelled the same horizon in far fewer events.
    assert kernel["coarse_events"] < kernel["events"]
    assert kernel["coarse_wall_s_best"] > 0


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError, match="no-such-scenario"):
        benchmarks.run_bench(["no-such-scenario"], quick=True)


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda d: d.update(schema="bogus/v0"), "schema"),
        (lambda d: d.update(bench_index="four"), "bench_index"),
        (lambda d: d.update(baseline={}), "kernel_events_per_s"),
        (lambda d: d.update(scenarios={}), "non-empty"),
        (
            lambda d: d["scenarios"].update(kernel={"events_per_s": -1}),
            "positive",
        ),
        (lambda d: d.update(peak_rss_bytes=0), "peak_rss_bytes"),
    ],
)
def test_validate_rejects_malformed_documents(quick_kernel_doc, mutation, message):
    doc = copy.deepcopy(quick_kernel_doc)
    mutation(doc)
    with pytest.raises(ValueError, match=message):
        benchmarks.validate_bench(doc)


# ---------------------------------------------------------------------------
# Regression comparator
# ---------------------------------------------------------------------------
def _doc_with_kernel(events_per_s: float) -> dict:
    return {
        "schema": benchmarks.SCHEMA,
        "bench_index": benchmarks.BENCH_INDEX,
        "quick": True,
        "baseline": dict(benchmarks.RECORDED_BASELINE),
        "scenarios": {"kernel": {"events_per_s": events_per_s}},
        "peak_rss_bytes": 1,
    }


def test_comparator_flags_20_percent_regression():
    current, baseline = _doc_with_kernel(80_000.0), _doc_with_kernel(100_000.0)
    regressions, lines = benchmarks.compare_bench(current, baseline, tolerance=0.10)
    assert len(regressions) == 1 and "kernel" in regressions[0]
    assert any("REGRESSION" in line for line in lines)


def test_comparator_tolerates_small_slowdown_and_speedups():
    baseline = _doc_with_kernel(100_000.0)
    for ok_value in (95_000.0, 100_000.0, 250_000.0):
        regressions, _ = benchmarks.compare_bench(
            _doc_with_kernel(ok_value), baseline, tolerance=0.10
        )
        assert regressions == []


def test_comparator_reports_scenario_mismatches_without_gating():
    current, baseline = _doc_with_kernel(100_000.0), _doc_with_kernel(100_000.0)
    baseline["scenarios"]["cluster"] = {"sim_s_per_wall_s": 10.0}
    current["scenarios"]["vllm_e2e"] = {"sim_s_per_wall_s": 10.0}
    regressions, lines = benchmarks.compare_bench(current, baseline)
    assert regressions == []
    assert any("cluster" in line for line in lines)
    assert any("vllm_e2e" in line for line in lines)

    # The committed BENCH_7 artifact still loads and gates; the scenarios
    # retired since then are reported, never gated.
    bench7 = benchmarks.load_bench(str(REPO_ROOT / "BENCH_7.json"))
    retired = sorted(set(bench7["scenarios"]) - set(benchmarks.SCENARIOS))
    assert len(retired) == 2  # the two e2e companions of the removed DMA path
    current = copy.deepcopy(bench7)
    for name in retired:
        del current["scenarios"][name]
    current["scenarios"]["kernel"]["events_per_s"] /= 2
    regressions, lines = benchmarks.compare_bench(current, bench7)
    assert len(regressions) == 1 and regressions[0].startswith("kernel:")
    for name in retired:
        assert f"{name}: in baseline but not in this run" in lines


# ---------------------------------------------------------------------------
# CLI round trip
# ---------------------------------------------------------------------------
def test_cli_bench_writes_valid_json(tmp_path, capsys):
    out = tmp_path / "BENCH_test.json"
    rc = cli_main(["bench", "kernel", "--quick", "--out", str(out)])
    assert rc == 0
    doc = benchmarks.load_bench(str(out))  # validates on load
    assert "kernel" in doc["scenarios"]
    assert "events/s" in capsys.readouterr().out


def test_cli_bench_baseline_gate_exits_nonzero(tmp_path, quick_kernel_doc):
    # A baseline claiming a kernel far faster than physically measured
    # forces the regression path deterministically.
    inflated = copy.deepcopy(quick_kernel_doc)
    inflated["scenarios"]["kernel"]["events_per_s"] *= 100
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(inflated))
    rc = cli_main(
        [
            "bench",
            "kernel",
            "--quick",
            "--out",
            str(tmp_path / "out.json"),
            "--baseline",
            str(baseline_path),
        ]
    )
    assert rc == 1


def test_cli_bench_list(capsys):
    assert cli_main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    for name in benchmarks.SCENARIOS:
        assert name in out
