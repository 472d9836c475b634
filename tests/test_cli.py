"""Tests for the aqua-repro command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig01", "fig07", "fig14", "tables", "e2e"):
        assert name in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "fig07" in capsys.readouterr().out


def test_every_command_has_a_parser():
    parser = build_parser()
    # Parsing the bare subcommand name must succeed for every command.
    for name in COMMANDS:
        args = parser.parse_args([name])
        assert args.command == name


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "OPT-30B" in out
    assert "Parti prompts" in out


def test_fig02_command(capsys):
    assert main(["fig02"]) == 0
    out = capsys.readouterr().out
    assert "AudioGen" in out
    assert "Llama-2-13B" in out


def test_fig07_command_with_duration(capsys):
    assert main(["fig07", "--duration", "15"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "aqua+sd" in out


def test_fig14_command_small(capsys):
    assert main(["fig14", "--gpus", "16"]) == 0
    out = capsys.readouterr().out
    assert "mixed_s" in out


def test_fig18_command(capsys):
    assert main(["fig18", "--duration", "10"]) == 0
    out = capsys.readouterr().out
    assert "per-consumer tokens" in out


def test_ambient_scrape_summarises_every_rig(tmp_path, capsys):
    """fig18 builds five scraped rigs: the four NVSwitch pairs and the
    2-GPU reference.  Each gets its own header and summary, in build
    order, and the dashboard line names the one rig it charts."""
    dashboard = tmp_path / "fig18.html"
    assert main(["fig18", "--scrape-interval", "1",
                 "--dashboard", str(dashboard)]) == 0
    lines = capsys.readouterr().out.splitlines()
    headers = [line for line in lines if line.startswith("observability: rig ")]
    engines = [f"pair{i}-flexgen-OPT-30B" for i in range(4)] + ["flexgen-OPT-30B"]
    assert len(headers) == len(engines)
    for i, (header, engine) in enumerate(zip(headers, engines), 1):
        assert header.startswith(f"observability: rig {i}/5 ({engine})")
    # Every rig's SLO summary follows its own header.
    for header in headers:
        assert lines[lines.index(header) + 1].startswith("SLO burn-rate alerts:")
    assert dashboard.exists()
    assert any(
        line.startswith(f"dashboard written to {dashboard}")
        and "rig 1/5 (pair0-flexgen-OPT-30B)" in line
        for line in lines
    )


def test_e2e_command(capsys):
    assert main(["e2e"]) == 0
    out = capsys.readouterr().out
    assert "balanced" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_all_command_writes_results(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["all", "--out", str(out), "--only", "tables"]) == 0
    assert (out / "tables.json").exists()
    assert (out / "manifest.json").exists()


def test_sweep_command(capsys):
    assert main(["sweep", "--rates", "1", "--count", "10"]) == 0
    out = capsys.readouterr().out
    assert "rct_penalty" in out


def test_observe_command(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.prom"
    report = tmp_path / "report.json"
    assert (
        main(
            [
                "observe",
                "--duration", "20",
                "--trace", str(trace),
                "--metrics", str(metrics),
                "--report", str(report),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Latency attribution" in out
    for component in ("queueing", "prefill_compute", "decode_hbm", "offload_fetch"):
        assert component in out

    import json

    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e.get("ph") in ("s", "t", "f") for e in events)

    from repro.telemetry import parse_prometheus_text

    samples = parse_prometheus_text(metrics.read_text())
    assert "aqua_engine_tokens_generated_total" in samples

    rep = json.loads(report.read_text())
    assert rep["count"] >= 1


def test_observe_command_no_faults(capsys):
    assert main(["observe", "--duration", "10", "--no-faults"]) == 0
    assert "dma-stall" not in capsys.readouterr().out


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["default-jobs", "jobs-2"])
def test_ambient_trace_flag_on_figure_command(tmp_path, capsys, jobs):
    """Every figure command accepts --trace and writes a Chrome trace."""
    trace = tmp_path / "fig07.json"
    assert main(["fig07", "--duration", "10", "--trace", str(trace)] + jobs) == 0
    assert "trace written to" in capsys.readouterr().out

    import json

    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e["ph"] == "X" for e in events)


def test_trace_flag_registered_uniformly():
    """The shared --trace option is present on every experiment command."""
    parser = build_parser()
    for name in ("fig01", "fig07", "fig13", "e2e", "sweep", "resilience", "observe"):
        args = parser.parse_args([name, "--trace", "out.json"])
        assert args.trace == "out.json"
