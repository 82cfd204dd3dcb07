"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_sizes_command(capsys):
    assert main(["sizes", "--tuples", "4096", "--fpp", "0.1", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "B+-Tree" in out and "BF-Tree" in out
    assert "capacity gain" in out


def test_probe_command_single_config(capsys):
    assert main([
        "probe", "--tuples", "4096", "--index", "bf", "--fpp", "1e-3",
        "--config", "MEM/SSD", "--probes", "20",
    ]) == 0
    out = capsys.readouterr().out
    assert "MEM/SSD" in out
    assert "latency" in out


def test_probe_all_indexes(capsys):
    for index in ("bplus", "hash", "fd", "silt", "binsearch"):
        assert main([
            "probe", "--tuples", "4096", "--index", index,
            "--config", "MEM/SSD", "--probes", "10",
        ]) == 0
        assert "latency" in capsys.readouterr().out


def test_probe_warm_flag(capsys):
    assert main([
        "probe", "--tuples", "4096", "--config", "SSD/SSD",
        "--probes", "10", "--warm",
    ]) == 0
    assert "warm=True" in capsys.readouterr().out


def test_sweep_command(capsys):
    assert main([
        "sweep", "--tuples", "4096", "--fpp", "0.1", "1e-4",
        "--probes", "20",
    ]) == 0
    out = capsys.readouterr().out
    assert "break-even" in out
    assert "MEM/SSD" in out


def test_model_command(capsys):
    assert main(["model", "--fpp", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "BFcost" in out
    assert "Figure 4" in out


def test_workloads_command(capsys):
    assert main(["workloads", "--tuples", "4096"]) == 0
    out = capsys.readouterr().out
    for name in ("synthetic", "tpch", "shd"):
        assert name in out


def test_tpch_workload_selection(capsys):
    assert main([
        "sizes", "--workload", "tpch", "--tuples", "4096", "--fpp", "1e-3",
    ]) == 0
    assert "shipdate" in capsys.readouterr().out


def test_unknown_column_rejected():
    with pytest.raises(SystemExit):
        main(["sizes", "--tuples", "1024", "--column", "nonexistent"])


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_serve_bench_command(capsys):
    assert main([
        "serve-bench", "--tuples", "8192", "--ops", "150",
        "--shards", "1", "2", "--mix", "read_heavy", "--seed", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "serve-bench" in out
    assert "p99" in out and "ops/sim-sec" in out


def test_serve_bench_json(capsys):
    import json

    assert main([
        "serve-bench", "--tuples", "8192", "--ops", "100",
        "--shards", "2", "--mix", "scan_mix", "--json",
    ]) == 0
    out = capsys.readouterr().out
    payload = out[out.index("["):]
    reports = json.loads(payload)
    assert reports[0]["latency"]["read"]["p99"] > 0
    assert reports[0]["throughput_ops_per_sim_sec"] > 0


def test_probe_all_backends(capsys):
    """probe runs on every registered backend (search_many is the
    protocol's generic per-key loop where no vectorized engine
    exists)."""
    from repro.api import registered_backends

    for index in registered_backends():
        assert main([
            "probe", "--tuples", "4096", "--index", index,
            "--config", "MEM/SSD", "--probes", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert f"{index} probe on" in out and "MEM/SSD" in out


def test_probe_out_writes_json(tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert main([
        "probe", "--tuples", "4096", "--index", "fd",
        "--config", "MEM/SSD", "--probes", "10", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    import json

    payload = json.loads(out.read_text())
    assert payload[0]["index"] == "fd"
    assert "batch" not in payload[0]
    assert payload[0]["avg_latency_us"] > 0


def test_serve_bench_nontree_backend(capsys, tmp_path):
    """serve-bench accepts any registered backend; unshardable ones run
    as a single-shard degenerate service."""
    out = tmp_path / "serve.json"
    assert main([
        "serve-bench", "--tuples", "4096", "--ops", "100",
        "--index", "hash", "--shards", "4", "--mix", "read_heavy",
        "--seed", "3", "--out", str(out),
    ]) == 0
    assert "hash" in capsys.readouterr().out
    import json

    reports = json.loads(out.read_text())
    assert reports[0]["n_shards"] == 1  # degenerate single shard
    assert reports[0]["throughput_ops_per_sim_sec"] > 0


def test_serve_bench_help_lists_all_backends(capsys):
    from repro.api import registered_backends

    with pytest.raises(SystemExit):
        main(["serve-bench", "--help"])
    out = capsys.readouterr().out
    for name in registered_backends():
        assert name in out


def test_unknown_backend_lists_registry_names(capsys):
    from repro.api import registered_backends

    # argparse rejects unknown --index values with the registry choices.
    with pytest.raises(SystemExit):
        main(["probe", "--tuples", "1024", "--index", "lsm"])
    err = capsys.readouterr().err
    for name in registered_backends():
        assert name in err


def test_seed_flag_reproducible(capsys):
    """One --seed knob makes whole runs reproducible; changing it changes
    the sampled probes (and thus, in general, the measured output)."""
    runs = []
    for seed in ("11", "11", "12"):
        assert main([
            "probe", "--tuples", "4096", "--config", "MEM/SSD",
            "--probes", "30", "--fpp", "1e-3", "--hit-rate", "0.5",
            "--seed", seed,
        ]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


def test_serve_bench_rebalance(capsys, tmp_path):
    out = tmp_path / "elastic.json"
    assert main([
        "serve-bench", "--rebalance", "--tuples", "32768", "--ops", "1024",
        "--shards", "4", "--mix", "read_heavy", "--skew", "hotspot",
        "--window-ops", "128", "--seed", "5", "--out", str(out),
    ]) == 0
    text = capsys.readouterr().out
    assert "serve-bench --rebalance" in text
    assert "splits/merges" in text and "load bal" in text
    import json

    reports = json.loads(out.read_text())
    assert reports[0]["initial_shards"] == 4
    assert reports[0]["final_epoch"] >= 0
    assert reports[0]["load"]["n_windows"] == 8


def test_serve_bench_rebalance_rejects_durable(capsys):
    with pytest.raises(SystemExit, match="durable"):
        main([
            "serve-bench", "--rebalance", "--durable",
            "--tuples", "8192", "--ops", "100", "--shards", "4",
        ])
