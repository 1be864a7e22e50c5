"""CLI smoke tests (every subcommand end-to-end)."""


import pytest

from repro.cli import main
from repro.workloads import MixGraphWorkload, dump_trace


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "OpenSSD" in out
    assert "ByteExpress: yes" in out
    assert "Gen2 x8" in out


def test_info_gen_variant(capsys):
    assert main(["info", "--gen", "4"]) == 0
    assert "Gen4" in capsys.readouterr().out


def test_sweep(capsys):
    assert main(["sweep", "--sizes", "32,128", "--ops", "5",
                 "--methods", "prp,byteexpress"]) == 0
    out = capsys.readouterr().out
    assert "prp" in out and "byteexpress" in out
    assert "mean latency" in out  # the chart rendered


def test_sweep_unknown_method(capsys):
    assert main(["sweep", "--methods", "warp-drive"]) == 2


def test_kv(capsys):
    assert main(["kv", "--ops", "20", "--workload", "fillrandom",
                 "--methods", "byteexpress"]) == 0
    out = capsys.readouterr().out
    assert "fillrandom x20" in out
    assert "Kops/s" in out


def test_pushdown(capsys):
    assert main(["pushdown", "--ops", "5", "--methods", "byteexpress",
                 "--segment"]) == 0
    out = capsys.readouterr().out
    assert "vpic" in out and "tpch_q2" in out


def test_replay(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    dump_trace(MixGraphWorkload(ops=15, seed=2), trace)
    assert main(["replay", str(trace), "--method", "byteexpress"]) == 0
    assert "replayed 15 ops" in capsys.readouterr().out


def test_replay_empty_trace(tmp_path, capsys):
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    assert main(["replay", str(trace)]) == 2


def test_serve(capsys):
    assert main(["serve", "--sessions", "16", "--ops", "8"]) == 0
    out = capsys.readouterr().out
    assert "served kiops" in out
    assert "worst client p99.9" in out
    assert "read-your-writes checks" in out
    assert "PCIe traffic" in out


def test_serve_disabled_optimisations(capsys):
    assert main(["serve", "--sessions", "4", "--ops", "4",
                 "--window-ns", "0", "--cache-entries", "0"]) == 0
    out = capsys.readouterr().out
    assert "batching off" in out and "cache off" in out


def test_serve_unknown_method(capsys):
    # argparse rejects unknown methods before cmd_serve runs.
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--method", "warp-drive"])
    assert exc.value.code == 2


def test_serve_bad_mix_is_exit_2(capsys):
    assert main(["serve", "--read-ratio", "1.5"]) == 2
    assert "bad serving configuration" in capsys.readouterr().err


def test_serve_bad_window_is_exit_2(capsys):
    assert main(["serve", "--window-ns", "-1"]) == 2
    assert "bad serving configuration" in capsys.readouterr().err


def test_crash_qd8_on_a_codecless_method_is_exit_2(capsys):
    # QD>1 rides the async engine, which needs a host codec; hybrid
    # has none, so the spec is refused before a rig is built.
    assert main(["crash", "--plane", "block", "--method", "hybrid",
                 "--qd", "8"]) == 2
    assert "bad crash configuration" in capsys.readouterr().err


def test_engine_tagged_method_needs_a_tagged_controller(capsys):
    assert main(["engine", "--queues", "1", "--streams", "1", "--ops", "8",
                 "--method", "byteexpress-tagged"]) == 2
    assert "bad engine configuration" in capsys.readouterr().err
    assert main(["engine", "--queues", "1", "--streams", "1", "--ops", "8",
                 "--method", "byteexpress-tagged", "--tagged"]) == 0


def test_virt(capsys):
    assert main(["virt", "--tenants", "2", "--ops", "20"]) == 0
    out = capsys.readouterr().out
    assert "virt: 2 tenant(s) x 1 queue(s), 20 x 64B byteexpress" in out
    assert "tenant0 |" in out and "tenant1 |" in out
    assert "namespace rejections: 0" in out
    assert "arbiter: 40 grants" in out


@pytest.mark.parametrize("argv", [
    ["engine", "--streams", "0"],
    ["engine", "--qd", "0"],
    ["engine", "--dist", "fixed:0"],
    ["engine", "--dist", "fixed:9000"],
    ["engine", "--think-ns", "-1"],
    ["virt", "--size", "0"],
    ["virt", "--concurrency", "0"],
    ["virt", "--ops", "0"],
    ["virt", "--tenants", "0"],
    ["virt", "--queues", "0"],
    ["virt", "--size", "70000"],
], ids=" ".join)
def test_bad_engine_and_tenant_arguments_are_exit_2(argv, capsys):
    # A small --ops first, so the argument under test overrides it.
    assert main([argv[0], "--ops", "8", *argv[1:]]) == 2
    label = {"engine": "engine", "virt": "tenant"}[argv[0]]
    assert f"bad {label} configuration" in capsys.readouterr().err
