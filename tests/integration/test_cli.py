"""CLI smoke tests (every subcommand end-to-end)."""

import re

import pytest

from repro.cli import main
from repro.host.driver import CommandTimeoutError
from repro.workloads import MixGraphWorkload, dump_trace
from repro.workloads.mixgraph import KvOp


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


def test_serve_prints_value_log_gc_rows(capsys):
    # Enough PUTs to flush value-log segments, so both rows are numbers.
    assert main(["serve", "--sessions", "16", "--ops", "64",
                 "--read-ratio", "0.5"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"value-log relocations / PUT\s*\|?\s*\d+\.\d\d", out)
    assert re.search(r"log space amplification\s*\|?\s*\d+\.\d\dx", out)


def test_serve_prints_nand_read_and_die_wait_rows(capsys):
    # Enough keys to flush value-log segments, so GETs reach NAND.
    assert main(["serve", "--sessions", "64", "--ops", "16"]) == 0
    out = capsys.readouterr().out
    reads = re.search(r"NAND reads / op\s*\|?\s*(\d+\.\d\d)", out)
    assert reads and float(reads.group(1)) > 0
    assert re.search(r"parked reads / op\s*\|?\s*\d+\.\d\d", out)
    assert re.search(r"die-wait share\s*\|?\s*\d+\.\d%", out)
    for cause in ("programs", "reads"):
        assert re.search(rf"read queued behind {cause} \(us / parked read\)"
                         rf"\s*\|?\s*\d+\.\d", out)


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
    ["serve", "--qd", "0"],
    ["kv", "--methods", "warp"],
    ["pushdown", "--methods", "warp"],
    ["sweep", "--sizes", "0"],
    ["sweep", "--ops", "0"],
    ["faults", "--size", "0"],
    ["faults", "--ops", "-1"],
    ["engine", "--lba", "0"],
    ["engine", "--lba", "3000"],
    ["sweep", "--lba", "0"],
    ["sweep", "--lba", "3000"],
    ["faults", "--lba", "0"],
    ["faults", "--lba", "3000"],
    ["kv", "--ops", "0"],
    ["kv", "--workload", "fillrandom", "--value-size", "0"],
    ["pushdown", "--ops", "0"],
    ["pushdown", "--ops", "-1"],
    ["sweep", "--sizes", "70000", "--methods", "byteexpress"],
    ["sweep", "--sizes", "2000000", "--methods", "prp"],
    ["faults", "--size", "70000"],
    ["crash", "--payload", "65537"],
    ["virt", "--tenants", "2", "--ops", "5", "--weight", "0"],
    ["engine", "--queues", "100"],
    ["crash", "--method", "warp"],
], ids=" ".join)
def test_bad_engine_and_tenant_arguments_are_exit_2(argv, capsys):
    # A small --ops first, so the argument under test overrides it.
    assert main([argv[0], "--ops", "8", *argv[1:]]) == 2
    message = ("unknown method 'warp'" if "warp" in argv else
               {"engine": "bad engine configuration",
                "virt": "bad tenant configuration",
                "serve": "bad serving configuration",
                "kv": "bad kv configuration",
                "pushdown": "bad pushdown configuration",
                "sweep": "bad sweep configuration",
                "faults": "bad faults configuration",
                "crash": "bad crash configuration"}[argv[0]])
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


def test_crash_unknown_method_message_is_not_quoted(capsys):
    # The refusal is a ValueError, not a KeyError whose str() is a repr.
    assert main(["crash", "--method", "warp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad crash configuration: unknown method 'warp'")


def test_sweep_timeout_is_not_a_bad_configuration(capsys):
    # Every CQE dropped: the write gives up, which is a failed run, not
    # a refused configuration.
    with pytest.raises(CommandTimeoutError):
        main(["sweep", "--sizes", "64", "--ops", "1", "--methods",
              "byteexpress", "--faults", "1.0", "--fault-kinds", "drop_cqe"])
    assert "bad sweep configuration" not in capsys.readouterr().err


@pytest.mark.parametrize("lba", ["0", "3000"])
def test_info_rejects_an_lba_that_does_not_divide_a_page(lba, capsys):
    assert main(["info", "--lba", lba]) == 2
    err = capsys.readouterr().err
    assert "bad info configuration" in err and err.count("\n") == 1


def test_replay_of_a_missing_trace_is_exit_2(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "missing.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "bad trace" in err and err.count("\n") == 1


@pytest.mark.parametrize("op", ["put", "get"])
def test_replay_of_a_key_over_the_key_field_is_exit_2(op, tmp_path, capsys):
    # 17 B does not fit the 16 B key field: refused when the trace loads,
    # before any command, whichever op carries it.
    trace = tmp_path / f"{op}.jsonl"
    dump_trace([KvOp(op, b"k" * 17, b"v" * 8 if op == "put" else b"")],
               trace)
    assert main(["replay", str(trace)]) == 2
    err = capsys.readouterr().err
    assert "bad trace configuration" in err and "17 B" in err
    assert err.count("\n") == 1
