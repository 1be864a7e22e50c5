"""Unit tests for the project lint (``repro.verify.lint``).

Every rule gets a positive (flagged) case and a suppressed case, plus
end-to-end runs over the deliberate-violation corpus in
``tests/verify/corpus`` and the real source tree via the CLI.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.verify.lint import (
    LINT_RULES,
    VER101,
    VER102,
    VER103,
    VER104,
    VER105,
    VER106,
    lint_paths,
    lint_source,
)

CORPUS = Path(__file__).parent / "corpus"


def codes(source, path="module.py"):
    return [f.code for f in lint_source(source, path)]


# ---------------------------------------------------------------- VER101


def test_ver101_flags_wall_clock_calls():
    src = "import time\nt = time.time()\n"
    assert codes(src) == [VER101]


def test_ver101_flags_all_clock_variants():
    for fn in ("monotonic", "perf_counter", "time_ns",
               "monotonic_ns", "perf_counter_ns"):
        src = f"import time\nt = time.{fn}()\n"
        assert codes(src) == [VER101], fn


def test_ver101_flags_from_import():
    assert codes("from time import monotonic\n") == [VER101]


def test_ver101_allows_sleep_and_suppression():
    assert codes("import time\ntime.sleep(0)\n") == []
    src = "import time\nt = time.time()  # verify: ignore[VER101]\n"
    assert codes(src) == []


# ---------------------------------------------------------------- VER102


def test_ver102_flags_stdlib_random():
    assert codes("import random\n") == [VER102]
    assert codes("from random import randint\n") == [VER102]
    assert codes("import random\nx = random.random()\n",
                 ) == [VER102, VER102]


def test_ver102_flags_legacy_numpy_global_rng():
    src = "import numpy as np\nx = np.random.rand(4)\n"
    assert codes(src) == [VER102]


def test_ver102_flags_unseeded_default_rng():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    assert codes(src) == [VER102]


def test_ver102_allows_seeded_constructors():
    src = ("import numpy as np\n"
           "a = np.random.default_rng(7)\n"
           "b = np.random.SeedSequence(7)\n"
           "c = np.random.Generator(np.random.PCG64(7))\n")
    assert codes(src) == []


def test_ver102_suppression():
    src = "import random  # verify: ignore[VER102]\n"
    assert codes(src) == []


# ---------------------------------------------------------------- VER103


def test_ver103_flags_unlocked_doorbell():
    assert codes("sq.ring_doorbell()\n") == [VER103]


def test_ver103_allows_doorbell_under_lock():
    src = "with res.sq.lock:\n    res.sq.ring_doorbell()\n"
    assert codes(src) == []


def test_ver103_flags_doorbell_after_lock_block_exits():
    src = ("with res.sq.lock:\n"
           "    pass\n"
           "res.sq.ring_doorbell()\n")
    assert codes(src) == [VER103]


def test_ver103_suppression():
    src = "sq.ring_doorbell()  # verify: ignore[VER103]\n"
    assert codes(src) == []


def test_ver103_lock_does_not_leak_into_nested_def():
    # The nested function runs later, after the with block exited.
    src = ("with res.sq.lock:\n"
           "    def later():\n"
           "        res.sq.ring_doorbell()\n")
    assert codes(src) == [VER103]


def test_ver103_lock_does_not_leak_into_lambda():
    src = ("with res.sq.lock:\n"
           "    cb = lambda: res.sq.ring_doorbell()\n")
    assert codes(src) == [VER103]


def test_ver103_lock_does_not_leak_into_class_body():
    src = ("with res.sq.lock:\n"
           "    class Hook:\n"
           "        res.sq.ring_doorbell()\n")
    assert codes(src) == [VER103]


def test_ver103_nested_def_may_take_the_lock_itself():
    src = ("with res.sq.lock:\n"
           "    def later():\n"
           "        with res.sq.lock:\n"
           "            res.sq.ring_doorbell()\n")
    assert codes(src) == []


def test_ver103_outer_lock_restored_after_nested_def():
    # After the nested def, the enclosing with block is still locked.
    src = ("with res.sq.lock:\n"
           "    def later():\n"
           "        pass\n"
           "    res.sq.ring_doorbell()\n")
    assert codes(src) == []


def test_ver103_async_with_holds_the_lock():
    src = ("async def kick(res):\n"
           "    async with res.sq.lock:\n"
           "        res.sq.ring_doorbell()\n")
    assert codes(src) == []


# ---------------------------------------------------------------- VER104


def test_ver104_flags_queue_field_mutation():
    assert codes("sq.tail = 0\n") == [VER104]
    assert codes("cq.head += 1\n") == [VER104]
    assert codes("res.cq.device_phase ^= 1\n") == [VER104]


def test_ver104_allows_reads_and_non_queue_receivers():
    assert codes("x = sq.tail\n") == []
    assert codes("state.tail = 0\n") == []


def test_ver104_exempts_nvme_package_itself():
    src = "self.tail = 0\nsq.head = 1\n"
    assert codes(src, path="src/repro/nvme/queues.py") == []
    assert codes(src, path="src/repro/host/driver.py") == [VER104]


def test_ver104_suppression():
    assert codes("sq.tail = 0  # verify: ignore[VER104]\n") == []


# ---------------------------------------------------------------- VER105


def test_ver105_flags_bare_except():
    src = "try:\n    f()\nexcept:\n    pass\n"
    assert codes(src) == [VER105]


def test_ver105_allows_named_except():
    src = "try:\n    f()\nexcept ValueError:\n    pass\n"
    assert codes(src) == []


def test_ver105_suppression():
    src = "try:\n    f()\nexcept:  # verify: ignore[VER105]\n    raise\n"
    assert codes(src) == []


@pytest.mark.parametrize("handler, flagged", [
    ("except Exception:\n    pass\n", True),
    ("except BaseException:\n    x = 1\n", True),
    ("except (KeyError, Exception) as exc:\n    log(exc)\n", True),
    ("except Exception:\n    cleanup()\n    raise\n", False),
    ("except Exception as exc:\n    raise RuntimeError() from exc\n", False),
    ("except (KeyError, ValueError):\n    pass\n", False),
])
def test_ver105_flags_a_catch_all_that_never_raises(handler, flagged):
    # A swallowing catch-all would hide an InvariantViolation.
    src = "try:\n    f()\n" + handler
    assert codes(src) == ([VER105] if flagged else [])


def test_ver105_corpus_flags_the_swallowing_catch_all():
    findings = lint_paths([str(CORPUS / "bad_except.py")])
    assert [(f.code, f.line) for f in findings] == [(VER105, 7), (VER105, 28)]


# ---------------------------------------------------------------- VER106


def test_ver106_flags_method_literal_in_src():
    src = 'method = "byteexpress"\n'
    assert codes(src, path="src/repro/engine/engine.py") == [VER106]


def test_ver106_flags_every_registered_spelling():
    from repro.datapath.names import METHOD_LITERALS

    for literal in sorted(METHOD_LITERALS):
        src = f'm = "{literal}"\n'
        assert codes(src, path="src/repro/x.py") == [VER106], literal


def test_ver106_ignores_prose_mentions():
    # Docstrings and messages that merely mention a method are fine:
    # only exact full-string matches are dispatch keys.
    src = '"""compare byteexpress against prp staging"""\n'
    assert codes(src, path="src/repro/x.py") == []


def test_ver106_exempts_datapath_tests_and_benchmarks():
    src = 'm = "prp"\n'
    for path in ("src/repro/datapath/__init__.py",
                 "tests/datapath/test_parity.py",
                 "benchmarks/test_fig5_methods_sweep.py"):
        assert codes(src, path=path) == [], path


def test_ver106_suppression():
    src = 'DOORBELL_MMIO = "mmio"  # verify: ignore[VER106]\n'
    assert codes(src, path="src/repro/sim/config.py") == []


# ------------------------------------------------------- suppression misc


def test_wildcard_suppression_covers_any_rule():
    src = "sq.tail = 0  # verify: ignore[*]\n"
    assert codes(src) == []


def test_multi_code_suppression():
    src = ("import time\n"
           "sq.tail = time.time()"
           "  # verify: ignore[VER101, VER104]\n")
    assert codes(src) == []


def test_suppression_for_wrong_rule_does_not_hide():
    src = "sq.tail = 0  # verify: ignore[VER101]\n"
    assert codes(src) == [VER104]


def test_syntax_error_becomes_ver000_finding():
    findings = lint_source("def broken(:\n", "x.py")
    assert [f.code for f in findings] == ["VER000"]


# --------------------------------------------------------- iter_py_files


def test_iter_py_files_dedupes_overlapping_paths(tmp_path):
    from repro.verify.lint import iter_py_files

    (tmp_path / "pkg").mkdir()
    target = tmp_path / "pkg" / "mod.py"
    target.write_text("x = 1\n")
    # Duplicate argument, directory+file overlap, and a relative-ish
    # respelling all resolve to the same file: yielded once.
    got = list(iter_py_files([str(tmp_path), str(tmp_path),
                              str(target),
                              str(tmp_path / "pkg" / ".." / "pkg"
                                  / "mod.py")]))
    assert len(got) == 1


def test_duplicate_paths_do_not_double_report(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("sq.tail = 0\n")
    findings = lint_paths([str(bad), str(bad), str(tmp_path)])
    assert [f.code for f in findings] == [VER104]


# ------------------------------------------------------------- corpus


def test_corpus_flags_every_rule():
    findings = lint_paths([str(CORPUS)])
    by_code = {f.code for f in findings}
    assert by_code == {VER101, VER102, VER103, VER104, VER105}


def test_corpus_clean_file_has_no_findings():
    findings = lint_paths([str(CORPUS / "clean.py")])
    assert findings == []


def test_corpus_findings_carry_locations():
    findings = lint_paths([str(CORPUS / "bad_mutation.py")])
    assert [(f.code, f.line) for f in findings] == [
        (VER104, 5), (VER104, 6), (VER104, 7)]


# ----------------------------------------------------------------- CLI


def test_cli_lint_corpus_exits_nonzero(capsys):
    rc = main(["lint", str(CORPUS)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "VER103" in out and "finding(s)" in out


def test_cli_lint_src_is_clean():
    repo = Path(__file__).resolve().parents[2]
    assert main(["lint", str(repo / "src")]) == 0


def test_cli_lint_missing_path_is_an_error(capsys):
    rc = main(["lint", str(CORPUS / "no_such_dir")])
    assert rc == 2
    assert "does not exist" in capsys.readouterr().out


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list"]) == 0
    out = capsys.readouterr().out
    for code in LINT_RULES:
        assert code in out


def test_cli_lint_list_includes_flow_rules(capsys):
    from repro.verify.flow.rules import FLOW_RULES

    assert main(["lint", "--list"]) == 0
    out = capsys.readouterr().out
    for code in FLOW_RULES:
        assert code in out


@pytest.mark.parametrize("code", sorted(LINT_RULES))
def test_every_rule_has_a_description(code):
    assert LINT_RULES[code]


# ------------------------------------------------------- exit codes


def test_cli_syntax_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    rc = main(["lint", str(bad)])
    assert rc == 3
    assert "VER000" in capsys.readouterr().out


def test_cli_syntax_error_dominates_rule_findings(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n")
    (tmp_path / "bad.py").write_text("sq.tail = 0\n")
    assert main(["lint", str(tmp_path)]) == 3


# ----------------------------------------------------------- --flow


def test_cli_flow_finds_corpus_bugs(capsys):
    rc = main(["lint", "--flow", str(CORPUS)])
    assert rc == 1
    out = capsys.readouterr().out
    for code in ("VER201", "VER202", "VER301", "VER302", "VER303",
                 "VER401", "VER402"):
        assert code in out, code


def test_cli_no_flow_is_the_default(capsys):
    main(["lint", str(CORPUS)])
    out = capsys.readouterr().out
    assert "VER201" not in out


def test_cli_flow_src_is_clean_against_baseline():
    repo = Path(__file__).resolve().parents[2]
    import os

    cwd = os.getcwd()
    os.chdir(repo)
    try:
        rc = main(["lint", "--flow", "src", "benchmarks",
                   "--baseline", "verify_baseline.json"])
    finally:
        os.chdir(cwd)
    assert rc == 0


# ----------------------------------------------------------- --output


def test_cli_output_json(tmp_path, capsys):
    import json

    bad = tmp_path / "bad.py"
    bad.write_text("sq.tail = 0\n")
    rc = main(["lint", "--output", "json", str(bad)])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"new": 1, "grandfathered": 0}
    assert report["findings"][0]["code"] == VER104


def test_cli_output_sarif(tmp_path, capsys):
    import json

    bad = tmp_path / "bad.py"
    bad.write_text("sq.tail = 0\n")
    rc = main(["lint", "--output", "sarif", str(bad)])
    assert rc == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    assert sarif["runs"][0]["results"][0]["ruleId"] == VER104


# ----------------------------------------------------------- --baseline


def test_cli_baseline_grandfathers_matching_findings(tmp_path, capsys):
    import json

    bad = tmp_path / "bad.py"
    bad.write_text("sq.tail = 0\n")
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "version": 1,
        "findings": [{"path": str(bad), "code": "VER104"}]}))
    rc = main(["lint", str(bad), "--baseline", str(baseline)])
    assert rc == 0
    assert "grandfathered" in capsys.readouterr().out


def test_cli_baseline_does_not_absorb_new_findings(tmp_path):
    import json

    bad = tmp_path / "bad.py"
    bad.write_text("sq.tail = 0\nimport random\n")
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "version": 1,
        "findings": [{"path": str(bad), "code": "VER104"}]}))
    assert main(["lint", str(bad), "--baseline", str(baseline)]) == 1


def test_cli_stale_baseline_entry_warns_but_passes(tmp_path, capsys):
    import json

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "version": 1,
        "findings": [{"path": "long_gone.py", "code": "VER104"}]}))
    rc = main(["lint", str(clean), "--baseline", str(baseline)])
    assert rc == 0
    assert "stale" in capsys.readouterr().err
