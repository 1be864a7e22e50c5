"""Project-specific AST lint: rules a generic linter cannot know.

The simulator's correctness claims lean on project conventions — all
time comes from ``SimClock``, all randomness from seeded generators,
doorbells ring under the SQ lock, queue internals mutate only inside
:mod:`repro.nvme` — that no off-the-shelf tool checks.  This linter
walks the AST and enforces them with per-rule codes:

========  ==============================================================
code      rule
========  ==============================================================
VER101    no wall-clock time (``time.time``/``monotonic``/
          ``perf_counter``) in sim code; use ``SimClock``
VER102    no stdlib ``random`` and no unseeded/legacy NumPy RNG; use
          ``repro.sim.rng.make_rng``
VER103    ``ring_doorbell()`` only under a lexical ``with ....lock:``
VER104    no mutation of Submission/CompletionQueue ring fields
          (head/tail/phase/...) from outside ``repro.nvme``
VER105    no bare ``except:`` (swallows InvariantViolation and
          KeyboardInterrupt alike), and no ``except Exception`` /
          ``except BaseException`` whose handler never raises
VER106    no hard-coded transfer-method string literals outside
          ``repro/datapath/`` (and tests); use ``repro.datapath.names``
========  ==============================================================

A finding is suppressed by a same-line ``# verify: ignore[CODE]``
comment (comma-separate several codes; ``*`` suppresses all) — the
suppression is part of the code's documentation of *why* the rule does
not apply there.  Run as ``python -m repro lint <paths...>``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set

#: Not a rule: a file that does not parse (distinct exit code 3).
VER000 = "VER000"

VER101 = "VER101"
VER102 = "VER102"
VER103 = "VER103"
VER104 = "VER104"
VER105 = "VER105"
VER106 = "VER106"

#: Every lint rule, with a one-line description (for ``lint --list``).
LINT_RULES: Dict[str, str] = {
    VER101: "wall-clock time in sim code (use SimClock)",
    VER102: "stdlib random / unseeded NumPy RNG (use sim.rng.make_rng)",
    VER103: "ring_doorbell() outside a lexical `with ....lock:` block",
    VER104: "queue ring-field mutation outside repro.nvme",
    VER105: "bare `except:` or a non-raising `except Exception` swallows "
            "everything, including violations",
    VER106: "hard-coded transfer-method literal (use repro.datapath.names)",
}

_WALL_CLOCK_FNS = frozenset({
    "time", "monotonic", "perf_counter",
    "time_ns", "monotonic_ns", "perf_counter_ns",
})
#: NumPy RNG entry points that are explicitly seeded constructions.
_SEEDED_NP_OK = frozenset({"default_rng", "SeedSequence", "Generator",
                           "PCG64", "Philox", "SFC64", "MT19937"})
#: Ring fields only repro.nvme may assign.
_QUEUE_FIELDS = frozenset({"head", "tail", "phase", "shadow_tail",
                           "device_tail", "device_phase"})
#: Receiver names that conventionally hold queue objects.
_QUEUE_RECEIVERS = frozenset({"sq", "cq"})
#: Handler types that catch InvariantViolation along with everything else.
_CATCH_ALL = frozenset({"Exception", "BaseException"})

#: Transfer-method spellings VER106 polices.  Imported from the single
#: source of truth so a method added to the table is policed at once.
from repro.datapath.names import METHOD_LITERALS

_IGNORE_RE = re.compile(r"#\s*verify:\s*ignore\[([A-Za-z0-9*,\s]+)\]")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Per-line sets of suppressed rule codes from ignore comments."""
    out: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _IGNORE_RE.search(text)
        if match:
            codes = {c.strip().upper() for c in match.group(1).split(",")}
            out[lineno] = {c for c in codes if c}
    return out


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _handler_names(node: ast.expr) -> Set[str]:
    """Dotted names an ``except`` clause's type (or type tuple) lists."""
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {name for name in map(_dotted, elts) if name is not None}


class _Linter(ast.NodeVisitor):
    """Single-pass rule evaluation with a lexical ``with``-stack."""

    def __init__(self, path: str, in_nvme: bool,
                 check_methods: bool = True) -> None:
        self.path = path
        self.in_nvme = in_nvme
        self.check_methods = check_methods
        self.findings: List[LintFinding] = []
        self._lock_depth = 0

    # -- lexical scopes: the lock context does not cross them ----------
    def _fresh_scope(self, node: ast.AST) -> None:
        """A nested ``def``/``lambda``/``class`` body executes later, in
        another frame — an enclosing ``with ....lock:`` is *not* held
        when it runs, so the lock depth resets at the boundary."""
        saved = self._lock_depth
        self._lock_depth = 0
        self.generic_visit(node)
        self._lock_depth = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._fresh_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._fresh_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._fresh_scope(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._fresh_scope(node)

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(LintFinding(
            path=self.path, line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0), code=code, message=message))

    # -- VER101 / VER102: imports ------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._report(node, VER102,
                             "import of stdlib `random`; seed via "
                             "repro.sim.rng.make_rng instead")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._report(node, VER102,
                         "import from stdlib `random`; seed via "
                         "repro.sim.rng.make_rng instead")
        if node.module == "time":
            names = {alias.name for alias in node.names}
            clocky = sorted(names & _WALL_CLOCK_FNS)
            if clocky:
                self._report(node, VER101,
                             f"import of wall-clock {', '.join(clocky)} "
                             f"from `time`; sim code must use SimClock")
        self.generic_visit(node)

    # -- VER101 / VER102 / VER103: calls ------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted:
            self._check_call(node, dotted)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if len(parts) == 2 and parts[0] == "time" \
                and parts[1] in _WALL_CLOCK_FNS:
            self._report(node, VER101,
                         f"call to wall-clock `{dotted}()`; sim code "
                         f"must use SimClock")
        if parts[0] == "random" and len(parts) > 1:
            self._report(node, VER102,
                         f"call to stdlib `{dotted}()`; use a generator "
                         f"from repro.sim.rng.make_rng")
        if len(parts) >= 3 and parts[0] in ("np", "numpy") \
                and parts[1] == "random":
            fn = parts[2]
            if fn not in _SEEDED_NP_OK:
                self._report(node, VER102,
                             f"legacy global NumPy RNG `{dotted}()`; "
                             f"use repro.sim.rng.make_rng")
            elif fn == "default_rng" and not node.args and not node.keywords:
                self._report(node, VER102,
                             "`default_rng()` without a seed is "
                             "nondeterministic; pass a SeedSequence "
                             "from make_rng")
        if parts[-1] == "ring_doorbell" and self._lock_depth == 0:
            self._report(node, VER103,
                         "ring_doorbell() outside a lexical "
                         "`with ....lock:` block publishes a tail the "
                         "lock no longer protects")

    def _visit_with(self, node: "ast.With | ast.AsyncWith") -> None:
        locked = any(
            isinstance(item.context_expr, ast.Attribute)
            and item.context_expr.attr == "lock"
            for item in node.items)
        if locked:
            self._lock_depth += 1
            self.generic_visit(node)
            self._lock_depth -= 1
        else:
            self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    # -- VER104: queue-internal mutation -------------------------------
    def _check_target(self, target: ast.expr) -> None:
        if self.in_nvme:
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element)
            return
        if not isinstance(target, ast.Attribute):
            return
        if target.attr not in _QUEUE_FIELDS:
            return
        receiver = target.value
        is_queue = (
            (isinstance(receiver, ast.Name)
             and receiver.id in _QUEUE_RECEIVERS)
            or (isinstance(receiver, ast.Attribute)
                and receiver.attr in _QUEUE_RECEIVERS))
        if is_queue:
            self._report(target, VER104,
                         f"mutation of queue internal `.{target.attr}` "
                         f"outside repro.nvme breaks the ring protocol "
                         f"encapsulation")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    # -- VER106: hard-coded transfer-method literals -------------------
    def visit_Constant(self, node: ast.Constant) -> None:
        # Exact full-string matches only: docstrings and messages that
        # merely *mention* a method name are prose, not dispatch keys.
        if (self.check_methods and isinstance(node.value, str)
                and node.value in METHOD_LITERALS):
            self._report(node, VER106,
                         f"hard-coded transfer-method literal "
                         f"{node.value!r}; resolve it through "
                         f"repro.datapath.names / the method table")
        self.generic_visit(node)

    # -- VER105: bare or swallowing catch-all except ---------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(node, VER105,
                         "bare `except:` swallows InvariantViolation "
                         "and KeyboardInterrupt; name the exceptions")
        elif _CATCH_ALL & _handler_names(node.type) and not any(
                isinstance(n, ast.Raise) for stmt in node.body
                for n in ast.walk(stmt)):
            self._report(node, VER105,
                         "`except Exception` that never raises swallows "
                         "InvariantViolation; name the exceptions")
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one module's source text; returns unsuppressed findings."""
    posix = Path(path).as_posix()
    in_nvme = "/nvme/" in posix or posix.startswith("nvme/")
    # The datapath package *defines* the method names; tests and
    # benchmarks exercise them as data.  Everything else must go
    # through repro.datapath.names.
    check_methods = not any(
        f"/{part}/" in f"/{posix}" or posix.startswith(f"{part}/")
        for part in ("datapath", "tests", "benchmarks"))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path=path, line=exc.lineno or 0,
                            col=exc.offset or 0, code=VER000,
                            message=f"syntax error: {exc.msg}")]
    linter = _Linter(path=path, in_nvme=in_nvme,
                     check_methods=check_methods)
    linter.visit(tree)
    suppressed = _suppressions(source)
    kept: List[LintFinding] = []
    for finding in sorted(linter.findings,
                          key=lambda f: (f.line, f.col, f.code)):
        codes = suppressed.get(finding.line, set())
        if finding.code in codes or "*" in codes:
            continue
        kept.append(finding)
    return kept


def iter_py_files(paths: Sequence[str]) -> Iterator[Path]:
    """Python files under *paths*, skipping hidden and cache dirs.

    Each file is yielded once even when *paths* overlap (``lint src
    src/repro`` must not double-report).  A path that does not exist
    raises ``FileNotFoundError``: a typo'd CI path must not pass
    silently as "no findings".
    """
    seen: Set[Path] = set()

    def once(candidate: Path) -> Iterator[Path]:
        resolved = candidate.resolve()
        if resolved not in seen:
            seen.add(resolved)
            yield candidate

    for raw in paths:
        root = Path(raw)
        if not root.exists():
            raise FileNotFoundError(f"lint path does not exist: {raw}")
        if root.is_file():
            if root.suffix == ".py":
                yield from once(root)
            continue
        for candidate in sorted(root.rglob("*.py")):
            if any(part.startswith(".") or part == "__pycache__"
                   for part in candidate.parts):
                continue
            yield from once(candidate)


def lint_paths(paths: Sequence[str]) -> List[LintFinding]:
    """Lint every Python file under *paths*."""
    findings: List[LintFinding] = []
    for path in iter_py_files(paths):
        findings.extend(lint_source(path.read_text(encoding="utf-8"),
                                    str(path)))
    return findings


def run_lint(paths: Sequence[str], list_rules: bool = False,
             flow: bool = False, output: str = "text",
             baseline: Optional[str] = None) -> int:
    """CLI entry: print findings, return a shell exit code.

    Exit codes (mirroring ``check_perf_regression.py``'s convention of
    keeping "the input is unusable" distinct from "the check failed"):

    * ``0`` — clean (or every finding grandfathered by *baseline*),
    * ``1`` — unbaselined rule findings,
    * ``2`` — a lint path does not exist,
    * ``3`` — unparseable input (``VER000``); dominates exit 1 so CI
      can tell "the tree broke a rule" from "the tree did not parse".

    With ``flow=True`` the whole-project analysis
    (:mod:`repro.verify.flow`) runs over the same files and its
    findings merge into the report.  *output* selects ``text`` (one
    finding per line), ``json`` (machine-readable report, uploaded as
    a CI artifact) or ``sarif`` (code-scanning import).  *baseline*
    names a ``verify_baseline.json`` of grandfathered findings:
    matches are reported but do not fail the run.
    """
    import sys

    if list_rules:
        from repro.verify.flow.rules import FLOW_RULES
        for code, text in sorted({**LINT_RULES, **FLOW_RULES}.items()):
            print(f"{code}  {text}")
        return 0
    try:
        files = list(iter_py_files(paths))
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2
    findings: List[LintFinding] = []
    for path in files:
        findings.extend(lint_source(path.read_text(encoding="utf-8"),
                                    str(path)))
    if flow:
        from repro.verify.flow import analyze_paths
        findings.extend(analyze_paths(files))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))

    new = findings
    grandfathered: List[LintFinding] = []
    if baseline is not None:
        from repro.verify.flow.report import Baseline
        base = Baseline.load(baseline)
        new, grandfathered, stale = base.split(findings)
        for entry in stale:
            print(f"warning: stale baseline entry (nothing matches): "
                  f"{entry.path}: {entry.code}", file=sys.stderr)

    if output == "json":
        from repro.verify.flow.report import render_json
        print(render_json(new, grandfathered))
    elif output == "sarif":
        from repro.verify.flow.report import render_sarif
        from repro.verify.flow.rules import FLOW_RULES
        rules = {**LINT_RULES, **FLOW_RULES,
                 VER000: "file does not parse"}
        print(render_sarif(new, grandfathered, rules))
    else:
        for finding in new:
            print(finding)
        if grandfathered:
            print(f"{len(grandfathered)} grandfathered finding(s) "
                  f"(see {baseline})")
        if new:
            print(f"{len(new)} finding(s)")

    if any(f.code == VER000 for f in findings):
        return 3
    return 1 if new else 0
