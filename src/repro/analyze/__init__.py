"""``repro.analyze``: CFG- and dataflow-based static analysis for the repo.

``python -m repro.analyze src/`` parses every Python file, builds
per-function control-flow graphs (:mod:`repro.analyze.cfg`), runs the
registered checkers (:mod:`repro.analyze.checkers`) over them with the
worklist solvers in :mod:`repro.analyze.dataflow`, and reports findings
with rule id, severity, and -- for the path-sensitive rules -- the CFG
path that witnesses the defect.

Output formats: human-readable text (default), ``--format json`` for
tooling, and ``--format sarif`` (SARIF 2.1.0 with code flows) for CI
upload.  Exit status is 0 when clean, 1 when findings are reported, 2 on
usage/IO errors.

Suppression: a ``# analyze: allow(rule-id)`` pragma on the flagged line or
the line above it waives a rule at one site::

    stamp = time.time()  # analyze: allow(bare-time-call)
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from typing import Iterable, Sequence

from repro.analyze.checkers import ALL_CHECKERS, RULE_CATALOG, checker_emits
from repro.analyze.model import Checker, Finding, ModuleModel, normalize_path
from repro.analyze.sarif import sarif_json, to_sarif

__all__ = [
    "Finding",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "main",
    "ALL_CHECKERS",
    "RULE_CATALOG",
]

_PRAGMA_RE = re.compile(r"#\s*analyze:\s*allow\(([a-z0-9_,\s-]+)\)")


def _waivers(source: str) -> dict[int, frozenset[str]]:
    """Line number -> rule ids waived on that line (pragma comments)."""
    out: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _PRAGMA_RE.search(text)
        if m:
            out[lineno] = frozenset(
                part.strip() for part in m.group(1).split(",") if part.strip()
            )
    return out


def _waived(waivers: dict[int, frozenset[str]], line: int, rule_id: str) -> bool:
    for probe in (line, line - 1):
        rules = waivers.get(probe)
        if rules and rule_id in rules:
            return True
    return False


# --------------------------------------------------------------------------
# Core driver
# --------------------------------------------------------------------------


def analyze_source(
    source: str,
    path: str = "<string>",
    checkers: Sequence[Checker] | None = None,
    rules: frozenset[str] | None = None,
) -> list[Finding]:
    """Analyze one module's source text; findings sorted by location."""
    norm = normalize_path(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=norm,
                line=exc.lineno or 0,
                col=(exc.offset or 1) - 1,
                rule_id="syntax-error",
                message=f"cannot parse: {exc.msg}",
            )
        ]
    module = ModuleModel(norm, source, tree)
    waivers = _waivers(source)
    found: list[Finding] = []
    for checker in checkers if checkers is not None else ALL_CHECKERS:
        if rules is not None and not (set(checker_emits(checker)) & rules):
            continue
        if not checker.applies_to(norm):
            continue
        for finding in checker.check(module):
            if rules is not None and finding.rule_id not in rules:
                continue
            if _waived(waivers, finding.line, finding.rule_id):
                continue
            found.append(finding)
    found.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return found


def analyze_file(
    path: str,
    checkers: Sequence[Checker] | None = None,
    rules: frozenset[str] | None = None,
) -> list[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        return analyze_source(fh.read(), path, checkers, rules)


def _iter_python_files(paths: Iterable[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        else:
            yield path


def analyze_paths(
    paths: Iterable[str],
    checkers: Sequence[Checker] | None = None,
    rules: frozenset[str] | None = None,
) -> list[Finding]:
    """Analyze files and directory trees; returns all findings."""
    found: list[Finding] = []
    for path in _iter_python_files(paths):
        found.extend(analyze_file(path, checkers, rules))
    return found


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def _findings_json(findings: Sequence[Finding]) -> str:
    return json.dumps(
        [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "rule": f.rule_id,
                "severity": f.severity,
                "message": f.message,
                "witness": list(f.witness),
            }
            for f in findings
        ],
        indent=2,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="CFG/dataflow static analyzer for the repro codebase.",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to analyze (default: src/)"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument("--output", help="write the report to this file instead of stdout")
    parser.add_argument(
        "--rules", help="comma-separated rule ids to run (default: all)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULE_CATALOG:
            print(f"{rule.id} [{rule.severity}]: {rule.description}")
        return 0

    rules: frozenset[str] | None = None
    if args.rules:
        rules = frozenset(r.strip() for r in args.rules.split(",") if r.strip())
        known = {r.id for r in RULE_CATALOG} | {"syntax-error"}
        unknown = rules - known
        if unknown:
            print(f"error: unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2

    paths = args.paths or ["src/"]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    findings = analyze_paths(paths, rules=rules)

    if args.format == "sarif":
        report = sarif_json(findings)
    elif args.format == "json":
        report = _findings_json(findings)
    else:
        lines = [str(f) for f in findings]
        nfiles = sum(1 for _ in _iter_python_files(paths))
        if findings:
            nerr = sum(1 for f in findings if f.severity == "error")
            nwarn = len(findings) - nerr
            lines.append(
                f"{len(findings)} finding(s) ({nerr} error(s), {nwarn} warning(s)) "
                f"in {nfiles} file(s)"
            )
        else:
            lines.append(f"clean: {nfiles} file(s), {len(RULE_CATALOG)} rules")
        report = "\n".join(lines)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    else:
        print(report)
    return 1 if findings else 0


# Re-export for callers that want to build SARIF themselves.
to_sarif = to_sarif
