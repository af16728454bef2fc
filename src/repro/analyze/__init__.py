"""``repro.analyze``: CFG- and dataflow-based static analysis for the repo.

``python -m repro.analyze src/`` parses every Python file, builds
per-function control-flow graphs (:mod:`repro.analyze.cfg`), runs the
registered checkers (:mod:`repro.analyze.checkers`) over them with the
worklist solver in :mod:`repro.analyze.dataflow`, and reports findings
with rule id and -- for the path-sensitive rules -- the CFG path that
witnesses the defect.  Every finding is an error, and every rule runs:
there is no rule filter and no suppression comment.

Output formats: human-readable text (default) and ``--format sarif``
(SARIF 2.1.0 with code flows) for CI upload.  Exit status is 0 when
clean, 1 when findings are reported, 2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Iterable, Sequence

from repro.analyze.checkers import ALL_CHECKERS, RULE_CATALOG
from repro.analyze.model import Checker, Finding, ModuleModel, normalize_path
from repro.analyze.sarif import sarif_json

__all__ = [
    "Finding",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "main",
    "ALL_CHECKERS",
    "RULE_CATALOG",
]

# --------------------------------------------------------------------------
# Core driver
# --------------------------------------------------------------------------


def analyze_source(
    source: str,
    path: str = "<string>",
    checkers: Sequence[Checker] | None = None,
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
    found: list[Finding] = []
    for checker in checkers if checkers is not None else ALL_CHECKERS:
        if checker.applies_to(norm):
            found.extend(checker.check(module))
    found.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return found


def analyze_file(path: str, checkers: Sequence[Checker] | None = None) -> list[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        return analyze_source(fh.read(), path, checkers)


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
    paths: Iterable[str], checkers: Sequence[Checker] | None = None
) -> list[Finding]:
    """Analyze files and directory trees; returns all findings."""
    found: list[Finding] = []
    for path in _iter_python_files(paths):
        found.extend(analyze_file(path, checkers))
    return found


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


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
        choices=("text", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument("--output", help="write the report to this file instead of stdout")
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULE_CATALOG:
            print(f"{rule.id}: {rule.description}")
        return 0

    paths = args.paths or ["src/"]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    findings = analyze_paths(paths)

    if args.format == "sarif":
        report = sarif_json(findings)
    else:
        lines = [str(f) for f in findings]
        nfiles = sum(1 for _ in _iter_python_files(paths))
        if findings:
            lines.append(f"{len(findings)} finding(s) in {nfiles} file(s)")
        else:
            lines.append(f"clean: {nfiles} file(s), {len(RULE_CATALOG)} rules")
        report = "\n".join(lines)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    else:
        print(report)
    return 1 if findings else 0
