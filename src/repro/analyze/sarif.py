"""SARIF 2.1.0 export for analyzer findings.

One run, one driver (``repro-analyze``), one rule entry per catalog rule,
one result per finding.  Findings with a CFG path witness export it as a
``codeFlow`` whose thread-flow locations carry the step descriptions, so
SARIF viewers (and the GitHub code-scanning UI) can replay the path that
leads to the defect.  Every finding is an error, so every result and
rule has level ``error``.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.analyze.checkers import RULE_CATALOG
from repro.analyze.model import Finding

__all__ = ["to_sarif", "sarif_json"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_entries() -> list[dict]:
    return [
        {
            "id": rule.id,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in RULE_CATALOG
    ]


def _location(finding: Finding) -> dict:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": finding.path},
            "region": {
                "startLine": finding.line,
                "startColumn": finding.col + 1,
            },
        }
    }


def _code_flow(finding: Finding) -> dict:
    steps = []
    for step in finding.witness:
        steps.append(
            {
                "location": {
                    **_location(finding),
                    "message": {"text": step},
                }
            }
        )
    return {"threadFlows": [{"locations": steps}]}


def to_sarif(findings: Iterable[Finding], tool_version: str = "1.0.0") -> dict:
    results = []
    for f in findings:
        result = {
            "ruleId": f.rule_id,
            "level": "error",
            "message": {"text": f.message},
            "locations": [_location(f)],
        }
        if f.witness:
            result["codeFlows"] = [_code_flow(f)]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri": "https://example.invalid/repro",
                        "version": tool_version,
                        "rules": _rule_entries(),
                    }
                },
                "results": results,
            }
        ],
    }


def sarif_json(findings: Iterable[Finding], tool_version: str = "1.0.0") -> str:
    return json.dumps(to_sarif(findings, tool_version), indent=2, sort_keys=True)
