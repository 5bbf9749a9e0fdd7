"""Reporters turning lint findings into text, JSON or SARIF output."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from repro.analysis.lint.model import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "repro-lint"
TOOL_URI = "https://github.com/repro/repro"


def render_text(findings: list[Finding]) -> str:
    """GCC-style one-line-per-finding report, ending with a summary line."""
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}"
        for f in sorted(findings, key=Finding.sort_key)
    ]
    if findings:
        counts = Counter(f.rule for f in findings)
        breakdown = ", ".join(
            f"{rule}={count}" for rule, count in sorted(counts.items())
        )
        lines.append(f"repro-lint: {len(findings)} finding(s) ({breakdown})")
    else:
        lines.append("repro-lint: clean")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """Machine-readable report: findings plus per-rule counts."""
    ordered = sorted(findings, key=Finding.sort_key)
    payload = {
        "findings": [f.to_dict() for f in ordered],
        "counts": dict(sorted(Counter(f.rule for f in ordered).items())),
        "total": len(ordered),
    }
    return json.dumps(payload, indent=2)


def sarif_report(
    findings: list[Finding], rule_summaries: dict[str, str] | None = None
) -> dict[str, object]:
    """SARIF 2.1.0 log object (JSON-serializable dict).

    SARIF is what GitHub code scanning ingests: uploading the report from
    CI turns every finding into an inline annotation on the pull request.
    Only the small, stable subset of the schema that code scanning reads
    is emitted.
    """
    summaries = rule_summaries or {}
    rule_ids = sorted({finding.rule for finding in findings} | set(summaries))
    rules = [
        {
            "id": rule_id,
            "shortDescription": {
                "text": summaries.get(rule_id, rule_id),
            },
        }
        for rule_id in rule_ids
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": max(finding.col, 1),
                        },
                    }
                }
            ],
            "partialFingerprints": {
                "reproLint/v1": finding_fingerprint(finding),
            },
        }
        for finding in findings
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(
    findings: list[Finding], rule_summaries: dict[str, str] | None = None
) -> str:
    """Serialize :func:`sarif_report` to pretty-printed JSON."""
    return json.dumps(sarif_report(findings, rule_summaries), indent=2) + "\n"


def finding_fingerprint(finding: Finding) -> str:
    """Stable identity of a finding: sha1 of rule, path, and message.

    Not the line number, so unrelated edits that shift code around keep a
    finding's identity across code-scanning uploads.
    """
    payload = f"{finding.rule}|{finding.path}|{finding.message}"
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()
