"""SARIF 2.1.0 reporter for repro-lint findings.

SARIF (Static Analysis Results Interchange Format) is what GitHub code
scanning ingests: uploading the report from CI turns every finding into an
inline annotation on the pull request.  Only the small, stable subset of
the schema that code scanning reads is emitted.
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.lint.model import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "repro-lint"
TOOL_URI = "https://github.com/repro/repro"


def sarif_report(
    findings: list[Finding], rule_summaries: dict[str, str] | None = None
) -> dict[str, object]:
    """Build the SARIF log object (JSON-serializable dict)."""
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
