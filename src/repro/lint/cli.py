"""``python -m repro.lint`` — run the invariant checkers.

Modes:

* default / ``--check``: lint ``src/repro``, subtract the baseline,
  report **new** findings plus **stale** and **unjustified** baseline
  entries; exit 1 if any of the three exist, 0 otherwise.  (``--check``
  is an explicit alias so CI invocations read as what they are.)
* ``--write-baseline``: rewrite the baseline file from the current
  findings.  Existing justifications are preserved by ``(rule, file,
  line)``; new entries get a ``TODO`` placeholder that ``--check``
  rejects until a human writes the one-line reason.
* ``--json``: machine-readable report on stdout (same exit codes).
* ``--format=github``: one ``::error file=...,line=...`` workflow
  annotation per problem, so findings land on the PR diff in CI.

The project root is auto-detected by walking up from the current
directory to the first ``pyproject.toml``; override with ``--root``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from .baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .core import run_lint
from .rules import ALL_CHECKERS


def find_root(start: Path | None = None) -> Path:
    """Nearest ancestor holding ``pyproject.toml`` (else the start dir)."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return here


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant checker for this repository's "
        "correctness conventions (docs/static_analysis.md).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/repro under the root)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="project root (default: auto-detect via pyproject.toml)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="explicit check mode (the default behaviour; reads well in CI)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from current findings and exit",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding",
    )
    parser.add_argument("--json", action="store_true", help="JSON report")
    parser.add_argument(
        "--format", choices=("text", "github"), default="text",
        help="finding output style: plain text, or GitHub workflow "
        "::error annotations (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def _github_annotation(file: str, line: int, rule: str, message: str) -> str:
    """One GitHub Actions workflow-command error annotation.

    Newlines and the command's reserved characters must be URL-encoded
    or the runner truncates the message at the first one.
    """
    def escape(text: str, extra: str = "") -> str:
        for char, code in (
            ("%", "%25"), ("\r", "%0D"), ("\n", "%0A"),
            *((c, f"%{ord(c):02X}") for c in extra),
        ):
            text = text.replace(char, code)
        return text

    return (
        f"::error file={escape(file, ',:')},line={line},"
        f"title={escape(rule, ',:')}::{escape(message)}"
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for cls in ALL_CHECKERS:
            print(f"{cls.rule_id:20s} {cls.description}")
        return 0

    root = (args.root or find_root()).resolve()
    baseline_path = args.baseline or root / DEFAULT_BASELINE_NAME
    if not baseline_path.is_absolute():
        baseline_path = root / baseline_path

    findings = run_lint(root, paths=args.paths or None)

    if args.write_baseline:
        previous = load_baseline(baseline_path)
        entries = write_baseline(baseline_path, findings, previous)
        todo = sum(1 for e in entries if e.justification.startswith("TODO"))
        print(
            f"wrote {len(entries)} baseline entr"
            f"{'y' if len(entries) == 1 else 'ies'} to {baseline_path}"
            + (f" ({todo} still need a justification)" if todo else "")
        )
        return 0

    entries = [] if args.no_baseline else load_baseline(baseline_path)
    report = apply_baseline(findings, entries)

    if args.json:
        print(
            json.dumps(
                {
                    "root": str(root),
                    "baseline": str(baseline_path),
                    "new": [f.to_dict() for f in report.new],
                    "stale_baseline": [e.to_dict() for e in report.stale],
                    "unjustified_baseline": [
                        e.to_dict() for e in report.unjustified
                    ],
                    "suppressed": len(report.suppressed),
                    "clean": report.clean,
                },
                indent=2,
            )
        )
        return 0 if report.clean else 1

    if args.format == "github":
        for finding in report.new:
            print(
                _github_annotation(
                    finding.file, finding.line, finding.rule, finding.message
                )
            )
        for entry in report.stale:
            print(
                _github_annotation(
                    entry.file, entry.line, entry.rule,
                    f"stale baseline entry ({entry.message}) — the finding "
                    "is gone, delete the suppression",
                )
            )
        for entry in report.unjustified:
            print(
                _github_annotation(
                    entry.file, entry.line, entry.rule,
                    "baseline entry has no justification — write the "
                    "one-line reason",
                )
            )
    else:
        for finding in report.new:
            print(finding.render())
        for entry in report.stale:
            print(
                f"{entry.render()}  [stale baseline entry: finding no longer "
                "present — delete it from the baseline]"
            )
        for entry in report.unjustified:
            print(
                f"{entry.render()}  [baseline entry has no justification — "
                "write the one-line reason]"
            )
    suppressed = len(report.suppressed)
    if report.clean:
        print(
            f"lint clean: 0 new findings"
            + (f", {suppressed} baselined" if suppressed else "")
        )
        return 0
    print(
        f"lint FAILED: {len(report.new)} new, {len(report.stale)} stale "
        f"baseline, {len(report.unjustified)} unjustified baseline "
        f"({suppressed} suppressed)"
    )
    return 1


__all__ = ["build_parser", "find_root", "main"]
