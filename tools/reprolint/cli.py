"""``python -m reprolint``: the command-line front end.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage/configuration
error.  ``--json`` swaps the human diagnostics for the machine document
CI consumes (schema in :data:`reprolint.JSON_SCHEMA_VERSION`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from reprolint import __version__
from reprolint.engine import all_rules, run_paths
from reprolint.manifest import ManifestError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=("AST contract checker for the repo's "
                     "reproducibility, seed-discipline, and spec "
                     "invariants (see docs/CONTRACTS.md)"))
    parser.add_argument("paths", nargs="*",
                        help="files and/or directories to lint")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable JSON report")
    parser.add_argument("--manifest", metavar="TOML",
                        help="contract manifest (default: the repo's "
                             "tools/reprolint/contract_manifest.toml)")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--lint-tests", action="store_true",
                        help="apply test-exempt rules (RL001) to "
                             "test/fixture files too (corpus runs)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    parser.add_argument("--version", action="version",
                        version=f"reprolint {__version__}")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  [{rule.severity}]  {rule.name}: "
                  f"{rule.description}")
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m reprolint src)")

    select = [r for r in (args.select or "").split(",") if r.strip()] \
        or None
    try:
        report = run_paths(args.paths, manifest_path=args.manifest,
                           select=select, lint_tests=args.lint_tests)
    except (ManifestError, ValueError) as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2

    print(report.to_json() if args.json else report.render())
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
