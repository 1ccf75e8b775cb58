"""Rule registry, file walking, suppressions, and the lint driver.

The engine is deliberately small: it parses every target file once,
hands the syntax tree to each registered rule, and post-filters the
diagnostics through the inline-suppression comments.  Rules are pure
functions of the AST (plus the manifest), so the whole linter is
deterministic and needs nothing beyond the standard library.

Suppression grammar (one per physical line)::

    expr()  # reprolint: disable=RL001 -- why this is safe
    # reprolint: disable=RL001,RL003 -- why (applies to the next line)

The justification after ``--`` is mandatory; a bare ``disable=`` is
itself a finding (RL000) and suppresses nothing — reviewer lore is
exactly what this tool exists to replace, so every exception carries
its reason in the source.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from reprolint.manifest import Manifest, load_manifest

#: Severity levels, in increasing order of gravity.
SEVERITIES = ("warning", "error")

_DISABLE_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]*?)"
    r"\s*(?:--\s*(\S.*?))?\s*$")


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where, which contract, and what went wrong."""

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "severity": self.severity,
                "message": self.message}

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.severity}: {self.message}")


@dataclass
class Suppression:
    """A parsed ``# reprolint: disable=...`` comment."""

    line: int           # line the comment sits on
    applies_to: int     # line whose diagnostics it silences
    rules: tuple
    justified: bool
    used: bool = False


class FileContext:
    """One parsed source file, shared by every rule."""

    def __init__(self, path: Path, display: str, source: str,
                 tree: ast.AST, lint_tests: bool):
        self.path = path
        self.display = display
        self.posix = path.as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: Whether this file is a test/fixture helper (RL001 exempts
        #: those unless the engine was asked to lint tests too — the
        #: corpus suite runs with ``lint_tests=True``).
        self.is_test_helper = (not lint_tests) and _looks_like_test(path)
        self.suppressions = _parse_suppressions(self.lines)
        #: Rule-populated scratch cache (import maps etc.).
        self.cache: dict = {}

    def diagnostic(self, rule: "Rule", node, message: str) -> Diagnostic:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Diagnostic(self.display, line, col, rule.rule_id,
                          rule.severity, message)


def _looks_like_test(path: Path) -> bool:
    name = path.name
    if name.startswith("test_") or name.startswith("conftest"):
        return True
    return any(part in ("tests", "testing") for part in path.parts[:-1])


def _parse_suppressions(lines) -> list:
    out = []
    for idx, raw in enumerate(lines, start=1):
        if "reprolint" not in raw:
            continue
        match = _DISABLE_RE.search(raw)
        if match is None:
            continue
        rules = tuple(r.strip().upper()
                      for r in match.group(1).split(",") if r.strip())
        justification = (match.group(2) or "").strip()
        if raw.lstrip().startswith("#"):
            # Standalone comment: silence the next code line (the
            # justification may wrap onto further comment lines).
            applies_to = idx + 1
            while applies_to <= len(lines) \
                    and lines[applies_to - 1].lstrip().startswith("#"):
                applies_to += 1
        else:
            applies_to = idx  # trailing comment: silence its own line
        out.append(Suppression(
            line=idx,
            applies_to=applies_to,
            rules=rules,
            justified=bool(rules) and bool(justification)))
    return out


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
class Rule:
    """Base class: subclass, set the metadata, implement ``check``."""

    rule_id: str = "RL???"
    name: str = ""
    severity: str = "error"
    description: str = ""
    #: Project-wide rules see every file at once (``check_project``).
    project_wide: bool = False

    def check(self, ctx: FileContext,
              manifest: Manifest) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def check_project(self, contexts: list,
                      manifest: Manifest) -> Iterator[Diagnostic]:
        raise NotImplementedError


_REGISTRY: dict[str, type] = {}


def register_rule(cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    if not issubclass(cls, Rule) or not cls.rule_id.startswith("RL"):
        raise TypeError(f"not a reprolint rule: {cls!r}")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> list:
    """Fresh instances of every registered rule, sorted by id."""
    import reprolint.rules  # noqa: F401  (registration side effect)
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


#: Engine-level findings (bad file / bad suppression) report as RL000.
RL000 = "RL000"


@dataclass
class LintReport:
    """Everything one lint run produced."""

    diagnostics: list = field(default_factory=list)
    files_checked: int = 0
    rule_ids: tuple = ()

    @property
    def exit_code(self) -> int:
        return 1 if any(d.severity == "error" for d in self.diagnostics) \
            else 0

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for d in self.diagnostics:
            out[d.rule] = out.get(d.rule, 0) + 1
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        from reprolint import JSON_SCHEMA_VERSION, __version__
        doc = {
            "tool": "reprolint",
            "version": __version__,
            "schema": JSON_SCHEMA_VERSION,
            "files_checked": self.files_checked,
            "rules": list(self.rule_ids),
            "counts": self.counts(),
            "exit_code": self.exit_code,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        return json.dumps(doc, indent=indent, sort_keys=True)

    def render(self) -> str:
        lines = [d.render() for d in self.diagnostics]
        counts = self.counts()
        if counts:
            summary = ", ".join(f"{rule}: {n}"
                                for rule, n in sorted(counts.items()))
            lines.append(f"reprolint: {len(self.diagnostics)} finding(s) "
                         f"in {self.files_checked} file(s) ({summary})")
        else:
            lines.append(f"reprolint: clean "
                         f"({self.files_checked} file(s) checked)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def iter_python_files(paths: Iterable) -> Iterator[Path]:
    """Expand files/directories to ``.py`` files, deterministically."""
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not any(part == "__pycache__" or part.startswith(".")
                           for part in p.relative_to(path).parts))
        else:
            candidates = [path]
        for p in candidates:
            key = p.resolve()
            if key not in seen:
                seen.add(key)
                yield p


def _display(path: Path) -> str:
    """Repo-relative posix display when possible, else as given."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def run_paths(paths, manifest: Optional[Manifest] = None,
              manifest_path=None, select=None,
              lint_tests: bool = False) -> LintReport:
    """Lint ``paths`` and return the full report.

    Args:
        paths: files and/or directories.
        manifest: a pre-loaded :class:`Manifest` (tests build these);
            otherwise ``manifest_path`` (or the repo default) is read.
        select: optional iterable of rule ids to run (default: all).
        lint_tests: also apply the test-exempt rules (RL001) to
            test/fixture files — the corpus suite turns this on.
    """
    if manifest is None:
        manifest = load_manifest(manifest_path)
    rules = all_rules()
    if select:
        wanted = {r.upper() for r in select}
        unknown = wanted - {r.rule_id for r in rules}
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
        rules = [r for r in rules if r.rule_id in wanted]

    contexts = []
    raw_diags = []
    files_checked = 0
    for path in iter_python_files(paths):
        files_checked += 1
        display = _display(path)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            raw_diags.append(Diagnostic(
                display, getattr(exc, "lineno", 1) or 1, 1, RL000,
                "error", f"cannot lint file: {exc}"))
            continue
        contexts.append(FileContext(path, display, source, tree,
                                    lint_tests))

    for ctx in contexts:
        for rule in rules:
            if not rule.project_wide:
                raw_diags.extend(rule.check(ctx, manifest))
    for rule in rules:
        if rule.project_wide:
            raw_diags.extend(rule.check_project(contexts, manifest))

    diagnostics = []
    for diag in raw_diags:
        ctx = next((c for c in contexts if c.display == diag.path), None)
        if ctx is not None and _suppressed(ctx, diag):
            continue
        diagnostics.append(diag)

    # Suppression hygiene: a disable comment without a justification is
    # a finding in its own right (and silenced nothing above).
    for ctx in contexts:
        for sup in ctx.suppressions:
            if not sup.justified:
                diagnostics.append(Diagnostic(
                    ctx.display, sup.line, 1, RL000, "error",
                    "suppression without justification: write "
                    "'# reprolint: disable=RLxxx -- <why this is safe>'"))

    diagnostics.sort(key=Diagnostic.sort_key)
    return LintReport(diagnostics=diagnostics,
                      files_checked=files_checked,
                      rule_ids=tuple(r.rule_id for r in rules))


def _suppressed(ctx: FileContext, diag: Diagnostic) -> bool:
    for sup in ctx.suppressions:
        if (sup.justified and sup.applies_to == diag.line
                and diag.rule in sup.rules):
            sup.used = True
            return True
    return False
