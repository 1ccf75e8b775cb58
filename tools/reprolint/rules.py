"""The repo contracts, as AST rules (RL001, RL003-RL005).

Each rule states one invariant the bit-identical certification of PRs
1-5 rests on.  The rules resolve names through the file's actual
imports (``import numpy as np``, ``from numpy.random import
default_rng``, ...) rather than by string matching, so renaming an
alias neither evades nor confuses them.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from reprolint.engine import Diagnostic, FileContext, Rule, register_rule
from reprolint.manifest import Manifest


# ----------------------------------------------------------------------
# Shared import/name resolution
# ----------------------------------------------------------------------
class ImportMap:
    """Which local names are bound to which interesting modules."""

    def __init__(self, tree: ast.AST):
        self.numpy = set()          # names bound to the numpy module
        self.numpy_random = set()   # names bound to numpy.random
        self.from_numpy_random = {}  # local name -> numpy.random attr
        self.os = set()             # names bound to the os module
        self.from_os = {}           # local name -> os attr
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy" or \
                            alias.name.startswith("numpy."):
                        if alias.name == "numpy.random" and alias.asname:
                            self.numpy_random.add(local)
                        else:
                            self.numpy.add(local)
                    elif alias.name == "os" or alias.name.startswith("os."):
                        self.os.add(local)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy" and node.level == 0:
                    for alias in node.names:
                        if alias.name == "random":
                            self.numpy_random.add(alias.asname or "random")
                elif node.module == "numpy.random" and node.level == 0:
                    for alias in node.names:
                        self.from_numpy_random[alias.asname or alias.name] \
                            = alias.name
                elif node.module == "os" and node.level == 0:
                    for alias in node.names:
                        self.from_os[alias.asname or alias.name] = alias.name


def imports(ctx: FileContext) -> ImportMap:
    if "imports" not in ctx.cache:
        ctx.cache["imports"] = ImportMap(ctx.tree)
    return ctx.cache["imports"]


def dotted_parts(node) -> Optional[list]:
    """``np.random.default_rng`` -> ``["np", "random", "default_rng"]``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _argless(call: ast.Call) -> bool:
    return not call.args and not call.keywords


# ----------------------------------------------------------------------
# RL001 — seed discipline
# ----------------------------------------------------------------------
#: numpy.random module-level functions driving the hidden global RNG.
LEGACY_GLOBAL_RNG = frozenset({
    "seed", "get_state", "set_state",
    "rand", "randn", "randint", "random_integers", "random", "ranf",
    "random_sample", "sample", "bytes", "choice", "shuffle",
    "permutation", "uniform", "normal", "standard_normal", "binomial",
    "poisson", "exponential", "geometric", "beta", "gamma", "laplace",
    "lognormal", "multinomial", "multivariate_normal", "pareto",
    "triangular", "vonmises", "weibull", "zipf", "chisquare",
    "dirichlet", "f", "hypergeometric", "logistic", "logseries",
    "negative_binomial", "noncentral_chisquare", "noncentral_f",
    "power", "rayleigh", "standard_cauchy", "standard_exponential",
    "standard_gamma", "standard_t", "wald",
})

#: Constructors that fall back to OS entropy when called with no args.
ENTROPY_CTORS = frozenset({
    "default_rng", "SeedSequence", "PCG64", "PCG64DXSM", "MT19937",
    "Philox", "SFC64",
})


@register_rule
class SeedDiscipline(Rule):
    """No hidden-global or entropy-seeded RNG: generators are threaded.

    The reproducibility contract (PR 1 onward) is that every random
    stream derives from an explicit seed through ``SeedSequence``
    spawning, so a campaign is a pure function of its spec.  Both the
    legacy ``np.random.*`` global-state API and argless constructors
    (``default_rng()``, ``SeedSequence()``, bare bit generators) break
    that: they draw OS entropy invisible to any spec hash.
    """

    rule_id = "RL001"
    name = "seed-discipline"
    severity = "error"
    description = ("no numpy legacy global-RNG calls; no entropy-seeded "
                   "(argless) generator construction outside tests")

    def check(self, ctx: FileContext,
              manifest: Manifest) -> Iterator[Diagnostic]:
        if ctx.is_test_helper:
            return
        imap = imports(ctx)
        if not (imap.numpy or imap.numpy_random
                or imap.from_numpy_random):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                yield from self._check_attribute(ctx, imap, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, imap, node)

    def _resolve_random_attr(self, imap: ImportMap,
                             parts: list) -> Optional[str]:
        """The ``numpy.random`` attribute a dotted chain names, if any."""
        if len(parts) >= 3 and parts[0] in imap.numpy \
                and parts[1] == "random":
            return parts[2]
        if len(parts) >= 2 and parts[0] in imap.numpy_random:
            return parts[1]
        if parts and parts[0] in imap.from_numpy_random:
            return imap.from_numpy_random[parts[0]]
        return None

    def _check_attribute(self, ctx, imap, node) -> Iterator[Diagnostic]:
        parts = dotted_parts(node)
        if parts is None:
            return
        attr = self._resolve_random_attr(imap, parts)
        # Only report on the exact chain naming the function (not on
        # every enclosing attribute of a longer chain).
        if attr in LEGACY_GLOBAL_RNG and parts[-1] == attr:
            yield ctx.diagnostic(
                self, node,
                f"legacy global-state RNG 'numpy.random.{attr}' — derive "
                "a Generator from the campaign's threaded SeedSequence "
                "instead")

    def _check_call(self, ctx, imap, node) -> Iterator[Diagnostic]:
        parts = dotted_parts(node.func)
        if parts is None:
            return
        attr = self._resolve_random_attr(imap, parts)
        if attr in ENTROPY_CTORS and _argless(node):
            yield ctx.diagnostic(
                self, node,
                f"entropy-seeded 'numpy.random.{attr}()' (no seed "
                "argument) — reproducible code threads an explicit "
                "SeedSequence-derived seed")


# ----------------------------------------------------------------------
# RL003 — env-knob ownership
# ----------------------------------------------------------------------
@register_rule
class EnvKnobOwnership(Rule):
    """``os.environ`` / ``os.getenv`` live only in ``repro/config.py``.

    PR 5 moved every ``REPRO_*`` read behind :mod:`repro.config` so
    knob defaults, call-time resolution, and the provenance snapshot
    cannot drift apart.  Any other module reading the environment
    reintroduces an invisible input to a "reproducible" run.
    """

    rule_id = "RL003"
    name = "env-knob-ownership"
    severity = "error"
    description = ("environment reads (os.environ / os.getenv) are owned "
                   "by repro/config.py")

    _ENV_ATTRS = frozenset({"environ", "environb", "getenv", "putenv",
                            "unsetenv"})

    def check(self, ctx: FileContext,
              manifest: Manifest) -> Iterator[Diagnostic]:
        if manifest.is_env_owner(ctx.posix):
            return
        imap = imports(ctx)
        for local, attr in imap.from_os.items():
            if attr in self._ENV_ATTRS:
                node = self._import_node(ctx, attr)
                yield ctx.diagnostic(
                    self, node,
                    f"'from os import {attr}' outside the env-knob owner "
                    "— read knobs through repro.config")
        if not imap.os:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in imap.os \
                    and node.attr in self._ENV_ATTRS:
                yield ctx.diagnostic(
                    self, node,
                    f"'os.{node.attr}' outside the env-knob owner "
                    f"(repro/config.py) — add a knob accessor to "
                    f"repro.config instead of reading the environment "
                    f"directly")

    @staticmethod
    def _import_node(ctx, attr):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os" \
                    and any(a.name == attr for a in node.names):
                return node
        return ctx.tree


# ----------------------------------------------------------------------
# RL004 — spec discipline
# ----------------------------------------------------------------------
#: Builtin annotation heads that JSON round-trips structurally.
_JSON_SCALARS = frozenset({"int", "float", "str", "bool"})
_JSON_CONTAINERS = frozenset({"dict", "list", "tuple",
                              "Dict", "List", "Tuple",
                              "Mapping", "Sequence"})
_JSON_WRAPPERS = frozenset({"Optional", "Union", "Literal"})
_KNOWN_BAD = {
    "Any": "erases the wire schema",
    "object": "erases the wire schema",
    "bytes": "has no JSON encoding",
    "bytearray": "has no JSON encoding",
    "set": "serializes in nondeterministic order",
    "frozenset": "serializes in nondeterministic order",
    "Set": "serializes in nondeterministic order",
    "FrozenSet": "serializes in nondeterministic order",
    "Callable": "is not a value type",
    "ndarray": "does not JSON-round-trip (spec fields are plain values)",
}


@register_rule
class SpecDiscipline(Rule):
    """Registered campaign specs are frozen, JSON-round-trippable facts.

    ``spec_hash`` keys checkpoint shards and result provenance, so a
    registered spec type must be immutable (``@dataclass(frozen=True)``)
    and every field must survive the JSON wire format.  Detection is
    structural: the rule finds ``register_campaign(X)`` call sites
    anywhere in the linted tree and then audits the class definition of
    every ``X`` — naming conventions play no part.

    Field audits *recurse* through nested dataclasses: an annotation
    naming a dataclass defined anywhere in the linted tree is legal
    exactly when that dataclass is itself frozen and every one of its
    fields (transitively) survives the wire — so a spec can embed rich
    value objects (``Scenario`` holding ``StrikeEvent`` tuples) without
    each one needing a manifest ``json_convertible`` entry, while a
    mutable or set-carrying nested type is still a finding at the spec
    field that reaches it.  Self-referential nestings terminate (a
    cycle is audited once).
    """

    rule_id = "RL004"
    name = "spec-discipline"
    severity = "error"
    description = ("register_campaign'd spec classes must be frozen "
                   "dataclasses with JSON-representable fields")
    project_wide = True

    def check_project(self, contexts: list,
                      manifest: Manifest) -> Iterator[Diagnostic]:
        registered = set()
        dataclasses = {}  # class name -> its ClassDef, first wins
        for ctx in contexts:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Call):
                    name = self._registration_target(node)
                    if name is not None:
                        registered.add(name)
                elif isinstance(node, ast.ClassDef) \
                        and self._dataclass_frozen(node) is not None:
                    dataclasses.setdefault(node.name, node)
        if not registered:
            return
        for ctx in contexts:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef) \
                        and node.name in registered:
                    yield from self._check_spec_class(
                        ctx, node, manifest, dataclasses)

    @staticmethod
    def _registration_target(call: ast.Call) -> Optional[str]:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name != "register_campaign" or not call.args:
            return None
        target = call.args[0]
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return None

    def _check_spec_class(self, ctx, node: ast.ClassDef,
                          manifest: Manifest,
                          dataclasses: dict) -> Iterator[Diagnostic]:
        frozen = self._dataclass_frozen(node)
        if frozen is None:
            yield ctx.diagnostic(
                self, node,
                f"registered spec '{node.name}' is not a dataclass — "
                "campaign specs must be '@dataclass(frozen=True)'")
        elif frozen is not True:
            yield ctx.diagnostic(
                self, node,
                f"registered spec '{node.name}' is not frozen — its hash "
                "keys checkpoint shards, so it must be "
                "'@dataclass(frozen=True)'")
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) \
                    or not isinstance(stmt.target, ast.Name):
                continue
            head = self._annotation_head(stmt.annotation)
            if head == "ClassVar":
                continue
            problem = self._json_problem(
                stmt.annotation, manifest.json_convertible,
                dataclasses, frozenset({node.name}))
            if problem:
                yield ctx.diagnostic(
                    self, stmt,
                    f"spec field '{node.name}.{stmt.target.id}' is not "
                    f"JSON-representable: {problem}")

    @staticmethod
    def _dataclass_frozen(node: ast.ClassDef):
        """None = not a dataclass; else the frozen=... value."""
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            target = call.func if call is not None else deco
            parts = dotted_parts(target)
            if parts and parts[-1] == "dataclass":
                if call is None:
                    return False  # bare @dataclass: frozen defaults off
                for kw in call.keywords:
                    if kw.arg == "frozen":
                        if isinstance(kw.value, ast.Constant):
                            return bool(kw.value.value)
                        return False  # non-literal: treat as unfrozen
                return False
        return None

    @staticmethod
    def _annotation_head(annotation) -> Optional[str]:
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        parts = dotted_parts(node)
        return parts[-1] if parts else None

    def _json_problem(self, node, convertible, dataclasses,
                      visiting) -> Optional[str]:
        """Why an annotation is not JSON-representable (None = fine).

        ``dataclasses`` maps class names to the dataclass definitions
        found in the linted tree; ``visiting`` is the set of class
        names already being audited up-stack (the cycle guard).
        """
        if isinstance(node, ast.Constant):
            if node.value is None or node.value is Ellipsis:
                return None
            if isinstance(node.value, str):  # quoted annotation
                try:
                    inner = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return f"unparsable annotation {node.value!r}"
                return self._json_problem(inner, convertible,
                                          dataclasses, visiting)
            return f"unexpected literal {node.value!r}"
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = dotted_parts(node)
            name = name[-1] if name else None
            if name is None:
                return "unrecognized annotation"
            if name in _JSON_SCALARS or name in _JSON_CONTAINERS \
                    or name == "None":
                return None
            if name in convertible:
                return None
            if name in _KNOWN_BAD:
                return f"'{name}' {_KNOWN_BAD[name]}"
            if name in dataclasses:
                return self._nested_problem(name, convertible,
                                            dataclasses, visiting)
            return (f"'{name}' is not a JSON type (make it a frozen "
                    "dataclass with JSON-representable fields, or "
                    "declare it in the manifest's [rl004] "
                    "json_convertible list if the spec serializer "
                    "converts it)")
        if isinstance(node, ast.Subscript):
            head = self._annotation_head(node)
            if head in _KNOWN_BAD:
                return f"'{head}' {_KNOWN_BAD[head]}"
            if head == "Literal":
                return None
            if head not in _JSON_CONTAINERS and head not in _JSON_WRAPPERS:
                return f"'{head}[...]' is not a JSON container"
            inner = node.slice
            elements = inner.elts if isinstance(inner, ast.Tuple) \
                else [inner]
            for element in elements:
                problem = self._json_problem(element, convertible,
                                             dataclasses, visiting)
                if problem:
                    return problem
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return (self._json_problem(node.left, convertible,
                                       dataclasses, visiting)
                    or self._json_problem(node.right, convertible,
                                          dataclasses, visiting))
        return "unrecognized annotation construct"

    def _nested_problem(self, name, convertible, dataclasses,
                        visiting) -> Optional[str]:
        """Audit a nested dataclass reached from a spec field.

        The nesting is wire-legal when the dataclass is frozen and all
        its fields recursively survive JSON — the same bar the spec
        itself clears, because these values travel inside the hashed
        spec document.
        """
        if name in visiting:
            return None  # cycle: this class is already under audit
        node = dataclasses[name]
        if self._dataclass_frozen(node) is not True:
            return (f"nested dataclass '{name}' is not frozen — every "
                    "value embedded in a hashed spec must be immutable")
        visiting = visiting | {name}
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) \
                    or not isinstance(stmt.target, ast.Name):
                continue
            if self._annotation_head(stmt.annotation) == "ClassVar":
                continue
            problem = self._json_problem(stmt.annotation, convertible,
                                         dataclasses, visiting)
            if problem:
                return (f"nested dataclass field "
                        f"'{name}.{stmt.target.id}': {problem}")
        return None


# ----------------------------------------------------------------------
# RL005 — checkpoint-wire hygiene
# ----------------------------------------------------------------------
#: Modules whose import into a wire module is a finding.
_WIRE_BANNED_MODULES = frozenset({"pickle", "cPickle", "dill", "marshal",
                                  "shelve", "joblib"})
#: ``module.attr`` calls injecting wall-clock / host entropy.
_WIRE_BANNED_CALLS = frozenset({
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
})


@register_rule
class WireHygiene(Rule):
    """The checkpoint/spec-hash wire format stays deterministic and safe.

    Shard files are re-read by later runs and their payloads feed CRCs
    and spec hashes, so the wire modules must not: deserialize
    arbitrary code (pickle & friends, ``eval``/``exec``), stamp
    wall-clock or host-entropy values into records, or serialize from
    unordered ``set`` iteration (insertion-ordered dicts are fine; set
    order is salted per process).
    """

    rule_id = "RL005"
    name = "checkpoint-wire-hygiene"
    severity = "error"
    description = ("no pickle/eval, wall-clock stamps, or unordered-set "
                   "iteration in the checkpoint wire modules")

    def check(self, ctx: FileContext,
              manifest: Manifest) -> Iterator[Diagnostic]:
        if not manifest.is_wire_module(ctx.posix):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, (ast.For, ast.comprehension)):
                iter_node = node.iter
                if self._is_set_expr(iter_node):
                    anchor = node if isinstance(node, ast.For) \
                        else iter_node
                    yield ctx.diagnostic(
                        self, anchor,
                        "iteration over a set in a wire module — set "
                        "order is per-process; sort it (sorted(...)) "
                        "before anything reaches the wire")

    def _check_import(self, ctx, node) -> Iterator[Diagnostic]:
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[0] for a in node.names]
        else:
            names = [(node.module or "").split(".")[0]]
        for name in names:
            if name in _WIRE_BANNED_MODULES:
                yield ctx.diagnostic(
                    self, node,
                    f"wire module imports '{name}' — the checkpoint "
                    "format is JSON + CRC by contract (arbitrary-code "
                    "deserialization is out)")

    def _check_call(self, ctx, node: ast.Call) -> Iterator[Diagnostic]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("eval", "exec"):
            yield ctx.diagnostic(
                self, node,
                f"'{func.id}()' in a wire module — shard payloads are "
                "parsed, never evaluated")
            return
        parts = dotted_parts(func)
        if parts and len(parts) >= 2 \
                and tuple(parts[-2:]) in _WIRE_BANNED_CALLS:
            yield ctx.diagnostic(
                self, node,
                f"'{'.'.join(parts)}()' in a wire module — wall-clock / "
                "host-entropy values must not feed records or spec "
                "hashes")
        if isinstance(func, ast.Name) and func.id in ("list", "tuple") \
                and node.args and self._is_set_expr(node.args[0]):
            yield ctx.diagnostic(
                self, node,
                f"'{func.id}(set(...))' in a wire module — set order is "
                "per-process; use sorted(...) so the wire stays "
                "deterministic")

    @staticmethod
    def _is_set_expr(node) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))
