"""repro-lint: the repo's reproducibility-contract checker.

PRs 1-5 certified every fast path bit-identical per ``(seed,
batch_size)``.  The contracts that certification rests on — RNG streams
threaded from a ``SeedSequence``, frozen JSON-round-trippable campaign
specs, ``repro/config.py`` owning every ``REPRO_*`` read, and a
deterministic checkpoint wire format — are mechanical properties of
the source.  This package turns them into AST-enforced rules so a
careless ``np.random.default_rng()`` or a stray ``os.environ`` read
fails CI instead of silently eroding the certification.

Pure stdlib (``ast`` + ``tomllib``); no runtime dependency on the
``repro`` package, so the linter runs before the tree even imports.

Usage::

    python -m reprolint src benchmarks examples [--json]

Rules (see ``docs/CONTRACTS.md`` for the full contract text):

=======  ==============================================================
RL000    lint hygiene: unparsable file, or a ``# reprolint:`` disable
         comment without a ``-- justification``
RL001    seed discipline: no legacy ``np.random.*`` global-state RNG,
         no entropy-seeded (argless) generator construction
RL003    env-knob ownership: ``os.environ`` / ``os.getenv`` only in
         ``repro/config.py``
RL004    spec discipline: every ``register_campaign``-registered spec
         is a ``frozen=True`` dataclass with JSON-representable fields
RL005    checkpoint-wire hygiene: no pickle/eval/wall-clock/unordered-
         set constructs in the checkpoint and spec-hash modules
=======  ==============================================================

Suppressing a finding requires a justification::

    x = risky()  # reprolint: disable=RL001 -- caller opted out of repro
"""

from reprolint.engine import (  # noqa: F401  (public API re-exports)
    Diagnostic,
    LintReport,
    Rule,
    all_rules,
    run_paths,
)
from reprolint.manifest import Manifest, load_manifest  # noqa: F401

__version__ = "1.0.0"

#: Schema version of the ``--json`` output document.
JSON_SCHEMA_VERSION = 1
