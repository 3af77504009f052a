"""svtlint — AST-based invariant checker for the experiment runtime.

The runtime (``repro.exp``) promises byte-identical output at any
``--jobs`` count and fingerprint-keyed caching; this package encodes the
invariants behind those promises as machine-checked rules:

* **SVT001** :mod:`repro.lint.determinism` — no nondeterminism
  (unseeded randomness, wall-clock, environment, ``id()``, set order)
  under ``repro.exp`` / ``repro.sim`` / ``repro.workloads``.
* **SVT002** :mod:`repro.lint.provenance` — every numeric timing
  constant in the cost model cites the paper (``# paper: Table 1``).
* **SVT003** :mod:`repro.lint.poolsafety` — experiment cells don't
  write module globals or close over unpicklable state.
* **SVT004** :mod:`repro.lint.frozen` — nothing mutates a frozen
  ``Result`` after construction.
* **SVT005** :mod:`repro.lint.bounded` — ``while`` loops under
  ``repro.core`` carry a watchdog/cycle-budget identifier (or a
  *justified* inline suppression; a bare disable is itself a finding).
* **SVT007** :mod:`repro.lint.races` — whole-program sim-state race
  detector: shared core state (``cpu.context``/``cpu.prf``/
  ``virt.vmcs``/``core.channel``) must not be written from code
  reachable from more than one simulated context without an
  engine/channel/switch ordering call (lockset approximation over
  :mod:`repro.lint.graph`).
* **SVT008** :mod:`repro.lint.taint` — whole-program determinism
  taint: entropy (wall clock, ``os.urandom``, env, ``id()``, set
  order) must not flow into ``Result`` fields, cache fingerprints or
  serialized artifacts (:mod:`repro.lint.dataflow`; ``sim.rng`` is
  clean).
* **SVT009** :mod:`repro.lint.stale` — meta-diagnostic: ``disable``
  directives that no longer silence any finding are stale
  (``--no-stale`` opts out).

SVT006 is retired: the tier-1 AST check
``tests/test_design_consistency.py::test_only_repro_sim_charges_the_clock``
fails any clock call on a simulator outside ``repro.sim``, in a loop or
not, so time is always charged through ``Tracer.charge``.

Run via ``python -m repro lint`` (see :mod:`repro.lint.cli`), ``make
lint``, or programmatically through
:func:`~repro.lint.engine.lint_paths` /
:func:`~repro.lint.engine.lint_tree`.  Per-file results are memoized in
``.svtlint_cache/`` (:mod:`repro.lint.cache`).  Suppress a deliberate
exception inline with ``# svtlint: disable=SVT001`` (see
``docs/static-analysis.md``).
"""
