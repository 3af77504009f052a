"""Deterministic fuzz-harness VMs (docs/fuzzing.md).

NecoFuzz-style generated guest programs driven differentially across
the three execution modes, with an oracle suite over the outcomes.
Everything derives from one seed through
:func:`repro.fuzz.gen.derive_stream`, so every campaign, case and
shrink replays bit-for-bit at any ``--jobs`` count.

Layers:

* :mod:`repro.fuzz.ops` — the op grammar (trap sequences, VMCS
  accesses, interrupt-window stress, ctxt bursts) and its stable
  serialization;
* :mod:`repro.fuzz.gen` — the seed-deterministic case generator;
* :mod:`repro.fuzz.case` — the ``fuzzcase/1`` JSON format;
* :mod:`repro.fuzz.harness` — one case through three machines
  (one per mode) under the runtime sanitizer;
* :mod:`repro.fuzz.oracles` — the differential invariant suite;
* :mod:`repro.fuzz.bugs` — named deliberately-broken fixture machines
  that prove the oracles can fire;
* :mod:`repro.fuzz.shrink` — deterministic delta-debugging;
* :mod:`repro.fuzz.driver` — the campaign runner behind
  ``repro fuzz``.
"""
