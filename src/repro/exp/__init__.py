"""The experiment runtime: registry, structured results, runner, cache.

One subsystem orchestrates every paper artifact:

* :mod:`repro.exp.registry` — ``Experiment`` base class + decorator
  registry; anything registered is automatically part of ``all``.
* :mod:`repro.exp.result` — frozen, JSON-serializable ``Result`` /
  ``Table`` / ``Row`` / ``Series`` dataclasses with the paper's expected
  values attached.
* :mod:`repro.exp.runner` — fans independent cells out over forked
  helpers, one process per CPU by default (``--jobs N``), with
  deterministic, byte-identical assembly; its ``fan_out`` is the one
  ordered map for every batch of independent work, the fuzz campaign's
  runs included.
* :mod:`repro.exp.cache` — on-disk result cache keyed by (experiment,
  params, cost-model fingerprint, code version).
* :mod:`repro.exp.experiments` — the registered experiments themselves.
"""

from repro.exp.cache import ResultCache, code_fingerprint, \
    cost_model_fingerprint
from repro.exp.registry import Experiment, get, names, register
from repro.exp.result import Result, Row, Series, Table
from repro.exp.runner import RunReport, run_experiments

__all__ = [
    "Experiment",
    "Result",
    "ResultCache",
    "Row",
    "RunReport",
    "Series",
    "Table",
    "code_fingerprint",
    "cost_model_fingerprint",
    "get",
    "names",
    "register",
    "run_experiments",
]
