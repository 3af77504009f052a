"""Parallel experiment runner with deterministic assembly.

The unit of parallelism is a *cell*: one (experiment, mode, seed,
sweep-point) combination as declared by ``Experiment.cells``.  Cells are
independent by contract — each builds its own ``Machine``; no simulator
state crosses a cell boundary — so they fan out over a
``ProcessPoolExecutor`` with ``--jobs N``.

Determinism: payloads are merged strictly in ``cells()`` order and
experiments are assembled in sorted-name order, so the output document is
byte-identical whether cells ran serially, in any interleaving, or on any
number of workers.  The runner reads no clock: tier-1 pins each
experiment's host work as exact call counts (``tests/test_host_work.py``)
and the external benchmark (``perfbench/``) times it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from repro.cpu import costmodels
from repro.exp import registry
from repro.exp.cache import ResultCache, code_fingerprint, \
    cost_model_fingerprint
from repro.exp.result import Result, canonical_json
from repro.obs.export import metrics_document
from repro.obs.metrics import merge_snapshots
from repro.obs.observer import capture_metrics
from repro.sim import sanitizer

#: Top-level schema of the ``--json`` document.
DOCUMENT_SCHEMA = "repro-results/1"


@dataclass(frozen=True)
class ExperimentRun:
    """One experiment's outcome inside a batch run."""

    name: str
    result: Result
    cached: bool
    #: Merged per-cell metrics snapshot (``collect_metrics`` runs only;
    #: ``None`` otherwise).  Deliberately NOT part of the canonical
    #: result document — see :meth:`RunReport.metrics_document`.
    metrics: Optional[dict[str, Any]] = None


@dataclass
class RunReport:
    """Everything a batch run produced."""

    runs: list[ExperimentRun] = field(default_factory=list)
    jobs: int = 1
    cache_dir: str = ""
    cache_enabled: bool = False
    cache_keys: dict[str, str] = field(default_factory=dict)
    #: Rendered runtime-sanitizer reports (``REPRO_SIM_SANITIZE=1``
    #: runs only; empty otherwise).  Deliberately NOT part of the
    #: canonical result document — the flag must not change a byte of
    #: output; the CLI surfaces these on stderr and exits nonzero.
    sanitizer_reports: list[str] = field(default_factory=list)

    @property
    def served(self) -> list[str]:
        return sorted(run.name for run in self.runs if run.cached)

    @property
    def computed(self) -> list[str]:
        return sorted(run.name for run in self.runs if not run.cached)

    def to_document(self) -> dict[str, Any]:
        """The ``--json`` document — a pure function of the experiment
        set and code state, never of scheduling or cache temperature.

        ``meta.cache.entries`` maps each experiment to the cache key
        that backs its result; a freshly computed result is stored under
        that key before the document is emitted, so a cold ``--jobs 4``
        run, a warm ``--jobs 1`` run and any rerun in between are
        byte-identical.  The per-invocation hit/miss split stays out of
        the document (the CLI reports it on stderr) precisely to keep
        that property; ``RunReport.served``/``computed`` expose it
        programmatically.
        """
        return {
            "schema": DOCUMENT_SCHEMA,
            "code_fingerprint": code_fingerprint(),
            "cost_model_fingerprint": cost_model_fingerprint(),
            "experiments": {
                run.name: run.result.to_dict() for run in self.runs
            },
            "meta": {
                "cache": {
                    "enabled": self.cache_enabled,
                    "dir": self.cache_dir,
                    "entries": dict(sorted(self.cache_keys.items())),
                },
            },
        }

    def to_json(self) -> str:
        return canonical_json(self.to_document())

    def metrics_document(self) -> dict[str, Any]:
        """Aggregate every run's metrics into one flat JSON document.

        Metrics are simulation-derived (counters of deterministic
        events), so the document is as reproducible as the results —
        but it is a *separate* artifact: keeping it out of
        :meth:`to_document` preserves the result schema and the cache's
        byte-identity guarantee.
        """
        snapshots = [run.metrics for run in self.runs
                     if run.metrics is not None]
        return metrics_document(
            snapshots,
            meta={"experiments": sorted(
                run.name for run in self.runs if run.metrics is not None
            )},
        )


def _execute_cell(name: str, cell: str, params: dict[str, Any],
                  collect_metrics: bool = False) \
        -> tuple[str, str, Any, Optional[dict[str, Any]], list[str]]:
    """Worker entry point: one cell in a fresh simulator.

    Module-level so it pickles; re-resolves the experiment through the
    registry so it also works under the ``spawn`` start method.  With
    ``collect_metrics`` the cell runs under an ambient metrics capture
    (`repro.obs.observer.capture_metrics`): every machine the cell
    builds adopts the capture observer, and its snapshot travels back
    with the payload.  The capture stack is per-process, so pool
    workers never share observer state.

    Under ``REPRO_SIM_SANITIZE=1`` the cell's runtime-sanitizer reports
    travel back rendered (strings pickle across the pool boundary);
    draining per cell keeps attribution cell-accurate and resets the
    process-global log between cells sharing a worker.
    """
    experiment = registry.get(name)
    snapshot: Optional[dict[str, Any]] = None
    with costmodels.use_default(params.get("cost_model")):
        if collect_metrics:
            with capture_metrics() as observer:
                payload = experiment.run_cell(cell, params)
            snapshot = observer.metrics_snapshot()
        else:
            payload = experiment.run_cell(cell, params)
    violations = ([report.render() for report in sanitizer.drain()]
                  if sanitizer.enabled() else [])
    return name, cell, payload, snapshot, violations


def _decode(body: Optional[bytes]) -> Optional[Result]:
    """A cached body as a :class:`Result`; a miss, or a verified body
    that does not decode, is ``None``."""
    if body is None:
        return None
    try:
        return Result.from_json(body)
    except Exception:
        return None


def run_experiments(names: Iterable[str],
                    overrides: Optional[Mapping[str, Any]] = None,
                    jobs: int = 1,
                    cache: Optional[ResultCache] = None,
                    smoke: bool = False,
                    collect_metrics: bool = False) -> RunReport:
    """Run a batch of experiments, reusing cached results.

    ``names`` is any iterable of registered names; ``overrides`` is one
    shared parameter namespace (each experiment takes only what it
    declares); ``cache=None`` disables caching; ``smoke`` applies each
    experiment's fast-run parameter overrides first;
    ``collect_metrics`` captures per-cell observability metrics
    (cached results carry no metrics, so the CLI disables the cache
    when asked for them).
    """
    names = sorted(dict.fromkeys(names))
    report = RunReport(
        jobs=max(1, int(jobs)),
        cache_dir=str(cache.root) if cache else "",
        cache_enabled=cache is not None,
    )

    #: (name, experiment, params) triples needing computation.
    plans: list[tuple[str, registry.Experiment, dict[str, Any]]] = []
    finished: dict[str, ExperimentRun] = {}
    for name in names:
        experiment = registry.get(name)
        params = experiment.resolve(overrides, smoke=smoke)
        if cache is not None:
            key = report.cache_keys[name] = cache.key(name, params)
            hit = _decode(cache.load(name, key))
            if hit is not None:
                finished[name] = ExperimentRun(name, hit, True)
                continue
        plans.append((name, experiment, params))

    cells = [
        (name, cell, params)
        for name, experiment, params in plans
        for cell in experiment.cells(params)
    ]

    payloads: dict[tuple[str, str], Any] = {}
    snapshots: dict[str, list[dict[str, Any]]] = {}
    if report.jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=report.jobs) as pool:
            outcomes = pool.map(
                _execute_cell,
                [c[0] for c in cells],
                [c[1] for c in cells],
                [c[2] for c in cells],
                [collect_metrics] * len(cells),
            )
            for name, cell, payload, snapshot, violations in outcomes:
                payloads[(name, cell)] = payload
                if snapshot is not None:
                    snapshots.setdefault(name, []).append(snapshot)
                report.sanitizer_reports.extend(
                    f"{name}/{cell}: {line}" for line in violations)
    else:
        for name, cell, params in cells:
            _, _, payload, snapshot, violations = _execute_cell(
                name, cell, params, collect_metrics
            )
            payloads[(name, cell)] = payload
            if snapshot is not None:
                snapshots.setdefault(name, []).append(snapshot)
            report.sanitizer_reports.extend(
                f"{name}/{cell}: {line}" for line in violations)

    for name, experiment, params in plans:
        ordered = {
            cell: payloads[(name, cell)]
            for cell in experiment.cells(params)
        }
        result = experiment.merge(params, ordered)
        if cache is not None:
            cache.store(name, report.cache_keys[name], params,
                        result.to_json().encode())
        metrics = None
        if collect_metrics:
            # merge_snapshots is order-independent, so the merged
            # snapshot is identical at any --jobs setting.
            metrics = merge_snapshots(snapshots.get(name, []))
        finished[name] = ExperimentRun(name, result, False,
                                       metrics=metrics)

    report.runs = [finished[name] for name in names]
    return report

