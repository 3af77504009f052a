"""Experiment runner: cells fan out over forked helpers, output is exact.

The unit of parallelism is a *cell*: one (experiment, mode, seed,
sweep-point) combination as declared by ``Experiment.cells``.  Cells are
independent by contract — each builds its own ``Machine``; no simulator
state crosses a cell boundary — so a batch's cells go to
:func:`fan_out`, the one ordered map for every batch of independent work
(``repro fuzz`` runs its campaign on it too).  It runs them in the
calling process plus forked helpers, one process per CPU by default
(``--jobs``); ``jobs=1`` runs the same loop with no helpers.

Determinism: values are merged strictly in item order, cells in
``cells()`` order, and experiments are assembled in sorted-name order,
so the output document is byte-identical however many processes ran
the cells, and whichever ran which.  A failing batch raises the
exception of its earliest failing item, as a serial run would.  The
runner reads no clock: tier-1 pins each experiment's host work as exact
call counts (``tests/test_host_work.py``) and the external benchmark
(``perfbench/``) times it.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, \
    NamedTuple, Optional, Sequence, TypeVar

from repro.cpu import costmodels
from repro.errors import ReproError
from repro.exp import registry
from repro.exp.cache import ResultCache, code_fingerprint, \
    cost_model_fingerprint
from repro.exp.result import Result, canonical_json
from repro.obs.export import metrics_document
from repro.obs.metrics import merge_snapshots
from repro.obs.observer import capture_metrics
from repro.sim import kernel, sanitizer

#: Top-level schema of the ``--json`` document.
DOCUMENT_SCHEMA = "repro-results/1"

#: Most tokens the work queue holds, and bytes per token: 4 KiB in
#: all, which any pipe holds whole.  One read takes one token.
_TOKENS = 1024
_TOKEN_BYTES = 4

_Item = TypeVar("_Item")
_Value = TypeVar("_Value")

#: What a cell produced: (payload, metrics snapshot, sanitizer report
#: lines).
_Done = tuple[Any, Optional[dict[str, Any]], list[str]]


class _Cell(NamedTuple):
    """One cell to run; it prints as ``experiment/cell``."""

    name: str
    cell: str
    params: dict[str, Any]

    def __str__(self) -> str:
        return f"{self.name}/{self.cell}"


def _default_jobs() -> int:
    """``--jobs``'s default: every CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    #: How many processes ran cells: the caller plus its helpers.
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
        that key before the document is emitted, so a cold fanned-out
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
                  collect_metrics: bool) -> _Done:
    """One cell in a fresh simulator: (payload, metrics snapshot,
    sanitizer report lines).

    With ``collect_metrics`` the cell runs under an ambient metrics
    capture (`repro.obs.observer.capture_metrics`): every machine the
    cell builds adopts the capture observer, and its snapshot travels
    back with the payload.  The capture stack is per-process, so
    helpers never share observer state.

    Under ``REPRO_SIM_SANITIZE=1`` the cell's runtime-sanitizer reports
    travel back rendered (strings pickle); draining per cell keeps
    attribution cell-accurate and resets the process-global log between
    cells sharing a process.
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
    return payload, snapshot, violations


def _run(fn: Callable[[_Item], Any], items: Sequence[_Item],
         indices: Iterable[int], outcomes: dict[int, Any]) -> None:
    """Run ``fn`` on the items at ``indices`` into ``outcomes``.  Stops
    at the first item that raises: indices arrive in increasing order,
    so no later one can be the batch's earliest failure."""
    for index in indices:
        try:
            outcomes[index] = fn(items[index])
        except Exception as exc:
            outcomes[index] = exc
            return


def _queue(count: int) -> tuple[int, int]:
    """(the read end of a pipe holding the tokens for ``count`` items,
    its write end closed; how many consecutive items a token names)."""
    per = -(-count // _TOKENS)
    read_end, write_end = os.pipe()
    os.write(write_end, b"".join(token.to_bytes(_TOKEN_BYTES, "little")
                                 for token in range(-(-count // per))))
    os.close(write_end)
    return read_end, per


def _take(queue: int, per: int, count: int) -> Iterator[int]:
    """Item indices from the queue, one token read at a time, until it
    is empty."""
    while True:
        token = os.read(queue, _TOKEN_BYTES)
        if not token:
            return
        first = int.from_bytes(token, "little") * per
        yield from range(first, min(first + per, count))


def _portable(index: int, outcome: Any) -> tuple[int, Any, Optional[str]]:
    """A helper's outcome as it crosses to the caller: an exception
    travels with its formatted traceback, and one that does not survive
    pickling becomes a :class:`ReproError` naming its type and
    message."""
    if not isinstance(outcome, BaseException):
        return index, outcome, None
    import traceback

    trace = "".join(traceback.format_exception(
        type(outcome), outcome, outcome.__traceback__))
    try:
        pickle.loads(pickle.dumps(outcome))
    except Exception:
        kind = type(outcome)
        outcome = ReproError(
            f"{kind.__module__}.{kind.__qualname__}: {outcome} (it does "
            "not pickle, so a helper process sent it as a ReproError)")
    return index, outcome, trace


def _helper(fn: Callable[[_Item], Any], items: Sequence[_Item],
            queue: int, per: int, reply: tuple[int, int]) -> None:
    """A forked helper's whole life: run items from the queue, send
    ``[(index, outcome, traceback)]`` pickled down ``reply``, exit.  It
    never returns into the caller's frames and never runs ``atexit``."""
    status = 1
    try:
        os.close(reply[0])
        outcomes: dict[int, Any] = {}
        _run(fn, items, _take(queue, per, len(items)), outcomes)
        data = pickle.dumps([_portable(index, outcome)
                             for index, outcome in outcomes.items()],
                            pickle.HIGHEST_PROTOCOL)
        with os.fdopen(reply[1], "wb") as pipe:
            pipe.write(data)
        status = 0
    except Exception:
        import traceback

        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _fan_out(fn: Callable[[_Item], Any], items: Sequence[_Item],
             label: str, queue: int, per: int, helpers: int,
             outcomes: dict[int, Any]) -> None:
    """Run the queue's items here and in ``helpers`` forked helpers,
    merging every reply into ``outcomes``.  The items a helper held when
    it exited without a reply get a :class:`ReproError` naming them.
    Every helper is reaped on every path; if this process gets an
    exception, helpers still running are killed first."""
    running: list[int] = []
    replies: dict[int, int] = {}    # pid -> read end of its reply pipe
    lost: list[str] = []
    try:
        for _ in range(helpers):
            read_end, write_end = os.pipe()
            sys.stdout.flush()
            sys.stderr.flush()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _helper(fn, items, queue, per, (read_end, write_end))
            os.close(write_end)
            running.append(pid)
            replies[pid] = read_end
        _run(fn, items, _take(queue, per, len(items)), outcomes)
        while running:
            pid = running[0]
            with os.fdopen(replies.pop(pid), "rb") as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.pop(0)
            if status != 0 or not data:
                lost.append(f"{pid} (exit status {status})")
                continue
            for index, outcome, trace in pickle.loads(data):
                if trace is not None:
                    outcome.__cause__ = ReproError(
                        f"traceback in helper process {pid}:\n{trace}")
                outcomes[index] = outcome
    except BaseException:
        for read_end in replies.values():
            os.close(read_end)
        for pid in running:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except OSError:
                pass
        raise
    if lost:
        # A token nobody took is later than some failure, and no helper
        # held it; one that a process still here took has an outcome
        # for its first item.
        untaken = set(_take(queue, per, len(items)))
        held = [index for index in range(len(items))
                if index not in untaken
                and index - index % per not in outcomes]
        error = ReproError(
            f"helper process {', '.join(lost)} exited without a reply; "
            f"it held {label} " + ", ".join(str(items[i]) for i in held))
        for index in held:
            outcomes[index] = error


def fan_out(fn: Callable[[_Item], _Value], items: Sequence[_Item],
            jobs: Optional[int] = None, label: str = "items") \
        -> tuple[list[_Value], int]:
    """``fn`` of every item, in this process and forked helpers: (the
    values in item order, how many processes ran items).

    A batch of more than one item runs in this process plus
    ``min(jobs, items) - 1`` helpers (``jobs=None``: every CPU this
    process may run on).  Every process takes tokens from one pipe until
    it is empty, so a slow item never leaves another process idle.  A
    token names ``ceil(n / 1024)`` consecutive items, so the pipe never
    holds more than 4 KiB, whatever the batch's size.  A helper sends
    its outcomes back pickled and leaves through ``os._exit``; ``fn``
    and the items reach it in the memory the fork copied, so they need
    not pickle.

    Each process stops at its first failure, and the exception of the
    earliest failing item is raised, as a serial run would raise it: a
    helper's traceback travels as its ``__cause__``, and an exception
    that does not pickle arrives as a :class:`ReproError`.  A helper
    that exits without a reply is named in a :class:`ReproError` with
    the items it held: ``label``, a plural noun, then ``str`` of each.

    Helpers fork only from a single-threaded process, since a fork
    copies every lock as another thread may hold it, and not while a
    :func:`repro.sim.kernel.collect_stats` collection is open, since it
    totals only the machines its own process builds.  Otherwise, and at
    ``jobs=1``, this process runs every item.
    """
    jobs = _default_jobs() if jobs is None else max(1, int(jobs))
    outcomes: dict[int, Any] = {}
    helpers = min(jobs, len(items)) - 1
    if helpers > 0 and hasattr(os, "fork") \
            and threading.active_count() == 1 and not kernel.collecting():
        queue, per = _queue(len(items))
        try:
            _fan_out(fn, items, label, queue, per, helpers, outcomes)
        finally:
            os.close(queue)
    else:
        helpers = 0
        _run(fn, items, range(len(items)), outcomes)
    values: list[_Value] = []
    for index in range(len(items)):
        outcome = outcomes[index]
        if isinstance(outcome, BaseException):
            raise outcome
        values.append(outcome)
    return values, helpers + 1


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
                    jobs: Optional[int] = None,
                    cache: Optional[ResultCache] = None,
                    smoke: bool = False,
                    collect_metrics: bool = False) -> RunReport:
    """Run a batch of experiments, reusing cached results.

    ``names`` is any iterable of registered names; ``overrides`` is one
    shared parameter namespace (each experiment takes only what it
    declares); ``jobs`` caps the processes that run cells (``None``:
    every CPU this process may run on); ``cache=None`` disables
    caching; ``smoke`` applies each experiment's fast-run parameter
    overrides first; ``collect_metrics`` captures per-cell
    observability metrics (cached results carry no metrics, so the CLI
    disables the cache when asked for them).
    """
    names = sorted(dict.fromkeys(names))
    report = RunReport(
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
        _Cell(name, cell, params)
        for name, experiment, params in plans
        for cell in experiment.cells(params)
    ]

    outcomes, report.jobs = fan_out(
        lambda cell: _execute_cell(*cell, collect_metrics), cells, jobs,
        label="cells")
    payloads: dict[tuple[str, str], Any] = {}
    snapshots: dict[str, list[dict[str, Any]]] = {}
    for (name, cell, _), (payload, snapshot, violations) in zip(cells,
                                                                 outcomes):
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

