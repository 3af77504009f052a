"""Experiment base class and decorator-based registry.

Every paper artifact (tables, figures, section studies, ablations) is an
:class:`Experiment` subclass registered with :func:`register`.  The CLI,
the parallel runner, the cache and the tier-1 tests all look experiments
up here, so an experiment added once is automatically part of
``python -m repro all``, ``list``, the JSON output, the golden documents
and the host-work counts — nothing can be silently dropped from ``all``
again.

An experiment declares:

* ``name`` / ``title`` / ``description`` — identity and one-line docs.
* ``defaults`` — its parameter schema as ``{name: default}``; callers may
  only override declared parameters (typos fail loudly).
* ``smoke`` — parameter overrides for fast smoke runs.
* ``cells(params)`` — the independent units of work (mode, sweep point,
  seed...); the runner fans cells out across processes.
* ``run_cell(cell, params)`` — compute one cell; must return plain
  picklable data and must not share simulator state with other cells.
* ``merge(params, payloads)`` — assemble the cells (always presented in
  ``cells()`` order, regardless of completion order) into a
  :class:`~repro.exp.result.Result`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, ClassVar, Mapping, Optional, TypeVar

from repro.cpu import costmodels
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.exp.result import Result

_REGISTRY: dict[str, "Experiment"] = {}
_LOADED = False

#: Parameters *every* experiment accepts without declaring them.  The
#: runner and the serial reference path install ``cost_model`` as the
#: ambient default (:func:`repro.cpu.costmodels.use_default`) around
#: each cell, so any machine a cell builds without an explicit
#: ``costs=`` prices under the selected model.
UNIVERSAL_DEFAULTS: dict[str, Any] = {
    "cost_model": costmodels.DEFAULT_MODEL,
}


class Experiment:
    """Base class for registered experiments."""

    name: ClassVar[Optional[str]] = None
    title: ClassVar[str] = ""
    description: ClassVar[str] = ""
    defaults: ClassVar[dict[str, Any]] = {}
    smoke: ClassVar[dict[str, Any]] = {}

    # -- parameters ------------------------------------------------------

    def all_defaults(self) -> dict[str, Any]:
        """:data:`UNIVERSAL_DEFAULTS` merged under ``defaults``."""
        return {**UNIVERSAL_DEFAULTS, **self.defaults}

    def resolve(self, overrides: Optional[Mapping[str, Any]] = None,
                strict: bool = False, smoke: bool = False) -> dict[str, Any]:
        """Defaults (universal and declared), then :attr:`smoke` when
        ``smoke``, then every override that is not ``None``.

        Unknown override keys are ignored unless ``strict`` (the CLI
        passes one shared namespace to every experiment; tests pass
        ``strict=True`` to catch typos).
        """
        params = self.all_defaults()
        if smoke:
            params.update(self.smoke)
        for key, value in (overrides or {}).items():
            if key in params:
                if value is not None:
                    params[key] = value
            elif strict:
                raise ConfigError(
                    f"experiment {self.name!r} has no parameter {key!r}"
                )
        return params

    # -- execution -------------------------------------------------------

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        """Independent work units; override to enable parallel fan-out."""
        return ("all",)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        raise NotImplementedError

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        raise NotImplementedError

    def run(self, params: Mapping[str, Any]) -> Result:
        """Serial reference path: run every cell of the resolved
        ``params`` (see :meth:`resolve`) in order, then merge."""
        params = dict(params)
        with costmodels.use_default(params.get("cost_model")):
            payloads = {
                cell: self.run_cell(cell, params)
                for cell in self.cells(params)
            }
            return self.merge(params, payloads)


_ExperimentClass = TypeVar("_ExperimentClass", bound="type[Experiment]")


def register(cls: _ExperimentClass) -> _ExperimentClass:
    """Class decorator: instantiate and add to the registry."""
    if not issubclass(cls, Experiment):
        raise ConfigError(f"{cls!r} is not an Experiment subclass")
    if not cls.name:
        raise ConfigError(f"experiment class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ConfigError(f"duplicate experiment name {cls.name!r}")
    _REGISTRY[cls.name] = cls()
    return cls


def unregister(name: str) -> None:
    """Remove an experiment (test hook)."""
    _REGISTRY.pop(name, None)


def ensure_loaded() -> None:
    """Import the bundled experiment modules exactly once."""
    # Import-once latch, not cell state: workers re-run it idempotently
    # after fork/spawn, so losing the write is harmless.
    global _LOADED  # svtlint: disable=SVT003
    if not _LOADED:
        _LOADED = True
        import repro.exp.experiments  # noqa: F401  (side effect: register)


def get(name: str) -> Experiment:
    """Look an experiment up by name."""
    ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {name!r}; known: {', '.join(names())}"
        ) from None


def names() -> list[str]:
    """Sorted names of every registered experiment."""
    ensure_loaded()
    return sorted(_REGISTRY)


def experiments() -> list[Experiment]:
    """All registered experiments, sorted by name."""
    ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
