"""Named, validated cost-model registry.

One simulator, many calibration points.  The paper's Xeon (Table 1) is
the ``xeon-paper`` model and stays the default — a bare ``CostModel()``
compares equal to it, so existing call sites are bit-identical.  On top
of it the bundled modules register synthetic variants (``arm-flavour``,
``riscv-flavour``, ``fast-switch``, ``slow-ring``) whose every constant
carries a ``# synthetic:`` rationale (svtlint SVT002 enforces this the
same way it enforces ``# paper:`` citations in ``repro.cpu.costs``).

Resolution has three layers, all going through :func:`resolve`:

* ``None`` — the *ambient default*: whatever :func:`use_default` has
  installed (the experiment runner installs the ``cost_model``
  parameter around every cell), falling back to ``xeon-paper``.
* a name — :func:`get_model` lookup (``"arm-flavour"``).
* a :class:`~repro.cpu.costs.CostModel` — passed through untouched.

The ambient default is a per-process stack, so a process installing a
model around a cell never leaks it into the next cell, and monkeypatching
one place (:func:`use_default` / :func:`default_model`) affects every
layer that used to call ``CostModel()`` ad hoc.
"""

from contextlib import contextmanager

from repro.cpu.costs import CostModel
from repro.errors import ConfigError

#: Name of the model every layer falls back to.
DEFAULT_MODEL = "xeon-paper"

#: Registered models by ``model_id``.
_MODELS = {}

#: Ambient-default stack (installed by :func:`use_default`).
_DEFAULT_STACK = []

#: Exit reasons every registered model must price explicitly — the
#: calibration anchors of Table 1 / Fig. 6.
_REQUIRED_REASONS = ("CPUID",)


def validate_model(model):
    """Raise :class:`~repro.errors.ConfigError` unless ``model`` is a
    well-formed registry entry (CostModel invariants are checked by its
    own ``__post_init__``; this adds the registry-level contract)."""
    if not isinstance(model, CostModel):
        raise ConfigError(f"not a CostModel: {model!r}")
    name = model.model_id
    if not name.replace("-", "").replace("_", "").isalnum() \
            or name != name.lower():
        raise ConfigError(
            f"model_id {name!r} must be lowercase kebab-case"
        )
    for reason in _REQUIRED_REASONS:
        for table_name in ("l0_handler_pure", "l1_handler_pure",
                           "l0_single_level"):
            if reason not in getattr(model, table_name):
                raise ConfigError(
                    f"model {name!r}: {table_name} must price {reason!r}"
                )
    if model.table1_total() <= 0:
        raise ConfigError(f"model {name!r}: empty Table-1 cycle")


def register_model(model, replace=False):
    """Validate and add a model under its ``model_id``; returns it."""
    validate_model(model)
    if model.model_id in _MODELS and not replace:
        raise ConfigError(
            f"duplicate cost model {model.model_id!r}"
        )
    _MODELS[model.model_id] = model
    return model


def unregister_model(name):
    """Remove a model (test hook)."""
    _MODELS.pop(name, None)


def model_names():
    """Sorted ids of every registered model."""
    return sorted(_MODELS)


def get_model(name):
    """Look a model up by id."""
    try:
        return _MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown cost model {name!r}; "
            f"known: {', '.join(model_names())}"
        ) from None


def default_model():
    """The ambient default (innermost :func:`use_default`), falling
    back to the registered ``xeon-paper`` model."""
    if _DEFAULT_STACK:
        return _DEFAULT_STACK[-1]
    return get_model(DEFAULT_MODEL)


@contextmanager
def use_default(model=None):
    """Install ``model`` (name, instance, or ``None`` for the current
    default) as the ambient default within the ``with`` block."""
    resolved = resolve(model)
    _DEFAULT_STACK.append(resolved)
    try:
        yield resolved
    finally:
        _DEFAULT_STACK.pop()


def resolve(costs=None):
    """Normalize a ``costs`` argument to a :class:`CostModel`."""
    if costs is None:
        return default_model()
    if isinstance(costs, str):
        return get_model(costs)
    if isinstance(costs, CostModel):
        return costs
    raise ConfigError(
        f"cannot resolve cost model from {type(costs).__name__}"
    )


# Bundled models register themselves on import (safe mid-module: the
# registry functions above already exist when the submodules run).
from repro.cpu.costmodels import ablations  # noqa: E402,F401
from repro.cpu.costmodels import arm_flavour  # noqa: E402,F401
from repro.cpu.costmodels import riscv_flavour  # noqa: E402,F401
from repro.cpu.costmodels import xeon_paper  # noqa: E402,F401
