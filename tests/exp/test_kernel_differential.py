"""Kernel differential: both kernels produce identical Results.

The fast-path contract (docs/performance.md) is byte-identity, not
approximate equality: every registered experiment must serialize to
exactly the same Result document under the segment-compiled kernel
and the legacy per-instruction kernel, at any ``--jobs`` count.  Smoke
parameters keep the battery fast while still driving every workload
through its real machine and queueing paths.
"""

import pytest

from repro.exp import registry
from repro.exp.runner import run_experiments
from repro.sim import kernel as simkernel
from repro.workloads import memcached


def _names():
    registry.ensure_loaded()
    return registry.names()


def _result_json(name, kernel, jobs=1):
    memcached.reset_service_memo()
    with simkernel.use_kernel(kernel):
        report = run_experiments([name], jobs=jobs, cache=None,
                                 smoke=True)
    return report.runs[0].result.to_json()


@pytest.mark.parametrize("name", _names())
def test_experiment_is_kernel_invariant(name):
    legacy = _result_json(name, simkernel.LEGACY)
    segment = _result_json(name, simkernel.SEGMENT)
    assert segment == legacy


@pytest.mark.parametrize("name", ["fig8", "fig9", "table1"])
def test_kernel_invariance_survives_parallel_fanout(name):
    """Workers inherit the kernel through the environment."""
    serial_legacy = _result_json(name, simkernel.LEGACY, jobs=1)
    pooled_segment = _result_json(name, simkernel.SEGMENT, jobs=2)
    assert pooled_segment == serial_legacy
