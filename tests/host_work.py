"""Exact host-work counts of every registered experiment.

``python tests/host_work.py``, with ``src`` on ``PYTHONPATH``, prints
one JSON object: for each registered experiment, how many calls its
run at default parameters (``run_experiments([name], cache=None,
jobs=1)``) makes to each entry point in :data:`COUNTED`, plus the native
memcached queue loop's calls and fallbacks
(``native_queue.native_stats()``).

The counters live in this process, so each experiment runs serially
(``jobs=1``): by default the runner would fork helpers for a
many-cell experiment, and the calls its cells make there would go
uncounted.  The counts are the same whichever process runs a cell.

The interpreter imports the program and wraps the entry points, then
runs each experiment in its own fork.  Every process-level memo
(memcached's service memo, the segment compile memo, kept cost-model
digests, the native probe) therefore starts cold for each experiment,
as in a fresh ``repro <name>``, whatever ran before.

``tests/test_host_work.py`` compares the output with
``tests/golden/host_work.json``.
"""

import functools
import importlib
import json
import os
import pkgutil
import sys
import traceback

#: The counted entry points, ``module:qualified.name``.  A method is
#: counted under its class's name on that class and on every subclass
#: that overrides it; a module-level function as ``<module>.<name>``.
COUNTED = (
    "repro.virt.nested:NestedStack.l2_exit",
    "repro.virt.nested:NestedStack.l1_exit",
    "repro.virt.hypervisor:Hypervisor.handle_exit",
    "repro.virt.transform:transform_12_to_02",
    "repro.virt.transform:transform_02_to_12",
    "repro.virt.ept:EptTable.compose",
    "repro.virt.ept:EptTable.translate",
    "repro.virt.vmcs:Vmcs.read",
    "repro.virt.vmcs:Vmcs.write",
    "repro.virt.vmcs:FieldRegistry.get",
    "repro.core.switch:SwitchEngine.exit_l2_to_l0",
    "repro.core.switch:SwitchEngine.enter_l1",
    "repro.core.switch:SwitchEngine.leave_l1",
    "repro.core.switch:SwitchEngine.resume_l2",
    "repro.core.system:Machine.__init__",
    "repro.core.system:Machine.run_program",
    "repro.core.system:Machine.run_instruction",
    "repro.core.channel:CommandRing.try_push",
    "repro.core.channel:CommandRing.pop",
    "repro.sim.trace:Tracer.charge",
    "repro.sim.engine:Simulator.advance",
    "repro.workloads.memcached:measure_service",
)


def _counted(fn, name, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _overriding(cls, attr):
    """``cls`` and every subclass that defines ``attr`` itself."""
    pending, found = [cls], []
    while pending:
        klass = pending.pop()
        if attr in vars(klass) and klass not in found:
            found.append(klass)
        pending.extend(klass.__subclasses__())
    return found


def install():
    """Import every ``repro`` module, so that every subclass exists,
    then wrap :data:`COUNTED`.  Returns the live counts by name."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    counts = {}
    for target in COUNTED:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            counts[qualname] = 0
            for klass in _overriding(getattr(module, owner_name), attr):
                raw = vars(klass)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        _counted(raw.__func__, qualname, counts))
                else:
                    wrapped = _counted(raw, qualname, counts)
                setattr(klass, attr, wrapped)
            continue
        name = f"{module_name.rpartition('.')[2]}.{attr}"
        counts[name] = 0
        original = vars(module)[attr]
        wrapped = _counted(original, name, counts)
        # Rebind every alias (``from module import f``) as well.
        for other_name, other in list(sys.modules.items()):
            if other_name.startswith("repro") and other is not None:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
    return counts


def count(name, counts):
    """The counts of one experiment's run (call it in a fresh fork)."""
    from repro.exp.runner import run_experiments
    from repro.workloads import native_queue

    run_experiments([name], cache=None, jobs=1)
    row = dict(counts)
    for key, value in native_queue.native_stats().items():
        row[f"native_queue.{key}"] = value
    return row


def _forked(name, counts):
    """:func:`count` in a fork; the row it sent back."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            payload = json.dumps(count(name, counts)).encode("utf-8")
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except Exception:
            traceback.print_exc()
        finally:    # the fork never returns into the caller's code
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit(f"counting {name} failed (wait status {status})")
    return json.loads(payload)


def main():
    from repro.exp import registry

    counts = install()
    doc = {name: _forked(name, counts) for name in registry.names()}
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
