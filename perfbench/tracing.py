"""Host-time tracing of the program's layers, installed from outside.

:func:`install` wraps the public functions listed in :data:`TARGETS`.
A span target records one span per call — (span id, parent span id, op
id, function, start ns, end ns) — in memory; a counter target only
counts calls, for functions called hundreds of thousands of times per
run.  Parents follow a context variable, so spans nest correctly across
asyncio tasks; a call that crosses into an executor thread starts a new
root.  The op id is the id of the root span of the call tree.

Whenever a root span ends, the process appends its buffered spans and
counter deltas to ``<trace dir>/spans-<pid>.jsonl``; a fork starts the
child with empty buffers.  A target whose module or attribute no longer
exists is skipped and listed by :func:`missing`.
"""

import atexit
import collections
import contextvars
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

SPAN = "span"
COUNT = "count"

#: (layer, "module:qualified.name", kind).  Methods are wrapped on the
#: named class and on every subclass that overrides them.
TARGETS = (
    ("virt", "repro.virt.nested:NestedStack.boot", SPAN),
    ("virt", "repro.virt.nested:NestedStack.l2_exit", SPAN),
    ("virt", "repro.virt.nested:NestedStack.l1_exit", SPAN),
    ("virt", "repro.virt.hypervisor:Hypervisor.handle_exit", SPAN),
    ("virt", "repro.virt.ept:EptTable.compose", SPAN),
    ("virt", "repro.virt.transform:transform_12_to_02", SPAN),
    ("virt", "repro.virt.transform:transform_02_to_12", SPAN),
    ("virt", "repro.virt.ept:EptTable.translate", COUNT),
    ("virt", "repro.virt.vmcs:Vmcs.read", COUNT),
    ("virt", "repro.virt.vmcs:Vmcs.write", COUNT),
    ("virt", "repro.virt.vmcs:FieldRegistry.get", COUNT),
    ("workloads", "repro.workloads.memcached:run", SPAN),
    ("workloads", "repro.workloads.memcached:measure_service", SPAN),
    ("workloads", "repro.workloads.tpcc:run", SPAN),
    ("workloads", "repro.workloads.netperf:run_latency", SPAN),
    ("workloads", "repro.workloads.netperf:run_bandwidth", SPAN),
    ("workloads", "repro.workloads.disk:run_latency", SPAN),
    ("workloads", "repro.workloads.disk:run_bandwidth", SPAN),
    ("workloads", "repro.workloads.video:run", SPAN),
    ("workloads", "repro.workloads.cpuid:run", SPAN),
    ("workloads", "repro.workloads.channels:sweep", SPAN),
    ("core", "repro.core.system:Machine.__init__", SPAN),
    ("core", "repro.core.system:Machine.run_program", SPAN),
    ("core", "repro.core.system:Machine.run_instruction", SPAN),
    ("core", "repro.core.system:Machine.service_io", SPAN),
    ("core", "repro.core.switch:SwitchEngine.exit_l2_to_l0", SPAN),
    ("core", "repro.core.switch:SwitchEngine.enter_l1", SPAN),
    ("core", "repro.core.switch:SwitchEngine.leave_l1", SPAN),
    ("core", "repro.core.switch:SwitchEngine.resume_l2", SPAN),
    ("cpu", "repro.cpu.segments:compile_program", SPAN),
    ("sim", "repro.sim.engine:Simulator.run_until_idle", SPAN),
    ("io", "repro.io.device:MmioDevice.mmio_write", SPAN),
    ("io", "repro.io.device:MmioDevice.mmio_read", SPAN),
    ("io", "repro.io.net:VhostNetBackend.process_tx", SPAN),
    ("io", "repro.io.block:RamDiskBackend.process", SPAN),
    ("exp", "repro.exp.runner:run_experiments", SPAN),
    ("exp", "repro.exp.registry:Experiment.run_cell", SPAN),
    ("exp", "repro.exp.registry:Experiment.merge", SPAN),
    ("exp", "repro.exp.cache:ResultCache.key", SPAN),
    ("exp", "repro.exp.cache:ResultCache.load", SPAN),
    ("exp", "repro.exp.cache:ResultCache.store", SPAN),
    ("exp", "repro.exp.cache:code_fingerprint", SPAN),
    ("exp", "repro.exp.result:Result.to_json", SPAN),
    ("exp", "repro.exp.result:Result.from_dict", SPAN),
    ("serve", "repro.serve.service:ExperimentService.submit", SPAN),
    ("serve", "repro.serve.pool:WorkerPool.execute", SPAN),
    ("serve", "repro.serve.pool:compute_body", SPAN),
)

#: Functions that run one whole op in their process: the simulator's
#: own ambient statistics (events fired, instructions retired, compile
#: memo traffic) are collected around them.
OP_FUNCTIONS = ("repro.exp.runner:run_experiments",
                "repro.serve.pool:compute_body")

#: The simulator's own statistics read around each op function.
STATS_SOURCES = ("repro.sim.kernel:collect_stats",
                 "repro.cpu.segments:memo_stats")

#: Named counters the wrappers add besides per-target call counts.
CACHE_LOAD_HITS = "exp.cache.load.hits"
EVENTS_FIRED = "sim.events_fired"
INSTRUCTIONS = "sim.instructions"
MEMO_HITS = "cpu.segments.memo.hits"
MEMO_MISSES = "cpu.segments.memo.misses"

LAYER = {target: layer for layer, target, _ in TARGETS}


class _State:
    """The per-process trace buffer (one per process, reset at fork)."""

    def __init__(self):
        self.directory = None
        self.names = []          # index -> target name (span targets)
        self.spans = collections.deque()   # appends and pops are atomic
        self.counts = {}         # name -> calls since the last flush
        self.missing = []
        self.pid = os.getpid()
        self.lock = threading.Lock()

    def reset(self):
        """Empty buffers for this process (at install, which may run in
        a fork of an untraced parent, and after every fork)."""
        self.pid = os.getpid()
        self.spans = collections.deque()
        for name in self.counts:       # in place: wrappers hold the dict
            self.counts[name] = 0
        self.lock = threading.Lock()


_STATE = _State()
_IDS = itertools.count(1)
#: (pid, span id, op id) of the innermost open span in this context.
_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


def _parent():
    current = _CURRENT.get()
    if current is None or current[0] != _STATE.pid:
        return None, None
    return current[1], current[2]


def _span_wrapper(fn, index, on_return):
    state = _STATE
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent, op = _parent()
        sid = next(_IDS)
        token = _CURRENT.set((state.pid, sid, op or sid))
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            _CURRENT.reset(token)
            state.spans.append((sid, parent, op or sid, index, start, end))
            if parent is None:
                flush()
        if on_return is not None:
            on_return(result)
        return result

    return wrapper


def _async_span_wrapper(fn, index):
    state = _STATE
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        parent, op = _parent()
        sid = next(_IDS)
        token = _CURRENT.set((state.pid, sid, op or sid))
        start = clock()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = clock()
            _CURRENT.reset(token)
            state.spans.append((sid, parent, op or sid, index, start, end))
            if parent is None:
                flush()

    return wrapper


def _count_wrapper(fn, name):
    counts = _STATE.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _add(name, value):
    _STATE.counts[name] = _STATE.counts.get(name, 0) + value


def _optional(target):
    """The callable at ``target``, or None (and listed as missing)."""
    try:
        owner, attr = _resolve(target)
    except (ImportError, AttributeError):
        if target not in _STATE.missing:
            _STATE.missing.append(target)
        return None
    return getattr(owner, attr)


def _op_wrapper(fn):
    """Collect the simulator's ambient statistics around one op."""
    collect_stats = _optional(STATS_SOURCES[0])
    memo_stats = _optional(STATS_SOURCES[1])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        memo = memo_stats() if memo_stats else None
        if collect_stats is None:
            result = fn(*args, **kwargs)
        else:
            with collect_stats() as stats:
                result = fn(*args, **kwargs)
                _add(EVENTS_FIRED, stats.events_fired)
                _add(INSTRUCTIONS, stats.instructions)
        if memo is not None:
            after = memo_stats()
            _add(MEMO_HITS, after["hits"] - memo["hits"])
            _add(MEMO_MISSES, after["misses"] - memo["misses"])
        return result

    return wrapper


def _resolve(target):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if parts[-1] not in vars(owner):
        raise AttributeError(target)
    return owner, parts[-1]


def _classes(cls, attr):
    """``cls`` and every subclass that defines ``attr`` itself."""
    found, pending = [], [cls]
    while pending:
        klass = pending.pop()
        if attr in vars(klass) and klass not in found:
            found.append(klass)
        pending.extend(klass.__subclasses__())
    return found


def _wrap_callable(fn, target, kind):
    if kind == COUNT:
        _STATE.counts.setdefault(target, 0)
        return _count_wrapper(fn, target)
    if target in OP_FUNCTIONS:
        fn = _op_wrapper(fn)
    index = len(_STATE.names)
    _STATE.names.append(target)
    if getattr(fn, "__code__", None) is not None \
            and fn.__code__.co_flags & 0x80:        # CO_COROUTINE
        return _async_span_wrapper(fn, index)
    on_return = None
    if target == "repro.exp.cache:ResultCache.load":
        _STATE.counts.setdefault(CACHE_LOAD_HITS, 0)

        def on_return(result):
            if result is not None:
                _STATE.counts[CACHE_LOAD_HITS] += 1
    return _span_wrapper(fn, index, on_return)


def _install_one(target, kind):
    owner, attr = _resolve(target)
    if isinstance(owner, type):
        for klass in _classes(owner, attr):
            raw = vars(klass)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap_callable(raw.__func__, target,
                                                   kind))
            else:
                wrapped = _wrap_callable(raw, target, kind)
            setattr(klass, attr, wrapped)
        return
    original = vars(owner)[attr]
    wrapped = _wrap_callable(original, target, kind)
    # Rebind every module-level alias (``from x import f``) as well.
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def preload():
    """Import every target module (a forking parent does this once, so
    that installing in each child imports nothing)."""
    from repro.exp import registry

    registry.ensure_loaded()
    for _, target, _ in TARGETS:
        try:
            importlib.import_module(target.partition(":")[0])
        except ImportError:
            pass


def install(directory):
    """Wrap every target; spans go to ``directory``."""
    preload()             # experiment subclasses must exist to be wrapped
    _STATE.reset()
    _STATE.directory = directory
    for _, target, kind in TARGETS:
        try:
            _install_one(target, kind)
        except (ImportError, AttributeError):
            _STATE.missing.append(target)
    for name in (EVENTS_FIRED, INSTRUCTIONS, MEMO_HITS, MEMO_MISSES):
        _STATE.counts.setdefault(name, 0)
    os.register_at_fork(after_in_child=_STATE.reset)
    atexit.register(flush)
    if _STATE.missing:      # recorded even if this process traces nothing
        _write({"pid": _STATE.pid, "names": [], "spans": [], "counts": {},
                "missing": _STATE.missing})


def missing():
    return list(_STATE.missing)


def flush():
    """Append buffered spans and counter deltas to this process's file."""
    state = _STATE
    if state.directory is None:
        return
    with state.lock:
        spans = []
        while state.spans:     # a span appended meanwhile waits its turn
            spans.append(state.spans.popleft())
        counts = {name: value for name, value in state.counts.items()
                  if value}
        for name in counts:
            state.counts[name] = 0
        if spans or counts:
            _write({"pid": state.pid, "names": state.names, "spans": spans,
                    "counts": counts, "missing": state.missing})


def _write(record):
    path = os.path.join(_STATE.directory, f"spans-{record['pid']}.jsonl")
    with open(path, "a") as handle:
        handle.write(json.dumps(record) + "\n")
