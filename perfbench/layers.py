"""Per-layer metrics from the spans and counters the tracer wrote.

A span's self time is its duration minus the part of it that its child
spans cover; a layer's self time is the sum over its spans.  Child spans
of the same layer keep their own self time in that layer, so the sum
equals the layer's spans' time minus the part covered by spans of other
layers.  ``.ms`` metrics over a set of functions count only the
outermost span of a nest of them, so no time is counted twice.
"""

import glob
import json
import os

from perfbench.tracing import (CACHE_LOAD_HITS, EVENTS_FIRED, INSTRUCTIONS,
                               LAYER, MEMO_HITS, MEMO_MISSES, STATS_SOURCES)

V = "repro.virt."
W = "repro.workloads."
C = "repro.core."
E = "repro.exp."
S = "repro.serve."

L2_EXIT = V + "nested:NestedStack.l2_exit"
L1_EXIT = V + "nested:NestedStack.l1_exit"
COMPOSE = V + "ept:EptTable.compose"
TRANSLATE = V + "ept:EptTable.translate"
TRANSFORMS = (V + "transform:transform_12_to_02",
              V + "transform:transform_02_to_12")
VMCS_ACCESS = (V + "vmcs:Vmcs.read", V + "vmcs:Vmcs.write")
FIELD_GET = V + "vmcs:FieldRegistry.get"
MEMCACHED = (W + "memcached:run", W + "memcached:measure_service")
MEASURE_SERVICE = W + "memcached:measure_service"
MACHINE_INIT = C + "system:Machine.__init__"
RUN_PROGRAM = C + "system:Machine.run_program"
SWITCH = tuple(C + "switch:SwitchEngine." + name for name in
               ("exit_l2_to_l0", "enter_l1", "leave_l1", "resume_l2"))
COMPILE = "repro.cpu.segments:compile_program"
MMIO = ("repro.io.device:MmioDevice.mmio_write",
        "repro.io.device:MmioDevice.mmio_read")
BACKENDS = ("repro.io.net:VhostNetBackend.process_tx",
            "repro.io.block:RamDiskBackend.process")
RUN_CELL = E + "registry:Experiment.run_cell"
STORE = E + "cache:ResultCache.store"
LOAD = E + "cache:ResultCache.load"
FINGERPRINT = E + "cache:code_fingerprint"
CODEC = (E + "result:Result.to_json", E + "result:Result.from_dict")
SUBMIT = S + "service:ExperimentService.submit"
EXECUTE = S + "pool:WorkerPool.execute"
COMPUTE_BODY = S + "pool:compute_body"
COLLECT_STATS, MEMO_STATS = STATS_SOURCES

#: Per-layer metrics the traced spans give, in report order, with the
#: targets each one needs.
SPAN_METRICS = (
    ("virt.self_ms", ()),
    ("virt.l2_exit.calls", (L2_EXIT,)),
    ("virt.l1_exit.calls", (L1_EXIT,)),
    ("virt.ept.compose.calls", (COMPOSE,)),
    ("virt.ept.compose.ms", (COMPOSE,)),
    ("virt.ept.translate.calls", (TRANSLATE,)),
    ("virt.vmcs.access.calls", VMCS_ACCESS),
    ("virt.vmcs.field_get.calls", (FIELD_GET,)),
    ("virt.transform.calls", TRANSFORMS),
    ("virt.transform.ms", TRANSFORMS),
    ("workloads.self_ms", ()),
    ("workloads.memcached.self_ms", MEMCACHED),
    ("workloads.memcached.measure_service.calls", (MEASURE_SERVICE,)),
    ("workloads.memcached.service_memo_ratio",
     (MEASURE_SERVICE, MACHINE_INIT)),
    ("core.self_ms", ()),
    ("core.machine_build.calls", (MACHINE_INIT,)),
    ("core.machine_build.ms", (MACHINE_INIT,)),
    ("core.run_program.calls", (RUN_PROGRAM,)),
    ("core.switch.calls", SWITCH),
    ("cpu.self_ms", ()),
    ("cpu.segments.compile.calls", (COMPILE,)),
    ("cpu.segments.memo_hit_ratio", (MEMO_STATS,)),
    ("sim.self_ms", ()),
    ("sim.events_fired", (COLLECT_STATS,)),
    ("sim.instructions", (COLLECT_STATS,)),
    ("io.self_ms", ()),
    ("io.mmio.calls", MMIO),
    ("io.backend.calls", BACKENDS),
    ("exp.run_cell.calls", (RUN_CELL,)),
    ("exp.run_cell.ms", (RUN_CELL,)),
    ("exp.cache.store.ms", (STORE,)),
    ("exp.cache.load.calls", (LOAD,)),
    ("exp.cache.load.ms", (LOAD,)),
    ("exp.cache.hit_ratio", (LOAD,)),
    ("exp.code_fingerprint.ms", (FINGERPRINT,)),
    ("exp.result_codec.ms", CODEC),
    ("serve.submit.calls", (SUBMIT,)),
    ("serve.submit.self_ms", (SUBMIT, EXECUTE)),
    ("serve.pool.execute.ms", (EXECUTE,)),
    ("serve.pool.wait_ms", (EXECUTE, COMPUTE_BODY)),
    ("serve.compute_body.ms", (COMPUTE_BODY,)),
)


def read_trace(directory):
    """Every span and summed counters from one trace directory."""
    spans = []        # (pid, sid, parent, op, name, start, end)
    counts = {}
    missing = set()
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                names = record["names"]
                for sid, parent, op, index, start, end in record["spans"]:
                    spans.append((record["pid"], sid, parent, op,
                                  names[index], start, end))
                for name, value in record["counts"].items():
                    counts[name] = counts.get(name, 0) + value
                missing.update(record["missing"])
    return spans, counts, missing


class SpanTree:
    """Spans indexed by (pid, span id) with child lists."""

    def __init__(self, spans):
        self.spans = {(s[0], s[1]): s for s in spans}
        self.children = {}
        self.by_name = {}
        for span in spans:
            if span[2] is not None:
                self.children.setdefault((span[0], span[2]), []).append(span)
            self.by_name.setdefault(span[4], []).append(span)

    def parent(self, span):
        if span[2] is None:
            return None
        return self.spans.get((span[0], span[2]))

    def self_ns(self, span):
        """Duration minus the union of its children's intervals."""
        start, end = span[5], span[6]
        covered, reach = 0, start
        kids = sorted(self.children.get((span[0], span[1]), ()),
                      key=lambda s: s[5])
        for kid in kids:
            lo, hi = max(kid[5], reach), min(kid[6], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (end - start) - covered

    def has_ancestor(self, span, names):
        parent = self.parent(span)
        while parent is not None:
            if parent[4] in names:
                return True
            parent = self.parent(parent)
        return False

    def of(self, names):
        return [s for name in names for s in self.by_name.get(name, ())]

    def calls(self, names):
        return len(self.of(names))

    def outer_ms(self, names):
        """Time in ``names`` counting only the outermost of nested spans."""
        return sum(s[6] - s[5] for s in self.of(names)
                   if not self.has_ancestor(s, names)) / 1e6

    def self_ms(self, names):
        return sum(self.self_ns(s) for s in self.of(names)) / 1e6

    def layer_self_ms(self, layer):
        return self.self_ms({name for name, owner in LAYER.items()
                             if owner == layer})


def _ratio(part, whole):
    return part / whole if whole else 0.0


def span_metrics(directory):
    """``(metrics, missing)``: every computable SPAN_METRICS value, and
    the names of metrics whose targets no longer exist."""
    spans, counts, absent = read_trace(directory)
    tree = SpanTree(spans)
    count = counts.get
    machine_under = set()
    for span in tree.of({MACHINE_INIT}):
        parent = tree.parent(span)
        while parent is not None:
            if parent[4] == MEASURE_SERVICE:
                machine_under.add((parent[0], parent[1]))
            parent = tree.parent(parent)
    services = tree.of({MEASURE_SERVICE})
    memo_lookups = count(MEMO_HITS, 0) + count(MEMO_MISSES, 0)
    values = {
        "virt.self_ms": tree.layer_self_ms("virt"),
        "virt.l2_exit.calls": tree.calls({L2_EXIT}),
        "virt.l1_exit.calls": tree.calls({L1_EXIT}),
        "virt.ept.compose.calls": tree.calls({COMPOSE}),
        "virt.ept.compose.ms": tree.outer_ms({COMPOSE}),
        "virt.ept.translate.calls": count(TRANSLATE, 0),
        "virt.vmcs.access.calls": sum(count(n, 0) for n in VMCS_ACCESS),
        "virt.vmcs.field_get.calls": count(FIELD_GET, 0),
        "virt.transform.calls": tree.calls(set(TRANSFORMS)),
        "virt.transform.ms": tree.outer_ms(set(TRANSFORMS)),
        "workloads.self_ms": tree.layer_self_ms("workloads"),
        "workloads.memcached.self_ms": tree.self_ms(set(MEMCACHED)),
        "workloads.memcached.measure_service.calls": len(services),
        "workloads.memcached.service_memo_ratio": _ratio(
            sum(1 for s in services if (s[0], s[1]) not in machine_under),
            len(services)),
        "core.self_ms": tree.layer_self_ms("core"),
        "core.machine_build.calls": tree.calls({MACHINE_INIT}),
        "core.machine_build.ms": tree.outer_ms({MACHINE_INIT}),
        "core.run_program.calls": tree.calls({RUN_PROGRAM}),
        "core.switch.calls": tree.calls(set(SWITCH)),
        "cpu.self_ms": tree.layer_self_ms("cpu"),
        "cpu.segments.compile.calls": tree.calls({COMPILE}),
        "cpu.segments.memo_hit_ratio": _ratio(count(MEMO_HITS, 0),
                                              memo_lookups),
        "sim.self_ms": tree.layer_self_ms("sim"),
        "sim.events_fired": count(EVENTS_FIRED, 0),
        "sim.instructions": count(INSTRUCTIONS, 0),
        "io.self_ms": tree.layer_self_ms("io"),
        "io.mmio.calls": tree.calls(set(MMIO)),
        "io.backend.calls": tree.calls(set(BACKENDS)),
        "exp.run_cell.calls": tree.calls({RUN_CELL}),
        "exp.run_cell.ms": tree.outer_ms({RUN_CELL}),
        "exp.cache.store.ms": tree.outer_ms({STORE}),
        "exp.cache.load.calls": tree.calls({LOAD}),
        "exp.cache.load.ms": tree.outer_ms({LOAD}),
        "exp.cache.hit_ratio": _ratio(count(CACHE_LOAD_HITS, 0),
                                      tree.calls({LOAD})),
        "exp.code_fingerprint.ms": tree.outer_ms({FINGERPRINT}),
        "exp.result_codec.ms": tree.outer_ms(set(CODEC)),
        "serve.submit.calls": tree.calls({SUBMIT}),
        # The pool call runs in an executor thread while its submit
        # awaits it, so it is a root of its own: subtract it here.
        "serve.submit.self_ms": max(
            0.0, tree.self_ms({SUBMIT}) - tree.outer_ms({EXECUTE})),
        "serve.pool.execute.ms": tree.outer_ms({EXECUTE}),
        "serve.pool.wait_ms": max(
            0.0, tree.outer_ms({EXECUTE}) - tree.outer_ms({COMPUTE_BODY})),
        "serve.compute_body.ms": tree.outer_ms({COMPUTE_BODY}),
    }
    gone = [name for name, needs in SPAN_METRICS
            if any(target in absent for target in needs)]
    for name in gone:
        values.pop(name, None)
    return values, gone


# -- start-up split -----------------------------------------------------------

#: The program's top-level packages at this commit; ``repro`` stands for
#: the package's own ``__init__`` and its top-level modules.
PACKAGES = ("analysis", "core", "cpu", "exp", "faults", "fuzz", "io",
            "lint", "obs", "repro", "serve", "sim", "virt", "workloads")

STARTUP_METRICS = (("startup.modules",)
                   + tuple(f"startup.import_ms.{p}" for p in PACKAGES)
                   + ("startup.import_ms.stdlib",))


def importtime_split(stderr_text):
    """``-X importtime`` output -> module count and self ms per package.

    Every module outside ``repro`` counts as ``stdlib`` (the program
    depends on nothing else).  A package added after this commit is
    folded into ``repro``.
    """
    values = dict.fromkeys(STARTUP_METRICS, 0)
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue                        # the header line
        self_us, module = int(fields[0]), fields[2].strip()
        values["startup.modules"] += 1
        parts = module.split(".")
        if parts[0] != "repro":
            key = "stdlib"
        elif len(parts) > 1 and parts[1] in PACKAGES:
            key = parts[1]
        else:
            key = "repro"
        values[f"startup.import_ms.{key}"] += self_us / 1000
    return values
