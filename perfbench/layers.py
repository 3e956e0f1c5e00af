"""The traced pass: per-layer wall time and counts, measured from outside.

:class:`LayerTrace` wraps the public functions and methods of each layer's
modules (the :data:`LAYERS` table) for the length of one pass, then restores
them.  A wrapped call pushes a frame on one stack; its *self time* is its
wall time minus the time of the wrapped calls nested inside it.  Generators
are timed per resume, which is how the simulation runs them, and every
process the simulation spawns is timed under the layer of the module that
defined its generator.  Time in unwrapped code counts towards the nearest
wrapped caller.

The pass installs none of the program's own observers (tracer, journal,
critical path): attaching any of them takes ``KvQueuePair.submit`` off its
inline path, so the traced pass would run a different program.  The
aggregates stay in memory and are written out once, by the runner, at the
end.

Wall self times cover the whole traced pass (set-up, measured phase and
output checks), so every layer has work on every workload.  Counts, ratios
and virtual-clock distributions cover the measured phase only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter

#: (layer, module, names).  ``None`` takes every public function and every
#: public method of every class the module defines.
LAYERS = [
    ("sim", "repro.sim.core", ["Environment.step", "Environment.run",
                               "Environment.timeout", "Environment.all_of",
                               "Environment.any_of"]),
    ("sim", "repro.sim.resources", None),
    ("sim", "repro.sim.cpu", None),
    ("sim", "repro.sim.sync", None),
    ("host", "repro.host.threads", None),
    ("nvme", "repro.nvme.queues", None),
    ("nvme", "repro.nvme.transport", None),
    ("client", "repro.core.client", None),
    # the ingest entry points first: the first layer to claim a name keeps it
    ("ingest", "repro.core.device", ["KvCsdDevice.bulk_put", "KvCsdDevice.bulk_delete",
                                     "KvCsdDevice.fsync"]),
    ("device", "repro.core.dispatch", None),
    ("device", "repro.core.device", None),
    ("ingest", "repro.core.membuf", None),
    ("query", "repro.core.query", None),
    ("query", "repro.core.scheduler", None),
    ("cache", "repro.core.block_cache", None),
    ("klog", "repro.core.klog", None),
    ("sort", "repro.core.sort", None),
    ("pidx", "repro.core.pidx", None),
    ("sidx", "repro.core.sidx", None),
    ("block", "repro.lsm.block", None),
    ("meta", "repro.core.meta", None),
    ("meta", "repro.core.zone_manager", None),
    ("soc", "repro.soc.board", None),
    ("soc", "repro.soc.dram", None),
    ("ssd", "repro.ssd.zns", None),
    ("obs", "repro.obs.trace", None),
    ("obs", "repro.obs.journal", None),
    ("obs", "repro.obs.timeline", None),
    ("obs", "repro.obs.critpath", None),
    ("obs", "repro.obs.metrics", None),
]

#: Layer of a spawned process, by the file that defined its generator.  The
#: processes ``core/device.py`` spawns are its compaction and index jobs.
PROCESS_LAYERS = [
    ("repro/core/device.py", "compact"),
    ("repro/core/client.py", "client"),
    ("repro/core/query.py", "query"),
    ("repro/core/scheduler.py", "query"),
    ("repro/core/sort.py", "sort"),
    ("repro/core/zone_manager.py", "meta"),
    ("repro/sim/", "sim"),
    ("repro/nvme/", "nvme"),
    ("repro/ssd/", "ssd"),
    ("repro/soc/", "soc"),
    ("repro/host/", "host"),
    ("repro/obs/", "obs"),
]

PHASES = ("setup", "measure", "check")


def _public_callables(module, names):
    """(owner, attribute, function) for each target in ``module``."""
    if names is not None:
        for dotted in names:
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            yield owner, attr, getattr(owner, attr)
        return
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield module, name, obj
        elif isinstance(obj, type):
            for attr, member in sorted(vars(obj).items()):
                if not attr.startswith("_") and isinstance(member, types.FunctionType):
                    yield obj, attr, member


def weighted_percentile(samples, q: float) -> float:
    """Nearest-rank percentile of non-empty (value, weight) samples."""
    ordered = sorted(samples)
    target = q * sum(weight for _value, weight in ordered)
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= target:
            return value
    return ordered[-1][0]


class LayerTrace:
    """Wraps the layers for one pass and aggregates what they did."""

    def __init__(self):
        self._stack: list[list] = []
        self.self_s = {phase: {} for phase in PHASES}
        self.events = dict.fromkeys(PHASES, 0)
        self._acc = self.self_s["setup"]
        self._phase = "setup"
        self._restore: list[tuple] = []
        self._process_layer: dict[str, str] = {}
        self.jobs: set = set()
        self.job_bytes = 0
        self.tickets: list = []
        self.reaped: dict = {}
        self._by_command: dict = {}
        self.dram_peak = 0
        self.free_zones_min = None
        self._baseline: dict = {}
        self.measured: dict = {}
        self.command_percentiles: dict = {}
        self._t0 = 0.0

    # ------------------------------------------------------------ the clock
    def enter(self, key) -> None:
        self._stack.append([key, perf_counter(), 0.0])

    def leave(self) -> None:
        key, t0, nested = self._stack.pop()
        elapsed = perf_counter() - t0
        acc = self._acc
        acc[key] = acc.get(key, 0.0) + elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    def phase(self, name: str) -> None:
        self._phase = name
        self._acc = self.self_s[name]

    def _timed(self, key, gen):
        enter, leave = self.enter, self.leave
        send, throw = gen.send, gen.throw
        value = error = None
        while True:
            enter(key)
            try:
                item = send(value) if error is None else throw(error)
            except StopIteration as stop:
                leave()
                return stop.value
            except BaseException:
                leave()
                raise
            leave()
            error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                value, error = None, exc

    def _wrap(self, key, fn):
        enter, leave, timed = self.enter, self.leave, self._timed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if type(result) is types.GeneratorType:
                wrapped = timed(key, result)
                wrapped.__name__ = result.__name__
                return wrapped
            return result

        return wrapper

    # ------------------------------------------------------------ install
    def _patch(self, owner, attr, new) -> None:
        old = getattr(owner, attr) if isinstance(owner, types.ModuleType) else vars(owner)[attr]
        self._restore.append((owner, attr, old))
        setattr(owner, attr, new)
        if isinstance(owner, types.ModuleType):
            # rebind the name wherever ``from module import name`` copied it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("repro") and mod is not owner and \
                        vars(mod).get(attr) is old:
                    self._restore.append((mod, attr, old))
                    setattr(mod, attr, new)

    def install(self) -> None:
        done = set()
        for layer, module_name, names in LAYERS:
            module = importlib.import_module(module_name)
            for owner, attr, fn in _public_callables(module, names):
                if (owner, attr) in done:
                    continue
                done.add((owner, attr))
                key = (layer, f"{getattr(owner, '__name__', '')}.{attr}")
                self._patch(owner, attr, self._wrap(key, fn))
        self._install_hooks()
        self._t0 = perf_counter()

    def _install_hooks(self) -> None:
        trace = self
        core = importlib.import_module("repro.sim.core")
        queues = importlib.import_module("repro.nvme.queues")
        env_cls, ticket_cls, qp_cls = core.Environment, queues.CommandTicket, queues.KvQueuePair
        step, process = env_cls.step, env_cls.process
        events = self.events

        def counted_step(env):
            events[trace._phase] += 1
            return step(env)

        def timed_process(env, generator, name=""):
            name = name or getattr(generator, "__name__", "process")
            parent = env.active_process
            layer = trace._layer_of(generator)
            proc = process(env, trace._timed((layer, f"process.{name.split('-')[0]}"),
                                             generator), name)
            if layer == "compact" or parent in trace.jobs:
                trace.jobs.add(proc)
            return proc

        ticket_init = ticket_cls.__init__

        def init_ticket(ticket, cid, command, *args, **kwargs):
            ticket_init(ticket, cid, command, *args, **kwargs)
            if trace._phase == "measure":
                trace.tickets.append(ticket)
                trace._by_command[id(command)] = ticket

        wait, submit = qp_cls.wait, qp_cls.submit

        def reaping_wait(qp, ticket, ctx, raise_on_error=True):
            completion = yield from wait(qp, ticket, ctx, raise_on_error)
            trace.reaped.setdefault(ticket, qp.env.now)
            return completion

        def reaping_submit(qp, command, ctx, op=None, span_args=None):
            completion = yield from submit(qp, command, ctx, op=op, span_args=span_args)
            ticket = trace._by_command.pop(id(command), None)
            if ticket is not None:
                trace.reaped.setdefault(ticket, qp.env.now)
            return completion

        self._patch(env_cls, "step", counted_step)
        self._patch(env_cls, "process", timed_process)
        self._patch(ticket_cls, "__init__", init_ticket)
        self._patch(qp_cls, "wait", reaping_wait)
        self._patch(qp_cls, "submit", reaping_submit)

        ssd_cls = importlib.import_module("repro.ssd.zns").ZnsSsd
        dram_cls = importlib.import_module("repro.soc.dram").DramBudget
        zones_cls = importlib.import_module("repro.core.zone_manager").ZoneManager
        append, reserve, allocate = ssd_cls.append, dram_cls.reserve, zones_cls.allocate_cluster

        def job_append(ssd, zone_id, data, *args, **kwargs):
            result = yield from append(ssd, zone_id, data, *args, **kwargs)
            if ssd.env.active_process in trace.jobs:
                trace.job_bytes += len(data)
            return result

        def peak_reserve(dram, nbytes, *args, **kwargs):
            result = yield from reserve(dram, nbytes, *args, **kwargs)
            if trace._phase == "measure":
                trace.dram_peak = max(trace.dram_peak, dram.capacity - dram.available)
            return result

        def sampled_allocate(zones, *args, **kwargs):
            cluster = allocate(zones, *args, **kwargs)
            if trace._phase == "measure":
                free = zones.free_zone_count
                trace.free_zones_min = free if trace.free_zones_min is None else \
                    min(trace.free_zones_min, free)
            return cluster

        self._patch(ssd_cls, "append", job_append)
        self._patch(dram_cls, "reserve", peak_reserve)
        self._patch(zones_cls, "allocate_cluster", sampled_allocate)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def _layer_of(self, generator) -> str:
        code = getattr(generator, "gi_code", None)
        filename = code.co_filename.replace("\\", "/") if code else ""
        layer = self._process_layer.get(filename)
        if layer is None:
            layer = next((name for part, name in PROCESS_LAYERS if part in filename), "bench")
            self._process_layer[filename] = layer
        return layer

    # ------------------------------------------------------------ measured phase
    @staticmethod
    def snapshot(kv) -> dict:
        """Counters the measured phase is diffed over (zero before a testbed)."""
        if kv is None:
            return {"counters": {}, "cache": {}, "io": {}, "busy": 0.0, "now": 0.0,
                    "clusters": 0, "free_zones": None, "dram": 0}
        report = kv.device.report()
        cache = report["block_cache"] or {}
        return {
            "counters": report["counters"],
            "cache": {k: cache.get(k, 0) for k in ("hits", "misses", "evictions")},
            "io": dict(kv.ssd.introspect()["io"]),
            "busy": report["soc_busy_seconds"],
            "now": kv.env.now,
            "clusters": report["allocated_clusters"],
            "free_zones": report["free_zones"],
            "dram": kv.board.dram.capacity - report["dram_available"],
        }

    def begin_measure(self, kv) -> None:
        self._baseline = self.snapshot(kv)
        self.free_zones_min = self._baseline["free_zones"]
        self.dram_peak = self._baseline["dram"]
        self.phase("measure")

    def end_measure(self, kv, ops: int, gets: int, records: int) -> None:
        self.phase("check")
        before, after = self._baseline, self.snapshot(kv)

        def delta(group, name):
            return after[group].get(name, 0) - before[group].get(name, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        # commands reaped by the caller, split into queue wait / execution /
        # reap delay; the delays of one command size are fixed costs, so the
        # waits are reported as shares of the latency (the percentiles of all
        # three go to the detail file)
        tickets = [t for t in self.tickets if t in self.reaped]
        us = 1e6
        sq = [(t.submitted_at - t.posted_at) * us for t in tickets]
        ex = [(t.completed_at - t.submitted_at) * us for t in tickets]
        reap = [(self.reaped[t] - t.completed_at) * us for t in tickets]
        total = sum(sq) + sum(ex) + sum(reap)
        hits, misses = delta("cache", "hits"), delta("cache", "misses")
        reads = delta("counters", "pidx_block_reads") + delta("counters", "sidx_block_reads")
        elapsed = after["now"] - before["now"]
        n_cores = kv.board.spec.n_cores
        m = {
            "sim.events": self.events["measure"],
            "sim.events_per_op": ratio(self.events["measure"], ops),
            "nvme.commands_per_op": ratio(len(self.tickets), ops),
            "query.pidx_block_reads_per_get": ratio(delta("counters", "pidx_block_reads"), gets),
            "query.bloom_skip_frac": ratio(delta("counters", "bloom_skips"),
                                           delta("counters", "bloom_probes")),
            "query.sidx_block_reads_per_scan": ratio(delta("counters", "sidx_block_reads"),
                                                     delta("counters", "sidx_queries")),
            "query.records_returned_per_block_read": ratio(records, reads),
            "cache.hit_rate": ratio(hits, hits + misses),
            "cache.evictions": delta("cache", "evictions"),
            "ingest.membuf_flushes": delta("counters", "membuf_flushes"),
            "soc.core_busy_frac": ratio(after["busy"] - before["busy"], n_cores * elapsed),
            "soc.dram_peak_bytes": self.dram_peak,
            "ssd.read_bytes_per_get": ratio(delta("io", "bytes_read"), gets),
            "meta.updates": delta("counters", "metadata_updates"),
            "meta.bytes_stored": kv.device.introspect()["metadata_zone"]["bytes_stored"],
            "zone.clusters_allocated": after["clusters"],
            "zone.free_zones_min": self.free_zones_min,
        }
        for name in ("bytes_written", "bytes_read", "write_ops", "read_ops", "erase_ops"):
            m[f"ssd.{name}"] = delta("io", name)
        m["nvme.sq_wait_frac"] = ratio(sum(sq), total)
        m["nvme.reap_delay_frac"] = ratio(sum(reap), total)
        self.command_percentiles = {}
        for name, values in (("sq_wait", sq), ("exec", ex), ("reap_delay", reap)):
            for q, label in ((0.5, "p50"), (0.99, "p99")):
                self.command_percentiles[f"nvme.{name}_virt_us.{label}"] = (
                    weighted_percentile([(v, 1) for v in values], q) if values else 0.0)
        m["nvme.exec_virt_us.p50"] = self.command_percentiles["nvme.exec_virt_us.p50"]
        m["nvme.exec_virt_us.p99"] = self.command_percentiles["nvme.exec_virt_us.p99"]
        self.measured = m

    # ------------------------------------------------------------ results
    def layer_seconds(self, phases=PHASES) -> dict:
        out: dict = {}
        for phase in phases:
            for (layer, _fn), seconds in self.self_s[phase].items():
                out[layer] = out.get(layer, 0.0) + seconds
        return out

    def functions(self) -> list:
        """Per-function self seconds over the pass, largest first."""
        out: dict = {}
        for phase in PHASES:
            for key, seconds in self.self_s[phase].items():
                out[key] = out.get(key, 0.0) + seconds
        return sorted(([layer, fn, s] for (layer, fn), s in out.items()),
                      key=lambda row: -row[2])

    def metrics(self, kv) -> dict:
        """Every per-layer figure of the pass (``obs.*`` and ``bench.*``
        ratios come from the runner, which sees the other passes)."""
        wall = self.layer_seconds()
        measure = self.layer_seconds(("measure",))
        elapsed = perf_counter() - self._t0
        jobs = kv.device.report()["job_durations"]
        m = dict(self.measured)
        m.update({
            "sim.wall_self_s": wall.get("sim", 0.0),
            "sim.wall_us_per_event": 1e6 * measure.get("sim", 0.0) / max(1, self.events["measure"]),
            "nvme.wall_self_s": wall.get("nvme", 0.0),
            "client.wall_self_s": wall.get("client", 0.0),
            "query.wall_self_s": wall.get("query", 0.0),
            "ingest.wall_self_s": wall.get("ingest", 0.0),
            "klog.wall_s": wall.get("klog", 0.0),
            "compact.wall_self_s": wall.get("compact", 0.0),
            "sort.wall_s": wall.get("sort", 0.0),
            "pidx.wall_s": wall.get("pidx", 0.0),
            "sidx.wall_s": wall.get("sidx", 0.0),
            "block.wall_s": wall.get("block", 0.0),
            "ssd.wall_self_s": wall.get("ssd", 0.0),
            "obs.wall_self_s": wall.get("obs", 0.0),
            "obs.wall_frac": wall.get("obs", 0.0) / elapsed,
            "compact.virt_s": sum(s for (_ks, kind), s in jobs.items() if kind == "compaction"),
            "sidx.virt_s": sum(s for (_ks, kind), s in jobs.items() if kind.startswith("sidx:")),
            "compact.flash_bytes_written": self.job_bytes,
        })
        return m
