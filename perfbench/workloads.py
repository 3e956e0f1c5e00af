"""The benchmark's four closed-loop workloads, driven through the public API.

Each workload builds its inputs from the seed alone, keeps a dict model of
what the store must return, and checks every result against it.  A workload
has three stages:

* ``setup(seed)`` generates the inputs and builds the testbed, including any
  preload (load + compaction + secondary index).  It is what ``setup_s``
  times.
* ``run_chunk(state, k)`` runs chunk ``k`` of the measured phase inside the
  discrete-event simulation and returns a :class:`Chunk`.  Chunks are fixed
  amounts of work, so the first ``min_chunks`` of them are the same for a
  given seed on any machine: every virtual-clock figure comes from those.
  Later chunks only extend the wall-clock measurement.
* ``check(state)`` runs the output checks that do not fit inline (index
  scans, update read-back, the invariant auditor, queue accounting).

Only names from ``repro.core``, ``repro.workloads``,
``repro.nvme.kv_commands``, ``repro.bench.calibration.build_kvcsd_testbed``
and the ``repro.obs`` install/audit functions are used, so refactors behind
that surface need no change here.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.bench.calibration import build_kvcsd_testbed
from repro.core import SidxConfig
from repro.workloads import (
    ENERGY_DTYPE,
    ENERGY_OFFSET,
    ENERGY_WIDTH,
    SyntheticSpec,
    VpicDataset,
    VpicSpec,
    ZipfSampler,
    generate_pairs,
)

#: The device testbed's own seed is part of the configuration, not of the
#: workload: only the inputs change with ``--seed``.
TESTBED_SEED = 7
#: Pairs per bulk-PUT call.  2048 pairs of 48 B fit one 128 KiB message, so
#: every call is exactly one command and its latency is the per-pair latency.
BULK_PAIRS = 2048
#: Status the device returns for a GET of an absent key (the exception's
#: class name, as NVMe status codes are names here).
NOT_FOUND = "KeyNotFoundError"
ENERGY_SIDX = SidxConfig("energy", ENERGY_OFFSET, ENERGY_WIDTH, ENERGY_DTYPE)


@dataclass
class Chunk:
    """What one chunk of the measured phase did."""

    ops: int = 0
    failed: int = 0
    #: what the first failed ops did wrong, for the report
    errors: list = field(default_factory=list)
    #: (virtual seconds, weight) per client call; weight = user ops it carried
    latencies: list = field(default_factory=list)
    #: per-op-type latencies, for the side report only
    by_type: dict = field(default_factory=dict)
    gets: int = 0
    records_returned: int = 0
    #: virtual time the chunk took
    virtual_s: float = 0.0
    #: per-chunk virtual figures that must repeat exactly (vpic_ingest)
    fingerprint: tuple = ()

    def record(self, op: str, seconds: float, weight: int = 1) -> None:
        self.latencies.append((seconds, weight))
        self.by_type.setdefault(op, []).append(seconds)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


def sized(nominal: int, seed: int, step: int) -> int:
    """``nominal`` less a seed-drawn multiple of ``step`` (0 to 6).

    The data-set size is an input like the keys themselves: without this
    every virtual-clock figure of a fixed-size load would read the same on
    every seed, and a change to the model could hide behind one exact size.
    Sizes only shrink, so the number of bulk-PUT messages stays the same.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    return nominal - step * int(rng.integers(0, 7))


def install_obs_stack(kv) -> dict:
    """Journal, timeline with the default SLO rules, tracer retaining
    spans, and critical-path observer: the program's full stack."""
    from repro.obs import install_critpath, install_journal

    journal = install_journal(kv.env)
    tracer, _hub, recorder = kv.enable_timeline(retain_spans=True)
    critpath = install_critpath(kv.env, tracer=tracer)
    return {"journal": journal, "tracer": tracer, "timeline": recorder,
            "critpath": critpath}


def obs_artifacts(kv, stack: dict) -> dict:
    """Build the end-of-run artifacts of the observability stack."""
    from repro.obs import explain_report

    return {
        "timeline": stack["timeline"].to_json(),
        "explain": explain_report(stack["tracer"], stack["critpath"], now=kv.env.now),
        "journal_tail": [e.as_dict() for e in stack["journal"].tail(256)],
    }


def audit(kv) -> list[str]:
    """Pure-read invariant audit plus host queue accounting; violations."""
    from repro.obs.audit import InvariantAuditor, check_queue_pair_accounting

    report = InvariantAuditor(kv.device, level="off").run("benchmark-end")
    problems = [f"{v.invariant}: {v.detail}" for v in report.violations]
    return problems + check_queue_pair_accounting(kv.client.qp)


def load_keyspaces(kv, files, sidx: SidxConfig | None, chunk: Chunk | None = None):
    """One loader thread per (name, pairs): create, bulk-PUT, compact, wait,
    then build ``sidx`` and wait.  Returns the virtual time at which the last
    loader's ``compact`` call returned (Fig 11's effective write time)."""
    env, client = kv.env, kv.client
    start = env.now
    compacted = []

    def loader(i, name, pairs):
        ctx = kv.thread_ctx(i)
        yield from client.create_keyspace(name, ctx)
        yield from client.open_keyspace(name, ctx)
        for lo in range(0, len(pairs), BULK_PAIRS):
            batch = pairs[lo : lo + BULK_PAIRS]
            t0 = env.now
            yield from client.bulk_put(name, batch, ctx)
            if chunk is not None:
                chunk.record("put", env.now - t0, len(batch))
        yield from client.compact(name, ctx)
        compacted.append(env.now)
        yield from client.wait_for_device(name, ctx)
        if sidx is not None:
            yield from client.build_secondary_index(
                name, sidx.name, sidx.value_offset, sidx.width, sidx.dtype, ctx=ctx
            )
            yield from client.wait_for_device(name, ctx)

    procs = [env.process(loader(i, name, pairs)) for i, (name, pairs) in enumerate(files)]
    env.run(env.all_of(procs))
    return max(compacted) - start


def run_threads(env, bodies) -> float:
    """Run simulated threads to completion; returns their virtual makespan."""
    start = env.now
    env.run(env.all_of([env.process(body) for body in bodies]))
    return env.now - start


class Workload:
    name = ""
    #: set-ups per end-to-end run; ``setup_s`` is their median
    setup_repeats = 5
    min_chunks = 1
    observed = False

    def with_obs(self, observed: bool) -> "Workload":
        other = type(self)()
        other.observed = observed
        return other

    def testbed(self, **knobs):
        kv = build_kvcsd_testbed(seed=TESTBED_SEED, **knobs)
        return kv, (install_obs_stack(kv) if self.observed else None)

    def user_bytes(self, state: dict) -> tuple[int, int]:
        """(user bytes written, live user bytes) so far."""
        return state["user_bytes"], state["user_bytes"]

    def summary(self, state: dict) -> dict:
        written, live = self.user_bytes(state)
        ssd = state["kv"].ssd.introspect()
        return {"insert_virtual_s": state["insert_virtual_s"],
                "write_amp": ssd["io"]["bytes_written"] / written,
                "space_amp": ssd["bytes_stored"] / live}


# --------------------------------------------------------------- vpic_ingest
class VpicIngest(Workload):
    """Fig 11's macro write: 16 loaders ingest a VPIC dump into 16 keyspaces,
    compact, build the energy index and wait for the device.  One chunk is
    one whole ingest on a fresh paper-default testbed."""

    name = "vpic_ingest"
    #: set-up is a fraction of a second here, so take more samples of it
    setup_repeats = 9
    n_files = 16
    per_file = 8192

    def setup(self, seed: int) -> dict:
        per_file = sized(self.per_file, seed, 32)
        dataset = VpicDataset(VpicSpec(n_particles=self.n_files * per_file,
                                       n_files=self.n_files, seed=seed))
        files = [(f"vpic-{i}", dataset.file_particles(i)) for i in range(self.n_files)]
        model = {k: v for _name, pairs in files for k, v in pairs}
        return {"seed": seed, "dataset": dataset, "files": files, "model": model,
                "kv": None, "obs": None, "user_bytes": len(model) * 48}

    def run_chunk(self, state: dict, k: int) -> Chunk:
        state["kv"] = state["obs"] = None  # release the previous testbed first
        kv, stack = self.testbed()
        state["kv"], state["obs"] = kv, stack
        chunk = Chunk()
        state["insert_virtual_s"] = load_keyspaces(kv, state["files"], ENERGY_SIDX, chunk)
        chunk.virtual_s = kv.env.now
        chunk.ops = len(state["model"])
        chunk.fingerprint = (chunk.virtual_s, state["insert_virtual_s"],
                             kv.ssd.stats.bytes_written)
        return chunk

    def check(self, state: dict) -> tuple[int, list[str]]:
        kv, dataset, model = state["kv"], state["dataset"], state["model"]
        env, client = kv.env, kv.client
        problems: list[str] = []
        attempted = 0
        rng = np.random.default_rng([state["seed"], 11])
        keys = list(model)
        # particle ids are file id | index, little-endian: byte 0 names the file
        lookups = [(f"vpic-{keys[i][0]}", keys[i])
                   for i in rng.choice(len(keys), 256, replace=False)]
        lookups += [("vpic-0", struct.pack("<QQ", self.n_files + 1, i)) for i in range(16)]
        thresholds = [dataset.energy_threshold(s) for s in (0.001, 0.01)]

        def checker():
            nonlocal attempted
            ctx = kv.thread_ctx(0)
            for name, key in lookups:
                attempted += 1
                ticket = yield from client.get_async(name, key, ctx)
                done = yield from client.qp.wait(ticket, ctx, raise_on_error=False)
                want = model.get(key)
                got = done.value if done.ok else None
                if (want is None and done.status != NOT_FOUND) or got != want:
                    problems.append(f"GET {key.hex()}: {done.status}")
            for threshold in thresholds:
                attempted += 1
                lo, hi = VpicDataset.energy_query_bounds(threshold)
                found = 0
                for name, _pairs in state["files"]:
                    rows = yield from client.sidx_range_query(name, "energy", lo, hi, ctx)
                    found += len(rows)
                    for pkey, value in rows:
                        energy = struct.unpack_from("<f", value, ENERGY_OFFSET)[0]
                        if model.get(pkey) != value or energy < np.float32(threshold):
                            problems.append(f"SIDX row {pkey.hex()} wrong")
                if found != dataset.particles_above(threshold):
                    problems.append(f"SIDX >= {threshold}: {found} rows, want "
                                    f"{dataset.particles_above(threshold)}")

        run_threads(env, [checker()])
        return attempted, problems + audit(kv)


# --------------------------------------------------------------------- get_qd
class GetQd(Workload):
    """Read-path stress: 4 threads each keep 8 zipfian GETs in flight
    (10% absent keys) against 4 compacted keyspaces, with query workers,
    blooms and a block cache much smaller than the values."""

    name = "get_qd"
    min_chunks = 10
    threads = 4
    per_thread = 256
    depth = 8
    absent_frac = 0.10
    per_keyspace = 16384
    #: a quarter of the sorted values' 2 MiB
    knobs = dict(query_workers=4, bloom_bits_per_key=10, block_cache_bytes=512 * 1024)
    #: a 4-byte index on the value head: GETs never use it, but with it the
    #: traced pass times the index layer on every workload
    head_sidx = SidxConfig("head", 0, 4, "bytes")

    def setup(self, seed: int) -> dict:
        per_ks = sized(self.per_keyspace, seed, 64)
        absent_per_ks = 1024
        pairs = generate_pairs(SyntheticSpec(
            n_pairs=self.threads * (per_ks + absent_per_ks), seed=seed))
        files, absent, samplers = [], [], []
        for t in range(self.threads):
            base = t * (per_ks + absent_per_ks)
            files.append((f"qd-{t}", pairs[base : base + per_ks]))
            absent.append([k for k, _v in pairs[base + per_ks : base + per_ks + absent_per_ks]])
            samplers.append(ZipfSampler(per_ks, theta=0.99))
        kv, stack = self.testbed(**self.knobs)
        insert_s = load_keyspaces(kv, files, self.head_sidx)
        return {"seed": seed, "kv": kv, "obs": stack, "files": files, "absent": absent,
                "samplers": samplers, "insert_virtual_s": insert_s,
                "user_bytes": self.threads * per_ks * 48}

    def run_chunk(self, state: dict, k: int) -> Chunk:
        kv = state["kv"]
        env, client, qp = kv.env, kv.client, kv.client.qp
        chunk = Chunk()

        def thread(t):
            ctx = kv.thread_ctx(t)
            name, pairs = state["files"][t]
            absent = state["absent"][t]
            rng = np.random.default_rng([state["seed"], k, t])
            sampler = state["samplers"][t]
            sampler.rng = rng
            ranks = sampler.sample(self.per_thread).tolist()
            miss = (rng.random(self.per_thread) < self.absent_frac).tolist()
            holes = rng.integers(0, len(absent), self.per_thread).tolist()
            inflight = deque()

            def reap():
                ticket, posted, key, want = inflight.popleft()
                done = yield from qp.wait(ticket, ctx, raise_on_error=False)
                chunk.record("get", env.now - posted)
                if want is None:
                    ok = done.status == NOT_FOUND
                else:
                    ok = done.ok and done.value == want
                    chunk.records_returned += done.ok
                if not ok:
                    chunk.fail(f"GET {key.hex()}: {done.status}")

            for rank, is_miss, hole in zip(ranks, miss, holes):
                if len(inflight) == self.depth:
                    yield from reap()
                key, want = (absent[hole], None) if is_miss else pairs[rank]
                posted = env.now
                ticket = yield from client.get_async(name, key, ctx)
                inflight.append((ticket, posted, key, want))
            while inflight:
                yield from reap()

        chunk.virtual_s = run_threads(env, [thread(t) for t in range(self.threads)])
        chunk.ops = chunk.gets = self.threads * self.per_thread
        return chunk

    def check(self, state: dict) -> tuple[int, list[str]]:
        return 1, audit(state["kv"])


# ----------------------------------------------------------------- ycsb_mixed
class YcsbMixed(Workload):
    """Writes beside reads on the paper-default device: 4 QD-1 threads run
    80% zipfian GET, 5% short range, 5% selective energy-index range and 10%
    single-pair PUT into a per-thread delta keyspace that is compacted and
    replaced every ``rotate_every`` updates."""

    name = "ycsb_mixed"
    min_chunks = 16
    threads = 4
    per_thread = 200
    range_len = 16
    sidx_rows = 16
    rotate_every = 64
    per_file = 16384
    #: cumulative op mix: GET, range, SIDX range, PUT
    mix = (0.80, 0.85, 0.90, 1.0)

    def setup(self, seed: int) -> dict:
        per_file = sized(self.per_file, seed, 64)
        dataset = VpicDataset(VpicSpec(n_particles=self.threads * per_file,
                                       n_files=self.threads, seed=seed))
        files = [(f"base-{i}", dataset.file_particles(i)) for i in range(self.threads)]
        kv, stack = self.testbed()
        insert_s = load_keyspaces(kv, files, ENERGY_SIDX)
        views = []
        for t, (_name, pairs) in enumerate(files):
            order = np.random.default_rng([seed, 3, t]).permutation(len(pairs))
            by_key = sorted(pairs)
            energy = np.frombuffer(b"".join(v[ENERGY_OFFSET : ENERGY_OFFSET + 4]
                                            for _k, v in pairs), dtype="<f4")
            by_energy = np.argsort(energy, kind="stable")
            views.append({"pairs": pairs, "hot": order, "sorted": by_key,
                          "keys": [k for k, _v in by_key], "by_energy": by_energy,
                          "energy_sorted": energy[by_energy],
                          "sampler": ZipfSampler(len(pairs), theta=0.99)})
        return {"seed": seed, "kv": kv, "obs": stack, "files": files, "views": views,
                "insert_virtual_s": insert_s, "user_bytes": len(dataset.energies()) * 48,
                "deltas": [deque() for _ in range(self.threads)],
                "generation": [0] * self.threads, "put_bytes": 0,
                "retired_checks": 0, "retired_problems": []}

    def _new_delta(self, state, t, ctx):
        client = state["kv"].client
        name = f"delta-{t}-{state['generation'][t]}"
        state["generation"][t] += 1
        yield from client.create_keyspace(name, ctx)
        yield from client.open_keyspace(name, ctx)
        state["deltas"][t].append({"name": name, "model": {}, "compacted": False})

    def _verify_delta(self, state, delta, ctx):
        """Read a compacted delta's updates back (one multi-GET)."""
        client = state["kv"].client
        yield from client.wait_for_device(delta["name"], ctx)
        got = yield from client.multi_get(delta["name"], list(delta["model"]), ctx)
        state["retired_checks"] += 1
        if got != delta["model"]:
            state["retired_problems"].append(f"delta {delta['name']} read back wrong")

    def _rotate(self, state, t, ctx):
        client = state["kv"].client
        deltas = state["deltas"][t]
        current = deltas[-1]
        yield from client.compact(current["name"], ctx)
        current["compacted"] = True
        if len(deltas) == 2:
            old = deltas.popleft()
            yield from self._verify_delta(state, old, ctx)
            yield from client.delete_keyspace(old["name"], ctx)
        yield from self._new_delta(state, t, ctx)

    def run_chunk(self, state: dict, k: int) -> Chunk:
        kv = state["kv"]
        env, client = kv.env, kv.client
        chunk = Chunk()

        def thread(t):
            ctx = kv.thread_ctx(t)
            name = state["files"][t][0]
            view = state["views"][t]
            if not state["deltas"][t]:
                yield from self._new_delta(state, t, ctx)
            rng = np.random.default_rng([state["seed"], k, t])
            sampler = view["sampler"]
            sampler.rng = rng
            hot = view["hot"][sampler.sample(self.per_thread)].tolist()
            kinds = np.searchsorted(self.mix, rng.random(self.per_thread), side="right")
            starts = rng.integers(0, len(view["keys"]) - self.range_len, self.per_thread)
            values = rng.integers(0, 256, (self.per_thread, 32), dtype=np.uint8)
            for i, kind in enumerate(kinds.tolist()):
                t0 = env.now
                error = "wrong result"
                try:
                    if kind == 0:
                        key, want = view["pairs"][hot[i]]
                        got = yield from client.get(name, key, ctx)
                        op, ok, rows = "get", got == want, 1
                    elif kind == 1:
                        lo = int(starts[i])
                        want = view["sorted"][lo : lo + self.range_len]
                        got = yield from client.range_query(
                            name, want[0][0], view["keys"][lo + self.range_len], ctx)
                        op, ok, rows = "scan", list(got) == want, len(got)
                    elif kind == 2:
                        got, ok = yield from self._sidx_scan(client, name, view,
                                                             int(starts[i]), ctx)
                        op, rows = "scan", len(got)
                    else:
                        key = view["pairs"][hot[i]][0]
                        value = values[i].tobytes()
                        yield from client.put(state["deltas"][t][-1]["name"], key, value, ctx)
                        state["deltas"][t][-1]["model"][key] = value
                        state["put_bytes"] += len(key) + len(value)
                        op, ok, rows = "put", True, 0
                except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                    op, ok, rows, error = "error", False, 0, repr(exc)
                chunk.record(op, env.now - t0)
                if not ok:
                    chunk.fail(f"thread {t} op {i} ({op}): {error}")
                chunk.records_returned += rows
                chunk.gets += op == "get"
                if op == "put" and len(state["deltas"][t][-1]["model"]) >= self.rotate_every:
                    yield from self._rotate(state, t, ctx)

        chunk.virtual_s = run_threads(env, [thread(t) for t in range(self.threads)])
        chunk.ops = self.threads * self.per_thread
        return chunk

    def _sidx_scan(self, client, name, view, start, ctx):
        """Energy range covering ``sidx_rows`` particles from a seeded start."""
        energies = view["energy_sorted"]
        start = start % (len(energies) - self.sidx_rows)
        lo, hi = energies[start], energies[start + self.sidx_rows]
        first = int(np.searchsorted(energies, lo, side="left"))
        last = int(np.searchsorted(energies, hi, side="left"))
        pairs = view["pairs"]
        want = sorted(pairs[i] for i in view["by_energy"][first:last].tolist())
        got = yield from client.sidx_range_query(
            name, "energy", struct.pack("<f", lo), struct.pack("<f", hi), ctx)
        return got, sorted(got) == want

    def user_bytes(self, state: dict) -> tuple[int, int]:
        live = state["user_bytes"] + sum(
            len(d["model"]) * 48 for deltas in state["deltas"] for d in deltas)
        return state["user_bytes"] + state["put_bytes"], live

    def check(self, state: dict) -> tuple[int, list[str]]:
        kv = state["kv"]
        client = kv.client

        def finish(t):
            ctx = kv.thread_ctx(t)
            for delta in state["deltas"][t]:
                if not delta["compacted"]:
                    yield from client.compact(delta["name"], ctx)
                    delta["compacted"] = True
                yield from self._verify_delta(state, delta, ctx)

        run_threads(kv.env, [finish(t) for t in range(self.threads)])
        return state["retired_checks"], state["retired_problems"] + audit(kv)


class YcsbObserved(YcsbMixed):
    """``ycsb_mixed``'s inputs with the full observability stack installed."""

    name = "ycsb_observed"
    observed = True


WORKLOADS = {w.name: w for w in (VpicIngest, GetQd, YcsbMixed, YcsbObserved)}
