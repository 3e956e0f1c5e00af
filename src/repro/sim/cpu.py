"""CPU modelling: pools of cores with pinning, contention and timeslicing.

Compute work in the reproduction (sorting, compaction, request handling,
checksum/serialization overhead) is expressed as *seconds of CPU time* and
billed to a :class:`CpuPool` via :meth:`CpuPool.execute`.  Each core is a
capacity-1 resource; threads either pin to a specific core (the paper pins
every test thread) or run on any core of an allowed set (RocksDB's background
compaction workers run on whichever pinned cores are available).

Long work items are split into timeslices so that a multi-second compaction
job cannot monopolise a core against interactive foreground work — the same
effect an OS scheduler provides.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Optional, Sequence

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.sim.sync import AnyOf

__all__ = ["CpuPool"]

#: Default scheduler timeslice in simulated seconds.
DEFAULT_TIMESLICE = 10e-3


class CpuPool:
    """A set of identical CPU cores.

    Parameters
    ----------
    env:
        Simulation environment.
    n_cores:
        Number of cores in the pool.
    timeslice:
        Maximum contiguous occupancy of a core by one work item; longer work
        is split and re-queued, approximating preemptive scheduling.
    name:
        Label used in stats and debugging output.
    """

    def __init__(
        self,
        env: Environment,
        n_cores: int,
        timeslice: float = DEFAULT_TIMESLICE,
        name: str = "cpu",
    ):
        if n_cores < 1:
            raise SimulationError("a CPU pool needs at least one core")
        if timeslice <= 0:
            raise SimulationError("timeslice must be positive")
        self.env = env
        self.n_cores = n_cores
        self.timeslice = timeslice
        self.name = name
        self._cores = [Resource(env, capacity=1) for _ in range(n_cores)]
        #: cumulative busy seconds per core, for utilization reporting
        self.busy_time = [0.0] * n_cores
        self._all_cores = list(range(n_cores))
        #: trace span name and per-core lanes, built once instead of per span
        self._span_name = f"cpu.{name}"
        self._core_lanes = [f"{name}/core{i}" for i in range(n_cores)]
        #: memoized sorted core lists per distinct ``cores=`` argument —
        #: thread contexts pass the same pinned set on every execute()
        self._allowed_cache: dict[tuple, list[int]] = {}

    # -- acquisition ----------------------------------------------------------
    def _acquire(
        self, allowed: Sequence[int], priority: int
    ) -> Generator:
        """Acquire exactly one core out of ``allowed``; yields (index, request)."""
        cores = self._cores
        if len(allowed) == 1:
            idx = allowed[0]
            req = cores[idx].request(priority)
            yield req
            return idx, req
        if all(not cores[idx]._users for idx in allowed):
            # Every allowed core is idle, so the AnyOf fan-out below would
            # grant all requests and keep the lowest allowed index.  Replay
            # that outcome with identical event-counter timing: the requests
            # grant in creation order, and the wake-up event is scheduled
            # while the first grant is being processed — exactly when the
            # original AnyOf would have fired.
            requests = [cores[idx].request(priority) for idx in allowed]
            woke = self.env.event()
            requests[0].callbacks.append(lambda _evt: woke.succeed())
            yield woke
            keep = allowed[0]
            for idx, req in zip(allowed[1:], requests[1:]):
                cores[idx].release(req)
            return keep, requests[0]
        requests = {idx: cores[idx].request(priority) for idx in allowed}
        yield AnyOf(self.env, list(requests.values()))
        granted = [idx for idx, req in requests.items() if req.processed and req.ok]
        keep = min(granted)
        for idx, req in requests.items():
            if idx != keep:
                cores[idx].release(req)
        return keep, requests[keep]

    def _claim(self, allowed, priority, critpath, resource, op, root, token):
        """``_acquire`` plus blocked-by edge + holder registration.

        Only runs when a critical-path observer is installed; records an
        edge when the claim actually waited (holder snapshot taken at wait
        start — the work the claimant was stuck behind) and registers this
        actor as a holder of ``resource`` until the matching release.
        """
        t0 = self.env.now
        holders = critpath.holders(resource)
        idx, req = yield from self._acquire(allowed, priority)
        now = self.env.now
        if now > t0:
            critpath.record_edge(resource, "cpu", t0, now, op, root, holders)
        critpath.acquire(resource, token)
        return idx, req

    def _check_allowed(self, core: Optional[int], cores: Optional[Sequence[int]]):
        if core is not None and cores is not None:
            raise SimulationError("pass either core= or cores=, not both")
        if core is not None:
            if not 0 <= core < self.n_cores:
                raise SimulationError(f"core index {core} out of range")
            return [core]
        if cores is not None:
            key = tuple(cores)
            cached = self._allowed_cache.get(key)
            if cached is not None:
                return cached
            allowed = sorted(set(cores))
            if not allowed:
                raise SimulationError("cores= must not be empty")
            for idx in allowed:
                if not 0 <= idx < self.n_cores:
                    raise SimulationError(f"core index {idx} out of range")
            self._allowed_cache[key] = allowed
            return allowed
        return self._all_cores

    # -- work ------------------------------------------------------------------
    def execute(
        self,
        seconds: float,
        core: Optional[int] = None,
        cores: Optional[Sequence[int]] = None,
        priority: int = 0,
    ) -> Generator:
        """Consume ``seconds`` of CPU time on one core (generator).

        ``core=`` pins the work to a single core; ``cores=`` restricts it to a
        set; neither means any core in the pool.  Lower ``priority`` values
        win the queue when cores are contended.

        Work longer than the pool timeslice releases and re-acquires the core
        between slices, so concurrent work items interleave rather than run
        to completion serially.
        """
        if seconds < 0:
            raise SimulationError("cannot execute negative CPU time")
        allowed = self._check_allowed(core, cores)
        tracer = self.env.tracer
        critpath = self.env.critpath
        if critpath is not None:
            resource = f"cpu.{self.name}"
            actor_op, actor_root = critpath.actor()
            token = (
                actor_op if actor_root is None else f"{actor_op}#{actor_root}"
            )
        if tracer is None:
            # Untraced fast path: skip all span bookkeeping.  Acquisition
            # still goes through the queue — a synchronous take would hand
            # the following timeout an earlier event counter than the seed's,
            # reordering same-instant wakeups under contention.
            env = self.env
            cores_ = self._cores
            remaining = float(seconds)
            if remaining == 0.0:
                if critpath is None:
                    idx, req = yield from self._acquire(allowed, priority)
                else:
                    idx, req = yield from self._claim(
                        allowed, priority, critpath, resource,
                        actor_op, actor_root, token,
                    )
                    critpath.release(resource, token)
                cores_[idx].release(req)
                return
            timeslice = self.timeslice
            while remaining > 0:
                if critpath is None:
                    idx, req = yield from self._acquire(allowed, priority)
                else:
                    idx, req = yield from self._claim(
                        allowed, priority, critpath, resource,
                        actor_op, actor_root, token,
                    )
                slice_len = remaining if remaining < timeslice else timeslice
                try:
                    yield env.timeout(slice_len)
                finally:
                    self.busy_time[idx] += slice_len
                    cores_[idx].release(req)
                    if critpath is not None:
                        critpath.release(resource, token)
                remaining -= slice_len
            return
        # Traced: one leaf span per call; nothing nests under a core claim.
        span = tracer.leaf(
            self._span_name, "cpu", pool=self.name, run=float(seconds)
        )
        wait = 0.0
        remaining = float(seconds)
        try:
            if remaining == 0.0:
                # Zero-cost work still passes through the queue once so that
                # ordering against other work on the core is preserved.
                t0 = self.env.now
                if critpath is None:
                    idx, req = yield from self._acquire(allowed, priority)
                else:
                    idx, req = yield from self._claim(
                        allowed, priority, critpath, resource,
                        actor_op, actor_root, token,
                    )
                    critpath.release(resource, token)
                wait += self.env.now - t0
                span.lane = self._core_lanes[idx]
                self._cores[idx].release(req)
                return
            while remaining > 0:
                t0 = self.env.now
                if critpath is None:
                    idx, req = yield from self._acquire(allowed, priority)
                else:
                    idx, req = yield from self._claim(
                        allowed, priority, critpath, resource,
                        actor_op, actor_root, token,
                    )
                wait += self.env.now - t0
                if span.lane is None:
                    span.lane = self._core_lanes[idx]
                slice_len = min(remaining, self.timeslice)
                try:
                    yield self.env.timeout(slice_len)
                finally:
                    self.busy_time[idx] += slice_len
                    self._cores[idx].release(req)
                    if critpath is not None:
                        critpath.release(resource, token)
                remaining -= slice_len
        finally:
            span.args["wait"] = wait
            span.args["run"] = float(seconds) - remaining
            tracer.finish(span)

    def utilization(self, up_to: Optional[float] = None) -> list[float]:
        """Per-core busy fraction of elapsed simulated time."""
        horizon = self.env.now if up_to is None else up_to
        if horizon <= 0:
            return [0.0] * self.n_cores
        return [min(1.0, busy / horizon) for busy in self.busy_time]

    def total_busy_time(self) -> float:
        """Sum of busy seconds over all cores."""
        return sum(self.busy_time)
