"""Continuous telemetry timeline: virtual-time sampling + SLO watchdog.

Where :mod:`repro.obs.metrics` answers "what were the totals when the run
ended", the timeline answers "how did the system evolve *during* the run":
queue depths, compaction backlog, DRAM pressure, and windowed tail latency
become labeled :class:`~repro.sim.stats.Series` sampled on a fixed
virtual-clock cadence.

The sampler is a self-rescheduling simulation event (a plain
``env.timeout`` with a callback — no process, no generator frame).  Two
properties keep it deterministic and unobtrusive:

* **Pure reads.**  A tick reads gauges/counters and appends floats; it
  never touches simulated resources, so interleaving tick events with
  workload events cannot move the virtual clock or reorder outcomes.
* **Parking.**  When a tick finds no other scheduled event, the sampler
  parks instead of rescheduling — otherwise ``env.run()`` would never
  drain.  The next ``env.run`` segment re-arms it (via the one attribute
  check ``Environment.run`` performs), so multi-phase benchmarks keep a
  continuous cadence without per-phase wiring.

Zero-cost contract (PR 2's): nothing here is installed by default; with no
recorder attached the simulation schedules **zero** extra events and the
golden-clock digests are byte-identical.  Enabling the timeline adds tick
events, but ticks are pure reads, so every workload outcome (clocks
included) still matches the untimed run.

The **SLO watchdog** evaluates declarative :class:`AlertRule`\\ s against
each tick's sampled values.  A rule holds a comparison (``series > 12``)
and an optional duration (``for_seconds``): the condition must hold
continuously that long before the alert fires.  Fire/clear transitions
emit ``slo.alert_fire`` / ``slo.alert_clear`` journal events and surface
in the Prometheus dump (``repro metrics``).
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.journal import journal_event
from repro.sim.stats import Series, nan_to_zero, series_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsHub
    from repro.sim.core import Environment

__all__ = [
    "DEFAULT_RULES",
    "AlertRule",
    "Alert",
    "LatencyWindow",
    "TimelineConfig",
    "TimelineRecorder",
    "install_timeline",
    "sparkline",
    "timeline_to_csv",
]

#: Comparison operators an :class:`AlertRule` may use.
_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}

#: The strict form of each operator: how a rule ranks two violating values
#: (ties keep the first in sample order).
_STRICT_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.gt,
    "<": operator.lt,
    "<=": operator.lt,
}

#: Timeline source readers: ``read(obj)`` is the sampled value.
_call = operator.methodcaller("__call__")
_read_value = operator.attrgetter("value")
_ATTR_READERS = {
    "qp.inflight": operator.attrgetter("inflight"),
    "qp.unreaped": operator.attrgetter("unreaped"),
    "io.bytes_read": operator.attrgetter("bytes_read"),
    "io.bytes_written": operator.attrgetter("bytes_written"),
    "link.bytes_tx": operator.attrgetter("bytes_tx"),
    "link.bytes_rx": operator.attrgetter("bytes_rx"),
}

#: (window summary field, ``op_latency_<name>`` series) per op, in order.
_WINDOW_SERIES = (("count", "rate"), ("p50", "p50"), ("p95", "p95"), ("p99", "p99"))


class LatencyWindow:
    """Sliding-window latency percentiles for one op type.

    Holds ``(time, latency)`` pairs fed by ``Tracer.finish`` (through the
    hub) and prunes to the trailing ``window`` seconds of *virtual* time at
    read, so a tick's p50/p95/p99 reflect recent operations, not the whole
    run.  Memory is bounded by the op rate times the window, not run length.
    The summary is kept until a sample enters or leaves the window, so ticks
    that see no change in an op's window do not re-sort it.
    """

    __slots__ = ("op", "window", "_samples", "_summary")

    def __init__(self, op: str, window: float):
        if window <= 0:
            raise SimulationError("latency window must be positive")
        self.op = op
        self.window = window
        self._samples: deque[tuple[float, float]] = deque()
        self._summary: Optional[dict[str, float]] = None

    def observe(self, time: float, seconds: float) -> None:
        self._samples.append((time, seconds))
        self._summary = None

    def prune(self, now: float) -> None:
        cutoff = now - self.window
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            samples.popleft()
            self._summary = None

    def __len__(self) -> int:
        return len(self._samples)

    def summary(self, now: float) -> Optional[dict[str, float]]:
        """count/p50/p95/p99 over the trailing window; None when empty.

        Tiny windows are explicitly guarded: with one sample every
        percentile is that sample, and the nearest-rank index is clamped to
        ``n - 1`` *inside* the rank computation, so p95/p99 can never index
        past the sample count however short the window is.  The returned
        dict is shared until the window changes: read it, do not modify it.
        """
        self.prune(now)
        if not self._samples:
            return None
        if self._summary is None:
            self._summary = self._percentiles()
        return self._summary

    def _percentiles(self) -> dict[str, float]:
        values = sorted([v for _, v in self._samples])
        n = len(values)
        if n == 1:
            only = values[0]
            return {"count": 1.0, "p50": only, "p95": only, "p99": only}

        def pct(p: float) -> float:
            # nearest-rank: ceil(p/100 * n) - 1, clamped into [0, n-1]
            rank = -(-int(p * n) // 100) - 1
            if rank < 0:
                rank = 0
            elif rank >= n:
                rank = n - 1
            return values[rank]

        return {
            "count": float(n),
            "p50": pct(50),
            "p95": pct(95),
            "p99": pct(99),
        }


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO condition, evaluated at every sample tick.

    ``series`` is matched against flat series keys (``fnmatch`` patterns
    allowed, so ``op_latency_p99{op=cmd.get*}`` covers sync and async
    GETs).  The comparison must hold continuously for ``for_seconds`` of
    virtual time before the alert fires; it clears on the first tick the
    condition stops holding on every matched series.
    """

    name: str
    series: str
    op: str
    threshold: float
    for_seconds: float = 0.0
    description: str = ""

    def __post_init__(self):
        if self.op not in _OPS:
            raise SimulationError(
                f"alert rule {self.name!r}: unknown comparison {self.op!r}"
            )
        if self.for_seconds < 0:
            raise SimulationError(
                f"alert rule {self.name!r}: negative for_seconds"
            )

    def violated(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    def condition(self) -> str:
        cond = f"{self.series} {self.op} {self.threshold:g}"
        if self.for_seconds > 0:
            cond += f" for {self.for_seconds:g}s"
        return cond


#: The stock watchdog: device-side saturation signals every testbed exposes.
DEFAULT_RULES: tuple[AlertRule, ...] = (
    AlertRule(
        "query-queue-saturated",
        "soc.query_queue_depth",
        ">",
        12.0,
        for_seconds=5e-3,
        description="SoC query admission queue deeper than 12 for 5ms",
    ),
    AlertRule(
        "dram-pressure",
        "dram.budget_used_frac",
        ">",
        0.9,
        description="SoC DRAM budget over 90% reserved",
    ),
    AlertRule(
        "qp-backlog",
        "qp.inflight{qp=host-kv*}",
        ">=",
        48.0,
        for_seconds=5e-3,
        description="host KV queue pair nearly at full depth for 5ms",
    ),
)


@dataclass
class Alert:
    """One fire/clear episode of a rule (cleared_at None while firing)."""

    rule: str
    condition: str
    series: str  #: the flat key of the series that tripped the rule
    value: float  #: the sampled value at fire time
    fired_at: float
    cleared_at: Optional[float] = None

    def as_dict(self) -> dict[str, Any]:
        out = {
            "rule": self.rule,
            "condition": self.condition,
            "series": self.series,
            "value": nan_to_zero(self.value),
            "fired_at": self.fired_at,
        }
        if self.cleared_at is not None:
            out["cleared_at"] = self.cleared_at
        return out


@dataclass(frozen=True)
class TimelineConfig:
    """Sampling cadence, percentile window, memory bound, and alert rules."""

    #: virtual seconds between samples (0.1ms suits the micro benches,
    #: whose phases run single-digit virtual milliseconds to ~100ms)
    interval: float = 1e-4
    #: trailing window for op-latency percentiles
    window: float = 5e-3
    #: tick-count bound: when reached, every series is decimated 2x and the
    #: effective cadence doubles, so arbitrarily long runs stay bounded
    max_ticks: int = 4096
    rules: tuple[AlertRule, ...] = DEFAULT_RULES

    def __post_init__(self):
        if self.interval <= 0:
            raise SimulationError("timeline interval must be positive")
        if self.window <= 0:
            raise SimulationError("timeline window must be positive")
        if self.max_ticks < 4:
            raise SimulationError("timeline max_ticks must be >= 4")


class _RuleState:
    """Watchdog bookkeeping for one rule."""

    __slots__ = ("violated_since", "firing", "worst", "fired_count", "current")

    def __init__(self):
        self.violated_since: Optional[float] = None
        self.firing = False
        self.worst: Optional[tuple[str, float]] = None  # (series key, value)
        self.fired_count = 0
        self.current: Optional[Alert] = None


class TimelineRecorder:
    """Samples every hub metric source on a virtual-clock cadence.

    Construction is free (no events); :meth:`start` arms the sampler and
    registers the recorder on the hub so ``Tracer.finish`` latencies feed
    the sliding windows.  ``install_timeline`` is the usual entry point.
    """

    def __init__(
        self,
        env: "Environment",
        hub: "MetricsHub",
        config: TimelineConfig = TimelineConfig(),
    ):
        self.env = env
        self.hub = hub
        self.config = config
        self.series: dict[str, Series] = {}
        self.windows: dict[str, LatencyWindow] = {}
        self.alerts: list[Alert] = []
        self.ticks = 0  #: samples taken (survives decimation)
        self.started = False
        self._interval = config.interval  # doubles on decimation
        self._tick_times: list[float] = []
        self._rule_states = {rule.name: _RuleState() for rule in config.rules}
        self._pending = None  # the armed timeout, if any
        #: sampler bindings (see ``_bind_sources``), rule-watched keys, and
        #: the source set they cover
        self._sources: list[tuple] = []
        self._watch: list[tuple[str, tuple[int, ...]]] = []
        self._bound_version: Optional[tuple[int, int]] = None
        self._window_bound: dict[str, list[tuple]] = {}
        #: series key -> indexes of the rules whose glob matches it
        self._rules_for: dict[str, tuple[int, ...]] = {}

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "TimelineRecorder":
        """Attach to the hub, take the t=now sample, arm the sampler."""
        if self.started:
            return self
        self.started = True
        self.env.timeline = self
        self.hub.attach_timeline(self)
        self.sample()
        self._arm()
        return self

    def stop(self) -> None:
        """Park the sampler; recorded series stay readable."""
        self.started = False
        if self._pending is not None:
            try:
                self._pending.callbacks.remove(self._tick)
            except ValueError:
                pass
            self._pending = None
        if self.env.timeline is self:
            self.env.timeline = None

    def on_run(self) -> None:
        """``Environment.run`` hook: re-arm a parked sampler."""
        if self.started and self._pending is None:
            self._arm()

    def _arm(self) -> None:
        self._pending = self.env.timeout(self._interval)
        self._pending.callbacks.append(self._tick)

    def _tick(self, _event) -> None:
        self._pending = None
        if not self.started:
            return
        self.sample()
        # Reschedule only while the simulation has other work: a perpetual
        # sampler would keep env.run() from ever draining.  A later run
        # segment re-arms via on_run().
        if self.env._imm or self.env._queue:
            self._arm()

    # -- tracer feed ---------------------------------------------------------
    def observe_latency(self, op: str, seconds: float) -> None:
        """One finished command/job latency (forwarded by the hub)."""
        window = self.windows.get(op)
        if window is None:
            window = LatencyWindow(op, self.config.window)
            self.windows[op] = window
        window.observe(self.env.now, seconds)

    # -- sampling ------------------------------------------------------------
    def _bind(self, name: str, labels: Optional[dict[str, str]]) -> tuple:
        """``(key, times.append, values.append, rules)`` for one series.

        A key's series and the indexes of the rules whose glob matches it
        are resolved once, when the key first appears.  The appends are
        bound to the series' current arrays, so decimation (which replaces
        them) drops every binding.
        """
        key = series_key(name, labels)
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = Series(name, labels)
        rules = self._rules_for.get(key)
        if rules is None:
            rules = self._rules_for[key] = tuple(
                i for i, rule in enumerate(self.config.rules)
                if key == rule.series or fnmatchcase(key, rule.series)
            )
        return key, series.times.append, series.values.append, rules

    def _sources_version(self) -> tuple[int, int]:
        """Changes whenever a hub source or a registry counter is added."""
        return self.hub.version, sum(
            len(registry.counters()) for registry in self.hub.registries.values()
        )

    def _bind_sources(self) -> None:
        """Bind every hub source to its series, in sample order.

        Each source becomes ``(read, obj, key, times.append, values.append)``
        with ``read(obj)`` its current value.
        """
        hub = self.hub
        sources: list[tuple] = []
        watch: dict[str, tuple[int, ...]] = {}

        def add(read, obj, name, labels) -> None:
            key, times_append, values_append, rules = self._bind(name, labels)
            sources.append((read, obj, key, times_append, values_append))
            # rule-watched keys in first-appearance order: the order the
            # watchdog scans a tick's values in
            if rules and key not in watch:
                watch[key] = rules

        for _key, (name, fn, labels) in sorted(hub.gauges.items()):
            add(_call, fn, name, labels)
        for reg_name, registry in sorted(hub.registries.items()):
            labels = {"registry": reg_name}
            for cname, counter in sorted(registry.counters().items()):
                add(_read_value, counter, cname, labels)
        # qp.depth is the *configured* capacity (a constant); the occupancy
        # signals are inflight slots and unreaped completions.
        plain = (
            (hub.queue_pairs, "qp", ("qp.inflight", "qp.unreaped")),
            (hub.io_stats, "device", ("io.bytes_read", "io.bytes_written")),
            (hub.links, "link", ("link.bytes_tx", "link.bytes_rx")),
        )
        for table, label, names in plain:
            for obj_name, obj in sorted(table.items()):
                labels = {label: obj_name}
                for name in names:
                    add(_ATTR_READERS[name], obj, name, labels)
        self._sources = sources
        self._watch = list(watch.items())
        self._bound_version = self._sources_version()

    def _window_bindings(self, op: str) -> list[tuple]:
        """``(summary field, key, times.append, values.append, rules)``."""
        bound = self._window_bound.get(op)
        if bound is None:
            labels = {"op": op}
            bound = self._window_bound[op] = [
                (stat,) + self._bind(f"op_latency_{name}", labels)
                for stat, name in _WINDOW_SERIES
            ]
        return bound

    def sample(self) -> dict[str, float]:
        """Take one sample of every source; evaluate the watchdog rules.

        Returns the flat ``{series key: value}`` snapshot of this tick.
        Pure state reads — no simulation events, no resource usage.
        """
        if self._bound_version != self._sources_version():
            self._bind_sources()
        now = self.env.now
        sampled: dict[str, float] = {}
        # Ticks run on the non-decreasing virtual clock, so samples append
        # without Series.sample's ordering check.
        for read, obj, key, times_append, values_append in self._sources:
            value = float(read(obj))
            times_append(now)
            values_append(value)
            sampled[key] = value
        window_watch = []
        for op, window in sorted(self.windows.items()):
            summary = window.summary(now)
            if summary is None:
                continue
            for stat, key, times_append, values_append, rules in (
                self._window_bindings(op)
            ):
                value = float(summary[stat])
                times_append(now)
                values_append(value)
                sampled[key] = value
                if rules:
                    window_watch.append((key, rules))

        self.ticks += 1
        self._tick_times.append(now)
        watch = self._watch + window_watch if window_watch else self._watch
        self._evaluate_rules(now, self._worst(sampled, watch))
        if len(self._tick_times) >= self.config.max_ticks:
            self._decimate()
        return sampled

    def _decimate(self) -> None:
        """Halve retention and double the cadence (memory bound)."""
        for series in self.series.values():
            series.decimate()
        self._tick_times = self._tick_times[::2]
        self._interval *= 2
        # the sampler's appends were bound to the replaced arrays
        self._bound_version = None
        self._window_bound.clear()

    # -- watchdog ------------------------------------------------------------
    def _worst(
        self, sampled: dict[str, float], watch: list[tuple[str, tuple[int, ...]]]
    ) -> list[Optional[tuple[str, float]]]:
        """Per rule, the violating ``(key, value)`` furthest past threshold.

        "Furthest" follows the rule's own direction, compared strictly, so
        the first violating series in sample order wins ties — for ``>=`` /
        ``<=`` rules as much as for ``>`` / ``<``.
        """
        rules = self.config.rules
        worst: list[Optional[tuple[str, float]]] = [None] * len(rules)
        for key, rule_ids in watch:
            value = sampled[key]
            for i in rule_ids:
                rule = rules[i]
                if rule.violated(value):
                    best = worst[i]
                    if best is None or _STRICT_OPS[rule.op](value, best[1]):
                        worst[i] = (key, value)
        return worst

    def _evaluate_rules(
        self, now: float, worst_by_rule: list[Optional[tuple[str, float]]]
    ) -> None:
        for rule, worst in zip(self.config.rules, worst_by_rule):
            state = self._rule_states[rule.name]
            if worst is None:
                if state.firing:
                    state.firing = False
                    alert = state.current
                    if alert is not None:
                        alert.cleared_at = now
                    state.current = None
                    journal_event(
                        self.env, "slo.alert_clear",
                        rule=rule.name, condition=rule.condition(),
                    )
                state.violated_since = None
                continue
            if state.violated_since is None:
                state.violated_since = now
            state.worst = worst
            held = now - state.violated_since
            if not state.firing and held >= rule.for_seconds:
                state.firing = True
                state.fired_count += 1
                alert = Alert(
                    rule=rule.name,
                    condition=rule.condition(),
                    series=worst[0],
                    value=worst[1],
                    fired_at=now,
                )
                state.current = alert
                self.alerts.append(alert)
                journal_event(
                    self.env, "slo.alert_fire",
                    rule=rule.name, condition=rule.condition(),
                    series=worst[0], value=worst[1],
                )

    # -- watchdog state for exports ------------------------------------------
    def firing(self) -> list[str]:
        """Names of rules currently in the firing state."""
        return [
            name for name, state in sorted(self._rule_states.items())
            if state.firing
        ]

    def alert_counts(self) -> dict[str, int]:
        """rule name -> times fired, for every configured rule."""
        return {
            name: state.fired_count
            for name, state in sorted(self._rule_states.items())
        }

    # -- exports -------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        """The whole timeline as one JSON-safe document."""
        return {
            "config": {
                "interval": self.config.interval,
                "effective_interval": self._interval,
                "window": self.config.window,
                "max_ticks": self.config.max_ticks,
                "rules": [
                    {
                        "name": r.name,
                        "condition": r.condition(),
                        "description": r.description,
                    }
                    for r in self.config.rules
                ],
            },
            "ticks": self.ticks,
            "series": {
                key: self.series[key].as_dict() for key in sorted(self.series)
            },
            "alerts": [a.as_dict() for a in self.alerts],
            "alert_counts": self.alert_counts(),
            "firing": self.firing(),
        }

    def counter_track_events(self) -> list[dict[str, Any]]:
        """Chrome-trace counter (``ph: "C"``) events, one track per series.

        Merged into :func:`repro.obs.export.to_chrome_trace` output so
        saturation curves render directly under the span timeline in
        Perfetto, on the same microsecond virtual clock.
        """
        events: list[dict[str, Any]] = []
        for key in sorted(self.series):
            series = self.series[key]
            for t, v in zip(series.times, series.values):
                events.append(
                    {
                        "name": key,
                        "ph": "C",
                        "ts": t * 1e6,
                        "pid": 1,
                        "args": {"value": nan_to_zero(v)},
                    }
                )
        return events


def timeline_to_csv(recorder_or_doc) -> str:
    """Long-form CSV (``time,series,value``) of a recorder or its to_json."""
    if isinstance(recorder_or_doc, TimelineRecorder):
        doc = recorder_or_doc.to_json()
    else:
        doc = recorder_or_doc
    lines = ["time,series,value"]
    for key in sorted(doc["series"]):
        entry = doc["series"][key]
        for t, v in zip(entry["times"], entry["values"]):
            lines.append(f"{t!r},{key},{v!r}")
    return "\n".join(lines) + "\n"


def install_timeline(
    env: "Environment",
    hub: "MetricsHub",
    config: TimelineConfig = TimelineConfig(),
) -> TimelineRecorder:
    """Create, attach and start a :class:`TimelineRecorder`."""
    return TimelineRecorder(env, hub, config).start()


#: Eight-level unicode bars, lowest to highest.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], width: int = 48) -> str:
    """Render a series as a fixed-width unicode sparkline.

    Values are bucketed to ``width`` columns (bucket mean) and normalised
    min..max; a flat series renders as a run of the lowest block.
    """
    if not values:
        return ""
    if len(values) > width:
        per = len(values) / width
        buckets = []
        for i in range(width):
            lo, hi = int(i * per), max(int((i + 1) * per), int(i * per) + 1)
            chunk = values[lo:hi]
            buckets.append(sum(chunk) / len(chunk))
    else:
        buckets = list(values)
    lo, hi = min(buckets), max(buckets)
    span = hi - lo
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(buckets)
    out = []
    for v in buckets:
        idx = int((v - lo) / span * (len(_SPARK_BLOCKS) - 1))
        out.append(_SPARK_BLOCKS[idx])
    return "".join(out)
