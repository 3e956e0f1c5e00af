"""Trace exporters: Chrome timeline JSON and the latency-attribution table.

Chrome format: the ``chrome://tracing`` / Perfetto "JSON Array + metadata"
object — ``{"traceEvents": [...]}`` where every span is a ``ph: "X"``
complete event with microsecond ``ts``/``dur`` taken from the *virtual*
clock.  Lanes (``tid``) are assigned one per resource: each SoC/host core,
each NVMe queue, each SSD channel, each transport direction; spans with no
lane of their own render in a per-op-type lane derived from their root.

Attribution: for each command root, every descendant's *self-time* (the
part of its interval not covered by its own children) is bucketed into
queueing / transport / host CPU / SoC CPU / flash / firmware using the span
category and the wait/run or wait/busy splits the instrumentation records.
Because fan-out stages overlap in time, bucket sums can legitimately exceed
the root's wall-clock duration; ``coverage`` is the wall-clock fraction of
the root interval that has *any* descendant span under it.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.trace import (
    CAT_CPU,
    CAT_FIRMWARE,
    CAT_FLASH,
    CAT_JOB,
    CAT_QUEUE,
    CAT_TRANSPORT,
    Span,
    Tracer,
    record_args,
)

__all__ = [
    "to_chrome_trace",
    "attribute_span",
    "attribution_rows",
    "format_attribution",
    "min_command_coverage",
]

#: Attribution bucket order for tables and JSON.
BUCKETS = ("queue", "transport", "host_cpu", "soc_cpu", "flash", "firmware", "other")


# ---------------------------------------------------------------- chrome trace
def to_chrome_trace(tracer: Tracer, timeline: Optional[Any] = None) -> dict[str, Any]:
    """Render every recorded span as a Chrome-trace JSON object.

    A span without a lane of its own renders in its nearest ancestor's lane,
    or in ``ops/<root name>`` when no ancestor has one.  When a
    :class:`~repro.obs.timeline.TimelineRecorder` is given, its series are
    appended as counter (``ph: "C"``) tracks, so queue-depth and
    windowed-p99 curves render directly under the span timeline on the same
    virtual-microsecond axis.
    """
    now = tracer.env.now
    lanes: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    #: effective lane by ``span_id - 1``; parents precede their children
    effective: list[str] = []

    for record in tracer.records():
        sid, pid, name, category, start, end, lane = record[:7]
        if lane is None:
            lane = effective[pid - 1] if pid is not None else f"ops/{name}"
        effective.append(lane)
        tid = lanes.setdefault(lane, len(lanes) + 1)
        args = record_args(record)
        args["span_id"] = sid
        if pid is not None:
            args["parent_id"] = pid
        if end is None:
            args["unfinished"] = True
            end = now
        events.append(
            {
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": start * 1e6,
                "dur": max(0.0, end - start) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )

    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "kv-csd (virtual time)"},
        }
    ]
    for lane, tid in sorted(lanes.items(), key=lambda kv: kv[1]):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": lane},
            }
        )
    events.sort(key=lambda e: (e["ts"], e["tid"]))
    counter_events: list[dict[str, Any]] = []
    if timeline is not None:
        counter_events = timeline.counter_track_events()
    return {
        "traceEvents": metadata + events + counter_events,
        "displayTimeUnit": "ms",
    }


# ---------------------------------------------------------------- attribution
def attribute_span(span: Span, now: Optional[float] = None) -> dict[str, float]:
    """Bucket one span's own contribution (self-time) by category."""
    self_time = span.self_time(now)
    if self_time <= 0.0:
        return {}
    category = span.category
    if category == CAT_CPU:
        run = float(span.args.get("run", self_time))
        wait = float(span.args.get("wait", 0.0))
        # Normalise the recorded split to the observed self-time so rounding
        # in the timeslice loop cannot over-attribute.
        total = run + wait
        if total > 0:
            run = self_time * run / total
            wait = self_time * wait / total
        else:
            run, wait = self_time, 0.0
        pool = span.args.get("pool", "")
        cpu_bucket = "soc_cpu" if pool == "soc" else "host_cpu"
        return {cpu_bucket: run, "queue": wait}
    if category == CAT_FLASH:
        busy = min(float(span.args.get("busy", self_time)), self_time)
        return {"flash": busy, "queue": self_time - busy}
    if category == CAT_TRANSPORT:
        busy = min(float(span.args.get("busy", self_time)), self_time)
        return {"transport": busy, "queue": self_time - busy}
    if category == CAT_QUEUE:
        return {"queue": self_time}
    if category == CAT_FIRMWARE:
        return {"firmware": self_time}
    return {"other": self_time}


def _iter_pruned(root: Span):
    """Depth-first walk of ``root`` that does not descend into job spans.

    Background jobs (compaction, SIDX builds) outlive the command that
    launched them; they get their own attribution row instead of inflating
    the parent command's buckets.
    """
    stack = [root]
    while stack:
        span = stack.pop()
        yield span
        for child in span.children:
            if child.category != CAT_JOB:
                stack.append(child)


def attribution_rows(
    tracer: Tracer, roots: Optional[list[Span]] = None
) -> list[dict[str, Any]]:
    """Per-op-type latency attribution over the given root spans.

    Each row: op name, count, total wall seconds, one column per bucket
    (summed descendant self-time, so overlapping fan-out can exceed the
    wall total), and the minimum per-command coverage for the group.
    Defaults to every command root plus every background-job span.
    """
    now = tracer.env.now
    if roots is None:
        roots = tracer.command_roots() + [
            s for s in tracer.spans if s.category == CAT_JOB
        ]
    groups: dict[str, dict[str, Any]] = {}
    for root in roots:
        row = groups.setdefault(
            root.name,
            {"op": root.name, "count": 0, "total_s": 0.0, "coverage": 1.0,
             **{b: 0.0 for b in BUCKETS}},
        )
        row["count"] += 1
        row["total_s"] += root.duration(now)
        row["coverage"] = min(row["coverage"], root.coverage(now))
        for span in _iter_pruned(root):
            if span is root:
                continue
            for bucket, seconds in attribute_span(span, now).items():
                row[bucket] += seconds
    return sorted(groups.values(), key=lambda r: r["op"])


def format_attribution(rows: list[dict[str, Any]]) -> str:
    """Fixed-width text table of :func:`attribution_rows` output."""
    headers = ["op", "count", "total_s", *BUCKETS, "coverage"]
    table = [headers]
    for row in rows:
        table.append(
            [
                row["op"],
                str(row["count"]),
                f"{row['total_s']:.6f}",
                *(f"{row[b]:.6f}" for b in BUCKETS),
                f"{row['coverage'] * 100:.1f}%",
            ]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append(
            "  ".join(
                cell.ljust(w) if j == 0 else cell.rjust(w)
                for j, (cell, w) in enumerate(zip(row, widths))
            )
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def min_command_coverage(tracer: Tracer) -> float:
    """Worst-case span coverage over all traced commands (1.0 if none)."""
    roots = tracer.command_roots()
    if not roots:
        return 1.0
    now = tracer.env.now
    return min(root.coverage(now) for root in roots)
