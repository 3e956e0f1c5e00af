"""Hierarchical span tracing stamped from the simulation's virtual clock.

Every traced operation — an NVMe command, a CPU slice, a flash-channel
occupancy, a background compaction shard — becomes a span with a
start/end taken from ``Environment.now``.  Spans nest: because an entire
client->device->SSD call chain runs inside one simulation :class:`Process`
as a ``yield from`` chain, the tracer tracks the *current* span per process
and new spans implicitly parent under it.  Processes spawned with
``env.process(...)`` inherit the spawner's current span (recorded by the
:meth:`Tracer.on_process_spawn` hook wired into ``Environment.process``), so
fan-out work — compaction shards, striped zone appends, pipelined
materialisation stages — stays attached to the job that started it.

Storage is flat.  A span that has started and not finished is an
:class:`OpenSpan`, the only live object a span ever has.  When it finishes
it becomes one tuple of atomic fields, ``(span_id, parent_id, name,
category, start, end, lane, *arg_keys, *arg_values)`` (args hold atomic
values only; :func:`record_args` reads them back).  Nothing in it can hold
a reference cycle, so the cyclic GC stops tracking it at its first young
collection: a run that retains a million spans does not make every full
collection walk a million objects.  Leaf spans (:meth:`Tracer.leaf`,
:meth:`Tracer.mark`) skip the current-span bookkeeping entirely.  Trees
(:attr:`Tracer.spans`, :meth:`Tracer.roots`, ``children``) are rebuilt on
demand from the parent ids, in start order, as read-only :class:`Span`
nodes.

Zero cost when disabled: ``Environment.tracer`` defaults to ``None`` and
every instrumentation site goes through :func:`trace_span` /
:func:`trace_wait`, which reduce to a shared no-op context manager / a bare
``yield`` when no tracer is installed.  No simulation events are created
either way, so virtual time is bit-identical with tracing on or off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment, Event, Process

__all__ = [
    "CAT_COMMAND",
    "CAT_JOB",
    "CAT_STAGE",
    "CAT_QUEUE",
    "CAT_TRANSPORT",
    "CAT_CPU",
    "CAT_FLASH",
    "CAT_FIRMWARE",
    "OpenSpan",
    "Span",
    "TraceContext",
    "Tracer",
    "install_tracer",
    "record_arg",
    "record_args",
    "trace_leaf",
    "trace_span",
    "trace_wait",
]

# Span categories, used by the attribution exporter to bucket self-time.
CAT_COMMAND = "command"  #: a client-visible operation (root of a span tree)
CAT_JOB = "job"  #: an offloaded background job (compaction, SIDX build)
CAT_STAGE = "stage"  #: an internal phase of a command or job
CAT_QUEUE = "queue"  #: time spent waiting for a slot/lock/queue
CAT_TRANSPORT = "transport"  #: PCIe / NVMe-oF byte movement
CAT_CPU = "cpu"  #: core occupancy (args carry the wait/run split)
CAT_FLASH = "flash"  #: NAND channel occupancy (args carry wait vs busy)
CAT_FIRMWARE = "firmware"  #: fixed-function controller/dispatch overhead


#: Categories whose finished spans feed the hub's per-op latency histograms.
_OP_CATEGORIES = (CAT_COMMAND, CAT_JOB)


class Span:
    """One node of a span tree rebuilt from the tracer's records.

    Read-only view for exporters and analyses (:attr:`Tracer.spans`,
    :meth:`Tracer.roots`); instrumentation never creates these.  ``end`` is
    ``None`` for a span that was still open when the tree was built.
    """

    __slots__ = ("span_id", "name", "category", "start", "end", "parent", "lane",
                 "args", "children")

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        start: float,
        parent: Optional["Span"] = None,
        lane: Optional[str] = None,
        args: Optional[dict[str, Any]] = None,
    ):
        self.span_id = span_id
        self.name = name
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.lane = lane
        self.args: dict[str, Any] = args if args is not None else {}
        self.children: list[Span] = []

    @property
    def finished(self) -> bool:
        return self.end is not None

    def duration(self, now: Optional[float] = None) -> float:
        """Span length; open spans are clamped to ``now`` (or their start)."""
        end = self.end if self.end is not None else (now if now is not None else self.start)
        return max(0.0, end - self.start)

    def iter_tree(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    def self_time(self, now: Optional[float] = None) -> float:
        """Duration not covered by this span's direct children."""
        covered = union_length(
            [(c.start, c.start + c.duration(now)) for c in self.children],
            clip=(self.start, self.start + self.duration(now)),
        )
        return max(0.0, self.duration(now) - covered)

    def coverage(self, now: Optional[float] = None) -> float:
        """Fraction of this span's duration accounted for by descendants.

        The union of every descendant interval, clipped to this span's own
        interval, over this span's duration.  1.0 for a span with no
        duration (nothing to attribute).
        """
        total = self.duration(now)
        if total <= 0.0:
            return 1.0
        intervals = [
            (s.start, s.start + s.duration(now))
            for s in self.iter_tree()
            if s is not self
        ]
        covered = union_length(intervals, clip=(self.start, self.start + total))
        return covered / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end:.6f}" if self.end is not None else "..."
        return f"<Span {self.name} [{self.category}] {self.start:.6f}-{end}>"


def union_length(
    intervals: list[tuple[float, float]],
    clip: Optional[tuple[float, float]] = None,
) -> float:
    """Total length of the union of ``intervals``, optionally clipped."""
    if clip is not None:
        lo, hi = clip
        intervals = [(max(a, lo), min(b, hi)) for a, b in intervals]
    intervals = sorted((a, b) for a, b in intervals if b > a)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in intervals:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


class OpenSpan:
    """A span that has started and not yet finished.

    The only live object a span ever has: :meth:`Tracer.finish` turns it
    into a flat record.  While it is open, instrumentation may set ``lane``
    and add atomic values to ``args``.  ``root`` caches the ``(name,
    span_id)`` of its tree's root, so critical-path actor lookups never walk
    the parent chain.  An open span is its own ``with`` scope: leaving the
    block finishes it and notes an escaping exception in ``args``.
    """

    __slots__ = ("tracer", "span_id", "name", "category", "start", "end",
                 "parent", "lane", "args", "root")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        name: str,
        category: str,
        start: float,
        parent: Optional["OpenSpan"],
        lane: Optional[str],
        args: dict[str, Any],
    ):
        self.tracer = tracer
        self.span_id = span_id
        self.name = name
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.lane = lane
        self.args = args
        self.root: tuple[str, int] = (
            parent.root if parent is not None else (name, span_id)
        )

    def record(self) -> tuple:
        """The flat record (see the module docstring); ``end`` is ``None``
        while the span is open."""
        parent = self.parent
        args = self.args
        return (self.span_id, None if parent is None else parent.span_id,
                self.name, self.category, self.start, self.end, self.lane,
                *args, *args.values())

    def __enter__(self) -> "OpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self.tracer.finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OpenSpan {self.name} [{self.category}] {self.start:.6f}-...>"


class TraceContext:
    """A capturable handle to the current span, for explicit handoff.

    The implicit per-process propagation covers ``yield from`` chains and
    ``env.process`` spawns.  When work crosses processes through a data
    structure instead — e.g. items flowing through a
    :class:`~repro.sim.sync.BoundedQueue` — the producer captures a context
    and ships it with the item, and the consumer activates it while
    processing so its spans parent under the producer's span.
    """

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Optional[OpenSpan]):
        self.tracer = tracer
        self.span = span

    def activate(self) -> "_Activation":
        """Context manager making :attr:`span` current for this process."""
        return _Activation(self.tracer, self.span)


class _Activation:
    __slots__ = ("tracer", "span", "_proc", "_prev", "_had_prev")

    def __init__(self, tracer: "Tracer", span: Optional[OpenSpan]):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Optional[OpenSpan]:
        self._proc = self.tracer.env.active_process
        self._had_prev = self._proc in self.tracer._current
        self._prev = self.tracer._current.get(self._proc)
        self.tracer._current[self._proc] = self.span
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._had_prev:
            self.tracer._current[self._proc] = self._prev
        else:
            self.tracer._current.pop(self._proc, None)


class _NullScope:
    """Shared no-op scope returned by :func:`trace_span` when disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SCOPE = _NullScope()


class Tracer:
    """Records spans against an :class:`Environment`'s virtual clock.

    Current-span state is tracked per simulation process (keyed by the
    ``env.active_process`` identity; ``None`` keys cover code running
    outside any process) and dropped when the process ends.  ``hub``, when
    given, receives a latency observation for every finished command/job
    span so per-op-type histograms accumulate as the run progresses.
    """

    def __init__(
        self,
        env: "Environment",
        hub: Optional[Any] = None,
        retain_spans: bool = True,
    ):
        self.env = env
        self.hub = hub
        #: with ``retain_spans=False`` finished spans are not accumulated —
        #: the hub/timeline latency feed still works, but nothing is kept for
        #: trace export, so long scale-bench runs hold O(live spans) memory.
        #: Fixed at construction: span trees are rebuilt by ``span_id``, which
        #: needs every span since the first.
        self.retain_spans = retain_spans
        #: every retained span at index ``span_id - 1``: its record once it
        #: has finished, the :class:`OpenSpan` while it is open
        self._spans: list[Any] = []
        #: finish() calls so far; with the span count, keys the tree cache
        self._finishes = 0
        self._view: list[Span] = []
        self._view_key: Optional[tuple[int, int]] = None
        self._current: dict[Optional["Process"], Optional[OpenSpan]] = {}
        self._inherited: dict["Process", Optional[OpenSpan]] = {}
        self._next_id = 0

    # -- propagation ---------------------------------------------------------
    def current(self) -> Optional[OpenSpan]:
        """The active process's current span (inherited at spawn if unset)."""
        proc = self.env._active_process
        span = self._current.get(proc)
        if span is None and proc is not None:
            span = self._inherited.get(proc)
        return span

    def capture(self) -> TraceContext:
        """Snapshot the current span for explicit cross-process handoff."""
        return TraceContext(self, self.current())

    def on_process_spawn(self, process: "Process") -> None:
        """Hook called by ``Environment.process``: inherit the spawner's span.

        The process's entries are dropped when it ends; otherwise they would
        keep every finished process, and its generator, alive for the run.
        """
        span = self.current()
        if span is not None:
            self._inherited[process] = span
        process.callbacks.append(self._forget)

    def _forget(self, process: "Process") -> None:
        self._current.pop(process, None)
        self._inherited.pop(process, None)

    def set_current(self, span: Optional[OpenSpan]) -> None:
        """Explicitly set the active process's current span.

        Split-phase operations need this: ``post()`` opens a command span,
        hands it to a ticket, spawns the device-side process (which inherits
        the span), and then restores the poster's *previous* span before
        returning — so back-to-back posts become siblings instead of nesting
        under each other's still-open spans.
        """
        self._current[self.env.active_process] = span

    # -- span lifecycle ------------------------------------------------------
    def _open(
        self,
        name: str,
        category: str,
        lane: Optional[str],
        args: dict[str, Any],
        make_current: bool,
    ) -> OpenSpan:
        # Per-span hot path: read the kernel's fields, not its properties.
        env = self.env
        proc = env._active_process
        parent = self._current.get(proc)
        if parent is None and proc is not None:
            parent = self._inherited.get(proc)
        self._next_id += 1
        span = OpenSpan(
            self, self._next_id, name, category, env._now, parent, lane, args
        )
        if self.retain_spans:
            self._spans.append(span)
        if make_current:
            self._current[proc] = span
        return span

    def start(
        self,
        name: str,
        category: str,
        lane: Optional[str] = None,
        **args: Any,
    ) -> OpenSpan:
        """Open a span under this process's current span and make it current."""
        return self._open(name, category, lane, args, True)

    #: :meth:`start` for a ``with`` block, which finishes the span on exit
    span = start

    def leaf(
        self,
        name: str,
        category: str,
        lane: Optional[str] = None,
        **args: Any,
    ) -> OpenSpan:
        """Open a leaf span: parented like :meth:`start`, never made current.

        For work that nothing nests under — a CPU claim, a flash-channel or
        link occupancy, a slot wait — the current-span bookkeeping is pure
        cost.  Usable as a ``with`` scope; finish it with :meth:`finish`.
        """
        return self._open(name, category, lane, args, False)

    def mark(
        self,
        name: str,
        category: str,
        lane: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record a zero-duration leaf span at the current instant, in one call."""
        self.finish(self._open(name, category, lane, args, False))

    def finish(self, span: OpenSpan, **args: Any) -> None:
        """Close ``span`` at the current virtual time and store its record.

        A span may be finished again later — a queued command closes at
        completion and again at reap — and its record is then replaced, so
        it keeps the last end, as the span itself does.
        """
        env = self.env
        now = span.end = env._now
        if args:
            span.args.update(args)
        proc = env._active_process
        if self._current.get(proc) is span:
            self._current[proc] = span.parent
        if self.retain_spans:
            self._spans[span.span_id - 1] = span.record()
            self._finishes += 1
        if self.hub is not None and span.category in _OP_CATEGORIES:
            self.hub.observe_op(span.name, now - span.start)

    # -- queries -------------------------------------------------------------
    def records(self) -> list[tuple]:
        """Every retained span's record, in start order (index ``span_id - 1``).

        Records are flat (see the module docstring); ``end`` is ``None`` for
        a span that is still open.
        """
        return [
            span if type(span) is tuple else span.record() for span in self._spans
        ]

    @property
    def spans(self) -> list[Span]:
        """Every retained span as a tree node, in start order.

        Rebuilt from the records on demand and reused until a span opens or
        finishes, so repeated reads see the same node objects.  For analyses
        and tests: the run-sized exporters (:func:`~repro.obs.export.
        to_chrome_trace`, :func:`~repro.obs.critpath.explain_report`) read
        :meth:`records` instead of building a node per span.
        """
        key = (self._next_id, self._finishes)
        if key != self._view_key:
            nodes: list[Span] = []
            for record in self.records():
                sid, pid, name, category, start, end, lane = record[:7]
                parent = None if pid is None else nodes[pid - 1]
                node = Span(
                    sid, name, category, start, parent, lane, record_args(record)
                )
                node.end = end
                if parent is not None:
                    parent.children.append(node)
                nodes.append(node)
            self._view, self._view_key = nodes, key
        return self._view

    def roots(self) -> list[Span]:
        """All spans without a parent, in start order."""
        return [s for s in self.spans if s.parent is None]

    def command_roots(self) -> list[Span]:
        """Root spans of client-visible commands (coverage is judged here)."""
        return [s for s in self.roots() if s.category == CAT_COMMAND]


def record_args(record: tuple) -> dict[str, Any]:
    """The args dict of a flat span record."""
    n = (len(record) - 7) // 2
    return dict(zip(record[7:7 + n], record[7 + n:]))


def record_arg(record: tuple, key: str, default: Any = None) -> Any:
    """One arg of a flat span record, without building its dict."""
    n = (len(record) - 7) // 2
    try:
        i = record.index(key, 7, 7 + n)
    except ValueError:
        return default
    return record[i + n]


def install_tracer(
    env: "Environment",
    hub: Optional[Any] = None,
    retain_spans: bool = True,
) -> Tracer:
    """Attach a fresh :class:`Tracer` to ``env`` and return it."""
    tracer = Tracer(env, hub=hub, retain_spans=retain_spans)
    env.tracer = tracer
    return tracer


def trace_span(
    env: "Environment",
    name: str,
    category: str,
    lane: Optional[str] = None,
    **args: Any,
):
    """A span scope when ``env`` has a tracer, else a shared no-op scope.

    The disabled path costs one attribute read and returns a singleton, so
    instrumented code can use a single body for both modes::

        with trace_span(self.env, "dev.bulk_put", CAT_STAGE) as span:
            ...  # span is None when tracing is disabled
    """
    tracer = env.tracer
    if tracer is None:
        return _NULL_SCOPE
    return tracer._open(name, category, lane, args, True)


def trace_leaf(
    env: "Environment",
    name: str,
    category: str,
    lane: Optional[str] = None,
    **args: Any,
):
    """:func:`trace_span` for a leaf: work nothing else nests under."""
    tracer = env.tracer
    if tracer is None:
        return _NULL_SCOPE
    return tracer._open(name, category, lane, args, False)


def trace_wait(env: "Environment", event: "Event", name: str,
               category: str = CAT_QUEUE):
    """Yield ``event`` wrapped in a leaf span (generator; bare yield if disabled).

    Used for slot/lock acquisitions where the wait itself is the interesting
    quantity: ``yield from trace_wait(env, slot, "dev.inflight")``.
    """
    tracer = env.tracer
    if tracer is None:
        value = yield event
        return value
    with tracer.leaf(name, category):
        value = yield event
    return value
