"""Unit tests for the span tracer: nesting, propagation, zero-cost disable."""

from repro.obs.trace import (
    Span,
    install_tracer,
    record_args,
    trace_span,
    trace_wait,
    union_length,
)
from repro.sim import Environment, Event
from repro.sim.sync import BoundedQueue


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert union_length([(0.0, 10.0)], clip=(2.0, 5.0)) == 3.0
    assert union_length([(5.0, 4.0)]) == 0.0  # empty interval dropped


def test_disabled_env_records_nothing():
    env = Environment()
    assert env.tracer is None
    scope = trace_span(env, "x", "stage")
    with scope as span:
        assert span is None
    # the disabled scope is a shared singleton — no per-call allocation
    assert trace_span(env, "y", "stage") is scope


def test_spans_nest_within_one_process():
    env = Environment()
    tracer = install_tracer(env)

    def proc():
        with tracer.span("outer", "command"):
            yield env.timeout(1.0)
            with tracer.span("inner", "stage"):
                yield env.timeout(2.0)
            yield env.timeout(0.5)

    env.run(env.process(proc()))
    outer, inner = tracer.spans
    assert outer.name == "outer" and inner.name == "inner"
    assert inner.parent is outer
    assert outer.children == [inner]
    assert (outer.start, outer.end) == (0.0, 3.5)
    assert (inner.start, inner.end) == (1.0, 3.0)
    assert outer.self_time() == 1.5
    assert inner.self_time() == 2.0


def test_spawned_process_inherits_current_span():
    env = Environment()
    tracer = install_tracer(env)

    def child():
        with tracer.span("child.work", "stage"):
            yield env.timeout(1.0)

    def parent():
        with tracer.span("cmd.fanout", "command"):
            procs = [env.process(child()) for _ in range(3)]
            for p in procs:
                yield p

    env.run(env.process(parent()))
    root = tracer.roots()[0]
    assert [c.name for c in root.children] == ["child.work"] * 3


def test_sibling_processes_do_not_share_current_span():
    env = Environment()
    tracer = install_tracer(env)

    def worker(name):
        with tracer.span(name, "command"):
            yield env.timeout(1.0)
            with tracer.span(f"{name}.step", "stage"):
                yield env.timeout(1.0)

    env.run(env.process(worker("a")))
    env.run(env.process(worker("b")))
    roots = tracer.roots()
    assert [r.name for r in roots] == ["a", "b"]
    for root in roots:
        assert [c.name for c in root.children] == [f"{root.name}.step"]


def test_trace_wait_records_the_blocked_interval():
    env = Environment()
    tracer = install_tracer(env)
    gate = Event(env)

    def opener():
        yield env.timeout(2.5)
        gate.succeed("opened")

    def waiter():
        with tracer.span("cmd.wait", "command"):
            value = yield from trace_wait(env, gate, "gate.wait")
        return value

    env.process(opener())
    assert env.run(env.process(waiter())) == "opened"
    wait_span = next(s for s in tracer.spans if s.name == "gate.wait")
    assert wait_span.category == "queue"
    assert (wait_span.start, wait_span.end) == (0.0, 2.5)
    assert wait_span.parent.name == "cmd.wait"


def test_trace_wait_disabled_is_a_bare_yield():
    env = Environment()
    gate = Event(env)

    def opener():
        yield env.timeout(1.0)
        gate.succeed(42)

    def waiter():
        value = yield from trace_wait(env, gate, "gate.wait")
        return value

    env.process(opener())
    assert env.run(env.process(waiter())) == 42


def test_capture_activate_across_bounded_queue():
    """Trace context ships with items through a producer/consumer queue."""
    env = Environment()
    tracer = install_tracer(env)
    queue = BoundedQueue(env, capacity=1)
    done = []

    def producer():
        with tracer.span("job.produce", "job"):
            for i in range(3):
                yield env.timeout(1.0)
                yield from queue.put((i, tracer.capture()))
            yield from queue.put((None, None))

    def consumer():
        while True:
            item, ctx = yield from queue.get()
            if item is None:
                return
            with ctx.activate():
                with tracer.span("consume", "stage", item=item):
                    yield env.timeout(0.5)
            done.append(item)

    env.process(producer())
    env.run(env.process(consumer()))
    assert done == [0, 1, 2]
    produce = next(s for s in tracer.spans if s.name == "job.produce")
    consumes = [s for s in tracer.spans if s.name == "consume"]
    assert len(consumes) == 3
    assert all(s.parent is produce for s in consumes)
    # activation is scoped: the consumer has no current span afterwards
    assert tracer.current() is None


def test_context_propagates_across_parallel_sort_shards():
    """Spawned shard processes parent their spans under the sort stage."""
    env = Environment()
    tracer = install_tracer(env)

    def shard(idx):
        with tracer.span("sort.shard", "stage", shard=idx):
            yield env.timeout(1.0 + idx)

    def job():
        with tracer.span("job.compaction", "job"):
            with tracer.span("compact.sort", "stage"):
                procs = [env.process(shard(i)) for i in range(4)]
                for p in procs:
                    yield p

    env.run(env.process(job()))
    sort = next(s for s in tracer.spans if s.name == "compact.sort")
    shards = [s for s in tracer.spans if s.name == "sort.shard"]
    assert len(shards) == 4
    assert all(s.parent is sort for s in shards)
    assert sorted(s.args["shard"] for s in shards) == [0, 1, 2, 3]
    # shards overlap, so the stage is fully covered by its children
    assert sort.coverage() == 1.0


def test_span_coverage_counts_descendants_once():
    env = Environment()
    root = Span(1, "root", "command", start=0.0)
    root.end = 10.0
    a = Span(2, "a", "stage", start=0.0, parent=root)
    a.end = 4.0
    b = Span(3, "b", "stage", start=2.0, parent=root)
    b.end = 6.0
    root.children = [a, b]
    assert root.coverage() == 0.6
    assert root.self_time() == 4.0


def test_finish_feeds_command_latency_to_hub():
    class FakeHub:
        def __init__(self):
            self.seen = []

        def observe_op(self, op, seconds):
            self.seen.append((op, seconds))

    env = Environment()
    hub = FakeHub()
    tracer = install_tracer(env, hub=hub)

    def proc():
        with tracer.span("cmd.get", "command"):
            with tracer.span("step", "stage"):
                yield env.timeout(2.0)

    env.run(env.process(proc()))
    # only command/job spans are observed, not inner stages
    assert hub.seen == [("cmd.get", 2.0)]


def _traced_commands(kv, n_gets: int):
    """Load, compact, then ``n_gets`` GETs through the client."""
    from repro.workloads import SyntheticSpec, generate_pairs

    pairs = generate_pairs(SyntheticSpec(n_pairs=400, seed=0))

    def load():
        ctx = kv.thread_ctx(0)
        yield from kv.client.create_keyspace("ks", ctx)
        yield from kv.client.open_keyspace("ks", ctx)
        yield from kv.client.bulk_put("ks", pairs, ctx)
        yield from kv.client.compact("ks", ctx)
        yield from kv.client.wait_for_device("ks", ctx)

    def gets():
        ctx = kv.thread_ctx(0)
        for i in range(n_gets):
            yield from kv.client.get("ks", pairs[i % len(pairs)][0], ctx)

    return load, gets


def test_finished_processes_are_not_kept_alive_by_the_tracer():
    """The tracer drops a process's current/inherited entries when it ends,
    so neither the process nor its generator outlives the command."""
    import gc
    import weakref

    from repro.bench import build_kvcsd_testbed

    kv = build_kvcsd_testbed(seed=0)
    tracer, _hub = kv.enable_tracing()
    commands = []
    spawn = tracer.on_process_spawn

    def watching_spawn(process):
        if process.name.startswith("kv-cmd-"):
            commands.append(weakref.ref(process))
        spawn(process)

    tracer.on_process_spawn = watching_spawn
    load, gets = _traced_commands(kv, n_gets=40)
    kv.env.run(kv.env.process(load()))
    kv.env.run(kv.env.process(gets()))
    gc.collect()
    assert len(commands) >= 40
    assert all(ref() is None for ref in commands)
    assert not tracer._inherited and not tracer._current


def test_retained_spans_leave_the_gc_heap():
    """Finished spans are flat records the cyclic GC stops tracking: the
    tracked-object count must not grow with the number of spans retained."""
    import gc

    from repro.bench import build_kvcsd_testbed

    kv = build_kvcsd_testbed(seed=0)
    tracer, _hub = kv.enable_tracing(retain_spans=True)
    load, gets = _traced_commands(kv, n_gets=300)

    def settled_objects() -> int:
        # The GC untracks an atomic tuple lazily, on a collection that sees
        # its items untracked first; two passes settle every record.
        gc.collect()
        gc.collect()
        return len(gc.get_objects())

    kv.env.run(kv.env.process(load()))
    objects0, spans0 = settled_objects(), len(tracer.records())
    kv.env.run(kv.env.process(gets()))
    objects1, spans1 = settled_objects(), len(tracer.records())
    finished = spans1 - spans0
    assert finished >= 300 * 10
    assert (objects1 - objects0) / finished < 0.1


def test_span_finished_again_keeps_one_record_with_the_last_end():
    """A queued command closes at completion and again at reap: the tracer
    keeps one record per span, carrying the later end."""
    env = Environment()
    tracer = install_tracer(env)

    def proc():
        span = tracer.start("cmd.get", "command")
        yield env.timeout(1.0)
        tracer.finish(span)
        yield env.timeout(2.0)
        tracer.finish(span, reaped=True)

    env.run(env.process(proc()))
    records = tracer.records()
    assert len(records) == 1
    assert records[0][4:6] == (0.0, 3.0)
    assert record_args(records[0]) == {"reaped": True}
    assert [s.end for s in tracer.spans] == [3.0]
