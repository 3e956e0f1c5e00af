"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload get_qd --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
The first set-up carries the measured phase, which runs the workload's fixed
chunks and then keeps adding chunks until ``--seconds`` of wall time have
passed.  The workload's other set-ups are spread evenly over that window, and
the median of all of them is ``setup_s``.  Virtual clock figures come from the
fixed chunks only, so they repeat exactly for a seed; ``ops_per_wall_s`` is
the median over all chunks.

``--trace 1`` prints the per-layer metrics.  It runs the fixed chunks three
times, each on a fresh set-up: plain, under the layer wrappers of
:mod:`layers`, and with the program's full observability stack switched the
other way from the workload's own setting.  The three must agree exactly on
every virtual-clock figure and every count; each disagreement is a failure.

The last line of standard output is the result object.  A summary goes to
standard error and the details to ``.perfbench_out/`` in the checkout.  The
program is imported from ``src/`` of the checkout this file sits in, and from
nowhere else: without it the run stops before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import LayerTrace, weighted_percentile

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and prove it is used."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: the program's source is missing: {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


class Pass:
    """One set-up, measured phase and output check of a workload."""

    def __init__(self, workload, seed: int, seconds: float = 0.0, trace=None,
                 extra_setups: int = 0):
        self.wl, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.extra_setups = extra_setups

    def run(self) -> "Pass":
        if self.trace is not None:
            self.trace.install()
        try:
            self._run()
        finally:
            if self.trace is not None:
                self.trace.uninstall()
        return self

    def _run(self) -> None:
        wl, trace = self.wl, self.trace
        self.setup_walls = []
        state = self._setup()
        if trace is not None:
            trace.begin_measure(state["kv"])
        self.chunks, self.walls, self.cpus = [], [], []
        start = time.perf_counter()
        while len(self.chunks) < wl.min_chunks:
            self._chunk(state)
        self.fixed_wall = sum(self.walls)
        self._snapshot(state)
        # the machine's speed drifts over seconds, so set-ups taken back to
        # back would all sample one moment: spread them over the window
        due = [self.seconds * (i + 1) / (self.extra_setups + 1)
               for i in range(self.extra_setups)]
        while True:
            elapsed = time.perf_counter() - start
            if due and elapsed >= due[0]:
                due.pop(0)
                self._setup()
                gc.collect()  # free the discarded testbed outside the timed chunks
            elif elapsed < self.seconds:
                self._chunk(state)
            else:
                break
        self.artifacts_wall = self.artifact_bytes = 0
        if state["obs"] is not None:
            from workloads import obs_artifacts

            t0 = time.perf_counter()
            artifacts = obs_artifacts(state["kv"], state["obs"])
            self.artifact_bytes = len(json.dumps(artifacts, default=str))
            self.artifacts_wall = time.perf_counter() - t0
        attempted, problems = wl.check(state)
        self.attempted = sum(c.ops for c in self.chunks) + attempted
        self.problems = problems + [
            f"chunk {i}: virtual figures differ from chunk 0"
            for i, c in enumerate(self.chunks) if c.fingerprint != self.chunks[0].fingerprint
        ]
        self.failed = sum(c.failed for c in self.chunks) + len(self.problems)
        if trace is not None:
            self.layer_metrics = trace.metrics(state["kv"])

    def _setup(self) -> dict:
        t0 = time.perf_counter()
        state = self.wl.setup(self.seed)
        self.setup_walls.append(time.perf_counter() - t0)
        return state

    def _chunk(self, state) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.chunks.append(self.wl.run_chunk(state, len(self.chunks)))
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(time.process_time() - c0)

    def _snapshot(self, state) -> None:
        """Every figure that must repeat exactly: taken after the fixed chunks."""
        fixed, wl, trace = self.chunks, self.wl, self.trace
        # later chunks run as long as the machine allows: leave them out
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = [s for c in fixed for s in c.latencies]
        self.virtual = {
            "virtual_s": sum(c.virtual_s for c in fixed),
            **wl.summary(state),
            **{f"op_{label}_virt_us": 1e6 * weighted_percentile(samples, q)
               for label, q in (("p50", 0.5), ("p99", 0.99), ("p999", 0.999))},
        }
        kv = state["kv"]
        self.counts = {
            "ops": [c.ops for c in fixed],
            "device": kv.device.report()["counters"],
            "io": dict(kv.ssd.introspect()["io"]),
            "qp": kv.client.qp.introspect(),
            "latencies": samples,
        }
        self.by_type = {}
        for op in sorted({op for c in fixed for op in c.by_type}):
            values = [(v, 1) for c in fixed for v in c.by_type.get(op, [])]
            self.by_type[op] = {"n": len(values), **{
                label: 1e6 * weighted_percentile(values, q)
                for label, q in (("p50_us", 0.5), ("p99_us", 0.99), ("p999_us", 0.999))}}
        if trace is not None:
            trace.end_measure(kv, sum(c.ops for c in fixed), sum(c.gets for c in fixed),
                              sum(c.records_returned for c in fixed))


def run_e2e(wl, seed: int, seconds: float):
    p = Pass(wl, seed, seconds, extra_setups=wl.setup_repeats - 1).run()
    metrics = {
        "ops_per_wall_s": statistics.median(c.ops / w for c, w in zip(p.chunks, p.walls)),
        "setup_s": statistics.median(p.setup_walls),
        "peak_rss_mb": p.rss_mb,
        **p.virtual,
    }
    detail = {"setup_s": p.setup_walls, "chunk_walls": p.walls, "chunk_cpus": p.cpus,
              "chunk_ops": [c.ops for c in p.chunks], "by_type": p.by_type,
              "artifact_bytes": p.artifact_bytes, "artifacts_wall_s": p.artifacts_wall}
    return metrics, [p], detail


def run_traced(wl, seed: int):
    plain = Pass(wl, seed).run()
    traced = Pass(wl, seed, trace=LayerTrace()).run()
    flipped = Pass(wl.with_obs(not wl.observed), seed).run()
    mismatches = [
        f"{other} pass differs from the plain pass in {field}"
        for other, p in (("traced", traced), ("obs-flipped", flipped))
        for field in ("virtual", "counts")
        if getattr(p, field) != getattr(plain, field)
    ]
    observed, bare = (plain, flipped) if wl.observed else (flipped, plain)
    metrics = dict(traced.layer_metrics)
    metrics.update({
        "obs.overhead_ratio": (observed.fixed_wall + observed.artifacts_wall) / bare.fixed_wall,
        "obs.artifact_bytes": observed.artifact_bytes,
        "bench.trace_overhead": traced.fixed_wall / plain.fixed_wall,
    })
    detail = {"functions": traced.trace.functions()[:60],
              "command_percentiles": traced.trace.command_percentiles,
              "layer_seconds": traced.trace.layer_seconds(),
              "walls": {"plain": plain.fixed_wall, "traced": traced.fixed_wall,
                        "flipped": flipped.fixed_wall},
              "mismatches": mismatches, "by_type": plain.by_type}
    plain.problems = plain.problems + mismatches
    plain.failed += len(mismatches)
    return metrics, [plain, traced, flipped], detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    t0 = time.perf_counter()
    if args.trace:
        metrics, passes, detail = run_traced(wl, args.seed)
        declared = spec["per_layer"]
    else:
        metrics, passes, detail = run_e2e(wl, args.seed, args.seconds)
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: {args.workload} did not measure {missing}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    problems += [msg for p in passes for c in p.chunks for msg in c.errors]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"args": vars(args), "result": result,
                                  "elapsed_s": time.perf_counter() - t0,
                                  "problems": problems[:50], "detail": detail},
                                 indent=1, default=str))
    for name, entry in result["metrics"].items():
        print(f"  {name:40s} {entry['value']:>16.6g} {entry['unit']}", file=sys.stderr)
    print(f"  {attempted} attempted, {failed} failed; details in {report}", file=sys.stderr)
    for msg in problems[:10]:
        print(f"  problem: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
