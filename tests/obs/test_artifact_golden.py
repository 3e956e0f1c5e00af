"""Artifact golden digests: the observability stack's outputs may not drift.

``artifact_golden.json`` holds SHA-256 digests of everything the stack
emits for the ``saturate`` and ``selftest`` reference workloads: the
timeline document (``TimelineRecorder.to_json``), the critical-path
explain report, the Chrome trace (spans + counter tracks), and the journal
JSONL.  They pin the *bytes* of each artifact, so a change to how spans are
stored, how the sampler resolves its series, or how leaf spans are
recorded must reproduce every artifact exactly.

If a change is *supposed* to alter an artifact (a new span, a new series,
a new report field), regenerate with::

    PYTHONPATH=src python tests/obs/test_artifact_golden.py > tests/obs/artifact_golden.json

and say so in the commit message.  Never regenerate to absorb accidental
drift from a performance change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.obs.critpath import explain_report
from repro.obs.export import to_chrome_trace
from repro.obs.harness import (
    run_saturated_workload,
    run_timed_selftest,
    run_traced_selftest,
)

GOLDEN_PATH = Path(__file__).with_name("artifact_golden.json")


def _digest(doc) -> str:
    if not isinstance(doc, str):
        doc = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _saturate() -> dict[str, str]:
    # The `repro explain --workload saturate` shape: journal, timeline,
    # tracer and critpath all installed on one run.
    kv, tracer, _hub, recorder = run_saturated_workload(
        seed=0, critpath=True, reap="prompt"
    )
    return {
        "timeline": _digest(recorder.to_json()),
        "explain": _digest(explain_report(tracer, kv.env.critpath, now=kv.env.now)),
        "chrome_trace": _digest(to_chrome_trace(tracer, timeline=recorder)),
        "journal": _digest(kv.env.journal.to_jsonl()),
    }


def _selftest() -> dict[str, str]:
    # `repro timeline --workload selftest` (journal + timeline + tracer)
    # and `repro explain --workload selftest` (tracer + critpath).
    kv, tracer, _hub, recorder = run_timed_selftest(seed=0)
    out = {
        "timeline": _digest(recorder.to_json()),
        "chrome_trace": _digest(to_chrome_trace(tracer, timeline=recorder)),
        "journal": _digest(kv.env.journal.to_jsonl()),
    }
    kv, tracer, _hub = run_traced_selftest(seed=0, critpath=True)
    out["explain"] = _digest(explain_report(tracer, kv.env.critpath, now=kv.env.now))
    out["explain_chrome_trace"] = _digest(to_chrome_trace(tracer))
    return out


ARTIFACT_WORKLOADS = {"saturate": _saturate, "selftest": _selftest}


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(ARTIFACT_WORKLOADS))
def test_artifacts_match_golden(name: str, golden: dict):
    fresh = ARTIFACT_WORKLOADS[name]()
    assert fresh == golden[name]


if __name__ == "__main__":
    print(json.dumps(
        {name: fn() for name, fn in sorted(ARTIFACT_WORKLOADS.items())},
        indent=2, sort_keys=True,
    ))
