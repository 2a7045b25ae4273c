"""The benchmark's tracer (perfbench/measure.py, --trace 1) wraps program
functions by the names their callers use. Installing it here makes a removed
or renamed function fail this suite rather than the benchmark."""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import measure  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def test_benchmark_tracing_installs_on_the_program_and_restores():
    ef = measure.import_program()
    with SpanRecorder() as rec:  # restores what was patched even if a patch fails
        measure.install_tracing(rec, ef, measure.LayerCounters())
        patched = list(rec._patches)
        assert patched
        assert all(vars(owner)[attr].__wrapped__ is original for owner, attr, original in patched)
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
