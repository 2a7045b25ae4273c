"""Tests of the benchmark itself: generators, span arithmetic, output checks.

    python3 -m pytest perfbench/tests -q

Inputs are generated at a small size by overriding the generator's sizing
constants, so the whole file runs in a few seconds.
"""

import filecmp
import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for sub in ("src", "tests", "perfbench"):
    path = os.path.join(ROOT, sub)
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, self_times, totals_by_name  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every generator to a few hundred packets."""
    monkeypatch.setattr(inputs, "INGEST_CONVERSATIONS", 40)
    monkeypatch.setattr(inputs, "INGEST_SESSIONS_PER_CONVERSATION", 2.0)
    monkeypatch.setattr(inputs, "INGEST_STRAGGLER_SHARE", 0.05)
    monkeypatch.setattr(inputs, "INGEST_SKIP_FRAME_SHARE", 0.05)
    monkeypatch.setattr(inputs, "TRAIN_SERIES", 24)
    monkeypatch.setattr(inputs, "INFER_FLOWS", 30)
    monkeypatch.setattr(measure, "INFER_CHUNK", 10)


def _generate(workload, seed, out):
    inputs.generate(workload, seed, str(out))
    with open(os.path.join(out, "truth.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _program():
    return measure.import_program()


# ---------------------------------------------------------------------------
# generators

@pytest.mark.parametrize("workload", ["ingest", "train_packets", "infer_duration"])
def test_generator_is_deterministic_per_seed(small, tmp_path, workload):
    _generate(workload, 3, tmp_path / "a")
    _generate(workload, 3, tmp_path / "b")
    _generate(workload, 4, tmp_path / "c")
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert mismatch == [] and errors == []
    program_inputs = [n for n in names if n != "truth.json"]
    _, differ, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", program_inputs, shallow=False)
    assert differ, "another seed must give other inputs"


def test_ingest_capture_has_every_frame_kind(small, tmp_path):
    truth = _generate("ingest", 0, tmp_path)
    assert truth["skipped"] > 0 and truth["reordered_frames"] > 0
    assert truth["ipv6_packets"] > 0 and truth["vlan_packets"] > 0
    assert truth["frames"] == truth["packets"] + truth["skipped"]


# ---------------------------------------------------------------------------
# spans

def test_self_time_on_hand_built_tree():
    #   root [0, 100]
    #     a [10, 40]
    #     b [50, 90]
    #       c [55, 65]
    #   d [120, 130]     second root
    starts = [0, 10, 50, 55, 120]
    ends = [100, 40, 90, 65, 130]
    parents = [-1, 0, 0, 2, -1]
    assert self_times(starts, ends, parents).tolist() == [30, 30, 30, 10, 10]
    totals = totals_by_name(["root", "leaf", "mid", "leaf", "root"], starts, ends, parents)
    assert totals["root"] == {"calls": 2, "total_s": 110e-9, "self_s": 40e-9}
    assert totals["leaf"] == {"calls": 2, "total_s": 40e-9, "self_s": 40e-9}
    assert totals["mid"] == {"calls": 1, "total_s": 40e-9, "self_s": 30e-9}


class _Layer:
    @staticmethod
    def inner(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Layer.inner(x) * 2


def test_recorder_links_parents_and_restores():
    original = _Layer.__dict__["inner"]
    with SpanRecorder() as rec:
        rec.patch(_Layer, "inner", "inner")
        rec.patch(_Layer, "outer", lambda args, kwargs: f"outer.{args[0]}")
        assert _Layer.outer(3) == 8
        with pytest.raises(TypeError):
            _Layer.outer(None)
    assert _Layer.__dict__["inner"] is original
    names, starts, ends, parents = rec.tree()
    assert names.tolist() == ["outer.3", "inner", "outer.None", "inner"]
    assert parents.tolist() == [-1, 0, -1, 2]
    assert (ends >= starts).all()


# ---------------------------------------------------------------------------
# output checks fail on corrupted outputs

def _drop_series_row(directory):
    """Remove the last row of one flow and patch flows.csv to agree, so the
    loss is silent to read_dataset's own validation."""
    series = os.path.join(directory, "series.csv")
    flows = os.path.join(directory, "flows.csv")
    with open(series, encoding="utf-8") as fh:
        lines = fh.readlines()
    victim = lines.pop().split(",")[0]
    with open(series, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    with open(flows, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    for row in rows:
        if row[0] == victim:
            row[8] = str(int(row[8]) - 1)
    with open(flows, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(r) + "\n" for r in rows)


def test_ingest_check_passes_then_fails_on_dropped_row(small, tmp_path):
    truth = _generate("ingest", 0, tmp_path / "in")
    ef = _program()
    ops = measure.Ops()
    workload = measure.Ingest(ef, str(tmp_path / "in"), str(tmp_path / "work"), truth, ops)
    workload.unit(0)
    workload.unit(1)
    assert ops.failed == 0 and workload.check() == []

    out = str(tmp_path / "work" / "extract-1")
    _drop_series_row(out)
    corrupted = checks.dataset_summary(ef.features.read_dataset(out))
    failures = checks.check_ingest(truth, workload.lines, workload.digests, [corrupted])
    assert any("packets" in f for f in failures)
    failures = checks.check_ingest(truth, workload.lines,
                                   [workload.digests[0], ("x", "y")], workload.summaries)
    assert any("differ" in f for f in failures)


def test_train_check_fails_on_bad_history():
    good = [[(1.0, 0.5)] * 3, [(1.0, 0.5)] * 3]
    assert checks.check_train(good, 3, 0.9) == []
    assert checks.check_train([[(1.0, 0.5)] * 2], 3, 0.9)
    assert checks.check_train([[(1.0, 0.5), (math.nan, 0.5), (1.0, 0.5)]], 3, 0.9)
    assert checks.check_train([good[0], [(1.1, 0.5)] * 3], 3, 0.9)
    assert checks.check_train(good, 3, 0.34)


def test_infer_check_fails_on_swapped_prediction_and_bad_latent(small, tmp_path):
    truth = _generate("infer_duration", 0, tmp_path / "in")
    os.makedirs(tmp_path / "work")
    ops = measure.Ops()
    workload = measure.InferDuration(_program(), str(tmp_path / "in"), str(tmp_path / "work"),
                                     truth, ops)
    workload.setup()
    workload.trace_round(0)
    assert ops.failed == 0 and workload.check() == []

    predictions = list(workload.predictions[0])
    classes = truth["classes"]
    predictions[0] = classes[(classes.index(predictions[0]) + 1) % len(classes)]
    failures = checks.check_infer(truth, workload.chunks, workload.evaluations,
                                  {0: predictions}, workload.latents)
    assert any("disagrees" in f for f in failures)

    ids, labels, _ = workload.latents[0]
    failures = checks.check_infer(truth, workload.chunks, workload.evaluations,
                                  workload.predictions, {0: (ids, labels, 1e-6)})
    assert any("latents differ" in f for f in failures)
    failures = checks.check_infer(truth, workload.chunks, workload.evaluations,
                                  workload.predictions, {0: (ids[::-1], labels[::-1], 0.0)})
    assert any("out of order" in f for f in failures)

    table, mean_e, mean_de = workload.evaluations[0]
    failures = checks.check_infer(truth, workload.chunks, {0: (table, mean_e, mean_de + 1e-6)},
                                  workload.predictions, workload.latents)
    assert any("earliness" in f for f in failures)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the code reports

def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        measure.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
