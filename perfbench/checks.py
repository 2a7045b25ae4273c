"""Output checks for the perfbench workloads.

Each check compares what the program produced during a run with the ground
truth the generator wrote (truth.json) and returns a list of failure
messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import math

import numpy as np

# Test macro F1 after 8 epochs of the criterion-6 task was 0.56-0.94 on seeds
# 0-29 (lowest on seed 27); chance is 1/3.
TRAIN_F1_FLOOR = 0.5
LATENT_TOLERANCE = 1e-9
EARLINESS_TOLERANCE = 1e-9


def dataset_summary(samples) -> dict:
    """What the ingest check needs from read_dataset's samples."""
    labels = {}
    for s in samples:
        labels[s.label] = labels.get(s.label, 0) + 1
    return {"flows": len(samples), "packets": int(sum(s.length for s in samples)),
            "flow_lengths": sorted(int(s.length) for s in samples),
            "label_counts": dict(sorted(labels.items()))}


def check_ingest(truth, extract_lines, csv_digests, summaries) -> list:
    """extract_lines: the summary line of every extract run; csv_digests:
    (flows.csv, series.csv) digests per run; summaries: dataset_summary of
    every read_dataset call."""
    failures = []
    expected = f"flows={truth['flows']} packets={truth['packets']} skipped={truth['skipped']}"
    if not extract_lines:
        failures.append("ingest: no extract run completed")
    for i, line in enumerate(extract_lines):
        if line != expected:
            failures.append(f"ingest: extract run {i} printed {line!r}, expected {expected!r}")
    if len(csv_digests) < 2:
        failures.append("ingest: fewer than two extract runs to compare")
    elif len(set(csv_digests)) != 1:
        failures.append("ingest: dataset CSVs differ between extract runs of one seed")
    if not summaries:
        failures.append("ingest: no read_dataset call completed")
    for i, summary in enumerate(summaries):
        for key in ("flows", "packets", "flow_lengths", "label_counts"):
            if summary[key] != truth[key]:
                shown = summary[key] if key in ("flows", "packets") else "(differs)"
                failures.append(f"ingest: read_dataset call {i}: {key} {shown} != truth")
    return failures


def check_train(histories, epochs, test_f1) -> list:
    """histories: per train() run, a list of (loss, val_macro_f1) per epoch."""
    failures = []
    if not histories:
        failures.append("train_packets: no train run completed")
    for i, history in enumerate(histories):
        if len(history) != epochs:
            failures.append(f"train_packets: run {i} has {len(history)} epochs, expected {epochs}")
        if not all(math.isfinite(loss) for loss, _ in history):
            failures.append(f"train_packets: run {i} has a non-finite loss")
    if any(h != histories[0] for h in histories[1:]):
        failures.append("train_packets: reruns with one seed gave different histories")
    if test_f1 is None or not test_f1 >= TRAIN_F1_FLOOR:
        failures.append(f"train_packets: test macro F1 {test_f1} below floor {TRAIN_F1_FLOOR}")
    return failures


def confusion(predictions, labels, classes) -> list:
    index = {c: i for i, c in enumerate(classes)}
    table = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for pred, actual in zip(predictions, labels):
        table[index[actual], index[pred]] += 1
    return table.tolist()


def check_infer(truth, chunks, evaluations, predictions, latents) -> list:
    """chunks: flow indices per chunk. evaluations: chunk -> (confusion,
    mean_e, mean_de) from evaluate(). predictions: chunk -> predicted labels
    from per-prefix predict(). latents: chunk -> (flow_ids, labels, max abs
    difference between exported rows and forward latents)."""
    failures = []
    classes = truth["classes"]
    if not evaluations or not predictions or not latents:
        failures.append("infer_duration: a phase completed no chunk")
    for c, (table, mean_e, mean_de) in sorted(evaluations.items()):
        flows = chunks[c]
        labels = [truth["labels"][i] for i in flows]
        if c not in predictions or None in predictions[c]:
            failures.append(f"infer_duration: chunk {c} evaluated but not fully predicted")
        elif table != confusion(predictions[c], labels, classes):
            failures.append(f"infer_duration: chunk {c}: evaluate disagrees with per-prefix predict")
        want_e = float(np.mean([truth["earliness"][i] for i in flows]))
        want_de = float(np.mean([truth["duration_earliness"][i] for i in flows]))
        if abs(mean_e - want_e) > EARLINESS_TOLERANCE or abs(mean_de - want_de) > EARLINESS_TOLERANCE:
            failures.append(f"infer_duration: chunk {c}: mean earliness ({mean_e}, {mean_de}) "
                            f"!= generator's ({want_e}, {want_de})")
    for c, (flow_ids, labels, max_diff) in sorted(latents.items()):
        flows = chunks[c]
        if flow_ids != [truth["flow_ids"][i] for i in flows] or \
                labels != [truth["labels"][i] for i in flows]:
            failures.append(f"infer_duration: chunk {c}: latent rows out of order or mislabeled")
        if not max_diff <= LATENT_TOLERANCE:
            failures.append(f"infer_duration: chunk {c}: latents differ from forward by {max_diff}")
    return failures
