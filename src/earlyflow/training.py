"""Training loop, evaluation, prefix sweeps, and external dataset loading.

Splits are stratified 70/15/15 with a fixed seed. Training minimizes
class-weighted cross entropy on prefixes with Adam, stops early on validation
macro F1, and restores the best parameters. Each minibatch runs as one graph
per prefix length (sequence bucketing, no padding). Every random draw (split
order, shuffling, dropout) descends from the one seed, so reruns are
bit-identical.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .autodiff import backward, cross_entropy, scale, zero_grad
from .earliness import PrefixSpec, aggregate_earliness, longest_prefix, take_prefix
from .features import DatasetFormatError, read_dataset
from .metrics import Metrics, compute_metrics
from .model import (NUMERIC_FAULTS, MdtConfig, MdtModel, check_int_fields, forward,
                    forward_prefixes, length_buckets)

SPLIT = (0.70, 0.15, 0.15)   # train, validation, test shares of each class
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class Hyperparams:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 60
    patience: int = 10

    def __post_init__(self):
        check_int_fields(self)
        rate = self.learning_rate
        if not isinstance(rate, numbers.Real) or isinstance(rate, bool) \
                or not 0.0 <= rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {rate!r}")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    val_macro_f1: float


@dataclass
class TrainResult:
    history: list
    classes: tuple
    train_ids: list
    val_ids: list
    test_ids: list


@dataclass
class SweepPoint:
    spec: PrefixSpec
    mean_earliness: float
    mean_duration_earliness: float
    metrics: Metrics


class Adam:
    """Standard first-moment/second-moment update with bias correction."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = ADAM_BETA1 * self.m[i] + (1 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[i] / (1 - ADAM_BETA1 ** self.t)
            v_hat = self.v[i] / (1 - ADAM_BETA2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def dataset_classes(samples) -> tuple:
    return tuple(sorted({s.label for s in samples}))


def stratified_split(samples, seed: int):
    """Deterministic per-class shuffle and allocation into train/val/test by
    the SPLIT shares; every class keeps at least one training sample."""
    rng = np.random.default_rng([seed, 101])
    by_class = {}
    for i, s in enumerate(samples):
        by_class.setdefault(s.label, []).append(i)
    train, val, test = [], [], []
    for label in sorted(by_class):
        idx = np.array(by_class[label])
        rng.shuffle(idx)
        n = len(idx)
        # 1 <= n_train and n_train + n_val <= n hold for every n >= 1
        n_train = int(round(SPLIT[0] * n))
        n_val = int(round(SPLIT[1] * n))
        train.extend(idx[:n_train])
        val.extend(idx[n_train:n_train + n_val])
        test.extend(idx[n_train + n_val:])
    return sorted(train), sorted(val), sorted(test)


def class_sizes(samples) -> str:
    """The sample count of every class, as 'label'=n in label order."""
    counts = Counter(s.label for s in samples)
    return ", ".join(f"{label!r}={counts[label]}" for label in sorted(counts))


def inverse_frequency_weights(labels, classes) -> np.ndarray:
    counts = np.array([max(1, sum(1 for y in labels if y == c)) for c in classes],
                      dtype=np.float64)
    return len(labels) / (len(classes) * counts)


def _prefix_arrays(samples, spec):
    prefixes, reports = [], []
    for s in samples:
        prefix, report = take_prefix(s, spec)
        prefixes.append(prefix.values)
        reports.append(report)
    return prefixes, reports


def minibatch_gradients(model: MdtModel, prefixes, targets, weights, rng):
    """Add to the parameter grads the gradient of sum(w * nll) / sum(w) over
    one training minibatch, w being each target's class weight, with dropout
    drawn from rng. Prefixes of one length run as one graph, forward and
    backward under NUMERIC_FAULTS. Returns (sum(w * nll), sum(w))."""
    targets = np.asarray(targets, dtype=np.intp)
    batch_w = float(weights[targets].sum())
    loss_sum = 0.0
    with np.errstate(**NUMERIC_FAULTS):
        for group in length_buckets([len(p) for p in prefixes]):
            # rng positionally: the benchmark's tracer tells training forwards by args[2]
            logits, _ = forward(model, np.stack([prefixes[i] for i in group]), rng)
            nll = cross_entropy(logits, targets[group], class_weights=weights)
            # the group's weighted mean nll times its share of the batch weight
            group_w = float(weights[targets[group]].sum())
            backward(scale(nll, group_w / batch_w))
            loss_sum += group_w * float(nll.data)
    return loss_sum, batch_w


def train(model: MdtModel, samples, spec: PrefixSpec, hp: Hyperparams,
          seed: int, verbose: bool = False) -> TrainResult:
    samples = list(samples)
    classes = dataset_classes(samples)
    if len(classes) != model.config.n_classes:
        raise ValueError(
            f"model expects {model.config.n_classes} classes, dataset has {len(classes)}")
    class_index = {c: i for i, c in enumerate(classes)}

    train_ids, val_ids, test_ids = stratified_split(samples, seed)
    train_labels = [samples[i].label for i in train_ids]

    prefixes, _ = _prefix_arrays(samples, spec)
    longest = max(p.shape[0] for p in prefixes)
    if longest > model.config.max_len:
        raise ValueError(
            f"longest prefix ({longest}) exceeds model max_len ({model.config.max_len})")

    weights = inverse_frequency_weights(train_labels, classes)
    targets = np.array([class_index[s.label] for s in samples], dtype=np.intp)
    val_prefixes = [prefixes[i] for i in val_ids]
    val_labels = [samples[i].label for i in val_ids]
    params = model.parameters()
    optimizer = Adam(params, lr=hp.learning_rate)
    rng = np.random.default_rng([seed, 202])

    best_f1 = -1.0
    patience_left = hp.patience
    history = []

    for epoch in range(hp.max_epochs):
        order = np.array(train_ids)
        rng.shuffle(order)
        loss_sum = 0.0
        weight_sum = 0.0
        for start in range(0, len(order), hp.batch_size):
            batch = order[start:start + hp.batch_size]
            zero_grad(params)
            batch_loss, batch_w = minibatch_gradients(
                model, [prefixes[i] for i in batch], targets[batch], weights, rng)
            loss_sum += batch_loss
            weight_sum += batch_w
            optimizer.step()

        val_f1 = compute_metrics(_predict_labels(model, val_prefixes, classes), val_labels,
                                 classes).macro_f1 if val_ids else 0.0
        epoch_loss = loss_sum / weight_sum
        history.append(EpochStats(epoch=epoch, loss=epoch_loss, val_macro_f1=val_f1))
        if verbose:
            print(f"epoch {epoch}: loss {epoch_loss:.6f} val_macro_f1 {val_f1:.4f}")

        if val_f1 > best_f1:
            best_f1 = val_f1
            best_state = {k: v.copy() for k, v in model.state_arrays().items()}
            patience_left = hp.patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break

    model.load_state(best_state)
    model.classes = classes
    return TrainResult(history=history, classes=classes,
                       train_ids=train_ids, val_ids=val_ids, test_ids=test_ids)


def _predict_labels(model, prefixes, classes) -> list:
    logits, _ = forward_prefixes(model, prefixes)
    return [classes[k] for k in np.argmax(logits, axis=1)]


def evaluate(model: MdtModel, samples, spec: PrefixSpec, classes):
    """Metrics plus mean earliness over the given samples."""
    samples = list(samples)
    if not samples:
        raise ValueError("nothing to evaluate")
    prefixes, reports = _prefix_arrays(samples, spec)
    predictions = _predict_labels(model, prefixes, classes)
    metrics = compute_metrics(predictions, [s.label for s in samples], classes)
    mean_e, mean_de = aggregate_earliness(reports)
    return metrics, mean_e, mean_de


def _run_sweep_point(args):
    config, samples, spec, hp, seed = args
    model = MdtModel(config, seed=seed)
    result = train(model, samples, spec, hp, seed=seed)
    test_samples = [samples[i] for i in result.test_ids]
    metrics, mean_e, mean_de = evaluate(model, test_samples, spec, result.classes)
    return SweepPoint(spec=spec, mean_earliness=mean_e,
                      mean_duration_earliness=mean_de, metrics=metrics)


def sweep(config: MdtConfig, samples, specs, hp: Hyperparams, seed: int, jobs: int) -> list:
    """Train and evaluate one fresh model per PrefixSpec in specs; rows come
    back sorted by mean earliness. Before any training, every grid point's
    longest prefix over the samples, as train takes it, is checked against
    max_len, and the test split every point is scored on must hold a
    sample. With jobs > 1 the points train in a pool of
    min(jobs, points, CPUs) processes; the rows do not depend on its size."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    specs = list(specs)
    if not specs:
        raise ValueError("empty sweep grid")
    samples = list(samples)
    too_long = [spec.describe() for spec in specs
                if longest_prefix(samples, spec) > config.max_len]
    if too_long:
        raise ValueError(f"grid points exceed max_len {config.max_len}: {', '.join(too_long)}")
    if not stratified_split(samples, seed)[2]:
        raise ValueError(f"the test split is empty (class sizes {class_sizes(samples)})")
    tasks = [(config, samples, spec, hp, seed) for spec in specs]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which nothing else needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_run_sweep_point, tasks))
    else:
        points = [_run_sweep_point(t) for t in tasks]
    points.sort(key=lambda p: (p.mean_earliness, p.mean_duration_earliness))
    return points


# ---------------------------------------------------------------------------
# CSV interfaces

def write_history_csv(history, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "loss", "val_macro_f1"])
        for row in history:
            writer.writerow([row.epoch, f"{row.loss:.9f}", f"{row.val_macro_f1:.9f}"])


def sweep_rows(points):
    rows = [["prefix", "mean_e", "mean_de", "accuracy", "macro_f1", "detection_rate"]]
    for p in points:
        rows.append([
            p.spec.describe(),
            f"{p.mean_earliness:.9f}",
            f"{p.mean_duration_earliness:.9f}",
            f"{p.metrics.accuracy:.9f}",
            f"{p.metrics.macro_f1:.9f}",
            f"{p.metrics.detection_rate:.9f}",
        ])
    return rows


# ---------------------------------------------------------------------------
# external long-format datasets

EXPECT_PROFILES = {
    "ecg": {"d": 2, "max_len": 152},
    "wafer": {"d": 6, "max_len": 198},
}


def load_external_mts(directory, expect: str | None = None) -> list:
    """features.read_dataset, plus a shape check: `expect` names a profile
    in EXPECT_PROFILES that the width d and the maximum length must fit.
    Every problem raises DatasetFormatError."""
    samples = read_dataset(directory)
    if expect is not None:
        profile = EXPECT_PROFILES.get(expect)
        if profile is None:
            raise DatasetFormatError(f"unknown expectation profile {expect!r}")
        d = samples[0].width if samples else 0
        max_len = max((s.length for s in samples), default=0)
        if d != profile["d"] or max_len > profile["max_len"]:
            raise DatasetFormatError(
                f"profile {expect}: expected d={profile['d']}, "
                f"max length <= {profile['max_len']}; got d={d}, max length {max_len}")
    return samples
