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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import backward, cross_entropy, scale, zero_grad
from .earliness import BY_COUNT, BY_DURATION, PrefixSpec, aggregate_earliness, take_prefix
from .features import DatasetFormatError, MtsSample, read_long_format
from .metrics import Metrics, compute_metrics
from .model import MdtConfig, MdtModel, forward, forward_prefixes, length_buckets

SPLIT = (0.70, 0.15, 0.15)   # train, validation, test shares of each class


@dataclass
class Hyperparams:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 60
    patience: int = 10

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        rate = self.learning_rate
        if not isinstance(rate, numbers.Real) or not 0.0 <= rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {rate!r}")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    val_macro_f1: float


@dataclass
class TrainResult:
    model: MdtModel
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

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1 - self.beta2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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


def minibatch_gradients(model: MdtModel, prefixes, targets, weights, rng=None):
    """Add to the parameter grads the gradient of sum(w * nll) / sum(w) over
    one training minibatch, w being each target's class weight. Prefixes of
    one length run as one graph. Returns (sum(w * nll), sum(w))."""
    targets = np.asarray(targets, dtype=np.intp)
    batch_w = float(weights[targets].sum())
    loss_sum = 0.0
    for group in length_buckets([len(p) for p in prefixes]):
        logits, _ = forward(model, np.stack([prefixes[i] for i in group]),
                            training=True, rng=rng)
        nll = cross_entropy(logits, targets[group], class_weights=weights)
        # the group's weighted mean nll times its share of the batch weight
        group_w = float(weights[targets[group]].sum())
        backward(scale(nll, group_w / batch_w))
        loss_sum += group_w * float(nll.data)
    return loss_sum, batch_w


def train(model: MdtModel, samples, spec: PrefixSpec, hp: Hyperparams,
          seed: int = 42, verbose: bool = False) -> TrainResult:
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
    best_state = {k: v.copy() for k, v in model.state_arrays().items()}
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
        epoch_loss = loss_sum / weight_sum if weight_sum else 0.0
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
    return TrainResult(model=model, history=history, classes=classes,
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


def _grid_spec(mode: str, value) -> PrefixSpec:
    if mode == BY_COUNT:
        return PrefixSpec.by_count(int(value))
    if mode == BY_DURATION:
        return PrefixSpec.by_duration(float(value))
    raise ValueError(f"unknown sweep mode {mode!r}")


def _run_sweep_point(args):
    config, samples, mode, value, hp, seed = args
    spec = _grid_spec(mode, value)
    model = MdtModel(config, seed=seed)
    result = train(model, samples, spec, hp, seed=seed)
    test_samples = [samples[i] for i in result.test_ids]
    metrics, mean_e, mean_de = evaluate(model, test_samples, spec, result.classes)
    return SweepPoint(spec=spec, mean_earliness=mean_e,
                      mean_duration_earliness=mean_de, metrics=metrics)


def sweep(config: MdtConfig, samples, mode: str, grid, hp: Hyperparams,
          seed: int = 42, jobs: int = 1) -> list:
    """Train and evaluate one fresh model per grid point; rows come back
    sorted by mean earliness."""
    grid = list(grid)
    if not grid:
        raise ValueError("empty sweep grid")
    if mode == BY_COUNT:
        too_long = [v for v in grid if int(v) > config.max_len]
        if too_long:
            raise ValueError(f"grid points exceed max_len {config.max_len}: {too_long}")
    samples = list(samples)
    tasks = [(config, samples, mode, value, hp, seed) for value in grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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


class ExternalFormatError(DatasetFormatError):
    pass


def load_external_mts(directory, expect: str | None = None) -> list:
    """Load a long-format series.csv plus flows.csv-style metadata carrying at
    least (series id, label) with features.read_long_format, raising
    ExternalFormatError. Timestamps come from a rel_ts column when present,
    otherwise unit spacing; an extractor-layout dataset loads as read_dataset
    loads it. d is inferred from the columns; `expect` names a profile in
    EXPECT_PROFILES that d and the maximum length must fit."""
    samples = read_long_format(directory, ExternalFormatError)
    if expect is not None:
        profile = EXPECT_PROFILES.get(expect)
        if profile is None:
            raise ExternalFormatError(f"unknown expectation profile {expect!r}")
        d = samples[0].width if samples else 0
        max_len = max((s.length for s in samples), default=0)
        if d != profile["d"] or max_len > profile["max_len"]:
            raise ExternalFormatError(
                f"profile {expect}: expected d={profile['d']}, "
                f"max length <= {profile['max_len']}; got d={d}, max length {max_len}")
    return samples
