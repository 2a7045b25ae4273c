import concurrent.futures
import os
import platform
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earlyflow import training
from earlyflow.autodiff import backward, cross_entropy, scale, zero_grad
from earlyflow.earliness import PrefixSpec
from earlyflow.features import DatasetFormatError, MtsSample
from earlyflow.metrics import compute_metrics
from earlyflow.model import MdtConfig, MdtModel, forward, predict
from earlyflow.training import (
    EXPECT_PROFILES, Hyperparams, dataset_classes,
    evaluate, inverse_frequency_weights, load_external_mts, minibatch_gradients,
    stratified_split, sweep, sweep_rows, train, write_history_csv,
)

import gen_mts
from gen_mts import amplitude_suite, frequency_suite, separable_suite


def small_config(d_in, n_classes, **overrides):
    base = dict(d_in=d_in, n_classes=n_classes, d_model=16, n_heads=2,
                n_blocks=1, d_ff=32, max_len=16, dropout=0.0)
    base.update(overrides)
    return MdtConfig(**base)


def test_stratified_split_deterministic_and_stratified():
    samples = separable_suite(0, n=100)
    a = stratified_split(samples, seed=7)
    b = stratified_split(samples, seed=7)
    assert a == b
    c = stratified_split(samples, seed=8)
    assert a != c
    train_ids, val_ids, test_ids = a
    assert len(train_ids) + len(val_ids) + len(test_ids) == 100
    assert set(train_ids).isdisjoint(val_ids)
    assert set(train_ids).isdisjoint(test_ids)
    train_labels = [samples[i].label for i in train_ids]
    assert abs(train_labels.count("class0") - train_labels.count("class1")) <= 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=5), st.integers(0, 2 ** 32 - 1),
       st.randoms(use_true_random=False))
def test_stratified_split_partitions_and_keeps_every_class(counts, seed, random):
    labels = [f"c{k}" for k, n in enumerate(counts) for _ in range(n)]
    random.shuffle(labels)
    parts = stratified_split([SimpleNamespace(label=y) for y in labels], seed)
    assert sorted(i for part in parts for i in part) == list(range(len(labels)))
    for k, n in enumerate(counts):
        sizes = [sum(1 for i in part if labels[i] == f"c{k}") for part in parts]
        n_train, n_val = round(0.70 * n), round(0.15 * n)
        assert sizes == [n_train, n_val, n - n_train - n_val]
        assert sizes[0] >= 1


def test_inverse_frequency_weights():
    w = inverse_frequency_weights(["a"] * 9 + ["b"], ("a", "b"))
    assert w[0] == pytest.approx(10 / (2 * 9))
    assert w[1] == pytest.approx(10 / 2)


def test_zero_learning_rate_leaves_parameters_unchanged():
    samples = separable_suite(1, n=40)
    config = small_config(4, 2)
    model = MdtModel(config, seed=3)
    before = {k: v.copy() for k, v in model.state_arrays().items()}
    hp = Hyperparams(learning_rate=0.0, max_epochs=3, patience=10)
    train(model, samples, PrefixSpec.by_count(6), hp, seed=3)
    for name, arr in model.state_arrays().items():
        assert np.array_equal(arr, before[name]), name


def test_train_sets_the_class_order_of_the_head():
    # train owns the class order: the model it returns carries the order its
    # head was trained in, so a checkpoint saved from it names its classes
    samples = separable_suite(1, n=20)
    model = MdtModel(small_config(4, 2), seed=3)
    assert model.classes is None
    result = train(model, samples, PrefixSpec.by_count(6), Hyperparams(max_epochs=1), seed=3)
    assert model.classes == result.classes == dataset_classes(samples)


def test_separable_toy_loss_strictly_decreases_five_seeds():
    for seed in range(5):
        samples = separable_suite(seed, n=60)
        model = MdtModel(small_config(4, 2), seed=seed)
        hp = Hyperparams(max_epochs=5, patience=10)
        result = train(model, samples, PrefixSpec.by_count(6), hp, seed=seed)
        losses = [h.loss for h in result.history]
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_deterministic_rerun_bit_identical():
    samples = separable_suite(2, n=40)

    def run():
        model = MdtModel(small_config(4, 2), seed=11)
        train(model, samples, PrefixSpec.by_count(4), Hyperparams(max_epochs=3), seed=11)
        return model.state_arrays()

    a, b = run(), run()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_bucketed_minibatch_gradient_equals_per_sample_sum():
    # two length groups, interleaved; the per-sample loop is the reference
    rng = np.random.default_rng(0)
    model = MdtModel(small_config(4, 2), seed=5)
    params = model.parameters()
    prefixes = [rng.normal(size=(n, 4)) for n in (3, 7, 3, 3, 7, 7, 3)]
    targets = [0, 1, 1, 0, 0, 1, 1]
    weights = np.array([0.7, 1.6])

    zero_grad(params)
    loss_sum, weight_sum = minibatch_gradients(model, prefixes, targets, weights,
                                               np.random.default_rng(1))
    batched = [p.grad.copy() for p in params]

    zero_grad(params)
    total_w = sum(weights[t] for t in targets)
    want_loss = 0.0
    for x, t in zip(prefixes, targets):
        logits, _ = forward(model, x)
        nll = cross_entropy(logits, t)
        backward(scale(nll, weights[t] / total_w))
        want_loss += weights[t] * float(nll.data)
    assert weight_sum == pytest.approx(total_w, abs=1e-12)
    assert loss_sum == pytest.approx(want_loss, abs=1e-9)
    for p, g in zip(params, batched):
        assert np.abs(g - p.grad).max() < 1e-9


def test_evaluate_matches_per_prefix_predict():
    # ragged prefixes: samples shorter than the count keep all their rows
    rng = np.random.default_rng(1)
    samples = [MtsSample(flow_id=f"s{i}", values=rng.normal(size=(n, 4)),
                         timestamps=np.arange(n, dtype=float), label=f"class{i % 3}")
               for i, n in enumerate(rng.integers(1, 17, size=90))]
    classes = dataset_classes(samples)
    model = MdtModel(small_config(4, 3), seed=6)
    spec = PrefixSpec.by_count(12)
    metrics, _, _ = evaluate(model, samples, spec, classes)
    one_by_one = [classes[predict(model, s.values[:12])] for s in samples]
    want = compute_metrics(one_by_one, [s.label for s in samples], classes)
    assert np.array_equal(metrics.confusion, want.confusion)
    assert len(set(one_by_one)) > 1


def test_train_rejects_overlong_prefix():
    samples = separable_suite(4, n=40, length=30)
    model = MdtModel(small_config(4, 2, max_len=8), seed=0)
    with pytest.raises(ValueError, match="max_len"):
        train(model, samples, PrefixSpec.by_count(20), Hyperparams(max_epochs=1), seed=0)


def test_evaluate_reports_metrics_and_earliness():
    samples = separable_suite(5, n=30, length=10)
    model = MdtModel(small_config(4, 2, max_len=10), seed=1)
    classes = dataset_classes(samples)
    metrics, mean_e, mean_de = evaluate(model, samples, PrefixSpec.by_count(5), classes)
    assert 0.0 <= metrics.accuracy <= 1.0
    assert mean_e == pytest.approx(0.5)


def test_sweep_sorted_and_monotone_earliness():
    samples = separable_suite(6, n=60, length=12)
    config = small_config(4, 2, max_len=12)
    hp = Hyperparams(max_epochs=2, patience=5)
    points = sweep(config, samples, [PrefixSpec.by_count(n) for n in (8, 2, 4)], hp,
                   seed=5, jobs=1)
    means = [p.mean_earliness for p in points]
    assert means == sorted(means)
    assert means[0] < means[1] < means[2]
    rows = sweep_rows(points)
    assert rows[0] == ["prefix", "mean_e", "mean_de", "accuracy", "macro_f1", "detection_rate"]
    assert [r[0] for r in rows[1:]] == ["2", "4", "8"]


def test_sweep_wholesample_grid_earliness_one():
    samples = separable_suite(7, n=40, length=8)
    config = small_config(4, 2, max_len=8)
    points = sweep(config, samples, [PrefixSpec.by_count(8)], Hyperparams(max_epochs=1),
                   seed=2, jobs=1)
    assert points[0].mean_earliness == pytest.approx(1.0)


def test_sweep_rejects_grid_beyond_max_len(monkeypatch):
    # a count point is checked by the prefix train takes, clamped to each
    # sample: 16 packets of length-8 samples fit max_len 8 but not 4
    samples = separable_suite(8, n=20, length=8)
    hp = Hyperparams(max_epochs=1)
    (point,) = sweep(small_config(4, 2, max_len=8), samples, [PrefixSpec.by_count(16)], hp,
                     seed=2, jobs=1)
    assert point.spec == PrefixSpec.by_count(16) and point.mean_earliness == 1.0
    calls = []
    monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=re.escape("grid points exceed max_len 4: 16") + "$"):
        sweep(small_config(4, 2, max_len=4), samples,
              [PrefixSpec.by_count(2), PrefixSpec.by_count(16)], hp, seed=2, jobs=1)
    assert calls == []


# (--jobs, os.cpu_count(), pool size or None for no pool) over three grid points
POOL_SIZES = [(5000, 8, 3), (2, 8, 2), (5000, 2, 2), (5000, None, None), (1, 8, None)]


@pytest.mark.parametrize("jobs,cpus,size", POOL_SIZES)
def test_sweep_pool_is_bounded_by_points_and_cpus(monkeypatch, jobs, cpus, size):
    sizes = []

    class FakePool:
        """Records the pool size and runs the points in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    samples = separable_suite(6, n=20, length=8)
    config = small_config(4, 2, max_len=8)
    specs = [PrefixSpec.by_count(n) for n in (2, 4, 8)]
    hp = Hyperparams(max_epochs=1)
    expected = sweep_rows(sweep(config, samples, specs, hp, seed=5, jobs=1))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(training.os, "cpu_count", lambda: cpus)
    assert sweep_rows(sweep(config, samples, specs, hp, seed=5, jobs=jobs)) == expected
    assert sizes == ([] if size is None else [size])


def test_import_loads_no_process_pool():
    # sweep imports its process pool only when it builds one
    package_root = os.path.dirname(os.path.dirname(training.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, earlyflow; print(*sorted(m for m in "
         "('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": package_root})
    assert out.stdout.split() == []


def test_sweep_duration_mode():
    # unit-spaced toy timestamps: duration t covers t+1 rows
    samples = separable_suite(10, n=40, length=8)
    config = small_config(4, 2, max_len=8)
    points = sweep(config, samples, [PrefixSpec.by_duration(t) for t in (1.0, 5.0)],
                   Hyperparams(max_epochs=1, patience=2), seed=4, jobs=1)
    assert points[0].spec.duration_secs == 1.0
    assert points[0].mean_earliness == pytest.approx(2 / 8)
    assert points[1].mean_earliness == pytest.approx(6 / 8)


def test_longer_prefix_not_worse_five_seed_median():
    medians = {}
    for count in (2, 16):
        scores = []
        for seed in range(5):
            samples = frequency_suite(seed, n=240, length=64, d=13)
            config = small_config(13, 3, max_len=16)
            model = MdtModel(config, seed=seed)
            hp = Hyperparams(max_epochs=10, patience=10)
            result = train(model, samples, PrefixSpec.by_count(count), hp, seed=seed)
            test_set = [samples[i] for i in result.test_ids]
            m, _, _ = evaluate(model, test_set, PrefixSpec.by_count(count), result.classes)
            scores.append(m.macro_f1)
        medians[count] = sorted(scores)[2]
    assert medians[16] >= medians[2]


def test_latent_export_reproduces_head_accuracy(tmp_path):
    import csv

    from earlyflow import autodiff as ad
    from earlyflow.model import export_latents
    from earlyflow.training import Adam

    spec = PrefixSpec.by_count(6)
    samples = separable_suite(11, n=60, length=10, d=4)
    model = MdtModel(small_config(4, 2, max_len=10), seed=2)
    result = train(model, samples, spec, Hyperparams(max_epochs=8), seed=2)
    test_set = [samples[i] for i in result.test_ids]
    internal, _, _ = evaluate(model, test_set, spec, result.classes)

    out = tmp_path / "latents.csv"
    export_latents(model, samples, spec, out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    feats = {r[0]: np.array([float(v) for v in r[2:]]) for r in rows[1:]}
    labels = {r[0]: r[1] for r in rows[1:]}
    index = {c: i for i, c in enumerate(result.classes)}

    def matrix(ids):
        xs = np.stack([feats[samples[i].flow_id] for i in ids])
        ys = [index[labels[samples[i].flow_id]] for i in ids]
        return xs, ys

    x_train, y_train = matrix(result.train_ids)
    x_test, y_test = matrix(result.test_ids)

    rng = np.random.default_rng(0)
    w = ad.param(0.01 * rng.normal(size=(x_train.shape[1], len(result.classes))))
    b = ad.param(np.zeros(len(result.classes)))
    opt = Adam([w, b], lr=0.05)
    for _ in range(200):
        ad.zero_grad([w, b])
        logits = ad.add_bias(ad.matmul(ad.const(x_train), w), b)
        ad.backward(ad.cross_entropy(logits, y_train))
        opt.step()

    predictions = np.argmax(x_test @ w.data + b.data, axis=1)
    linear_acc = float(np.mean(predictions == np.array(y_test)))
    assert abs(linear_acc - internal.accuracy) <= 0.02


def test_history_csv(tmp_path):
    samples = separable_suite(9, n=30)
    model = MdtModel(small_config(4, 2), seed=4)
    result = train(model, samples, PrefixSpec.by_count(4), Hyperparams(max_epochs=2), seed=4)
    out = tmp_path / "history.csv"
    write_history_csv(result.history, out)
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "epoch,loss,val_macro_f1"
    assert len(lines) == 1 + len(result.history)


# ---------------------------------------------------------------------------
# external datasets

def write_external(tmp_path, n_series=6, length=5, d=2, rel_ts=False, id_col="series_id"):
    header = [id_col, "seq_index"] + [f"ch{i}" for i in range(d)]
    if rel_ts:
        header.append("rel_ts")
    series_lines = [",".join(header)]
    meta_lines = [f"{id_col},label"]
    rng = np.random.default_rng(0)
    for s in range(n_series):
        label = "normal" if s % 2 == 0 else "abnormal"
        meta_lines.append(f"s{s},{label}")
        for i in range(length):
            row = [f"s{s}", str(i)] + [f"{rng.normal():.6f}" for _ in range(d)]
            if rel_ts:
                row.append(f"{i * 0.5:.6f}")
            series_lines.append(",".join(row))
    (tmp_path / "series.csv").write_text("\n".join(series_lines) + "\n", encoding="utf-8")
    (tmp_path / "flows.csv").write_text("\n".join(meta_lines) + "\n", encoding="utf-8")


def test_load_external_unit_spaced(tmp_path):
    write_external(tmp_path, n_series=4, length=6, d=3)
    samples = load_external_mts(tmp_path)
    assert len(samples) == 4
    assert samples[0].width == 3
    assert np.array_equal(samples[0].timestamps, np.arange(6, dtype=float))


def test_unit_spacing_duration_equals_count(tmp_path):
    write_external(tmp_path, n_series=2, length=8, d=2)
    from earlyflow.earliness import take_prefix
    samples = load_external_mts(tmp_path)
    for t in (0.0, 1.0, 2.5, 6.0):
        by_dur, _ = take_prefix(samples[0], PrefixSpec.by_duration(t))
        by_cnt, _ = take_prefix(samples[0], PrefixSpec.by_count(int(t) + 1))
        assert by_dur.length == by_cnt.length


def test_load_external_rel_ts_column(tmp_path):
    write_external(tmp_path, n_series=2, length=4, d=2, rel_ts=True)
    samples = load_external_mts(tmp_path)
    assert np.allclose(samples[0].timestamps, [0.0, 0.5, 1.0, 1.5])


def test_load_external_ecg_profile(tmp_path):
    # an ECG-shaped file: d=2, lengths <= 152, 200 series with 133/67 labels
    header = ["series_id", "seq_index", "ch0", "ch1"]
    series_lines = [",".join(header)]
    meta_lines = ["series_id,label"]
    rng = np.random.default_rng(1)
    for s in range(200):
        label = "normal" if s < 133 else "abnormal"
        meta_lines.append(f"e{s},{label}")
        length = int(rng.integers(40, 153))
        if s == 0:
            length = 152
        for i in range(length):
            series_lines.append(f"e{s},{i},{rng.normal():.4f},{rng.normal():.4f}")
    (tmp_path / "series.csv").write_text("\n".join(series_lines) + "\n", encoding="utf-8")
    (tmp_path / "flows.csv").write_text("\n".join(meta_lines) + "\n", encoding="utf-8")

    samples = load_external_mts(tmp_path, expect="ecg")
    assert len(samples) == 200
    labels = [s.label for s in samples]
    assert labels.count("normal") == 133
    assert labels.count("abnormal") == 67
    assert max(s.length for s in samples) == 152


def test_load_external_profile_mismatch(tmp_path):
    write_external(tmp_path, n_series=2, length=4, d=3)
    with pytest.raises(DatasetFormatError):
        load_external_mts(tmp_path, expect="ecg")


def test_load_external_unknown_profile(tmp_path):
    write_external(tmp_path)
    with pytest.raises(DatasetFormatError):
        load_external_mts(tmp_path, expect="mystery")


def test_load_external_ragged_rejected(tmp_path):
    write_external(tmp_path, n_series=2, length=3, d=2)
    with open(tmp_path / "series.csv", "a", encoding="utf-8") as fh:
        fh.write("s0,3,1.0\n")
    with pytest.raises(DatasetFormatError):
        load_external_mts(tmp_path)


def test_wafer_profile_shape():
    assert EXPECT_PROFILES["wafer"] == {"d": 6, "max_len": 198}


# Two 3-epoch trains in a fresh process; prints the minor page faults of the
# second. Minibatches of 32 16-packet prefixes at d_model 32 free and
# reallocate about 14 MB each.
SECOND_TRAIN_FAULTS = """
import resource
from gen_mts import separable_suite
from earlyflow.earliness import PrefixSpec
from earlyflow.model import MdtConfig, MdtModel
from earlyflow.training import Hyperparams, train
samples = separable_suite(0, n=200, length=16, d=13)
config = MdtConfig(d_in=13, n_classes=2, max_len=16, d_model=32, n_heads=4, n_blocks=2, d_ff=64)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(MdtModel(config, seed=0), samples, PrefixSpec.by_count(16),
          Hyperparams(max_epochs=3, patience=4), seed=0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator thresholds")
def test_second_train_reuses_freed_pages():
    # glibc's default thresholds hand each minibatch's freed pages back to
    # the OS (about 16k faults for this second train); kept, it faults in
    # almost none
    package_root = os.path.dirname(os.path.dirname(training.__file__))
    path = os.pathsep.join([package_root, os.path.dirname(gen_mts.__file__)])
    out = subprocess.run([sys.executable, "-c", SECOND_TRAIN_FAULTS], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert int(out.stdout) < 1000
