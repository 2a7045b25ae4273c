"""Acceptance suite: one test per criterion, each printing PASS/FAIL via the
conftest hook. Empirical criteria use fixed seeds and report medians."""

import json
import os
import time

import numpy as np
import pytest

from earlyflow import autodiff as ad
from earlyflow.autodiff import const, cross_entropy, param
from earlyflow.cli import main as cli_main
from earlyflow.earliness import PrefixSpec, take_prefix
from earlyflow.features import MtsSample, write_dataset
from earlyflow.flows import FlowTable
from earlyflow.fourier import fft_1d, fft_2d
from earlyflow.model import MdtConfig, MdtModel, forward
from earlyflow.pcap import Transport, open_capture
from earlyflow.training import Hyperparams, evaluate, load_external_mts, train

from flow_oracle import brute_force_flows, table_flows_as_tuples
from gen_mts import amplitude_suite, frequency_suite
from gen_pcap import tcp_flag_tuple, tcp_frame, udp_frame, write_pcap
from gradcheck import assert_grads_match
from naive import naive_dft, naive_dft_2d
from test_autodiff import functional, rand


def rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-30)
    return np.abs(a - b).max() / scale


# ---------------------------------------------------------------------------
# 1. FFT oracle

def test_criterion_1_fft_oracle():
    start = time.time()
    rng = np.random.default_rng(1001)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
    lengths = primes + [1, 4, 6, 8, 9, 10, 12, 15, 16, 20, 24, 27, 32, 33,
                        36, 40, 44, 45, 48, 50, 52, 55, 56, 57, 58, 60, 62, 63, 64,
                        21, 22, 25, 26]
    assert len(lengths) >= 50
    for n in lengths[:50]:
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert rel_err(fft_1d(x), naive_dft(x)) < 1e-9
        assert rel_err(fft_1d(x, inverse=True), naive_dft(x, inverse=True)) < 1e-9
    for _ in range(10):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 14))
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        assert rel_err(fft_2d(m), naive_dft_2d(m)) < 1e-9
        assert rel_err(fft_2d(m, inverse=True), naive_dft_2d(m, inverse=True)) < 1e-9
    assert time.time() - start < 10.0


# ---------------------------------------------------------------------------
# 2. gradient suite

def _check_all_ops(seed):
    rng = np.random.default_rng(2000 + seed)
    m, k, n = (int(v) for v in rng.integers(2, 8, size=3))

    a, b = rand(rng, m, k), rand(rng, k, n)
    f_mn = functional(rng, (m, n))
    assert_grads_match(lambda: f_mn(ad.matmul(a, b)), [a, b])

    x, y = rand(rng, m, n), rand(rng, m, n)
    assert_grads_match(lambda: f_mn(ad.add(x, y)), [x, y])
    assert_grads_match(lambda: f_mn(ad.sub(x, y)), [x, y])
    assert_grads_match(lambda: f_mn(ad.mul(x, y)), [x, y])
    assert_grads_match(lambda: f_mn(ad.scale(x, -0.7)), [x])
    bias = rand(rng, n)
    assert_grads_match(lambda: f_mn(ad.add_bias(x, bias)), [x, bias])
    assert_grads_match(lambda: f_mn(ad.transpose(ad.transpose(x))), [x])
    f_flat = functional(rng, (m * n,))
    assert_grads_match(lambda: f_flat(ad.reshape(x, (m * n,))), [x])
    f_cat = functional(rng, (2 * m, n))
    assert_grads_match(lambda: f_cat(ad.concat([x, y], axis=0)), [x, y])
    f_sl = functional(rng, (m, n - 1))
    assert_grads_match(lambda: f_sl(ad.slice_axis(x, 1, 1, n - 1)), [x])
    r = param(rng.normal(size=(m, n)) + np.sign(rng.normal(size=(m, n))) * 0.2)
    assert_grads_match(lambda: f_mn(ad.relu(r)), [r])
    assert_grads_match(lambda: f_mn(ad.softmax(x, axis=-1)), [x])
    gain, beta = rand(rng, n), rand(rng, n)
    assert_grads_match(lambda: f_mn(ad.layer_norm(x, gain, beta)), [x, gain, beta])
    w2, b2 = rand(rng, n, k), rand(rng, k)
    f_mk = functional(rng, (m, k))
    assert_grads_match(lambda: f_mk(ad.linear(x, w2, b2)), [x, w2, b2])
    f_n = functional(rng, (n,))
    assert_grads_match(lambda: f_n(ad.mean_pool(x, axis=0)), [x])
    targets = rng.integers(0, n, size=m)
    weights = rng.uniform(0.5, 2.0, size=n)
    assert_grads_match(lambda: cross_entropy(x, targets, class_weights=weights), [x])

    re_t, im_t = rand(rng, m, n), rand(rng, m, n)
    cr, ci = const(rng.normal(size=(m, n))), const(rng.normal(size=(m, n)))
    for inverse in (False, True):
        def fft_loss(inv=inverse):
            orr, oi = ad.fft_pair(re_t, im_t, axis=0, inverse=inv)
            return ad.sum_all(ad.add(ad.mul(orr, cr), ad.mul(oi, ci)))
        assert_grads_match(fft_loss, [re_t, im_t])


def test_criterion_2_gradient_suite():
    start = time.time()
    for seed in range(10):
        _check_all_ops(seed)

    # full multi-domain forward at the toy size
    for seed in range(10):
        rng = np.random.default_rng(2100 + seed)
        config = MdtConfig(d_in=13, n_classes=3, d_model=8, n_heads=2, n_blocks=1,
                           d_ff=16, max_len=8, dropout=0.0, use_frequency_heads=True)
        model = MdtModel(config, seed=seed)
        x = rng.normal(size=(5, 13))
        target = int(rng.integers(0, 3))

        def loss():
            logits, _ = forward(model, x)
            return cross_entropy(logits, target)

        assert_grads_match(loss, model.parameters(), tol=1e-4)
    assert time.time() - start < 120.0


# ---------------------------------------------------------------------------
# 3. flow assembly vs brute-force oracle

def _capture_to_frames(records):
    frames = []
    for r in records:
        src = ".".join(str((r.src_ip >> s) & 0xFF) for s in (24, 16, 8, 0))
        dst = ".".join(str((r.dst_ip >> s) & 0xFF) for s in (24, 16, 8, 0))
        if r.transport is Transport.TCP:
            names = [n for n, bit in zip(
                ("ns", "cwr", "ece", "urg", "ack", "psh", "rst", "syn", "fin", "reserved"),
                r.tcp_flags) if bit]
            payload = b"\x00" * (r.total_bytes - 40)
            frames.append((r.timestamp, tcp_frame(src, r.src_port, dst, r.dst_port,
                                                  flags=names, payload=payload)))
        else:
            payload = b"\x00" * (r.total_bytes - 28)
            frames.append((r.timestamp, udp_frame(src, r.src_port, dst, r.dst_port,
                                                  payload=payload)))
    return frames


def test_criterion_3_flow_assembly_oracle(tmp_path):
    from flow_oracle import random_capture_records

    window = 120.0
    for case in range(100):
        rng = np.random.default_rng(3000 + case)
        n_packets = int(rng.integers(50, 600))
        generated = random_capture_records(rng, n_packets,
                                           n_conversations=int(rng.integers(2, 8)),
                                           window_secs=window)
        path = tmp_path / f"case{case}.pcap"
        write_pcap(path, _capture_to_frames(generated))

        with open_capture(path) as reader:
            parsed = list(reader)
        assert len(parsed) == len(generated)

        table = FlowTable(window_secs=window)
        for record in parsed:
            table.assign_packet(record)
        got = table_flows_as_tuples(table.flush())
        want = brute_force_flows(parsed, window)
        assert got == want, f"case {case}: assembly disagrees with oracle"
        assert sum(len(f[4]) for f in got) == len(parsed)


# ---------------------------------------------------------------------------
# 4. earliness exactness and properties

def _burst_fixture():
    # 10 packets spanning 0.10 s, the shell/reverse_tcp payload shape
    ts = np.linspace(0.0, 0.10, 10)
    values = np.zeros((10, 13))
    values[1:, 1] = np.diff(ts)
    return MtsSample(flow_id="burst", values=values, timestamps=ts, label="x")


def test_criterion_4_earliness_exactness():
    sample = _burst_fixture()
    _, by_count = take_prefix(sample, PrefixSpec.by_count(5))
    assert by_count.earliness == pytest.approx(0.5, abs=1e-12)
    _, by_dur = take_prefix(sample, PrefixSpec.by_duration(0.10))
    assert by_dur.duration_earliness == pytest.approx(1.0, abs=1e-12)
    assert by_dur.earliness == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(4000)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        gaps = rng.uniform(0.0, 0.4, size=n)
        gaps[0] = 0.0
        ts = 50.0 + np.cumsum(gaps)
        sample = MtsSample(flow_id="s", values=np.zeros((n, 3)), timestamps=ts, label="x")

        last = 0.0
        for count in (1, max(1, n // 2), n, n + 3):
            _, rep = take_prefix(sample, PrefixSpec.by_count(count))
            assert rep.earliness >= last
            last = rep.earliness
        assert last == 1.0

        total = float(ts[-1] - ts[0])
        last_de = 0.0
        for t in (0.0, total / 3, total / 2, total, total + 1.0):
            _, rep = take_prefix(sample, PrefixSpec.by_duration(t))
            assert rep.duration_earliness >= last_de - 1e-12
            last_de = rep.duration_earliness

        for spec in (PrefixSpec.by_count(max(1, n // 2)),
                     PrefixSpec.by_duration(total / 2)):
            prefix, r1 = take_prefix(sample, spec)
            again, r2 = take_prefix(prefix, spec)
            assert np.array_equal(prefix.values, again.values)
            assert (r1.packets_used, r1.duration_used) == (r2.packets_used, r2.duration_used)


# ---------------------------------------------------------------------------
# 5. layer-norm two-dimension pathology

def test_criterion_5_layer_norm_pathology():
    rng = np.random.default_rng(5000)
    gain, bias = const(np.ones(2)), const(np.zeros(2))
    targets = (np.array([0.0, 0.0]), np.array([1.0, -1.0]), np.array([-1.0, 1.0]))
    rows = [np.array([v, v]) for v in rng.uniform(-5, 5, size=20)]
    while len(rows) < 220:
        row = rng.uniform(-5, 5, size=2)
        if abs(row[0] - row[1]) >= 0.1:  # keep eps negligible against the gap
            rows.append(row)
    for row in rows:
        out = ad.layer_norm(const(row[None, :]), gain, bias, eps=1e-12).data[0]
        best = min(np.abs(out - t).max() for t in targets)
        assert best < 1e-9, f"row {row} normalized to {out}"


# ---------------------------------------------------------------------------
# 6. toy classification on frequency signatures

def test_criterion_6_toy_classification():
    scores = []
    for seed in range(5):
        start = time.time()
        samples = frequency_suite(seed, n=600, length=64, d=13)
        config = MdtConfig(d_in=13, n_classes=3, d_model=32, n_heads=4, n_blocks=2,
                           d_ff=64, max_len=16, dropout=0.1)
        model = MdtModel(config, seed=seed)
        hp = Hyperparams(max_epochs=60, patience=12)
        result = train(model, samples, PrefixSpec.by_count(16), hp, seed=seed)
        test_set = [samples[i] for i in result.test_ids]
        metrics, _, _ = evaluate(model, test_set, PrefixSpec.by_count(16), result.classes)
        scores.append(metrics.macro_f1)
        assert time.time() - start < 300.0, "single seed exceeded 5 minutes"
    median = sorted(scores)[2]
    print(f"\n  toy 3-class macro F1 per seed: {[f'{s:.3f}' for s in scores]}, median {median:.3f}")
    assert median >= 0.95


# ---------------------------------------------------------------------------
# 7. amplitude-discrimination ablation

def _amplitude_run(seed, multi_domain):
    samples = amplitude_suite(seed, n=400, length=32, d=2, amps=(1.0, 2.0))
    # the plain variant runs at the raw feature width, where the
    # two-dimension normalization collapse applies; the multi-domain variant
    # uses its projected width (see decisions ledger for the measured
    # comparison behind this pairing)
    d_model = 16 if multi_domain else 2
    config = MdtConfig(d_in=2, n_classes=2, d_model=d_model, n_heads=2, n_blocks=1,
                       d_ff=2 * d_model, max_len=24, dropout=0.1,
                       use_frequency_heads=multi_domain)
    model = MdtModel(config, seed=seed)
    hp = Hyperparams(max_epochs=100, patience=25, learning_rate=3e-3)
    result = train(model, samples, PrefixSpec.by_count(24), hp, seed=seed)
    test_set = [samples[i] for i in result.test_ids]
    metrics, _, _ = evaluate(model, test_set, PrefixSpec.by_count(24), result.classes)
    return metrics.macro_f1


def test_criterion_7_amplitude_ablation():
    multi = [_amplitude_run(seed, True) for seed in range(5)]
    plain = [_amplitude_run(seed, False) for seed in range(5)]
    med_multi = sorted(multi)[2]
    med_plain = sorted(plain)[2]
    print(f"\n  amplitude task: multi-domain {[f'{s:.2f}' for s in multi]} median {med_multi:.3f}; "
          f"plain {[f'{s:.2f}' for s in plain]} median {med_plain:.3f}")
    assert med_multi >= 0.90
    assert med_plain <= 0.65


# ---------------------------------------------------------------------------
# 8. optional external datasets

def _external_run(data_dir, expect, prefix_len, seeds):
    samples = load_external_mts(data_dir, expect=expect)
    best = 0.0
    for seed in seeds:
        classes = sorted({s.label for s in samples})
        config = MdtConfig(d_in=samples[0].width, n_classes=len(classes),
                           d_model=32, n_heads=4, n_blocks=2, d_ff=64,
                           max_len=prefix_len, dropout=0.1)
        model = MdtModel(config, seed=seed)
        hp = Hyperparams(max_epochs=60, patience=12)
        result = train(model, samples, PrefixSpec.by_count(prefix_len), hp, seed=seed)
        test_set = [samples[i] for i in result.test_ids]
        metrics, _, _ = evaluate(model, test_set, PrefixSpec.by_count(prefix_len),
                                 result.classes)
        best = max(best, metrics.macro_f1)
    return best


@pytest.mark.skipif("EARLYFLOW_ECG_DIR" not in os.environ,
                    reason="set EARLYFLOW_ECG_DIR to run the ECG check")
def test_criterion_8_ecg():
    # earliness 0.06 of the maximum length 152 is a 9-packet prefix
    best = _external_run(os.environ["EARLYFLOW_ECG_DIR"], "ecg", 9, range(3))
    print(f"\n  ECG best-of-3 macro F1: {best:.3f}")
    assert best >= 0.75


@pytest.mark.skipif("EARLYFLOW_WAFER_DIR" not in os.environ,
                    reason="set EARLYFLOW_WAFER_DIR to run the Wafer check")
def test_criterion_8_wafer():
    # earliness 0.23 of the maximum length 198 is a 46-step prefix
    best = _external_run(os.environ["EARLYFLOW_WAFER_DIR"], "wafer", 46, range(3))
    print(f"\n  Wafer best-of-3 macro F1: {best:.3f}")
    assert best >= 0.90


# ---------------------------------------------------------------------------
# 9. CLI determinism

def test_criterion_9_cli_determinism(tmp_path):
    frames = []
    for i in range(6):
        src, sport, dst, dport = ("10.0.0.1", 5000, "10.0.0.2", 80)
        if i % 2:
            src, sport, dst, dport = ("10.0.0.2", 80, "10.0.0.1", 5000)
        frames.append((10.0 + 0.02 * i, tcp_frame(src, sport, dst, dport, flags=("ack",))))
    frames.append((11.0, udp_frame("10.0.0.3", 53, "10.0.0.4", 5353)))
    pcap_path = tmp_path / "det.pcap"
    write_pcap(pcap_path, frames)

    def run_extract(tag):
        out = tmp_path / f"ds_{tag}"
        assert cli_main(["extract", "--pcap", str(pcap_path), "--out", str(out)]) == 0
        return ((out / "flows.csv").read_bytes(), (out / "series.csv").read_bytes())

    assert run_extract("a") == run_extract("b")

    from gen_mts import separable_suite
    data_dir = tmp_path / "toy"
    write_dataset(separable_suite(0, n=40, length=10, d=4), data_dir)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"d_model": 8, "n_heads": 2, "n_blocks": 1, "d_ff": 16},
        "training": {"max_epochs": 2, "patience": 3},
    }), encoding="utf-8")

    def run_train(tag):
        ckpt = tmp_path / f"{tag}.ckpt"
        hist = tmp_path / f"{tag}.hist.csv"
        assert cli_main(["train", "--data", str(data_dir), "--prefix-packets", "4",
                         "--config", str(config), "--out", str(ckpt),
                         "--history", str(hist), "--seed", "5"]) == 0
        lat = tmp_path / f"{tag}.latents.csv"
        assert cli_main(["latents", "--data", str(data_dir), "--ckpt", str(ckpt),
                         "--prefix-packets", "4", "--out", str(lat)]) == 0
        ev = tmp_path / f"{tag}.eval.csv"
        assert cli_main(["eval", "--data", str(data_dir), "--ckpt", str(ckpt),
                         "--prefix-packets", "4", "--seed", "5",
                         "--out", str(ev)]) == 0
        return (ckpt.read_bytes(), (tmp_path / f"{tag}.ckpt.bin").read_bytes(),
                hist.read_bytes(), lat.read_bytes(), ev.read_bytes())

    assert run_train("r1") == run_train("r2")
