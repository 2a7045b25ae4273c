import json
import math

import numpy as np
import pytest

from earlyflow import autodiff as ad
from earlyflow import model as model_module
from earlyflow.autodiff import backward, const, cross_entropy, param, sum_all, zero_grad
from earlyflow.earliness import PrefixSpec
from earlyflow.features import MtsSample
from earlyflow.model import (
    MdMhaParams, MdtConfig, MdtModel, encoder_block,
    export_latents, forward, forward_prefixes, ifft_augment, length_buckets,
    load_checkpoint, md_mha, predict, save_checkpoint,
)
from earlyflow.training import minibatch_gradients

from gradcheck import assert_grads_match
from naive import naive_dft, naive_dft_2d


def toy_config(**overrides):
    base = dict(d_in=13, n_classes=3, d_model=8, n_heads=2, n_blocks=1,
                d_ff=16, max_len=16, dropout=0.0, use_frequency_heads=True)
    base.update(overrides)
    return MdtConfig(**base)


# ---------------------------------------------------------------------------
# input augmentation

def test_ifft_augment_zero_input():
    out = ifft_augment(np.zeros((4, 3)))
    assert out.shape == (4, 9)
    assert np.all(out == 0.0)


def test_ifft_augment_constant_input():
    c = 3.25
    x = np.full((5, 4), c)
    out = ifft_augment(x)
    real = out[:, 4:8]
    imag = out[:, 8:12]
    # DC-only spectrum: the (0,0) bin carries the sum scaled by 1/(L*d) = c
    assert real[0, 0] == pytest.approx(c, abs=1e-12)
    real_rest = real.copy()
    real_rest[0, 0] = 0.0
    assert np.abs(real_rest).max() < 1e-12
    assert np.abs(imag).max() < 1e-12


def test_ifft_augment_matches_naive_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 13))
    out = ifft_augment(x)
    want = naive_dft_2d(x, inverse=True)
    assert np.abs(out[:, :13] - x).max() == 0.0
    assert np.abs(out[:, 13:26] - want.real).max() < 1e-9
    assert np.abs(out[:, 26:] - want.imag).max() < 1e-9


def test_ifft_augment_stack_matches_per_matrix():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(3, 5, 13))
    out = ifft_augment(x)
    for b in range(3):
        assert np.abs(out[b] - ifft_augment(x[b])).max() < 1e-12


def test_ifft_augment_scale_sensitivity_vs_layer_norm():
    # scaled inputs are indistinguishable after plain layer normalization but
    # keep distinct augmented representations
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 2))
    gain, bias = const(np.ones(2)), const(np.zeros(2))
    normalized_a = ad.layer_norm(const(x), gain, bias, eps=1e-12).data
    normalized_b = ad.layer_norm(const(1.6 * x), gain, bias, eps=1e-12).data
    assert np.abs(normalized_a - normalized_b).max() < 1e-9
    assert np.abs(ifft_augment(1.6 * x) - ifft_augment(x)).max() > 1e-3


# ---------------------------------------------------------------------------
# multi-domain attention

def make_attn_params(rng, d_model, n_heads, use_freq=True):
    dv = d_model // n_heads
    width = 2 * n_heads * dv if use_freq else n_heads * dv
    return MdMhaParams(
        w_q=param(rng.normal(size=(d_model, d_model)) * 0.3),
        w_k=param(rng.normal(size=(d_model, d_model)) * 0.3),
        w_v=param(rng.normal(size=(d_model, d_model)) * 0.3),
        w_o=param(rng.normal(size=(width, d_model)) * 0.3),
    )


def straight_line_mdmha(z, wq, wk, wv, wo, n_heads, use_freq=True):
    """Independent re-derivation: explicit per-head loops and naive DFT."""
    length, d_model = z.shape
    dv = d_model // n_heads
    q, k, v = z @ wq, z @ wk, z @ wv

    def softmax_rows(s):
        e = np.exp(s - s.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    heads = []
    for i in range(n_heads):
        qi = q[:, i * dv:(i + 1) * dv]
        ki = k[:, i * dv:(i + 1) * dv]
        vi = v[:, i * dv:(i + 1) * dv]
        a = softmax_rows(qi @ ki.T / math.sqrt(d_model))
        heads.append(a @ vi)
    if use_freq:
        for i in range(n_heads):
            qi = q[:, i * dv:(i + 1) * dv]
            ki = k[:, i * dv:(i + 1) * dv]
            vi = v[:, i * dv:(i + 1) * dv]
            qf = np.stack([naive_dft(qi[:, c]) for c in range(dv)], axis=1)
            kf = np.stack([naive_dft(ki[:, c]) for c in range(dv)], axis=1)
            vf = np.stack([naive_dft(vi[:, c]) for c in range(dv)], axis=1)
            scores = np.real(qf @ kf.conj().T) / math.sqrt(d_model)
            heads.append(softmax_rows(scores) @ vf.real)
    return np.concatenate(heads, axis=1) @ wo


def test_md_mha_matches_straight_line_oracle():
    # each sequence of the stack attends only to itself
    rng = np.random.default_rng(2)
    z = rng.normal(size=(3, 4, 8))
    p = make_attn_params(rng, 8, 2)
    got = md_mha(const(z), p, n_heads=2).data
    for b in range(3):
        want = straight_line_mdmha(z[b], p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data, 2)
        assert np.abs(got[b] - want).max() < 1e-9


def test_md_mha_vanilla_matches_straight_line_oracle():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5, 8))
    p = make_attn_params(rng, 8, 2, use_freq=False)
    got = md_mha(const(z[None]), p, n_heads=2, use_frequency=False).data[0]
    want = straight_line_mdmha(z, p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data, 2,
                               use_freq=False)
    assert np.abs(got - want).max() < 1e-9


def test_md_mha_length_one_passes_values_through():
    # a single position attends to itself with weight 1, and the length-1
    # transform is the identity, so output = concat(V, V) @ w_o
    rng = np.random.default_rng(4)
    z = rng.normal(size=(1, 8))
    p = make_attn_params(rng, 8, 2)
    got = md_mha(const(z[None]), p, n_heads=2).data[0]
    v = z @ p.w_v.data
    want = np.concatenate([v, v], axis=1) @ p.w_o.data
    assert np.abs(got - want).max() < 1e-12


@pytest.fixture
def softmax_outputs(monkeypatch):
    """Data of every ad.softmax result, in call order: each md_mha call adds
    its time scores, then its frequency scores."""
    recorded = []
    softmax = ad.softmax

    def recording(*args, **kwargs):
        out = softmax(*args, **kwargs)
        recorded.append(out.data)
        return out

    monkeypatch.setattr(ad, "softmax", recording)
    return recorded


def test_md_mha_identical_rows_give_uniform_scores(softmax_outputs):
    rng = np.random.default_rng(5)
    row = rng.normal(size=8)
    z = np.tile(row, (1, 6, 1))
    p = make_attn_params(rng, 8, 2)
    md_mha(const(z), p, n_heads=2)
    assert np.abs(softmax_outputs[0] - 1.0 / 6).max() < 1e-12
    # time-head output rows are identical (frequency heads see the DC bin
    # concentration instead, so they are exempt)
    time_only = MdMhaParams(p.w_q, p.w_k, p.w_v, param(p.w_o.data[:8]))
    out = md_mha(const(z), time_only, n_heads=2, use_frequency=False).data[0]
    assert np.abs(out - out[0]).max() < 1e-12


def test_md_mha_score_rows_sum_to_one(softmax_outputs):
    rng = np.random.default_rng(6)
    z = rng.normal(size=(1, 5, 8))
    p = make_attn_params(rng, 8, 2)
    md_mha(const(z), p, n_heads=2)
    time_scores, freq_scores = softmax_outputs
    assert np.allclose(time_scores.sum(axis=-1), 1.0)
    assert np.allclose(freq_scores.sum(axis=-1), 1.0)


def fft_pair_md_mha(z, params, n_heads, use_frequency=True):
    """Reference for md_mha's frequency heads: q, k and v each transformed
    per head along the sequence axis by ad.fft_pair."""
    assert use_frequency
    batch, length, d_model = z.shape
    dv = d_model // n_heads
    scaling = 1.0 / math.sqrt(d_model)

    def heads(w):
        return ad.transpose(ad.reshape(ad.matmul(z, w), (batch, length, n_heads, dv)),
                            (0, 2, 1, 3))

    def merge(t):
        return ad.reshape(ad.transpose(t, (0, 2, 1, 3)), (batch, length, d_model))

    def keys(t):
        return ad.transpose(t, (0, 1, 3, 2))

    q, k, v = heads(params.w_q), heads(params.w_k), heads(params.w_v)
    time_scores = ad.softmax(ad.scale(ad.matmul(q, keys(k)), scaling))
    q_re, q_im = ad.fft_pair(q, None, axis=2)
    k_re, k_im = ad.fft_pair(k, None, axis=2)
    v_re, _ = ad.fft_pair(v, None, axis=2)
    cross = ad.add(ad.matmul(q_re, keys(k_re)), ad.matmul(q_im, keys(k_im)))
    freq_scores = ad.softmax(ad.scale(cross, scaling))
    merged = ad.concat([merge(ad.matmul(time_scores, v)), merge(ad.matmul(freq_scores, v_re))],
                       axis=2)
    return ad.matmul(merged, params.w_o)


RAGGED_LENGTHS = [1, 2, 17, 64, 65, 100, 257]


def test_md_mha_matches_fft_pair_path_ragged(softmax_outputs):
    # lengths past 64 as well as short ones; the reference transforms q, k
    # and v through fft_pair instead of the shared real DFT kernel
    rng = np.random.default_rng(30)
    for length in RAGGED_LENGTHS:
        z = const(rng.normal(size=(2, length, 8)))
        p = make_attn_params(rng, 8, 2)
        softmax_outputs.clear()
        got = md_mha(z, p, n_heads=2).data
        want = fft_pair_md_mha(z, p, n_heads=2).data
        assert np.abs(got - want).max() < 1e-9
        got_time, got_freq, want_time, want_freq = softmax_outputs
        assert np.abs(got_time - want_time).max() < 1e-9, length
        assert np.abs(got_freq - want_freq).max() < 1e-9, length


def test_forward_matches_fft_pair_path_ragged(monkeypatch):
    rng = np.random.default_rng(31)
    model = MdtModel(toy_config(max_len=300), seed=12)
    prefixes = [rng.normal(size=(n, 13)) for n in RAGGED_LENGTHS for _ in range(2)]
    logits, latents = forward_prefixes(model, prefixes)
    monkeypatch.setattr(model_module, "md_mha", fft_pair_md_mha)
    want_logits, want_latents = forward_prefixes(model, prefixes)
    assert np.abs(logits - want_logits).max() < 1e-9
    assert np.abs(latents - want_latents).max() < 1e-9


def test_md_mha_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    for length in (4, 67):
        z = param(rng.normal(size=(2, length, 8)) * 0.5)
        p = make_attn_params(rng, 8, 2)
        c = const(rng.normal(size=(2, length, 8)))
        tensors = [z, p.w_q, p.w_k, p.w_v, p.w_o]

        def loss():
            return sum_all(ad.mul(md_mha(z, p, n_heads=2), c))

        assert_grads_match(loss, tensors)


# ---------------------------------------------------------------------------
# encoder block and full forward

def test_encoder_block_shape_and_composition():
    rng = np.random.default_rng(10)
    config = toy_config(n_blocks=2)
    model = MdtModel(config, seed=0)
    z = const(rng.normal(size=(1, 5, 8)))
    out1 = encoder_block(z, model.blocks[0], config)
    assert out1.data.shape == (1, 5, 8)
    assert np.isfinite(out1.data).all()
    out2 = encoder_block(out1, model.blocks[1], config)

    # the forward pipeline applies the same blocks in sequence
    chained = z
    for block in model.blocks:
        chained = encoder_block(chained, block, config)
    assert np.abs(chained.data - out2.data).max() == 0.0


def test_encoder_block_gradient_wrt_wq():
    # a plain sum cancels through the final layer norm (rows are centered),
    # so weight the output with a fixed random functional
    rng = np.random.default_rng(11)
    config = toy_config()
    model = MdtModel(config, seed=1)
    z = const(rng.normal(size=(1, 4, 8)))
    c = const(rng.normal(size=(1, 4, 8)))
    block = model.blocks[0]

    def loss():
        return sum_all(ad.mul(encoder_block(z, block, config), c))

    assert_grads_match(loss, [block.attn.w_q], tol=1e-4)


def test_forward_single_row():
    model = MdtModel(toy_config(), seed=2)
    logits, latent = forward(model, np.random.default_rng(0).normal(size=(1, 13)))
    assert logits.data.shape == (3,)
    assert latent.data.shape == (8,)
    assert np.isfinite(logits.data).all()


def test_batched_forward_matches_single_prefix_ragged():
    # lengths 1-40 with repeats, so every length bucket holds several prefixes
    rng = np.random.default_rng(16)
    lengths = list(range(1, 41)) + list(rng.integers(1, 41, size=40))
    prefixes = [rng.normal(size=(n, 13)) for n in lengths]
    for use_freq in (True, False):
        model = MdtModel(toy_config(max_len=40, use_frequency_heads=use_freq), seed=11)
        logits, latents = forward_prefixes(model, prefixes)
        for i, x in enumerate(prefixes):
            one_logits, one_latent = forward(model, x)
            assert np.abs(logits[i] - one_logits.data).max() < 1e-9
            assert np.abs(latents[i] - one_latent.data).max() < 1e-9


def test_length_buckets_group_equal_lengths_under_cap():
    lengths = [3, 5, 3, 129, 5, 3] + [129] * 20 + [3] * 40
    groups = length_buckets(lengths)
    # at most 32 per group; at attention length 130, 32 * 65^2 // 130^2 = 8
    assert [len(g) for g in groups] == [32, 11, 2, 8, 8, 5]
    assert groups[0][:4] == [0, 2, 5, 26] and groups[2] == [1, 4]
    assert sorted(i for g in groups for i in g) == list(range(len(lengths)))
    assert all(len({lengths[i] for i in g}) == 1 for g in groups)
    assert length_buckets([1000]) == [[0]]


def test_forward_rejects_overlong_prefix():
    model = MdtModel(toy_config(max_len=4), seed=4)
    with pytest.raises(ValueError):
        forward(model, np.zeros((5, 13)))


def test_forward_gradients_match_finite_differences_toy_config():
    for seed in range(2):
        rng = np.random.default_rng(20 + seed)
        model = MdtModel(toy_config(), seed=seed)
        x = rng.normal(size=(5, 13))
        params = model.parameters()

        def loss():
            logits, _ = forward(model, x)
            return cross_entropy(logits, 1)

        assert_grads_match(loss, params, tol=1e-4)


def test_vanilla_ablation_narrows_projection():
    wide = MdtModel(toy_config(), seed=0)
    slim = MdtModel(toy_config(use_frequency_heads=False), seed=0)
    # shared Q/K/V projections keep their size; only w_o and the input differ
    assert wide.params["blocks.0.attn.w_q"].data.shape == \
        slim.params["blocks.0.attn.w_q"].data.shape
    assert wide.params["blocks.0.attn.w_o"].data.shape == (16, 8)
    assert slim.params["blocks.0.attn.w_o"].data.shape == (8, 8)
    assert wide.params["input_proj.weight"].data.shape == (39, 8)
    assert slim.params["input_proj.weight"].data.shape == (13, 8)


def test_dropout_only_in_training_mode():
    rng = np.random.default_rng(13)
    model = MdtModel(toy_config(dropout=0.5), seed=5)
    x = rng.normal(size=(4, 13))
    a, _ = forward(model, x, training=False)
    b, _ = forward(model, x, training=False)
    assert np.array_equal(a.data, b.data)
    c, _ = forward(model, x, training=True, rng=np.random.default_rng(0))
    d, _ = forward(model, x, training=True, rng=np.random.default_rng(1))
    assert np.abs(c.data - d.data).max() > 0.0


# ---------------------------------------------------------------------------
# checkpoints and latents

def test_checkpoint_roundtrip(tmp_path):
    model = MdtModel(toy_config(), seed=6)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert again.config == model.config
    assert again.seed == model.seed
    for name in model.params:
        assert np.array_equal(again.params[name].data, model.params[name].data)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    assert manifest["parameters"][0]["name"] == "input_proj.weight"


def test_checkpoint_bytes_deterministic(tmp_path):
    model = MdtModel(toy_config(), seed=7)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, a)
    save_checkpoint(model, b)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.ckpt.bin").read_bytes() == (tmp_path / "b.ckpt.bin").read_bytes()


def _edit_manifest(path, edit):
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _swap_w_o_shape(manifest):
    entry = next(e for e in manifest["parameters"] if e["name"] == "blocks.0.attn.w_o")
    entry["shape"] = entry["shape"][::-1]


@pytest.mark.parametrize("edit", [
    lambda m: m["config"].update(bogus_knob=1),
    lambda m: m.pop("parameters"),
    _swap_w_o_shape,
], ids=["unknown_config_key", "missing_parameters", "transposed_shape"])
def test_checkpoint_manifest_mismatch_rejected(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(MdtModel(toy_config(), seed=12), path)
    _edit_manifest(path, edit)
    with pytest.raises(ValueError, match="model.ckpt"):
        load_checkpoint(path)


def sample_of(rng, n, label="x"):
    ts = np.cumsum(rng.uniform(0, 0.1, size=n)) + 100.0
    return MtsSample(flow_id=f"f{n}", values=rng.normal(size=(n, 13)),
                     timestamps=ts, label=label)


def test_export_latents_empty(tmp_path):
    model = MdtModel(toy_config(), seed=8)
    out = tmp_path / "latents.csv"
    export_latents(model, [], PrefixSpec.by_count(4), out)
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("flow_id,label,latent_0")


def test_export_latents_one_row(tmp_path):
    rng = np.random.default_rng(14)
    model = MdtModel(toy_config(), seed=9)
    out = tmp_path / "latents.csv"
    export_latents(model, [sample_of(rng, 6)], PrefixSpec.by_count(4), out)
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2
    assert len(lines[1].split(",")) == 2 + 8


def test_eval_forwards_build_no_graph(monkeypatch):
    rng = np.random.default_rng(32)
    model = MdtModel(toy_config(max_len=40), seed=13)
    lengths = [3, 5, 3, 20, 5, 3]
    prefixes = [rng.normal(size=(n, 13)) for n in lengths]
    graph_forward = model_module.forward
    outputs = []

    def recording_forward(*args, **kwargs):
        outputs.extend(graph_forward(*args, **kwargs))
        return outputs[-2:]

    monkeypatch.setattr(model_module, "forward", recording_forward)
    logits, latents = forward_prefixes(model, prefixes)
    for group in length_buckets(lengths):
        want_logits, want_latents = graph_forward(model, np.stack([prefixes[i] for i in group]))
        assert np.array_equal(logits[group], want_logits.data)
        assert np.array_equal(latents[group], want_latents.data)
    for x in prefixes:
        index = predict(model, x)
        want_logits, _ = graph_forward(model, x)
        assert np.array_equal(outputs[-2].data, want_logits.data)
        assert index == int(np.argmax(want_logits.data))
    assert all(not t.requires_grad and t._parents == () for t in outputs)
    assert all(p.grad is None for p in model.parameters())


def test_training_step_after_eval_gets_gradients():
    rng = np.random.default_rng(33)
    model = MdtModel(toy_config(), seed=14)
    prefixes = [rng.normal(size=(4, 13)) for _ in range(3)]
    forward_prefixes(model, prefixes)
    predict(model, prefixes[0])
    minibatch_gradients(model, prefixes, np.array([0, 1, 2]), np.ones(3))
    assert all(p.grad is not None for p in model.parameters())


def test_predict_returns_class_index():
    model = MdtModel(toy_config(), seed=10)
    idx = predict(model, np.zeros((2, 13)))
    assert idx in (0, 1, 2)
