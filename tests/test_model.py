import csv
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from earlyflow import autodiff as ad, fourier
from earlyflow import model as model_module
from earlyflow.autodiff import backward, const, cross_entropy, param, sum_all, zero_grad
from earlyflow.earliness import BY_COUNT, PrefixSpec
from earlyflow.features import MtsSample
from earlyflow.model import (
    ADAM_TEMPORARY_COPIES, ARRAY_OVERHEAD_VALUES, ATTENTION_CELL_VALUES, BLOCK_ROW_FF_VALUES,
    BLOCK_ROW_VALUES, DFT_CACHE_CELL_VALUES, FULL_ATTENTION_HEAD_CELL_VALUES, MAX_CONFIG_VALUES,
    HEAD_QUERIES, MAX_GROUP, PARAMETER_COPIES, ROW_VALUES, TRAINING_COPIES,
    BlockParams, MdMhaParams, MdtConfig, MdtModel, config_values, encoder_block, export_latents,
    forward, forward_prefixes, ifft_augment, length_buckets, load_checkpoint, md_mha,
    parameter_layout, predict, save_checkpoint,
)
from earlyflow.training import Hyperparams, minibatch_gradients, train

from gradcheck import assert_grads_match
from naive import naive_dft, naive_dft_2d, naive_encoder_block, naive_md_mha, stacked_matmul


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
    got = md_mha(const(z[None]), p, n_heads=2).data[0]
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
    """A copy of every buffer ad.softmax_inplace normalizes, in call order.
    A fused md_mha call writes one (batch, 2 * n_heads, T, T) buffer: time
    heads, then frequency heads (split them with time_and_freq). Each
    ad.softmax call, as in the fft_pair reference, adds one buffer of its own."""
    recorded = []
    softmax_inplace = ad.softmax_inplace

    def recording(*args, **kwargs):
        out = softmax_inplace(*args, **kwargs)
        recorded.append(out.copy())
        return out

    monkeypatch.setattr(ad, "softmax_inplace", recording)
    return recorded


def time_and_freq(scores, n_heads):
    """Time-head and frequency-head halves of a fused md_mha score buffer."""
    assert scores.shape[1] == 2 * n_heads
    return scores[:, :n_heads], scores[:, n_heads:]


def test_md_mha_identical_rows_give_uniform_scores(softmax_outputs):
    rng = np.random.default_rng(5)
    row = rng.normal(size=8)
    z = np.tile(row, (1, 6, 1))
    p = make_attn_params(rng, 8, 2)
    md_mha(const(z), p, n_heads=2)
    time_scores, _ = time_and_freq(softmax_outputs[0], 2)
    assert np.abs(time_scores - 1.0 / 6).max() < 1e-12
    # time-head output rows are identical (frequency heads see the DC bin
    # concentration instead, so they are exempt)
    time_only = MdMhaParams(p.w_q, p.w_k, p.w_v, param(p.w_o.data[:8]))
    out = md_mha(const(z), time_only, n_heads=2).data[0]
    assert np.abs(out - out[0]).max() < 1e-12


def test_md_mha_score_rows_sum_to_one(softmax_outputs):
    rng = np.random.default_rng(6)
    z = rng.normal(size=(1, 5, 8))
    p = make_attn_params(rng, 8, 2)
    md_mha(const(z), p, n_heads=2)
    (scores,) = softmax_outputs
    time_scores, freq_scores = time_and_freq(scores, 2)
    assert np.allclose(time_scores.sum(axis=-1), 1.0)
    assert np.allclose(freq_scores.sum(axis=-1), 1.0)


def fft_pair_md_mha(z, params, n_heads, queries=None):
    """Reference for md_mha's frequency heads: q, k and v each transformed
    per head along the sequence axis by ad.fft_pair. It attends from every
    position whatever queries says; forward reads only the rows md_mha
    computes."""
    batch, length, d_model = z.shape
    assert params.w_o.shape[0] == 2 * d_model
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
    time_scores = ad.softmax(ad.scale(stacked_matmul(q, keys(k)), scaling))
    q_re, q_im = ad.fft_pair(q, None, axis=2)
    k_re, k_im = ad.fft_pair(k, None, axis=2)
    v_re, _ = ad.fft_pair(v, None, axis=2)
    cross = ad.add(stacked_matmul(q_re, keys(k_re)), stacked_matmul(q_im, keys(k_im)))
    freq_scores = ad.softmax(ad.scale(cross, scaling))
    merged = ad.concat([merge(stacked_matmul(time_scores, v)),
                        merge(stacked_matmul(freq_scores, v_re))], axis=2)
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
        scores, want_time, want_freq = softmax_outputs
        got_time, got_freq = time_and_freq(scores, 2)
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


def attention_and_grads(attention, z, p, weights, n_heads=2):
    """Output of attention(z, p) and the grads of sum(output * weights) with
    respect to z, w_q, w_k, w_v and w_o."""
    tensors = [z, p.w_q, p.w_k, p.w_v, p.w_o]
    zero_grad(tensors)
    out = attention(z, p, n_heads)
    backward(sum_all(ad.mul(out, weights)))
    return [out.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("use_freq", [True, False])
@pytest.mark.parametrize("batch", [1, 3])
def test_md_mha_matches_graph_oracle_with_grads(batch, use_freq):
    rng = np.random.default_rng(40 + batch)
    for length in RAGGED_LENGTHS:
        z = param(rng.normal(size=(batch, length, 8)))
        p = make_attn_params(rng, 8, 2, use_freq)
        weights = const(rng.normal(size=(batch, length, 8)))
        got = attention_and_grads(md_mha, z, p, weights)
        want = attention_and_grads(naive_md_mha, z, p, weights)
        for name, a, b in zip(("out", "z", "w_q", "w_k", "w_v", "w_o"), got, want):
            assert np.abs(a - b).max() < 1e-9, (length, name)


@pytest.mark.parametrize("queries", [None, HEAD_QUERIES])
@pytest.mark.parametrize("use_freq", [True, False])
@pytest.mark.parametrize("batch,length", [(1, 17), (32, 17), (4, 65), (1, 234)])
def test_md_mha_equals_graph_oracle_bit_for_bit(batch, length, use_freq, queries):
    # the fused node makes the graph's products and sums in the graph's
    # order, so its output and grads can be compared byte for byte
    rng = np.random.default_rng(43)
    z = param(rng.normal(size=(batch, length, 64)))
    p = make_attn_params(rng, 64, 4, use_freq)
    weights = const(rng.normal(size=(batch, queries or length, 64)))

    def attend(attention):
        return lambda z, p, n_heads: attention(z, p, n_heads, queries)

    got = attention_and_grads(attend(md_mha), z, p, weights, n_heads=4)
    want = attention_and_grads(attend(naive_md_mha), z, p, weights, n_heads=4)
    for name, a, b in zip(("out", "z", "w_q", "w_k", "w_v", "w_o"), got, want):
        assert a.tobytes() == b.tobytes(), name


def leading_rows_and_full(z, p, n_heads, queries):
    """md_mha attending from the first `queries` rows, and from every row,
    each with its grads under an upstream grad that is nonzero only in row 0,
    the one row the classification head reads."""
    upstream = np.zeros(z.shape)
    upstream[:, 0] = np.random.default_rng(44).normal(size=(z.shape[0], z.shape[2]))

    def leading(z, p, n_heads):
        return md_mha(z, p, n_heads, queries)

    return (attention_and_grads(leading, z, p, const(upstream[:, :queries]), n_heads),
            attention_and_grads(md_mha, z, p, const(upstream), n_heads))


@pytest.mark.parametrize("use_freq", [True, False])
@pytest.mark.parametrize("batch", [1, 32])
def test_md_mha_leading_rows_equal_full_rows_bit_for_bit(batch, use_freq):
    # the criterion-6 shape: attending from two rows gives the full node's
    # first two rows, and the same grads when only those rows get one. The
    # grads of w_q and w_o sum 2 rows per sequence instead of 17 (15 of them
    # zero), which BLAS blocks differently at batch 32, so there they match
    # to an ulp
    rng = np.random.default_rng(45)
    z = param(rng.normal(size=(batch, 17, 32)))
    p = make_attn_params(rng, 32, 4, use_freq)
    got, want = leading_rows_and_full(z, p, 4, queries=2)
    assert got[0].shape == (batch, 2, 32)
    assert got[0].tobytes() == want[0][:, :2].tobytes()
    for name, a, b in zip(("z", "w_q", "w_k", "w_v", "w_o"), got[1:], want[1:]):
        if name in ("w_q", "w_o") and batch > 1:
            assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()
        else:
            assert a.tobytes() == b.tobytes(), name


@settings(max_examples=30)
@given(st.integers(1, 32), st.integers(2, 257), st.booleans())
def test_md_mha_leading_rows_match_full_rows(batch, length, use_freq):
    # past about 18 positions BLAS rounds the two-row product of the
    # upstream grad and w_o differently from the same rows of the full one,
    # and the softmax Jacobian's cancellation magnifies that in the grads of
    # w_q and w_k (up to 6.3e-12 of their largest entry at length 184);
    # forward groups hold at most MAX_GROUP_CELLS score cells, and so does
    # this batch
    batch = max(1, min(batch, model_module.MAX_GROUP_CELLS // length ** 2))
    rng = np.random.default_rng([batch, length])
    z = param(rng.normal(size=(batch, length, 32)))
    p = make_attn_params(rng, 32, 4, use_freq)
    got, want = leading_rows_and_full(z, p, 4, queries=2)
    assert np.abs(got[0] - want[0][:, :2]).max() <= 1e-12
    for name, a, b in zip(("z", "w_q", "w_k", "w_v", "w_o"), got[1:], want[1:]):
        tol = 1e-11 if name in ("w_q", "w_k") else 1e-12
        assert np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max()), name


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 20), st.booleans())
# BLAS rounds a product by its row count: at batch 4 and 250 positions the
# weight products of the key and value grads run over 3000 and 2000 rows
@example(4, 250, True)
def test_md_mha_head_rows_equal_graph_oracle_bit_for_bit(batch, length, use_freq):
    # md_mha projects queries on the HEAD_QUERIES rows alone; its output and
    # the grads of z and every weight keep the bits of the composition that
    # projects queries on those rows alone too
    rng = np.random.default_rng([batch, length, use_freq])
    z = param(rng.normal(size=(batch, length, 32)))
    p = make_attn_params(rng, 32, 4, use_freq)
    upstream = const(rng.normal(size=(batch, min(HEAD_QUERIES, length), 32)))

    def head_rows(attention):
        return lambda z, p, n_heads: attention(z, p, n_heads, HEAD_QUERIES)

    got = attention_and_grads(head_rows(md_mha), z, p, upstream, n_heads=4)
    want = attention_and_grads(head_rows(naive_md_mha), z, p, upstream, n_heads=4)
    for name, a, b in zip(("out", "z", "w_q", "w_k", "w_v", "w_o"), got, want):
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_md_mha_rejects_nonfinite_input(bad):
    rng = np.random.default_rng(42)
    p = make_attn_params(rng, 8, 2)
    z = rng.normal(size=(2, 5, 8))
    z[1, 3, 2] = bad
    for use_freq in (True, False):
        params = p if use_freq else make_attn_params(rng, 8, 2, use_freq=False)
        with pytest.raises(ValueError, match="non-finite"), np.errstate(invalid="ignore"):
            md_mha(const(z), params, n_heads=2)


@pytest.mark.parametrize("rows", [4, 12, 24, 32])
def test_md_mha_reads_head_families_off_w_o(rows):
    # w_o has d_model rows (time heads) or 2 * d_model (time and frequency)
    rng = np.random.default_rng(46)
    p = make_attn_params(rng, 8, 2)
    p.w_o = param(rng.normal(size=(rows, 8)))
    with pytest.raises(ValueError, match="w_o needs 8 or 16 rows, got"):
        md_mha(const(rng.normal(size=(1, 3, 8))), p, n_heads=2)


@pytest.mark.parametrize("queries", [None, HEAD_QUERIES])
@pytest.mark.parametrize("use_freq", [True, False])
def test_md_mha_gradients_match_finite_differences(use_freq, queries):
    rng = np.random.default_rng(9)
    for length in (4, 17, 67):
        z = param(rng.normal(size=(2, length, 8)) * 0.5)
        p = make_attn_params(rng, 8, 2, use_freq)
        rows = length if queries is None else queries
        c = const(rng.normal(size=(2, rows, 8)))
        tensors = [z, p.w_q, p.w_k, p.w_v, p.w_o]

        def loss():
            return sum_all(ad.mul(md_mha(z, p, n_heads=2, queries=queries), c))

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


def block_chain_and_grads(block_fn, z, model, rng, queries):
    """The model's blocks applied in turn by block_fn, the last attending
    from `queries` rows, and the grads of sum(output * weights) with respect
    to z and every block parameter, weights drawn dense so every row counts."""
    blocks = model.blocks
    tensors = [z] + [t for name, t in model.params.items() if name.startswith("blocks.")]
    zero_grad(tensors)
    out = z
    for i, block in enumerate(blocks):
        out = block_fn(out, block, model.config, rng, queries if i == len(blocks) - 1 else None)
    weights = const(np.random.default_rng(47).normal(size=out.shape))
    backward(sum_all(ad.mul(out, weights)))
    return [out.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("queries", [None, HEAD_QUERIES])
@pytest.mark.parametrize("with_rng", [False, True])
@pytest.mark.parametrize("use_freq", [True, False])
@pytest.mark.parametrize("n_blocks", [1, 2])
def test_encoder_block_equals_graph_oracle_bit_for_bit(n_blocks, use_freq, with_rng, queries):
    # the tail node makes the op graph's products and sums in its order and
    # draws the same dropout masks, so training on it gives the same bits
    config = MdtConfig(d_in=13, n_classes=3, d_model=32, n_heads=4, n_blocks=n_blocks, d_ff=64,
                       max_len=80, dropout=0.1, use_frequency_heads=use_freq)
    model = MdtModel(config, seed=48)
    for length in (17, 65):
        z = param(np.random.default_rng(length).normal(size=(3, length, 32)))
        results, draws = [], []
        for block_fn in (encoder_block, naive_encoder_block):
            rng = np.random.default_rng(49) if with_rng else None
            results.append(block_chain_and_grads(block_fn, z, model, rng, queries))
            draws.append(None if rng is None else rng.random())
        assert draws[0] == draws[1]
        for i, (got, want) in enumerate(zip(*results)):
            assert got.tobytes() == want.tobytes(), (length, i)


@pytest.mark.parametrize("use_freq", [True, False])
def test_forward_prefixes_head_rows_match_recorded_forward(use_freq):
    # forwards run the last block's output projection and tail on its
    # HEAD_QUERIES rows alone, whether or not they record a graph, so a
    # recorded forward of a length group has forward_prefixes's bytes.
    # Attention lengths 2, 17, 65, 191, 257 and max_len + 1.
    max_len = 300
    config = MdtConfig(d_in=13, n_classes=3, d_model=32, n_heads=4, n_blocks=2, d_ff=64,
                       max_len=max_len, use_frequency_heads=use_freq)
    model = MdtModel(config, seed=50)
    rng = np.random.default_rng(51)
    prefixes = [rng.normal(size=(n, 13)) for n in (1, 16, 64, 190, 256, max_len) for _ in range(2)]
    logits, latents = forward_prefixes(model, prefixes)
    for group in length_buckets([len(x) for x in prefixes]):
        want_logits, want_latents = forward(model, np.stack([prefixes[i] for i in group]))
        assert want_logits.requires_grad
        assert logits[group].tobytes() == want_logits.data.tobytes()
        assert latents[group].tobytes() == want_latents.data.tobytes()
    for i, x in enumerate(prefixes):
        # a lone prefix, recorded or not, has the bits of its row in its group
        want_logits, want_latent = forward(model, x)
        assert want_logits.data.tobytes() == logits[i].tobytes()
        assert want_latent.data.tobytes() == latents[i].tobytes()
        lone_logits, lone_latents = forward_prefixes(model, [x])
        assert lone_logits[0].tobytes() == logits[i].tobytes()
        assert lone_latents[0].tobytes() == latents[i].tobytes()
        assert predict(model, x) == np.argmax(logits[i])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64), st.sampled_from([1, 2, 8, 16, 32, 64]), st.integers(1, 8),
       st.integers(0, 2 ** 32 - 1))
def test_head_rows_have_the_bits_of_each_row_alone(rows, d_model, n_classes, seed):
    # BLAS's (rows, d) @ (d, c) product rounds by the row count; the head's
    # product must not, or a prefix's logits would depend on its group's size
    rng = np.random.default_rng(seed)
    latent = param(rng.normal(size=(rows, d_model)))
    w = param(rng.normal(size=(d_model, n_classes)))
    out = model_module.head_product(latent, w)
    for i in range(rows):
        alone = model_module.head_product(param(latent.data[i:i + 1]), w)
        assert alone.data.tobytes() == out.data[i:i + 1].tobytes(), i
    assert np.abs(out.data - latent.data @ w.data).max() <= 1e-12 * max(1.0, d_model)
    # its backward is matmul's, product for product
    g = rng.normal(size=(rows, n_classes))
    backward(ad.sum_all(ad.mul(out, const(g))))
    want_latent, want_w = param(latent.data), param(w.data)
    backward(ad.sum_all(ad.mul(ad.matmul(want_latent, want_w), const(g))))
    assert latent.grad.tobytes() == want_latent.grad.tobytes()
    assert w.grad.tobytes() == want_w.grad.tobytes()


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(1, 24), min_size=1, max_size=40), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_predict_has_the_bits_of_evaluates_rows_on_ragged_prefixes(lengths, use_freq, seed):
    # evaluate runs prefixes in length groups, predict one prefix alone: both
    # must give each prefix the same logits and latent, bit for bit
    rng = np.random.default_rng(seed)
    model = MdtModel(toy_config(n_classes=4, d_model=16, max_len=24,
                                use_frequency_heads=use_freq), seed=seed % 1000)
    prefixes = [rng.normal(size=(n, 13)) for n in lengths]
    logits, latents = forward_prefixes(model, prefixes)
    for i, x in enumerate(prefixes):
        lone_logits, lone_latents = forward_prefixes(model, [x])
        assert lone_logits.tobytes() == logits[i].tobytes(), i
        assert lone_latents.tobytes() == latents[i].tobytes(), i
        assert predict(model, x) == np.argmax(logits[i])


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


@settings(max_examples=40)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 9), st.integers(1, 9), st.booleans())
def test_parameter_layout_is_the_model_and_config_values_counts_it(
        d_in, n_classes, n_heads, head_width, n_blocks, d_ff, max_len, use_freq):
    config = MdtConfig(d_in=d_in, n_classes=n_classes, d_model=n_heads * head_width,
                       n_heads=n_heads, n_blocks=n_blocks, d_ff=d_ff, max_len=max_len,
                       use_frequency_heads=use_freq)
    layout = parameter_layout(config)
    model = MdtModel(config, seed=0)
    assert [(name, t.data.shape) for name, t in model.params.items()] == \
        [(name, shape) for name, shape, _ in layout]
    # every field holds the parameter its name names, whatever its position:
    # ln1_gain is ln1.gain, ff_w1 ff.w1, and attn's w_q attn.w_q
    pinned = {"input_proj.weight": model.input_w, "input_proj.bias": model.input_b,
              "cls_token": model.cls_token, "head.weight": model.head_w,
              "head.bias": model.head_b}
    for b, block in enumerate(model.blocks):
        for f in fields(MdMhaParams):
            pinned[f"blocks.{b}.attn.{f.name}"] = getattr(block.attn, f.name)
        for f in fields(BlockParams):
            if f.name != "attn":
                pinned[f"blocks.{b}.{f.name.replace('_', '.', 1)}"] = getattr(block, f.name)
    assert pinned.keys() == model.params.keys()
    assert all(tensor is model.params[name] for name, tensor in pinned.items())
    d_model, rows = config.d_model, max_len + 1
    per_row = ROW_VALUES * d_model + \
        n_blocks * (BLOCK_ROW_VALUES * d_model + BLOCK_ROW_FF_VALUES * d_ff)
    per_cell = ATTENTION_CELL_VALUES + DFT_CACHE_CELL_VALUES + \
        (n_blocks - 1) * FULL_ATTENTION_HEAD_CELL_VALUES * n_heads
    sizes = [math.prod(shape) for _, shape, _ in layout]
    # at attention lengths up to 65 a group holds MAX_GROUP prefixes
    assert config_values(config) == (PARAMETER_COPIES + TRAINING_COPIES) * sum(sizes) + \
        ARRAY_OVERHEAD_VALUES * len(layout) + ADAM_TEMPORARY_COPIES * max(sizes) + \
        max_len * d_model + MAX_GROUP * (rows * per_row + rows ** 2 * per_cell)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2, 4, 8]), st.integers(1, 8), st.integers(1, 6), st.integers(1, 4),
       st.integers(1, 96), st.integers(1, 13), st.booleans())
# narrow and long: the DFT kernels are the largest share of the charge
@example(1, 1, 1, 1, 400, 13, True)
def test_config_values_bound_a_training_step(n_heads, head_width, n_blocks, ff_factor, max_len,
                                             d_in, use_freq):
    # tracemalloc's peak over MdtModel and one training forward and backward
    # of a max_len prefix stays within the float64 values config_values charges
    d_model = n_heads * head_width
    config = MdtConfig(d_in=d_in, n_classes=3, d_model=d_model, n_heads=n_heads,
                       n_blocks=n_blocks, d_ff=ff_factor * d_model, max_len=max_len,
                       use_frequency_heads=use_freq)
    x = np.random.default_rng(0).normal(size=(max_len, d_in))
    tracemalloc.start()
    try:
        model = MdtModel(config, seed=0)
        minibatch_gradients(model, [x], np.array([0]), np.ones(3), np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * config_values(config)


def test_training_step_peak_at_the_benchmark_shape():
    # tracemalloc's peak over one minibatch_gradients call at the shape the
    # train_packets benchmark trains: 32 prefixes of 16 packets, d_model 32,
    # 2 blocks, dropout drawn. Backward frees each node's arrays once it has
    # run, and the last block keeps its query rows alone; a backward that
    # held the whole graph until it returned peaked at 9.6 MB
    config = MdtConfig(d_in=13, n_classes=3, d_model=32, n_heads=4, n_blocks=2, d_ff=64,
                       max_len=16, dropout=0.1)
    model = MdtModel(config, seed=0)
    rng = np.random.default_rng(0)
    prefixes = [rng.normal(size=(16, 13)) for _ in range(32)]
    targets = rng.integers(0, 3, size=32)

    def step():
        zero_grad(model.parameters())
        minibatch_gradients(model, prefixes, targets, np.ones(3), np.random.default_rng(1))

    step()   # builds the cached DFT kernels, which later steps reuse
    zero_grad(model.parameters())
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7.5e6


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([1, 2, 4, 8]), st.integers(1, 32), st.integers(1, 3), st.integers(1, 4),
       st.one_of(st.integers(1, 4), st.integers(1, 64)), st.integers(1, 13), st.booleans(),
       st.integers(2, 20), st.integers(1, 32))
# wide and short: the parameter copies outweigh the activations
@example(8, 32, 2, 2, 1, 13, True, 20, 1)
def test_config_values_bound_one_epoch_of_train(n_heads, head_width, n_blocks, ff_factor,
                                                max_len, d_in, use_freq, n_samples, batch_size):
    # tracemalloc's peak over MdtModel and a one-epoch train on up to 20
    # max_len samples stays within the float64 values config_values charges
    d_model = n_heads * head_width
    config = MdtConfig(d_in=d_in, n_classes=2, d_model=d_model, n_heads=n_heads,
                       n_blocks=n_blocks, d_ff=ff_factor * d_model, max_len=max_len,
                       use_frequency_heads=use_freq)
    rng = np.random.default_rng(0)
    samples = [MtsSample(flow_id=f"s{i}", values=rng.normal(size=(max_len, d_in)),
                         timestamps=np.arange(max_len, dtype=np.float64), label=f"c{i % 2}")
               for i in range(n_samples)]
    tracemalloc.start()
    try:
        model = MdtModel(config, seed=0)
        train(model, samples, PrefixSpec(BY_COUNT, packet_count=max_len),
              Hyperparams(batch_size=batch_size, max_epochs=1), seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * config_values(config)


def test_dft_cache_charge_covers_every_cached_kernel():
    # each cached real kernel holds 2 * T^2 float64 values ((2n, n)), and so
    # does the complex (n, n) kernel fft_along assembles for one call
    kernel = fourier.real_dft_kernel(7)
    assert kernel.size == 2 * 7 ** 2
    maxsize = fourier.real_dft_kernel.cache_info().maxsize
    assert DFT_CACHE_CELL_VALUES == 2 * (maxsize + 1)


def clear_kernel_caches():
    fourier.real_dft_kernel.cache_clear()


def test_kernel_caches_miss_once_per_kernel_in_training_and_ragged_eval():
    # a fixed-length train builds its three kernels once: those of the
    # feature and sequence axes of the input widening, and the (L + 1) one
    # every block shares. Ragged eval builds the sequence-axis and block
    # kernels of each length group, reuses the block kernel in the group's
    # other blocks and the feature axis's (d_in) kernel in every group; the
    # length-3 group's block kernel is that d_in = 4 kernel.
    config = toy_config(d_in=4, n_blocks=3, max_len=12)
    rng = np.random.default_rng(0)
    samples = [MtsSample(flow_id=f"s{i}", values=rng.normal(size=(10, 4)),
                         timestamps=np.arange(10, dtype=np.float64), label=f"c{i % 3}")
               for i in range(24)]
    clear_kernel_caches()
    train(MdtModel(config, seed=0), samples, PrefixSpec(BY_COUNT, packet_count=6),
          Hyperparams(batch_size=8, max_epochs=2), seed=0)
    assert fourier.real_dft_kernel.cache_info().misses == 3
    lengths = [5, 9, 5, 3, 11, 9, 7, 3]     # none is d_in; 3 + 1 is
    groups = len(set(lengths))
    clear_kernel_caches()
    forward_prefixes(MdtModel(config, seed=1), [rng.normal(size=(n, 4)) for n in lengths])
    info = fourier.real_dft_kernel.cache_info()
    # misses: d_in, and L and L + 1 of each group but the length-3 group's L + 1
    assert info.misses == 1 + 2 * groups - 1
    # hits: d_in in every group but the first, L + 1 in each group's later
    # blocks, and the length-3 group's L + 1
    assert info.hits == (groups - 1) + groups * (config.n_blocks - 1) + 1


def test_ragged_eval_holds_three_kernels_afterwards():
    # tracemalloc's memory still held after forward_prefixes over 12 lengths
    # of 200 to 244 packets, its results dropped: the kernel cache, which
    # keeps three kernels, what one forward reuses: the tiny d_in one and
    # two of at most 2 * T^2 float64 values at the longest attention length
    # T. About 0.91 of this bound; two caches of two kernels each held
    # about 1.35 times it.
    lengths = range(200, 248, 4)
    model = MdtModel(toy_config(d_in=4, max_len=lengths[-1]), seed=0)
    rng = np.random.default_rng(0)
    prefixes = [rng.normal(size=(n, 4)) for n in lengths]
    clear_kernel_caches()
    tracemalloc.start()
    try:
        forward_prefixes(model, prefixes)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kernel_bytes = 8 * 2 * (lengths[-1] + 1) ** 2
    assert held <= 2.2 * kernel_bytes


def test_config_beyond_value_budget_rejected():
    for key in ("max_len", "d_model", "d_ff", "n_blocks"):
        with pytest.raises(ValueError, match="model too large"):
            MdtConfig(d_in=2, n_classes=2, **{key: 10 ** 9})
    # one prefix of 20,000 packets is rejected by its attention cells alone
    with pytest.raises(ValueError, match="model too large"):
        MdtConfig(d_in=13, n_classes=2, max_len=20_000)
    # the last max_len within the budget passes and the next one fails
    base = asdict(MdtConfig(d_in=2, n_classes=2))

    def values(max_len):
        return config_values(SimpleNamespace(**dict(base, max_len=max_len)))

    accepted, rejected = base["max_len"], 10 ** 9
    while rejected - accepted > 1:
        mid = (accepted + rejected) // 2
        if values(mid) <= MAX_CONFIG_VALUES:
            accepted = mid
        else:
            rejected = mid
    assert MdtConfig(d_in=2, n_classes=2, max_len=accepted).max_len == accepted
    for too_long in (rejected, 20_000):
        with pytest.raises(ValueError, match=f"model too large.*max_len {too_long} is too long, "
                                             f"this config accepts at most {accepted}$"):
            MdtConfig(d_in=2, n_classes=2, max_len=too_long)
    # a config too large at any max_len names no longest one
    with pytest.raises(ValueError, match=f"the limit is {MAX_CONFIG_VALUES}$"):
        MdtConfig(d_in=2, n_classes=2, d_model=10 ** 9)


def test_dropout_only_in_training_mode():
    rng = np.random.default_rng(13)
    model = MdtModel(toy_config(dropout=0.5), seed=5)
    x = rng.normal(size=(4, 13))
    a, _ = forward(model, x)
    b, _ = forward(model, x)
    assert np.array_equal(a.data, b.data)
    c, _ = forward(model, x, np.random.default_rng(0))
    d, _ = forward(model, x, np.random.default_rng(1))
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


# Loads the checkpoint argv[1] in a fresh process and runs one eval forward;
# prints whether numpy.random got imported, then whether the parameters'
# bytes, in parameter_layout order, are the blob's.
LOAD_WITHOUT_DRAW = """
import sys
import numpy as np
from earlyflow.model import forward_prefixes, load_checkpoint, parameter_layout
model = load_checkpoint(sys.argv[1])
logits, _ = forward_prefixes(model, [np.ones((5, model.config.d_in))])
assert np.isfinite(logits).all()
params = b"".join(model.params[name].data.astype("<f8").tobytes()
                  for name, _, _ in parameter_layout(model.config))
with open(sys.argv[1] + ".bin", "rb") as fh:
    print("numpy.random" in sys.modules, params == fh.read())
"""


def test_load_checkpoint_draws_nothing(tmp_path):
    # eval and latents processes only load a model: its parameters come from
    # the blob, so numpy.random is never imported
    path = tmp_path / "model.ckpt"
    save_checkpoint(MdtModel(toy_config(), seed=6), path)
    package_root = os.path.dirname(os.path.dirname(model_module.__file__))
    out = subprocess.run([sys.executable, "-c", LOAD_WITHOUT_DRAW, str(path)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": package_root})
    assert out.stdout.split() == ["False", "True"]


# Repeated forwards of one length-200 prefix, each through the call argv[1],
# in a fresh process that has freed no large block; prints the minor page
# faults of the last ten. Each forward allocates and frees a first-block
# score buffer of 2.6 MB (8 heads of 201 x 201 cells).
REPEATED_FORWARD_FAULTS = """
import resource
import sys
import numpy as np
from earlyflow.model import MdtConfig, MdtModel, forward, predict
model = MdtModel(MdtConfig(d_in=13, n_classes=3, d_model=32, n_heads=4, d_ff=64, max_len=200),
                 seed=0)
x = np.random.default_rng(1).standard_normal((200, 13))
run = {"predict": predict, "forward": forward}[sys.argv[1]]
run(model, x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    run(model, x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator thresholds")
def test_repeated_eval_forwards_reuse_freed_pages():
    # under glibc's default thresholds these ten forwards hand freed pages
    # back to the OS and fault them in again (about 650-850 faults); forward
    # keeps freed heap, so a graph-free predict and a lone recorded forward
    # alike fault in almost none
    package_root = os.path.dirname(os.path.dirname(model_module.__file__))
    for call in ("predict", "forward"):
        out = subprocess.run([sys.executable, "-c", REPEATED_FORWARD_FAULTS, call],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": package_root})
        assert int(out.stdout) < 200, call


def _edit_manifest(path, edit):
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _swap_w_o_shape(manifest):
    entry = next(e for e in manifest["parameters"] if e["name"] == "blocks.0.attn.w_o")
    entry["shape"] = entry["shape"][::-1]


def _set_w_o_shape_entry(value):
    def edit(manifest):
        next(e for e in manifest["parameters"] if e["name"] == "blocks.0.attn.w_o")["shape"][0] = value
    return edit


@pytest.mark.parametrize("edit", [
    lambda m: m["config"].update(bogus_knob=1),
    lambda m: m["config"].update(d_model="x"),
    lambda m: m.pop("parameters"),
    _swap_w_o_shape,
    _set_w_o_shape_entry("a"),
    _set_w_o_shape_entry(1.5),
    _set_w_o_shape_entry(-1),
    lambda m: m["parameters"].append(m["parameters"][0]),
    lambda m: m["parameters"][0].update(name=["input_proj.weight"]),
    lambda m: m["parameters"].reverse(),
    lambda m: m["config"].update(max_len=10 ** 9),
    lambda m: m.update(seed="x"),
    lambda m: m.update(seed=1.5),
    lambda m: m.update(seed=-1),
    lambda m: m.update(classes=3),
    lambda m: m.update(classes=["a", "b"]),
    lambda m: m.update(classes=["a", "b", 3]),
], ids=["unknown_config_key", "bad_config_value", "missing_parameters", "transposed_shape",
        "text_in_shape", "float_in_shape", "negative_shape", "duplicate_parameter", "list_name",
        "reordered_parameters", "oversized_config",
        "text_seed", "float_seed", "negative_seed", "scalar_classes", "too_few_classes",
        "non_string_class"])
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
    # an id and a label holding line ends and quotes read back as written
    rng = np.random.default_rng(14)
    model = MdtModel(toy_config(), seed=9)
    out = tmp_path / "latents.csv"
    sample = sample_of(rng, 6, label='a\r\nb,"c')
    sample.flow_id = "x\ry"
    export_latents(model, [sample], PrefixSpec.by_count(4), out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert rows[1][:2] == ["x\ry", 'a\r\nb,"c'] and len(rows[1]) == 2 + 8


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
        assert np.array_equal(outputs[-2].data, want_logits.data[None])
        assert index == int(np.argmax(want_logits.data))
    assert all(not t.requires_grad and t._parents == () for t in outputs)
    assert all(p.grad is None for p in model.parameters())


def test_training_step_after_eval_gets_gradients():
    rng = np.random.default_rng(33)
    model = MdtModel(toy_config(), seed=14)
    prefixes = [rng.normal(size=(4, 13)) for _ in range(3)]
    forward_prefixes(model, prefixes)
    predict(model, prefixes[0])
    minibatch_gradients(model, prefixes, np.array([0, 1, 2]), np.ones(3),
                        np.random.default_rng(0))
    assert all(p.grad is not None for p in model.parameters())


def test_predict_returns_class_index():
    model = MdtModel(toy_config(), seed=10)
    idx = predict(model, np.zeros((2, 13)))
    assert idx in (0, 1, 2)
