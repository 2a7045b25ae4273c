"""Multi-domain transformer for early classification of flow prefixes.

The input series is widened with the real and imaginary parts of its 2D
inverse transform (keeping amplitude information that per-row normalization
would otherwise erase on narrow inputs), projected to the model width, tagged
with sinusoidal positions, and prefixed with a learned classification token.
Encoder blocks use multi-domain attention: the usual scaled-dot-product heads
plus an equal number of heads whose queries, keys and values are transformed
along the sequence axis; those heads score with the real part of the cross
spectrum and mix the real part of the transformed values. Both head families
share the same Q/K/V projections, so turning the frequency path off only
shrinks the output projection. The frequency heads project one shared
sequence-axis DFT of the block input, a real matmul by a cached [cos; -sin]
kernel, instead of transforming q, k and v apiece.

Each encoder block is two autodiff nodes with hand-written backwards:
md_mha, and block_tail for everything after it. md_mha projects the block
input and its transform by one product per weight, and scores, softmaxes
and mixes its heads in chunks of at most MAX_GROUP_CELLS score cells (at
least one head, both families of a head together), one buffer and one
in-place softmax a chunk. A call that fits one chunk keeps its
probabilities for the backward; a longer one keeps none, and its backward
recomputes each chunk's from q and k. md_mha adds its backward products in
the order the op-by-op composition would. block_tail runs the dropout,
residual and layer norm around the feed-forward layer the same way. So
both give the same bits as that composition.

The head reads only the classification token of the last block, so that
block attends from its first HEAD_QUERIES = 2 positions (the token and the
first packet): it projects queries on those two rows alone, its score,
softmax and mixing work shrinks from T x T to 2 x T, and its output
projection and tail run on those two rows alone.
Two rows rather than one: a one-row product takes BLAS's matrix-vector
path, which rounds differently from the same row of a wider product.
Training and eval take this one path, so a forward that records a graph
gives the bits of a graph-free one (predict, forward_prefixes) when no
dropout is drawn. Logits can move by a few ulps from full attention at
attention lengths past about 190. The head sums each row's products on its
own (head_product), so one head serves every group size: a prefix gets the
same logits alone (predict) as in any length group (evaluate).

use_frequency_heads=False disables both the input widening and the frequency
heads, giving the plain transformer ablation.
"""

from __future__ import annotations

import ctypes
import json
import math
import numbers
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
from functools import cache
from itertools import islice

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _accum, _node, const, param
from .earliness import PrefixSpec, take_prefix
from .features import lf_writer
from .fourier import KERNEL_CACHE_SIZE, fft_2d, real_dft_kernel

CHECKPOINT_FORMAT = "earlyflow-checkpoint-v1"
# Most prefixes one graph holds, and the most B * T^2 attention cells (T =
# prefix length + the classification token): 32 prefixes at attention length
# 65. Longer prefixes run in smaller groups, so no graph allocates more rows
# than that group does. MAX_GROUP_CELLS also bounds the score cells of one
# chunk of md_mha's heads, unless one head alone holds more.
MAX_GROUP = 32
MAX_GROUP_CELLS = MAX_GROUP * 65 ** 2
# Most attention rows a group holds: MAX_GROUP prefixes at attention length 65.
MAX_GROUP_ROWS = MAX_GROUP * 65
# Query rows the last encoder block attends from (see the module docstring).
HEAD_QUERIES = 2
# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD (malloc.h),
# and the mmap threshold keep_freed_heap sets: blocks below it come from the
# heap, and up to twice it of freed heap is kept for reuse
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
HEAP_BLOCK_BYTES = 32 << 20
# Most float64 values (1 GiB) a config may make MdtModel and one epoch of
# training allocate; see config_values. The charges below are fitted to
# tracemalloc peaks of MdtModel plus one training step on one max_len prefix,
# at attention lengths T of 2 to 1,000, n_heads 1 to 8 and n_blocks 1 to 6,
# and of MdtModel plus one epoch of train (see CHANGES.md).
MAX_CONFIG_VALUES = 2 ** 27
# Each parameter value is held as data, as grad and as the product its grad is
# summed from, and train adds TRAINING_COPIES: Adam's two moments and the
# best epoch's copy. Each parameter array also costs ARRAY_OVERHEAD_VALUES for
# the Python objects around it and the graph nodes built from it, which
# bounds the number of blocks of a narrow model too, and Adam's update of the
# largest one makes ADAM_TEMPORARY_COPIES temporaries of it.
PARAMETER_COPIES = 3
TRAINING_COPIES = 3
ARRAY_OVERHEAD_VALUES = 384
ADAM_TEMPORARY_COPIES = 4
# Values per attention row and d_model outside the blocks (with the
# temporaries of one block's backward), and per row and block for the
# activations each block keeps: BLOCK_ROW_VALUES per d_model and
# BLOCK_ROW_FF_VALUES per d_ff.
ROW_VALUES = 40
BLOCK_ROW_VALUES = 16
BLOCK_ROW_FF_VALUES = 4
# Values per cell of one prefix's T^2 attention: the base, and per head for
# each block but the last (which attends from HEAD_QUERIES rows only), whose
# (2 * n_heads, T, T) probabilities backward reads. md_mha keeps those only
# when they fit one chunk of MAX_GROUP_CELLS score cells, and recomputes them
# in chunks beyond, so these over-cover long prefixes.
ATTENTION_CELL_VALUES = 8
FULL_ATTENTION_HEAD_CELL_VALUES = 6
# Values per cell of the DFT kernels: the KERNEL_CACHE_SIZE real kernels
# fourier's lru_cache keeps, what one forward reuses (see fourier), and the
# complex kernel fft_along assembles for one call, of at most 2 * T^2 values each.
DFT_CACHE_CELL_VALUES = 2 * (KERNEL_CACHE_SIZE + 1)
# init of a parameter_layout entry drawn uniformly in +-sqrt(6 / (rows + cols))
GLOROT = "glorot"
# np.errstate of training and eval forwards and backwards: an overflow, invalid
# or divide-by-zero operation raises FloatingPointError, and underflow stays
# silent, as the softmax relies on it
NUMERIC_FAULTS = {"over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"}


@dataclass
class MdtConfig:
    d_in: int
    n_classes: int
    d_model: int = 64
    n_heads: int = 4
    n_blocks: int = 2
    d_ff: int = 128
    max_len: int = 512
    dropout: float = 0.1
    use_frequency_heads: bool = True

    def __post_init__(self):
        check_int_fields(self)
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        if not isinstance(self.dropout, numbers.Real) or isinstance(self.dropout, bool) \
                or not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be a number in [0, 1), got {self.dropout!r}")
        if not isinstance(self.use_frequency_heads, bool):
            raise ValueError("use_frequency_heads must be true or false")
        values = config_values(self)
        if values > MAX_CONFIG_VALUES:
            # longest max_len the rest leaves room for
            room = MAX_CONFIG_VALUES - values + _length_values(self, self.max_len)
            longest = bisect_right(range(1, self.max_len), room,
                                   key=lambda m: _length_values(self, m))
            hint = f"; max_len {self.max_len} is too long, this config accepts at most {longest}" \
                if longest else ""
            raise ValueError(f"model too large: it needs {values} float64 values, "
                             f"the limit is {MAX_CONFIG_VALUES}{hint}")


def check_int_fields(obj):
    """Raise ValueError unless every field of the dataclass obj annotated int
    holds an integer >= 1 (bool, an int subclass, is no integer here)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("int", int) and (not isinstance(value, numbers.Integral)
                                       or isinstance(value, bool) or value < 1):
            raise ValueError(f"{f.name} must be an integer >= 1, got {value!r}")


def config_values(c: MdtConfig) -> int:
    """Float64 values MdtModel(c) and one epoch of train allocate at most:
    PARAMETER_COPIES + TRAINING_COPIES per parameter of parameter_layout(c)
    plus ARRAY_OVERHEAD_VALUES per entry, ADAM_TEMPORARY_COPIES of the
    largest entry, and the _length_values of max_len."""
    before, after = _outer_layout(c)
    outer = [math.prod(shape) for _, shape, _ in before + after]
    block = [math.prod(shape) for _, shape, _ in _block_layout(c, "blocks.0")]
    parameters = sum(outer) + c.n_blocks * sum(block)
    arrays = len(outer) + c.n_blocks * len(block)
    return ((PARAMETER_COPIES + TRAINING_COPIES) * parameters + ARRAY_OVERHEAD_VALUES * arrays
            + ADAM_TEMPORARY_COPIES * max(outer + block) + _length_values(c, c.max_len))


def _length_values(c: MdtConfig, max_len: int) -> int:
    """The values of config_values that grow with max_len: the (max_len,
    d_model) positional table, and the rows and attention cells of the
    largest group of prefixes of at most max_len packets (length_buckets):
    up to MAX_GROUP prefixes, within MAX_GROUP_ROWS rows and MAX_GROUP_CELLS
    cells unless one prefix alone holds more."""
    per_row = ROW_VALUES * c.d_model + c.n_blocks * (BLOCK_ROW_VALUES * c.d_model
                                                     + BLOCK_ROW_FF_VALUES * c.d_ff)
    per_cell = ATTENTION_CELL_VALUES + DFT_CACHE_CELL_VALUES \
        + (c.n_blocks - 1) * FULL_ATTENTION_HEAD_CELL_VALUES * c.n_heads
    t = max_len + 1
    rows = min(MAX_GROUP * t, max(MAX_GROUP_ROWS, t))
    cells = min(MAX_GROUP * t ** 2, max(MAX_GROUP_CELLS, t ** 2))
    return max_len * c.d_model + rows * per_row + cells * per_cell


def _outer_layout(c: MdtConfig):
    """The parameter_layout entries before the encoder blocks and after them."""
    d = c.d_model
    d_feat = 3 * c.d_in if c.use_frequency_heads else c.d_in
    before = [("input_proj.weight", (d_feat, d), GLOROT), ("input_proj.bias", (d,), 0.0),
              ("cls_token", (1, d), GLOROT)]
    after = [("head.weight", (d, c.n_classes), GLOROT), ("head.bias", (c.n_classes,), 0.0)]
    return before, after


def _block_layout(c: MdtConfig, p: str) -> list:
    """parameter_layout entries of the encoder block named p, in the field
    order of BlockParams."""
    d = c.d_model
    families = 2 if c.use_frequency_heads else 1   # time and frequency heads
    return [
        (f"{p}.attn.w_q", (d, d), GLOROT), (f"{p}.attn.w_k", (d, d), GLOROT),
        (f"{p}.attn.w_v", (d, d), GLOROT), (f"{p}.attn.w_o", (families * d, d), GLOROT),
        (f"{p}.ln1.gain", (d,), 1.0), (f"{p}.ln1.bias", (d,), 0.0),
        (f"{p}.ff.w1", (d, c.d_ff), GLOROT), (f"{p}.ff.b1", (c.d_ff,), 0.0),
        (f"{p}.ff.w2", (c.d_ff, d), GLOROT), (f"{p}.ff.b2", (d,), 0.0),
        (f"{p}.ln2.gain", (d,), 1.0), (f"{p}.ln2.bias", (d,), 0.0),
    ]


def parameter_layout(c: MdtConfig) -> list:
    """(name, shape, init) of every parameter, in checkpoint and draw order;
    init is GLOROT for a matrix and the fill value of a vector."""
    before, after = _outer_layout(c)
    blocks = [entry for b in range(c.n_blocks) for entry in _block_layout(c, f"blocks.{b}")]
    return before + blocks + after


@dataclass
class MdMhaParams:
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor


@dataclass
class BlockParams:
    attn: MdMhaParams
    ln1_gain: Tensor
    ln1_bias: Tensor
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


class MdtModel:
    def __init__(self, config: MdtConfig, seed: int, arrays=None):
        """Parameters drawn from seed in parameter_layout order, or copied
        from `arrays` (name -> array, as load_checkpoint reads them) without
        a draw."""
        self.config = config
        self.seed = seed
        self.classes: tuple | None = None  # label order backing the head, set by training
        self.params: dict = {}
        rng = np.random.default_rng(seed) if arrays is None else None
        for name, shape, init in parameter_layout(config):
            if arrays is not None:
                self.params[name] = param(np.array(arrays[name], dtype=np.float64))
            elif init == GLOROT:
                limit = math.sqrt(6.0 / (shape[0] + shape[1]))
                self.params[name] = param(rng.uniform(-limit, limit, size=shape))
            else:
                self.params[name] = param(np.full(shape, init, dtype=np.float64))
        tensors = iter(self.params.values())
        self.input_w, self.input_b, self.cls_token = islice(tensors, 3)
        self.blocks = [BlockParams(MdMhaParams(*islice(tensors, 4)), *islice(tensors, 8))
                       for _ in range(config.n_blocks)]
        self.head_w, self.head_b = tensors
        self.positional = positional_encoding(config.max_len, config.d_model)

    def parameters(self):
        return list(self.params.values())

    def state_arrays(self):
        return {name: t.data for name, t in self.params.items()}

    def load_state(self, arrays):
        for name, t in self.params.items():
            t.data = np.array(arrays[name], dtype=np.float64)


def positional_encoding(max_len: int, d_model: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None]
    i = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d_model)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def ifft_augment(x: np.ndarray) -> np.ndarray:
    """Concatenate the input with the real and imaginary parts of its 2D
    inverse transform (input treated as complex with zero imaginary part).
    x is one (length, features) matrix or a (batch, length, features) stack,
    each matrix transformed on its own."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.size == 0:
        raise ValueError("expected a non-empty (length, features) matrix or a stack of them")
    spectrum = fft_2d(x, inverse=True)
    return np.concatenate([x, spectrum.real, spectrum.imag], axis=-1)


def md_mha(z: Tensor, params: MdMhaParams, n_heads: int, queries: int | None = None) -> Tensor:
    """Multi-domain multi-head attention over a (batch, length, d_model) stack
    of equal-length sequences; each sequence attends only to itself. Scores
    are scaled by 1/sqrt(d_model). A w_o of d_model rows gives the time heads
    alone, one of 2 * d_model rows adds the frequency heads.

    One autodiff node with a hand-written backward. The frequency heads see
    q, k and v transformed along the sequence axis; that transform commutes
    with the shared projections, DFT(z W) = DFT(z) W, so z, C z and -S z
    (the [C; -S] kernel applied once) are stacked and projected by one
    product per weight: w_q and w_k project all three, w_v z and C z alone,
    since no head uses the values of -S z. The heads run in chunks of at
    most MAX_GROUP_CELLS score cells, and at least one head: the time scores
    q k^T and the frequency scores q_re k_re^T + q_im k_im^T of a chunk's
    heads fill one (batch, 2 * heads, queries, length) buffer, time heads
    first, that one in-place softmax normalizes; the time heads mix v and
    the frequency heads the real part of the transformed values, straight
    into the output rows. When the call is one chunk, its probabilities are
    kept for the backward. When it is several, none are kept, and the
    backward recomputes each chunk's from the saved q and k by the same
    products and softmax, then takes that chunk's score, query and key
    grads before the next; so no buffer holds every head's scores of a long
    prefix.

    queries: attend from the first `queries` positions only (None: every
    position) and return those rows alone. Queries are projected on those
    rows alone, keys and values on every position. The backward takes one
    product per weight for its grad and one for the input's over the same
    stacked rows the forward projects.

    Every product and sum is the one the op-by-op composition makes (see
    naive_md_mha in the tests), in the same order: a chunk's products are
    the per-(batch, family, head) products numpy's stacked matmul makes, and
    no softmax row is split. So outputs and grads match it bit for bit, in
    any chunking, and the tests can compare them byte for byte."""
    batch, length, d_model = z.shape
    n_queries = length if queries is None else min(queries, length)
    dv = d_model // n_heads
    if params.w_o.shape[0] not in (d_model, 2 * d_model):
        raise ValueError(f"w_o needs {d_model} or {2 * d_model} rows, got {params.w_o.shape[0]}")
    families = params.w_o.shape[0] // d_model   # score families: time, frequency
    domains = 3 if families == 2 else 1         # stacked inputs: z, C z, -S z
    scaling = 1.0 / math.sqrt(d_model)
    w_q, w_k, w_v, w_o = (w.data for w in (params.w_q, params.w_k, params.w_v, params.w_o))

    stacked = np.empty((domains, batch, length, d_model))
    stacked[0] = z.data
    if families == 2:
        kernel = real_dft_kernel(length)
        np.matmul(kernel.reshape(2, 1, length, length), z.data, out=stacked[1:])

    def head_rows(rows, positions=length):
        """(batch, domain, head, position, dv) view of (domain, batch,
        positions, d_model) rows."""
        return rows.reshape(len(rows), batch, positions, n_heads, dv).transpose(1, 0, 3, 2, 4)

    # queries on the query rows only, keys on every row, values on every row
    # of z and C z: one product per weight, as the composition makes them
    q = head_rows(stacked[:, :, :n_queries] @ w_q, n_queries)
    k = head_rows(stacked @ w_k)
    v = head_rows(stacked[:families] @ w_v)

    # heads run in chunks of at most MAX_GROUP_CELLS score cells, and at
    # least one head, both families of a head in the same chunk
    step = max(1, min(n_heads, MAX_GROUP_CELLS // (batch * families * n_queries * length)))
    chunks = [slice(h, min(h + step, n_heads)) for h in range(0, n_heads, step)]

    def probabilities(heads):
        """Softmaxed scores of the heads in slice `heads`: a (batch, family,
        head, query, position) view of one (batch, families * heads,
        queries, length) buffer, time heads first."""
        count = heads.stop - heads.start
        scores = np.empty((batch, families * count, n_queries, length))
        by_family = scores.reshape(batch, families, count, n_queries, length)
        np.matmul(q[:, :families, heads], k[:, :families, heads].swapaxes(-1, -2), out=by_family)
        if families == 2:
            by_family[:, 1] += q[:, 2, heads] @ k[:, 2, heads].swapaxes(-1, -2)
        ad.softmax_inplace(scores, scale=scaling)
        return by_family

    # one chunk keeps its probabilities for the backward; several keep none,
    # and the backward recomputes each chunk's from q and k
    kept = probabilities(chunks[0]) if len(chunks) == 1 else None
    # each chunk mixes its values straight into the output rows
    mixed = np.empty((batch, n_queries, families, n_heads, dv))
    mixed_heads = mixed.transpose(0, 2, 3, 1, 4)
    for heads in chunks:
        np.matmul(probabilities(heads) if kept is None else kept, v[:, :, heads],
                  out=mixed_heads[:, :, heads])
    mixed = mixed.reshape(batch, n_queries, -1)

    def bw(g):
        _accum(params.w_o, mixed.reshape(-1, families * d_model).T @ g.reshape(-1, d_model))
        g_mixed = (g @ w_o.T).reshape(batch, n_queries, families, n_heads, dv) \
            .transpose(0, 2, 3, 1, 4)
        # grads of q and v as (domain, batch, positions, d_model) rows, q's
        # on the query rows alone; key grads come out as (dv, length)
        # matrices, as the op graph makes them: BLAS rounds a product with a
        # transposed operand differently
        g_values = np.empty((families, batch, length, d_model))
        g_queries = np.empty((domains, batch, n_queries, d_model))
        g_keys = np.empty((batch, domains, n_heads, dv, length))
        g_v, g_q = head_rows(g_values), head_rows(g_queries, n_queries)
        for heads in chunks:
            by_family = kept
            if by_family is None:
                by_family = probabilities(heads)
            g_chunk = g_mixed[:, :, heads]
            g_scores = g_chunk @ v[:, :, heads].swapaxes(-1, -2)
            np.matmul(by_family.swapaxes(-1, -2), g_chunk, out=g_v[:, :, heads])
            # softmax Jacobian, then the scaling
            g_scores -= (g_scores * by_family).sum(axis=-1, keepdims=True)
            g_scores *= by_family
            del by_family
            g_scores *= scaling
            np.matmul(g_scores, k[:, :families, heads], out=g_q[:, :families, heads])
            np.matmul(q[:, :families, heads].swapaxes(-1, -2), g_scores,
                      out=g_keys[:, :families, heads])
            if families == 2:
                np.matmul(g_scores[:, 1], k[:, 2, heads], out=g_q[:, 2, heads])
                np.matmul(q[:, 2, heads].swapaxes(-1, -2), g_scores[:, 1], out=g_keys[:, 2, heads])
            del g_scores
        del g_mixed
        # then copied to contiguous rows, as the graph's slices leave them:
        # BLAS rounds a product over a strided view differently too
        g_keys = np.ascontiguousarray(g_keys.transpose(1, 0, 4, 2, 3)).reshape(stacked.shape)

        # one product per weight for its grad and one for the input's, over
        # the stacked domains: w_q on the query rows, w_k on every row, w_v on
        # the rows of z and C z. The input grad adds the q and k parts, then
        # v's; z takes domain 0's and then the kernel product of the others
        def rows(a):
            return a.reshape(-1, d_model)

        _accum(params.w_q, rows(stacked[:, :, :n_queries]).T @ rows(g_queries))
        _accum(params.w_k, rows(stacked).T @ rows(g_keys))
        _accum(params.w_v, rows(stacked[:families]).T @ rows(g_values))
        g_input = g_keys @ w_k.T
        del g_keys
        g_input[:, :, :n_queries] += g_queries @ w_q.T
        g_input[:families] += g_values @ w_v.T
        del g_queries, g_values
        _accum(z, g_input[0])
        if families == 2:
            g_spectrum = g_input[1:].transpose(1, 0, 2, 3).reshape(batch, 2 * length, d_model)
            _accum(z, kernel.T @ g_spectrum)

    return _node(mixed @ w_o, (z, params.w_q, params.w_k, params.w_v, params.w_o), bw)


def block_tail(z: Tensor, attended: Tensor, block: BlockParams, p: float, rng=None) -> Tensor:
    """The encoder block after attention, as one autodiff node: h =
    LN1(z + dropout(attended)), then LN2(h + dropout(relu(h w1 + b1) w2 +
    b2)). Inverted dropout at rate p runs when an rng is given, its two
    masks drawn in that order.

    The backward is written by hand. Its products, sums and the order of
    the grads it adds into z are those of the op-by-op composition (see
    naive_encoder_block in the tests), so outputs and grads match it bit
    for bit."""
    masks = None
    if rng is not None and p > 0.0:
        masks = [rng.random(t.shape) >= p for t in (attended, z)]
    # a kept value is scaled by 1/(1-p) after the mask: x * 1 * s has the bits
    # of x * s, so this gives the bits of a float mask holding 0 and s
    keep_scale = 1.0 / (1.0 - p)

    def dropout(x, mask):
        x = x * mask
        x *= keep_scale
        return x

    w1, b1, w2, b2 = block.ff_w1.data, block.ff_b1.data, block.ff_w2.data, block.ff_b2.data
    d_model, d_ff = w1.shape
    dropped = attended.data if masks is None else dropout(attended.data, masks[0])
    h, xhat1, inv1 = ad.layer_norm_forward(z.data + dropped, block.ln1_gain.data,
                                           block.ln1_bias.data)
    pre = h @ w1 + b1
    hidden = np.where(pre > 0, pre, 0.0)
    ff = hidden @ w2 + b2
    if masks is not None:
        ff = dropout(ff, masks[1])
    out, xhat2, inv2 = ad.layer_norm_forward(h + ff, block.ln2_gain.data, block.ln2_bias.data)

    def bw(g):
        g_residual, g_gain2, g_bias2 = ad.layer_norm_backward(g, block.ln2_gain.data, xhat2, inv2)
        _accum(block.ln2_bias, g_bias2)
        _accum(block.ln2_gain, g_gain2)
        g_ff = g_residual if masks is None else dropout(g_residual, masks[1])
        _accum(block.ff_b2, g_ff.reshape(-1, d_model).sum(axis=0))
        g_hidden = g_ff @ w2.T
        _accum(block.ff_w2, hidden.reshape(-1, d_ff).T @ g_ff.reshape(-1, d_model))
        # hidden > 0 exactly where its pre-activation is
        g_pre = g_hidden * (hidden > 0)
        _accum(block.ff_b1, g_pre.reshape(-1, d_ff).sum(axis=0))
        g_h = g_residual + g_pre @ w1.T
        _accum(block.ff_w1, h.reshape(-1, d_model).T @ g_pre.reshape(-1, d_ff))
        g_sum, g_gain1, g_bias1 = ad.layer_norm_backward(g_h, block.ln1_gain.data, xhat1, inv1)
        _accum(block.ln1_bias, g_bias1)
        _accum(block.ln1_gain, g_gain1)
        _accum(z, g_sum)
        _accum(attended, g_sum if masks is None else dropout(g_sum, masks[0]))

    parents = (z, attended, block.ln1_gain, block.ln1_bias, block.ff_w1, block.ff_b1,
               block.ff_w2, block.ff_b2, block.ln2_gain, block.ln2_bias)
    return _node(out, parents, bw)


def encoder_block(z: Tensor, block: BlockParams, config: MdtConfig, rng=None,
                  queries: int | None = None) -> Tensor:
    """Post-norm block over a (batch, length, d_model) stack: attention, then
    block_tail (residual + layer norm, feed-forward, residual + layer norm).
    Dropout is drawn from rng when one is given. queries: attend from the
    first `queries` positions only (see md_mha) and return those rows alone,
    the tail run on them; None keeps every row."""
    attended = md_mha(z, block.attn, config.n_heads, queries)
    rows = attended.shape[1]
    if rows < z.shape[1]:
        z = ad.slice_axis(z, 1, 0, rows)
    return block_tail(z, attended, block, config.dropout, rng)


def head_product(latent: Tensor, w: Tensor) -> Tensor:
    """latent @ w for a (batch, d_model) latent, as one autodiff node whose
    row i has the bits of row i alone: each row's products are summed over
    d_model by numpy, not by BLAS, whose (batch, d) @ (d, c) product rounds
    by the number of rows. So a prefix gets the same logits in any length
    group, alone too. The backward is matmul's."""
    x, wd = latent.data, w.data

    def bw(g):
        _accum(latent, g @ wd.T)
        _accum(w, x.T @ g)

    return _node((x[:, :, None] * wd).sum(axis=1), (latent, w), bw)


def forward(model: MdtModel, x, rng=None):
    """Run one prefix, or a stack of equal-length prefixes as one graph.

    x: an (l, d_in) prefix or a (b, l, d_in) stack. Returns (logits, latent)
    Tensors shaped (n_classes,) and (d_model,) for one prefix, (b, n_classes)
    and (b, d_model) for a stack."""
    c = model.config
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.ndim != 3 or x.shape[2] != c.d_in:
        raise ValueError(f"expected (l, {c.d_in}) or (b, l, {c.d_in}) input, got {x.shape}")
    batch, length = x.shape[:2]
    if batch < 1 or length < 1:
        raise ValueError("empty input")
    if length > c.max_len:
        raise ValueError(f"prefix length {length} exceeds max_len {c.max_len}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    keep_freed_heap()

    feats = ifft_augment(x) if c.use_frequency_heads else x
    z = ad.add_bias(ad.matmul(const(feats), model.input_w), model.input_b)
    z = ad.add(z, const(np.broadcast_to(model.positional[:length], z.shape)))
    cls = ad.matmul(const(np.ones((batch, 1, 1))), model.cls_token)
    z = ad.concat([cls, z], axis=1)
    for i, block in enumerate(model.blocks):
        last = i == len(model.blocks) - 1
        z = encoder_block(z, block, c, rng, HEAD_QUERIES if last else None)
    latent = ad.reshape(ad.slice_axis(z, 1, 0, 1), (batch, c.d_model))
    logits = ad.add_bias(head_product(latent, model.head_w), model.head_b)
    if single:
        return ad.reshape(logits, (c.n_classes,)), ad.reshape(latent, (c.d_model,))
    return logits, latent


def predict(model: MdtModel, x) -> int:
    """Class index of one (l, d_in) prefix, through forward_prefixes."""
    logits, _ = forward_prefixes(model, [x])
    return int(np.argmax(logits[0]))


def length_buckets(lengths) -> list:
    """Positions of equal lengths, grouped in first-seen order. A group of
    length l holds at most max(1, min(MAX_GROUP, MAX_GROUP_CELLS // (l+1)^2))
    positions, l+1 being its attention length."""
    by_length = {}
    for i, n in enumerate(lengths):
        by_length.setdefault(int(n), []).append(i)
    groups = []
    for n, members in by_length.items():
        size = max(1, min(MAX_GROUP, MAX_GROUP_CELLS // (n + 1) ** 2))
        groups.extend(members[s:s + size] for s in range(0, len(members), size))
    return groups


@cache
def keep_freed_heap():
    """Have glibc keep freed heap for the next forward (see
    HEAP_BLOCK_BYTES), once per process; elsewhere than glibc this does
    nothing. forward calls it, so training, evaluate, predict,
    export_latents and a lone forward all run under it, but importing does
    not.

    A training minibatch or an eval length group allocates and frees a
    working set of many arrays: about 14 MB, none above 1 MB, for a
    minibatch at d_model 32, batch 32 and 17 positions, and score buffers
    of several MB for long eval prefixes. glibc's default thresholds
    follow the largest block freed so far: it mmaps each block above the
    mmap threshold and returns free heap beyond twice it to the OS. Unless
    the process had freed a block of half the working set before, every
    minibatch or group therefore faulted its pages in again:
    - an 8-epoch train of 600 16-packet prefixes took 370k minor faults
      and 2.5 s, against 4k and 1.5 s with fixed thresholds;
    - three 6-chunk rounds of evaluate, predict and export_latents on
      600 ragged 0.1 s prefixes, after a read_dataset that frees no large
      block, took 208k minor faults and a median 8.5 s of CPU time,
      against 5k and 7.4 s with fixed thresholds
    (2-vCPU Xeon VM, BLAS at 1 thread)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, HEAP_BLOCK_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * HEAP_BLOCK_BYTES)


class PrefixFault(FloatingPointError):
    """A numeric fault of one prefix: run alone it faults, while another
    prefix of its length group runs clean, so the input is to blame and not
    the model. `index` is its position in the prefixes the call was given."""

    def __init__(self, message: str, index: int):
        super().__init__(message, index)
        self.index = index

    def __str__(self):
        return self.args[0]

    def at(self, positions) -> PrefixFault:
        """This fault with its index looked up in positions: the caller's
        position of the prefix."""
        return PrefixFault(self.args[0], int(positions[self.index]))


def lone_fault(groups, g, run_alone) -> PrefixFault | None:
    """After a FloatingPointError of groups[g], groups being lists of
    positions run in order: run_alone(i) runs each member of groups[g] by
    itself until one has faulted and another prefix is known to run clean,
    and the first that faulted comes back as a PrefixFault. That other
    prefix is a member, any prefix of an earlier group (they ran clean), or
    else the first of a later group that runs clean alone, one per group
    tried in order. None when no member faults alone or no other prefix
    runs clean."""
    fault, clean = None, g > 0
    for i in groups[g]:
        try:
            run_alone(i)
        except FloatingPointError as exc:
            fault = fault or PrefixFault(str(exc), i)
        else:
            clean = True
        if fault and clean:
            return fault
    for later in groups[g + 1:] if fault else ():
        try:
            run_alone(later[0])
        except FloatingPointError:
            continue
        return fault
    return None


def forward_prefixes(model: MdtModel, prefixes):
    """Eval-mode logits (n, n_classes) and latents (n, d_model) as arrays,
    in input order, for ragged (l, d_in) prefixes run as length buckets,
    under NUMERIC_FAULTS. A group's FloatingPointError becomes the
    PrefixFault of lone_fault where a prefix is to blame."""
    c = model.config
    logits = np.empty((len(prefixes), c.n_classes))
    latents = np.empty((len(prefixes), c.d_model))
    with ad.no_grad(), np.errstate(**NUMERIC_FAULTS):
        groups = length_buckets([len(p) for p in prefixes])
        for g, group in enumerate(groups):
            try:
                group_logits, group_latents = forward(model, np.stack([prefixes[i] for i in group]))
            except FloatingPointError as exc:
                raise lone_fault(groups, g, lambda i: forward(model, prefixes[i][None])) or exc
            logits[group] = group_logits.data
            latents[group] = group_latents.data
    return logits, latents


# ---------------------------------------------------------------------------
# checkpoints and latent export

def _blob_path(path: str) -> str:
    return str(path) + ".bin"


def save_checkpoint(model: MdtModel, path):
    """JSON manifest at path, parameter blob (little-endian float64, manifest
    order) at path + '.bin'. Both list the parameters in parameter_layout
    order."""
    layout = parameter_layout(model.config)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "seed": model.seed,
        "config": asdict(model.config),
        "classes": list(model.classes) if model.classes else None,
        "parameters": [{"name": name, "shape": list(shape)} for name, shape, _ in layout],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    with open(_blob_path(path), "wb") as fh:
        for name, _, _ in layout:
            fh.write(np.ascontiguousarray(model.params[name].data, dtype="<f8").tobytes())


def load_checkpoint(path) -> MdtModel:
    """Model from a manifest and its blob. A manifest that is not valid JSON
    or does not fit its config (unknown or missing keys, a seed that is not
    an integer >= 0, classes that are not one string per class, parameters
    other than parameter_layout's names and shapes in its order, a blob of
    another size) raises ValueError naming the file, before any parameter is
    allocated; so does a blob holding NaN or +-inf, naming the first such
    parameter in parameter_layout order."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ValueError(f"{path}: not a checkpoint manifest: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint manifest")
    try:
        config = MdtConfig(**manifest["config"])
        seed = manifest["seed"]
        entries = [(entry["name"], entry["shape"]) for entry in manifest["parameters"]]
    except KeyError as exc:
        raise ValueError(f"{path}: manifest lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed manifest: {exc}") from None
    if type(seed) is not int or seed < 0:  # bool is an int subclass
        raise ValueError(f"{path}: seed must be an integer >= 0, got {seed!r}")
    classes = manifest.get("classes")
    if classes is not None and not (isinstance(classes, list) and len(classes) == config.n_classes
                                    and all(isinstance(c, str) for c in classes)):
        raise ValueError(f"{path}: classes must be null or {config.n_classes} strings")
    layout = parameter_layout(config)
    if [name for name, _ in entries] != [name for name, _, _ in layout]:
        raise ValueError(f"{path}: parameter names do not match the config")
    for (name, shape), (_, want, _) in zip(entries, layout):
        if shape != list(want) or any(type(n) is not int for n in shape):  # 64.0 and True pass ==
            raise ValueError(f"{path}: parameter {name} has shape {shape!r}, "
                             f"the config needs {list(want)}")
    size = sum(math.prod(shape) for _, shape, _ in layout)
    with open(_blob_path(path), "rb") as fh:
        blob = fh.read(8 * size + 1)
    if len(blob) != 8 * size:
        raise ValueError(f"{path}: parameter blob size mismatch")
    offset = 0
    arrays = {}
    for name, shape, _ in layout:
        count = math.prod(shape)
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{path}: parameter {name} holds a non-finite value")
        offset += 8 * count
    model = MdtModel(config, seed=seed, arrays=arrays)
    if classes:
        model.classes = tuple(classes)
    return model


def export_latents(model: MdtModel, samples, spec: PrefixSpec, out_path):
    """CSV of flow_id, label, and the d_model latent values per sample, so an
    external classifier can replace the built-in head. A PrefixFault gives
    the sample's position in samples."""
    samples = list(samples)
    prefixes = [take_prefix(sample, spec)[0].values for sample in samples]
    _, latents = forward_prefixes(model, prefixes)
    d_model = model.config.d_model
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = lf_writer(fh)
        writer.writerow(["flow_id", "label"] + [f"latent_{i}" for i in range(d_model)])
        for sample, latent in zip(samples, latents):
            writer.writerow([sample.flow_id, sample.label] + [f"{v:.9f}" for v in latent])
    return out_path
