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

predict and forward_prefixes run without an autodiff graph.

use_frequency_heads=False disables both the input widening and the frequency
heads, giving the plain transformer ablation.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, const, param
from .earliness import PrefixSpec, take_prefix
from .fourier import fft_2d, real_dft_kernel

LN_EPS = 1e-5
CHECKPOINT_FORMAT = "earlyflow-checkpoint-v1"
# Most prefixes one graph holds, and the most B * T^2 attention cells (T =
# prefix length + the classification token): 32 prefixes at attention length
# 65. Longer prefixes run in smaller groups, so no graph allocates more rows
# or bigger score tensors than that group does.
MAX_GROUP = 32
MAX_GROUP_CELLS = MAX_GROUP * 65 ** 2


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
        for name in ("d_in", "n_classes", "d_model", "n_heads", "n_blocks", "d_ff", "max_len"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        if not isinstance(self.dropout, numbers.Real) or not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not isinstance(self.use_frequency_heads, bool):
            raise ValueError("use_frequency_heads must be true or false")


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
    def __init__(self, config: MdtConfig, seed: int):
        self.config = config
        self.seed = seed
        self.classes: tuple | None = None  # label order backing the head, set by training
        self.params: dict = {}
        self.blocks: list = []
        rng = np.random.default_rng(seed)

        def glorot(name, fan_in, fan_out, shape=None):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            t = param(rng.uniform(-limit, limit, size=shape or (fan_in, fan_out)))
            self.params[name] = t
            return t

        def vector(name, size, fill):
            t = param(np.full(size, fill, dtype=np.float64))
            self.params[name] = t
            return t

        c = config
        d_feat = 3 * c.d_in if c.use_frequency_heads else c.d_in
        self.input_w = glorot("input_proj.weight", d_feat, c.d_model)
        self.input_b = vector("input_proj.bias", c.d_model, 0.0)
        self.cls_token = glorot("cls_token", 1, c.d_model, shape=(1, c.d_model))
        dv = c.d_model // c.n_heads
        concat_width = 2 * c.n_heads * dv if c.use_frequency_heads else c.n_heads * dv
        for b in range(c.n_blocks):
            prefix = f"blocks.{b}"
            attn = MdMhaParams(
                w_q=glorot(f"{prefix}.attn.w_q", c.d_model, c.d_model),
                w_k=glorot(f"{prefix}.attn.w_k", c.d_model, c.d_model),
                w_v=glorot(f"{prefix}.attn.w_v", c.d_model, c.d_model),
                w_o=glorot(f"{prefix}.attn.w_o", concat_width, c.d_model),
            )
            self.blocks.append(BlockParams(
                attn=attn,
                ln1_gain=vector(f"{prefix}.ln1.gain", c.d_model, 1.0),
                ln1_bias=vector(f"{prefix}.ln1.bias", c.d_model, 0.0),
                ff_w1=glorot(f"{prefix}.ff.w1", c.d_model, c.d_ff),
                ff_b1=vector(f"{prefix}.ff.b1", c.d_ff, 0.0),
                ff_w2=glorot(f"{prefix}.ff.w2", c.d_ff, c.d_model),
                ff_b2=vector(f"{prefix}.ff.b2", c.d_model, 0.0),
                ln2_gain=vector(f"{prefix}.ln2.gain", c.d_model, 1.0),
                ln2_bias=vector(f"{prefix}.ln2.bias", c.d_model, 0.0),
            ))
        self.head_w = glorot("head.weight", c.d_model, c.n_classes)
        self.head_b = vector("head.bias", c.n_classes, 0.0)
        self.positional = positional_encoding(c.max_len, c.d_model)

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


def _split_heads(t: Tensor, batch: int, length: int, n_heads: int, dv: int) -> Tensor:
    return ad.transpose(ad.reshape(t, (batch, length, n_heads, dv)), (0, 2, 1, 3))


def _merge_heads(t: Tensor, batch: int, length: int, width: int) -> Tensor:
    return ad.reshape(ad.transpose(t, (0, 2, 1, 3)), (batch, length, width))


def md_mha(z: Tensor, params: MdMhaParams, n_heads: int, use_frequency: bool = True) -> Tensor:
    """Multi-domain multi-head attention over a (batch, length, d_model) stack
    of equal-length sequences; each sequence attends only to itself. Scores
    are scaled by 1/sqrt(d_model).

    The frequency heads see q, k and v transformed along the sequence axis.
    That transform commutes with the shared projections, DFT(z W) = DFT(z) W,
    so z is transformed once, by one real matmul with the [C; -S] kernel, and
    its real and imaginary halves are projected like z itself."""
    batch, length, d_model = z.shape
    dv = d_model // n_heads
    scaling = 1.0 / math.sqrt(d_model)
    q = _split_heads(ad.matmul(z, params.w_q), batch, length, n_heads, dv)
    k = _split_heads(ad.matmul(z, params.w_k), batch, length, n_heads, dv)
    v = _split_heads(ad.matmul(z, params.w_v), batch, length, n_heads, dv)

    time_scores = ad.softmax(
        ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scaling), axis=-1)
    time_heads = _merge_heads(ad.matmul(time_scores, v), batch, length, n_heads * dv)

    if use_frequency:
        spectrum = ad.matmul(const(real_dft_kernel(length)), z)
        spec_re, spec_im = (ad.slice_axis(spectrum, 1, start, length) for start in (0, length))
        q_re = _split_heads(ad.matmul(spec_re, params.w_q), batch, length, n_heads, dv)
        q_im = _split_heads(ad.matmul(spec_im, params.w_q), batch, length, n_heads, dv)
        k_re = _split_heads(ad.matmul(spec_re, params.w_k), batch, length, n_heads, dv)
        k_im = _split_heads(ad.matmul(spec_im, params.w_k), batch, length, n_heads, dv)
        # the heads mix only the real part of the transformed values
        v_re = _split_heads(ad.matmul(spec_re, params.w_v), batch, length, n_heads, dv)
        # real part of the cross spectrum as similarity
        cross = ad.add(ad.matmul(q_re, ad.transpose(k_re, (0, 1, 3, 2))),
                       ad.matmul(q_im, ad.transpose(k_im, (0, 1, 3, 2))))
        freq_scores = ad.softmax(ad.scale(cross, scaling), axis=-1)
        freq_heads = _merge_heads(ad.matmul(freq_scores, v_re), batch, length, n_heads * dv)
        merged = ad.concat([time_heads, freq_heads], axis=2)
    else:
        merged = time_heads

    return ad.matmul(merged, params.w_o)


def _dropout(t: Tensor, p: float, training: bool, rng) -> Tensor:
    if not training or p <= 0.0:
        return t
    if rng is None:
        raise ValueError("training with dropout requires an rng")
    keep = (rng.random(t.shape) >= p) / (1.0 - p)
    return ad.mul(t, const(keep))


def encoder_block(z: Tensor, block: BlockParams, config: MdtConfig,
                  training: bool = False, rng=None) -> Tensor:
    """Post-norm block over a (batch, length, d_model) stack: attention,
    residual + layer norm, feed-forward, residual + layer norm. Shape
    preserving."""
    attended = md_mha(z, block.attn, config.n_heads, config.use_frequency_heads)
    z = ad.layer_norm(ad.add(z, _dropout(attended, config.dropout, training, rng)),
                      block.ln1_gain, block.ln1_bias, eps=LN_EPS)
    hidden = ad.relu(ad.linear(z, block.ff_w1, block.ff_b1))
    ff = ad.linear(hidden, block.ff_w2, block.ff_b2)
    z = ad.layer_norm(ad.add(z, _dropout(ff, config.dropout, training, rng)),
                      block.ln2_gain, block.ln2_bias, eps=LN_EPS)
    return z


def forward(model: MdtModel, x, training: bool = False, rng=None):
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

    feats = ifft_augment(x) if c.use_frequency_heads else x
    z = ad.add_bias(ad.matmul(const(feats), model.input_w), model.input_b)
    z = ad.add(z, const(np.broadcast_to(model.positional[:length], z.shape)))
    cls = ad.matmul(const(np.ones((batch, 1, 1))), model.cls_token)
    z = ad.concat([cls, z], axis=1)
    for block in model.blocks:
        z = encoder_block(z, block, c, training, rng)
    latent = ad.reshape(ad.slice_axis(z, 1, 0, 1), (batch, c.d_model))
    logits = ad.add_bias(ad.matmul(latent, model.head_w), model.head_b)
    if single:
        return ad.reshape(logits, (c.n_classes,)), ad.reshape(latent, (c.d_model,))
    return logits, latent


def predict(model: MdtModel, x) -> int:
    with ad.no_grad():
        logits, _ = forward(model, x)
    return int(np.argmax(logits.data))


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


def forward_prefixes(model: MdtModel, prefixes):
    """Eval-mode logits (n, n_classes) and latents (n, d_model) as arrays,
    in input order, for ragged (l, d_in) prefixes run as length buckets."""
    c = model.config
    logits = np.empty((len(prefixes), c.n_classes))
    latents = np.empty((len(prefixes), c.d_model))
    with ad.no_grad():
        for group in length_buckets([len(p) for p in prefixes]):
            group_logits, group_latents = forward(model, np.stack([prefixes[i] for i in group]))
            logits[group] = group_logits.data
            latents[group] = group_latents.data
    return logits, latents


# ---------------------------------------------------------------------------
# checkpoints and latent export

def _blob_path(path: str) -> str:
    return str(path) + ".bin"


def save_checkpoint(model: MdtModel, path):
    """JSON manifest at path, parameter blob (little-endian float64, manifest
    order) at path + '.bin'."""
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "seed": model.seed,
        "config": asdict(model.config),
        "classes": list(model.classes) if model.classes else None,
        "parameters": [
            {"name": name, "shape": list(t.data.shape)}
            for name, t in model.params.items()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    with open(_blob_path(path), "wb") as fh:
        for t in model.params.values():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> MdtModel:
    """Model from a manifest and its blob. A manifest that does not fit its
    config (unknown or missing keys, parameter names or shapes the config
    does not produce) raises ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint manifest")
    try:
        config = MdtConfig(**manifest["config"])
        seed = manifest["seed"]
        entries = [(entry["name"], tuple(entry["shape"])) for entry in manifest["parameters"]]
    except KeyError as exc:
        raise ValueError(f"{path}: manifest lacks {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: malformed manifest: {exc}") from None
    model = MdtModel(config, seed=seed)
    if manifest.get("classes"):
        model.classes = tuple(manifest["classes"])
    with open(_blob_path(path), "rb") as fh:
        blob = fh.read()
    offset = 0
    arrays = {}
    for name, shape in entries:
        count = int(np.prod(shape)) if shape else 1
        chunk = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays[name] = chunk.reshape(shape)
        offset += count * 8
    if offset != len(blob):
        raise ValueError(f"{path}: parameter blob size mismatch")
    if set(arrays) != set(model.params):
        raise ValueError(f"{path}: parameter names do not match the config")
    for name, t in model.params.items():
        if arrays[name].shape != t.data.shape:
            raise ValueError(f"{path}: parameter {name} has shape {list(arrays[name].shape)}, "
                             f"the config needs {list(t.data.shape)}")
    model.load_state(arrays)
    return model


def export_latents(model: MdtModel, samples, spec: PrefixSpec, out_path):
    """CSV of flow_id, label, and the d_model latent values per sample, so an
    external classifier can replace the built-in head."""
    samples = list(samples)
    prefixes = [take_prefix(sample, spec)[0].values for sample in samples]
    _, latents = forward_prefixes(model, prefixes)
    d_model = model.config.d_model
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["flow_id", "label"] + [f"latent_{i}" for i in range(d_model)])
        for sample, latent in zip(samples, latents):
            writer.writerow([sample.flow_id, sample.label] + [f"{v:.9f}" for v in latent])
    return out_path
