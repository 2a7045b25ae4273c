"""Discrete Fourier transforms for arbitrary lengths.

Forward transform uses exp(-2*pi*i*j*k/n) and is unnormalized; the inverse
uses the conjugate kernel scaled by 1/n, so ifft(fft(x)) == x. Power-of-two
lengths run through an iterative radix-2 Cooley-Tukey; everything else goes
through Bluestein's chirp-z algorithm, so no input ever needs padding.
real_dft_kernel gives the forward transform of real input as one real
matrix, for callers that fold it into other matmuls.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _bit_reverse_indices(n: int) -> np.ndarray:
    levels = n.bit_length() - 1
    idx = np.arange(n, dtype=np.intp)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(levels):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


@lru_cache(maxsize=256)
def _twiddles(half: int, sign: int) -> np.ndarray:
    return np.exp(sign * 2j * np.pi * np.arange(half) / (2 * half))


def _fft_pow2(x: np.ndarray, sign: int) -> np.ndarray:
    """Radix-2 transform along the last axis. Length must be a power of two."""
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    y = np.ascontiguousarray(x[..., _bit_reverse_indices(n)], dtype=np.complex128)
    lead = y.shape[:-1]
    half = 1
    while half < n:
        w = _twiddles(half, sign)
        blocks = y.reshape(lead + (n // (2 * half), 2, half))
        even = blocks[..., 0, :].copy()
        odd = blocks[..., 1, :] * w
        blocks[..., 0, :] = even + odd
        blocks[..., 1, :] = even - odd
        half *= 2
    return y


@lru_cache(maxsize=64)
def _chirp(n: int, sign: int) -> np.ndarray:
    # exp(sign * pi * i * j^2 / n); j^2 reduced mod 2n keeps the argument small
    # so precision holds for large n.
    j2 = (np.arange(n, dtype=np.int64) ** 2) % (2 * n)
    return np.exp(sign * 1j * np.pi * j2 / n)


@lru_cache(maxsize=64)
def _bluestein_tables(n: int, sign: int):
    """Chirp, padded-chirp spectrum, and pad size for one Bluestein length."""
    w = _chirp(n, sign)
    m = 1 << (2 * n - 1).bit_length()
    b = np.zeros(m, dtype=np.complex128)
    wc = w.conj()
    b[:n] = wc
    b[m - n + 1:] = wc[1:][::-1]
    return w, _fft_pow2(b, -1), m


def _fft_bluestein(x: np.ndarray, sign: int) -> np.ndarray:
    """Arbitrary-length transform along the last axis via chirp-z."""
    n = x.shape[-1]
    w, fb, m = _bluestein_tables(n, sign)
    a = np.zeros(x.shape[:-1] + (m,), dtype=np.complex128)
    a[..., :n] = x * w
    conv = _fft_pow2(_fft_pow2(a, -1) * fb, +1) / m
    return conv[..., :n] * w


# Below this length a cached kernel-matrix product beats the staged
# transforms (attention sequences are short); the fast paths take over above.
DIRECT_LEN = 64


@lru_cache(maxsize=128)
def _dft_matrix(n: int, sign: int) -> np.ndarray:
    j = np.arange(n)
    return np.exp(sign * 2j * np.pi * np.outer(j, j) / n)


@lru_cache(maxsize=8)
def real_dft_kernel(n: int) -> np.ndarray:
    """Read-only (2n, n) matrix [C; -S], C[j, k] = cos(2*pi*j*k/n) and S the
    matching sines: kernel @ x stacks the real part of the forward transform
    of a real x (along its first axis) on top of the imaginary part.

    Angles come from an n-entry table indexed by j*k mod n, so they stay
    exact for large n. The cache is small on purpose: a kernel for n = 512 is
    4 MB, and callers that see many lengths only reuse the recent ones.
    """
    jk = np.outer(np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64)) % n
    angle = 2 * np.pi * np.arange(n) / n
    kernel = np.concatenate([np.cos(angle)[jk], -np.sin(angle)[jk]])
    kernel.flags.writeable = False
    return kernel


def _transform_last(x: np.ndarray, sign: int) -> np.ndarray:
    n = x.shape[-1]
    if n <= DIRECT_LEN:
        # kernel is symmetric, so a right-multiply transforms the last axis
        return x @ _dft_matrix(n, sign)
    if n & (n - 1) == 0:
        return _fft_pow2(x, sign)
    return _fft_bluestein(x, sign)


def fft_1d(x, inverse: bool = False) -> np.ndarray:
    """Transform a vector of any length n >= 1.

    Forward is unnormalized; inverse is scaled by 1/n.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"fft_1d expects a vector, got shape {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise ValueError("fft_1d of an empty vector")
    if inverse:
        return _transform_last(x, +1) / n
    return _transform_last(x, -1)


def fft_along(x, axis: int, inverse: bool = False) -> np.ndarray:
    """Transform along one axis of a stacked array (no normalization mix-ups:
    inverse is scaled by 1/len(axis))."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[axis] == 0:
        raise ValueError("fft_along over an empty axis")
    moved = np.moveaxis(x, axis, -1)
    if inverse:
        out = _transform_last(moved, +1) / moved.shape[-1]
    else:
        out = _transform_last(moved, -1)
    return np.moveaxis(out, -1, axis)


def fft_2d(x, inverse: bool = False) -> np.ndarray:
    """Transform rows then columns of a matrix, or of each matrix in a stack
    (the last two axes); inverse scaled by 1/(rows*cols)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim < 2:
        raise ValueError(f"fft_2d expects a matrix or a stack of them, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("fft_2d of an empty matrix")
    out = fft_along(x, axis=-1, inverse=inverse)
    return fft_along(out, axis=-2, inverse=inverse)
