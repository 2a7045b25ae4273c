"""Discrete Fourier transforms for arbitrary lengths.

Forward transform uses exp(-2*pi*i*j*k/n) and is unnormalized; the inverse
uses the conjugate kernel scaled by 1/n, so ifft(fft(x)) == x. Every length
runs as one product with a cached (n, n) kernel matrix, so no input ever
needs padding. real_dft_kernel gives the forward transform of real input as
one real matrix, for callers that fold it into other matmuls.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def _dft_matrix(n: int, sign: int) -> np.ndarray:
    """Read-only (n, n) kernel exp(sign*2*pi*i*j*k/n).

    Angles come from an n-entry table indexed by j*k mod n, so they stay
    exact for large n. The cache is small on purpose: a kernel for n = 512 is
    4 MB, and callers that see many lengths only reuse the recent ones.
    """
    angle = 2 * np.pi * np.arange(n) / n
    table = np.empty(n, dtype=np.complex128)
    table.real = np.cos(angle)
    table.imag = sign * np.sin(angle)
    jk = np.outer(np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64)) % n
    kernel = table[jk]
    kernel.flags.writeable = False
    return kernel


@lru_cache(maxsize=8)
def real_dft_kernel(n: int) -> np.ndarray:
    """Read-only (2n, n) matrix [C; -S], C[j, k] = cos(2*pi*j*k/n) and S the
    matching sines: kernel @ x stacks the real part of the forward transform
    of a real x (along its first axis) on top of the imaginary part."""
    k = _dft_matrix(n, -1)
    kernel = np.concatenate([k.real, k.imag])
    kernel.flags.writeable = False
    return kernel


def fft_1d(x, inverse: bool = False) -> np.ndarray:
    """Transform a vector of any length n >= 1.

    Forward is unnormalized; inverse is scaled by 1/n.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"fft_1d expects a vector, got shape {x.shape}")
    return fft_along(x, axis=0, inverse=inverse)


def fft_along(x, axis: int, inverse: bool = False) -> np.ndarray:
    """Transform along one axis of a stacked array (no normalization mix-ups:
    inverse is scaled by 1/len(axis))."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[axis]
    if n == 0:
        raise ValueError("fft_along over an empty axis")
    # the kernel is symmetric, so a right-multiply transforms the last axis
    out = np.moveaxis(x, axis, -1) @ _dft_matrix(n, +1 if inverse else -1)
    if inverse:
        out /= n
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
