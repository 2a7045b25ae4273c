"""Discrete Fourier transforms for arbitrary lengths.

Forward transform uses exp(-2*pi*i*j*k/n) and is unnormalized; the inverse
uses the conjugate kernel scaled by 1/n, so ifft(fft(x)) == x. Every length
runs as one product with an (n, n) kernel matrix, so no input ever needs
padding. real_dft_kernel gives the forward transform of real input as one
real matrix [C; -S], for callers that fold it into other matmuls, and is the
one kernel that is built and cached: fft_along assembles its complex kernel
C - iS (or C + iS for the inverse) from it for each call, by exact copies and
negations.

The cache keeps what one model forward reuses, and no more: a forward at
prefix length L needs real_dft_kernel(d_in) and real_dft_kernel(L) for its
input widening and real_dft_kernel(L + 1), which every encoder block shares.
Ragged eval moves to a new length with nearly every forward, so older
kernels would only be held, never hit again.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Kernels the lru_cache below keeps (see the module docstring);
# model.DFT_CACHE_CELL_VALUES charges them.
KERNEL_CACHE_SIZE = 3


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def real_dft_kernel(n: int) -> np.ndarray:
    """Read-only (2n, n) matrix [C; -S], C[j, k] = cos(2*pi*j*k/n) and S the
    matching sines: kernel @ x stacks the real part of the forward transform
    of a real x (along its first axis) on top of the imaginary part. It is
    gathered from an n-entry cos/sin table by the index j*k mod n, so kernel
    angles stay exact for large n. The index is int32 while every product
    j*k fits, since that builds it faster than int64."""
    angle = 2 * np.pi * np.arange(n) / n
    j = np.arange(n, dtype=np.int32 if (n - 1) ** 2 < 2 ** 31 else np.int64)
    jk = np.outer(j, j)
    jk %= n
    kernel = np.stack([np.cos(angle), -np.sin(angle)]).take(jk, axis=1).reshape(2 * n, n)
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
    real = real_dft_kernel(n)
    kernel = np.empty((n, n), dtype=np.complex128)
    kernel.real = real[:n]
    if inverse:
        np.negative(real[n:], out=kernel.imag)
    else:
        kernel.imag = real[n:]
    # the kernel is symmetric, so a right-multiply transforms the last axis
    out = np.swapaxes(x, axis, -1) @ kernel
    if inverse:
        out /= n
    return np.swapaxes(out, axis, -1)


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
