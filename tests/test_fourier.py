import numpy as np
import pytest

from earlyflow.fourier import _dft_matrix, fft_1d, fft_2d, fft_along, real_dft_kernel

from naive import naive_dft, naive_dft_2d

PRIMES = [3, 5, 7, 11, 13, 17, 31, 61]


def rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-30)
    return np.abs(a - b).max() / scale


def test_constant_vector_is_dc_only():
    c = 2.5 - 1.25j
    out = fft_1d([c, c, c, c])
    assert np.allclose(out, [4 * c, 0, 0, 0], atol=1e-12)


def test_fft_then_ifft_is_identity():
    rng = np.random.default_rng(7)
    x = rng.normal(size=7) + 1j * rng.normal(size=7)
    back = fft_1d(fft_1d(x), inverse=True)
    assert np.abs(back - x).max() < 1e-12


@pytest.mark.parametrize(
    "n", [1, 2, 4, 16, 64] + PRIMES + [6, 12, 20, 48, 96, 127, 128, 250, 256])
def test_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert rel_err(fft_1d(x), naive_dft(x)) < 1e-9
    assert rel_err(fft_1d(x, inverse=True), naive_dft(x, inverse=True)) < 1e-9


# naive_dft is the same kernel-times-vector formula the transforms use, so long
# lengths are also checked against numpy's own FFT
LONG = [65, 96, 127, 128, 232, 250, 256, 512, 513]


@pytest.mark.parametrize("n", LONG)
def test_long_lengths_match_numpy_fft(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    assert rel_err(fft_1d(x[0]), np.fft.fft(x[0])) < 1e-12
    assert rel_err(fft_1d(x[0], inverse=True), np.fft.ifft(x[0])) < 1e-12
    assert rel_err(fft_along(x, axis=1), np.fft.fft(x, axis=1)) < 1e-12
    assert rel_err(fft_along(x.T, axis=0, inverse=True), np.fft.ifft(x.T, axis=0)) < 1e-12
    assert rel_err(fft_2d(x), np.fft.fft2(x)) < 1e-12
    assert rel_err(fft_2d(x, inverse=True), np.fft.ifft2(x)) < 1e-12


@pytest.mark.parametrize("n", [1, 7, 64, 65, 250])
def test_dft_kernels_are_read_only(n):
    for sign in (-1, +1):
        kernel = _dft_matrix(n, sign)
        assert kernel.shape == (n, n) and not kernel.flags.writeable
        with pytest.raises(ValueError):
            kernel[0, 0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 17, 64, 67, 257, 513])
def test_real_dft_kernel_matches_naive_dft(n):
    # [C; -S] @ x stacks the real part of the forward transform on the imaginary
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 3))
    kernel = real_dft_kernel(n)
    assert kernel.shape == (2 * n, n) and not kernel.flags.writeable
    want = np.stack([naive_dft(x[:, c]) for c in range(3)], axis=1)
    assert rel_err(kernel @ x, np.concatenate([want.real, want.imag])) < 1e-9


def test_empty_vector_rejected():
    with pytest.raises(ValueError):
        fft_1d(np.zeros(0))


def test_2d_zero_matrix():
    out = fft_2d(np.zeros((3, 5)))
    assert np.abs(out).max() == 0.0


def test_2d_roundtrip_identity():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 13)) + 1j * rng.normal(size=(5, 13))
    back = fft_2d(fft_2d(x), inverse=True)
    assert np.abs(back - x).max() < 1e-12


def test_2d_matches_naive_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert rel_err(fft_2d(x), naive_dft_2d(x)) < 1e-9
    assert rel_err(fft_2d(x, inverse=True), naive_dft_2d(x, inverse=True)) < 1e-9


def test_2d_empty_rejected():
    with pytest.raises(ValueError):
        fft_2d(np.zeros((0, 3)))


def test_linearity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=21) + 1j * rng.normal(size=21)
    y = rng.normal(size=21) + 1j * rng.normal(size=21)
    a, b = 1.7, -0.9 + 0.3j
    lhs = fft_1d(a * x + b * y)
    rhs = a * fft_1d(x) + b * fft_1d(y)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_parseval():
    rng = np.random.default_rng(9)
    for n in [8, 13, 33]:
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        energy_time = np.sum(np.abs(x) ** 2)
        energy_freq = np.sum(np.abs(fft_1d(x)) ** 2) / n
        assert abs(energy_time - energy_freq) < 1e-9 * max(1.0, energy_time)


def test_fft_along_axis_matches_columnwise_naive():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
    got = fft_along(x, axis=0)
    want = np.stack([naive_dft(x[:, c]) for c in range(4)], axis=1)
    assert rel_err(got, want) < 1e-9
