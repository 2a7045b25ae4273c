import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earlyflow import autodiff as ad
from earlyflow.autodiff import (
    Tensor, add, add_bias, backward, concat, const, cross_entropy, fft_pair,
    layer_norm, linear, matmul, mean_pool, mul, param, relu, reshape, scale,
    slice_axis, softmax, sub, sum_all, transpose, zero_grad,
)

from gradcheck import assert_grads_match
from naive import naive_layer_norm, naive_matmul


def rand(rng, *shape):
    return param(rng.normal(size=shape))


def functional(rng, shape):
    """Fixed random linear functional turning an op output into a scalar."""
    c = const(rng.normal(size=shape))
    return lambda out: sum_all(mul(out, c))


# ---------------------------------------------------------------------------
# forward-value checks

def test_matmul_matches_naive_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    got = matmul(const(a), const(b)).data
    assert np.abs(got - naive_matmul(a, b)).max() < 1e-12


def test_softmax_uniform_on_zeros():
    out = softmax(const([0.0, 0.0, 0.0])).data
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3])


@pytest.mark.parametrize("spread", [1.0, 300.0, 3000.0])
def test_softmax_inplace_same_bits_as_formula(spread):
    # wide rows put many shifted values where exp underflows to 0 or to a
    # subnormal, the cases the in-place kernel routes around np.exp
    rng = np.random.default_rng(int(spread))
    x = rng.normal(size=(3, 4, 9, 9)) * spread
    # one row straddles the last subnormal result of exp once scaled by 0.25
    x[0, 0, 0] = np.r_[0.0, 4 * np.linspace(-746.0, -744.5, 8)]
    scaled = x * 0.25
    e = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
    want = e / e.sum(axis=-1, keepdims=True)
    got = ad.softmax_inplace(x.copy(), scale=0.25)
    assert got.tobytes() == want.tobytes()
    assert ad.softmax_inplace(x.copy(), axis=1).tobytes() == softmax(const(x), axis=1).data.tobytes()


def test_layer_norm_two_dim_pathology():
    # rows [a, a] normalize to [0, 0]; [a, b] with a > b to [1, -1]
    g = const(np.ones(2))
    b = const(np.zeros(2))
    x = const([[3.7, 3.7], [5.0, 1.0], [-2.0, 8.0]])
    out = layer_norm(x, g, b, eps=1e-12).data
    assert np.allclose(out[0], [0.0, 0.0], atol=1e-6)
    assert np.allclose(out[1], [1.0, -1.0], atol=1e-6)
    assert np.allclose(out[2], [-1.0, 1.0], atol=1e-6)


@settings(max_examples=40)
@given(st.integers(1, 5), st.integers(1, 70), st.floats(1e-3, 1e6), st.floats(-1e6, 1e6))
def test_layer_norm_same_bits_as_mean_var_formula(rows, width, spread, offset):
    # layer_norm derives the variance from its own centred values; that is
    # np.var's computation, so the output bits are np.var's
    rng = np.random.default_rng([rows, width])
    x = rng.normal(size=(rows, 3, width)) * spread + offset
    gain, bias = rng.normal(size=width), rng.normal(size=width)
    got = layer_norm(const(x), const(gain), const(bias), eps=1e-5).data
    assert got.tobytes() == naive_layer_norm(x, gain, bias, 1e-5).tobytes()


def test_layer_norm_scale_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 8))
    g, b = const(np.ones(8)), const(np.zeros(8))
    a = layer_norm(const(x), g, b, eps=1e-12).data
    c = layer_norm(const(2.5 * x), g, b, eps=1e-12).data
    assert np.abs(a - c).max() < 1e-9


def test_cross_entropy_hand_value():
    # two classes, logits [0, 0]: nll = log 2 regardless of target
    loss = cross_entropy(const([0.0, 0.0]), 1)
    assert abs(float(loss.data) - np.log(2)) < 1e-12


def test_cross_entropy_class_weights():
    logits = const(np.array([[2.0, -1.0], [0.5, 0.5]]))
    w = np.array([1.0, 3.0])
    loss = cross_entropy(logits, [0, 1], class_weights=w)
    x = logits.data
    lse = np.log(np.exp(x).sum(axis=1))
    nll = lse - x[[0, 1], [0, 1]]
    expect = (1.0 * nll[0] + 3.0 * nll[1]) / 4.0
    assert abs(float(loss.data) - expect) < 1e-12


def test_sum_gradient_is_ones():
    rng = np.random.default_rng(3)
    w = rand(rng, 4, 5)
    loss = sum_all(w)
    backward(loss)
    assert np.array_equal(w.grad, np.ones((4, 5)))


def test_backward_rejects_nonscalar():
    with pytest.raises(ValueError):
        backward(param(np.zeros((2, 2))))


def test_add_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        add(const(np.zeros(3)), const(np.zeros(4)))


def test_softmax_nonfinite_rejected():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            softmax(const([1.0, bad]))


def test_no_grad_records_nothing_and_restores_on_exit():
    rng = np.random.default_rng(8)
    w = rand(rng, 3, 2)
    x = const(rng.normal(size=(4, 3)))
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            out = relu(matmul(x, w))
            assert not out.requires_grad and out._parents == ()
            raise RuntimeError
    assert np.array_equal(out.data, relu(matmul(x, w)).data)
    tracked = sum_all(matmul(x, w))
    assert tracked.requires_grad
    backward(tracked)
    assert w.grad is not None


def test_grad_accumulates_across_backward_calls():
    rng = np.random.default_rng(4)
    w = rand(rng, 3)
    backward(sum_all(w))
    backward(sum_all(w))
    assert np.allclose(w.grad, 2.0)


def test_second_backward_over_freed_graph_raises():
    # backward drops each op's closure and parents once it has run; a second
    # pass over that graph, or over a new loss built on one of its nodes,
    # raises before it moves any grad
    rng = np.random.default_rng(5)
    w = rand(rng, 3, 2)
    hidden = relu(matmul(const(rng.normal(size=(4, 3))), w))
    loss = sum_all(hidden)
    backward(loss)
    assert hidden._parents == () and loss._parents == ()
    grad = w.grad.copy()
    for again in (loss, sum_all(scale(hidden, 2.0))):
        with pytest.raises(ValueError, match="freed"):
            backward(again)
    assert np.array_equal(w.grad, grad)


def test_matmul_takes_a_matrix_or_stack_by_one_matrix():
    for a, b in (((2, 3, 4), (2, 4, 5)), ((4,), (4, 5)), ((3, 4), (4,))):
        with pytest.raises(ValueError, match="unsupported matmul ranks"):
            matmul(const(np.zeros(a)), const(np.zeros(b)))
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul(const(np.zeros((2, 3, 4))), const(np.zeros((5, 2))))


# ---------------------------------------------------------------------------
# gradient oracle: every differentiable op vs central finite differences

def test_every_op_matches_finite_differences():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        m, k, n = (int(v) for v in rng.integers(2, 8, size=3))

        a, b = rand(rng, m, k), rand(rng, k, n)
        f_mn = functional(rng, (m, n))
        assert_grads_match(lambda: f_mn(matmul(a, b)), [a, b])

        x, y = rand(rng, m, n), rand(rng, m, n)
        assert_grads_match(lambda: f_mn(add(x, y)), [x, y])
        assert_grads_match(lambda: f_mn(sub(x, y)), [x, y])
        assert_grads_match(lambda: f_mn(mul(x, y)), [x, y])
        assert_grads_match(lambda: f_mn(scale(x, 1.7)), [x])

        bias = rand(rng, n)
        assert_grads_match(lambda: f_mn(add_bias(x, bias)), [x, bias])
        assert_grads_match(lambda: f_mn(transpose(transpose(x))), [x])
        f_flat = functional(rng, (m * n,))
        assert_grads_match(lambda: f_flat(reshape(x, (m * n,))), [x])
        f_cat = functional(rng, (2 * m, n))
        assert_grads_match(lambda: f_cat(concat([x, y], axis=0)), [x, y])
        if n >= 2:
            f_sl = functional(rng, (m, n - 1))
            assert_grads_match(lambda: f_sl(slice_axis(x, 1, 1, n - 1)), [x])

        # keep relu inputs away from the kink
        r = param(rng.normal(size=(m, n)) + np.sign(rng.normal(size=(m, n))) * 0.2)
        assert_grads_match(lambda: f_mn(relu(r)), [r])

        assert_grads_match(lambda: f_mn(softmax(x, axis=-1)), [x])

        gain, beta = rand(rng, n), rand(rng, n)
        assert_grads_match(lambda: f_mn(layer_norm(x, gain, beta)), [x, gain, beta])

        w2, b2 = rand(rng, n, k), rand(rng, k)
        f_mk = functional(rng, (m, k))
        assert_grads_match(lambda: f_mk(linear(x, w2, b2)), [x, w2, b2])

        f_n = functional(rng, (n,))
        assert_grads_match(lambda: f_n(mean_pool(x, axis=0)), [x])

        targets = rng.integers(0, n, size=m)
        weights = rng.uniform(0.5, 2.0, size=n)
        assert_grads_match(
            lambda: cross_entropy(x, targets, class_weights=weights), [x])


def test_batched_matmul_matches_finite_differences():
    # a (batch, rows, cols) stack by one shared matrix, as forward uses it
    rng = np.random.default_rng(42)
    a, shared = rand(rng, 3, 4, 5), rand(rng, 5, 2)
    f = functional(rng, (3, 4, 2))
    assert_grads_match(lambda: f(matmul(a, shared)), [a, shared])


def test_fft_pair_gradients_match_finite_differences():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        L, d = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        re, im = rand(rng, L, d), rand(rng, L, d)
        cr = const(rng.normal(size=(L, d)))
        ci = const(rng.normal(size=(L, d)))
        for inverse in (False, True):
            def loss(inv=inverse):
                orr, oi = fft_pair(re, im, axis=0, inverse=inv)
                return sum_all(add(mul(orr, cr), mul(oi, ci)))
            assert_grads_match(loss, [re, im])


def test_fft_pair_real_input_forward_matches_fourier():
    from earlyflow.fourier import fft_along
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3))
    orr, oi = fft_pair(const(x), None, axis=0)
    want = fft_along(x, axis=0)
    assert np.abs(orr.data - want.real).max() < 1e-12
    assert np.abs(oi.data - want.imag).max() < 1e-12


def test_quadratic_composite_matches_finite_differences():
    # loss = sum((W x) * (W x)) exercises a reused intermediate
    rng = np.random.default_rng(6)
    w = rand(rng, 4, 3)
    x = const(rng.normal(size=(3, 2)))

    def loss():
        y = matmul(w, x)
        return sum_all(mul(y, y))

    assert_grads_match(loss, [w], tol=1e-6)


def test_fft_augmented_path_with_constant_branch():
    # constants flow through the transform branch, parameters through the
    # time branch; gradients must still match finite differences
    rng = np.random.default_rng(7)
    w = rand(rng, 5, 3)
    base = const(rng.normal(size=(4, 5)))
    spec_re, spec_im = fft_pair(const(rng.normal(size=(4, 3))), None, axis=0)

    def loss():
        projected = matmul(base, w)
        stacked = concat([projected, spec_re, spec_im], axis=1)
        return sum_all(mul(stacked, stacked))

    assert_grads_match(loss, [w], tol=1e-4)
