"""Tests for the reverse-mode autodiff engine.

Forward expectations are hand-computed literals; every gradient is compared
against central finite differences (eps=1e-5) with relative error < 1e-4.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import finehash.autodiff as ad
from finehash.errors import ContractError, DimensionError, DomainError, NumericError

import helpers


def assert_grads_match(builder, arrays, seed=0, tol=1e-4):
    """Compare tape gradients of sum(out * weights) against finite differences."""
    probe = builder(*[ad.tensor(a) for a in arrays])
    weights = np.random.default_rng(seed).standard_normal(probe.shape)

    def value(*arrs):
        out = builder(*[ad.tensor(a) for a in arrs])
        return ad.sum_all(ad.hadamard(out, ad.tensor(weights))).item()

    with ad.Tape() as tape:
        leaves = [ad.parameter(a) for a in arrays]
        loss = ad.sum_all(ad.hadamard(builder(*leaves), ad.tensor(weights)))
    tape.backward(loss)
    numeric = helpers.finite_difference(value, [a.copy() for a in arrays])
    for leaf, expected in zip(leaves, numeric):
        err = helpers.relative_error(leaf.grad, expected)
        assert err < tol, f"gradient mismatch: relative error {err}"


class TestMatmul:
    def test_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        out = ad.matmul(ad.tensor(a), ad.tensor(np.eye(3)))
        assert np.array_equal(out.data, a)

    def test_row_sums(self):
        out = ad.matmul(ad.tensor([[1.0, 2.0], [3.0, 4.0]]), ad.tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_zero_matrix(self):
        out = ad.matmul(ad.tensor(np.zeros((2, 4))), ad.tensor(np.ones((4, 3))))
        assert np.array_equal(out.data, np.zeros((2, 3)))

    def test_inner_extent_mismatch(self):
        with pytest.raises(DimensionError):
            ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            ad.matmul(ad.tensor(np.ones(3)), ad.tensor(np.ones((3, 2))))


def zero_bias(channels, dtype=np.float64):
    return ad.tensor(np.zeros(channels, dtype))


class TestConv2d:
    def test_one_by_one_identity_bank(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(4, 5, 3))
        kernels = np.eye(3).reshape(1, 1, 3, 3)
        out = ad.conv2d(ad.tensor(x), ad.tensor(kernels), zero_bias(3))
        assert np.array_equal(out.data, x)

    def test_zero_kernels(self):
        bias = np.arange(5.0) - 2.0
        out = ad.conv2d(ad.tensor(np.ones((2, 4, 4, 2))), ad.tensor(np.zeros((3, 3, 2, 5))),
                        ad.tensor(bias))
        assert np.array_equal(out.data, np.broadcast_to(bias, (2, 4, 4, 5)))

    def test_output_dtype_follows_all_three_inputs(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4, 2)).astype(np.float32)
        kernels = rng.standard_normal((3, 3, 2, 3)).astype(np.float32)
        bias = rng.standard_normal(3)
        out = ad.conv2d(ad.tensor(x), ad.tensor(kernels), ad.tensor(bias)).data
        product = ad.conv2d(ad.tensor(x), ad.tensor(kernels), zero_bias(3, np.float32)).data
        assert out.dtype == np.float64
        assert np.array_equal(out, product.astype(np.float64) + bias)

    def test_ones_kernel_counts_valid_neighbors(self):
        # Constant input c with a 3x3 all-ones kernel sums the valid part of
        # each neighborhood: 4 cells at corners, 6 at edges, 9 inside.
        c = 2.0
        x = np.full((5, 5, 1), c)
        out = ad.conv2d(ad.tensor(x), ad.tensor(np.ones((3, 3, 1, 1))), zero_bias(1)).data[..., 0]
        assert out[0, 0] == 4 * c
        assert out[0, 2] == 6 * c
        assert out[2, 2] == 9 * c
        assert out[4, 4] == 4 * c

    def test_even_kernel_rejected(self):
        with pytest.raises(DimensionError):
            ad.conv2d(ad.tensor(np.ones((4, 4, 1))), ad.tensor(np.ones((2, 2, 1, 1))),
                      zero_bias(1))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ad.conv2d(ad.tensor(np.ones((4, 4, 2))), ad.tensor(np.ones((3, 3, 3, 1))),
                      zero_bias(1))

    @pytest.mark.parametrize("shape", [(2,), (4,), (1, 3), ()])
    def test_bias_shape_mismatch_rejected(self, shape):
        with pytest.raises(DimensionError, match="^conv2d: bias"):
            ad.conv2d(ad.tensor(np.ones((4, 4, 2))), ad.tensor(np.ones((3, 3, 2, 3))),
                      ad.tensor(np.zeros(shape)))


def naive_conv2d(x, kernels, bias, weights):
    """Same-padding conv forward and the gradients of sum(out * weights), one
    output position and one kernel tap at a time, in float64."""
    *lead, height, width, _ = x.shape
    k_h, k_w, _, c_out = kernels.shape
    out = np.zeros((*lead, height, width, c_out)) + bias
    grad_x = np.zeros(x.shape)
    grad_k = np.zeros(kernels.shape)
    for i in range(height):
        for j in range(width):
            for di in range(k_h):
                for dj in range(k_w):
                    src_i, src_j = i + di - k_h // 2, j + dj - k_w // 2
                    if 0 <= src_i < height and 0 <= src_j < width:
                        tap = kernels[di, dj]
                        pixel = x[..., src_i, src_j, :]
                        out[..., i, j, :] += pixel @ tap
                        grad_x[..., src_i, src_j, :] += weights[..., i, j, :] @ tap.T
                        grad_k[di, dj] += (pixel.reshape(-1, pixel.shape[-1]).T
                                           @ weights[..., i, j, :].reshape(-1, c_out))
    grad_b = weights.reshape(-1, c_out).sum(axis=0)
    return out, grad_x, grad_k, grad_b


def conv2d_with_grads(x, kernels, bias, weights):
    with ad.Tape() as tape:
        leaves = [ad.parameter(a) for a in (x, kernels, bias)]
        out = ad.conv2d(*leaves)
        loss = ad.sum_all(ad.hadamard(out, ad.tensor(weights)))
    tape.backward(loss)
    return (out.data, *(leaf.grad for leaf in leaves))


def scaled_error(got, expected):
    """Largest entrywise error over the largest reference magnitude."""
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


def sliding_window_conv2d(x, kernels, bias):
    """The conv forward with im2col columns from sliding_window_view plus
    moveaxis: the reference for the engine's single strided view."""
    *lead, height, width, c_in = x.shape
    k_h, k_w, _, c_out = kernels.shape
    padded = np.zeros((*lead, height + k_h - 1, width + k_w - 1, c_in),
                      dtype=np.result_type(x, kernels))
    padded[..., k_h // 2 : k_h // 2 + height, k_w // 2 : k_w // 2 + width, :] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k_h, k_w), axis=(-3, -2))
    columns = np.moveaxis(windows, -3, -1).reshape(-1, k_h * k_w * c_in)
    return (columns @ kernels.reshape(-1, c_out) + bias).reshape(*lead, height, width, c_out)


class TestIm2colColumns:
    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    @pytest.mark.parametrize("k_h,k_w", [(1, 1), (3, 3), (1, 3), (5, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equal_to_sliding_window_columns(self, dtype, k_h, k_w, lead):
        rng = np.random.default_rng(10 * k_h + k_w + len(lead))
        x = rng.standard_normal((*lead, 6, 7, 3)).astype(dtype)
        kernels = rng.standard_normal((k_h, k_w, 3, 4)).astype(dtype)
        bias = rng.standard_normal(4).astype(dtype)
        out = ad.conv2d(ad.tensor(x), ad.tensor(kernels), ad.tensor(bias)).data
        assert out.dtype == dtype
        assert np.array_equal(out, sliding_window_conv2d(x, kernels, bias))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_contiguous_input(self, dtype):
        rng = np.random.default_rng(12)
        x = np.moveaxis(rng.standard_normal((2, 3, 6, 7)).astype(dtype), 1, -1)
        assert not x.flags.c_contiguous
        kernels = rng.standard_normal((3, 5, 3, 4)).astype(dtype)
        bias = rng.standard_normal(4).astype(dtype)
        out = ad.conv2d(ad.tensor(x), ad.tensor(kernels), ad.tensor(bias)).data
        assert np.array_equal(out, sliding_window_conv2d(x, kernels, bias))


class TestConv2dBlocks:
    """The forward product runs over blocks of whole maps, so a map's result
    does not depend on how many maps are stacked with it."""

    @pytest.mark.parametrize("side", [8, 65])  # 64 maps a block; one map a block
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_several_blocks_and_remainder_equal_one_map_calls(self, dtype, side):
        rng = np.random.default_rng(side)
        maps = 2 * max(1, ad._CONV_BLOCK_ROWS // (side * side)) + 3
        x = rng.standard_normal((maps, side, side, 3)).astype(dtype)
        kernels = rng.standard_normal((3, 3, 3, 4)).astype(dtype)
        bias = ad.tensor(rng.standard_normal(4).astype(dtype))
        out = ad.conv2d(ad.tensor(x.reshape(-1, 1, side, side, 3)), ad.tensor(kernels), bias)
        singles = [ad.conv2d(ad.tensor(m), ad.tensor(kernels), bias).data for m in x]
        assert np.array_equal(out.data.reshape(maps, side, side, 4), np.stack(singles))

    def test_attention_conv_on_130_maps_equals_one_map_calls(self):
        rng = np.random.default_rng(130)
        x = rng.standard_normal((130, 8, 8, 32)).astype(np.float32)
        kernels = ad.tensor((0.1 * rng.standard_normal((1, 1, 32, 4))).astype(np.float32))
        bias = zero_bias(4, np.float32)
        out = ad.conv2d(ad.tensor(x), kernels, bias).data
        singles = [ad.conv2d(ad.tensor(m), kernels, bias).data for m in x]
        assert np.array_equal(out, np.stack(singles))


class TestConv2dAgainstNaiveLoop:
    KERNELS = [(1, 1), (3, 3), (5, 5), (3, 5)]

    @staticmethod
    def _case(k_h, k_w):
        rng = np.random.default_rng(100 * k_h + k_w)
        x = rng.standard_normal((2, 3, 6, 7, 3))  # stacked leading axes, H != W
        kernels = rng.standard_normal((k_h, k_w, 3, 4))
        bias = rng.standard_normal(4)
        weights = rng.standard_normal((2, 3, 6, 7, 4))
        return x, kernels, bias, weights

    @pytest.mark.parametrize("k_h,k_w", KERNELS)
    def test_float64_matches_loop(self, k_h, k_w):
        case = self._case(k_h, k_w)
        expected = naive_conv2d(*case)
        for got, want in zip(conv2d_with_grads(*case), expected, strict=True):
            assert got.dtype == np.float64
            assert scaled_error(got, want) <= 1e-12

    @pytest.mark.parametrize("k_h,k_w", KERNELS)
    def test_float32_within_stated_tolerance(self, k_h, k_w):
        case = [a.astype(np.float32) for a in self._case(k_h, k_w)]
        expected = naive_conv2d(*(a.astype(np.float64) for a in case))
        for got, want in zip(conv2d_with_grads(*case), expected, strict=True):
            assert got.dtype == np.float32
            assert scaled_error(got, want) <= 1e-5


def gated_stack_conv2d(x, maps, kernels, bias):
    """The composition gated_conv2d replaces: the gated stack, then conv2d
    and its relu; here the gates are [..., P, H, W]."""
    stack = ad.reshape(x, (*x.shape[:-3], 1, *x.shape[-3:]))
    return ad.relu(ad.conv2d(ad.hadamard(ad.reshape(maps, (*maps.shape, 1)), stack), kernels,
                             bias))


def gated_stack_with_grads(arrays, weights):
    """with_grads of gated_stack_conv2d for channel-last gates [..., H, W, P]:
    numpy moves the part axis in, and the gates' gradient back out."""
    x, maps, kernels, bias = arrays
    out, grad_x, grad_maps, grad_k, grad_b = with_grads(
        gated_stack_conv2d, [x, np.moveaxis(maps, -1, -3), kernels, bias], weights)
    return out, grad_x, np.moveaxis(grad_maps, -3, -1), grad_k, grad_b


def with_grads(op, arrays, weights):
    """An op's values and the gradients of sum(out * weights) for every input."""
    with ad.Tape() as tape:
        leaves = [ad.parameter(a) for a in arrays]
        out = op(*leaves)
        loss = ad.sum_all(ad.hadamard(out, ad.tensor(weights)))
    tape.backward(loss)
    return (out.data, *(leaf.grad for leaf in leaves))


class TestGatedConv2d:
    """gated_conv2d against the gated stack's conv2d, which it replaces."""

    KERNELS = [(1, 1), (3, 3), (3, 5)]

    @staticmethod
    def _case(k_h, k_w):
        rng = np.random.default_rng(100 * k_h + k_w)
        x = rng.standard_normal((2, 3, 6, 7, 3))  # stacked leading axes, H != W
        maps = rng.uniform(size=(2, 3, 6, 7, 4))
        kernels = rng.standard_normal((k_h, k_w, 3, 5))
        bias = rng.standard_normal(5)
        weights = rng.standard_normal((2, 3, 4, 6, 7, 5))
        return [x, maps, kernels, bias], weights

    @pytest.mark.parametrize("k_h,k_w", KERNELS)
    def test_float64_matches_gated_stack_conv(self, k_h, k_w):
        arrays, weights = self._case(k_h, k_w)
        expected = gated_stack_with_grads(arrays, weights)
        got = with_grads(ad.gated_conv2d, arrays, weights)
        for value, want in zip(got, expected, strict=True):
            assert value.dtype == np.float64 and value.shape == want.shape
            assert scaled_error(value, want) <= 1e-12

    @pytest.mark.parametrize("k_h,k_w", KERNELS)
    def test_float32_within_stated_tolerance(self, k_h, k_w):
        arrays, weights = self._case(k_h, k_w)
        expected = gated_stack_with_grads(arrays, weights)
        got = with_grads(ad.gated_conv2d, [a.astype(np.float32) for a in arrays],
                         weights.astype(np.float32))
        for value, want in zip(got, expected, strict=True):
            assert value.dtype == np.float32
            assert scaled_error(value, want) <= 1e-5

    @pytest.mark.parametrize("side", [8, 33])  # 16 maps a block; one map a block
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_several_blocks_and_remainder_equal_one_map_calls(self, dtype, side):
        rng = np.random.default_rng(side)
        count = 2 * max(1, ad._CONV_BLOCK_ROWS // (4 * side * side)) + 3
        x = rng.standard_normal((count, side, side, 3)).astype(dtype)
        maps = rng.uniform(size=(count, side, side, 4)).astype(dtype)
        kernels = ad.tensor(rng.standard_normal((3, 3, 3, 5)).astype(dtype))
        bias = ad.tensor(rng.standard_normal(5).astype(dtype))
        out = ad.gated_conv2d(ad.tensor(x), ad.tensor(maps), kernels, bias).data
        singles = [ad.gated_conv2d(ad.tensor(x[i]), ad.tensor(maps[i]), kernels, bias).data
                   for i in range(count)]
        assert np.array_equal(out, np.stack(singles))

    @pytest.mark.parametrize("maps_shape", [(6, 7, 4), (2, 7, 6, 4), (3, 6, 7, 4), (2, 6, 7),
                                            (2, 1, 6, 7, 4)])
    def test_mismatched_maps_rejected(self, maps_shape):
        with pytest.raises(DimensionError, match="^gated_conv2d: gates"):
            ad.gated_conv2d(ad.tensor(np.ones((2, 6, 7, 3))), ad.tensor(np.ones(maps_shape)),
                            ad.tensor(np.ones((3, 3, 3, 5))), zero_bias(5))

    def test_mismatched_features_rejected(self):
        with pytest.raises(DimensionError, match="^gated_conv2d: input of rank"):
            ad.gated_conv2d(ad.tensor(np.ones((6, 7))), ad.tensor(np.ones((6, 7, 4))),
                            ad.tensor(np.ones((3, 3, 7, 5))), zero_bias(5))

    @pytest.mark.parametrize("kernel_shape,bias_size", [((3, 3, 2, 5), 5), ((2, 3, 3, 5), 5),
                                                        ((3, 3, 3), 5), ((3, 3, 3, 5), 4)])
    def test_mismatched_kernels_rejected(self, kernel_shape, bias_size):
        with pytest.raises(DimensionError, match="^gated_conv2d: "):
            ad.gated_conv2d(ad.tensor(np.ones((6, 7, 3))), ad.tensor(np.ones((6, 7, 4))),
                            ad.tensor(np.ones(kernel_shape)), zero_bias(bias_size))

    def test_nan_gate_raises_naming_the_op(self):
        maps = np.ones((6, 7, 4))
        maps[3, 4, 2] = np.nan
        with pytest.raises(NumericError, match="^gated_conv2d: "):
            ad.gated_conv2d(ad.tensor(np.ones((6, 7, 3))), ad.Tensor(maps),
                            ad.tensor(np.ones((3, 3, 3, 5))), zero_bias(5))


def bits_of(array):
    """An array's bytes with its dtype and shape: equal only when bit for bit
    equal, -0.0 against +0.0 included."""
    return array.dtype, array.shape, array.tobytes()


class TestFusedRelu:
    """conv2d(..., relu=True) and gated_conv2d against ad.relu of the op with
    the relu left out, which the tape would record as two entries."""

    @staticmethod
    def _case(op, dtype):
        rng = np.random.default_rng(7)
        k_h, k_w = (1, 1) if op == "conv2d_1x1" else (3, 3)
        x = rng.standard_normal((2, 5, 6, 3))
        kernels = rng.standard_normal((k_h, k_w, 3, 4))
        bias = rng.standard_normal(4)
        kernels[..., 0] = 0.0  # channel 0's pre-activation is exactly +0
        bias[0] = 0.0
        if op == "gated_conv2d":
            arrays = [x, rng.uniform(size=(2, 5, 6, 2)), kernels, bias]
            weights = rng.standard_normal((2, 2, 5, 6, 4))
        else:
            arrays = [x, kernels, bias]
            weights = rng.standard_normal((2, 5, 6, 4))
        return [a.astype(dtype) for a in arrays], weights.astype(dtype)

    @staticmethod
    def _fused(op):
        if op == "gated_conv2d":
            return ad.gated_conv2d
        return lambda x, k, b: ad.conv2d(x, k, b, relu=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["conv2d_3x3", "conv2d_1x1", "gated_conv2d"])
    def test_values_and_gradients_equal_relu_of_unfused_op(self, op, dtype, monkeypatch):
        arrays, weights = self._case(op, dtype)
        fused = with_grads(self._fused(op), arrays, weights)
        # the same op recorded without its relu, then ad.relu as its own entry
        monkeypatch.setattr(ad, "_rectified", ad._result)
        pre = self._fused(op)(*[ad.tensor(a) for a in arrays]).data
        assert np.any(pre == 0.0) and np.any(pre > 0.0) and np.any(pre < 0.0)
        unfused = with_grads(lambda *leaves: ad.relu(self._fused(op)(*leaves)), arrays, weights)
        assert fused[0].dtype == dtype
        for got, want in zip(fused, unfused, strict=True):
            assert bits_of(got) == bits_of(want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_pre_activations_equal_relu(self, dtype):
        # the products above give +0.0 but never -0.0, so the fold itself is
        # checked on a pre-activation holding both zeros
        pre = np.array([[-0.0, 0.0, -1.5], [2.0, -0.0, 0.0]], dtype=dtype)
        g = np.array([[1.0, -2.0, 3.0], [-4.0, 5.0, 6.0]], dtype=dtype)
        results = []
        for fold in (ad._rectified, lambda *args: ad.relu(ad._result(*args))):
            with ad.Tape() as tape:
                leaf = ad.parameter(np.zeros_like(pre))
                out = fold("op", pre.copy(), [(leaf, lambda g: 2 * g)])
                loss = ad.sum_all(ad.hadamard(out, ad.tensor(g)))
            tape.backward(loss)
            results.append((bits_of(out.data), bits_of(leaf.grad)))
        assert results[0] == results[1]
        assert results[0][1] == bits_of(2 * g * (pre > 0.0))

    @pytest.mark.parametrize("op", ["conv2d", "gated_conv2d"])
    def test_negative_infinite_pre_activation_raises(self, op):
        # relu would map -inf to 0, so the pre-activation is checked first
        x = ad.tensor(np.full((1, 1, 1), 1e20, np.float32))
        kernels = ad.tensor(np.full((1, 1, 1, 1), -1e20, np.float32))
        bias = zero_bias(1, np.float32)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=rf"^{op}: "):
            if op == "conv2d":
                ad.conv2d(x, kernels, bias, relu=True)
            else:
                ad.gated_conv2d(x, ad.tensor(np.ones((1, 1, 1), np.float32)), kernels, bias)

    def test_tape_keeps_no_padded_copy_or_pre_activation(self):
        # after the forward pass the tape holds x (the caller's), the output
        # and small closures; the padded input and the unrectified map were
        # 1.3 and 1.0 outputs more
        x = ad.tensor(np.random.default_rng(3).standard_normal((8, 16, 16, 8)))
        kernels = ad.parameter(np.ones((3, 3, 8, 8)))
        bias = zero_bias(8)
        tracemalloc.start()
        try:
            with ad.Tape() as tape:
                out = ad.conv2d(x, kernels, bias, relu=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        assert held < 1.2 * out.data.nbytes, f"{held} bytes for a {out.data.nbytes}-byte output"


class TestSoftmax:
    def test_uniform_on_equal_scores(self):
        out = ad.softmax(ad.tensor(np.zeros(4)))
        assert np.allclose(out.data, 0.25, atol=1e-12)

    def test_log_three_gap(self):
        out = ad.softmax(ad.tensor([0.0, np.log(3.0)]))
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(9)
        a = ad.softmax(ad.tensor(x)).data
        b = ad.softmax(ad.tensor(x + 123.456)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.standard_normal(rng.integers(1, 12)) * 10.0
            out = ad.softmax(ad.tensor(x)).data
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out > 0.0)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            ad.softmax(ad.tensor(np.zeros(0)))


class TestPoolingAndReductions:
    def test_global_avg_pool_constant(self):
        out = ad.global_avg_pool(ad.tensor(np.full((3, 5, 2), 7.0)))
        assert np.array_equal(out.data, [7.0, 7.0])

    def test_global_avg_pool_small_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        out = ad.global_avg_pool(ad.tensor(x))
        assert np.array_equal(out.data, [2.5])

    def test_global_avg_pool_rank_check(self):
        with pytest.raises(DimensionError):
            ad.global_avg_pool(ad.tensor(np.zeros((2, 2))))

    def test_avg_pool2_small_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        out = ad.avg_pool2(ad.tensor(x), 2)
        assert np.array_equal(out.data, np.array([[[2.5]]]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_avg_pool2_equals_block_mean_bit_for_bit(self, dtype, factor):
        rng = np.random.default_rng(factor)
        x = rng.standard_normal((2, 3, 8, 12, 5)).astype(dtype)
        x[..., :factor, :factor, 0] = -0.0  # an all negative-zero block
        blocks = (2, 3, 8 // factor, factor, 12 // factor, factor, 5)
        expected = x.reshape(blocks).mean(axis=(-4, -2))
        out = ad.avg_pool2(ad.tensor(x), factor)
        assert out.data.dtype == dtype
        assert out.data.tobytes() == expected.tobytes()

    def test_avg_pool2_indivisible_rejected(self):
        with pytest.raises(DimensionError):
            ad.avg_pool2(ad.tensor(np.zeros((3, 4, 1))), 2)

    def test_channel_sum_example(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # shape (1, 2, 2)
        out = ad.channel_sum(ad.tensor(x))
        assert np.array_equal(out.data, [[3.0, 7.0]])


class TestElementwise:
    def test_hadamard_ones_is_identity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4))
        out = ad.hadamard(ad.tensor(x), ad.tensor(np.ones((3, 4))))
        assert np.array_equal(out.data, x)

    def test_hadamard_map_broadcast(self):
        rng = np.random.default_rng(8)
        plane = rng.standard_normal((3, 4, 1))
        full = rng.standard_normal((3, 4, 2))
        out = ad.hadamard(ad.tensor(plane), ad.tensor(full))
        assert np.array_equal(out.data, full * plane)
        flipped = ad.hadamard(ad.tensor(full), ad.tensor(plane))
        assert np.array_equal(flipped.data, out.data)

    def test_hadamard_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.hadamard(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((3, 2))))

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(ad.tensor(np.zeros(3)), ad.tensor(np.zeros(4)))

    def test_tanh_at_zero(self):
        assert ad.tanh(ad.tensor(np.zeros(3))).data.sum() == 0.0

    def test_sigmoid_at_zero(self):
        assert np.allclose(ad.sigmoid(ad.tensor(np.zeros(3))).data, 0.5, atol=1e-15)

    def test_relu_clamps_negatives(self):
        for dtype in (np.float32, np.float64):
            out = ad.relu(ad.tensor(np.array([-2.0, -0.0, 0.0, 3.0], dtype=dtype)))
            assert out.data.dtype == dtype
            # both signed zeros come out as +0.0, byte for byte
            assert out.data.tobytes() == np.array([0.0, 0.0, 0.0, 3.0], dtype=dtype).tobytes()
        leaf = ad.parameter(np.array([-2.0, -0.0, 0.0, 3.0]))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.relu(leaf))
        tape.backward(loss)
        assert np.array_equal(leaf.grad, [0.0, 0.0, 0.0, 1.0])  # subgradient 0 at both zeros

    def test_sqrt_negative_rejected(self):
        with pytest.raises(DomainError):
            ad.sqrt(ad.tensor([-1e-9]))

    def test_scale_and_shift(self):
        out = ad.add_scalar(ad.scale(ad.tensor([1.0, 2.0]), 3.0), -1.0)
        assert np.array_equal(out.data, [2.0, 5.0])

    def test_non_finite_result_rejected(self):
        big = np.full(2, 1e200)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            ad.hadamard(ad.tensor(big), ad.tensor(big))

    def test_non_finite_constant_rejected(self):
        with pytest.raises(NumericError):
            ad.tensor([np.inf])

    def test_forward_determinism(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 6, 3))
        k = rng.standard_normal((3, 3, 3, 4))
        bias = rng.standard_normal(4)
        a = ad.conv2d(ad.tensor(x), ad.tensor(k), ad.tensor(bias)).data
        b = ad.conv2d(ad.tensor(x), ad.tensor(k), ad.tensor(bias)).data
        assert np.array_equal(a, b)


def nan_in_last_map(maps):
    """Maps [maps, 64, 64, 1] of ones, more than _CONV_BLOCK_ROWS rows in all,
    with one NaN in the last map."""
    x = np.ones((maps, 64, 64, 1))
    assert maps * 64 * 64 > ad._CONV_BLOCK_ROWS >= 64 * 64
    x[-1, 10, 20, 0] = np.nan
    return x


# one call per op that computes values: finite input that overflows, or a
# non-finite input passed in through a raw, unchecked Tensor
NON_FINITE_CASES = {
    "add": lambda: ad.add(ad.tensor([1e308]), ad.tensor([1e308])),
    "sub": lambda: ad.sub(ad.tensor([1e308]), ad.tensor([-1e308])),
    "scale": lambda: ad.scale(ad.tensor([1e308]), 10.0),
    "add_scalar": lambda: ad.add_scalar(ad.tensor([1e308]), 1e308),
    "hadamard": lambda: ad.hadamard(ad.tensor([1e200]), ad.tensor([1e200])),
    "relu": lambda: ad.relu(ad.Tensor([1.0, np.nan])),
    "tanh": lambda: ad.tanh(ad.Tensor([np.nan])),
    "sigmoid": lambda: ad.sigmoid(ad.Tensor([np.nan])),
    "sqrt": lambda: ad.sqrt(ad.Tensor([np.inf])),
    "matmul": lambda: ad.matmul(ad.tensor([[1e200]]), ad.tensor([[1e200]])),
    "sum_all": lambda: ad.sum_all(ad.tensor([1e308, 1e308])),
    "channel_sum": lambda: ad.channel_sum(ad.tensor([[1e308, 1e308]])),
    "softmax": lambda: ad.softmax(ad.Tensor([0.0, np.nan])),
    "global_avg_pool": lambda: ad.global_avg_pool(ad.tensor(np.full((2, 1, 1), 1e308))),
    "avg_pool2": lambda: ad.avg_pool2(ad.tensor(np.full((2, 2, 1), 1e308))),
    "conv2d": lambda: ad.conv2d(ad.tensor(np.full((1, 1, 1), 1e20, np.float32)),
                                ad.tensor(np.full((1, 1, 1, 1), 1e20, np.float32)),
                                zero_bias(1, np.float32)),
    # a finite product that the bias pushes past the largest float64
    "conv2d-bias": lambda: ad.conv2d(ad.tensor(np.full((1, 1, 1), 1e308)),
                                     ad.tensor(np.ones((1, 1, 1, 1))), ad.tensor([1e308])),
    # a 3x3 bank over several positions: the im2col product overflows
    "conv2d-3x3": lambda: ad.conv2d(ad.tensor(np.full((2, 4, 5, 2), 1e20, np.float32)),
                                    ad.tensor(np.full((3, 3, 2, 3), 1e20, np.float32)),
                                    zero_bias(3, np.float32)),
    # above _CONV_BLOCK_ROWS rows, with the NaN in the last block
    "conv2d-blocked": lambda: ad.conv2d(ad.Tensor(nan_in_last_map(3)),
                                        ad.tensor(np.ones((3, 3, 1, 2))), zero_bias(2)),
    "conv2d-1x1-blocked": lambda: ad.conv2d(ad.Tensor(nan_in_last_map(3)),
                                            ad.tensor(np.ones((1, 1, 1, 2))), zero_bias(2)),
}


class TestFiniteness:
    @pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
    def test_computing_op_rejects_non_finite_result(self, case):
        op = case.split("-")[0]  # a case id is the op's name, or the name and a variant
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=rf"^{op}: "):
            NON_FINITE_CASES[case]()

    def test_rearranging_ops_equal_numpy(self):
        x = np.random.default_rng(5).standard_normal((2, 3, 4)).astype(np.float32)
        assert np.array_equal(ad.reshape(ad.tensor(x), (6, 4)).data, x.reshape(6, 4))
        assert np.array_equal(ad.concat([ad.tensor(x), ad.tensor(x[..., :1])]).data,
                              np.concatenate([x, x[..., :1]], axis=-1))

    def test_rearranged_nan_raises_at_the_next_computing_op(self):
        # reshape and concat only move entries, so they leave the check to
        # the first op that computes from them
        moved = ad.reshape(ad.concat([ad.reshape(ad.Tensor([np.nan, 1.0]), (2, 1)),
                                      ad.tensor([[2.0], [3.0]])]), (2, 2))
        with pytest.raises(NumericError, match="^tanh: "):
            ad.tanh(moved)


class TestBackward:
    def test_product_rule_exact(self):
        with ad.Tape() as tape:
            x = ad.parameter([3.0])
            y = ad.parameter([5.0])
            loss = ad.sum_all(ad.hadamard(x, y))
        tape.backward(loss)
        assert np.array_equal(x.grad, [5.0])
        assert np.array_equal(y.grad, [3.0])

    def test_fanout_accumulates(self):
        with ad.Tape() as tape:
            x = ad.parameter([1.5])
            loss = ad.sum_all(ad.add(ad.scale(x, 2.0), ad.scale(x, 3.0)))
        tape.backward(loss)
        assert np.array_equal(x.grad, [5.0])

    def test_tanh_chain(self):
        x0 = np.array([0.3, -1.2, 0.0])
        with ad.Tape() as tape:
            x = ad.parameter(x0)
            loss = ad.sum_all(ad.tanh(x))
        tape.backward(loss)
        assert np.allclose(x.grad, 1.0 - np.tanh(x0) ** 2, atol=1e-12)

    def test_non_scalar_seed_rejected(self):
        with ad.Tape() as tape:
            x = ad.parameter(np.ones(3))
            out = ad.scale(x, 2.0)
        with pytest.raises(DimensionError):
            tape.backward(out)

    def test_off_path_leaf_gets_zero_grad(self):
        with ad.Tape() as tape:
            x = ad.parameter([2.0])
            y = ad.parameter([4.0])
            ad.scale(y, 3.0)  # recorded but never feeds the loss
            loss = ad.sum_all(ad.scale(x, 2.0))
        tape.backward(loss)
        assert np.array_equal(x.grad, [2.0])
        assert np.array_equal(y.grad, [0.0])

    def test_only_leaves_and_seed_keep_grad(self):
        with ad.Tape() as tape:
            x = ad.parameter([1.0, -2.0])
            hidden = ad.scale(x, 3.0)
            loss = ad.sum_all(ad.tanh(hidden))
        tape.backward(loss)
        assert np.allclose(x.grad, 3.0 * (1.0 - np.tanh([3.0, -6.0]) ** 2), atol=1e-12)
        assert hidden.grad is None
        assert np.array_equal(loss.grad, 1.0)

    def test_backward_frees_saved_arrays(self):
        with ad.Tape() as tape:
            x = ad.parameter([1.0, -2.0, 3.0])
            hidden = ad.relu(x)
            saved = weakref.ref(hidden.data)  # the array relu's gradient keeps
            loss = ad.sum_all(ad.hadamard(hidden, hidden))
            del hidden
        tape.backward(loss)
        assert saved() is None
        assert len(tape) == 0
        assert np.array_equal(x.grad, [2.0, 0.0, 6.0])

    def test_second_backward_rejected(self):
        with ad.Tape() as tape:
            x = ad.parameter([2.0])
            loss = ad.sum_all(ad.scale(x, 2.0))
        tape.backward(loss)
        with pytest.raises(ContractError, match="^backward: "):
            tape.backward(loss)
        assert np.array_equal(x.grad, [2.0])

    def test_backward_linearity(self):
        rng = np.random.default_rng(10)
        x0 = rng.standard_normal(5)

        def grad_of(a, b):
            with ad.Tape() as tape:
                x = ad.parameter(x0)
                l1 = ad.sum_all(ad.tanh(x))
                l2 = ad.sum_all(ad.hadamard(x, x))
                loss = ad.add(ad.scale(l1, a), ad.scale(l2, b))
            tape.backward(loss)
            return x.grad.copy()

        g1 = grad_of(1.0, 0.0)
        g2 = grad_of(0.0, 1.0)
        combined = grad_of(2.0, -0.5)
        assert np.allclose(combined, 2.0 * g1 - 0.5 * g2, atol=1e-12)

    def test_fresh_tape_does_not_accumulate_across_passes(self):
        x0 = np.array([0.7, -0.4])
        grads = []
        for _ in range(2):
            with ad.Tape() as tape:
                x = ad.parameter(x0)
                loss = ad.sum_all(ad.hadamard(x, x))
            tape.backward(loss)
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_constants_stay_grad_free(self):
        c = ad.tensor([1.0, 2.0])
        with ad.Tape() as tape:
            x = ad.parameter([3.0, 4.0])
            loss = ad.sum_all(ad.hadamard(x, c))
        tape.backward(loss)
        assert c.grad is None
        assert np.array_equal(x.grad, [1.0, 2.0])


def _signed_away_from_zero(rng, shape, low=0.2, high=1.5):
    mag = rng.uniform(low, high, size=shape)
    return mag * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


GRAD_CASES = [
    (
        "matmul",
        lambda rng: [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))],
        lambda a, b: ad.matmul(a, b),
    ),
    (
        "conv2d_3x3",
        lambda rng: [rng.standard_normal((5, 6, 3)), rng.standard_normal((3, 3, 3, 4)),
                     rng.standard_normal(4)],
        lambda x, k, b: ad.conv2d(x, k, b),
    ),
    (
        "conv2d_1x1",
        lambda rng: [rng.standard_normal((4, 4, 2)), rng.standard_normal((1, 1, 2, 3)),
                     rng.standard_normal(3)],
        lambda x, k, b: ad.conv2d(x, k, b),
    ),
    (
        # leading axes: the bias gradient sums over every map and position
        "conv2d_stacked",
        lambda rng: [rng.standard_normal((2, 3, 4, 5, 2)), rng.standard_normal((3, 3, 2, 3)),
                     rng.standard_normal(3)],
        lambda x, k, b: ad.conv2d(x, k, b),
    ),
    ("softmax", lambda rng: [rng.standard_normal(7)], lambda x: ad.softmax(x)),
    (
        "global_avg_pool",
        lambda rng: [rng.standard_normal((3, 4, 2))],
        lambda x: ad.global_avg_pool(x),
    ),
    (
        "avg_pool2",
        lambda rng: [rng.standard_normal((4, 6, 3))],
        lambda x: ad.avg_pool2(x, 2),
    ),
    ("channel_sum", lambda rng: [rng.standard_normal((3, 4, 5))], lambda x: ad.channel_sum(x)),
    (
        "add",
        lambda rng: [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))],
        lambda a, b: ad.add(a, b),
    ),
    (
        "sub",
        lambda rng: [rng.standard_normal(6), rng.standard_normal(6)],
        lambda a, b: ad.sub(a, b),
    ),
    ("scale", lambda rng: [rng.standard_normal((2, 2))], lambda x: ad.scale(x, -1.7)),
    ("add_scalar", lambda rng: [rng.standard_normal(4)], lambda x: ad.add_scalar(x, 0.3)),
    (
        "hadamard_same_shape",
        lambda rng: [rng.standard_normal((3, 3)), rng.standard_normal((3, 3))],
        lambda a, b: ad.hadamard(a, b),
    ),
    (
        "hadamard_map_times_tensor",
        lambda rng: [rng.standard_normal((4, 5, 1)), rng.standard_normal((4, 5, 3))],
        lambda plane, full: ad.hadamard(plane, full),
    ),
    (
        "hadamard_tensor_times_map",
        lambda rng: [rng.standard_normal((4, 5, 3)), rng.standard_normal((4, 5, 1))],
        lambda full, plane: ad.hadamard(full, plane),
    ),
    ("relu", lambda rng: [_signed_away_from_zero(rng, (3, 4))], lambda x: ad.relu(x)),
    ("tanh", lambda rng: [rng.standard_normal((2, 5))], lambda x: ad.tanh(x)),
    ("sigmoid", lambda rng: [rng.standard_normal(6)], lambda x: ad.sigmoid(x)),
    ("sqrt", lambda rng: [rng.uniform(0.1, 2.0, size=(3, 3))], lambda x: ad.sqrt(x)),
    (
        "concat",
        lambda rng: [rng.standard_normal(3), rng.standard_normal(2), rng.standard_normal(4)],
        lambda a, b, c: ad.concat([a, b, c]),
    ),
    (
        "gated_conv2d_3x3",
        lambda rng: [rng.standard_normal((2, 5, 6, 3)), rng.uniform(size=(2, 5, 6, 2)),
                     rng.standard_normal((3, 3, 3, 4)), rng.standard_normal(4)],
        lambda x, maps, k, b: ad.gated_conv2d(x, maps, k, b),
    ),
    ("reshape", lambda rng: [rng.standard_normal((3, 4))], lambda x: ad.reshape(x, (2, 6))),
    ("sum_all", lambda rng: [rng.standard_normal((2, 3))], lambda x: ad.sum_all(x)),
]


class TestGradientChecks:
    @pytest.mark.parametrize(
        "builder,arrays_fn", [(b, a) for _, a, b in GRAD_CASES], ids=[c[0] for c in GRAD_CASES]
    )
    def test_against_finite_differences(self, builder, arrays_fn):
        rng = np.random.default_rng(42)
        for trial in range(3):
            assert_grads_match(builder, arrays_fn(rng), seed=trial)

    def test_composite_graph(self):
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal((4, 4, 2))
        k0 = rng.standard_normal((3, 3, 2, 3))
        b0 = rng.standard_normal(3)

        def network(x, k, b):
            h = ad.relu(ad.conv2d(x, k, b))
            pooled = ad.global_avg_pool(ad.avg_pool2(h, 2))
            return ad.softmax(ad.tanh(pooled))

        assert_grads_match(network, [x0, k0, b0], seed=99)
