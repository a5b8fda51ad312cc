"""Tensor engine tests: forward values against independent oracles,
gradients against central finite differences."""

import numpy as np
import pytest

import resizenet.tensor
from resizenet.model import GatedResNet, GateMode, ModelSpec
from resizenet.tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    _im2col,
    add,
    add_n,
    add_rows,
    add_scalar,
    affine,
    backward,
    batch_norm,
    concat_cols,
    conv2d,
    global_avg_pool,
    grad_check,
    mean_all,
    mul,
    mul_scalar,
    no_grad,
    relu,
    scale_features,
    sigmoid,
    softmax_cross_entropy,
    sum_all,
    take_rows,
)


def naive_conv2d(x, w, stride=1, pad=0):
    """Direct six-loop convolution reference, no vectorization."""
    b, c, h, width = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (width + 2 * pad - k) // stride + 1
    out = np.zeros((b, cout, ho, wo))
    for n in range(b):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(k):
                            for v in range(k):
                                acc += xp[n, ci, i * stride + u, j * stride + v] \
                                    * w[co, ci, u, v]
                    out[n, co, i, j] = acc
    return out


def nhwc(x):
    """An NCHW array in the engine's channels-last [B,H,W,C] layout."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def nchw(x):
    """A channels-last engine array in the reference's NCHW layout."""
    return x.transpose(0, 3, 1, 2)


def spy_im2col_rows(monkeypatch) -> list:
    """Record the sample count of every ``_im2col`` call."""
    rows = []
    im2col = resizenet.tensor._im2col

    def spy(x, *args):
        rows.append(x.shape[0])
        return im2col(x, *args)

    monkeypatch.setattr(resizenet.tensor, "_im2col", spy)
    return rows


def assert_conv_adjoint(h, width, k, pad, stride):
    """conv is bilinear: <conv(x, w), y> == <x, dx> == <w, dw>."""
    rng = np.random.default_rng(41)
    x = Tensor(nhwc(rng.standard_normal((2, 3, h, width))), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, k, k)), requires_grad=True)
    ref = naive_conv2d(nchw(x.data), w.data, stride=stride, pad=pad)
    y = rng.standard_normal(ref.shape)
    backward(sum_all(mul(conv2d(x, w, stride=stride, pad=pad),
                         Tensor(nhwc(y)))))
    inner = np.sum(ref * y)
    np.testing.assert_allclose(np.sum(x.data * x.grad), inner, rtol=1e-12)
    np.testing.assert_allclose(np.sum(w.data * w.grad), inner, rtol=1e-12)


# (H, W, k, pad, stride) of maps with no more pixels than the kernel has
# taps, which _conv runs as one dense GEMM: every pad conv2d accepts
SMALL_MAPS = [(h, w, k, pad, stride)
              for h, w in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]
              for k in (1, 3) if h * w <= k * k
              for pad in range(k) if min(h, w) + 2 * pad >= k
              for stride in (1, 2)]


class TestTensorBasics:
    def test_creation_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])

    def test_creation_rejects_inf(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.inf, 0.0])

    def test_data_is_float64_row_major(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]

    def test_op_output_flags_nonfinite(self):
        a = Tensor([1e308], requires_grad=True)
        b = Tensor([1e308])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            add(a, b)

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()


class TestConv2d:
    def test_all_ones_sums_kernel(self):
        x = Tensor(np.ones((2, 5, 6, 1)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, w)
        assert out.shape == (2, 3, 4, 1)
        np.testing.assert_array_equal(out.data, 9.0)

    def test_identity_kernel_preserves_input(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4, 5, 3))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w), stride=1, pad=1)
        np.testing.assert_array_equal(out.data, x)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 4, 7, 8))
        w = rng.standard_normal((6, 4, 3, 3))
        out = conv2d(Tensor(nhwc(x)), Tensor(w), stride=1, pad=0)
        ref = naive_conv2d(x, w, stride=1, pad=0)
        np.testing.assert_allclose(nchw(out.data), ref, atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive_reference_random_shapes(self, stride, pad):
        rng = np.random.default_rng(2 + stride * 10 + pad)
        x = rng.standard_normal((2, 3, 8, 9))
        w = rng.standard_normal((5, 3, 3, 3))
        out = conv2d(Tensor(nhwc(x)), Tensor(w), stride=stride, pad=pad)
        ref = naive_conv2d(x, w, stride=stride, pad=pad)
        np.testing.assert_allclose(nchw(out.data), ref, atol=1e-12)
        assert nchw(out.data).shape == ref.shape

    @pytest.mark.parametrize("x_shape,w_shape,stride,pad", [
        ((2, 3, 5, 8), (4, 3, 3, 3), 1, 1),     # H != W
        ((2, 3, 7, 4), (4, 3, 3, 3), 2, 1),
        ((2, 3, 6, 9), (4, 3, 3, 3), 2, 0),
        ((2, 4, 8, 6), (6, 4, 1, 1), 2, 0),     # 1x1 stride-2 projection
        ((2, 4, 5, 8), (6, 4, 1, 1), 2, 0),
    ] + [((2, 3, h, width), (4, 3, k, k), stride, pad)
         for h, width, k, pad, stride in SMALL_MAPS])
    def test_matches_naive_reference_other_shapes(self, monkeypatch, x_shape,
                                                  w_shape, stride, pad):
        # a map with H*W <= k*k runs as one dense GEMM, with no columns
        rng = np.random.default_rng(40)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        blocks = spy_im2col_rows(monkeypatch)
        out = conv2d(Tensor(nhwc(x)), Tensor(w), stride=stride, pad=pad)
        assert (blocks == []) == (x_shape[2] * x_shape[3] <= w_shape[2] ** 2)
        ref = naive_conv2d(x, w, stride=stride, pad=pad)
        assert nchw(out.data).shape == ref.shape
        np.testing.assert_allclose(nchw(out.data), ref, atol=1e-12)

    @pytest.mark.parametrize("k,pad", [(1, 0), (3, 0), (3, 1), (3, 2)])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_im2col_columns_ordered_i_j_c(self, k, pad, stride):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((2, 5, 6, 3))    # [B,H,W,C]
        ho = (5 + 2 * pad - k) // stride + 1
        wo = (6 + 2 * pad - k) // stride + 1
        # [B, Ho, Wo, i, j, c]
        cols = _im2col(x, k, stride, pad).reshape(2, ho, wo, k, k, 3)
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        for oh in range(ho):
            for ow in range(wo):
                window = xp[:, stride * oh:stride * oh + k,
                            stride * ow:stride * ow + k]
                np.testing.assert_array_equal(cols[:, oh, ow], window)

    @pytest.mark.parametrize("k,pad", [(1, 0), (3, 0), (3, 1), (3, 2)])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients_are_adjoint_of_forward(self, k, pad, stride):
        # the 5x6 input gives (H + 2*pad - k) % stride != 0 in some cases
        assert_conv_adjoint(5, 6, k, pad, stride)

    @pytest.mark.parametrize("h,width,k,pad,stride", SMALL_MAPS)
    def test_small_map_gradients_are_adjoint_of_forward(self, h, width, k,
                                                        pad, stride):
        assert_conv_adjoint(h, width, k, pad, stride)

    def test_small_map_gradients_match_finite_differences(self):
        rng = np.random.default_rng(49)
        x = Tensor(rng.standard_normal((2, 2, 2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.5, requires_grad=True)
        bias = Tensor(rng.standard_normal(4), requires_grad=True)
        r = Tensor(rng.standard_normal((2, 2, 2, 4)))
        err = grad_check(lambda: sum_all(mul(relu(
            conv2d(x, w, pad=1, bias=bias)), r)), [x, w, bias])
        assert err < 1e-4

    def test_small_maps_build_columns_only_for_weight_gradients(
            self, monkeypatch):
        # forward and input-gradient convs run in _conv; a map with
        # H*W <= k*k takes its dense GEMM there, so columns are built for
        # it only by the weight gradient, outside _conv
        calls = []
        inside = [False]
        im2col, conv = resizenet.tensor._im2col, resizenet.tensor._conv

        def spy_im2col(x, k, *args):
            calls.append((x.shape[1] * x.shape[2] <= k * k, inside[0]))
            return im2col(x, k, *args)

        def spy_conv(*args):
            inside[0] = True
            try:
                return conv(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(resizenet.tensor, "_im2col", spy_im2col)
        monkeypatch.setattr(resizenet.tensor, "_conv", spy_conv)
        spec = ModelSpec(stage_blocks=(1, 1, 2), channels=(4, 6, 8))
        model = GatedResNet(spec, np.random.default_rng(50))
        images = np.random.default_rng(51).standard_normal((3, 3, 8, 8))
        with no_grad():
            model.forward(images, 1.0)
        assert calls and not any(small for small, _ in calls)

        calls.clear()
        logits, _ = model.forward(images, 1.0,
                                  [GateMode.SIGMOID] * model.num_blocks,
                                  bn_training=True)
        backward(sum_all(logits))
        assert (True, True) not in calls
        assert (True, False) in calls

    @pytest.mark.parametrize("k,pad", [(1, 1), (3, 3), (3, -1)])
    def test_pad_outside_kernel_rejected(self, k, pad):
        with pytest.raises(ShapeError, match="outside"):
            conv2d(Tensor(np.zeros((1, 4, 5, 2))),
                   Tensor(np.zeros((1, 2, k, k))), pad=pad)

    def test_channel_mismatch_names_axes(self):
        x = Tensor(np.zeros((1, 6, 7, 4)))
        w = Tensor(np.zeros((2, 3, 3, 3)))
        with pytest.raises(ShapeError,
                           match="weight axis 1 is 3 but input axis 3 is 4"):
            conv2d(x, w)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            conv2d(Tensor(np.zeros((2, 4, 5, 3))),
                   Tensor(np.zeros((1, 3, 2, 2))))

    def test_kernel_larger_than_padded_input_rejected(self):
        with pytest.raises(ShapeError, match="smaller"):
            conv2d(Tensor(np.zeros((1, 2, 3, 4))),
                   Tensor(np.zeros((1, 4, 5, 5))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 6, 7, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.5, requires_grad=True)
        err = grad_check(lambda: sum_all(relu(conv2d(x, w, stride=2, pad=1))),
                         [x, w])
        assert err < 1e-4

    def test_projection_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        x = Tensor(nhwc(rng.standard_normal((2, 3, 6, 5))), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 1, 1)) * 0.5, requires_grad=True)
        r = Tensor(nhwc(rng.standard_normal((2, 4, 3, 3))))
        err = grad_check(lambda: sum_all(mul(conv2d(x, w, stride=2), r)),
                         [x, w])
        assert err < 1e-4


    @pytest.mark.parametrize("k,pad", [(1, 0), (3, 1)])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_blocked_columns_match_naive_reference(self, monkeypatch, k, pad,
                                                   stride):
        # a budget of two samples' GEMMs splits a batch of 5 into blocks
        # of 2, 2 and 1, with or without a graph: no conv builds other
        # columns, and the weight gradient rebuilds its own in blocks
        rng = np.random.default_rng(44)
        x = rng.standard_normal((5, 3, 7, 6))
        w = rng.standard_normal((4, 3, k, k))
        bias = rng.standard_normal(4)
        ref = naive_conv2d(x, w, stride=stride, pad=pad)
        y = rng.standard_normal(ref.shape)
        ho, wo = ref.shape[2:]
        monkeypatch.setattr(resizenet.tensor, "_COLS_BLOCK_MACS",
                            2 * ho * wo * k * k * 3 * 4 + 7)
        blocks = spy_im2col_rows(monkeypatch)
        with no_grad():
            out = conv2d(Tensor(nhwc(x)), Tensor(w), stride=stride, pad=pad,
                         bias=Tensor(bias))
        assert blocks == [2, 2, 1]
        np.testing.assert_allclose(nchw(out.data), ref + bias[:, None, None],
                                   atol=1e-12)

        blocks.clear()
        xt, wt, bt = (Tensor(a, requires_grad=True)
                      for a in (nhwc(x), w, bias))
        out = conv2d(xt, wt, stride=stride, pad=pad, bias=bt)
        assert blocks == [2, 2, 1]
        np.testing.assert_allclose(nchw(out.data), ref + bias[:, None, None],
                                   atol=1e-12)
        backward(sum_all(mul(out, Tensor(nhwc(y)))))
        assert max(blocks) <= 2 and len(blocks) > 6
        # conv is bilinear: <x, dx> == <w, dw> == <conv(x, w), y>
        inner = np.sum(ref * y)
        np.testing.assert_allclose(np.sum(xt.data * xt.grad), inner,
                                   rtol=1e-12)
        np.testing.assert_allclose(np.sum(w * wt.grad), inner, rtol=1e-12)
        np.testing.assert_array_equal(bt.grad, nhwc(y).sum(axis=(0, 1, 2)))

    def test_recorded_weight_rebuilds_columns_in_blocks(self, monkeypatch):
        # the weight gradient rebuilds its columns one block at a time, and
        # an input that needs no gradient adds no input-gradient conv
        monkeypatch.setattr(resizenet.tensor, "_COLS_BLOCK_MACS", 1)
        blocks = spy_im2col_rows(monkeypatch)
        rng = np.random.default_rng(45)
        x = Tensor(rng.standard_normal((3, 5, 6, 2)))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        out = conv2d(x, w, pad=1)
        assert blocks == [1, 1, 1]
        ref = naive_conv2d(nchw(x.data), w.data, pad=1)
        np.testing.assert_allclose(nchw(out.data), ref, atol=1e-12)
        y = rng.standard_normal(ref.shape)
        backward(sum_all(mul(out, Tensor(nhwc(y)))))
        assert blocks == [1, 1, 1] * 2
        assert x.grad is None
        np.testing.assert_allclose(np.sum(w.data * w.grad), np.sum(ref * y),
                                   rtol=1e-12)

    def test_blocks_are_the_largest_within_the_gemm_bound(self, monkeypatch):
        # every column block of the benchmark model's convs at batch 256,
        # forward and backward: its GEMM's M*K*N stays within the bound,
        # and it holds as many whole samples as fit, or one when one is over
        bound = resizenet.tensor._COLS_BLOCK_MACS
        samples = spy_im2col_rows(monkeypatch)
        col_blocks = resizenet.tensor._col_blocks
        convs = []

        def spy(x, k, stride, pad, cout):
            blocks = []
            convs.append((x.shape[0], blocks))
            for rows, cols in col_blocks(x, k, stride, pad, cout):
                m, kk = cols.shape
                blocks.append((samples[-1], m // samples[-1] * kk * cout))
                yield rows, cols

        monkeypatch.setattr(resizenet.tensor, "_col_blocks", spy)
        spec = ModelSpec(stage_blocks=(4, 4, 4), channels=(16, 32, 64),
                         num_classes=4)
        model = GatedResNet(spec, np.random.default_rng(52))
        images = np.random.default_rng(53).standard_normal((256, 3, 8, 8))
        logits, _ = model.forward(images, 1.0,
                                  [GateMode.SIGMOID] * model.num_blocks,
                                  bn_training=True)
        backward(sum_all(logits))
        steps = set()
        for batch, blocks in convs:
            per_sample = blocks[0][1]
            assert {per for _, per in blocks} == {per_sample}
            step = blocks[0][0]
            assert step == 1 or step * per_sample <= bound
            assert (step + 1) * per_sample > bound
            assert [n for n, _ in blocks] == \
                [step] * (batch // step) + [batch % step] * (batch % step > 0)
            steps.add(step)
        # stage 1's 16 -> 16 3x3 conv on 8x8 maps takes 6 samples a block
        # (0.88e6 multiply-adds), the 3 -> 16 stem 36
        assert {6, 36} <= steps

    def test_bias_gradients_match_finite_differences(self):
        rng = np.random.default_rng(46)
        x = Tensor(nhwc(rng.standard_normal((2, 3, 6, 5))), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.5, requires_grad=True)
        bias = Tensor(rng.standard_normal(4), requires_grad=True)
        r = Tensor(nhwc(rng.standard_normal((2, 4, 3, 3))))
        err = grad_check(lambda: sum_all(mul(relu(
            conv2d(x, w, stride=2, pad=1, bias=bias)), r)), [x, w, bias])
        assert err < 1e-4

    def test_bias_length_checked(self):
        with pytest.raises(ShapeError, match="bias"):
            conv2d(Tensor(np.zeros((2, 4, 5, 3))),
                   Tensor(np.zeros((2, 3, 3, 3))), bias=Tensor(np.zeros(3)))


class TestAffine:
    def test_zero_weight_zero_bias(self):
        x = Tensor(np.ones((3, 4)))
        out = affine(x, Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_identity_weight(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 3))
        out = affine(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_computed_value(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor(3.0 * np.eye(2))
        b = Tensor([1.0, 1.0])
        np.testing.assert_array_equal(affine(x, w, b).data, [[4.0, 7.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError, match="inner dims"):
            affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))),
                   Tensor(np.zeros(2)))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        err = grad_check(lambda: mean_all(mul(affine(x, w, b), affine(x, w, b))),
                         [x, w, b])
        assert err < 1e-6

    def test_rule_skips_parents_that_need_no_gradient(self):
        # requires_grad is read at recording time: a constant input gets
        # None, and so do constant weights and bias
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        g = rng.standard_normal((3, 2))
        gx, gw, gb = affine(x, w, b)._backward_rule(g)
        assert gx is None
        np.testing.assert_array_equal(gw, x.data.T @ g)
        np.testing.assert_array_equal(gb, g.sum(axis=0))

        x.requires_grad = True
        w.requires_grad = b.requires_grad = False
        gx, gw, gb = affine(x, w, b)._backward_rule(g)
        np.testing.assert_array_equal(gx, g @ w.data.T)
        assert gw is None and gb is None


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_stable_at_large_magnitude(self):
        out = sigmoid(Tensor([-1000.0, 1000.0]))
        assert out.data[0] == 0.0
        assert out.data[1] == 1.0

    def test_scale_features_identity_gate(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((3, 2, 4, 4))
        out = scale_features(Tensor(f), Tensor(np.ones(3)))
        np.testing.assert_array_equal(out.data, f)

    def test_scale_features_half_gate(self):
        f = Tensor(np.full((1, 2, 3, 3), 2.0))
        out = scale_features(f, Tensor([0.5]))
        np.testing.assert_array_equal(out.data, np.ones((1, 2, 3, 3)))

    def test_scale_features_zero_gate_exact_zeros(self):
        rng = np.random.default_rng(7)
        f = Tensor(rng.standard_normal((2, 3, 4, 4)))
        out = scale_features(f, Tensor([0.0, 0.0]))
        assert np.all(out.data == 0.0)

    def test_scale_features_batch_mismatch(self):
        with pytest.raises(ShapeError, match="batch"):
            scale_features(Tensor(np.zeros((2, 1, 2, 2))), Tensor(np.zeros(3)))

    def test_add_zeros_bitwise_identity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 5))
        out = add(Tensor(x), Tensor(np.zeros((4, 5))))
        assert np.array_equal(out.data, x)
        assert out.data.tobytes() == x.tobytes()

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_scale_features_rule_skips_parents_that_need_no_gradient(self):
        # as in affine, requires_grad is read at recording time: a constant
        # gate gets None, and so do constant features
        rng = np.random.default_rng(7)
        f = Tensor(rng.standard_normal((2, 3, 2, 4)), requires_grad=True)
        gate = Tensor([0.0, 1.0])
        g = rng.standard_normal(f.shape)
        gf, gg = scale_features(f, gate)._backward_rule(g)
        np.testing.assert_array_equal(gf, g * gate.data[:, None, None, None])
        assert gg is None

        f.requires_grad, gate.requires_grad = False, True
        gf, gg = scale_features(f, gate)._backward_rule(g)
        assert gf is None
        np.testing.assert_array_equal(gg, np.einsum("bhwc,bhwc->b", g, f.data))

    def test_scale_features_gradients(self):
        rng = np.random.default_rng(9)
        f = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        g = Tensor(rng.uniform(0.1, 0.9, 2), requires_grad=True)
        err = grad_check(lambda: sum_all(mul(scale_features(f, g),
                                             scale_features(f, g))), [f, g])
        assert err < 1e-6


class TestGlobalAvgPool:
    def test_constant_input(self):
        out = global_avg_pool(Tensor(np.full((2, 4, 5, 3), 3.0)))
        np.testing.assert_array_equal(out.data, np.full((2, 3), 3.0))

    def test_hand_computed_mean(self):
        # channel c holds c, c+4, ..., c+20 over the 2x3 pixels
        x = Tensor(np.arange(24.0).reshape(1, 2, 3, 4))
        np.testing.assert_array_equal(global_avg_pool(x).data,
                                      [[10.0, 11.0, 12.0, 13.0]])

    def test_gradient_is_uniform(self):
        x = Tensor(np.random.default_rng(10).standard_normal((2, 4, 5, 3)),
                   requires_grad=True)
        sum_all(global_avg_pool(x)).backward()
        np.testing.assert_allclose(x.grad, np.full(x.shape, 1.0 / 20))

    def test_gradient_matches_finite_differences(self):
        x = Tensor(np.random.default_rng(11).standard_normal((1, 2, 3, 3)),
                   requires_grad=True)
        err = grad_check(lambda: sum_all(mul(global_avg_pool(x),
                                             global_avg_pool(x))), [x])
        assert err < 1e-6

    @pytest.mark.parametrize("shape", [(256, 8, 8, 16), (256, 4, 4, 32),
                                       (256, 2, 2, 64), (3, 5, 7, 2)])
    def test_matches_numpy_mean(self, shape):
        x = np.random.default_rng(12).standard_normal(shape)
        np.testing.assert_allclose(global_avg_pool(Tensor(x)).data,
                                   x.mean(axis=(1, 2)), rtol=1e-15)


class TestBatchNorm:
    def _stats(self, c):
        return np.zeros(c), np.ones(c)

    def test_normalized_input_passes_through(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 6, 7, 3))
        x = (x - x.mean(axis=(0, 1, 2), keepdims=True)) \
            / x.std(axis=(0, 1, 2), keepdims=True)
        rm, rv = self._stats(3)
        out = batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                         rm, rv)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_constant_channel_gives_shift(self):
        x = Tensor(np.full((4, 3, 5, 2), 7.0))
        rm, rv = self._stats(2)
        shift = Tensor([1.5, -0.5])
        out = batch_norm(x, Tensor(np.ones(2)), shift, rm, rv)
        np.testing.assert_allclose(out.data[..., 0], 1.5, atol=1e-8)
        np.testing.assert_allclose(out.data[..., 1], -0.5, atol=1e-8)

    def test_train_mode_statistics(self):
        # variance well above the 1e-5 epsilon guard so the ratio is ~1
        rng = np.random.default_rng(13)
        x = rng.standard_normal((16, 8, 7, 4)) * 30.0 + 1.0
        rm, rv = self._stats(4)
        out = batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                         rm, rv)
        np.testing.assert_allclose(out.data.mean(axis=(0, 1, 2)), 0.0,
                                   atol=1e-10)
        np.testing.assert_allclose(out.data.var(axis=(0, 1, 2)), 1.0,
                                   atol=1e-6)

    def test_running_stats_update_with_momentum(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((8, 4, 5, 2)) + 5.0
        rm, rv = self._stats(2)
        batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                   rm, rv)
        expect_rm = 0.1 * x.mean(axis=(0, 1, 2))
        expect_rv = 0.9 + 0.1 * x.var(axis=(0, 1, 2))
        np.testing.assert_allclose(rm, expect_rm)
        np.testing.assert_allclose(rv, expect_rv)

    def test_train_mode_gradients(self):
        # weight the output by fixed random values: sum(y*y) is almost
        # invariant to x after normalization, which starves the check
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((4, 3, 5, 2)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        shift = Tensor(rng.standard_normal(2), requires_grad=True)
        r = Tensor(rng.standard_normal((4, 3, 5, 2)))

        def loss():
            rm, rv = self._stats(2)
            y = batch_norm(x, gamma, shift, rm, rv)
            return sum_all(mul(y, r))

        assert grad_check(loss, [x, gamma, shift]) < 1e-4

    def test_gradients_single_non_square_sample(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((1, 2, 5, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
        shift = Tensor(rng.standard_normal(3), requires_grad=True)
        r = Tensor(rng.standard_normal((1, 2, 5, 3)))

        def loss():
            rm, rv = self._stats(3)
            y = batch_norm(x, gamma, shift, rm, rv)
            return sum_all(mul(y, r))

        assert grad_check(loss, [x, gamma, shift]) < 1e-4


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        assert abs(loss.item() - np.log(10)) < 1e-12

    def test_confident_correct_prediction(self):
        logits = np.zeros((2, 5))
        logits[0, 3] = 20.0
        logits[1, 1] = 20.0
        loss = softmax_cross_entropy(Tensor(logits), np.array([3, 1]))
        assert loss.item() < 1e-8

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_huge_logits_are_stable(self):
        logits = Tensor(np.array([[1000.0, 999.0], [-1000.0, -1001.0]]))
        loss = softmax_cross_entropy(logits, np.array([0, 0]))
        assert np.isfinite(loss.item())

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        logits = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
        labels = rng.integers(0, 7, 5)
        err = grad_check(lambda: softmax_cross_entropy(logits, labels),
                         [logits], eps=1e-6)
        assert err < 1e-6


class TestBackward:
    def test_identity_loss(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        backward(x)
        assert x.grad == 1.0

    def test_sigmoid_derivative_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        sum_all(sigmoid(x)).backward()
        assert x.grad[0] == 0.25

    def test_two_consumer_dag_sums_contributions(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        # x feeds both relu and sigmoid; grads must sum
        err = grad_check(lambda: sum_all(add(relu(x), sigmoid(x))), [x])
        assert err < 1e-6

    def test_repeated_backward_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        sum_all(mul_scalar(x, 3.0)).backward()
        sum_all(mul_scalar(x, 3.0)).backward()
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])

    def test_zero_grad_clears(self):
        x = Tensor([1.0], requires_grad=True)
        sum_all(x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            backward(Tensor([1.0, 2.0], requires_grad=True))

    def test_no_grad_tensors_untouched(self):
        x = Tensor([1.0, 2.0])
        y = Tensor([3.0, 4.0], requires_grad=True)
        sum_all(mul(x, y)).backward()
        assert x.grad is None
        np.testing.assert_array_equal(y.grad, [1.0, 2.0])


class TestGradCheckHarness:
    def test_linear_function_is_exact(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        err = grad_check(lambda: sum_all(mul_scalar(x, 4.0)), [x])
        assert err < 1e-9

    def test_composite_ops(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.standard_normal((1, 4, 5, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.3, requires_grad=True)

        def loss():
            h = relu(conv2d(x, w, pad=1))
            return mean_all(mul(h, h))

        assert grad_check(loss, [x, w]) < 1e-4

    def test_sampled_coordinates(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal(100), requires_grad=True)
        err = grad_check(lambda: sum_all(mul(x, x)), [x], max_coords=10,
                         rng=np.random.default_rng(0))
        assert err < 1e-6


class TestMiscOps:
    def test_add_n_matches_sequential_adds(self):
        rng = np.random.default_rng(22)
        ts = [Tensor(rng.standard_normal(5), requires_grad=True)
              for _ in range(4)]
        out = add_n(ts)
        expect = sum(t.data for t in ts)
        np.testing.assert_allclose(out.data, expect)
        sum_all(out).backward()
        for t in ts:
            np.testing.assert_array_equal(t.grad, np.ones(5))

    def test_concat_cols_splits_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 1)), requires_grad=True)
        out = concat_cols(a, b)
        assert out.shape == (2, 4)
        sum_all(mul_scalar(out, 2.0)).backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(b.grad, np.full((2, 1), 2.0))

    def test_add_scalar_and_mean(self):
        x = Tensor([1.0, 3.0], requires_grad=True)
        out = mean_all(add_scalar(x, 1.0))
        assert out.item() == 3.0
        out.backward()
        np.testing.assert_array_equal(x.grad, [0.5, 0.5])


class TestRowOps:
    def test_take_rows_gathers_along_batch(self):
        x = Tensor(np.arange(24.0).reshape(4, 2, 3))
        np.testing.assert_array_equal(take_rows(x, [1, 3]).data,
                                      x.data[[1, 3]])

    def test_add_rows_adds_into_rows_and_copies_the_rest(self):
        rng = np.random.default_rng(23)
        a = Tensor(rng.standard_normal((4, 2, 3, 3)))
        b = Tensor(rng.standard_normal((2, 2, 3, 3)))
        out = add_rows(a, [0, 2], b)
        for i in (1, 3):
            assert out.data[i].tobytes() == a.data[i].tobytes()
        np.testing.assert_array_equal(out.data[[0, 2]],
                                      a.data[[0, 2]] + b.data)

    def test_take_rows_gradients(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        r = Tensor(rng.standard_normal((2, 2, 3, 3)))
        err = grad_check(lambda: sum_all(mul(take_rows(x, [1, 3]), r)), [x])
        assert err < 1e-6

    def test_add_rows_gradients(self):
        rng = np.random.default_rng(25)
        a = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        r = Tensor(rng.standard_normal((4, 2, 3, 3)))
        err = grad_check(lambda: sum_all(mul(add_rows(a, [0, 2], b), r)),
                         [a, b])
        assert err < 1e-6

    @pytest.mark.parametrize("rows", [[], [2, 1], [1, 1], [0, 4], [-1, 2]],
                             ids=["empty", "descending", "repeated",
                                  "past_end", "negative"])
    def test_rows_must_be_ascending_indices(self, rows):
        x = Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeError, match="ascending"):
            take_rows(x, rows)
        with pytest.raises(ShapeError, match="ascending"):
            add_rows(x, rows, Tensor(np.zeros((len(rows), 2))))

    def test_add_rows_shape_mismatch(self):
        with pytest.raises(ShapeError, match="add_rows"):
            add_rows(Tensor(np.zeros((4, 2))), [0, 1],
                     Tensor(np.zeros((2, 3))))


class TestNoGrad:
    def test_ops_inside_record_no_graph(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.standard_normal((2, 4, 5, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        with no_grad():
            y = sum_all(relu(conv2d(x, w, pad=1)))
        assert not y.requires_grad
        assert y._parents == () and y._backward_rule is None
        with_graph = sum_all(relu(conv2d(x, w, pad=1)))
        assert with_graph.requires_grad
        assert y.data.tobytes() == with_graph.data.tobytes()

    def test_nonfinite_check_still_runs(self):
        with no_grad(), np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError):
            mul_scalar(Tensor([1e308]), 10.0)

    def test_previous_mode_returns_after_exception(self):
        x = Tensor([1.0, -1.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                with no_grad():
                    pass
                assert not relu(x).requires_grad
                raise RuntimeError("inside")
        y = relu(x)
        assert y.requires_grad and y._parents == (x,)
        sum_all(y).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0])
