"""Forward values and gradient checks for every differentiable primitive.

Each primitive is verified against central finite differences at
eps=1e-4 in 64-bit precision over at least 100 random instances, using a
max-norm relative error bound of 1e-4. Inputs for kinked primitives
(relu, max pooling) are drawn away from their kinks so the differences
are taken on a smooth neighbourhood.
"""

import numpy as np
import pytest

from sparselocal import autodiff as ad
from sparselocal.errors import ShapeError

from oracles import finite_difference_grad, grad_error, graph_conv_block

TOL = 1e-4


def away_from_zero(rng, shape, low=0.2, high=2.0):
    """Random values whose magnitudes stay clear of the relu kink."""
    return rng.uniform(low, high, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def channels_last(a):
    """The same values as an (n, c, h, w) ``a``, in a view of channels-last memory."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def accumulated(g):
    """A gradient as accumulate_grad leaves it: added onto zeros, so -0.0 reads +0.0."""
    return np.zeros(g.shape) + g


def reference_conv2d(x, k, padding, g):
    """The kh*kw-loop im2col conv2d, as output, dx and dkernels for output gradient g.

    Its one departure from the original loop code: the im2col matrix is
    handed to BLAS column-major. The original passed a column-major view
    for one map and a row-major copy for a batch, and OpenBLAS rounds a
    small row-major product differently from the same rows in a larger one.
    """
    n, c, h, w = x.shape
    c_out, _, kh, kw = k.shape
    ph, pw = (padding, padding) if np.isscalar(padding) else padding
    oh, ow = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((n, c, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + oh, j : j + ow]
    flat = np.asfortranarray(cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw))
    out = (flat @ k.reshape(c_out, -1).T).reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)
    gflat = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, c_out)
    dk = (gflat.T @ flat).reshape(k.shape)
    dcols = (gflat @ k.reshape(c_out, -1)).reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + oh, j : j + ow] += dcols[:, :, i, j]
    return out, dxp[:, :, ph : ph + h, pw : pw + w], dk


def reference_max_pool2d(x, window, g):
    """The gather-buffer max_pool2d (argmax, first maximum wins), as output and dx for output gradient g."""
    wh, ww = (window, window) if np.isscalar(window) else window
    n, c, h, w = x.shape
    oh, ow = h // wh, w // ww
    windows = np.empty((n, c, oh, ow, wh * ww))
    for i in range(wh):
        for j in range(ww):
            windows[:, :, :, :, i * ww + j] = x[:, :, i : i + wh * oh : wh, j : j + ww * ow : ww]
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    ni, ci, oi, oj = np.indices((n, c, oh, ow))
    dx = np.zeros_like(x)
    dx[ni, ci, oi * wh + arg // ww, oj * ww + arg % ww] = g
    return out, dx


def signed_integers(rng, shape, high=3):
    """Small integers, so that windows tie, with zeros of both signs."""
    return rng.integers(-high, high + 1, size=shape) * rng.choice([-1.0, 1.0], size=shape)


# the three digits trunk blocks: (input, kernels), 3x3 kernels at padding 1
DIGIT_BLOCKS = [((2, 1, 28, 28), (16, 1, 3, 3)), ((2, 16, 14, 14), (32, 16, 3, 3)), ((2, 32, 7, 7), (64, 32, 3, 3))]


class TestElementwise:
    def test_relu_values(self):
        out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_gradient_at_kink_is_zero(self):
        w = ad.Tensor([0.0, 1.0, -1.0], requires_grad=True)
        ad.relu(w).sum().backward()
        np.testing.assert_array_equal(w.grad, [0.0, 1.0, 0.0])

    def test_scalar_broadcast(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = (a * 2.0 + 1.0).sum()
        out.backward()
        assert float(out.data) == 24.0
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))

    def test_rejects_incompatible_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            ad.add(ad.Tensor([1.0, 2.0]), ad.Tensor([1.0, 2.0, 3.0]))

    def test_row_add_values_and_gradients(self):
        # an (n, m) batch plus a (1, m) row, as a layer adds its bias
        rng = np.random.default_rng(8)
        x = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        g = rng.normal(size=(5, 3))
        out = x + b
        np.testing.assert_array_equal(out.data, x.data + b.data)
        (out * ad.Tensor(g)).sum().backward()
        np.testing.assert_array_equal(x.grad, accumulated(g))
        np.testing.assert_array_equal(b.grad, accumulated(np.ones((1, 5)) @ g))
        np.testing.assert_allclose(b.grad, g.sum(axis=0, keepdims=True), rtol=1e-12)

    @pytest.mark.parametrize("n, m", [(1, 4), (6, 1), (7, 5)])
    def test_row_add_gradients(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        x, b, c = rng.normal(size=(n, m)), rng.normal(size=(1, m)), rng.normal(size=(n, m))
        assert grad_error(lambda t: ((t + ad.Tensor(b)) * ad.Tensor(c)).sum(), x) <= TOL
        assert grad_error(lambda t: ((ad.Tensor(x) + t) * ad.Tensor(c)).sum(), b) <= TOL

    @pytest.mark.parametrize("left, right", [((1, 3), (4, 3)), ((4, 3), (2, 3)), ((4, 3), (1, 2)), ((4, 3), (3,))])
    def test_add_takes_a_row_only_on_the_right(self, left, right):
        with pytest.raises(ShapeError, match=rf"add: shapes \({left[0]}, .*\) and \({right[0]},.*\) are incompatible"):
            ad.add(ad.Tensor(np.zeros(left)), ad.Tensor(np.zeros(right)))

    def test_mul_takes_no_row(self):
        with pytest.raises(ShapeError, match=r"mul: shapes \(4, 3\) and \(1, 3\)"):
            ad.mul(ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros((1, 3))))

    @pytest.mark.parametrize("seed", range(100))
    def test_binary_op_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=7)
        c = rng.normal(size=7)
        assert grad_error(lambda t: (t * ad.Tensor(c)).sum(), x) <= TOL
        assert grad_error(lambda t: (t + ad.Tensor(c)).sum(), x) <= TOL
        assert grad_error(lambda t: (t * t + t).sum(), x) <= TOL

    @pytest.mark.parametrize("seed", range(100))
    def test_unary_gradients(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = away_from_zero(rng, 6)
        c = rng.normal(size=6)
        assert grad_error(lambda t: (ad.relu(t) * ad.Tensor(c)).sum(), x) <= TOL
        assert grad_error(lambda t: (ad.softplus(t) * ad.Tensor(c)).sum(), x) <= TOL


class TestMatmul:
    def test_identity(self):
        m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(ad.Tensor(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_selector_row(self):
        out = ad.matmul(ad.Tensor([[1.0, 0.0]]), ad.Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            ad.matmul(ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros((3, 2))))

    @pytest.mark.parametrize("seed", range(50))
    def test_gradients_both_sides(self, seed):
        rng = np.random.default_rng(200 + seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        c = rng.normal(size=(3, 2))
        assert grad_error(lambda t: (ad.matmul(t, ad.Tensor(b)) * ad.Tensor(c)).sum(), a) <= TOL
        assert grad_error(lambda t: (ad.matmul(ad.Tensor(a), t) * ad.Tensor(c)).sum(), b) <= TOL


class TestConv2d:
    def test_all_ones_window_sum(self):
        x = ad.Tensor(np.ones((1, 1, 3, 3)))
        k = ad.Tensor(np.ones((1, 1, 3, 3)))
        out = ad.conv2d(x, k)
        np.testing.assert_array_equal(out.data, [[[[9.0]]]])

    def test_delta_impulse_reproduces_kernel(self):
        # cross-correlation against a centred impulse yields the kernel rotated 180 degrees
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 1.0
        k = np.arange(9.0).reshape(1, 1, 3, 3)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k))
        np.testing.assert_array_equal(out.data[0, 0], np.flip(k[0, 0]))

    def test_stride_and_padding_extent(self):
        # stride 1: each axis is h + 2 * padding - kh + 1
        x = ad.Tensor(np.zeros((1, 2, 7, 6)))
        k = ad.Tensor(np.zeros((3, 2, 3, 2)))
        assert ad.conv2d(x, k, padding=1).data.shape == (1, 3, 7, 7)
        assert ad.conv2d(x, k, padding=(0, 2)).data.shape == (1, 3, 5, 9)

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError, match="larger than padded input"):
            ad.conv2d(ad.Tensor(np.zeros((1, 1, 2, 2))), ad.Tensor(np.zeros((1, 1, 3, 3))))

    def test_rejects_a_single_map(self):
        with pytest.raises(ShapeError, match="must be 4-d"):
            ad.conv2d(ad.Tensor(np.zeros((1, 3, 3))), ad.Tensor(np.zeros((1, 1, 3, 3))))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 2, 6, 6))
        k = rng.normal(size=(4, 2, 3, 3))
        batched = ad.conv2d(ad.Tensor(x), ad.Tensor(k), padding=1).data
        for i in range(3):
            single = ad.conv2d(ad.Tensor(x[i : i + 1]), ad.Tensor(k), padding=1).data
            np.testing.assert_allclose(batched[i : i + 1], single, atol=1e-12)

    @pytest.mark.parametrize("seed", range(34))
    @pytest.mark.parametrize("maps,padding", [(1, 0), (1, 1), (2, 1)])
    def test_gradients(self, seed, maps, padding):
        rng = np.random.default_rng(300 + seed)
        x = rng.normal(size=(maps, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        c = None

        def build_x(t):
            return (ad.conv2d(t, ad.Tensor(k), padding=padding) * ad.Tensor(c)).sum()

        def build_k(t):
            return (ad.conv2d(ad.Tensor(x), t, padding=padding) * ad.Tensor(c)).sum()

        out_shape = ad.conv2d(ad.Tensor(x), ad.Tensor(k), padding=padding).data.shape
        c = rng.normal(size=out_shape)
        assert grad_error(build_x, x) <= TOL
        assert grad_error(build_k, k) <= TOL


class TestMaxPool:
    def test_simple_window(self):
        out = ad.max_pool2d(ad.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]), 2)
        np.testing.assert_array_equal(out.data, [[[[4.0]]]])

    def test_tie_gradient_goes_to_first_index(self):
        x = ad.Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        ad.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_window_too_large(self):
        with pytest.raises(ShapeError, match="exceeds input extent"):
            ad.max_pool2d(ad.Tensor(np.zeros((1, 1, 2, 2))), 3)

    def test_rejects_a_single_map(self):
        with pytest.raises(ShapeError, match="must be 4-d"):
            ad.max_pool2d(ad.Tensor(np.zeros((1, 2, 2))), 2)

    @pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
    def test_signed_zero_tie_keeps_the_first(self, layout):
        # 40 windows per order, so that vectorised and scalar loops are both reached
        x = np.tile(np.array([[0.0, -0.0], [-0.0, 0.0]]), (40, 1)).reshape(1, 2, 40, 2)
        x = channels_last(x) if layout == "channels_last" else np.ascontiguousarray(x)
        out = ad.max_pool2d(ad.Tensor(x), (1, 2)).data[..., 0]
        assert (out == 0.0).all()
        assert not np.signbit(out[..., 0::2]).any()  # [0.0, -0.0] gives 0.0
        assert np.signbit(out[..., 1::2]).all()  # [-0.0, 0.0] gives -0.0

    def test_nan_propagates_in_forward(self):
        x = np.array([[[[1.0, np.nan, 2.0, 0.5], [np.nan, 3.0, -1.0, -2.0]]]])
        out = ad.max_pool2d(ad.Tensor(x), (1, 2)).data
        np.testing.assert_array_equal(np.isnan(out), [[[[True, False], [True, False]]]])
        np.testing.assert_array_equal(out[~np.isnan(out)], [2.0, -1.0])

    @pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
    @pytest.mark.parametrize("x_shape,window", [((3, 4, 9, 1), (9, 1)), ((1, 4, 40, 1), (40, 1)), ((3, 4, 9, 1), (4, 1))])
    def test_single_axis_windows_with_nan_and_signed_zeros(self, x_shape, window, layout):
        # a global (out, 1) pool down the rows, a one-map batch and a ragged window whose last row is left out
        rng = np.random.default_rng(462)
        x = signed_integers(rng, x_shape, high=1)
        x[:, 0] = rng.choice([0.0, -0.0], size=x[:, 0].shape)  # windows of signed zeros alone, in both orders
        x[:, 2] = -x[:, 0]
        x[:, 1][rng.random(x[:, 1].shape) < 0.3] = np.nan
        x = channels_last(x) if layout == "channels_last" else x
        xt = ad.Tensor(x, requires_grad=True)
        out = ad.max_pool2d(xt, window)
        g = rng.normal(size=out.data.shape) * rng.choice([1.0, -1.0], size=out.data.shape)
        (out * ad.Tensor(g)).sum().backward()
        want_out, want_dx = reference_max_pool2d(x, window, g)
        want_dx[np.isnan(x)] = 0.0  # the reference routes a NaN window's gradient to its first NaN; the pool routes none
        zeros = out.data[:, [0, 2]]
        assert np.isnan(out.data[:, 1]).any() and (zeros == 0.0).all()
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert out.data.tobytes() == want_out.tobytes()
        assert xt.grad.tobytes() == accumulated(want_dx).tobytes()

    @pytest.mark.parametrize("window", [2, (3, 1), (2, 3)])
    def test_gradient_equals_scatter_add_reference(self, window):
        # ragged extents leave trailing rows/columns out; integer values make ties
        rng = np.random.default_rng(450)
        x = ad.Tensor(rng.integers(0, 3, size=(2, 3, 7, 5)).astype(np.float64), requires_grad=True)
        g = rng.normal(size=ad.max_pool2d(x, window).data.shape)
        (ad.max_pool2d(x, window) * ad.Tensor(g)).sum().backward()
        wh, ww = (window, window) if np.isscalar(window) else window
        ref = np.zeros(x.data.shape)
        for idx in np.ndindex(g.shape):
            n, c, i, j = idx
            block = x.data[n, c, i * wh : (i + 1) * wh, j * ww : (j + 1) * ww]
            a = int(np.argmax(block))
            np.add.at(ref, (n, c, i * wh + a // ww, j * ww + a % ww), g[idx])
        np.testing.assert_array_equal(x.grad, ref)

    @pytest.mark.parametrize("seed", range(100))
    def test_gradients(self, seed):
        rng = np.random.default_rng(400 + seed)
        # distinct values keep the argmax stable under the probe step
        x = rng.permutation(np.arange(2 * 6 * 6, dtype=np.float64)).reshape(1, 2, 6, 6) * 0.1
        c = rng.normal(size=(1, 2, 3, 3))
        assert grad_error(lambda t: (ad.max_pool2d(t, 2) * ad.Tensor(c)).sum(), x) <= TOL


class TestLoopReferences:
    """conv2d and max_pool2d equal the loop implementations they replaced, bit for bit."""

    CONV_CASES = [
        *[(x, k, 1) for x, k in DIGIT_BLOCKS],
        ((3, 1, 12, 64), (32, 1, 3, 64), 0),  # full-width kernels over an embedding grid
        ((3, 1, 12, 64), (32, 1, 5, 64), 0),
        ((1, 1, 5, 64), (32, 1, 5, 64), 0),  # one window position
        ((1, 2, 6, 5), (3, 2, 3, 3), 0),  # one-map batches
        ((1, 2, 6, 5), (3, 2, 3, 3), 1),
        ((2, 3, 6, 5), (4, 3, 3, 2), 0),
        ((2, 3, 6, 5), (4, 3, 3, 2), 1),
        ((2, 3, 6, 5), (4, 3, 3, 2), (0, 2)),
        ((32, 1, 40, 64), (32, 1, 3, 64), 0),  # full-width kernels over a 32 x 40 grid, ow == 1
        ((32, 1, 40, 64), (32, 1, 5, 64), 0),
        ((2, 1, 9, 6), (4, 1, 3, 8), (1, 1)),  # full width through the padding
        ((3, 2, 7, 5), (4, 2, 2, 5), 0),  # full width over two channels
        ((1, 2, 8, 4), (3, 2, 3, 6), (2, 1)),  # one map, full width, padded
        ((1, 1, 12, 64), (32, 1, 4, 64), 0),  # one map, full width
    ]

    @pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
    @pytest.mark.parametrize("x_shape,k_shape,padding", CONV_CASES)
    def test_conv2d(self, x_shape, k_shape, padding, layout, monkeypatch):
        rng = np.random.default_rng(460)
        x, k = signed_integers(rng, x_shape), rng.normal(size=k_shape)
        x = channels_last(x) if layout == "channels_last" else x
        xt, kt = ad.Tensor(x, requires_grad=True), ad.Tensor(k, requires_grad=True)
        views, as_strided = [], np.lib.stride_tricks.as_strided

        def recording(base, *args, **kwargs):
            views.append((base, as_strided(base, *args, **kwargs)))
            return views[-1][1]

        monkeypatch.setattr(np.lib.stride_tricks, "as_strided", recording)
        out = ad.conv2d(xt, kt, padding=padding)
        monkeypatch.undo()
        (base, view), = views  # the window view is sliding_window_view's array
        want = np.lib.stride_tricks.sliding_window_view(base, k_shape[2:], axis=(2, 3))
        assert (view.shape, view.strides, view.flags.writeable) == (want.shape, want.strides, False)
        assert view.__array_interface__["data"] == want.__array_interface__["data"]
        g = rng.normal(size=out.data.shape)
        (out * ad.Tensor(g)).sum().backward()
        want_out, want_dx, want_dk = reference_conv2d(x, k, padding, g)
        assert out.data.shape == want_out.shape
        assert out.data.tobytes() == want_out.tobytes()
        assert xt.grad.tobytes() == accumulated(want_dx).tobytes()
        assert kt.grad.tobytes() == accumulated(want_dk).tobytes()

    POOL_CASES = [
        ((2, 3, 7, 5), 2),
        ((2, 3, 7, 5), (3, 1)),
        ((2, 3, 7, 5), (2, 3)),
        ((3, 4, 9, 1), (9, 1)),  # a global pool down the rows
        ((3, 4, 9, 1), (4, 1)),  # ragged: the last row is left out
        ((2, 32, 14, 14), 2),  # digits block outputs
        ((1, 3, 7, 5), 2),  # one-map batches
        ((1, 3, 7, 5), (2, 3)),
        ((1, 4, 40, 1), (40, 1)),  # one map's global pool
    ]

    @pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
    @pytest.mark.parametrize("x_shape,window", POOL_CASES)
    def test_max_pool2d(self, x_shape, window, layout):
        rng = np.random.default_rng(461)
        x = signed_integers(rng, x_shape, high=1)
        x = channels_last(x) if layout == "channels_last" else x
        xt = ad.Tensor(x, requires_grad=True)
        out = ad.max_pool2d(xt, window)
        g = rng.normal(size=out.data.shape)
        (out * ad.Tensor(g)).sum().backward()
        want_out, want_dx = reference_max_pool2d(x, window, g)
        assert out.data.shape == want_out.shape
        assert out.data.tobytes() == want_out.tobytes()
        assert xt.grad.tobytes() == accumulated(want_dx).tobytes()


class TestReluPoolCommute:
    """relu(max_pool2d(c)) equals max_pool2d(relu(c)) in value and in both gradients."""

    @staticmethod
    def _run(x, k, g, relu_first):
        xt, kt = ad.Tensor(x, requires_grad=True), ad.Tensor(k, requires_grad=True)
        conv = ad.conv2d(xt, kt, padding=1)
        out = ad.max_pool2d(ad.relu(conv), 2) if relu_first else ad.relu(ad.max_pool2d(conv, 2))
        (out * ad.Tensor(g)).sum().backward()
        return conv.data, out.data, xt.grad, kt.grad

    @pytest.mark.parametrize("values", ["integers", "normal"])
    @pytest.mark.parametrize("x_shape,k_shape", DIGIT_BLOCKS)
    def test_orders_agree_bitwise(self, x_shape, k_shape, values):
        rng = np.random.default_rng(462)
        if values == "integers":
            # products of {-1, 0, 1} give exact zeros and all-negative windows in the conv output
            x, k = signed_integers(rng, x_shape, high=1), rng.integers(-1, 2, size=k_shape).astype(np.float64)
        else:
            x, k = rng.normal(size=x_shape), rng.normal(size=k_shape)
        n, _, h, w = x_shape
        g = rng.normal(size=(n, k_shape[0], h // 2, w // 2))
        conv, *after = self._run(x, k, g, relu_first=False)
        _, *before = self._run(x, k, g, relu_first=True)
        windows = conv[..., : h // 2 * 2, : w // 2 * 2].reshape(n, k_shape[0], h // 2, 2, w // 2, 2).max(axis=(3, 5))
        if values == "integers":
            assert (conv == 0).any() and (windows < 0).any() and (windows == 0).any()
        for a, b in zip(after, before):
            assert a.tobytes() == b.tobytes()


class TestConvBlock:
    """conv_block's value and both gradients are bitwise those of the graph it replaced (``graph_conv_block``)."""

    # (x, kernels, window, padding): digits blocks, layer 3's 7 -> 3 pool dropping a row and a column,
    # one-sample batches and uneven windows
    CASES = [
        *[(x, k, 2, 1) for x, k in DIGIT_BLOCKS],
        ((1, 1, 28, 28), (16, 1, 3, 3), 2, 1),
        ((1, 32, 7, 7), (64, 32, 3, 3), 2, 1),
        ((2, 3, 7, 8), (4, 3, 3, 2), (1, 2), 0),
    ]

    @pytest.mark.parametrize("values", ["integers", "nan", "normal"])
    @pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
    @pytest.mark.parametrize("x_shape,k_shape,window,padding", CASES)
    def test_value_and_gradients_equal_the_graph(self, x_shape, k_shape, window, padding, layout, values):
        rng = np.random.default_rng(463)
        if values == "normal":
            x, k = rng.normal(size=x_shape), rng.normal(size=k_shape)
        else:  # products of {-1, 0, 1}: exact and signed zeros, ties, all-negative windows
            x, k = signed_integers(rng, x_shape, high=1), rng.integers(-1, 2, size=k_shape).astype(np.float64)
        if values == "nan":  # windows whose conv output is NaN, and a NaN in the kernel gradient
            x.reshape(-1)[rng.choice(x.size, size=3, replace=False)] = np.nan
        x = channels_last(x) if layout == "channels_last" else x
        results = []
        for op in (ad.conv_block, graph_conv_block):
            xt, kt = ad.Tensor(x, requires_grad=True), ad.Tensor(k, requires_grad=True)
            out = op(xt, kt, window, padding=padding)
            if not results:
                assert out.op == "conv_block" and out._parents == (xt, kt)  # one node: no pool or relu node
                g = rng.normal(size=out.data.shape)
            (out * ad.Tensor(g)).sum().backward()
            results.append((out.data, xt.grad, kt.grad))
        if values == "integers":
            assert (results[0][0] == 0).any()
        for got, want in zip(*results):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_inference_output_equals_the_graph_and_holds_no_graph(self):
        rng = np.random.default_rng(464)
        x, k = rng.normal(size=(3, 16, 14, 14)), ad.Tensor(rng.normal(size=(32, 16, 3, 3)), requires_grad=True)
        with ad.no_grad():
            out = ad.conv_block(x, k, 2, padding=1)
        assert out._parents == () and out._backward is None
        assert out.data.tobytes() == graph_conv_block(x, k, 2, padding=1).data.tobytes()

    @pytest.mark.parametrize("seed", range(50))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(465 + seed)
        x, k = rng.normal(size=(2, 2, 5, 6)), rng.normal(size=(3, 2, 3, 3))
        c = rng.normal(size=ad.conv_block(x, k, 2, padding=1).data.shape)

        def loss(xt, kt):
            return (ad.conv_block(xt, kt, 2, 1) * ad.Tensor(c)).sum()

        assert grad_error(lambda t: loss(t, ad.Tensor(k)), x) <= TOL
        assert grad_error(lambda t: loss(ad.Tensor(x), t), k) <= TOL


class TestSequenceConvPool:
    """The text trunk's op equals ``graph_conv_block`` over the padded grid with the end mask, bit for bit.

    Each case is a batch of id lines, padded as the extractor pads them: a
    line shorter than the widest filter takes pad ids up to it. The op
    runs on the lines' embedding rows one after another, the reference on
    the (n, 1, span, e) grid of every line padded to the longest, with the
    conv outputs past each line's end zeroed before the global pool. Both
    gather from the same table, so the table's gradient, the kernels'
    gradient and the output are compared as bytes. The NaN row is an id
    inside a line, not the pad id: a NaN pad row reaches the reference's
    masked-out windows past every line's end, which the op never forms.
    """

    # (line lengths, filter width, widest filter, embed dim, filters)
    CASES = [
        ([12, 7, 3], 3, 5, 16, 8),  # a line shorter than the widest filter
        ([12, 7, 3], 5, 5, 16, 8),
        ([9, 9], 4, 5, 16, 8),  # equal lengths: no padding past any line's end
        ([2], 3, 5, 16, 8),  # one sample, shorter than the widest filter
        ([5], 5, 5, 64, 32),  # one sample, one window
        ([0, 30, 1], 4, 5, 16, 8),  # an empty line is all pad ids
        (list(range(9, 41)), 4, 5, 64, 32),  # a perfbench text training batch
        ([24, 11, 40, 5, 17, 3, 30, 8, 22, 36, 14, 6, 28, 19, 2, 33], 3, 5, 64, 32),  # a predict batch
    ]

    @staticmethod
    def _run(op, table, ids, lengths, kernels, g):
        tt, kt = ad.Tensor(table, requires_grad=True), ad.Tensor(kernels, requires_grad=True)
        out = op(tt, kt)
        (out * ad.Tensor(g)).sum().backward()
        return out, tt.grad, kt.grad

    @pytest.mark.parametrize("values", ["integers", "nan", "normal"])
    @pytest.mark.parametrize("lines,w,widest,e,f", CASES)
    def test_value_and_gradients_equal_the_padded_graph(self, lines, w, widest, e, f, values):
        rng = np.random.default_rng(466)
        vocab, pad = 12, 0  # a small vocabulary: ids repeat within and across lines
        if values == "normal":
            table, kernels = rng.normal(size=(vocab, e)), rng.normal(size=(f, 1, w, e))
        else:  # products of {-1, 0, 1}: exact and signed zeros, ties, all-negative windows
            table, kernels = signed_integers(rng, (vocab, e), high=1), rng.integers(-1, 2, size=(f, 1, w, e)) * 1.0
        seqs = [rng.integers(0, vocab, size=size) for size in lines]
        if values == "nan":  # id 3 once, last in a line with windows past its end: the reference's masked windows
            table[3, 1] = np.nan
            for line in seqs:
                line[line == 3] = 4
            inner = [size for size in lines if widest <= size < max(lines)]
            seqs[lines.index(min(inner) if inner else max(lines))][-1] = 3
        lengths = np.maximum(lines, widest)
        ids = np.concatenate([np.concatenate([s, np.full(n - s.size, pad)]) for s, n in zip(seqs, lengths)])
        span = int(lengths.max())
        grid = np.stack([np.concatenate([s, np.full(span - s.size, pad)]) for s in seqs])
        out = span - w + 1
        keep = (np.arange(out) < (lengths - w + 1)[:, None])[:, None, :, None]
        g = rng.normal(size=(len(lines), f))

        def op(tt, kt):
            return ad.sequence_conv_pool(ad.gather_rows(tt, ids), lengths, kt)

        def ref(tt, kt):
            x = ad.gather_rows(tt, grid.ravel()).reshape((len(lines), 1, span, e))
            return graph_conv_block(x, kt, (out, 1), keep=keep).reshape((len(lines), f))

        got, want = self._run(op, table, ids, lengths, kernels, g), self._run(ref, table, grid, lengths, kernels, g)
        assert got[0].op == "sequence_conv_pool" and len(got[0]._parents) == 2  # one node: no pool, relu or mul node
        if values == "nan":
            assert np.isnan(got[2]).any()  # the NaN reaches the kernel gradient through a window of its line
        for a, b in zip(got, want):
            a, b = getattr(a, "data", a), getattr(b, "data", b)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("values", ["integers", "nan", "normal"])
    @pytest.mark.parametrize("lines,widths", [
        ([12, 7, 5], (3, 4, 5)),  # the text extractor's widths
        ([9, 30, 6, 6], (5, 2, 3)),  # unsorted widths of unequal filter counts
        ([5], (5, 1)),
    ])
    def test_several_widths_equal_one_op_per_width_concatenated(self, lines, widths, values):
        # one call shares the widest width's im2col; each width alone forms its own
        rng = np.random.default_rng(468)
        e, total = 6, sum(lines)
        if values == "normal":
            x = rng.normal(size=(total, e))
            kernels = [rng.normal(size=(2 + j, 1, w, e)) for j, w in enumerate(widths)]
        else:
            x = signed_integers(rng, (total, e), high=1)
            kernels = [rng.integers(-1, 2, size=(2 + j, 1, w, e)) * 1.0 for j, w in enumerate(widths)]
        if values == "nan":
            x[lines[0] - 1, 2] = np.nan  # in the first line's last row, next to the second line's first windows
        g = rng.normal(size=(len(lines), sum(len(k) for k in kernels)))

        def run(op):
            xt, kts = ad.Tensor(x, requires_grad=True), [ad.Tensor(k, requires_grad=True) for k in kernels]
            out = op(xt, kts)
            (out * ad.Tensor(g)).sum().backward()
            return [out.data, xt.grad] + [kt.grad for kt in kts]

        got = run(lambda xt, kts: ad.sequence_conv_pool(xt, lines, *kts))
        want = run(lambda xt, kts: ad.concat([ad.sequence_conv_pool(xt, lines, kt) for kt in kts], axis=1))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_inference_output_equals_training_and_holds_no_graph(self):
        rng = np.random.default_rng(467)
        x, k = rng.normal(size=(40, 16)), ad.Tensor(rng.normal(size=(8, 1, 3, 16)), requires_grad=True)
        with ad.no_grad():
            out = ad.sequence_conv_pool(x, [12, 5, 23], k)
        assert out._parents == () and out._backward is None
        assert out.data.tobytes() == ad.sequence_conv_pool(x, [12, 5, 23], k).data.tobytes()

    @pytest.mark.parametrize("lengths,k_shape", [((12, 5), (3, 1, 3, 4)), ((13,), (3, 1, 5, 4)), ((5, 5), (3, 1, 5, 4))])
    def test_rejects_bad_shapes(self, lengths, k_shape):
        x = np.zeros((12, 4))
        with pytest.raises(ShapeError):
            ad.sequence_conv_pool(x, lengths, np.zeros(k_shape))
        with pytest.raises(ShapeError):
            ad.sequence_conv_pool(x, (12,), np.zeros((3, 1, 3, 5)))
        with pytest.raises(ShapeError):  # every line holds the widest kernel's window
            ad.sequence_conv_pool(x, (7, 5), np.zeros((3, 1, 3, 4)), np.zeros((3, 1, 6, 4)))
        with pytest.raises(ShapeError):
            ad.sequence_conv_pool(x, (12,))

    @pytest.mark.parametrize("seed", range(50))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(465 + seed)
        x, k = rng.normal(size=(12, 4)), rng.normal(size=(3, 1, 3, 4))
        c = rng.normal(size=(2, 3))

        def loss(xt, kt):
            return (ad.sequence_conv_pool(xt, [7, 5], kt) * ad.Tensor(c)).sum()

        assert grad_error(lambda t: loss(t, ad.Tensor(k)), x) <= TOL
        assert grad_error(lambda t: loss(ad.Tensor(x), t), k) <= TOL

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_of_several_widths_match_finite_differences(self, seed):
        rng = np.random.default_rng(565 + seed)
        x, ka, kb = rng.normal(size=(12, 4)), rng.normal(size=(3, 1, 3, 4)), rng.normal(size=(2, 1, 2, 4))
        c = rng.normal(size=(2, 5))

        def loss(xt, kat, kbt):
            return (ad.sequence_conv_pool(xt, [7, 5], kat, kbt) * ad.Tensor(c)).sum()

        assert grad_error(lambda t: loss(t, ad.Tensor(ka), ad.Tensor(kb)), x) <= TOL
        assert grad_error(lambda t: loss(ad.Tensor(x), t, ad.Tensor(kb)), ka) <= TOL
        assert grad_error(lambda t: loss(ad.Tensor(x), ad.Tensor(ka), t), kb) <= TOL


class TestReductions:
    def test_softmax_symmetry(self):
        out = ad.log_softmax(ad.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(np.exp(out.data), np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_log_softmax_stability(self):
        out = ad.log_softmax(ad.Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, -1000.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_softmax_rows_normalize(self, seed):
        rng = np.random.default_rng(500 + seed)
        x = rng.normal(scale=3.0, size=(4, 6))
        out = ad.log_softmax(ad.Tensor(x), axis=1)
        assert np.all(out.data <= 0)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), np.ones(4), atol=1e-9)

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            ad.log_softmax(ad.Tensor(np.zeros((2, 2))), axis=5)

    @pytest.mark.parametrize("seed", range(100))
    def test_gradients(self, seed):
        rng = np.random.default_rng(600 + seed)
        x = rng.normal(size=(3, 5))
        c = rng.normal(size=(3, 5))
        cv = rng.normal(size=3)
        assert grad_error(lambda t: (ad.log_softmax(t, axis=1) * ad.Tensor(c)).sum(), x) <= TOL
        assert grad_error(lambda t: (t.sum(axis=1) * ad.Tensor(cv)).sum(), x) <= TOL
        assert grad_error(lambda t: (t.mean(axis=0) * ad.Tensor(c[0])).sum(), x) <= TOL
        assert grad_error(lambda t: t.mean(), x) <= TOL


class TestStructuralOps:
    @pytest.mark.parametrize("seed", range(100))
    def test_reshape_concat_gather_gradients(self, seed):
        rng = np.random.default_rng(700 + seed)
        x = rng.normal(size=(4, 6))
        c = rng.normal(size=24)
        c2 = rng.normal(size=(8, 6))
        idx = rng.integers(0, 4, size=8)
        c4 = rng.normal(size=4)
        assert grad_error(lambda t: (t.reshape((24,)) * ad.Tensor(c)).sum(), x) <= TOL
        assert grad_error(lambda t: (ad.concat([t, t * 2.0], axis=0) * ad.Tensor(c2)).sum(), x) <= TOL
        assert grad_error(lambda t: (ad.gather_rows(t, idx) * ad.Tensor(c2)).sum(), x) <= TOL
        assert grad_error(lambda t: (ad.take_along(t, idx[:4] % 6) * ad.Tensor(c4)).sum(), x) <= TOL
        picks = np.argsort(rng.random((4, 6)), axis=1)[:, :3]  # distinct columns per row
        assert grad_error(lambda t: (ad.take_along(t, picks) * ad.Tensor(c2[:4, :3])).sum(), x) <= TOL

    @pytest.mark.parametrize("seed", range(10))
    def test_gather_gradient_equals_the_add_at_reference(self, seed):
        # Zipf-repeated ids, as a text batch repeats its common words, and gradients with -0.0, NaN and +-1e300
        rng = np.random.default_rng(720 + seed)
        for _ in range(30):
            rows, m = int(rng.integers(1, 40)), int(rng.integers(1, 9))
            idx = np.minimum(rng.zipf(1.5, size=int(rng.integers(1, 200))) - 1, rows - 1)
            g, kind = rng.normal(size=(idx.size, m)), rng.integers(0, 10, size=(idx.size, m))
            g[kind == 0] = -0.0
            g[kind == 1] = np.nan
            g[kind == 2] = np.copysign(1e300, g[kind == 2])
            t = ad.Tensor(rng.normal(size=(rows, m)), requires_grad=True)
            with np.errstate(over="ignore", invalid="ignore"):  # 1e300 + 1e300 overflows, inf - inf is NaN
                (ad.gather_rows(t, idx) * ad.Tensor(g)).sum().backward()
                want = np.zeros((rows, m))
                np.add.at(want, idx, g * 1.0)  # the gradient as the mul node hands it on
            assert t.grad.tobytes() == accumulated(want).tobytes()


class TestBackwardContract:
    def test_sum_gradient_is_ones(self):
        w = ad.Tensor(np.arange(5.0), requires_grad=True)
        w.sum().backward()
        np.testing.assert_array_equal(w.grad, np.ones(5))

    def test_gated_inner_product_gradient(self):
        # with constant gates and inputs, d/dw of z.(g*w) is exactly g*z
        z = np.array([0.5, -1.0, 2.0, 0.0])
        g = np.array([1.0, 0.0, 1.0, 0.0])
        w = ad.Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
        (ad.Tensor(z) * ad.Tensor(g) * w).sum().backward()
        np.testing.assert_array_equal(w.grad, g * z)

    def test_no_grad_builds_no_graph_and_keeps_values(self):
        w = ad.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with ad.no_grad():
            y = ad.relu(w * 2.0 + (-1.0))
        assert not y.requires_grad and y._parents == () and y._backward is None
        np.testing.assert_array_equal(y.data, ad.relu(w * 2.0 + (-1.0)).data)
        assert ad.relu(w * 2.0 + (-1.0)).requires_grad

    def test_no_grad_is_restored_after_an_exception_and_nests(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            with ad.no_grad():
                with ad.no_grad():
                    pass
                assert not (w * 2.0).requires_grad
                ad.add(w, ad.Tensor(np.ones(2)))
        (w * 2.0).sum().backward()
        np.testing.assert_array_equal(w.grad, np.full(3, 2.0))

    def test_non_scalar_loss_rejected(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            (w * 2.0).backward()

    def test_grad_accumulates_over_shared_input(self):
        w = ad.Tensor([1.0, 2.0], requires_grad=True)
        (w.sum() + (w * w).sum()).backward()
        np.testing.assert_array_equal(w.grad, [3.0, 5.0])

    def test_replay_determinism(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 4))
        k = rng.normal(size=(2, 1, 3, 3))

        def run():
            t = ad.Tensor(x.reshape(1, 1, 4, 4), requires_grad=True)
            out = ad.max_pool2d(ad.relu(ad.conv2d(t, ad.Tensor(k), padding=1)), 2)
            loss = ad.log_softmax(out.reshape((1, -1)), axis=1).sum()
            loss.backward()
            return loss.data.copy(), t.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)


class TestGradientHandOver:
    """accumulate_grad keeps a fresh gradient as t.grad, laid out as a copy would be, and copies every view."""

    @pytest.mark.parametrize("layout", ["c", "channels_last"])
    def test_a_fresh_gradient_is_kept_only_when_its_layout_matches(self, layout):
        rng = np.random.default_rng(40)
        data = rng.normal(size=(2, 3, 4, 5))
        data = channels_last(data) if layout == "channels_last" else data
        for g, keeps in ((np.empty_like(data), True), (np.ascontiguousarray(data), layout == "c"),
                         (np.asfortranarray(data), False), (channels_last(data), layout == "channels_last")):
            g[...] = rng.normal(size=g.shape)
            want = g.copy()
            for fresh in (True, False):
                t = ad.Tensor(data, requires_grad=True)
                ad.accumulate_grad(t, g, fresh=fresh)
                assert (t.grad is g) == (fresh and keeps)
                assert t.grad.strides == np.empty_like(data).strides
                np.testing.assert_array_equal(t.grad, want)

    def test_a_fresh_negative_zero_is_stored_as_positive_zero(self):
        g = np.array([-0.0, 1.5, -0.0, np.nan])
        t = ad.Tensor(np.zeros(4), requires_grad=True)
        ad.accumulate_grad(t, g, fresh=True)
        assert t.grad is g and g.tobytes() == np.array([0.0, 1.5, 0.0, np.nan]).tobytes()
        x = ad.Tensor(np.ones(3), requires_grad=True)  # mul's backward builds g * b: -0.0 where b is -0.0
        (x * ad.Tensor([-0.0, 2.0, -0.0])).sum().backward()
        assert x.grad.tobytes() == np.array([0.0, 2.0, 0.0]).tobytes()

    def test_zero_dimensional_gradients_are_stored_as_arrays(self):
        # numpy returns a scalar, not an array, for arithmetic on 0-d arrays; mul, relu and softplus build one
        x, y = ad.Tensor(3.0, requires_grad=True), ad.Tensor(0.5, requires_grad=True)
        (ad.softplus(ad.relu(x * y) + x) * ad.Tensor(2.0)).backward()
        assert type(x.grad) is np.ndarray and type(y.grad) is np.ndarray and x.grad.shape == y.grad.shape == ()
        s = 2.0 / (1.0 + np.exp(-4.5))  # 2 sigmoid(x y + x)
        np.testing.assert_allclose([x.grad, y.grad], [s * 1.5, s * 3.0], rtol=1e-15)

    def test_views_are_copied_so_no_two_gradients_share_memory(self):
        rng = np.random.default_rng(41)
        a = ad.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        s = a + b  # each operand gets g itself
        r = s.reshape((6, 4))  # s gets a view of r's gradient
        c = ad.concat([r, b.reshape((6, 4)), r * 2.0], axis=0)  # each part gets a view of c's gradient
        loss = (c * ad.Tensor(rng.normal(size=(18, 4)))).sum()
        loss.backward()
        held = [t for t in ad._toposort(loss) if t.grad is not None]
        assert len(held) == 9
        for i, t in enumerate(held):
            assert not any(np.shares_memory(t.grad, u.grad) for u in held[i + 1 :])
        for t in held:
            before = [u.grad.tobytes() for u in held if u is not t]
            t.grad += 1.0
            assert [u.grad.tobytes() for u in held if u is not t] == before


class TestFiniteDifferenceOracle:
    def test_quadratic_slope(self):
        g = finite_difference_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert abs(g[0] - 6.0) <= 1e-6

    def test_relu_sum(self):
        g = finite_difference_grad(lambda x: float(np.maximum(x, 0.0).sum()), np.array([1.0, -1.0]))
        np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-12)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            finite_difference_grad(lambda x: 0.0, np.zeros(2), eps=0.0)
