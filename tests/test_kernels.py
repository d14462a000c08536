"""The narrow kernels against the general numpy forms they replace, kept
in helpers.py: the view-taking autodiff.take against np.take, its
backward onto an existing gradient against the dense scatter-add, the
max-valued autodiff.vmax against the value at the first argmax,
geometry.cross against np.cross, the one-shot tolerance checks of
OrientedBox and SimilarityTransform against np.allclose, and the per-block
shift of autodiff.linear against matmul, a repeat_rows add, the bias and a
ReLU as separate taped ops. Equality is bit for bit, so -0.0 is told from
+0.0 and NaN payloads count. The stacked autodiff.matmul is checked
against per-slice products and central differences."""

import numpy as np
import pytest

from artipose import autodiff as ad
from artipose import geometry as geo
from artipose import nn
from artipose.errors import ShapeMismatch
from artipose.gradcheck import f64_store, fd_pairs
from helpers import (
    bits,
    box_check_allclose,
    grad_onto,
    linear_chain,
    nan,
    rel_err,
    rotation_check_allclose,
    special_pool,
    take_scatter,
    vmax_argmax,
)

DTYPES = [np.float32, np.float64]


def forward(op, data, *args, **kwargs):
    tape = ad.Tape(grad=False)
    return op(ad.const(data, tape), *args, **kwargs).data


def grads(op, data, seed, *args, **kwargs):
    tape = ad.Tape()
    a = ad.leaf(data, tape)
    out = op(a, *args, **kwargs)
    tape.backward(out, seed)
    return out.data, a.grad


class TestTakeView:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "shape, idx, axis",
        [
            ((1024, 256), np.arange(128), -1),
            ((10, 3), np.arange(3, 8), 0),
            ((10, 3), np.arange(10), 0),
            ((7, 3), np.array([2]), -1),
            ((7, 3), np.array([6]), 0),
            ((2, 5, 4), np.arange(1, 3, dtype=np.int32), 1),
            ((6,), np.arange(3, 6, dtype=np.uint8), 0),
        ],
    )
    def test_runs_are_read_only_views_with_np_take_values(self, shape, idx, axis, dtype):
        data = np.random.default_rng(idx.size).normal(size=shape).astype(dtype)
        before = data.copy()
        out = forward(ad.take, data, idx, axis=axis)
        want = np.take(data, idx, axis=axis)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert np.array_equal(bits(out), bits(want))
        assert np.shares_memory(out, data)
        with pytest.raises(ValueError, match="read-only"):
            out[...] = 0
        assert np.array_equal(bits(data), bits(before))

    @pytest.mark.parametrize(
        "idx",
        [
            np.array([-3, -2, -1]),
            np.array([-1, 0, 1]),
            np.array([2, 1, 0]),
            np.array([0, 2, 3]),
            np.array([1, 0, 2, 3]),
            np.array([0, 2, 1, 3]),
            np.array([2, 4, 3, 5]),
            np.array([3, 3]),
            np.array([[1, 2], [3, 4]]),
            np.array(2),
            np.array([], dtype=np.int64),
        ],
    )
    def test_other_indices_copy_like_np_take(self, idx):
        data = np.random.default_rng(3).normal(size=(6, 4))
        out = forward(ad.take, data, idx, axis=0)
        want = np.take(data, idx, axis=0)
        assert out.shape == want.shape
        assert np.array_equal(bits(out), bits(want))
        assert not np.shares_memory(out, data)

    @pytest.mark.parametrize(
        "idx", [np.arange(3, 7), np.array([6]), np.array([5, 6]), np.array([-7, -6]), np.arange(-8, -5)]
    )
    def test_out_of_range_raises_like_np_take(self, idx):
        data = np.zeros((6, 4))
        with pytest.raises(IndexError) as want:
            np.take(data, idx, axis=0)
        with pytest.raises(IndexError) as got:
            forward(ad.take, data, idx, axis=0)
        assert str(got.value) == str(want.value)

    def test_view_backward_matches_scatter_add(self):
        data = np.random.default_rng(5).normal(size=(9, 6))
        seed = np.random.default_rng(6).normal(size=(9, 3))
        seed[::2, 1] = -0.0
        got_out, got = grads(ad.take, data, seed.copy(), np.arange(2, 5), axis=-1)
        want_out, want = grads(take_scatter, data, seed.copy(), np.arange(2, 5), axis=1)
        assert np.array_equal(bits(got_out), bits(want_out))
        assert np.array_equal(bits(got), bits(want))


class TestTakeAccumulate:
    """take's backward onto an existing gradient, bit for bit against the
    dense form grad + full of take_scatter, full the scatter-add into zeros."""

    INDICES = {
        "run": np.array([3, 4, 5, 6]),
        "unique": np.array([7, 0, 4, 2]),
        "repeated": np.array([5, 1, 5, 5]),
    }

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kind", ["owned", "borrowed", "broadcast"])
    @pytest.mark.parametrize("axis", [0, -1])
    @pytest.mark.parametrize("case", sorted(INDICES))
    def test_matches_dense_add(self, case, axis, kind, dtype):
        idx = self.INDICES[case]
        pool = special_pool(dtype)
        shape = (9, 16) if axis == 0 else (16, 9)
        out_shape = (4, 16) if axis == 0 else (16, 4)
        # run and unique indices meet every pair of pool values in a full prior
        g = np.repeat(pool, 8).reshape(out_shape)
        prior = np.resize(pool[::-1], shape)
        if kind != "broadcast":
            sl = [slice(None)] * 2
            sl[axis] = idx
            prior[tuple(sl)] = np.tile(pool, 8).reshape(out_shape)
        else:
            prior[...] = prior[0]
        data = np.zeros(shape, dtype=dtype)
        with np.errstate(invalid="ignore"):  # inf + -inf
            got, seed_kept, met = grad_onto(lambda a: ad.take(a, idx, axis=axis), kind, data, prior, g)
            want, _, _ = grad_onto(lambda a: take_scatter(a, idx, axis=axis), kind, data, prior, g)
        assert seed_kept and met == [(kind == "owned", kind == "broadcast", True)]
        assert got.dtype == want.dtype and got.strides == want.strides
        assert np.array_equal(bits(got), bits(want))


def vmax_cases(rng, dtype):
    """(data, axis) pairs: random values, integer ties, signed zeros, all-zero
    and all-negative channels, NaNs with distinct payloads, and infinities."""
    cases = []
    for shape, axis in [((1, 1024, 64), 1), ((5, 7), 0), ((5, 7), 1), ((3, 4, 6), 2), ((300,), 0)]:
        cases.append((rng.normal(size=shape).astype(dtype), axis))
        cases.append((rng.integers(-3, 3, size=shape).astype(dtype), axis))
        ties = rng.integers(-2, 1, size=shape).astype(dtype)
        ties[rng.random(size=shape) < 0.5] = -0.0
        cases.append((ties, axis))
        zeros = np.zeros(shape, dtype=dtype)
        zeros[rng.random(size=shape) < 0.3] = -0.0
        cases.append((zeros, axis))
        negative = -np.abs(rng.normal(size=shape)).astype(dtype)
        negative[rng.random(size=shape) < 0.2] = -0.0
        negative[rng.random(size=shape) < 0.2] = 0.0
        cases.append((negative, axis))
        nans = rng.normal(size=shape).astype(dtype)
        for k, flat in enumerate(np.flatnonzero(rng.random(size=shape) < 0.05)):
            nans.flat[flat] = nan(k % 1000 + 1, int(rng.integers(2)), dtype)
        cases.append((nans, axis))
        infs = rng.normal(size=shape).astype(dtype)
        infs[rng.random(size=shape) < 0.1] = np.inf
        infs[rng.random(size=shape) < 0.1] = -np.inf
        cases.append((infs, axis))
        cases.append((np.full(shape, -np.inf, dtype=dtype), axis))
    return cases


class TestVmaxValue:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_first_argmax_value(self, dtype):
        for data, axis in vmax_cases(np.random.default_rng(11), dtype):
            got = forward(ad.vmax, data, axis=axis)
            want = forward(vmax_argmax, data, axis=axis)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_signed_zero_tie_takes_the_first(self, dtype):
        data = np.array([[-0.0, 0.0], [0.0, -0.0], [-1.0, -0.0], [-0.0, -0.0]], dtype=dtype)
        out = forward(ad.vmax, data, axis=1)
        assert np.array_equal(bits(out), bits(np.array([-0.0, 0.0, -0.0, -0.0], dtype=dtype)))

    def test_all_zero_channel_of_a_pooled_cloud(self):
        data = np.abs(np.random.default_rng(2).normal(size=(2, 1024, 8)))
        data[:, :, 3] = 0.0
        data[1, 0, 3] = -0.0
        out = forward(ad.vmax, data, axis=1)
        assert np.array_equal(bits(out), bits(forward(vmax_argmax, data, axis=1)))
        assert np.signbit(out[1, 3]) and not np.signbit(out[0, 3])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_backward_matches_argmax_form(self, dtype):
        rng = np.random.default_rng(4)
        for data, axis in vmax_cases(rng, dtype):
            seed = rng.normal(size=np.delete(data.shape, axis)).astype(dtype)
            got_out, got = grads(ad.vmax, data, seed.copy(), axis=axis)
            want_out, want = grads(vmax_argmax, data, seed.copy(), axis=axis)
            assert np.array_equal(bits(got_out), bits(want_out))
            assert np.array_equal(bits(got), bits(want))


def cross_operands(rng):
    """(a, b) pairs covering broadcasting, dtype promotion, signed zeros,
    NaN and inf."""
    pairs = [
        (rng.normal(size=3), rng.normal(size=3)),
        (rng.normal(size=(6, 3)), rng.normal(size=(6, 3))),
        (rng.normal(size=(6, 3)), rng.normal(size=3)),
        (rng.normal(size=3), rng.normal(size=(6, 3))),
        (rng.normal(size=(2, 1, 3)), rng.normal(size=(4, 3))),
        (rng.normal(size=(5, 3)).astype(np.float32), rng.normal(size=(5, 3))),
        (rng.normal(size=(5, 3)).astype(np.float32), rng.normal(size=(5, 3)).astype(np.float32)),
        (rng.integers(-5, 5, size=(4, 3)), rng.normal(size=3)),
        (rng.integers(-5, 5, size=(4, 3)), rng.integers(-5, 5, size=(4, 3))),
        ([0.0, 0.0, 1.0], np.array([1.0, 0.0, 0.0])),
    ]
    zeros = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(64, 3))
    pairs.append((zeros, rng.choice([-0.0, 0.0, 2.0, -2.0], size=(64, 3))))
    pairs.append((zeros, zeros[::-1]))
    special = rng.normal(size=(12, 3))
    special[rng.random(size=special.shape) < 0.2] = np.nan
    special[rng.random(size=special.shape) < 0.2] = np.inf
    special[rng.random(size=special.shape) < 0.2] = -np.inf
    pairs.append((special, special[::-1]))
    pairs.append((special, rng.normal(size=3)))
    return pairs


class TestCross:
    def test_matches_np_cross(self):
        with np.errstate(invalid="ignore"):
            for a, b in cross_operands(np.random.default_rng(8)):
                got, want = geo.cross(a, b), np.cross(a, b)
                assert got.dtype == want.dtype and got.shape == want.shape
                if got.dtype.kind == "f":
                    assert np.array_equal(bits(got), bits(want))
                else:
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("a, b", [(np.zeros(2), np.zeros(3)), (np.zeros((3, 4)), np.zeros(3)), (np.zeros(()), np.zeros(3))])
    def test_rejects_non_3_vectors(self, a, b):
        with pytest.raises(ValueError):
            geo.cross(a, b)

    def test_cross3_matches_np_cross_forward_and_backward(self):
        rng = np.random.default_rng(9)
        for shape_a, shape_b in [((3,), (3,)), ((6, 3), (6, 3)), ((6, 3), (3,))]:
            a_data, b_data = rng.normal(size=shape_a), rng.normal(size=shape_b)
            a_data.flat[::4] = -0.0
            g = rng.normal(size=np.broadcast_shapes(shape_a, shape_b))
            tape = ad.Tape()
            a, b = ad.leaf(a_data, tape), ad.leaf(b_data, tape)
            out = ad.cross3(a, b)
            tape.backward(out, g)
            assert np.array_equal(bits(out.data), bits(np.cross(a_data, b_data)))
            ga, gb = np.cross(b_data, g), np.cross(g, a_data)
            assert np.array_equal(bits(a.grad), bits(ga.sum(axis=0) if shape_a != ga.shape else ga))
            assert np.array_equal(bits(b.grad), bits(gb.sum(axis=0) if shape_b != gb.shape else gb))


def outcome(build, *args):
    try:
        build(*args)
    except ValueError as err:
        return str(err)
    return None


def box_vertices(rng):
    R = geo.rot6d_to_matrix(rng.normal(size=6))
    h = rng.uniform(0.05, 2.0, size=3)
    return geo.OrientedBox.from_extents(h).vertices @ R.T + rng.normal(size=3)


class TestBoxCheck:
    def test_boundary_perturbations_match_allclose(self):
        """Nudge one coordinate of one corner around the tolerance of the edge
        it enters, atol + rtol * |edge|, and compare accept and reject."""
        rng = np.random.default_rng(12)
        seen = set()
        for trial in range(40):
            v = box_vertices(rng)
            corner = int(rng.integers(1, 8))
            axis = int(rng.integers(3))
            scale = 1e-6 + 1e-5 * np.abs(v[corner, axis] - v[0, axis])
            for factor in np.linspace(0.0, 2.5, 26):
                for sign in (1.0, -1.0):
                    w = v.copy()
                    w[corner, axis] += sign * factor * scale
                    want = box_check_allclose(w)
                    assert outcome(geo.OrientedBox, w) == want
                    seen.add(want)
        assert seen == {None, "vertices do not form a parallelepiped"}

    def test_exact_tolerance_edge(self):
        """Corner 7 moved along x by exactly the tolerance of the x
        components it is compared with, atol + rtol * 0 = 1e-6, passes; the
        next float above it fails."""
        base = geo.OrientedBox.from_extents([0.5, 0.5, 0.5]).vertices - [0.5, 0.0, 0.0]
        up = np.nextafter(1e-6, 1.0)
        for bump, accepted in [(1e-6, True), (-1e-6, True), (up, False), (-up, False), (0.0, True)]:
            w = base.copy()
            w[7, 0] += bump
            want = box_check_allclose(w)
            assert (want is None) == accepted
            assert outcome(geo.OrientedBox, w) == want

    def test_non_finite_differences_match_allclose(self):
        """Finite corners whose x coordinates near the float64 limit make
        edge differences overflow to +inf or -inf, in either or both of a
        compared pair."""
        rng = np.random.default_rng(14)
        big = np.finfo(np.float64).max
        grid = np.array([-big, -big / 2, 0.0, big / 2, big])
        base = geo.OrientedBox.from_extents([1.0, 1.0, 1.0]).vertices
        seen = set()
        with np.errstate(all="ignore"):
            # every x edge +inf on both sides of each compared pair
            w = base.copy()
            w[:, 0] = np.where(base[:, 0] > 0, big, -big)
            assert outcome(geo.OrientedBox, w) == box_check_allclose(w) is None
            for trial in range(3000):
                w = base.copy()
                w[:, 0] = rng.choice(grid, size=8)
                want = box_check_allclose(w)
                assert outcome(geo.OrientedBox, w) == want
                seen.add(want)
        assert seen >= {None, "vertices do not form a parallelepiped"}

    def test_non_finite_vertices_rejected(self):
        w = geo.OrientedBox.from_extents([1.0, 1.0, 1.0]).vertices.copy()
        w[3, 1] = np.nan
        assert outcome(geo.OrientedBox, w) == box_check_allclose(w) == "box vertices contain non-finite values"


class TestRotationCheck:
    def test_boundary_perturbations_match_allclose(self):
        rng = np.random.default_rng(13)
        seen = set()
        for trial in range(40):
            R = geo.rot6d_to_matrix(rng.normal(size=6))
            i, j = (int(k) for k in rng.integers(3, size=2))
            for delta in np.linspace(0.0, 1.5e-5, 31):
                for sign in (1.0, -1.0):
                    S = R.copy()
                    S[i, j] += sign * delta
                    want = rotation_check_allclose(S)
                    assert outcome(geo.SimilarityTransform, S, np.zeros(3), 1.0) == want
                    seen.add(want)
        assert "R is not orthonormal within 1e-6" in seen and None in seen

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300])
    def test_non_finite_products_match_allclose(self, value):
        S = np.eye(3)
        S[1, 2] = value
        with np.errstate(all="ignore"):
            want = rotation_check_allclose(S)
            assert outcome(geo.SimilarityTransform, S, np.zeros(3), 1.0) == want
        assert want == "R is not orthonormal within 1e-6"


def signed(rng, shape, dtype):
    """Random values with exact +0.0 and -0.0 mixed in."""
    a = rng.normal(size=shape).astype(dtype)
    a.reshape(-1)[::5] = -0.0
    a.reshape(-1)[1::7] = 0.0
    return a


class TestLinearShift:
    S, N, K, H = 3, 7, 5, 6

    def run(self, linear_fn, relu, arrays, grad_of):
        """Forward and grads of sum(out * seed) + sum(x * ex) + sum(shift *
        es): x and shift also feed a later op, so the order of their two
        contributions matters. grad_of names the inputs that are leaves."""
        x, w, b, shift, seed, ex, es = arrays
        tape = ad.Tape()
        vs = [
            (ad.leaf if name in grad_of else ad.const)(v, tape)
            for name, v in zip("xwbs", (x, w, b, shift))
        ]
        out = linear_fn(vs[0], vs[1], vs[2], relu=relu, shift=vs[3])
        total = ad.add(
            ad.vsum(ad.mul(out, ad.const(seed, tape))),
            ad.add(ad.vsum(ad.mul(vs[0], ad.const(ex, tape))), ad.vsum(ad.mul(vs[3], ad.const(es, tape)))),
        )
        tape.backward(total)
        return [out.data] + [v.grad for v in vs]

    def arrays(self, dtype):
        rng = np.random.default_rng(21)
        S, N, K, H = self.S, self.N, self.K, self.H
        x = rng.normal(size=(S * N, K)).astype(dtype)
        x[::4] = 0.0  # those rows come out as shift + b exactly
        w = rng.normal(size=(K, H)).astype(dtype)
        b = signed(rng, H, dtype)
        shift = signed(rng, (S, H), dtype)
        shift[1] = -b  # a block whose zero-x rows cancel to a signed zero
        return [x, w, b, shift, signed(rng, (S * N, H), dtype), signed(rng, (S * N, K), dtype), signed(rng, (S, H), dtype)]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("grad_of", ["xwbs", "wbs", "xw", "s"])
    def test_matches_matmul_repeat_rows_bias_relu_chain(self, dtype, relu, grad_of):
        arrays = self.arrays(dtype)
        got = self.run(ad.linear, relu, arrays, grad_of)
        want = self.run(linear_chain, relu, arrays, grad_of)
        for g, e in zip(got, want):
            assert (g is None) == (e is None)
            if g is not None:
                assert g.dtype == e.dtype and np.array_equal(bits(g), bits(e))

    def test_infinities_match_the_chain(self):
        # NaN is left out: the fused ReLU keeps it where np.where gives 0
        arrays = self.arrays(np.float32)
        arrays[3][2, 1] = np.inf
        arrays[0][3, 0] = -np.inf
        with np.errstate(invalid="ignore"):  # inf * 0 in the products
            got = self.run(ad.linear, True, arrays, "xwbs")
            want = self.run(linear_chain, True, arrays, "xwbs")
        for g, e in zip(got, want):
            assert np.array_equal(bits(g), bits(e))

    @pytest.mark.parametrize("shape", [(2, 6), (4, 5), (0, 6)])
    def test_rejects_a_shift_that_does_not_tile_the_rows(self, shape):
        tape = ad.Tape()
        x, w, b = ad.const(np.ones((21, 5)), tape), ad.leaf(np.ones((5, 6)), tape), ad.const(np.zeros(6), tape)
        with pytest.raises(ShapeMismatch):
            ad.linear(x, w, b, relu=True, shift=ad.const(np.zeros(shape), tape))


class TestStackedMatmul:
    def test_matches_per_slice_products(self):
        rng = np.random.default_rng(22)
        a, b = rng.normal(size=(3, 4, 5)).astype(np.float32), rng.normal(size=(3, 5, 2)).astype(np.float32)
        out = forward(lambda v: ad.matmul(v, b), a)
        for got, ai, bi in zip(out, a, b):
            assert np.array_equal(got, ai @ bi)

    def test_finite_differences_float64(self):
        rng = np.random.default_rng(23)
        store = f64_store(nn.ParamStore(), a=rng.normal(size=(3, 4, 5)), b=rng.normal(size=(3, 5, 2)))
        W = rng.normal(size=(3, 4, 2))

        def loss(tape):
            return ad.vsum(ad.mul(ad.matmul(store.use("a", tape), store.use("b", tape)), ad.const(W, tape)))

        probes = [(name, i) for name in "ab" for i in range(store.params[name].size)]
        for analytic, fd in fd_pairs(loss, store, probes, h=1e-6):
            assert rel_err(analytic, fd) < 1e-6

    @pytest.mark.parametrize("a_shape, b_shape", [((3, 4, 5), (2, 5, 2)), ((3, 4, 5), (3, 4, 2)), ((3, 4, 5), (5, 2)), ((4, 5), (3, 5, 2))])
    def test_rejects_mismatched_stacks(self, a_shape, b_shape):
        tape = ad.Tape()
        with pytest.raises(ShapeMismatch):
            ad.matmul(ad.leaf(np.ones(a_shape), tape), ad.const(np.ones(b_shape), tape))
