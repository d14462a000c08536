"""The tape's borrowed and owned gradients, gather backward and fused linear
op, checked bit for bit against the copying, scattering and three-op forms
kept in helpers.py; whole training runs also swap in the np.take, argmax
and np.cross forward forms. linear's row-blocked input gradient is checked
against one product. The sweep's lifetimes: a swept tape is empty,
op outputs drop their grads and leaves keep theirs, its tracemalloc peak
stays under half of the retaining loop's in helpers.py, and one-step
training runs stay under TRAIN_PEAK_BOUND and EIGHT_SCENE_PEAK_BOUND. The
rebuilt activations are held by nothing from their consumer's forward to
the backward, come back bit for bit, and leave training's bytes and record
count as they are with no activation marked."""

import csv
import tracemalloc
import weakref

import numpy as np
import pytest

from artipose import autodiff as ad
from artipose import estimator as E
from artipose import nn
from artipose.synth.instances import make_instance
from artipose.synth.scene import sample_scene
from helpers import (
    add_grad_copying,
    backward_retaining,
    bits,
    grad_onto,
    linear_chain,
    nan,
    special_pool,
    spy_tapes,
    take_scatter,
    vmax_argmax,
)

DTYPES = [np.float32, np.float64]


def signed_seed(shape, dtype, rng):
    """Random values with exact +0.0 and -0.0 mixed in."""
    g = rng.normal(size=shape).astype(dtype)
    flat = g.reshape(-1)
    flat[::5] = -0.0
    flat[1::7] = 0.0
    return g


def take_grad(take_fn, data, idx, axis, seed):
    tape = ad.Tape()
    a = ad.leaf(data, tape)
    out = take_fn(a, idx, axis=axis)
    tape.backward(out, seed)
    return out.data, a.grad


class TestTakeBackward:
    CASES = {
        "range_last_axis": ((6, 9), np.arange(4), -1),
        "range_offset_rows": ((10, 3), np.arange(3, 8), 0),
        "single_last_axis": ((7, 3), np.array([2]), -1),
        "unique_unsorted_rows": ((9, 4), np.array([7, 0, 3, 8, 1]), 0),
        "repeated_rows": ((6, 5), np.array([4, 1, 4, 0, 4, 1, 5, 4]), 0),
        "empty": ((5, 3), np.array([], dtype=np.int64), 0),
    }

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_scatter_add(self, case, dtype):
        shape, idx, axis = self.CASES[case]
        rng = np.random.default_rng(len(case))
        data = rng.normal(size=shape).astype(dtype)
        out_shape = np.take(data, idx, axis=axis).shape
        seed = signed_seed(out_shape, dtype, rng)
        got_out, got = take_grad(ad.take, data, idx, axis, seed.copy())
        want_out, want = take_grad(take_scatter, data, idx, axis, seed.copy())
        assert np.array_equal(bits(got_out), bits(want_out))
        assert got.dtype == want.dtype
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_repeats_keep_their_order(self, dtype):
        # 1 + big - big rounds to 0 or 1 depending on the order of the adds
        big = dtype(2.0 ** (np.finfo(dtype).nmant + 2))
        idx = np.array([2, 2, 0, 2, 2])
        seed = np.array([[1.0], [big], [5.0], [-big], [1.0]], dtype=dtype)
        data = np.zeros((3, 1), dtype=dtype)
        _, got = take_grad(ad.take, data, idx, 0, seed.copy())
        _, want = take_grad(take_scatter, data, idx, 0, seed.copy())
        assert np.array_equal(bits(got), bits(want))

    def test_negative_zero_lands_as_positive_zero(self):
        data = np.ones((4, 2), dtype=np.float32)
        seed = np.full((2, 2), -0.0, dtype=np.float32)
        for idx in (np.array([1, 2]), np.array([3, 0]), np.array([1, 1])):
            _, got = take_grad(ad.take, data, idx, 0, seed)
            assert not np.signbit(got).any()


def linear_grads(linear_fn, x, w, b, relu, x_leaf, seed, extra):
    """Forward and grads of sum(linear * seed) + sum(x * extra): x also feeds
    a later op, so the order of x's two contributions matters."""
    tape = ad.Tape()
    xv = (ad.leaf if x_leaf else ad.const)(x, tape)
    wv = ad.leaf(w, tape)
    bv = ad.leaf(b, tape)
    out = linear_fn(xv, wv, bv, relu=relu)
    total = ad.add(
        ad.vsum(ad.mul(out, ad.const(seed, tape))),
        ad.vsum(ad.mul(xv, ad.const(extra, tape))),
    )
    tape.backward(total)
    return out.data, xv.grad, wv.grad, bv.grad


class TestLinear:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("x_leaf", [True, False])
    def test_matches_three_op_chain(self, dtype, relu, x_leaf, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(37, 11)).astype(dtype)
        x[::4] = 0.0  # those rows come out as exactly b: +0.0, -0.0 and negatives
        w = rng.normal(size=(11, 13)).astype(dtype)
        b = rng.normal(size=13).astype(dtype)
        b[::3] = 0.0
        b[1::3] = -0.0
        seed = signed_seed((37, 13), dtype, rng)
        extra = rng.normal(size=(37, 11)).astype(dtype)
        inputs = [(x, w, b, seed, extra)]
        # small integers: exact pre-activations, many of them 0 or negative
        xi, wi, bi = (rng.integers(-3, 4, size=n).astype(dtype) for n in ((37, 11), (11, 13), 13))
        pre = xi @ wi + bi
        assert (pre == 0).any() and (pre < 0).any()
        seed = signed_seed((37, 13), dtype, rng)
        inputs.append((xi, wi, bi, seed, rng.normal(size=(37, 11)).astype(dtype)))
        for x, w, b, seed, extra in inputs:
            got = linear_grads(ad.linear, x, w, b, relu, x_leaf, seed, extra)
            with monkeypatch.context() as m:
                m.setattr(ad.Var, "_add_grad", add_grad_copying)
                want = linear_grads(linear_chain, x, w, b, relu, x_leaf, seed, extra)
            for g, o in zip(got, want):
                if o is None:
                    assert g is None
                else:
                    assert g.dtype == o.dtype
                    assert np.array_equal(bits(g), bits(o))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_width_one_x_gradient_is_the_matmul(self, dtype):
        # one output column: x's gradient is the outer product g w^T, taken
        # without matmul; bit for bit the matmul's, signed zeros included
        rng = np.random.default_rng(6)
        w = rng.normal(size=(9, 1)).astype(dtype)
        w[1], w[2], w[3] = 0.0, -0.0, np.inf
        g = rng.normal(size=(12, 1)).astype(dtype)
        g[0], g[1], g[2], g[3] = 0.0, -0.0, np.inf, -np.inf
        g[4], g[5] = np.nan, -np.nan
        tape = ad.Tape()
        x = ad.leaf(rng.normal(size=(12, 9)).astype(dtype), tape)
        with np.errstate(invalid="ignore"):  # inf * 0
            out = ad.linear(x, ad.const(w, tape), ad.const(np.zeros(1, dtype=dtype), tape), relu=False)
            tape.backward(ad.vsum(ad.mul(out, ad.const(g, tape))))
            want, product = g @ w.T, g * w.T
        assert np.isnan(want).any() and np.isinf(want).any()
        # BLAS gives +0.0 where the plain product is -0.0
        zero = want == 0
        assert np.signbit(product[zero]).any() and not np.signbit(want[zero]).any()
        assert x.grad.dtype == want.dtype
        assert np.array_equal(bits(x.grad), bits(want))

    def test_one_record_per_layer(self):
        tape = ad.Tape()
        x = ad.const(np.ones((2, 3)), tape)
        ad.linear(x, ad.leaf(np.ones((3, 4)), tape), ad.leaf(np.zeros(4), tape), relu=True)
        assert len(tape._ops) == 1


class TestNoGradTape:
    def test_records_nothing(self):
        tape = ad.Tape(grad=False)
        x = ad.leaf(np.ones((2, 3)), tape)
        h = ad.linear(x, ad.leaf(np.ones((3, 4)), tape), ad.leaf(np.zeros(4), tape), relu=True)
        out = ad.vsum(ad.mul(h, h))
        assert not x.requires_grad and not out.requires_grad
        assert tape._ops == [] and tape.param_uses == []
        assert float(out.data) == 72.0

    def test_backward_raises(self):
        tape = ad.Tape(grad=False)
        out = ad.vsum(ad.mul(ad.leaf(np.ones(3), tape), 2.0))
        with pytest.raises(RuntimeError):
            tape.backward(out)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_mlp_apply_matches_grad_tape(self, dtype):
        spec = nn.MlpSpec((11, 16, 16, 3))
        store = nn.ParamStore()
        rng = np.random.default_rng(8)
        nn.init_mlp(store, "m", spec, rng)
        for name in store.names():
            if ".b" in name:  # nonzero biases, so some pre-activations are negative
                store.params[name][...] = rng.normal(size=store.params[name].shape)
        x = rng.normal(size=(40, 11)).astype(dtype)
        outs = {}
        for grad in (True, False):
            tape = ad.Tape(grad=grad)
            outs[grad] = nn.mlp_apply(spec, store, "m", ad.const(x, tape), dtype=dtype).data
            assert (len(tape._ops), len(tape.param_uses)) == ((3, 6) if grad else (0, 0))
        # starting at layer 1 from the activated output of layer 0
        h1 = x @ store.params["m.w0"].astype(dtype)
        h1 += store.params["m.b0"].astype(dtype)
        np.maximum(h1, 0, out=h1)
        tape = ad.Tape(grad=False)
        from_1 = nn.mlp_apply(spec, store, "m", ad.const(h1, tape), dtype=dtype, start=1).data
        assert outs[True].dtype == outs[False].dtype == from_1.dtype == dtype
        assert np.array_equal(bits(outs[True]), bits(outs[False]))
        assert np.array_equal(bits(outs[True]), bits(from_1))


def grad_of(build, x):
    """Run build(tape, leaf) -> scalar, sweep, return the leaf's grad."""
    tape = ad.Tape()
    xv = ad.leaf(x, tape)
    tape.backward(build(tape, xv))
    return xv.grad


def weighted_sum(y):
    """sum(y * w) for fixed distinct weights w, a scalar to sweep from."""
    w = np.linspace(-1.5, 2.0, y.data.size, dtype=y.data.dtype).reshape(y.data.shape)
    return ad.vsum(ad.mul(y, ad.const(w, y.tape)))


ALIAS_GRAPHS = {
    "concat_rows": lambda t, x: weighted_sum(ad.concat([x, x], axis=0)),
    "concat_columns": lambda t, x: weighted_sum(ad.concat([x, x], axis=1)),
    "stack": lambda t, x: weighted_sum(ad.stack([x, x], axis=1)),
    "reshape_reuse": lambda t, x: weighted_sum(
        ad.add(x, ad.reshape(ad.mul(ad.reshape(x, (12,)), 3.0), (3, 4)))
    ),
    "add_self": lambda t, x: weighted_sum(ad.mul(ad.add(x, x), x)),
}


def wrap_last_record(tape):
    """Have the last record's backward also append the gradient it receives
    (the array itself, not a copy) to the returned list."""
    out, back = tape._ops[-1]
    received = []

    def spy(g, owned):
        received.append(g)
        back(g, owned)

    tape._ops[-1] = (out, spy)
    return received


class TestBorrowedGradients:
    @pytest.mark.parametrize("graph", sorted(ALIAS_GRAPHS))
    def test_matches_copying_tape(self, graph, monkeypatch):
        x = np.random.default_rng(6).normal(size=(3, 4)).astype(np.float32)
        got = grad_of(ALIAS_GRAPHS[graph], x)
        monkeypatch.setattr(ad.Var, "_add_grad", add_grad_copying)
        want = grad_of(ALIAS_GRAPHS[graph], x)
        assert np.array_equal(bits(got), bits(want))

    def test_seed_unchanged(self):
        seed = np.arange(1.0, 13.0).reshape(3, 4)
        before = seed.copy()
        tape = ad.Tape()
        x = ad.leaf(np.ones((3, 4)), tape)
        m = ad.mul(x, 2.0)  # recorded first: x's second contribution comes last
        y = ad.reshape(ad.reshape(x, (12,)), (3, 4))  # x borrows a view of the seed
        out = ad.add(y, m)
        tape.backward(out, seed)
        assert np.array_equal(bits(seed), bits(before))
        assert np.array_equal(x.grad, 3.0 * before)

    def test_shared_first_gradient_not_overwritten(self):
        tape = ad.Tape()
        a = ad.leaf(np.array([1.0, 2.0]), tape)
        b = ad.leaf(np.array([3.0, 4.0]), tape)
        d = ad.mul(a, 3.0)  # recorded first: a's second contribution comes last
        c = ad.add(a, b)  # a and b borrow one gradient array
        received = wrap_last_record(tape)  # the sweep releases c.grad
        out = ad.vsum(ad.mul(ad.add(c, d), np.ones(2)))  # a writeable one
        tape.backward(out)
        assert np.array_equal(a.grad, [4.0, 4.0])
        assert np.array_equal(b.grad, [1.0, 1.0])
        assert np.array_equal(received[0], [1.0, 1.0])
        assert c.grad is None

    def test_sum_over_broadcast_first_gradient_is_c_ordered(self):
        # encode_graph's pattern: vmean hands `stacked` a broadcast view first
        tape = ad.Tape()
        x = ad.leaf(np.random.default_rng(7).normal(size=(2, 5, 3)), tape)
        out = ad.add(ad.vsum(ad.vmax(x, axis=1)), ad.vsum(ad.vmean(x, axis=1)))
        tape.backward(out)
        assert x.grad.flags.c_contiguous
        assert np.allclose(x.grad.sum(axis=1), 2.0)

    def test_second_backward_raises(self):
        tape = ad.Tape()
        x = ad.leaf(np.ones(3), tape)
        out = ad.vsum(ad.mul(x, x))
        tape.backward(out)
        with pytest.raises(RuntimeError):
            tape.backward(out)
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


def owned_consts(dtype):
    """The constant operands of OWNED_GRAPHS, whose leaf x is (4, 6)."""
    rng = np.random.default_rng(14)
    return {
        "w": rng.normal(size=(6, 5)).astype(dtype),
        "w3": rng.normal(size=(3, 5)).astype(dtype),
        "left": rng.normal(size=(2, 4)).astype(dtype),
        "b": np.array([0.5, -0.0, 0.0, -1.0, 2.0], dtype=dtype),
    }


# Graphs whose outputs hand x (4, 6) a gradient array their backward
# allocated (matmul's products, linear's x gradient, take's dense scatter,
# softmax_cross_entropy's, vmax's scatter, or one passed on by reshape),
# before or after a borrowed or owned second contribution. An op recorded
# later is swept earlier; x itself, as an output, borrows a view of the seed.
OWNED_GRAPHS = {
    "matmul_then_copy": lambda x, k: [ad.matmul(x, k["w"]), ad.mul(x, 3.0)],
    "copy_then_matmul": lambda x, k: [ad.mul(x, 3.0), ad.matmul(x, k["w"])],
    "matmul_then_seed_view": lambda x, k: [ad.matmul(x, k["w"]), x],
    "seed_view_then_matmul": lambda x, k: [ad.reshape(x, (24,)), ad.matmul(x, k["w"])],
    "right_operand": lambda x, k: [ad.mul(x, 3.0), ad.matmul(k["left"], x)],
    "both_operands": lambda x, k: [ad.matmul(ad.reshape(x, (6, 4)), x)],
    "linear_twice": lambda x, k: [
        ad.linear(x, ad.const(k["w"], x.tape), ad.const(k["b"], x.tape), relu=True),
        ad.linear(x, ad.const(k["w"], x.tape), ad.const(k["b"], x.tape), relu=False),
    ],
    "softmax_cross_entropy": lambda x, k: [
        ad.mul(x, 3.0), ad.softmax_cross_entropy(x, np.array([0, 5, 2, 5]))
    ],
    "take_repeated": lambda x, k: [ad.mul(x, 3.0), ad.take(x, np.array([2, 0, 2]), axis=0)],
    "take_onto_matmul": lambda x, k: [ad.take(x, np.arange(1, 3), axis=0), ad.matmul(x, k["w"])],
    "vmax_then_copy": lambda x, k: [ad.mul(x, 3.0), ad.vmax(x, axis=1)],
    "vmax_onto_matmul": lambda x, k: [ad.vmax(x, axis=0), ad.matmul(x, k["w"])],
    "reshape_then_copy": lambda x, k: [ad.mul(x, 3.0), ad.matmul(ad.reshape(x, (8, 3)), k["w3"])],
}


def owned_sweep(graph, x, dtype):
    """x's gradient, and whether the seed came out unchanged, after sweeping
    the flattened outputs of graph from a seed with signed zeros."""
    tape = ad.Tape()
    xv = ad.leaf(x, tape)
    out = ad.concat([ad.reshape(o, (-1,)) for o in graph(xv, owned_consts(dtype))], axis=0)
    seed = signed_seed(out.data.shape, dtype, np.random.default_rng(15))
    before = seed.copy()
    tape.backward(out, seed)
    return xv.grad, np.array_equal(bits(seed), bits(before))


class TestOwnedGradients:
    """Gradients a backward allocates go to their Var without a copy and take
    later contributions in place: bit for bit the copying tape's."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("graph", sorted(OWNED_GRAPHS))
    def test_matches_copying_tape(self, graph, dtype, monkeypatch):
        x = np.random.default_rng(16).normal(size=(4, 6)).astype(dtype)
        x[0, :3] = [0.0, -0.0, 0.0]  # a max tie of signed zeros
        got, seed_kept = owned_sweep(OWNED_GRAPHS[graph], x, dtype)
        monkeypatch.setattr(ad.Var, "_add_grad", add_grad_copying)
        want, _ = owned_sweep(OWNED_GRAPHS[graph], x, dtype)
        assert seed_kept
        assert got.dtype == want.dtype
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("owned", [True, False], ids=["owned", "borrowed"])
    def test_relu_mask_in_place_only_on_an_owned_gradient(self, owned, dtype, monkeypatch):
        rng = np.random.default_rng(17)
        # small integers: exact pre-activations, many of them 0 or negative
        x = rng.integers(-3, 4, size=(9, 6)).astype(dtype)
        w = rng.integers(-3, 4, size=(6, 5)).astype(dtype)
        b = np.array([0.0, -0.0, 1.0, -1.0, 0.0], dtype=dtype)
        top_w = rng.normal(size=(5, 4)).astype(dtype)
        seed = np.resize(special_pool(dtype), (9, 4) if owned else (9, 5))

        def run():
            """x's gradient, and (owned, g before, g after) of linear's backward."""
            tape = ad.Tape()
            xv = ad.leaf(x, tape)
            h = ad.linear(xv, ad.const(w, tape), ad.const(b, tape), relu=True)
            out, back = tape._ops[-1]
            met = []

            def spy(g, g_owned):
                before = g.copy()
                back(g, g_owned)
                met.append((g_owned, before, g))

            tape._ops[-1] = (out, spy)
            # a product hands h a gradient h owns; as the output, h borrows the seed
            top = ad.matmul(h, top_w) if owned else h
            with np.errstate(invalid="ignore"):  # inf * 0 in the mask
                tape.backward(top, seed.copy())
            return xv.grad, h.data, met

        got, h_data, [(g_owned, before, after)] = run()
        assert g_owned == owned
        with np.errstate(invalid="ignore"):
            masked = before * (h_data > 0)
        assert np.array_equal(bits(after), bits(masked if owned else before))
        monkeypatch.setattr(ad.Var, "_add_grad", add_grad_copying)
        want, _, [(oracle_owned, _, _)] = run()
        assert not oracle_owned  # the copying tape always takes the copying mask
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kind", ["owned", "borrowed", "broadcast"])
    def test_vmax_adds_into_an_existing_gradient(self, kind, dtype, monkeypatch):
        # 8 scenes x 8 channels, one argmax per channel in every scene:
        # g[b, l] = pool[b] meets prior pool[l] there, so every pair of
        # special values is summed once, also onto a broadcast prior
        pool = special_pool(dtype)
        slab = np.random.default_rng(18).normal(size=(5, 8)).astype(dtype)
        slab[:, 0] = 0.0
        slab[0, 0] = -0.0  # a -0.0 maximum, tied with +0.0 at later points
        slab[:, 1] = -np.abs(slab[:, 1])
        slab[2, 1] = 0.0  # a +0.0 maximum
        slab[3, 2], slab[1, 2] = nan(0x11, 1, dtype), nan(0x22, 0, dtype)  # a NaN maximum
        data = np.broadcast_to(slab, (8, 5, 8)).copy()
        g = np.repeat(pool, 8).reshape(8, 8)
        prior = np.resize(pool[::-1], data.shape)
        if kind == "broadcast":
            prior[...] = prior[0]
        prior[:, np.argmax(slab, axis=0), np.arange(8)] = pool
        with np.errstate(invalid="ignore"):  # inf + -inf
            got, seed_kept, met = grad_onto(lambda a: ad.vmax(a, axis=1), kind, data, prior, g)
            monkeypatch.setattr(ad.Var, "_add_grad", add_grad_copying)
            want, _, _ = grad_onto(lambda a: vmax_argmax(a, axis=1), kind, data, prior, g)
        assert seed_kept and met == [(kind == "owned", kind == "broadcast", True)]
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(bits(got), bits(want))

    def test_reshape_passes_ownership_through(self, monkeypatch):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(3, 5))
        seed = rng.normal(size=(8, 5))

        def run(second):
            tape = ad.Tape()
            xv = ad.leaf(x, tape)
            m = ad.mul(xv, 3.0)  # recorded first: added last, into x's own grad
            top = ad.matmul(ad.reshape(xv, (8, 3)), w)
            tape.backward(ad.add(top, ad.vsum(m)) if second else top, seed)
            return xv

        # the product's gradient reaches x through reshape as x's own
        assert run(second=False)._owns_grad
        got = run(second=True)
        monkeypatch.setattr(ad.Var, "_add_grad", add_grad_copying)
        assert np.array_equal(bits(got.grad), bits(run(second=True).grad))

    def test_reshape_of_a_borrowed_gradient_stays_borrowed(self):
        seed = np.arange(24.0)
        tape = ad.Tape()
        x = ad.leaf(np.ones((4, 6)), tape)
        tape.backward(ad.reshape(x, (24,)), seed)
        assert not x._owns_grad and np.shares_memory(x.grad, seed)


def row_block_case(n, width, dtype):
    """Inputs of row_block_sweep: a (n, k) x, linear's (k, h) w and b, the
    later ops' weights and a seed with signed zeros (`width` = (k, h))."""
    k, h = width
    rng = np.random.default_rng(n + k + h)
    x, w, b = (rng.normal(size=shape).astype(dtype) for shape in ((n, k), (k, h), h))
    top_w, side_w = rng.normal(size=(h, h)).astype(dtype), rng.normal(size=(k, 4)).astype(dtype)
    return x, w, b, top_w, side_w, signed_seed((n, h + 4), dtype, rng)


def row_block_sweep(case, relu, kind):
    """x's gradient and the cuts linear's backward took, for a leaf x that
    already owns a gradient (a later matmul's product) when the backward of
    linear(x) adds into it. Linear's output gets an owned gradient from a
    later matmul ("owned"), or borrows a slice of the seed ("borrowed") or
    a strided column slice of it ("strided")."""
    x, w, b, top_w, side_w, seed = case
    cuts, row_cuts = [], ad.row_cuts

    def spy(*args):
        cuts.append(row_cuts(*args))
        return cuts[-1]

    tape = ad.Tape()
    xv = ad.leaf(x, tape)
    out = ad.linear(xv, ad.const(w, tape), ad.const(b, tape), relu=relu)
    top = ad.matmul(out, top_w) if kind == "owned" else out
    side = ad.matmul(xv, side_w)  # recorded last: x owns its product first
    if kind == "strided":
        total = ad.concat([top, side], axis=1)
    else:
        total = ad.concat([ad.reshape(top, (-1,)), ad.reshape(side, (-1,))], axis=0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ad, "row_cuts", spy)
        tape.backward(total, seed.reshape(total.data.shape))
    return xv.grad, cuts


ROW_WIDTHS = [(3, 128), (64, 64), (128, 3), (128, 1)]  # (x's width, linear's width)
# (linear's output gradient, ReLU); a strided g is masked into a packed one
ROW_GRADS = [("owned", True), ("owned", False), ("borrowed", True), ("borrowed", False), ("strided", False)]


class TestRowBlocks:
    """linear's backward adds its x gradient into an owned one row block at a
    time, bit for bit the one product the copying tape adds."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("width", ROW_WIDTHS, ids=lambda kh: "%d-%d" % kh)
    @pytest.mark.parametrize("n", [2048, 2085, 8193, 9092])
    def test_blocked_sum_is_the_one_product(self, n, width, dtype, monkeypatch):
        case = row_block_case(n, width, dtype)
        for kind, relu in ROW_GRADS:
            got, [cuts] = row_block_sweep(case, relu, kind)
            assert len(cuts) - 1 == n // ad.ROW_BLOCK >= 2
            with monkeypatch.context() as m:
                m.setattr(ad, "ROW_BLOCK", n + 1)  # one block: one product, added in place
                one, [whole] = row_block_sweep(case, relu, kind)
                assert whole == [0, n]
                m.setattr(ad.Var, "_add_grad", add_grad_copying)
                want, _ = row_block_sweep(case, relu, kind)
            assert got.dtype == want.dtype == one.dtype
            assert np.array_equal(bits(got), bits(one)), (kind, relu)
            assert np.array_equal(bits(got), bits(want)), (kind, relu)

    @pytest.mark.parametrize("multiple", [1, 64, 1024])
    def test_row_cuts_on_multiples_no_block_short(self, multiple):
        for n in (0, 1, 63, 64, 65, 127, 128, 1000, 1024, 2047, 2048, 2085, 9092):
            for parts in (0, 1, 2, 3, 8, 10**6):
                cuts = ad.row_cuts(n, multiple, parts)
                assert cuts[0] == 0 and cuts[-1] == n
                assert len(cuts) - 1 == max(1, min(parts, n // multiple))
                assert all(c % multiple == 0 for c in cuts[:-1])
                # only a lone block may be shorter than the multiple
                assert all(hi - lo >= min(n, multiple) for lo, hi in zip(cuts[:-1], cuts[1:]))

    def test_training_bytes_as_with_one_block(self, tmp_path, monkeypatch):
        # one 2048-point scene: the shared features' gradient takes two blocks
        cuts, row_cuts = [], ad.row_cuts

        def spy(*args):
            cuts.append(row_cuts(*args))
            return cuts[-1]

        with monkeypatch.context() as m:
            m.setattr(ad, "row_cuts", spy)
            blocked = train_bytes(tmp_path, "blocked", n_points=2048, epochs=1)
        assert [0, 1024, 2048] in cuts
        monkeypatch.setattr(ad, "ROW_BLOCK", 2049)
        assert train_bytes(tmp_path, "one", n_points=2048, epochs=1) == blocked

    def test_a_short_last_block_changes_the_bits(self, monkeypatch):
        # the rule matters: with a 37-row last block, the product of the
        # short block rounds differently from the same rows of one product
        def short_last(n, multiple, parts):
            return list(range(0, n - 37, multiple)) + [n - 37, n]

        differs = []
        for n in (2085, 9092):
            for dtype in DTYPES:
                case = row_block_case(n, (3, 128), dtype)
                want, _ = row_block_sweep(case, False, "owned")
                with monkeypatch.context() as m:
                    m.setattr(ad, "row_cuts", short_last)
                    got, _ = row_block_sweep(case, False, "owned")
                differs.append(not np.array_equal(bits(got), bits(want)))
        assert any(differs), differs


def linear_pair(tape):
    """Two ReLU layers over a leaf: (leaf, w0, w1, first activation, loss)."""
    rng = np.random.default_rng(11)
    x = ad.leaf(rng.normal(size=(16, 5)), tape)
    w0, w1 = ad.leaf(rng.normal(size=(5, 7)), tape), ad.leaf(rng.normal(size=(7, 3)), tape)
    h = ad.linear(x, w0, ad.const(np.zeros(7), tape), relu=True)
    loss = ad.vsum(ad.linear(h, w1, ad.const(np.zeros(3), tape), relu=True))
    return x, w0, w1, h, loss


class TestSweepLifetimes:
    def test_tape_empty_op_grads_released_leaf_grads_kept(self):
        tape = ad.Tape()
        x, w0, w1, _, loss = linear_pair(tape)
        outs = [out for out, _ in tape._ops]
        tape.backward(loss)
        assert tape._ops == []
        assert len(outs) == 3 and all(out.grad is None for out in outs)
        assert all(v.grad is not None and v.grad.shape == v.data.shape for v in (x, w0, w1))

    def test_forward_array_held_only_by_closures_is_freed(self):
        tape = ad.Tape()
        *_, h, loss = linear_pair(tape)
        ref = weakref.ref(h.data)  # held by h's record and the next layer's closure
        del h
        assert ref() is not None
        tape.backward(loss)
        assert ref() is None


def two_chain_sweep_peak(sweep):
    """tracemalloc peak (bytes) of `sweep(tape, loss)` on two 6-layer
    mlp_apply chains over one (4096, 64) float32 leaf, with the leaf's grad
    and the flushed param grads."""
    spec = nn.MlpSpec((64, 128, 128, 128, 128, 128, 64))
    store = nn.ParamStore()
    rng = np.random.default_rng(12)
    nn.init_mlp(store, "a", spec, rng)
    nn.init_mlp(store, "b", spec, rng)
    tape = ad.Tape()
    x = ad.leaf(rng.normal(size=(4096, 64)).astype(np.float32), tape)
    loss = ad.add(
        ad.vsum(nn.mlp_apply(spec, store, "a", x)), ad.vsum(nn.mlp_apply(spec, store, "b", x))
    )
    tracemalloc.start()
    try:
        sweep(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store.flush_tape_grads(tape)
    return peak, x.grad, store.grads


# The tracemalloc peak of train_step_peak(), at most. Set from a measured
# 10.67-10.93 MB (numpy 2.4.6, Python 3.11) plus 0.1 MB. The peak sits in
# the discriminator's Adam step, while the swept estimator step's tape and
# outputs are still referenced; the estimator's backward peaks at
# 8.42-8.67 MB.
TRAIN_PEAK_BOUND = 11_030_000

# The tracemalloc peak of eight_scene_step_peak(), at most. Set from a
# measured 24.09-24.35 MB (numpy 2.4.6, Python 3.11) plus 0.25 MB; holding
# the encoder's first layer and the seg head's hidden layer to the backward
# instead of rebuilding them exceeds it (30.38-30.64 MB).
EIGHT_SCENE_PEAK_BOUND = 24_600_000


def train_step_peak(tmp_path):
    """tracemalloc peak (bytes) of a one-step train_estimator run: one
    2048-point scene, both priors on."""
    scene = sample_scene(make_instance("laptop", 4), np.random.SeedSequence([4, 1]), n_points=2048, scene_id="s0")
    cfg = E.TrainConfig(epochs=1, batch_size=1, lr=3e-3, lambda_adv=0.1, lambda_diff=1.0, seed=9)
    tracemalloc.start()
    try:
        E.train_estimator([scene], cfg, tmp_path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spy_marks(monkeypatch, strip=False):
    """Patch ad.linear to note each output it marks rebuilt, as (weakref to
    the Var, weakref to its forward array, a copy of that array); with
    `strip`, it marks none."""
    marked = []
    linear = ad.linear

    def spy(x, w, b, relu, shift=None, rebuild=False):
        out = linear(x, w, b, relu, shift=shift, rebuild=rebuild and not strip)
        if out._rebuild is not None:
            marked.append((weakref.ref(out), weakref.ref(out.data), out.data.copy()))
        return out

    monkeypatch.setattr(ad, "linear", spy)
    return marked


def eight_scene_step_peak(tmp_path):
    """tracemalloc peak (bytes) of a one-epoch train_estimator run: one
    batch of eight 1024-point scenes, both priors on."""
    scenes = [
        sample_scene(make_instance("laptop", 4 + i), np.random.SeedSequence([4, i]), n_points=1024, scene_id=f"s{i}")
        for i in range(8)
    ]
    cfg = E.TrainConfig(epochs=1, batch_size=8, lr=3e-3, lambda_adv=0.1, lambda_diff=1.0, seed=9)
    tracemalloc.start()
    try:
        E.train_estimator(scenes, cfg, tmp_path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSweepMemory:
    def test_train_step_peak_within_bound(self, tmp_path):
        peak = train_step_peak(tmp_path)
        assert peak <= TRAIN_PEAK_BOUND, peak

    def test_eight_scene_step_peak_within_bound(self, tmp_path, monkeypatch):
        peak = eight_scene_step_peak(tmp_path / "rebuilt")
        assert peak <= EIGHT_SCENE_PEAK_BOUND, peak
        spy_marks(monkeypatch, strip=True)
        held = eight_scene_step_peak(tmp_path / "held")
        assert held > EIGHT_SCENE_PEAK_BOUND, held

    def test_peak_at_most_half_of_retaining_sweep_same_grads(self):
        peak, x_grad, grads = two_chain_sweep_peak(ad.Tape.backward)
        peak_kept, x_grad_kept, grads_kept = two_chain_sweep_peak(backward_retaining)
        assert peak <= 0.5 * peak_kept, (peak, peak_kept)
        assert np.array_equal(bits(x_grad), bits(x_grad_kept))
        assert grads.keys() == grads_kept.keys()
        for name in grads:
            assert np.array_equal(bits(grads[name]), bits(grads_kept[name])), name


def train_bytes(tmp_path, tag, n_points=512, epochs=3):
    scene = sample_scene(make_instance("laptop", 4), np.random.SeedSequence([4, 1]), n_points=n_points, scene_id="s0")
    cfg = E.TrainConfig(epochs=epochs, batch_size=1, lr=3e-3, lambda_adv=0.1, lambda_diff=1.0, seed=9)
    ckpt = E.train_estimator([scene], cfg, tmp_path / tag)
    return ckpt.read_bytes(), (tmp_path / tag / cfg.loss_log).read_bytes()


class TestWholeTraining:
    def test_bit_identical_to_copying_scattering_three_op_tape(self, tmp_path, monkeypatch):
        paths = set()
        fast_take = ad.take

        def spy(a, indices, axis=0):
            idx = np.asarray(indices)
            if len(np.unique(idx)) < idx.size:
                paths.add("repeated")
            elif (np.diff(idx) == 1).all():
                paths.add("range")
            else:
                paths.add("unique")
            return fast_take(a, indices, axis)

        with monkeypatch.context() as m:
            m.setattr(ad, "take", spy)
            ckpt, log = train_bytes(tmp_path, "fast")
        # the run goes through every take path, and the adversarial term fires
        assert paths == {"repeated", "range", "unique"}
        rows = list(csv.DictReader(log.decode().splitlines()))
        assert all(int(r["adv_scenes"]) > 0 for r in rows)

        monkeypatch.setattr(ad.Var, "_add_grad", add_grad_copying)
        monkeypatch.setattr(ad, "take", take_scatter)
        monkeypatch.setattr(ad, "linear", linear_chain)
        monkeypatch.setattr(ad, "vmax", vmax_argmax)
        monkeypatch.setattr(ad, "cross", np.cross)
        assert train_bytes(tmp_path, "oracle") == (ckpt, log)


def marked_sweep(monkeypatch, strip):
    """Build and sweep a two-scene encoder and heads graph (1024 points
    each); returns (spy_marks's notes, each marked Var's data and forward
    array after the forward, the bits of each rebuilt array, whether each
    marked Var outlived the sweep, the flushed param grads)."""
    est = E.Estimator.create(E.EstimatorSpec(part_count=2), seed=3)
    clouds = np.random.default_rng(13).normal(size=(2, 1024, 3)).astype(np.float32)
    with monkeypatch.context() as m:
        marked = spy_marks(m, strip)
        tape = ad.Tape()
        seg, nocs, rot = est.heads_graph(tape, *est.encode_graph(tape, clouds))
    dropped = [(var().data, array()) for var, array, _ in marked]
    rebuilt = []
    for var, _, _ in marked:

        def spy(rebuild=var()._rebuild):
            out = rebuild()
            rebuilt.append(bits(out).copy())
            return out

        var()._rebuild = spy
    loss = ad.add(ad.add(ad.vsum(seg), ad.vsum(ad.mul(nocs, nocs))), ad.vsum(ad.mul(rot, rot)))
    tape.backward(loss)
    est.store.flush_tape_grads(tape)
    alive = [var() is not None for var, _, _ in marked]
    return marked, dropped, rebuilt, alive, est.store.grads


class TestRebuiltActivations:
    """linear's rebuilt activations: the encoder's first layer and the seg
    head's hidden layer are dropped once their one consumer has run and
    recomputed bit for bit in the backward."""

    def test_dropped_until_the_backward_rebuilt_bit_for_bit(self, monkeypatch):
        marked, dropped, rebuilt, alive, grads = marked_sweep(monkeypatch, strip=False)
        assert [held.shape for _, _, held in marked] == [(2048, E.LOCAL_WIDTHS[1]), (2048, E.HEAD_HIDDEN)]
        # nothing held either forward array once its consumer had run
        assert dropped == [(None, None), (None, None)]
        # each was rebuilt once, into its forward bits, and went with its record;
        # the seg head's, recorded later, is rebuilt first
        assert len(rebuilt) == 2
        assert np.array_equal(rebuilt[0], bits(marked[1][2]))
        assert np.array_equal(rebuilt[1], bits(marked[0][2]))
        assert alive == [False, False]
        # and the sweep's gradients are those of the graph that holds them
        _, _, none, _, held_grads = marked_sweep(monkeypatch, strip=True)
        assert none == []
        assert grads.keys() == held_grads.keys()
        for name in grads:
            assert np.array_equal(bits(grads[name]), bits(held_grads[name])), name

    def test_training_bytes_and_records_as_without_the_marks(self, tmp_path, monkeypatch):
        runs = {}
        for strip in (False, True):
            with monkeypatch.context() as m:
                marked = spy_marks(m, strip)
                _, records = spy_tapes(m)
                runs[strip] = train_bytes(tmp_path, f"strip{strip}"), len(records), len(marked)
        # three one-scene steps, two marks each
        assert runs[False][2] == 6 and runs[True][2] == 0
        assert runs[False][:2] == runs[True][:2]

    def test_no_grad_passes_keep_no_rebuild_state(self, monkeypatch):
        est = E.Estimator.create(E.EstimatorSpec(part_count=2), seed=3)
        cloud = np.random.default_rng(14).normal(size=(512, 3))
        marked = spy_marks(monkeypatch)
        out = est.head_output(cloud)
        assert marked == []
        assert np.isfinite(out.seg_logits).all()
