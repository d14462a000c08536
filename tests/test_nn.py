"""Differentiation substrate: MLP forward/backward on a tape, Adam, embeddings, checkpoints."""

import gc
import json
import re
import struct
import warnings
import zipfile

import numpy as np
import pytest

from artipose import autodiff as ad
from artipose import nn
from artipose.errors import ShapeMismatch, StaleTape
from artipose.gradcheck import f64_store, fd_pairs, random_probes
from helpers import rel_err


def make_store(spec, seed=0, prefix="mlp"):
    store = nn.ParamStore()
    nn.init_mlp(store, prefix, spec, np.random.default_rng(seed))
    return store


def forward(spec, store, x, prefix="mlp"):
    """mlp_apply on a fresh tape from a leaf input; returns (out, x, tape)."""
    tape = ad.Tape()
    xin = ad.leaf(np.asarray(x), tape)
    return nn.mlp_apply(spec, store, prefix, xin, dtype=xin.data.dtype), xin, tape


def backward(store, tape, out, out_grad):
    """Reverse sweep from out, then flush the parameter grads into store."""
    tape.backward(out, out_grad)
    store.flush_tape_grads(tape)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

class TestForward:
    def test_zero_net_zero_output(self):
        spec = nn.MlpSpec((4, 8, 2))
        store = make_store(spec)
        for name in store.names():
            store.params[name][...] = 0.0
        y, _, _ = forward(spec, store, np.random.default_rng(0).normal(size=(6, 4)))
        assert (y.data == 0).all()

    def test_identity_linear_layer(self):
        spec = nn.MlpSpec((3, 3))
        store = make_store(spec)
        store.params["mlp.w0"][...] = np.eye(3)
        store.params["mlp.b0"][...] = 0.0
        x = np.random.default_rng(1).normal(size=(5, 3)).astype(np.float32)
        y, _, _ = forward(spec, store, x)
        assert np.allclose(y.data, x)

    def test_matches_recomputation_oracle(self):
        spec = nn.MlpSpec((5, 7, 3))
        store = make_store(spec, seed=2)
        x = np.random.default_rng(3).normal(size=(11, 5))
        y, _, _ = forward(spec, store, x)
        # straightforward loop recomputation
        h = x @ store.params["mlp.w0"].astype(np.float64) + store.params["mlp.b0"]
        h = np.maximum(h, 0)
        expect = h @ store.params["mlp.w1"].astype(np.float64) + store.params["mlp.b1"]
        assert np.allclose(y.data, expect, atol=1e-12)

    def test_width_mismatch_raises(self):
        spec = nn.MlpSpec((4, 2))
        store = make_store(spec)
        with pytest.raises(ShapeMismatch):
            forward(spec, store, np.zeros((3, 5)))

    def test_deterministic(self):
        spec = nn.MlpSpec((4, 9, 2))
        store = make_store(spec, seed=5)
        x = np.random.default_rng(6).normal(size=(8, 4))
        y1, _, _ = forward(spec, store, x)
        y2, _, _ = forward(spec, store, x)
        assert (y1.data == y2.data).all()


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

class TestBackward:
    def test_single_linear_sum_loss(self):
        # loss = sum(x @ W + b): dW = outer-sum structure, db = batch count
        spec = nn.MlpSpec((3, 2))
        store = make_store(spec, seed=7)
        x = np.random.default_rng(8).normal(size=(6, 3))
        y, xin, tape = forward(spec, store, x)
        backward(store, tape, y, np.ones_like(y.data))
        assert np.allclose(store.grads["mlp.w0"], np.tile(x.sum(axis=0)[:, None], (1, 2)))
        assert np.allclose(store.grads["mlp.b0"], 6.0)
        assert np.allclose(xin.grad, np.tile(store.params["mlp.w0"].sum(axis=1), (6, 1)))

    def test_zero_output_grad_zero_param_grads(self):
        spec = nn.MlpSpec((3, 5, 2))
        store = make_store(spec, seed=9)
        y, xin, tape = forward(spec, store, np.random.default_rng(10).normal(size=(4, 3)))
        backward(store, tape, y, np.zeros_like(y.data))
        assert all(np.all(g == 0) for g in store.grads.values())
        assert np.all(xin.grad == 0)

    def test_finite_difference_random_net(self):
        spec = nn.MlpSpec((4, 8, 8, 1))
        store = f64_store(make_store(spec, seed=11))  # probe in float64 for a clean FD signal
        x = np.random.default_rng(12).normal(size=(10, 4))

        def loss(tape):
            y = nn.mlp_apply(spec, store, "mlp", ad.const(x, tape), dtype=np.float64)
            return ad.vsum(ad.mul(y, y))

        probes = random_probes(store, np.random.default_rng(13), 20)
        for analytic, fd in fd_pairs(loss, store, probes, h=1e-4):
            assert rel_err(analytic, fd) < 1e-3

    def test_flush_sets_the_grads(self):
        spec = nn.MlpSpec((3, 2))
        store = make_store(spec, seed=21)
        x = np.random.default_rng(22).normal(size=(2, 3))
        for name in store.names():
            store.grads[name][...] = np.nan  # left over from an earlier step
        y, _, tape = forward(spec, store, x)
        backward(store, tape, y, np.ones_like(y.data))
        first = {k: v.copy() for k, v in store.grads.items()}
        assert all(np.isfinite(g).all() for g in first.values())
        y, _, tape = forward(spec, store, x)
        backward(store, tape, y, np.ones_like(y.data))
        for name in store.names():
            assert store.grads[name].tobytes() == first[name].tobytes()

    def test_stale_tape_rejected(self):
        spec = nn.MlpSpec((3, 2))
        store = make_store(spec, seed=14)
        y, _, tape = forward(spec, store, np.zeros((2, 3)))
        nn.adam_step(store, lr=1e-3)  # bumps version
        with pytest.raises(StaleTape):
            backward(store, tape, y, np.ones_like(y.data))


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

class TestAdam:
    def test_zero_grad_no_motion(self):
        spec = nn.MlpSpec((3, 4))
        store = make_store(spec, seed=15)
        before = {k: v.copy() for k, v in store.params.items()}
        store.zero_grads()
        nn.adam_step(store, lr=1e-2)
        assert store.step == 1
        for k in before:
            assert (store.params[k] == before[k]).all()

    def test_first_step_magnitude(self):
        spec = nn.MlpSpec((2, 2))
        store = make_store(spec, seed=16)
        before = store.params["mlp.w0"].copy()
        store.grads["mlp.w0"][...] = 3.7  # constant gradient
        nn.adam_step(store, lr=1e-3)
        delta = store.params["mlp.w0"] - before
        # bias-corrected first step moves by ~lr * sign(g)
        assert np.allclose(delta, -1e-3, atol=1e-6)

    def test_two_runs_identical(self):
        def run():
            spec = nn.MlpSpec((3, 5, 1))
            store = make_store(spec, seed=17)
            rng = np.random.default_rng(18)
            x = rng.normal(size=(6, 3))
            for _ in range(5):
                store.zero_grads()
                y, _, tape = forward(spec, store, x)
                backward(store, tape, y, 2 * y.data)
                nn.adam_step(store, lr=1e-3)
            return store

        a, b = run(), run()
        for k in a.names():
            assert (a.params[k] == b.params[k]).all()

    def test_toy_regression_loss_decreases(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(32, 2))
        target = np.sin(x[:, :1]) + 0.5 * x[:, 1:]
        spec = nn.MlpSpec((2, 16, 1))
        store = make_store(spec, seed=20)
        losses = []
        for _ in range(10):
            store.zero_grads()
            y, _, tape = forward(spec, store, x)
            resid = y.data - target
            losses.append(float((resid**2).mean()))
            backward(store, tape, y, (2.0 / resid.size) * resid.astype(y.data.dtype))
            nn.adam_step(store, lr=1e-2)
        assert all(b < a for a, b in zip(losses, losses[1:])), losses


class TestStateOnFirstUse:
    def test_loaded_store_holds_no_state_until_a_descend(self, tmp_path):
        spec = nn.MlpSpec((3, 5, 2))
        path = tmp_path / "model.ckpt"
        saved = {"a": make_store(spec, seed=23), "b": make_store(nn.MlpSpec((2, 2)), seed=24)}
        nn.save_checkpoint(path, saved)
        stores, _ = nn.load_checkpoint(path)
        for store in stores.values():
            assert (len(store.grads), len(store._m), len(store._v)) == (0, 0, 0)

        store = stores["a"]
        tape = ad.Tape()
        y = nn.mlp_apply(spec, store, "mlp", ad.const(np.random.default_rng(25).normal(size=(4, 3)), tape))
        nn.descend(tape, ad.vsum(ad.mul(y, y)), [store], lr=1e-3)
        for name, param in store.params.items():
            g, m, v = store.grads[name], store._m[name], store._v[name]
            for state in (g, m, v):
                assert state.dtype == np.float32 and state.shape == param.shape, name
            # zero-started moments after one step
            assert np.array_equal(m, (1.0 - nn.ADAM_BETA1) * g), name
            assert np.array_equal(v, (1.0 - nn.ADAM_BETA2) * g * g), name
        assert len(stores["b"].grads) == 0

    def test_f64_store_state_is_float64(self):
        spec = nn.MlpSpec((3, 4, 1))
        store = f64_store(make_store(spec, seed=26))
        y, _, tape = forward(spec, store, np.random.default_rng(27).normal(size=(5, 3)))
        backward(store, tape, y, np.ones_like(y.data))
        nn.adam_step(store, lr=1e-3)
        for name in store.names():
            for arrays in (store.params, store.grads, store._m, store._v):
                assert arrays[name].dtype == np.float64, name


# ---------------------------------------------------------------------------
# time embedding
# ---------------------------------------------------------------------------

class TestTimeEmbedding:
    def test_t_zero(self):
        emb = nn.time_embedding(0, 100, 8)
        assert np.allclose(emb[:4], 0.0)
        assert np.allclose(emb[4:], 1.0)

    def test_deterministic(self):
        assert (nn.time_embedding(17, 100, 64) == nn.time_embedding(17, 100, 64)).all()

    def test_consecutive_steps_distinct(self):
        T = 100
        embs = np.stack([nn.time_embedding(t, T, 64) for t in range(T + 1)])
        gaps = np.linalg.norm(np.diff(embs, axis=0), axis=1)
        assert (gaps > 1e-4).all()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            nn.time_embedding(-1, 10, 8)
        with pytest.raises(ValueError):
            nn.time_embedding(11, 10, 8)
        with pytest.raises(ValueError):
            nn.time_embedding(5, 10, 7)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        spec = nn.MlpSpec((3, 4, 2))
        a = make_store(spec, seed=21, prefix="enc")
        b = make_store(nn.MlpSpec((2, 2)), seed=22, prefix="disc")
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, {"est": a, "d": b}, meta={"category": "laptop"})
        stores, meta = nn.load_checkpoint(path)
        assert meta == {"category": "laptop"}
        assert set(stores) == {"est", "d"}
        for name in a.names():
            assert (stores["est"].params[name] == a.params[name]).all()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOP!rest")
        with pytest.raises(ValueError):
            nn.load_checkpoint(path)

    def test_is_an_uncompressed_npz_of_f4_arrays_and_a_header(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, {"m": make_store(nn.MlpSpec((3, 2)), seed=25)}, meta={"x": 1})
        assert not (tmp_path / "model.ckpt.npz").exists()
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path, allow_pickle=False) as archive:
            assert archive.files == ["m/mlp.b0", "m/mlp.w0", "header"]
            assert [archive[key].dtype.str for key in archive.files[:2]] == ["<f4", "<f4"]
            assert json.loads(str(archive["header"])) == {"version": 2, "meta": {"x": 1}}

    def test_round_trip_is_bit_for_bit(self, tmp_path):
        # negative zero, a NaN with a payload and two denormals keep their bits
        special = np.array([0x80000000, 0x7FC00123, 0x00000001, 0x007FFFFF], dtype=np.uint32).view(np.float32)
        store = nn.ParamStore()
        store.add("special", special.reshape(2, 2))
        store.add("scalar", np.float32(-0.0))
        path = tmp_path / "special.ckpt"
        nn.save_checkpoint(path, {"g": store})
        stores, meta = nn.load_checkpoint(path)
        assert meta == {}
        for name, value in store.params.items():
            got = stores["g"].params[name]
            assert got.dtype == np.float32 and got.shape == value.shape
            assert np.array_equal(got.view(np.uint32), value.view(np.uint32)), name

    @staticmethod
    def apck_file(path):
        """A checkpoint in the earlier hand-written layout: magic, version 1,
        header length, JSON header, raw float32 payloads."""
        header = json.dumps({"meta": {}, "tensors": [{"name": "m/w", "offset": 0, "shape": [2]}]}).encode()
        path.write_bytes(b"APCK" + struct.pack("<II", 1, len(header)) + header + np.ones(2, "<f4").tobytes())

    @pytest.mark.parametrize("kind", ["apck", "junk", "empty", "truncated", "single_array"])
    def test_other_files_name_themselves(self, tmp_path, kind):
        path = tmp_path / f"{kind}.ckpt"
        if kind == "apck":
            self.apck_file(path)
        elif kind == "junk":
            path.write_bytes(b"NOP!rest")
        elif kind == "empty":
            path.write_bytes(b"")
        elif kind == "truncated":
            nn.save_checkpoint(path, {"m": make_store(nn.MlpSpec((3, 2)), seed=26)}, meta={"x": 1})
            path.write_bytes(path.read_bytes()[:-40])
        else:
            with open(path, "wb") as f:
                np.save(f, np.ones(3, dtype=np.float32))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is not a version-2 checkpoint"):
            nn.load_checkpoint(path)

    def test_truncated_file_is_closed(self, tmp_path):
        path = tmp_path / "truncated.ckpt"
        nn.save_checkpoint(path, {"m": make_store(nn.MlpSpec((3, 2)), seed=26)})
        path.write_bytes(path.read_bytes()[:-40])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="is not a version-2 checkpoint"):
                nn.load_checkpoint(path)
            gc.collect()  # a file left open warns when it is collected
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("header", [{"version": 1, "meta": {}}, {"meta": {}}, {"version": 2}, [2]])
    def test_other_headers_rejected(self, tmp_path, header):
        path = tmp_path / "old.ckpt"
        with open(path, "wb") as f:
            np.savez(f, **{"m/w": np.ones(2, "<f4"), "header": np.array(json.dumps(header))})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is not a version-2 checkpoint"):
            nn.load_checkpoint(path)

    def test_save_is_byte_deterministic(self, tmp_path):
        spec = nn.MlpSpec((3, 3))
        store = make_store(spec, seed=23)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.save_checkpoint(p1, {"m": store}, meta={"x": 1})
        nn.save_checkpoint(p2, {"m": store}, meta={"x": 1})
        assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# engine ops (spot FD checks for the non-MLP ops the pipeline leans on)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "build",
    [
        lambda t, x: ad.vsum(ad.vmax(x, axis=1)),
        lambda t, x: ad.vsum(ad.norm_rows(x)),
        lambda t, x: ad.vsum(ad.take(x, np.array([0, 2, 2, 1]), axis=0)),
        lambda t, x: ad.vsum(ad.mul(ad.repeat_rows(ad.vmean(x, axis=0, keepdims=True), 4), x)),
        lambda t, x: ad.vsum(ad.cross3(x, ad.const(np.arange(12.0).reshape(4, 3) + 1, t))),
        lambda t, x: ad.vsum(ad.concat([ad.sin(x), ad.cos(x)], axis=1)),
        lambda t, x: ad.vsum(ad.div(x, ad.add(ad.sqrt(ad.vsum(ad.mul(x, x))), 0.1))),
        lambda t, x: ad.vsum(ad.stack([ad.exp(ad.vmean(x, axis=0)), ad.vmean(x, axis=0)], axis=0)),
        lambda t, x: ad.vsum(ad.exp(ad.select(x, np.array([True, False, True, True])[:, None]))),
    ],
)
def test_op_gradients_match_fd(build):
    store = f64_store(nn.ParamStore(), x=np.random.default_rng(24).normal(size=(4, 3)))
    pairs = fd_pairs(lambda tape: build(tape, store.use("x", tape)), store, [("x", i) for i in range(12)], h=1e-6)
    for analytic, fd in pairs:
        assert rel_err(analytic, fd, floor=1e-9) < 1e-4 or abs(analytic - fd) < 1e-6


def test_select_keeps_non_finite_rows_out():
    x = np.random.default_rng(26).normal(size=(4, 3))
    x[1] = [np.nan, np.inf, -np.inf]
    keep = np.array([True, False, True, True])[:, None]
    tape = ad.Tape()
    xv = ad.leaf(x, tape)
    out = ad.vsum(ad.select(xv, keep))
    tape.backward(out)
    assert float(out.data) == pytest.approx(x[keep[:, 0]].sum(), abs=1e-12)
    assert np.array_equal(xv.grad, np.broadcast_to(keep, x.shape).astype(np.float64))


def test_softmax_cross_entropy_grad_and_value():
    rng = np.random.default_rng(25)
    z0 = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    store = f64_store(nn.ParamStore(), z=z0)

    def loss(tape):
        return ad.vmean(ad.softmax_cross_entropy(store.use("z", tape), labels))

    # value oracle
    p = np.exp(z0 - z0.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    expect = -np.log(p[np.arange(6), labels]).mean()
    assert float(loss(ad.Tape(grad=False)).data) == pytest.approx(expect, abs=1e-12)
    probes = [("z", idx) for idx in rng.choice(z0.size, size=10, replace=False)]
    for analytic, fd in fd_pairs(loss, store, probes, h=1e-6):
        assert rel_err(analytic, fd, floor=1e-9) < 1e-4
