"""Differentiable geometry vs. the closed-form implementations + FD checks."""

import numpy as np
import pytest

from artipose import autodiff as ad
from artipose import diffgeom as dg
from artipose import geometry as geo
from helpers import chamfer, fit_translation_scale, rel_err


def rand_rot(rng):
    return geo.rot6d_to_matrix(rng.normal(size=6))


class TestForwardAgreement:
    def test_rot6d(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = rng.normal(size=6)
            tape = ad.Tape()
            out = dg.rot6d_to_matrix(ad.leaf(r, tape))
            assert np.allclose(out.data, geo.rot6d_to_matrix(r), atol=1e-12)

    def test_fit_translation_scale(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = rng.normal(size=(30, 3))
            R = rand_rot(rng)
            p = 1.4 * n @ R.T + rng.normal(size=3)
            tape = ad.Tape()
            s, t = dg.fit_translation_scale(
                ad.leaf(n, tape), ad.const(p, tape), ad.const(R, tape)
            )
            s_np, t_np = fit_translation_scale(n, p, R)
            assert float(s.data) == pytest.approx(s_np, abs=1e-12)
            assert np.allclose(t.data, t_np, atol=1e-12)

    def test_transform_points_matches_box_transform(self):
        rng = np.random.default_rng(2)
        box = geo.OrientedBox.from_extents([0.1, 0.2, 0.3])
        pose = geo.SimilarityTransform(rand_rot(rng), rng.normal(size=3), 1.7)
        tape = ad.Tape()
        out = dg.transform_points(
            ad.const(box.vertices, tape),
            ad.const(pose.R, tape),
            ad.const(pose.t, tape),
            ad.const(np.float64(pose.s), tape),
        )
        assert np.allclose(out.data, geo.transform_box(box, pose).vertices, atol=1e-12)

    def test_chamfer_fixed(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(20, 3))
        B = rng.normal(size=(25, 3))
        tape = ad.Tape()
        out = dg.chamfer_fixed(ad.leaf(A, tape), ad.const(B, tape))
        assert float(out.data) == pytest.approx(chamfer(A, B), abs=1e-12)


class TestGradients:
    def test_rot6d_fd(self):
        rng = np.random.default_rng(4)
        r0 = rng.normal(size=6)
        W = rng.normal(size=(3, 3))

        def val(r):
            tape = ad.Tape()
            rv = ad.leaf(r, tape)
            M = dg.rot6d_to_matrix(rv)
            loss = ad.vsum(ad.mul(M, ad.const(W, tape)))
            return loss, rv, tape

        loss, rv, tape = val(r0)
        tape.backward(loss)
        h = 1e-6
        for i in range(6):
            rp, rm = r0.copy(), r0.copy()
            rp[i] += h
            rm[i] -= h
            fd = (float(val(rp)[0].data) - float(val(rm)[0].data)) / (2 * h)
            assert rel_err(float(rv.grad[i]), fd) < 1e-4

    def test_umeyama_st_fd(self):
        rng = np.random.default_rng(5)
        n0 = rng.normal(size=(12, 3))
        R = rand_rot(rng)
        p = 1.2 * n0 @ R.T + rng.normal(size=3)

        def val(n):
            tape = ad.Tape()
            nv = ad.leaf(n, tape)
            s, t = dg.fit_translation_scale(nv, ad.const(p, tape), ad.const(R, tape))
            loss = ad.add(ad.mul(s, 2.0), ad.vsum(ad.mul(t, t)))
            return loss, nv, tape

        loss, nv, tape = val(n0)
        tape.backward(loss)
        h = 1e-6
        for idx in rng.choice(n0.size, 12, replace=False):
            np_, nm = n0.copy(), n0.copy()
            np_.flat[idx] += h
            nm.flat[idx] -= h
            fd = (float(val(np_)[0].data) - float(val(nm)[0].data)) / (2 * h)
            assert rel_err(float(nv.grad.flat[idx]), fd) < 1e-4

    def test_chamfer_fd(self):
        rng = np.random.default_rng(6)
        A0 = rng.normal(size=(10, 3))
        B = rng.normal(size=(14, 3))

        def val(A, fixed_from=None):
            tape = ad.Tape()
            Av = ad.leaf(A, tape)
            out = dg.chamfer_fixed(Av, ad.const(B, tape))
            return out, Av, tape

        out, Av, tape = val(A0)
        tape.backward(out)
        h = 1e-7
        for idx in rng.choice(A0.size, 10, replace=False):
            Ap, Am = A0.copy(), A0.copy()
            Ap.flat[idx] += h
            Am.flat[idx] -= h
            fd = (float(val(Ap)[0].data) - float(val(Am)[0].data)) / (2 * h)
            assert rel_err(float(Av.grad.flat[idx]), fd, floor=1e-7) < 1e-3

    def test_layout_normalization_of_a_stack_matches_each_layout(self):
        rng = np.random.default_rng(8)
        stack = rng.normal(size=(4, 3, 8, 3)) * rng.uniform(0.5, 2.0, size=(4, 1, 1, 1))
        tape = ad.Tape(grad=False)
        got = dg.normalize_layout(ad.const(stack, tape)).data
        for g, boxes in zip(got, stack):
            assert np.allclose(g, dg.normalize_layout(ad.const(boxes, tape)).data, rtol=1e-12, atol=0)

    def test_layout_normalization_invariance_and_grad(self):
        rng = np.random.default_rng(7)
        boxes = rng.normal(size=(3, 8, 3))
        tape = ad.Tape()
        base = dg.normalize_layout(ad.const(boxes, tape)).data
        # translation + uniform scale of the whole layout cancel exactly
        moved = 2.5 * boxes + np.array([0.3, -1.0, 0.7])
        tape2 = ad.Tape()
        out = dg.normalize_layout(ad.const(moved, tape2)).data
        assert np.allclose(out, base, atol=1e-12)
