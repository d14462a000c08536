"""Differentiable geometry vs. the closed-form implementations + FD checks."""

import numpy as np
import pytest

from artipose import autodiff as ad
from artipose import diffgeom as dg
from artipose import geometry as geo
from artipose import gradcheck
from artipose import nn
from artipose.errors import DegenerateRotation
from artipose.gradcheck import f64_store, fd_pairs
from helpers import chamfer, chamfer_assignments_broadcast, fit_translation_scale, rel_err


def rand_rot(rng):
    return geo.rot6d_to_matrix(rng.normal(size=6))


class TestForwardAgreement:
    def test_rot6d(self):
        rng = np.random.default_rng(0)
        r = rng.normal(size=(4, 5, 6))
        tape = ad.Tape()
        out, reasons = dg.rot6d_to_matrix(ad.leaf(r, tape))
        assert out.data.shape == (4, 5, 3, 3) and reasons.shape == (4, 5)
        assert (reasons == "").all()
        for got, row in zip(out.data.reshape(-1, 3, 3), r.reshape(-1, 6)):
            assert np.allclose(got, geo.rot6d_to_matrix(row), atol=1e-12)

    def test_rot6d_reasons_and_finite_stand_ins(self):
        r = np.array([
            [1.0, 0.2, 0.1, -0.3, 1.0, 0.4],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],  # first column zero
            [1.0, 0.0, 0.0, 2.0, 0.0, 0.0],  # parallel columns
            [1e-9, 0.0, 0.0, 1.0, 0.0, 0.0],  # first column below 1e-8
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # second column zero
        ])
        tape = ad.Tape()
        rv = ad.leaf(r, tape)
        R, reasons = dg.rot6d_to_matrix(rv)
        assert reasons.tolist() == [
            "",
            "first column near zero",
            "columns near parallel or second column near zero",
            "first column near zero",
            "columns near parallel or second column near zero",
        ]
        for row, reason in zip(r[1:], reasons[1:]):  # the numpy oracle's messages
            with pytest.raises(DegenerateRotation, match=f"^{reason}$"):
                geo.rot6d_to_matrix(row)
        assert np.isfinite(R.data).all()
        # only the first row feeds the loss: the others get exactly zero gradient
        weights = np.zeros((5, 3, 3))
        weights[0] = 1.0
        tape.backward(ad.vsum(ad.mul(R, ad.const(weights, tape))))
        assert np.isfinite(rv.grad).all() and (rv.grad[1:] == 0).all() and (rv.grad[0] != 0).any()

    def test_fit_translation_scale(self):
        rng = np.random.default_rng(1)
        K, N = 6, 30
        n = rng.normal(size=(K, N, 3))
        Rs = np.stack([rand_rot(rng) for _ in range(K)])
        p = 1.4 * n @ np.swapaxes(Rs, 1, 2) + rng.normal(size=(K, 1, 3))
        members = rng.random((K, N)) < 0.6
        p[~members] = 1e3  # rows outside a part's members must not count
        tape = ad.Tape()
        s, t, reasons = dg.fit_translation_scale(ad.leaf(n, tape), p, ad.const(Rs, tape), members)
        assert (reasons == "").all()
        for k in range(K):
            s_np, t_np = fit_translation_scale(n[k][members[k]], p[k][members[k]], Rs[k])
            assert float(s.data[k]) == pytest.approx(s_np, abs=1e-12)
            assert np.allclose(t.data[k], t_np, atol=1e-12)

    def test_fit_translation_scale_flags_identical_nocs(self):
        rng = np.random.default_rng(9)
        n = rng.normal(size=(3, 10, 3))
        n[1, :4] = n[1, 0]  # part 1's four members share one NOCS
        members = np.zeros((3, 10), dtype=bool)
        members[:, :4] = True
        members[2] = False  # part 2 has no members
        tape = ad.Tape()
        nv = ad.leaf(n, tape)
        Rs = ad.const(np.stack([np.eye(3)] * 3), tape)
        s, t, reasons = dg.fit_translation_scale(nv, rng.normal(size=(3, 10, 3)), Rs, members)
        assert reasons.tolist() == ["", "source points are (nearly) all identical", "source points are (nearly) all identical"]
        tape.backward(ad.add(ad.vsum(ad.take(s, np.array([0]))), ad.vsum(ad.take(t, np.array([0])))))
        assert np.isfinite(s.data).all() and np.isfinite(t.data).all()
        assert np.isfinite(nv.grad).all() and (nv.grad[1:] == 0).all()

    def test_transform_points_matches_box_transform(self):
        rng = np.random.default_rng(2)
        box = geo.OrientedBox.from_extents([0.1, 0.2, 0.3])
        poses = [geo.SimilarityTransform(rand_rot(rng), rng.normal(size=3), s) for s in (1.7, 0.4)]
        tape = ad.Tape()
        out = dg.transform_points(
            np.stack([box.vertices] * 2),
            ad.const(np.stack([pose.R for pose in poses]), tape),
            ad.const(np.stack([pose.t for pose in poses]), tape),
            ad.const(np.array([pose.s for pose in poses]), tape),
        )
        for got, pose in zip(out.data, poses):
            assert np.allclose(got, geo.transform_box(box, pose).vertices, atol=1e-12)

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
        store = f64_store(nn.ParamStore(), r=rng.normal(size=6))
        W = rng.normal(size=(3, 3))

        def loss(tape):
            return ad.vsum(ad.mul(dg.rot6d_to_matrix(store.use("r", tape))[0], ad.const(W, tape)))

        for analytic, fd in fd_pairs(loss, store, [("r", i) for i in range(6)], h=1e-6):
            assert rel_err(analytic, fd) < 1e-4

    def test_umeyama_st_fd(self):
        rng = np.random.default_rng(5)
        n0 = rng.normal(size=(2, 12, 3))
        R = np.stack([rand_rot(rng), rand_rot(rng)])
        p = 1.2 * n0 @ np.swapaxes(R, 1, 2) + rng.normal(size=(2, 1, 3))
        members = rng.random((2, 12)) < 0.7
        store = f64_store(nn.ParamStore(), n=n0)

        def loss(tape):
            s, t, _ = dg.fit_translation_scale(store.use("n", tape), p, ad.const(R, tape), members)
            return ad.add(ad.vsum(ad.mul(s, np.array([2.0, -1.0]))), ad.vsum(ad.mul(t, t)))

        probes = [("n", idx) for idx in rng.choice(n0.size, 12, replace=False)]
        for analytic, fd in fd_pairs(loss, store, probes, h=1e-6):
            assert rel_err(analytic, fd) < 1e-4

    def test_chamfer_fd(self):
        rng = np.random.default_rng(6)
        store = f64_store(nn.ParamStore(), A=rng.normal(size=(10, 3)))
        B = rng.normal(size=(14, 3))

        def loss(tape):
            return dg.chamfer_fixed(store.use("A", tape), ad.const(B, tape))

        probes = [("A", idx) for idx in rng.choice(30, 10, replace=False)]
        for analytic, fd in fd_pairs(loss, store, probes, h=1e-7):
            assert rel_err(analytic, fd, floor=1e-7) < 1e-3

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


class TestChamferAssignments:
    """The row-blocked chamfer_assignments equals the broadcast `argmin`
    oracle bit for bit: at counts across the block edges, on ties between
    duplicated points in different blocks, and on NaN rows."""

    # rows per block of geometry.sq_dist_blocks against 512 points
    B = geo.SQ_DIST_BLOCK // 512

    @staticmethod
    def assert_matches_oracle(a, b):
        got = dg.chamfer_assignments(a, b)
        for g, w in zip(got, chamfer_assignments_broadcast(a, b)):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
        return got

    @pytest.mark.parametrize("count", [1, B - 1, B, B + 1, 700])
    def test_counts_at_block_edges(self, count):
        rng = np.random.default_rng(count)
        surface = rng.normal(size=(512, 3)) * 0.05
        points = rng.normal(size=(count, 3)) * 0.05
        # count rows in blocks of B, and the hand-opt order: 512 surface
        # rows against count contacts
        self.assert_matches_oracle(points, surface)
        self.assert_matches_oracle(surface, points)

    def test_first_occurrence_wins_across_block_edges(self):
        rng = np.random.default_rng(49)
        # three copies of B - 1 points: copy k of row i sits at
        # i + k (B - 1), so most duplicate pairs straddle a block edge;
        # rounding makes distinct points tie too
        base = np.round(rng.normal(size=(self.B - 1, 3)), 1)
        a = np.tile(base, (3, 1))
        b = np.repeat(np.round(rng.normal(size=(256, 3)), 1), 2, axis=0)
        idx_ab, idx_ba = self.assert_matches_oracle(a, b)
        assert (idx_ba < self.B - 1).all()
        assert (idx_ab % 2 == 0).all()
        self.assert_matches_oracle(b, a)

    @pytest.mark.parametrize("nan_rows", [[0], [B + 3], [B + 3, 2 * B + 1]])
    def test_nan_rows_resolve_to_the_first(self, nan_rows):
        rng = np.random.default_rng(50)
        a = rng.normal(size=(3 * self.B + 5, 3))
        b = rng.normal(size=(512, 3))
        a[nan_rows] = np.nan
        idx_ab, idx_ba = self.assert_matches_oracle(a, b)
        assert (idx_ba == nan_rows[0]).all()
        assert (idx_ab[nan_rows] == 0).all()
        # the NaN rows as columns
        idx_ab, idx_ba = self.assert_matches_oracle(b, a)
        assert (idx_ab == nan_rows[0]).all()

    def test_overflowing_distances_keep_row_zero(self):
        # squares that overflow to +inf: half of b is far from every row of
        # a, so those columns are +inf throughout; the other half is
        # finitely near one row in the second block only
        a = np.full((3 * self.B + 5, 3), 1e200)
        a[self.B + 3] = 0.0
        b = np.concatenate([np.full((256, 3), -1e200), np.random.default_rng(51).normal(size=(256, 3))])
        with np.errstate(over="ignore"):
            idx_ab, idx_ba = self.assert_matches_oracle(a, b)
        assert (idx_ba[:256] == 0).all() and (idx_ba[256:] == self.B + 3).all()

    def test_empty_set_raises(self):
        with pytest.raises(ValueError):
            dg.chamfer_assignments(np.zeros((0, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            dg.chamfer_assignments(np.zeros((4, 3)), np.zeros((0, 3)))

    def test_gradcheck_hand_suite_freezes_the_oracle_assignments(self, monkeypatch):
        matched = []
        assignments = dg.chamfer_assignments

        def spy(a, b):
            got = assignments(a, b)
            matched.append(all(map(np.array_equal, got, chamfer_assignments_broadcast(a, b))))
            return got

        monkeypatch.setattr(dg, "chamfer_assignments", spy)
        assert gradcheck.check_hand_chamfer().passed
        assert matched == [True]
