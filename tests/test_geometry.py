"""Closed-form geometry against independent oracles."""

import numpy as np
import pytest

from artipose import geometry as geo
from artipose.errors import DegenerateRotation, EmptyCloud

from helpers import (
    DegenerateCorrespondences,
    box_contains,
    chamfer,
    contact_map_broadcast,
    fit_translation_scale,
    mc_box_iou,
    similarity_identity,
    similarity_inverse,
    umeyama_full,
)


def random_rotation(rng):
    """Axis-angle oracle: rotations built directly from Rodrigues' formula."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    theta = rng.uniform(0, np.pi)
    K = np.array(
        [
            [0, -axis[2], axis[1]],
            [axis[2], 0, -axis[0]],
            [-axis[1], axis[0], 0],
        ]
    )
    return np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * K @ K


def rot_z(deg):
    c, s = np.cos(np.radians(deg)), np.sin(np.radians(deg))
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


# ---------------------------------------------------------------------------
# rot6d_to_matrix
# ---------------------------------------------------------------------------

class TestRot6d:
    def test_identity(self):
        assert np.allclose(geo.rot6d_to_matrix([1, 0, 0, 0, 1, 0]), np.eye(3))

    def test_scale_invariance(self):
        assert np.allclose(geo.rot6d_to_matrix([2, 0, 0, 0, 3, 0]), np.eye(3))

    def test_recovers_random_rotations(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            M = random_rotation(rng)
            r = geo.matrix_to_rot6d(M)
            assert np.allclose(geo.rot6d_to_matrix(r), M, atol=1e-10)

    def test_orthonormal_det_one_for_random_inputs(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 10_000:
            r = rng.normal(size=6)
            try:
                M = geo.rot6d_to_matrix(r)
            except DegenerateRotation:
                continue
            count += 1
            assert np.allclose(M.T @ M, np.eye(3), atol=1e-6)
            assert abs(np.linalg.det(M) - 1.0) < 1e-6

    def test_degenerate_inputs_raise(self):
        with pytest.raises(DegenerateRotation):
            geo.rot6d_to_matrix([0, 0, 0, 0, 1, 0])
        with pytest.raises(DegenerateRotation):
            geo.rot6d_to_matrix([1, 0, 0, 2, 0, 0])
        with pytest.raises(DegenerateRotation):
            geo.rot6d_to_matrix([1, 0, 0, np.nan, 1, 0])


# ---------------------------------------------------------------------------
# fit_translation_scale / umeyama_full (numpy oracles kept in helpers)
# ---------------------------------------------------------------------------

class TestFitTranslationScale:
    def test_identity_fit(self):
        rng = np.random.default_rng(0)
        n = rng.normal(size=(20, 3))
        s, t = fit_translation_scale(n, n, np.eye(3))
        assert abs(s - 1.0) < 1e-12
        assert np.allclose(t, 0, atol=1e-12)

    def test_exact_scale_offset(self):
        rng = np.random.default_rng(1)
        n = rng.normal(size=(20, 3))
        p = 2.0 * n + np.array([1.0, 0.0, 0.0])
        s, t = fit_translation_scale(n, p, np.eye(3))
        assert abs(s - 2.0) < 1e-12
        assert np.allclose(t, [1, 0, 0], atol=1e-12)

    def test_synthesis_recovery(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = rng.normal(size=(50, 3))
            R = random_rotation(rng)
            s_true = rng.uniform(0.2, 3.0)
            t_true = rng.normal(size=3)
            p = s_true * n @ R.T + t_true
            s, t = fit_translation_scale(n, p, R)
            assert abs(s - s_true) < 1e-9
            assert np.allclose(t, t_true, atol=1e-9)

    def test_degenerate_sources_raise(self):
        pts = np.ones((5, 3))
        with pytest.raises(DegenerateCorrespondences):
            fit_translation_scale(pts, pts, np.eye(3))


class TestUmeyamaFull:
    def test_identity(self):
        rng = np.random.default_rng(3)
        src = rng.normal(size=(10, 3))
        T = umeyama_full(src, src)
        assert np.allclose(T.R, np.eye(3), atol=1e-10)
        assert np.allclose(T.t, 0, atol=1e-10)
        assert abs(T.s - 1) < 1e-10

    def test_quarter_turn(self):
        rng = np.random.default_rng(4)
        src = rng.normal(size=(30, 3))
        R90 = rot_z(90)
        T = umeyama_full(src, src @ R90.T)
        assert np.allclose(T.R, R90, atol=1e-9)

    def test_noisy_monte_carlo_residual(self):
        rng = np.random.default_rng(5)
        sigma = 1e-4
        for _ in range(10):
            src = rng.normal(size=(100, 3))
            R = random_rotation(rng)
            s_true = rng.uniform(0.5, 2.0)
            t_true = rng.normal(size=3)
            dst = s_true * src @ R.T + t_true + rng.normal(0, sigma, size=(100, 3))
            T = umeyama_full(src, dst)
            resid = T.apply(src) - dst
            rms = np.sqrt((resid**2).sum(axis=1).mean())
            assert rms <= 3 * sigma

    def test_collinear_raises(self):
        line = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateCorrespondences):
            umeyama_full(line, line)

    def test_is_oracle_for_fixed_r_variant(self):
        rng = np.random.default_rng(6)
        src = rng.normal(size=(40, 3))
        R = random_rotation(rng)
        dst = 1.3 * src @ R.T + np.array([0.1, -0.4, 0.2])
        T = umeyama_full(src, dst)
        s, t = fit_translation_scale(src, dst, T.R)
        assert abs(s - T.s) < 1e-9
        assert np.allclose(t, T.t, atol=1e-9)


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

class TestBoxes:
    def test_identity_transform(self):
        box = geo.OrientedBox.from_extents([0.5, 0.5, 0.5])
        out = geo.transform_box(box, similarity_identity())
        assert np.allclose(out.vertices, box.vertices)

    def test_doubling_scale(self):
        box = geo.OrientedBox.from_extents([0.5, 0.5, 0.5])
        pose = geo.SimilarityTransform(np.eye(3), np.zeros(3), 2.0)
        out = geo.transform_box(box, pose)
        edges = np.linalg.norm(out.edge_vectors(), axis=1)
        assert np.allclose(edges, 2.0)

    def test_inverse_composition(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            box = geo.OrientedBox.from_extents(rng.uniform(0.05, 0.5, size=3))
            pose = geo.SimilarityTransform(
                random_rotation(rng), rng.normal(size=3), rng.uniform(0.3, 2.5)
            )
            fwd = geo.transform_box(box, pose)
            back = geo.transform_box(fwd, similarity_inverse(pose))
            assert np.allclose(back.vertices, box.vertices, atol=1e-9)

    def test_preserves_edge_ratios(self):
        rng = np.random.default_rng(9)
        box = geo.OrientedBox.from_extents([0.1, 0.2, 0.4])
        pose = geo.SimilarityTransform(
            random_rotation(rng), rng.normal(size=3), 1.7
        )
        out = geo.transform_box(box, pose)
        r_in = np.linalg.norm(box.edge_vectors(), axis=1)
        r_out = np.linalg.norm(out.edge_vectors(), axis=1)
        assert np.allclose(r_out / r_out[0], r_in / r_in[0], atol=1e-9)

    def test_bad_vertices_rejected(self):
        v = geo.OrientedBox.from_extents([1, 1, 1]).vertices.copy()
        v[7] += 0.1
        with pytest.raises(ValueError):
            geo.OrientedBox(v)


class TestSimilarityTransform:
    @pytest.mark.parametrize(
        "t, s, message",
        [
            ([0.0, 0.0, 0.0], 0.0, "scale must be positive and finite, got 0.0"),
            ([0.0, 0.0, 0.0], float("nan"), "scale must be positive and finite, got nan"),
            ([0.0, 0.0, 0.0], float("inf"), "scale must be positive and finite, got inf"),
            ([float("nan"), 0.0, 0.0], 1.0, "translation must be finite"),
            ([0.0, float("-inf"), 0.0], 1.0, "translation must be finite"),
        ],
        ids=["zero-scale", "nan-scale", "inf-scale", "nan-translation", "inf-translation"],
    )
    def test_non_finite_or_non_positive_rejected(self, t, s, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            geo.SimilarityTransform(np.eye(3), t, s)


# ---------------------------------------------------------------------------
# chamfer (a numpy oracle kept in helpers)
# ---------------------------------------------------------------------------

def chamfer_bruteforce(A, B):
    total_ab = 0.0
    for a in A:
        total_ab += min(np.linalg.norm(a - b) for b in B)
    total_ba = 0.0
    for b in B:
        total_ba += min(np.linalg.norm(b - a) for a in A)
    return total_ab / len(A) + total_ba / len(B)


class TestChamfer:
    def test_self_zero(self):
        rng = np.random.default_rng(10)
        A = rng.normal(size=(32, 3))
        assert chamfer(A, A) == 0.0

    def test_two_points(self):
        assert chamfer([[0, 0, 0]], [[1, 0, 0]]) == pytest.approx(2.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            A = rng.normal(size=(64, 3))
            B = rng.normal(size=(64, 3))
            assert abs(chamfer(A, B) - chamfer_bruteforce(A, B)) < 1e-12

    def test_symmetry_nonnegativity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            A = rng.normal(size=(rng.integers(1, 40), 3))
            B = rng.normal(size=(rng.integers(1, 40), 3))
            d1, d2 = chamfer(A, B), chamfer(B, A)
            assert d1 == pytest.approx(d2, abs=1e-12)
            assert d1 >= 0

    def test_empty_raises(self):
        with pytest.raises(EmptyCloud):
            chamfer(np.zeros((0, 3)), np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# rotation_error
# ---------------------------------------------------------------------------

def quat_angle_deg(R1, R2):
    """Quaternion oracle: relative-rotation angle via the scalar part."""
    M = R1.T @ R2
    w = np.sqrt(max(0.0, 1.0 + np.trace(M))) / 2.0
    return np.degrees(2.0 * np.arccos(np.clip(w, -1.0, 1.0)))


class TestRotationError:
    def test_equal_is_zero(self):
        assert geo.rotation_error(np.eye(3), np.eye(3)) == 0.0
        rng = np.random.default_rng(14)
        R = random_rotation(rng)
        # arccos near +1 amplifies float error; 1e-5 deg is numerically zero
        assert geo.rotation_error(R, R) == pytest.approx(0.0, abs=1e-5)

    def test_thirty_degrees(self):
        assert geo.rotation_error(np.eye(3), rot_z(30)) == pytest.approx(30.0, abs=1e-9)

    def test_matches_quaternion_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            R1, R2 = random_rotation(rng), random_rotation(rng)
            assert geo.rotation_error(R1, R2) == pytest.approx(
                quat_angle_deg(R1, R2), abs=1e-6
            )


# ---------------------------------------------------------------------------
# box_iou
# ---------------------------------------------------------------------------

def box_from_edges(origin, edges):
    """Parallelepiped with corner 0 at origin and edge rows (x, y, z)."""
    bits = (geo._CORNER_SIGNS + 1.0) / 2.0
    return geo.OrientedBox(np.asarray(origin, dtype=float) + bits @ np.asarray(edges, dtype=float))


def shifted(box, offset):
    return geo.OrientedBox(box.vertices + np.asarray(offset, dtype=float))


def random_parallelepiped(rng):
    """A rotated, non-unit-scale cuboid or a sheared parallelepiped (either
    handedness) near the origin."""
    if rng.random() < 0.5:
        edges = (random_rotation(rng) * rng.uniform(0.1, 0.5, size=3)).T * rng.uniform(0.5, 3.0)
    else:
        edges = rng.normal(size=(3, 3)) * 0.3
        while abs(np.linalg.det(edges)) < 0.005:
            edges = rng.normal(size=(3, 3)) * 0.3
    return box_from_edges(rng.normal(size=3) * 0.1 - edges.sum(axis=0) / 2, edges)


class TestBoxIoU:
    unit = box_from_edges([0, 0, 0], np.eye(3))

    def test_self_is_one(self):
        rng = np.random.default_rng(16)
        for _ in range(3):
            box = geo.OrientedBox(
                geo.transform_box(
                    geo.OrientedBox.from_extents(rng.uniform(0.1, 0.4, size=3)),
                    geo.SimilarityTransform(random_rotation(rng), rng.normal(size=3), 1.0),
                ).vertices
            )
            assert geo.box_iou(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_is_zero(self):
        a = geo.OrientedBox.from_extents([0.1, 0.1, 0.1])
        pose = geo.SimilarityTransform(np.eye(3), np.array([2.0, 0, 0]), 1.0)
        b = geo.transform_box(a, pose)
        assert geo.box_iou(a, b) == 0.0

    def test_face_touching_is_zero(self):
        for offset in ([1, 0, 0], [0, -1, 0], [1, 1, 0], [1, 1, 1], [0.3, 0.2, 1]):
            assert geo.box_iou(self.unit, shifted(self.unit, offset)) == pytest.approx(0.0, abs=1e-12)

    def test_analytic_half_shift(self):
        # unit cube vs itself shifted 0.5 along x: overlap 0.5, union 1.5
        a = geo.OrientedBox.from_extents([0.5, 0.5, 0.5])
        b = geo.transform_box(
            a, geo.SimilarityTransform(np.eye(3), np.array([0.5, 0, 0]), 1.0)
        )
        assert geo.box_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
        # rotated and scaled, shifted by half of each own edge: the shared
        # face planes agree only up to rounding
        rng = np.random.default_rng(20)
        for k in range(6):
            pose = geo.SimilarityTransform(random_rotation(rng), rng.normal(size=3), rng.uniform(0.5, 2.0))
            a = geo.transform_box(geo.OrientedBox.from_extents(rng.uniform(0.1, 0.4, size=3)), pose)
            b = shifted(a, 0.5 * a.edge_vectors()[k % 3])
            assert geo.box_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
            assert geo.box_iou(b, a) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_corner_overlap(self):
        # overlap 1/8, union 2 - 1/8
        b = shifted(self.unit, [0.5, 0.5, 0.5])
        assert geo.box_iou(self.unit, b) == pytest.approx(1.0 / 15.0, abs=1e-12)

    def test_nested_is_volume_ratio(self):
        rng = np.random.default_rng(17)
        pose = geo.SimilarityTransform(random_rotation(rng), rng.normal(size=3), 1.7)
        outer = geo.transform_box(geo.OrientedBox.from_extents([0.3, 0.2, 0.1]), pose)
        # a rotated box whose circumscribed sphere fits inside the outer box
        inner_pose = pose.compose(
            geo.SimilarityTransform(random_rotation(rng), np.array([0.05, -0.02, 0.01]), 1.0)
        )
        inner = geo.transform_box(geo.OrientedBox.from_extents([0.04, 0.03, 0.02]), inner_pose)
        assert box_contains(outer, inner.vertices).all()
        expected = inner.volume() / outer.volume()
        assert geo.box_iou(outer, inner) == pytest.approx(expected, abs=1e-12)

    def test_sheared_parallelepiped(self):
        # x-y section: parallelogram (0,0) (1,0) (1+s,1) (s,1) against the
        # unit square overlaps 1 - s/2; both volumes are 1
        s = 0.5
        b = box_from_edges([0, 0, 0], [[1, 0, 0], [s, 1, 0], [0, 0, 1]])
        expected = (1 - s / 2) / (1 + s / 2)
        assert geo.box_iou(self.unit, b) == pytest.approx(expected, abs=1e-12)

    def test_negative_determinant(self):
        # the unit cube with its x edge running backwards from x = 1
        mirrored = box_from_edges([1, 0, 0], [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert np.linalg.det(mirrored.edge_vectors()) < 0
        assert geo.box_iou(mirrored, mirrored) == pytest.approx(1.0, abs=1e-12)
        assert geo.box_iou(mirrored, self.unit) == pytest.approx(1.0, abs=1e-12)
        half = shifted(mirrored, [0.5, 0, 0])
        assert geo.box_iou(self.unit, half) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert geo.box_iou(half, self.unit) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            a, b = random_parallelepiped(rng), random_parallelepiped(rng)
            assert geo.box_iou(a, b) == pytest.approx(geo.box_iou(b, a), abs=1e-12)

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(19)
        overlapping = 0
        for k in range(50):
            a, b = random_parallelepiped(rng), random_parallelepiped(rng)
            exact = geo.box_iou(a, b)
            mc, union = mc_box_iou(a, b, samples=20_000, seed=k)
            sigma = np.sqrt(max(mc * (1.0 - mc), 1.0 / union) / union)
            assert abs(exact - mc) <= 4.0 * sigma, (k, exact, mc)
            overlapping += exact > 0.05
        assert overlapping >= 20


# ---------------------------------------------------------------------------
# compute_contact_map
# ---------------------------------------------------------------------------

def contact_bruteforce(obj, hand, tau):
    out = np.zeros(len(obj), dtype=np.uint8)
    for i, o in enumerate(obj):
        for h in hand:
            if np.linalg.norm(o - h) < tau:
                out[i] = 1
                break
    return out


class TestContactMap:
    def test_coincident_point(self):
        obj = np.array([[0, 0, 0], [1, 1, 1]], dtype=float)
        hand = np.array([[0, 0, 0]], dtype=float)
        assert geo.compute_contact_map(obj, hand, 0.01).tolist() == [1, 0]

    @pytest.mark.parametrize("tau", [0.0, -0.01, float("nan"), float("inf")])
    def test_tau_not_positive_and_finite_rejected(self, tau):
        with pytest.raises(ValueError, match=f"^tau must be positive and finite, got {tau}$"):
            geo.compute_contact_map(np.zeros((2, 3)), np.zeros((1, 3)), tau)

    def test_huge_tau_all_ones(self):
        rng = np.random.default_rng(18)
        obj = rng.normal(size=(20, 3))
        hand = rng.normal(size=(5, 3))
        assert geo.compute_contact_map(obj, hand, 1e9).all()

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            obj = rng.normal(size=(50, 3)) * 0.1
            hand = rng.normal(size=(30, 3)) * 0.1
            got = geo.compute_contact_map(obj, hand, 0.05)
            assert (got == contact_bruteforce(obj, hand, 0.05)).all()

    def test_rigid_invariance(self):
        rng = np.random.default_rng(20)
        obj = rng.normal(size=(40, 3)) * 0.1
        hand = rng.normal(size=(25, 3)) * 0.1
        base = geo.compute_contact_map(obj, hand, 0.04)
        for _ in range(10):
            R = random_rotation(rng)
            t = rng.normal(size=3)
            moved = geo.compute_contact_map(obj @ R.T + t, hand @ R.T + t, 0.04)
            assert (moved == base).all()


class TestContactMapColumnwise:
    """The column-wise contact map, which computes distances only inside the
    hand's bounding box widened by about tau, in row blocks, equals the
    (N_obj, S, 3) broadcast oracle bit for bit, including points at tau and
    one ulp either side, points on the faces of the widened box and near
    counts at the edges of the blocks."""

    # rows per block of geometry.sq_dist_blocks against 512 hand points
    B = geo.SQ_DIST_BLOCK // 512

    @staticmethod
    def assert_matches_broadcast(obj, hand, tau):
        got = geo.compute_contact_map(obj, hand, tau)
        assert got.dtype == np.uint8
        assert np.array_equal(got, contact_map_broadcast(obj, hand, tau))
        return got

    def test_random_clouds(self):
        rng = np.random.default_rng(40)
        for n_obj, n_hand, tau in ((700, 512, 0.01), (37, 3, 0.3), (1, 1, 0.05)):
            obj = rng.normal(size=(n_obj, 3)) * 0.1
            hand = rng.normal(size=(n_hand, 3)) * 0.1
            self.assert_matches_broadcast(obj, hand, tau)

    def test_duplicate_points(self):
        rng = np.random.default_rng(41)
        obj = np.repeat(rng.normal(size=(30, 3)) * 0.05, 3, axis=0)
        hand = np.repeat(rng.normal(size=(20, 3)) * 0.05, 4, axis=0)
        got = self.assert_matches_broadcast(obj, hand, 0.03)
        assert (got.reshape(30, 3) == got[::3, None]).all()

    def test_regular_grid_ties(self):
        g = np.arange(6) * 0.01
        grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        for tau in (0.01, 0.015, np.sqrt(2) * 0.01):
            self.assert_matches_broadcast(grid, grid[::7] + 0.005, tau)

    def test_points_at_tau_and_one_ulp_either_side(self):
        tau = 0.01
        below, above = np.nextafter(tau, 0.0), np.nextafter(tau, 1.0)
        on_axis = np.array([[tau, 0, 0], [below, 0, 0], [above, 0, 0]])
        assert self.assert_matches_broadcast(on_axis, np.zeros((1, 3)), tau).tolist() == [0, 1, 0]
        # off-axis, the rounded distances scatter over a few ulps around tau,
        # so both sides of the threshold occur and a changed sum order flips
        # some of them
        hand = np.array([[0.2, -0.1, 0.5]])
        rng = np.random.default_rng(42)
        dirs = rng.normal(size=(1000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for r in (below, tau, above):
            got = self.assert_matches_broadcast(hand + r * dirs, hand, tau)
            assert 0 < got.sum() < len(dirs)

    @staticmethod
    def hand_cloud(rng, n, offset=0.0):
        return rng.normal(size=(n, 3)) * [0.03, 0.05, 0.02] + offset

    def test_points_at_tau_and_one_ulp_beyond_each_extreme(self):
        # points at tau, and one ulp of tau either side, from the hand's
        # extreme point along each axis, in directions that leave the box:
        # the rounded distances scatter around tau, so both flags occur
        rng = np.random.default_rng(43)
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for offset in (0.0, 0.7, -3.0, 1e4):
            hand = self.hand_cloud(rng, 50, offset)
            for tau in (0.01, 0.003):
                for k in range(3):
                    for extreme, sign in ((hand[:, k].argmax(), 1.0), (hand[:, k].argmin(), -1.0)):
                        out = dirs.copy()
                        out[:, k] = sign * np.abs(out[:, k])
                        for r in (np.nextafter(tau, 0.0), tau, np.nextafter(tau, 1.0)):
                            got = self.assert_matches_broadcast(hand[extreme] + r * out, hand, tau)
                            assert 0 < got.sum() < len(out)

    def test_points_on_the_faces_of_the_widened_box(self):
        # points on a face of the box widened by tau * (1 + 1e-9), up to two
        # ulps either side of it, and its corners and one ulp outside them
        rng = np.random.default_rng(44)
        n = 600
        k = np.arange(n) % 3
        for offset in (0.0, 0.5, 200.0):
            hand = self.hand_cloud(rng, 30, offset)
            for tau in (0.01, 0.05):
                pad = tau * (1 + 1e-9)
                lo, hi = hand.min(axis=0) - pad, hand.max(axis=0) + pad
                obj = rng.uniform(lo, hi, size=(n, 3))
                face = np.where(rng.integers(2, size=n) == 1, hi[k], lo[k])
                shift = rng.integers(-2, 3, size=n)
                toward = np.where(shift > 0, np.inf, -np.inf)
                for step in (1, 2):
                    face = np.where(np.abs(shift) >= step, np.nextafter(face, toward), face)
                obj[np.arange(n), k] = face
                corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"), axis=-1).reshape(-1, 3)
                beyond = np.nextafter(corners, np.where(corners == hi, np.inf, -np.inf))
                self.assert_matches_broadcast(np.concatenate([obj, corners, beyond]), hand, tau)

    def test_one_point_hand(self):
        rng = np.random.default_rng(45)
        hand = rng.normal(size=(1, 3))
        dirs = rng.normal(size=(500, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        obj = hand + dirs * rng.uniform(0.0, 0.03, size=(500, 1))
        got = self.assert_matches_broadcast(obj, hand, 0.02)
        assert 0 < got.sum() < len(obj)
        assert self.assert_matches_broadcast(hand, hand, 0.02).tolist() == [1]

    def test_tau_larger_than_the_scene(self):
        rng = np.random.default_rng(46)
        obj = rng.normal(size=(300, 3)) * 0.1
        hand = self.hand_cloud(rng, 40)
        assert self.assert_matches_broadcast(obj, hand, 5.0).all()
        # a tau that reaches some but not all of a spread-out scene
        obj = rng.normal(size=(300, 3)) * 2.0
        got = self.assert_matches_broadcast(obj, hand, 1.5)
        assert 0 < got.sum() < len(obj)

    @staticmethod
    def spy_near_counts(monkeypatch):
        """The row count of every sq_dist_blocks call: the near points."""
        counts = []
        kernel = geo.sq_dist_blocks

        def spy(a, b):
            counts.append(len(a))
            return kernel(a, b)

        monkeypatch.setattr(geo, "sq_dist_blocks", spy)
        return counts

    @pytest.mark.parametrize("near", [0, 1, B - 1, B, B + 1, 3 * B + 5])
    def test_near_counts_at_block_edges(self, near, monkeypatch):
        rng = np.random.default_rng(47)
        hand = self.hand_cloud(rng, 512)
        lo, hi = hand.min(axis=0), hand.max(axis=0)
        far = hi + rng.uniform(1.0, 2.0, size=(40, 3))
        obj = np.concatenate([far[:20], rng.uniform(lo, hi, size=(near, 3)), far[20:]])
        counts = self.spy_near_counts(monkeypatch)
        got = self.assert_matches_broadcast(obj, hand, 0.01)
        assert counts == ([near] if near else [])
        assert not got[:20].any() and not got[-20:].any()
        if near >= self.B:
            assert 0 < got.sum() < near

    def test_points_at_tau_and_one_ulp_either_side_in_the_last_block(self, monkeypatch):
        # 3B + 5 near points; the last block holds the five after 3B, at tau
        # or one ulp either side of it along an axis from the hand point at
        # the origin, so their distances are exact
        tau = 0.01
        below, above = np.nextafter(tau, 0.0), np.nextafter(tau, 1.0)
        rng = np.random.default_rng(48)
        hand = np.concatenate([np.zeros((1, 3)), self.hand_cloud(rng, 511, [0.3, 0.0, 0.0])])
        assert hand[1:, 0].min() > 0.1
        fill = rng.uniform(hand.min(axis=0), hand.max(axis=0), size=(3 * self.B, 3))
        last = np.array([[-below, 0, 0], [-tau, 0, 0], [-above, 0, 0], [0, -above, 0], [0, 0, -below]])
        counts = self.spy_near_counts(monkeypatch)
        got = self.assert_matches_broadcast(np.concatenate([fill, last]), hand, tau)
        assert counts == [3 * self.B + 5]
        assert got[-5:].tolist() == [1, 0, 0, 0, 1]


class TestPointBoxDistance:
    def test_inside_is_zero_outside_matches_axis_aligned(self):
        box = geo.OrientedBox.from_extents([1.0, 2.0, 3.0])
        pts = np.array([[0, 0, 0], [2.0, 0, 0], [1.0, 2.0, 3.0], [-3.0, -4.0, 0.0]])
        d = geo.point_box_distance(pts, box)
        assert d[0] == 0.0
        assert d[1] == pytest.approx(1.0)
        assert d[2] == pytest.approx(0.0)
        assert d[3] == pytest.approx(np.hypot(2.0, 2.0))
