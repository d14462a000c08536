"""Procedural dataset: instances, grasps, rendering, scene annotations, I/O."""

import contextlib
import copy
import hashlib
import json
import multiprocessing
import os
import pickle
import re
import shutil
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest

from artipose import autodiff as ad
from artipose import geometry as geo
from artipose import parallel
from artipose.errors import EmptyView, FewContacts, GraspFailure
from artipose.synth import hand as hand_mod
from artipose.synth import io as synth_io
from artipose.synth import render as render_mod
from artipose.synth import scene as scene_mod
from artipose.synth import (
    Camera,
    KinematicHand,
    generate_dataset,
    load_dataset,
    make_instance,
    part_poses_object,
    pose_hand_grasp,
    render_partial_cloud,
    sample_scene,
)
from artipose.synth.hand import capsules_world
from artipose.synth.render import (
    cone_rows,
    furthest_point_sample,
    ray_box_hits,
    ray_capsule_hits,
    sample_camera,
)
from helpers import (
    bits,
    box_surface_points,
    fk_vars_per_finger,
    fps_rowwise,
    generate_dataset_serial,
    render_every_ray,
)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

class TestMakeInstance:
    def test_laptop_template(self):
        inst = make_instance("laptop", 3)
        assert len(inst.parts) == 2
        assert len(inst.joints) == 1
        assert inst.joints[0].kind == "revolute"
        lo, hi = inst.joints[0].limits
        assert lo == 0.0 and hi == pytest.approx(np.radians(135))

    def test_three_drawer_template(self):
        inst = make_instance("drawer", 5)
        assert len(inst.parts) == 4
        assert all(j.kind == "prismatic" for j in inst.joints)
        axes = np.stack([j.axis for j in inst.joints])
        assert np.allclose(axes, axes[0])  # parallel slide axes

    def test_deterministic(self):
        for cat in ("laptop", "drawer", "safe", "microwave", "trashcan"):
            a = make_instance(cat, 42)
            b = make_instance(cat, 42)
            for pa, pb in zip(a.parts, b.parts):
                assert (pa.half_extents == pb.half_extents).all()
                assert (pa.rest_position == pb.rest_position).all()
            assert make_instance(cat, 43).parts[0].half_extents.tolist() != a.parts[
                0
            ].half_extents.tolist()

    def test_jitter_within_quarter(self):
        base = None
        for seed in range(30):
            inst = make_instance("laptop", seed)
            h = inst.parts[0].half_extents
            ref = np.array([0.16, 0.11, 0.012])
            assert (h >= 0.75 * ref - 1e-12).all()
            assert (h <= 1.25 * ref + 1e-12).all()

    def test_unknown_category(self):
        with pytest.raises(ValueError):
            make_instance("toaster", 0)

    def test_drawer_boxes_parallel_edges(self):
        # the structural regularity the articulation prior must learn
        inst = make_instance("drawer", 11)
        rng = np.random.default_rng(0)
        limits = inst.joint_limits()
        q = rng.uniform(limits[:, 0], limits[:, 1])
        poses = part_poses_object(inst, q)
        boxes = [
            geo.transform_box(geo.OrientedBox.from_extents(p.half_extents), pp)
            for p, pp in zip(inst.parts, poses)
        ]
        sliders = boxes[1:]
        for a in sliders:
            for b in sliders:
                ea = a.edge_vectors()
                eb = b.edge_vectors()
                for k in range(3):
                    ua = ea[k] / np.linalg.norm(ea[k])
                    ub = eb[k] / np.linalg.norm(eb[k])
                    assert ua @ ub > 1 - 1e-9


# ---------------------------------------------------------------------------
# hand FK
# ---------------------------------------------------------------------------

class TestHand:
    def test_joint_and_surface_counts(self):
        hand = KinematicHand(np.eye(3), np.zeros(3), np.zeros(15))
        assert hand.joints().shape == (21, 3)
        assert hand.surface().shape == (hand_mod.SURFACE_SAMPLES, 3) == (512, 3)

    def test_surface_count_follows_template(self):
        # the template of a size is its fk_tables
        tape = ad.Tape(grad=False)
        joints, surface = hand_mod.fk_vars(hand_mod.fk_tables(200), ad.const(np.full(15, 0.3), tape))
        assert joints.data.shape == (21, 3) and surface.data.shape == (200, 3)

    def test_one_read_only_template_per_size(self):
        tables = hand_mod.fk_tables(hand_mod.SURFACE_SAMPLES)
        assert tables is hand_mod.fk_tables(512) and hand_mod.fk_tables(128) is not tables
        for arr in tables:
            assert not arr.flags.writeable

    def test_angle_limits_enforced(self):
        with pytest.raises(ValueError):
            KinematicHand(np.eye(3), np.zeros(3), np.full(15, 2.0))

    @pytest.mark.parametrize(
        "position, angle, message",
        [
            ([0.0, 0.0, 0.0], float("nan"), "joint angles outside"),
            ([float("nan"), 0.0, 0.0], 0.5, "root position must be finite"),
            ([0.0, float("inf"), 0.0], 0.5, "root position must be finite"),
        ],
        ids=["nan-angle", "nan-root", "inf-root"],
    )
    def test_nan_angle_or_non_finite_root_rejected(self, position, angle, message):
        angles = np.full(15, 0.5)
        angles[4] = angle
        with pytest.raises(ValueError, match=f"^{message}"):
            KinematicHand(np.eye(3), position, angles)

    def test_params_round_trip(self):
        rng = np.random.default_rng(4)
        hand = KinematicHand(np.eye(3), rng.normal(size=3), rng.uniform(0, 1.2, 15))
        params = hand.params()
        clone = KinematicHand(params[:9].reshape(3, 3), params[9:12], params[12:])
        assert np.allclose(clone.joints(), hand.joints())
        assert np.allclose(clone.surface(), hand.surface())

    def test_flexion_curls_toward_palm_normal(self):
        flat = KinematicHand(np.eye(3), np.zeros(3), np.zeros(15))
        bent = KinematicHand(np.eye(3), np.zeros(3), np.full(15, 0.8))
        # palm normal is +z in the root frame: tips must move to z > 0
        assert (bent.joints()[4::4, 2] > flat.joints()[4::4, 2] + 0.01).all()

    def test_root_transform_equivariance(self):
        rng = np.random.default_rng(5)
        angles = rng.uniform(0, 1.0, 15)
        base = KinematicHand(np.eye(3), np.zeros(3), angles)
        pose = geo.SimilarityTransform(
            geo.rot6d_to_matrix(rng.normal(size=6)), rng.normal(size=3), 1.0
        )
        moved = base.rerooted(pose)
        assert np.allclose(moved.joints(), pose.apply(base.joints()), atol=1e-12)


class TestHandFkCache:
    @pytest.fixture
    def fk_calls(self, monkeypatch):
        calls = []
        fk = hand_mod.fk_vars

        def counting(*args):
            calls.append(1)
            return fk(*args)

        monkeypatch.setattr(hand_mod, "fk_vars", counting)
        return calls

    @staticmethod
    def hand():
        R = geo.rot6d_to_matrix(np.array([1.0, 0.2, 0.1, -0.3, 1.0, 0.4]))
        return KinematicHand(R, [0.1, -0.2, 0.6], np.full(15, 0.5))

    def test_one_fk_per_hand(self, fk_calls):
        hand = self.hand()
        joints, surface = hand.joints(), hand.surface()
        assert len(capsules_world(hand)) == len(hand_mod.BONES)
        assert hand.joints() is joints and hand.surface() is surface
        assert len(fk_calls) == 1

    def test_rerooted_and_replace_match_fresh_hands(self, fk_calls):
        base = self.hand()
        base.joints()
        R = geo.rot6d_to_matrix(np.array([0.3, 1.0, 0.0, 1.0, 0.0, 0.5]))
        pose = geo.SimilarityTransform(R, [0.0, 0.3, -0.1], 1.0)
        for derived in (base.rerooted(pose), replace(base, joint_angles=np.full(15, 1.1))):
            fresh = KinematicHand(
                derived.root_rotation.copy(), derived.root_position.copy(), derived.joint_angles.copy()
            )
            assert np.array_equal(derived.joints(), fresh.joints())
            assert np.array_equal(derived.surface(), fresh.surface())
            assert not np.array_equal(derived.joints(), base.joints())
        # every hand runs its own FK: base, the rerooted and the replaced
        # hand, and the two fresh hands
        assert len(fk_calls) == 5

    def test_cached_fk_matches_one_tape_fk(self):
        rng = np.random.default_rng(8)
        tables = hand_mod.fk_tables(hand_mod.SURFACE_SAMPLES)
        for _ in range(50):
            hand = KinematicHand(
                geo.rot6d_to_matrix(rng.normal(size=6)), rng.normal(size=3), rng.uniform(0, 1.5, 15)
            )
            pose = geo.SimilarityTransform(geo.rot6d_to_matrix(rng.normal(size=6)), rng.normal(size=3), 1.0)
            for h in (hand, hand.rerooted(pose)):
                tape = ad.Tape()
                joints, surface = hand_mod.root_frame_vars(
                    ad.leaf(h.root_rotation, tape),
                    ad.leaf(h.root_position, tape),
                    *hand_mod.fk_vars(tables, ad.leaf(h.joint_angles, tape)),
                )
                assert np.array_equal(bits(h.joints()), bits(joints.data))
                assert np.array_equal(bits(h.surface()), bits(surface.data))

    def test_template_arrays_read_only(self):
        # the skeleton is module constants
        for arr in (
            hand_mod.MCP_OFFSETS,
            hand_mod.FINGER_DIRS,
            hand_mod.BONE_LENGTHS,
            hand_mod.FINGER_RADII,
            hand_mod.REST_JOINTS,
        ):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert isinstance(hand_mod.BONES, tuple) and len(hand_mod.BONES) == 20

    def test_cached_and_parameter_arrays_read_only(self):
        hand = self.hand()
        for arr in (hand.joints(), hand.surface(), hand.root_rotation, hand.root_position, hand.joint_angles):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_caller_arrays_copied(self):
        angles = np.full(15, 0.5)
        hand = KinematicHand(np.eye(3), np.zeros(3), angles)
        angles[:] = 1.0
        assert (hand.joint_angles == 0.5).all()


class TestBatchedFk:
    """fk_vars against the per-finger, per-capsule FK it replaced
    (helpers.fk_vars_per_finger): the same bits, the same gradients, and a
    fixed, small op count."""

    SIZES = (128, 200, 512)

    @staticmethod
    def angle_sets(rng, n):
        sets = [np.zeros(15), np.full(15, np.pi / 2)]
        while len(sets) < n:
            a = rng.uniform(0, np.pi / 2, 15)
            pick = rng.random(15)
            if len(sets) % 2:  # exact limits mixed in
                a[pick < 0.25] = 0.0
                a[pick > 0.75] = np.pi / 2
            sets.append(a)
        return sets

    @pytest.mark.parametrize("size", SIZES)
    def test_joints_and_surface_bit_for_bit(self, size):
        tables = hand_mod.fk_tables(size)
        for angles in self.angle_sets(np.random.default_rng(size), 300):
            tape = ad.Tape(grad=False)
            joints, surface = hand_mod.fk_vars(tables, ad.const(angles, tape))
            want_joints, want_surface = fk_vars_per_finger(size, ad.const(angles, tape))
            assert np.array_equal(bits(joints.data), bits(want_joints.data))
            assert np.array_equal(bits(surface.data), bits(want_surface.data))

    @pytest.mark.parametrize("size", SIZES)
    def test_angle_gradients_match(self, size):
        rng = np.random.default_rng(size + 1)
        for angles in self.angle_sets(rng, 20):
            g_joints, g_surface = rng.normal(size=(21, 3)), rng.normal(size=(size, 3))
            grads = []
            for fk, first in ((hand_mod.fk_vars, hand_mod.fk_tables(size)), (fk_vars_per_finger, size)):
                tape = ad.Tape()
                leaf = ad.leaf(angles, tape)
                joints, surface = fk(first, leaf)
                tape.backward(ad.add(ad.vsum(ad.mul(joints, g_joints)), ad.vsum(ad.mul(surface, g_surface))))
                grads.append(leaf.grad)
            assert np.max(np.abs(grads[0] - grads[1])) <= 1e-12 * np.max(np.abs(grads[1]))

    def test_few_records_whatever_the_size(self):
        counts = set()
        for size in self.SIZES:
            tape = ad.Tape()
            hand_mod.fk_vars(hand_mod.fk_tables(size), ad.leaf(np.full(15, 0.4), tape))
            counts.add(len(tape._ops))
        assert len(counts) == 1 and counts.pop() <= 60


# ---------------------------------------------------------------------------
# grasping
# ---------------------------------------------------------------------------

class TestGrasp:
    def test_laptop_contact_count(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            inst = make_instance("laptop", seed)
            q = [np.radians(80.0)]
            hand = pose_hand_grasp(inst, q, seed)
            boxes = [
                geo.transform_box(geo.OrientedBox.from_extents(p.half_extents), pp)
                for p, pp in zip(inst.parts, part_poses_object(inst, q))
            ]
            dense = np.vstack([box_surface_points(b, 6000, rng) for b in boxes])
            contact = geo.compute_contact_map(dense, hand.surface(), 0.01)
            assert int(contact.sum()) >= 20

    def test_seeds_differ_but_each_is_deterministic(self):
        inst = make_instance("laptop", 1)
        q = [np.radians(60.0)]
        h1 = pose_hand_grasp(inst, q, 100)
        h2 = pose_hand_grasp(inst, q, 101)
        h1b = pose_hand_grasp(inst, q, 100)
        assert not np.allclose(h1.root_position, h2.root_position)
        assert (h1.params() == h1b.params()).all()

    def test_drawer_contacts_near_front_face(self):
        # every drawer opened as far, so the drawers' front faces share a plane
        inst = make_instance("drawer", 7)
        q = [0.2] * 3
        hand = pose_hand_grasp(inst, q, 3)
        pose = part_poses_object(inst, q)[1]
        part = inst.parts[1]
        rng = np.random.default_rng(1)
        boxes = [
            geo.transform_box(geo.OrientedBox.from_extents(p.half_extents), pp)
            for p, pp in zip(inst.parts, part_poses_object(inst, q))
        ]
        dense = np.vstack([box_surface_points(b, 6000, rng) for b in boxes])
        contact = geo.compute_contact_map(dense, hand.surface(), 0.01).astype(bool)
        assert contact.sum() >= 20
        # distance to the drawer front face plane (normal +y of the part)
        front_center = pose.apply([0.0, part.half_extents[1], 0.0])
        normal = pose.R @ np.array([0.0, 1.0, 0.0])
        dist = np.abs((dense[contact] - front_center) @ normal)
        assert (dist < 0.05).mean() >= 0.8


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def overhead_camera(height=1.0, focal=200.0):
    # looking straight down -z from above with a slight offset to avoid the
    # degenerate up-direction case
    pos = np.array([1e-3, 1e-3, height])
    fwd = -pos / np.linalg.norm(pos)
    up = np.array([0.0, 0.0, 1.0])
    x = np.cross(fwd, up)
    x /= np.linalg.norm(x)
    y = np.cross(fwd, x)
    R = np.stack([x, y, fwd], axis=0)
    return Camera(focal, focal, 79.5, 59.5, 160, 120, R, -R @ pos)


class TestRender:
    def test_only_camera_facing_surfaces(self):
        cam = overhead_camera()
        box = geo.OrientedBox.from_extents([0.2, 0.2, 0.1])
        rng = np.random.default_rng(0)
        extr = geo.SimilarityTransform(cam.R, cam.t, 1.0)
        pts, labs = render_partial_cloud([(geo.transform_box(box, extr), 1)], [], cam, 512, rng)
        # back to world: all points must lie on the top face z = +0.1
        world = (pts - cam.t) @ cam.R
        assert np.allclose(world[:, 2], 0.1, atol=1e-9)
        assert (labs == 1).all()

    def test_exact_point_budget(self):
        # the ray cast returns every hit point up to the pool cap; FPS then
        # picks exactly the budget, all distinct
        cam = overhead_camera()
        box = geo.OrientedBox.from_extents([0.2, 0.2, 0.1])
        extr = geo.SimilarityTransform(cam.R, cam.t, 1.0)
        rng = np.random.default_rng(1)
        pts, labs = render_partial_cloud([(geo.transform_box(box, extr), 1)], [], cam, 512, rng)
        assert 512 < len(pts) < render_mod._MAX_RAW_POINTS
        assert pts.shape == (len(pts), 3) and labs.shape == (len(pts),) and labs.dtype == np.uint8
        sel = furthest_point_sample(pts, 512, rng)
        assert sel.shape == (512,) and len(np.unique(sel)) == 512

    def test_occlusion_reduces_base_visibility(self):
        # an open laptop seen from straight above vs. from a low angle:
        # the lid occludes part of the base at the grazing view, so fewer
        # base points reach the candidate pool
        inst = make_instance("laptop", 2)
        q = [np.radians(120.0)]
        poses = part_poses_object(inst, q)
        boxes = [
            geo.transform_box(geo.OrientedBox.from_extents(p.half_extents), pp)
            for p, pp in zip(inst.parts, poses)
        ]

        def base_points_from(pos):
            fwd = -pos / np.linalg.norm(pos)
            up = np.array([0.0, 0.0, 1.0])
            x = np.cross(fwd, up)
            x /= np.linalg.norm(x)
            y = np.cross(fwd, x)
            R = np.stack([x, y, fwd], axis=0)
            cam = Camera(250.0, 250.0, 79.5, 59.5, 160, 120, R, -R @ pos)
            extr = geo.SimilarityTransform(cam.R, cam.t, 1.0)
            _, labs = render_partial_cloud(
                [(geo.transform_box(b, extr), i + 1) for i, b in enumerate(boxes)],
                [],
                cam,
                256,
                np.random.default_rng(2),
            )
            return int((labs == 1).sum())

        top = base_points_from(np.array([1e-3, 0.3, 1.2]))
        # behind the lid, low: the lid blocks the base
        grazing = base_points_from(np.array([1e-3, 0.9, 0.15]))
        assert grazing < top

    def test_capsule_rendering_hits(self):
        cam = overhead_camera()
        A = np.array([-0.1, 0.0, 0.2]) @ cam.R.T + cam.t
        B = np.array([0.1, 0.0, 0.2]) @ cam.R.T + cam.t
        pts, labs = render_partial_cloud([], [(A, B, 0.03)], cam, 128, np.random.default_rng(3))
        assert (labs == 0).all()
        world = (pts - cam.t) @ cam.R
        # every point on the capsule surface: distance to segment == radius
        tt = np.clip((world[:, 0] + 0.1) / 0.2, 0, 1)
        nearest = np.stack([-0.1 + 0.2 * tt, np.zeros_like(tt), np.full_like(tt, 0.2)], axis=1)
        assert np.allclose(np.linalg.norm(world - nearest, axis=1), 0.03, atol=1e-9)


CATEGORIES = ("laptop", "drawer", "safe", "microwave", "trashcan")


def render_outcome(fn, args, rng):
    """(fn's result or the EmptyView it raised, a comparable key of its
    output bits, of the FPS indices drawn from its candidate pool next and
    of the rng state it leaves)."""
    try:
        result = fn(*args, rng)
    except EmptyView as e:
        return e, ("EmptyView", str(e))
    pts, labs = result
    sel = furthest_point_sample(pts, args[3], copy.deepcopy(rng))
    key = (bits(pts).tobytes(), labs.dtype.str, labs.tobytes(), sel.tobytes())
    return result, key + (repr(rng.bit_generator.state),)


def scene_render_pairs(monkeypatch):
    """Sample one scene of each category, rendering its view with both
    render_partial_cloud and the every-ray oracle; returns the (got, want)
    keys of the render calls and how many of them show the hand."""
    pairs, with_hand = [], 0
    real = scene_mod.render_partial_cloud

    def spy(boxes, capsules, camera, n_points, rng):
        nonlocal with_hand
        args = (boxes, capsules, camera, n_points)
        _, want = render_outcome(render_every_ray, args, copy.deepcopy(rng))
        result, got = render_outcome(real, args, rng)
        pairs.append((got, want))
        if isinstance(result, EmptyView):
            raise result
        with_hand += bool((result[1] == 0).any())
        return result

    monkeypatch.setattr(scene_mod, "render_partial_cloud", spy)
    for cat in CATEGORIES:
        # the drawer's [1, 0] view shows no hand
        seed = np.random.SeedSequence([1, 1 if cat == "drawer" else 0])
        with contextlib.suppress(EmptyView):
            sample_scene(make_instance(cat, 1), seed, n_points=256)
    return pairs, with_hand


class TestConeCull:
    """The cone-culled ray cast gives the every-ray image bit for bit."""

    def test_hit_tests_on_row_subsets_equal_full_call(self):
        rng = np.random.default_rng(40)
        dirs = sample_camera(rng, np.zeros(3), 0.3).ray_directions()
        subsets = [
            np.array([], dtype=np.int64),
            np.array([int(rng.integers(len(dirs)))]),
            np.sort(rng.choice(len(dirs), 3001, replace=False)),
            np.arange(5, len(dirs), 7),
        ]
        for _ in range(20):
            R = geo.rot6d_to_matrix(rng.normal(size=6))
            center = rng.normal(size=3) * 0.2 + [0.0, 0.0, 1.0]
            half = rng.uniform(0.05, 0.3, size=3)
            A = rng.normal(size=3) * 0.2 + [0.0, 0.0, 1.0]
            B = A + rng.normal(size=3) * 0.05
            r = float(rng.uniform(0.005, 0.05))
            full_box = ray_box_hits(dirs, R, center, half)
            full_cap = ray_capsule_hits(dirs, A, B, r)
            hit_rows = np.flatnonzero(np.isfinite(full_box) | np.isfinite(full_cap))
            assert len(hit_rows) > 0
            for rows in subsets + [hit_rows]:
                assert np.array_equal(ray_box_hits(dirs[rows], R, center, half), full_box[rows])
                assert np.array_equal(ray_capsule_hits(dirs[rows], A, B, r), full_cap[rows])

    def test_scenes_of_every_category_match_oracle(self, monkeypatch):
        pairs, with_hand = scene_render_pairs(monkeypatch)
        assert len(pairs) == with_hand == len(CATEGORIES)
        for got, want in pairs:
            assert got == want

    def test_narrowed_cone_fails_oracle(self, monkeypatch):
        # bounding spheres of half the radius: a cone that misses hits
        monkeypatch.setattr(
            render_mod, "cone_rows", lambda dirs, c, radius: cone_rows(dirs, c, radius / 2)
        )
        pairs, _ = scene_render_pairs(monkeypatch)
        assert any(got != want for got, want in pairs)

    def test_capsule_behind_camera(self):
        cam = overhead_camera()
        A, B, r = np.array([-0.05, 0.0, -0.5]), np.array([0.05, 0.0, -0.5]), 0.02
        assert len(cone_rows(cam.ray_directions(), (A + B) / 2, 0.05 + r)) == 0
        box = geo.OrientedBox(geo.OrientedBox.from_extents([0.1, 0.1, 0.1]).vertices + [0, 0, 1])
        args = ([(box, 1)], [(A, B, r)], cam, 256)
        got = render_outcome(render_partial_cloud, args, np.random.default_rng(5))[1]
        assert got == render_outcome(render_every_ray, args, np.random.default_rng(5))[1]

    def test_camera_inside_box_sphere(self):
        # the origin is outside the box (its near face is at z = 0.05) but
        # inside its bounding sphere, so the box is tested against every ray
        cam = overhead_camera()
        half = np.array([0.3, 0.3, 0.3])
        box = geo.OrientedBox(geo.OrientedBox.from_extents(half).vertices + [0, 0, 0.35])
        dirs = cam.ray_directions()
        assert np.array_equal(cone_rows(dirs, box.center, np.linalg.norm(half)), np.arange(len(dirs)))
        capsule = (np.array([-0.01, 0.0, 0.03]), np.array([0.01, 0.0, 0.03]), 0.005)
        args = ([(box, 1)], [capsule], cam, 512)
        got = render_outcome(render_partial_cloud, args, np.random.default_rng(6))
        want = render_outcome(render_every_ray, args, np.random.default_rng(6))
        assert got[1] == want[1]
        assert (got[0][1] == 0).any() and (got[0][1] == 1).any()


class TestFurthestPointSample:
    """The column-wise FPS picks exactly what the row-wise norm picks,
    including every tie, and draws the same start from the stream."""

    @staticmethod
    def assert_matches_rowwise(points, n, seed):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = furthest_point_sample(points, n, rng_a)
        assert np.array_equal(got, fps_rowwise(points, n, rng_b))
        assert rng_a.integers(2**62) == rng_b.integers(2**62)
        return got

    def test_random_clouds(self):
        rng = np.random.default_rng(30)
        for m, n in ((2000, 256), (513, 512), (64, 7)):
            self.assert_matches_rowwise(rng.normal(size=(m, 3)) * rng.uniform(0.01, 2.0, 3), n, m)

    def test_duplicate_points(self):
        rng = np.random.default_rng(31)
        base = rng.uniform(-0.2, 0.2, size=(40, 3))
        points = base[rng.permutation(np.repeat(np.arange(40), 5))]
        got = self.assert_matches_rowwise(points, 120, 1)
        # past the 40 distinct points every remaining distance is 0
        assert len(np.unique(points[got[:40]], axis=0)) == 40

    def test_regular_grid_ties(self):
        g = np.arange(9) * 0.01
        points = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        self.assert_matches_rowwise(points, 300, 2)
        self.assert_matches_rowwise(points[::-1].copy(), 300, 3)

    def test_n_equals_m(self):
        rng = np.random.default_rng(32)
        points = rng.normal(size=(300, 3))
        got = self.assert_matches_rowwise(points, 300, 4)
        assert sorted(got.tolist()) == list(range(300))


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def laptop_scene():
    inst = make_instance("laptop", 4)
    return sample_scene(inst, np.random.SeedSequence([4, 0]), scene_id="s0")


class TestSampleScene:
    def test_posed_boxes_match_transform(self, laptop_scene):
        rec = laptop_scene
        for canon, pose, posed in zip(
            rec.canonical_boxes, rec.part_poses, rec.posed_boxes
        ):
            expect = geo.transform_box(canon, pose)
            assert np.allclose(expect.vertices, posed.vertices, atol=1e-12)

    def test_nocs_in_unit_cube(self, laptop_scene):
        rec = laptop_scene
        obj = rec.seg > 0
        assert (rec.nocs[obj] >= -1e-9).all()
        assert (rec.nocs[obj] <= 1 + 1e-9).all()

    def test_nocs_round_trip(self, laptop_scene):
        rec = laptop_scene
        for i, (pose, canon) in enumerate(zip(rec.part_poses, rec.canonical_boxes)):
            m = rec.seg == i + 1
            if not m.any():
                continue
            local = (rec.nocs[m] - 0.5) * (2.0 * canon.vertices[7])
            back = pose.s * local @ pose.R.T + pose.t
            assert np.abs(back - rec.cloud[m]).max() < 1e-6

    def test_contact_matches_geometry_oracle(self, laptop_scene):
        rec = laptop_scene
        obj = rec.seg > 0
        expect = geo.compute_contact_map(rec.cloud[obj], rec.hand_surface, geo.CONTACT_TAU)
        assert (rec.contact[obj] == expect).all()
        assert (rec.contact[~obj] == 0).all()

    def test_hand_annotations_consistent(self, laptop_scene):
        rec = laptop_scene
        assert np.allclose(rec.hand_joints, rec.hand.joints())
        assert np.allclose(rec.hand_surface, rec.hand.surface())


def draw_key(instance, seed, n_points, **kwargs):
    """(sample_scene's record or None, a comparable key of the call: the
    type and message of the error it raised, or the dtype, shape and bytes
    of every value of its record)."""
    try:
        rec = sample_scene(instance, seed, n_points=n_points, **kwargs)
    except (GraspFailure, EmptyView, FewContacts) as err:
        return None, (type(err), str(err))
    arrays = [rec.cloud, rec.seg, rec.nocs, rec.contact, rec.hand.params(), rec.hand_joints,
              rec.hand_surface, rec.joint_state, rec.camera.R, rec.camera.t]
    arrays += [np.concatenate([p.R.ravel(), p.t, [p.s]]) for p in rec.part_poses]
    arrays += [b.vertices for b in rec.posed_boxes + rec.canonical_boxes]
    camera = (rec.camera.fx, rec.camera.fy, rec.camera.cx, rec.camera.cy, rec.camera.width, rec.camera.height)
    key = [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]
    return rec, (key, camera, rec.scene_id, rec.category)


def replay(fn, seen):
    """fn memoised in `seen` on the pickled bytes of its arguments, which
    hold the state of every Generator among them. A call with the arguments
    of an earlier call returns that call's value, or raises its synth error
    again, and leaves each Generator argument in the state that call left
    it. The synth steps are deterministic in their arguments and Generator
    states, so that is the call's own outcome, without its cost; any other
    call runs fn."""

    def call(*args, **kwargs):
        rngs = [a for a in args if isinstance(a, np.random.Generator)]
        key = (fn.__name__, pickle.dumps((args, sorted(kwargs.items()))))
        if key not in seen:
            try:
                done = fn(*args, **kwargs), None
            except (GraspFailure, EmptyView, FewContacts) as err:
                done = None, err
            seen[key] = done, [rng.bit_generator.state for rng in rngs]
        (value, err), states = seen[key]
        for rng, state in zip(rngs, states):
            rng.bit_generator.state = state
        if err is not None:
            raise type(err)(*err.args)
        return value

    return call


@pytest.fixture
def draw_memo(monkeypatch):
    """Replays sample_scene's grasp, ray cast and furthest-point sampling,
    so that a second draw of the same instance and seed pays only for the
    work of sample_scene around them."""
    seen = {}
    for name in ("pose_hand_grasp", "render_partial_cloud", "furthest_point_sample"):
        monkeypatch.setattr(scene_mod, name, replay(getattr(scene_mod, name), seen))


class TestEarlyRejection:
    """sample_scene(min_contacts=4) rejects a draw before FPS only when the
    full draw's cloud holds fewer than 4 contacts, and keeps every other
    draw byte for byte."""

    @pytest.mark.parametrize("n_points", [256, 512, 1024])
    @pytest.mark.parametrize("category", CATEGORIES)
    def test_rejects_only_draws_below_min_contacts(self, category, n_points, draw_memo):
        kept = 0
        for s in range(20):
            instance = make_instance(category, s)
            seed = np.random.SeedSequence([n_points, s])
            full, full_key = draw_key(instance, seed, n_points)
            got, key = draw_key(instance, seed, n_points, min_contacts=4)
            if key[0] is FewContacts:
                assert full is not None and full.contact.sum() < 4
            else:
                kept += got is not None
                assert key == full_key
        assert kept > 0

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_scene_rejected_before_fps_on_every_draw_keeps_message(
        self, tmp_path, monkeypatch, forks, serial_oracle, cpus
    ):
        # no candidate pool holds 10**6 contacts, so every draw that renders
        # is rejected before FPS; the recorded reasons count those draws, and
        # each attempt is drawn once
        monkeypatch.setattr(synth_io, "MAX_SCENE_ATTEMPTS", MATRIX_ATTEMPTS)
        monkeypatch.setattr(synth_io, "MIN_VISIBLE_CONTACTS", 10**6)
        args = ("laptop", 3, MATRIX_SEEDS["laptop"])
        kwargs = {"n_points": 256}
        ref = serial_oracle(tmp_path / "serial", *args, **kwargs)
        assert ref[0] is None
        entries = json.loads(ref[1]["manifest.json"])["scenes"]
        assert entries[0] == {
            "id": "scene_000000",
            "index": 0,
            "failed": "no usable draw in 4 attempts: 0 grasp failures, 0 empty views, "
            "4 draws below 1000000 visible contacts (4 in the candidate pool, 0 in the cloud)",
        }
        assert all("failed" in e for e in entries) and "scenes" not in ref[1]
        draws = []
        sample = synth_io.sample_scene

        def spy(instance, seed, **kw):
            draws.append((kw["scene_id"], seed.entropy[-1]))
            return sample(instance, seed, **kw)

        monkeypatch.setattr(synth_io, "sample_scene", spy)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        assert outcome(generate_dataset, tmp_path / "ds", *args, **kwargs) == ref
        # the calling process's share: scenes 0, cpus, 2 * cpus, ...
        share = range(0, 3, cpus)
        assert draws == [(f"scene_{i:06d}", a) for i in share for a in range(MATRIX_ATTEMPTS)]
        assert len(forks) == cpus - 1
        assert not multiprocessing.active_children()


# ---------------------------------------------------------------------------
# dataset I/O
# ---------------------------------------------------------------------------

def tree_bytes(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


# sha256 over the sorted relative paths and bytes of a 256-point laptop
# scene and a 256-point drawer scene at seed 4: one pin over the files under
# scenes/, one over the two manifest.json files. The scene pin was computed
# with the row-wise FPS, the broadcast contact map and the uncached hand FK,
# before they were rewritten to be byte-identical and faster, and held
# through the manifest's format version 2; any change to the scene bytes
# shows there, and a manifest change alone moves only the manifest pin.
# (They hold for one numpy build on x86-64: a platform whose libm or SIMD
# code rounds differently can change them.)
PINNED_SCENES_SHA256 = "a742f1f581d80a3597a37c202b0f18f84299dd1407c2ad5ba97613a40a21ac59"
PINNED_MANIFEST_SHA256 = "19908012464934905d47b571c89d97331ef370d26eb3a51ce963a6738ea01561"


def files_sha256(files):
    """sha256 over the names and bytes of {relative path: bytes}."""
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


@pytest.fixture
def failing_scenes(monkeypatch):
    """Replaces sample_scene with one that fails every draw of the scenes
    in the returned set and returns one fixed record otherwise."""
    real = sample_scene(make_instance("laptop", 4), np.random.SeedSequence([4, 1]), n_points=256)
    contact = np.zeros_like(real.contact)
    contact[:4] = 1
    failing = set()

    def fake_sample_scene(instance, seed, scene_id, **kwargs):
        if int(scene_id[-6:]) in failing:
            raise EmptyView("no pixels")
        return replace(real, contact=contact, scene_id=scene_id)

    monkeypatch.setattr(synth_io, "sample_scene", fake_sample_scene)
    return failing


class TestDataset:
    def test_pinned_bytes(self, tmp_path):
        for cat in ("laptop", "drawer"):
            generate_dataset(tmp_path / cat, cat, 1, seed=4, n_points=256)
        files = tree_bytes(tmp_path)
        scenes = {k: v for k, v in files.items() if "/scenes/" in k}
        manifests = {k: v for k, v in files.items() if k.endswith("/manifest.json")}
        assert len(scenes) + len(manifests) == len(files)
        assert files_sha256(scenes) == PINNED_SCENES_SHA256
        assert files_sha256(manifests) == PINNED_MANIFEST_SHA256

    def test_generation_deterministic(self, tmp_path):
        a = generate_dataset(tmp_path / "a", "laptop", 3, seed=9)
        b = generate_dataset(tmp_path / "b", "laptop", 3, seed=9)
        ta, tb = tree_bytes(a), tree_bytes(b)
        assert list(ta) == list(tb)
        for k in ta:
            assert ta[k] == tb[k], k

    def test_different_seed_differs(self, tmp_path):
        a = generate_dataset(tmp_path / "a", "laptop", 2, seed=1)
        b = generate_dataset(tmp_path / "b", "laptop", 2, seed=2)
        assert (
            (tmp_path / "a" / "scenes" / "scene_000000" / "cloud.f32").read_bytes()
            != (tmp_path / "b" / "scenes" / "scene_000000" / "cloud.f32").read_bytes()
        )

    def test_load_round_trip(self, tmp_path):
        root = generate_dataset(tmp_path / "ds", "drawer", 2, seed=3)
        manifest, scenes = load_dataset(root)
        assert manifest["part_count"] == 4
        assert len(scenes) == 2
        rec = scenes[0]
        assert rec.cloud.shape == (manifest["n_points"], 3)
        assert rec.part_count == 4
        # loaded annotations stay mutually consistent at float32 precision
        for canon, pose, posed in zip(
            rec.canonical_boxes, rec.part_poses, rec.posed_boxes
        ):
            assert np.allclose(
                geo.transform_box(canon, pose).vertices, posed.vertices, atol=1e-5
            )
        obj = rec.seg > 0
        expect = geo.compute_contact_map(rec.cloud[obj], rec.hand_surface, geo.CONTACT_TAU)
        # f32 rounding can flip points that sit exactly at the threshold
        assert (rec.contact[obj] == expect).mean() > 0.999

    def test_load_is_the_saved_record_through_its_file_dtypes(self, tmp_path, monkeypatch):
        # every loaded array is the saved one cast to its file's dtype and
        # back, bit for bit; only the rotations are re-orthonormalized
        saved = []
        save = synth_io.save_scene
        monkeypatch.setattr(synth_io, "save_scene", lambda root, rec: saved.append(rec) or save(root, rec))
        root = generate_dataset_serial(tmp_path / "ds", "drawer", 2, seed=0, n_points=256)
        manifest, loaded = load_dataset(root)
        assert len(saved) == len(loaded) == 2

        def f32(a):
            return np.asarray(a, dtype=np.float32).astype(np.float64)

        for i, (rec, got) in enumerate(zip(saved, loaded)):
            for name in ("cloud", "nocs", "hand_joints", "hand_surface"):
                assert np.array_equal(bits(getattr(got, name)), bits(f32(getattr(rec, name)))), name
            for name in ("seg", "contact"):
                assert getattr(got, name).dtype == np.uint8
                assert np.array_equal(getattr(got, name), getattr(rec, name)), name
            assert len(got.part_poses) == len(rec.part_poses) == 4
            for g, r in zip(got.part_poses, rec.part_poses):
                assert np.array_equal(bits(g.t), bits(f32(r.t))) and g.s == f32(r.s)
                assert np.allclose(g.R, r.R, atol=1e-6)
            for g, r in zip(got.posed_boxes, rec.posed_boxes):
                assert np.array_equal(bits(g.vertices), bits(f32(r.vertices)))
            for g, r in zip(got.canonical_boxes, rec.canonical_boxes):
                assert np.array_equal(bits(g.vertices), bits(r.vertices))
            params = f32(rec.hand.params())
            assert np.array_equal(bits(got.hand.root_position), bits(params[9:12]))
            assert np.array_equal(bits(got.hand.joint_angles), bits(np.clip(params[12:], 0, np.pi / 2)))
            assert np.allclose(got.hand.root_rotation, rec.hand.root_rotation, atol=1e-6)
            assert np.array_equal(bits(got.joint_state), bits(rec.joint_state))
            for field in ("fx", "fy", "cx", "cy", "width", "height"):
                assert getattr(got.camera, field) == getattr(rec.camera, field), field
            assert np.array_equal(bits(got.camera.R), bits(rec.camera.R))
            assert np.array_equal(bits(got.camera.t), bits(rec.camera.t))
            assert (got.scene_id, got.category) == (rec.scene_id, rec.category)
            assert manifest["scenes"][i]["index"] == i

    def test_manifest_dtypes_come_from_the_scene_files(self, tmp_path):
        root = generate_dataset(tmp_path / "ds", "laptop", 1, seed=0, n_points=256)
        manifest = json.loads((root / "manifest.json").read_text())
        files = sorted(p.name for p in (root / "scenes" / "scene_000000").iterdir())
        assert files == sorted(synth_io.SCENE_FILES)
        assert manifest["dtypes"] == {
            name.split(".")[0]: dtype for name, (dtype, _) in synth_io.SCENE_FILES.items()
        }

    @pytest.mark.parametrize("version", [0, 1, None])
    def test_other_format_version_rejected(self, tmp_path, version):
        # version 1 raised on a failed scene and keyed the index as "seed"
        root = generate_dataset(tmp_path / "ds", "laptop", 1, seed=0, n_points=256)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["version"] = version
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"artipose-dataset version {version!r}, not 2$"):
            load_dataset(root)

    def test_manifest_keys(self, tmp_path):
        root = generate_dataset(tmp_path / "ds", "drawer", 2, seed=0, n_points=256)
        manifest = json.loads((root / "manifest.json").read_text())
        assert sorted(manifest) == [
            "category", "count", "dtypes", "format", "image_size", "master_seed",
            "n_points", "part_count", "scenes", "surface_samples", "tau", "version",
        ]
        assert [sorted(e) for e in manifest["scenes"]] == [
            ["camera", "half_extents", "id", "index", "joint_state"]
        ] * 2

    @pytest.mark.parametrize("limit, kept", [(None, [0, 2, 4]), (2, [0, 2]), (0, [])])
    def test_load_skips_failed_scenes(self, tmp_path, failing_scenes, limit, kept):
        # the limit counts kept scenes; "count" stays the requested count
        failing_scenes.update({1, 3})
        root = generate_dataset(tmp_path / "ds", "laptop", 5, seed=0, n_points=256)
        manifest, scenes = load_dataset(root, limit=limit)
        assert manifest["count"] == 5 and manifest["part_count"] == 2
        assert [r.scene_id for r in scenes] == [f"scene_{i:06d}" for i in kept]
        assert sorted(p.name for p in (root / "scenes").iterdir()) == ["scene_000000", "scene_000002", "scene_000004"]

    def test_every_scene_failed(self, tmp_path, failing_scenes):
        failing_scenes.update(range(2))
        root = generate_dataset(tmp_path / "ds", "laptop", 2, seed=0, n_points=256)
        manifest, scenes = load_dataset(root)
        assert scenes == [] and manifest["part_count"] is None
        assert [e["index"] for e in manifest["scenes"]] == [0, 1]
        assert sorted(p.name for p in root.iterdir()) == ["manifest.json"]

    def test_failed_scene_leaves_no_files_of_an_earlier_dataset(self, tmp_path, monkeypatch):
        # microwave scene 1 of seed 0 is kept at 512 points and fails at 256;
        # the forked worker that builds the odd scenes records and clears it
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        root = generate_dataset(tmp_path / "ds", "microwave", 4, seed=0, n_points=512)
        assert (root / "scenes" / "scene_000001" / "cloud.f32").stat().st_size == 512 * 12
        generate_dataset(root, "microwave", 4, seed=0, n_points=256)
        manifest = json.loads((root / "manifest.json").read_text())
        assert [e["index"] for e in manifest["scenes"] if "failed" in e] == [1]
        fresh = generate_dataset(tmp_path / "fresh", "microwave", 4, seed=0, n_points=256)
        assert tree_listing(root) == tree_listing(fresh)

    @pytest.mark.parametrize("key, value, library", [("tau", 0.02, "0.01"), ("surface_samples", 256, "512")])
    def test_manifest_of_other_fixed_settings_rejected(self, tmp_path, key, value, library):
        # the contact labels and the hand_surface files follow both
        root = generate_dataset(tmp_path / "ds", "laptop", 1, seed=0, n_points=256)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest[key] = value
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"has {key} {value!r}; this library uses {library}$"):
            load_dataset(root)

    @pytest.fixture(scope="class")
    def one_scene(self, tmp_path_factory):
        return generate_dataset(tmp_path_factory.mktemp("one") / "ds", "laptop", 1, seed=0, n_points=256)

    @pytest.mark.parametrize("name", list(synth_io.SCENE_FILES))
    @pytest.mark.parametrize("change", ["short", "long"])
    def test_file_of_another_size_names_scene_and_file(self, one_scene, tmp_path, name, change):
        root = shutil.copytree(one_scene, tmp_path / "ds")
        path = root / "scenes" / "scene_000000" / name
        data = path.read_bytes()
        item = np.dtype(synth_io.SCENE_FILES[name][0]).itemsize
        path.write_bytes(data[:-item] if change == "short" else data + data[:item])
        size = len(data) - item if change == "short" else len(data) + item
        with pytest.raises(ValueError, match=re.escape(f"scene scene_000000: {name} has {size} bytes, not a (")):
            load_dataset(root)

    @pytest.mark.parametrize(
        "name, index, message",
        [
            ("poses.f32", 4, "rotation entries must be finite"),  # part 0's R[1, 1]
            ("poses.f32", 9, "translation must be finite"),  # part 0's t[0]
            ("poses.f32", 25, "scale must be positive and finite, got nan"),  # part 1's s
            ("hand_params.f32", 0, "rotation entries must be finite"),
            ("hand_params.f32", 10, "root position must be finite"),
            ("hand_params.f32", 20, "joint angles outside"),
        ],
        ids=["pose-rotation", "pose-translation", "pose-scale", "hand-rotation", "hand-root", "hand-angle"],
    )
    def test_nan_in_pose_or_hand_file_rejected(self, one_scene, tmp_path, name, index, message):
        root = shutil.copytree(one_scene, tmp_path / "ds")
        path = root / "scenes" / "scene_000000" / name
        data = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
        data[index] = np.nan
        path.write_bytes(data.tobytes())
        with pytest.raises(ValueError, match="^" + re.escape(f"scene scene_000000: {name}: {message}")):
            load_dataset(root)

    def test_negative_count_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^count must be >= 0, got -1$"):
            generate_dataset(tmp_path / "ds", "laptop", -1, seed=0)
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_points": 7}, "n_points must be >= 8, got 7"),
            ({"n_points": 0}, "n_points must be >= 8, got 0"),
            ({"n_points": -1}, "n_points must be >= 8, got -1"),
            ({"tau": 0.0}, "tau must be positive and finite, got 0.0"),
            ({"tau": -0.01}, "tau must be positive and finite, got -0.01"),
            ({"tau": float("nan")}, "tau must be positive and finite, got nan"),
            ({"tau": float("inf")}, "tau must be positive and finite, got inf"),
            ({"seed": -3}, "seed must be >= 0, got -3"),
        ],
    )
    def test_unusable_settings_rejected_before_writing(self, tmp_path, monkeypatch, kwargs, message):
        # tau is not a parameter: it stands for an edit of the library
        # constant, which generate_dataset checks before writing
        kwargs = dict(kwargs)
        if "tau" in kwargs:
            monkeypatch.setattr(synth_io, "CONTACT_TAU", kwargs.pop("tau"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_dataset(tmp_path / "ds", "laptop", 1, **{"seed": 0, **kwargs})
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("name, value", [("surface_samples", 256), ("tau", 0.02), ("min_contacts", 2)])
    def test_fixed_settings_are_not_parameters(self, tmp_path, name, value):
        # the hand's surface samples, the contact threshold and the contact
        # floor are library constants
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            generate_dataset(tmp_path / "ds", "laptop", 1, seed=0, **{name: value})
        assert not (tmp_path / "ds").exists()

    def test_negative_limit_rejected(self, tmp_path):
        # no dataset on disk: reading it would raise FileNotFoundError
        with pytest.raises(ValueError, match="^limit must be >= 0, got -1$"):
            load_dataset(tmp_path / "missing", limit=-1)

    def test_min_contacts_respected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synth_io, "MIN_VISIBLE_CONTACTS", 8)
        root = generate_dataset(tmp_path / "ds", "laptop", 3, seed=5)
        _, scenes = load_dataset(root)
        assert all(int(r.contact.sum()) >= 8 for r in scenes)

    @pytest.fixture
    def failing_scene_1(self, monkeypatch):
        """Replaces sample_scene so that scene 0 succeeds on its second draw
        and scene 1 fails every draw; returns the recorded reason, the list
        of make_instance calls and the list of (scene, attempt) draws made in
        the calling process."""
        real = sample_scene(make_instance("laptop", 4), np.random.SeedSequence([4, 1]), n_points=256)
        draws = []

        def with_contacts(count):
            contact = np.zeros_like(real.contact)
            contact[:count] = 1
            return replace(real, contact=contact)

        def fake_sample_scene(instance, seed, scene_id, **kwargs):
            # scene 0 succeeds on its second draw; scene 1 cycles through
            # the four ways a draw fails for all its draws
            attempt = seed.entropy[-1]
            draws.append((scene_id, attempt))
            if scene_id == "scene_000000" and attempt == 1:
                return replace(with_contacts(4), scene_id=scene_id)
            if attempt % 5 == 0:
                raise GraspFailure("no grasp")
            if attempt % 5 == 1:
                raise EmptyView("no pixels")
            if attempt % 5 == 2:
                raise FewContacts("3 contacts among 900 candidate points < 4")
            return with_contacts(attempt % 5 - 2)

        instances = []

        def spy_make_instance(*args, **kwargs):
            instances.append(args)
            return make_instance(*args, **kwargs)

        monkeypatch.setattr(synth_io, "sample_scene", fake_sample_scene)
        monkeypatch.setattr(synth_io, "make_instance", spy_make_instance)
        reason = (
            "no usable draw in 40 attempts: 8 grasp failures, 8 empty views, "
            "24 draws below 4 visible contacts (8 in the candidate pool, 16 in the cloud)"
        )
        return reason, instances, draws

    @staticmethod
    def check_scene_1_recorded(root, reason):
        manifest, scenes = load_dataset(root)
        assert manifest["scenes"][1] == {"id": "scene_000001", "index": 1, "failed": reason}
        assert [r.scene_id for r in scenes] == ["scene_000000"]
        assert sorted(p.name for p in (root / "scenes").iterdir()) == ["scene_000000"]

    def test_failed_scene_counts_reasons_and_builds_one_instance(self, tmp_path, monkeypatch, failing_scene_1):
        # one worker: both scenes run in this process, where the spies see them
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        reason, instances, draws = failing_scene_1
        root = generate_dataset(tmp_path / "ds", "laptop", 2, seed=0, n_points=256)
        self.check_scene_1_recorded(root, reason)
        assert len(instances) == 2
        # each attempt is drawn once, counted by the stage that rejected it
        assert draws == [("scene_000000", 0), ("scene_000000", 1)] + [("scene_000001", a) for a in range(40)]

    def test_failed_scene_in_worker_keeps_message(self, tmp_path, monkeypatch, forks, failing_scene_1):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        reason, instances, draws = failing_scene_1
        root = generate_dataset(tmp_path / "ds", "laptop", 2, seed=0, n_points=256)
        self.check_scene_1_recorded(root, reason)
        # scene 1 ran in the one worker, so this process built one instance
        assert len(forks) == 1 and len(instances) == 1
        assert draws == [("scene_000000", 0), ("scene_000000", 1)]
        assert not multiprocessing.active_children()


# ---------------------------------------------------------------------------
# scenes built in worker processes
# ---------------------------------------------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked while the test runs."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the calling thread if the block runs too long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tree_listing(root):
    """Every path under root: the bytes of each file, None for a directory."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in sorted(root.rglob("*"))
    }


def outcome(generate, root, *args, **kwargs):
    """(error type and message or None, tree listing) of one generate call."""
    try:
        generate(root, *args, **kwargs)
        error = None
    except Exception as err:
        error = (type(err), str(err))
    return error, tree_listing(root)


@pytest.fixture(scope="module")
def serial_oracle():
    """outcome(generate_dataset_serial, ...) with its sample_scene calls
    replayed across the module: the parallel-scene tests check one seed's
    scenes at several counts and the same laptop set several times, so each
    oracle draw is made once. Tests that replace synth_io.sample_scene call
    the oracle themselves."""
    draws = {}

    def serial(root, *args, **kwargs):
        real = synth_io.sample_scene
        synth_io.sample_scene = replay(real, draws)
        try:
            return outcome(generate_dataset_serial, root, *args, **kwargs)
        finally:
            synth_io.sample_scene = real

    return serial


# 256-point seeds whose scenes take few draws. Under MATRIX_ATTEMPTS four
# of them record the scenes in FAILED_SCENES as failed among their first
# five: in the calling process's share for some worker counts and in a
# worker's share for others. Under the full 40 attempts the drawer and safe
# seeds record failed scenes too, at scenes 1 and 2, but a failing scene
# then costs 40 draws.
MATRIX_ATTEMPTS = 4
MATRIX_SEEDS = {"laptop": 10, "drawer": 4, "safe": 18, "microwave": 10, "trashcan": 27}
FAILED_SCENES = {"drawer": {1, 2, 3, 4}, "safe": {0, 1, 2, 3, 4}, "microwave": {1, 2, 3, 4}, "trashcan": {4}}


class TestParallelScenes:
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    @pytest.mark.parametrize("category", CATEGORIES)
    def test_trees_match_serial_loop(self, tmp_path, monkeypatch, forks, serial_oracle, category, count):
        monkeypatch.setattr(synth_io, "MAX_SCENE_ATTEMPTS", MATRIX_ATTEMPTS)
        seed = MATRIX_SEEDS[category]
        ref = serial_oracle(tmp_path / "serial", category, count, seed, n_points=256)
        assert ref[0] is None
        failed = {i for i in FAILED_SCENES.get(category, ()) if i < count}
        entries = json.loads(ref[1]["manifest.json"])["scenes"]
        assert [e["index"] for e in entries] == list(range(count))
        assert {e["index"] for e in entries if "failed" in e} == failed
        assert not any(f"scenes/scene_{i:06d}" in ref[1] for i in failed)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            forks.clear()
            got = outcome(generate_dataset, tmp_path / f"cpus{cpus}", category, count, seed, n_points=256)
            assert got[0] == ref[0]
            assert got[1] == ref[1]
            assert len(forks) == min(cpus, count) - 1
            assert not multiprocessing.active_children()

    def test_usable_cpus_decide_the_workers(self, tmp_path, forks, serial_oracle):
        # under an affinity set of one CPU this takes the serial path
        ref = serial_oracle(tmp_path / "serial", "laptop", 4, 10, n_points=256)
        assert outcome(generate_dataset, tmp_path / "ds", "laptop", 4, 10, n_points=256) == ref
        assert len(forks) == min(parallel.usable_cpus(), 4) - 1
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("failing", [{0}, {1}, {4}, {1, 2}, {2, 3}, {0, 1, 2, 3, 4}])
    def test_failed_scenes_recorded_in_any_share(self, tmp_path, monkeypatch, forks, failing_scenes, cpus, failing):
        failing_scenes.update(failing)
        ref = outcome(generate_dataset_serial, tmp_path / "serial", "laptop", 5, 0, n_points=256)
        assert ref[0] is None
        entries = json.loads(ref[1]["manifest.json"])["scenes"]
        assert {e["index"] for e in entries if "failed" in e} == failing
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        assert outcome(generate_dataset, tmp_path / "ds", "laptop", 5, 0, n_points=256) == ref
        assert len(forks) == cpus - 1
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("crash_scene, failed", [(1, None), (3, None), (3, 2)])
    def test_worker_that_dies_raises(self, tmp_path, monkeypatch, failing_scenes, crash_scene, failed):
        """A worker that exits without reporting fails its first unreported
        scene, also when a lower scene failed and was recorded."""
        if failed is not None:
            failing_scenes.add(failed)
        caller = os.getpid()
        sample = synth_io.sample_scene

        def dying_sample_scene(instance, seed, scene_id, **kwargs):
            if scene_id == f"scene_{crash_scene:06d}" and os.getpid() != caller:
                os._exit(1)
            return sample(instance, seed, scene_id=scene_id, **kwargs)

        monkeypatch.setattr(synth_io, "sample_scene", dying_sample_scene)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        message = (
            f"synth worker for scenes 1, 3, ... below 5 exited with code 1 "
            f"before reporting scene {crash_scene}"
        )
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"), deadline(60):
            generate_dataset(tmp_path / "ds", "laptop", 5, seed=0, n_points=256)
        assert not (tmp_path / "ds" / "manifest.json").exists()
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("scene", [2, 1], ids=["calling-process", "worker"])
    def test_unexpected_error_propagates(self, tmp_path, monkeypatch, failing_scenes, scene):
        # with two processes, scene 2 is the calling process's and scene 1
        # the worker's; the error is not a failed draw, so it is not recorded
        sample = synth_io.sample_scene

        def full_disk(instance, seed, scene_id, **kwargs):
            if scene_id == f"scene_{scene:06d}":
                raise OSError(28, "No space left on device")
            return sample(instance, seed, scene_id=scene_id, **kwargs)

        monkeypatch.setattr(synth_io, "sample_scene", full_disk)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        with pytest.raises(OSError) as raised, deadline(60):
            generate_dataset(tmp_path / "ds", "laptop", 5, seed=0, n_points=256)
        assert str(raised.value) == "[Errno 28] No space left on device"
        # a worker's error carries the worker's traceback
        notes = getattr(raised.value, "__notes__", [])
        assert len(notes) == (scene == 1) and all("in full_disk" in n for n in notes)
        assert not (tmp_path / "ds" / "manifest.json").exists()
        assert not multiprocessing.active_children()

    def test_one_cpu_starts_no_process(self, tmp_path, monkeypatch, forks, serial_oracle):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        self.check_serial(tmp_path, forks, serial_oracle)

    def test_no_fork_method_starts_no_process(self, tmp_path, monkeypatch, forks, serial_oracle):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        self.check_serial(tmp_path, forks, serial_oracle)

    def test_other_thread_starts_no_process(self, tmp_path, monkeypatch, forks, serial_oracle):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            self.check_serial(tmp_path, forks, serial_oracle)
        finally:
            release.set()
            other.join()

    def test_daemonic_caller_starts_no_process(self, tmp_path, monkeypatch, forks, serial_oracle):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def in_daemon():
            forks.clear()
            try:
                generate_dataset(tmp_path / "ds", "laptop", 3, seed=10, n_points=256)
                send.send(len(forks))
            except BaseException as err:
                send.send(repr(err))

        proc = ctx.Process(target=in_daemon, daemon=True)
        proc.start()
        send.close()
        try:
            assert recv.poll(60)
            forked_in_daemon = recv.recv()
        finally:
            proc.join(60)
        assert not proc.is_alive()
        assert forked_in_daemon == 0
        assert serial_oracle(tmp_path / "serial", "laptop", 3, 10, n_points=256) == (None, tree_listing(tmp_path / "ds"))

    @staticmethod
    def check_serial(tmp_path, forks, serial_oracle):
        ref = serial_oracle(tmp_path / "serial", "laptop", 3, 10, n_points=256)
        assert outcome(generate_dataset, tmp_path / "ds", "laptop", 3, 10, n_points=256) == ref
        assert forks == []
