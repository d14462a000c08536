"""Scene sampling: joint state + camera + grasp -> fully annotated record."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import EmptyView, FewContacts
from ..geometry import (
    OrientedBox,
    SimilarityTransform,
    box_half_extents,
    compute_contact_map,
    transform_box,
)
from .hand import KinematicHand, capsules_world, pose_hand_grasp
from .instances import ArticulatedInstance, part_poses_object
from .render import (
    HAND_LABEL,
    Camera,
    furthest_point_sample,
    render_partial_cloud,
    sample_camera,
)

DEFAULT_N_POINTS = 1024


@dataclass
class SceneRecord:
    """One observation with every annotation the pipeline consumes.

    seg labels: 0 = hand, p+1 = part p. nocs rows are valid only where
    seg > 0; contact rows are zero at hand points by construction.
    """

    scene_id: str
    category: str
    cloud: np.ndarray  # (N, 3) camera frame
    seg: np.ndarray  # (N,) uint8
    nocs: np.ndarray  # (N, 3) in [0, 1]^3 at object points
    contact: np.ndarray  # (N,) uint8
    part_poses: list  # [SimilarityTransform] camera frame, one per part
    canonical_boxes: list  # [OrientedBox] part-local cuboids (+/- half extents)
    posed_boxes: list  # [OrientedBox] camera frame
    hand: KinematicHand  # camera-frame root
    hand_joints: np.ndarray  # (21, 3)
    hand_surface: np.ndarray  # (S, 3)
    camera: Camera
    joint_state: np.ndarray

    @property
    def part_count(self) -> int:
        return len(self.part_poses)

    def half_extents(self) -> np.ndarray:
        return box_half_extents(self.canonical_boxes)


def nocs_normalize(local_points: np.ndarray, half_extents: np.ndarray) -> np.ndarray:
    """Part-local meters -> [0, 1]^3 (each axis scaled by its own extent)."""
    return local_points / (2.0 * half_extents) + 0.5


def sample_scene(
    instance: ArticulatedInstance,
    seed,
    n_points: int = DEFAULT_N_POINTS,
    scene_id: str = "",
    min_contacts: int = 0,
) -> SceneRecord:
    """Sample joint state, grasp, and camera; render and annotate.

    Deterministic in (instance, seed). Raises GraspFailure / EmptyView when
    the draw is unusable; callers that need a fixed scene count retry with
    fresh sub-seeds. An object point is in contact when it lies within
    geometry.CONTACT_TAU of one of the hand's hand.SURFACE_SAMPLES surface
    points, the same threshold the grasp is drawn to.

    The ray cast returns the candidate pool of up to _MAX_RAW_POINTS visible
    points. The contact flag of every object point in it is computed once,
    and when fewer than `min_contacts` of them are in contact the draw
    raises FewContacts before furthest-point sampling: the cloud is a subset
    of the pool, so it could not hold more. Otherwise the cloud's points,
    labels and contacts are the pool's at the FPS indices; compute_contact_map
    flags each point on its own, so these are the cloud's own flags. The
    check draws nothing from rng, so a kept draw is the same record for
    every `min_contacts`.
    """
    rng = np.random.default_rng(seed)
    limits = instance.joint_limits()
    joint_state = rng.uniform(limits[:, 0], limits[:, 1])

    hand_obj = pose_hand_grasp(instance, joint_state, rng.integers(2**63))

    poses_obj = part_poses_object(instance, joint_state)
    canonical = [OrientedBox.from_extents(p.half_extents) for p in instance.parts]
    boxes_obj = [transform_box(c, p) for c, p in zip(canonical, poses_obj)]
    extremes = np.concatenate(
        [b.vertices for b in boxes_obj] + [hand_obj.joints()]
    )
    target = extremes.mean(axis=0)
    scene_radius = float(np.linalg.norm(extremes - target, axis=1).max())

    base_camera = sample_camera(rng, target, scene_radius)
    extr = SimilarityTransform(base_camera.R, base_camera.t, 1.0)
    poses_cam = [extr.compose(p) for p in poses_obj]
    boxes_cam = [transform_box(c, p) for c, p in zip(canonical, poses_cam)]
    hand_cam = hand_obj.rerooted(extr)

    # thin scenes can cover fewer pixels than the point budget at the base
    # zoom; deterministically retry the same viewpoint zoomed in
    camera = base_camera
    for zoom in (1.0, 1.5, 2.2):
        camera = replace(base_camera, fx=base_camera.fx * zoom, fy=base_camera.fy * zoom)
        try:
            pool, pool_seg = render_partial_cloud(
                [(box, i + 1) for i, box in enumerate(boxes_cam)],
                capsules_world(hand_cam),
                camera,
                n_points,
                rng,
            )
            break
        except EmptyView:
            if zoom == 2.2:
                raise

    hand_surface = hand_cam.surface()
    pool_contact = np.zeros(len(pool), dtype=np.uint8)
    obj_mask = pool_seg != HAND_LABEL
    if obj_mask.any():
        pool_contact[obj_mask] = compute_contact_map(pool[obj_mask], hand_surface)
    visible = int(pool_contact.sum())
    if visible < min_contacts:
        raise FewContacts(f"{visible} contacts among {len(pool)} candidate points < {min_contacts}")
    sel = furthest_point_sample(pool, n_points, rng)
    cloud, seg, contact = pool[sel], pool_seg[sel], pool_contact[sel]

    nocs = np.zeros_like(cloud)
    for i, (pose, part) in enumerate(zip(poses_cam, instance.parts)):
        members = seg == i + 1
        if not members.any():
            continue
        local = (cloud[members] - pose.t) @ pose.R / pose.s
        nocs[members] = nocs_normalize(local, part.half_extents)

    return SceneRecord(
        scene_id=scene_id,
        category=instance.category,
        cloud=cloud,
        seg=seg,
        nocs=nocs,
        contact=contact,
        part_poses=poses_cam,
        canonical_boxes=canonical,
        posed_boxes=boxes_cam,
        hand=hand_cam,
        hand_joints=hand_cam.joints(),
        hand_surface=hand_surface,
        camera=camera,
        joint_state=joint_state,
    )
