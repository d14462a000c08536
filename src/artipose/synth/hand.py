"""Capsule-skeleton proxy hand: forward kinematics and grasp synthesis.

21 joints (wrist + 4 per finger), 15 flexion angles (3 per finger), fixed
bone lengths. FK is written once over the autodiff engine, as a wrist-frame
part (`fk_vars`) and the root transform (`root_frame_vars`). `fk_vars` is
one fixed sequence of stacked ops: one batched Rodrigues for the 15 phalanx
rotations, the joint chain as three (5, 3) adds, and the 20 capsule surfaces
gathered with a per-sample bone index. The skeleton is one set of
read-only module constants, and everything that depends only on it and the
surface size is built once per size by fk_tables. Every KinematicHand has
SURFACE_SAMPLES surface points. Generation runs FK on constants, and a
KinematicHand caches its result; hand-pose optimization runs it on
parameter Vars.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .. import autodiff as ad
from ..errors import GraspFailure
from ..geometry import CONTACT_TAU, OrientedBox, SimilarityTransform, cross, point_box_distance, transform_box, unit
from .instances import ArticulatedInstance, part_poses_object

N_FINGERS = 5
N_ANGLES = 15
N_JOINTS = 21

ANGLE_LO = 0.0
ANGLE_HI = np.pi / 2

_GOLDEN = 2.399963229728653
_PALM_NORMAL = np.array([0.0, 0.0, 1.0])

# pose_hand_grasp resamples the flexion until this many surface points lie
# within CONTACT_TAU of the part cuboids, and gives up after this many draws.
GRASP_MIN_CONTACTS = 20
GRASP_MAX_ATTEMPTS = 50
SURFACE_SAMPLES = 512  # points on the surface of every KinematicHand


def _frozen(a) -> np.ndarray:
    """A read-only float64 copy."""
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """(n, 1) Euclidean norms of (n, 3) rows, each bit for bit
    np.linalg.norm of its row (one BLAS dot per row)."""
    return np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0]


# The one skeleton, in the wrist frame: the palm plane is z = 0, fingers
# extend along +y-ish directions, and flexion curls toward +z (the palm
# normal). Joint order: wrist, then per finger MCP/PIP/DIP/TIP. Read-only.
MCP_OFFSETS = _frozen(
    [
        [0.033, 0.030, 0.0],  # thumb
        [0.024, 0.088, 0.0],  # index
        [0.000, 0.092, 0.0],  # middle
        [-0.023, 0.086, 0.0],  # ring
        [-0.043, 0.074, 0.0],  # pinky
    ]
)
FINGER_DIRS = _frozen(  # (5, 3) unit, in the palm plane
    [[np.sin(a), np.cos(a), 0.0] for a in np.radians([48.0, 10.0, 0.0, -10.0, -22.0])]
)
BONE_LENGTHS = _frozen(  # (5, 3) proximal/middle/distal
    [
        [0.046, 0.033, 0.026],
        [0.042, 0.026, 0.021],
        [0.046, 0.030, 0.022],
        [0.042, 0.028, 0.021],
        [0.032, 0.022, 0.018],
    ]
)
FINGER_RADII = _frozen([0.010, 0.008, 0.008, 0.008, 0.007])
PALM_RADIUS = 0.013
# (joint_a, joint_b, radius) of the 20 capsules, finger by finger: wrist ->
# MCP, then the three phalanges, the distal one 0.9 as thick
BONES = tuple(
    bone
    for f, r in enumerate(FINGER_RADII.tolist())
    for bone in (
        (0, 1 + 4 * f, PALM_RADIUS),
        (1 + 4 * f, 2 + 4 * f, r),
        (2 + 4 * f, 3 + 4 * f, r),
        (3 + 4 * f, 4 + 4 * f, r * 0.9),
    )
)
_REST_STEPS = _frozen(BONE_LENGTHS[:, :, None] * FINGER_DIRS[:, None, :])  # (5, 3, 3)
# wrist-frame joint positions at zero flexion (all bones straight)
_chain = np.cumsum(np.concatenate([MCP_OFFSETS[:, None, :], _REST_STEPS], axis=1), axis=1)
REST_JOINTS = _frozen(np.concatenate([np.zeros((1, 3)), _chain.reshape(N_JOINTS - 1, 3)]))


class FkTables(NamedTuple):
    """The skeleton-only inputs of fk_vars. Phalanx rows run finger-major
    (3 f + k); bones follow BONES; S = surface samples."""

    K: np.ndarray  # (15, 3, 3) skew matrix of each phalanx's flexion axis
    KK: np.ndarray  # (15, 3, 3) K @ K
    rest_steps: np.ndarray  # (15, 3, 1) bone length x finger direction
    mcp: np.ndarray  # (5, 1, 3) MCP offsets
    bone_a: np.ndarray  # (20,) joint index of each bone's start
    bone_b: np.ndarray  # (20,) and of its end
    refs: np.ndarray  # (20, 3) axis that each capsule's circle frame leans on
    sample_bone: np.ndarray  # (S,) bone of each surface sample
    frac: np.ndarray  # (S, 1) position along the bone, in (0, 1)
    ring_cos: np.ndarray  # (S, 1) radius x cos(golden-angle phase)
    ring_sin: np.ndarray  # (S, 1) radius x sin(golden-angle phase)


@cache
def fk_tables(surface_samples: int) -> FkTables:
    """fk_vars's inputs for a surface of `surface_samples` points, built
    once per size and read-only.

    Each finger flexes about cross(finger dir, palm normal), unit: that
    rotation curls the finger toward +z. Surface samples go to the bones
    by capsule length x radius at rest, largest remainder first, so they
    sum to surface_samples; a bone's n samples sit at fractions
    (j + 0.5) / n along it and at golden-angle phases j x 2.39996.
    """
    axes = np.stack([unit(cross(d, _PALM_NORMAL)) for d in FINGER_DIRS])
    x, y, z = axes.T
    zero = np.zeros(N_FINGERS)
    K = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(N_FINGERS, 3, 3)
    bone_a, bone_b, radii = (np.array(c) for c in zip(*BONES))
    refs = np.repeat(axes, 4, axis=0)
    refs[::4] = _PALM_NORMAL  # palm bones lie in the z = 0 plane
    weights = _row_norms(REST_JOINTS[bone_b] - REST_JOINTS[bone_a])[:, 0] * radii
    raw = weights / np.sum(weights) * surface_samples
    counts = np.floor(raw).astype(int)
    counts[np.argsort(-(raw - counts))[: surface_samples - counts.sum()]] += 1
    sample_bone = np.repeat(np.arange(len(counts)), counts)
    j = np.arange(surface_samples) - np.repeat(np.cumsum(counts) - counts, counts)
    phi = j * _GOLDEN
    tables = FkTables(
        K=np.repeat(K, 3, axis=0),
        KK=np.repeat(K @ K, 3, axis=0),
        rest_steps=_REST_STEPS.reshape(N_ANGLES, 3, 1),
        mcp=MCP_OFFSETS[:, None, :],
        bone_a=bone_a,
        bone_b=bone_b,
        refs=refs,
        sample_bone=sample_bone,
        frac=((j + 0.5) / counts[sample_bone])[:, None],
        ring_cos=(radii[sample_bone] * np.cos(phi))[:, None],
        ring_sin=(radii[sample_bone] * np.sin(phi))[:, None],
    )
    for table in tables:
        table.flags.writeable = False
    return tables


@dataclass(frozen=True)
class KinematicHand:
    """A posed hand: rigid root (s = 1) + 15 flexion angles on the one
    skeleton, with SURFACE_SAMPLES surface points.

    The FK runs once per instance, on first use of joints(), surface() or
    capsules_world, and the (joints, surface) pair is its one cache. All
    cached arrays, and the root and angle arrays they follow from, are
    copies marked read-only, so the cache cannot go stale. `rerooted` and
    `dataclasses.replace` build new instances, each with its own FK.
    """

    root_rotation: np.ndarray  # (3, 3)
    root_position: np.ndarray  # (3,)
    joint_angles: np.ndarray  # (15,) radians in [0, pi/2]

    def __post_init__(self):
        object.__setattr__(self, "root_rotation", _frozen(self.root_rotation))
        object.__setattr__(self, "root_position", _frozen(self.root_position))
        angles = _frozen(self.joint_angles).reshape(N_ANGLES)
        object.__setattr__(self, "joint_angles", angles)
        if not ((angles >= ANGLE_LO - 1e-9) & (angles <= ANGLE_HI + 1e-9)).all():
            raise ValueError("joint angles outside [0, pi/2]")
        if not np.isfinite(self.root_position).all():
            raise ValueError("root position must be finite")

    @property
    def root_pose(self) -> SimilarityTransform:
        return SimilarityTransform(self.root_rotation, self.root_position, 1.0)

    def joints(self) -> np.ndarray:
        """(21, 3) world joint positions, cached and read-only."""
        return self._fk[0]

    def surface(self) -> np.ndarray:
        """(SURFACE_SAMPLES, 3) world capsule-surface cloud, cached and
        read-only."""
        return self._fk[1]

    @cached_property
    def _fk(self):
        tape = ad.Tape(grad=False)
        j, s = root_frame_vars(
            ad.const(self.root_rotation, tape),
            ad.const(self.root_position, tape),
            *fk_vars(fk_tables(SURFACE_SAMPLES), ad.const(self.joint_angles, tape)),
        )
        return _frozen(j.data), _frozen(s.data)

    def params(self) -> np.ndarray:
        """(27,) packed root rotation (row-major 9) + position (3) + angles (15)."""
        return np.concatenate(
            [self.root_rotation.reshape(9), self.root_position, self.joint_angles]
        )

    def rerooted(self, world_to_new: SimilarityTransform) -> "KinematicHand":
        """Express the hand in another frame (e.g. object frame -> camera)."""
        pose = world_to_new.compose(self.root_pose)
        return replace(self, root_rotation=pose.R, root_position=pose.t)


def fk_vars(c: FkTables, angles: ad.Var):
    """Differentiable wrist-frame FK: joint positions (21, 3) and surface
    cloud (S, 3), for the tables of fk_tables(S). `root_frame_vars` poses
    them.

    All phalanges of a finger share its fixed flexion axis, so the
    cumulative rotation at each phalanx is a single Rodrigues rotation of
    the summed angle: I + sin(theta) K + (1 - cos(theta)) K @ K. A capsule's
    samples are A + frac * length * vhat + radius (cos(phi) n1 + sin(phi)
    n2), with vhat its unit axis, n1 = cross(vhat, ref) over its norm and
    n2 = cross(vhat, n1); the lengths and norms are taken off the tape.
    """
    fingers = ad.reshape(angles, (N_FINGERS, 3))
    th1, th2, th3 = (ad.take(fingers, np.array([k]), axis=1) for k in range(3))
    cum12 = ad.add(th1, th2)
    theta = ad.reshape(ad.concat([th1, cum12, ad.add(cum12, th3)], axis=1), (N_ANGLES, 1, 1))
    rot = ad.add(
        np.eye(3),
        ad.add(ad.mul(ad.sin(theta), c.K), ad.mul(ad.sub(1.0, ad.cos(theta)), c.KK)),
    )
    steps = ad.reshape(ad.matmul(rot, c.rest_steps), (N_FINGERS, 3, 3))
    chain = [c.mcp]  # MCP, then PIP, DIP and TIP of every finger at once
    for k in range(3):
        chain.append(ad.add(chain[-1], ad.take(steps, np.array([k]), axis=1)))
    finger_joints = ad.reshape(ad.concat(chain, axis=1), (N_JOINTS - 1, 3))
    joints = ad.concat([np.zeros((1, 3)), finger_joints], axis=0)

    seg = ad.sub(ad.take(joints, c.bone_b), ad.take(joints, c.bone_a))
    lengths = _row_norms(seg.data)
    vhat = ad.div(seg, lengths)
    n1 = ad.cross3(vhat, c.refs)
    n1 = ad.div(n1, _row_norms(n1.data))
    n2 = ad.cross3(vhat, n1)
    b = c.sample_bone
    axial = ad.mul(c.frac * lengths[b], ad.take(vhat, b))
    ring = ad.add(ad.mul(c.ring_cos, ad.take(n1, b)), ad.mul(c.ring_sin, ad.take(n2, b)))
    surface = ad.add(ad.take(joints, c.bone_a[b]), ad.add(axial, ring))
    return joints, surface


def root_frame_vars(root_R: ad.Var, root_t: ad.Var, *local: ad.Var) -> tuple:
    """Each wrist-frame (n, 3) Var posed by the root: x @ R^T + t."""
    RT = ad.permute(root_R, (1, 0))
    return tuple(ad.add(ad.matmul(x, RT), ad.reshape(root_t, (1, 3))) for x in local)


def capsules_world(hand: KinematicHand) -> list:
    """(A, B, radius) world-frame capsule segments for rendering."""
    joints = hand.joints()
    return [(joints[a], joints[b], r) for a, b, r in BONES]


def _grasp_face(instance: ArticulatedInstance, joint_index: int):
    """Pick the movable part's face opposite its joint anchor (local frame).

    "Opposite" = the face whose outward normal points most directly away
    from the anchor, i.e. minimizes anchor . normal: the axis of the
    anchor's largest |component| (the first on a tie), with the sign
    against that component (-1 when it is zero).
    """
    joint = instance.joints[joint_index]
    part = instance.parts[joint.child]
    a_local = part.rest_rotation.T @ (joint.anchor - part.rest_position)
    axis = int(np.argmax(np.abs(a_local)))
    return axis, 1.0 if a_local[axis] < 0 else -1.0


def pose_hand_grasp(instance: ArticulatedInstance, joint_state, seed) -> KinematicHand:
    """Place a grasping hand near the movable part's handle face (object frame).

    The palm faces the face center opposite the joint anchor, offset outward
    0.02-0.05 m; finger flexion is resampled until >= GRASP_MIN_CONTACTS surface
    points land within CONTACT_TAU of the part cuboids.
    """
    rng = np.random.default_rng(seed)
    joint_index = int(rng.integers(len(instance.joints)))
    axis_idx, sign = _grasp_face(instance, joint_index)
    joint = instance.joints[joint_index]
    part = instance.parts[joint.child]
    poses = part_poses_object(instance, joint_state)
    pose = poses[joint.child]

    h = part.half_extents
    face_center_local = np.zeros(3)
    face_center_local[axis_idx] = sign * h[axis_idx]
    normal_local = np.zeros(3)
    normal_local[axis_idx] = sign
    # wrap fingers across the thinner tangent dimension of the face
    tangents = [i for i in range(3) if i != axis_idx]
    wrap_axis = min(tangents, key=lambda i: h[i])
    edge_axis = [i for i in tangents if i != wrap_axis][0]

    face_center = pose.apply(face_center_local)
    normal = pose.R @ normal_local
    wrap_dir = pose.R @ np.eye(3)[wrap_axis]
    edge_dir = pose.R @ np.eye(3)[edge_axis]

    boxes = [
        transform_box(OrientedBox.from_extents(p.half_extents), pp)
        for p, pp in zip(instance.parts, poses)
    ]

    palm_reach = float(np.linalg.norm(REST_JOINTS[1 + 4 * 2]))

    for _ in range(GRASP_MAX_ATTEMPTS):
        d = rng.uniform(0.02, 0.05)
        wrap_sign = -1.0 if rng.random() < 0.5 else 1.0
        u = wrap_sign * wrap_dir
        z_root = -normal  # palm normal points at the face
        y_root = u
        x_root = unit(cross(y_root, z_root))
        y_root = cross(z_root, x_root)
        R_root = np.stack([x_root, y_root, z_root], axis=1)
        # the curl arc advances ~0.03-0.05 m along the finger direction
        # before reaching depth d, so the wrist sits well behind the face;
        # on wide faces, aim the crossing just inside the entry edge so the
        # fingers wrap an edge instead of pressing mid-face
        entry_offset = -max(h[wrap_axis] - 0.012, 0.0)
        wrist = (
            face_center
            + normal * d
            - u * palm_reach * rng.uniform(1.25, 1.60)
            + u * entry_offset
            + edge_dir * rng.uniform(-0.25, 0.25) * h[edge_axis]
        )
        angles = np.concatenate(
            [
                rng.uniform([0.35, 0.45, 0.25], [0.95, 1.25, 0.75])
                for _ in range(N_FINGERS)
            ]
        )
        hand = KinematicHand(R_root, wrist, np.clip(angles, ANGLE_LO, ANGLE_HI))
        surf = hand.surface()
        dists = np.min(
            np.stack([point_box_distance(surf, box) for box in boxes]), axis=0
        )
        if int((dists < CONTACT_TAU).sum()) >= GRASP_MIN_CONTACTS:
            return hand
    raise GraspFailure(
        f"no flexion sample reached {GRASP_MIN_CONTACTS} contacts in {GRASP_MAX_ATTEMPTS} tries"
    )
