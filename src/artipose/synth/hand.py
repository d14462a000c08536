"""Capsule-skeleton proxy hand: forward kinematics and grasp synthesis.

21 joints (wrist + 4 per finger), 15 flexion angles (3 per finger), fixed
bone lengths. FK is written once over the autodiff engine, as a wrist-frame
part (`fk_vars`) and the root transform (`root_frame_vars`). Generation
runs both on constants and a KinematicHand caches each; its `rerooted`
copies reuse its wrist-frame part, so that part runs once per hand pose.
Hand-pose optimization runs both on parameter Vars.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .. import autodiff as ad
from ..errors import GraspFailure
from ..geometry import OrientedBox, SimilarityTransform, cross, point_box_distance, transform_box
from .instances import ArticulatedInstance, part_poses_object

N_FINGERS = 5
N_ANGLES = 15
N_JOINTS = 21

ANGLE_LO = 0.0
ANGLE_HI = np.pi / 2

_GOLDEN = 2.399963229728653

# pose_hand_grasp resamples the flexion until this many surface points lie
# within tau of the part cuboids, and gives up after this many draws.
GRASP_MIN_CONTACTS = 20
GRASP_MAX_ATTEMPTS = 50


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _frozen(a) -> np.ndarray:
    """A read-only float64 copy."""
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class HandTemplate:
    """Fixed skeleton: wrist-local MCP offsets, finger directions, bone sizes.

    The palm plane is z = 0 in the wrist frame, fingers extend along +y-ish
    directions, and flexion curls toward +z (the palm normal).
    """

    mcp_offsets: np.ndarray  # (5, 3)
    finger_dirs: np.ndarray  # (5, 3) unit, in the palm plane
    bone_lengths: np.ndarray  # (5, 3) proximal/middle/distal
    finger_radii: np.ndarray  # (5,)
    palm_radius: float
    surface_samples: int

    def flex_axes(self) -> np.ndarray:
        """Per-finger flexion axis: cross(finger dir, palm normal), unit.

        Rotating the finger direction about this axis curls it toward +z
        (the palm normal).
        """
        z = np.array([0.0, 0.0, 1.0])
        return np.stack([_unit(cross(d, z)) for d in self.finger_dirs])

    def bones(self) -> list:
        """(joint_a, joint_b, radius) index pairs into the 21-joint layout.

        Joint order: wrist, then per finger MCP/PIP/DIP/TIP.
        """
        out = []
        for f in range(N_FINGERS):
            base = 1 + 4 * f
            r = float(self.finger_radii[f])
            out.append((0, base, self.palm_radius))  # wrist -> MCP
            out.append((base, base + 1, r))
            out.append((base + 1, base + 2, r))
            out.append((base + 2, base + 3, r * 0.9))
        return out

    def sample_allocation(self) -> list:
        """Deterministic per-bone surface sample counts summing to surface_samples."""
        bones = self.bones()
        lengths = []
        joints = _rest_joint_positions(self)
        for a, b, r in bones:
            lengths.append(np.linalg.norm(joints[b] - joints[a]) * r)
        weights = np.asarray(lengths) / np.sum(lengths)
        raw = weights * self.surface_samples
        counts = np.floor(raw).astype(int)
        # largest remainder keeps the exact total
        remainder = raw - counts
        missing = self.surface_samples - counts.sum()
        for idx in np.argsort(-remainder)[:missing]:
            counts[idx] += 1
        return counts.tolist()


def default_hand_template(surface_samples: int = 512) -> HandTemplate:
    splay = np.radians([48.0, 10.0, 0.0, -10.0, -22.0])
    dirs = np.stack([np.array([np.sin(a), np.cos(a), 0.0]) for a in splay])
    return HandTemplate(
        mcp_offsets=np.array(
            [
                [0.033, 0.030, 0.0],  # thumb
                [0.024, 0.088, 0.0],  # index
                [0.000, 0.092, 0.0],  # middle
                [-0.023, 0.086, 0.0],  # ring
                [-0.043, 0.074, 0.0],  # pinky
            ]
        ),
        finger_dirs=dirs,
        bone_lengths=np.array(
            [
                [0.046, 0.033, 0.026],
                [0.042, 0.026, 0.021],
                [0.046, 0.030, 0.022],
                [0.042, 0.028, 0.021],
                [0.032, 0.022, 0.018],
            ]
        ),
        finger_radii=np.array([0.010, 0.008, 0.008, 0.008, 0.007]),
        palm_radius=0.013,
        surface_samples=int(surface_samples),
    )


def _rest_joint_positions(template: HandTemplate) -> np.ndarray:
    """Wrist-frame joint positions at zero flexion (all bones straight)."""
    joints = np.zeros((N_JOINTS, 3))
    for f in range(N_FINGERS):
        base = 1 + 4 * f
        p = template.mcp_offsets[f].copy()
        joints[base] = p
        for seg in range(3):
            p = p + template.bone_lengths[f, seg] * template.finger_dirs[f]
            joints[base + 1 + seg] = p
    return joints


@dataclass(frozen=True)
class KinematicHand:
    """A posed hand: rigid root (s = 1) + 15 flexion angles + template.

    The FK runs once per instance, on first use of joints(), surface() or
    capsules_world, and the (joints, surface) pair is cached, as is its
    wrist-frame pair. All cached arrays, and the root and angle arrays they
    follow from, are copies marked read-only, so the caches cannot go
    stale. `rerooted` builds a new instance that shares the wrist-frame
    pair, which does not depend on the root, and runs only the root
    transform; `dataclasses.replace` builds one with a fresh FK.
    """

    root_rotation: np.ndarray  # (3, 3)
    root_position: np.ndarray  # (3,)
    joint_angles: np.ndarray  # (15,) radians in [0, pi/2]
    template: HandTemplate

    def __post_init__(self):
        object.__setattr__(self, "root_rotation", _frozen(self.root_rotation))
        object.__setattr__(self, "root_position", _frozen(self.root_position))
        angles = _frozen(self.joint_angles).reshape(N_ANGLES)
        object.__setattr__(self, "joint_angles", angles)
        if ((angles < ANGLE_LO - 1e-9) | (angles > ANGLE_HI + 1e-9)).any():
            raise ValueError("joint angles outside [0, pi/2]")

    @property
    def root_pose(self) -> SimilarityTransform:
        return SimilarityTransform(self.root_rotation, self.root_position, 1.0)

    def joints(self) -> np.ndarray:
        """(21, 3) world joint positions, cached and read-only."""
        return self._fk[0]

    def surface(self) -> np.ndarray:
        """(surface_samples, 3) world capsule-surface cloud, cached and
        read-only."""
        return self._fk[1]

    @cached_property
    def _local(self):
        tape = ad.Tape(grad=False)
        j, s = fk_vars(self.template, ad.const(self.joint_angles, tape))
        return _frozen(j.data), _frozen(s.data)

    @cached_property
    def _fk(self):
        tape = ad.Tape(grad=False)
        j, s = root_frame_vars(
            ad.const(self.root_rotation, tape),
            ad.const(self.root_position, tape),
            *(ad.const(a, tape) for a in self._local),
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
        moved = replace(self, root_rotation=pose.R, root_position=pose.t)
        moved.__dict__["_local"] = self._local  # same angles and template
        return moved


def _rodrigues_var(axis: np.ndarray, theta: ad.Var, tape: ad.Tape) -> ad.Var:
    K = np.array(
        [
            [0, -axis[2], axis[1]],
            [axis[2], 0, -axis[0]],
            [-axis[1], axis[0], 0],
        ]
    )
    eye = ad.const(np.eye(3), tape)
    s = ad.sin(theta)
    c = ad.cos(theta)
    one_minus_c = ad.sub(ad.const(np.ones(()), tape), c)
    return ad.add(eye, ad.add(ad.mul(s, ad.const(K, tape)), ad.mul(one_minus_c, ad.const(K @ K, tape))))


def fk_vars(template: HandTemplate, angles: ad.Var):
    """Differentiable wrist-frame FK: joint positions (21, 3) and surface
    cloud (S, 3). `root_frame_vars` poses them.

    All per-finger rotations share the finger's fixed flexion axis, so the
    cumulative rotation at each phalanx is a single Rodrigues rotation of the
    summed angle.
    """
    tape = angles.tape
    axes = template.flex_axes()
    joint_rows = [ad.const(np.zeros(3), tape)]  # wrist at root origin
    bone_endpoints = []  # (A, B, radius, ref_axis or None)

    for f in range(N_FINGERS):
        mcp = ad.const(template.mcp_offsets[f], tape)
        u = template.finger_dirs[f]
        a_f = axes[f]
        th1 = ad.take(angles, np.array([3 * f]), axis=0)
        th2 = ad.take(angles, np.array([3 * f + 1]), axis=0)
        th3 = ad.take(angles, np.array([3 * f + 2]), axis=0)
        cum12 = ad.add(th1, th2)
        cum123 = ad.add(cum12, th3)
        prev = mcp
        joint_rows.append(mcp)
        bone_endpoints.append((joint_rows[0], mcp, template.palm_radius, None))
        for seg, theta in enumerate((th1, cum12, cum123)):
            R_seg = _rodrigues_var(a_f, ad.reshape(theta, ()), tape)
            step = ad.matmul(R_seg, ad.const(template.bone_lengths[f, seg] * u, tape))
            nxt = ad.add(prev, step)
            joint_rows.append(nxt)
            radius = template.finger_radii[f] * (0.9 if seg == 2 else 1.0)
            bone_endpoints.append((prev, nxt, radius, a_f))
            prev = nxt

    joints_local = ad.stack(joint_rows, axis=0)  # (21, 3)

    counts = template.sample_allocation()
    surf_rows = []
    for (A, B, radius, ref), n_b in zip(bone_endpoints, counts):
        if n_b == 0:
            continue
        frac = (np.arange(n_b) + 0.5) / n_b
        phi = np.arange(n_b) * _GOLDEN
        seg = ad.sub(B, A)
        length = float(np.linalg.norm(seg.data))
        vhat = ad.div(seg, length)
        if ref is None:
            # palm bones lie in the z = 0 plane; palm normal is a valid ref
            ref = np.array([0.0, 0.0, 1.0])
        n1 = ad.cross3(vhat, ad.const(ref, tape))
        n1 = ad.div(n1, float(np.linalg.norm(n1.data)))
        n2 = ad.cross3(vhat, n1)
        pts = ad.add(
            ad.reshape(A, (1, 3)),
            ad.add(
                ad.mul(ad.const((frac * length)[:, None], tape), ad.reshape(vhat, (1, 3))),
                ad.add(
                    ad.mul(
                        ad.const((radius * np.cos(phi))[:, None], tape),
                        ad.reshape(n1, (1, 3)),
                    ),
                    ad.mul(
                        ad.const((radius * np.sin(phi))[:, None], tape),
                        ad.reshape(n2, (1, 3)),
                    ),
                ),
            ),
        )
        surf_rows.append(pts)
    surface_local = ad.concat(surf_rows, axis=0)
    return joints_local, surface_local


def root_frame_vars(root_R: ad.Var, root_t: ad.Var, *local: ad.Var) -> tuple:
    """Each wrist-frame (n, 3) Var posed by the root: x @ R^T + t."""
    RT = ad.permute(root_R, (1, 0))
    return tuple(ad.add(ad.matmul(x, RT), ad.reshape(root_t, (1, 3))) for x in local)


def capsules_world(hand: KinematicHand) -> list:
    """(A, B, radius) world-frame capsule segments for rendering."""
    joints = hand.joints()
    return [(joints[a], joints[b], r) for a, b, r in hand.template.bones()]


def _grasp_face(instance: ArticulatedInstance, joint_index: int):
    """Pick the movable part's face opposite its joint anchor (local frame).

    "Opposite" = the face whose outward normal points most directly away
    from the anchor, i.e. minimizes anchor . normal.
    """
    joint = instance.joints[joint_index]
    part = instance.parts[joint.child]
    a_local = part.rest_rotation.T @ (joint.anchor - part.rest_position)
    best, best_score = None, np.inf
    for axis in range(3):
        for sign in (-1.0, 1.0):
            score = sign * a_local[axis]
            if score < best_score:
                best_score = score
                best = (axis, sign)
    return best


def pose_hand_grasp(
    instance: ArticulatedInstance,
    joint_state,
    seed,
    tau: float = 0.01,
    template: HandTemplate | None = None,
) -> KinematicHand:
    """Place a grasping hand near the movable part's handle face (object frame).

    The palm faces the face center opposite the joint anchor, offset outward
    0.02-0.05 m; finger flexion is resampled until >= GRASP_MIN_CONTACTS surface
    points land within tau of the part cuboids.
    """
    rng = np.random.default_rng(seed)
    template = template or default_hand_template()
    joint_index = int(rng.integers(len(instance.joints)))
    axis_idx, sign = _grasp_face(instance, joint_index)
    joint = instance.joints[joint_index]
    part = instance.parts[joint.child]
    pose = part_poses_object(instance, joint_state)[joint.child]

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
        for p, pp in zip(instance.parts, part_poses_object(instance, joint_state))
    ]

    palm_reach = float(np.linalg.norm(_rest_joint_positions(template)[1 + 4 * 2]))

    for _ in range(GRASP_MAX_ATTEMPTS):
        d = rng.uniform(0.02, 0.05)
        wrap_sign = -1.0 if rng.random() < 0.5 else 1.0
        u = wrap_sign * wrap_dir
        z_root = -normal  # palm normal points at the face
        y_root = u
        x_root = _unit(cross(y_root, z_root))
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
        hand = KinematicHand(R_root, wrist, np.clip(angles, ANGLE_LO, ANGLE_HI), template)
        surf = hand.surface()
        dists = np.min(
            np.stack([point_box_distance(surf, box) for box in boxes]), axis=0
        )
        if int((dists < tau).sum()) >= GRASP_MIN_CONTACTS:
            return hand
    raise GraspFailure(
        f"no flexion sample reached {GRASP_MIN_CONTACTS} contacts in {GRASP_MAX_ATTEMPTS} tries"
    )
