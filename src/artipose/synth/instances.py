"""Procedural cuboid templates for the five articulated categories.

Every instance is a base cuboid plus one movable cuboid (DRAWERS for the
drawer category), each driven by a single revolute or prismatic joint
relative to the base. Objects live in a z-up frame and sit on the z = 0
plane; dimensions are meters at desk scale and each template dimension is
jittered +/-25% per instance seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import SimilarityTransform

CATEGORIES = ("laptop", "drawer", "safe", "microwave", "trashcan")

REVOLUTE = "revolute"
PRISMATIC = "prismatic"

DRAWERS = 3  # sliding parts of every drawer-category instance


@dataclass(frozen=True)
class PartSpec:
    """One cuboid part: half extents plus its rest placement in object frame."""

    half_extents: np.ndarray  # (3,)
    rest_rotation: np.ndarray  # (3, 3)
    rest_position: np.ndarray  # (3,)

    def __post_init__(self):
        object.__setattr__(
            self, "half_extents", np.asarray(self.half_extents, dtype=np.float64)
        )
        object.__setattr__(
            self, "rest_rotation", np.asarray(self.rest_rotation, dtype=np.float64)
        )
        object.__setattr__(
            self, "rest_position", np.asarray(self.rest_position, dtype=np.float64)
        )
        if (self.half_extents <= 0).any():
            raise ValueError("part half extents must be positive")


@dataclass(frozen=True)
class JointSpec:
    """Single-DOF joint articulating part `child` against the base."""

    kind: str  # REVOLUTE | PRISMATIC
    axis: np.ndarray  # unit (3,), object frame
    anchor: np.ndarray  # (3,), object frame (rest pivot / rest back-face ref)
    limits: tuple  # (lo, hi): radians for revolute, meters for prismatic
    child: int

    def __post_init__(self):
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=np.float64))
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=np.float64))
        object.__setattr__(self, "limits", (float(self.limits[0]), float(self.limits[1])))
        if self.kind not in (REVOLUTE, PRISMATIC):
            raise ValueError(f"unknown joint kind {self.kind!r}")
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-9:
            raise ValueError("joint axis must be unit norm")
        if not self.limits[0] < self.limits[1]:
            raise ValueError("joint limits must satisfy lo < hi")


@dataclass(frozen=True)
class ArticulatedInstance:
    category: str
    parts: tuple  # (PartSpec, ...) part 0 is the base
    joints: tuple  # (JointSpec, ...) joint j moves part j+1

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("an articulated instance needs >= 2 parts")
        if len(self.joints) != len(self.parts) - 1:
            raise ValueError("expected one joint per movable part")

    def joint_limits(self) -> np.ndarray:
        return np.array([j.limits for j in self.joints])


def _axis_rotation(axis: np.ndarray, theta: float) -> np.ndarray:
    K = np.array(
        [
            [0, -axis[2], axis[1]],
            [axis[2], 0, -axis[0]],
            [-axis[1], axis[0], 0],
        ]
    )
    return np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * K @ K


def part_poses_object(instance: ArticulatedInstance, joint_state) -> list:
    """Object-frame SimilarityTransform of every part at the given joint values."""
    q = np.asarray(joint_state, dtype=np.float64).reshape(len(instance.joints))
    poses = [
        SimilarityTransform(
            instance.parts[0].rest_rotation, instance.parts[0].rest_position, 1.0
        )
    ]
    for joint, value in zip(instance.joints, q):
        lo, hi = joint.limits
        if not lo - 1e-9 <= value <= hi + 1e-9:
            raise ValueError(f"joint value {value} outside limits [{lo}, {hi}]")
        part = instance.parts[joint.child]
        if joint.kind == REVOLUTE:
            R_j = _axis_rotation(joint.axis, value)
            R = R_j @ part.rest_rotation
            t = joint.anchor + R_j @ (part.rest_position - joint.anchor)
        else:
            R = part.rest_rotation
            t = part.rest_position + joint.axis * value
        poses.append(SimilarityTransform(R, t, 1.0))
    return poses


def _jitter(rng: np.random.Generator, dims) -> np.ndarray:
    dims = np.asarray(dims, dtype=np.float64)
    return dims * rng.uniform(0.75, 1.25, size=dims.shape)


def make_instance(category: str, seed: int) -> ArticulatedInstance:
    """Deterministically build an instance of a category from a seed."""
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}; expected one of {CATEGORIES}")
    rng = np.random.default_rng(
        np.random.SeedSequence([CATEGORIES.index(category), int(seed)])
    )
    eye = np.eye(3)

    if category == "laptop":
        base_h = _jitter(rng, [0.16, 0.11, 0.012])
        lid_h = np.array([base_h[0], base_h[1] * 0.95, 1.0])
        lid_h[2] = 0.006 * rng.uniform(0.75, 1.25)
        parts = (
            PartSpec(base_h, eye, [0.0, 0.0, base_h[2]]),
            PartSpec(
                lid_h, eye, [0.0, base_h[1] - lid_h[1], 2 * base_h[2] + lid_h[2]]
            ),
        )
        joints = (
            JointSpec(
                REVOLUTE,
                [-1.0, 0.0, 0.0],
                [0.0, base_h[1], 2 * base_h[2]],
                (0.0, np.radians(135.0)),
                child=1,
            ),
        )

    elif category == "drawer":
        body_h = _jitter(rng, [0.18, 0.17, 0.16])
        slot = 2 * body_h[2] / DRAWERS
        parts = [PartSpec(body_h, eye, [0.0, 0.0, body_h[2]])]
        joints = []
        for i in range(DRAWERS):
            d_h = np.array([body_h[0] * 0.85, body_h[1] * 0.90, slot * 0.42])
            center_y = body_h[1] + 0.005 - d_h[1]  # front face slightly proud
            center = np.array([0.0, center_y, slot * (i + 0.5)])
            parts.append(PartSpec(d_h, eye, center))
            joints.append(
                JointSpec(
                    PRISMATIC,
                    [0.0, 1.0, 0.0],
                    center - [0.0, d_h[1], 0.0],  # rest back-face center
                    (0.0, 0.30),
                    child=i + 1,
                )
            )
        parts, joints = tuple(parts), tuple(joints)

    elif category in ("safe", "microwave"):
        dims = [0.15, 0.14, 0.19] if category == "safe" else [0.20, 0.16, 0.12]
        body_h = _jitter(rng, dims)
        door_h = np.array([body_h[0] * 0.82, 0.009, body_h[2] * 0.82])
        door_c = np.array([0.0, body_h[1] + door_h[1], body_h[2]])
        parts = (
            PartSpec(body_h, eye, [0.0, 0.0, body_h[2]]),
            PartSpec(door_h, eye, door_c),
        )
        joints = (
            JointSpec(
                REVOLUTE,
                [0.0, 0.0, 1.0],
                door_c - [door_h[0], 0.0, 0.0],  # hinge on the left vertical edge
                (0.0, np.radians(120.0)),
                child=1,
            ),
        )

    else:  # trashcan
        body_h = _jitter(rng, [0.11, 0.11, 0.19])
        lid_h = np.array([body_h[0] * 1.05, body_h[1] * 1.05, 0.012])
        lid_c = np.array([0.0, 0.0, 2 * body_h[2] + lid_h[2]])
        parts = (
            PartSpec(body_h, eye, [0.0, 0.0, body_h[2]]),
            PartSpec(lid_h, eye, lid_c),
        )
        joints = (
            JointSpec(
                REVOLUTE,
                [-1.0, 0.0, 0.0],
                [0.0, body_h[1], 2 * body_h[2]],  # hinge along the back top edge
                (0.0, np.radians(90.0)),
                child=1,
            ),
        )

    return ArticulatedInstance(
        category=category,
        parts=parts,
        joints=joints,
    )
