"""Procedural synthetic dataset: articulated instances, proxy hands, scenes."""

from .instances import (
    CATEGORIES,
    ArticulatedInstance,
    JointSpec,
    PartSpec,
    make_instance,
    part_poses_object,
)
from .hand import KinematicHand, pose_hand_grasp
from .render import Camera, render_partial_cloud, sample_camera
from .scene import SceneRecord, sample_scene
from .io import generate_dataset, load_dataset, load_manifest

__all__ = [
    "CATEGORIES",
    "ArticulatedInstance",
    "JointSpec",
    "PartSpec",
    "make_instance",
    "part_poses_object",
    "KinematicHand",
    "pose_hand_grasp",
    "Camera",
    "sample_camera",
    "render_partial_cloud",
    "SceneRecord",
    "sample_scene",
    "generate_dataset",
    "load_dataset",
    "load_manifest",
]
