"""Test-time adaptation: discriminator-guided estimator refinement and
contact-guided hand pose optimization.

adapt_object clones the estimator per scene and takes Adam steps on the
generator term (D(layout) - 1)^2 from estimator.assemble_graph (a batch of
one), scene_layouts and priors.g_adv_loss_graph, the training path. It adapts
the heads on a frozen encoder: the cloud is encoded once, off the gradient
tape, and before/after come from the first and last passes. D scores the
layout with its parameters as constants, so a step's tape holds the heads'
parameters alone and its backward computes no D weight gradient.
A scene it cannot adapt, from its first estimate on, comes back as an
AdaptResult whose `aborted` names the step and the reason.

optimize_hand descends the symmetric chamfer between the FK hand surface and
the contact point set over the 24 hand parameters (root 6D rotation +
translation + 15 flexion angles), keeping the best iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffgeom as dg
from . import nn
from .estimator import Estimator, HeadOutput, assemble_graph, assemble_pose, is_int, is_number, point_labels, scene_layouts
from .geometry import box_half_extents, matrix_to_rot6d
from .priors import Discriminator, g_adv_loss_graph
from .synth.hand import ANGLE_HI, ANGLE_LO, SURFACE_SAMPLES, KinematicHand, fk_tables, fk_vars, root_frame_vars

HEADS_ONLY = "heads_only"


def _check_lr(lr) -> None:
    """ValueError unless lr is a positive, finite number (not a bool)."""
    if not is_number(lr):
        raise ValueError("lr must be a number")
    if not lr > 0:
        raise ValueError("lr must be positive")
    if not math.isfinite(lr):
        raise ValueError("lr must be finite")


@dataclass(frozen=True)
class TtaConfig:
    steps: int = 10
    lr: float = 1e-4
    scope: str = HEADS_ONLY  # the one scope, which perfbench names; adapt_object does not read it

    def __post_init__(self):
        if not is_int(self.steps):
            raise ValueError("steps must be an integer")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        _check_lr(self.lr)
        if self.scope != HEADS_ONLY:
            raise ValueError(f"unknown scope {self.scope!r}; the one scope is {HEADS_ONLY!r}")


@dataclass(frozen=True)
class HandOptConfig:
    iters: int = 200
    lr: float = 1e-2

    def __post_init__(self):
        if not is_int(self.iters):
            raise ValueError("iters must be an integer")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        _check_lr(self.lr)


@dataclass
class AdaptResult:
    before: list  # PartPoseEstimate per part
    after: list
    trace: list  # adversarial loss per step (step 0 = initial value)
    aborted: str = ""  # "step k: ..." when adaptation failed; then after is before


def adapt_object(
    est: Estimator,
    disc: Discriminator,
    cloud: np.ndarray,
    canonical_boxes: list,
    cfg: TtaConfig,
) -> AdaptResult:
    """Refine one scene's estimate by descending (D(boxes) - 1)^2.

    Neither the caller's estimator nor the discriminator changes; the cloud
    is encoded once, off the gradient tape, and only the heads descend. Of
    steps + 1 passes the first gives `before`; the last gives `after`,
    records nothing, only adds the final value to the trace, and may fail
    without aborting the run.

    A scene it cannot adapt is returned, never raised: `aborted` reads
    "step k: part p: reason" or "step k: non-finite loss", `after` is
    `before` and the trace holds the values of steps 0..k-1. A first
    estimate with an invalid part aborts at step 0, whatever the step count,
    naming the first invalid part of `before` and its reason; a later pass
    that has no layout (scene_layouts's reason) or a non-finite loss aborts
    at its step.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    cloud32 = est.prepare_input(cloud)
    work = est.clone()
    extents = box_half_extents(canonical_boxes)[None]  # a batch of one scene
    frozen = work.encode(cloud32)

    trace = []
    for step in range(cfg.steps + 1):
        final = step == cfg.steps
        tape = ad.Tape(grad=not final)
        seg, nocs, rot = work.heads_graph(tape, *frozen.consts(tape))
        pred = HeadOutput(seg_logits=seg.data, nocs=nocs.data, rot6d=rot.data[0])
        if step == 0:
            before = assemble_pose(cloud, pred, canonical_boxes)
            bad = next((p for p in before if not p.valid), None)
            if bad is not None:
                return AdaptResult(before, before, trace, aborted=f"step 0: part {bad.part}: {bad.reason}")
        labels = point_labels(seg.data)[None]
        *_, boxes, reasons = assemble_graph(tape, cloud[None], labels, nocs, rot, extents)
        (layout,) = scene_layouts(boxes, reasons)
        if isinstance(layout, str):
            if final:
                break
            return AdaptResult(before, before, trace, aborted=f"step {step}: {layout}")
        loss = g_adv_loss_graph(disc, tape, [layout])
        value = float(loss.data)
        if not (final or np.isfinite(value)):
            return AdaptResult(before, before, trace, aborted=f"step {step}: non-finite loss")
        trace.append(value)
        if final:
            break

        nn.descend(tape, loss, [work.store], cfg.lr)

    after = assemble_pose(cloud, pred, canonical_boxes)
    return AdaptResult(before, after, trace)


@dataclass
class HandOptResult:
    hand: KinematicHand
    trace: list  # chamfer value per iteration (index 0 = initial)
    aborted: str = ""


def optimize_hand(
    hand_init: KinematicHand,
    contact_map: np.ndarray,
    obj_cloud: np.ndarray,
    cfg: HandOptConfig,
) -> HandOptResult:
    """Minimize the symmetric chamfer between the hand surface and the
    contact point set; returns the best iterate."""
    contact_map = np.asarray(contact_map).astype(bool)
    obj_cloud = np.asarray(obj_cloud, dtype=np.float64)
    C = obj_cloud[contact_map]
    if len(C) == 0:
        return HandOptResult(hand_init, [], aborted="no contact points")

    store = nn.ParamStore()
    store.add("r6", matrix_to_rot6d(hand_init.root_rotation))
    store.add("t", hand_init.root_position)
    store.add("ang", hand_init.joint_angles)

    def chamfer_at(tape):
        r6 = store.use("r6", tape, dtype=np.float64)
        t = store.use("t", tape, dtype=np.float64)
        ang = store.use("ang", tape, dtype=np.float64)
        R, degenerate = dg.rot6d_to_matrix(r6)
        (surface,) = root_frame_vars(R, t, fk_vars(fk_tables(SURFACE_SAMPLES), ang)[1])
        return dg.chamfer_fixed(surface, ad.const(C, tape)), R, degenerate

    def snapshot(R):
        return KinematicHand(
            R.data,
            store.params["t"].astype(np.float64),
            np.clip(store.params["ang"].astype(np.float64), ANGLE_LO, ANGLE_HI),
        )

    trace = []
    best_loss, best_hand = np.inf, hand_init
    for it in range(cfg.iters + 1):
        tape = ad.Tape(grad=it < cfg.iters)
        loss, R, degenerate = chamfer_at(tape)
        if degenerate:
            return HandOptResult(best_hand, trace, aborted=f"iter {it}: degenerate root rotation")
        value = float(loss.data)
        if not np.isfinite(value):
            return HandOptResult(best_hand, trace, aborted=f"iter {it}: non-finite loss")
        trace.append(value)
        if value < best_loss:
            best_loss, best_hand = value, snapshot(R)
        if it == cfg.iters:
            break
        nn.descend(tape, loss, [store], cfg.lr)
        store.params["ang"][...] = np.clip(store.params["ang"], ANGLE_LO, ANGLE_HI)
        store.version += 1
    return HandOptResult(best_hand, trace)
