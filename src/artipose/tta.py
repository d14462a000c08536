"""Test-time adaptation: discriminator-guided estimator refinement and
contact-guided hand pose optimization.

adapt_object clones the estimator per scene and takes Adam steps on the
generator term (D(layout) - 1)^2 from estimator.layout_graph and
priors.g_adv_loss_graph, the training path; heads_only scope encodes once,
off the gradient tape, and before/after come from the first and last passes.

optimize_hand descends the symmetric chamfer between the FK hand surface and
the contact point set over the 24 hand parameters (root 6D rotation +
translation + 15 flexion angles), keeping the best iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffgeom as dg
from . import nn
from .errors import DegenerateFit, DegenerateRotation, TooFewPoints
from .estimator import Estimator, HeadOutput, assemble_pose, layout_graph
from .geometry import matrix_to_rot6d, rot6d_to_matrix
from .priors import Discriminator, g_adv_loss_graph
from .synth.hand import ANGLE_HI, ANGLE_LO, KinematicHand, fk_vars, root_frame_vars

HEADS_ONLY = "heads_only"
FULL_ENCODER = "full_encoder"


@dataclass(frozen=True)
class TtaConfig:
    steps: int = 10
    lr: float = 1e-4
    scope: str = HEADS_ONLY

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.scope not in (HEADS_ONLY, FULL_ENCODER):
            raise ValueError(f"unknown scope {self.scope!r}")


@dataclass(frozen=True)
class HandOptConfig:
    iters: int = 200
    lr: float = 1e-2

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError("iters must be >= 1")


@dataclass
class AdaptResult:
    before: list  # PartPoseEstimate per part
    after: list
    trace: list  # adversarial loss per step (step 0 = initial value)
    aborted: str = ""  # nonempty = adaptation failed, after == before


def adapt_object(
    est: Estimator,
    disc: Discriminator,
    cloud: np.ndarray,
    canonical_boxes: list,
    cfg: TtaConfig = TtaConfig(),
) -> AdaptResult:
    """Refine one scene's estimate by descending (D(boxes) - 1)^2.

    Neither the caller's estimator nor the discriminator changes; heads_only
    scope encodes once, off the gradient tape. Of steps + 1 passes the first
    gives `before`; the last gives `after`, records nothing, only adds the
    final value to the trace, and may fail without aborting the run.

    Raises TooFewPoints when the first estimate leaves a part fewer than 3
    member points, and DegenerateFit, carrying the part's reason, when a
    part has the points but its fit is degenerate.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    cloud32 = est.prepare_input(cloud)
    work = est.clone()
    half_extents = np.stack([b.vertices[7] for b in canonical_boxes])
    frozen = work.encode(cloud32) if cfg.scope == HEADS_ONLY else None

    trace = []
    for step in range(cfg.steps + 1):
        final = step == cfg.steps
        tape = ad.Tape(grad=not final)
        if frozen is None:
            z, pooled = work.encode_graph(tape, cloud32[None])
        else:
            z, pooled = ad.const(frozen.z, tape), ad.const(frozen.global_feat[None], tape)
        seg, nocs, rot = work.heads_graph(tape, z, pooled)
        pred = HeadOutput(seg_logits=seg.data, nocs=nocs.data, rot6d=rot.data[0])
        if step == 0:
            before = assemble_pose(cloud, pred, canonical_boxes)
            bad = next((p for p in before if not p.valid), None)
            if bad is not None:
                if len(bad.members) < 3:
                    raise TooFewPoints(bad.part, len(bad.members))
                raise DegenerateFit(bad.part, bad.reason)
        layout = layout_graph(
            tape,
            cloud,
            np.argmax(seg.data, axis=1),
            nocs,
            ad.reshape(rot, (work.spec.part_count, 6)),
            half_extents,
        )
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

        work.store.zero_grads()
        tape.backward(loss)
        work.store.flush_tape_grads(tape)
        nn.adam_step(work.store, lr=cfg.lr)

    after = assemble_pose(cloud, pred, canonical_boxes)
    return AdaptResult(before, after, trace)


@dataclass
class HandOptResult:
    hand: KinematicHand
    trace: list  # chamfer value per iteration (index 0 = initial)
    aborted: str = ""


def hand_param_vector(hand: KinematicHand) -> np.ndarray:
    """(24,) optimization vector: root 6D rotation + translation + angles."""
    return np.concatenate(
        [matrix_to_rot6d(hand.root_rotation), hand.root_position, hand.joint_angles]
    )


def optimize_hand(
    hand_init: KinematicHand,
    contact_map: np.ndarray,
    obj_cloud: np.ndarray,
    cfg: HandOptConfig = HandOptConfig(),
) -> HandOptResult:
    """Minimize the symmetric chamfer between the hand surface and the
    contact point set; returns the best iterate."""
    contact_map = np.asarray(contact_map).astype(bool)
    obj_cloud = np.asarray(obj_cloud, dtype=np.float64)
    C = obj_cloud[contact_map]
    if len(C) == 0:
        return HandOptResult(hand_init, [], aborted="no contact points")

    store = nn.ParamStore()
    store.add("r6", hand_param_vector(hand_init)[:6])
    store.add("t", hand_init.root_position)
    store.add("ang", hand_init.joint_angles)
    template = hand_init.template

    def chamfer_at(tape):
        r6 = store.use("r6", tape, dtype=np.float64)
        t = store.use("t", tape, dtype=np.float64)
        ang = store.use("ang", tape, dtype=np.float64)
        R = dg.rot6d_to_matrix(r6)
        (surface,) = root_frame_vars(R, t, fk_vars(template, ang)[1])
        return dg.chamfer_fixed(surface, ad.const(C, tape))

    def snapshot():
        return KinematicHand(
            rot6d_to_matrix(store.params["r6"]),
            store.params["t"].astype(np.float64),
            np.clip(store.params["ang"].astype(np.float64), ANGLE_LO, ANGLE_HI),
            template,
        )

    trace = []
    best_loss, best_hand = np.inf, hand_init
    for it in range(cfg.iters + 1):
        tape = ad.Tape(grad=it < cfg.iters)
        try:
            loss = chamfer_at(tape)
        except DegenerateRotation:
            return HandOptResult(best_hand, trace, aborted=f"iter {it}: degenerate root rotation")
        value = float(loss.data)
        if not np.isfinite(value):
            return HandOptResult(best_hand, trace, aborted=f"iter {it}: non-finite loss")
        trace.append(value)
        if value < best_loss:
            best_loss, best_hand = value, snapshot()
        if it == cfg.iters:
            break
        store.zero_grads()
        tape.backward(loss)
        store.flush_tape_grads(tape)
        nn.adam_step(store, lr=cfg.lr)
        store.params["ang"][...] = np.clip(store.params["ang"], ANGLE_LO, ANGLE_HI)
        store.version += 1
    return HandOptResult(best_hand, trace)
