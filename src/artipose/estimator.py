"""Multi-branch object pose estimator: point encoder, three heads, pose
assembly through the closed-form similarity fit, the training loop, and
`Models`, the one reader and writer of a checkpoint's networks.

Architecture: a shared per-point MLP (3 -> 64 -> 128) gives each point a
local feature; its per-scene max-pool, broadcast back and concatenated,
makes the per-point feature z = [local | max-pool] of width 256. Three MLP
heads predict part segmentation (hand + P parts), a per-point NOCS
3-vector, and one 6D rotation per part (from the pooled feature alone).
Translation and scale are recovered analytically, so box corners are
differentiable functions of the head outputs.

The graphs never build z. The seg and NOCS first layers compute local @
W0[:L] per point and add max-pool @ W0[L:] once per scene as the fused
`linear`'s shift; the rotation head's P soft-pooled part features come from
one stacked (P, N) @ (N, L) product per scene. The pose fit (assemble_graph)
is one batched pass over every part of a batch, with no per-part loop: the
member masks, Gram-Schmidt, closed forms and posed corners are stacked ops,
and each part's reason for having no fit is computed alongside.

On a recording tape two per-point activations are rebuilt, not held (see
"Rebuilt activations" in autodiff.py): the encoder's first layer (B*N x 64,
a K = 3 product) and the seg head's hidden layer (B*N x 128). The seg head
is recorded before the NOCS head, so the sweep reaches its hidden layer
only after the whole NOCS backward, through which a held one would sit; a
rebuilt NOCS hidden layer would come back where that backward starts. On
a one-epoch step of eight 1024-point scenes with both priors (numpy 2.4.6,
one BLAS thread, 2 vCPUs), the tracemalloc peak is 24.1-24.3 MB with these
two marks and 30.4-30.6 MB with none; marking the NOCS hidden layer
instead of the seg one leaves 25.9-26.1 MB, at the NOCS backward.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import diffgeom as dg
from . import nn, priors
from .errors import ShapeMismatch
from .geometry import _CORNER_SIGNS, OrientedBox, SimilarityTransform, box_half_extents, matrix_to_rot6d
from .synth.io import MIN_N_POINTS
from .synth.render import HAND_LABEL

LOCAL_WIDTHS = (3, 64, 128)  # shared per-point MLP, input width first
HEAD_HIDDEN = 128  # hidden width of the seg and NOCS heads
ROT_HIDDEN = 256  # hidden width of the rotation head

# Weights of the pose loss terms, and the discriminator's learning rate
LAMBDA_SEG = 1.0
LAMBDA_ROT = 1.0
LAMBDA_NOCS = 10.0
D_LR = 1e-3

# The architecture as checkpoint meta records it; load_estimator rejects any
# other. center_input: the encoder sees the cloud minus its centroid.
ARCHITECTURE = {
    "local_widths": list(LOCAL_WIDTHS),
    "head_hidden": HEAD_HIDDEN,
    "rot_hidden": ROT_HIDDEN,
    "center_input": True,
}


@dataclass(frozen=True)
class EstimatorSpec:
    """Part count and the widths that follow from it; per-point feature
    width F = 2 * local width.

    The encoder sees the cloud minus its per-scene centroid (the similarity
    fit still runs on raw camera-frame coordinates). The rotation head reads
    the max+mean pooled summary plus a segmentation-weighted per-part pooled
    feature and a one-hot part id, shared across parts.
    """

    part_count: int

    @property
    def local_dim(self) -> int:
        return LOCAL_WIDTHS[-1]

    @property
    def feature_dim(self) -> int:
        return 2 * self.local_dim

    @property
    def pooled_dim(self) -> int:
        return 2 * self.local_dim  # max + mean pooled

    @property
    def rot_in_dim(self) -> int:
        return self.pooled_dim + self.local_dim + self.part_count

    @property
    def n_classes(self) -> int:
        return self.part_count + 1

    def head_specs(self) -> dict:
        return {
            "seg": nn.MlpSpec((self.feature_dim, HEAD_HIDDEN, self.n_classes)),
            "nocs": nn.MlpSpec((self.feature_dim, HEAD_HIDDEN, 3)),
            "rot": nn.MlpSpec((self.rot_in_dim, ROT_HIDDEN, 6)),
        }


@dataclass
class EncoderOutput:
    """encode_graph's values for a batch of one scene."""

    local: np.ndarray  # (N, L) per-point local features
    mx: np.ndarray  # (1, L) their max-pool
    pooled: np.ndarray  # (1, pooled_dim) max+mean pooled summary; max-pool first

    @property
    def z(self) -> np.ndarray:
        """(N, F) per-point features: concat(local, broadcast max-pool)."""
        return np.concatenate([self.local, np.repeat(self.mx, len(self.local), axis=0)], axis=1)

    def consts(self, tape: ad.Tape) -> tuple:
        """(local, mx, pooled) as consts on `tape`."""
        return ad.const(self.local, tape), ad.const(self.mx, tape), ad.const(self.pooled, tape)


@dataclass
class HeadOutput:
    seg_logits: np.ndarray  # (N, P+1)
    nocs: np.ndarray  # (N, 3)
    rot6d: np.ndarray  # (P, 6)


@dataclass
class PartPoseEstimate:
    part: int
    valid: bool
    pose: SimilarityTransform | None
    box: OrientedBox | None
    members: np.ndarray  # member point indices
    reason: str = ""


class Estimator:
    """Parameter bundle + forward passes. One instance per category."""

    def __init__(self, spec: EstimatorSpec, store: nn.ParamStore):
        self.spec = spec
        self.store = store

    @classmethod
    def create(cls, spec: EstimatorSpec, seed: int) -> "Estimator":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
        store = nn.ParamStore()
        for i, (a, b) in enumerate(zip(LOCAL_WIDTHS[:-1], LOCAL_WIDTHS[1:])):
            nn.init_mlp(store, f"enc{i}", nn.MlpSpec((a, b)), rng)
        for name, head_spec in spec.head_specs().items():
            nn.init_mlp(store, name, head_spec, rng)
        return cls(spec, store)

    def clone(self) -> "Estimator":
        return Estimator(self.spec, self.store.clone())

    # -- graph builders -----------------------------------------------------

    def encode_graph(self, tape: ad.Tape, clouds: np.ndarray):
        """clouds (B, N, 3) -> (local (B*N, L), mx (B, L), pooled (B,
        pooled_dim)) Vars: per-point local features, their per-scene
        max-pool, and the max+mean pooled summary."""
        if clouds.ndim != 3 or clouds.shape[2] != 3:
            raise ShapeMismatch(f"expected (B, N, 3) clouds, got {clouds.shape}")
        B, N, _ = clouds.shape
        h = ad.const(clouds.reshape(B * N, 3), tape)
        for i in range(len(LOCAL_WIDTHS) - 1):
            w = self.store.use(f"enc{i}.w0", tape, dtype=h.data.dtype)
            b = self.store.use(f"enc{i}.b0", tape, dtype=h.data.dtype)
            h = ad.linear(h, w, b, relu=True, rebuild=i == 0)
        local = h  # (B*N, local_dim)
        stacked = ad.reshape(local, (B, N, self.spec.local_dim))
        mx = ad.vmax(stacked, axis=1)
        pooled = ad.concat([mx, ad.vmean(stacked, axis=1)], axis=1)
        return local, mx, pooled

    def _point_head(self, name: str, local: ad.Var, mx: ad.Var) -> ad.Var:
        """The seg or NOCS head on z = [local | mx per scene] without z: its
        first layer multiplies the pooled half of W0 once per scene and adds
        it to the scene's rows as linear's shift."""
        L = self.spec.local_dim
        dtype = local.data.dtype
        w0 = self.store.use(f"{name}.w0", local.tape, dtype=dtype)
        b0 = self.store.use(f"{name}.b0", local.tape, dtype=dtype)
        shift = ad.matmul(mx, ad.take(w0, np.arange(L, 2 * L), axis=0))
        w_local = ad.take(w0, np.arange(L), axis=0)
        h = ad.linear(local, w_local, b0, relu=True, shift=shift, rebuild=name == "seg")
        return nn.mlp_apply(self.spec.head_specs()[name], self.store, name, h, dtype=dtype, start=1)

    def heads_graph(self, tape: ad.Tape, local: ad.Var, mx: ad.Var, pooled: ad.Var):
        """encode_graph's outputs -> (seg_logits (B*N, P+1), nocs (B*N, 3),
        rot6d (B, P, 6)) Vars."""
        dtype = local.data.dtype
        P, L = self.spec.part_count, self.spec.local_dim
        B = pooled.data.shape[0]
        N = local.data.shape[0] // B
        seg = self._point_head("seg", local, mx)
        nocs = self._point_head("nocs", local, mx)

        # soft per-part pooled features from the segmentation weights:
        # one (P, N) @ (N, L) product per scene
        top = ad.const(seg.data.max(axis=1, keepdims=True), tape)
        expd = ad.exp(ad.sub(seg, top))
        weights = ad.div(expd, ad.vsum(expd, axis=1, keepdims=True))
        w_parts = ad.reshape(ad.take(weights, np.arange(1, P + 1), axis=1), (B, N, P))
        num = ad.matmul(ad.permute(w_parts, (0, 2, 1)), ad.reshape(local, (B, N, L)))
        den = ad.add(ad.vsum(w_parts, axis=1), 1e-6)
        part_feat = ad.div(num, ad.reshape(den, (B, P, 1)))  # (B, P, L)
        onehot = ad.const(np.tile(np.eye(P, dtype=dtype), (B, 1)), tape)
        rot_in = ad.concat(
            [ad.repeat_rows(pooled, P), ad.reshape(part_feat, (B * P, L)), onehot], axis=1
        )  # (B*P, rot_in_dim), scene-major
        rot_flat = nn.mlp_apply(self.spec.head_specs()["rot"], self.store, "rot", rot_in, dtype=dtype)
        return seg, nocs, ad.reshape(rot_flat, (B, P, 6))

    # -- public per-scene forward -------------------------------------------

    def prepare_input(self, cloud: np.ndarray) -> np.ndarray:
        """Encoder input view of one (N, 3) cloud or a (..., N, 3) batch:
        float32, each cloud minus its centroid."""
        cloud = np.asarray(cloud, dtype=np.float32)
        return cloud - cloud.mean(axis=-2, keepdims=True)

    def encode(self, cloud: np.ndarray) -> EncoderOutput:
        cloud = np.asarray(cloud, dtype=np.float32)
        if cloud.ndim != 2 or cloud.shape[1] != 3 or cloud.shape[0] < MIN_N_POINTS:
            raise ShapeMismatch(f"expected (N >= {MIN_N_POINTS}, 3) cloud, got {cloud.shape}")
        tape = ad.Tape(grad=False)
        return EncoderOutput(*(v.data for v in self.encode_graph(tape, cloud[None])))

    def predict(self, encoded: EncoderOutput) -> HeadOutput:
        tape = ad.Tape(grad=False)
        seg, nocs, rot = self.heads_graph(tape, *encoded.consts(tape))
        return HeadOutput(seg_logits=seg.data, nocs=nocs.data, rot6d=rot.data[0])

    def head_output(self, cloud: np.ndarray) -> HeadOutput:
        """Full inference pass: prepare -> encode -> heads."""
        return self.predict(self.encode(self.prepare_input(cloud)))


def gt_rot6d(part_poses) -> np.ndarray:
    return np.stack([matrix_to_rot6d(p.R) for p in part_poses])


def pose_loss_graph(
    tape: ad.Tape,
    seg: ad.Var,  # (B*N, P+1)
    nocs: ad.Var,  # (B*N, 3)
    rot: ad.Var,  # (B, P, 6)
    seg_labels: np.ndarray,  # (B, N)
    gt_nocs: np.ndarray,  # (B, N, 3)
    gt_rot: np.ndarray,  # (B, P, 6)
):
    """Batch-mean of the per-scene pose loss, its terms weighted by
    LAMBDA_SEG, LAMBDA_ROT and LAMBDA_NOCS; returns (total, parts dict)."""
    B, N = seg_labels.shape
    P = gt_rot.shape[1]
    dtype = seg.data.dtype

    ce = ad.vmean(ad.softmax_cross_entropy(seg, seg_labels.reshape(-1)))

    rot_diff = ad.sub(ad.reshape(rot, (B * P, 6)), ad.const(gt_rot.reshape(B * P, 6).astype(dtype), tape))
    rot_term = ad.mul(ad.vsum(ad.norm_rows(rot_diff)), 1.0 / B)

    mask = (seg_labels.reshape(-1) != HAND_LABEL).astype(dtype)
    per_scene_counts = mask.reshape(B, N).sum(axis=1)
    weights = np.where(
        per_scene_counts > 0, 1.0 / (B * np.maximum(per_scene_counts, 1.0)), 0.0
    )
    point_w = np.repeat(weights, N) * mask  # (B*N,)
    diff = ad.sub(nocs, ad.const(gt_nocs.reshape(B * N, 3).astype(dtype), tape))
    nocs_term = ad.vsum(ad.mul(ad.norm_rows(diff), ad.const(point_w.astype(dtype), tape)))

    total = ad.add(
        ad.add(ad.mul(ce, LAMBDA_SEG), ad.mul(rot_term, LAMBDA_ROT)),
        ad.mul(nocs_term, LAMBDA_NOCS),
    )
    parts = {"seg": ce, "rot": rot_term, "nocs": nocs_term}
    return total, parts


def point_labels(logits: np.ndarray) -> np.ndarray:
    """(..., C) segmentation logits -> (...) class per point: the argmax, or
    -1 where a logit is not finite."""
    return np.where(np.isfinite(logits).all(axis=-1), np.argmax(logits, axis=-1), -1)


def assemble_graph(
    tape: ad.Tape,
    clouds: np.ndarray,  # (B, N, 3)
    labels: np.ndarray,  # (B, N) point_labels: HAND_LABEL, part + 1 or -1
    nocs: ad.Var,  # (B*N, 3) rows aligned with clouds
    rot: ad.Var,  # (B, P, 6)
    half_extents: np.ndarray,  # (B, P, 3)
):
    """Differentiable pose fit of every part of a batch at once: (R, t, s,
    boxes) Vars of shapes (B, P, 3, 3), (B, P, 3), (B, P) and (B, P, 8, 3),
    the posed corners, and a (B, P) array of reasons.

    Part p of scene b fits the points labelled p + 1 and reads no other
    NOCS row, so a non-finite NOCS value outside its members leaves its fit
    alone. Its reason is "" when it has a fit, else, in this precedence:
    "non-finite segmentation" for every part of a scene with a point
    labelled -1, "{n} points" below 3 members, the rotation's degeneracy,
    the correspondences', then "non-finite fit" where R, t, s or a corner
    is not finite. On finite inputs a part with one of the first three
    reasons gets finite stand-in values, so when its outputs feed no loss
    it adds exactly zero to every gradient.
    """
    B, N, _ = clouds.shape
    P = half_extents.shape[1]
    K = B * P
    dtype = nocs.data.dtype
    members = labels[:, None, :] == np.arange(1, P + 1)[:, None]  # (B, P, N)
    counts = members.sum(axis=2)
    R, rot_reasons = dg.rot6d_to_matrix(ad.reshape(rot, (K, 6)))
    scale = ad.const((2.0 * half_extents).astype(dtype)[:, :, None, :], tape)
    denorm = ad.mul(ad.reshape(ad.sub(nocs, 0.5), (B, 1, N, 3)), scale)  # (B, P, N, 3)
    obs = np.broadcast_to(clouds.astype(dtype)[:, None], (B, P, N, 3)).reshape(K, N, 3)
    s, t, fit_reasons = dg.fit_translation_scale(ad.reshape(denorm, (K, N, 3)), obs, R, members.reshape(K, N))
    corners = (_CORNER_SIGNS * half_extents[:, :, None, :]).astype(dtype).reshape(K, 8, 3)
    boxes = dg.transform_points(corners, R, t, s)
    reasons = np.select(
        [counts < 3, rot_reasons.reshape(B, P) != ""],
        [np.char.add(counts.astype(str), " points"), rot_reasons.reshape(B, P)],
        fit_reasons.reshape(B, P),
    )
    finite = np.logical_and.reduce([np.isfinite(v.data).reshape(K, -1).all(axis=1) for v in (R, t, s, boxes)])
    reasons = np.where((reasons == "") & ~finite.reshape(B, P), "non-finite fit", reasons)
    reasons = np.where((labels < 0).any(axis=1)[:, None], "non-finite segmentation", reasons)
    return (*(ad.reshape(v, (B, P) + v.data.shape[1:]) for v in (R, t, s, boxes)), reasons)


def scene_layouts(boxes: ad.Var, reasons: np.ndarray) -> list:
    """Per scene of assemble_graph's boxes and reasons: its (P, 8, 3)
    layout Var, as the discriminator scores it, or "part p: reason" for its
    first part without a fit."""
    layouts = []
    for b, scene_reasons in enumerate(reasons):
        bad = np.flatnonzero(scene_reasons != "")
        if bad.size:
            layouts.append(f"part {bad[0]}: {scene_reasons[bad[0]]}")
        else:
            layouts.append(ad.reshape(ad.take(boxes, np.array([b])), boxes.data.shape[1:]))
    return layouts


def assemble_pose(cloud: np.ndarray, pred: HeadOutput, canonical_boxes: list) -> list:
    """Analytic pose + posed box per part from head outputs (numpy in/out).

    assemble_graph on the point_labels segmentation, as a batch of one, off the
    gradient tape and in float64; a part without a fit is marked invalid
    with the reason.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    if len(canonical_boxes) != pred.rot6d.shape[0]:
        raise ShapeMismatch("canonical box count != predicted part count")
    tape = ad.Tape(grad=False)
    labels = point_labels(pred.seg_logits)
    R, t, s, boxes, reasons = assemble_graph(
        tape,
        cloud[None],
        labels[None],
        ad.const(np.asarray(pred.nocs, dtype=np.float64), tape),
        ad.const(np.asarray(pred.rot6d, dtype=np.float64)[None], tape),
        box_half_extents(canonical_boxes)[None],
    )
    results = []
    for p, reason in enumerate(reasons[0]):
        members = np.flatnonzero(labels == p + 1)
        if reason:
            results.append(PartPoseEstimate(p, False, None, None, members, reason=str(reason)))
            continue
        pose = SimilarityTransform(R.data[0, p], t.data[0, p], float(s.data[0, p]))
        results.append(PartPoseEstimate(p, True, pose, OrientedBox(boxes.data[0, p]), members))
    return results


def is_int(value) -> bool:
    """An integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A real number, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class TrainConfig:
    """Joint training configuration (JSON-serializable)."""

    dataset: str = ""
    category: str = ""  # "" takes the scenes' category
    epochs: int = 60
    batch_size: int = 8
    lr: float = 1e-3
    lambda_adv: float = 0.0
    lambda_diff: float = 0.0
    seed: int = 0
    lr_schedule: list = field(default_factory=list)  # [[start_epoch, lr], ...]
    diffusion_points: int = 256  # per-scene point subsample for the diffusion loss
    diffusion_steps: int = 100
    checkpoint: str = "model.ckpt"
    loss_log: str = "loss_log.csv"

    def __post_init__(self):
        """ValueError on a setting no run can train with: NaN, an infinity,
        or a bool where a number belongs included."""
        lambdas = ("lambda_adv", "lambda_diff")
        for name in ("dataset", "category", "checkpoint", "loss_log"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        for name in ("epochs", "batch_size", "diffusion_points", "diffusion_steps", "seed"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        for name in ("lr",) + lambdas:
            if not is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number")
        for name in ("epochs", "seed") + lambdas:
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("batch_size", "lr", "diffusion_points", "diffusion_steps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("lr",) + lambdas:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not isinstance(self.lr_schedule, (list, tuple)):
            raise ValueError("lr_schedule must be a list")
        for entry in self.lr_schedule:
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 2
                and all(is_number(v) for v in entry)
                and entry[1] > 0
            ):
                raise ValueError(f"lr_schedule entry {entry!r} is not [start_epoch, lr > 0]")
            if not all(math.isfinite(v) for v in entry):
                raise ValueError(f"lr_schedule entry {entry!r} must be finite")

    def lr_at(self, epoch: int) -> float:
        lr = self.lr
        for start, value in sorted(self.lr_schedule):
            if epoch >= start:
                lr = value
        return lr

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


LOG_COLUMNS = [
    "epoch", "L_pose", "L_seg", "L_nocs", "L_rot", "L_adv", "L_diff", "L_D", "adv_scenes",
]


def train_estimator(scenes: list, config: TrainConfig, out_dir) -> Path:
    """Train estimator (+ optional priors) on in-memory scene records.

    Writes `checkpoint` and a per-epoch `loss_log` CSV under out_dir and
    returns the checkpoint path. Deterministic in (scenes, config).

    The checkpoint records the scenes' one category, in its meta and in
    the config it stores. Scenes of more than one category, or a config
    that names another, raise ValueError before anything is written.

    Each log row holds batch means. L_adv and L_D are means over the batches
    where at least one scene's layout could be assembled, and 0.0 when none
    could; adv_scenes counts the scenes whose layout fed L_adv that epoch.
    """
    if not scenes:
        raise ValueError("empty dataset")
    categories = sorted({s.category for s in scenes})
    if len(categories) > 1 or config.category not in ("", categories[0]):
        raise ValueError(f"config category {config.category!r}, scene categories {categories}")
    config = replace(config, category=categories[0])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    part_count = scenes[0].part_count
    n_pts = scenes[0].cloud.shape[0]
    spec = EstimatorSpec(part_count=part_count)
    est = Estimator.create(spec, config.seed)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 23]))

    clouds = np.stack([s.cloud for s in scenes]).astype(np.float32)
    clouds_in = est.prepare_input(clouds)
    seg_labels = np.stack([s.seg for s in scenes]).astype(np.int64)
    gt_nocs = np.stack([s.nocs for s in scenes]).astype(np.float32)
    gt_rots = np.stack([gt_rot6d(s.part_poses) for s in scenes]).astype(np.float32)
    extents = np.stack([s.half_extents() for s in scenes])
    real_boxes = np.stack([np.stack([b.vertices for b in s.posed_boxes]) for s in scenes])
    contact_enc = np.stack([priors.encode_contact(s.contact)[:, 0] for s in scenes])

    disc = priors.Discriminator.create(part_count, config.seed + 1) if config.lambda_adv > 0 else None
    diffuser = (
        priors.ContactDiffuser.create(
            spec.feature_dim, config.seed + 2, priors.NoiseSchedule.linear(config.diffusion_steps)
        )
        if config.lambda_diff > 0
        else None
    )

    trained = [est.store] if diffuser is None else [est.store, diffuser.store]

    def estimator_step(idx, lr):
        """One estimator (and diffuser) update on the scenes idx. Returns
        the batch's L_pose, L_seg, L_nocs, L_rot, L_adv and L_diff, and the
        stacked fake layouts for D (None when none could be assembled).
        Nothing of the step's graph outlives the call, so D trains without
        it in memory."""
        B = len(idx)
        tape = ad.Tape()
        local, mx, pooled = est.encode_graph(tape, clouds_in[idx])
        seg, nocs, rot = est.heads_graph(tape, local, mx, pooled)
        total, parts = pose_loss_graph(tape, seg, nocs, rot, seg_labels[idx], gt_nocs[idx], gt_rots[idx])
        l_pose = float(total.data)

        l_adv = 0.0
        fake = None
        if disc is not None:
            labels = point_labels(seg.data).reshape(B, n_pts)
            *_, boxes, reasons = assemble_graph(tape, clouds[idx], labels, nocs, rot, extents[idx])
            fake_vars = [layout for layout in scene_layouts(boxes, reasons) if not isinstance(layout, str)]
            if fake_vars:
                adv_var = priors.g_adv_loss_graph(disc, tape, fake_vars)
                l_adv = float(adv_var.data)
                total = ad.add(total, ad.mul(adv_var, config.lambda_adv))
                fake = np.stack([fv.data for fv in fake_vars])

        l_diff = 0.0
        if diffuser is not None:
            sub = rng.integers(0, n_pts, size=(B, config.diffusion_points))
            rows = (np.arange(B)[:, None] * n_pts + sub).reshape(-1)
            x0 = contact_enc[idx[:, None], sub].reshape(-1, 1)
            t_step = int(rng.integers(1, diffuser.schedule.T + 1))
            eps = rng.standard_normal(x0.shape).astype(np.float32)
            diff_var = priors.diff_loss_graph(
                diffuser, tape, ad.take(local, rows, axis=0), mx, x0, t_step, eps
            )
            l_diff = float(diff_var.data)
            total = ad.add(total, ad.mul(diff_var, config.lambda_diff))

        nn.descend(tape, total, trained, lr)
        return [l_pose, *(float(parts[k].data) for k in ("seg", "nocs", "rot")), l_adv, l_diff], fake

    n = len(scenes)
    with open(out / config.loss_log, "w", newline="", encoding="utf-8") as logf:
        writer = csv.writer(logf)
        writer.writerow(LOG_COLUMNS)
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            lr_now = config.lr_at(epoch)
            sums = np.zeros(len(LOG_COLUMNS) - 2)
            batches = adv_batches = adv_scenes = 0
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                losses, fake = estimator_step(idx, lr_now)
                l_d = 0.0
                if fake is not None:
                    l_d = priors.d_train_step(disc, real_boxes[idx], fake, lr=D_LR)
                    adv_batches += 1
                    adv_scenes += len(fake)
                sums += losses + [l_d]
                batches += 1
            a = max(adv_batches, 1)  # L_adv and L_D average over the batches that fed D
            means = sums / [batches, batches, batches, batches, a, batches, a]
            writer.writerow([epoch] + [repr(float(m)) for m in means] + [adv_scenes])

    ckpt = out / config.checkpoint
    Models(est, disc, diffuser).save(
        ckpt,
        category=config.category,
        n_points=n_pts,
        diffusion_steps=config.diffusion_steps,
        config={k: getattr(config, k) for k in config.__dataclass_fields__},
    )
    return ckpt


def load_estimator(path) -> tuple:
    """Load (Estimator, meta, stores) from a checkpoint file.

    Raises ValueError when the meta records another architecture than
    ARCHITECTURE, the only one this module builds.
    """
    stores, meta = nn.load_checkpoint(path)
    for key, value in ARCHITECTURE.items():
        if meta.get(key) != value:
            raise ValueError(
                f"checkpoint {key} is {meta.get(key)!r}; this estimator is built with {value!r}"
            )
    spec = EstimatorSpec(part_count=meta["part_count"])
    return Estimator(spec, stores["estimator"]), meta, stores


@dataclass
class Models:
    """The networks one checkpoint holds: the estimator, and the layout
    discriminator and contact diffuser when they were trained (else None).

    Each network is one checkpoint group: "estimator", "discriminator" and
    "diffuser". Of the meta, save writes the keys that rebuild them:
    part_count, feature_dim and ARCHITECTURE's keys. The caller's keys go
    in beside them; training passes category, n_points, diffusion_steps
    (the diffuser's schedule length, which load reads) and config.
    """

    est: Estimator
    disc: priors.Discriminator | None = None
    diffuser: priors.ContactDiffuser | None = None

    def save(self, path, **meta) -> None:
        nets = {"estimator": self.est, "discriminator": self.disc, "diffuser": self.diffuser}
        spec = self.est.spec
        nn.save_checkpoint(
            path,
            {group: net.store for group, net in nets.items() if net is not None},
            meta={"part_count": spec.part_count, "feature_dim": spec.feature_dim, **ARCHITECTURE, **meta},
        )

    @classmethod
    def load(cls, path) -> tuple["Models", dict]:
        """(every network `path` holds, the checkpoint's meta)."""
        est, meta, stores = load_estimator(path)
        disc = diffuser = None
        if "discriminator" in stores:
            disc = priors.Discriminator(est.spec.part_count, stores["discriminator"])
        if "diffuser" in stores:
            schedule = priors.NoiseSchedule.linear(meta["diffusion_steps"])
            diffuser = priors.ContactDiffuser(est.spec.feature_dim, stores["diffuser"], schedule)
        return cls(est, disc, diffuser), meta
