"""Shared test utilities."""

import json
from pathlib import Path

import numpy as np

from artipose import autodiff as ad
from artipose import nn
from artipose import priors
from artipose import tta
from artipose.errors import (
    DegenerateRotation,
    EmptyView,
    FewContacts,
    GraspFailure,
    ShapeMismatch,
)
from artipose.estimator import LAMBDA_NOCS, LAMBDA_ROT, LAMBDA_SEG, assemble_graph, assemble_pose, scene_layouts
from artipose.geometry import _CORNER_SIGNS, SimilarityTransform, as_cloud
from artipose.priors import g_adv_loss_graph
from artipose.synth import hand
from artipose.synth import io as synth_io
from artipose.synth import render


class DegenerateCorrespondences(ValueError):
    """Raised by the numpy fit oracles below when the correspondences carry
    no usable spread."""


def rel_err(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def similarity_identity():
    return SimilarityTransform(np.eye(3), np.zeros(3), 1.0)


def similarity_inverse(T):
    Rin = T.R.T
    return SimilarityTransform(Rin, -Rin @ T.t / T.s, 1.0 / T.s)


def fit_translation_scale(nocs_pts, obs_pts, R):
    """Least-squares (s, t) for obs ~ s * R @ nocs + t with R known, the
    oracle for diffgeom.fit_translation_scale.

    Closed form: center both clouds; s = sum<R n~, p~> / sum|n~|^2,
    t = p_bar - s R n_bar. s is clamped to >= 1e-6.
    """
    n = as_cloud(nocs_pts)
    p = as_cloud(obs_pts)
    if n.shape[0] != p.shape[0] or n.shape[0] < 2:
        raise DegenerateCorrespondences(
            f"need >= 2 index-aligned correspondences, got {n.shape[0]} vs {p.shape[0]}"
        )
    R = np.asarray(R, dtype=np.float64).reshape(3, 3)
    n_bar, p_bar = n.mean(axis=0), p.mean(axis=0)
    n_c, p_c = n - n_bar, p - p_bar
    denom = float((n_c * n_c).sum())
    if denom < 1e-12:
        raise DegenerateCorrespondences("source points are (nearly) all identical")
    s = float((n_c @ R.T * p_c).sum()) / denom
    s = max(s, 1e-6)
    t = p_bar - s * R @ n_bar
    return s, t


def umeyama_full(src, dst):
    """Full least-squares similarity (R, t, s) via SVD of the cross-covariance,
    the oracle for the fixed-R fit_translation_scale.

    Includes the reflection correction so the recovered R is a proper
    rotation.
    """
    x = as_cloud(src)
    y = as_cloud(dst)
    if x.shape[0] != y.shape[0] or x.shape[0] < 3:
        raise DegenerateCorrespondences("need >= 3 aligned correspondences")
    mx, my = x.mean(axis=0), y.mean(axis=0)
    xc, yc = x - mx, y - my
    cov = yc.T @ xc / x.shape[0]
    U, d, Vt = np.linalg.svd(cov)
    if np.linalg.matrix_rank(cov, tol=1e-12) < 2:
        raise DegenerateCorrespondences("rank-deficient covariance (collinear points)")
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    var_x = (xc * xc).sum() / x.shape[0]
    s = float((d * np.diag(S)).sum()) / var_x
    if s <= 0:
        raise DegenerateCorrespondences("non-positive recovered scale")
    t = my - s * R @ mx
    return SimilarityTransform(R, t, s)


def _unit3(v):
    return ad.div(v, ad.sqrt(ad.vsum(ad.mul(v, v))))


def rot6d_graph_one(r):
    """Gram-Schmidt of one (6,) Var into a (3, 3) rotation, columns stacked,
    raising DegenerateRotation: the per-part oracle of the batched
    diffgeom.rot6d_to_matrix."""
    a1 = ad.take(r, np.arange(3), axis=0)
    a2 = ad.take(r, np.arange(3, 6), axis=0)
    if float(np.linalg.norm(a1.data)) < 1e-8:
        raise DegenerateRotation("first column near zero")
    b1 = _unit3(a1)
    a2_orth = ad.sub(a2, ad.mul(ad.vsum(ad.mul(a2, b1)), b1))
    if float(np.linalg.norm(a2_orth.data)) < 1e-8:
        raise DegenerateRotation("columns near parallel or second column near zero")
    b2 = _unit3(a2_orth)
    return ad.stack([b1, b2, ad.cross3(b1, b2)], axis=1)


def fit_translation_scale_graph_one(nocs, obs, R):
    """Least-squares (s, t) of one part's (M, 3) NOCS Var and observed
    points with R given, on the tape: the per-part oracle of the batched
    diffgeom.fit_translation_scale."""
    n_bar = ad.vmean(nocs, axis=0)
    p_bar = ad.vmean(obs, axis=0)
    n_c = ad.sub(nocs, ad.reshape(n_bar, (1, 3)))
    p_c = ad.sub(obs, ad.reshape(p_bar, (1, 3)))
    denom = ad.vsum(ad.mul(n_c, n_c))
    if float(denom.data) < 1e-12:
        raise DegenerateCorrespondences("source points are (nearly) all identical")
    rotated = ad.matmul(n_c, ad.permute(R, (1, 0)))
    s = ad.clamp_min(ad.div(ad.vsum(ad.mul(rotated, p_c)), denom), 1e-6)
    t = ad.sub(p_bar, ad.mul(s, ad.matmul(R, n_bar)))
    return s, t


def fit_parts_one_by_one(tape, cloud, labels, nocs, rot6d, half_extents):
    """The pose fit of one scene part by part: per part p, (members, fit),
    fit being the (R, t, s, box) Vars of the points labelled p + 1, or the
    reason it has none ("{n} points" below 3 members, else the degeneracy
    message). nocs is the scene's (N, 3) Var, rot6d its (P, 6) Var. The
    oracle of the batched estimator.assemble_graph."""
    dtype = nocs.data.dtype
    fits = []
    for p, half in enumerate(half_extents):
        idx = np.flatnonzero(labels == p + 1)
        if len(idx) < 3:
            fits.append((idx, f"{len(idx)} points"))
            continue
        try:
            R = rot6d_graph_one(ad.reshape(ad.take(rot6d, np.array([p]), axis=0), (6,)))
            denorm = ad.mul(ad.sub(ad.take(nocs, idx, axis=0), 0.5), ad.const((2.0 * half).astype(dtype), tape))
            obs = ad.const(np.asarray(cloud)[idx].astype(dtype), tape)
            s, t = fit_translation_scale_graph_one(denorm, obs, R)
        except (DegenerateRotation, DegenerateCorrespondences) as err:
            fits.append((idx, str(err)))
            continue
        corners = ad.const((_CORNER_SIGNS * half).astype(dtype), tape)
        box = ad.add(ad.mul(s, ad.matmul(corners, ad.permute(R, (1, 0)))), ad.reshape(t, (1, 3)))
        fits.append((idx, (R, t, s, box)))
    return fits


def diff_loss_concat(diffuser, tape, z, x0, t, eps):
    """priors.diff_loss_graph with the denoiser's first layer over the
    concatenated (M, F + 1 + TIME_EMBED_DIM) input [z | x_t | temb_t]: the
    oracle for the factored first layer."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1, 1)
    x_t = priors.q_sample(x0, t, eps.reshape(x0.shape), diffuser.schedule)
    dtype = z.data.dtype
    temb = np.broadcast_to(diffuser._temb[t].astype(dtype), (len(x0), priors.TIME_EMBED_DIM))
    inp = ad.concat([z, ad.const(x_t.astype(dtype), tape), ad.const(temb, tape)], axis=1)
    eps_hat = nn.mlp_apply(diffuser.spec, diffuser.store, "eps", inp, dtype=dtype)
    resid = ad.sub(eps_hat, ad.const(eps.reshape(x0.shape).astype(dtype), tape))
    return ad.vmean(ad.mul(resid, resid))


def chamfer(A, B):
    """Symmetric mean nearest-neighbor L2 distance (meters, not squared), the
    oracle for diffgeom.chamfer_fixed."""
    a = as_cloud(A)
    b = as_cloud(B)
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min(axis=1)).mean() + np.sqrt(d2.min(axis=0)).mean())


def box_surface_points(box, n, rng):
    """Uniform-ish samples on all 6 faces of an OrientedBox."""
    E = box.edge_vectors()
    v0 = box.vertices[0]
    areas = []
    for k in range(3):
        i, j = [a for a in range(3) if a != k]
        areas += [np.linalg.norm(np.cross(E[i], E[j]))] * 2
    probs = np.array(areas) / np.sum(areas)
    pts = []
    for f, c in enumerate(np.maximum((probs * n).astype(int), 1)):
        k = f // 2
        i, j = [a for a in range(3) if a != k]
        u = rng.random((c, 1))
        v = rng.random((c, 1))
        base = v0 + (E[k] if f % 2 else 0)
        pts.append(base + u * E[i] + v * E[j])
    return np.vstack(pts)


def box_contains(box, points):
    """Boolean mask of points inside an OrientedBox (inclusive bounds)."""
    pts = np.asarray(points, dtype=np.float64)
    frac = (pts - box.vertices[0]) @ np.linalg.inv(box.edge_vectors())
    return ((frac >= 0.0) & (frac <= 1.0)).all(axis=-1)


def mc_box_iou(a, b, samples, seed):
    """Monte-Carlo box IoU, the oracle for the exact geometry.box_iou.

    Samples uniformly in the joint axis-aligned bounding volume; returns
    (#in both / #in either, #in either), the IoU 0.0 when no sample hits.
    """
    all_v = np.vstack([a.vertices, b.vertices])
    pts = np.random.default_rng(seed).uniform(all_v.min(axis=0), all_v.max(axis=0), size=(samples, 3))
    in_a, in_b = box_contains(a, pts), box_contains(b, pts)
    union = int((in_a | in_b).sum())
    if union == 0:
        return 0.0, 0
    return float((in_a & in_b).sum()) / union, union


def score(disc, layout):
    """Scalar discriminator score of one (P, 8, 3) layout array, scored as a
    batch of one."""
    tape = ad.Tape()
    return float(disc.score_graph(ad.const(np.asarray(layout, dtype=np.float64)[None], tape)).data[0])


def d_loss(score_fn, real_layouts, fake_layouts):
    """Scalar least-squares discriminator loss, E[(D(b)-1)^2] + E[D(b_hat)^2],
    the oracle for priors.d_loss_graph; score_fn maps a layout to D."""
    real = [score_fn(b) for b in real_layouts]
    fake = [score_fn(b) for b in fake_layouts]
    return float(np.mean((np.array(real) - 1.0) ** 2) + np.mean(np.array(fake) ** 2))


def g_adv_loss(score_fn, fake_layouts):
    """Scalar least-squares generator term E[(D(b_hat)-1)^2], the oracle for
    priors.g_adv_loss_graph."""
    fake = [score_fn(b) for b in fake_layouts]
    return float(np.mean((np.array(fake) - 1.0) ** 2))


def fps_rowwise(points, n, rng):
    """Furthest-point sampling with a row-wise np.linalg.norm per pick, the
    oracle for the column-wise render.furthest_point_sample."""
    m = len(points)
    idx = np.empty(n, dtype=np.int64)
    idx[0] = rng.integers(m)
    dist = np.linalg.norm(points - points[idx[0]], axis=1)
    for i in range(1, n):
        idx[i] = int(dist.argmax())
        dist = np.minimum(dist, np.linalg.norm(points - points[idx[i]], axis=1))
    return idx


def render_every_ray(boxes, capsules, camera, n_points, rng):
    """render.render_partial_cloud with every ray tested against every
    primitive, the oracle for the cone-culled ray cast: the same candidate
    pool and labels, after the same rng draws."""
    dirs = camera.ray_directions()
    depth = np.full(len(dirs), np.inf)
    label = np.full(len(dirs), -1, dtype=np.int32)

    for box, lab in boxes:
        E = box.edge_vectors()
        R = (E.T / np.linalg.norm(E, axis=1))
        half = np.linalg.norm(E, axis=1) / 2.0
        hits = render.ray_box_hits(dirs, R, box.center, half)
        closer = hits < depth
        depth[closer] = hits[closer]
        label[closer] = lab

    for A, B, r in capsules:
        hits = render.ray_capsule_hits(dirs, np.asarray(A), np.asarray(B), float(r))
        closer = hits < depth
        depth[closer] = hits[closer]
        label[closer] = render.HAND_LABEL

    mask = np.isfinite(depth)
    raw_count = int(mask.sum())
    if raw_count == 0:
        raise EmptyView("no primitive projects into the image")
    if raw_count < n_points:
        raise EmptyView(f"only {raw_count} visible pixels < requested {n_points} points")

    pts = depth[mask, None] * dirs[mask]
    labs = label[mask]
    if raw_count > render._MAX_RAW_POINTS:
        keep = rng.choice(raw_count, size=render._MAX_RAW_POINTS, replace=False)
        pts, labs = pts[keep], labs[keep]
    return pts, labs.astype(np.uint8)


def contact_map_broadcast(obj_pts, hand_pts, tau):
    """Contact map through an (N_obj, S, 3) broadcast, the oracle for the
    column-wise geometry.compute_contact_map."""
    o = np.asarray(obj_pts, dtype=np.float64)
    h = np.asarray(hand_pts, dtype=np.float64)
    d2 = ((o[:, None, :] - h[None, :, :]) ** 2).sum(axis=2)
    return (np.sqrt(d2.min(axis=1)) < tau).astype(np.uint8)


def take_scatter(a, indices, axis=0):
    """Gather whose backward always scatter-adds through np.add.at into
    zeros, the oracle for the index-dependent backward of autodiff.take."""
    idx = np.asarray(indices)

    def da(g):
        full = np.zeros_like(a.data)
        sl = [slice(None)] * a.data.ndim
        sl[axis] = idx
        np.add.at(full, tuple(sl), g)
        return full

    return ad._unary(a, np.take(a.data, idx, axis=axis), da)


def vmax_argmax(a, axis):
    """Max whose value is read at the first argmax, the oracle for the
    max-valued forward of autodiff.vmax."""
    idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)
    out_data = np.squeeze(np.take_along_axis(a.data, idx, axis=axis), axis=axis)

    def da(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, idx, np.expand_dims(g, axis), axis=axis)
        return full

    return ad._unary(a, out_data, da)


def box_check_allclose(vertices):
    """The parallelepiped check of OrientedBox as six np.allclose calls, the
    oracle for its one vectorised check: the error message, or None."""
    v = np.asarray(vertices, dtype=np.float64).reshape(8, 3)
    if not np.isfinite(v).all():
        return "box vertices contain non-finite values"
    ex, ey, ez = v[4] - v[0], v[2] - v[0], v[1] - v[0]
    pairs = [
        (v[6] - v[2], ex), (v[7] - v[3], ex),
        (v[3] - v[1], ey), (v[7] - v[5], ey),
        (v[5] - v[4], ez), (v[7] - v[6], ez),
    ]
    for a, b in pairs:
        if not np.allclose(a, b, atol=1e-6):
            return "vertices do not form a parallelepiped"
    if abs(float(np.linalg.det(np.stack([ex, ey, ez])))) <= 0.0:
        return "box has zero volume"
    return None


def rotation_check_allclose(R):
    """The rotation check of SimilarityTransform through np.allclose, the
    oracle for its inlined tolerance test: the error message, or None."""
    R = np.asarray(R, dtype=np.float64).reshape(3, 3)
    if not np.allclose(R.T @ R, np.eye(3), atol=1e-6):
        return "R is not orthonormal within 1e-6"
    if abs(np.linalg.det(R) - 1.0) > 1e-6:
        return "det(R) != +1 within 1e-6"
    return None


def add_grad_copying(var, g):
    """Var._add_grad that copies every first gradient, the oracle for the
    borrowing autodiff.Var._add_grad."""
    if var.grad is None:
        var.grad = np.array(g, dtype=var.data.dtype, copy=True)
    else:
        var.grad += g


def nan(payload, negative, dtype):
    """A quiet NaN with the given payload and sign bit."""
    if dtype == np.float32:
        return np.uint32(0x7FC00000 | payload | (negative << 31)).view(np.float32)
    return np.uint64(0x7FF8000000000000 | payload | (negative << 63)).view(np.float64)


def special_pool(dtype):
    """Eight values whose sums round or propagate unusually: signed zeros,
    infinities, NaNs with distinct payloads and signs, and two normals."""
    return np.array(
        [-0.0, 0.0, np.inf, -np.inf, nan(0x15, 0, dtype), nan(0x2A, 1, dtype), 1.5, -2.25],
        dtype=dtype,
    )


def grad_onto(op, kind, data, prior, g):
    """Sweep a graph in which the backward of `op` (one record) hands `g` to
    a leaf over `data` whose gradient already holds `prior`: an owned array,
    a borrowed view of the seed, or a read-only broadcast from vsum (then
    `prior` is constant along axis 0). Returns the leaf's grad, whether the
    seed came out unchanged, and what the backward met: a list of one (the
    leaf owned its grad, that grad was a broadcast, it held `prior` bit for
    bit)."""
    tape = ad.Tape()
    a = ad.leaf(data, tape)
    pieces, seeds = [op(a)], [g]
    if kind == "broadcast":
        pieces.append(ad.vsum(a, axis=0))
        seeds.append(prior[0])
    else:
        pieces.append(ad.reshape(a, prior.shape))
        seeds.append(prior)
    if kind == "owned":  # a second contribution of -0.0 keeps every bit of prior
        pieces.append(ad.reshape(a, prior.shape))
        seeds.append(np.full(prior.shape, -0.0, dtype=prior.dtype))
    op_out, op_back = tape._ops[0]
    met = []

    def spy(grad, owned):
        prior_kept = np.array_equal(bits(a.grad), bits(np.broadcast_to(prior, a.grad.shape)))
        met.append((a._owns_grad, 0 in a.grad.strides, prior_kept))
        op_back(grad, owned)

    tape._ops[0] = (op_out, spy)
    seed = np.concatenate([s.reshape(-1) for s in seeds])
    before = seed.copy()
    tape.backward(ad.concat([ad.reshape(p, (-1,)) for p in pieces], axis=0), seed)
    return a.grad, np.array_equal(bits(seed), bits(before)), met


def backward_retaining(tape, var):
    """Tape.backward from a scalar as a plain reversed loop that keeps every
    record and every op output's grad until the tape goes, the oracle for
    the popping sweep."""
    tape._swept = True
    var._add_grad(np.ones((), dtype=var.data.dtype))
    for out, fn in reversed(tape._ops):
        if out.grad is not None:
            fn(out.grad, False)


def where_relu(a):
    """ReLU in the np.where form, kept apart from the in-place ReLU of
    autodiff.linear so that the oracle below stays independent of it."""
    mask = a.data > 0
    return ad._unary(a, np.where(mask, a.data, 0), lambda g: g * mask)


def linear_chain(x, w, b, relu, shift=None, rebuild=False):
    """relu(add(matmul(x, w), b)) as three taped ops, with
    add(..., repeat_rows(shift, n)) before the bias when a per-block shift
    is given: the oracle for the fused autodiff.linear. It holds every
    activation, so `rebuild` is taken and ignored."""
    h = ad.matmul(x, w)
    if shift is not None:
        h = ad.add(h, ad.repeat_rows(shift, x.data.shape[0] // shift.data.shape[0]))
    h = ad.add(h, b)
    return where_relu(h) if relu else h


def spy_tapes(monkeypatch):
    """Collect every Tape built and every Tape.record call while patched;
    returns the two lists (tapes, recorded output Vars)."""
    tapes, records = [], []
    init, record = ad.Tape.__init__, ad.Tape.record

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tapes.append(self)

    def spy_record(self, out, backward):
        records.append(out)
        record(self, out, backward)

    monkeypatch.setattr(ad.Tape, "__init__", spy_init)
    monkeypatch.setattr(ad.Tape, "record", spy_record)
    return tapes, records


def bits(a):
    """The raw bits of a float array, so equality also tells -0.0 from +0.0."""
    a = np.asarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def pose_loss(
    pred,
    seg_labels: np.ndarray,
    gt_nocs: np.ndarray,
    gt_rot: np.ndarray,
    lambda_seg: float = LAMBDA_SEG,
    lambda_rot: float = LAMBDA_ROT,
    lambda_nocs: float = LAMBDA_NOCS,
) -> float:
    """Scalar pose loss of one scene's HeadOutput: CE (mean over points) +
    summed per-part rotation L2 + NOCS L2 masked to object points (mean over
    masked points), the oracle for estimator.pose_loss_graph."""
    logits = np.asarray(pred.seg_logits, dtype=np.float64)
    labels = np.asarray(seg_labels)
    if logits.shape[0] != labels.shape[0]:
        raise ShapeMismatch("seg logits and labels disagree on N")
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    ce = (lse - logits[np.arange(len(labels)), labels]).mean()

    rot_term = np.linalg.norm(
        np.asarray(pred.rot6d, dtype=np.float64) - np.asarray(gt_rot), axis=1
    ).sum()

    mask = labels != render.HAND_LABEL
    if mask.any():
        diff = np.asarray(pred.nocs, dtype=np.float64)[mask] - np.asarray(gt_nocs)[mask]
        nocs_term = np.linalg.norm(diff, axis=1).mean()
    else:
        nocs_term = 0.0
    return float(lambda_seg * ce + lambda_rot * rot_term + lambda_nocs * nocs_term)


def descend_by_hand(tape, loss, stores, lr):
    """nn.descend written out step by step: zero every store's grads, sweep
    the tape, add each recorded parameter use's gradient into its buffer in
    tape order, then one Adam step per store: the oracle for nn.descend and
    the flush that sets the grad buffers."""
    for store in stores:
        store.zero_grads()
    tape.backward(loss)
    for store in stores:
        for owner, name, var, _ in tape.param_uses:
            if owner is store and var.grad is not None:
                store.grads[name] += var.grad.astype(store.grads[name].dtype, copy=False)
    for store in stores:
        nn.adam_step(store, lr=lr)


def adapt_object_reencoding(est, disc, cloud, canonical_boxes, cfg):
    """tta.adapt_object with `before` and `after` from separate head_output
    passes, the encoder on every step's grad tape and its gradients zeroed
    before Adam: the oracle for the one-pass tta.adapt_object with a frozen
    encoder."""
    cloud = np.asarray(cloud, dtype=np.float64)
    cloud32 = est.prepare_input(cloud)
    work = est.clone()
    half_extents = np.stack([b.vertices[7] for b in canonical_boxes])

    before = assemble_pose(cloud, work.head_output(cloud), canonical_boxes)
    bad = next((p for p in before if not p.valid), None)
    if bad is not None:
        return tta.AdaptResult(before, before, [], aborted=f"step 0: part {bad.part}: {bad.reason}")
    encoder_names = [n for n in work.store.names() if n.startswith("enc")]
    trace = []
    for step in range(cfg.steps + 1):
        final = step == cfg.steps
        tape = ad.Tape(grad=not final)
        seg, nocs, rot = work.heads_graph(tape, *work.encode_graph(tape, cloud32[None]))
        labels = np.argmax(seg.data, axis=1)[None]
        *_, boxes, reasons = assemble_graph(tape, cloud[None], labels, nocs, rot, half_extents[None])
        (layout,) = scene_layouts(boxes, reasons)
        if isinstance(layout, str):
            if final:
                break
            return tta.AdaptResult(before, before, trace, aborted=f"step {step}: {layout}")
        loss = g_adv_loss_graph(disc, tape, [layout])
        value = float(loss.data)
        if not (final or np.isfinite(value)):
            return tta.AdaptResult(before, before, trace, aborted=f"step {step}: non-finite loss")
        trace.append(value)
        if final:
            break

        work.store.zero_grads()
        tape.backward(loss)
        work.store.flush_tape_grads(tape)
        for name in encoder_names:
            work.store.grads[name][...] = 0.0
        nn.adam_step(work.store, lr=cfg.lr)

    after = assemble_pose(cloud, work.head_output(cloud), canonical_boxes)
    return tta.AdaptResult(before, after, trace)


def sample_contact_map_serial(diffuser, z, generations=5, seed=0):
    """priors.sample_contact_map as one serial reverse chain over all points,
    drawing each step's noise as it goes: the bit-for-bit oracle of the
    chunked sampler."""
    z = np.asarray(z, dtype=np.float32)
    N = z.shape[0]
    sched = diffuser.schedule
    rng = np.random.Generator(np.random.PCG64(seed))
    cond = diffuser.condition(z)
    x = rng.standard_normal((generations * N, 1)).astype(np.float32)
    ab = sched.alpha_bars
    for t in range(sched.T, 0, -1):
        eps_hat = diffuser.denoise_value(cond, x, t)
        beta = sched.betas[t - 1]
        alpha = sched.alphas[t - 1]
        x = (x - beta / np.sqrt(1.0 - ab[t - 1]) * eps_hat) / np.sqrt(alpha)
        if t > 1:
            x = x + np.sqrt(beta) * rng.standard_normal(x.shape).astype(np.float32)
    confidence = x.reshape(generations, N).mean(axis=0).astype(np.float64)
    return (confidence > 0).astype(np.uint8), confidence


def generate_dataset_serial(
    out_dir,
    category,
    count,
    seed,
    n_points=synth_io.DEFAULT_N_POINTS,
):
    """synth.io.generate_dataset as one loop over the scenes in the calling
    process: the bit-for-bit oracle of the parallel generate_dataset. It calls
    make_instance, sample_scene and save_scene through synth.io, and reads
    its MIN_VISIBLE_CONTACTS and MAX_SCENE_ATTEMPTS there, so tests that
    replace them there replace them here too. A scene without a usable draw
    is recorded with the count of draws each stage rejected."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    min_contacts = synth_io.MIN_VISIBLE_CONTACTS

    entries = []
    for i in range(count):
        inst_seed = int(
            np.random.default_rng(np.random.SeedSequence([seed, i, 1])).integers(2**31)
        )
        instance = synth_io.make_instance(category, inst_seed)
        rejected = {GraspFailure: 0, EmptyView: 0, FewContacts: 0, "cloud": 0}
        entry = None
        for attempt in range(synth_io.MAX_SCENE_ATTEMPTS):
            try:
                record = synth_io.sample_scene(
                    instance,
                    np.random.SeedSequence([seed, i, 2, attempt]),
                    n_points=n_points,
                    scene_id=f"scene_{i:06d}",
                    min_contacts=min_contacts,
                )
            except (GraspFailure, EmptyView, FewContacts) as err:
                rejected[type(err)] += 1
                continue
            if int(record.contact.sum()) >= min_contacts:
                entry = {**synth_io.save_scene(root, record), "index": i}
                break
            rejected["cloud"] += 1
        if entry is None:
            entry = {
                "id": f"scene_{i:06d}",
                "index": i,
                "failed": (
                    f"no usable draw in {synth_io.MAX_SCENE_ATTEMPTS} attempts: "
                    f"{rejected[GraspFailure]} grasp failures, {rejected[EmptyView]} empty views, "
                    f"{rejected[FewContacts] + rejected['cloud']} draws below {min_contacts} visible "
                    f"contacts ({rejected[FewContacts]} in the candidate pool, {rejected['cloud']} in the cloud)"
                ),
            }
        entries.append(entry)

    kept = [e for e in entries if "failed" not in e]
    manifest = {
        "format": synth_io.FORMAT_NAME,
        "version": synth_io.FORMAT_VERSION,
        "category": category,
        "count": count,
        "master_seed": seed,
        "n_points": n_points,
        "tau": synth_io.CONTACT_TAU,
        "surface_samples": synth_io.SURFACE_SAMPLES,
        "part_count": len(kept[0]["half_extents"]) if kept else None,
        "image_size": [synth_io.IMAGE_WIDTH, synth_io.IMAGE_HEIGHT],
        "dtypes": {name.split(".")[0]: dtype for name, (dtype, _) in synth_io.SCENE_FILES.items()},
        "scenes": entries,
    }
    (root / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return root


_GOLDEN_ANGLE = 2.399963229728653


def _rodrigues_one(axis, theta, tape):
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    s = ad.sin(theta)
    one_minus_c = ad.sub(ad.const(np.ones(()), tape), ad.cos(theta))
    return ad.add(ad.const(np.eye(3), tape), ad.add(ad.mul(s, ad.const(K, tape)), ad.mul(one_minus_c, ad.const(K @ K, tape))))


def _sample_counts(surface_samples):
    """Per-bone surface sample counts by capsule length x radius at rest,
    largest remainder to the exact total."""
    joints = np.zeros((21, 3))
    for f in range(5):
        p = hand.MCP_OFFSETS[f].copy()
        joints[1 + 4 * f] = p
        for seg in range(3):
            p = p + hand.BONE_LENGTHS[f, seg] * hand.FINGER_DIRS[f]
            joints[2 + 4 * f + seg] = p
    weights = np.array([np.linalg.norm(joints[b] - joints[a]) * r for a, b, r in hand.BONES])
    raw = weights / np.sum(weights) * surface_samples
    counts = np.floor(raw).astype(int)
    for idx in np.argsort(-(raw - counts))[: surface_samples - counts.sum()]:
        counts[idx] += 1
    return counts


def fk_vars_per_finger(surface_samples, angles):
    """Wrist-frame hand FK one finger and one phalanx at a time, then one
    capsule at a time: joints (21, 3) and surface (surface_samples, 3)
    Vars. The oracle of the batched synth.hand.fk_vars."""
    tape = angles.tape
    z = np.array([0.0, 0.0, 1.0])
    joint_rows = [ad.const(np.zeros(3), tape)]
    bone_endpoints = []  # (A, B, radius, ref axis)
    for f in range(5):
        mcp = ad.const(hand.MCP_OFFSETS[f], tape)
        u = hand.FINGER_DIRS[f]
        axis = np.cross(u, z)
        axis = axis / np.linalg.norm(axis)
        th1, th2, th3 = (ad.take(angles, np.array([3 * f + k]), axis=0) for k in range(3))
        cum12 = ad.add(th1, th2)
        prev = mcp
        joint_rows.append(mcp)
        bone_endpoints.append((joint_rows[0], mcp, hand.PALM_RADIUS, z))
        for seg, theta in enumerate((th1, cum12, ad.add(cum12, th3))):
            R = _rodrigues_one(axis, ad.reshape(theta, ()), tape)
            nxt = ad.add(prev, ad.matmul(R, ad.const(hand.BONE_LENGTHS[f, seg] * u, tape)))
            joint_rows.append(nxt)
            bone_endpoints.append((prev, nxt, hand.FINGER_RADII[f] * (0.9 if seg == 2 else 1.0), axis))
            prev = nxt

    surf_rows = []
    for (A, B, radius, ref), n_b in zip(bone_endpoints, _sample_counts(surface_samples)):
        if n_b == 0:
            continue
        frac = (np.arange(n_b) + 0.5) / n_b
        phi = np.arange(n_b) * _GOLDEN_ANGLE
        seg = ad.sub(B, A)
        length = float(np.linalg.norm(seg.data))
        vhat = ad.div(seg, length)
        n1 = ad.cross3(vhat, ad.const(ref, tape))
        n1 = ad.div(n1, float(np.linalg.norm(n1.data)))
        n2 = ad.cross3(vhat, n1)
        circle = ad.add(
            ad.mul(ad.const((radius * np.cos(phi))[:, None], tape), ad.reshape(n1, (1, 3))),
            ad.mul(ad.const((radius * np.sin(phi))[:, None], tape), ad.reshape(n2, (1, 3))),
        )
        axial = ad.mul(ad.const((frac * length)[:, None], tape), ad.reshape(vhat, (1, 3)))
        surf_rows.append(ad.add(ad.reshape(A, (1, 3)), ad.add(axial, circle)))
    return ad.stack(joint_rows, axis=0), ad.concat(surf_rows, axis=0)
