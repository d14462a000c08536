"""Differentiable (tape-based) versions of the closed-form geometry.

These mirror closed-form numpy functions but operate on autodiff Vars so
that gradients flow from pose/box/chamfer losses back into network outputs
and hand parameters. Forward values agree with the numpy versions to float
precision (tested), but the two implementations are kept separate on
purpose: the numpy side stays a plain oracle (in `geometry`, or in
tests/helpers.py where no runtime path needs it). The Gram-Schmidt and the
similarity fit run batched over stacked rows, and name each degenerate row's
reason instead of raising.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .geometry import sq_dist_blocks


def _unit_rows(v: ad.Var):
    """(..., 3) rows over their norms, and where a norm is below 1e-8. A
    short row is divided by its norm + 1 instead, so no 0/0 reaches the tape."""
    n = ad.sqrt(ad.vsum(ad.mul(v, v), axis=-1, keepdims=True))
    short = n.data < 1e-8
    return ad.div(v, ad.add(n, short.astype(n.data.dtype))), short[..., 0]


def rot6d_to_matrix(r: ad.Var):
    """Batched Gram-Schmidt of (..., 6) rows into (..., 3, 3) rotations,
    columns stacked, and a (...) array of reasons: "" where the row has a
    rotation, else why not (first column near zero, then columns near
    parallel). A row with a reason gets a finite stand-in rotation."""
    b1, first = _unit_rows(ad.take(r, np.arange(3), axis=-1))
    a2 = ad.take(r, np.arange(3, 6), axis=-1)
    a2_orth = ad.sub(a2, ad.mul(ad.vsum(ad.mul(a2, b1), axis=-1, keepdims=True), b1))
    b2, second = _unit_rows(a2_orth)
    R = ad.stack([b1, b2, ad.cross3(b1, b2)], axis=-1)
    reasons = ["first column near zero", "columns near parallel or second column near zero"]
    return R, np.select([first, second], reasons, "")


def fit_translation_scale(nocs: ad.Var, obs: np.ndarray, R: ad.Var, members: np.ndarray):
    """Differentiable least-squares (s, t) with R given, s clamped >= 1e-6,
    for K stacked parts: nocs (K, N, 3) Var, obs (K, N, 3), R (K, 3, 3) and
    the (K, N) bool `members`, the rows each part fits. A part's fit reads
    only its member NOCS rows, so a non-finite NOCS value in another row
    reaches neither its (s, t) nor their gradients. Returns s (K,), t
    (K, 3) and (K,) reasons: "" or that the member NOCS are (nearly) all
    identical (centred sum of squares below 1e-12). Means divide by
    max(count, 1) and a flagged scale by that sum + 1: no 0/0 on the tape."""
    K = members.shape[0]
    dtype = nocs.data.dtype
    nocs = ad.select(nocs, members[..., None])
    mask = members.astype(dtype)
    weights = (mask / np.maximum(mask.sum(axis=1), 1.0)[:, None])[:, None, :]  # (K, 1, N)
    p_bar = weights @ obs  # (K, 1, 3)
    p_c = (obs - p_bar) * mask[..., None]
    n_bar = ad.matmul(ad.const(weights, nocs.tape), nocs)
    n_c = ad.mul(ad.sub(nocs, n_bar), ad.const(mask[..., None], nocs.tape))
    denom = ad.vsum(ad.mul(n_c, n_c), axis=(1, 2))
    flat = denom.data < 1e-12
    cov = ad.matmul(ad.const(np.swapaxes(p_c, 1, 2), nocs.tape), n_c)  # sum of p_c n_c^T
    s = ad.clamp_min(ad.div(ad.vsum(ad.mul(R, cov), axis=(1, 2)), ad.add(denom, flat.astype(dtype))), 1e-6)
    rotated = ad.reshape(ad.matmul(R, ad.reshape(n_bar, (K, 3, 1))), (K, 3))
    t = ad.sub(ad.const(p_bar[:, 0], nocs.tape), ad.mul(ad.reshape(s, (K, 1)), rotated))
    return s, t, np.where(flat, "source points are (nearly) all identical", "")


def transform_points(pts, R: ad.Var, t: ad.Var, s: ad.Var) -> ad.Var:
    """s * pts @ R^T + t for K stacked point sets: pts (K, M, 3), R
    (K, 3, 3), t (K, 3), s (K,)."""
    K = R.data.shape[0]
    rotated = ad.matmul(pts, ad.permute(R, (0, 2, 1)))
    return ad.add(ad.mul(ad.reshape(s, (K, 1, 1)), rotated), ad.reshape(t, (K, 1, 3)))


def chamfer_assignments(a: np.ndarray, b: np.ndarray) -> tuple:
    """Nearest-neighbor indices both ways between point sets a (N, 3) and
    b (M, 3): into b for each row of a, and into a for each row of b.

    Reads the squared distances from `geometry.sq_dist_blocks`, whose
    entries are the (N, M, 3) broadcast's bit for bit. Each block's row
    argmin is the full row's. The column argmin is carried across blocks
    from row 0 at +inf, and moves to a later block only where that block's
    minimum is strictly smaller, or is NaN while the carried one is not, so
    ties and NaNs go to the first row, as `argmin` over the whole column
    gives (a column that is +inf throughout stays at row 0).
    """
    if not (len(a) and len(b)):
        raise ValueError(f"chamfer_assignments needs a point in each set, got {len(a)} and {len(b)}")
    idx_ab = np.empty(len(a), np.intp)
    idx_ba = np.zeros(len(b), np.intp)
    best = np.full(len(b), np.inf)
    cols = np.arange(len(b))
    for start, d2 in sq_dist_blocks(a, b):
        idx_ab[start : start + len(d2)] = d2.argmin(axis=1)
        rows = d2.argmin(axis=0)
        vals = d2[rows, cols]
        later = (vals < best) | (np.isnan(vals) & ~np.isnan(best))
        best[later] = vals[later]
        idx_ba[later] = rows[later] + start
    return idx_ab, idx_ba


def chamfer_fixed(A: ad.Var, B: ad.Var, assignments: tuple | None = None) -> ad.Var:
    """Symmetric chamfer with nearest-neighbor assignments fixed at entry.

    Assignments are computed once from the current values (numpy) and then
    treated as constants, giving the exact subgradient of the piecewise-
    smooth chamfer on the current piece. Pass `assignments` to freeze them
    externally (finite-difference checks probe the same smooth piece).
    """
    idx_ab, idx_ba = assignments or chamfer_assignments(A.data, B.data)
    d_ab = ad.norm_rows(ad.sub(A, ad.take(B, idx_ab, axis=0)))
    d_ba = ad.norm_rows(ad.sub(B, ad.take(A, idx_ba, axis=0)))
    return ad.add(ad.vmean(d_ab), ad.vmean(d_ba))


def normalize_layout(boxes: ad.Var) -> ad.Var:
    """Center each (P, 8, 3) box layout of a (..., P, 8, 3) stack and divide
    it by its RMS vertex norm.

    Centering uses the mean of the per-part box centers, so whole-layout
    translation and uniform scale cancel exactly; relative arrangement and
    orientation survive.
    """
    lead = boxes.data.shape[:-3]
    P = boxes.data.shape[-3]
    centers = ad.vmean(boxes, axis=-2)  # (..., P, 3)
    mu = ad.vmean(centers, axis=-2)  # (..., 3)
    centered = ad.sub(boxes, ad.reshape(mu, lead + (1, 1, 3)))
    sq = ad.reshape(ad.vsum(ad.mul(centered, centered), axis=-1), lead + (P * 8,))
    rms = ad.sqrt(ad.add(ad.vmean(sq, axis=-1), 1e-12))
    return ad.div(centered, ad.reshape(rms, lead + (1, 1, 1)))
