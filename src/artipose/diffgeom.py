"""Differentiable (tape-based) versions of the closed-form geometry.

These mirror closed-form numpy functions but operate on autodiff Vars so
that gradients flow from pose/box/chamfer losses back into network outputs
and hand parameters. Forward values agree with the numpy versions to float
precision (tested), but the two implementations are kept separate on
purpose: the numpy side stays a plain oracle (in `geometry`, or in
tests/helpers.py where no runtime path needs it).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import DegenerateCorrespondences, DegenerateRotation


def normalize3(v: ad.Var) -> ad.Var:
    """Unit vector of a length-3 Var."""
    n = ad.sqrt(ad.vsum(ad.mul(v, v)))
    return ad.div(v, n)


def rot6d_to_matrix(r: ad.Var) -> ad.Var:
    """Gram-Schmidt of a (6,) Var into a (3, 3) rotation, columns stacked."""
    a1 = ad.take(r, np.arange(3), axis=0)
    a2 = ad.take(r, np.arange(3, 6), axis=0)
    n1 = float(np.linalg.norm(a1.data))
    if n1 < 1e-8:
        raise DegenerateRotation("first column near zero")
    b1 = normalize3(a1)
    dot = ad.vsum(ad.mul(a2, b1))
    a2_orth = ad.sub(a2, ad.mul(dot, b1))
    if float(np.linalg.norm(a2_orth.data)) < 1e-8:
        raise DegenerateRotation("columns near parallel or second column near zero")
    b2 = normalize3(a2_orth)
    b3 = ad.cross3(b1, b2)
    return ad.stack([b1, b2, b3], axis=1)


def fit_translation_scale(nocs: ad.Var, obs: ad.Var, R: ad.Var):
    """Differentiable least-squares (s, t) with R given; s clamped >= 1e-6.

    nocs and obs are (N, 3) Vars (obs is usually a constant cloud); returns
    scalar Var s and (3,) Var t.
    """
    n_pts = nocs.data.shape[0]
    if n_pts < 2 or obs.data.shape[0] != n_pts:
        raise DegenerateCorrespondences("need >= 2 aligned correspondences")
    n_bar = ad.vmean(nocs, axis=0)
    p_bar = ad.vmean(obs, axis=0)
    n_c = ad.sub(nocs, ad.reshape(n_bar, (1, 3)))
    p_c = ad.sub(obs, ad.reshape(p_bar, (1, 3)))
    denom = ad.vsum(ad.mul(n_c, n_c))
    if float(denom.data) < 1e-12:
        raise DegenerateCorrespondences("source points are (nearly) all identical")
    rotated = ad.matmul(n_c, ad.transpose(R))
    s = ad.clamp_min(ad.div(ad.vsum(ad.mul(rotated, p_c)), denom), 1e-6)
    t = ad.sub(p_bar, ad.mul(s, ad.matmul(R, n_bar)))
    return s, t


def transform_points(pts: ad.Var, R: ad.Var, t: ad.Var, s: ad.Var) -> ad.Var:
    """s * pts @ R^T + t for (N, 3) points."""
    return ad.add(ad.mul(s, ad.matmul(pts, ad.transpose(R))), ad.reshape(t, (1, 3)))


def chamfer_assignments(a: np.ndarray, b: np.ndarray) -> tuple:
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2.argmin(axis=0)


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
