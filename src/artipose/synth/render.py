"""Depth rendering of cuboid/capsule scenes by per-pixel ray casting.

Rays are cast through every pixel of a small pinhole image; the nearest
primitive hit wins (exact z-buffer visibility). Hit points are backprojected
to camera-frame 3D and subsampled to at most `_MAX_RAW_POINTS`: that is the
candidate pool the ray cast returns. `scene.sample_scene` labels the pool's
contacts and furthest-point downsamples it to the point budget with
`furthest_point_sample`, so a draw with too few contacts in the pool is
rejected before it pays for FPS.

Cone culling. Each primitive is tested only against the rays that can reach
it. A capsule lies inside the sphere centred at (A+B)/2 with radius
|B-A|/2 + r, and a (rectangular) box inside the sphere centred at its centre
with radius |half|. A ray from the camera origin can meet such a sphere only
if its direction lies in the sphere's cone, d . c/|c| >= cos(asin(rho/|c|)),
so the cull is conservative: every ray that hits the primitive is kept. The
cone is widened by `_CONE_MARGIN` against rounding, and every ray is kept
when the origin lies inside the sphere. A ray left out would have been a
miss (inf) in the full call, and a miss never wins the strict `<` z-buffer
update. Each ray's hit depth depends only on that ray (tests/test_synth.py
checks the hit tests on row subsets against the full call), and the
primitives are visited in the same order, so the image is the one an
every-ray cast gives, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyView
from ..geometry import cross, unit

IMAGE_WIDTH = 160
IMAGE_HEIGHT = 120
# The focal length makes the scene fill this share of the image half-height.
FILL = 0.9

# FPS cost grows with the candidate pool, so the hit set is subsampled to at
# most this many points first. The cap stays even where FPS is cheap enough
# without it: the subsample draws from `rng`, so removing it would change
# every scene.
_MAX_RAW_POINTS = 8192

HAND_LABEL = 0  # seg labels: 0 = hand, 1..P = parts

# Angular slack (radians) added to each bounding cone; see the module
# docstring. It only has to cover rounding in the cone and hit tests, which
# is orders of magnitude smaller, and one pixel spans at least ~6e-4 rad, so
# it keeps next to no extra rays.
_CONE_MARGIN = 1e-6


@dataclass(frozen=True)
class Camera:
    """Pinhole camera: intrinsics plus world-to-camera extrinsics."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    R: np.ndarray  # (3, 3) world -> camera rotation
    t: np.ndarray  # (3,) world -> camera translation

    def __post_init__(self):
        # a manifest entry stores R as its 9 row-major values
        object.__setattr__(self, "R", np.asarray(self.R, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64).reshape(3))

    def ray_directions(self) -> np.ndarray:
        """(H*W, 3) unit ray directions in camera frame (z forward, y down)."""
        u, v = np.meshgrid(np.arange(self.width), np.arange(self.height))
        d = np.stack(
            [
                (u.ravel() - self.cx) / self.fx,
                (v.ravel() - self.cy) / self.fy,
                np.ones(self.width * self.height),
            ],
            axis=1,
        )
        return d / np.linalg.norm(d, axis=1, keepdims=True)


def sample_camera(rng: np.random.Generator, target: np.ndarray, scene_radius: float) -> Camera:
    """Camera on a hemisphere (radius 0.8-1.5 m, elevation 15-75 deg) looking
    at `target` with world +z up.

    The focal length is set so a scene of `scene_radius` fills FILL of the
    image half-height (the zoom plays the role of a 2D detection crop).
    """
    radius = rng.uniform(0.8, 1.5)
    elev = np.radians(rng.uniform(15.0, 75.0))
    azim = rng.uniform(0.0, 2 * np.pi)
    offset = radius * np.array(
        [np.cos(elev) * np.cos(azim), np.cos(elev) * np.sin(azim), np.sin(elev)]
    )
    position = np.asarray(target, dtype=np.float64) + offset
    fwd = unit(np.asarray(target) - position)
    up = np.array([0.0, 0.0, 1.0])
    x_cam = unit(cross(fwd, up))
    y_cam = cross(fwd, x_cam)  # points "down" in world
    R = np.stack([x_cam, y_cam, fwd], axis=0)
    focal = float(np.clip(FILL * (IMAGE_HEIGHT / 2.0) * radius / scene_radius, 60.0, 700.0))
    return Camera(
        fx=focal,
        fy=focal,
        cx=(IMAGE_WIDTH - 1) / 2.0,
        cy=(IMAGE_HEIGHT - 1) / 2.0,
        width=IMAGE_WIDTH,
        height=IMAGE_HEIGHT,
        R=R,
        t=-R @ position,
    )


def ray_box_hits(dirs: np.ndarray, R: np.ndarray, t: np.ndarray, half: np.ndarray):
    """Slab-test depth of origin rays against an oriented box; inf = miss."""
    d_loc = dirs @ R  # R^T applied to each direction
    o_loc = -R.T @ t
    safe = np.where(np.abs(d_loc) < 1e-12, 1e-12, d_loc)
    t1 = (-half - o_loc) / safe
    t2 = (half - o_loc) / safe
    t_near = np.minimum(t1, t2).max(axis=1)
    t_far = np.maximum(t1, t2).min(axis=1)
    hit = (t_far >= t_near) & (t_far > 1e-6) & (t_near > 1e-6)
    return np.where(hit, t_near, np.inf)


def ray_capsule_hits(dirs: np.ndarray, A: np.ndarray, B: np.ndarray, r: float):
    """Depth of origin rays against a capsule segment; inf = miss."""
    u = B - A
    L = np.linalg.norm(u)
    uh = u / L
    # infinite cylinder part
    w = dirs - (dirs @ uh)[:, None] * uh
    q = -A + (A @ uh) * uh
    a = (w * w).sum(axis=1)
    b = 2.0 * (w @ q)
    c = q @ q - r * r
    disc = b * b - 4 * a * c
    t_cyl = np.full(len(dirs), np.inf)
    ok = (disc >= 0) & (a > 1e-14)
    tc = (-b[ok] - np.sqrt(disc[ok])) / (2 * a[ok])
    axial = (tc[:, None] * dirs[ok] - A) @ uh
    good = (tc > 1e-6) & (axial >= 0) & (axial <= L)
    vals = np.where(good, tc, np.inf)
    t_cyl[ok] = vals

    def sphere(center):
        bb = -2.0 * (dirs @ center)
        cc = center @ center - r * r
        dd = bb * bb - 4 * cc
        ts = np.full(len(dirs), np.inf)
        m = dd >= 0
        tt = (-bb[m] - np.sqrt(dd[m])) / 2.0
        ts[m] = np.where(tt > 1e-6, tt, np.inf)
        return ts

    return np.minimum(t_cyl, np.minimum(sphere(A), sphere(B)))


def cone_rows(dirs: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the unit rays whose direction lies in the cone from the
    origin around the sphere (center, radius), widened by `_CONE_MARGIN`;
    every ray when the origin lies inside the sphere."""
    dist = float(np.linalg.norm(center))
    if dist <= radius:
        return np.arange(len(dirs))
    cos_lim = np.cos(np.arcsin(radius / dist) + _CONE_MARGIN)
    return np.flatnonzero(dirs @ (center / dist) >= cos_lim)


def furthest_point_sample(points: np.ndarray, n: int, rng: np.random.Generator):
    """Classic FPS (PointNet++); returns selected indices. Start index drawn
    from rng.

    Works on three contiguous float64 coordinate columns and in-place
    buffers. Each distance is sqrt((dx^2 + dy^2) + dz^2), the same sum order
    and rounding as np.linalg.norm(points - p, axis=1), so every argmax and
    tie falls where the row-wise form puts it.
    """
    x, y, z = np.array(points, dtype=np.float64).T.copy()
    m = len(x)
    idx = np.empty(n, dtype=np.int64)
    idx[0] = rng.integers(m)
    dist, d, sq = np.empty(m), np.empty(m), np.empty(m)

    def distance_to(j, out):
        np.subtract(x, x[j], out=out)
        np.multiply(out, out, out=out)
        for col in (y, z):
            np.subtract(col, col[j], out=sq)
            np.multiply(sq, sq, out=sq)
            np.add(out, sq, out=out)
        np.sqrt(out, out=out)

    distance_to(idx[0], dist)
    for i in range(1, n):
        idx[i] = dist.argmax()
        distance_to(idx[i], d)
        np.minimum(dist, d, out=dist)
    return idx


def render_partial_cloud(
    boxes,  # [(OrientedBox, label int >= 1), ...] camera frame
    capsules,  # [(A, B, radius), ...] camera frame, all labeled HAND_LABEL
    camera: Camera,
    n_points: int,
    rng: np.random.Generator,
):
    """The FPS candidate pool of the visible surface, with per-point labels.

    Returns (points (m, 3) camera frame, labels (m,) uint8): the hit
    points, subsampled to m = _MAX_RAW_POINTS with one rng draw when there
    are more. Raises EmptyView, before drawing from rng, when fewer than
    n_points pixels are hit.
    """
    dirs = camera.ray_directions()
    depth = np.full(len(dirs), np.inf)
    label = np.full(len(dirs), -1, dtype=np.int32)

    def z_update(rows, hits, lab):
        closer = hits < depth[rows]
        rows = rows[closer]
        depth[rows] = hits[closer]
        label[rows] = lab

    for box, lab in boxes:
        E = box.edge_vectors()
        R = (E.T / np.linalg.norm(E, axis=1))  # columns = edge directions
        half = np.linalg.norm(E, axis=1) / 2.0
        center = box.center
        rows = cone_rows(dirs, center, float(np.linalg.norm(half)))
        z_update(rows, ray_box_hits(dirs[rows], R, center, half), lab)

    for A, B, r in capsules:
        A, B, r = np.asarray(A), np.asarray(B), float(r)
        rows = cone_rows(dirs, (A + B) / 2.0, float(np.linalg.norm(B - A)) / 2.0 + r)
        z_update(rows, ray_capsule_hits(dirs[rows], A, B, r), HAND_LABEL)

    mask = np.isfinite(depth)
    raw_count = int(mask.sum())
    if raw_count == 0:
        raise EmptyView("no primitive projects into the image")
    if raw_count < n_points:
        raise EmptyView(f"only {raw_count} visible pixels < requested {n_points} points")

    pts = depth[mask, None] * dirs[mask]
    labs = label[mask]
    if raw_count > _MAX_RAW_POINTS:
        keep = rng.choice(raw_count, size=_MAX_RAW_POINTS, replace=False)
        pts, labs = pts[keep], labs[keep]
    return pts, labs.astype(np.uint8)
