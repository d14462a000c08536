"""Closed-form 3D math: rotations, similarity fits, boxes, distances, contact.

Everything here is pure and operates on plain float64 numpy arrays. Point
clouds are (N, 3) arrays in meters, camera frame unless stated otherwise.

`cross` is the package's one 3-vector cross product. It gives np.cross's
bits without its axis shuffling: the result takes the operands' promoted
dtype, and each component is one rounded product minus another, in
np.cross's order (a1*b2 - a2*b1, a2*b0 - a0*b2, a0*b1 - a1*b0). Only
`rot6d_to_matrix` keeps np.cross, so that it stays an independent oracle
for the differentiable Gram-Schmidt in diffgeom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRotation, EmptyCloud

# Contact threshold in meters: the paper does not pin tau; change it here.
CONTACT_TAU = 0.01

# Entries in one block of sq_dist_blocks: 256 KB of float64, 64 rows against
# the hand's 512 surface samples.
SQ_DIST_BLOCK = 2**15

# Corner k of a box has sign pattern given by the bits of k, x most
# significant: k = 4*bx + 2*by + bz, bit 0 -> -h, bit 1 -> +h.
_CORNER_SIGNS = np.array(
    [[(k >> 2) & 1, (k >> 1) & 1, k & 1] for k in range(8)], dtype=np.float64
) * 2.0 - 1.0


def box_half_extents(boxes) -> np.ndarray:
    """(P, 3) half extents of canonical (origin-centred, axis-aligned)
    boxes: corner 7 of each, whose signs are all +."""
    return np.stack([b.vertices[7] for b in boxes])


def cross(a, b) -> np.ndarray:
    """Cross product of (..., 3) arrays, broadcast; bit for bit np.cross
    (see the module docstring)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-1:] != (3,) or b.shape[-1:] != (3,):
        raise ValueError(f"cross expects (..., 3) operands, got {a.shape} and {b.shape}")
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.promote_types(a.dtype, b.dtype))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def unit(v) -> np.ndarray:
    """v / |v| for one vector."""
    return v / np.linalg.norm(v)


def _allclose(x, y) -> bool:
    """np.allclose(x, y, rtol=1e-5, atol=1e-6) without its per-call set-up:
    the same elementwise test, |x - y| <= atol + rtol * |y| where y is
    finite, or x == y."""
    with np.errstate(invalid="ignore"):
        close = (np.abs(x - y) <= 1e-6 + 1e-5 * np.abs(y)) & np.isfinite(y) | (x == y)
    return bool(close.all())


# The six box edges that must repeat ex, ex, ey, ey, ez, ez: heads minus tails.
_EDGE_HEADS = np.array([6, 7, 3, 7, 5, 7])
_EDGE_TAILS = np.array([2, 3, 1, 5, 4, 6])


def as_cloud(points) -> np.ndarray:
    """Validate and return an (N, 3) float64 point cloud."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise EmptyCloud(f"expected (N, 3) cloud with N >= 1, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point cloud contains non-finite coordinates")
    return pts


@dataclass(frozen=True)
class SimilarityTransform:
    """Rigid rotation + finite translation + uniform positive finite scale."""

    R: np.ndarray  # (3, 3)
    t: np.ndarray  # (3,)
    s: float

    def __post_init__(self):
        R = np.asarray(self.R, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.t, dtype=np.float64).reshape(3)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", float(self.s))
        if not (math.isfinite(self.s) and self.s > 0):
            raise ValueError(f"scale must be positive and finite, got {self.s}")
        if not np.isfinite(t).all():
            raise ValueError(f"translation must be finite, got {t}")
        if not _allclose(R.T @ R, np.eye(3)):
            raise ValueError("R is not orthonormal within 1e-6")
        if abs(np.linalg.det(R) - 1.0) > 1e-6:
            raise ValueError("det(R) != +1 within 1e-6")

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map points (..., 3) through s * R @ p + t."""
        pts = np.asarray(points, dtype=np.float64)
        return self.s * pts @ self.R.T + self.t

    def compose(self, other: "SimilarityTransform") -> "SimilarityTransform":
        """Return self applied after other: x -> self(other(x))."""
        return SimilarityTransform(
            self.R @ other.R, self.s * self.R @ other.t + self.t, self.s * other.s
        )


@dataclass(frozen=True)
class OrientedBox:
    """A parallelepiped stored as 8 ordered corners (canonical bit order)."""

    vertices: np.ndarray  # (8, 3)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(8, 3)
        object.__setattr__(self, "vertices", v)
        if not np.isfinite(v).all():
            raise ValueError("box vertices contain non-finite values")
        # Opposite edges of a parallelepiped must match (corner order: index
        # bits select +/- per axis, x most significant): v6 - v2 and v7 - v3
        # match ex = v4 - v0, v3 - v1 and v7 - v5 match ey = v2 - v0, and
        # v5 - v4 and v7 - v6 match ez = v1 - v0.
        edges = v[[4, 2, 1]] - v[0]
        if not _allclose(v[_EDGE_HEADS] - v[_EDGE_TAILS], edges[[0, 0, 1, 1, 2, 2]]):
            raise ValueError("vertices do not form a parallelepiped")
        if abs(float(np.linalg.det(edges))) <= 0.0:
            raise ValueError("box has zero volume")

    @classmethod
    def from_extents(cls, half_extents) -> "OrientedBox":
        """Axis-aligned box centered at the origin with the given half extents."""
        h = np.asarray(half_extents, dtype=np.float64).reshape(3)
        if (h <= 0).any():
            raise ValueError("half extents must be positive")
        return cls(_CORNER_SIGNS * h)

    @property
    def center(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def edge_vectors(self) -> np.ndarray:
        """The three edge vectors (full lengths) leaving corner 0."""
        v = self.vertices
        return np.stack([v[4] - v[0], v[2] - v[0], v[1] - v[0]])

    def volume(self) -> float:
        return abs(float(np.linalg.det(self.edge_vectors())))


def rot6d_to_matrix(r) -> np.ndarray:
    """Gram-Schmidt a 6D rotation representation into a rotation matrix.

    r holds the first two (unnormalized) columns of the target matrix,
    laid out as (a1x, a1y, a1z, a2x, a2y, a2z).
    """
    r = np.asarray(r, dtype=np.float64).reshape(6)
    if not np.isfinite(r).all():
        raise DegenerateRotation("non-finite 6D rotation input")
    a1, a2 = r[:3], r[3:]
    n1 = np.linalg.norm(a1)
    if n1 < 1e-8:
        raise DegenerateRotation("first column near zero")
    b1 = a1 / n1
    a2_orth = a2 - (a2 @ b1) * b1
    n2 = np.linalg.norm(a2_orth)
    if n2 < 1e-8:
        raise DegenerateRotation("columns near parallel or second column near zero")
    b2 = a2_orth / n2
    return np.stack([b1, b2, np.cross(b1, b2)], axis=1)


def matrix_to_rot6d(R) -> np.ndarray:
    """First two columns of a rotation matrix, flattened column-first."""
    R = np.asarray(R, dtype=np.float64).reshape(3, 3)
    return np.concatenate([R[:, 0], R[:, 1]])


def transform_box(canonical: OrientedBox, pose: SimilarityTransform) -> OrientedBox:
    """Map every corner through the similarity transform, order preserved."""
    return OrientedBox(pose.apply(canonical.vertices))


def rotation_error(R1, R2) -> float:
    """Geodesic angle between two rotations, in degrees."""
    R1 = np.asarray(R1, dtype=np.float64).reshape(3, 3)
    R2 = np.asarray(R2, dtype=np.float64).reshape(3, 3)
    c = (np.trace(R1.T @ R2) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


# The six faces of a box as corner cycles (canonical bit order): for each
# axis bit, the corners with that bit clear and with it set, walked around
# the other two bits.
_BOX_FACES = (
    (0, 2, 3, 1), (4, 6, 7, 5),
    (0, 4, 5, 1), (2, 6, 7, 3),
    (0, 4, 6, 2), (1, 5, 7, 3),
)

# Clipping tolerance as a fraction of the longest box edge.
_CLIP_TOL = 1e-9


def _half_spaces(box: OrientedBox) -> list:
    """(nx, ny, nz, d) per face: the box is n . x <= d, with n the unit
    outward normal. Outward is decided against the center, so any corner
    handedness (det of the edge vectors < 0 included) is fine."""
    corners = box.vertices[np.array(_BOX_FACES)]  # (6, 4, 3)
    n = cross(corners[:, 1] - corners[:, 0], corners[:, 3] - corners[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    inward = ((box.center - corners[:, 0]) * n).sum(axis=1) > 0
    n[inward] *= -1.0
    d = (n * corners[:, 0]).sum(axis=1)
    return [(*nk, dk) for nk, dk in zip(n.tolist(), d.tolist())]


def _cap_polygon(points: list, nx: float, ny: float, nz: float) -> list:
    """Order points lying on the plane with normal n into a polygon cycle by
    their angle about the centroid."""
    k = len(points)
    cx = sum(p[0] for p in points) / k
    cy = sum(p[1] for p in points) / k
    cz = sum(p[2] for p in points) / k
    # u = n x e and v = n x u span the plane; e is the x axis, or the y axis
    # when n is close to x.
    if abs(nx) < 0.9:
        ux, uy, uz = 0.0, nz, -ny
    else:
        ux, uy, uz = -nz, 0.0, nx
    vx, vy, vz = ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux

    def angle(p):
        rx, ry, rz = p[0] - cx, p[1] - cy, p[2] - cz
        return math.atan2(vx * rx + vy * ry + vz * rz, ux * rx + uy * ry + uz * rz)

    return sorted(points, key=angle)


def _clip(faces: list, plane: tuple, tol: float) -> list:
    """Cut a closed convex polytope (list of face cycles) by n . x <= d.

    Sutherland-Hodgman on every face; points within tol of the plane count
    as inside and, with the edge crossings, form the cap that closes the cut.
    """
    nx, ny, nz, d = plane
    kept, cap = [], []
    for face in faces:
        dist = [nx * x + ny * y + nz * z - d for x, y, z in face]
        out = []
        m = len(face)
        for k in range(m):
            p, dp = face[k], dist[k]
            q, dq = face[(k + 1) % m], dist[(k + 1) % m]
            if dp <= tol:
                out.append(p)
                if dp >= -tol:
                    cap.append(p)
                    continue
                if dq <= tol:
                    continue
            elif dq >= -tol:
                continue
            # p and q lie strictly on opposite sides: add the crossing.
            t = dp / (dp - dq)
            x = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]), p[2] + t * (q[2] - p[2]))
            out.append(x)
            cap.append(x)
        if len(out) >= 3:
            kept.append(out)
    if kept and len(cap) >= 3:
        kept.append(_cap_polygon(cap, nx, ny, nz))
    return kept


def _closed_volume(faces: list) -> float:
    """Volume enclosed by the face cycles of a convex polytope.

    Divergence theorem about an interior point c (the mean of the face
    points): each face adds the pyramid |S_f . (p_f - c)| / 3, with S_f its
    vector area. The absolute value makes the face winding irrelevant.
    """
    k = sum(len(f) for f in faces)
    cx = sum(p[0] for f in faces for p in f) / k
    cy = sum(p[1] for f in faces for p in f) / k
    cz = sum(p[2] for f in faces for p in f) / k
    total = 0.0
    for f in faces:
        sx = sy = sz = 0.0
        ax, ay, az = f[-1][0] - cx, f[-1][1] - cy, f[-1][2] - cz
        for p in f:
            bx, by, bz = p[0] - cx, p[1] - cy, p[2] - cz
            sx += ay * bz - az * by
            sy += az * bx - ax * bz
            sz += ax * by - ay * bx
            ax, ay, az = bx, by, bz
        total += abs(sx * ax + sy * ay + sz * az)
    return total / 6.0


def box_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Exact volumetric IoU of two oriented boxes (general parallelepipeds).

    The six faces of a are clipped in turn against the six half-spaces of b
    (Sutherland-Hodgman in 3D); each cut is closed with a cap polygon made
    from the points left on the cutting plane, and the intersection volume
    follows from the closed faces by the divergence theorem (the polytope
    clipping of the Objectron 3D IoU, Ahmadyan et al., arXiv 2012.09988).
    A plane that no vertex lies strictly outside of is skipped, so identical
    or face-sharing boxes get no duplicate cap. Returns
    inter / (vol_a + vol_b - inter): 0.0 for disjoint boxes, 0 up to
    rounding for boxes that only touch.
    """
    vol_a, vol_b = a.volume(), b.volume()
    edges = np.concatenate([a.edge_vectors(), b.edge_vectors()])
    tol = _CLIP_TOL * float(np.linalg.norm(edges, axis=1).max())
    corners = [tuple(v) for v in a.vertices.tolist()]
    faces = [[corners[i] for i in face] for face in _BOX_FACES]
    for plane in _half_spaces(b):
        nx, ny, nz, d = plane
        if all(nx * x + ny * y + nz * z - d <= tol for x, y, z in corners):
            continue
        faces = _clip(faces, plane, tol)
        if not faces:
            return 0.0
        corners = [p for f in faces for p in f]
    inter = min(_closed_volume(faces), vol_a, vol_b)
    return inter / (vol_a + vol_b - inter)


def sq_dist_blocks(a, b):
    """Squared distances between the rows of a (N, 3) and b (M, 3), as
    (start, block) pairs: block is the (rows, M) slab of a[start:start +
    rows] against all of b, in order of start.

    Every block but the last has max(1, SQ_DIST_BLOCK // M) rows, so the
    scratch is two buffers of at most about SQ_DIST_BLOCK entries each,
    whatever N is (at M = 512 hand surface points, 64 rows). Each yielded
    block is a view of one of them and the next block overwrites it: reduce
    it before asking for the next. The entries take the operands' promoted
    dtype and accumulate one coordinate at a time, (dx^2 + dy^2) + dz^2,
    the order in which `((a[:, None] - b[None]) ** 2).sum(axis=2)` adds its
    three terms. Each entry comes from its own row and column alone, so
    any reduction over the blocks that does not depend on the grouping of
    its rows (a min, or an argmin whose ties go to the first row) equals
    that of the full broadcast bit for bit.
    """
    n, m = len(a), len(b)
    rows = max(1, SQ_DIST_BLOCK // max(m, 1))
    d2 = np.empty((min(n, rows), m), np.result_type(a, b))
    sq = np.empty_like(d2)
    aT, bT = np.ascontiguousarray(a.T)[..., None], np.ascontiguousarray(b.T)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        d, s = d2[: stop - start], sq[: stop - start]
        np.subtract(aT[0, start:stop], bT[0], out=d)
        np.multiply(d, d, out=d)
        for k in (1, 2):
            np.subtract(aT[k, start:stop], bT[k], out=s)
            np.multiply(s, s, out=s)
            np.add(d, s, out=d)
        yield start, d


def compute_contact_map(obj_pts, hand_pts, tau: float = CONTACT_TAU) -> np.ndarray:
    """Binary per-object-point contact: min distance to any hand point < tau.

    Only the object points inside the hand points' bounding box, widened
    by pad = tau * (1 + 1e-9) + 4 eps max|h|, get distances; the rest are
    0. That is exact. Along one axis, a point outside the box is farther
    from every hand point than pad less the rounding of the box bound (eps/2
    of |h| + pad), so farther than tau * (1 + 1e-9) * (1 - eps). Rounding
    the difference, the squares, the sums and the sqrt loses a factor of at
    most (1 - eps/2) each, so its computed distance stays above tau, as in
    the full map (for any tau whose square is a normal float). The points
    inside take their squared distances from `sq_dist_blocks`, in the sum
    order of the (N_obj, S, 3) broadcast this replaced, and each block's
    row minimum is exact, so every distance and every comparison with tau
    is unchanged. The scratch stays at the kernel's two blocks however many
    points are near the hand.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    o = as_cloud(obj_pts)
    h = as_cloud(hand_pts)
    pad = tau * (1 + 1e-9) + 4 * np.finfo(np.float64).eps * np.abs(h).max()
    near = np.flatnonzero(
        ((o >= h.min(axis=0) - pad) & (o <= h.max(axis=0) + pad)).all(axis=1)
    )
    contact = np.zeros(len(o), dtype=np.uint8)
    if len(near):
        nearest = np.empty(len(near))
        for start, d2 in sq_dist_blocks(o[near], h):
            d2.min(axis=1, out=nearest[start : start + len(d2)])
        contact[near] = np.sqrt(nearest) < tau
    return contact


def point_box_distance(points, box: OrientedBox) -> np.ndarray:
    """Euclidean distance from each point to the box surface (0 inside).

    Requires orthogonal box edges (true for any cuboid under a similarity
    transform, which is every box this package produces).
    """
    pts = np.asarray(points, dtype=np.float64)
    E = box.edge_vectors()
    frac = (pts - box.vertices[0]) @ np.linalg.inv(E)
    clamped = np.clip(frac, 0.0, 1.0)
    nearest = box.vertices[0] + clamped @ E
    return np.linalg.norm(pts - nearest, axis=-1)
