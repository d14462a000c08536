"""Shared test utilities."""

import numpy as np


def rel_err(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_vs_analytic(loss_fn, store, probes, h=1e-4):
    """Central finite differences against grads already in `store.grads`.

    loss_fn() evaluates the scalar loss (forward only) at the store's
    current values. Returns [(name, idx, analytic, fd), ...].
    """
    results = []
    for name, idx in probes:
        orig = float(store.params[name].flat[idx])
        store.params[name].flat[idx] = orig + h
        store.version += 1
        lp = loss_fn()
        store.params[name].flat[idx] = orig - h
        store.version += 1
        lm = loss_fn()
        store.params[name].flat[idx] = orig
        store.version += 1
        fd = (lp - lm) / (2.0 * h)
        results.append((name, idx, float(store.grads[name].flat[idx]), fd))
    return results


def random_probes(store, rng, count=20):
    """Uniformly sample (name, flat index) pairs across a ParamStore."""
    names = store.names()
    out = []
    for _ in range(count):
        name = names[rng.integers(len(names))]
        out.append((name, int(rng.integers(store.params[name].size))))
    return out


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


def mc_box_iou(a, b, samples, seed):
    """Monte-Carlo box IoU, the oracle for the exact geometry.box_iou.

    Samples uniformly in the joint axis-aligned bounding volume; returns
    (#in both / #in either, #in either), the IoU 0.0 when no sample hits.
    """
    all_v = np.vstack([a.vertices, b.vertices])
    pts = np.random.default_rng(seed).uniform(all_v.min(axis=0), all_v.max(axis=0), size=(samples, 3))
    in_a, in_b = a.contains(pts), b.contains(pts)
    union = int((in_a | in_b).sum())
    if union == 0:
        return 0.0, 0
    return float((in_a & in_b).sum()) / union, union
