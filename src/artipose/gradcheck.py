"""Finite-difference gradient suites for every differentiable path.

All suites run in float64 with central differences against the analytic
tape gradients, on fresh seeded random weights and inputs. Used by the
`gradcheck` CLI command and by the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffgeom as dg
from . import nn
from .errors import ArtiposeError
from .estimator import Estimator, EstimatorSpec, layout_graph, pose_loss_graph
from .geometry import rot6d_to_matrix
from .priors import ContactDiffuser, Discriminator, NoiseSchedule, diff_loss_graph
from .synth.hand import default_hand_template, fk_vars

DEFAULT_TOL = 1e-3


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_rel_err: float
    probes: int

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: max rel err {self.max_rel_err:.2e} over {self.probes} probes"


def _rel(a: float, b: float) -> float:
    denom = max(abs(a), abs(b), 1e-6)
    return abs(a - b) / denom


def _fd_probe_store(loss_fn, store, probes, h=1e-5):
    """Max relative error between store.grads and central differences.

    h = 1e-5 keeps both the f64 rounding floor and the odds of stepping
    across a ReLU kink small.
    """
    store.zero_grads()
    loss_fn(backward=True)
    worst = 0.0
    for name, idx in probes:
        analytic = float(store.grads[name].flat[idx])
        orig = float(store.params[name].flat[idx])
        store.params[name].flat[idx] = orig + h
        store.version += 1
        lp = loss_fn(backward=False)
        store.params[name].flat[idx] = orig - h
        store.version += 1
        lm = loss_fn(backward=False)
        store.params[name].flat[idx] = orig
        store.version += 1
        fd = (lp - lm) / (2 * h)
        if abs(analytic - fd) > 1e-8:
            worst = max(worst, _rel(analytic, fd))
    return worst


def _random_probes(store, rng, count):
    out = []
    names = store.names()
    for _ in range(count):
        name = names[rng.integers(len(names))]
        out.append((name, int(rng.integers(store.params[name].size))))
    return out


def _f64_estimator(spec: EstimatorSpec, seed: int) -> Estimator:
    est = Estimator.create(spec, seed)
    for name in est.store.names():
        est.store.params[name] = est.store.params[name].astype(np.float64)
        est.store.grads[name] = est.store.grads[name].astype(np.float64)
        est.store._m[name] = est.store._m[name].astype(np.float64)
        est.store._v[name] = est.store._v[name].astype(np.float64)
    return est


def _scene_fixture(rng, n_points=60, part_count=2):
    cloud = rng.normal(size=(n_points, 3)) * 0.2
    labels = np.concatenate(
        [np.full(n_points - 2 * (n_points // 3), 0)]
        + [np.full(n_points // 3, p + 1) for p in range(part_count)]
    )
    rng.shuffle(labels)
    # ensure every class keeps enough members after the shuffle
    for cls in range(part_count + 1):
        assert (labels == cls).sum() >= 8
    gt_nocs = rng.uniform(0.1, 0.9, size=(n_points, 3))
    gt_rot = np.stack(
        [
            np.concatenate([M[:, 0], M[:, 1]])
            for M in (rot6d_to_matrix(rng.normal(size=6)) for _ in range(part_count))
        ]
    )
    extents = rng.uniform(0.05, 0.3, size=(part_count, 3))
    return cloud, labels, gt_nocs, gt_rot, extents


def check_encoder(seed=0, probes=20, tol=DEFAULT_TOL) -> SuiteResult:
    rng = np.random.default_rng(seed)
    spec = EstimatorSpec(part_count=2)
    est = _f64_estimator(spec, seed)
    cloud = rng.normal(size=(1, 40, 3))
    W = rng.normal(size=(40, spec.feature_dim))

    def loss(backward):
        tape = ad.Tape()
        z, _ = est.encode_graph(tape, cloud)
        out = ad.vsum(ad.mul(z, ad.const(W, tape)))
        if backward:
            tape.backward(out)
            est.store.flush_tape_grads(tape)
        return float(out.data)

    enc_probes = [
        p for p in _random_probes(est.store, rng, probes * 4) if p[0].startswith("enc")
    ][:probes]
    worst = _fd_probe_store(loss, est.store, enc_probes)
    return SuiteResult("encoder", worst < tol, worst, len(enc_probes))


def check_heads(seed=1, probes=20, tol=DEFAULT_TOL) -> SuiteResult:
    rng = np.random.default_rng(seed)
    spec = EstimatorSpec(part_count=2)
    est = _f64_estimator(spec, seed)
    cloud = rng.normal(size=(1, 40, 3))
    Wseg = rng.normal(size=(40, spec.n_classes))
    Wnocs = rng.normal(size=(40, 3))
    Wrot = rng.normal(size=(1, spec.part_count, 6))

    def loss(backward):
        tape = ad.Tape()
        z, pooled = est.encode_graph(tape, cloud)
        seg, nocs, rot = est.heads_graph(tape, z, pooled)
        out = ad.add(
            ad.add(
                ad.vsum(ad.mul(seg, ad.const(Wseg, tape))),
                ad.vsum(ad.mul(nocs, ad.const(Wnocs, tape))),
            ),
            ad.vsum(ad.mul(rot, ad.const(Wrot, tape))),
        )
        if backward:
            tape.backward(out)
            est.store.flush_tape_grads(tape)
        return float(out.data)

    worst = _fd_probe_store(loss, est.store, _random_probes(est.store, rng, probes))
    return SuiteResult("heads", worst < tol, worst, probes)


def check_end_to_end(seed=2, probes=20, tol=DEFAULT_TOL) -> SuiteResult:
    """Eq.-1 pose loss + assembled boxes as a function of all parameters."""
    rng = np.random.default_rng(seed)
    spec = EstimatorSpec(part_count=2)
    est = _f64_estimator(spec, seed)
    cloud, labels, gt_nocs, gt_rot, extents = _scene_fixture(rng)
    Wbox = rng.normal(size=(spec.part_count, 8, 3))

    def loss(backward):
        tape = ad.Tape()
        z, pooled = est.encode_graph(tape, cloud[None])
        seg, nocs, rot = est.heads_graph(tape, z, pooled)
        total, _ = pose_loss_graph(
            tape, seg, nocs, rot, labels[None], gt_nocs[None], gt_rot[None], 1.0, 1.0, 10.0
        )
        boxes = layout_graph(
            tape, cloud, labels, nocs, ad.reshape(rot, (spec.part_count, 6)), extents
        )
        if isinstance(boxes, str):
            raise ArtiposeError(f"fixture scene has no layout: {boxes}")
        total = ad.add(total, ad.vsum(ad.mul(boxes, ad.const(Wbox, tape))))
        if backward:
            tape.backward(total)
            est.store.flush_tape_grads(tape)
        return float(total.data)

    worst = _fd_probe_store(loss, est.store, _random_probes(est.store, rng, probes))
    return SuiteResult("end_to_end_pose", worst < tol, worst, probes)


def check_discriminator(seed=3, probes=20, tol=DEFAULT_TOL) -> SuiteResult:
    """Both parameter grads and box-vertex input grads of the LSGAN terms."""
    rng = np.random.default_rng(seed)
    disc = Discriminator.create(2, seed)
    for name in disc.store.names():
        disc.store.params[name] = disc.store.params[name].astype(np.float64)
        disc.store.grads[name] = disc.store.grads[name].astype(np.float64)
    layout = rng.normal(size=(2, 8, 3))

    def loss(backward):
        tape = ad.Tape()
        s = disc.score_graph(tape, ad.const(layout, tape))
        d = ad.sub(s, 1.0)
        out = ad.mul(d, d)
        if backward:
            tape.backward(out)
            disc.store.flush_tape_grads(tape)
        return float(out.data)

    worst = _fd_probe_store(loss, disc.store, _random_probes(disc.store, rng, probes))

    # input-side gradient at one box vertex
    tape = ad.Tape()
    lv = ad.leaf(layout, tape)
    s = disc.score_graph(tape, lv)
    d = ad.sub(s, 1.0)
    tape.backward(ad.mul(d, d))
    h = 1e-5
    for _ in range(probes // 2):
        i, j, k = rng.integers(2), rng.integers(8), rng.integers(3)
        lp, lm = layout.copy(), layout.copy()
        lp[i, j, k] += h
        lm[i, j, k] -= h

        def val(arr):
            t2 = ad.Tape()
            sc = disc.score_graph(t2, ad.const(arr, t2))
            return float(((sc.data) - 1.0) ** 2)

        fd = (val(lp) - val(lm)) / (2 * h)
        analytic = float(lv.grad[i, j, k])
        if abs(analytic - fd) > 1e-8:
            worst = max(worst, _rel(analytic, fd))
    return SuiteResult("discriminator", worst < tol, worst, probes + probes // 2)


def check_denoiser(seed=4, probes=20, tol=DEFAULT_TOL) -> SuiteResult:
    rng = np.random.default_rng(seed)
    diffuser = ContactDiffuser.create(32, seed, NoiseSchedule.linear(20))
    for name in diffuser.store.names():
        diffuser.store.params[name] = diffuser.store.params[name].astype(np.float64)
        diffuser.store.grads[name] = diffuser.store.grads[name].astype(np.float64)
    z = rng.normal(size=(30, 32))
    x0 = np.sign(rng.normal(size=(30, 1)))
    eps = rng.normal(size=(30, 1))
    t = 7

    def loss(backward):
        tape = ad.Tape()
        out = diff_loss_graph(diffuser, tape, ad.const(z, tape), x0, t, eps)
        if backward:
            tape.backward(out)
            diffuser.store.flush_tape_grads(tape)
        return float(out.data)

    worst = _fd_probe_store(loss, diffuser.store, _random_probes(diffuser.store, rng, probes))
    return SuiteResult("denoiser", worst < tol, worst, probes)


def check_hand_chamfer(seed=5, probes=24, tol=DEFAULT_TOL) -> SuiteResult:
    """Chamfer(FK surface, contact points) vs FD over the 24 hand params."""
    rng = np.random.default_rng(seed)
    template = default_hand_template(128)
    C = rng.normal(size=(40, 3)) * 0.05 + np.array([0.0, 0.1, 0.05])
    r6_0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]) + 0.1 * rng.normal(size=6)
    t_0 = rng.normal(size=3) * 0.02
    ang_0 = rng.uniform(0.2, 1.0, size=15)
    params0 = np.concatenate([r6_0, t_0, ang_0])

    def surfaces(params, tape):
        r6 = ad.leaf(params[:6], tape)
        t = ad.leaf(params[6:9], tape)
        ang = ad.leaf(params[9:], tape)
        R = dg.rot6d_to_matrix(r6)
        _, surf = fk_vars(template, R, t, ang)
        return surf, (r6, t, ang)

    tape = ad.Tape()
    surf, leaves = surfaces(params0, tape)
    assign = dg.chamfer_assignments(surf.data, C)
    loss = dg.chamfer_fixed(surf, ad.const(C, tape), assignments=assign)
    tape.backward(loss)
    grad = np.concatenate([lv.grad if lv.grad is not None else np.zeros(lv.data.shape) for lv in leaves])

    def value(params):
        t2 = ad.Tape()
        surf2, _ = surfaces(params, t2)
        return float(dg.chamfer_fixed(surf2, ad.const(C, t2), assignments=assign).data)

    worst = 0.0
    h = 1e-6
    idxs = rng.choice(24, size=min(probes, 24), replace=False)
    for idx in idxs:
        pp, pm = params0.copy(), params0.copy()
        pp[idx] += h
        pm[idx] -= h
        fd = (value(pp) - value(pm)) / (2 * h)
        if abs(grad[idx] - fd) > 1e-8:
            worst = max(worst, _rel(grad[idx], fd))
    return SuiteResult("hand_fk_chamfer", worst < tol, worst, len(idxs))


ALL_SUITES = (
    check_encoder,
    check_heads,
    check_end_to_end,
    check_discriminator,
    check_denoiser,
    check_hand_chamfer,
)


def run_all(seed: int = 0, tol: float = DEFAULT_TOL) -> list:
    return [suite(seed=seed + i, tol=tol) for i, suite in enumerate(ALL_SUITES)]
