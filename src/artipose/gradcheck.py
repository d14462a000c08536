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
from .synth.hand import default_hand_template, fk_vars, root_frame_vars

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
    """Max relative error between the tape gradient and central differences
    at (name, flat index) probes of `store`.

    loss_fn(tape) builds the scalar loss on `tape`. It is swept once on a
    grad tape; every difference is evaluated on a tape that records nothing.
    h = 1e-5 keeps both the f64 rounding floor and the odds of stepping
    across a ReLU kink small.
    """
    store.zero_grads()
    tape = ad.Tape()
    tape.backward(loss_fn(tape))
    store.flush_tape_grads(tape)

    def set_param(name, idx, x):
        store.params[name].flat[idx] = x
        store.version += 1

    def value_at(name, idx, x):
        set_param(name, idx, x)
        return float(loss_fn(ad.Tape(grad=False)).data)

    worst = 0.0
    for name, idx in probes:
        analytic = float(store.grads[name].flat[idx])
        orig = float(store.params[name].flat[idx])
        fd = (value_at(name, idx, orig + h) - value_at(name, idx, orig - h)) / (2 * h)
        set_param(name, idx, orig)
        worst = max(worst, _rel(analytic, fd))
    return worst


def _random_probes(store, rng, count):
    out = []
    names = store.names()
    for _ in range(count):
        name = names[rng.integers(len(names))]
        out.append((name, int(rng.integers(store.params[name].size))))
    return out


def _f64(store: nn.ParamStore, **inputs) -> nn.ParamStore:
    """Make every array of `store` float64 in place and return the store.

    `inputs` are added first as parameters, so that their gradients can be
    probed, and keep their exact float64 values (ParamStore.add rounds to
    float32).
    """
    for name, value in inputs.items():
        store.add(name, value)
    for arrays in (store.params, store.grads, store._m, store._v):
        for name in arrays:
            arrays[name] = arrays[name].astype(np.float64)
    for name, value in inputs.items():
        store.params[name][...] = value
    return store


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
    est = Estimator.create(spec, seed)
    _f64(est.store)
    cloud = rng.normal(size=(1, 40, 3))
    W = rng.normal(size=(40, spec.feature_dim))

    def loss(tape):
        z, _ = est.encode_graph(tape, cloud)
        return ad.vsum(ad.mul(z, ad.const(W, tape)))

    enc_probes = [
        p for p in _random_probes(est.store, rng, probes * 4) if p[0].startswith("enc")
    ][:probes]
    worst = _fd_probe_store(loss, est.store, enc_probes)
    return SuiteResult("encoder", worst < tol, worst, len(enc_probes))


def check_heads(seed=1, probes=20, tol=DEFAULT_TOL) -> SuiteResult:
    rng = np.random.default_rng(seed)
    spec = EstimatorSpec(part_count=2)
    est = Estimator.create(spec, seed)
    _f64(est.store)
    cloud = rng.normal(size=(1, 40, 3))
    Wseg = rng.normal(size=(40, spec.n_classes))
    Wnocs = rng.normal(size=(40, 3))
    Wrot = rng.normal(size=(1, spec.part_count, 6))

    def loss(tape):
        z, pooled = est.encode_graph(tape, cloud)
        seg, nocs, rot = est.heads_graph(tape, z, pooled)
        return ad.add(
            ad.add(
                ad.vsum(ad.mul(seg, ad.const(Wseg, tape))),
                ad.vsum(ad.mul(nocs, ad.const(Wnocs, tape))),
            ),
            ad.vsum(ad.mul(rot, ad.const(Wrot, tape))),
        )

    worst = _fd_probe_store(loss, est.store, _random_probes(est.store, rng, probes))
    return SuiteResult("heads", worst < tol, worst, probes)


def check_end_to_end(seed=2, probes=20, tol=DEFAULT_TOL) -> SuiteResult:
    """Eq.-1 pose loss + assembled boxes as a function of all parameters."""
    rng = np.random.default_rng(seed)
    spec = EstimatorSpec(part_count=2)
    est = Estimator.create(spec, seed)
    _f64(est.store)
    cloud, labels, gt_nocs, gt_rot, extents = _scene_fixture(rng)
    Wbox = rng.normal(size=(spec.part_count, 8, 3))

    def loss(tape):
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
        return ad.add(total, ad.vsum(ad.mul(boxes, ad.const(Wbox, tape))))

    worst = _fd_probe_store(loss, est.store, _random_probes(est.store, rng, probes))
    return SuiteResult("end_to_end_pose", worst < tol, worst, probes)


def check_discriminator(seed=3, probes=20, tol=DEFAULT_TOL) -> SuiteResult:
    """Both parameter grads and box-vertex input grads of the LSGAN terms."""
    rng = np.random.default_rng(seed)
    disc = Discriminator.create(2, seed)
    _f64(disc.store)
    inputs = _f64(nn.ParamStore(), layout=rng.normal(size=(2, 8, 3)))

    def loss(tape):
        d = ad.sub(disc.score_graph(tape, inputs.use("layout", tape)), 1.0)
        return ad.mul(d, d)

    worst = _fd_probe_store(loss, disc.store, _random_probes(disc.store, rng, probes))
    corners = [(rng.integers(2), rng.integers(8), rng.integers(3)) for _ in range(probes // 2)]
    vertex_probes = [("layout", int(np.ravel_multi_index(c, (2, 8, 3)))) for c in corners]
    worst = max(worst, _fd_probe_store(loss, inputs, vertex_probes))
    return SuiteResult("discriminator", worst < tol, worst, probes + probes // 2)


def check_denoiser(seed=4, probes=20, tol=DEFAULT_TOL) -> SuiteResult:
    rng = np.random.default_rng(seed)
    diffuser = ContactDiffuser.create(32, seed, NoiseSchedule.linear(20))
    _f64(diffuser.store)
    z = rng.normal(size=(30, 32))
    x0 = np.sign(rng.normal(size=(30, 1)))
    eps = rng.normal(size=(30, 1))
    t = 7

    def loss(tape):
        return diff_loss_graph(diffuser, tape, ad.const(z, tape), x0, t, eps)

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
    store = _f64(nn.ParamStore(), params=np.concatenate([r6_0, t_0, ang_0]))

    def surface(tape):
        params = store.use("params", tape)
        R = dg.rot6d_to_matrix(ad.take(params, np.arange(6)))
        t, ang = ad.take(params, np.arange(6, 9)), ad.take(params, np.arange(9, 24))
        return root_frame_vars(R, t, fk_vars(template, ang)[1])[0]

    assign = dg.chamfer_assignments(surface(ad.Tape(grad=False)).data, C)

    def loss(tape):
        return dg.chamfer_fixed(surface(tape), ad.const(C, tape), assignments=assign)

    idxs = rng.choice(24, size=min(probes, 24), replace=False)
    worst = _fd_probe_store(loss, store, [("params", int(i)) for i in idxs], h=1e-6)
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
