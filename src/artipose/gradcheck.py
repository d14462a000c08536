"""Finite-difference gradient suites for every differentiable path.

All suites run in float64 with central differences against the analytic
tape gradients, on fresh random weights and inputs. Each suite has its own
fixed seed, 0 to 5 in ALL_SUITES order, and passes when its largest relative
error is below TOL. Used by the `gradcheck` CLI command and by the
acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffgeom as dg
from . import nn
from .errors import ArtiposeError
from .estimator import Estimator, EstimatorSpec, assemble_graph, pose_loss_graph
from .geometry import rot6d_to_matrix
from .priors import ContactDiffuser, Discriminator, NoiseSchedule, d_loss_graph, diff_loss_graph, g_adv_loss_graph
from .synth.hand import fk_tables, fk_vars, root_frame_vars

TOL = 1e-3  # a suite's largest relative error must stay below this
PROBES = 20  # parameter probes per network suite


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


def _scene_fixture(rng):
    """A random 60-point scene of two parts, 20 points per class."""
    cloud = rng.normal(size=(60, 3)) * 0.2
    labels = np.repeat(np.arange(3), 20)
    rng.shuffle(labels)
    gt_nocs = rng.uniform(0.1, 0.9, size=(60, 3))
    gt_rot = np.stack(
        [np.concatenate([M[:, 0], M[:, 1]]) for M in (rot6d_to_matrix(rng.normal(size=6)) for _ in range(2))]
    )
    extents = rng.uniform(0.05, 0.3, size=(2, 3))
    return cloud, labels, gt_nocs, gt_rot, extents


def check_encoder() -> SuiteResult:
    rng = np.random.default_rng(0)
    spec = EstimatorSpec(part_count=2)
    est = Estimator.create(spec, seed=0)
    _f64(est.store)
    cloud = rng.normal(size=(1, 40, 3))
    W = rng.normal(size=(40, spec.local_dim))
    Wp = rng.normal(size=(1, spec.pooled_dim))

    def loss(tape):
        local, _, pooled = est.encode_graph(tape, cloud)
        return ad.add(ad.vsum(ad.mul(local, ad.const(W, tape))), ad.vsum(ad.mul(pooled, ad.const(Wp, tape))))

    enc_probes = [
        p for p in _random_probes(est.store, rng, PROBES * 4) if p[0].startswith("enc")
    ][:PROBES]
    worst = _fd_probe_store(loss, est.store, enc_probes)
    return SuiteResult("encoder", worst < TOL, worst, len(enc_probes))


def check_heads() -> SuiteResult:
    rng = np.random.default_rng(1)
    spec = EstimatorSpec(part_count=2)
    est = Estimator.create(spec, seed=1)
    _f64(est.store)
    cloud = rng.normal(size=(1, 40, 3))
    Wseg = rng.normal(size=(40, spec.n_classes))
    Wnocs = rng.normal(size=(40, 3))
    Wrot = rng.normal(size=(1, spec.part_count, 6))

    def loss(tape):
        seg, nocs, rot = est.heads_graph(tape, *est.encode_graph(tape, cloud))
        return ad.add(
            ad.add(
                ad.vsum(ad.mul(seg, ad.const(Wseg, tape))),
                ad.vsum(ad.mul(nocs, ad.const(Wnocs, tape))),
            ),
            ad.vsum(ad.mul(rot, ad.const(Wrot, tape))),
        )

    worst = _fd_probe_store(loss, est.store, _random_probes(est.store, rng, PROBES))
    return SuiteResult("heads", worst < TOL, worst, PROBES)


def check_end_to_end() -> SuiteResult:
    """Eq.-1 pose loss + the assembled boxes of a batch of two scenes as a
    function of all parameters."""
    rng = np.random.default_rng(2)
    spec = EstimatorSpec(part_count=2)
    est = Estimator.create(spec, seed=2)
    _f64(est.store)
    scenes = [_scene_fixture(rng) for _ in range(2)]
    clouds, labels, gt_nocs, gt_rot, extents = (np.stack(a) for a in zip(*scenes))
    Wbox = rng.normal(size=(2, spec.part_count, 8, 3))

    def loss(tape):
        seg, nocs, rot = est.heads_graph(tape, *est.encode_graph(tape, clouds))
        total, _ = pose_loss_graph(tape, seg, nocs, rot, labels, gt_nocs, gt_rot)
        *_, boxes, reasons = assemble_graph(tape, clouds, labels, nocs, rot, extents)
        if (reasons != "").any():
            raise ArtiposeError(f"fixture scenes have parts without a fit: {reasons.tolist()}")
        return ad.add(total, ad.vsum(ad.mul(boxes, ad.const(Wbox, tape))))

    worst = _fd_probe_store(loss, est.store, _random_probes(est.store, rng, PROBES))
    return SuiteResult("end_to_end_pose", worst < TOL, worst, PROBES)


def check_discriminator() -> SuiteResult:
    """Parameter grads of both LSGAN terms and box-vertex input grads of the
    generator term, each scoring a batch of layouts."""
    rng = np.random.default_rng(3)
    disc = Discriminator.create(2, seed=3)
    _f64(disc.store)
    inputs = _f64(nn.ParamStore(), layouts=rng.normal(size=(3, 2, 8, 3)))
    real, fake = rng.normal(size=(2, 2, 8, 3)), rng.normal(size=(3, 2, 8, 3))

    def loss(tape):
        layouts = inputs.use("layouts", tape)
        fake_vars = [ad.reshape(ad.take(layouts, np.array([i])), (2, 8, 3)) for i in range(3)]
        return ad.add(g_adv_loss_graph(disc, tape, fake_vars), d_loss_graph(disc, tape, real, fake))

    worst = _fd_probe_store(loss, disc.store, _random_probes(disc.store, rng, PROBES))
    corners = [tuple(rng.integers((3, 2, 8, 3))) for _ in range(PROBES // 2)]
    vertex_probes = [("layouts", int(np.ravel_multi_index(c, (3, 2, 8, 3)))) for c in corners]
    worst = max(worst, _fd_probe_store(loss, inputs, vertex_probes))
    return SuiteResult("discriminator", worst < TOL, worst, PROBES + PROBES // 2)


def check_denoiser() -> SuiteResult:
    """The diffusion loss over three blocks of ten rows, z = [local | the
    block's max-pool row]."""
    rng = np.random.default_rng(4)
    diffuser = ContactDiffuser.create(32, seed=4, schedule=NoiseSchedule.linear(20))
    _f64(diffuser.store)
    local, mx = rng.normal(size=(30, 16)), rng.normal(size=(3, 16))
    x0 = np.sign(rng.normal(size=(30, 1)))
    eps = rng.normal(size=(30, 1))
    t = 7

    def loss(tape):
        return diff_loss_graph(diffuser, tape, ad.const(local, tape), ad.const(mx, tape), x0, t, eps)

    worst = _fd_probe_store(loss, diffuser.store, _random_probes(diffuser.store, rng, PROBES))
    return SuiteResult("denoiser", worst < TOL, worst, PROBES)


def check_hand_chamfer() -> SuiteResult:
    """Chamfer(FK surface, contact points) vs FD over the 24 hand params."""
    rng = np.random.default_rng(5)
    tables = fk_tables(128)
    C = rng.normal(size=(40, 3)) * 0.05 + np.array([0.0, 0.1, 0.05])
    r6_0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]) + 0.1 * rng.normal(size=6)
    t_0 = rng.normal(size=3) * 0.02
    ang_0 = rng.uniform(0.2, 1.0, size=15)
    store = _f64(nn.ParamStore(), params=np.concatenate([r6_0, t_0, ang_0]))

    def surface(tape):
        params = store.use("params", tape)
        R = dg.rot6d_to_matrix(ad.take(params, np.arange(6)))[0]
        t, ang = ad.take(params, np.arange(6, 9)), ad.take(params, np.arange(9, 24))
        return root_frame_vars(R, t, fk_vars(tables, ang)[1])[0]

    assign = dg.chamfer_assignments(surface(ad.Tape(grad=False)).data, C)

    def loss(tape):
        return dg.chamfer_fixed(surface(tape), ad.const(C, tape), assignments=assign)

    worst = _fd_probe_store(loss, store, [("params", i) for i in range(24)], h=1e-6)
    return SuiteResult("hand_fk_chamfer", worst < TOL, worst, 24)


ALL_SUITES = (
    check_encoder,
    check_heads,
    check_end_to_end,
    check_discriminator,
    check_denoiser,
    check_hand_chamfer,
)


def run_all() -> list:
    return [suite() for suite in ALL_SUITES]
