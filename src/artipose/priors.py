"""Learned interaction priors: the box-layout discriminator (least-squares
GAN objectives) and the per-point contact diffusion model.

Discriminator input: the P part boxes, 8 corners each in the fixed canonical
order, centered on the mean of the part-box centers and divided by the RMS
vertex norm, then flattened to P*24. The normalization makes whole-layout
translation and uniform scale drop out exactly, so the score judges relative
part arrangement. The least-squares GAN terms exist only as graphs: training
steps D on d_loss_graph and the estimator on g_adv_loss_graph, which
test-time adaptation also descends.

Diffusion: binary contact labels are encoded as x0 in {-1, +1}; a linear
beta schedule corrupts them and a shared per-point MLP denoiser conditioned
on the encoder feature and a sinusoidal time embedding learns to predict the
injected noise. Sampling runs plain ancestral reversal and averages K
generations into a per-point confidence, thresholded at 0. The feature block
of the denoiser's first layer is projected once per sampler call; each step
adds only the noisy-contact and time-embedding terms to it and runs the
remaining layers through the training graph on a tape that records nothing.

The sampler runs its reverse chains in parallel over the points, one chain
per usable CPU, and its output is byte-identical to one serial chain:
- every layer of the denoiser and the update of x work row by row, so the
  chain of one set of points depends on no other point;
- x_T and the T-1 step noises are drawn up front from the one PCG64 stream,
  in the order and with the float32 cast of the serial loop, and each chain
  reads its own columns;
- every inner cut between chains falls on a multiple of CHAIN_BLOCK = 64
  points, so every BLAS call outside the last chain gets a row count that is
  a multiple of 64.
The pre-drawn noise takes (T-1)*G*N float32: 2 MB at T = 100, G = 5,
N = 1024.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffgeom as dg
from . import nn, parallel
from .errors import BadTimestep, PartCountMismatch, ShapeMismatch

TIME_EMBED_DIM = 64
CHAIN_BLOCK = 64  # the sampler cuts its chains on multiples of this many points


# ---------------------------------------------------------------------------
# articulation discriminator
# ---------------------------------------------------------------------------

class Discriminator:
    """MLP over the normalized flattened box layout of a fixed part count."""

    def __init__(self, part_count: int, store: nn.ParamStore):
        self.part_count = part_count
        self.spec = nn.MlpSpec((part_count * 24, 256, 256, 1))
        self.store = store

    @classmethod
    def create(cls, part_count: int, seed: int) -> "Discriminator":
        store = nn.ParamStore()
        disc = cls(part_count, store)
        nn.init_mlp(store, "d", disc.spec, np.random.default_rng(np.random.SeedSequence([seed, 31])))
        return disc

    def score_graph(self, tape: ad.Tape, layout: ad.Var) -> ad.Var:
        """(P, 8, 3) layout Var -> scalar score Var."""
        if layout.data.shape != (self.part_count, 8, 3):
            raise PartCountMismatch(
                f"layout {layout.data.shape} vs configured P = {self.part_count}"
            )
        flat = ad.reshape(dg.normalize_layout(layout), (1, self.part_count * 24))
        out = nn.mlp_apply(self.spec, self.store, "d", flat, dtype=flat.data.dtype)
        return ad.reshape(out, ())


def g_adv_loss_graph(disc: Discriminator, tape: ad.Tape, fake_vars: list) -> ad.Var:
    """Least-squares generator (estimator) term E[(D(b_hat) - 1)^2] over
    layout Vars; training and test-time adaptation both descend it."""
    terms = []
    for fv in fake_vars:
        s = disc.score_graph(tape, fv)
        d = ad.sub(s, 1.0)
        terms.append(ad.mul(d, d))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.mul(total, 1.0 / len(terms))


def d_loss_graph(disc: Discriminator, tape: ad.Tape, real: np.ndarray, fake: np.ndarray) -> ad.Var:
    """Least-squares discriminator loss E[(D(b) - 1)^2] + E[D(b_hat)^2] on
    constant (detached) layout batches."""
    terms = []
    for layout in real:
        s = disc.score_graph(tape, ad.const(layout, tape))
        d = ad.sub(s, 1.0)
        terms.append(ad.mul(ad.mul(d, d), 1.0 / len(real)))
    for layout in fake:
        s = disc.score_graph(tape, ad.const(layout, tape))
        terms.append(ad.mul(ad.mul(s, s), 1.0 / len(fake)))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total


def d_train_step(disc: Discriminator, real: np.ndarray, fake: np.ndarray, lr: float = 1e-3) -> float:
    """One alternating discriminator update on detached layouts."""
    tape = ad.Tape()
    loss = d_loss_graph(disc, tape, real.astype(np.float32), fake.astype(np.float32))
    disc.store.zero_grads()
    tape.backward(loss)
    disc.store.flush_tape_grads(tape)
    nn.adam_step(disc.store, lr=lr)
    return float(loss.data)


# ---------------------------------------------------------------------------
# contact diffusion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variances beta_t (t = 1..T) and cumulative alpha-bars."""

    betas: np.ndarray  # (T,) index t-1

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        object.__setattr__(self, "betas", betas)
        if betas.ndim != 1 or len(betas) < 1:
            raise ValueError("need at least one step")
        if ((betas <= 0) | (betas >= 1)).any():
            raise ValueError("betas must lie in (0, 1)")
        if len(betas) > 1 and (np.diff(betas) <= 0).any():
            raise ValueError("betas must be strictly increasing")

    @classmethod
    def linear(cls, T: int = 100, lo: float = 1e-4, hi: float = 0.02) -> "NoiseSchedule":
        return cls(np.linspace(lo, hi, T))

    @property
    def T(self) -> int:
        return len(self.betas)

    @property
    def alphas(self) -> np.ndarray:
        return 1.0 - self.betas

    @property
    def alpha_bars(self) -> np.ndarray:
        return np.cumprod(self.alphas)

    def check_t(self, t: int) -> None:
        if not 1 <= t <= self.T:
            raise BadTimestep(f"t = {t} outside [1, {self.T}]")


def encode_contact(labels: np.ndarray) -> np.ndarray:
    """{0, 1} labels -> x0 in {-1, +1}, shape (N, 1)."""
    return (2.0 * np.asarray(labels, dtype=np.float64) - 1.0).reshape(-1, 1)


def q_sample(x0: np.ndarray, t: int, eps: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """Closed-form forward corruption x_t = sqrt(ab_t) x0 + sqrt(1-ab_t) eps."""
    schedule.check_t(t)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ShapeMismatch(f"noise shape {eps.shape} != x0 shape {x0.shape}")
    ab = schedule.alpha_bars[t - 1]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


class ContactDiffuser:
    """Shared per-point denoiser MLP over concat[z, x_t, time embedding]."""

    def __init__(self, feature_dim: int, store: nn.ParamStore, schedule: NoiseSchedule):
        self.feature_dim = feature_dim
        self.schedule = schedule
        self.spec = nn.MlpSpec((feature_dim + 1 + TIME_EMBED_DIM, 128, 128, 1))
        self.store = store
        self._temb = np.stack(
            [nn.time_embedding(t, schedule.T, TIME_EMBED_DIM) for t in range(schedule.T + 1)]
        )

    @classmethod
    def create(
        cls, feature_dim: int, seed: int, schedule: NoiseSchedule | None = None
    ) -> "ContactDiffuser":
        schedule = schedule or NoiseSchedule.linear()
        store = nn.ParamStore()
        diffuser = cls(feature_dim, store, schedule)
        nn.init_mlp(
            store, "eps", diffuser.spec, np.random.default_rng(np.random.SeedSequence([seed, 41]))
        )
        return diffuser

    def denoise_graph(self, tape: ad.Tape, z: ad.Var, x_t: np.ndarray, t: int) -> ad.Var:
        """Noise estimate for (M, F) features + (M, 1) noisy contact at step t."""
        self.schedule.check_t(t)
        M = z.data.shape[0]
        if x_t.shape != (M, 1):
            raise ShapeMismatch(f"x_t shape {x_t.shape} != ({M}, 1)")
        dtype = z.data.dtype
        temb = np.broadcast_to(self._temb[t].astype(dtype), (M, TIME_EMBED_DIM))
        inp = ad.concat(
            [z, ad.const(x_t.astype(dtype), tape), ad.const(temb, tape)], axis=1
        )
        return nn.mlp_apply(self.spec, self.store, "eps", inp, dtype=dtype)

    def condition(self, z: np.ndarray) -> np.ndarray:
        """First-layer projection of (N, F) features: z @ W0[:F] + b0, (N, H).

        It depends on neither the step nor the generation, so the sampler
        computes it once per call and passes it to every denoise_value step.
        """
        z = np.asarray(z)
        if z.ndim != 2 or z.shape[1] != self.feature_dim:
            raise ShapeMismatch(f"features {z.shape} != (N, {self.feature_dim})")
        w = self.store.params["eps.w0"][: self.feature_dim].astype(z.dtype, copy=False)
        return z @ w + self.store.params["eps.b0"].astype(z.dtype, copy=False)

    def denoise_value(self, cond: np.ndarray, x_t: np.ndarray, t: int) -> np.ndarray:
        """Noise estimate at step t for G stacked generations, on a tape
        that records nothing.

        cond is condition(z), (N, H); x_t is (G*N, 1), generation-major. The
        first layer adds the rank-1 x_t term and the one time-embedding row
        to cond in numpy; layers 1 and up run through nn.mlp_apply.
        """
        self.schedule.check_t(t)
        N, H = cond.shape
        if N == 0 or x_t.ndim != 2 or x_t.shape[1] != 1 or x_t.shape[0] % N:
            raise ShapeMismatch(f"x_t shape {x_t.shape} is not (G * {N}, 1)")
        F = self.feature_dim
        w0 = self.store.params["eps.w0"].astype(cond.dtype, copy=False)
        base = cond + self._temb[t].astype(cond.dtype) @ w0[F + 1 :]
        h = x_t.astype(cond.dtype).reshape(-1, N, 1) * w0[F]
        h += base
        np.maximum(h, 0, out=h)
        tape = ad.Tape(grad=False)
        h = ad.const(h.reshape(-1, H), tape)
        return nn.mlp_apply(self.spec, self.store, "eps", h, dtype=cond.dtype, start=1).data


def diff_loss_graph(
    diffuser: ContactDiffuser,
    tape: ad.Tape,
    z: ad.Var,
    x0: np.ndarray,
    t: int,
    eps: np.ndarray,
) -> ad.Var:
    """Noise-prediction MSE at a fixed (t, eps): mean |eps - eps_hat|^2."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1, 1)
    if z.data.shape[0] != x0.shape[0]:
        raise ShapeMismatch("z rows != x0 rows")
    x_t = q_sample(x0, t, eps.reshape(x0.shape), diffuser.schedule)
    eps_hat = diffuser.denoise_graph(tape, z, x_t, t)
    resid = ad.sub(eps_hat, ad.const(eps.reshape(x0.shape).astype(eps_hat.data.dtype), tape))
    return ad.vmean(ad.mul(resid, resid))


def _chain_cuts(n_points: int) -> list[int]:
    """Bounds of k = min(usable CPUs, N // CHAIN_BLOCK) contiguous chunks
    (at least one): the inner cuts fall on multiples of CHAIN_BLOCK, and
    the last chunk keeps the remainder rows."""
    blocks = n_points // CHAIN_BLOCK
    k = max(1, min(parallel.usable_cpus(), blocks))
    return [CHAIN_BLOCK * (blocks * i // k) for i in range(k)] + [n_points]


def _reverse_chain(
    diffuser: ContactDiffuser, cond: np.ndarray, x: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """All T reverse steps for one chunk of points: cond (n, H), x the
    chunk's x_T as (G, n), noise its (T-1, G, n) step noises in draw order.
    Returns the chunk's final x as (G, n)."""
    sched = diffuser.schedule
    G, n = x.shape
    x = x.reshape(G * n, 1)
    ab = sched.alpha_bars
    for t in range(sched.T, 0, -1):
        eps_hat = diffuser.denoise_value(cond, x, t)
        beta = sched.betas[t - 1]
        alpha = sched.alphas[t - 1]
        x = (x - beta / np.sqrt(1.0 - ab[t - 1]) * eps_hat) / np.sqrt(alpha)
        if t > 1:
            x = x + np.sqrt(beta) * noise[sched.T - t].reshape(G * n, 1)
    return x.reshape(G, n)


def sample_contact_map(
    diffuser: ContactDiffuser, z: np.ndarray, generations: int = 5, seed: int = 0
):
    """Ancestral reverse sampling, K generations averaged into confidence.

    x_T ~ N(0, I); x_{t-1} = (x_t - beta_t/sqrt(1-ab_t) eps_hat)/sqrt(alpha_t)
    + sqrt(beta_t) w, with w = 0 at t = 1. Returns (binary map, confidence),
    confidence = mean of the K final x0 estimates; map = confidence > 0.
    The K generations run stacked; the feature projection through the
    denoiser's first layer (ContactDiffuser.condition) is computed once per
    call and shared by every step and generation.

    x_T and then the T-1 step noises are drawn first, in the serial loop's
    order, which takes (T-1)*K*N float32 (2 MB at T = 100, K = 5,
    N = 1024). The points are then cut into k = min(usable CPUs,
    N // CHAIN_BLOCK) contiguous chunks with every inner cut on a multiple
    of CHAIN_BLOCK. Each chunk runs all T steps for all K generations of its
    points: the calling thread runs chunk 0 and one thread each runs the
    others. The rows are independent and every chunk sees the same noise
    values as the serial loop, so the output is byte-identical to it. With
    k = 1 no thread is started.
    """
    if generations < 1:
        raise ValueError("need at least one generation")
    z = np.asarray(z, dtype=np.float32)
    N = z.shape[0]
    T = diffuser.schedule.T
    rng = np.random.Generator(np.random.PCG64(seed))
    cond = diffuser.condition(z)
    x = rng.standard_normal((generations, N)).astype(np.float32)
    noise = np.empty((T - 1, generations, N), dtype=np.float32)
    for step_noise in noise:
        step_noise[...] = rng.standard_normal((generations, N))

    cuts = _chain_cuts(N)
    finals = [None] * (len(cuts) - 1)
    errors = [None] * len(finals)

    def run(i):
        lo, hi = cuts[i], cuts[i + 1]
        try:
            finals[i] = _reverse_chain(diffuser, cond[lo:hi], x[:, lo:hi], noise[:, :, lo:hi])
        except BaseException as err:  # re-raised by the calling thread
            errors[i] = err

    workers = []
    try:
        for i in range(1, len(finals)):
            worker = threading.Thread(target=run, args=(i,), daemon=True)
            worker.start()
            workers.append(worker)
        run(0)
    finally:
        for worker in workers:
            worker.join()
    for err in errors:
        if err is not None:
            raise err
    confidence = np.concatenate(finals, axis=1).mean(axis=0).astype(np.float64)
    return (confidence > 0).astype(np.uint8), confidence
