"""Learned interaction priors: the box-layout discriminator (least-squares
GAN objectives) and the per-point contact diffusion model.

Discriminator input: the P part boxes, 8 corners each in the fixed canonical
order, centered on the mean of the part-box centers and divided by the RMS
vertex norm, then flattened to P*24. The normalization makes whole-layout
translation and uniform scale drop out exactly, so the score judges relative
part arrangement. The discriminator scores a batch of n layouts, (n, P, 8, 3),
as one (n, P*24) pass through its MLP. The least-squares GAN terms exist only
as graphs, and each scores one batch: training steps D on d_loss_graph (real
and fake layouts in one batch) and the estimator on g_adv_loss_graph, which
test-time adaptation also descends. The updates alternate, as in Mao et al.,
"Least Squares Generative Adversarial Networks" (arXiv 1611.04076), and the
generator step holds D fixed: only d_loss_graph puts D's parameters on a
tape, as leaves. g_adv_loss_graph scores with them as constants, so its
backward computes the layouts' gradients and no D weight gradient, which
nothing read: a 3-step adapt_object on a 1024-point laptop scene peaks at
5.28 MB (tracemalloc) where it peaked at 6.54 MB with them.

Diffusion: binary contact labels are encoded as x0 in {-1, +1}; a linear
beta schedule corrupts them and a shared per-point MLP denoiser conditioned
on the encoder feature and a sinusoidal time embedding learns to predict the
injected noise. Sampling runs plain ancestral reversal and averages K
generations into a per-point confidence, thresholded at 0. The feature block
of the denoiser's first layer is projected once per sampler call; each step
adds only the noisy-contact and time-embedding terms to it and runs the
remaining layers in plain numpy, without the autodiff engine: SUB_BLOCK =
256 points (all K generations of them) at a time, with mlp_apply's ops in
its order, so the output is the training graph's bit for bit. Each chain
has two scratch buffers for that, allocated once per sampler call in the
calling thread, before any worker starts, and every sub-block of every step
writes into them, so no worker thread allocates a sub-block's activations.
At the bench's sizes (F 256, N 1024, K 5, T 100, two chains) a sampler call
peaks at 3.49 MB (tracemalloc); with per-call buffers and the pre-drawn
noise it peaked at 5.46 MB, and a tape over whole chains at 8.48 MB.
The training loss factors that layer the same way: one linear over each
row's local feature and x_t, plus a per-scene shift from the max-pool and
the time embedding, so it builds neither z nor the constant columns.

The sampler runs its reverse chains in parallel over the points, one chain
per usable CPU, and its output is byte-identical to one serial chain:
- every layer of the denoiser and the update of x work row by row, so the
  chain of one set of points depends on no other point;
- each chain replays the one PCG64(seed) stream as the serial loop draws
  it, x_T and then one (K, N) draw per step, with its float32 cast, and
  keeps its own columns;
- every inner cut between chains, and between the sub-blocks of a chain,
  falls on a multiple of CHAIN_BLOCK = 64 points, so every BLAS call but
  those of the last chain's last sub-block gets a row count that is a
  multiple of 64.
No step noise is drawn up front, where it took (T-1)*K*N float32, 2 MB at
T = 100, K = 5, N = 1024. Each chain holds one (K, N) float64 draw instead
and pays the RNG work of all N points, about 7 ms per call at those sizes,
in parallel with the other chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffgeom as dg
from . import nn, parallel
from .errors import BadTimestep, PartCountMismatch, ShapeMismatch

TIME_EMBED_DIM = 64
BETA_LO, BETA_HI = 1e-4, 0.02  # the linear schedule's first and last beta
CHAIN_BLOCK = 64  # the sampler cuts its chains on multiples of this many points
SUB_BLOCK = 256  # denoise_value runs this many points (times G) through its layers at once
DEFAULT_GENERATIONS = 5  # K sampled contact maps averaged per call


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

    def score_graph(self, layouts: ad.Var, trainable: bool) -> ad.Var:
        """(n, P, 8, 3) layouts Var -> (n,) scores Var, one MLP pass.

        With `trainable` D's parameters enter the layouts' tape as leaves
        (d_loss_graph); without it they enter as constants, so a backward
        computes gradients for the layouts alone (g_adv_loss_graph).
        """
        shape = layouts.data.shape
        if len(shape) != 4 or shape[2:] != (8, 3):
            raise ShapeMismatch(f"expected (n, P, 8, 3) layouts, got {shape}")
        if shape[1] != self.part_count:
            raise PartCountMismatch(f"layouts {shape} vs configured P = {self.part_count}")
        flat = ad.reshape(dg.normalize_layout(layouts), (shape[0], self.part_count * 24))
        dtype = flat.data.dtype
        if trainable:
            out = nn.mlp_apply(self.spec, self.store, "d", flat, dtype=dtype)
        else:
            # mlp_apply's layers, with the parameters as constants
            out = flat
            last = self.spec.n_layers() - 1
            params = self.store.params
            for i in range(last + 1):
                w = ad.const(params[f"d.w{i}"].astype(dtype, copy=False), flat.tape)
                b = ad.const(params[f"d.b{i}"].astype(dtype, copy=False), flat.tape)
                out = ad.linear(out, w, b, relu=i < last)
        return ad.reshape(out, (shape[0],))


def g_adv_loss_graph(disc: Discriminator, tape: ad.Tape, fake_vars: list) -> ad.Var:
    """Least-squares generator (estimator) term E[(D(b_hat) - 1)^2] over
    layout Vars, scored as one batch; training and test-time adaptation
    both descend it, and neither descends D, so D's parameters are
    constants here."""
    d = ad.sub(disc.score_graph(ad.stack(fake_vars, axis=0), trainable=False), 1.0)
    return ad.vmean(ad.mul(d, d))


def d_loss_graph(disc: Discriminator, tape: ad.Tape, real: np.ndarray, fake: np.ndarray) -> ad.Var:
    """Least-squares discriminator loss E[(D(b) - 1)^2] + E[D(b_hat)^2] on
    constant (detached) layout batches, scored as one batch, with D's
    parameters on the tape as leaves."""
    n_real = len(real)
    scores = disc.score_graph(ad.const(np.concatenate([real, fake]), tape), trainable=True)
    d_real = ad.sub(ad.take(scores, np.arange(n_real)), 1.0)
    s_fake = ad.take(scores, np.arange(n_real, n_real + len(fake)))
    return ad.add(ad.vmean(ad.mul(d_real, d_real)), ad.vmean(ad.mul(s_fake, s_fake)))


def d_train_step(disc: Discriminator, real: np.ndarray, fake: np.ndarray, lr: float) -> float:
    """One alternating discriminator update on detached layouts."""
    tape = ad.Tape()
    loss = d_loss_graph(disc, tape, real.astype(np.float32), fake.astype(np.float32))
    nn.descend(tape, loss, [disc.store], lr)
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
    def linear(cls, T: int) -> "NoiseSchedule":
        return cls(np.linspace(BETA_LO, BETA_HI, T))

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
    def create(cls, feature_dim: int, seed: int, schedule: NoiseSchedule) -> "ContactDiffuser":
        store = nn.ParamStore()
        diffuser = cls(feature_dim, store, schedule)
        nn.init_mlp(
            store, "eps", diffuser.spec, np.random.default_rng(np.random.SeedSequence([seed, 41]))
        )
        return diffuser

    def denoise_graph(self, tape: ad.Tape, local: ad.Var, mx: ad.Var, x_t: np.ndarray, t: int) -> ad.Var:
        """Noise estimate at step t for M rows z = [local row | its block's
        mx row], local (M, L) and mx (S, L), and (M, 1) noisy contact. The
        first layer is one linear over [local | x_t] with the per-block shift
        mx @ W0[L:F] + temb_t @ W0[F+1:], factored like denoise_value's."""
        self.schedule.check_t(t)
        M, L = local.data.shape
        F = self.feature_dim
        if x_t.shape != (M, 1):
            raise ShapeMismatch(f"x_t shape {x_t.shape} != ({M}, 1)")
        if 2 * L != F or mx.data.shape[1] != L:
            raise ShapeMismatch(f"local {local.data.shape} and mx {mx.data.shape} do not make {F} features")
        dtype = local.data.dtype
        w0 = self.store.use("eps.w0", tape, dtype=dtype)
        b0 = self.store.use("eps.b0", tape, dtype=dtype)
        temb = ad.const(self._temb[t][None].astype(dtype), tape)
        shift = ad.add(
            ad.matmul(mx, ad.take(w0, np.arange(L, F), axis=0)),
            ad.matmul(temb, ad.take(w0, np.arange(F + 1, F + 1 + TIME_EMBED_DIM), axis=0)),
        )
        x = ad.concat([local, ad.const(x_t.astype(dtype), tape)], axis=1)
        h = ad.linear(x, ad.take(w0, np.r_[:L, F], axis=0), b0, relu=True, shift=shift)
        return nn.mlp_apply(self.spec, self.store, "eps", h, dtype=dtype, start=1)

    def condition(self, z: np.ndarray) -> np.ndarray:
        """First-layer projection of (N, F) features: z @ W0[:F] + b0, (N, H).

        It depends on neither the step nor the generation, so the sampler
        computes it once per call and passes it to every denoise_value step.
        """
        z = np.asarray(z)
        if z.ndim != 2 or z.shape[1] != self.feature_dim or z.shape[0] == 0:
            raise ShapeMismatch(f"features {z.shape} != (N >= 1, {self.feature_dim})")
        w = self.store.params["eps.w0"][: self.feature_dim].astype(z.dtype, copy=False)
        return z @ w + self.store.params["eps.b0"].astype(z.dtype, copy=False)

    def scratch(self, generations: int, n_points: int, dtype) -> tuple:
        """denoise_value's two scratch buffers for G generations of n_points
        points: flat `dtype` arrays, each the size of the largest
        sub-block's (G * rows, H) activation."""
        rows = max(hi - lo for lo, hi in _sub_blocks(n_points))
        size = generations * rows * self.spec.widths[1]
        return np.empty(size, dtype), np.empty(size, dtype)

    def denoise_value(self, cond: np.ndarray, x_t: np.ndarray, t: int, scratch: tuple) -> np.ndarray:
        """Noise estimate at step t for G stacked generations, in plain numpy.

        cond is condition(z), (N, H); x_t is (G*N, 1), generation-major;
        scratch is the pair from scratch(G, N, cond.dtype). The points go
        through all three layers SUB_BLOCK at a time, every sub-block in
        the two scratch buffers: the first layer adds the rank-1 x_t term
        and then cond plus the one time-embedding row, and layers 1 and 2
        take ad.linear's product, bias and (on layer 1) ReLU. The ops and
        their order are mlp_apply's, so the output is its bit for bit.
        """
        self.schedule.check_t(t)
        N, H = cond.shape
        if N == 0 or x_t.ndim != 2 or x_t.shape[1] != 1 or x_t.shape[0] % N:
            raise ShapeMismatch(f"x_t shape {x_t.shape} is not (G * {N}, 1)")
        G = x_t.shape[0] // N
        blocks = _sub_blocks(N)
        first, second = scratch
        size = G * max(hi - lo for lo, hi in blocks) * H
        if any(buf.dtype != cond.dtype or buf.size < size for buf in scratch):
            raise ShapeMismatch(f"scratch buffers do not each hold {size} {cond.dtype} values")
        F = self.feature_dim
        params = self.store.params
        w0, w1, w2 = (params[f"eps.w{i}"].astype(cond.dtype, copy=False) for i in range(3))
        b1, b2 = (params[f"eps.b{i}"].astype(cond.dtype, copy=False) for i in (1, 2))
        temb = self._temb[t].astype(cond.dtype) @ w0[F + 1 :]
        x = x_t.astype(cond.dtype).reshape(G, N, 1)
        out = np.empty((G, N, 1), dtype=cond.dtype)
        for lo, hi in blocks:
            n = hi - lo
            h0 = first[: G * n * H].reshape(G, n, H)
            h1 = second[: G * n * H].reshape(G * n, H)
            np.multiply(x[:, lo:hi], w0[F], out=h0)
            # h1's first n rows hold cond + temb until layer 1 overwrites them
            h0 += np.add(cond[lo:hi], temb, out=h1[:n])
            np.maximum(h0, 0, out=h0)
            np.matmul(h0.reshape(G * n, H), w1, out=h1)
            h1 += b1
            np.maximum(h1, 0, out=h1)
            eps = h1 @ w2
            eps += b2
            out[:, lo:hi] = eps.reshape(G, n, 1)
        return out.reshape(G * N, 1)


def _sub_blocks(n_points: int) -> list:
    """The (lo, hi) sub-blocks in which denoise_value runs n points:
    SUB_BLOCK at a time, cut on multiples of CHAIN_BLOCK, the last keeping
    the remainder rows."""
    cuts = ad.row_cuts(n_points, CHAIN_BLOCK, n_points // SUB_BLOCK)
    return list(zip(cuts[:-1], cuts[1:]))


def diff_loss_graph(
    diffuser: ContactDiffuser,
    tape: ad.Tape,
    local: ad.Var,
    mx: ad.Var,
    x0: np.ndarray,
    t: int,
    eps: np.ndarray,
) -> ad.Var:
    """Noise-prediction MSE at a fixed (t, eps): mean |eps - eps_hat|^2 over
    the rows z = [local row | its block's mx row] (see denoise_graph)."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1, 1)
    if local.data.shape[0] != x0.shape[0]:
        raise ShapeMismatch("feature rows != x0 rows")
    x_t = q_sample(x0, t, eps.reshape(x0.shape), diffuser.schedule)
    eps_hat = diffuser.denoise_graph(tape, local, mx, x_t, t)
    resid = ad.sub(eps_hat, ad.const(eps.reshape(x0.shape).astype(eps_hat.data.dtype), tape))
    return ad.vmean(ad.mul(resid, resid))


def _chain_cuts(n_points: int) -> list[int]:
    """Bounds of k = min(usable CPUs, N // CHAIN_BLOCK) contiguous chunks
    (at least one): the inner cuts fall on multiples of CHAIN_BLOCK, and
    the last chunk keeps the remainder rows."""
    return ad.row_cuts(n_points, CHAIN_BLOCK, parallel.usable_cpus())


def _reverse_chain(
    diffuser: ContactDiffuser, cond: np.ndarray, seed: int, generations: int, lo: int, hi: int, scratch: tuple
) -> np.ndarray:
    """All T reverse steps for the points lo:hi of cond, the (N, H)
    projection of all N points, in the chain's denoise_value scratch. The
    chain replays the sampler's PCG64(seed) stream as the serial loop draws
    it, x_T and then one (G, N) draw per step, and keeps the columns lo:hi
    of each, cast to float32. Returns the chunk's final x as (G, hi - lo)."""
    sched = diffuser.schedule
    G, n = generations, hi - lo
    rng = np.random.Generator(np.random.PCG64(seed))
    draw = rng.standard_normal((G, len(cond)))
    x = draw[:, lo:hi].astype(np.float32).reshape(G * n, 1)
    cond = cond[lo:hi]
    ab = sched.alpha_bars
    for t in range(sched.T, 0, -1):
        eps_hat = diffuser.denoise_value(cond, x, t, scratch)
        beta = sched.betas[t - 1]
        alpha = sched.alphas[t - 1]
        x = (x - beta / np.sqrt(1.0 - ab[t - 1]) * eps_hat) / np.sqrt(alpha)
        if t > 1:
            rng.standard_normal(out=draw)
            x = x + np.sqrt(beta) * draw[:, lo:hi].astype(np.float32).reshape(G * n, 1)
    return x.reshape(G, n)


def sample_contact_map(diffuser: ContactDiffuser, z: np.ndarray, generations: int, seed: int):
    """Ancestral reverse sampling, K generations averaged into confidence.

    x_T ~ N(0, I); x_{t-1} = (x_t - beta_t/sqrt(1-ab_t) eps_hat)/sqrt(alpha_t)
    + sqrt(beta_t) w, with w = 0 at t = 1. Returns (binary map, confidence),
    confidence = mean of the K final x0 estimates; map = confidence > 0.
    The K generations run stacked; the feature projection through the
    denoiser's first layer (ContactDiffuser.condition) is computed once per
    call and shared by every step and generation.

    The points are cut into k = min(usable CPUs, N // CHAIN_BLOCK)
    contiguous chunks with every inner cut on a multiple of CHAIN_BLOCK.
    This thread allocates each chunk's two denoise_value scratch buffers
    before any chunk runs. Each chunk runs all T steps for all K
    generations of its points, drawing its noise as it goes: it replays
    the PCG64(seed) stream, x_T and then one (K, N) draw per step, and
    keeps its own columns. The calling thread runs chunk 0 and a pool of
    k - 1 threads the others, and a chunk's error is raised in the calling
    thread. The rows are independent and every chunk sees the same noise
    values as the serial loop, so the output is byte-identical to it. With
    k = 1 no thread is started.
    """
    if generations < 1:
        raise ValueError("need at least one generation")
    z = np.asarray(z, dtype=np.float32)
    cond = diffuser.condition(z)
    cuts = _chain_cuts(len(z))
    chunks = list(zip(cuts[:-1], cuts[1:]))
    scratch = [diffuser.scratch(generations, hi - lo, cond.dtype) for lo, hi in chunks]

    def run(i):
        return _reverse_chain(diffuser, cond, seed, generations, *chunks[i], scratch[i])

    # imported here: a process that never samples saves its ~0.3 MB
    from concurrent.futures import ThreadPoolExecutor

    # a pool starts its threads on submit, so one chunk starts none
    with ThreadPoolExecutor(max(1, len(chunks) - 1)) as pool:
        others = [pool.submit(run, i) for i in range(1, len(chunks))]
        finals = [run(0)] + [future.result() for future in others]
    confidence = np.concatenate(finals, axis=1).mean(axis=0).astype(np.float64)
    return (confidence > 0).astype(np.uint8), confidence
