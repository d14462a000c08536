"""Interaction priors: LSGAN losses, noise schedule, diffusion sampling."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from artipose import autodiff as ad
from artipose import nn, parallel, priors
from artipose.errors import BadTimestep, PartCountMismatch, ShapeMismatch
from artipose.geometry import OrientedBox, SimilarityTransform, rot6d_to_matrix, transform_box
from helpers import d_loss, diff_loss_concat, g_adv_loss, rel_err, sample_contact_map_serial, score, spy_tapes


def random_layout(rng, parts=2):
    boxes = []
    for _ in range(parts):
        box = OrientedBox.from_extents(rng.uniform(0.05, 0.3, 3))
        pose = SimilarityTransform(
            rot6d_to_matrix(rng.normal(size=6)), rng.normal(size=3) * 0.3, 1.0
        )
        boxes.append(transform_box(box, pose).vertices)
    return np.stack(boxes)


class TestDiscriminator:
    def test_translation_scale_invariance(self):
        rng = np.random.default_rng(0)
        disc = priors.Discriminator.create(2, seed=1)
        layout = random_layout(rng)
        base = score(disc, layout)
        moved = score(disc, 3.0 * layout + np.array([0.5, -0.2, 1.0]))
        assert moved == pytest.approx(base, abs=1e-5)

    def test_rotation_changes_score(self):
        rng = np.random.default_rng(1)
        disc = priors.Discriminator.create(2, seed=1)
        layout = random_layout(rng)
        # turn part 0 by 40 degrees about its own center
        theta = np.radians(40.0)
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        center = layout[0].mean(axis=0)
        rotated = layout.copy()
        rotated[0] = (layout[0] - center) @ R.T + center
        assert score(disc, rotated) != pytest.approx(score(disc, layout), abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        disc = priors.Discriminator.create(3, seed=5)
        layout = random_layout(rng, parts=3)
        assert score(disc, layout) == score(disc, layout)

    def test_part_count_mismatch(self):
        rng = np.random.default_rng(3)
        disc = priors.Discriminator.create(2, seed=1)
        with pytest.raises(PartCountMismatch):
            score(disc, random_layout(rng, parts=3))

    def test_batch_matches_per_layout_scores(self):
        rng = np.random.default_rng(6)
        disc = priors.Discriminator.create(2, seed=3)
        for name in disc.store.names():
            disc.store.params[name] = disc.store.params[name].astype(np.float64)
        layouts = np.stack([random_layout(rng) for _ in range(5)])
        tape = ad.Tape(grad=False)
        batch = disc.score_graph(ad.const(layouts, tape)).data
        assert batch.shape == (5,) and batch.dtype == np.float64
        for got, layout in zip(batch, layouts):
            assert rel_err(float(got), score(disc, layout), floor=1e-300) < 1e-12

    def test_batch_part_count_and_shape_checked(self):
        rng = np.random.default_rng(7)
        disc = priors.Discriminator.create(2, seed=1)
        tape = ad.Tape(grad=False)
        wrong_p = np.stack([random_layout(rng, parts=3) for _ in range(2)])
        with pytest.raises(PartCountMismatch):
            disc.score_graph(ad.const(wrong_p, tape))
        with pytest.raises(ShapeMismatch):
            disc.score_graph(ad.const(random_layout(rng), tape))  # not a batch


class TestGanLosses:
    def test_perfect_discriminator_zero_loss(self):
        def perfect(lay):
            return 1.0 if lay[0] > 0 else 0.0

        real = [np.ones(1), np.ones(1)]
        fake = [-np.ones(1)]
        assert d_loss(perfect, real, fake) == 0.0

    def test_zero_everywhere_loss_one(self):
        assert d_loss(lambda lay: 0.0, [np.zeros(1)], [np.zeros(1)]) == 1.0

    def test_adv_extremes(self):
        assert g_adv_loss(lambda lay: 1.0, [np.zeros(1)] * 3) == 0.0
        assert g_adv_loss(lambda lay: 0.0, [np.zeros(1)] * 3) == 1.0

    def test_matches_recomputation(self):
        rng = np.random.default_rng(4)
        values = {}

        def stub(lay):
            return values[lay.tobytes()]

        real, fake = [], []
        for _ in range(5):
            a, b = rng.normal(size=2), rng.normal(size=2)
            values[a.tobytes()] = float(a.sum())
            values[b.tobytes()] = float(b.sum())
            real.append(a)
            fake.append(b)
        expect_d = np.mean([(values[a.tobytes()] - 1) ** 2 for a in real]) + np.mean(
            [values[b.tobytes()] ** 2 for b in fake]
        )
        expect_g = np.mean([(values[b.tobytes()] - 1) ** 2 for b in fake])
        assert d_loss(stub, real, fake) == pytest.approx(expect_d, abs=1e-12)
        assert g_adv_loss(stub, fake) == pytest.approx(expect_g, abs=1e-12)

    def test_graph_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        disc = priors.Discriminator.create(2, seed=2)
        real = np.stack([random_layout(rng) for _ in range(3)])
        fake = np.stack([random_layout(rng) for _ in range(4)])
        tape = ad.Tape()
        graph = float(priors.d_loss_graph(disc, tape, real, fake).data)
        scalar = d_loss(lambda lay: score(disc, lay), list(real), list(fake))
        assert rel_err(graph, scalar) < 1e-5  # float32 graph vs float64 scalars

        tape = ad.Tape()
        fakes_v = [ad.const(f, tape) for f in fake]
        g_graph = float(priors.g_adv_loss_graph(disc, tape, fakes_v).data)
        assert rel_err(g_graph, g_adv_loss(lambda lay: score(disc, lay), list(fake))) < 1e-6


class TestNoiseSchedule:
    def test_linear_schedule_invariants(self):
        sched = priors.NoiseSchedule.linear(100)
        assert sched.T == 100
        assert (np.diff(sched.betas) > 0).all()
        ab = sched.alpha_bars
        assert ab[0] == pytest.approx(1 - sched.betas[0])
        assert (np.diff(ab) < 0).all()
        assert ab[-1] < ab[0]

    def test_bad_timestep(self):
        sched = priors.NoiseSchedule.linear(10)
        with pytest.raises(BadTimestep):
            sched.check_t(0)
        with pytest.raises(BadTimestep):
            sched.check_t(11)


class TestQSample:
    def test_small_t_stays_close(self):
        sched = priors.NoiseSchedule.linear(100)
        x0 = priors.encode_contact(np.array([1, 0, 1, 1]))
        eps = np.random.default_rng(0).standard_normal(x0.shape)
        x1 = priors.q_sample(x0, 1, eps, sched)
        assert np.all(np.abs(x1 - x0) <= np.sqrt(sched.betas[0]) * np.abs(eps) + 1e-6)

    def test_zero_noise_exact(self):
        sched = priors.NoiseSchedule.linear(50)
        x0 = priors.encode_contact(np.array([0, 1]))
        for t in (1, 25, 50):
            xt = priors.q_sample(x0, t, np.zeros_like(x0), sched)
            assert np.allclose(xt, np.sqrt(sched.alpha_bars[t - 1]) * x0)

    def test_monte_carlo_marginal(self):
        sched = priors.NoiseSchedule.linear(100)
        rng = np.random.default_rng(1)
        x0 = np.full((1, 1), 1.0)
        t = 60
        draws = np.array(
            [priors.q_sample(x0, t, rng.standard_normal((1, 1)), sched)[0, 0] for _ in range(10_000)]
        )
        ab = sched.alpha_bars[t - 1]
        mean_expect = np.sqrt(ab)
        var_expect = 1 - ab
        se_mean = np.sqrt(var_expect / len(draws))
        assert abs(draws.mean() - mean_expect) < 3 * se_mean
        se_var = var_expect * np.sqrt(2.0 / (len(draws) - 1))
        assert abs(draws.var() - var_expect) < 3 * se_var

    def test_shape_mismatch(self):
        sched = priors.NoiseSchedule.linear(10)
        with pytest.raises(ShapeMismatch):
            priors.q_sample(np.zeros((3, 1)), 2, np.zeros((4, 1)), sched)


class TestDiffLoss:
    def test_stub_denoiser_zero(self):
        # denoiser that reproduces the drawn noise exactly -> loss 0
        diffuser = priors.ContactDiffuser.create(4, 0, priors.NoiseSchedule.linear(10))
        rng = np.random.default_rng(2)
        local, mx = rng.normal(size=(20, 2)), rng.normal(size=(2, 2))
        x0 = priors.encode_contact(rng.integers(0, 2, 20))
        eps = rng.standard_normal((20, 1))

        class Stub(priors.ContactDiffuser):
            def denoise_graph(self, tape, local, mx, x_t, t):
                return ad.const(eps, tape)

        stub = Stub(4, diffuser.store, diffuser.schedule)
        tape = ad.Tape()
        out = priors.diff_loss_graph(stub, tape, ad.const(local, tape), ad.const(mx, tape), x0, 5, eps)
        assert float(out.data) == 0.0

    def test_zero_denoiser_loss_near_one(self):
        diffuser = priors.ContactDiffuser.create(8, 0, priors.NoiseSchedule.linear(10))
        for name in diffuser.store.names():
            diffuser.store.params[name][...] = 0.0
        rng = np.random.default_rng(3)
        n = 4000
        local, mx = rng.normal(size=(n, 4)).astype(np.float32), rng.normal(size=(4, 4)).astype(np.float32)
        x0 = priors.encode_contact(rng.integers(0, 2, n))
        draw = np.random.default_rng(9)
        t = int(draw.integers(1, diffuser.schedule.T + 1))
        eps = draw.standard_normal((n, 1))
        tape = ad.Tape()
        loss = float(priors.diff_loss_graph(diffuser, tape, ad.const(local, tape), ad.const(mx, tape), x0, t, eps).data)
        assert abs(loss - 1.0) < 0.1  # X^2_n / n concentrates near 1

    def test_factored_first_layer_matches_the_concatenated_input(self):
        # float64, three blocks of 20 rows; every parameter, local and mx get a gradient
        dtype, tol = np.float64, 1e-12
        diffuser = priors.ContactDiffuser.create(8, 3, priors.NoiseSchedule.linear(10))
        rng = np.random.default_rng(13)
        for name in diffuser.store.names():
            diffuser.store.params[name][...] = rng.normal(size=diffuser.store.params[name].shape)
        local0, mx0 = rng.normal(size=(60, 4)).astype(dtype), rng.normal(size=(3, 4)).astype(dtype)
        x0 = priors.encode_contact(rng.integers(0, 2, 60))
        eps = rng.standard_normal((60, 1)).astype(np.float32)

        def run(loss_of):
            tape = ad.Tape()
            local, mx = ad.leaf(local0, tape), ad.leaf(mx0, tape)
            loss = loss_of(tape, local, mx)
            tape.backward(loss)
            diffuser.store.flush_tape_grads(tape)
            grads = {name: g.copy() for name, g in diffuser.store.grads.items()}
            return float(loss.data), local.grad, mx.grad, grads

        got = run(lambda tape, local, mx: priors.diff_loss_graph(diffuser, tape, local, mx, x0, 4, eps))
        want = run(
            lambda tape, local, mx: diff_loss_concat(
                diffuser, tape, ad.concat([local, ad.repeat_rows(mx, 20)], axis=1), x0, 4, eps
            )
        )
        assert got[0] == pytest.approx(want[0], rel=tol)
        for g, w in zip(got[1:3], want[1:3]):
            assert np.allclose(g, w, rtol=tol, atol=tol)
        for name in want[3]:
            assert np.allclose(got[3][name], want[3][name], rtol=tol, atol=tol * 10), name

    def test_row_mismatch(self):
        diffuser = priors.ContactDiffuser.create(4, 0, priors.NoiseSchedule.linear(10))
        tape = ad.Tape()
        mx = ad.const(np.zeros((1, 2)), tape)
        with pytest.raises(ShapeMismatch, match="feature rows != x0 rows"):
            priors.diff_loss_graph(
                diffuser, tape, ad.const(np.zeros((5, 2)), tape), mx, np.zeros((6, 1)), 3,
                np.zeros((6, 1)),
            )
        with pytest.raises(ShapeMismatch, match="do not make 4 features"):
            priors.diff_loss_graph(
                diffuser, tape, ad.const(np.zeros((6, 4)), tape), mx, np.zeros((6, 1)), 3,
                np.zeros((6, 1)),
            )


class TestSampler:
    def test_deterministic_under_seed(self):
        diffuser = priors.ContactDiffuser.create(8, 1, priors.NoiseSchedule.linear(20))
        z = np.random.default_rng(4).normal(size=(50, 8)).astype(np.float32)
        m1, c1 = priors.sample_contact_map(diffuser, z, generations=1, seed=7)
        m2, c2 = priors.sample_contact_map(diffuser, z, generations=1, seed=7)
        assert (m1 == m2).all() and (c1 == c2).all()
        m3, _ = priors.sample_contact_map(diffuser, z, generations=1, seed=8)
        assert (m1 != m3).any()

    def test_zero_denoiser_is_fair_coin(self):
        diffuser = priors.ContactDiffuser.create(4, 1, priors.NoiseSchedule.linear(100))
        for name in diffuser.store.names():
            diffuser.store.params[name][...] = 0.0
        z = np.zeros((10_000, 4), dtype=np.float32)
        m, conf = priors.sample_contact_map(diffuser, z, generations=1, seed=3)
        # the final x0 is zero-mean noise: ones rate must hover around 1/2
        assert 0.45 < m.mean() < 0.55

    def test_perfect_denoiser_single_step_identity(self):
        # T = 1: a denoiser that returns the true injected noise reconstructs
        # x0 exactly in one reverse step (algebraic identity)
        sched = priors.NoiseSchedule(np.array([0.3]))
        assert sched.T == 1
        rng = np.random.default_rng(5)
        x0 = priors.encode_contact(rng.integers(0, 2, 30))
        eps = rng.standard_normal(x0.shape)
        x1 = priors.q_sample(x0, 1, eps, sched)
        beta = sched.betas[0]
        ab = sched.alpha_bars[0]
        rec = (x1 - beta / np.sqrt(1 - ab) * eps) / np.sqrt(1 - beta)
        assert np.allclose(rec, x0, atol=1e-12)

    def test_multi_generation_variance_shrinks(self):
        diffuser = priors.ContactDiffuser.create(4, 2, priors.NoiseSchedule.linear(30))
        z = np.random.default_rng(6).normal(size=(40, 4)).astype(np.float32)
        single = np.stack(
            [priors.sample_contact_map(diffuser, z, 1, seed=s)[1] for s in range(12)]
        )
        multi = np.stack(
            [priors.sample_contact_map(diffuser, z, 5, seed=100 + s)[1] for s in range(12)]
        )
        assert multi.var(axis=0).mean() < single.var(axis=0).mean()


def reference_sample(diffuser, z, generations, seed):
    """The sampler as first written: K tiled feature copies and the full
    first-layer product [z | x_t | temb] @ W0 on every step."""
    z = np.asarray(z, dtype=np.float32)
    N = z.shape[0]
    sched = diffuser.schedule
    rng = np.random.Generator(np.random.PCG64(seed))
    zk = np.tile(z, (generations, 1))
    x = rng.standard_normal((generations * N, 1)).astype(np.float32)
    ab = sched.alpha_bars
    for t in range(sched.T, 0, -1):
        temb = nn.time_embedding(t, sched.T, priors.TIME_EMBED_DIM).astype(np.float32)
        inp = np.concatenate(
            [zk, x.astype(np.float32), np.broadcast_to(temb, (len(zk), priors.TIME_EMBED_DIM))],
            axis=1,
        )
        tape = ad.Tape(grad=False)
        eps_hat = nn.mlp_apply(diffuser.spec, diffuser.store, "eps", ad.const(inp, tape)).data
        beta = sched.betas[t - 1]
        alpha = sched.alphas[t - 1]
        x = (x - beta / np.sqrt(1.0 - ab[t - 1]) * eps_hat) / np.sqrt(alpha)
        if t > 1:
            x = x + np.sqrt(beta) * rng.standard_normal(x.shape).astype(np.float32)
    confidence = x.reshape(generations, N).mean(axis=0).astype(np.float64)
    return (confidence > 0).astype(np.uint8), confidence


class TestSplitDenoiser:
    @pytest.fixture(scope="class")
    def diffuser(self):
        diffuser = priors.ContactDiffuser.create(16, 5, priors.NoiseSchedule.linear(30))
        rng = np.random.default_rng(11)
        # nonzero biases so that the projection's b0 term is exercised
        for name in diffuser.store.names():
            if ".b" in name:
                diffuser.store.params[name][...] = rng.normal(size=diffuser.store.params[name].shape)
        return diffuser

    @pytest.mark.parametrize("generations", [1, 3])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_denoise_graph(self, diffuser, generations, dtype, tol):
        # z = [local | one max-pool row], the form the training loss sees
        rng = np.random.default_rng(12)
        N = 40
        local, mx = rng.normal(size=(N, 8)).astype(dtype), rng.normal(size=(1, 8)).astype(dtype)
        z = np.concatenate([local, np.repeat(mx, N, axis=0)], axis=1)
        x_t = rng.normal(size=(generations * N, 1))
        cond = diffuser.condition(z)
        assert cond.shape == (N, diffuser.spec.widths[1]) and cond.dtype == dtype
        for t in (1, 17, 30):
            got = diffuser.denoise_value(cond, x_t, t)
            tape = ad.Tape()
            want = diffuser.denoise_graph(
                tape, ad.const(np.tile(local, (generations, 1)), tape), ad.const(mx, tape), x_t, t
            ).data
            assert got.shape == (generations * N, 1) and got.dtype == dtype
            assert np.allclose(got, want, rtol=tol, atol=tol)

    def test_denoise_value_records_nothing(self, diffuser, monkeypatch):
        # plain numpy: no tape is built, not even one that records nothing
        cond = diffuser.condition(np.ones((10, 16), dtype=np.float32))
        tapes, records = spy_tapes(monkeypatch)
        diffuser.denoise_value(cond, np.ones((30, 1)), 3)
        assert tapes == [] and records == []

    def test_rows_not_multiple_of_n(self, diffuser):
        cond = diffuser.condition(np.zeros((10, 16), dtype=np.float32))
        for rows in (15, 9, 11):
            with pytest.raises(ShapeMismatch):
                diffuser.denoise_value(cond, np.zeros((rows, 1)), 3)
        with pytest.raises(ShapeMismatch):
            diffuser.denoise_value(cond, np.zeros((20, 2)), 3)

    def test_bad_feature_width_and_timestep(self, diffuser):
        with pytest.raises(ShapeMismatch):
            diffuser.condition(np.zeros((10, 15), dtype=np.float32))
        with pytest.raises(ShapeMismatch, match=r"features \(0, 16\)"):
            diffuser.condition(np.zeros((0, 16), dtype=np.float32))
        with pytest.raises(ShapeMismatch, match=r"features \(0, 16\)"):
            priors.sample_contact_map(diffuser, np.zeros((0, 16)), 2, seed=0)
        cond = diffuser.condition(np.zeros((10, 16), dtype=np.float32))
        with pytest.raises(BadTimestep):
            diffuser.denoise_value(cond, np.zeros((10, 1)), 31)

    @pytest.mark.parametrize("generations, seed", [(1, 3), (5, 4)])
    def test_sampler_matches_reference(self, diffuser, generations, seed):
        z = np.random.default_rng(13).normal(size=(300, 16)).astype(np.float32)
        m_ref, c_ref = reference_sample(diffuser, z, generations, seed)
        m, c = priors.sample_contact_map(diffuser, z, generations, seed=seed)
        assert np.array_equal(m, m_ref)
        assert np.allclose(c, c_ref, rtol=0, atol=1e-5)


@pytest.fixture(scope="module")
def biased_diffuser():
    """A 30-step diffuser whose biases are all nonzero."""
    diffuser = priors.ContactDiffuser.create(16, 7, priors.NoiseSchedule.linear(30))
    rng = np.random.default_rng(21)
    for name in diffuser.store.names():
        if ".b" in name:
            diffuser.store.params[name][...] = rng.normal(size=diffuser.store.params[name].shape)
    return diffuser


def features(n):
    return np.random.default_rng(n).normal(size=(n, 16)).astype(np.float32)


class TestParallelChains:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("generations", [1, 2, 5])
    @pytest.mark.parametrize(
        "n",
        [8, 37, 63, 64, 100, 129, 1000, 1024]
        # either side of one denoise_value sub-block, and two sub-blocks, the last 37 points longer
        + [priors.SUB_BLOCK - 1, priors.SUB_BLOCK, priors.SUB_BLOCK + 1, 2 * priors.SUB_BLOCK + 37],
    )
    def test_bytes_match_serial_chain(self, biased_diffuser, monkeypatch, cpus, generations, n):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        z = features(n)
        m_ref, c_ref = sample_contact_map_serial(biased_diffuser, z, generations, seed=n + generations)
        m, c = priors.sample_contact_map(biased_diffuser, z, generations, seed=n + generations)
        assert m.dtype == m_ref.dtype and c.dtype == c_ref.dtype
        assert m.tobytes() == m_ref.tobytes()
        assert c.tobytes() == c_ref.tobytes()

    @pytest.mark.parametrize(
        "cpus, n, cuts",
        [
            (1, 1024, [0, 1024]),
            (2, 63, [0, 63]),
            (2, 129, [0, 64, 129]),
            (2, 1024, [0, 512, 1024]),
            (3, 1000, [0, 320, 640, 1000]),
            (3, 100, [0, 100]),
            (8, 200, [0, 64, 128, 200]),
        ],
    )
    def test_cuts_on_block_multiples(self, monkeypatch, cpus, n, cuts):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        assert priors._chain_cuts(n) == cuts

    def test_more_chains_than_cores_under_fast_switching(self, biased_diffuser, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
        z = features(1024)
        m_ref, c_ref = sample_contact_map_serial(biased_diffuser, z, 2, seed=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            m, c = priors.sample_contact_map(biased_diffuser, z, 2, seed=5)
        finally:
            sys.setswitchinterval(interval)
        assert c.tobytes() == c_ref.tobytes()

    def test_one_chain_starts_no_thread(self, biased_diffuser, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started for one chain")

        monkeypatch.setattr(threading, "Thread", no_thread)
        z = features(1024)
        m, c = priors.sample_contact_map(biased_diffuser, z, 2, seed=3)
        m_ref, c_ref = sample_contact_map_serial(biased_diffuser, z, 2, seed=3)
        assert c.tobytes() == c_ref.tobytes()

    def test_every_chunk_runs_every_step(self, biased_diffuser, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        rows = []
        denoise = priors.ContactDiffuser.denoise_value

        def spy(self, cond, x_t, t):
            rows.append(len(cond))
            return denoise(self, cond, x_t, t)

        monkeypatch.setattr(priors.ContactDiffuser, "denoise_value", spy)
        priors.sample_contact_map(biased_diffuser, features(1000), 2, seed=0)
        assert sorted(rows) == sorted([320] * 60 + [360] * 30)

    def test_worker_error_is_raised_and_threads_end(self, biased_diffuser, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        z = features(1024)
        before = threading.active_count()
        priors.sample_contact_map(biased_diffuser, z, 2, seed=1)
        assert threading.active_count() == before

        denoise = priors.ContactDiffuser.denoise_value

        def fail_on_worker_slice(self, cond, x_t, t):
            # chunk 0 starts at row 0 of the full projection; the workers' do not
            if not np.shares_memory(cond[:1], full_cond[:1]):
                raise FloatingPointError("worker chunk")
            return denoise(self, cond, x_t, t)

        full_cond = biased_diffuser.condition(z)
        monkeypatch.setattr(
            priors.ContactDiffuser, "condition", lambda self, feats: full_cond
        )
        monkeypatch.setattr(priors.ContactDiffuser, "denoise_value", fail_on_worker_slice)
        with pytest.raises(FloatingPointError, match="worker chunk"):
            priors.sample_contact_map(biased_diffuser, z, 2, seed=1)
        assert threading.active_count() == before

    def test_error_in_calling_thread_joins_workers(self, biased_diffuser, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        before = threading.active_count()
        denoise = priors.ContactDiffuser.denoise_value
        caller = threading.current_thread()

        def fail(self, cond, x_t, t):
            if threading.current_thread() is caller:
                raise BadTimestep("stop")
            return denoise(self, cond, x_t, t)

        monkeypatch.setattr(priors.ContactDiffuser, "denoise_value", fail)
        with pytest.raises(BadTimestep):
            priors.sample_contact_map(biased_diffuser, features(256), 1, seed=0)
        assert threading.active_count() == before


# The tracemalloc peak of one sample_contact_map call at the bench's sizes
# (F 256, N 1024, G 5, T 100) on two chains, at most. Set from a measured
# 5.46 MB (numpy 2.4.6, Python 3.11) plus 0.1 MB; a denoiser that runs its
# layers through a tape over whole chains, with fresh (G * n, 128)
# activations per layer and step, exceeds it (8.48 MB).
SAMPLER_PEAK_BOUND = 5_560_000


class TestSamplerMemory:
    def test_sampler_peak_within_bound(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        diffuser = priors.ContactDiffuser.create(256, 3, priors.NoiseSchedule.linear(100))
        z = np.random.default_rng(0).normal(size=(1024, 256)).astype(np.float32)
        priors.sample_contact_map(diffuser, z, 1, seed=0)  # its one-off import is not counted
        tracemalloc.start()
        try:
            priors.sample_contact_map(diffuser, z, 5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= SAMPLER_PEAK_BOUND, peak
