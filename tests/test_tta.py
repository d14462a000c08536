"""Test-time adaptation: adapt_object's step loop, trace and abort reasons."""

from dataclasses import replace

import numpy as np
import pytest

from artipose import autodiff as ad
from artipose import estimator as E
from artipose import nn
from artipose import priors
from artipose import tta
from artipose.errors import DegenerateFit, TooFewPoints
from artipose.synth import make_instance, sample_scene
from helpers import adapt_object_reencoding, bits


@pytest.fixture(scope="module")
def scene():
    inst = make_instance("laptop", 4)
    return sample_scene(inst, np.random.SeedSequence([4, 1]), scene_id="s0")


@pytest.fixture(scope="module")
def est(scene, tmp_path_factory):
    """Ten epochs on the one scene: every part of the first estimate has
    hundreds of points, so adaptation starts."""
    cfg = E.TrainConfig(epochs=10, batch_size=1, lr=3e-3, seed=1)
    ckpt = E.train_estimator([scene], cfg, tmp_path_factory.mktemp("tta"))
    return E.load_estimator(ckpt)[0]


@pytest.fixture
def disc():
    return priors.Discriminator.create(2, seed=0)


def adapt(est, disc, scene, steps):
    return tta.adapt_object(est, disc, scene.cloud, scene.canonical_boxes, tta.TtaConfig(steps=steps))


def snapshot(store):
    return {name: value.copy() for name, value in store.params.items()}


def fail_layout_at(monkeypatch, call, corrupt):
    """Make the layout of the given pass (0-based) come from corrupted head
    outputs; corrupt maps (labels, nocs, rot6d) to new ones."""
    calls = []

    def layout(tape, cloud, labels, nocs, rot6d, half_extents):
        if len(calls) == call:
            labels, nocs, rot6d = corrupt(labels, nocs, rot6d)
        calls.append(call)
        return E.layout_graph(tape, cloud, labels, nocs, rot6d, half_extents)

    monkeypatch.setattr(tta, "layout_graph", layout)
    return calls


def fail_first_estimate(monkeypatch, corrupt):
    """Make adapt_object's first estimate come from corrupted head outputs;
    corrupt maps a HeadOutput to a new one."""

    def assemble(cloud, pred, canonical_boxes):
        return E.assemble_pose(cloud, corrupt(pred), canonical_boxes)

    monkeypatch.setattr(tta, "assemble_pose", assemble)


def assert_same_result(got, want):
    """Bit-for-bit equality of two AdaptResults."""
    assert got.aborted == want.aborted
    assert np.array_equal(bits(np.array(got.trace)), bits(np.array(want.trace)))
    assert (got.after is got.before) == (want.after is want.before)
    for tag in ("before", "after"):
        for g, w in zip(getattr(got, tag), getattr(want, tag), strict=True):
            assert (g.part, g.valid, g.reason) == (w.part, w.valid, w.reason)
            assert np.array_equal(g.members, w.members)
            if w.valid:
                assert np.array_equal(bits(g.pose.R), bits(w.pose.R))
                assert np.array_equal(bits(g.pose.t), bits(w.pose.t))
                assert np.array_equal(bits(np.float64(g.pose.s)), bits(np.float64(w.pose.s)))
                assert np.array_equal(bits(g.box.vertices), bits(w.box.vertices))


def hand_only(labels, nocs, rot6d):
    return np.zeros_like(labels), nocs, rot6d


def zero_rotation(labels, nocs, rot6d):
    return labels, nocs, ad.mul(rot6d, 0.0)


class TestAdaptObject:
    def test_completed_run_traces_every_pass(self, est, disc, scene):
        result = adapt(est, disc, scene, steps=3)
        assert result.aborted == ""
        assert len(result.trace) == 4
        assert all(np.isfinite(result.trace))
        assert all(p.valid for p in result.after)
        assert result.after is not result.before

    def test_caller_estimator_and_discriminator_unchanged(self, est, disc, scene):
        est_before, disc_before = snapshot(est.store), snapshot(disc.store)
        adapt(est, disc, scene, steps=2)
        for name, value in est_before.items():
            assert np.array_equal(est.store.params[name], value)
        for name, value in disc_before.items():
            assert np.array_equal(disc.store.params[name], value)

    def test_zero_steps_one_value(self, est, disc, scene):
        result = adapt(est, disc, scene, steps=0)
        assert result.aborted == ""
        assert len(result.trace) == 1
        for b, a in zip(result.before, result.after):
            assert np.array_equal(a.pose.R, b.pose.R)
            assert np.array_equal(a.pose.t, b.pose.t)

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (hand_only, "part lost its points"),
            (zero_rotation, "first column near zero"),
        ],
    )
    def test_failed_layout_aborts_mid_run(self, est, disc, scene, monkeypatch, corrupt, reason):
        fail_layout_at(monkeypatch, 1, corrupt)
        result = adapt(est, disc, scene, steps=3)
        assert result.aborted == f"step 1: {reason}"
        assert len(result.trace) == 1
        assert result.after is result.before

    def test_non_finite_loss_aborts(self, est, disc, scene):
        disc.store.params["d.b2"][...] = np.nan
        result = adapt(est, disc, scene, steps=3)
        assert result.aborted == "step 0: non-finite loss"
        assert result.trace == []
        assert result.after is result.before

    def test_failed_final_pass_appends_nothing(self, est, disc, scene, monkeypatch):
        calls = fail_layout_at(monkeypatch, 2, hand_only)
        result = adapt(est, disc, scene, steps=2)
        assert len(calls) == 3
        assert result.aborted == ""
        assert len(result.trace) == 2
        assert result.after is not result.before

    def test_degenerate_first_estimate_names_its_reason(self, est, disc, scene, monkeypatch):
        def zero_part0_rotation(pred):
            rot6d = pred.rot6d.copy()
            rot6d[0] = 0.0
            return replace(pred, rot6d=rot6d)

        fail_first_estimate(monkeypatch, zero_part0_rotation)
        with pytest.raises(DegenerateFit, match="^part 0: first column near zero$") as err:
            adapt(est, disc, scene, steps=1)
        assert err.value.part == 0

    def test_starved_first_estimate_raises_too_few_points(self, est, disc, scene, monkeypatch):
        def hand_labels(pred):
            seg = np.full_like(pred.seg_logits, -1.0)
            seg[:, E.HAND_CLASS] = 1.0
            return replace(pred, seg_logits=seg)

        fail_first_estimate(monkeypatch, hand_labels)
        with pytest.raises(TooFewPoints, match="^part 0 has only 0 member points$"):
            adapt(est, disc, scene, steps=1)

    @pytest.mark.parametrize("scope", [tta.HEADS_ONLY, tta.FULL_ENCODER])
    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_matches_reencoding_oracle(self, est, disc, scene, scope, steps):
        cfg = tta.TtaConfig(steps=steps, lr=1e-3, scope=scope)
        got = tta.adapt_object(est, disc, scene.cloud, scene.canonical_boxes, cfg)
        want = adapt_object_reencoding(est, disc, scene.cloud, scene.canonical_boxes, cfg)
        assert len(want.trace) == steps + 1
        assert_same_result(got, want)

    @pytest.mark.parametrize(
        "scope, encode_tapes, encoder_on_grad_tape",
        [
            (tta.HEADS_ONLY, [False], False),
            (tta.FULL_ENCODER, [True, True, True, False], True),
        ],
    )
    def test_encoder_on_grad_tape_only_in_full_encoder_scope(
        self, est, disc, scene, monkeypatch, scope, encode_tapes, encoder_on_grad_tape
    ):
        encodes, graded = [], set()
        encode_graph, use = E.Estimator.encode_graph, nn.ParamStore.use

        def spy_encode_graph(self, tape, clouds):
            encodes.append(tape.grad)
            return encode_graph(self, tape, clouds)

        def spy_use(self, name, tape, dtype=None):
            if tape.grad and self is not disc.store:
                graded.add(name)
            return use(self, name, tape, dtype)

        monkeypatch.setattr(E.Estimator, "encode_graph", spy_encode_graph)
        monkeypatch.setattr(nn.ParamStore, "use", spy_use)
        cfg = tta.TtaConfig(steps=3, scope=scope)
        assert tta.adapt_object(est, disc, scene.cloud, scene.canonical_boxes, cfg).aborted == ""
        assert encodes == encode_tapes
        names = set(est.store.names())
        encoder = {n for n in names if n.startswith("enc")}
        assert encoder and graded == (names if encoder_on_grad_tape else names - encoder)
