"""Test-time adaptation: adapt_object's step loop, trace and abort reasons."""

import numpy as np
import pytest

from artipose import autodiff as ad
from artipose import estimator as E
from artipose import nn
from artipose import priors
from artipose import tta
from artipose.synth import make_instance, sample_scene
from artipose.synth.hand import KinematicHand
from artipose.synth.render import HAND_LABEL
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
    outputs; corrupt maps (labels, nocs, rot) to new ones."""
    calls = []
    original = tta.assemble_graph

    def fit(tape, clouds, labels, nocs, rot, half_extents):
        if len(calls) == call:
            labels, nocs, rot = corrupt(labels, nocs, rot)
        calls.append(call)
        return original(tape, clouds, labels, nocs, rot, half_extents)

    monkeypatch.setattr(tta, "assemble_graph", fit)
    return calls


def fail_first_pass(monkeypatch, corrupt):
    """Corrupt the head outputs of adapt_object's first pass, from which both
    `before` and the step-0 layout come; corrupt maps the (seg, nocs, rot)
    Vars to new ones."""
    heads_graph = E.Estimator.heads_graph
    calls = []

    def heads(self, tape, *features):
        out = heads_graph(self, tape, *features)
        calls.append(tape)
        return corrupt(*out) if len(calls) == 1 else out

    monkeypatch.setattr(E.Estimator, "heads_graph", heads)


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


def hand_seg(seg, nocs, rot):
    """Head outputs that put every point in the hand class."""
    hand = np.eye(seg.data.shape[1], dtype=seg.data.dtype)[HAND_LABEL]
    return ad.add(ad.mul(seg, 0.0), hand), nocs, rot


def hand_only(labels, nocs, rot):
    return np.zeros_like(labels), nocs, rot


def zero_rotation(labels, nocs, rot):
    return labels, nocs, ad.mul(rot, 0.0)


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
            (hand_only, "0 points"),
            (zero_rotation, "first column near zero"),
        ],
    )
    def test_failed_layout_aborts_mid_run(self, est, disc, scene, monkeypatch, corrupt, reason):
        fail_layout_at(monkeypatch, 1, corrupt)
        result = adapt(est, disc, scene, steps=3)
        assert result.aborted == f"step 1: part 0: {reason}"
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
        fail_first_pass(monkeypatch, lambda seg, nocs, rot: (seg, nocs, ad.mul(rot, 0.0)))
        result = adapt(est, disc, scene, steps=1)
        assert result.aborted == "step 0: part 0: first column near zero"
        assert result.trace == []
        assert result.after is result.before
        assert [(p.valid, p.reason) for p in result.before] == [(False, "first column near zero")] * 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_first_estimate_aborts_at_step_0(self, est, disc, scene, monkeypatch, bad):
        fail_first_pass(monkeypatch, lambda seg, nocs, rot: (seg, nocs, ad.mul(rot, bad)))
        result = adapt(est, disc, scene, steps=2)
        assert result.aborted == "step 0: part 0: non-finite fit"
        assert result.trace == []
        assert result.after is result.before
        assert [(p.valid, p.reason) for p in result.before] == [(False, "non-finite fit")] * 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_layout_aborts_mid_run(self, est, disc, scene, monkeypatch, bad):
        fail_layout_at(monkeypatch, 1, lambda labels, nocs, rot: (labels, ad.mul(nocs, bad), rot))
        result = adapt(est, disc, scene, steps=3)
        assert result.aborted == "step 1: part 0: non-finite fit"
        assert len(result.trace) == 1
        assert result.after is result.before

    def test_non_finite_point_aborts_as_a_non_finite_segmentation(self, est, disc, scene):
        # the encoder's max-pool spreads one NaN point to every row's logits
        cloud = scene.cloud.copy()
        cloud[0] = np.nan
        result = tta.adapt_object(est, disc, cloud, scene.canonical_boxes, tta.TtaConfig(steps=2))
        assert result.aborted == "step 0: part 0: non-finite segmentation"
        assert result.trace == []
        assert result.after is result.before
        assert [(p.valid, p.reason) for p in result.before] == [(False, "non-finite segmentation")] * 2

    def test_starved_first_estimate_aborts_at_step_0(self, est, disc, scene, monkeypatch):
        fail_first_pass(monkeypatch, hand_seg)
        result = adapt(est, disc, scene, steps=1)
        assert result.aborted == "step 0: part 0: 0 points"
        assert result.trace == []
        assert result.after is result.before
        assert [(p.valid, p.reason) for p in result.before] == [(False, "0 points")] * 2

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (hand_seg, "0 points"),
            (lambda seg, nocs, rot: (seg, nocs, ad.mul(rot, 0.0)), "first column near zero"),
        ],
        ids=["starved", "degenerate"],
    )
    def test_zero_steps_unusable_first_estimate_aborts(self, est, disc, scene, monkeypatch, corrupt, reason):
        # the first pass is also the final one, yet the bad estimate is recorded
        fail_first_pass(monkeypatch, corrupt)
        result = adapt(est, disc, scene, steps=0)
        assert result.aborted == f"step 0: part 0: {reason}"
        assert result.trace == []
        assert result.after is result.before

    @pytest.mark.parametrize("steps", [0, 1])
    def test_invalid_first_estimate_aborts_before_any_layout(self, est, disc, scene, monkeypatch, steps):
        # `before`, the float64 fit, alone decides the step-0 abort
        def part_1_invalid(cloud, pred, canonical_boxes):
            ests = E.assemble_pose(cloud, pred, canonical_boxes)
            ests[1] = E.PartPoseEstimate(1, False, None, None, ests[1].members, reason="rank 1")
            return ests

        monkeypatch.setattr(tta, "assemble_pose", part_1_invalid)
        monkeypatch.setattr(tta, "assemble_graph", lambda *args: pytest.fail("on-tape fit called"))
        result = adapt(est, disc, scene, steps=steps)
        assert result.aborted == "step 0: part 1: rank 1"
        assert result.trace == []
        assert result.after is result.before

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_matches_reencoding_oracle(self, est, disc, scene, steps):
        cfg = tta.TtaConfig(steps=steps, lr=1e-3)
        got = tta.adapt_object(est, disc, scene.cloud, scene.canonical_boxes, cfg)
        want = adapt_object_reencoding(est, disc, scene.cloud, scene.canonical_boxes, cfg)
        assert len(want.trace) == steps + 1
        assert_same_result(got, want)

    def test_discriminator_is_no_parameter_of_a_step(self, est, disc, scene, monkeypatch):
        tapes, descend = [], nn.descend

        def spy(tape, loss, stores, lr):
            tapes.append(tape)
            descend(tape, loss, stores, lr)

        monkeypatch.setattr(nn, "descend", spy)
        assert adapt(est, disc, scene, steps=2).aborted == ""
        assert len(tapes) == 2
        for tape in tapes:
            assert tape.param_uses and all(store is not disc.store for store, *_ in tape.param_uses)

    def test_encoder_runs_once_off_the_grad_tape(self, est, disc, scene, monkeypatch):
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
        cfg = tta.TtaConfig(steps=3)
        assert tta.adapt_object(est, disc, scene.cloud, scene.canonical_boxes, cfg).aborted == ""
        assert encodes == [False]
        names = set(est.store.names())
        encoder = {n for n in names if n.startswith("enc")}
        assert encoder and graded == names - encoder


class TestConfigs:
    @pytest.mark.parametrize("lr", [0.0, -1.0, -1e-9])
    @pytest.mark.parametrize("config", [tta.TtaConfig, tta.HandOptConfig])
    def test_lr_must_be_positive(self, config, lr):
        with pytest.raises(ValueError, match="lr must be positive"):
            config(lr=lr)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"lr": float("inf")}, "lr must be finite"),
            ({"lr": float("nan")}, "lr must be positive"),
            ({"lr": True}, "lr must be a number"),
            ({"lr": "0.1"}, "lr must be a number"),
        ],
    )
    @pytest.mark.parametrize("config", [tta.TtaConfig, tta.HandOptConfig])
    def test_lr_must_be_a_finite_number(self, config, setting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            config(**setting)

    @pytest.mark.parametrize("config, name", [(tta.TtaConfig, "steps"), (tta.HandOptConfig, "iters")])
    @pytest.mark.parametrize("value", [True, 2.0, "3"])
    def test_counts_must_be_integers(self, config, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            config(**{name: value})

    def test_hand_opt_accepts_a_positive_lr(self):
        assert tta.HandOptConfig(iters=5, lr=1e-9).lr == 1e-9

    def test_heads_only_is_the_one_scope(self):
        assert tta.TtaConfig(steps=10, scope=tta.HEADS_ONLY).scope == "heads_only"
        with pytest.raises(ValueError, match="the one scope is 'heads_only'"):
            tta.TtaConfig(scope="full_encoder")


class TestOptimizeHand:
    def test_degenerate_root_rotation_aborts(self, monkeypatch):
        # a zero 6D root rotation has no Gram-Schmidt frame
        hand = KinematicHand(np.eye(3), np.zeros(3), np.full(15, 0.3))
        monkeypatch.setattr(tta, "matrix_to_rot6d", lambda R: np.zeros(6))
        cloud = np.random.default_rng(0).normal(size=(20, 3)) * 0.05
        result = tta.optimize_hand(hand, np.ones(20, dtype=bool), cloud, tta.HandOptConfig(iters=3))
        assert result.aborted == "iter 0: degenerate root rotation"
        assert result.trace == [] and result.hand is hand

    def test_chamfer_falls_from_a_displaced_root(self):
        hand = KinematicHand(np.eye(3), np.zeros(3), np.full(15, 0.3))
        target = hand.surface()[::4]
        moved = KinematicHand(np.eye(3), np.array([0.01, -0.01, 0.0]), hand.joint_angles)
        result = tta.optimize_hand(moved, np.ones(len(target), dtype=bool), target, tta.HandOptConfig(iters=20, lr=1e-3))
        assert result.aborted == ""
        assert len(result.trace) == 21 and min(result.trace) < result.trace[0]
