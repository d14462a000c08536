"""Estimator: encoder properties, loss oracle, pose assembly, training."""

import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from artipose import autodiff as ad
from artipose import estimator as E
from artipose import nn, priors
from artipose.geometry import matrix_to_rot6d, rot6d_to_matrix, rotation_error
from artipose.gradcheck import f64_store, fd_pairs
from artipose.synth import make_instance, sample_scene
from artipose.synth.render import HAND_LABEL
from helpers import bits, descend_by_hand, fit_parts_one_by_one, pose_loss, rel_err, spy_tapes


@pytest.fixture(scope="module")
def scene():
    inst = make_instance("laptop", 4)
    return sample_scene(inst, np.random.SeedSequence([4, 1]), scene_id="s0")


@pytest.fixture(scope="module")
def net():
    return E.Estimator.create(E.EstimatorSpec(part_count=2), seed=0)


class TestEncoder:
    def test_permutation_equivariance(self, net, scene):
        cloud = scene.cloud.astype(np.float32)
        rng = np.random.default_rng(0)
        enc = net.encode(cloud)
        for _ in range(3):
            perm = rng.permutation(len(cloud))
            enc_p = net.encode(cloud[perm])
            assert np.array_equal(enc.z[perm], enc_p.z)
            assert np.array_equal(enc.pooled, enc_p.pooled)

    def test_duplicated_point_duplicated_row(self, net):
        rng = np.random.default_rng(1)
        cloud = rng.normal(size=(32, 3)).astype(np.float32)
        cloud[17] = cloud[3]
        enc = net.encode(cloud)
        assert np.array_equal(enc.z[17], enc.z[3])

    def test_global_feature_is_max_of_locals(self, net):
        # recomputation oracle: run the shared MLP by hand, max-pool
        rng = np.random.default_rng(2)
        cloud = rng.normal(size=(40, 3)).astype(np.float32)
        enc = net.encode(cloud)
        h = cloud
        for i in range(2):
            w = net.store.params[f"enc{i}.w0"]
            b = net.store.params[f"enc{i}.b0"]
            h = np.maximum(h @ w + b, 0)
        local_dim = net.spec.local_dim
        assert np.allclose(enc.z[:, :local_dim], h, atol=1e-6)
        assert np.allclose(enc.pooled[0, :local_dim], h.max(axis=0), atol=1e-6)
        assert np.allclose(enc.pooled[0, local_dim:], h.mean(axis=0), atol=1e-5)
        # broadcast copy of the max-pool rides along in z
        assert np.allclose(enc.z[:, local_dim:], h.max(axis=0), atol=1e-6)

    def test_z_is_float32_local_beside_its_max_pool(self, net):
        rng = np.random.default_rng(3)
        enc = net.encode(rng.normal(size=(40, 3)).astype(np.float32))
        L = net.spec.local_dim
        assert enc.z.dtype == np.float32 and enc.z.shape == (40, 2 * L)
        assert np.array_equal(bits(enc.z[:, :L]), bits(enc.local))
        assert enc.mx.dtype == np.float32
        assert np.array_equal(bits(enc.mx), bits(enc.pooled[:, :L].astype(np.float32)))
        assert np.array_equal(bits(enc.z[:, L:]), bits(np.broadcast_to(enc.mx, (40, L))))

    def test_too_small_cloud_rejected(self, net):
        with pytest.raises(E.ShapeMismatch):
            net.encode(np.zeros((4, 3), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(1, 8, 3), (4, 256, 3), (2, 3, 17, 3)])
    def test_prepare_input_batch_is_each_cloud(self, net, shape):
        # training centres its whole batch in one call; eval and TTA one cloud
        rng = np.random.default_rng(5)
        clouds = rng.normal(0.3, 0.2, size=shape)
        batch = net.prepare_input(clouds)
        assert batch.dtype == np.float32 and batch.shape == shape
        for index in np.ndindex(shape[:-2]):
            assert np.array_equal(bits(batch[index]), bits(net.prepare_input(clouds[index])))


class TestHeads:
    def test_output_shapes(self, net, scene):
        out = net.head_output(scene.cloud)
        n = len(scene.cloud)
        assert out.seg_logits.shape == (n, 3)
        assert out.nocs.shape == (n, 3)
        assert out.rot6d.shape == (2, 6)
        assert np.isfinite(out.seg_logits).all()

    def test_predict_consumes_encoder_output(self, net, scene):
        enc = net.encode(net.prepare_input(scene.cloud))
        out = net.predict(enc)
        out2 = net.head_output(scene.cloud)
        assert np.array_equal(out.seg_logits, out2.seg_logits)
        assert np.array_equal(out.rot6d, out2.rot6d)


class TestNoGradInference:
    def test_head_output_records_nothing(self, net, scene, monkeypatch):
        tapes, records = spy_tapes(monkeypatch)
        net.head_output(scene.cloud)
        assert len(tapes) == 2 and not any(t.grad for t in tapes)
        assert records == [] and all(t.param_uses == [] for t in tapes)

    def test_head_output_matches_grad_tape(self, net, scene):
        pred = net.head_output(scene.cloud)
        tape = ad.Tape()
        seg, nocs, rot = net.heads_graph(tape, *net.encode_graph(tape, net.prepare_input(scene.cloud)[None]))
        for got, want in ((pred.seg_logits, seg.data), (pred.nocs, nocs.data), (pred.rot6d, rot.data[0])):
            assert got.dtype == want.dtype and np.array_equal(bits(got), bits(want))


class TestPoseLoss:
    def test_exact_prediction_near_zero(self, scene):
        gt_rot = E.gt_rot6d(scene.part_poses)
        pred = E.HeadOutput(
            seg_logits=np.eye(3)[scene.seg] * 20.0,
            nocs=scene.nocs.copy(),
            rot6d=gt_rot.copy(),
        )
        loss = pose_loss(pred, scene.seg, scene.nocs, gt_rot)
        assert 0 <= loss < 1e-6

    def test_unit_rotation_offset(self, scene):
        gt_rot = E.gt_rot6d(scene.part_poses)[:1]
        pred = E.HeadOutput(
            seg_logits=np.eye(3)[scene.seg] * 20.0,
            nocs=scene.nocs.copy(),
            rot6d=gt_rot + np.array([[1.0, 0, 0, 0, 0, 0]]),
        )
        loss = pose_loss(
            pred, scene.seg, scene.nocs, gt_rot, lambda_seg=0.0, lambda_rot=1.0, lambda_nocs=0.0
        )
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_matches_recomputation_oracle(self, scene):
        rng = np.random.default_rng(3)
        n = len(scene.seg)
        pred = E.HeadOutput(
            seg_logits=rng.normal(size=(n, 3)),
            nocs=rng.normal(size=(n, 3)),
            rot6d=rng.normal(size=(2, 6)),
        )
        gt_rot = rng.normal(size=(2, 6))
        ls, lr, ln = 0.7, 1.3, 4.0
        got = pose_loss(pred, scene.seg, scene.nocs, gt_rot, ls, lr, ln)
        # independent scalar recomputation
        p = np.exp(pred.seg_logits - pred.seg_logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        ce = -np.log(p[np.arange(n), scene.seg]).mean()
        rot = sum(np.linalg.norm(pred.rot6d[k] - gt_rot[k]) for k in range(2))
        mask = scene.seg > 0
        nocs = np.linalg.norm((pred.nocs - scene.nocs)[mask], axis=1).mean()
        expect = ls * ce + lr * rot + ln * nocs
        assert rel_err(got, expect) < 1e-10

    def test_graph_matches_scalar(self, net, scene):
        gt_rot = E.gt_rot6d(scene.part_poses).astype(np.float32)
        cloud32 = net.prepare_input(scene.cloud)
        tape = ad.Tape()
        seg, nocs, rot = net.heads_graph(tape, *net.encode_graph(tape, cloud32[None]))
        total, _ = E.pose_loss_graph(
            tape, seg, nocs, rot, scene.seg[None], scene.nocs[None].astype(np.float32), gt_rot[None]
        )
        out = E.HeadOutput(seg.data, nocs.data, rot.data[0])
        scalar = pose_loss(out, scene.seg, scene.nocs, gt_rot)
        assert rel_err(float(total.data), scalar) < 1e-4


class TestAssemblePose:
    def test_ground_truth_round_trip(self, scene):
        pred = E.HeadOutput(
            seg_logits=np.eye(3)[scene.seg] * 20.0,
            nocs=scene.nocs.copy(),
            rot6d=E.gt_rot6d(scene.part_poses),
        )
        ests = E.assemble_pose(scene.cloud, pred, scene.canonical_boxes)
        for est, gt in zip(ests, scene.part_poses):
            assert est.valid
            assert rotation_error(est.pose.R, gt.R) < 1e-5
            assert np.linalg.norm(est.pose.t - gt.t) < 1e-5
            assert abs(est.pose.s - gt.s) < 1e-5
            assert np.allclose(
                est.box.vertices,
                np.asarray([b.vertices for b in scene.posed_boxes])[est.part],
                atol=1e-5,
            )

    def test_starved_parts_marked_invalid(self, scene):
        n = len(scene.cloud)
        pred = E.HeadOutput(
            seg_logits=np.tile([0.0, 20.0, 0.0], (n, 1)),  # everything -> part 0
            nocs=scene.nocs.copy(),
            rot6d=E.gt_rot6d(scene.part_poses),
        )
        ests = E.assemble_pose(scene.cloud, pred, scene.canonical_boxes)
        assert ests[0].valid
        assert not ests[1].valid
        assert len(ests[1].members) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["nocs", "rot6d"])
    def test_non_finite_inputs_are_a_reason(self, scene, field, bad):
        # today's reasons come first: part 1 is starved to 2 points; the bad
        # value is part 0's rotation or the NOCS of its first member
        labels = scene.seg.astype(np.int64)
        labels[np.flatnonzero(labels == 2)[2:]] = HAND_LABEL
        pred = E.HeadOutput(np.eye(3)[labels] * 20.0, scene.nocs.copy(), E.gt_rot6d(scene.part_poses))
        getattr(pred, field)[np.flatnonzero(labels == 1)[0] if field == "nocs" else 0] = bad
        ests = E.assemble_pose(scene.cloud, pred, scene.canonical_boxes)
        assert [(e.valid, e.reason) for e in ests] == [(False, "non-finite fit"), (False, "2 points")]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_nocs_marks_only_its_part(self, scene, bad):
        # a part's fit reads only its member rows
        pred = E.HeadOutput(np.eye(3)[scene.seg] * 20.0, scene.nocs.copy(), E.gt_rot6d(scene.part_poses))
        pred.nocs[np.flatnonzero(scene.seg == 2)[0]] = bad
        ests = E.assemble_pose(scene.cloud, pred, scene.canonical_boxes)
        assert [(e.valid, e.reason) for e in ests] == [(True, ""), (False, "non-finite fit")]
        want = E.assemble_pose(scene.cloud, replace(pred, nocs=scene.nocs.copy()), scene.canonical_boxes)[0]
        assert np.array_equal(ests[0].box.vertices, want.box.vertices)

    def test_point_labels_are_the_argmax_of_finite_rows(self):
        logits = np.random.default_rng(5).normal(size=(50, 3))
        logits[7] = [1.0, 1.0, 0.0]  # a tie goes to the first class
        want = np.argmax(logits, axis=1)
        labels = E.point_labels(logits)
        assert labels.dtype == want.dtype and np.array_equal(labels, want)
        logits[[3, 9, 11], [1, 2, 0]] = [np.nan, np.inf, -np.inf]
        assert np.flatnonzero(E.point_labels(logits) == -1).tolist() == [3, 9, 11]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_segmentation_comes_first(self, scene, bad):
        # over part 1 starved to 2 points; every part of the scene gets it
        labels = scene.seg.astype(np.int64)
        labels[np.flatnonzero(labels == 2)[2:]] = HAND_LABEL
        pred = E.HeadOutput(np.eye(3)[labels] * 20.0, scene.nocs.copy(), E.gt_rot6d(scene.part_poses))
        pred.seg_logits[5, 0] = bad
        ests = E.assemble_pose(scene.cloud, pred, scene.canonical_boxes)
        assert [(e.valid, e.reason) for e in ests] == [(False, "non-finite segmentation")] * 2

    def test_non_finite_segmentation_marks_only_its_scene(self, scene):
        labels = np.stack([scene.seg, scene.seg]).astype(np.int64)
        labels[1, 0] = -1
        tape = ad.Tape(grad=False)
        *_, reasons = E.assemble_graph(
            tape,
            np.stack([scene.cloud] * 2),
            labels,
            ad.const(np.concatenate([scene.nocs] * 2), tape),
            ad.const(np.stack([E.gt_rot6d(scene.part_poses)] * 2), tape),
            np.stack([scene.half_extents()] * 2),
        )
        assert reasons.tolist() == [["", ""], ["non-finite segmentation"] * 2]

    @pytest.mark.parametrize(
        "starved, degenerate, first_failure",
        [
            ((), (), None),
            ((1,), (), "part 1: 2 points"),
            ((), (1,), "part 1: first column near zero"),
            ((0,), (1,), "part 0: 2 points"),
            ((1,), (0,), "part 0: first column near zero"),
        ],
    )
    def test_on_tape_layout_agrees_with_assemble_pose(self, scene, starved, degenerate, first_failure):
        # starved parts keep 2 member points; degenerate parts get a zero rotation
        rng = np.random.default_rng(0)
        labels = scene.seg.astype(np.int64)
        for p in starved:
            labels[np.flatnonzero(labels == p + 1)[2:]] = HAND_LABEL
        rot6d = E.gt_rot6d(scene.part_poses) + rng.normal(scale=0.05, size=(2, 6))
        rot6d[list(degenerate)] = 0.0
        pred = E.HeadOutput(
            seg_logits=np.eye(3)[labels] * 20.0,
            nocs=scene.nocs + rng.normal(scale=0.01, size=scene.nocs.shape),
            rot6d=rot6d,
        )
        ests = E.assemble_pose(scene.cloud, pred, scene.canonical_boxes)
        tape = ad.Tape()
        *_, boxes, reasons = E.assemble_graph(
            tape,
            scene.cloud[None],
            labels[None],
            ad.leaf(pred.nocs, tape),
            ad.leaf(pred.rot6d[None], tape),
            np.stack([b.vertices[7] for b in scene.canonical_boxes])[None],
        )
        (layout,) = E.scene_layouts(boxes, reasons)
        assert reasons[0].tolist() == [e.reason for e in ests]
        bad = next((e for e in ests if not e.valid), None)
        if first_failure is None:
            assert bad is None
            assert np.array_equal(bits(layout.data), bits(np.stack([e.box.vertices for e in ests])))
        else:
            assert layout == first_failure == f"part {bad.part}: {bad.reason}"

    def test_scene_layouts_slice_each_scene(self, scene):
        # three scenes in one batch, the middle one with part 1 starved to 2 points
        rng = np.random.default_rng(1)
        labels = np.stack([scene.seg.astype(np.int64)] * 3)
        labels[1, np.flatnonzero(labels[1] == 2)[2:]] = HAND_LABEL
        nocs = scene.nocs + rng.normal(scale=0.01, size=(3,) + scene.nocs.shape)
        rot6d = E.gt_rot6d(scene.part_poses) + rng.normal(scale=0.05, size=(3, 2, 6))
        clouds = np.stack([scene.cloud] * 3)
        extents = np.stack([scene.half_extents()] * 3)

        def layouts(b):
            tape = ad.Tape()
            fit = E.assemble_graph(
                tape, clouds[b], labels[b], ad.leaf(nocs[b].reshape(-1, 3), tape), ad.leaf(rot6d[b], tape), extents[b]
            )
            return E.scene_layouts(fit[3], fit[4])

        batch = layouts(slice(None))
        alone = [layouts(slice(b, b + 1))[0] for b in range(3)]
        assert batch[1] == alone[1] == "part 1: 2 points"
        for b in (0, 2):
            assert np.array_equal(bits(batch[b].data), bits(alone[b].data))
        assert not np.array_equal(batch[0].data, batch[2].data)

    @pytest.mark.parametrize("part_count", [2, 3])
    def test_batched_fit_matches_the_per_part_fit(self, part_count):
        """Values, reasons and gradients against fit_parts_one_by_one, in a
        batch of three scenes with starved and degenerate parts; the loss
        weighs the boxes of the parts that have a fit."""
        B, P, N = 3, part_count, 60
        rng = np.random.default_rng(20 + P)
        clouds = rng.normal(size=(B, N, 3)) * 0.2
        labels = rng.integers(0, P + 1, size=(B, N))
        nocs = rng.uniform(0.1, 0.9, size=(B, N, 3))
        rot = rng.normal(size=(B, P, 6))
        extents = rng.uniform(0.05, 0.3, size=(B, P, 3))
        labels[1, np.flatnonzero(labels[1] == 1)[2:]] = HAND_LABEL  # scene 1 part 0: 2 points
        rot[1, P - 1, :3] = 0.0  # scene 1, last part: first column zero
        rot[2, 0, 3:] = 2.0 * rot[2, 0, :3]  # scene 2 part 0: parallel columns
        nocs[2, labels[2] == P] = 0.5  # scene 2, last part: identical NOCS
        weights = rng.normal(size=(B, P, 8, 3))

        tape = ad.Tape()
        nocs_v, rot_v = ad.leaf(nocs.reshape(B * N, 3), tape), ad.leaf(rot, tape)
        R, t, s, boxes, reasons = E.assemble_graph(tape, clouds, labels, nocs_v, rot_v, extents)
        valid = reasons == ""
        tape.backward(ad.vsum(ad.mul(boxes, ad.const(weights * valid[..., None, None], tape))))

        for b in range(B):
            tape_b = ad.Tape()
            nocs_b, rot_b = ad.leaf(nocs[b], tape_b), ad.leaf(rot[b], tape_b)
            fits = fit_parts_one_by_one(tape_b, clouds[b], labels[b], nocs_b, rot_b, extents[b])
            terms = []
            for p, (_, fit) in enumerate(fits):
                if isinstance(fit, str):
                    assert reasons[b, p] == fit
                    continue
                assert reasons[b, p] == ""
                for got, want in zip((R, t, s, boxes), fit):
                    assert np.allclose(got.data[b, p], want.data, rtol=0, atol=1e-10)
                terms.append(ad.vsum(ad.mul(fit[3], ad.const(weights[b, p], tape_b))))
            if terms:
                tape_b.backward(ad.vsum(ad.stack(terms)))
            for got, leaf in ((nocs_v.grad[b * N : (b + 1) * N], nocs_b), (rot_v.grad[b], rot_b)):
                want = np.zeros_like(got) if leaf.grad is None else leaf.grad
                assert np.allclose(got, want, rtol=1e-10, atol=1e-10)
        assert sorted(set(reasons[~valid])) == [
            "2 points",
            "columns near parallel or second column near zero",
            "first column near zero",
            "source points are (nearly) all identical",
        ]

    def test_part_without_fit_adds_exactly_zero(self):
        # scene 0 has a part with no members and one with a zero rotation;
        # only scene 1's boxes feed the loss
        rng = np.random.default_rng(5)
        B, P, N = 2, 3, 50
        labels = rng.integers(0, P, size=(B, N))  # no point labelled part 2
        rot = rng.normal(size=(B, P, 6))
        rot[0, 0] = 0.0
        labels[1, :3 * P] = np.repeat(np.arange(1, P + 1), 3)  # scene 1: every part fits
        tape = ad.Tape()
        nocs_v = ad.leaf(rng.uniform(size=(B * N, 3)), tape)
        rot_v = ad.leaf(rot, tape)
        R, t, s, boxes, reasons = E.assemble_graph(
            tape, rng.normal(size=(B, N, 3)), labels, nocs_v, rot_v, rng.uniform(0.1, 0.3, size=(B, P, 3))
        )
        assert reasons[0, 0] == "first column near zero" and reasons[0, 2] == "0 points"
        assert (reasons[1] == "").all()
        for v in (R, t, s, boxes):
            assert np.isfinite(v.data).all()
        layouts = E.scene_layouts(boxes, reasons)
        assert layouts[0] == "part 0: first column near zero"
        tape.backward(ad.vsum(ad.mul(layouts[1], layouts[1])))
        assert np.isfinite(nocs_v.grad).all() and np.isfinite(rot_v.grad).all()
        assert (nocs_v.grad[:N] == 0).all() and (rot_v.grad[0] == 0).all()
        assert (nocs_v.grad[N:] != 0).any() and (rot_v.grad[1] != 0).all()

    def test_records_do_not_grow_with_batch_or_part_count(self):
        records = set()
        for B, P in [(1, 2), (4, 2), (1, 3), (4, 3)]:
            rng = np.random.default_rng(B * 10 + P)
            N = 40
            labels = np.tile(np.arange(N) % (P + 1), (B, 1))
            tape = ad.Tape()
            E.assemble_graph(
                tape,
                rng.normal(size=(B, N, 3)),
                labels,
                ad.leaf(rng.uniform(size=(B * N, 3)), tape),
                ad.leaf(rng.normal(size=(B, P, 6)), tape),
                rng.uniform(0.1, 0.3, size=(B, P, 3)),
            )
            records.add(len(tape._ops))
        assert len(records) == 1

    def test_scale_consistency(self, scene):
        # with a fixed HeadOutput, fitting on k-scaled points scales (s, t)
        # by k and leaves R untouched
        pred = E.HeadOutput(
            seg_logits=np.eye(3)[scene.seg] * 20.0,
            nocs=scene.nocs.copy(),
            rot6d=E.gt_rot6d(scene.part_poses),
        )
        base = E.assemble_pose(scene.cloud, pred, scene.canonical_boxes)
        k = 2.5
        scaled = E.assemble_pose(k * scene.cloud, pred, scene.canonical_boxes)
        for b, s in zip(base, scaled):
            assert np.allclose(s.pose.R, b.pose.R, atol=1e-9)
            assert s.pose.s == pytest.approx(k * b.pose.s, rel=1e-9)
            assert np.allclose(s.pose.t, k * b.pose.t, atol=1e-9)

    def test_member_nocs_perturbation_gradient(self, scene):
        # finite difference of part 0's t w.r.t. one member's NOCS entry
        target = np.flatnonzero(scene.seg == 1)[0]  # first member of part 0
        extents = scene.half_extents()[None]
        rot = E.gt_rot6d(scene.part_poses)[None]
        store = f64_store(nn.ParamStore(), nocs=scene.nocs.astype(np.float64))

        def loss(tape):
            nocs = store.use("nocs", tape)
            _, t, _, _, _ = E.assemble_graph(tape, scene.cloud[None], scene.seg[None], nocs, ad.const(rot, tape), extents)
            return ad.vsum(ad.take(t, np.array([0]), axis=1))

        for analytic, fd in fd_pairs(loss, store, [("nocs", 3 * target + axis) for axis in range(3)], h=1e-6):
            assert rel_err(analytic, fd, floor=1e-8) < 1e-3


class TestTraining:
    def test_single_scene_overfit(self, scene, tmp_path):
        cfg = E.TrainConfig(epochs=60, batch_size=1, lr=3e-3, seed=1)
        E.train_estimator([scene], cfg, tmp_path)
        rows = list(csv.reader((tmp_path / "loss_log.csv").read_text().splitlines()))
        first, last = float(rows[1][1]), float(rows[-1][1])
        assert last < 0.3 * first

    def test_pose_only_config_logs_zero_prior_terms(self, scene, tmp_path):
        cfg = E.TrainConfig(epochs=3, batch_size=1, seed=2)
        E.train_estimator([scene], cfg, tmp_path)
        rows = list(csv.reader((tmp_path / "loss_log.csv").read_text().splitlines()))
        head = rows[0]
        for row in rows[1:]:
            rec = dict(zip(head, row))
            assert float(rec["L_adv"]) == 0.0
            assert float(rec["L_diff"]) == 0.0
            assert float(rec["L_D"]) == 0.0
            assert rec["adv_scenes"] == "0"

    def test_adv_terms_average_over_contributing_batches(self, scene, tmp_path, monkeypatch):
        fed = []  # g_adv_loss_graph values in call order; batch size 1, one scene each
        original = priors.g_adv_loss_graph

        def spy(disc, tape, fake_vars):
            out = original(disc, tape, fake_vars)
            fed.append(float(out.data))
            return out

        monkeypatch.setattr(priors, "g_adv_loss_graph", spy)
        cfg = E.TrainConfig(epochs=5, batch_size=1, lr=3e-3, lambda_adv=0.1, seed=2)
        E.train_estimator([scene, scene], cfg, tmp_path)
        rows = list(csv.DictReader((tmp_path / "loss_log.csv").read_text().splitlines()))
        counts = [int(row["adv_scenes"]) for row in rows]
        # epochs where neither, one and both of the two batches fed L_adv
        assert set(counts) == {0, 1, 2}
        assert sum(counts) == len(fed)
        values = iter(fed)
        for row, count in zip(rows, counts):
            epoch_values = [next(values) for _ in range(count)]
            expect = sum(epoch_values) / count if count else 0.0
            assert float(row["L_adv"]) == expect
            assert (float(row["L_D"]) > 0.0) == (count > 0)

    def test_descend_matches_the_hand_written_update(self, scene, tmp_path, monkeypatch):
        cfg = E.TrainConfig(
            epochs=3, batch_size=1, lr=3e-3, lambda_adv=0.1, lambda_diff=1.0,
            diffusion_points=64, diffusion_steps=10, seed=2,
        )
        a = E.train_estimator([scene, scene], cfg, tmp_path / "a")
        stores_per_call = []

        def by_hand(tape, loss, stores, lr):
            stores_per_call.append(len(stores))
            descend_by_hand(tape, loss, stores, lr)

        monkeypatch.setattr(nn, "descend", by_hand)
        b = E.train_estimator([scene, scene], cfg, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()
        log_a, log_b = (tmp_path / side / "loss_log.csv" for side in "ab")
        assert log_a.read_bytes() == log_b.read_bytes()
        # estimator + diffuser on every batch, the discriminator on each batch that fed L_adv
        adv_scenes = sum(int(row["adv_scenes"]) for row in csv.DictReader(log_a.read_text().splitlines()))
        assert adv_scenes > 0
        assert sorted(stores_per_call) == [1] * adv_scenes + [2] * 6

    def test_fixed_seed_bit_identical_checkpoint(self, scene, tmp_path):
        cfg = E.TrainConfig(epochs=4, batch_size=1, lambda_diff=1.0, seed=3)
        a = E.train_estimator([scene], cfg, tmp_path / "a")
        b = E.train_estimator([scene], cfg, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_checkpoint_records_the_one_architecture(self, scene, tmp_path):
        ckpt = E.train_estimator([scene], E.TrainConfig(epochs=1, seed=4), tmp_path)
        est, meta, _ = E.load_estimator(ckpt)
        assert {key: meta[key] for key in E.ARCHITECTURE} == {
            "local_widths": [3, 64, 128], "head_hidden": 128, "rot_hidden": 256, "center_input": True,
        }
        assert est.spec.feature_dim == meta["feature_dim"] == 256

    @pytest.mark.parametrize("key, value", [("head_hidden", 64), ("center_input", False), ("rot_hidden", None)])
    def test_other_architecture_rejected(self, scene, tmp_path, key, value):
        ckpt = E.train_estimator([scene], E.TrainConfig(epochs=1, seed=4), tmp_path)
        stores, meta = nn.load_checkpoint(ckpt)
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        nn.save_checkpoint(ckpt, stores, meta=meta)
        with pytest.raises(ValueError, match=f"checkpoint {key} is {value!r}"):
            E.load_estimator(ckpt)

    def test_checkpoint_records_the_scenes_category(self, scene, tmp_path):
        drawer = replace(scene, category="drawer")
        ckpt = E.train_estimator([drawer], E.TrainConfig(epochs=1, seed=4), tmp_path)
        meta = E.load_estimator(ckpt)[1]
        assert meta["category"] == meta["config"]["category"] == "drawer"

    def test_models_load_builds_every_trained_network(self, scene, tmp_path):
        cfg = E.TrainConfig(epochs=1, lambda_adv=0.1, lambda_diff=1.0, diffusion_steps=7, seed=4)
        ckpt = E.train_estimator([scene], cfg, tmp_path)
        stores, meta = nn.load_checkpoint(ckpt)
        assert sorted(meta) == sorted(
            ["category", "config", "diffusion_steps", "feature_dim", "n_points", "part_count", *E.ARCHITECTURE]
        )
        models = E.Models.load(ckpt)
        assert models.est.spec.part_count == models.disc.part_count == 2
        assert (models.diffuser.feature_dim, models.diffuser.schedule.T) == (256, 7)
        for net, group in ((models.est, "estimator"), (models.disc, "discriminator"), (models.diffuser, "diffuser")):
            assert net.store.names() == stores[group].names()

    def test_models_save_writes_the_groups_present(self, net, tmp_path):
        path = tmp_path / "est.ckpt"
        E.Models(net).save(path, category="laptop")
        stores, meta = nn.load_checkpoint(path)
        assert list(stores) == ["estimator"]
        assert meta == {"category": "laptop", "part_count": 2, "feature_dim": 256, **E.ARCHITECTURE}
        loaded = E.Models.load(path)
        assert (loaded.disc, loaded.diffuser) == (None, None)
        for name, value in net.store.params.items():
            assert np.array_equal(bits(loaded.est.store.params[name]), bits(value))

    def test_naming_the_scenes_category_keeps_the_bytes(self, scene, tmp_path):
        named = E.train_estimator([scene], E.TrainConfig(epochs=1, seed=4, category="laptop"), tmp_path / "a")
        default = E.train_estimator([scene], E.TrainConfig(epochs=1, seed=4), tmp_path / "b")
        assert named.read_bytes() == default.read_bytes()

    @pytest.mark.parametrize(
        "config_category, categories",
        [("drawer", ["laptop"]), ("", ["drawer", "laptop"]), ("laptop", ["drawer", "laptop"])],
    )
    def test_other_category_rejected_before_writing(self, scene, tmp_path, config_category, categories):
        scenes = [replace(scene, category=c) for c in categories]
        cfg = E.TrainConfig(epochs=1, seed=4, category=config_category)
        with pytest.raises(ValueError, match=f"^config category {config_category!r}, scene categories"):
            E.train_estimator(scenes, cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"epochs": -1}, "epochs must be >= 0"),
            ({"epochs": 2.5}, "epochs must be an integer"),
            ({"batch_size": 0}, "batch_size must be positive"),
            ({"batch_size": 8.0}, "batch_size must be an integer"),
            ({"batch_size": -2}, "batch_size must be positive"),
            ({"lr": -1.0}, "lr must be positive"),
            ({"lr": float("nan")}, "lr must be positive"),
            ({"lambda_diff": -1.0}, "lambda_diff must be >= 0"),
            ({"diffusion_points": 0, "lambda_diff": 1.0}, "diffusion_points must be positive"),
            ({"diffusion_steps": 0}, "diffusion_steps must be positive"),
            ({"lambda_adv": float("nan")}, "lambda_adv must be >= 0"),
            ({"lambda_adv": -0.1}, "lambda_adv must be >= 0"),
            ({"lr": "0.001"}, "lr must be a number"),
            ({"lr_schedule": [[5, 1e-3], [9, -1e-3]]}, r"lr_schedule entry \[9, -0.001\] is not \[start_epoch, lr > 0\]"),
            ({"lr_schedule": [5]}, r"lr_schedule entry 5 is not \[start_epoch, lr > 0\]"),
            ({"dataset": 5}, "dataset must be a string"),
            ({"category": None}, "category must be a string"),
            ({"checkpoint": 3}, "checkpoint must be a string"),
            ({"loss_log": ["log.csv"]}, "loss_log must be a string"),
            ({"seed": "a"}, "seed must be an integer"),
            ({"seed": 1.0}, "seed must be an integer"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"lr_schedule": 5}, "lr_schedule must be a list"),
            ({"lr_schedule": None}, "lr_schedule must be a list"),
        ],
    )
    def test_invalid_setting_rejected(self, setting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            E.TrainConfig(**setting)

    def test_boundary_settings_accepted(self):
        cfg = E.TrainConfig(
            epochs=np.int64(0), lambda_adv=0, lambda_diff=0.0, lr_schedule=[(3, 1e-4)]
        )
        assert cfg.lr_at(3) == 1e-4

    @pytest.mark.parametrize("text", ["[1, 2]", '"epochs"', "3", "null"])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="^config must be a JSON object$"):
            E.TrainConfig.from_json(path)

    @pytest.mark.parametrize("key", ["d_lr", "lambda_seg", "lambda_rot", "lambda_nocs"])
    def test_fixed_loss_settings_are_unknown_keys(self, tmp_path, key):
        # estimator.D_LR and the LAMBDA_* weights are constants
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epochs": 3, key: 1.0}))
        with pytest.raises(ValueError, match=re.escape(f"unknown config keys: {[key]}")):
            E.TrainConfig.from_json(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"epochs": 3, "warp_drive": true}')
        with pytest.raises(ValueError):
            E.TrainConfig.from_json(path)
