"""gradcheck catches wrong gradients: every suite fails when one backward is
skewed by 1 %, while its finite differences stay exact."""

import numpy as np
import pytest

from artipose import autodiff as ad
from artipose import gradcheck
from artipose.priors import Discriminator

NETWORK_SUITES = [s for s in gradcheck.ALL_SUITES if s is not gradcheck.check_hand_chamfer]


@pytest.mark.parametrize("suite", NETWORK_SUITES, ids=lambda s: s.__name__)
def test_skewed_parameter_gradient_fails(suite, monkeypatch):
    add_grad = ad.Var._add_grad

    def skewed(self, g):
        # 2-D parameters (the weight matrices) get 1.01 times their gradient
        if self.data.ndim == 2 and any(v is self for _, _, v, _ in self.tape.param_uses):
            g = g * 1.01
        add_grad(self, g)

    monkeypatch.setattr(ad.Var, "_add_grad", skewed)
    result = suite()
    assert not result.passed, result.line()
    assert result.line().startswith("[FAIL]")


def test_skewed_sin_gradient_fails_hand_suite(monkeypatch):
    def skewed_sin(a):
        return ad._unary(a, np.sin(a.data), lambda g: 1.01 * g * np.cos(a.data))

    monkeypatch.setattr(ad, "sin", skewed_sin)
    result = gradcheck.check_hand_chamfer()
    assert not result.passed, result.line()
    assert result.line().startswith("[FAIL]")


@pytest.mark.parametrize("suite", gradcheck.ALL_SUITES, ids=lambda s: s.__name__)
def test_suite_reports_its_margin(suite):
    result = suite()
    assert 0.0 < result.max_rel_err < gradcheck.TOL, result.line()


@pytest.mark.parametrize(
    "suite, paths",
    [
        (gradcheck.check_heads, {"shift", "stacked"}),
        (gradcheck.check_end_to_end, {"shift", "stacked", "fit batch"}),
        (gradcheck.check_discriminator, {"batch"}),
    ],
    ids=lambda v: getattr(v, "__name__", ""),
)
def test_network_suites_check_the_factored_and_batched_paths(suite, paths, monkeypatch):
    """The suites probe the per-scene shift of the seg and NOCS first
    layers, the stacked part soft-pool product, the pose fit of a batch of
    B >= 2 scenes with P >= 2 parts, and the batched D."""
    seen = set()
    linear, matmul, score_graph = ad.linear, ad.matmul, Discriminator.score_graph
    assemble_graph = gradcheck.assemble_graph

    def spy_linear(x, w, b, relu, shift=None):
        if shift is not None:
            seen.add("shift")
        return linear(x, w, b, relu, shift=shift)

    def spy_matmul(a, b):
        if a.data.ndim == 3:
            seen.add("stacked")
        return matmul(a, b)

    def spy_score_graph(self, layouts):
        if layouts.data.shape[0] > 1:
            seen.add("batch")
        return score_graph(self, layouts)

    def spy_assemble_graph(tape, clouds, labels, nocs, rot, half_extents):
        if min(half_extents.shape[:2]) >= 2:
            seen.add("fit batch")
        return assemble_graph(tape, clouds, labels, nocs, rot, half_extents)

    monkeypatch.setattr(gradcheck, "assemble_graph", spy_assemble_graph)
    monkeypatch.setattr(ad, "linear", spy_linear)
    monkeypatch.setattr(ad, "matmul", spy_matmul)
    monkeypatch.setattr(Discriminator, "score_graph", spy_score_graph)
    result = suite()
    assert result.passed, result.line()
    assert seen == paths
