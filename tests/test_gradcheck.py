"""gradcheck catches wrong gradients: every suite fails when one backward is
skewed by 1 %, while its finite differences stay exact."""

import numpy as np
import pytest

from artipose import autodiff as ad
from artipose import gradcheck

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
    assert 0.0 < result.max_rel_err < gradcheck.DEFAULT_TOL, result.line()
