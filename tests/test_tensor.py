import math

import pytest

from bernwave.constants import favard, predict_limit
from bernwave.norms import ckp
from bernwave.tensor import tensor_ckp, tensor_limit, tensor_lower_bound


def test_lower_bound_closed_form():
    # kind 1 at m = 2, k1 = k2 = 1: 2^{-1} pi^{-2} K_7 / K_5
    expected = 0.5 * math.pi ** -2 * favard(7) / favard(5)
    assert tensor_lower_bound(2, 1, 1, 1) == pytest.approx(expected, rel=1e-14)
    assert tensor_lower_bound(2, 1, 1, 1) == pytest.approx(0.05059523809523808, rel=1e-12)


def test_lower_bound_factorizes():
    for kind in (1, 2, 3):
        for m, k1, k2 in ((2, 1, 2), (5, 0, 3), (4, 2, 0)):
            prod = (
                tensor_lower_bound(m, k1, 0, kind)
                * tensor_lower_bound(m, 0, k2, kind)
                / tensor_lower_bound(m, 0, 0, kind)
            )
            assert tensor_lower_bound(m, k1, k2, kind) == pytest.approx(prod, rel=1e-13)


def test_lower_bound_kind_ratios():
    for m, k1, k2 in ((2, 1, 1), (5, 2, 1), (3, 1, 2)):
        b3 = tensor_lower_bound(m, k1, k2, 3)
        assert tensor_lower_bound(m, k1, k2, 1) / b3 == pytest.approx(2.0 ** k2, rel=1e-13)
        assert tensor_lower_bound(m, k1, k2, 2) / b3 == pytest.approx(2.0 ** k1, rel=1e-13)


def test_lower_bound_validation():
    with pytest.raises(ValueError):
        tensor_lower_bound(2, 1, 1, 4)
    with pytest.raises(ValueError):
        tensor_lower_bound(2, -1, 0, 1)


def test_tensor_ckp_spline_diagonal():
    r = tensor_ckp("spline", 3, 4, 1, 1, 2.0)
    assert r.value == pytest.approx(0.04176653148511277, rel=1e-8)
    a = ckp("spline", "psi", 4, 1, 2.0)
    assert r.value == pytest.approx(a.ratio ** 2, rel=1e-9)
    assert r.axis1.part == "psi" and r.axis2.part == "psi"
    assert r.certified_rel_error <= 2.0 * a.certified_rel_error * 1.01 + 1e-15
    assert r.value > tensor_lower_bound(4, 1, 1, 3)


def test_tensor_ckp_axis_parts():
    r1 = tensor_ckp("spline", 1, 3, 1, 2, 2.0, tol=1e-6)
    assert (r1.axis1.part, r1.axis2.part) == ("psi", "phi")
    assert (r1.axis1.k, r1.axis2.k) == (1, 2)
    r2 = tensor_ckp("spline", 2, 3, 2, 1, 2.0, tol=1e-6)
    assert (r2.axis1.part, r2.axis2.part) == ("phi", "psi")
    # kind 2 mirrors kind 1 with the axes swapped
    assert r2.value == pytest.approx(r1.value, rel=1e-7)


def test_tensor_ckp_orthonormal_mixed_requires_zero_phi_weight():
    with pytest.raises(ValueError):
        tensor_ckp("daubechies", 1, 6, 1, 1, 2.0)
    with pytest.raises(ValueError):
        tensor_ckp("daubechies", 2, 6, 1, 1, 2.0)
    r = tensor_ckp("daubechies", 1, 6, 1, 0, 2.0, tol=1e-6)
    assert r.axis2.ratio == 1.0
    assert r.value == pytest.approx(ckp("daubechies", "psi", 6, 1, 2.0, tol=1e-6).ratio, rel=1e-6)


def test_tensor_ckp_validation():
    with pytest.raises(ValueError):
        tensor_ckp("spline", 4, 3, 1, 1, 2.0)
    with pytest.raises(ValueError):
        tensor_ckp("spline", 3, 3, 1, -2, 2.0)


@pytest.mark.parametrize("family, kind, m, k1, k2, p, match", [
    # the phi axis comes second, and its weight |w|^2 diverges for m = 2
    ("spline", 1, 2, 1, 2, 1.5, "convergent"),
    # the psi axis comes second, and its weight |w|^-3 exceeds m = 2 vanishing moments
    ("daubechies", 2, 2, 0, 3, 3.0, "absorbs"),
])
def test_tensor_ckp_refuses_second_axis_before_any_norm(monkeypatch, family, kind, m, k1, k2, p, match):
    from bernwave import norms

    calls = []
    norm = norms._norm
    monkeypatch.setattr(norms, "_norm", lambda q: calls.append(q) or norm(q))
    with pytest.raises(ValueError, match=match):
        tensor_ckp(family, kind, m, k1, k2, p, tol=1e-4)
    assert calls == []
    # the first axis alone computes: the refusal comes from the second
    ckp(family, "psi" if kind == 1 else "phi", m, k1, p, tol=1e-4)
    assert calls


def test_tensor_limit_values():
    assert tensor_limit("spline", 3, 1, 1) == pytest.approx(0.03782321330110494, rel=1e-12)
    assert tensor_limit("spline", 3, 1, 1) == pytest.approx(
        predict_limit("splinePsiK", k=1) ** 2, rel=1e-14
    )
    assert tensor_limit("spline", 1, 1, 0) == pytest.approx(
        predict_limit("splinePsiK", k=1), rel=1e-14
    )
    # orthonormal diagonal kind at p = 2: (pi^{-1} sqrt(1 - 2^{-1}))^2 = pi^{-2}/2
    assert tensor_limit("daubechies", 3, 1, 1, p=2.0) == pytest.approx(
        0.5 * math.pi ** -2, rel=1e-13
    )


def test_tensor_limit_orthonormal_mixed_restriction():
    with pytest.raises(ValueError):
        tensor_limit("daubechies", 2, 1, 1, p=2.0)
    assert tensor_limit("daubechies", 2, 0, 1, p=2.0) == pytest.approx(
        predict_limit("daubPsiK", k=1, p=2.0), rel=1e-13
    )
