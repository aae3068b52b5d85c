import math

import numpy as np
import pytest

from bernwave import daubechies as daub
from bernwave.daubechies import (
    MASK_ORDER_LIMIT,
    daub_mask,
    daub_phi_hat_complex,
    daub_phi_hat_magnitude,
    daub_psi_hat_complex,
    daub_psi_hat_magnitude,
    daub_symbol_squared,
    _log_phi_hat,
    _log_symbol_squared,
    _mask_transform,
    _product_depth,
)

SQRT3 = math.sqrt(3.0)


def test_haar_mask():
    np.testing.assert_allclose(daub_mask(1), [0.5, 0.5], atol=1e-15)


def test_order_two_mask_closed_form():
    expected = [(1 + SQRT3) / 8, (3 + SQRT3) / 8, (3 - SQRT3) / 8, (1 - SQRT3) / 8]
    np.testing.assert_allclose(daub_mask(2), expected, atol=1e-13)


def test_mask_normalization_and_length():
    for m in range(1, MASK_ORDER_LIMIT + 1):
        h = np.asarray(daub_mask(m), dtype=float)
        assert h.size == 2 * m
        # spectral-factor roots of the high orders carry a few ulps each
        assert abs(h.sum() - 1.0) < 1e-10


def test_mask_order_limit():
    with pytest.raises(ValueError):
        daub_mask(MASK_ORDER_LIMIT + 1)


def test_double_shift_orthogonality():
    # sum_n h_n h_{n+2l} = delta_{l0} / 2 under the sum(h) = 1 normalization
    for m in (1, 2, 4, 8):
        h = np.asarray(daub_mask(m), dtype=float)
        for l in range(m):
            s = float(np.dot(h[: h.size - 2 * l], h[2 * l:]))
            assert abs(s - (0.5 if l == 0 else 0.0)) < 1e-12


def test_symbol_squared_matches_mask_transform():
    w = np.linspace(-7.0, 7.0, 101)
    for m in (1, 3, 7, 12):
        np.testing.assert_allclose(
            daub_symbol_squared(m, w),
            np.abs(_mask_transform(m, w)) ** 2,
            atol=1e-11,
        )


def test_symbol_endpoint_values():
    for m in (1, 2, 5, 10):
        assert daub_symbol_squared(m, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert daub_symbol_squared(m, math.pi) == pytest.approx(0.0, abs=1e-14)


def test_qmf_identity():
    w = np.linspace(0.0, 2.0 * math.pi, 257)
    for m in (1, 2, 6, 11, 15):
        s = daub_symbol_squared(m, w) + daub_symbol_squared(m, w + math.pi)
        np.testing.assert_allclose(s, 1.0, atol=1e-10)


def test_phi_hat_at_zero():
    for m in (1, 3, 9):
        assert daub_phi_hat_magnitude(m, 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-13
        )


def test_haar_phi_hat_closed_form():
    # |phihat| of the box: (2 pi)^{-1/2} |sinc(w/2)|
    w = np.linspace(0.1, 40.0, 73)
    expected = np.abs(np.sin(w / 2.0) / (w / 2.0)) / math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(daub_phi_hat_magnitude(1, w), expected, rtol=1e-11)


def test_psi_hat_two_scale_relation():
    # |psihat(2w)| = |m(w + pi)| |phihat(w)|
    w = np.linspace(0.1, 3.0, 41)
    for m in (2, 4, 6):
        lhs = daub_psi_hat_magnitude(m, 2.0 * w)
        rhs = np.sqrt(daub_symbol_squared(m, w + math.pi)) * daub_phi_hat_magnitude(m, w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_psi_hat_complex_magnitude_consistent():
    w = np.linspace(0.2, 20.0, 37)
    for m in (2, 5):
        np.testing.assert_allclose(
            np.abs(daub_psi_hat_complex(m, w)),
            daub_psi_hat_magnitude(m, w),
            rtol=1e-10,
        )


def test_psi_hat_vanishes_at_zero():
    for m in (1, 4, 8):
        assert daub_psi_hat_magnitude(m, 0.0) == pytest.approx(0.0, abs=1e-13)


# ---------------------------------------------------------------------------
# fast kernels against their level-by-level definitions
# ---------------------------------------------------------------------------


def _kernel_nodes():
    rng = np.random.default_rng(7)
    return np.concatenate([
        [0.0, 1e-8, -1e-8, math.pi, math.pi * 2.0 ** 13],
        2.0 * math.pi * np.arange(1, 65),  # the zeros of phihat, as floats
        -2.0 * math.pi * np.arange(1, 9),
        rng.uniform(0.0, math.pi * 2.0 ** 13, 4000),
    ])


@pytest.mark.parametrize("m", range(1, 21))
def test_log_phi_hat_equals_level_sum(m):
    w = _kernel_nodes()
    tol = 1e-10
    depth = _product_depth(m, float(np.max(np.abs(w))), tol)
    ref = 0.5 * sum(_log_symbol_squared(m, w / 2.0 ** l) for l in range(1, depth + 1))
    got = _log_phi_hat(m, w, tol)
    # no floating-point node is an exact zero of the product: both finite
    assert np.isfinite(ref).all() and np.isfinite(got).all()
    # a log difference is a relative error of |phihat|; deep in the far
    # field the logs are large, and the bound is relative to them
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_log_phi_hat_partial_products_stay_finite():
    # P(1) = C(2m-1, m) grows like 4^m: high orders flush the running
    # product more often than every 8 levels instead of overflowing.  At
    # w = (2 pi / 3) 2^j every level l <= j has sin^2 = 3/4, and at m = 100
    # eight factors P(3/4) ~ 1e46 each would overflow
    w = np.concatenate([np.linspace(0.0, math.pi * 2.0 ** 10, 2001),
                        (2.0 * math.pi / 3.0) * 2.0 ** np.arange(1, 21)])
    for m in (40, 100):
        depth = _product_depth(m, float(w[-1]), 1e-10)
        ref = 0.5 * sum(_log_symbol_squared(m, w / 2.0 ** l) for l in range(1, depth + 1))
        got = _log_phi_hat(m, w, 1e-10)
        assert np.isfinite(got).all()
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_log_phi_hat_blocks_match_one_pass(monkeypatch):
    # every block runs at the depth of the largest node of the whole input,
    # so the blocked result is the one-block result to the last bit
    w = np.random.default_rng(5).uniform(0.0, math.pi * 2.0 ** 13, 64 * 5 + 17)
    for m in (1, 6, 20):
        whole = _log_phi_hat(m, w, 1e-8)
        grid = _log_phi_hat(m, w[:-17].reshape(20, 16), 1e-8)
        monkeypatch.setattr(daub, "_PHI_BLOCK", 64)
        assert np.array_equal(_log_phi_hat(m, w, 1e-8), whole)
        assert np.array_equal(_log_phi_hat(m, w[:-17].reshape(20, 16), 1e-8), grid)
        monkeypatch.undo()


@pytest.mark.parametrize("m", range(1, MASK_ORDER_LIMIT + 1))
def test_mask_transform_equals_explicit_sum(m):
    # |w| <= 64 keeps the explicit sum's own products n * w exact to ~1e-14
    w = np.concatenate([np.linspace(-64.0, 64.0, 1001), [0.0, math.pi, -math.pi]])
    h = np.asarray(daub_mask(m))
    explicit = sum(hn * np.exp(-1j * n * w) for n, hn in enumerate(h))
    np.testing.assert_allclose(_mask_transform(m, w), explicit, rtol=0.0, atol=1e-13)


def test_phi_hat_complex_equals_sequential_product(monkeypatch):
    depth = 48
    # a small block forces several chunks, the last one partial
    monkeypatch.setattr(daub, "_COMPLEX_CHUNK", depth * 64)
    w = np.random.default_rng(3).uniform(-400.0, 400.0, 64 * 5 + 17)
    for m in (1, 4, 13):
        seq = np.ones(w.size, dtype=complex)
        for l in range(1, depth + 1):
            seq *= _mask_transform(m, w / 2.0 ** l)
        seq /= math.sqrt(2.0 * math.pi)
        np.testing.assert_allclose(daub_phi_hat_complex(m, w, depth=depth), seq,
                                   rtol=0.0, atol=1e-14)
    assert isinstance(daub_phi_hat_complex(2, 1.5), complex)


def _psi_magnitude_mpmath(m, w):
    # |a(w/2 + pi)| prod_{l >= 1} |a(w/2^{l+1})| / sqrt(2 pi) at 40 digits,
    # with |a(x)|^2 = cos^{2m}(x/2) P(sin^2(x/2)) and |a(x + pi)|^2 =
    # sin^{2m}(x/2) P(cos^2(x/2)); the product's factors reach 1 like
    # (w 2^-l)^{2m}, so 200 levels are far more than enough
    import mpmath

    with mpmath.workdps(40):
        P = lambda y: sum(math.comb(m - 1 + v, v) * y ** v for v in range(m))
        x = mpmath.mpf(w) / 2
        log_sq = 2 * m * mpmath.log(mpmath.sin(x / 2)) + mpmath.log(P(mpmath.cos(x / 2) ** 2))
        for l in range(1, 200):
            t = mpmath.mpf(w) / 2 ** (l + 1)
            log_sq += 2 * m * mpmath.log(mpmath.cos(t / 2)) + mpmath.log(P(mpmath.sin(t / 2) ** 2))
        return float(mpmath.exp(log_sq / 2) / mpmath.sqrt(2 * mpmath.pi))


@pytest.mark.parametrize("m", [2, 4, 8])
def test_psi_magnitude_keeps_its_zero_accurate(m):
    # the order-m zero at w = 0 is taken out exactly, so small |w| keep
    # the default 1e-12 certificate
    w = np.array([1e-2, 1e-4, 1e-6, 1e-8])
    got = daub_psi_hat_magnitude(m, w)
    want = np.array([_psi_magnitude_mpmath(m, x) for x in w])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(daub_psi_hat_magnitude(m, -w), want, rtol=1e-12, atol=0.0)
