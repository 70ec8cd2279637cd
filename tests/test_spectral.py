import math

import numpy as np
import pytest

import torusfp as tf
from torusfp.errors import PreconditionError, ValidationError
from torusfp.spectral import (
    FFT_AXIS_POINTS,
    derivative_axis_matrix,
    first_derivative_error_bound,
    second_derivative_error_bound,
)

from conftest import random_band_field
from oracles import derivative_matrix, divergence, gradient, operator_norm, sup_norm_bound


def test_kernel_closed_form():
    k = tf.derivative_kernel(1, 2 * np.pi)
    assert k[0] == 0.0
    np.testing.assert_allclose(k[1], 1 / np.sqrt(3), rtol=1e-15)  # pi/(2 pi sin(pi/3))

    k2 = tf.derivative_kernel(2, 2 * np.pi)
    np.testing.assert_allclose(k2[1], 1 / (2 * np.sin(np.pi / 5)), rtol=1e-15)
    np.testing.assert_allclose(k2[1], 0.85065080835204, rtol=1e-12)

    for N in (1, 2, 5):
        kk = tf.derivative_kernel(N, 1.7)
        for m in range(1, N + 1):
            assert kk[-m] == -kk[m]


def test_kernel_and_multiplier_paths_agree(rng):
    # axes on both sides of FFT_AXIS_POINTS, real and complex fields: the
    # first derivative against the closed-form kernel, orders 1-3 against
    # the FFT of the identity
    for N in (4, 9, FFT_AXIS_POINTS // 2 - 1, FFT_AXIS_POINTS // 2, 600):
        lat = tf.make_lattice(1, N, 1.3)
        real = rng.standard_normal(lat.shape)
        for vals in (real, real + 1j * rng.standard_normal(lat.shape)):
            fld = tf.GridField(lat, vals, is_real=np.isrealobj(vals))
            a = tf.fourier_derivative(fld, 0)
            b = tf.kernel_derivative(fld, 0)
            assert a.is_real == fld.is_real and np.iscomplexobj(a.values) == np.iscomplexobj(vals)
            assert np.abs(a.values - b.values).max() <= 1e-10 * max(1, np.abs(a.values).max())
            for order in (1, 2, 3):
                ref = fft_of_identity_axis_matrix(lat, order) @ vals
                got = tf.fourier_derivative(fld, 0, order).values
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_constant_derivative_is_zero():
    lat = tf.make_lattice(2, 4, 1.0)
    c = tf.GridField(lat, np.full(lat.shape, 3.0), is_real=True)
    for ax in range(2):
        assert np.abs(tf.fourier_derivative(c, ax).values).max() <= 1e-12


def test_band_limited_exactness():
    # sin(2 pi x / l) differentiates to (2 pi / l) cos exactly
    l = 1.0
    for N in (1, 3, 8):
        lat = tf.make_lattice(1, N, l)
        s = tf.discretize(lambda p: np.sin(2 * np.pi * p[..., 0] / l), lat)
        ds = tf.fourier_derivative(s, 0)
        exact = (2 * np.pi / l) * np.cos(2 * np.pi * lat.points()[:, 0] / l)
        assert np.abs(ds.flat - exact).max() <= 1e-10


def test_axis_and_order_validation():
    lat = tf.make_lattice(1, 4, 1.0)
    fld = tf.constant_field(lat)
    with pytest.raises(ValidationError):
        tf.fourier_derivative(fld, 1)
    with pytest.raises(ValidationError):
        tf.fourier_derivative(fld, 0, order=0)


def test_laplacian_eigenfunctions():
    lat = tf.make_lattice(1, 5, 2 * np.pi)
    for k in (1, 2, 5):
        u = tf.discretize(lambda p, k=k: np.cos(k * p[..., 0]), lat)
        lap = tf.laplacian(u)
        np.testing.assert_allclose(lap.values, -k**2 * u.values, atol=1e-10 * k**2)


def test_divergence_of_gradient_is_laplacian(rng):
    lat = tf.make_lattice(2, 5, 1.0)
    u = tf.GridField(lat, rng.standard_normal(lat.shape), is_real=True)
    lhs = divergence(gradient(u))
    rhs = tf.laplacian(u)
    scale = max(1.0, np.abs(rhs.values).max())
    assert np.abs(lhs.values - rhs.values).max() <= 1e-10 * scale
    with pytest.raises(ValidationError):
        divergence([u])


def test_product_rule_on_truncated_fields(rng):
    # exact when the two bands sum to at most N; random full-band products alias
    for d, N in [(1, 8), (2, 6)]:
        lat = tf.make_lattice(d, N, 1.0)
        u = random_band_field(lat, N // 2, rng)
        v = random_band_field(lat, N - N // 2, rng)
        uv = tf.GridField(lat, u.values * v.values, is_real=True)
        for ax in range(d):
            lhs = tf.fourier_derivative(uv, ax).values
            rhs = tf.fourier_derivative(u, ax).values * v.values + u.values * tf.fourier_derivative(v, ax).values
            assert np.linalg.norm((lhs - rhs).ravel()) <= 1e-9 * np.linalg.norm(rhs.ravel())


def test_sup_norm_bound(rng):
    for N in (4, 8, 16):
        lat = tf.make_lattice(1, N, 1.0)
        for _ in range(20):
            u = tf.GridField(lat, rng.standard_normal(lat.shape), is_real=True)
            du = tf.fourier_derivative(u, 0)
            assert np.abs(du.values).max() <= sup_norm_bound(N, 1.0) * np.abs(u.values).max()


def test_zero_column_sums(rng):
    lat = tf.make_lattice(2, 6, 1.0)
    for _ in range(20):
        u = tf.GridField(lat, rng.standard_normal(lat.shape), is_real=True)
        for ax in range(2):
            assert abs(tf.fourier_derivative(u, ax).flat.sum()) <= 1e-10 * u.norm()


def test_matrix_symmetry():
    lat = tf.make_lattice(1, 6, 1.0)
    D1 = derivative_axis_matrix(lat, 1)
    D2 = derivative_axis_matrix(lat, 2)
    assert np.abs(D1 + D1.T).max() <= 1e-10 * np.abs(D1).max()
    assert np.abs(D2 - D2.T).max() <= 1e-10 * np.abs(D2).max()
    # multi-axis embedding stays consistent
    lat2 = tf.make_lattice(2, 3, 1.0)
    K = derivative_matrix(lat2, 1)
    assert np.abs(K + K.T).max() <= 1e-10 * np.abs(K).max()


def fft_of_identity_axis_matrix(lattice, order):
    """Reference axis matrix: column c is the FFT derivative of the c-th
    shifted unit vector, one complex transform pair per column."""
    n = lattice.points_per_axis
    mult = (2j * np.pi * np.fft.fftfreq(n, d=1.0 / n) / lattice.l) ** order
    rolled = np.roll(np.eye(n, dtype=complex), -lattice.N, axis=0)
    spec = np.fft.fft(rolled, axis=0) * mult[:, None]
    return np.roll(np.fft.ifft(spec, axis=0), lattice.N, axis=0).real


@pytest.mark.parametrize("N", [1, 3, 25, 1023])
def test_circulant_axis_matrix_matches_references(N):
    lat = tf.make_lattice(1, N, 1.0)
    for order in (1, 2):
        D = derivative_axis_matrix(lat, order)
        ref = fft_of_identity_axis_matrix(lat, order)
        assert np.abs(D - ref).max() <= 1e-14 * np.abs(ref).max()
    # the closed-form kernel applied to a unit vector gives its column
    n = lat.points_per_axis
    D1 = derivative_axis_matrix(lat, 1)
    for c in sorted({0, 1, N, n - 1}):
        unit = np.zeros(n)
        unit[c] = 1.0
        column = tf.kernel_derivative(tf.GridField(lat, unit, is_real=True), 0).values
        assert np.abs(D1[:, c] - column).max() <= 1e-14 * np.abs(D1).max()


def test_composability(rng):
    lat = tf.make_lattice(1, 7, 1.0)
    u = tf.GridField(lat, rng.standard_normal(lat.shape), is_real=True)
    twice = tf.fourier_derivative(tf.fourier_derivative(u, 0), 0)
    once = tf.fourier_derivative(u, 0, order=2)
    assert np.linalg.norm(twice.flat - once.flat) <= 1e-9 * np.linalg.norm(once.flat)
    thrice = tf.fourier_derivative(twice, 0)
    order3 = tf.fourier_derivative(u, 0, order=3)
    assert np.linalg.norm(thrice.flat - order3.flat) <= 1e-9 * np.linalg.norm(order3.flat)


def operator_norm_power_iteration(lattice, iters):
    """Measure the axis-derivative norm by power iteration on -D^2."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(lattice.shape)
    v /= np.linalg.norm(v)
    fld = tf.GridField(lattice, v, is_real=True)
    lam = 0.0
    for _ in range(iters):
        w = -tf.fourier_derivative(tf.fourier_derivative(fld, 0), 0).values
        lam = float(np.vdot(fld.values, w).real)
        fld = tf.GridField(lattice, w / np.linalg.norm(w), is_real=True)
    return math.sqrt(abs(lam))


def test_operator_norm_power_iteration():
    for N, l in [(4, 1.0), (16, 2 * np.pi)]:
        lat = tf.make_lattice(1, N, l)
        measured = operator_norm_power_iteration(lat, iters=600)
        assert abs(measured - operator_norm(lat)) <= 1e-6 * operator_norm(lat)


def test_derivative_error_report_band_limited():
    # max frequency <= N: measured error is round-off, envelope trivially wide
    l = 1.0
    lat = tf.make_lattice(1, 8, l)
    w = 2 * np.pi / l

    def u(p):
        return np.cos(w * p[..., 0])

    def gu(p):
        return (-w * np.sin(w * p[..., 0]))[..., None]

    def lu(p):
        return -(w**2) * np.cos(w * p[..., 0])

    params = tf.SemiAnalyticityParams(C=1 / math.sqrt(2), a=1.0)  # top shell k0 = 1
    rep = tf.derivative_error_report(u, gu, lu, lat, params)
    assert rep.measured_first <= 1e-9
    assert rep.measured_second <= 1e-9
    assert rep.first_ok and rep.second_ok


def test_derivative_error_report_expcos_sweep():
    u, gu, lu, C, a, _ = tf.expcos_family(2.0, l=1.0)
    params = tf.SemiAnalyticityParams(C, a)
    measured = []
    for N in (8, 12, 16, 24, 32, 48, 64):
        lat = tf.make_lattice(1, N, 1.0)
        rep = tf.derivative_error_report(u, gu, lu, lat, params)
        assert rep.first_ok and rep.second_ok, f"envelope violated at N={N}"
        measured.append((N, rep.measured_first))
    # log error vs N decreases at least as fast as the envelope exponent
    pts = [(N, math.log(m)) for N, m in measured if m > 1e-11]
    slope = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0]
    assert slope <= -0.4 / a


def test_derivative_error_report_precondition():
    u, gu, lu, C, a, _ = tf.expcos_family(2.0, l=1.0)
    with pytest.raises(PreconditionError):
        tf.derivative_error_report(u, gu, lu, tf.make_lattice(1, 3, 1.0), tf.SemiAnalyticityParams(C, a))


def test_error_bound_formulas():
    # direct evaluation of the stated envelopes
    b1 = first_derivative_error_bound(N=8, d=1, l=1.0, C=1.0, a=1.0)
    expected1 = 40 * math.sqrt(2) * math.pi * math.e**3 * 17**0.5 * math.exp(-4.0)
    np.testing.assert_allclose(b1, expected1, rtol=1e-12)
    b2 = second_derivative_error_bound(N=8, d=1, l=1.0, C=1.0, a=1.0)
    expected2 = 200 * math.sqrt(2) * math.pi**2 * math.e**3 * 17**0.5 * math.exp(-3.2)
    np.testing.assert_allclose(b2, expected2, rtol=1e-12)
