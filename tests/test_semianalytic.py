import math

import numpy as np
import pytest

import torusfp as tf
from torusfp.errors import PreconditionError, ValidationError
from torusfp.semianalytic import TruncatedSpectrum, _two_branch_tail, profile_to_csv, spectrum_of_series

from oracles import certificate_holds, fourier_norm_moment, paley_zygmund_floor


def test_semi_norms_constant():
    lat = tf.make_lattice(1, 4, 1.0)
    spec = tf.dft(tf.GridField(lat, np.full(lat.shape, 2.0), is_real=True))
    prof = tf.semi_norms(spec, 5)
    np.testing.assert_allclose(prof[0], 2.0, atol=1e-12)
    for m in range(1, 6):
        assert prof[m] <= 1e-12


def test_semi_norms_cosine():
    # u_hat[+-1] = 1/2, so |u|_m = 1/sqrt(2) for every m
    lat = tf.make_lattice(1, 6, 1.0)
    fld = tf.discretize(lambda p: np.cos(2 * np.pi * p[..., 0]), lat)
    prof = tf.semi_norms(tf.dft(fld), 8)
    np.testing.assert_allclose(prof.semi_norms, 1 / math.sqrt(2), rtol=1e-12)


def test_semi_norms_truncation_flag():
    # spectrum with mass at the boundary shell is flagged at higher m
    lat = tf.make_lattice(1, 3, 1.0)
    fld = tf.discretize(lambda p: np.cos(2 * np.pi * 3 * p[..., 0]), lat)
    prof = tf.semi_norms(tf.dft(fld), 4)
    assert prof.truncation_flags[1]
    with pytest.raises(ValidationError):
        tf.semi_norms("nope", 4)


def test_fit_params_constant_and_validation():
    lat = tf.make_lattice(1, 4, 1.0)
    prof = tf.semi_norms(tf.dft(tf.GridField(lat, np.full(lat.shape, 3.0), is_real=True)), 5)
    fit = tf.fit_params(prof)
    assert fit.a == 0.0
    assert fit.C == pytest.approx(3.0)
    with pytest.raises(ValidationError):
        tf.fit_params(tf.FourierMomentProfile(np.array([1.0, 1.0])))


def test_profiles_past_the_float64_range_are_refused():
    # ||k||^(2m) leaves float64 at N = 16 from m = 128.  At N = 2 the
    # semi-norms stay finite, and the bounds C a^m m! (a = 0.629), taken in
    # logs, fit up to m_max = 187 (5.4e307) though m! leaves float64 at 171
    lat = tf.make_lattice(1, 16, 1.0)
    spec = tf.dft(tf.discretize(lambda p: np.exp(np.cos(2 * np.pi * p[..., 0])), lat))
    with pytest.raises(ValidationError, match="m_max = 150 leave float64 at N = 16"):
        tf.semi_norms(spec, 150)
    small = tf.dft(tf.discretize(lambda p: np.exp(np.cos(2 * np.pi * p[..., 0])), tf.make_lattice(1, 2, 1.0)))
    for m_max in (171, 187):
        profile = tf.semi_norms(small, m_max)
        fit = tf.fit_params(profile)
        assert certificate_holds(profile, fit)
        assert math.isfinite(fit.bound(m_max))
    assert fit.bound(187) > 1e307
    profile = tf.semi_norms(small, 188)
    assert np.all(np.isfinite(profile.semi_norms))
    with pytest.raises(ValidationError, match="bounds C a\\^m m! up to m_max = 188 leave float64 at a = 0.629378"):
        tf.fit_params(profile)


def test_bound_is_taken_in_logs():
    params = tf.SemiAnalyticityParams(1.0, 0.5)
    # m! alone leaves float64 at m = 171; C a^m m! is about 4.1e257
    assert params.bound(171) == pytest.approx(math.exp(math.lgamma(172) - 171 * math.log(2)), rel=1e-13)
    assert params.bound(0) == 1.0 and params.bound(5) == pytest.approx(120 / 32, rel=1e-14)
    assert params.bound(400) == math.inf
    assert tf.SemiAnalyticityParams(2.0, 0.0).bound(0) == 2.0
    assert tf.SemiAnalyticityParams(2.0, 0.0).bound(3) == 0.0
    assert tf.SemiAnalyticityParams(0.0, 3.0).bound(3) == 0.0


def test_fit_params_takes_C_as_the_largest_ratio():
    # C is exp(max_m log(|u|_m / (a^m m!))): the certificate is tight at some m
    _, _, _, _, _, u_hat = tf.expcos_family(4.0)
    prof = tf.semi_norms(spectrum_of_series(u_hat, 60), 40)
    fit = tf.fit_params(prof)
    ratios = [prof[m] / fit.bound(m) for m in range(prof.m_max + 1)]
    assert max(ratios) == pytest.approx(1.0, rel=1e-13)


def test_spectrum_of_series_refuses_a_weight_past_float64():
    # I_k(400) is about 1e172: its square is past float64, and the spectrum
    # names the first k whose weight overflows rather than raise OverflowError
    _, _, _, _, _, u_hat = tf.expcos_family(400.0)
    with pytest.raises(ValidationError, match=r"k = -60\b"):
        spectrum_of_series(u_hat, 60)
    # a numpy scalar overflows to inf rather than raising: refused the same way
    with pytest.raises(ValidationError, match=r"k = -1\b"):
        spectrum_of_series(lambda k: np.float64(1e200) if k else np.float64(1.0), 1)


def test_fit_params_band_limited(rng):
    # flat-ish random spectrum up to k0: fitted a lands in [k0/2, k0]
    from conftest import random_band_field

    k0 = 8
    lat = tf.make_lattice(1, 16, 1.0)
    fld = random_band_field(lat, k0, rng)
    fit = tf.fit_params(tf.semi_norms(tf.dft(fld), 12))
    assert 0.5 * k0 <= fit.a <= k0


def test_fit_params_expcos_certificate():
    _, _, _, C, a, u_hat = tf.expcos_family(4.0)
    prof = tf.semi_norms(spectrum_of_series(u_hat, 60), 12)
    fit = tf.fit_params(prof)
    assert fit.a <= 2.0  # z/2
    assert certificate_holds(prof, fit)
    # envelope is tight somewhere
    ratios = [prof[m] / (fit.C * fit.a**m * math.factorial(m)) for m in range(prof.m_max + 1) if prof[m] > 0]
    assert max(ratios) >= 1 - 1e-9


def test_tail_mass_and_bounds():
    _, _, _, C, a, u_hat = tf.expcos_family(2.0, l=2 * np.pi)
    spec = spectrum_of_series(u_hat, 60)
    U = math.sqrt(spec.mean_square)
    params = tf.SemiAnalyticityParams(C, a)

    assert tf.tail_mass(spec, 0.0) == pytest.approx(U**2, rel=1e-12)
    for t in range(2, 21, 2):
        tb = tf.tail_bounds(params, U, t)
        assert tf.tail_mass(spec, t) <= tb.mass_bound
        if t >= 2 * a:
            # amplitude form bounds the root of the tail mass
            assert math.sqrt(tf.tail_mass(spec, t)) <= tb.amplitude_bound

    # two-branch continuity at t = 3a
    lo = tf.tail_bounds(params, U, 3 * a).mass_bound
    hi = math.e * max(C, U) * math.exp(-3 * a / (2 * a))
    assert abs(lo - hi) <= 1e-12 * lo


def test_tail_markov_route(rng):
    # tail_mass(t) <= t^{-2m} |u|_m^2 for every profiled m
    _, _, _, _, _, u_hat = tf.expcos_family(2.0)
    spec = spectrum_of_series(u_hat, 60)
    prof = tf.semi_norms(spec, 8)
    for t in (2.0, 5.0, 9.0):
        tm = tf.tail_mass(spec, t)
        for m in range(1, 9):
            assert tm <= t ** (-2 * m) * prof[m] ** 2 * (1 + 1e-12)


def test_bernstein_maps():
    fwd = tf.bernstein_from_semianalytic(tf.SemiAnalyticityParams(1.0, 1.0), 1.0)
    assert (fwd.A, fwd.b) == (1.0, 1.0)
    rev = tf.semianalytic_from_bernstein(tf.BernsteinParams(1.0, 1.0))
    assert rev.C == pytest.approx(math.sqrt(2 * math.e), rel=1e-15)
    assert rev.a == 4.0

    # round trip inflates a by exactly 4
    p = tf.SemiAnalyticityParams(2.5, 0.7)
    back = tf.semianalytic_from_bernstein(tf.bernstein_from_semianalytic(p, 1.3))
    assert back.a == pytest.approx(4 * p.a, rel=1e-15)

    with pytest.raises(ValidationError):
        tf.bernstein_from_semianalytic(p, 0.0)


def test_bernstein_tail_continuity():
    bp = tf.BernsteinParams(1.7, 0.9)
    lo = _two_branch_tail(max(bp.A, 1.0), bp.b, 3 * bp.b)
    hi = math.e * max(bp.A, 1.0) * math.exp(-3 * bp.b / (2 * bp.b))
    assert abs(lo - hi) <= 1e-12 * lo
    # Gaussian branch below, exponential branch above
    assert _two_branch_tail(max(bp.A, 1.0), bp.b, 0.5) == pytest.approx(
        max(bp.A, 1) * math.exp(-((0.5 - 0.9) ** 2) / (8 * 0.81))
    )
    assert _two_branch_tail(max(bp.A, 1.0), bp.b, 10.0) == pytest.approx(math.e * 1.7 * math.exp(-10 / 1.8))


def test_compose_params():
    add = tf.compose_params("add", (1, 2), (3, 1))
    assert (add.C, add.a) == (4.0, 2.0)
    mul = tf.compose_params("mul", (1, 1), (1, 1))
    assert (mul.C, mul.a) == (1.0, 2.0)
    comp = tf.compose_params("compose", (1, 1), (2, 3))
    assert comp.C == pytest.approx(1 * 3 * 2 / (1 + 1 * 3))
    assert comp.a == pytest.approx(1 * (1 + 1 * 3))
    expd = tf.compose_params("exp", (1, 1), 0.0)
    assert (expd.C, expd.a) == (0.5, 2.0)
    sig = tf.compose_params("sigmoid", (1, 1), 0.0)
    assert (sig.C, sig.a) == (1.0, 3.0)

    with pytest.raises(ValidationError):
        tf.compose_params("add", (-1, 0), (1, 1))
    with pytest.raises(ValidationError):
        tf.compose_params("frobnicate", (1, 1), (1, 1))


def test_mlp_analyticity_bound():
    from conftest import small_mlp

    flat = tf.PeriodicMlp([np.zeros((1, 2))], [np.zeros(1)], l=1.0, d=1)
    rep = tf.mlp_analyticity_bound(flat, N=None)
    assert rep.bound == pytest.approx(2.0)

    two = tf.PeriodicMlp(
        [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.5, 0.5]])],
        [np.zeros(2), np.zeros(1)],
        l=1.0,
        d=1,
    )
    rep2 = tf.mlp_analyticity_bound(two, N=None)
    assert rep2.bound == pytest.approx(4 * math.exp(2 + 2), rel=1e-12)
    np.testing.assert_allclose(rep2.bound, 218.39, rtol=1e-4)

    for seed in range(5):
        rep = tf.mlp_analyticity_bound(small_mlp(seed=seed), N=64)
        assert rep.ok, f"fitted a {rep.fitted.a} exceeded bound {rep.bound}"


def test_mlp_analyticity_bound_default_lattice_stays_within_the_fine_lattice():
    from conftest import small_mlp

    # the d = 4 default used to be N = 24, a 49^4 lattice past RESOLUTION_CAP;
    # it is now the fine lattice's N = 10
    assert tf.mlp_analyticity_bound(small_mlp(d=4, seed=3)).fitted is not None
    # d = 2 keeps N = 24
    mlp = small_mlp(d=2, seed=3)
    assert tf.mlp_analyticity_bound(mlp) == tf.mlp_analyticity_bound(mlp, N=24)


def test_alias_witness_preconditions():
    with pytest.raises(PreconditionError):
        tf.alias_witness(C=1.0, a=320.0, N=11, theta=0.5)
    with pytest.raises(ValidationError):
        tf.alias_witness(C=1.0, a=320.0, N=1, theta=1.5)
    with pytest.raises(ValidationError):
        tf.alias_witness(C=0.0, a=320.0, N=1, theta=0.5)
    with pytest.raises(ValidationError, match="a=nan"):
        tf.alias_witness(C=1.0, a=math.nan, N=1, theta=0.5)


def test_alias_witness_identity_and_floor():
    f, g, rep = tf.alias_witness(C=2.0, a=160.0, N=5, theta=0.5, l=1.0)
    assert rep.discretization_mismatch <= 1e-12
    assert rep.tv >= rep.tv_floor
    assert rep.z == pytest.approx(1 + 8 / 160.0)
    # g really is band-limited to N and matches f at lattice nodes up to scale
    lat = tf.make_lattice(1, 5, 1.0)
    fv, gv = f(lat.points()), g(lat.points())
    ratio = fv / gv
    assert np.abs(ratio - ratio[0]).max() <= 1e-9 * abs(ratio[0])

    # theta -> 1 drives the floor to zero
    _, _, open_rep = tf.alias_witness(C=1.0, a=200.0, N=1, theta=0.999)
    assert open_rep.tv_floor <= 1e-6
    assert open_rep.separated


def looped_witness_coefficients(a: float, N: int) -> np.ndarray:
    """The witness's wrapped coefficients z^(-|k|/2), k in [-N..N], summed
    over alias shifts one at a time until they fall below 1e-42."""
    z = 1 + 8 / a
    n = 2 * N + 1
    p_max = int(math.ceil(2 * 42 * math.log(10) / math.log(z))) // n + 1
    ks = np.arange(-N, N + 1)
    return sum(z ** (-np.abs(ks + p * n) / 2.0) for p in range(-p_max, p_max + 1))


@pytest.mark.parametrize("a", [160.0, 320.0, 1e4])
def test_alias_witness_closed_form_matches_the_alias_loop(a):
    N = 5  # the largest N at a = 160, theta = 0.5
    _, g, _ = tf.alias_witness(C=1.0, a=a, N=N, theta=0.5)
    wrapped = looped_witness_coefficients(a, N)
    g_hat = wrapped / math.sqrt(np.sum(wrapped**2))  # mean square C^2 = 1
    x = np.linspace(0.0, 1.0, 64, endpoint=False)
    want = g_hat[N] + 2 * sum(g_hat[N + k] * np.cos(2 * np.pi * k * x) for k in range(1, N + 1))
    assert np.abs(g(x) - want).max() <= 1e-12 * np.abs(want).max()


def test_paley_zygmund_floor_invcos():
    for z in (1.1, 2.0, 4.0):
        pot = tf.invcos_potential(z, 1.0)
        spec = spectrum_of_series(pot.meta["u_hat"], pot.meta["k_max"])
        m1 = fourier_norm_moment(spec, 1)
        m2 = fourier_norm_moment(spec, 2)
        for theta in (0.25, 0.5, 0.75):
            prob = float(np.sum(spec.weights[spec.knorms > theta * m1]) / spec.mean_square)
            assert prob > paley_zygmund_floor(m1, m2, theta)


def test_semi_norm_triangle_inequality(rng):
    ks = np.arange(-12, 13).astype(float)
    for _ in range(10):
        wu = rng.random(25)
        wv = rng.random(25)
        su = TruncatedSpectrum(np.abs(ks), wu**2, np.abs(ks) == 12)
        sv = TruncatedSpectrum(np.abs(ks), wv**2, np.abs(ks) == 12)
        s_sum = TruncatedSpectrum(np.abs(ks), (wu + wv) ** 2, np.abs(ks) == 12)
        pu, pv, ps = (tf.semi_norms(s, 8) for s in (su, sv, s_sum))
        for m in range(9):
            assert ps[m] <= pu[m] + pv[m] + 1e-12


def test_profile_serialization():
    _, _, _, C, a, u_hat = tf.expcos_family(1.0)
    prof = tf.semi_norms(spectrum_of_series(u_hat, 40), 6)
    text = profile_to_csv(prof, tf.SemiAnalyticityParams(C, a))
    lines = text.strip().split("\n")
    assert lines[0] == "m,semi_norm,bound"
    assert len(lines) == 8
