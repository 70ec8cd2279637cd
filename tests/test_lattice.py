import numpy as np
import pytest

import torusfp as tf
from torusfp.errors import SizeError, ValidationError
from torusfp.lattice import RESOLUTION_CAP


def brute_force_dft(values, N):
    """Direct O(n^2) centered unitary DFT, d=1."""
    n = 2 * N + 1
    ks = np.arange(-N, N + 1)
    ms = np.arange(-N, N + 1)
    F = np.exp(-2j * np.pi * np.outer(ks, ms) / n) / np.sqrt(n)
    return F @ values


def test_make_lattice_points():
    lat = tf.make_lattice(1, 1, 2 * np.pi)
    np.testing.assert_allclose(lat.points()[:, 0], [-2 * np.pi / 3, 0.0, 2 * np.pi / 3])

    lat2 = tf.make_lattice(2, 2, 1.0)
    assert lat2.size == 25
    # node (1, -2) sits at row-major offset (1 + 2) * 5 + (-2 + 2)
    np.testing.assert_allclose(lat2.points()[15], [0.2, -0.4])


def test_make_lattice_cap_and_validation():
    # the node limit is RESOLUTION_CAP; DENSE_CAP bounds only the generator
    assert tf.make_lattice(1, 2048, 1.0).size == 4097 > tf.DENSE_CAP
    assert tf.make_lattice(2, 1023, 1.0).size == 2047**2 <= RESOLUTION_CAP
    with pytest.raises(SizeError, match=f"4198401 nodes, exceeding the cap {RESOLUTION_CAP}"):
        tf.make_lattice(2, 1024, 1.0)  # 2049^2 points
    with pytest.raises(SizeError):
        tf.make_lattice(1, RESOLUTION_CAP // 2, 1.0)  # 2^22 + 1 points
    with pytest.raises(ValidationError):
        tf.make_lattice(0, 4, 1.0)
    with pytest.raises(ValidationError):
        tf.make_lattice(1, -2, 1.0)
    # a bool is an int to Python, not a dimension or a half-width
    for d, N in ((True, 4), (1, True), (1, 4.0)):
        with pytest.raises(ValidationError, match="must be a positive integer"):
            tf.make_lattice(d, N, 1.0)
    with pytest.raises(ValidationError):
        tf.make_lattice(1, 4, -1.0)


def test_discretize_examples():
    lat = tf.make_lattice(1, 1, 2 * np.pi)
    ones = tf.discretize(lambda p: np.ones(p.shape[:-1]), lat)
    np.testing.assert_allclose(ones.flat, 1.0)

    cosf = tf.discretize(lambda p: np.cos(p[..., 0]), lat)
    np.testing.assert_allclose(cosf.flat, [-0.5, 1.0, -0.5], atol=1e-15)

    # the seven coarse samples of e^{cos 2 pi x} that feed the upsampler
    lat7 = tf.make_lattice(1, 3, 1.0)
    fld = tf.discretize(lambda p: np.exp(np.cos(2 * np.pi * p[..., 0])), lat7)
    expected = np.exp(np.cos(2 * np.pi * np.arange(-3, 4) / 7))
    np.testing.assert_allclose(fld.flat, expected, rtol=1e-15)


def test_discretize_nonfinite():
    lat = tf.make_lattice(1, 2, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(tf.EvalError):
            tf.discretize(lambda p: np.log(p[..., 0]), lat)  # log of negatives


def test_dft_constant_is_delta():
    lat = tf.make_lattice(1, 1, 1.0)
    c = 0.7
    spec = tf.dft(tf.GridField(lat, np.full(3, c), is_real=True))
    np.testing.assert_allclose(spec.flat, [0, c * np.sqrt(3), 0], atol=1e-15)


def test_dft_cosine_against_brute_force():
    lat = tf.make_lattice(1, 1, 2 * np.pi)
    vals = np.cos(2 * np.pi * np.arange(-1, 2) / 3)
    spec = tf.dft(tf.GridField(lat, vals, is_real=True))
    oracle = brute_force_dft(vals.astype(complex), 1)
    np.testing.assert_allclose(spec.flat, oracle, atol=1e-14)
    np.testing.assert_allclose(spec.flat, [np.sqrt(3) / 2, 0, np.sqrt(3) / 2], atol=1e-14)


def test_dft_matches_brute_force_random(rng):
    for N in (2, 5, 9):
        lat = tf.make_lattice(1, N, 1.0)
        vals = rng.standard_normal(2 * N + 1)
        spec = tf.dft(tf.GridField(lat, vals, is_real=True))
        np.testing.assert_allclose(spec.flat, brute_force_dft(vals.astype(complex), N), atol=1e-12)


@pytest.mark.parametrize("d, N", [(1, 1), (1, 7), (2, 2), (2, 5)])
def test_dft_and_idft_match_an_explicit_roll(d, N, rng):
    # ifftshift and fftshift are the centered rolls by -N and +N on odd axes
    lat = tf.make_lattice(d, N, 1.0)
    axes, scale = tuple(range(d)), lat.points_per_axis ** (d / 2)
    vals = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
    spec = np.fft.fftshift(np.fft.fftn(np.roll(vals, (-N,) * d, axis=axes)))
    spec /= scale
    assert np.array_equal(tf.dft(tf.GridField(lat, vals)).coeffs, spec)
    back = np.roll(np.fft.ifftn(np.fft.ifftshift(vals)) * scale, (N,) * d, axis=axes)
    assert np.array_equal(tf.idft(tf.SpectralField(lat, vals)).values, back)


def test_unitarity_and_parseval(rng):
    for d, N in [(1, 8), (2, 4)]:
        lat = tf.make_lattice(d, N, 1.5)
        vals = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
        fld = tf.GridField(lat, vals)
        spec = tf.dft(fld)
        back = tf.idft(spec)
        assert np.abs(back.values - vals).max() <= 1e-12
        assert abs(spec.norm() ** 2 - fld.norm() ** 2) <= 1e-10 * fld.norm() ** 2


def test_real_field_conjugate_symmetry(rng):
    lat = tf.make_lattice(2, 3, 1.0)
    fld = tf.GridField(lat, rng.standard_normal(lat.shape), is_real=True)
    coeffs = tf.dft(fld).coeffs
    flipped = np.conj(coeffs[::-1, ::-1])
    assert np.abs(coeffs - flipped).max() <= 1e-12


def test_wrapping_identity_cosine_family():
    # lattice coefficients of e^{z cos x} equal the Bessel series folded
    # modulo 2N+1
    for z, N in [(1.0, 4), (2.0, 6)]:
        lat = tf.make_lattice(1, N, 2 * np.pi)
        fld = tf.discretize(lambda p: np.exp(z * np.cos(p[..., 0])), lat)
        est = tf.dft(fld).series_coefficients()
        n = 2 * N + 1
        ks = lat.axis_indices()
        wrapped = np.zeros(n)
        for p in range(-8, 9):
            wrapped += np.array([tf.bessel_i(int(k) + p * n, z) for k in ks])
        np.testing.assert_allclose(est.real, wrapped, atol=1e-8)
        assert np.abs(est.imag).max() < 1e-12


def test_real_flag_rejects_complex():
    lat = tf.make_lattice(1, 1, 1.0)
    with pytest.raises(ValidationError):
        tf.GridField(lat, np.array([1.0, 1j * 1e-6, 0.0]), is_real=True)
    fld = tf.GridField(lat, np.array([1.0, 1 + 1e-14j, 0.0]), is_real=True)
    assert fld.values.dtype == np.float64
