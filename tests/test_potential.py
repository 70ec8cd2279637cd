import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.special as sps

import torusfp as tf
from torusfp.errors import EvalError, ValidationError
from torusfp.lattice import grid_points
from torusfp.potential import fine_lattice, lipschitz_on_grid
from torusfp.sampler import density_tv_quadrature

from conftest import coupled_potential, small_mlp
from oracles import cosine_fourier, invcos_fourier, periodicity_check, zero_fourier


def test_bessel_series_against_scipy():
    for z in (0.3, 1.0, 2.0, 4.0, 8.0):
        for k in range(0, 25):
            np.testing.assert_allclose(tf.bessel_i(k, z), sps.iv(k, z), rtol=1e-12)
    np.testing.assert_allclose(tf.bessel_i(0, 1.0), 1.26607, rtol=1e-5)
    # parity in the order and the argument
    np.testing.assert_allclose(tf.bessel_i(-3, 2.0), tf.bessel_i(3, 2.0), rtol=1e-15)
    np.testing.assert_allclose(tf.bessel_i(3, -2.0), -sps.iv(3, 2.0), rtol=1e-12)


@pytest.mark.parametrize("d", range(1, 8))
def test_cosine_potential_sums_its_axes_like_np_sum(d):
    # the terms z (1 - cos) added column by column are bit for bit np.sum
    # over the last axis for every d <= 7 (pairwise summation starts at 8
    # terms), so artifacts stay byte-identical
    z, l = 1.7, 1.3
    pts = (np.random.default_rng(d).random((52_000, d)) - 0.5) * l
    reference = np.sum(z * (1.0 - np.cos(2 * math.pi / l * pts)), axis=-1)
    assert np.array_equal(tf.cosine_potential(z, d, l).evaluate(pts), reference)


def _random_axes(d, l, seed):
    """d sorted, non-uniform coordinate arrays of different lengths, some
    outside the fundamental domain."""
    rng = np.random.default_rng(seed)
    return [np.sort((rng.random(int(rng.integers(1, 40))) - 0.5) * 1.5 * l) for _ in range(d)]


def _on_points(E, axes):
    return E.evaluate(grid_points(*axes)).reshape([len(a) for a in axes])


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("z", [1.7, -0.9, 0.0, 8.0])
def test_cosine_grid_evaluator_is_bitwise_the_point_evaluator(d, z):
    # z < 0 has a nonzero shift; the axes are neither uniform nor of equal length
    l = 1.3
    E = tf.cosine_potential(z, d, l)
    assert E.separable and len(E.axes) == d
    for seed in range(3):
        axes = _random_axes(d, l, seed)
        grid = E.evaluate_grid(axes)
        assert grid.shape == tuple(len(a) for a in axes)
        assert np.array_equal(grid, _on_points(E, axes))
    # the quadrature's own axes: box centres and subcell midpoints
    lat = tf.make_lattice(d, 6, l)
    axes = [lat.axis_points()] * d
    assert np.array_equal(E.evaluate_grid(axes), _on_points(E, axes))


@pytest.mark.parametrize(
    "E",
    [coupled_potential(4.0, 0.5), tf.mlp_potential(small_mlp(2)), tf.invcos_potential(4.0)],
    ids=["coupled", "mlp", "invcos"],
)
def test_grid_evaluation_falls_back_to_the_points(E):
    assert E.axes is None and not E.separable
    axes = _random_axes(E.d, E.l, 5)
    assert np.array_equal(E.evaluate_grid(axes), _on_points(E, axes))


def _two_term_sum(d, l=1.3):
    """A sum over axes built by hand from two different terms, alternating
    along the axes, each with its minimum 0 at x = 0."""

    def bump(x):
        return 1.5 * np.sin(math.pi / l * x) ** 2

    def double_well(x):
        return 0.7 * (1.0 - np.cos(4 * math.pi / l * x)) + 0.3 * (1.0 - np.cos(2 * math.pi / l * x))

    # max of double_well at cos(2 pi x / l) = -0.3 / 2.8
    diameter = sum((1.5, 1.7 + 0.09 / 5.6)[j % 2] for j in range(d))
    return tf.EnergyPotential(axes=([bump, double_well] * d)[:d], l=l, d=d, diameter=diameter, name="two-term")


def test_a_potential_needs_an_evaluator_or_one_term_per_axis():
    term = tf.cosine_potential(1.0, 1, 1.0).axes[0]
    with pytest.raises(ValidationError, match="exactly one of an evaluator and axes"):
        tf.EnergyPotential(l=1.0, d=1, diameter=0.0)
    with pytest.raises(ValidationError, match="exactly one of an evaluator and axes"):
        tf.EnergyPotential(evaluator=lambda pts: pts[..., 0], axes=[term], l=1.0, d=1, diameter=2.0)
    for count in (1, 3):
        with pytest.raises(ValidationError, match=f"has {count} axis terms at d=2"):
            tf.EnergyPotential(axes=[term] * count, l=1.0, d=2, diameter=4.0)
    # separable follows the terms: a potential given by its evaluator cannot
    # be declared a sum over axes
    coupled = coupled_potential(4.0, 0.5)
    assert not coupled.separable
    with pytest.raises(TypeError):
        dataclasses.replace(coupled, separable=True)
    with pytest.raises(AttributeError):
        coupled.separable = True


@pytest.mark.parametrize("d", range(1, 4))
def test_dataclasses_replace_copies_a_sum_over_axes(d):
    # replace hands the derived evaluator back to __init__, which derives it
    # from the terms again; it raised "needs exactly one of an evaluator and axes"
    E = tf.cosine_potential(1.0, d, 1.0)
    copy = dataclasses.replace(E, name="x")
    assert copy.name == "x" and copy.axes == E.axes and copy.separable
    axes = _random_axes(d, E.l, 0)
    pts = grid_points(*axes)
    assert np.array_equal(copy.evaluate(pts), E.evaluate(pts))
    assert np.array_equal(copy.evaluate_grid(axes), E.evaluate_grid(axes))
    with pytest.raises(ValidationError, match="exactly one of an evaluator and axes"):
        dataclasses.replace(E, evaluator=lambda pts: pts[..., 0])


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("kind", ["zero", "two-term"])
def test_a_sum_over_axes_evaluates_its_terms_on_points_and_grids_alike(kind, d):
    # the derived evaluator adds the terms in axis order, and evaluate_grid
    # adds the same terms by broadcasting: the same values, bit for bit
    E = tf.zero_potential(d, 1.3) if kind == "zero" else _two_term_sum(d)
    assert E.separable and len(E.axes) == d
    for seed in range(3):
        axes = _random_axes(d, E.l, seed)
        pts = grid_points(*axes)
        by_hand = functools.reduce(np.add, (E_j(pts[:, j]) for j, E_j in enumerate(E.axes)))
        assert np.array_equal(E.evaluate(pts), by_hand)
        assert np.array_equal(E.evaluate_grid(axes), by_hand.reshape([len(a) for a in axes]))


def test_tv_of_a_hand_built_sum_takes_the_per_axis_route():
    E = _two_term_sum(2, l=1.0)
    lat = tf.make_lattice(2, 6, E.l)
    values = tf.discretize(lambda p: np.exp(-E.evaluate(p) / 2), lat).values
    values = values * (1 + 0.1 * np.random.default_rng(4).standard_normal(lat.shape))
    state = tf.GridField(lat, values / np.linalg.norm(values), is_real=True)
    report = tf.tv_distance(state, E, subcells=8)
    assert report.health == {"tv_passes": 1, "tv_eval_points": 2 * lat.points_per_axis * 8}
    reference = density_tv_quadrature(state, lambda p: np.exp(-E.evaluate(p)), subcells=8)
    assert 0.01 < report.tv < 0.5
    assert abs(report.tv - reference) <= 1e-14


def test_non_finite_values_raise_on_both_paths():
    # the cosine terms (inf * (1 - cos 0) is nan) and the point fallback of
    # a potential with a pole at 0 each raise, as evaluate does, and so does
    # the per-axis TV, which reads the terms alone
    cosine = tf.cosine_potential(math.inf, 2, 1.0)
    pole = tf.EnergyPotential(evaluator=lambda pts: np.log(np.abs(pts[..., 0])), l=1.0, d=1, diameter=1.0)
    cases = [(cosine, [np.array([0.0, 0.25]), np.array([0.0])]), (pole, [np.array([0.0, 0.1])])]
    with np.errstate(invalid="ignore", divide="ignore"):
        for E, axes in cases:
            with pytest.raises(EvalError, match="non-finite"):
                E.evaluate(grid_points(*axes))
            with pytest.raises(EvalError, match="non-finite"):
                E.evaluate_grid(axes)
        lat = tf.make_lattice(2, 2, 1.0)
        with pytest.raises(EvalError, match="non-finite"):
            tf.tv_distance(tf.GridField(lat, np.full(lat.shape, 0.2), is_real=True), cosine, subcells=2)


def test_cosine_potential_metadata():
    flat = tf.cosine_potential(0.0, 1, 1.0)
    assert flat.diameter == 0.0

    pot = tf.cosine_potential(2.0, 1, 2 * np.pi)
    assert pot.diameter == 4.0
    xs = np.linspace(-np.pi, np.pi, 101)[:, None]
    np.testing.assert_allclose(pot.evaluate(xs), 2 * (1 - np.cos(xs[:, 0])), atol=1e-12)

    pot2 = tf.cosine_potential(1.0, 2, 1.0)
    assert pot2.diameter == 4.0
    assert periodicity_check(pot2)


def test_cosine_fourier_is_bessel_product():
    # DFT of e^{-E + min} against the Bessel-product series at N >= 4z; the
    # lattice coefficients carry the aliased tails, so the series is folded
    # modulo 2N+1 before comparing
    z = 1.0
    pot = tf.cosine_potential(z, 2, 1.0)
    fourier = cosine_fourier(z, 2)
    lat = tf.make_lattice(2, 4, 1.0)
    n = lat.points_per_axis
    fld = tf.discretize(lambda p: np.exp(-pot.evaluate(p)), lat)
    est = tf.dft(fld).series_coefficients()
    grids = lat.index_grids()
    folded = np.zeros(lat.shape)
    for p1 in range(-3, 4):
        for p2 in range(-3, 4):
            folded += np.vectorize(lambda k1, k2: fourier((k1 + p1 * n, k2 + p2 * n)))(
                grids[0], grids[1]
            )
    assert np.abs(est - folded).max() <= 1e-8
    # without the fold the mismatch is exactly the leading alias term
    plain = np.vectorize(lambda k1, k2: fourier((k1, k2)))(grids[0], grids[1])
    lead = tf.bessel_i(n - lat.N, z) * tf.bessel_i(0, z) * math.exp(-2 * z)
    np.testing.assert_allclose(np.abs(est - plain).max(), lead, rtol=1e-6)


@pytest.mark.parametrize(
    "pot, fourier",
    [(tf.invcos_potential(4.0, 1.0), invcos_fourier(4.0)), (tf.zero_potential(1, 1.0), zero_fourier)],
    ids=["invcos", "zero"],
)
def test_gibbs_fourier_of_invcos_and_zero(pot, fourier):
    # the DFT of e^{-E} on the lattice is the closed-form series folded
    # modulo 2N+1 (at z = 4 the invcos terms past |k| = 60 are below 1e-18)
    lat = tf.make_lattice(1, 8, 1.0)
    n = lat.points_per_axis
    est = tf.dft(tf.discretize(lambda p: np.exp(-pot.evaluate(p)), lat)).series_coefficients()
    folded = [sum(fourier(k + p * n) for p in range(-4, 5)) for k in lat.axis_indices()]
    assert np.abs(est - folded).max() <= 1e-14

def test_invcos_potential():
    with pytest.raises(ValidationError):
        tf.invcos_potential(1.0)
    pot = tf.invcos_potential(4.0, 2 * np.pi)
    u_hat = pot.meta["u_hat"]
    np.testing.assert_allclose(u_hat(1), 0.5, rtol=1e-15)
    np.testing.assert_allclose(u_hat(2), 0.25, rtol=1e-15)
    np.testing.assert_allclose(u_hat(-2), 0.25, rtol=1e-15)
    assert pot.diameter == pytest.approx(2 * math.log(3.0), rel=1e-12)
    assert periodicity_check(pot)

    # closed form vs truncated series at 100 random points
    rng = np.random.default_rng(1)
    xs = rng.uniform(-np.pi, np.pi, 100)
    u = pot.meta["u"]
    series = sum(u_hat(k) * np.exp(1j * k * xs) for k in range(-60, 61)).real
    assert np.abs(series - u(xs[:, None])).max() <= 1e-10


def test_invcos_flattens_as_z_grows():
    pot = tf.invcos_potential(1e6, 1.0)
    u_hat = pot.meta["u_hat"]
    assert u_hat(0) == 1.0
    assert u_hat(1) <= 1e-3
    xs = np.linspace(-0.5, 0.5, 64)[:, None]
    assert np.abs(pot.meta["u"](xs) - 1.0).max() <= 3e-3


def test_mlp_potential_examples():
    # zero weights: constant energy
    mlp0 = tf.PeriodicMlp([np.zeros((2, 2)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)], l=1.0, d=1)
    pot0 = tf.mlp_potential(mlp0)
    assert pot0.diameter <= 1e-12

    # single layer picking the cosine feature: E = sigmoid(cos 2 pi x / l)
    mlp1 = tf.PeriodicMlp([np.array([[1.0, 0.0]])], [np.zeros(1)], l=1.0, d=1)
    pot1 = tf.mlp_potential(mlp1)
    sig = lambda t: 1 / (1 + math.exp(-t))
    np.testing.assert_allclose(pot1.diameter, sig(1) - sig(-1), atol=1e-9)
    np.testing.assert_allclose(pot1.diameter, 0.46212, atol=1e-5)

    # random two-layer nets stay inside the sigmoid output range
    pot2 = tf.mlp_potential(small_mlp(d=1, seed=5))
    assert pot2.diameter <= 1.0
    assert periodicity_check(pot2)


def test_mlp_potential_builds_past_the_fine_grid_table():
    # d = 4 has no FINE_GRID entry: its metadata grid has 21^4 nodes, not the
    # 63^4 past the resolution cap that make_lattice refused
    pot = tf.mlp_potential(small_mlp(d=4, seed=3))
    reference = pot.evaluate(tf.make_lattice(4, 15, pot.l).points())  # 31^4 nodes
    assert pot.diameter == pytest.approx(reference.max() - reference.min(), rel=1e-2)


def test_mlp_potential_evaluates_the_fine_lattice_once(monkeypatch):
    # the min-normalization is the only pass over the 511^2 fine lattice
    calls = []
    forward = tf.PeriodicMlp.forward

    def counting(self, pts):
        calls.append(len(pts))
        return forward(self, pts)

    monkeypatch.setattr(tf.PeriodicMlp, "forward", counting)
    tf.mlp_potential(small_mlp(d=2, seed=5))
    assert fine_lattice(2, 1.0).size == 261121
    assert calls.count(261121) == 1


def test_mlp_shape_validation():
    with pytest.raises(ValidationError):
        tf.PeriodicMlp([np.zeros((2, 3))], [np.zeros(2)], l=1.0, d=1)  # wrong feature width
    with pytest.raises(ValidationError):
        tf.PeriodicMlp([np.zeros((2, 2))], [np.zeros(2)], l=1.0, d=1)  # output not scalar
    with pytest.raises(ValidationError):
        tf.PeriodicMlp([np.array([[np.inf, 0.0]])], [np.zeros(1)], l=1.0, d=1)


def test_mlp_json_round_trip():
    mlp = small_mlp(d=2, seed=9)
    clone = tf.PeriodicMlp.from_json(mlp.to_json())
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, (10, 2))
    np.testing.assert_allclose(clone.forward(pts), mlp.forward(pts), rtol=0, atol=0)


def test_mlp_refuses_points_of_another_dimension():
    # an (m, 1) array would broadcast into all four feature columns of a
    # d = 2 network, evaluating it on the diagonal x_1 = x_2
    mlp = small_mlp(d=2, seed=9)
    with pytest.raises(ValidationError, match=r"d=2 needs points of shape \(\.\.\., 2\), got \(5, 1\)"):
        mlp.forward(np.zeros((5, 1)))
    with pytest.raises(ValidationError):
        mlp.forward(0.0)
    assert mlp.forward(np.zeros(2)).shape == ()  # one point


def diameter_on_fine_lattice(E):
    """max E - min E over the fine lattice: the oracle for stored diameters."""
    vals = tf.discretize(E, fine_lattice(E.d, E.l)).values
    return float(vals.max() - vals.min())


def test_estimators():
    flat = tf.zero_potential(1, 1.0)
    assert diameter_on_fine_lattice(flat) == 0.0
    assert lipschitz_on_grid(tf.discretize(flat.evaluate, fine_lattice(1, 1.0))) <= 1e-12

    pot = tf.cosine_potential(2.0, 1, 2 * np.pi)
    assert abs(diameter_on_fine_lattice(pot) - 4.0) <= 1e-6
    slope = lipschitz_on_grid(tf.discretize(pot.evaluate, fine_lattice(1, pot.l)))
    assert abs(slope - 2.1) <= 1e-3  # 1.05 x true max slope 2

    # d=2: additive over axes, exact in the stored metadata; the default
    # 512-point fine lattice resolves it to ~4e-5 (maximum falls between
    # nodes)
    pot2 = tf.cosine_potential(1.0, 2, 1.0)
    assert pot2.diameter == 4.0
    assert abs(diameter_on_fine_lattice(pot2) - 4.0) <= 1e-4


def test_expcos_semianalyticity_certificate():
    # |u|_m <= I_0(z) e^{z/2} max(z/2, 1)^m m! for m <= 10
    from torusfp.semianalytic import spectrum_of_series

    for z in (1.0, 2.0, 4.0):
        _, _, _, C, a, u_hat = tf.expcos_family(z)
        profile = tf.semi_norms(spectrum_of_series(u_hat, 60), 10)
        for m in range(11):
            assert profile[m] <= C * a**m * math.factorial(m) * (1 + 1e-12)


def test_min_normalization():
    # built-ins attain minimum ~0 on the torus
    for pot in (tf.cosine_potential(1.5, 1, 1.0), tf.invcos_potential(3.0, 1.0), tf.mlp_potential(small_mlp(seed=11))):
        lat = tf.make_lattice(1, 256, pot.l)
        vals = pot.evaluate(lat.points())
        assert vals.min() >= -1e-12
        assert vals.min() <= 1e-6


@pytest.mark.parametrize("l", [0.0, -1.0, math.inf, math.nan])
def test_potentials_refuse_a_period_that_is_not_positive_and_finite(l):
    # each constructor checks l before dividing by it
    for build in (
        lambda: tf.cosine_potential(1.0, 1, l),
        lambda: tf.invcos_potential(4.0, l),
        lambda: tf.zero_potential(1, l),
        lambda: tf.potential.expcos_family(2.0, l),
        lambda: tf.PeriodicMlp([np.ones((1, 2))], [np.zeros(1)], l=l, d=1),
    ):
        with pytest.raises(ValidationError, match="period l must be positive and finite"):
            build()
