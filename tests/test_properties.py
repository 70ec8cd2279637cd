"""Property tests over random (d, N, l, z) within the dense cap: the
invariants the README documents must hold on every supported lattice, not
only at the sizes the example-based tests use."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torusfp as tf

from oracles import operator_norm

_MAX_N = {1: 149, 2: 8, 3: 2}  # at most 299, 289 and 125 nodes
_SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def lattices(draw):
    d = draw(st.integers(1, 3))
    return tf.make_lattice(d, draw(st.integers(1, _MAX_N[d])), draw(st.floats(0.05, 10.0)))


def _random_field(lat, seed, complex_values=False):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(lat.shape)
    if complex_values:
        return tf.GridField(lat, values + 1j * rng.standard_normal(lat.shape))
    return tf.GridField(lat, values, is_real=True)


def _unit(fld):
    return tf.GridField(fld.lattice, fld.values / fld.norm(), is_real=fld.is_real)


@_SETTINGS
@given(lattices(), st.integers(0, 2**32 - 1))
def test_dft_is_unitary(lat, seed):
    f = _random_field(lat, seed, complex_values=True)
    g = _random_field(lat, seed + 1, complex_values=True)
    F, G = tf.dft(f), tf.dft(g)
    scale = f.norm() * g.norm()
    assert abs(np.vdot(F.flat, G.flat) - np.vdot(f.flat, g.flat)) <= 1e-12 * scale
    assert np.abs(tf.idft(F).values - f.values).max() <= 1e-12 * f.norm()


@_SETTINGS
@given(lattices(), st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_derivative_is_antisymmetric(lat, seed, axis):
    axis = axis % lat.d
    u, v = _random_field(lat, seed), _random_field(lat, seed + 1)
    Du = tf.fourier_derivative(u, axis).flat
    Dv = tf.fourier_derivative(v, axis).flat
    scale = operator_norm(lat) * u.norm() * v.norm()
    assert abs(u.flat @ Dv + Du @ v.flat) <= 1e-12 * scale


@_SETTINGS
@given(lattices(), st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_upsampling_is_an_isometry(lat, seed, extra):
    psi, phi = _unit(_random_field(lat, seed)), _unit(_random_field(lat, seed + 1))
    M = lat.N + extra
    up_psi, up_phi = tf.upsample(psi, M), tf.upsample(phi, M)
    assert up_psi.lattice.N == M
    assert abs(up_psi.norm() - 1.0) <= 1e-12
    assert abs(np.vdot(up_psi.flat, up_phi.flat) - psi.flat @ phi.flat) <= 1e-12


# a subnormal T collapses the snapshot grid, and evolve rejects repeated times
@_SETTINGS
@given(lattices(), st.floats(0.0, 8.0), st.booleans(), st.floats(0.0, 1.0, allow_subnormal=False))
# gap / ||L'|| = 3e-6: an eigh kernel vector off e^{-W/2} leaked 6e-9 of the mass
@example(tf.make_lattice(1, 1, 1.0), 8.0, False, 1.0)
def test_evolution_conserves_mass(lat, z, halve, t_frac):
    E = tf.cosine_potential(z, lat.d, lat.l)
    op = tf.build_generator(E, lat, halve=halve)
    T = t_frac * tf.choose_T(1.0 / op.spectral_gap, E.diameter, 0.05)
    res = tf.evolve(op, tf.constant_field(lat), T, snapshots=4)
    # the documented mass-drift tolerance of NormTraceReport.inner_ok
    assert np.abs(res.inners - res.inners[0]).max() <= 1e-9 * abs(res.inners[0])


@_SETTINGS
@given(lattices(), st.integers(0, 2**32 - 1), st.integers(1, 300))
def test_samples_stay_in_the_fundamental_domain(lat, seed, count):
    batch = tf.continuous_sample(_unit(_random_field(lat, seed)), count, seed)
    assert batch.points.shape == (count, lat.d)
    assert np.all(batch.points >= -lat.l / 2) and np.all(batch.points < lat.l / 2)


@_SETTINGS
@given(lattices(), st.integers(0, 2**32 - 1))
def test_sampling_is_reproducible_by_seed(lat, seed):
    state = _unit(_random_field(lat, seed))
    first = tf.continuous_sample(state, 100, seed)
    second = tf.continuous_sample(state, 100, seed)
    assert np.array_equal(first.points, second.points)
    assert first.to_csv() == second.to_csv()
