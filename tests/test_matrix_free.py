"""The matrix-free generator (d >= 2) against dense oracles.

The Lanczos gap is checked against eigvalsh of the assembled L' and against
the singular values of the stacked B_j, the Krylov propagation against
scipy.linalg.expm, over the property-test range of tests/test_properties.py.
Each tolerance is fixed from the conditioning of the oracle before the run:
a relative term of 1e-10 plus the oracle's own rounding.  Further tests pin
the health numbers, the independence of the time grid and the memory bound.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torusfp as tf
from torusfp.generator import GAP_RTOL, KRYLOV_RTOL, _lanczos, _random_start
from torusfp.spectral import derivative_matrix

EPS = np.finfo(float).eps
_MAX_N = {2: 8, 3: 2}  # at most 289 and 125 nodes
_SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def cases(draw):
    """(d, N, l, z, halve) for a cosine potential on a d >= 2 lattice."""
    d = draw(st.integers(2, 3))
    N = draw(st.integers(1, _MAX_N[d]))
    return d, N, draw(st.floats(0.05, 10.0)), draw(st.floats(0.0, 8.0)), draw(st.booleans())


def _build(d, N, l, z, halve):
    return tf.build_generator(tf.cosine_potential(z, d, l), tf.make_lattice(d, N, l), halve=halve)


def _svd_gap(op):
    """sqrt(gap) is the second-smallest singular value of the stacked B_j."""
    u = op.u_diag
    blocks = [derivative_matrix(op.lattice, j) * u[:, None] / u[None, :] for j in range(op.lattice.d)]
    return np.linalg.svd(np.vstack(blocks), compute_uv=False)[-2] ** 2


@_SETTINGS
@given(cases())
# the top Ritz value itself, without the Rayleigh quotient of its vector,
# misses the singular-value oracle here
@example((2, 6, 0.763, 7.11, False))
def test_lanczos_gap_matches_dense_oracles(case):
    op = _build(*case)
    assert op.health["backend"] == "matrix-free"
    mu = np.linalg.eigvalsh(-op.symmetrized)
    gap, norm = mu[1], mu[-1]
    # eigvalsh is backward stable: its gap carries an error of about eps ||L'||
    assert abs(op.spectral_gap - gap) <= (1e-10 + 4 * EPS * norm / gap) * gap
    # a singular value of the stacked B_j carries eps ||B|| = eps sqrt(||L'||)
    gap_svd = _svd_gap(op)
    assert abs(op.spectral_gap - gap_svd) <= (1e-10 + 4 * EPS * np.sqrt(norm / gap_svd)) * gap_svd

    health = op.health
    assert 0 < health["lanczos_steps"] <= op.size - 1
    converged = health["gap_residual"] <= max(2 * GAP_RTOL * gap, 2 * EPS * norm)
    assert converged or health["lanczos_steps"] == op.size - 1


@_SETTINGS
@given(cases(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
# a stop rule on the residual at the final time alone ends these after 8
# steps, with the grid-frame state off by 8e-2 and by 2.1 relative
@example((2, 8, 8.07, 6.43, False), 0.01, 0)
@example((3, 3, 0.134, 5.91, False), 0.01, 0)
def test_krylov_propagation_matches_expm(case, t_frac, seed):
    op = _build(*case)
    T = t_frac * tf.choose_T(1.0 / op.spectral_gap, op.potential.diameter, 0.05)
    v = np.random.default_rng(seed).standard_normal(op.size) + 2.0
    times = np.array([0.0, T / 3, T])
    states, health = op.propagate(v, times)

    Lp = op.symmetrized
    norm = np.linalg.norm(Lp, 2)
    x = v / op.u_diag
    for t, state in zip(times, states):
        reference = scipy.linalg.expm(t * Lp) @ x
        # scaling and squaring loses about eps ||t L'|| in expm itself
        tol = 1e-10 + 16 * EPS * norm * t
        assert np.linalg.norm(state / op.u_diag - reference) <= tol * np.linalg.norm(x)
    assert health["krylov_error"] <= KRYLOV_RTOL or health["krylov_steps"] == op.size - 1


def test_lanczos_keeps_the_kernel_out_past_300_steps():
    # a long run: without q0 projected out inside the iteration, rounding
    # brings the kernel back and the gap collapses to about 0.  The cosine
    # potential is separable, so the exact gap is that of the d = 1 generator.
    op = _build(2, 25, 1.0, 8.0, True)
    assert op.health["lanczos_steps"] > 300
    line = _build(1, 25, 1.0, 8.0, True)
    gap, norm = line.spectral_gap, -line.eigenvalues[-1]
    assert abs(op.spectral_gap - gap) <= (1e-10 + 4 * EPS * norm / gap) * gap


@pytest.mark.parametrize("z", [1.0, 8.0])
def test_one_orthogonalization_pass_keeps_the_basis_orthonormal(z):
    # one pass per step, a second only when the first cancels most of the
    # direction: over 600 and more steps the basis stays orthonormal and
    # orthogonal to the kernel to rounding
    op = _build(2, 25, 1.0, z, True)
    q0 = op.kernel_vector()
    basis, alpha, _, repeats = _lanczos(op.apply, q0, _random_start(q0), lambda a, b: len(a) >= 600)
    assert len(alpha) >= 600
    assert np.abs(basis @ basis.T - np.eye(len(basis))).max() <= 1e-13
    assert np.abs(basis @ q0).max() <= 1e-13
    assert repeats < len(alpha) / 10
    assert op.health["lanczos_reorth_steps"] == 0


def test_second_orthogonalization_pass_runs_when_the_first_cancels():
    # a nonsymmetric map leaves most of each new direction in the span of
    # the older basis vectors, which the three-term recurrence does not
    # remove: the first pass cancels most of it and the second must run
    rng = np.random.default_rng(5)
    n = 80
    A = rng.standard_normal((n, n))
    q0 = np.zeros(n)
    q0[0] = 1.0
    basis, alpha, _, repeats = _lanczos(lambda x: A @ x, q0, _random_start(q0), lambda a, b: False)
    assert len(alpha) == n - 1
    assert repeats > 0
    assert np.abs(basis @ basis.T - np.eye(n - 1)).max() <= 1e-13
    assert np.abs(basis @ q0).max() <= 1e-13


def test_propagation_is_independent_of_the_time_grid():
    op = _build(2, 8, 1.0, 2.0, True)
    T = tf.choose_T(1.0 / op.spectral_gap, op.potential.diameter, 0.05)
    v = np.random.default_rng(3).standard_normal(op.size) + 2.0
    two, health_two = op.propagate(v, np.array([0.0, T]))
    eight, health_eight = op.propagate(v, np.linspace(0.0, T, 8))
    assert np.array_equal(two[-1], eight[-1])
    assert health_two == health_eight
    # and so through evolve, whatever the snapshot count
    ones = tf.constant_field(op.lattice)
    assert np.array_equal(tf.evolve(op, ones, T).final, tf.evolve(op, ones, T, snapshots=8).final)


def test_health_is_recorded():
    line = _build(1, 8, 1.0, 1.0, True)
    assert line.health == {"backend": "dense"}
    assert tf.evolve(line, tf.constant_field(line.lattice), 0.1).health == {}

    op = _build(2, 8, 1.0, 1.0, True)
    assert set(op.health) == {"backend", "lanczos_steps", "gap_residual", "lanczos_reorth_steps"}
    res = tf.evolve(op, tf.constant_field(op.lattice), 0.1)
    assert set(res.health) == {"krylov_steps", "krylov_error", "krylov_reorth_steps"}
    assert 0 < res.health["krylov_steps"] < op.size
    assert 0 <= res.health["krylov_error"] <= KRYLOV_RTOL
    # a stationary input has nothing to advance
    still = tf.evolve(op, tf.GridField(op.lattice, op.stationary, is_real=True), 0.1)
    assert still.health["krylov_steps"] == 0
    np.testing.assert_allclose(still.final, op.stationary, rtol=1e-12)


def test_generator_and_evolution_stay_below_one_dense_matrix():
    E = tf.cosine_potential(1.0, 2, 1.0)
    lat = tf.make_lattice(2, 25, 1.0)
    one_dense = lat.size**2 * 8  # a single n x n float64 array, 54 MB
    tracemalloc.start()
    try:
        op = tf.build_generator(E, lat)
        tf.evolve(op, tf.constant_field(lat), tf.choose_T(1.0 / op.spectral_gap, E.diameter, 0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_dense
