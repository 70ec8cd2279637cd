"""The generator at d >= 2, on both of its routes, against dense oracles.

The gap, from the per-axis factors for the cosine potential (a sum over
axes) and from Lanczos for an MLP potential, is checked against eigvalsh of
the assembled L' and against the singular values of the stacked B_j; the
propagation on both routes, and the d = 1 propagation in reflection
sectors, against scipy.linalg.expm, over the property-test range of
tests/test_properties.py.  Each tolerance is fixed from the conditioning of
the oracle before the run: a relative term of 1e-10 plus the oracle's own
rounding.  Past that range the gap of the cosine potential is checked
against the d = 1 gap, and past delta_W = 40 against the singular values.
The non-separable "coupled" potential, on which the separable
preconditioner is inexact, is checked against eigvalsh and the eigh
exponential.  Further tests pin the health numbers, the independence of the
time grid and the memory bound.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torusfp as tf
from torusfp.generator import (
    GAP_BLOCK_ITERATIONS,
    GAP_RTOL,
    KRYLOV_RTOL,
    DenseOperator,
    MatrixFreeOperator,
    SeparableOperator,
    _lanczos,
    _random_start,
    _top_ritz,
)

from conftest import coupled_potential, small_mlp
from oracles import derivative_matrix

EPS = np.finfo(float).eps
_MAX_N = {1: 149, 2: 8, 3: 2}  # at most 299, 289 and 125 nodes
_SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def cases(draw, lowest_d=2):
    """(d, N, l, z, halve) on a lattice of d >= lowest_d, for a cosine
    potential, or for z None an MLP one."""
    d = draw(st.integers(lowest_d, 3))
    N = draw(st.integers(1, _MAX_N[d]))
    z = draw(st.none() | st.floats(0.0, 8.0))
    return d, N, draw(st.floats(0.05, 10.0)), z, draw(st.booleans())


def _build(d, N, l, z, halve):
    """The cosine generator, or for z None that of an MLP potential, which is
    not bitwise even and takes one sector."""
    E = tf.mlp_potential(small_mlp(d, seed=3, l=l)) if z is None else tf.cosine_potential(z, d, l)
    return tf.build_generator(E, tf.make_lattice(d, N, l), halve=halve)


def _svd_gap(op):
    """sqrt(gap) is the second-smallest singular value of the stacked B_j."""
    u = op.u_diag
    blocks = [derivative_matrix(op.lattice, j) * u[:, None] / u[None, :] for j in range(op.lattice.d)]
    return np.linalg.svd(np.vstack(blocks), compute_uv=False)[-2] ** 2


@_SETTINGS
@given(cases())
# a steep cosine, whose gap the top Ritz value of a Lanczos run, without the
# Rayleigh quotient of its vector, missed against the singular-value oracle
@example((2, 6, 0.763, 7.11, False))
@example((2, 6, 0.763, None, False))
# the route of each kind of potential: an MLP at d = 1 is dense, in one
# sector, and a cosine at d = 3 a sum over axes
@example((1, 20, 1.0, None, True))
@example((3, 2, 1.0, 4.0, True))
def test_lanczos_gap_matches_dense_oracles(case):
    op = _build(*case)
    d, separable = case[0], case[3] is not None
    backend = "dense" if d == 1 else "separable" if separable else "matrix-free"
    assert op.health["backend"] == backend
    # the exact class: MatrixFreeOperator is a SeparableOperator too
    route = {"dense": DenseOperator, "separable": SeparableOperator, "matrix-free": MatrixFreeOperator}[backend]
    assert type(op) is route
    if d == 1:
        assert op.health["dense_sectors"] == (2 if separable else 1)
    mu = np.linalg.eigvalsh(-op.symmetrized)
    gap, norm = mu[1], mu[-1]
    # eigvalsh is backward stable: its gap carries an error of about eps ||L'||
    assert abs(op.spectral_gap - gap) <= (1e-10 + 4 * EPS * norm / gap) * gap
    # a singular value of the stacked B_j carries eps ||B|| = eps sqrt(||L'||)
    gap_svd = _svd_gap(op)
    assert abs(op.spectral_gap - gap_svd) <= (1e-10 + 4 * EPS * np.sqrt(norm / gap_svd)) * gap_svd

    if backend == "matrix-free":
        health = op.health
        assert 0 < health["lanczos_steps"] <= op.size - 1
        converged = health["gap_residual"] <= max(2 * GAP_RTOL * gap, 2 * EPS * norm)
        assert converged or health["lanczos_steps"] == op.size - 1


@_SETTINGS
@given(cases(lowest_d=1), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
# a stop rule on the residual at the final time alone ends these after 8
# steps, with the grid-frame state off by 8e-2 and by 2.1 relative
@example((2, 8, 8.07, 6.43, False), 0.01, 0)
@example((3, 3, 0.134, 5.91, False), 0.01, 0)
# d = 1: the one sector of an MLP potential, and a stiff cosine whose
# lattice gap is a spurious slow mode, 0.13 where the resolved gap is 293
@example((1, 20, 1.0, None, True), 1.0, 0)
@example((1, 25, 1.0, 16.0, True), 1.0, 0)
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
    if op.lattice.d == 1 or op.potential.separable:
        assert health == {}
    else:
        assert health["krylov_error"] <= KRYLOV_RTOL or health["krylov_steps"] == op.size - 1


def test_lanczos_keeps_the_kernel_out_past_300_steps():
    # a long run, from the pseudo-random start (the block start of the gap
    # needs fewer steps): without q0 projected out inside the iteration,
    # rounding brings the kernel back and the gap collapses to about 0.  The
    # cosine potential is separable, so the exact gap is that of the d = 1
    # generator.
    op = _build(2, 25, 1.0, 8.0, True)
    q0 = op.kernel_vector()

    def converged(alpha, beta):
        theta, _, residual = _top_ritz(alpha, beta)
        return residual <= max(GAP_RTOL * abs(theta), EPS * np.abs(alpha).max())

    _, alpha, beta, _ = _lanczos(op.apply, q0, _random_start(q0), converged)
    assert len(alpha) > 300
    line = _build(1, 25, 1.0, 8.0, True)
    gap, norm = line.spectral_gap, -line.eigenvalues[-1]
    assert abs(-_top_ritz(alpha, beta)[0] - gap) <= (1e-10 + 4 * EPS * norm / gap) * gap


@pytest.mark.parametrize("z", [1.0, 4.0, 8.0])
@pytest.mark.parametrize("d, N", [(2, 25), (2, 31), (3, 7)])
def test_gap_matches_the_separable_oracle_past_the_property_range(d, N, z):
    # the cosine potential is separable: the gap at every d is the d = 1 gap
    op = _build(d, N, 1.0, z, True)
    line = _build(1, N, 1.0, z, True)
    assert op.health["backend"] == "separable"
    assert abs(op.spectral_gap - line.spectral_gap) <= 1e-12 * line.spectral_gap


def test_separable_route_keeps_the_gap_and_the_mass():
    # cosine at d = 2, N = 25 (the gibbs-dense-2d lattice): the gap comes
    # from the per-axis factors, equals the d = 1 gap, and the propagation
    # in their modes conserves <1, psi> to rounding
    op = _build(2, 25, 1.0, 1.0, True)
    assert op.health == {"backend": "separable", "gap_rounding": op.health["gap_rounding"]}
    line = _build(1, 25, 1.0, 1.0, True)
    assert abs(op.spectral_gap - line.spectral_gap) <= 1e-12 * line.spectral_gap
    psi = tf.GridField(op.lattice, np.random.default_rng(4).random(op.size) + 0.5, is_real=True)
    res = tf.evolve(op, psi, tf.choose_T(1.0 / op.spectral_gap, op.potential.diameter, 0.05), snapshots=4)
    assert res.health == {}
    np.testing.assert_allclose(res.inners, res.inners[0], rtol=64 * EPS, atol=0)


@pytest.mark.parametrize("d, N", [(2, 6), (3, 2)])
def test_preconditioner_inverts_a_separable_generator(d, N):
    # the cosine potential is a sum over axes, so -L' is the sum of the
    # axis factors and P = (sigma + K)^{-1} to rounding, on a block of
    # vectors and on one
    op = _build(d, N, 1.0, 4.0, True)
    x = np.random.default_rng(1).standard_normal((2, op.size))
    want = np.linalg.solve(0.5 * np.eye(op.size) - op.symmetrized, x.T).T
    tol = 1e-12 * np.abs(want).max()
    np.testing.assert_allclose(op.precondition(x, 0.5), want, rtol=0, atol=tol)
    np.testing.assert_allclose(op.precondition(x[0], 0.5), want[0], rtol=0, atol=tol)


@pytest.mark.parametrize("z", [20.0, 24.0, 30.0])
def test_gap_matches_the_svd_oracle_past_delta_w_40(z):
    # delta_W = 2 z: here the gap sits below the rounding of L' products,
    # eps ||L'||, which Lanczos cannot resolve; the singular values of each
    # axis factor keep it to relative accuracy
    op = _build(2, 8, 1.0, z, True)
    gap_svd = _svd_gap(op)
    norm = np.linalg.eigvalsh(-op.symmetrized)[-1]
    assert abs(op.spectral_gap - gap_svd) <= (1e-10 + 4 * EPS * np.sqrt(norm / gap_svd)) * gap_svd


@pytest.mark.parametrize("z, c", [(1.0, 0.5), (4.0, 0.5), (8.0, 1.0)])
def test_non_separable_gap_and_propagation_match_dense_oracles(z, c):
    op = tf.build_generator(coupled_potential(z, c), tf.make_lattice(2, 12, 1.0))
    assert not np.allclose(op.W.values, op.W.values[:, :1] + op.W.values[:1, :] - op.W.values[0, 0])
    mu, vectors = np.linalg.eigh(-op.symmetrized)
    assert abs(op.spectral_gap - mu[1]) <= 1e-9 * mu[1]

    T = tf.choose_T(1.0 / op.spectral_gap, op.potential.diameter, 0.05)
    times = np.array([0.0, T / 3, T])
    v = np.ones(op.size)
    states, health = op.propagate(v, times)
    assert op.health["backend"] == "matrix-free"
    x = v / op.u_diag
    modal = vectors.T @ x
    for t, state in zip(times, states):
        reference = vectors @ (np.exp(-mu * t) * modal)
        assert np.linalg.norm(state / op.u_diag - reference) <= 1e-10 * np.linalg.norm(x)
    assert health["krylov_error"] <= KRYLOV_RTOL


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
    # and the gap's own run, on a potential that is not a sum over axes
    assert _build(2, 25, 1.0, None, True).health["lanczos_reorth_steps"] == 0


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
    # on both routes: the separable modes and the Krylov space of an MLP
    for z in (2.0, None):
        op = _build(2, 8, 1.0, z, True)
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
    assert line.health == {
        "backend": "dense",
        "dense_sectors": 2,
        "gap_rounding": EPS * -line.eigenvalues[-1] / line.spectral_gap,
    }
    assert tf.evolve(line, tf.constant_field(line.lattice), 0.1).health == {}

    cosine = _build(2, 8, 1.0, 1.0, True)
    total = cosine._separable[1]
    assert cosine.health == {
        "backend": "separable",
        "gap_rounding": EPS * total.max() / cosine.spectral_gap,
    }
    assert tf.evolve(cosine, tf.constant_field(cosine.lattice), 0.1).health == {}

    op = _build(2, 8, 1.0, None, True)
    assert set(op.health) == {
        "backend",
        "gap_block_iterations",
        "lanczos_steps",
        "gap_residual",
        "lanczos_reorth_steps",
        "gap_rounding",
    }
    assert op.health["backend"] == "matrix-free"
    assert 0 < op.health["gap_block_iterations"] <= GAP_BLOCK_ITERATIONS
    res = tf.evolve(op, tf.constant_field(op.lattice), 0.1)
    assert set(res.health) == {"krylov_steps", "krylov_error", "krylov_reorth_steps"}
    assert 0 < res.health["krylov_steps"] < op.size
    assert 0 <= res.health["krylov_error"] <= KRYLOV_RTOL
    # a stationary input has nothing to advance
    still = tf.evolve(op, tf.GridField(op.lattice, op.stationary, is_real=True), 0.1)
    assert still.health["krylov_steps"] == 0
    np.testing.assert_allclose(still.final, op.stationary, rtol=1e-12)


def test_gap_rounding_flags_a_gap_lost_to_rounding():
    # eps ||L'|| / gap, with ||L'|| the largest |alpha| of the gap's Lanczos
    # run: coupled c=1 z=14 (delta_W = 30) puts the gap off by a factor 1e3
    # against the singular values; at the gibbs-dense-2d settings, with
    # ||L'|| the largest sum of the per-axis eigenvalues, it stays small
    lost = tf.build_generator(coupled_potential(14.0, 1.0), tf.make_lattice(2, 8, 1.0))
    assert lost.health["gap_rounding"] >= 1
    assert lost.spectral_gap > 2 * _svd_gap(lost)
    kept = _build(2, 25, 1.0, 1.0, True)
    assert kept.health["gap_rounding"] <= 1e-11


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
