"""``Operator.propagate``, the one propagation of every route, against the
per-time formula u (c q0 + V e^{theta t} V^T r) of the route's own modes.

With x = U^{-1} v = c q0 + r, each route supplies the modes V and rates
theta it propagates in: the dense reflection-sector modes mapped back to
the grid (d = 1), the tensor basis (x)Q_j of the per-axis factors (a W that
is a sum over axes) and the Ritz vectors of the Krylov space of r (any
other W).  The blocked propagation evaluates BLOCK_VALUES // n times per
exp and product; these tests hold it to the formula evaluated one time at
a time, within 1e-13 ||U^{-1} v|| max u (a bound set from the float64
rounding of the products, not from a measured error), for one time, for a
time count that is not a multiple of the block, and for T = 0.
"""

import math

import numpy as np
import pytest

import torusfp as tf
from torusfp import generator
from torusfp.generator import BLOCK_VALUES, KRYLOV_RTOL

from conftest import small_mlp

#: (potential, lattice) of each route, and its backend
ROUTES = {
    "dense-two-sectors": (tf.cosine_potential(2.0, 1, 1.0), tf.make_lattice(1, 4, 1.0), "dense"),
    "dense-one-sector": (tf.mlp_potential(small_mlp(seed=3)), tf.make_lattice(1, 6, 1.0), "dense"),
    "separable": (tf.cosine_potential(2.0, 2, 1.0), tf.make_lattice(2, 4, 1.0), "separable"),
    "matrix-free": (tf.mlp_potential(small_mlp(d=2, seed=5)), tf.make_lattice(2, 4, 1.0), "matrix-free"),
}


def route_modes(op, x, r, t_max):
    """The modes V (columns, grid basis) and rates theta the route
    propagates r = x - c q0 in, computed here from its parts."""
    if isinstance(op, generator.MatrixFreeOperator):
        r0 = np.linalg.norm(r)
        tol = KRYLOV_RTOL * np.linalg.norm(x) / r0
        basis, theta, S, _, _ = generator._polynomial_krylov(op, op.kernel_vector(), r / r0, t_max, tol)
        return basis.T @ S, theta
    if isinstance(op, generator.SeparableOperator):
        vectors, total = op._separable
        V = vectors[0]
        for Q in vectors[1:]:
            V = np.kron(V, Q)
        theta = -total.reshape(-1)
        theta[0] = 0.0
        return V, theta
    columns, rates = [], []
    for sector, values, vectors in op._block_modes():
        fold = np.array([generator._fold(sector, e) for e in np.eye(op.size)]).T  # fold x = fold @ x
        columns.append(fold.T @ vectors)
        rates.append(values)
    return np.hstack(columns), np.concatenate(rates)


def per_time(op, v, times):
    """u (c q0 + V e^{theta t} V^T r), one time at a time."""
    u, q0 = op.u_diag, op.kernel_vector()
    x = v / u
    c = q0 @ x
    r = x - c * q0
    V, theta = route_modes(op, x, r, float(max(times)))
    a = V.T @ r
    return np.array([u * (c * q0 + V @ (np.exp(theta * t) * a)) for t in times])


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("grid", ["one-time", "ragged-blocks", "T0"])
def test_blocked_propagation_matches_the_per_time_formula(route, grid):
    E, lattice, backend = ROUTES[route]
    op = tf.build_generator(E, lattice)
    assert op.health["backend"] == backend
    rows = BLOCK_VALUES // op.size
    T = tf.choose_T(1.0 / op.spectral_gap, op.potential.diameter, 0.05)
    times = {
        "one-time": np.array([T / 3]),
        "ragged-blocks": np.linspace(0.0, T, 2 * rows + 3),
        "T0": np.zeros(1),
    }[grid]
    assert grid != "ragged-blocks" or len(times) % rows
    v = np.random.default_rng(2).standard_normal(op.size) + 2.0
    states, _ = op.propagate(v, times)
    want = per_time(op, v, times)
    tol = 1e-13 * np.linalg.norm(v / op.u_diag) * op.u_diag.max()
    assert states.shape == want.shape
    assert np.abs(states - want).max() <= tol
    if grid == "T0":
        assert np.abs(states[0] - v).max() <= tol


def test_a_long_propagation_takes_one_exp_per_block_and_sector(monkeypatch):
    # 200000 times at N = 4: the two sectors each take ceil(200000 / rows)
    # exps of a (times x modes) block, not one per time
    op = tf.build_generator(*ROUTES["dense-two-sectors"][:2])
    times = np.linspace(0.0, 1.0, 200000)
    calls = []
    exp = np.exp

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    states, _ = op.propagate(np.ones(op.size), times)
    monkeypatch.undo()
    rows = BLOCK_VALUES // op.size
    assert len(calls) == 2 * math.ceil(len(times) / rows)
    assert sorted({shape[1] for shape in calls}) == [op.lattice.N, op.lattice.N + 1]
    assert all(shape[0] <= rows for shape in calls)
    assert np.abs(states.sum(axis=1) - op.size).max() <= 1e-12 * op.size
