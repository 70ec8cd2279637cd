import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torusfp as tf
from torusfp.errors import PreconditionError, SizeError
from torusfp import generator, spectral
from torusfp.generator import NORM_RTOL, DenseOperator, Operator, SeparableOperator, spectrum_to_csv
from torusfp.spectral import FFT_AXIS_POINTS, fourier_derivative, laplacian

from conftest import coupled_potential, random_band_field, small_mlp
from oracles import derivative_matrix, generator_matrix, kronecker_symmetrized


def composed_generator(op):
    """Reference assembly L = sum_j D_j diag(e^{-W}) D_j diag(e^{W})."""
    w = op.W.flat
    L = np.zeros((op.size, op.size))
    for j in range(op.lattice.d):
        D = derivative_matrix(op.lattice, j)
        L += D @ (np.exp(-w)[:, None] * D) * np.exp(w)[None, :]
    return L


def expanded_generator_matrix(op):
    """The generator re-derived through the product rule, avoiding derivatives
    of W itself:

        L f = (e^{2W} |grad~ e^{-W}|^2 - e^{W} lap~ e^{-W}) f
              - e^{W} grad~ e^{-W} . grad~ f  +  lap~ f.

    Agrees with the composed route up to spectral aliasing of e^{+-W}.
    """
    lat = op.lattice
    w = op.W.flat
    g_field = tf.GridField(lat, np.exp(-op.W.values), is_real=True)
    grads = [fourier_derivative(g_field, axis=j).flat for j in range(lat.d)]
    lap_g = laplacian(g_field).flat

    diag_term = np.exp(2 * w) * sum(gj**2 for gj in grads) - np.exp(w) * lap_g
    B = np.diag(diag_term)
    for j in range(lat.d):
        D = derivative_matrix(lat, j)
        B -= (np.exp(w) * grads[j])[:, None] * D
        B += D @ D
    return B


def test_zero_potential_is_spectral_laplacian():
    lat = tf.make_lattice(1, 4, 1.0)
    op = tf.build_generator(tf.zero_potential(1, 1.0), lat)
    lap = derivative_matrix(lat, 0, order=2)
    assert np.abs(generator_matrix(op) - lap).max() <= 1e-10 * np.abs(lap).max()


def test_three_point_laplacian_spectrum():
    # d=1, N=1, l=2pi: multipliers -k^2 for k in {0, +-1}
    lat = tf.make_lattice(1, 1, 2 * np.pi)
    op = tf.build_generator(tf.zero_potential(1, 2 * np.pi), lat)
    np.testing.assert_allclose(np.sort(op.eigenvalues), [-1.0, -1.0, 0.0], atol=1e-12)


def test_kernel_is_gibbs_direction():
    E = tf.cosine_potential(1.0, 1, 2 * np.pi)
    lat = tf.make_lattice(1, 12, 2 * np.pi)
    for halve in (True, False):
        op = tf.build_generator(E, lat, halve=halve)
        # L annihilates e^{-W}
        resid = generator_matrix(op) @ op.stationary
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(generator_matrix(op), 2)
        # and the L' kernel is e^{-W/2}
        ref = np.exp(-op.W.flat / 2)
        ref /= np.linalg.norm(ref)
        assert abs(op.kernel_vector() @ ref) >= 1 - 1e-8


def test_symmetrization_and_spectrum_structure():
    for E, lat in [
        (tf.cosine_potential(2.0, 1, 1.0), tf.make_lattice(1, 16, 1.0)),
        (tf.cosine_potential(1.0, 2, 1.0), tf.make_lattice(2, 6, 1.0)),
        (tf.invcos_potential(4.0, 1.0), tf.make_lattice(1, 16, 1.0)),
    ]:
        op = tf.build_generator(E, lat)
        Lp = op.symmetrized
        assert np.linalg.norm(Lp - Lp.T) <= 1e-8 * np.linalg.norm(Lp)
        assert op.eigenvalues[0] == 0.0
        assert np.sum(op.eigenvalues == 0.0) == 1
        assert op.eigenvalues[1] < 0


@pytest.mark.parametrize("z, N, l", [(1.0, 200, 0.05), (8.0, 127, 0.01)])
def test_kernel_eigenvalue_is_exactly_zero(z, N, l):
    # large ||L'||: an absolute clip of the computed kernel eigenvalue misses it
    op = tf.build_generator(tf.cosine_potential(z, 1, l), tf.make_lattice(1, N, l))
    assert op.eigenvalues[0] == 0.0
    assert np.count_nonzero(op.eigenvalues == 0.0) == 1
    assert op.eigenvalues[1] < 0


@pytest.mark.parametrize(
    "E, N, halve",
    [
        (tf.invcos_potential(4.0, 1.0), 63, True),
        (tf.cosine_potential(8.0, 1, 0.05), 127, False),
        (tf.cosine_potential(1.0, 1, 2 * np.pi), 1, True),
    ],
)
def test_dense_spectrum_matches_eigh_oracle(E, N, halve):
    # the d = 1 spectrum is a values-only eigvalsh: it must agree with the
    # eigenvalues of a full eigh of L', with the kernel pinned at 0
    op = tf.build_generator(E, tf.make_lattice(1, N, E.l), halve=halve)
    oracle = -np.linalg.eigh(-op.symmetrized)[0]
    ev = op.eigenvalues
    assert np.abs(ev - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert ev[0] == 0.0
    assert op.spectral_gap == -ev[1]
    sector_modes_hold(op)


def sector_modes_hold(op):
    """The modes a d = 1 propagation streams: each block's are descending and
    orthonormal in the block's own basis and decompose the block itself,
    rebuilt here, and together they hold the spectrum; the first block holds
    the kernel, pinned to 0 and to the folded q0 = e^{-W/2} / ||e^{-W/2}||,
    whose norm survives the fold."""
    scale = abs(op.eigenvalues[-1])
    modes = list(op._block_modes())
    values = np.sort(np.concatenate([mu for _, mu, _ in modes]))[::-1]
    assert np.abs(values - op.eigenvalues).max() <= 1e-12 * scale
    W = op.W.values
    sectors = [0, 1] if np.array_equal(W, W[::-1]) else [None]
    assert [sector for sector, _, _ in modes] == sectors
    for sector, values, vectors in modes:
        if sector is None:
            block = op.symmetrized
        else:
            block = generator._sector_block(op.u_diag, generator._half_derivative(op.lattice), sector)
        assert np.all(np.diff(values) <= 0)
        assert np.abs(vectors.T @ vectors - np.eye(len(block))).max() <= 1e-12
        assert np.abs(vectors @ (values[:, None] * vectors.T) - block).max() <= 1e-12 * scale
    sector, values, vectors = modes[0]
    assert values[0] == 0.0
    assert np.array_equal(vectors[:, 0], generator._fold(sector, op.kernel_vector()))
    assert abs(np.linalg.norm(vectors[:, 0]) - 1) <= 1e-15


def test_dense_modes_decompose_the_stored_generator_without_a_copy(monkeypatch):
    # eigh of each freshly assembled sector block itself, not of a negated
    # copy: one assembly and one eigh per block each time the modes are
    # streamed, and none is kept
    E = tf.cosine_potential(2.0, 1, 1.0)
    lat = tf.make_lattice(1, 20, 1.0)
    op = tf.build_generator(E, lat)
    eigh, assemble = np.linalg.eigh, generator._sector_block
    seen, blocks = [], []

    def counted(a, *args, **kwargs):
        seen.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(generator, "_sector_block", lambda *a: blocks.append(assemble(*a)) or blocks[-1])
    assert [sector for sector, _, _ in op._block_modes()] == [0, 1]
    assert len(seen) == 2 and len(blocks) == 2 and all(a is block for a, block in zip(seen, blocks))
    sector_modes_hold(op)
    assert len(seen) == 4 and len(blocks) == 4 + 2  # sector_modes_hold rebuilds each block once


def test_d1_build_holds_no_block_and_peaks_below_two_and_a_half_blocks():
    # each sector block is assembled, solved and freed before the next: the
    # build peaks at about two blocks (the block and its scaled D_oe, or the
    # block and eigvalsh's copy) and returns holding none
    E, lat = tf.cosine_potential(1.0, 1, 1.0), tf.make_lattice(1, 255, 1.0)
    tf.build_generator(E, lat)  # fills the per-lattice caches
    block = (lat.N + 1) ** 2 * 8
    tracemalloc.start()
    try:
        op = tf.build_generator(E, lat)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.health["dense_sectors"] == 2
    assert held < block / 10 and peak < 2.5 * block


def kept_block_spectrum(op):
    """The spectrum and the modes of a bitwise-even d = 1 operator computed
    the way one that assembled both sector blocks up front and kept them and
    their modes did, as a bitwise oracle: each block from D_oe or -D_oe^T
    scaled out of place, and eigvalsh and eigh of that same block."""
    N, u = op.lattice.N, op.u_diag
    parts, modes = [], []
    for odd in (0, 1):
        half = generator._half_derivative(op.lattice)
        B = (-half.T if odd else half) * u[N + 1 - odd :][:, None]
        B /= u[N + odd :][None, :]
        block = -(B.T @ B)
        parts.append(np.linalg.eigvalsh(block)[::-1])
        mu, Q = np.linalg.eigh(block)
        values, vectors = mu[::-1].copy(), np.ascontiguousarray(Q[:, ::-1])
        if not odd:
            q0 = generator._fold(0, op.kernel_vector())
            values[0] = 0.0
            vectors[:, 0] = q0
            vectors[:, 1:] -= np.outer(q0, q0 @ vectors[:, 1:])
        modes.append((odd, values, vectors))
    return generator._descending(np.concatenate(parts)), modes


@pytest.mark.parametrize(
    "E",
    [tf.cosine_potential(1.0, 1, 1.0), tf.invcos_potential(4.0, 1.0), tf.mlp_potential(small_mlp(seed=3))],
    ids=["cosine", "invcos", "mlp"],
)
def test_blocks_assembled_on_use_keep_the_spectrum_and_modes_bitwise(E):
    op = tf.build_generator(E, tf.make_lattice(1, 300, 1.0))
    if op.health["dense_sectors"] == 2:
        ev, modes = kept_block_spectrum(op)
    else:
        ev, values, vectors = whole_spectrum(op)
        modes = [(None, values, vectors)]
    assert np.array_equal(op.eigenvalues, ev)
    streamed = list(op._block_modes())
    assert len(streamed) == len(modes)
    for (sector, values, vectors), (same, want_values, want_vectors) in zip(streamed, modes):
        assert sector == same
        assert np.array_equal(values, want_values) and np.array_equal(vectors, want_vectors)


def test_dense_propagation_decomposes_each_block_on_every_call(monkeypatch):
    E = tf.cosine_potential(2.0, 1, 1.0)
    lat = tf.make_lattice(1, 20, 1.0)
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    op = tf.build_generator(E, lat)
    assert calls == []  # the gap and the spectrum need no eigenvectors
    ones = tf.GridField(lat, np.ones(lat.shape), is_real=True)
    first = tf.evolve(op, ones, 0.1, snapshots=4)
    again = tf.evolve(op, ones, 0.1, snapshots=4)
    longer, _ = op.propagate(ones.flat, np.array([0.0, 0.5, 1.0]))
    assert calls == [lat.N + 1, lat.N] * 3  # the even and the odd block, each propagation
    assert np.array_equal(first.states, again.states)
    assert np.abs(longer.sum(axis=1) - lat.size).max() <= 1e-12 * lat.size


def test_d1_propagation_keeps_only_the_modes():
    # the modes it keeps are now none: after a build and a propagation the
    # operator holds nothing beyond the returned states
    E, lat = tf.cosine_potential(1.0, 1, 1.0), tf.make_lattice(1, 255, 1.0)
    tf.build_generator(E, lat)  # fills the per-lattice caches
    block = (lat.N + 1) ** 2 * 8
    tracemalloc.start()
    try:
        op = tf.build_generator(E, lat)
        out, _ = op.propagate(np.ones(op.size), np.array([0.0, 0.1]))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not hasattr(op, "_modes")
    assert held - out.nbytes < block / 10


def test_d1_propagation_holds_no_n_by_n_array():
    # each block's modes are applied at every time and dropped before the
    # next block is assembled, and the sectors unfold in place into the
    # returned states: the propagation peaks at those states plus about two
    # blocks (a block and its eigenvectors, or the eigenvectors and their
    # reversed copy) and leaves the operator holding none of them
    for N, count in [(255, 400), (1023, 2)]:
        E, lat = tf.cosine_potential(1.0, 1, 1.0), tf.make_lattice(1, N, 1.0)
        tf.build_generator(E, lat)  # fills the per-lattice caches
        block = (N + 1) ** 2 * 8
        tracemalloc.start()
        try:
            op = tf.build_generator(E, lat)
            tracemalloc.reset_peak()
            out, _ = op.propagate(np.ones(op.size), np.linspace(0.0, 0.1, count))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - out.nbytes < block / 10 and peak - out.nbytes < 2.5 * block


@pytest.mark.parametrize("halve", [True, False])
@pytest.mark.parametrize(
    "E, N",
    [
        (tf.cosine_potential(2.0, 1, 1.0), 24),
        (tf.mlp_potential(small_mlp(d=2, seed=5)), 6),
        (tf.cosine_potential(1.0, 3, 1.0), 3),
    ],
)
def test_generator_matches_composed_reference(E, N, halve):
    op = tf.build_generator(E, tf.make_lattice(E.d, N, E.l), halve=halve)
    ref = composed_generator(op)
    assert np.linalg.norm(generator_matrix(op) - ref) <= 1e-12 * np.linalg.norm(ref)


_MAX_N = {1: 149, 2: 8, 3: 2}  # at most 299, 289 and 125 nodes


@st.composite
def generator_cases(draw):
    d = draw(st.integers(1, 3))
    N = draw(st.integers(1, _MAX_N[d]))
    l = draw(st.floats(0.05, 10.0))
    z = draw(st.floats(0.0, 8.0))
    return tf.cosine_potential(z, d, l), tf.make_lattice(d, N, l), draw(st.booleans())


def eigenvectors(op):
    """The eigenvectors of L', as columns in the order of op.eigenvalues: an
    eigh of the assembled L', computed here as a test oracle.  Neither
    backend stores them."""
    return np.linalg.eigh(-op.symmetrized)[1]


@settings(max_examples=40, deadline=None)
@given(generator_cases())
# the route of each kind of potential: an MLP at d = 1 is dense, in one
# sector, and a cosine at d = 3 a sum over axes
@example((tf.mlp_potential(small_mlp(seed=3)), tf.make_lattice(1, 20, 1.0), True))
@example((tf.cosine_potential(2.0, 3, 1.0), tf.make_lattice(3, 2, 1.0), False))
def test_generator_structure_property(case):
    E, lat, halve = case
    op = tf.build_generator(E, lat, halve=halve)
    assert op.health["backend"] == ("separable" if lat.d >= 2 else "dense")
    # the exact class: MatrixFreeOperator is a SeparableOperator too
    assert type(op) is (SeparableOperator if lat.d >= 2 else DenseOperator)
    if lat.d == 1:
        assert op.health["dense_sectors"] == (1 if E.name.startswith("mlp") else 2)
    sym = op.symmetrized
    assert np.array_equal(sym, sym.T)
    ev = op.eigenvalues
    assert np.all(np.diff(ev) <= 0)
    assert ev[0] == 0.0 and np.count_nonzero(ev == 0.0) == 1
    L = generator_matrix(op)
    assert np.abs(L.sum(axis=0)).max() <= 1e-9 * np.linalg.norm(L, 2)
    ref = np.exp(-op.W.flat / 2)
    assert op.kernel_vector() @ ref >= (1 - 1e-8) * np.linalg.norm(ref)
    # orthonormal eigenvectors: what makes kappa(U Q) = max(u) / min(u)
    Q = eigenvectors(op)
    assert np.abs(Q.T @ Q - np.eye(op.size)).max() <= 1e-12
    assert abs(Q[:, 0] @ ref) >= (1 - 1e-8) * np.linalg.norm(ref)


@st.composite
def even_cases(draw):
    """Potentials whose grid W equals its own flip along every axis, bitwise:
    cosine with z in [0, 8], invcos (d = 1) and zero."""
    kind = draw(st.sampled_from(["cosine", "invcos", "zero"]))
    d = 1 if kind == "invcos" else draw(st.integers(1, 3))
    lat = tf.make_lattice(d, draw(st.integers(1, _MAX_N[d])), draw(st.floats(0.05, 10.0)))
    if kind == "cosine":
        E = tf.cosine_potential(draw(st.floats(0.0, 8.0)), d, lat.l)
    elif kind == "invcos":
        E = tf.invcos_potential(draw(st.floats(1.5, 8.0)), lat.l)
    else:
        E = tf.zero_potential(d, lat.l)
    return E, lat, draw(st.booleans()), draw(st.floats(0.0, 1.0, allow_subnormal=False))


@settings(max_examples=40, deadline=None)
@given(even_cases())
def test_reflection_sectors_reproduce_the_whole_generator(case):
    E, lat, halve, t_frac = case
    op = tf.build_generator(E, lat, halve=halve)
    ev = op.eigenvalues
    # d = 1 splits into its two reflection sectors; at d >= 2 every drawn W
    # is a sum over axes, whose spectrum is read off the per-axis factors
    if lat.d == 1:
        assert op.health["dense_sectors"] == 2
    else:
        assert "dense_sectors" not in op.health
    oracle = -np.linalg.eigh(-op.symmetrized)[0]
    scale = np.abs(oracle).max()
    assert np.abs(ev - oracle).max() <= 1e-12 * scale
    assert ev[0] == 0.0 and np.all(np.diff(ev) <= 0)
    if lat.d == 1:
        # the sector modes the propagation runs on, and mass under it,
        # within the documented tolerance of NormTraceReport.inner_ok
        sector_modes_hold(op)
        T = t_frac * tf.choose_T(1.0 / op.spectral_gap, E.diameter, 0.05)
        res = tf.evolve(op, tf.constant_field(lat), T, snapshots=4)
        assert np.abs(res.inners - op.size).max() <= 1e-9 * op.size


def whole_spectrum(op):
    """The one-sector computation, as a bitwise oracle: a values-only
    eigvalsh and an eigh of the whole L', descending, the kernel pinned and
    projected out of the other modes."""
    ev = np.linalg.eigvalsh(op.symmetrized)[::-1].copy()
    ev[0] = 0.0
    mu, Q = np.linalg.eigh(op.symmetrized)
    values, vectors = mu[::-1].copy(), np.ascontiguousarray(Q[:, ::-1])
    values[0] = 0.0
    q0 = op.kernel_vector()
    vectors[:, 0] = q0
    vectors[:, 1:] -= np.outer(q0, q0 @ vectors[:, 1:])
    return ev, values, vectors


def modal_propagation(op, v, times):
    """Rows e^{L t} v, mode by mode from :func:`whole_spectrum`: the
    one-sector propagation of a few times, one block, as a bitwise oracle.
    The kernel part c q0 of x = U^{-1} v is kept exactly and the rest taken
    to the modes, decayed by one exp of the (times x rates) outer product
    and mapped back by one product."""
    _, values, vectors = whole_spectrum(op)
    u = op.u_diag
    x = v / u
    q0 = op.kernel_vector()
    c = q0 @ x
    modes = np.exp(np.outer(times, values)) * (vectors.T @ (x - c * q0))
    return (c * q0 + modes @ vectors.T) * u


def off_by_one_ulp():
    """The d = 1 cosine generator with W moved by one ulp at the node n = N,
    so that W is even to rounding but not bitwise."""
    op = tf.build_generator(tf.cosine_potential(2.0, 1, 1.0), tf.make_lattice(1, 20, 1.0))
    w = op.W.values.copy()
    w[-1] = np.nextafter(w[-1], np.inf)
    assert not np.array_equal(w, w[::-1]) and np.abs(w - w[::-1]).max() == np.spacing(w[0])
    return DenseOperator(op.lattice, op.potential, tf.GridField(op.lattice, w, is_real=True), float(w.max() - w.min()))


@pytest.mark.parametrize(
    "make",
    [
        lambda: tf.build_generator(tf.mlp_potential(small_mlp(seed=3)), tf.make_lattice(1, 20, 1.0)),
        lambda: tf.build_generator(tf.mlp_potential(small_mlp(d=2, seed=5)), tf.make_lattice(2, 4, 1.0)),
        off_by_one_ulp,
    ],
    ids=["mlp-d1", "mlp-d2", "cosine-one-ulp-off"],
)
def test_a_potential_that_is_not_bitwise_even_takes_one_sector(make):
    op = make()
    ev, whole = op.eigenvalues, whole_spectrum(op)[0]
    if op.backend == "matrix-free":
        # row 1 is pinned to the Lanczos gap, every other row is the block's
        assert ev[1] == -op.spectral_gap
        ev, whole = np.delete(ev, 1), np.delete(whole, 1)
    assert np.array_equal(ev, whole)
    assert op.health["dense_sectors"] == 1
    if op.lattice.d == 1:
        v = np.random.default_rng(0).standard_normal(op.size) + 2.0
        times = np.array([0.0, 0.1, 1.0])
        assert np.array_equal(op.propagate(v, times)[0], modal_propagation(op, v, times))


def unscaled_u(E, lattice):
    """U = e^{-W/2} of W = E/2 on the lattice, with no gap solved."""
    return np.exp(-tf.discretize(E, lattice).flat / 4)


@pytest.mark.parametrize(
    "E, d, N",
    [(coupled_potential(1.0, 0.5), 2, 8), (coupled_potential(1.0, 0.5), 2, 25), (tf.mlp_potential(small_mlp(3)), 3, 4)],
    ids=["coupled-N8", "coupled-N25", "mlp-d3"],
)
def test_line_assembly_matches_the_kronecker_reference(E, d, N):
    lattice = tf.make_lattice(d, N, 1.0)
    u = unscaled_u(E, lattice)
    L, ref = generator._dense_symmetrized(lattice, u), kronecker_symmetrized(lattice, u)
    assert np.abs(L - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(L, L.T)


@pytest.mark.parametrize(
    "make",
    [lambda: tf.build_generator(tf.mlp_potential(small_mlp(1)), tf.make_lattice(1, 200, 1.0)), off_by_one_ulp],
    ids=["mlp-d1", "cosine-one-ulp-off"],
)
def test_line_assembly_at_d1_is_the_kronecker_arithmetic_bitwise(make):
    # at d = 1 the one line is the whole axis: the same products in the same order
    op = make()
    L = generator._dense_symmetrized(op.lattice, op.u_diag)
    ref = kronecker_symmetrized(op.lattice, op.u_diag)
    assert L.tobytes() == ref.tobytes() and np.array_equal(L, L.T)
    assert op.eigenvalues.tobytes() == generator._descending(np.linalg.eigvalsh(ref)[::-1]).tobytes()


@pytest.mark.parametrize(
    "E, d, N, limit",
    [(coupled_potential(1.0, 0.5), 2, 25, lambda n: 1.1 * 8 * n * n), (tf.mlp_potential(small_mlp(1)), 1, 1023, lambda n: 2**26)],
    ids=["coupled-d2", "mlp-d1"],
)
def test_line_assembly_holds_L_alone(E, d, N, limit):
    # no n x n derivative matrix: at d >= 2 L' is the only n x n array (the
    # Kronecker product peaked at 3.0 times it), at d = 1 L' and the scaled
    # axis matrix (64 MiB at N = 1023, as before)
    lattice = tf.make_lattice(d, N, 1.0)
    u = unscaled_u(E, lattice)
    tracemalloc.start()
    try:
        L = generator._dense_symmetrized(lattice, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L.shape == (lattice.size, lattice.size)
    assert peak <= limit(lattice.size)


def test_d2_sector_spectrum_holds_one_block_alone():
    # the coupled W is even under x -> -x: its spectrum assembles and solves
    # one sector block at a time, the even one (c + 1)^2 for the centre c,
    # about a quarter of L', and a line's work arrays beside it
    op = tf.build_generator(coupled_potential(1.0, 0.5), tf.make_lattice(2, 25, 1.0))
    c = op.size // 2
    tracemalloc.start()
    try:
        op.eigenvalues
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.health["dense_sectors"] == 2
    assert peak <= 8 * (c + 1) ** 2 + 2**21


def test_kernel_vector_of_a_potential_far_below_zero_is_finite():
    # W near -800 puts e^{-W/2} near e^{400}, whose square overflows float64;
    # the kernel vector is still the unit vector along e^{-W/2}
    cosine = tf.cosine_potential(1.0, 1, 1.0)
    low = tf.EnergyPotential(l=1.0, d=1, diameter=2.0, axes=[lambda x: cosine.axes[0](x) - 1600.0], name="low")
    op = tf.build_generator(low, tf.make_lattice(1, 8, 1.0))
    with np.errstate(all="raise"):
        q0 = op.kernel_vector()
    ref = np.exp(-(op.W.flat - op.W.flat.min()) / 2)
    assert np.abs(q0 - ref / np.linalg.norm(ref)).max() <= 1e-14
    assert np.linalg.norm(q0) == pytest.approx(1.0, abs=1e-15)


def test_negative_semidefinite_quadratic_form(rng):
    E = tf.cosine_potential(1.5, 1, 1.0)
    lat = tf.make_lattice(1, 12, 1.0)
    op = tf.build_generator(E, lat)
    sym = op.symmetrized
    for _ in range(20):
        f = rng.standard_normal(op.size)
        assert f @ sym @ f <= 1e-9 * f @ f
    # equality only along e^{-W/2}
    ref = np.exp(-op.W.flat / 2)
    assert abs(ref @ sym @ ref) <= 1e-9 * ref @ ref


def test_left_kernel_is_ones():
    E = tf.cosine_potential(2.0, 1, 1.0)
    op = tf.build_generator(E, tf.make_lattice(1, 10, 1.0))
    row_sums = np.ones(op.size) @ generator_matrix(op)
    assert np.linalg.norm(row_sums) <= 1e-9 * np.linalg.norm(generator_matrix(op), 2)


def test_assembly_equivalence_band_limited(rng):
    # composed route vs the product-rule expansion, on probes whose products
    # do not alias
    for E, N in [
        (tf.zero_potential(1, 1.0), 16),
        (tf.cosine_potential(1.0, 1, 1.0), 20),
        (tf.cosine_potential(2.0, 1, 1.0), 20),
    ]:
        op = tf.build_generator(E, tf.make_lattice(1, N, 1.0))
        L, B = generator_matrix(op), expanded_generator_matrix(op)
        scale = np.linalg.norm(L, ord="fro")
        for _ in range(20):
            v = random_band_field(op.lattice, 5, rng).flat
            assert np.linalg.norm(L @ v - B @ v) <= 1e-8 * scale * np.linalg.norm(v)


def test_expanded_route_needs_band_limited_probes(rng):
    # full-band probes alias the grid products: the identity visibly fails
    op = tf.build_generator(tf.cosine_potential(2.0, 1, 1.0), tf.make_lattice(1, 20, 1.0))
    B = expanded_generator_matrix(op)
    v = rng.standard_normal(op.size)
    diff = np.linalg.norm(generator_matrix(op) @ v - B @ v) / np.linalg.norm(generator_matrix(op) @ v)
    assert diff > 1e-6


def test_operator_norm_check():
    # W = 0: equality with the Laplacian multiplier bound
    lat = tf.make_lattice(1, 8, 1.0)
    op0 = tf.build_generator(tf.zero_potential(1, 1.0), lat)
    rep0 = tf.operator_norm_check(op0)
    expected = 4 * math.pi**2 * 64
    np.testing.assert_allclose(rep0.measured, expected, rtol=1e-10)
    assert rep0.ok

    rep1 = tf.operator_norm_check(tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), lat))
    assert rep1.ok and rep1.measured < rep1.bound

    with pytest.raises(PreconditionError):
        tf.operator_norm_check(tf.build_generator(tf.zero_potential(1, 1.0), tf.make_lattice(1, 3, 1.0)))


@pytest.mark.parametrize(
    "E, N",
    [
        (tf.zero_potential(1, 1.0), 20),  # doubly degenerate top singular value
        (tf.cosine_potential(8.0, 1, 1.0), 30),
        (tf.cosine_potential(1.0, 2, 1.0), 6),
        (tf.cosine_potential(2.0, 3, 1.0), 4),
    ],
)
def test_operator_norm_matches_svd_oracle_without_svd(E, N, monkeypatch):
    op = tf.build_generator(E, tf.make_lattice(E.d, N, E.l))
    oracle = np.linalg.norm(generator_matrix(op), 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("the norm check must not use an SVD or the dense L or L'")

    # numpy's norm reaches the SVD through its private module, so patch both
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(importlib.import_module("numpy.linalg._linalg"), "svd", forbidden, raising=False)
    monkeypatch.setattr(Operator, "symmetrized", property(forbidden))
    monkeypatch.setattr(generator, "_dense_symmetrized", forbidden)
    rep = tf.operator_norm_check(op)
    assert rep.measured == pytest.approx(oracle, rel=1e-10, abs=0)
    assert op.health["norm_lanczos_steps"] > 0
    assert op.health["norm_residual"] <= NORM_RTOL


@pytest.mark.parametrize(
    "d, N",
    [(1, 20), (1, FFT_AXIS_POINTS // 2 - 1), (1, FFT_AXIS_POINTS // 2), (1, 300), (2, 8), (3, 3)],
)
def test_apply_matches_the_assembled_generator(d, N):
    # the axis derivative by FFT past FFT_AXIS_POINTS points, by the dense
    # circulant, built once per lattice, below
    spectral._circulant.cache_clear()
    op = tf.build_generator(tf.cosine_potential(2.0, d, 1.0), tf.make_lattice(d, N, 1.0))
    x = np.random.default_rng(N).standard_normal(op.size)
    ref = op.symmetrized @ x
    assert np.linalg.norm(op.apply(x) - ref) <= 1e-13 * np.linalg.norm(ref)
    B = np.array([b.reshape(-1) for b in op.scaled_derivatives(x)])
    assert abs(np.sum(B * B) + x @ ref) <= 1e-13 * abs(x @ ref)
    # a block of vectors along the leading axis, row by row as on its own
    X = np.random.default_rng(N + 1).standard_normal((3, op.size))
    refs = X @ op.symmetrized
    assert np.linalg.norm(op.apply(X) - refs, axis=1).max() <= 1e-13 * np.linalg.norm(refs, axis=1).min()
    # U is computed once per operator and cannot be written through
    assert op.u_diag is op.u_diag and not op.u_diag.flags.writeable
    assert spectral._circulant.cache_info().misses == (0 if 2 * N + 1 > FFT_AXIS_POINTS else 1)


@pytest.mark.parametrize("d, N", [(2, 25), (3, 7)])
def test_separable_spectrum_holds_the_gap_exactly(d, N):
    # the gap and the spectrum of a sum over axes are one computation
    op = tf.build_generator(tf.cosine_potential(1.0, d, 1.0), tf.make_lattice(d, N, 1.0))
    assert op.eigenvalues[1] == -op.spectral_gap
    assert op.eigenvalues[0] == 0.0 and np.all(np.diff(op.eigenvalues) <= 0)
    assert -op.eigenvalues[-1] == op._separable[1].max()


def test_operator_norm_through_the_fft_axis_matches_the_dense_norm():
    op = tf.build_generator(tf.cosine_potential(2.0, 1, 1.0), tf.make_lattice(1, 300, 1.0))
    assert op.lattice.points_per_axis > FFT_AXIS_POINTS
    oracle = np.linalg.norm(generator_matrix(op), 2)
    assert tf.operator_norm_check(op).measured == pytest.approx(oracle, rel=1e-10, abs=0)


def test_dense_arrays_are_assembled_on_first_access_and_kept(monkeypatch):
    assembled, blocks, solved = [], [], []
    assemble, block, eigvalsh = generator._dense_symmetrized, generator._sector_block, np.linalg.eigvalsh

    def counted(lattice, u, sector=None):
        # only the whole L' (no sector) counts as assembled
        if sector is None:
            assembled.append(1)
        return assemble(lattice, u, sector)

    monkeypatch.setattr(generator, "_dense_symmetrized", counted)
    monkeypatch.setattr(generator, "_sector_block", lambda *a: blocks.append(1) or block(*a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(1) or eigvalsh(a))
    plane = tf.build_generator(tf.cosine_potential(1.0, 2, 1.0), tf.make_lattice(2, 4, 1.0))
    assert assembled == [] and blocks == [] and solved == []
    sym = plane.symmetrized
    assert plane.eigenvalues is plane.eigenvalues and plane.symmetrized is sym
    assert generator_matrix(plane).shape == sym.shape
    # the sum over axes takes its spectrum from the per-axis factors: L' is
    # assembled once, on access, and no block or eigvalsh runs
    assert assembled == [1] and blocks == [] and solved == []
    # any other W at d >= 2 is one sector, the whole L', with one eigvalsh
    mlp = tf.build_generator(tf.mlp_potential(small_mlp(d=2, seed=5)), tf.make_lattice(2, 4, 1.0))
    assert mlp.eigenvalues is mlp.eigenvalues and mlp.health["dense_sectors"] == 1
    assert assembled == [1, 1] and blocks == [] and solved == [1]
    # at d = 1 the gap is read off the spectrum: two blocks, two eigvalsh
    line = tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), tf.make_lattice(1, 8, 1.0))
    assert len(blocks) == 2 and len(solved) == 3
    assert line.spectral_gap == -line.eigenvalues[1]
    # and propagates on the two blocks assembled once more, with no dense L'
    # and no further eigvalsh; no modes are kept, so a second propagation
    # assembles both blocks again
    line.propagate(np.ones(line.size), np.array([0.0, 0.1]))
    assert assembled == [1, 1] and len(blocks) == 4 and len(solved) == 3
    line.propagate(np.ones(line.size), np.array([0.0, 0.1]))
    assert assembled == [1, 1] and len(blocks) == 6 and len(solved) == 3


def test_condition_number_check():
    lat = tf.make_lattice(1, 10, 1.0)
    rep0 = tf.condition_number_check(tf.build_generator(tf.zero_potential(1, 1.0), lat))
    assert rep0.kappa == pytest.approx(1.0, abs=1e-12)

    # Delta_W ~ 2 for the z=2 cosine evolved at E/2 (grid diameter falls a
    # hair short of the continuum value, so the bound sits just under e)
    op = tf.build_generator(tf.cosine_potential(2.0, 1, 1.0), lat)
    rep = tf.condition_number_check(op)
    assert rep.bound == pytest.approx(math.e, rel=0.01)
    assert rep.bound <= math.e
    assert rep.ok and rep.kappa == pytest.approx(rep.bound, rel=1e-9)

    mlp_op = tf.build_generator(tf.mlp_potential(small_mlp(seed=3)), lat)
    mrep = tf.condition_number_check(mlp_op)
    assert mrep.ok


@pytest.mark.parametrize(
    "E, N",
    [
        (tf.invcos_potential(4.0, 1.0), 40),
        (tf.cosine_potential(1.5, 2, 1.0), 6),
        (tf.mlp_potential(small_mlp(d=3, seed=7)), 2),
    ],
)
def test_condition_number_is_closed_form(E, N, monkeypatch):
    op = tf.build_generator(E, tf.make_lattice(E.d, N, E.l))
    # reference: singular values of the diagonalizing similarity V = U Q
    svals = np.linalg.svd(op.u_diag[:, None] * eigenvectors(op), compute_uv=False)
    reference = svals[0] / svals[-1]

    def no_svd(*args, **kwargs):
        raise AssertionError("condition_number_check must not factorize V")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rep = tf.condition_number_check(op)
    assert rep.kappa == float(op.u_diag.max() / op.u_diag.min())
    assert abs(rep.kappa - reference) <= 1e-12 * reference
    assert rep.ok


def test_poincare_report():
    # W = 0 at l = 2 pi: gap 1 equals the floor
    lat = tf.make_lattice(1, 8, 2 * np.pi)
    rep0 = tf.poincare_report(tf.build_generator(tf.zero_potential(1, 2 * np.pi), lat))
    assert rep0.gap == pytest.approx(1.0, rel=1e-10)
    assert rep0.floor == pytest.approx(1.0, rel=1e-12)
    assert rep0.ok

    # cosine z=1 evolved at the full potential: Delta_W ~ 2, floor ~ e^{-2}
    # (the grid diameter is a hair under the continuum value)
    lat16 = tf.make_lattice(1, 16, 2 * np.pi)
    rep1 = tf.poincare_report(tf.build_generator(tf.cosine_potential(1.0, 1, 2 * np.pi), lat16, halve=False))
    assert rep1.floor == pytest.approx(math.exp(-2.0), rel=0.01)
    assert rep1.gap >= rep1.floor
    # and the pipeline (E/2) build has Delta_W ~ 1
    rep_half = tf.poincare_report(tf.build_generator(tf.cosine_potential(1.0, 1, 2 * np.pi), lat16))
    assert rep_half.floor == pytest.approx(math.exp(-1.0), rel=0.01)
    assert rep_half.gap >= rep_half.floor

    # metastability: the gap collapses once the barrier dominates.  (At small
    # z the gap first grows with the well stiffness; the monotone decay sets
    # in beyond z ~ 3 for the full potential.)
    gaps = []
    for z in (3.0, 4.0, 6.0):
        gaps.append(tf.build_generator(tf.cosine_potential(z, 1, 2 * np.pi), lat16, halve=False).spectral_gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.1 * tf.build_generator(tf.zero_potential(1, 2 * np.pi), lat16).spectral_gap


def test_dense_cap_enforced():
    # no node cap: a 6561-node lattice builds on the separable route; the
    # value budget refuses a d = 1 sector block of 12001^2 values before it
    # is allocated
    assert tf.build_generator(tf.zero_potential(2, 1.0), tf.make_lattice(2, 40, 1.0)).size == 6561
    with pytest.raises(SizeError, match="dense sector block needs 144024001 values"):
        tf.build_generator(tf.zero_potential(1, 1.0), tf.make_lattice(1, 12000, 1.0))


def test_dense_gap_within_its_rounding_is_refused():
    # eigvalsh of the formed blocks K = B^T B rounds the gap by about
    # eps ||L'||: cosine z = 30 at N = 16 read 1.76e-5, where a 60-digit
    # eigensolver and the separable route read 9.0032394e-8
    with pytest.raises(PreconditionError, match="too steep"):
        tf.build_generator(tf.cosine_potential(30.0, 1, 1.0), tf.make_lattice(1, 16, 1.0))


@pytest.mark.parametrize("N", [16, 25])
@pytest.mark.parametrize("z", [1.0, 12.0, 16.0, 20.0, 22.0])
def test_dense_gap_agrees_with_the_separable_gap_within_its_rounding(z, N):
    # the d = 2 cosine is a sum over axes, whose gap, from the SVD of its
    # axis factors, is the d = 1 gap to relative accuracy; z = 22 reads
    # gap_rounding 0.69, just inside the dense route's limit
    line = tf.build_generator(tf.cosine_potential(z, 1, 1.0), tf.make_lattice(1, N, 1.0))
    plane = tf.build_generator(tf.cosine_potential(z, 2, 1.0), tf.make_lattice(2, N, 1.0))
    assert line.health["gap_rounding"] < 1
    assert abs(line.spectral_gap - plane.spectral_gap) <= line.health["gap_rounding"] * line.spectral_gap


def test_exports():
    op = tf.build_generator(tf.zero_potential(1, 1.0), tf.make_lattice(1, 2, 1.0))
    text = spectrum_to_csv(op)
    assert text.startswith("index,eigenvalue\n")
    assert len(text.strip().split("\n")) == op.size + 1
