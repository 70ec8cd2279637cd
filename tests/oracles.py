"""Oracles that only the tests need: the package works without them.

- Dense matrices the package never forms: the n x n axis derivative, the
  Kronecker-product L' and the unsymmetrized generator L.
- Field operators and norms of the spectral derivative: the gradient, the
  divergence, the exact l2 norm of one axis derivative and the worst-case
  amplification of the max norm.
- The paper's claims, each measured against its envelope: the (C, a)
  certificate of a semi-norm profile, the Bernstein moments of the Fourier
  random variable and their Paley-Zygmund floor, the interpolation
  distance and TV of a 1-d analytic series (``interpolation_error_bound_check``
  and the constants of its envelopes), and the restriction error between
  nested lattices.
- The closed-form Fourier coefficients of e^{-E} for the cosine, invcos and
  zero potentials, and a periodicity check of any potential.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from torusfp.errors import PreconditionError, ValidationError
from torusfp.evolve import evolve
from torusfp.generator import build_generator
from torusfp.lattice import GridField, SpectralField, constant_field, make_lattice
from torusfp.potential import bessel_i
from torusfp.report import Report
from torusfp.sampler import _interpolation_chain, box_probabilities, choose_M
from torusfp.semianalytic import spectrum_of_field
from torusfp.spectral import derivative_axis_matrix, fourier_derivative

_E3 = math.e**3

#: coefficient of the normalized-distance bound (truncation of one state)
ER_CONST = 4 * math.sqrt(2) * _E3
#: coefficient in the upsampling TV bound (2 delta branch)
UPSAMPLE_CONST = 8 * math.sqrt(2) * _E3
#: coefficient in the interpolation TV bound (delta branch)
INTERPOLATION_CONST = 16 * math.sqrt(2) * _E3
#: largest upsampling half-width of ``interpolation_error_bound_check``
INTERPOLATION_M_CAP = 20000


# ---------------------------------------------------------------------------
# dense matrices


def derivative_matrix(lattice, axis, order=1):
    """Dense n x n matrix of the axis derivative on the full (2N+1)^d space,
    the Kronecker product of the axis matrix with identities."""
    if not 0 <= axis < lattice.d:
        raise ValidationError(f"axis {axis} out of range for d={lattice.d}")
    mat = derivative_axis_matrix(lattice, order)
    n = lattice.points_per_axis
    return functools.reduce(np.kron, [mat if j == axis else np.eye(n) for j in range(lattice.d)])


def kronecker_symmetrized(lattice, u):
    """Dense L' = -sum_j B_j^T B_j from the n x n B_j = diag(u) D_j diag(1/u)
    of :func:`derivative_matrix`: the Kronecker reference of the package's
    line-by-line assembly, the same arithmetic at d = 1."""
    K = None
    for j in range(lattice.d):
        B = derivative_matrix(lattice, j)
        B *= u[:, None]
        B /= u[None, :]
        K = B.T @ B if K is None else np.add(K, B.T @ B, out=K)
    return np.negative(K, out=K)


def generator_matrix(op):
    """L = U L' U^{-1}, derived from the operator's dense L' on each call."""
    u = op.u_diag
    L = op.symmetrized / u
    L *= u[:, None]
    return L


def discrete_state_tv(psi, phi):
    """TV between the sampling densities of two states on the same lattice."""
    if psi.lattice != phi.lattice:
        raise ValidationError("states live on different lattices")
    return 0.5 * float(np.abs(box_probabilities(psi) - box_probabilities(phi)).sum())


# ---------------------------------------------------------------------------
# the spectral derivative


def gradient(u):
    """All first-order axis derivatives of ``u``."""
    return [fourier_derivative(u, axis=j, order=1) for j in range(u.lattice.d)]


def divergence(vs):
    """Sum of axis derivatives of a list of d component fields."""
    if len(vs) == 0:
        raise ValidationError("divergence needs at least one component")
    lat = vs[0].lattice
    if len(vs) != lat.d:
        raise ValidationError(f"divergence got {len(vs)} components for d={lat.d}")
    acc = None
    for j, v in enumerate(vs):
        if v.lattice != lat:
            raise ValidationError("divergence components live on different lattices")
        dv = fourier_derivative(v, axis=j, order=1)
        acc = dv.values if acc is None else acc + dv.values
    return GridField(lat, acc, is_real=all(v.is_real for v in vs))


def sup_norm_bound(N, l):
    """Worst-case amplification of the max norm by one spectral derivative."""
    return (2 * np.pi / l) * (2 * N + 1) * (math.log((4 * N + 2) / math.pi) / math.pi + 0.5)


def operator_norm(lattice):
    """Exact l2 operator norm of one axis derivative: 2 pi N / l."""
    return 2 * np.pi * lattice.N / lattice.l


# ---------------------------------------------------------------------------
# semi-analyticity and concentration


def certificate_holds(profile, params):
    """|u|_m <= C a^m m! for every m of the profile, to 1e-9 relative."""
    return all(profile[m] <= params.bound(m) * (1 + 1e-9) for m in range(profile.m_max + 1))


def fourier_norm_moment(spec, m):
    """E ||K_u||^m under the law |u_hat[k]|^2 / U^2."""
    if isinstance(spec, SpectralField):
        spec = spectrum_of_field(spec)
    total = spec.mean_square
    if total <= 0:
        raise ValidationError("spectrum carries no mass")
    return float(np.sum(spec.knorms**m * spec.weights) / total)


def paley_zygmund_floor(mean, second_moment, theta):
    """P[X > theta E X] >= (1 - theta)^2 (E X)^2 / E X^2."""
    return (1 - theta) ** 2 * mean**2 / second_moment


# ---------------------------------------------------------------------------
# interpolation error bound check


@dataclass
class InterpolationReport(Report):
    N: int
    measured_distance: float
    distance_bound: float
    tv: float | None
    tv_bound: float
    M_bound_choice: int
    M_used: int | None
    tv_feasible: bool

    @property
    def distance_ok(self):
        return self.measured_distance <= self.distance_bound

    @property
    def tv_ok(self):
        return (not self.tv_feasible) or self.tv <= self.tv_bound


def interpolation_error_bound_check(u, u_hat, params, N, l, lipschitz, k_max=60):
    """Measured truncation distance and sampling TV against their envelopes.

    Requires N >= 2 a d (d = 1 here).  The TV side uses the lattice size the
    accuracy formula itself dictates; when that exceeds INTERPOLATION_M_CAP
    the TV is still measured at the cap but not asserted (flagged infeasible).
    """
    C, a = params.C, params.a
    if N < 2 * a:
        raise PreconditionError(f"need N >= 2ad = {2 * a}, got N={N}")

    _, measured, U, tv_at = _interpolation_chain(u, u_hat, make_lattice(1, N, l), k_max)
    envelope = (C / U) * math.exp(-0.6 * N / a)
    M_choice = choose_M(min(UPSAMPLE_CONST * envelope, 0.999999), lipschitz, l, 1, a, C, U)
    M_used = max(min(M_choice, INTERPOLATION_M_CAP), N)
    return InterpolationReport(
        N=N,
        measured_distance=measured,
        distance_bound=ER_CONST * envelope,
        tv=tv_at(M_used),
        tv_bound=INTERPOLATION_CONST * envelope,
        M_bound_choice=M_choice,
        M_used=M_used,
        tv_feasible=M_choice <= INTERPOLATION_M_CAP,
    )


# ---------------------------------------------------------------------------
# discrete-vs-continuous consistency on nested lattices


def nested_restriction_error(E, N, T):
    """|| u_N(T) - restrict(u_{N_ref}(T)) || under the E/2 generator, with
    N_ref = 3N + 1, whose lattice of 3 (2N+1) points per axis contains the
    coarse one (fine index 3n + 1 per shifted axis).
    """
    coarse = make_lattice(E.d, N, E.l)
    fine = make_lattice(E.d, 3 * N + 1, E.l)

    op_f = build_generator(E, fine)  # first: past the value budget, refused before any work
    op_c = build_generator(E, coarse)

    u_c = evolve(op_c, constant_field(coarse), T, snapshots=2).final.reshape(coarse.shape)
    u_f = evolve(op_f, constant_field(fine), T, snapshots=2).final.reshape(fine.shape)

    sel = tuple(slice(1, None, 3) for _ in range(E.d))
    return float(np.linalg.norm((u_c - u_f[sel]).reshape(-1)))


# ---------------------------------------------------------------------------
# potentials


def cosine_fourier(z, d):
    """The Fourier coefficient at a multi-index k of e^{-E} for
    E = cosine_potential(z, d): e^{-E} = e^{d (s - z)} prod_i e^{z cos(w x_i)}
    with s = min(2z, 0), so the coefficient is e^{d (s - z)} prod_i I_{k_i}(z)."""
    s = 0.0 if z >= 0 else 2 * z

    def coeff(k):
        out = math.exp(d * (s - z))
        for ki in np.atleast_1d(np.asarray(k, dtype=int)):
            out *= bessel_i(int(ki), z)
        return out

    return coeff


def invcos_fourier(z):
    """The Fourier coefficient at k of e^{-E} = u / max u for
    E = invcos_potential(z): z^(-|k|/2) / max u, max u = (sqrt z + 1) / (sqrt z - 1)."""
    sz = math.sqrt(z)
    return lambda k: z ** (-abs(int(np.atleast_1d(k)[0])) / 2) / ((sz + 1) / (sz - 1))


def zero_fourier(k):
    """The Fourier coefficient at k of e^{-E} = 1 for the zero potential."""
    return 0.0 if np.any(np.atleast_1d(k)) else 1.0


def periodicity_check(E):
    """Check at 64 random points that E(x + l e_j) = E(x), to 1e-10, for
    every axis."""
    rng = np.random.default_rng(0)
    pts = (rng.random((64, E.d)) - 0.5) * E.l
    base = E.evaluate(pts)
    for j in range(E.d):
        shifted = pts.copy()
        shifted[:, j] += E.l
        if np.abs(E.evaluate(shifted) - base).max() > 1e-10 * max(1.0, np.abs(base).max()):
            return False
    return True
