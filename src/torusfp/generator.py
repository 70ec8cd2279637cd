"""The discretized Fokker-Planck generator  L f = div~( e^{-W} grad~( e^{W} f ) ),
its spectral gap, its propagator, and its structure checks.

W is the potential actually evolved; the sampling pipeline uses W = E/2 so
that squared state amplitudes target e^{-E}.  The axis derivatives D_j are
antisymmetric, so the symmetrization L' = U^{-1} L U with U = diag(e^{-W/2})
factors as

    L' = -sum_j B_j^T B_j,    B_j = diag(e^{-W/2}) D_j diag(e^{W/2}),

an exactly symmetric negative semidefinite matrix whose one-dimensional kernel
is spanned by q0 = e^{-W/2} / ||e^{-W/2}|| (B_j e^{-W/2} = diag(e^{-W/2}) D_j 1
= 0).  L is derived from L' on demand.

One :class:`Operator` serves every d.  It stores W and the gap, and keeps
U; ``apply`` acts with L' one axis at a time through
:func:`torusfp.spectral.axis_derivative`, on one vector or on a block.
The dense spectrum (``eigenvalues``, values only, with the kernel eigenvalue
pinned to 0) is computed on first access, one reflection sector at a time,
and kept.  If W equals its own flip along every axis, bitwise, L' commutes
with each reflection n_j -> -n_j (D_j anticommutes with it) and splits into
2^d sectors, even or odd along each axis: each block -sum_j B_j^T B_j is
assembled in the basis (e_m +- e_{-m}) / sqrt 2 of its sector, over the
closed positive orthant, without forming L'.  Otherwise there is one
sector, L' itself.  The dense L' (``symmetrized``) is assembled only on
demand.

At d >= 2 the gap and the propagation go through a separable
preconditioner P, built once per operator by fast diagonalization (Lynch,
Rice & Thomas, Numer. Math. 6, 1964): the 1-D generators K_j of W's mean
over the other axes, one SVD of a (2N+1)^2 matrix each, give
P = (x)Q_j (sigma + gamma sum_j Lambda_j)^{-1} (x)Q_j^T, applied by one
dense product per axis each way.  For a W that is a sum over axes, -L' is
the sum of the K_j and P is exact.  Two things depend on d, since at d = 1
Lanczos and Krylov need about n steps, some 12 times the dense cost at
N = 1023:

- the gap (``build_generator``): read off ``eigenvalues`` at d = 1; at
  d >= 2 by Lanczos on the complement of q0 (Saad, SIAM J. Numer. Anal. 29,
  1992), to a Ritz residual of GAP_RTOL, from the best vector of a short
  block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) that starts from
  P's lowest modes and is preconditioned by P; the gap is the smaller
  Rayleigh quotient of the Ritz vector and of P's lowest mode, which keeps
  it for a separable W even below eps ||L'||.  For any other W it carries
  the rounding of products with L', about eps ||L'|| / gap relative
  (``gap_rounding`` in ``op.health``);
- the propagation (``propagate``): mode by mode at d = 1, in each sector's
  own basis, from ``eigh`` of each stored block with the kernel eigenpair
  pinned to (0, q0) in the all-even block (on first access, kept), within
  (1e-10 + 16 eps ||L'|| t) ||U^{-1} v|| of expm(t L'); at d >= 2 the
  q0 component is kept exactly and the rest advanced in the shift-invert
  Krylov space of (I + gamma K)^{-1}, K = -L' (van den Eshof & Hochbruck,
  SIAM J. Sci. Comput. 27, 2006), each step an inner conjugate-gradient
  solve preconditioned by P, until an a posteriori error bound that
  includes the inner tolerance meets KRYLOV_RTOL.  Where an inner solve
  takes more than INNER_BUDGET iterations (a steep W that is not a sum over
  axes), the polynomial Krylov space of L' itself (Hochbruck & Lubich, SIAM
  J. Numer. Anal. 34, 1997) takes over, with its own bound.

Every Lanczos run (the gap, the propagation and the norm check)
orthogonalizes each new direction once against its basis and q0, and a
second time only when the first pass left less than 1/sqrt(2) of its norm
(the DGKS rule).  ``op.health`` records the backend ("dense" at d = 1,
"matrix-free" at d >= 2 with the block iterations of its start, its
Lanczos steps, gap residual and second passes), ``gap_rounding``, the
ratio eps ||L'|| / gap with ||L'|| the largest |eigenvalue| at d = 1 and the
largest |alpha| of the gap's Lanczos run at d >= 2, and, once the dense
spectrum ran, its ``dense_sectors``; ``propagate`` returns the health of
its Krylov run next to the states: the path taken, its outer and inner
steps, its error bound and second passes.  U scales L' by up to
e^{delta_W}: numbers of a steep potential past the float64 range end in a
PreconditionError that names delta_W and N.

The structure checks compare the condition number of the eigenvector basis
(max(u)/min(u) in closed form), the spectral norm of L and the spectral gap
with their bounds; their reports serialize through :mod:`torusfp.report`.  The norm ||L||_2 is
the square root of the top eigenvalue of L^T L = U^{-1} L' U^2 L' U^{-1},
found by Lanczos through ``op.apply`` to a Ritz residual of NORM_RTOL
relative, with neither the dense L nor an SVD.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PreconditionError, SizeError, ValidationError
from .lattice import GridField, TorusLattice, discretize, make_lattice
from .potential import EnergyPotential
from .report import Report, csv_text
from .spectral import _along_axis, axis_derivative, derivative_axis_matrix, derivative_kernel, derivative_matrix

EPS = np.finfo(float).eps
_SQRT_HALF = math.sqrt(0.5)
#: Largest node count of ``build_generator``: the dense sector blocks, and at
#: d = 1 their eigenvectors, hold about n^2 / 2 entries each (n^2 in one sector).
DENSE_CAP = 4096
#: The gap iteration stops once the Ritz residual r of its top Ritz value,
#: which bounds |theta - lambda| for some eigenvalue lambda, falls to
#: GAP_RTOL |theta|, or to the rounding level eps ||L'||.
GAP_RTOL = 1e-12
#: The propagation stops once its a posteriori bound on the error, in the
#: symmetrized frame and at the largest time, falls to KRYLOV_RTOL ||U^{-1} v||.
KRYLOV_RTOL = 1e-12
#: The norm iteration stops once the Ritz residual of its top Ritz value theta
#: of L^T L falls to NORM_RTOL theta; ||L||_2 = sqrt(theta) is then good to
#: about NORM_RTOL / 2 relative, and in practice to rounding.
NORM_RTOL = 1e-12
#: Lanczos runs test for convergence every this many steps, and every m / 8
#: steps past m = 64, so that the O(m^3) tests stay below the run's own cost.
CHECK_EVERY = 8
#: Vectors in the block iteration that starts the gap's Lanczos run.
GAP_BLOCK = 4
#: The block starts as the lowest modes of the preconditioner past its
#: kernel, plus this multiple of a fixed pseudo-random block.  Measured as
#: block iterations at cosine z=1/8, d=2 N=25, and z=8, d=3 N=7: 9/14/8 at
#: 1e-8, 13/21/16 at 1e-3, 20/29/23 at 1e-1; Lanczos confirmed in 8 steps.
GAP_START_NOISE = 1e-3
#: Most iterations of that block.  A separable W converges well within it
#: (cosine d=2 N=25, z=1/4/8/12: 13/15/21/7).  Measured on the coupled
#: potential of tests/test_matrix_free.py, as iterations/Lanczos steps and
#: build_generator seconds with budgets 40/100/160: z=4, c=0.5, N=25 40/289
#: 0.36 s, 99/8 0.14 s, 99/8 0.15 s; N=31 40/365 0.67 s, 98/8 0.22 s, 98/8
#: 0.18 s; z=8, c=1, N=25 never converged, 461 steps, 0.74/0.69/0.85 s.
GAP_BLOCK_ITERATIONS = 100
#: Gauss-Legendre nodes per interval of the error-bound quadrature.
GAUSS_NODES = 16
#: The shift-invert propagation to t works with (I + gamma K)^{-1}, gamma =
#: t / SHIFT_STEPS.  At d=2 N=25, cosine z=1, 2 to 16 all took 14 outer
#: steps, at z=4 and 8, 4 to 16 took 20 to 24.
SHIFT_STEPS = 8
#: Its inner solves stop once the residual falls to INNER_RTOL ||b||.
INNER_RTOL = 1e-13
#: An inner solve that has not converged after this many iterations hands
#: the propagation to the polynomial Krylov run.  For a separable W the
#: preconditioner is exact and each solve takes 1 or 2.  Measured on the
#: coupled potential at d=2 N=25, c=0.5 (inner iterations per solve,
#: shift-invert against polynomial seconds): z=1 8 to 11, 0.11 against
#: 0.13 s; z=2 10 to 18, 0.17 against 0.21 s; z=4 21 to 76, 0.46 against
#: 0.23 s.
INNER_BUDGET = 20


@dataclass
class Operator:
    """The symmetrized generator L' = -sum_j B_j^T B_j, for every d.

    ``propagate(v, times)`` returns the states as rows and the health of the
    propagation; ``matrix`` (L) is derived from L' on each access.
    """

    lattice: TorusLattice
    potential: EnergyPotential
    W: GridField          # evolved potential on the grid (E/2 or E)
    delta_W: float        # grid diameter of W
    spectral_gap: float = math.nan
    health: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.lattice.size

    @cached_property
    def u_diag(self) -> np.ndarray:
        """Diagonal of U = diag(e^{-W/2}), computed on first access and kept,
        read-only."""
        u = np.exp(-self.W.flat / 2)
        u.flags.writeable = False
        return u

    @property
    def stationary(self) -> np.ndarray:
        """Grid of e^{-W}, the kernel direction of L (unnormalized)."""
        return np.exp(-self.W.flat)

    @property
    def matrix(self) -> np.ndarray:
        """L = U L' U^{-1}, derived on each access."""
        u = self.u_diag
        L = self.symmetrized / u
        L *= u[:, None]
        return L

    def kernel_vector(self) -> np.ndarray:
        """Unit eigenvector of L' at eigenvalue zero: e^{-W/2} normalized."""
        u = self.u_diag
        return u / np.linalg.norm(u)

    @cached_property
    def symmetrized(self) -> np.ndarray:
        """Dense L', assembled on first access and kept."""
        return _dense_symmetrized(self.lattice, self.u_diag)

    @cached_property
    def _blocks(self) -> list:
        """The dense spectrum's blocks as (sector, block) pairs, the all-even
        sector first: 2^d reflection sectors (a parity per axis, 0 even, 1
        odd) when W equals its own flip along every axis, bitwise, else one,
        (None, L').  Assembled on first access and kept; the count goes into
        ``health`` as ``dense_sectors``."""
        W = self.W.values
        if all(np.array_equal(W, np.flip(W, j)) for j in range(self.lattice.d)):
            u = self.u_diag.reshape(self.lattice.shape)
            half = _half_derivative(self.lattice)
            sectors = itertools.product((0, 1), repeat=self.lattice.d)
            blocks = [(sector, _sector_block(u, half, sector)) for sector in sectors]
        else:
            blocks = [(None, self.symmetrized)]
        self.health["dense_sectors"] = len(blocks)
        return blocks

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of L', sorted descending, by a values-only eigvalsh of
        each block.  The kernel eigenvalue is known to be 0 and is pinned
        there: eigvalsh puts it at about eps ||L'||, either sign."""
        with _float64_range(self):
            parts = [np.linalg.eigvalsh(block) for _, block in self._blocks]
        return _descending(parts)

    @cached_property
    def _modes(self) -> list:
        """(sector, values, vectors) for each block of ``_blocks`` at d = 1,
        by ``eigh`` of the block itself (a negated copy would cost one more
        array) on first access and kept: values descending, orthonormal
        vectors as columns in the block's own basis.

        The kernel is known exactly, so its eigenpair is pinned in the first
        block (the all-even one, or the one sector) as the folded q0 rather
        than taken from eigh: the computed kernel vector strays from
        e^{-W/2} by about eps ||L'|| / gap, and every other mode would then
        carry mass.  Projecting it out of that block's other vectors keeps
        <1, u(t)> fixed to rounding; q0 is even, so no odd block holds any.
        """
        modes = []
        with _float64_range(self):
            for sector, block in self._blocks:
                mu, Q = np.linalg.eigh(block)
                values, vectors = mu[::-1].copy(), np.ascontiguousarray(Q[:, ::-1])
                del Q  # freed before the projection and the next block
                if not modes:
                    q0 = _fold(sector, self.kernel_vector())
                    values[0] = 0.0
                    vectors[:, 0] = q0
                    vectors[:, 1:] -= np.outer(q0, q0 @ vectors[:, 1:])
                modes.append((sector, values, vectors))
        return modes

    def scaled_derivatives(self, x: np.ndarray) -> list:
        """B_j x = U D_j U^{-1} x for each axis j, as lattice-shaped arrays (a
        block of them when x is a block of flat vectors along its leading axis)."""
        u = self.u_diag.reshape(self.lattice.shape)
        y = x.reshape(x.shape[:-1] + u.shape) / u
        lead = x.ndim - 1
        return [u * axis_derivative(y, self.lattice, lead + j) for j in range(self.lattice.d)]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """L' x = -sum_j B_j^T B_j x for a flat vector x, or for each row of a
        block x of flat vectors."""
        u = self.u_diag.reshape(self.lattice.shape)
        lead = x.ndim - 1
        acc = sum(
            axis_derivative(u * b, self.lattice, lead + j, transpose=True)
            for j, b in enumerate(self.scaled_derivatives(x))
        )
        return -(acc / u).reshape(x.shape)

    @cached_property
    def _separable(self) -> tuple:
        """The factors of the fast-diagonalization preconditioner, computed on
        first access and kept: for each axis j the orthonormal eigenvectors
        Q_j of the d = 1 generator K_j = B_j^T B_j of W's mean over the other
        axes, and the lattice-shaped sum of their eigenvalues, sum_j
        Lambda_j, the all-kernel mode at index 0.  Each factor comes from the
        SVD of its (2N+1)^2 B_j, ascending: Lambda_j = s_j^2 keeps the small
        eigenvalues of a steep W to relative accuracy where eigh of K_j loses
        them below eps ||K_j||.  For a separable W, K = -L' is the sum of the
        K_j, each acting along its axis, to rounding."""
        lattice, W = self.lattice, self.W.values
        D = derivative_axis_matrix(make_lattice(1, lattice.N, lattice.l))
        vectors, total = [], 0.0
        for j in range(lattice.d):
            u = np.exp(-W.mean(axis=tuple(i for i in range(lattice.d) if i != j)) / 2)
            _, s, Vt = np.linalg.svd(D * u[:, None] / u[None, :])
            vectors.append(Vt[::-1].T)
            total = total + (s[::-1] ** 2).reshape([-1 if i == j else 1 for i in range(lattice.d)])
        return vectors, total

    def precondition(self, x: np.ndarray, sigma: float, gamma: float) -> np.ndarray:
        """P x = (x)Q_j (sigma + gamma sum_j Lambda_j)^{-1} (x)Q_j^T x for a flat
        vector x, or for each row of a block x: (sigma + gamma K)^{-1} x for a
        separable W, by one dense product per axis each way (Lynch, Rice &
        Thomas, Numer. Math. 6, 1964).  Needs sigma > 0."""
        vectors, total = self._separable
        lead = x.ndim - 1
        y = _along_axes([Q.T for Q in vectors], x.reshape(x.shape[:-1] + self.lattice.shape), lead)
        return _along_axes(vectors, y / (sigma + gamma * total), lead).reshape(x.shape)

    def propagate(self, v: np.ndarray, times: np.ndarray) -> tuple:
        """Rows e^{L t_i} v and the health of the propagation: in a Krylov
        space at d >= 2, and at d = 1, with empty health, mode by mode in
        each sector of ``_modes``, U^{-1} v folded in and the result unfolded."""
        if self.lattice.d >= 2:
            return self._propagate_krylov(v, times)
        u = self.u_diag
        x = v / u
        modal = [(values, vectors, vectors.T @ _fold(sector, x)) for sector, values, vectors in self._modes]
        out = np.empty((len(times), self.size))
        for i, t in enumerate(times):
            out[i] = u * _unfold([vectors @ (np.exp(values * t) * c) for values, vectors, c in modal])
        return out, {}

    def _propagate_krylov(self, v: np.ndarray, times: np.ndarray) -> tuple:
        """e^{L t} v in one Krylov space.

        With x = U^{-1} v = c q0 + r, the kernel part c q0 is kept exactly
        and e^{L' t} r is approximated in one Krylov space of r, grown until
        an a posteriori bound on the error at t_max falls to KRYLOV_RTOL
        ||x||: by shift-invert (:func:`_shift_invert`), and where that gives
        way (an inner solve spent INNER_BUDGET iterations) or t_max = 0, by
        the polynomial Krylov run (:func:`_polynomial_krylov`).  The space
        depends only on v and max(times); each time is evaluated on its own.
        """
        u = self.u_diag
        q0 = u / np.linalg.norm(u)
        x = v / u
        c = q0 @ x
        rest = x - c * q0
        r0 = float(np.linalg.norm(rest))
        scale = float(np.linalg.norm(x))
        t_max = float(max(times))
        out = np.empty((len(times), self.size))
        health = {"krylov_path": "none", "krylov_steps": 0, "krylov_inner_steps": 0}
        # both e^{L' t} r and its approximation have norm <= ||r||, so the
        # error never exceeds 2 ||r||: a small enough rest needs no space
        if 2 * r0 <= KRYLOV_RTOL * scale:
            out[:] = u * (c * q0)
            error = 2 * r0 / scale if scale else 0.0
            return out, health | {"krylov_error": error, "krylov_reorth_steps": 0}

        tol = KRYLOV_RTOL * scale / r0
        with _float64_range(self):
            run = _shift_invert(self, q0, rest / r0, t_max, tol, health) if t_max > 0 else None
            if run is None:
                health["krylov_path"] = "polynomial"
                run = _polynomial_krylov(self, q0, rest / r0, t_max, tol)
            basis, rates, S, error, repeats = run
            error = float(error * r0 / scale)
        if not math.isfinite(error):
            raise _too_steep(self)
        for i, t in enumerate(times):
            y = S @ (np.exp(rates * t) * S[0])
            out[i] = u * (c * q0 + r0 * (basis.T @ y))
        health["krylov_steps"] = len(basis)
        return out, health | {"krylov_error": error, "krylov_reorth_steps": repeats}


def _along_axes(mats: list, y: np.ndarray, lead: int) -> np.ndarray:
    """mats[j] applied to the index of ``y`` along axis lead + j, each j."""
    for j, mat in enumerate(mats):
        y = _along_axis(mat, y, lead + j)
    return y


def _too_steep(op: Operator) -> PreconditionError:
    return PreconditionError(f"potential too steep for float64 at delta_W = {op.delta_W:.6g}, N = {op.lattice.N}")


@contextmanager
def _float64_range(op: Operator):
    """A LinAlgError from numbers of ``op`` past the float64 range becomes
    :func:`_too_steep`, with no warnings; callers check non-finite results."""
    with np.errstate(all="ignore"):
        try:
            yield
        except np.linalg.LinAlgError:
            raise _too_steep(op) from None


def _dense_symmetrized(lattice: TorusLattice, u: np.ndarray) -> np.ndarray:
    """Dense L' = -K, K = sum_j B_j^T B_j, negated in place.  numpy computes
    B^T @ B as a symmetric rank-k update, so L' is exactly symmetric."""
    K = None
    for j in range(lattice.d):
        B = derivative_matrix(lattice, j)
        B *= u[:, None]
        B /= u[None, :]
        K = B.T @ B if K is None else np.add(K, B.T @ B, out=K)
    return np.negative(K, out=K)


def _descending(parts: list) -> np.ndarray:
    """The spectrum from each block's ascending eigenvalues ``parts``, whose
    first holds the kernel as its top: descending, with the kernel pinned to
    0 at index 0."""
    desc = np.concatenate([p[::-1] for p in parts])
    order = np.concatenate([[0], 1 + np.argsort(-desc[1:], kind="stable")])
    values = desc[order]
    values[0] = 0.0
    return values


def _half_derivative(lattice: TorusLattice) -> np.ndarray:
    """D_oe, the N x (N+1) block of the axis derivative from the even to the
    odd coordinates of one axis: entry (m, k), m = 1..N, k = 0..N, is
    a[k - m] + a[-k - m] for the (2N+1)-periodic kernel a of
    :func:`derivative_kernel`, divided by sqrt 2 at k = 0.  The kernel is
    exactly odd, so the block from the odd to the even coordinates is
    exactly -D_oe^T."""
    N, n = lattice.N, lattice.points_per_axis
    a = derivative_kernel(N, lattice.l).entries  # a[m] at m + N
    windows = np.lib.stride_tricks.sliding_window_view
    # a[k - m] is row m of a Toeplitz matrix; a[-(m + k)] = g[m + k] of a Hankel one
    g = a[(N - np.arange(n)) % n]
    half = windows(a, N + 1)[N - 1 :: -1] + windows(g, N + 1)[1:]
    half[:, 0] *= _SQRT_HALF
    return half


def _orthant(u: np.ndarray, sector: tuple) -> np.ndarray:
    """A lattice-shaped even array on a sector's coordinates, flat: indices
    m = 0..N along even axes, m = 1..N along odd ones."""
    N = u.shape[0] // 2
    return u[tuple(slice(N + s, None) for s in sector)].reshape(-1)


def _sector_block(u: np.ndarray, half: np.ndarray, sector: tuple) -> np.ndarray:
    """The block -K_sigma of L' on one reflection sector, K_sigma = sum_j
    B_{j,sigma}^T B_{j,sigma}, for the lattice-shaped u = e^{-W/2} and the
    axis block ``half`` = D_oe.  B_{j,sigma} = diag(u_sigma') (I x .. x D_j
    x .. x I) diag(1 / u_sigma), where sigma' is sigma with the parity of axis
    j flipped and D_j is D_oe from an even axis, -D_oe^T from an odd one.
    Negated in place; numpy computes B^T @ B as a symmetric rank-k update,
    so the block is exactly symmetric."""
    K = None
    for j in range(len(sector)):
        target = sector[:j] + (1 - sector[j],) + sector[j + 1 :]
        axes = [(-half.T if s else half) if i == j else np.eye(len(half) + 1 - s) for i, s in enumerate(sector)]
        B = functools.reduce(np.kron, axes) * _orthant(u, target)[:, None]
        B /= _orthant(u, sector)[None, :]
        K = B.T @ B if K is None else np.add(K, B.T @ B, out=K)
    return np.negative(K, out=K)


def _fold(sector, x: np.ndarray) -> np.ndarray:
    """A grid vector of a 1-D lattice in the basis of one sector of
    ``_blocks``: x[0] and (x[m] + x[-m]) / sqrt 2 in the even one, (x[m] -
    x[-m]) / sqrt 2 in the odd one, m = 1..N; x itself in the one sector."""
    if sector is None:
        return x
    N = len(x) // 2
    if sector[0]:
        return (x[N + 1 :] - x[N - 1 :: -1]) * _SQRT_HALF
    return np.concatenate([x[N : N + 1], (x[N + 1 :] + x[N - 1 :: -1]) * _SQRT_HALF])


def _unfold(parts: list) -> np.ndarray:
    """The grid vector whose :func:`_fold` into each sector is ``parts``."""
    if len(parts) == 1:
        return parts[0]
    even, odd = parts
    return np.concatenate([((even[1:] - odd) * _SQRT_HALF)[::-1], even[:1], (even[1:] + odd) * _SQRT_HALF])


def _ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple:
    """Eigenvalues (ascending) and eigenvectors of the Lanczos tridiagonal."""
    T = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
    return np.linalg.eigh(T)


def _top_ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple:
    """The largest Ritz value, its eigenvector in the Lanczos basis and its
    Ritz residual beta_m |s_m|."""
    theta, S = _ritz(alpha, beta)
    return theta[-1], S[:, -1], beta[-1] * abs(S[-1, -1])


def _random_start(q0: np.ndarray) -> np.ndarray:
    """A fixed pseudo-random unit vector orthogonal to the unit vector q0: a
    start built from W would share the potential's symmetries and miss the
    modes that break them."""
    start = np.random.default_rng(0).standard_normal(len(q0))
    start -= (q0 @ start) * q0
    return start / np.linalg.norm(start)


def _lanczos_steps(apply, q0: np.ndarray, start: np.ndarray):
    """Lanczos on the orthogonal complement of the unit vector ``q0``, one
    step at a time.

    ``start`` is a unit vector orthogonal to q0.  Each new direction is
    reorthogonalized against the whole basis and then against q0, so
    rounding cannot bring the kernel back however long the run.  A second
    such pass runs only when the first cancelled most of the direction,
    leaving less than 1/sqrt(2) of its norm: otherwise one pass already
    leaves it orthogonal to rounding (Daniel, Gragg, Kaufman & Stewart,
    Math. Comp. 30, 1976).  After step m it yields the basis as rows, the
    diagonal alpha, the off-diagonal beta (m entries each; the last entry of
    beta couples the basis to the next direction), the number of steps that
    needed the second pass and the next direction times beta_m.  It ends when
    the space is invariant or after n - 1 steps, when it fills q0-perp.
    """
    n = len(start)
    steps = n - 1
    basis = np.empty((min(steps, 4 * CHECK_EVERY), n))
    alpha = np.empty(steps)
    beta = np.empty(steps)
    q = start
    repeats = 0
    for k in range(steps):
        if k == len(basis):
            basis = np.concatenate([basis, np.empty((min(k, steps - k), n))])
        basis[k] = q
        w = apply(q)
        alpha[k] = q @ w
        w -= alpha[k] * q
        if k:
            w -= beta[k - 1] * basis[k - 1]
        done = basis[: k + 1]
        before = np.linalg.norm(w)
        for sweep in range(2):
            w -= done.T @ (done @ w)
            w -= (q0 @ w) * q0
            beta[k] = np.linalg.norm(w)
            # a pass that kept 1/sqrt(2) of the norm needs no second one
            if sweep or beta[k] >= before / math.sqrt(2):
                break
            repeats += 1
        yield basis[: k + 1], alpha[: k + 1], beta[: k + 1], repeats, w
        if beta[k] == 0.0:
            return
        q = w / beta[k]


def _lanczos(apply, q0: np.ndarray, start: np.ndarray, converged) -> tuple:
    """:func:`_lanczos_steps` until ``converged(alpha, beta)`` holds, asked
    on the CHECK_EVERY schedule, or until the steps end.  Returns the basis
    as rows, alpha, beta and the number of steps that needed the second
    orthogonalization pass.
    """
    check = CHECK_EVERY
    for basis, alpha, beta, repeats, _ in _lanczos_steps(apply, q0, start):
        m = len(alpha)
        if m == check:
            if converged(alpha, beta):
                break
            check += max(CHECK_EVERY, m // 8)
    return basis, alpha, beta, repeats


def _inverse_cholesky(V: np.ndarray) -> np.ndarray:
    """C^{-1} for the Cholesky factor C of the Gram matrix V V^T = C C^T, so
    that C^{-1} V has orthonormal rows.  Raises LinAlgError when V is
    numerically rank-deficient."""
    return np.linalg.inv(np.linalg.cholesky(V @ V.T))


def _lowest_modes(op: Operator, k: int) -> np.ndarray:
    """The k lowest modes of the preconditioner past its all-kernel one, as
    rows: for a separable W, eigenvectors of L' to rounding."""
    vectors, total = op._separable
    order = np.argsort(total, axis=None, kind="stable")
    modes = np.zeros((k, op.size))
    modes[np.arange(k), order[order != 0][:k]] = 1.0
    return _along_axes(vectors, modes.reshape((k,) + op.lattice.shape), 1).reshape(k, op.size)


def _rayleigh(op: Operator, y: np.ndarray) -> float:
    """sum_j ||B_j y||^2 / ||y||^2: a sum of squares, it keeps about
    eps sqrt(||L'|| / gap) relative accuracy where y^T L' y keeps only
    eps ||L'|| / gap."""
    return sum(float(np.sum(b * b)) for b in op.scaled_derivatives(y)) / float(y @ y)


def _block_start(op: Operator, q0: np.ndarray, modes: np.ndarray) -> tuple:
    """A start vector for the gap's Lanczos run, and the number of block
    iterations spent on it: the best vector of a block LOBPCG (Knyazev, SIAM
    J. Sci. Comput. 23, 2001) for the smallest eigenvalues of K = -L' on
    q0-perp.

    The block starts as ``modes``, the lowest modes of the separable
    preconditioner (:func:`_lowest_modes`), plus GAP_START_NOISE times a
    fixed pseudo-random block: the preconditioner shares the symmetries of
    W's mean over each axis, and the pseudo-random part reaches the modes
    that break them.  Each iteration is a Rayleigh-Ritz step on the span of
    the block X, of its residuals preconditioned by ``op.precondition`` with
    the shift sigma the smallest Ritz value, and of its previous directions
    P.  The residuals, orthogonalized against q0 and X, and P get
    orthonormal rows first; K is applied once per block, through
    ``op.apply``.  The iteration stops once the smallest Ritz pair has a
    residual within the gap's own rule (GAP_RTOL, or eps times the largest
    Ritz value seen), when a Gram matrix fails its Cholesky factorization, or
    after GAP_BLOCK_ITERATIONS iterations.
    """
    k = len(modes)
    S = modes + GAP_START_NOISE * np.random.default_rng(0).standard_normal(modes.shape)
    S -= np.outer(S @ q0, q0)
    AS = -op.apply(S)
    F = _inverse_cholesky(S)
    top = 0.0
    P = AP = None
    iterations = 0
    while True:
        # Rayleigh-Ritz on the rows of S, which need not be orthonormal
        mu, Y = np.linalg.eigh(F @ (S @ AS.T) @ F.T)
        C = Y[:, :k].T @ F
        X, AX = C @ S, C @ AS
        if len(S) > k:
            P, AP = C[:, k:] @ S[k:], C[:, k:] @ AS[k:]
        theta, top = mu[:k], max(top, mu[-1])
        R = AX - theta[:, None] * X
        if iterations == GAP_BLOCK_ITERATIONS or np.linalg.norm(R[0]) <= max(GAP_RTOL * theta[0], EPS * top):
            break
        W = op.precondition(R, theta[0], 1.0)
        W -= np.outer(W @ q0, q0)
        W -= (W @ X.T) @ X
        try:
            W = _inverse_cholesky(W) @ W
            S, AS = [X, W], [AX, -op.apply(W)]
            if P is not None:
                G = _inverse_cholesky(P)
                S, AS = S + [G @ P], AS + [G @ AP]
            S, AS = np.concatenate(S), np.concatenate(AS)
            F = _inverse_cholesky(S)
        except np.linalg.LinAlgError:
            break
        iterations += 1
    start = X[0] - (q0 @ X[0]) * q0
    return start / np.linalg.norm(start), iterations


def _lanczos_gap(op: Operator) -> tuple:
    """The spectral gap by Lanczos on q0-perp, the largest |alpha| of the run
    (about ||L'||) and the health of the run.

    Lanczos starts from the vector of the block iteration
    :func:`_block_start`.  Where that converged, Lanczos confirms the gap at
    its first check; where it spent its budget (a steep W that is not a sum
    over axes), Lanczos carries on from its vector.  The run stops once the
    Ritz residual beta_m |s_m| of the top Ritz value meets GAP_RTOL, or
    eps max|alpha| (about eps ||L'||), below which it measures rounding
    rather than convergence.  The gap is then the smaller of the Rayleigh
    quotients (:func:`_rayleigh`) of the Ritz vector and of the
    preconditioner's lowest mode, both upper bounds on it: for a separable W
    that mode is an eigenvector to rounding, and keeps the gap where it sits
    below eps ||L'||, out of reach of any Ritz value.
    """
    q0 = op.kernel_vector()

    def converged(alpha, beta):
        theta, _, residual = _top_ritz(alpha, beta)
        return residual <= max(GAP_RTOL * abs(theta), EPS * np.abs(alpha).max())

    modes = _lowest_modes(op, GAP_BLOCK)
    start, iterations = _block_start(op, q0, modes)
    basis, alpha, beta, repeats = _lanczos(op.apply, q0, start, converged)
    _, s, residual = _top_ritz(alpha, beta)
    lowest = modes[0] - (q0 @ modes[0]) * q0
    gap = min(_rayleigh(op, basis.T @ s), _rayleigh(op, lowest))
    return gap, float(np.abs(alpha).max()), {
        "backend": "matrix-free",
        "gap_block_iterations": iterations,
        "lanczos_steps": len(alpha),
        "gap_residual": float(residual),
        "lanczos_reorth_steps": repeats,
    }


@functools.cache
def _gauss_legendre() -> tuple:
    """GAUSS_NODES Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(GAUSS_NODES)


def _quadrature(rates: np.ndarray, t: float) -> tuple:
    """Gauss-Legendre quadrature of functions of s in [0, t] built from the
    exponentials e^{s rates_i}, on intervals graded geometrically toward
    s = 0, where the fastest modes live on the scale 1 / max|rates|.
    Returns the exponentials at the nodes (one row per node) and the
    weights.  Raises LinAlgError for rates past the float64 range."""
    span = t * float(np.abs(rates).max())
    if not math.isfinite(span):
        raise np.linalg.LinAlgError("non-finite Ritz values")
    levels = max(0, math.ceil(math.log2(max(span, 1.0)))) + 4
    edges = t * np.concatenate([[0.0], 2.0 ** np.arange(-levels, 1)])
    nodes, w = _gauss_legendre()
    lo, hi = edges[:-1, None], edges[1:, None]
    s = ((hi - lo) * (nodes + 1) / 2 + lo).reshape(-1)
    ds = ((hi - lo) * w / 2).reshape(-1)
    return np.exp(np.outer(s, rates)), ds


def _polynomial_krylov(op: Operator, q0: np.ndarray, start: np.ndarray, t: float, tol: float) -> tuple:
    """e^{L' s} start for s <= t in the Krylov space of L' itself, grown
    until the bound beta_m int_0^t |e_m^T e^{s T_m} e_1| ds on the error
    (L' <= 0 on q0-perp makes it rigorous in exact arithmetic, and it grows
    with t), capped at 2, falls to ``tol``.  Returns the basis as rows, the
    Ritz values theta and vectors S of T_m (the state at time s is
    basis^T S e^{theta s} S^T e_1), the bound and the second passes."""

    def bound(alpha, beta):
        theta, S = _ritz(alpha, beta)
        modes, ds = _quadrature(theta, t)
        return min(beta[-1] * (ds @ np.abs(modes @ (S[-1] * S[0]))), 2.0)

    basis, alpha, beta, repeats = _lanczos(op.apply, q0, start, lambda a, b: bound(a, b) <= tol)
    theta, S = _ritz(alpha, beta)
    return basis, theta, S, bound(alpha, beta), repeats


class _InnerStall(Exception):
    """The shift-invert propagation gives way to the polynomial one (see
    :func:`_shift_invert`)."""


def _pcg(op: Operator, q0: np.ndarray, b: np.ndarray, gamma: float) -> tuple:
    """x with (I + gamma K) x = b, K = -L', for b orthogonal to q0, by
    conjugate gradients preconditioned with ``op.precondition(., 1, gamma)``
    projected onto q0-perp, so that every iterate stays there.  Stops once
    the residual falls to INNER_RTOL ||b||; returns x (None after
    INNER_BUDGET iterations), the norm of the residual and the iterations
    spent."""
    x = np.zeros_like(b)
    r = b.copy()
    target = INNER_RTOL * np.linalg.norm(b)
    p = None
    for i in range(1, INNER_BUDGET + 1):
        z = op.precondition(r, 1.0, gamma)
        z -= (q0 @ z) * q0
        rz = r @ z
        p = z if p is None else z + (rz / rz_prev) * p
        Ap = p - gamma * op.apply(p)
        step = rz / (p @ Ap)
        x += step * p
        r -= step * Ap
        residual = float(np.linalg.norm(r))
        if residual <= target:
            return x, residual, i
        rz_prev = rz
    return None, residual, INNER_BUDGET


def _shift_invert(op: Operator, q0: np.ndarray, start: np.ndarray, t: float, tol: float, health: dict):
    """e^{-K s} start for s <= t, K = -L', in the Krylov space of
    A = (I + gamma K)^{-1} on q0-perp, gamma = t / SHIFT_STEPS (Moret &
    Novati, BIT 44, 2004; van den Eshof & Hochbruck, SIAM J. Sci. Comput.
    27, 2006).  Each step solves (I + gamma K) x = v_k by :func:`_pcg` to
    a residual s_k.  The tridiagonal T_m of A maps back to K_m = (T_m^{-1} -
    I) / gamma, whose Ritz values are (1 / mu - 1) / gamma for the Ritz
    values mu of T_m.  From A V_m = V_m T_m + beta_m v_{m+1} e_m^T - A S_m,
    the residual of the approximation V_m e^{-s K_m} e_1 is
    ((I + gamma K) beta_m v_{m+1} e_m^T + S_m) T_m^{-1} e^{-s K_m} e_1 /
    gamma.  K >= 0 on q0-perp bounds the error at every time up to t by
    the integral of its norm, and Cauchy-Schwarz the sum over the s_k:

        (||(I + gamma K) beta_m v_{m+1}|| int_0^t |f_m(s)| ds
         + ||(||s_1||, .., ||s_m||)|| int_0^t ||f(s)|| ds) / gamma,
        f(s) = T_m^{-1} e^{-s K_m} e_1,

    rigorous in exact arithmetic, the inner tolerance included.  The space
    grows until this bound, capped at 2, falls to ``tol``.  It is evaluated
    after steps 1, 2, .., at a spacing of m / 8 past m = 16, so that its
    O(m^3) cost stays below the run's own, and costs one apply, spent only
    once the bound with ||beta_m v_{m+1}|| in place of the first norm, a
    lower bound, has met ``tol``.  Returns what :func:`_polynomial_krylov`
    returns, with the rates -(1 / mu - 1) / gamma in place of theta, and
    records the path and the inner iterations in ``health``.  Returns None
    when an inner solve spent INNER_BUDGET iterations, when the inner
    tolerance alone exceeds ``tol``, or when rounding has made T_m
    indefinite or (for a t so small that gamma underflows) K_m infinite.
    """
    gamma = t / SHIFT_STEPS
    residuals = []

    def solve(b):
        x, residual, iterations = _pcg(op, q0, b, gamma)
        health["krylov_inner_steps"] += iterations
        if x is None:
            raise _InnerStall
        residuals.append(residual)
        return x

    health["krylov_path"] = "shift-invert"
    try:
        check = 1
        for basis, alpha, beta, repeats, w in _lanczos_steps(solve, q0, start):
            m = len(alpha)
            if m < check and beta[-1] > 0 and m < op.size - 1:
                continue
            check = m + max(1, m // 8)
            mu, S = _ritz(alpha, beta)
            rates = (1.0 - 1.0 / mu) / gamma
            if mu[0] <= 0.0 or not np.isfinite(rates).all():
                raise _InnerStall
            # T_m^{-1} e^{-s K_m} e_1 at the nodes, one row per node, in the
            # Ritz basis and its last entry f_m(s)
            modes, ds = _quadrature(rates, t)
            modes *= S[0] / mu
            # sum_k ||s_k|| |f_k(s)| <= ||(||s_k||)_k|| ||f(s)||
            inexact = math.hypot(*residuals) * (ds @ np.linalg.norm(modes, axis=1)) / gamma
            if inexact > tol:
                raise _InnerStall
            last = (ds @ np.abs(modes @ S[-1])) / gamma
            # ||(I + gamma K) w|| >= ||w|| since K >= 0: a lower bound first
            error = inexact + beta[-1] * last
            if error <= tol or m == op.size - 1:
                error = inexact + float(np.linalg.norm(w - gamma * op.apply(w))) * last
                if error <= tol:
                    break
    except _InnerStall:
        return None
    return basis, rates, S, min(error, 2.0), repeats


def build_generator(E: EnergyPotential, lattice: TorusLattice, halve: bool = True) -> Operator:
    """The generator of W = E/2 (``halve``, the pipeline default) or W = E,
    with its spectral gap.

    For d = 1 the gap is read off the spectrum, a values-only eigvalsh of
    each sector block: the axis matrix is the whole matrix, and Lanczos
    would need about n steps.  For d >= 2 it comes through ``apply``, and
    nothing dense is assembled: a block LOBPCG (Knyazev, SIAM J. Sci.
    Comput. 23, 2001) from the lowest modes of the separable preconditioner,
    preconditioned by it, runs for at most GAP_BLOCK_ITERATIONS iterations,
    and Lanczos finishes from its best vector (see :func:`_lanczos_gap`).
    """
    if lattice.size > DENSE_CAP:
        raise SizeError(f"lattice has {lattice.size} nodes, exceeding the cap {DENSE_CAP}")
    if lattice.d != E.d:
        raise ValidationError(f"potential dimension {E.d} != lattice dimension {lattice.d}")

    e_grid = discretize(E, lattice)
    w_vals = e_grid.values / 2 if halve else e_grid.values
    W = GridField(lattice, w_vals, is_real=True)
    w = W.flat
    op = Operator(lattice=lattice, potential=E, W=W, delta_W=float(w.max() - w.min()))
    with _float64_range(op):
        if lattice.d == 1:
            op.health["backend"] = "dense"
            op.spectral_gap = float(-op.eigenvalues[1])
            norm = float(-op.eigenvalues[-1])
        else:
            op.spectral_gap, norm, op.health = _lanczos_gap(op)
    if not (math.isfinite(op.spectral_gap) and op.spectral_gap > 0):
        raise _too_steep(op)
    op.health["gap_rounding"] = float(EPS * norm / op.spectral_gap)
    return op


# ---------------------------------------------------------------------------
# structural reports


@dataclass
class OperatorNormReport(Report):
    measured: float
    bound: float
    log_branch: float
    exp_branch: float

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound * (1 + 1e-9)


def operator_norm_check(op: Operator) -> OperatorNormReport:
    """Spectral norm of L against d N^2/l^2 min(4 pi^2 + 2606 D (ln N)^2, 4 pi^2 e^D).

    ||L||_2 is sqrt(theta) for the top Ritz value theta of Lanczos on
    L^T L = U^{-1} L' U^2 L' U^{-1}, applied through ``op.apply`` on the
    complement of its kernel e^{-W} from the fixed pseudo-random start, once
    the Ritz residual meets NORM_RTOL theta.  The step count and the relative
    Ritz residual go into ``op.health``, not into the report.
    """
    lat = op.lattice
    if lat.N <= 3:
        raise PreconditionError(f"operator norm bound is stated for N > 3, got N={lat.N}")
    u = op.u_diag

    def normal(x):
        return op.apply(u * u * op.apply(x / u)) / u

    def converged(alpha, beta):
        theta, _, residual = _top_ritz(alpha, beta)
        return residual <= NORM_RTOL * theta

    with _float64_range(op):
        q0 = u * u / np.linalg.norm(u * u)
        _, alpha, beta, repeats = _lanczos(normal, q0, _random_start(q0), converged)
        theta, _, residual = _top_ritz(alpha, beta)
    if not math.isfinite(theta):
        raise _too_steep(op)
    op.health.update(norm_lanczos_steps=len(alpha), norm_residual=float(residual / theta), norm_reorth_steps=repeats)
    pref = lat.d * lat.N**2 / lat.l**2
    log_branch = pref * (4 * math.pi**2 + 2606 * op.delta_W * math.log(lat.N) ** 2)
    exp_branch = pref * 4 * math.pi**2 * math.exp(op.delta_W)
    return OperatorNormReport(
        measured=math.sqrt(theta), bound=min(log_branch, exp_branch), log_branch=log_branch, exp_branch=exp_branch
    )


@dataclass
class ConditionNumberReport(Report):
    kappa: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.kappa <= self.bound * (1 + 1e-10)


def condition_number_check(op: Operator) -> ConditionNumberReport:
    """kappa of V = U Q, the diagonalizing similarity L = V D V^{-1}.

    Q is orthogonal, so the singular values of V are those of the diagonal
    U and kappa(V) = max(u) / min(u) exactly; no factorization is needed.
    """
    u = op.u_diag
    kappa = float(u.max() / u.min())
    return ConditionNumberReport(kappa=kappa, bound=math.exp(op.delta_W / 2))


@dataclass
class PoincareReport(Report):
    gap: float
    floor: float
    slack: float = 0.05

    @property
    def ok(self) -> bool:
        return self.gap >= self.floor * (1 - self.slack)


def poincare_report(op: Operator) -> PoincareReport:
    """Discrete spectral gap against the universal floor 4 pi^2 / (l^2 e^D)."""
    floor = 4 * math.pi**2 / (op.lattice.l**2 * math.exp(op.delta_W))
    return PoincareReport(gap=op.spectral_gap, floor=floor)


# ---------------------------------------------------------------------------
# exports


def spectrum_to_csv(op: Operator) -> str:
    return csv_text(["index", "eigenvalue"], ([i, repr(float(lam))] for i, lam in enumerate(op.eigenvalues)))
