"""The discretized Fokker-Planck generator  L f = div~( e^{-W} grad~( e^{W} f ) ),
its spectral gap, its propagator, and its structure checks.

W is the potential actually evolved; the sampling pipeline uses W = E/2 so
that squared state amplitudes target e^{-E}.  The axis derivatives D_j are
antisymmetric, so the symmetrization L' = U^{-1} L U with U = diag(e^{-W/2})
factors as

    L' = -sum_j B_j^T B_j,    B_j = diag(e^{-W/2}) D_j diag(e^{W/2}),

an exactly symmetric negative semidefinite matrix whose one-dimensional kernel
is spanned by q0 = e^{-W/2} / ||e^{-W/2}|| (B_j e^{-W/2} = diag(e^{-W/2}) D_j 1
= 0).

:func:`build_generator` chooses the route once, by the lattice and the
potential: :class:`DenseOperator` at d = 1, :class:`SeparableOperator` for a
W that is a sum over axes at d >= 2, :class:`MatrixFreeOperator` otherwise.
Each route owns its spectrum ``eigenvalues`` (values only, descending, the
kernel eigenvalue pinned to 0 at index 0, computed on first access and
kept), its gap (``_gap``) and the modes ``_pieces`` it propagates in, and
names itself in ``op.health["backend"]``.  All share ``propagate`` and
``apply``, which acts with L' one axis at a time (:func:`torusfp.spectral.axis_derivative`),
on one vector or on a block; the dense L' (``symmetrized``) is assembled only on
demand, line by line from the (2N+1)^2 axis matrix, as B_j acts along axis j
alone (:func:`_dense_symmetrized`): no n x n derivative matrix is formed.

Every Lanczos run (the gap, the propagation and the norm check)
orthogonalizes each new direction once against its basis and q0, and a
second time only when the first pass left less than 1/sqrt(2) of its norm
(the DGKS rule).  ``op.health`` records, beside each route's own numbers,
``gap_rounding``, the ratio eps ||L'|| / gap.  U scales L' by up to
e^{delta_W}: numbers of a steep potential past the float64 range, and a gap
read off the spectrum below eps^2 ||L'||, the rounding of the spectrum or of
the SVD it comes from, end in a PreconditionError that names delta_W and N.

The structure checks compare the condition number of the eigenvector basis
(max(u)/min(u) in closed form), the spectral norm of L and the spectral gap
with their bounds; their reports serialize through :mod:`torusfp.report`.  The norm ||L||_2 is
the square root of the top eigenvalue of L^T L = U^{-1} L' U^2 L' U^{-1},
found by Lanczos through ``op.apply`` to a Ritz residual of NORM_RTOL
relative, with neither the dense L nor an SVD.  Each product with L'
scales as (2 pi N / l)^2 and is divided by it, so that L^T L stays inside
float64 at every period make_lattice accepts.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import PreconditionError, SizeError, ValidationError
from .lattice import GridField, TorusLattice, discretize, make_lattice
from .potential import EnergyPotential
from .report import Report, csv_text
from .spectral import _along_axis, axis_derivative, derivative_axis_matrix, derivative_kernel

EPS = np.finfo(float).eps
_SQRT_HALF = math.sqrt(0.5)
#: Largest node count of ``build_generator``, on every route: at d = 1 a dense
#: sector block holds about n^2 / 4 entries (n^2 in one sector), one at a
#: time, and a propagation holds its eigenvectors, as many again, and at
#: d >= 2 the dense L' of a W that is not a sum over axes holds n^2.
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
#: Most iterations of that block.  Measured on the coupled potential of
#: tests/test_matrix_free.py, as iterations/Lanczos steps and
#: build_generator seconds with budgets 40/100/160: z=4, c=0.5, N=25 40/289
#: 0.36 s, 99/8 0.14 s, 99/8 0.15 s; N=31 40/365 0.67 s, 98/8 0.22 s, 98/8
#: 0.18 s; z=8, c=1, N=25 never converged, 461 steps, 0.74/0.69/0.85 s.
GAP_BLOCK_ITERATIONS = 100
#: Gauss-Legendre nodes per interval of the error-bound quadrature.
GAUSS_NODES = 16
#: Most values per block of a pass over the snapshot times, a propagation's
#: or ``evolve``'s trace pass.  At d = 1, N = 200, 5000 snapshots, ``evolve``
#: peaks at 16.3 MiB (states 15.3; 2^16: 17.1) and its trace pass takes 11.0
#: ms (2^14: 16.6, 2^16: 12.3, 2^18: 15.1; one BLAS thread, 2 vCPUs).
BLOCK_VALUES = 2**15


@dataclass
class Operator:
    """The symmetrized generator L' = -sum_j B_j^T B_j: what every route
    shares, ``propagate`` included."""

    lattice: TorusLattice
    potential: EnergyPotential
    W: GridField          # evolved potential on the grid (E/2 or E)
    delta_W: float        # grid diameter of W
    spectral_gap: float = math.nan
    health: dict = field(default_factory=dict)
    backend: ClassVar[str]

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

    def kernel_vector(self) -> np.ndarray:
        """Unit eigenvector of L' at eigenvalue zero: e^{-W/2} normalized,
        divided by its peak first so that its squares stay inside float64."""
        u = self.u_diag / self.u_diag.max()
        return u / np.linalg.norm(u)

    @cached_property
    def symmetrized(self) -> np.ndarray:
        """Dense L', assembled on first access and kept."""
        return _dense_symmetrized(self.lattice, self.u_diag)

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

    def propagate(self, v: np.ndarray, times: np.ndarray) -> tuple:
        """Rows e^{L t_i} v and the health of the propagation.  With x = U^{-1}
        v = c q0 + r the kernel part c q0 is kept exactly, and each piece
        (coefficients a, rates theta, add) of the route's ``_pieces`` of r adds
        its modes e^{theta t} a, mapped back to grid rows, BLOCK_VALUES // n
        times at a time: one exp and one product per block, never per time."""
        u, q0 = self.u_diag, self.kernel_vector()
        x = v / u
        c = q0 @ x
        out = np.tile(c * q0, (len(times), 1))
        rows = max(1, BLOCK_VALUES // self.size)
        with _float64_range(self):
            health, pieces = self._pieces(q0, x - c * q0, float(np.linalg.norm(x)), float(np.max(times)))
            for coefficients, rates, add in pieces:
                for start in range(0, len(times), rows):
                    block = slice(start, start + rows)
                    modes = np.outer(times[block], rates)
                    add(np.multiply(np.exp(modes, out=modes), coefficients, out=modes), out[block])
                del coefficients, rates, add, modes  # freed before the next piece is made
        out *= u
        return out, health

    def _gap(self) -> tuple:
        """The gap and ||L'||, read off ``eigenvalues`` as -eigenvalues[1] and
        -eigenvalues[-1], so ``spectrum.csv`` row 1 is -gap bit for bit.  Past
        eps^2 ||L'|| the gap is rounding: of the dense spectrum, or of the SVD
        of an axis factor B_j, of which sqrt(gap) is a singular value resolved
        only above eps ||B_j||."""
        gap, norm = float(-self.eigenvalues[1]), float(-self.eigenvalues[-1])
        if not gap > EPS * EPS * norm:
            raise _too_steep(self)
        return gap, norm


class DenseOperator(Operator):
    """The d = 1 route, by dense sector blocks: at d = 1 Lanczos and Krylov
    need about n steps, some 12 times the dense cost at N = 1023.

    If W equals its own flip n -> -n, bitwise, L' commutes with that
    reflection (D anticommutes with it) and splits into an even and an odd
    sector, each block -B^T B assembled in the basis (e_m +- e_{-m}) / sqrt 2
    of its sector without forming L'; otherwise there is one block, L'
    itself.  No block is kept: each is assembled when it is used and freed
    before the next, so the operator holds none once built, and each
    propagation assembles the blocks once more.  The spectrum is a
    values-only eigvalsh of each block, and the gap is read off it; the
    propagation runs in the modes of ``eigh`` of each block.
    """

    backend = "dense"

    def _blocks(self):
        """The blocks as (sector, block) pairs, each assembled only when it is
        iterated: the even and the odd reflection sector (0 and 1), the even
        one first, or one, (None, L').  A consumer drops each block before it
        asks for the next, so at most one is alive.  The count goes into
        ``health`` as ``dense_sectors``."""
        W = self.W.values
        if np.array_equal(W, W[::-1]):
            self.health["dense_sectors"] = 2
            for odd in (0, 1):
                yield odd, _sector_block(self.u_diag, _half_derivative(self.lattice), odd)
        else:
            self.health["dense_sectors"] = 1
            yield None, _dense_symmetrized(self.lattice, self.u_diag)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """A values-only eigvalsh of each block of ``_blocks``, which puts the
        kernel at about eps ||L'||, either sign, before it is pinned."""
        parts = []
        with _float64_range(self):
            for _, block in self._blocks():
                parts.append(np.linalg.eigvalsh(block)[::-1])
                del block  # freed before the next block is assembled
        return _descending(np.concatenate(parts))

    def _block_modes(self):
        """(sector, values, vectors) for each block of ``_blocks``, by ``eigh``
        of the freshly assembled block itself (a negated copy would cost one
        more array), each computed when it is iterated and kept by no one.
        Values descending, orthonormal vectors as columns in the block's own
        basis.

        The kernel is known exactly, so its eigenpair is pinned in the first
        block (the even one, or the one sector) as the folded q0 rather
        than taken from eigh: the computed kernel vector strays from
        e^{-W/2} by about eps ||L'|| / gap, and every other mode would then
        carry mass.  Projecting it out of that block's other vectors keeps
        <1, u(t)> fixed to rounding; q0 is even, so no odd block holds any.
        """
        for sector, block in self._blocks():
            mu, Q = np.linalg.eigh(block)
            del block  # freed before the copy below and the next block
            values, vectors = mu[::-1], np.ascontiguousarray(Q[:, ::-1])
            del Q
            if sector in (None, 0):
                q0 = _fold(sector, self.kernel_vector())
                values[0] = 0.0
                vectors[:, 0] = q0
                vectors[:, 1:] -= np.outer(q0, q0 @ vectors[:, 1:])
            yield sector, values, vectors
            del vectors  # freed before the next block is assembled

    def _pieces(self, q0: np.ndarray, rest: np.ndarray, scale: float, t_max: float) -> tuple:
        """Empty health and, made as it is iterated, one piece per sector of
        ``_block_modes``, mapped back by the transpose of ``_fold``."""

        def sectors():
            for sector, values, vectors in self._block_modes():
                yield vectors.T @ _fold(sector, rest), values, functools.partial(_add_unfolded, sector, vectors)
                del vectors  # freed before the next block is assembled

        return {}, sectors()


class SeparableOperator(Operator):
    """The route of a W that is a sum over axes at d >= 2 (built from its
    terms ``EnergyPotential.axes``, so ``separable``), by the per-axis
    factors ``_separable``: -L' is the sum of the 1-D generators K_j, each
    acting along its axis, so the factors are its eigendecomposition, built
    once per operator by fast diagonalization (Lynch, Rice & Thomas, Numer.
    Math. 6, 1964).  The spectrum is the negated sums sum_j Lambda_j, with
    nothing dense assembled, and the gap is read off it; the propagation
    runs in the modes (x)Q_j.
    """

    backend = "separable"

    @cached_property
    def _separable(self) -> tuple:
        """The per-axis factors, computed on first access and kept: for each
        axis j the orthonormal eigenvectors Q_j of the d = 1 generator K_j =
        B_j^T B_j of W's mean over the other axes, and the lattice-shaped sum
        of their eigenvalues, sum_j Lambda_j, the all-kernel mode at index 0.
        Each factor comes from the SVD of its (2N+1)^2 B_j, ascending:
        Lambda_j = s_j^2 keeps the small eigenvalues of a steep W to relative
        accuracy where eigh of K_j loses them below eps ||K_j||.  They take
        W's mean, not its terms, as the preconditioner of any other W needs it."""
        lattice, W = self.lattice, self.W.values
        D = derivative_axis_matrix(make_lattice(1, lattice.N, lattice.l))
        vectors, total = [], 0.0
        for j in range(lattice.d):
            u = np.exp(-W.mean(axis=tuple(i for i in range(lattice.d) if i != j)) / 2)
            _, s, Vt = np.linalg.svd(D * u[:, None] / u[None, :])
            vectors.append(Vt[::-1].T)
            total = total + (s[::-1] ** 2).reshape([-1 if i == j else 1 for i in range(lattice.d)])
        return vectors, total

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The sums sum_j Lambda_j of ``_separable``, negated, with nothing
        dense assembled."""
        return _descending(-self._separable[1].reshape(-1))

    def precondition(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """P x = (x)Q_j (sigma + sum_j Lambda_j)^{-1} (x)Q_j^T x for a flat
        vector x, or for each row of a block x: (sigma + K)^{-1} x for a
        separable W, by one dense product per axis each way (Lynch, Rice &
        Thomas, Numer. Math. 6, 1964).  Needs sigma > 0."""
        vectors, total = self._separable
        lead = x.ndim - 1
        y = _along_axes([Q.T for Q in vectors], x.reshape(x.shape[:-1] + self.lattice.shape), lead)
        return _along_axes(vectors, y / (sigma + total), lead).reshape(x.shape)

    def _pieces(self, q0: np.ndarray, rest: np.ndarray, scale: float, t_max: float) -> tuple:
        """Empty health and one piece: rest in the eigenbasis (x)Q_j of -L',
        each mode at its rate -sum_j Lambda_j, the all-kernel one pinned to 0,
        and the modes mapped back by one dense product per axis."""
        vectors, total = self._separable  # total is lattice-shaped
        rates = -total.reshape(-1)
        rates[0] = 0.0

        def add(modes, rows):
            rows += _along_axes(vectors, modes.reshape((-1,) + total.shape), 1).reshape(rows.shape)

        return {}, [(_along_axes([Q.T for Q in vectors], rest.reshape(total.shape), 0).reshape(-1), rates, add)]


class MatrixFreeOperator(SeparableOperator):
    """The route of any other W at d >= 2, through ``apply``: the per-axis
    factors of W's mean are no longer its eigendecomposition, so they only
    precondition (``precondition``) and start the gap's iteration.  The gap
    comes by Lanczos (Saad, SIAM J. Numer. Anal. 29, 1992) and carries the
    rounding of products with L', about eps ||L'|| / gap relative.  The
    propagation runs in the polynomial Krylov space of L' (Hochbruck &
    Lubich, SIAM J. Numer. Anal. 34, 1997).  The spectrum is a values-only
    eigvalsh of the dense L', assembled only when it is asked for.
    """

    backend = "matrix-free"

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """A values-only eigvalsh of L', assembled afresh and freed: one block,
        as ``dense_sectors`` in ``health``."""
        self.health["dense_sectors"] = 1
        with _float64_range(self):
            return _descending(np.linalg.eigvalsh(_dense_symmetrized(self.lattice, self.u_diag))[::-1])

    def _gap(self) -> tuple:
        """The spectral gap by Lanczos on q0-perp and the largest |alpha| of
        the run (about ||L'||); ``health`` gets the block iterations of its
        start, its Lanczos steps, gap residual and second passes.

        Lanczos starts from the best vector of the block LOBPCG
        :func:`_block_start`.  Where that converged, Lanczos confirms the gap at
        its first check; where it spent its budget (a steep W that is not a sum
        over axes), Lanczos carries on from its vector.  The run stops once the
        Ritz residual beta_m |s_m| of the top Ritz value meets GAP_RTOL, or
        eps max|alpha| (about eps ||L'||), below which it measures rounding
        rather than convergence.  The gap is then the Rayleigh quotient
        (:func:`_rayleigh`) of the Ritz vector.
        """
        q0 = self.kernel_vector()

        def converged(alpha, beta):
            theta, _, residual = _top_ritz(alpha, beta)
            return residual <= max(GAP_RTOL * abs(theta), EPS * np.abs(alpha).max())

        start, iterations = _block_start(self, q0, _lowest_modes(self, GAP_BLOCK))
        basis, alpha, beta, repeats = _lanczos(self.apply, q0, start, converged)
        _, s, residual = _top_ritz(alpha, beta)
        self.health.update(
            gap_block_iterations=iterations,
            lanczos_steps=len(alpha),
            gap_residual=float(residual),
            lanczos_reorth_steps=repeats,
        )
        return _rayleigh(self, basis.T @ s), float(np.abs(alpha).max())

    def _pieces(self, q0: np.ndarray, rest: np.ndarray, scale: float, t_max: float) -> tuple:
        """The health of the Krylov run and its one piece: rest, orthogonal to
        the unit kernel vector q0, in its polynomial Krylov space
        (:func:`_polynomial_krylov`), grown until an a posteriori bound on
        the error at t_max falls to KRYLOV_RTOL ``scale``."""
        r0 = float(np.linalg.norm(rest))
        # both e^{L' t} r and its approximation have norm <= ||r||, so the
        # error never exceeds 2 ||r||: a small enough rest needs no space
        if 2 * r0 <= KRYLOV_RTOL * scale:
            error = 2 * r0 / scale if scale else 0.0
            return {"krylov_steps": 0, "krylov_error": error, "krylov_reorth_steps": 0}, []
        basis, rates, S, error, repeats = _polynomial_krylov(self, q0, rest / r0, t_max, KRYLOV_RTOL * scale / r0)
        error = float(error * r0 / scale)
        if not math.isfinite(error):
            raise _too_steep(self)

        def add(modes, rows):
            rows += r0 * ((modes @ S.T) @ basis)

        return {"krylov_steps": len(basis), "krylov_error": error, "krylov_reorth_steps": repeats}, [(S[0], rates, add)]


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
    """Dense L' = -sum_j B_j^T B_j, line by line.  B_j acts along axis j
    alone: on each line of the lattice along axis j, the 2N+1 nodes that
    differ only in coordinate j, it is B_l = diag(u_l) D diag(1 / u_l) for
    the axis matrix D and U's values u_l on the line, and K_l = B_l^T B_l is
    subtracted from the block of L' that the line occupies, a view of L' as
    an array of shape ``shape + shape``.  That is O(d n (2N+1)^2) work, and
    L' is the only n x n array.  At d = 1 the one line is the whole axis, so
    D is scaled and K negated in place.  Two nodes share a line of at most
    one axis, so L' is exactly symmetric, as each K_l is (:func:`_gram`)."""
    D = derivative_axis_matrix(lattice)
    if lattice.d == 1:
        K = _gram(D, u, u)
        return np.negative(K, out=K)
    L = np.zeros((lattice.size, lattice.size))
    blocks, u = L.reshape(lattice.shape * 2), u.reshape(lattice.shape)
    for j in range(lattice.d):
        for rest in np.ndindex(lattice.shape[1:]):
            line = rest[:j] + (slice(None),) + rest[j:]
            blocks[line + line] -= _gram(D.copy(), u[line], u[line])
    return L


def _gram(B: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """K = S^T S for S = diag(rows) B diag(1 / cols), with S written over B.
    numpy computes S^T @ S as a symmetric rank-k update, so K is exactly
    symmetric."""
    B *= rows[:, None]
    B /= cols[None, :]
    return B.T @ B


def _descending(values: np.ndarray) -> np.ndarray:
    """``values`` with the kernel at index 0, which stays there pinned to 0,
    and the rest sorted descending."""
    order = np.concatenate([[0], 1 + np.argsort(-values[1:], kind="stable")])
    values = values[order]
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


def _sector_block(u: np.ndarray, half: np.ndarray, odd: int) -> np.ndarray:
    """The block -K_s of a 1-D L' on the even (``odd`` = 0) or the odd
    reflection sector, K_s = B_s^T B_s, for u = e^{-W/2} and ``half`` = D_oe:
    B_s = diag(u_s') D_s diag(1 / u_s), where s' is the other sector, u_s
    holds u at m = 0..N in the even sector and m = 1..N in the odd one, and
    D_s is D_oe from the even sector, -D_oe^T from the odd one.  ``half`` is
    overwritten by B_s (transposed in the odd sector), so the block costs one
    array beside it.  Negated in place, and exactly symmetric (:func:`_gram`)."""
    N = len(half)
    B = np.negative(half, out=half).T if odd else half
    K = _gram(B, u[N + 1 - odd :], u[N + odd :])
    return np.negative(K, out=K)


def _fold(sector, x: np.ndarray) -> np.ndarray:
    """A grid vector of a 1-D lattice in the basis of one sector of
    ``_blocks``: x[0] and (x[m] + x[-m]) / sqrt 2 in the even one, (x[m] -
    x[-m]) / sqrt 2 in the odd one, m = 1..N; x itself in the one sector."""
    if sector is None:
        return x
    N = len(x) // 2
    if sector:
        return (x[N + 1 :] - x[N - 1 :: -1]) * _SQRT_HALF
    return np.concatenate([x[N : N + 1], (x[N + 1 :] + x[N - 1 :: -1]) * _SQRT_HALF])


def _add_unfolded(sector, vectors: np.ndarray, modes: np.ndarray, rows: np.ndarray) -> None:
    """Adds y = ``modes @ vectors.T``, a row per time in one sector's basis, to
    the grid ``rows`` by the transpose of :func:`_fold`: y_m / sqrt 2 onto
    x[m] and onto x[-m], negated in the odd sector, and the even y_0 onto x[0]."""
    y = modes @ vectors.T
    if sector is None:
        rows += y
        return
    N = rows.shape[1] // 2
    if not sector:
        rows[:, N] += y[:, 0]
    half = np.multiply(y[:, -N:], _SQRT_HALF, out=y[:, -N:])  # m = 1..N
    rows[:, N + 1 :] += half
    (np.subtract if sector else np.add)(rows[:, N - 1 :: -1], half, out=rows[:, N - 1 :: -1])


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


def _lanczos(apply, q0: np.ndarray, start: np.ndarray, converged) -> tuple:
    """Lanczos on the orthogonal complement of the unit vector ``q0``, until
    ``converged(alpha, beta)`` holds, asked after CHECK_EVERY steps and then
    every max(CHECK_EVERY, m / 8) steps, or until the space is invariant or
    fills q0-perp after n - 1 steps.

    ``start`` is a unit vector orthogonal to q0.  Each new direction is
    reorthogonalized against the whole basis and then against q0, so
    rounding cannot bring the kernel back however long the run.  A second
    such pass runs only when the first cancelled most of the direction,
    leaving less than 1/sqrt(2) of its norm: otherwise one pass already
    leaves it orthogonal to rounding (Daniel, Gragg, Kaufman & Stewart,
    Math. Comp. 30, 1976).  Returns the basis as rows, the diagonal alpha,
    the off-diagonal beta (m entries each; the last entry of beta couples
    the basis to the next direction) and the number of steps that needed
    the second pass.
    """
    n = len(start)
    steps = n - 1
    basis = np.empty((min(steps, 4 * CHECK_EVERY), n))
    alpha = np.empty(steps)
    beta = np.empty(steps)
    q = start
    repeats = 0
    check = CHECK_EVERY
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
        m = k + 1
        if m == check:
            if converged(alpha[:m], beta[:m]):
                break
            check += max(CHECK_EVERY, m // 8)
        if beta[k] == 0.0:
            break
        q = w / beta[k]
    return basis[:m], alpha[:m], beta[:m], repeats


def _inverse_cholesky(V: np.ndarray) -> np.ndarray:
    """C^{-1} for the Cholesky factor C of the Gram matrix V V^T = C C^T, so
    that C^{-1} V has orthonormal rows.  Raises LinAlgError when V is
    numerically rank-deficient."""
    return np.linalg.inv(np.linalg.cholesky(V @ V.T))


def _lowest_modes(op: MatrixFreeOperator, k: int) -> np.ndarray:
    """The k lowest modes of the preconditioner past its all-kernel one, as
    rows."""
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


def _block_start(op: MatrixFreeOperator, q0: np.ndarray, modes: np.ndarray) -> tuple:
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
        W = op.precondition(R, theta[0])
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


def build_generator(E: EnergyPotential, lattice: TorusLattice, halve: bool = True) -> Operator:
    """The generator of W = E/2 (``halve``, the pipeline default) or W = E,
    with its spectral gap, on the one route of its lattice and potential:
    :class:`DenseOperator` at d = 1, :class:`SeparableOperator` for a W that
    is a sum over axes at d >= 2, and :class:`MatrixFreeOperator` otherwise.
    """
    if lattice.size > DENSE_CAP:
        raise SizeError(f"lattice has {lattice.size} nodes, exceeding the cap {DENSE_CAP}")
    if lattice.d != E.d:
        raise ValidationError(f"potential dimension {E.d} != lattice dimension {lattice.d}")

    e_grid = discretize(E, lattice)
    w_vals = e_grid.values / 2 if halve else e_grid.values
    W = GridField(lattice, w_vals, is_real=True)
    w = W.flat
    route = DenseOperator if lattice.d == 1 else SeparableOperator if E.separable else MatrixFreeOperator
    op = route(lattice=lattice, potential=E, W=W, delta_W=float(w.max() - w.min()))
    op.health["backend"] = op.backend
    with _float64_range(op):
        op.spectral_gap, norm = op._gap()
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
    # each product with L' scales as (2 pi N / l)^2: divided by it after each
    # one, L^T L stays inside float64 at every period make_lattice accepts
    scale = (2 * math.pi * lat.N / lat.l) ** 2

    def normal(x):
        return op.apply(u * u * (op.apply(x / u) / scale)) / scale / u

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
        measured=math.sqrt(theta) * scale, bound=min(log_branch, exp_branch), log_branch=log_branch, exp_branch=exp_branch
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
