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
pinned to 0, and ``modes``) is computed on first access, one reflection sector
at a time, and kept.  If W equals its own flip along every axis, bitwise, L'
commutes with each reflection n_j -> -n_j (D_j anticommutes with it) and
splits into 2^d sectors, even or odd along each axis: each block
-sum_j B_j^T B_j is assembled in the basis (e_m +- e_{-m}) / sqrt 2 of its
sector, over the closed positive orthant, without forming L'.  Otherwise
there is one sector, L' itself.  The dense L' (``symmetrized``) is assembled
only on demand.  Two things depend on d, since at d = 1 Lanczos and Krylov
need about n steps, some 12 times the dense cost at N = 1023:

- the gap (``build_generator``): read off ``eigenvalues`` at d = 1; at
  d >= 2 by Lanczos on the complement of q0 (Saad, SIAM J. Numer. Anal. 29,
  1992), to a Ritz residual of GAP_RTOL, from the best vector of a short
  block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) preconditioned by
  (-Delta + sigma)^{-1} through the FFT, which takes a mild potential to the
  gap in a number of iterations that does not grow with N;
- the propagation (``propagate``): mode by mode at d = 1, with no
  time-stepping error, from ``modes`` (``eigh`` of each stored block with the
  kernel eigenpair pinned to (0, q0), on first access, kept); at d >= 2 the
  q0 component is kept exactly and the rest advanced in a Krylov space
  (Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1997) until an a posteriori
  error bound meets KRYLOV_RTOL.

Every Lanczos run (the gap, the propagation and the norm check)
orthogonalizes each new direction once against its basis and q0, and a
second time only when the first pass left less than 1/sqrt(2) of its norm
(the DGKS rule).  ``op.health`` records the backend ("dense" at d = 1,
"matrix-free" at d >= 2 with the block iterations of its start, its
Lanczos steps, gap residual and second passes) and, once the dense spectrum
ran, its ``dense_sectors``; ``propagate`` returns the health of its Krylov
run next to the states.  U scales L' by up to e^{delta_W}: numbers of
a steep potential past the float64 range end in a PreconditionError that
names delta_W and N.

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
from .lattice import GridField, TorusLattice, discretize
from .potential import EnergyPotential
from .report import Report, csv_text
from .spectral import axis_derivative, derivative_kernel, derivative_matrix, shifted_laplacian_solve

EPS = np.finfo(float).eps
_SQRT_HALF = math.sqrt(0.5)
#: Largest node count of ``build_generator``: dense L' and eigenvectors, n^2 each.
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
#: Columns per block of the copy into ``Operator.modes`` and of its kernel
#: projection: an n x 256 temporary, 4 MiB at n = 2047, in place of an n x n
#: one and of one per reflection sector.
MODES_COLUMNS = 256
#: Vectors in the block iteration that starts the gap's Lanczos run.
GAP_BLOCK = 4
#: The block starts as a fixed pseudo-random one smoothed by
#: (-Delta + (2 pi / l)^2)^{-8}, which damps each Fourier mode k by
#: (1 + |k|^2)^{-8} and drops none.  Measured at d=2 N=25, cosine z=1/4/8,
#: as block iterations/Lanczos steps: unsmoothed 37/8, 40/257, 40/365;
#: smoothed 4 times 22/8, 40/32, 40/257; 6 times 18/8, 36/8, 40/204; 8 times
#: 16/8, 36/8, 40/229.  12 times broke down at z=1 (40/32 at l=1 and l=4).
GAP_BLOCK_SMOOTHING = 8
#: Most iterations of that block.  Measured at d=2 N=25, cosine z=1/2/4/8:
#: with a budget of 20, 16/8, 20/16, 20/144, 20/257; of 40, 16/8, 22/8,
#: 36/8, 40/229; of 60 the same but 60/144 at z=8.  At d=2 N=31 z=8 the
#: budgets 20/40/60 took build_generator 0.50/0.40/0.30 s, at d=3 N=7 z=8,
#: with 289 Lanczos steps each, 0.39/0.44/0.45 s.
GAP_BLOCK_ITERATIONS = 40
#: Gauss-Legendre nodes per interval of the error-bound quadrature.
GAUSS_NODES = 16


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
        return _descending(parts)[0]

    @cached_property
    def modes(self) -> tuple:
        """Eigenvalues (descending) and orthonormal eigenvectors of L', by
        ``eigh`` of each block itself (a negated copy would cost one more
        array) on first access and kept; a sector's vectors are mapped back
        to the grid through the reflection basis.

        The kernel is known exactly, so its eigenpair is pinned rather than
        taken from eigh: the computed kernel vector strays from e^{-W/2} by
        about eps ||L'|| / gap, and every other mode would then carry mass.
        Projecting the exact kernel out of the other eigenvectors keeps
        <1, u(t)> fixed to rounding.
        """
        with _float64_range(self):
            pairs = [np.linalg.eigh(block) for _, block in self._blocks]
        values, order = _descending([mu for mu, _ in pairs])
        # column of the result for each entry of the reversed, concatenated
        # blocks; the descending copy is made once eigh has freed its
        # workspace, and each block's vectors are dropped once copied.  The
        # copy and the kernel projection go MODES_COLUMNS columns at a time.
        # A (row, column) index pair scatters each row in turn: a column
        # index alone writes down whole columns, about three times slower
        column = np.empty_like(order)
        column[order] = np.arange(len(order))
        rows = np.arange(self.size)[:, None]
        vectors = np.empty((self.size, self.size))
        start = 0
        for sector, _ in self._blocks:
            _, block_vectors = pairs.pop(0)
            for first in range(0, block_vectors.shape[1], MODES_COLUMNS):
                part = block_vectors[:, ::-1][:, first : first + MODES_COLUMNS]
                target = column[start + first : start + first + part.shape[1]]
                vectors[rows, target] = _unfold(self.lattice, sector, part)
            start += block_vectors.shape[1]
        del block_vectors
        q0 = self.kernel_vector()
        vectors[:, 0] = q0
        weights = q0 @ vectors[:, 1:]
        for first in range(1, self.size, MODES_COLUMNS):
            part = slice(first, first + MODES_COLUMNS)
            vectors[:, part] -= np.outer(q0, weights[first - 1 : first - 1 + MODES_COLUMNS])
        return values, vectors

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
        """Rows e^{L t_i} v and the health of the propagation: in a Krylov
        space at d >= 2, and at d = 1 exactly, with empty health, through
        L = U Q D Q^T U^{-1} with the eigenpairs of ``modes``."""
        if self.lattice.d >= 2:
            return self._propagate_krylov(v, times)
        values, vectors = self.modes
        u = self.u_diag
        modal0 = vectors.T @ (v / u)
        out = np.empty((len(times), self.size))
        for i, t in enumerate(times):
            out[i] = u * (vectors @ (np.exp(values * t) * modal0))
        return out, {}

    def _propagate_krylov(self, v: np.ndarray, times: np.ndarray) -> tuple:
        """e^{L t} v in one Krylov space.

        With x = U^{-1} v = c q0 + r, the kernel part c q0 is kept exactly
        and e^{L' t} r is approximated in one Krylov space of r, grown until
        the bound ||r|| beta_m int_0^{t_max} |e_m^T e^{s T_m} e_1| ds on the
        error (L' <= 0 on q0-perp makes it rigorous in exact arithmetic, and
        it grows with t) falls to KRYLOV_RTOL ||x||.  The space depends only
        on v and max(times); each time is evaluated on its own.
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
        # both e^{L' t} r and its approximation have norm <= ||r||, so the
        # error never exceeds 2 ||r||: a small enough rest needs no space
        if 2 * r0 <= KRYLOV_RTOL * scale:
            out[:] = u * (c * q0)
            error = 2 * r0 / scale if scale else 0.0
            return out, {"krylov_steps": 0, "krylov_error": error, "krylov_reorth_steps": 0}

        def bound(alpha, beta):
            return min(r0 * _krylov_bound(alpha, beta, t_max), 2 * r0)

        with _float64_range(self):
            basis, alpha, beta, repeats = _lanczos(
                self.apply, q0, rest / r0, lambda a, b: bound(a, b) <= KRYLOV_RTOL * scale
            )
            theta, S = _ritz(alpha, beta)
            error = float(bound(alpha, beta) / scale)
        if not math.isfinite(error):
            raise _too_steep(self)
        for i, t in enumerate(times):
            y = S @ (np.exp(theta * t) * S[0])
            out[i] = u * (c * q0 + r0 * (basis.T @ y))
        return out, {"krylov_steps": len(alpha), "krylov_error": error, "krylov_reorth_steps": repeats}


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


def _descending(parts: list) -> tuple:
    """The spectrum from each block's ascending eigenvalues ``parts``, whose
    first holds the kernel as its top: descending, with the kernel pinned to
    0 at index 0, and for each value its index into the concatenation of the
    reversed parts."""
    desc = np.concatenate([p[::-1] for p in parts])
    order = np.concatenate([[0], 1 + np.argsort(-desc[1:], kind="stable")])
    values = desc[order]
    values[0] = 0.0
    return values, order


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
        axes = [np.eye(len(half) + 1 - s) for s in sector]
        axes[j] = -half.T if sector[j] else half
        B = functools.reduce(np.kron, axes) * _orthant(u, target)[:, None]
        B /= _orthant(u, sector)[None, :]
        K = B.T @ B if K is None else np.add(K, B.T @ B, out=K)
    return np.negative(K, out=K)


def _unfold(lattice: TorusLattice, sector, vectors: np.ndarray) -> np.ndarray:
    """Columns of sector coordinates as grid vectors, or ``vectors`` itself for
    the one sector None.  Along an even axis coordinate m puts x at n = +-m,
    along an odd axis x at n = m and -x at n = -m, each divided by sqrt 2
    unless m = 0; 2^d nonzeros per column."""
    if sector is None:
        return vectors
    n = lattice.axis_indices()
    x = vectors.reshape(tuple(lattice.N + 1 - s for s in sector) + (-1,))
    for j, s in enumerate(sector):
        shape = [-1 if i == j else 1 for i in range(x.ndim)]
        coef = np.sign(n) * _SQRT_HALF if s else np.where(n == 0, 1.0, _SQRT_HALF)
        x = np.take(x, np.maximum(np.abs(n) - s, 0), axis=j)
        x *= coef.reshape(shape)
    return x.reshape(lattice.size, -1)


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
    """Lanczos on the orthogonal complement of the unit vector ``q0``.

    ``start`` is a unit vector orthogonal to q0.  Each new direction is
    reorthogonalized against the whole basis and then against q0, so
    rounding cannot bring the kernel back however long the run.  A second
    such pass runs only when the first cancelled most of the direction,
    leaving less than 1/sqrt(2) of its norm: otherwise one pass already
    leaves it orthogonal to rounding (Daniel, Gragg, Kaufman & Stewart,
    Math. Comp. 30, 1976).  Stops when ``converged(alpha, beta)`` holds
    (asked on the CHECK_EVERY schedule), when the space is invariant, or
    after n - 1 steps, when it fills q0-perp.  Returns the basis as rows, the
    diagonal alpha, the off-diagonal beta (its last entry couples the basis
    to the next direction) and the number of steps that needed the second
    pass.
    """
    n = len(start)
    steps = n - 1
    basis = np.empty((min(steps, 4 * CHECK_EVERY), n))
    alpha = np.empty(steps)
    beta = np.empty(steps)
    q = start
    check = CHECK_EVERY
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
        m = k + 1
        if m == steps or beta[k] == 0.0:
            return basis[:m], alpha[:m], beta[:m], repeats
        if m == check:
            if converged(alpha[:m], beta[:m]):
                return basis[:m], alpha[:m], beta[:m], repeats
            check += max(CHECK_EVERY, m // 8)
        q = w / beta[k]


def _inverse_cholesky(V: np.ndarray) -> np.ndarray:
    """C^{-1} for the Cholesky factor C of the Gram matrix V V^T = C C^T, so
    that C^{-1} V has orthonormal rows.  Raises LinAlgError when V is
    numerically rank-deficient."""
    return np.linalg.inv(np.linalg.cholesky(V @ V.T))


def _block_start(op: Operator, q0: np.ndarray) -> tuple:
    """A start vector for the gap's Lanczos run, and the number of block
    iterations spent on it: the best vector of a block LOBPCG (Knyazev, SIAM
    J. Sci. Comput. 23, 2001) for the smallest eigenvalues of K = -L' on
    q0-perp.

    The GAP_BLOCK vectors start as a fixed pseudo-random block (one built
    from W would share its symmetries, see :func:`_random_start`) smoothed
    by (-Delta + (2 pi / l)^2)^{-GAP_BLOCK_SMOOTHING}.  Each iteration is a
    Rayleigh-Ritz step on the span of the block X, of its residuals
    preconditioned by (-Delta + sigma)^{-1}, sigma the smallest Ritz value,
    and of its previous directions P.  The residuals, orthogonalized against
    q0 and X, and P get orthonormal rows first; K is applied once per block,
    through ``op.apply``.  The iteration stops once the smallest Ritz pair
    has a residual within the gap's own rule (GAP_RTOL, or eps times the
    largest Ritz value seen), when a Gram matrix fails its Cholesky
    factorization, or after GAP_BLOCK_ITERATIONS iterations.
    """
    k, lattice = GAP_BLOCK, op.lattice
    shape = (k,) + lattice.shape
    smooth = (2 * math.pi / lattice.l) ** 2
    S = shifted_laplacian_solve(np.random.default_rng(0).standard_normal(shape), lattice, smooth, GAP_BLOCK_SMOOTHING)
    S = S.reshape(k, -1)
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
        W = shifted_laplacian_solve(R.reshape(shape), lattice, theta[0]).reshape(k, -1)
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
    """The spectral gap by Lanczos on q0-perp, with the health of the run.

    Lanczos starts from the vector of the block iteration
    :func:`_block_start`.  Where that converged (a mild potential), Lanczos
    confirms the gap at its first check; where it spent its budget (a stiff
    one), Lanczos carries on from a better start than a random one.  The run
    stops once the Ritz residual beta_m |s_m| of the top Ritz value meets
    GAP_RTOL, or eps max|alpha| (about eps ||L'||), below which it measures
    rounding rather than convergence.  The gap is then the Rayleigh quotient
    sum_j ||B_j y||^2 / ||y||^2 of the Ritz vector y: a sum of squares, it
    keeps about eps sqrt(||L'|| / gap) relative accuracy where the Ritz value
    itself keeps only eps ||L'|| / gap.
    """
    q0 = op.kernel_vector()

    def converged(alpha, beta):
        theta, _, residual = _top_ritz(alpha, beta)
        return residual <= max(GAP_RTOL * abs(theta), EPS * np.abs(alpha).max())

    start, iterations = _block_start(op, q0)
    basis, alpha, beta, repeats = _lanczos(op.apply, q0, start, converged)
    _, s, residual = _top_ritz(alpha, beta)
    y = basis.T @ s
    gap = sum(float(np.sum(b * b)) for b in op.scaled_derivatives(y)) / float(y @ y)
    return gap, {
        "backend": "matrix-free",
        "gap_block_iterations": iterations,
        "lanczos_steps": len(alpha),
        "gap_residual": float(residual),
        "lanczos_reorth_steps": repeats,
    }


def _krylov_bound(alpha: np.ndarray, beta: np.ndarray, t: float) -> float:
    """beta_m int_0^t |e_m^T e^{s T_m} e_1| ds by Gauss-Legendre quadrature
    on intervals graded geometrically toward s = 0, where the fastest Ritz
    modes live on the scale 1 / max|theta|."""
    if t == 0.0:
        return 0.0
    theta, S = _ritz(alpha, beta)
    weights = S[-1] * S[0]
    levels = max(0, math.ceil(math.log2(max(t * abs(theta[0]), 1.0)))) + 4
    edges = t * np.concatenate([[0.0], 2.0 ** np.arange(-levels, 1)])
    nodes, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    lo, hi = edges[:-1, None], edges[1:, None]
    s = ((hi - lo) * (nodes + 1) / 2 + lo).reshape(-1)
    ds = ((hi - lo) * w / 2).reshape(-1)
    f = np.exp(np.outer(s, theta)) @ weights
    return float(beta[-1] * (ds @ np.abs(f)))


def build_generator(E: EnergyPotential, lattice: TorusLattice, halve: bool = True) -> Operator:
    """The generator of W = E/2 (``halve``, the pipeline default) or W = E,
    with its spectral gap.

    For d = 1 the gap is read off the spectrum, a values-only eigvalsh of
    each sector block: the axis matrix is the whole matrix, and Lanczos
    would need about n steps.  For d >= 2 it comes through ``apply``, and
    nothing dense is assembled: a block LOBPCG (Knyazev, SIAM J. Sci.
    Comput. 23, 2001) with the FFT preconditioner (-Delta + sigma)^{-1} runs
    for at most GAP_BLOCK_ITERATIONS iterations, and Lanczos finishes from
    its best vector (see :func:`_lanczos_gap`).
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
        else:
            op.spectral_gap, op.health = _lanczos_gap(op)
    if not (math.isfinite(op.spectral_gap) and op.spectral_gap > 0):
        raise _too_steep(op)
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
