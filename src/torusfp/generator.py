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

One :class:`Operator` serves every d.  It stores W and the gap; ``apply``
acts with L' one axis at a time, by ``rfft``/``irfft`` on axes of more than
FFT_AXIS_POINTS points and by the dense circulant on shorter ones.  The dense
L' (``symmetrized``) and its spectrum (``eigenvalues``, a values-only
``eigvalsh`` with the kernel eigenvalue pinned to 0) are assembled on first
access and kept.  Two things depend on d, since at d = 1 Lanczos and Krylov
need about n steps, some 14 times the dense cost at N = 1023:

- the gap (``build_generator``): read off ``eigenvalues`` at d = 1; by
  Lanczos on the complement of q0 at d >= 2 (Saad, SIAM J. Numer. Anal. 29,
  1992), to a Ritz residual of GAP_RTOL;
- the propagation (``propagate``): mode by mode at d = 1, with no
  time-stepping error, from ``modes()`` (``eigh`` of the stored L' with the
  kernel eigenpair pinned to (0, q0), on the first call, kept); at d >= 2 the
  q0 component is kept exactly and the rest advanced in a Krylov space
  (Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1997) until an a posteriori
  error bound meets KRYLOV_RTOL.

Every Lanczos run (the gap, the propagation and the norm check)
orthogonalizes each new direction once against its basis and q0, and a
second time only when the first pass left less than 1/sqrt(2) of its norm
(the DGKS rule).  ``op.health`` records the backend ("dense" at d = 1,
"matrix-free" at d >= 2 with its Lanczos steps, gap residual and second
passes); ``propagate`` returns the health of its Krylov run next to the
states.  U scales L' by up to e^{delta_W}: numbers of a steep potential past
the float64 range end in a PreconditionError that names delta_W and N.

The structure checks compare the condition number of the eigenvector basis
(max(u)/min(u) in closed form), the spectral norm of L and the spectral gap
with their bounds; their reports serialize through :mod:`torusfp.report`.  The norm ||L||_2 is
the square root of the top eigenvalue of L^T L = U^{-1} L' U^2 L' U^{-1},
found by Lanczos through ``op.apply`` to a Ritz residual of NORM_RTOL
relative, with neither the dense L nor an SVD.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PreconditionError, SizeError, ValidationError
from .lattice import DENSE_CAP, GridField, TorusLattice, discretize
from .potential import EnergyPotential
from .report import Report, csv_text
from .spectral import _multipliers, derivative_axis_matrix, derivative_matrix

EPS = np.finfo(float).eps
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
#: Gauss-Legendre nodes per interval of the error-bound quadrature.
GAUSS_NODES = 16
#: Axes of more than this many points take the derivative by FFT, shorter ones
#: by the dense circulant.  Measured per axis product (2 vCPU, one BLAS thread):
#: the circulant won at 2N+1 = 401 and 449, primes with a slow FFT, and at 51;
#: the FFT tied at the prime 521 and won above it (0.06 against 0.52 ms at 1023).
FFT_AXIS_POINTS = 512


@dataclass
class Operator:
    """The symmetrized generator L' = -sum_j B_j^T B_j, for every d.

    ``propagate(v, times)`` returns the states as rows and the health of the
    propagation; ``matrix`` (L) is derived from L' on each access.
    """

    lattice: TorusLattice
    potential: EnergyPotential
    halve: bool
    W: GridField          # evolved potential on the grid (E/2 when halve)
    delta_W: float        # grid diameter of W
    spectral_gap: float = math.nan
    health: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.lattice.size

    @property
    def u_diag(self) -> np.ndarray:
        """Diagonal of U = diag(e^{-W/2})."""
        return np.exp(-self.W.flat / 2)

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
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of L', sorted descending, by a values-only eigvalsh.  The
        kernel eigenvalue is known to be 0 and is pinned there: eigvalsh puts
        it at about eps ||L'||, either sign."""
        with _float64_range(self):
            ev = np.linalg.eigvalsh(self.symmetrized)[::-1]
        ev[0] = 0.0
        return ev

    def modes(self) -> tuple:
        """Eigenvalues (descending) and orthonormal eigenvectors of L', by
        ``eigh`` of L' itself (a negated copy would cost one more n x n array)
        on the first call and kept.

        The kernel is known exactly, so its eigenpair is pinned rather than
        taken from eigh: the computed kernel vector strays from e^{-W/2} by
        about eps ||L'|| / gap, and every other mode would then carry mass.
        Projecting the exact kernel out of the other eigenvectors keeps
        <1, u(t)> fixed to rounding.
        """
        return self._modes

    @cached_property
    def _modes(self) -> tuple:
        # eigh sorts L' ascending; the descending copy of its vectors is made
        # once eigh has freed its workspace, below eigh's own peak
        with _float64_range(self):
            mu, vectors = np.linalg.eigh(self.symmetrized)
        values = mu[::-1].copy()
        vectors = np.ascontiguousarray(vectors[:, ::-1])
        values[0] = 0.0
        q0 = self.kernel_vector()
        vectors[:, 0] = q0
        vectors[:, 1:] -= np.outer(q0, q0 @ vectors[:, 1:])
        return values, vectors

    @cached_property
    def _axis_matrix(self) -> np.ndarray:
        """The dense (2N+1) x (2N+1) circulant of the axis derivative."""
        return derivative_axis_matrix(self.lattice)

    def _derivative(self, y: np.ndarray, axis: int, transpose: bool = False) -> np.ndarray:
        """D y along ``axis`` of a lattice-shaped y, or D^T y: by rfft/irfft on
        axes of more than FFT_AXIS_POINTS points, by the dense circulant on
        shorter ones."""
        n = self.lattice.points_per_axis
        if n <= FFT_AXIS_POINTS:
            D = self._axis_matrix
            return _along_axis(D.T if transpose else D, y, axis)
        # D is real and diagonal in the Fourier basis, so D^T has the
        # conjugate multipliers
        mult = _multipliers(self.lattice, 1)[: n // 2 + 1].reshape([-1 if j == axis else 1 for j in range(y.ndim)])
        return np.fft.irfft(np.fft.rfft(y, axis=axis) * (mult.conj() if transpose else mult), n=n, axis=axis)

    def scaled_derivatives(self, x: np.ndarray) -> list:
        """B_j x = U D_j U^{-1} x for each axis j, as lattice-shaped arrays."""
        u = self.u_diag.reshape(self.lattice.shape)
        y = x.reshape(u.shape) / u
        return [u * self._derivative(y, j) for j in range(self.lattice.d)]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """L' x = -sum_j B_j^T B_j x for a flat vector x."""
        u = self.u_diag.reshape(self.lattice.shape)
        acc = sum(self._derivative(u * b, j, transpose=True) for j, b in enumerate(self.scaled_derivatives(x)))
        return -(acc / u).reshape(-1)

    def propagate(self, v: np.ndarray, times: np.ndarray) -> tuple:
        """Rows e^{L t_i} v and the health of the propagation: in a Krylov
        space at d >= 2, and at d = 1 exactly, with empty health, through
        L = U Q D Q^T U^{-1} with the eigenpairs of :meth:`modes`."""
        if self.lattice.d >= 2:
            return self._propagate_krylov(v, times)
        values, vectors = self.modes()
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


def _along_axis(mat: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """mat applied to the index of ``y`` along ``axis``."""
    return np.moveaxis(np.tensordot(mat, y, axes=(1, axis)), 0, axis)


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


def _lanczos_gap(op: Operator) -> tuple:
    """The spectral gap by Lanczos on q0-perp, with the health of the run.

    The start vector is the fixed pseudo-random :func:`_random_start`.  The run
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

    basis, alpha, beta, repeats = _lanczos(op.apply, q0, _random_start(q0), converged)
    _, s, residual = _top_ritz(alpha, beta)
    y = basis.T @ s
    gap = sum(float(np.sum(b * b)) for b in op.scaled_derivatives(y)) / float(y @ y)
    return gap, {
        "backend": "matrix-free",
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
    the assembled L': the axis matrix is the whole matrix, and Lanczos would
    need about n steps.  For d >= 2 it comes from Lanczos through ``apply``,
    and L' is not assembled.
    """
    if lattice.size > DENSE_CAP:
        raise SizeError(f"lattice has {lattice.size} nodes, dense cap is {DENSE_CAP}")
    if lattice.d != E.d:
        raise ValidationError(f"potential dimension {E.d} != lattice dimension {lattice.d}")

    e_grid = discretize(E, lattice)
    w_vals = e_grid.values / 2 if halve else e_grid.values
    W = GridField(lattice, w_vals, is_real=True)
    w = W.flat
    op = Operator(lattice=lattice, potential=E, halve=halve, W=W, delta_W=float(w.max() - w.min()))
    with _float64_range(op):
        if lattice.d == 1:
            op.spectral_gap, op.health = float(-op.eigenvalues[1]), {"backend": "dense"}
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
