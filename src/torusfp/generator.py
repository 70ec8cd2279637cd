"""Dense assembly and spectral analysis of the discretized Fokker-Planck
generator  L f = div~( e^{-W} grad~( e^{W} f ) ).

W is the potential actually evolved; the sampling pipeline uses W = E/2 so
that squared state amplitudes target e^{-E}.  The axis derivatives D_j are
antisymmetric, so the symmetrization L' = U^{-1} L U with U = diag(e^{-W/2})
factors as

    L' = -sum_j B_j^T B_j,    B_j = diag(e^{-W/2}) D_j diag(e^{W/2}),

an exactly symmetric negative semidefinite matrix whose one-dimensional kernel
is spanned by e^{-W/2} (B_j e^{-W/2} = diag(e^{-W/2}) D_j 1 = 0).  L' is the only
operator stored; L is derived from it on demand.  Since the kernel is known,
its eigenpair is pinned to (0, e^{-W/2} / ||e^{-W/2}||) after diagonalization.
``FpOperator.propagate`` applies e^{Lt} through that eigendecomposition, so
callers never handle the eigenvectors themselves.

The structure checks compare the condition number of the eigenvector basis
(max(u)/min(u) in closed form), the spectral norm of L and the spectral gap
with their bounds; their reports serialize through :mod:`torusfp.report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SizeError, ValidationError
from .lattice import DENSE_CAP, GridField, TorusLattice, discretize
from .potential import EnergyPotential
from .report import Report, csv_text
from .spectral import derivative_matrix


@dataclass
class FpOperator:
    """The symmetrized generator with its eigendecomposition."""

    lattice: TorusLattice
    potential: EnergyPotential
    halve: bool
    W: GridField          # evolved potential on the grid (E/2 when halve)
    symmetrized: np.ndarray  # L' = U^{-1} L U, exactly symmetric
    eigenvalues: np.ndarray  # of L', sorted descending, eigenvalues[0] = 0 exactly
    eigenvectors: np.ndarray  # orthonormal columns matching eigenvalues
    delta_W: float        # grid diameter of W

    @property
    def size(self) -> int:
        return self.lattice.size

    @property
    def u_diag(self) -> np.ndarray:
        """Diagonal of U = diag(e^{-W/2})."""
        return np.exp(-self.W.flat / 2)

    @property
    def matrix(self) -> np.ndarray:
        """L = U L' U^{-1}, derived on each access."""
        u = self.u_diag
        L = self.symmetrized / u
        L *= u[:, None]
        return L

    @property
    def spectral_gap(self) -> float:
        return float(-self.eigenvalues[1])

    @property
    def stationary(self) -> np.ndarray:
        """Grid of e^{-W}, the kernel direction of L (unnormalized)."""
        return np.exp(-self.W.flat)

    def kernel_vector(self) -> np.ndarray:
        """Unit eigenvector of L' at eigenvalue zero."""
        return self.eigenvectors[:, 0]

    def propagate(self, v: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Rows e^{L t_i} v, applied mode by mode through L = U Q D Q^T U^{-1}."""
        u = self.u_diag
        modal0 = self.eigenvectors.T @ (v / u)
        out = np.empty((len(times), self.size))
        for i, t in enumerate(times):
            out[i] = u * (self.eigenvectors @ (np.exp(self.eigenvalues * t) * modal0))
        return out


def build_generator(E: EnergyPotential, lattice: TorusLattice, halve: bool = True) -> FpOperator:
    """Assemble L' = -sum_j B_j^T B_j and diagonalize it.

    ``halve`` selects W = E/2 (the pipeline default) or W = E.
    """
    if lattice.size > DENSE_CAP:
        raise SizeError(f"lattice has {lattice.size} nodes, dense cap is {DENSE_CAP}")
    if lattice.d != E.d:
        raise ValidationError(f"potential dimension {E.d} != lattice dimension {lattice.d}")

    e_grid = discretize(E, lattice)
    w_vals = e_grid.values / 2 if halve else e_grid.values
    W = GridField(lattice, w_vals, is_real=True)
    w = W.flat
    u = np.exp(-w / 2)  # U diagonal, the kernel direction of L'

    # K = -L' = sum_j B_j^T B_j; numpy computes B^T @ B as a symmetric
    # rank-k update, so K is exactly symmetric.
    K = np.zeros((lattice.size, lattice.size))
    for j in range(lattice.d):
        B = derivative_matrix(lattice, j)
        B *= u[:, None]
        B /= u[None, :]
        K += B.T @ B
    del B  # one n x n array less during eigh

    # eigh sorts K ascending, which is L' descending.  The kernel is known
    # exactly, so its eigenpair is pinned rather than taken from eigh: the
    # computed kernel vector strays from e^{-W/2} by about eps ||K|| / gap,
    # and every other mode would then carry mass.  Projecting the exact
    # kernel out of the other eigenvectors keeps <1, u(t)> fixed to rounding.
    mu, eigvecs = np.linalg.eigh(K)
    eigvals = -mu
    eigvals[0] = 0.0
    q0 = u / np.linalg.norm(u)
    eigvecs[:, 0] = q0
    eigvecs[:, 1:] -= np.outer(q0, q0 @ eigvecs[:, 1:])
    np.negative(K, out=K)

    return FpOperator(
        lattice=lattice,
        potential=E,
        halve=halve,
        W=W,
        symmetrized=K,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        delta_W=float(w.max() - w.min()),
    )


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


def operator_norm_check(op: FpOperator) -> OperatorNormReport:
    """Spectral norm of L against d N^2/l^2 min(4 pi^2 + 2606 D (ln N)^2, 4 pi^2 e^D)."""
    lat = op.lattice
    if lat.N <= 3:
        raise PreconditionError(f"operator norm bound is stated for N > 3, got N={lat.N}")
    measured = float(np.linalg.norm(op.matrix, ord=2))
    pref = lat.d * lat.N**2 / lat.l**2
    log_branch = pref * (4 * math.pi**2 + 2606 * op.delta_W * math.log(lat.N) ** 2)
    exp_branch = pref * 4 * math.pi**2 * math.exp(op.delta_W)
    return OperatorNormReport(
        measured=measured, bound=min(log_branch, exp_branch), log_branch=log_branch, exp_branch=exp_branch
    )


@dataclass
class ConditionNumberReport(Report):
    kappa: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.kappa <= self.bound * (1 + 1e-10)


def condition_number_check(op: FpOperator) -> ConditionNumberReport:
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


def poincare_report(op: FpOperator) -> PoincareReport:
    """Discrete spectral gap against the universal floor 4 pi^2 / (l^2 e^D)."""
    floor = 4 * math.pi**2 / (op.lattice.l**2 * math.exp(op.delta_W))
    return PoincareReport(gap=op.spectral_gap, floor=floor)


# ---------------------------------------------------------------------------
# exports


def spectrum_to_csv(op: FpOperator) -> str:
    return csv_text(["index", "eigenvalue"], ([i, repr(float(lam))] for i, lam in enumerate(op.eigenvalues)))
