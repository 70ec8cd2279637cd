"""Dense assembly and spectral analysis of the discretized Fokker-Planck
generator  L f = div~( e^{-W} grad~( e^{W} f ) ).

W is the potential actually evolved; the sampling pipeline uses W = E/2 so
that squared state amplitudes target e^{-E}.  The axis derivatives D_j are
antisymmetric, so the symmetrization L' = U^{-1} L U with U = diag(e^{-W/2})
factors as

    L' = -sum_j B_j^T B_j,    B_j = diag(e^{-W/2}) D_j diag(e^{W/2}),

an exactly symmetric negative semidefinite matrix whose one-dimensional kernel
is spanned by e^{-W/2} (B_j e^{-W/2} = diag(e^{-W/2}) D_j 1 = 0).  L' is the only
operator stored; L is derived from it on demand.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SizeError, ValidationError
from .lattice import DENSE_CAP, GridField, TorusLattice, discretize
from .potential import EnergyPotential
from .spectral import derivative_matrix, fourier_derivative, laplacian


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
    # exactly, so its eigenvalue is pinned rather than clipped by size.
    mu, eigvecs = np.linalg.eigh(K)
    eigvals = -mu
    eigvals[0] = 0.0
    # orient the kernel eigenvector along e^{-W/2}
    if eigvecs[:, 0] @ u < 0:
        eigvecs[:, 0] = -eigvecs[:, 0]
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


def expanded_generator_matrix(op: FpOperator) -> np.ndarray:
    """The generator re-derived through the product rule, avoiding derivatives
    of W itself:

        L f = (e^{2W} |grad~ e^{-W}|^2 - e^{W} lap~ e^{-W}) f
              - e^{W} grad~ e^{-W} . grad~ f  +  lap~ f.

    Agrees with the composed route up to spectral aliasing of e^{+-W}.
    """
    lat = op.lattice
    w = op.W.flat
    g_field = GridField(lat, np.exp(-op.W.values), is_real=True)
    grads = [fourier_derivative(g_field, axis=j).flat for j in range(lat.d)]
    lap_g = laplacian(g_field).flat

    diag_term = np.exp(2 * w) * sum(gj**2 for gj in grads) - np.exp(w) * lap_g
    n = lat.size
    B = np.diag(diag_term)
    for j in range(lat.d):
        D = derivative_matrix(lat, j)
        B -= (np.exp(w) * grads[j])[:, None] * D
        B += D @ D
    return B


@dataclass
class AssemblyEquivalenceReport:
    max_relative_mismatch: float
    tolerance: float
    n_vectors: int
    band: int

    @property
    def ok(self) -> bool:
        return self.max_relative_mismatch <= self.tolerance


def assembly_equivalence_report(
    op: FpOperator, n_vectors: int = 20, band: int | None = None, seed: int = 0, tolerance: float = 1e-8
) -> AssemblyEquivalenceReport:
    """Compare the composed and expanded routes on random band-limited vectors.

    Probes are truncated Fourier series (band <= N/4 by default); full-band
    probes would alias the grid products the expanded route relies on.
    """
    lat = op.lattice
    if band is None:
        band = max(1, lat.N // 4)
    B = expanded_generator_matrix(op)
    L = op.matrix
    rng = np.random.default_rng(seed)
    worst = 0.0
    scale = max(np.linalg.norm(L, ord="fro"), 1e-300)
    for _ in range(n_vectors):
        v = _random_band_limited(lat, band, rng)
        diff = np.linalg.norm(L @ v - B @ v)
        worst = max(worst, diff / (scale * np.linalg.norm(v)))
    return AssemblyEquivalenceReport(
        max_relative_mismatch=float(worst), tolerance=tolerance, n_vectors=n_vectors, band=band
    )


def _random_band_limited(lattice: TorusLattice, band: int, rng) -> np.ndarray:
    """Real random field whose spectrum is supported on ||k||_inf <= band."""
    from .lattice import SpectralField, idft

    coeffs = np.zeros(lattice.shape, dtype=complex)
    grids = lattice.index_grids()
    mask = np.ones(lattice.shape, dtype=bool)
    for gidx in grids:
        mask &= np.abs(gidx) <= band
    vals = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    coeffs[mask] = vals
    fld = idft(SpectralField(lattice, coeffs))
    return np.real(fld.values).reshape(-1)


# ---------------------------------------------------------------------------
# structural reports


@dataclass
class OperatorNormReport:
    measured: float
    bound: float
    log_branch: float
    exp_branch: float

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound * (1 + 1e-9)

    def to_json(self) -> str:
        return json.dumps(
            {"measured": self.measured, "bound": self.bound, "log_branch": self.log_branch, "exp_branch": self.exp_branch, "ok": self.ok}
        )


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
class ConditionNumberReport:
    kappa: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.kappa <= self.bound * (1 + 1e-10)

    def to_json(self) -> str:
        return json.dumps({"kappa": self.kappa, "bound": self.bound, "ok": self.ok})


def condition_number_check(op: FpOperator) -> ConditionNumberReport:
    """kappa of V = U Q, the diagonalizing similarity L = V D V^{-1}."""
    V = op.u_diag[:, None] * op.eigenvectors
    svals = np.linalg.svd(V, compute_uv=False)
    kappa = float(svals[0] / svals[-1])
    return ConditionNumberReport(kappa=kappa, bound=math.exp(op.delta_W / 2))


@dataclass
class PoincareReport:
    gap: float
    floor: float
    slack: float = 0.05

    @property
    def ok(self) -> bool:
        return self.gap >= self.floor * (1 - self.slack)

    def to_json(self) -> str:
        return json.dumps({"gap": self.gap, "floor": self.floor, "slack": self.slack, "ok": self.ok})


def poincare_report(op: FpOperator) -> PoincareReport:
    """Discrete spectral gap against the universal floor 4 pi^2 / (l^2 e^D)."""
    floor = 4 * math.pi**2 / (op.lattice.l**2 * math.exp(op.delta_W))
    return PoincareReport(gap=op.spectral_gap, floor=floor)


# ---------------------------------------------------------------------------
# exports


def spectrum_to_csv(op: FpOperator) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "eigenvalue"])
    for i, lam in enumerate(op.eigenvalues):
        writer.writerow([i, repr(float(lam))])
    return buf.getvalue()


def matrix_to_csv(mat: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in np.asarray(mat):
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()
