"""Toroidal lattice geometry, index conventions, and field containers.

A lattice with half-width ``N`` has an odd number ``2N + 1`` of equidistant
points per axis, located at ``x_n = l * n / (2N + 1)`` for multi-indices
``n`` in ``[-N..N]^d``.  Fields are stored as C-ordered arrays of shape
``(2N+1,)*d`` over the shifted indices ``n + N``; flattening that array gives
the row-major layout the dense operator matrices use, and ``grid_points``
lists every point set (lattice nodes, quadrature midpoints) in that order.

The discrete Fourier transform is the centered unitary convention

    F[k, n] = (2N+1)^(-d/2) * exp(-i 2 pi <k, n> / (2N+1)),

with both ``k`` and ``n`` running over ``[-N..N]^d``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, SizeError, ValidationError

#: Largest total node count for which dense operator assembly is allowed.
DENSE_CAP = 4096

_REAL_TOL = 1e-12


def grid_points(*axes) -> np.ndarray:
    """Cartesian product of 1-D coordinate arrays as an (m, d) array, row-major
    (the last axis varies fastest)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class TorusLattice:
    """Geometry of a d-dimensional periodic lattice with odd points per axis."""

    d: int
    N: int
    l: float

    @property
    def points_per_axis(self) -> int:
        return 2 * self.N + 1

    @property
    def size(self) -> int:
        return self.points_per_axis**self.d

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.d

    def axis_indices(self) -> np.ndarray:
        """Centered index range [-N..N] along one axis."""
        return np.arange(-self.N, self.N + 1)

    def axis_points(self) -> np.ndarray:
        """Coordinates l*n/(2N+1) along one axis."""
        return self.axis_indices() * (self.l / self.points_per_axis)

    def points(self) -> np.ndarray:
        """All lattice nodes as an array of shape (size, d), row-major."""
        return grid_points(*[self.axis_points()] * self.d)

    def index_grids(self) -> list:
        """Centered integer index grid per axis, each of shape ``self.shape``."""
        axes = [self.axis_indices()] * self.d
        return np.meshgrid(*axes, indexing="ij")


def make_lattice(d: int, N: int, l: float, cap: int | None = DENSE_CAP) -> TorusLattice:
    """Build a lattice with 2N+1 points per axis on a d-torus of period l.

    ``cap`` bounds the total node count (2N+1)^d; it protects dense operator
    assembly and may be raised or disabled (``None``) for FFT-only work.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValidationError(f"dimension d must be a positive integer, got {d!r}")
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValidationError(f"half-width N must be a positive integer, got {N!r}")
    if not np.isfinite(l) or l <= 0:
        raise ValidationError(f"period l must be positive and finite, got {l!r}")
    size = (2 * int(N) + 1) ** int(d)
    if cap is not None and size > cap:
        raise SizeError(f"lattice has {size} nodes, exceeding the cap {cap}")
    return TorusLattice(d=int(d), N=int(N), l=float(l))


@dataclass
class GridField:
    """Values of a periodic function on the lattice nodes."""

    lattice: TorusLattice
    values: np.ndarray
    is_real: bool = field(default=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.size != self.lattice.size:
            raise ValidationError(
                f"field has {self.values.size} values, lattice has {self.lattice.size} nodes"
            )
        self.values = self.values.reshape(self.lattice.shape)
        if self.is_real and np.iscomplexobj(self.values):
            if np.abs(self.values.imag).max() > _REAL_TOL:
                raise ValidationError("real-flagged field has imaginary parts above 1e-12")
            self.values = self.values.real.copy()

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))

    def copy(self) -> "GridField":
        return GridField(self.lattice, self.values.copy(), is_real=self.is_real)


@dataclass
class SpectralField:
    """Centered Fourier coefficients, indexed by k in [-N..N]^d like GridField."""

    lattice: TorusLattice
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.size != self.lattice.size:
            raise ValidationError(
                f"spectrum has {self.coeffs.size} entries, lattice has {self.lattice.size} nodes"
            )
        self.coeffs = self.coeffs.reshape(self.lattice.shape)

    @property
    def flat(self) -> np.ndarray:
        return self.coeffs.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))

    def series_coefficients(self) -> np.ndarray:
        """Estimated Fourier-series coefficients u_hat[k] = coeffs[k]/(2N+1)^(d/2).

        By the wrapping identity these equal the true series coefficients plus
        the aliased tails u_hat[k + (2N+1)p], p != 0.
        """
        return self.coeffs / self.lattice.points_per_axis ** (self.lattice.d / 2)


def discretize(f, lattice: TorusLattice) -> GridField:
    """Sample an l-periodic function (or EnergyPotential) on the lattice nodes."""
    evaluator = getattr(f, "evaluate", f)
    pts = lattice.points()
    vals = np.asarray(evaluator(pts), dtype=float)
    if vals.shape != (lattice.size,):
        vals = vals.reshape(lattice.size)
    if not np.all(np.isfinite(vals)):
        raise EvalError("function evaluated to non-finite values on the lattice")
    return GridField(lattice, vals.reshape(lattice.shape), is_real=True)


def _centered_roll(values: np.ndarray, N: int, sign: int) -> np.ndarray:
    shift = (sign * N,) * values.ndim
    return np.roll(values, shift, axis=tuple(range(values.ndim)))


def dft(fld: GridField) -> SpectralField:
    """Centered unitary DFT of a grid field."""
    lat = fld.lattice
    # rolling by -N re-indexes node m to position (m mod 2N+1); the plain FFT
    # of that array is exactly the centered sum for frequencies taken mod 2N+1
    rolled = _centered_roll(np.asarray(fld.values, dtype=complex), lat.N, -1)
    spec = np.fft.fftn(rolled)
    spec = np.fft.fftshift(spec)
    spec /= lat.points_per_axis ** (lat.d / 2)
    return SpectralField(lat, spec)


def idft(spec: SpectralField) -> GridField:
    """Inverse of :func:`dft`; flags the result real when imaginary parts vanish."""
    lat = spec.lattice
    arr = np.fft.ifftshift(np.asarray(spec.coeffs, dtype=complex))
    vals = np.fft.ifftn(arr) * lat.points_per_axis ** (lat.d / 2)
    vals = _centered_roll(vals, lat.N, +1)
    scale = max(1.0, float(np.abs(vals).max()))
    if np.abs(vals.imag).max() <= _REAL_TOL * scale:
        return GridField(lat, vals.real.copy(), is_real=True)
    return GridField(lat, vals, is_real=False)


def constant_field(lattice: TorusLattice, value: float = 1.0) -> GridField:
    return GridField(lattice, np.full(lattice.shape, float(value)), is_real=True)
