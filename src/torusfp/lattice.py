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

``make_lattice`` refuses every lattice of more than RESOLUTION_CAP nodes; dense
operator work has its own, smaller limit, ``generator.DENSE_CAP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, SizeError, ValidationError

#: Largest total node count of any lattice: 2^22, so at most 2047^2 or 161^3.
RESOLUTION_CAP = 2**22

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


def make_lattice(d: int, N: int, l: float) -> TorusLattice:
    """Build a lattice with 2N+1 points per axis on a d-torus of period l,
    refusing one of more than RESOLUTION_CAP nodes, and a period whose
    derivative scale (2 pi N / l)^2 leaves the float64 normal range."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValidationError(f"dimension d must be a positive integer, got {d!r}")
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValidationError(f"half-width N must be a positive integer, got {N!r}")
    l = check_period(l)
    scale = 2 * math.pi * int(N) / l
    if not np.finfo(float).tiny <= scale * scale <= np.finfo(float).max:
        raise ValidationError(
            f"period l = {l!r} puts the derivative scale (2 pi N / l)^2 outside the float64 range at N = {N}"
        )
    size = (2 * int(N) + 1) ** int(d)
    if size > RESOLUTION_CAP:
        raise SizeError(f"lattice has {size} nodes, exceeding the cap {RESOLUTION_CAP}")
    return TorusLattice(d=int(d), N=int(N), l=l)


def check_period(l: float) -> float:
    """The torus period as a float, refused unless positive and finite."""
    if not np.isfinite(l) or l <= 0:
        raise ValidationError(f"period l must be positive and finite, got {l!r}")
    return float(l)


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


def dft(fld: GridField) -> SpectralField:
    """Centered unitary DFT of a grid field."""
    lat = fld.lattice
    # on an odd axis ifftshift rolls by -N, re-indexing node m to position
    # (m mod 2N+1); the plain FFT of that array is exactly the centered sum
    # for frequencies taken mod 2N+1
    spec = np.fft.fftn(np.fft.ifftshift(np.asarray(fld.values, dtype=complex)))
    spec = np.fft.fftshift(spec)
    spec /= lat.points_per_axis ** (lat.d / 2)
    return SpectralField(lat, spec)


def idft(spec: SpectralField) -> GridField:
    """Inverse of :func:`dft`; flags the result real when imaginary parts vanish."""
    lat = spec.lattice
    arr = np.fft.ifftshift(np.asarray(spec.coeffs, dtype=complex))
    vals = np.fft.fftshift(np.fft.ifftn(arr) * lat.points_per_axis ** (lat.d / 2))
    scale = max(1.0, float(np.abs(vals).max()))
    if np.abs(vals.imag).max() <= _REAL_TOL * scale:
        return GridField(lat, vals.real.copy(), is_real=True)
    return GridField(lat, vals, is_real=False)


def constant_field(lattice: TorusLattice) -> GridField:
    return GridField(lattice, np.full(lattice.shape, 1.0), is_real=True)
