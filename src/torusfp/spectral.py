"""Fourier pseudo-spectral differentiation on the lattice.

The derivative along axis j multiplies centered Fourier coefficients by
(i 2 pi k_j / l)^r.  On an odd grid the same operator is a cyclic kernel

    a[m] = 0                                      if m = 0,
    a[m] = pi (-1)^(m+1) / (l sin(pi m / (2N+1))) otherwise,

applied as (d u)[n] = sum_m u[m] a[m - n]; the kernel is (2N+1)-periodic and
antisymmetric.  The closed-form kernel (``kernel_derivative``) is the
reference the tests hold the multiplier path against.  ``fourier_derivative``
and the generator's products apply D_j through one primitive,
:func:`axis_derivative`, by FFT or by the dense circulant (FFT_AXIS_POINTS);
D is real, so a complex field is differentiated as its real and imaginary
parts.  Measured errors against the (C, a) envelopes come back as a
``torusfp.report.Report``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError
from .lattice import GridField, TorusLattice
from .report import Report

_E3 = math.e**3
#: Axes of more than this many points take the derivative by FFT, shorter ones
#: by the dense circulant.  Measured per axis product (2 vCPU, one BLAS thread):
#: the circulant won at 2N+1 = 401 and 449, primes with a slow FFT, and at 51
#: (a generator product on the 51^2 lattice took 206 us against 435 us by FFT);
#: the FFT tied at the prime 521 and won above it (0.06 against 0.52 ms at 1023).
FFT_AXIS_POINTS = 512


@dataclass
class DerivativeKernel:
    """First-order cyclic differentiation kernel for one axis."""

    N: int
    entries: np.ndarray  # a[m] for m in [-N..N], stored at m + N

    def __getitem__(self, m: int) -> float:
        if abs(m) > self.N:
            raise ValidationError(f"kernel index {m} outside [-{self.N}..{self.N}]")
        return float(self.entries[m + self.N])


def derivative_kernel(N: int, l: float) -> DerivativeKernel:
    """Closed-form entries of the first-derivative kernel."""
    if N < 1 or l <= 0:
        raise ValidationError(f"need N >= 1 and l > 0, got N={N}, l={l}")
    m = np.arange(-N, N + 1)
    entries = np.zeros(2 * N + 1)
    nz = m != 0
    entries[nz] = np.pi * (-1.0) ** (m[nz] + 1) / (l * np.sin(np.pi * m[nz] / (2 * N + 1)))
    return DerivativeKernel(N=N, entries=entries)


def _multipliers(lattice: TorusLattice, order: int) -> np.ndarray:
    """(i 2 pi k / l)^order for one axis, in FFT bin order (valid for odd n)."""
    n = lattice.points_per_axis
    k = np.fft.fftfreq(n, d=1.0 / n)  # integers 0..N, -N..-1
    return (2j * np.pi * k / lattice.l) ** order


@functools.lru_cache(maxsize=8)
def _circulant(lattice: TorusLattice, order: int) -> np.ndarray:
    """:func:`derivative_axis_matrix`, built once per lattice and order, read-only."""
    mat = derivative_axis_matrix(lattice, order)
    mat.flags.writeable = False
    return mat


def _along_axis(mat: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """mat applied to the index of ``y`` along ``axis``."""
    return np.moveaxis(np.tensordot(mat, y, axes=(1, axis)), 0, axis)


def axis_derivative(
    y: np.ndarray, lattice: TorusLattice, axis: int, order: int = 1, transpose: bool = False
) -> np.ndarray:
    """D^order, or its transpose, along ``axis`` of a real ``y`` whose length
    along ``axis`` is 2N+1 (a lattice-shaped array, or a block of them):
    by rfft/irfft on axes of more than FFT_AXIS_POINTS points, by the kept
    dense circulant on shorter ones."""
    n = lattice.points_per_axis
    if n <= FFT_AXIS_POINTS:
        D = _circulant(lattice, order)
        return _along_axis(D.T if transpose else D, y, axis)
    # D is real and diagonal in the Fourier basis, so D^T has the conjugate
    # multipliers
    mult = _multipliers(lattice, order)[: n // 2 + 1].reshape([-1 if j == axis else 1 for j in range(y.ndim)])
    return np.fft.irfft(np.fft.rfft(y, axis=axis) * (mult.conj() if transpose else mult), n=n, axis=axis)


def fourier_derivative(u: GridField, axis: int, order: int = 1) -> GridField:
    """Spectral derivative of given order along one axis."""
    lat = u.lattice
    if not 0 <= axis < lat.d:
        raise ValidationError(f"axis {axis} out of range for d={lat.d}")
    if order < 1:
        raise ValidationError(f"derivative order must be >= 1, got {order}")
    if np.iscomplexobj(u.values):
        vals = axis_derivative(u.values.real, lat, axis, order) + 1j * axis_derivative(u.values.imag, lat, axis, order)
    else:
        vals = axis_derivative(u.values, lat, axis, order)
    return GridField(lat, vals, is_real=u.is_real)


def kernel_derivative(u: GridField, axis: int) -> GridField:
    """First derivative by cyclic application of the closed-form kernel."""
    lat = u.lattice
    if not 0 <= axis < lat.d:
        raise ValidationError(f"axis {axis} out of range for d={lat.d}")
    kernel = derivative_kernel(lat.N, lat.l)
    n = lat.points_per_axis
    # row i of the axis matrix holds a[j - i], indices wrapped mod 2N+1
    offs = (np.arange(n)[None, :] - np.arange(n)[:, None] + lat.N) % n - lat.N
    return GridField(lat, _along_axis(kernel.entries[offs + lat.N], u.values, axis), is_real=u.is_real)


def derivative_axis_matrix(lattice: TorusLattice, order: int = 1) -> np.ndarray:
    """Dense (2N+1) x (2N+1) matrix of the one-axis derivative of given order.

    The derivative commutes with cyclic shifts, so the matrix is the circulant
    mat[r, c] = t[(r - c) mod (2N+1)] of its first column t, the derivative of
    the unit vector e_0, whose DFT is all ones: t = ifft(multipliers).
    """
    n = lattice.points_per_axis
    t = np.fft.ifft(_multipliers(lattice, order)).real
    idx = np.arange(n)
    return t[(idx[:, None] - idx[None, :]) % n]


def gradient(u: GridField) -> list:
    """All first-order axis derivatives of ``u``."""
    return [fourier_derivative(u, axis=j, order=1) for j in range(u.lattice.d)]


def divergence(vs: list) -> GridField:
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


def laplacian(u: GridField) -> GridField:
    """Sum of second-order axis derivatives of ``u``."""
    acc = None
    for j in range(u.lattice.d):
        d2 = fourier_derivative(u, axis=j, order=2)
        acc = d2.values if acc is None else acc + d2.values
    return GridField(u.lattice, acc, is_real=u.is_real)


def sup_norm_bound(N: int, l: float) -> float:
    """Worst-case amplification of the max norm by one spectral derivative."""
    return (2 * np.pi / l) * (2 * N + 1) * (math.log((4 * N + 2) / math.pi) / math.pi + 0.5)


def operator_norm(lattice: TorusLattice) -> float:
    """Exact l2 operator norm of one axis derivative: 2 pi N / l."""
    return 2 * np.pi * lattice.N / lattice.l


@dataclass
class DerivativeErrorReport(Report):
    """Measured spectral-derivative errors against their proven envelopes."""

    N: int
    d: int
    l: float
    C: float
    a: float
    measured_first: float
    bound_first: float
    measured_second: float
    bound_second: float

    @property
    def first_ok(self) -> bool:
        return self.measured_first <= self.bound_first

    @property
    def second_ok(self) -> bool:
        return self.measured_second <= self.bound_second

    @property
    def violated(self) -> bool:
        return not (self.first_ok and self.second_ok)


def first_derivative_error_bound(N: int, d: int, l: float, C: float, a: float) -> float:
    """Envelope for the stacked first-derivative error of a (C, a) function."""
    return 40 * math.sqrt(2) * math.pi * _E3 * (a / l) * C * (2 * N + 1) ** (d / 2) * math.exp(-N / (2 * a))


def second_derivative_error_bound(N: int, d: int, l: float, C: float, a: float) -> float:
    """Envelope for the Laplacian error of a (C, a) function."""
    return (
        200 * math.sqrt(2) * math.pi**2 * _E3 * (a**2 / l) * C**2 * (2 * N + 1) ** (d / 2) * math.exp(-0.4 * N / a)
    )


def derivative_error_report(u, grad_u, lap_u, lattice: TorusLattice, params) -> DerivativeErrorReport:
    """Compare measured derivative errors on the lattice with the (C, a) envelopes.

    ``u`` maps points (m, d) -> (m,); ``grad_u`` maps (m, d) -> (m, d);
    ``lap_u`` maps (m, d) -> (m,).  Requires N >= 4 a d.
    """
    C, a = float(params.C), float(params.a)
    if lattice.N < 4 * a * lattice.d:
        raise PreconditionError(f"need N >= 4ad = {4 * a * lattice.d}, got N={lattice.N}")
    pts = lattice.points()
    u_field = GridField(lattice, np.asarray(u(pts), dtype=float).reshape(lattice.shape), is_real=True)

    exact_grad = np.asarray(grad_u(pts), dtype=float).reshape(lattice.size, lattice.d)
    err_first_sq = 0.0
    for j in range(lattice.d):
        approx = fourier_derivative(u_field, axis=j, order=1).flat
        err_first_sq += float(np.sum((approx - exact_grad[:, j]) ** 2))
    measured_first = math.sqrt(err_first_sq)

    exact_lap = np.asarray(lap_u(pts), dtype=float).reshape(lattice.size)
    measured_second = float(np.linalg.norm(laplacian(u_field).flat - exact_lap))

    return DerivativeErrorReport(
        N=lattice.N,
        d=lattice.d,
        l=lattice.l,
        C=C,
        a=a,
        measured_first=measured_first,
        bound_first=first_derivative_error_bound(lattice.N, lattice.d, lattice.l, C, a),
        measured_second=measured_second,
        bound_second=second_derivative_error_bound(lattice.N, lattice.d, lattice.l, C, a),
    )
