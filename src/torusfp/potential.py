"""Periodic test potentials with exact metadata.

Potentials are min-normalized at construction (min E = 0 over the torus), so
e^{-E} <= 1 and the diameter doubles as the inverse temperature scale.
An MLP potential has no closed form: its minimum and diameter are taken on
the fine lattice (:func:`fine_lattice`), in one evaluation of the network.
The same lattice is the exact Gibbs oracle's quadrature grid (the normalizer
and the exact mean of ``torusfp.sampler``) and the aliasing witness's (d = 1).
``lipschitz_on_grid`` bounds the slope of a lattice field; the pipeline
applies it to the evolved state, not to E.

``EnergyPotential.evaluate_grid`` gives E on the tensor product of d 1-D
coordinate arrays, the grid the quadratures sum over.  By default it lays the
points out with ``grid_points`` and evaluates them; a potential that is a sum
over axes (``cosine_potential``) supplies a grid evaluator instead, which
evaluates each axis once and broadcasts the sum, bit for bit the same values.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, ValidationError
from .lattice import GridField, TorusLattice, grid_points, make_lattice
from .spectral import fourier_derivative

#: Points per axis of the fine lattice, rounded down to odd.  A d past the
#: table gets the largest odd count whose d-th power stays within the d = 2, 3
#: size of 2^18 nodes (21 points per axis at d = 4).
FINE_GRID = {1: 2**15, 2: 512, 3: 64}

LIPSCHITZ_MARGIN = 1.05


def bessel_i(k: int, z: float) -> float:
    """Modified Bessel function I_k(z) by its ascending series.

    Terms (z/2)^(k+2l) / (l! (k+l)!) are accumulated until one falls below
    1e-18 relative to the running sum.
    """
    k = abs(int(k))
    half = z / 2.0
    # term at l=0: half^k / k!
    term = 1.0
    for i in range(1, k + 1):
        term *= half / i
    total = term
    low = 0
    while True:
        low += 1
        term *= half * half / (low * (k + low))
        total += term
        if abs(term) <= 1e-18 * max(abs(total), 1e-300):
            return total
        if low > 10_000:
            raise EvalError(f"Bessel series for I_{k}({z}) did not converge")


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


@dataclass
class EnergyPotential:
    """An l-periodic potential with min 0, plus its diameter."""

    evaluator: object  # callable mapping points (m, d) -> (m,)
    l: float
    d: int
    diameter: float
    analytic_fourier: object = None  # callable k (multi-index) -> coeff of e^{-E}
    name: str = "custom"
    meta: dict = field(default_factory=dict)
    # callable mapping d 1-D axes -> E on their tensor product, the values of
    # evaluator(grid_points(*axes)) bit for bit; None lays the points out
    grid_evaluator: object = None

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        squeeze = False
        if pts.ndim == 1 and self.d == 1:
            pts = pts[:, None]
        elif pts.ndim == 1:
            pts = pts[None, :]
            squeeze = True
        vals = np.asarray(self.evaluator(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise EvalError(f"potential '{self.name}' evaluated to non-finite values")
        return vals[0] if squeeze else vals

    __call__ = evaluate

    def evaluate_grid(self, axes) -> np.ndarray:
        """E on the tensor product of the d 1-D coordinate arrays ``axes``,
        shaped (len(axes[0]), ..., len(axes[d-1])): the values of
        ``evaluate(grid_points(*axes))``, in the same order."""
        axes = [np.asarray(a, dtype=float) for a in axes]
        if self.grid_evaluator is not None:
            vals = np.asarray(self.grid_evaluator(axes), dtype=float)
        else:
            vals = np.asarray(self.evaluator(grid_points(*axes)), dtype=float).reshape([len(a) for a in axes])
        if not np.all(np.isfinite(vals)):
            raise EvalError(f"potential '{self.name}' evaluated to non-finite values")
        return vals


def fine_lattice(d: int, l: float) -> TorusLattice:
    """The lattice on which MLP potentials are min-normalized and their
    diameters taken, and over whose nodes the Gibbs oracle and the aliasing
    witness integrate: at most 2^18 nodes for every d."""
    pts = FINE_GRID.get(d, int(FINE_GRID[3] ** (3 / d)))
    return make_lattice(d, max(1, (pts - 1) // 2), l)


def lipschitz_on_grid(fld: GridField) -> float:
    """LIPSCHITZ_MARGIN x the largest spectral-gradient component of a field."""
    return LIPSCHITZ_MARGIN * max(float(np.abs(fourier_derivative(fld, j).values).max()) for j in range(fld.lattice.d))


def _normalized(raw, d, l):
    """``raw`` shifted by its minimum over the fine lattice, and its diameter there."""
    vals = np.asarray(raw(fine_lattice(d, l).points()), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvalError("potential evaluated to non-finite values on the fine grid")
    lo, hi = float(vals.min()), float(vals.max())

    def evaluator(pts, _raw=raw, _lo=lo):
        return np.asarray(_raw(pts), dtype=float) - _lo

    return evaluator, hi - lo


def cosine_potential(z: float, d: int = 1, l: float = 2 * math.pi) -> EnergyPotential:
    """E(x) = z sum_i (1 - cos(2 pi x_i / l)), so e^{-E} is a product of
    exponential-cosine factors with modified-Bessel Fourier coefficients."""
    z = float(z)
    w = 2 * math.pi / l

    def raw(pts):
        # 1 - cos in place, then the columns added one by one: the same sum
        # as np.sum over the last axis for d <= 7 (pairwise summation starts
        # at 8 terms), without the cost of reducing along a short axis
        terms = np.multiply(w, np.asarray(pts, dtype=float))
        np.cos(terms, out=terms)
        np.subtract(1.0, terms, out=terms)
        return z * functools.reduce(np.add, (terms[..., j] for j in range(terms.shape[-1])))

    shift = 0.0 if z >= 0 else 2 * z * d  # the exact min of raw; E = raw - shift

    def evaluator(pts):
        return raw(pts) - shift

    def grid_evaluator(axes):
        # raw's arithmetic, elementwise in the same order, on the d axes and
        # their broadcast sum instead of the laid-out points
        terms = [np.subtract(1.0, np.cos(np.multiply(w, a))) for a in axes]
        vals = functools.reduce(np.add, np.ix_(*terms))
        np.multiply(z, vals, out=vals)
        return np.subtract(vals, shift, out=vals)

    # e^{-E} = e^{shift - z d} * prod_i e^{z cos(w x_i)}
    log_pref = shift - z * d

    def analytic_fourier(k):
        ks = np.atleast_1d(np.asarray(k, dtype=int))
        coeff = math.exp(log_pref)
        for ki in ks:
            coeff *= bessel_i(int(ki), z)
        return coeff

    return EnergyPotential(
        evaluator=evaluator,
        l=float(l),
        d=int(d),
        diameter=2 * abs(z) * d,
        analytic_fourier=analytic_fourier,
        name=f"cosine(z={z})",
        meta={"z": z},
        grid_evaluator=grid_evaluator,
    )


def invcos_potential(z: float, l: float = 2 * math.pi) -> EnergyPotential:
    """Density family u(x) = (z-1)/(1 - 2 sqrt(z) cos(2 pi x / l) + z), d=1.

    The potential is E = -log(u / max u); u has exact Fourier coefficients
    u_hat[k] = z^(-|k|/2) and mean square U^2 = (1 + 1/z)/(1 - 1/z).
    """
    z = float(z)
    if not z > 1:
        raise ValidationError(f"invcos potential needs z > 1, got {z}")
    w = 2 * math.pi / l
    sz = math.sqrt(z)
    u_max = (sz + 1) / (sz - 1)
    u_min = (sz - 1) / (sz + 1)

    def u(pts):
        pts = np.asarray(pts, dtype=float)
        theta = w * (pts[..., 0] if pts.ndim > 1 else pts)
        return (z - 1) / (1 - 2 * sz * np.cos(theta) + z)

    def evaluator(pts):
        return -np.log(u(pts) / u_max)

    def u_hat(k):
        return z ** (-abs(int(np.atleast_1d(k)[0])) / 2)

    def analytic_fourier(k):
        return u_hat(k) / u_max

    pot = EnergyPotential(
        evaluator=evaluator,
        l=float(l),
        d=1,
        diameter=math.log(u_max / u_min),
        analytic_fourier=analytic_fourier,
        name=f"invcos(z={z})",
        meta={
            "z": z,
            "u_mean_square": (1 + 1 / z) / (1 - 1 / z),
            # |u_hat[k]| < 1e-16 beyond this index
            "k_max": int(math.ceil(32 * math.log(10) / math.log(z))) + 1,
        },
    )
    pot.meta["u"] = u
    pot.meta["u_hat"] = u_hat
    return pot


@dataclass
class PeriodicMlp:
    """Sigmoid MLP applied to the per-axis feature map (cos, sin)(2 pi x_i / l)."""

    weights: list
    biases: list
    l: float
    d: int

    def __post_init__(self):
        self.weights = [np.asarray(W, dtype=float) for W in self.weights]
        self.biases = [np.asarray(b, dtype=float).reshape(-1) for b in self.biases]
        if len(self.weights) == 0 or len(self.weights) != len(self.biases):
            raise ValidationError("MLP needs matching, nonempty weight and bias lists")
        expected = 2 * self.d
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 2 or W.shape[1] != expected:
                raise ValidationError(
                    f"layer {i} weight shape {W.shape} incompatible with input width {expected}"
                )
            if b.shape[0] != W.shape[0]:
                raise ValidationError(f"layer {i} bias length {b.shape[0]} != rows {W.shape[0]}")
            expected = W.shape[0]
        if expected != 1:
            raise ValidationError(f"MLP output dimension must be 1, got {expected}")
        for W, b in zip(self.weights, self.biases):
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValidationError("MLP weights must be finite")

    @property
    def depth(self) -> int:
        return len(self.weights)

    def features(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        theta = 2 * math.pi * pts / self.l
        feats = np.empty(pts.shape[:-1] + (2 * self.d,))
        feats[..., 0::2] = np.cos(theta)
        feats[..., 1::2] = np.sin(theta)
        return feats

    def forward(self, pts) -> np.ndarray:
        h = self.features(pts)
        for W, b in zip(self.weights, self.biases):
            h = sigmoid(h @ W.T + b)
        return h[..., 0]

    @classmethod
    def from_json(cls, text: str) -> "PeriodicMlp":
        doc = json.loads(text)
        layers = doc.get("layers")
        if not layers:
            raise ValidationError("MLP document has no layers")
        return cls(
            weights=[layer["W"] for layer in layers],
            biases=[layer["b"] for layer in layers],
            l=float(doc["l"]),
            d=int(doc["d"]),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "layers": [
                    {"W": W.tolist(), "b": b.tolist()} for W, b in zip(self.weights, self.biases)
                ],
                "l": self.l,
                "d": self.d,
            }
        )


def mlp_potential(mlp: PeriodicMlp) -> EnergyPotential:
    """Energy given by a sigmoid MLP on periodic features; min-normalized."""
    evaluator, diameter = _normalized(mlp.forward, mlp.d, mlp.l)
    return EnergyPotential(
        evaluator=evaluator,
        l=mlp.l,
        d=mlp.d,
        diameter=diameter,
        name=f"mlp(depth={mlp.depth})",
        meta={"mlp": mlp},
    )


def zero_potential(d: int = 1, l: float = 2 * math.pi) -> EnergyPotential:
    return EnergyPotential(
        evaluator=lambda pts: np.zeros(np.asarray(pts).shape[:-1]),
        l=float(l),
        d=int(d),
        diameter=0.0,
        analytic_fourier=lambda k: 1.0 if not np.any(np.atleast_1d(k)) else 0.0,
        name="zero",
    )


def expcos_family(z: float, l: float = 1.0):
    """The 1-d family u = e^{z cos(2 pi x / l)} with its exact calculus.

    Returns (u, grad_u, lap_u, C, a, u_hat):  u_hat[k] = I_k(z), and the
    certified semi-analyticity parameters are C = I_0(z) e^{z/2},
    a = max(z/2, 1).
    """
    z = float(z)
    w = 2 * math.pi / l

    def theta(pts):
        pts = np.asarray(pts, dtype=float)
        return w * (pts[..., 0] if pts.ndim > 1 else pts)

    def u(pts):
        return np.exp(z * np.cos(theta(pts)))

    def grad_u(pts):
        t = theta(pts)
        return (-w * z * np.sin(t) * np.exp(z * np.cos(t)))[..., None]

    def lap_u(pts):
        t = theta(pts)
        return w**2 * (z**2 * np.sin(t) ** 2 - z * np.cos(t)) * np.exp(z * np.cos(t))

    def u_hat(k):
        return bessel_i(int(np.atleast_1d(k)[0]), z)

    C = bessel_i(0, z) * math.exp(z / 2)
    a = max(z / 2, 1.0)
    return u, grad_u, lap_u, C, a, u_hat


def periodicity_check(E: EnergyPotential) -> bool:
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
