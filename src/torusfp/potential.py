"""Periodic test potentials with exact metadata.

Potentials are min-normalized at construction (min E = 0 over the torus), so
e^{-E} <= 1 and the diameter doubles as the inverse temperature scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, SizeError, ValidationError
from .lattice import GridField, TorusLattice, make_lattice
from .spectral import fourier_derivative

#: Fine-grid points per axis used by the metadata estimators.
FINE_GRID = {1: 2**15, 2: 512, 3: 64}

#: Total fine-grid evaluation budget.
RESOLUTION_CAP = 2**22

LIPSCHITZ_MARGIN = 1.05


def bessel_i(k: int, z: float, rel_tol: float = 1e-18) -> float:
    """Modified Bessel function I_k(z) by its ascending series.

    Terms (z/2)^(k+2l) / (l! (k+l)!) are accumulated until one falls below
    ``rel_tol`` relative to the running sum.
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
        if abs(term) <= rel_tol * max(abs(total), 1e-300):
            return total
        if low > 10_000:
            raise EvalError(f"Bessel series for I_{k}({z}) did not converge")


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


@dataclass
class EnergyPotential:
    """An l-periodic potential with min 0, plus diameter/Lipschitz metadata."""

    evaluator: object  # callable mapping points (m, d) -> (m,)
    l: float
    d: int
    diameter: float
    lipschitz: float
    analytic_fourier: object = None  # callable k (multi-index) -> coeff of e^{-E}
    name: str = "custom"
    meta: dict = field(default_factory=dict)

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


def _fine_lattice(d: int, l: float, resolution: int | None) -> TorusLattice:
    pts = resolution if resolution is not None else FINE_GRID.get(d, 64)
    if pts**d > RESOLUTION_CAP:
        raise SizeError(f"fine grid {pts}^{d} exceeds the resolution cap {RESOLUTION_CAP}")
    N = max(1, (int(pts) - 1) // 2)
    return make_lattice(d, N, l, cap=None)


def _min_max(raw, d: int, l: float, resolution: int | None = None):
    lat = _fine_lattice(d, l, resolution)
    vals = np.asarray(raw(lat.points()), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvalError("potential evaluated to non-finite values on the fine grid")
    return float(vals.min()), float(vals.max())


def estimate_diameter(E: EnergyPotential, resolution: int | None = None) -> float:
    """max E - min E over a fine grid."""
    lo, hi = _min_max(E.evaluate, E.d, E.l, resolution)
    return hi - lo


def estimate_lipschitz(E: EnergyPotential, resolution: int | None = None) -> float:
    """1.05 x the largest spectral-gradient component on a fine grid."""
    lat = _fine_lattice(E.d, E.l, resolution)
    fld = GridField(lat, E.evaluate(lat.points()).reshape(lat.shape), is_real=True)
    worst = 0.0
    for j in range(lat.d):
        worst = max(worst, float(np.abs(fourier_derivative(fld, axis=j).values).max()))
    return LIPSCHITZ_MARGIN * worst


def _normalized(raw, d, l, resolution=None, exact_min=None):
    if exact_min is None:
        lo, hi = _min_max(raw, d, l, resolution)
    else:
        lo = exact_min
        _, hi = _min_max(raw, d, l, resolution)

    def evaluator(pts, _raw=raw, _lo=lo):
        return np.asarray(_raw(pts), dtype=float) - _lo

    return evaluator, hi - lo


def cosine_potential(z: float, d: int = 1, l: float = 2 * math.pi) -> EnergyPotential:
    """E(x) = z sum_i (1 - cos(2 pi x_i / l)), so e^{-E} is a product of
    exponential-cosine factors with modified-Bessel Fourier coefficients."""
    z = float(z)
    w = 2 * math.pi / l

    def raw(pts):
        pts = np.asarray(pts, dtype=float)
        return z * np.sum(1.0 - np.cos(w * pts), axis=-1)

    exact_min = 0.0 if z >= 0 else 2 * z * d
    shift = exact_min  # normalized E = raw - shift

    def evaluator(pts):
        return raw(pts) - shift

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
        lipschitz=LIPSCHITZ_MARGIN * 2 * math.pi * abs(z) / l,
        analytic_fourier=analytic_fourier,
        name=f"cosine(z={z})",
        meta={"z": z},
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
        lipschitz=0.0,
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
    pot.lipschitz = estimate_lipschitz(pot)
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


def mlp_potential(mlp: PeriodicMlp, l: float | None = None) -> EnergyPotential:
    """Energy given by a sigmoid MLP on periodic features; min-normalized."""
    if l is not None and not math.isclose(l, mlp.l):
        raise ValidationError(f"period mismatch: mlp has l={mlp.l}, got l={l}")
    evaluator, diameter = _normalized(mlp.forward, mlp.d, mlp.l)
    pot = EnergyPotential(
        evaluator=evaluator,
        l=mlp.l,
        d=mlp.d,
        diameter=diameter,
        lipschitz=0.0,
        name=f"mlp(depth={mlp.depth})",
        meta={"mlp": mlp},
    )
    pot.lipschitz = estimate_lipschitz(pot)
    return pot


def zero_potential(d: int = 1, l: float = 2 * math.pi) -> EnergyPotential:
    return EnergyPotential(
        evaluator=lambda pts: np.zeros(np.asarray(pts).shape[:-1]),
        l=float(l),
        d=int(d),
        diameter=0.0,
        lipschitz=0.0,
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


def periodicity_check(E: EnergyPotential, samples: int = 64, seed: int = 0, tol: float = 1e-10) -> bool:
    """Sampled check that E(x + l e_j) = E(x) for every axis."""
    rng = np.random.default_rng(seed)
    pts = (rng.random((samples, E.d)) - 0.5) * E.l
    base = E.evaluate(pts)
    for j in range(E.d):
        shifted = pts.copy()
        shifted[:, j] += E.l
        if np.abs(E.evaluate(shifted) - base).max() > tol * max(1.0, np.abs(base).max()):
            return False
    return True
