"""Upsampling isometry, continuous sampling, TV measurement against the exact
Gibbs density, mean estimation, and the end-to-end sampling pipeline.

Continuous sampling measures a unit-norm lattice state in the node basis and
then draws uniformly from the box around the node; the resulting density is
piecewise constant with value |psi[n]|^2 ((2M+1)/l)^d on each box.  The boxes
tile the fundamental domain exactly.  The pipeline evolves the uniform state
straight to T; the TV quadrature and the exact Gibbs oracle lay out their
midpoint grids with ``lattice.grid_points``.

TV, mean and interpolation results are ``torusfp.report.Report`` dataclasses;
sample batches write their own CSV, byte for byte what ``csv_text`` would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, SizeError, ValidationError
from .evolve import choose_T, evolve
from .generator import build_generator
from .lattice import GridField, SpectralField, dft, discretize, grid_points, idft, make_lattice
from .potential import FINE_GRID, RESOLUTION_CAP, EnergyPotential
from .report import Report
from .semianalytic import SemiAnalyticityParams, fit_params, semi_norms
from .spectral import fourier_derivative

_E3 = math.e**3
_E4 = math.e**4

#: coefficient of the normalized-distance bound (truncation of one state)
ER_CONST = 4 * math.sqrt(2) * _E3
#: coefficient in the upsampling TV bound (2 delta branch)
UPSAMPLE_CONST = 8 * math.sqrt(2) * _E3
#: coefficient in the interpolation TV bound (delta branch)
INTERPOLATION_CONST = 16 * math.sqrt(2) * _E3

MC_POINTS = 10**6

#: largest subcell-evaluation count the quadrature TV will attempt
TV_EVAL_CAP = 2**27

#: sample rows converted to text at a time by ``SampleBatch.to_csv``
CSV_CHUNK = 4096


@dataclass
class SampleBatch:
    """Points drawn from the continuous-sampling density of a lattice state."""

    points: np.ndarray  # (count, d) inside [-l/2, l/2)^d
    seed: int
    M: int
    l: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise ValidationError("sample points must form a (count, d) array")
        if np.any(self.points < -self.l / 2) or np.any(self.points >= self.l / 2):
            raise ValidationError("sample points fall outside the fundamental domain")

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def to_csv(self) -> str:
        """The points as CSV text, the same bytes as ``csv_text`` writes: no
        value needs quoting, so each row is its shortest round-trip reprs
        joined by commas.  Rows are converted CSV_CHUNK at a time, so the
        Python floats of the whole batch never exist at once."""
        parts = [",".join(f"x{i}" for i in range(self.points.shape[1])) + "\n"]
        for start in range(0, self.count, CSV_CHUNK):
            rows = self.points[start : start + CSV_CHUNK].tolist()
            parts.append("\n".join([",".join(map(repr, row)) for row in rows]) + "\n")
        return "".join(parts)


@dataclass
class TvReport(Report):
    tv: float
    method: str  # "quadrature" or "histogram"
    resolution: dict
    bound: float | None = None
    ci_99: float | None = None

    def __post_init__(self):
        if not -1e-12 <= self.tv <= 1 + 1e-12:
            raise ValidationError(f"total variation {self.tv} outside [0, 1]")


# ---------------------------------------------------------------------------
# upsampling and sampling


def upsample(state: GridField, M: int) -> GridField:
    """Zero-pad the centered spectrum from the N-lattice into the M-lattice.

    The map F_M^{-1} iota F_N is an isometry; the input must be normalized to
    unit 2-norm.  The M-lattice may hold at most RESOLUTION_CAP nodes.
    """
    lat = state.lattice
    if M < lat.N:
        raise ValidationError(f"target half-width M={M} smaller than source N={lat.N}")
    nrm = state.norm()
    if abs(nrm - 1.0) > 1e-6:
        raise ValidationError(f"upsample expects a unit-norm state, got norm {nrm}")
    if M == lat.N:
        return state.copy()
    target = make_lattice(lat.d, M, lat.l, cap=RESOLUTION_CAP)
    padded = np.zeros(target.shape, dtype=complex)
    center = tuple(slice(M - lat.N, M + lat.N + 1) for _ in range(lat.d))
    padded[center] = dft(state).coeffs
    return idft(SpectralField(target, padded))


def box_probabilities(state: GridField) -> np.ndarray:
    """|psi[n]|^2, renormalized to sum exactly to one."""
    p = np.abs(np.asarray(state.values)) ** 2
    total = p.sum()
    if total <= 0:
        raise ValidationError("state carries no probability mass")
    return p / total


def continuous_sample(state: GridField, count: int, seed: int) -> SampleBatch:
    """Draw ``count`` points: a node by exact cumulative-sum inversion, then a
    uniform offset inside its box.  Uses the counter-based Philox generator."""
    if count <= 0:
        raise ValidationError(f"sample count must be positive, got {count}")
    lat = state.lattice
    nrm = state.norm()
    if abs(nrm - 1.0) > 1e-6:
        raise ValidationError(f"continuous sampling expects a unit-norm state, got norm {nrm}")

    probs = box_probabilities(state).reshape(-1)
    cum = np.cumsum(probs)
    cum[-1] = 1.0

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    draws = rng.random(count)
    idx = np.searchsorted(cum, draws, side="right")
    offsets = (rng.random((count, lat.d)) - 0.5) * (lat.l / lat.points_per_axis)

    centers = lat.points()[idx]
    pts = centers + offsets
    pts = np.mod(pts + lat.l / 2, lat.l) - lat.l / 2
    return SampleBatch(points=pts, seed=int(seed), M=lat.N, l=lat.l)


def discrete_state_tv(psi: GridField, phi: GridField) -> float:
    """TV between the sampling densities of two states on the same lattice."""
    if psi.lattice != phi.lattice:
        raise ValidationError("states live on different lattices")
    return 0.5 * float(np.abs(box_probabilities(psi) - box_probabilities(phi)).sum())


# ---------------------------------------------------------------------------
# exact Gibbs oracle and TV quadrature


def _fine_midpoints(E: EnergyPotential) -> tuple:
    """Cell midpoints of the FINE_GRID quadrature over the fundamental domain,
    as an (m, d) array, with the volume of one cell."""
    pts_axis = FINE_GRID.get(E.d, 64)
    axis = (np.arange(pts_axis) + 0.5) / pts_axis * E.l - E.l / 2
    return grid_points(*[axis] * E.d), (E.l / pts_axis) ** E.d


class GibbsDensity:
    """Reference density proportional to e^{-E}, normalized by quadrature.

    The pipeline evolves W = E/2 and squares amplitudes, so e^{-E} is its
    target.
    """

    def __init__(self, E: EnergyPotential):
        self.E = E
        grid, cell = _fine_midpoints(E)
        self.Z = float(np.exp(-E.evaluate(grid)).sum() * cell)

    def density(self, points) -> np.ndarray:
        return np.exp(-self.E.evaluate(points)) / self.Z


def density_tv_quadrature(state: GridField, raw_density, subcells: int = 32) -> float:
    """TV between the state's piecewise-constant sampling density and the
    normalized density proportional to ``raw_density`` (d <= 2).

    Integrates |mu - rho| with ``subcells`` midpoints per box per axis; the
    normalizer uses the same grid so the reference integrates to one exactly.
    """
    lat = state.lattice
    if lat.d > 2:
        raise SizeError("quadrature TV is provided for d <= 2; use the Monte Carlo path")
    if subcells < 1:
        raise ValidationError(f"need at least one subcell per box, got subcells={subcells}")
    n = lat.points_per_axis
    S = subcells
    if (n * S) ** lat.d > TV_EVAL_CAP:
        raise SizeError(f"quadrature needs {(n * S) ** lat.d} evaluations, cap is {TV_EVAL_CAP}")
    # midpoints of all subcells along one axis, box by box
    offsets = ((np.arange(S) + 0.5) / S - 0.5) * (lat.l / n)
    axis = (lat.axis_points()[:, None] + offsets[None, :]).reshape(-1)
    sub_vol = (lat.l / (n * S)) ** lat.d
    mu = box_probabilities(state) * (n / lat.l) ** lat.d

    # every block holds n boxes: all of them in d=1, one row of them in d=2
    rows = n ** (2 - lat.d)
    starts = range(0, n, rows)

    @functools.lru_cache(maxsize=1)  # a single block (d=1) is evaluated once
    def raw_block(r0: int) -> np.ndarray:
        pts = grid_points(axis[r0 * S : (r0 + rows) * S], *[axis] * (lat.d - 1))
        return np.asarray(raw_density(pts), dtype=float)

    # two passes over the blocks, first for Z, then for the integral
    Z = 0.0
    for r0 in starts:
        Z += float(raw_block(r0).sum()) * sub_vol
    acc = 0.0
    for r0 in starts:
        rho = (raw_block(r0) / Z).reshape((rows, S) + (n, S) * (lat.d - 1))
        mu_block = mu[r0 : r0 + rows].reshape((rows, 1) + (n, 1) * (lat.d - 1))
        acc += float(np.abs(mu_block - rho).sum()) * sub_vol
    return 0.5 * acc


def tv_distance(state: GridField, E: EnergyPotential, subcells: int = 32, bound: float | None = None) -> TvReport:
    """TV between the state's sampling density and the exact Gibbs density.

    Per-box quadrature for d <= 2; for d >= 3 a 10^6-point Monte Carlo
    estimate with a 99% confidence radius is reported instead.
    """
    lat = state.lattice
    if lat.d <= 2:
        tv = density_tv_quadrature(state, lambda pts: np.exp(-E.evaluate(pts)), subcells)
        return TvReport(
            tv=min(tv, 1.0),
            method="quadrature",
            resolution={"M": lat.N, "subcells": subcells},
            bound=bound,
        )

    oracle = GibbsDensity(E)
    rng = np.random.Generator(np.random.Philox(key=0))
    pts = (rng.random((MC_POINTS, lat.d)) - 0.5) * lat.l
    rho = oracle.density(pts)
    probs = box_probabilities(state).reshape(-1)
    shifted = np.floor((pts + lat.l / 2) * (lat.points_per_axis / lat.l)).astype(int)
    shifted = np.clip(shifted, 0, lat.points_per_axis - 1)
    flat = np.ravel_multi_index([shifted[:, j] for j in range(lat.d)], lat.shape)
    mu = probs[flat] * (lat.points_per_axis / lat.l) ** lat.d
    gaps = np.abs(mu - rho) * lat.l**lat.d / 2
    tv = float(gaps.mean())
    ci = 2.576 * float(gaps.std(ddof=1)) / math.sqrt(MC_POINTS)
    return TvReport(
        tv=min(tv, 1.0),
        method="histogram",
        resolution={"M": lat.N, "mc_points": MC_POINTS},
        bound=bound,
        ci_99=ci,
    )


# ---------------------------------------------------------------------------
# lattice-size selection and the full pipeline


def choose_M(delta: float, L_lip: float, l: float, d: int, a: float, C: float, U: float) -> int:
    """Half-width guaranteeing a delta-accurate continuous-sampling density:
    M = ceil((1/delta) (L l d / 2 + (10/3) sqrt(2) a e^4 C) / U)."""
    if not 0 < delta < 1:
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")
    if U <= 0:
        raise ValidationError(f"mean-square value must be positive, got {U}")
    M = math.ceil((L_lip * l * d / 2 + (10.0 / 3.0) * math.sqrt(2) * a * _E4 * C) / (U * delta))
    return max(int(M), 1)


def _integer_root(n: int, d: int) -> int:
    """The largest integer r with r**d <= n."""
    r = round(n ** (1.0 / d))
    while r**d > n:
        r -= 1
    while (r + 1) ** d <= n:
        r += 1
    return r


@dataclass
class PipelineResult:
    batch: SampleBatch
    tv_report: TvReport
    operator: object
    state: GridField     # normalized evolved state on the N-lattice
    upsampled: GridField
    resolved: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)  # the operator's and the propagation's


def run_pipeline(
    E: EnergyPotential,
    N: int,
    M: int | None = None,
    T: float | None = None,
    eps: float = 0.05,
    count: int = 10000,
    seed: int = 0,
    M_cap: int = 512,
    subcells: int = 32,
) -> PipelineResult:
    """Build the E/2 generator, evolve the uniform state to T, upsample,
    sample, and measure TV against the exact Gibbs density of e^{-E}.

    With T or M left as None they are resolved automatically: T from the
    measured spectral gap (kappa = 1/gap) and the mixing-time formula with the
    full potential diameter; M from the sampling-accuracy formula with
    parameters fitted to the evolved state's spectrum, capped at M_cap, at
    the largest M whose (2M+1)^d nodes stay within RESOLUTION_CAP and, for
    d <= 2, at the largest M whose TV quadrature ((2M+1) subcells)^d stays
    within TV_EVAL_CAP, but never below N.
    """
    if subcells < 1:
        raise ValidationError(f"need at least one subcell per box, got subcells={subcells}")
    lattice = make_lattice(E.d, N, E.l)
    op = build_generator(E, lattice, halve=True)
    gap = op.spectral_gap
    kappa = 1.0 / gap

    resolved = {"N": N, "eps": eps, "gap": gap, "kappa": kappa, "seed": seed}
    if T is None:
        T = choose_T(kappa, E.diameter, eps)
        resolved["T_mode"] = "auto"
    else:
        resolved["T_mode"] = "fixed"
    resolved["T"] = float(T)

    ones = GridField(lattice, np.ones(lattice.shape), is_real=True)
    evolution = evolve(op, ones, T)
    final = evolution.final
    state = GridField(lattice, (final / np.linalg.norm(final)).reshape(lattice.shape), is_real=True)

    if M is None:
        spec = dft(state)
        profile = semi_norms(spec, m_max=8)
        params = fit_params(profile)
        U_est = profile[0]
        L_est = 1.05 * max(
            float(np.abs(fourier_derivative(state, axis=j).values).max()) for j in range(lattice.d)
        )
        M = choose_M(eps, L_est, E.l, E.d, params.a, params.C, U_est)
        resolved.update(
            {"M_mode": "auto", "M_raw": M, "fitted_C": params.C, "fitted_a": params.a, "U_est": U_est, "L_est": L_est}
        )
        M = min(M, M_cap, (_integer_root(RESOLUTION_CAP, E.d) - 1) // 2)
        if E.d <= 2:
            M = min(M, (_integer_root(TV_EVAL_CAP, E.d) // subcells - 1) // 2)
        M = max(M, N)
    else:
        resolved["M_mode"] = "fixed"
        if M < N:
            raise ValidationError(f"M={M} must be at least N={N}")
    resolved["M"] = int(M)

    upsampled = upsample(state, int(M))
    batch = continuous_sample(upsampled, count, seed)
    tv_report = tv_distance(upsampled, E, subcells=subcells, bound=eps)
    return PipelineResult(
        batch=batch,
        tv_report=tv_report,
        operator=op,
        state=state,
        upsampled=upsampled,
        resolved=resolved,
        health={**op.health, **evolution.health},
    )


# ---------------------------------------------------------------------------
# mean estimation


@dataclass
class MeanEstimate(Report):
    mean: float
    stderr: float
    count: int


def estimate_mean(f, batch: SampleBatch) -> MeanEstimate:
    """Monte Carlo mean of a periodic observable over a sample batch."""
    if batch.count == 0:
        raise ValidationError("empty sample batch")
    vals = np.asarray(f(batch.points), dtype=float)
    stderr = float(vals.std(ddof=1) / math.sqrt(batch.count)) if batch.count > 1 else 0.0
    return MeanEstimate(mean=float(vals.mean()), stderr=stderr, count=batch.count)


def exact_mean(f, E: EnergyPotential) -> float:
    """Quadrature value of E_rho[f] under the Gibbs density of e^{-E}."""
    grid, _ = _fine_midpoints(E)
    weights = np.exp(-E.evaluate(grid))
    vals = np.asarray(f(grid), dtype=float)
    return float((vals * weights).sum() / weights.sum())


# ---------------------------------------------------------------------------
# interpolation error bound check


@dataclass
class InterpolationReport(Report):
    N: int
    measured_distance: float
    distance_bound: float
    tv: float | None
    tv_bound: float
    M_bound_choice: int
    M_used: int | None
    tv_feasible: bool

    @property
    def distance_ok(self) -> bool:
        return self.measured_distance <= self.distance_bound

    @property
    def tv_ok(self) -> bool:
        return (not self.tv_feasible) or self.tv <= self.tv_bound


def normalized_series_distance(state: GridField, u_hat, k_max: int) -> float:
    """d(F_N |u_N>, u_hat / U) for a 1-d analytic series truncated at k_max."""
    lat = state.lattice
    if lat.d != 1:
        raise ValidationError("series distance is implemented for d = 1")
    coeffs = dft(state).flat
    ks = np.arange(-k_max, k_max + 1)
    series = np.array([u_hat(int(k)) for k in ks], dtype=float)
    U = math.sqrt(float(np.sum(series**2)))
    inside = np.abs(ks) <= lat.N
    target_in = series[inside] / U
    dist_sq = float(np.sum(np.abs(coeffs - target_in) ** 2)) + float(np.sum((series[~inside] / U) ** 2))
    return math.sqrt(dist_sq)


def interpolation_error_bound_check(
    u,
    u_hat,
    params: SemiAnalyticityParams,
    N: int,
    l: float,
    lipschitz: float,
    k_max: int = 60,
    M_cap: int = 20000,
    subcells: int = 32,
) -> InterpolationReport:
    """Measured truncation distance and sampling TV against their envelopes.

    Requires N >= 2 a d (d = 1 here).  The TV side uses the lattice size the
    accuracy formula itself dictates; when that exceeds ``M_cap`` the TV is
    still measured at the cap but not asserted (flagged infeasible).
    """
    C, a = params.C, params.a
    if N < 2 * a:
        raise PreconditionError(f"need N >= 2ad = {2 * a}, got N={N}")

    lat = make_lattice(1, N, l, cap=None)
    ks = np.arange(-k_max, k_max + 1)
    series = np.array([u_hat(int(k)) for k in ks], dtype=float)
    U = math.sqrt(float(np.sum(series**2)))

    fld = discretize(u, lat)
    state = GridField(lat, fld.values / fld.norm(), is_real=True)
    measured = normalized_series_distance(state, u_hat, k_max)
    distance_bound = ER_CONST * (C / U) * math.exp(-0.6 * N / a)

    eps_prime = UPSAMPLE_CONST * (C / U) * math.exp(-0.6 * N / a)
    M_choice = choose_M(min(eps_prime, 0.999999), lipschitz, l, 1, a, C, U)
    feasible = M_choice <= M_cap
    M_used = max(min(M_choice, M_cap), N)
    up = upsample(state, M_used)
    tv = density_tv_quadrature(up, lambda pts: np.asarray(u(pts)) ** 2, subcells)
    tv_bound = INTERPOLATION_CONST * (C / U) * math.exp(-0.6 * N / a)

    return InterpolationReport(
        N=N,
        measured_distance=measured,
        distance_bound=distance_bound,
        tv=tv,
        tv_bound=tv_bound,
        M_bound_choice=M_choice,
        M_used=M_used,
        tv_feasible=feasible,
    )
