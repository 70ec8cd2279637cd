"""Upsampling isometry, continuous sampling, TV measurement against the exact
Gibbs density, mean estimation, and the end-to-end sampling pipeline.

Continuous sampling measures a unit-norm lattice state in the node basis and
then draws uniformly from the box around the node; the resulting density is
piecewise constant with value |psi[n]|^2 ((2M+1)/l)^d on each box.  The boxes
tile the fundamental domain exactly.  The pipeline evolves the uniform state
straight to T.  The TV quadrature walks its midpoint grid block by block,
each block a tensor product of 1-D axes that ``EnergyPotential.evaluate_grid``
evaluates, so its memory is bounded by one block; a sum-over-axes potential
(cosine) evaluates d axes per block and never lays the midpoints out as
points.  The exact Gibbs oracle (the normalizer Z and the exact mean) sums
e^{-E} over the nodes of ``potential.fine_lattice``, at most 2^18 of them in
every d, in one ``evaluate_grid`` call: the trapezoid rule, spectrally
accurate for the periodic analytic e^{-E}.

The quadrature TV evaluates the reference density once per subcell midpoint.
It needs the normalizer Z before it can take |mu - rho / Z|, so it starts from
an estimate of 1/Z on the box centres (the trapezoid sum of a periodic
analytic density is accurate to near rounding), accumulates |mu - c rho| and
its slope in c in the same pass as Z, and corrects to the exact Z afterwards.
The correction is exact, up to rounding, whenever no subcell's sign can flip
between the estimate and Z; otherwise a second pass sums |mu - rho / Z|
directly.  ``TvReport.health`` records which way it went (``tv_passes``)
and the density values computed (``tv_eval_points``: the product of the axis
lengths of every block evaluated, the box centres included).

Sizes are checked before any work: ``make_lattice`` bounds the upsampling
target, and the TV quadrature evaluates at most QUADRATURE_CAP midpoints.

TV, mean and interpolation results are ``torusfp.report.Report`` dataclasses;
sample batches write their own CSV, byte for byte what ``csv_text`` would,
with one %-format over each chunk of CSV_CHUNK rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, SizeError, ValidationError
from .evolve import choose_T, evolve
from .generator import Operator, build_generator
from .lattice import RESOLUTION_CAP, GridField, SpectralField, dft, discretize, grid_points, idft, make_lattice
from .potential import EnergyPotential, fine_lattice, lipschitz_on_grid
from .report import Report
from .semianalytic import SemiAnalyticityParams, fit_params, semi_norms

_E3 = math.e**3
_E4 = math.e**4

#: coefficient of the normalized-distance bound (truncation of one state)
ER_CONST = 4 * math.sqrt(2) * _E3
#: coefficient in the upsampling TV bound (2 delta branch)
UPSAMPLE_CONST = 8 * math.sqrt(2) * _E3
#: coefficient in the interpolation TV bound (delta branch)
INTERPOLATION_CONST = 16 * math.sqrt(2) * _E3

MC_POINTS = 10**6

#: largest midpoint count of the TV quadrature
QUADRATURE_CAP = 2**27

#: relative half-width of the band around the estimated reference density
#: c rho inside which the quadrature TV keeps a subcell aside: outside it, the
#: sign of mu - rho / Z is that of mu - c rho whenever |1/Z - c| <= TV_BAND c
TV_BAND = 1e-8

#: sample rows converted to text at a time by ``SampleBatch.csv_chunks``
CSV_CHUNK = 4096

#: largest upsampling half-width of ``interpolation_error_bound_check``
INTERPOLATION_M_CAP = 20000


@dataclass
class SampleBatch:
    """Points drawn from the continuous-sampling density of a lattice state."""

    points: np.ndarray  # (count, d) inside [-l/2, l/2)^d
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

    def csv_chunks(self):
        """The points as CSV text in pieces, the same bytes as ``csv_text``
        writes: no value needs quoting, so each row is its shortest
        round-trip reprs joined by commas.  The header comes first, then
        CSV_CHUNK rows at a time, each chunk one %-format of its floats
        (``%r`` is ``repr``), so neither the Python floats nor the text of
        the whole batch need exist at once."""
        d = self.points.shape[1]
        yield ",".join(f"x{i}" for i in range(d)) + "\n"
        row_fmt = ",".join(["%r"] * d) + "\n"
        for start in range(0, self.count, CSV_CHUNK):
            block = self.points[start : start + CSV_CHUNK]
            yield (row_fmt * len(block)) % tuple(block.ravel().tolist())

    def to_csv(self) -> str:
        """The points as CSV text: the pieces of :meth:`csv_chunks` joined."""
        return "".join(self.csv_chunks())


@dataclass
class TvReport(Report):
    tv: float
    method: str  # "quadrature" or "histogram"
    resolution: dict
    bound: float | None = None
    ci_99: float | None = None
    # quadrature passes and potential evaluations: for the run manifest, not tv.json
    health: dict = field(default_factory=dict, compare=False, metadata={"artifact": False})

    def __post_init__(self):
        if not -1e-12 <= self.tv <= 1 + 1e-12:
            raise ValidationError(f"total variation {self.tv} outside [0, 1]")


# ---------------------------------------------------------------------------
# upsampling and sampling


def upsample(state: GridField, M: int) -> GridField:
    """Zero-pad the centered spectrum from the N-lattice into the M-lattice.

    The map F_M^{-1} iota F_N is an isometry; the input must be normalized to
    unit 2-norm.  ``make_lattice`` bounds the M-lattice.
    """
    lat = state.lattice
    if M < lat.N:
        raise ValidationError(f"target half-width M={M} smaller than source N={lat.N}")
    nrm = state.norm()
    if abs(nrm - 1.0) > 1e-6:
        raise ValidationError(f"upsample expects a unit-norm state, got norm {nrm}")
    if M == lat.N:
        return state.copy()
    target = make_lattice(lat.d, M, lat.l)
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

    # the drawn nodes' coordinates, without laying out the whole lattice
    centers = lat.axis_points()[np.stack(np.unravel_index(idx, lat.shape), axis=-1)]
    pts = centers + offsets
    pts = np.mod(pts + lat.l / 2, lat.l) - lat.l / 2
    return SampleBatch(points=pts, l=lat.l)


def discrete_state_tv(psi: GridField, phi: GridField) -> float:
    """TV between the sampling densities of two states on the same lattice."""
    if psi.lattice != phi.lattice:
        raise ValidationError("states live on different lattices")
    return 0.5 * float(np.abs(box_probabilities(psi) - box_probabilities(phi)).sum())


# ---------------------------------------------------------------------------
# exact Gibbs oracle and TV quadrature


def _fine_weights(E: EnergyPotential) -> tuple:
    """The d axes of ``fine_lattice(E.d, E.l)`` and e^{-E} on its nodes, from
    one ``E.evaluate_grid`` call."""
    axes = [fine_lattice(E.d, E.l).axis_points()] * E.d
    return axes, np.exp(-E.evaluate_grid(axes))


class GibbsDensity:
    """Reference density proportional to e^{-E}, normalized by the trapezoid
    sum over the fine lattice, cell volume (l / n)^d.

    The pipeline evolves W = E/2 and squares amplitudes, so e^{-E} is its
    target.
    """

    def __init__(self, E: EnergyPotential):
        self.E = E
        axes, weights = _fine_weights(E)
        self.Z = float(weights.sum()) * (E.l / len(axes[0])) ** E.d

    def density(self, points) -> np.ndarray:
        return np.exp(-self.E.evaluate(points)) / self.Z


def _check_quadrature(d: int, boxes: int, subcells: int) -> None:
    """SizeError unless the TV quadrature over ``boxes`` boxes per axis with
    ``subcells`` midpoints each fits QUADRATURE_CAP."""
    if (boxes * subcells) ** d > QUADRATURE_CAP:
        raise SizeError(f"quadrature needs {(boxes * subcells) ** d} evaluations, cap is {QUADRATURE_CAP}")


def density_tv_quadrature(state: GridField, raw_density, subcells: int = 32) -> float:
    """TV between the state's piecewise-constant sampling density and the
    normalized density proportional to ``raw_density`` (d <= 2).

    Integrates |mu - rho / Z| with ``subcells`` midpoints per box per axis;
    the normalizer Z uses the same grid so the reference integrates to one
    exactly.  ``raw_density`` maps an (m, d) array of points to m values.
    One pass over the grid suffices: see :func:`_tv_quadrature`.
    """

    def on_grid(axes):
        return np.asarray(raw_density(grid_points(*axes)), dtype=float).reshape([len(a) for a in axes])

    return _tv_quadrature(state, on_grid, subcells)[0]


def _tv_quadrature(state: GridField, raw_density, subcells: int) -> tuple:
    """The quadrature TV of :func:`density_tv_quadrature`, with its health:
    the passes over the grid and the density values computed.
    ``raw_density`` maps d 1-D axes to the density on their tensor product,
    shaped like that grid.

    An estimate c of 1/Z comes first from the n^d box centres, a trapezoid
    sum that is spectrally accurate for a periodic analytic density.  One
    pass over the blocks then evaluates each subcell midpoint once and
    accumulates Z, A = sum |mu - c rho| and G = sum sign(mu - c rho) rho.
    Where |mu - c rho| > TV_BAND c rho, the sign of mu - rho / Z equals that
    of mu - c rho as long as |1/Z - c| <= TV_BAND c, and then
    sum |mu - rho / Z| = A - (1/Z - c) G exactly; the few subcells inside the
    band are kept and summed exactly.  When the estimate misses (a density
    the box centres under-resolve) or the band outgrows one line of subcells
    (a state on its reference density), a second pass evaluates the grid
    again and sums |mu - rho / Z| directly.
    """
    lat = state.lattice
    if lat.d > 2:
        raise SizeError("quadrature TV is provided for d <= 2; use the Monte Carlo path")
    if subcells < 1:
        raise ValidationError(f"need at least one subcell per box, got subcells={subcells}")
    n = lat.points_per_axis
    S = subcells
    _check_quadrature(lat.d, n, S)
    # midpoints of all subcells along one axis, box by box
    offsets = ((np.arange(S) + 0.5) / S - 0.5) * (lat.l / n)
    axis = (lat.axis_points()[:, None] + offsets[None, :]).reshape(-1)
    sub_vol = (lat.l / (n * S)) ** lat.d
    mu = box_probabilities(state) * (n / lat.l) ** lat.d

    # every block holds n boxes: all of them in d=1, one row of them in d=2
    rows = n ** (2 - lat.d)
    starts = range(0, n, rows)
    shape = (rows, S) + (n, S) * (lat.d - 1)
    mu_shape = (rows, 1) + (n, 1) * (lat.d - 1)
    evaluated = 0

    def evaluate(axes: list) -> np.ndarray:
        nonlocal evaluated
        evaluated += math.prod(len(a) for a in axes)
        return np.asarray(raw_density(axes), dtype=float)

    @functools.lru_cache(maxsize=1)  # a single block (d=1) is evaluated once
    def raw_block(r0: int) -> np.ndarray:
        return evaluate([axis[r0 * S : (r0 + rows) * S]] + [axis] * (lat.d - 1)).reshape(shape)

    estimate = float(evaluate([lat.axis_points()] * lat.d).sum()) * (lat.l / n) ** lat.d
    one_pass = 0 < estimate < math.inf
    c = 1.0 / estimate if one_pass else 0.0
    room = n * S ** (lat.d - 1)  # band subcells kept at most
    band_mu, band_rho = [], []
    Z = A = G = 0.0
    for r0 in starts:
        raw = raw_block(r0)
        Z += float(raw.sum()) * sub_vol
        if not one_pass:
            continue
        mu_block = mu[r0 : r0 + rows].reshape(mu_shape)
        delta = np.multiply(raw, c)
        np.subtract(mu_block, delta, out=delta)
        G += float(np.copysign(raw, delta).sum())
        np.abs(delta, out=delta)
        A += float(delta.sum())
        band = delta <= (TV_BAND * c) * raw
        room -= np.count_nonzero(band)
        one_pass = room >= 0
        if one_pass:
            band_mu.append(np.broadcast_to(mu_block, shape)[band])
            band_rho.append(raw[band])

    if one_pass and abs(1.0 / Z - c) <= TV_BAND * c:
        shift = 1.0 / Z - c
        mu_in, rho_in = np.concatenate(band_mu), np.concatenate(band_rho)
        delta_in = mu_in - rho_in * c
        # the band's terms of A and G, replaced by their exact values
        exact_in = np.abs(mu_in - rho_in / Z) - np.abs(delta_in) + shift * np.copysign(rho_in, delta_in)
        acc = (A - shift * G + float(exact_in.sum())) * sub_vol
        return 0.5 * acc, {"tv_passes": 1, "tv_eval_points": evaluated}

    acc = 0.0
    for r0 in starts:
        rho = raw_block(r0) / Z
        mu_block = mu[r0 : r0 + rows].reshape(mu_shape)
        acc += float(np.abs(mu_block - rho).sum()) * sub_vol
    return 0.5 * acc, {"tv_passes": 2, "tv_eval_points": evaluated}


def tv_distance(state: GridField, E: EnergyPotential, subcells: int = 32, bound: float | None = None) -> TvReport:
    """TV between the state's sampling density and the exact Gibbs density.

    Per-box quadrature for d <= 2, whose passes and evaluations go into the
    report's ``health``; for d >= 3 a 10^6-point Monte Carlo estimate with a
    99% confidence radius is reported instead.
    """
    lat = state.lattice
    if lat.d <= 2:
        tv, health = _tv_quadrature(state, lambda axes: np.exp(-E.evaluate_grid(axes)), subcells)
        return TvReport(
            tv=min(tv, 1.0),
            method="quadrature",
            resolution={"M": lat.N, "subcells": subcells},
            bound=bound,
            health=health,
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
    operator: Operator
    state: GridField     # normalized evolved state on the N-lattice
    upsampled: GridField
    resolved: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)  # the operator's, the propagation's, the TV's and mixing_l2


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
    within QUADRATURE_CAP, but never below N.

    ``health`` adds the mixing part of the error, ``mixing_l2``, to the
    operator's, the propagation's and the TV's numbers.
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
    w = op.W.flat
    stationary = np.exp(w.min() - w)  # e^{-W} scaled by e^{min W}: neither it nor its norm overflows
    mixing_l2 = float(np.linalg.norm(state.flat - stationary / np.linalg.norm(stationary)))

    if M is None:
        spec = dft(state)
        profile = semi_norms(spec, m_max=8)
        params = fit_params(profile)
        U_est = profile[0]
        L_est = lipschitz_on_grid(state)
        M = choose_M(eps, L_est, E.l, E.d, params.a, params.C, U_est)
        resolved.update(
            {"M_mode": "auto", "M_raw": M, "fitted_C": params.C, "fitted_a": params.a, "U_est": U_est, "L_est": L_est}
        )
        M = min(M, M_cap, (_integer_root(RESOLUTION_CAP, E.d) - 1) // 2)
        if E.d <= 2:
            M = min(M, (_integer_root(QUADRATURE_CAP, E.d) // subcells - 1) // 2)
        M = max(M, N)
    else:
        resolved["M_mode"] = "fixed"
        if M < N:
            raise ValidationError(f"M={M} must be at least N={N}")
    resolved["M"] = int(M)

    # the sizes of the upsampling target and of the TV measurement are known
    # now: check them against their caps before the work ahead
    make_lattice(E.d, int(M), E.l)
    if E.d <= 2:
        _check_quadrature(E.d, 2 * int(M) + 1, subcells)
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
        health={**op.health, **evolution.health, **tv_report.health, "mixing_l2": mixing_l2},
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
    """Quadrature value of E_rho[f] under the Gibbs density of e^{-E}, on the
    nodes of the fine lattice."""
    axes, weights = _fine_weights(E)
    weights = weights.reshape(-1)
    return float((np.asarray(f(grid_points(*axes)), dtype=float) * weights).sum()) / float(weights.sum())


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
) -> InterpolationReport:
    """Measured truncation distance and sampling TV against their envelopes.

    Requires N >= 2 a d (d = 1 here).  The TV side uses the lattice size the
    accuracy formula itself dictates; when that exceeds INTERPOLATION_M_CAP
    the TV is still measured at the cap but not asserted (flagged infeasible).
    """
    C, a = params.C, params.a
    if N < 2 * a:
        raise PreconditionError(f"need N >= 2ad = {2 * a}, got N={N}")

    lat = make_lattice(1, N, l)
    ks = np.arange(-k_max, k_max + 1)
    series = np.array([u_hat(int(k)) for k in ks], dtype=float)
    U = math.sqrt(float(np.sum(series**2)))

    fld = discretize(u, lat)
    state = GridField(lat, fld.values / fld.norm(), is_real=True)
    measured = normalized_series_distance(state, u_hat, k_max)
    distance_bound = ER_CONST * (C / U) * math.exp(-0.6 * N / a)

    eps_prime = UPSAMPLE_CONST * (C / U) * math.exp(-0.6 * N / a)
    M_choice = choose_M(min(eps_prime, 0.999999), lipschitz, l, 1, a, C, U)
    feasible = M_choice <= INTERPOLATION_M_CAP
    M_used = max(min(M_choice, INTERPOLATION_M_CAP), N)
    up = upsample(state, M_used)
    tv = density_tv_quadrature(up, lambda pts: np.asarray(u(pts)) ** 2)
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
