"""Upsampling isometry, continuous sampling, TV measurement against the exact
Gibbs density, mean estimation, and the end-to-end sampling pipeline.

Continuous sampling measures a unit-norm lattice state in the node basis and
then draws uniformly from the box around the node; the resulting density is
piecewise constant with value |psi[n]|^2 ((2M+1)/l)^d on each box.  The boxes
tile the fundamental domain exactly.  The pipeline evolves the uniform state
straight to T.  The TV quadrature walks its midpoint grid block by block,
each block a tensor product of 1-D axes that ``EnergyPotential.evaluate_grid``
evaluates, so its memory is bounded by one block; a sum over axes (a
potential with ``EnergyPotential.axes``, such as cosine) evaluates each of
its d terms on its axis once per block and never lays the midpoints out as
points.  The exact Gibbs oracle (the normalizer Z and the exact mean) sums
e^{-E} over the nodes of ``potential.fine_lattice``, at most 2^18 of them in
every d, in one ``evaluate_grid`` call: the trapezoid rule, spectrally
accurate for the periodic analytic e^{-E}.

At d = 2 a sum over axes has the Gibbs density a(x) b(y) on the midpoint
grid, with a and b from its two terms, so ``tv_distance`` evaluates each
term on the midpoint axis and sums each box's |mu - a b / Z| over its
subcells from the sorted b of its column and their prefix sums: 2 n S density
values and n^2 S thresholds in place of (n S)^2 subcells, for n boxes per axis
and S subcells per box.

Every other quadrature TV (d = 1, a potential that is not a sum over axes,
and ``density_tv_quadrature``) evaluates the reference density once per
subcell midpoint.  It needs the normalizer Z before it can take
|mu - rho / Z|, so it starts from an estimate of 1/Z on the box centres (the
trapezoid sum of a periodic analytic density is accurate to near rounding),
accumulates |mu - c rho| and its slope in c in the same pass as Z, and
corrects to the exact Z afterwards.  The correction is exact, up to
rounding, whenever no subcell's sign can flip between the estimate and Z;
otherwise a second pass sums |mu - rho / Z| directly.  ``TvReport.health`` records which way it went (``tv_passes``)
and the density values computed (``tv_eval_points``: the product of the axis
lengths of every block evaluated, the box centres included; 2 n S on the
per-axis route, whose one pass is ``tv_passes`` = 1).

Sampling inverts the cumulative box probabilities with a guide table
(Chen and Asau's indexed search): each draw starts at the first box past
the lower edge of its bucket and steps forward, which gives the box
``searchsorted`` would.  It adds each drawn node's coordinates to its offset
axis by axis, and wraps by one period only the points that leave the
fundamental domain.  It works CSV_CHUNK rows at a time, so that beside the
points it holds only their boxes, as int32.

Sizes are checked before any work: ``make_lattice`` bounds the upsampling
target, and ``lattice.check_values`` the midpoints of the TV quadrature and
the coordinates of a sample batch.

The interpolation chain of a 1-d analytic series (``_interpolation_chain``,
for ``interpolate`` and demo 02) measures its lattice distance and TV; the
envelopes they are checked against are test oracles (``tests/oracles.py``).

TV and mean results are ``torusfp.report.Report`` dataclasses; sample batches
are written by ``report.float_csv``, byte for byte what ``csv_text`` would,
with one ``report.float_rows`` call per chunk of CSV_CHUNK rows: numpy's
integer arithmetic gives the shortest round-trip digits of every value with
1e-4 <= |x| < 1e16 whose significand is not a power of two, and ``repr``
writes the rest.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lattice as _lattice
from .errors import SizeError, ValidationError
from .evolve import choose_T, evolve
from .generator import Operator, build_generator
from .lattice import RESOLUTION_CAP, GridField, SpectralField, dft, discretize, grid_points, idft, is_integer, make_lattice
from .potential import EnergyPotential, fine_lattice, lipschitz_on_grid
from .report import CSV_CHUNK, Report, float_csv
from .semianalytic import fit_params, semi_norms

_E4 = math.e**4

MC_POINTS = 10**6

#: relative half-width of the band around the estimated reference density
#: c rho inside which the quadrature TV keeps a subcell aside: outside it, the
#: sign of mu - rho / Z is that of mu - c rho whenever |1/Z - c| <= TV_BAND c
TV_BAND = 1e-8


@dataclass
class SampleBatch:
    """Points drawn from the continuous-sampling density of a lattice state."""

    points: np.ndarray  # (count, d) inside [-l/2, l/2)^d
    l: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise ValidationError("sample points must form a (count, d) array")
        # min and max build no count x d masks, and carry a NaN, which fails both tests
        if self.points.size and not (self.points.min() >= -self.l / 2 and self.points.max() < self.l / 2):
            raise ValidationError("sample points fall outside the fundamental domain")

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def csv_chunks(self):
        """The points as CSV text in pieces, columns x0, x1, ..., written by
        ``report.float_csv``: the same bytes as ``csv_text`` writes, never
        all held at once."""
        return float_csv([f"x{i}" for i in range(self.points.shape[1])], self.points.T)

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
    if not abs(nrm - 1.0) <= 1e-6:  # a NaN norm fails it too
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


def _check_seed(seed: int) -> None:
    """Refuse a seed that is not a Philox key, an integer in [0, 2^128)."""
    if not (is_integer(seed) and 0 <= seed < 2**128):
        raise ValidationError(f"seed must be an integer in [0, 2^128), got {seed!r}")


def _check_count(count: int, d: int) -> None:
    """Refuse a sample count that is not an integer, one below one, or one
    whose count * d coordinates exceed the value budget."""
    if not is_integer(count):
        raise ValidationError(f"sample count must be an integer, got {count!r}")
    if count <= 0:
        raise ValidationError(f"sample count must be positive, got {count}")
    _lattice.check_values(count * d, f"sample count {count}")


def _guide_table(cum: np.ndarray, count: int) -> np.ndarray:
    """The guide table of :func:`_invert_cdf` for ``count`` draws, as int32:
    for each of K buckets the first box whose cum exceeds the bucket's lower
    edge k / K.  K is a power of two, at most four times the boxes and at
    most the draws, so u K is exact for every draw u.  Every box index is
    below RESOLUTION_CAP = 2^22, so int32 holds it."""
    buckets = 1 << (min(4 * cum.size, count).bit_length() - 1)
    return np.searchsorted(cum, np.arange(buckets) / buckets, side="right").astype(np.int32)


def _invert_cdf(cum: np.ndarray, guide: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, draws, side="right")`` as int32, for draws in
    [0, 1) and a ``cum`` that is nondecreasing save its last entry, which
    exceeds every draw (so that cum > u holds from the answer on), by the
    guide table of :func:`_guide_table`.

    A draw u lies in bucket k = floor(u K), whose table entry no draw of the
    bucket has its box before; it steps forward from there while cum <= u.
    The few still short after four steps take ``searchsorted``.  The table
    serves any number of calls, one per chunk of the draws.  ``take`` reads
    by int32 indices about three times faster than fancy indexing, which
    first copies them to intp."""
    idx = guide[(draws * guide.size).astype(np.intp)]
    rest = np.flatnonzero(cum.take(idx) <= draws)
    for _ in range(4):
        if not rest.size:
            break
        idx[rest] += 1
        rest = rest[cum.take(idx[rest]) <= draws[rest]]
    if rest.size:
        idx[rest] = np.searchsorted(cum, draws[rest], side="right")
    return idx


def continuous_sample(state: GridField, count: int, seed: int) -> SampleBatch:
    """Draw ``count`` points: a node by exact cumulative-sum inversion, then a
    uniform offset inside its box.  Uses the counter-based Philox generator.

    The first ``count`` doubles of the stream pick the boxes, through
    :func:`_invert_cdf` on one guide table, CSV_CHUNK draws at a time (one
    generator gives the same doubles in chunks as in one call) into one int32
    array; the next ``count * d`` doubles are the offsets, drawn as one
    array.  Each point is its offset plus its node's coordinate, taken per
    axis from the node's multi-index by integer division; only the points
    that leave [-l/2, l/2) are wrapped, by one period, which is bitwise
    ``np.mod`` on the range the points span.  Beside the points, nothing of
    the batch's size is held but the boxes: the rest is done a chunk of
    rows at a time."""
    lat = state.lattice
    _check_count(count, lat.d)
    _check_seed(seed)
    if lat.size > RESOLUTION_CAP:  # int32 boxes: a lattice not from make_lattice
        raise SizeError(f"lattice has {lat.size} nodes, exceeding the cap {RESOLUTION_CAP}")
    nrm = state.norm()
    if not abs(nrm - 1.0) <= 1e-6:  # a NaN norm fails it too
        raise ValidationError(f"continuous sampling expects a unit-norm state, got norm {nrm}")

    cum = np.cumsum(box_probabilities(state).reshape(-1))
    cum[-1] = 1.0
    guide = _guide_table(cum, count)

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    boxes = np.empty(count, dtype=np.int32)
    for start in range(0, count, CSV_CHUNK):
        chunk = boxes[start : start + CSV_CHUNK]
        chunk[:] = _invert_cdf(cum, guide, rng.random(chunk.size))
    pts = rng.random((count, lat.d))

    # the drawn nodes' coordinates, without laying out the whole lattice
    n, l = lat.points_per_axis, lat.l
    axis = lat.axis_points()
    for start in range(0, count, CSV_CHUNK):
        block = pts[start : start + CSV_CHUNK]
        block -= 0.5
        block *= l / n
        box = boxes[start : start + CSV_CHUNK]
        for j in reversed(range(1, lat.d)):
            q = box // n  # numpy's divmod skips the fast path of // by a scalar
            block[:, j] += axis.take(box - q * n)
            box = q
        block[:, 0] += axis.take(box)  # below n: the first axis's index
        block += l / 2
        block[block >= l] -= l
        block[block < 0] += l
        block -= l / 2
    return SampleBatch(points=pts, l=l)


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


def _check_subcells(subcells: int) -> None:
    """Refuse a subcell count that is not an integer, or one below one."""
    if not is_integer(subcells) or subcells < 1:
        raise ValidationError(f"need a positive integer count of subcells per box, got subcells={subcells!r}")


def density_tv_quadrature(state: GridField, raw_density, subcells: int = 32) -> float:
    """TV between the state's piecewise-constant sampling density and the
    normalized density proportional to ``raw_density`` (d <= 2).

    Integrates |mu - rho / Z| with ``subcells`` midpoints per box per axis;
    the normalizer Z uses the same grid so the reference integrates to one
    exactly.  ``raw_density`` maps an (m, d) array of points to m values.
    One pass over the grid suffices: see :func:`_tv_quadrature`.
    """
    _check_subcells(subcells)

    def on_grid(axes):
        return np.asarray(raw_density(grid_points(*axes)), dtype=float).reshape([len(a) for a in axes])

    return _tv_quadrature(state, on_grid, subcells)[0]


def _quadrature_grid(state: GridField, subcells: int) -> tuple:
    """The midpoints of all subcells along one axis, box by box, the volume
    of a subcell and the state's sampling density mu on its boxes, after the
    checks every quadrature TV makes: d <= 2 and midpoints within the value
    budget (its callers check the subcell count)."""
    lat = state.lattice
    if lat.d > 2:
        raise SizeError("quadrature TV is provided for d <= 2; use the Monte Carlo path")
    n, S = lat.points_per_axis, subcells
    _lattice.check_values((n * S) ** lat.d, "quadrature")
    offsets = ((np.arange(S) + 0.5) / S - 0.5) * (lat.l / n)
    axis = (lat.axis_points()[:, None] + offsets[None, :]).reshape(-1)
    sub_vol = (lat.l / (n * S)) ** lat.d
    mu = box_probabilities(state) * (n / lat.l) ** lat.d
    return axis, sub_vol, mu


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
    n, S = lat.points_per_axis, subcells
    axis, sub_vol, mu = _quadrature_grid(state, S)

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


def _separable_tv(state: GridField, E: EnergyPotential, subcells: int) -> tuple:
    """The quadrature TV of :func:`_tv_quadrature` against e^{-E} at d = 2
    for a sum-over-axes E, with its health, from one line of midpoints per
    axis.

    On the midpoint grid e^{-E} is the outer product of a = e^{-E_0} and
    b = e^{-E_1}, the terms of E on the midpoint axis; each is shifted by its
    own minimum before it is exponentiated, and the constant factor this
    leaves cancels in Z = sum a sum b sub_vol.  With
    a' = a / Z, the S subcells of box (i, j) in sub-row s sum to
    sum_t |mu_ij - a'_s b_t| = mu_ij (2k - S) + a'_s (P_S - 2 P_k), where the
    b_t of box column j are sorted, P are their prefix sums and k counts the
    b_t below mu_ij / a'_s: one ``searchsorted`` per box column over n S
    thresholds, O(n^2 S log S) work in place of (n S)^2 evaluations.  A row
    whose a'_s underflows to 0 sums to mu_ij S, as its threshold is inf."""
    n, S = state.lattice.points_per_axis, subcells
    axis, sub_vol, mu = _quadrature_grid(state, S)
    a, b = E.evaluate_axes([axis, axis])
    a = np.exp(a.min() - a)
    b = np.exp(b.min() - b)
    Z = float(a.sum()) * float(b.sum()) * sub_vol
    a = (a / Z).reshape(n, S)
    b = np.sort(b.reshape(n, S), axis=1)
    prefix = np.zeros((n, S + 1))
    np.cumsum(b, axis=1, out=prefix[:, 1:])
    acc = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(n):
            mu_j = mu[:, j, None]
            k = np.searchsorted(b[j], mu_j / a)
            acc += float((mu_j * (2 * k - S) + a * (prefix[j, S] - 2 * prefix[j, k])).sum())
    return 0.5 * acc * sub_vol, {"tv_passes": 1, "tv_eval_points": 2 * n * S}


def tv_distance(state: GridField, E: EnergyPotential, subcells: int = 32, bound: float | None = None) -> TvReport:
    """TV between the state's sampling density and the exact Gibbs density.

    Per-box quadrature for d <= 2, whose passes and evaluations go into the
    report's ``health``: at d = 2 a sum-over-axes E is scored from its two
    per-axis density factors (:func:`_separable_tv`, one pass, 2 n S values),
    any other E walks the midpoint grid (:func:`_tv_quadrature`).  For d >= 3
    a 10^6-point Monte Carlo estimate with a 99% confidence radius is
    reported instead, whose health counts one pass and the density values of
    its points and of the fine-lattice nodes of the Gibbs normalizer.
    """
    _check_subcells(subcells)
    lat = state.lattice
    if lat.d <= 2:
        if lat.d == 2 and E.separable:
            tv, health = _separable_tv(state, E, subcells)
        else:
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
        health={"tv_passes": 1, "tv_eval_points": MC_POINTS + fine_lattice(lat.d, lat.l).size},
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
    tv_report: TvReport | None  # None from the steps before the TV (the mean subcommand's run)
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
    within ``lattice.VALUE_CAP``, but never below N.

    ``health`` adds the mixing part of the error, ``mixing_l2``, to the
    operator's, the propagation's and the TV's numbers.
    """
    result = _sample_pipeline(E, N, M, T, eps, count, seed, M_cap, subcells)
    result.tv_report = tv_distance(result.upsampled, E, subcells=subcells, bound=eps)
    result.health.update(result.tv_report.health)
    return result


def _sample_pipeline(
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
    """:func:`run_pipeline`, with its parameters, up to its samples: no TV is
    measured, so ``tv_report`` is None and ``health`` holds no TV numbers.
    ``subcells`` still clamps auto-M and sizes the quadrature it checks."""
    _check_subcells(subcells)
    if not is_integer(M_cap):
        raise ValidationError(f"M_cap must be an integer, got {M_cap!r}")
    if M_cap < 1:
        raise ValidationError(f"M_cap must be at least 1, got {M_cap}")
    if not 0 < eps < 1:  # picks T and M, and bounds run_pipeline's TV either way
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    _check_count(count, E.d)
    _check_seed(seed)
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
            M = min(M, (_integer_root(_lattice.VALUE_CAP, E.d) // subcells - 1) // 2)
        M = max(M, N)
    else:
        resolved["M_mode"] = "fixed"
        if not is_integer(M):
            raise ValidationError(f"M must be an integer, got {M!r}")
        if M < N:
            raise ValidationError(f"M={M} must be at least N={N}")
    resolved["M"] = int(M)

    # the sizes of the upsampling target and of the TV measurement are known
    # now: check them against their caps before the work ahead
    make_lattice(E.d, int(M), E.l)
    if E.d <= 2:
        _lattice.check_values(((2 * int(M) + 1) * subcells) ** E.d, "quadrature")
    upsampled = upsample(state, int(M))
    return PipelineResult(
        batch=continuous_sample(upsampled, count, seed),
        tv_report=None,
        operator=op,
        state=state,
        upsampled=upsampled,
        resolved=resolved,
        health={**op.health, **evolution.health, "mixing_l2": mixing_l2},
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
# the interpolation chain of a 1-d analytic series


def _series_distance(state: GridField, u_hat, k_max: int) -> tuple:
    """d(F_N |u_N>, u_hat / U) for a 1-d analytic series truncated at k_max,
    and U, both taken from the series divided by its peak, so that U^2 need
    not fit in float64."""
    lat = state.lattice
    if lat.d != 1:
        raise ValidationError("series distance is implemented for d = 1")
    ks = np.arange(-k_max, k_max + 1)
    series = np.array([u_hat(int(k)) for k in ks], dtype=float)
    peak = float(np.abs(series).max())
    if not peak > 0:
        raise ValidationError(f"the series vanishes at every |k| <= {k_max}")
    series = series / peak
    U = math.sqrt(float(np.sum(series**2)))
    inside = np.abs(ks) <= lat.N
    inner = float(np.sum(np.abs(dft(state).flat - series[inside] / U) ** 2))
    return math.sqrt(inner + float(np.sum((series[~inside] / U) ** 2))), U * peak


def _interpolation_chain(u, u_hat, lat, k_max: int) -> tuple:
    """u on the N-lattice ``lat`` as a unit state, its distance from u_hat / U
    (:func:`_series_distance`, u_hat evaluated once per |k| <= k_max), U,
    and a function of M: the TV of the state upsampled to max(M, N) against
    u^2.  u is divided by its peak on the lattice before anything is
    squared, so that u^2 need not fit in float64."""
    values = discretize(u, lat).values
    peak = float(np.abs(values).max())
    if not peak > 0:
        raise ValidationError("u vanishes on every node of the lattice")
    values = values / peak
    state = GridField(lat, values / np.linalg.norm(values), is_real=True)
    distance, U = _series_distance(state, u_hat, k_max)

    def tv(M: int) -> float:
        return density_tv_quadrature(upsample(state, max(M, lat.N)), lambda pts: (np.asarray(u(pts)) / peak) ** 2)

    return state, distance, U, tv
