"""Semi-norms, (C, a) certificates, concentration bounds, composition rules,
and the aliasing lower-bound witness.

The m-th semi-norm of a periodic function is |u|_m = sqrt(sum_k ||k||^(2m)
|u_hat[k]|^2); a (C, a) certificate asserts |u|_m <= C a^m m! for all m.
The induced Fourier random variable has law |u_hat[k]|^2 / U^2 on Z^d, with
U = |u|_0 the mean-square value, and semi-analyticity is equivalent to a
Bernstein moment bound on its norm.  The MLP depth bound is cross-checked on
a lattice no larger than the potential's fine lattice, within RESOLUTION_CAP
in every d, and the witness's TV is summed over the d = 1 fine lattice.
Tail, MLP and witness results are ``torusfp.report.Report`` dataclasses; the
semi-norm profile is written with ``csv_text``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, ValidationError
from .lattice import SpectralField, dft, discretize, make_lattice
from .potential import _angle, fine_lattice, invcos_potential
from .report import Report, csv_text

_E3 = math.e**3


@dataclass(frozen=True)
class SemiAnalyticityParams:
    C: float
    a: float

    def __post_init__(self):
        if not (np.isfinite(self.C) and np.isfinite(self.a)) or self.C < 0 or self.a < 0:
            raise ValidationError(f"(C, a) must be finite and nonnegative, got ({self.C}, {self.a})")

    def bound(self, m: int) -> float:
        """C a^m m!, taken in logs (inf past float64)."""
        if m == 0 or self.C == 0 or self.a == 0:
            return self.C if m == 0 else 0.0
        with np.errstate(over="ignore"):
            return float(np.exp(math.log(self.C) + m * math.log(self.a) + math.lgamma(m + 1)))


@dataclass(frozen=True)
class BernsteinParams:
    A: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.A) and np.isfinite(self.b)) or self.A < 0 or self.b <= 0:
            raise ValidationError(f"(A, b) must be finite with A >= 0, b > 0, got ({self.A}, {self.b})")


@dataclass
class TruncatedSpectrum:
    """Euclidean frequency norms and squared coefficient weights |u_hat[k]|^2."""

    knorms: np.ndarray
    weights: np.ndarray
    boundary: np.ndarray  # mask marking the outermost truncation shell

    def __post_init__(self):
        self.knorms = np.asarray(self.knorms, dtype=float).reshape(-1)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        self.boundary = np.asarray(self.boundary, dtype=bool).reshape(-1)
        if self.knorms.size == 0:
            raise ValidationError("empty spectrum")

    @property
    def mean_square(self) -> float:
        return float(self.weights.sum())


def spectrum_of_field(spec: SpectralField) -> TruncatedSpectrum:
    """Spectrum view of a lattice field, in Fourier-series normalization."""
    lat = spec.lattice
    coeffs = spec.series_coefficients()
    grids = lat.index_grids()
    knorm = np.sqrt(sum(g.astype(float) ** 2 for g in grids))
    kinf = np.max(np.abs(np.stack(grids)), axis=0)
    return TruncatedSpectrum(
        knorms=knorm.reshape(-1),
        weights=np.abs(coeffs.reshape(-1)) ** 2,
        boundary=(kinf == lat.N).reshape(-1),
    )


def spectrum_of_series(u_hat, k_max: int) -> TruncatedSpectrum:
    """Spectrum of a 1-d analytic series, truncated at |k| <= k_max.  A weight
    |u_hat(k)|^2 past float64 ends in a ValidationError naming k; the weights
    are not rescaled, as ``semi_norms`` reads U = sqrt(sum w) off them."""
    ks = np.arange(-int(k_max), int(k_max) + 1)
    w = []
    with np.errstate(over="ignore"):
        for k in map(int, ks):
            try:
                w.append(abs(u_hat(k)) ** 2)
            except OverflowError:  # a Python float raises where numpy returns inf
                w.append(math.inf)
            if not math.isfinite(w[-1]):
                raise ValidationError(f"|u_hat(k)|^2 is not finite in float64 at k = {k}")
    return TruncatedSpectrum(knorms=np.abs(ks).astype(float), weights=np.array(w), boundary=np.abs(ks) == k_max)


@dataclass
class FourierMomentProfile:
    """Semi-norms |u|_m for m = 0..m_max; |u|_0 is the mean-square value U."""

    semi_norms: np.ndarray
    truncation_flags: np.ndarray = field(default=None)

    def __post_init__(self):
        self.semi_norms = np.asarray(self.semi_norms, dtype=float)
        if self.truncation_flags is None:
            self.truncation_flags = np.zeros(self.semi_norms.shape, dtype=bool)

    @property
    def m_max(self) -> int:
        return len(self.semi_norms) - 1

    def __getitem__(self, m: int) -> float:
        return float(self.semi_norms[m])


def semi_norms(spec, m_max: int) -> FourierMomentProfile:
    """Compute |u|_m for m = 0..m_max from a spectrum, spectral field, or series.

    Flags m whenever the outermost truncation shell carries more than 1e-12
    of |u|_m^2 (the profile is then truncation-limited at that order), and
    refuses semi-norms past float64 with a ValidationError.
    """
    if isinstance(spec, SpectralField):
        spec = spectrum_of_field(spec)
    if not isinstance(spec, TruncatedSpectrum):
        raise ValidationError(f"cannot profile object of type {type(spec).__name__}")
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    norms = np.empty(m_max + 1)
    flags = np.zeros(m_max + 1, dtype=bool)
    kpow = np.ones_like(spec.knorms)
    for m in range(m_max + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            total = float(np.sum(kpow * spec.weights))
            shell = float(np.sum(kpow[spec.boundary] * spec.weights[spec.boundary]))
            kpow = kpow * spec.knorms**2
        if not math.isfinite(total):  # N is the smallest ||k|| on the outermost shell
            N = spec.knorms[spec.boundary].min(initial=np.inf)
            raise ValidationError(f"semi-norms up to m_max = {m_max} leave float64 at N = {N:g}")
        norms[m] = math.sqrt(max(total, 0.0))
        flags[m] = total > 0 and shell > 1e-12 * total
    return FourierMomentProfile(norms, truncation_flags=flags)


def fit_params(profile: FourierMomentProfile) -> SemiAnalyticityParams:
    """Deterministic max-envelope fit of (C, a) certifying |u|_m <= C a^m m!.

    a is the smallest growth rate anchored at C0 = |u|_0; C is then the max
    ratio, which makes the certificate tight at some m.  Both are taken in
    logs.  Where a bound C a^m m! would leave float64, a ValidationError
    names m_max and a.
    """
    m_max, u0 = profile.m_max, profile[0]
    if m_max < 3:
        raise ValidationError(f"profile needs m_max >= 3, got {m_max}")
    if u0 <= 0:
        raise ValidationError("profile has |u|_0 = 0")
    if np.all(profile.semi_norms[1:] == 0):
        return SemiAnalyticityParams(C=u0, a=0.0)
    log_a = max((math.log(profile[m]) - math.log(u0) - math.lgamma(m + 1)) / m for m in range(1, m_max + 1) if profile[m] > 0)
    a = math.exp(log_a)
    log_C = max(math.log(profile[m]) - m * log_a - math.lgamma(m + 1) for m in range(m_max + 1) if profile[m] > 0)
    # log(C a^m m!) is convex in m: its largest value is at m = 0 or m = m_max
    if log_C + max(m_max * log_a + math.lgamma(m_max + 1), 0.0) >= math.log(np.finfo(float).max):
        raise ValidationError(f"the bounds C a^m m! up to m_max = {m_max} leave float64 at a = {a:.6g}")
    return SemiAnalyticityParams(C=math.exp(log_C), a=a)


# ---------------------------------------------------------------------------
# tails and concentration


def tail_mass(spec, t: float) -> float:
    """sum of |u_hat[k]|^2 over ||k|| >= t."""
    if isinstance(spec, SpectralField):
        spec = spectrum_of_field(spec)
    return float(np.sum(spec.weights[spec.knorms >= t]))


@dataclass
class TailBounds(Report):
    t: float
    mass_bound: float
    amplitude_bound: float | None  # valid when t is an integer >= 2a


def tail_bounds(params: SemiAnalyticityParams, U: float, t: float) -> TailBounds:
    """Sub-exponential envelopes for the spectral tail of a (C, a) function.

    The mass bound is the two-branch concentration inequality (Gaussian branch
    up to t = 3a, exponential beyond); the amplitude bound
    2 e^3 C exp(-t (1 - 1/2e) / a) applies at integer t >= 2a.
    """
    if t < 0:
        raise ValidationError(f"tail threshold must be >= 0, got {t}")
    C, a = params.C, params.a
    top = max(C, U)
    if a == 0:
        mass = top if t == 0 else 0.0
        return TailBounds(t=t, mass_bound=mass, amplitude_bound=0.0 if t > 0 else None)
    amp = None
    if t >= 2 * a:
        amp = 2 * _E3 * C * math.exp(-(t / a) * (1 - 1 / (2 * math.e)))
    return TailBounds(t=t, mass_bound=_two_branch_tail(top, a, t), amplitude_bound=amp)


def _two_branch_tail(top: float, s: float, t: float) -> float:
    """The two-branch concentration inequality of scale s > 0 at t:
    top exp(-(t - s)^2 / 8 s^2) up to t = 3s, e top exp(-t / 2s) beyond."""
    if t <= 3 * s:
        return top * math.exp(-((t - s) ** 2) / (8 * s**2))
    return math.e * top * math.exp(-t / (2 * s))


def bernstein_from_semianalytic(params: SemiAnalyticityParams, U: float) -> BernsteinParams:
    """The norm of the Fourier random variable of a (C, a) function is
    Bernstein with parameters (C/U, a)."""
    if U <= 0:
        raise ValidationError(f"mean-square value must be positive, got {U}")
    return BernsteinParams(A=params.C / U, b=params.a)


def semianalytic_from_bernstein(bp: BernsteinParams) -> SemiAnalyticityParams:
    """A Bernstein (A, b) norm profile certifies (sqrt(2Ae), 4b) semi-analyticity."""
    return SemiAnalyticityParams(C=math.sqrt(2 * bp.A * math.e), a=4 * bp.b)


# ---------------------------------------------------------------------------
# composition calculus


def compose_params(op: str, *inputs):
    """Track analyticity-class parameters through add/mul/compose/exp/sigmoid.

    add, mul, compose take two parameter pairs (compose: inner then outer);
    exp and sigmoid take one pair plus the range bound Delta of the inner
    function.
    """
    def as_pair(p):
        if isinstance(p, SemiAnalyticityParams):
            return p
        C, a = p
        return SemiAnalyticityParams(float(C), float(a))

    if op == "add":
        p1, p2 = (as_pair(p) for p in inputs)
        return SemiAnalyticityParams(p1.C + p2.C, max(p1.a, p2.a))
    if op == "mul":
        p1, p2 = (as_pair(p) for p in inputs)
        return SemiAnalyticityParams(p1.C * p2.C, p1.a + p2.a)
    if op == "compose":
        inner, outer = (as_pair(p) for p in inputs)
        growth = 1 + inner.C * outer.a
        return SemiAnalyticityParams(inner.C * outer.a * outer.C / growth, inner.a * growth)
    if op == "exp":
        p, delta = as_pair(inputs[0]), float(inputs[1])
        if delta < 0:
            raise ValidationError(f"range bound must be >= 0, got {delta}")
        return SemiAnalyticityParams(p.C * math.exp(delta) / (1 + p.C), (1 + p.C) * p.a)
    if op == "sigmoid":
        p, delta = as_pair(inputs[0]), float(inputs[1])
        if delta < 0:
            raise ValidationError(f"range bound must be >= 0, got {delta}")
        return SemiAnalyticityParams(1.0, p.a * (1 + p.C * (1 + math.exp(delta))))
    raise ValidationError(f"unknown composition op {op!r}")


@dataclass
class MlpAnalyticityReport(Report):
    bound: float
    fitted: SemiAnalyticityParams | None

    @property
    def ok(self) -> bool:
        return self.fitted is None or self.fitted.a <= self.bound


def mlp_analyticity_bound(mlp, N: int | None = None) -> MlpAnalyticityReport:
    """Depth-and-weights bound 2^D exp(sum_k 2||W_k||_inf + ||b_k||_inf) on the
    inverse convergence radius of a sigmoid MLP, cross-checked against the
    envelope fitted to the first 10 semi-norms of the discretized network
    output.  The default N is 128 at d = 1 and otherwise 24, or the half-width
    of the potential's fine lattice (``potential.fine_lattice``) where that is
    smaller: 10 at d = 4, 5 at d = 5.  Below N = 4 (d >= 6) no envelope is
    fitted."""
    total = 0.0
    for W, b in zip(mlp.weights, mlp.biases):
        total += 2 * float(np.abs(W).sum(axis=1).max()) + float(np.abs(b).max())
    bound = 2**mlp.depth * math.exp(total)

    fitted = None
    if N is None:
        N = 128 if mlp.d == 1 else min(24, fine_lattice(mlp.d, mlp.l).N)
    if N >= 4:
        lat = make_lattice(mlp.d, N, mlp.l)
        fld = discretize(mlp.forward, lat)
        fitted = fit_params(semi_norms(dft(fld), 10))
    return MlpAnalyticityReport(bound=float(bound), fitted=fitted)


# ---------------------------------------------------------------------------
# aliasing lower-bound witness


@dataclass
class WitnessReport(Report):
    C: float
    a: float
    z: float
    N: int
    theta: float
    discretization_mismatch: float
    tv: float
    tv_floor: float
    quadrature_points: int

    @property
    def separated(self) -> bool:
        return self.tv >= self.tv_floor


def alias_witness(C: float, a: float, N: int, theta: float, l: float = 1.0):
    """Two functions indistinguishable on the N-lattice with well-separated
    sampling distributions.

    f is C / sqrt(e) times the density u of ``invcos_potential`` at
    z = 1 + 8/a; g wraps f's Fourier coefficients into [-N..N] and rescales
    to mean square C^2.
    Requires N <= theta a / 16.  The TV between the densities f^2 and g^2 is
    summed over the nodes of the d = 1 fine lattice
    (``potential.fine_lattice``), 32767 of them.
    """
    if not 0 < theta < 1:
        raise ValidationError(f"theta must lie in (0, 1), got {theta}")
    if not (C > 0 and a > 0):
        raise ValidationError(f"need C > 0 and a > 0, got C={C}, a={a}")
    if N > theta * a / 16:
        raise PreconditionError(f"need N <= theta*a/16 = {theta * a / 16}, got N={N}")

    z = 1 + 8 / a
    if z == 1:  # f would vanish and its coefficients z^(-|k|/2) never decay
        raise ValidationError(f"a={a} is too large: z = 1 + 8/a rounds to 1")
    amp = C / math.sqrt(math.e)
    u = invcos_potential(z, l).meta["u"]

    def f(x):
        return amp * u(x)

    # f_hat[k] = amp r^|k|, r = z^(-1/2) of f (z - 1 is exact), wraps into [-N..N] as
    # sum_p r^|k + p n| = r^|k| + (r^(n + k) + r^(n - k)) / (1 - r^n), 1 - r^n = -expm1(n log r)
    log_r = -0.5 * math.log1p(z - 1)
    n_pts = 2 * N + 1
    ks = np.arange(-N, N + 1)
    aliases = (np.exp((n_pts + ks) * log_r) + np.exp((n_pts - ks) * log_r)) / -math.expm1(n_pts * log_r)
    wrapped = amp * (np.exp(np.abs(ks) * log_r) + aliases)
    alpha = C / math.sqrt(np.sum(wrapped**2))
    g_hat = alpha * wrapped

    def g(x):
        theta_x = _angle(x, l)
        out = np.full(theta_x.shape, g_hat[N])
        for k in range(1, N + 1):
            out = out + 2 * g_hat[N + k] * np.cos(k * theta_x)
        return out

    lat = make_lattice(1, N, l)
    fv = f(lat.points())
    gv = g(lat.points())
    mismatch = float(np.linalg.norm(fv / np.linalg.norm(fv) - gv / np.linalg.norm(gv)))

    xs = fine_lattice(1, l).axis_points()
    f2 = f(xs) ** 2
    g2 = g(xs) ** 2
    tv = 0.5 * float(np.sum(np.abs(f2 / f2.sum() - g2 / g2.sum())))

    report = WitnessReport(
        C=C,
        a=a,
        z=z,
        N=N,
        theta=theta,
        discretization_mismatch=mismatch,
        tv=tv,
        tv_floor=(1 - theta) ** 2 / (512 * math.e),
        quadrature_points=len(xs),
    )
    return f, g, report


# ---------------------------------------------------------------------------
# serialization


def profile_to_csv(profile: FourierMomentProfile, params: SemiAnalyticityParams) -> str:
    rows = ([m, repr(profile[m]), repr(params.bound(m))] for m in range(profile.m_max + 1))
    return csv_text(["m", "semi_norm", "bound"], rows)
