"""Evolution u(t) = e^{Lt} u(0), mixing-time selection, and decay
diagnostics.

``evolve`` calls ``Operator.propagate``, which picks its method by d.  For
d = 1 it applies the propagator mode by mode, from an eigendecomposition of
the dense L' computed on its first propagation and kept, so there is no
time-stepping error and every bound check isolates discretization error.
For d >= 2 it keeps the kernel component exactly and approximates the rest
in a Krylov space through ``Operator.apply``, to an a posteriori error bound of
``generator.KRYLOV_RTOL`` times ||U^{-1} u(0)|| in the symmetrized frame;
``EvolutionResult.health`` carries its step count and bound.  The decay and
norm reports are ``torusfp.report.Report`` dataclasses; the trace table is
written with ``csv_text``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .generator import Operator, build_generator
from .lattice import GridField, make_lattice
from .report import Report, csv_text

CHI2_FLOOR_REL = 1e-18


@dataclass
class EvolutionResult:
    """Snapshots of the evolving state with its conserved and decaying traces."""

    times: np.ndarray
    states: np.ndarray          # shape (snapshots, n), rows are u(t_i)
    norms: np.ndarray           # ||u(t_i)||
    inners: np.ndarray          # <1, u(t_i)>
    chi2: np.ndarray | None     # Var_{rho_s}[u(t_i)/rho_s] when requested
    max_principle: np.ndarray   # max_n e^{W[n]} u[n](t_i)
    health: dict = field(default_factory=dict)  # Krylov steps and error bound, if any

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def evolve(op: Operator, u0: GridField, T: float, snapshots: int = 2, chi2: bool = False) -> EvolutionResult:
    """Evolve u0 under the generator for time T, recording ``snapshots`` states."""
    if not (math.isfinite(T) and T >= 0):
        raise ValidationError(f"evolution time must be finite and >= 0, got {T}")
    if u0.lattice != op.lattice:
        raise ValidationError("initial state lives on a different lattice")
    if snapshots < 2:
        raise ValidationError(f"need at least 2 snapshots, got {snapshots}")

    if T == 0:
        times = np.array([0.0])
        states = np.asarray(u0.flat, dtype=float)[None, :].copy()
        health = {}
    else:
        times = np.linspace(0.0, float(T), snapshots)
        if np.any(np.diff(times) <= 0):
            raise ValidationError(f"T={T} is too short to split into {snapshots} distinct snapshot times")
        states, health = op.propagate(np.asarray(u0.flat, dtype=float), times)

    w = op.W.flat
    norms = np.linalg.norm(states, axis=1)
    inners = states.sum(axis=1)
    max_principle = (states * np.exp(w)[None, :]).max(axis=1)

    chi2_trace = None
    if chi2:
        pi = np.exp(-w)
        pi = pi / pi.sum()
        h = states * np.exp(w)[None, :]
        mean = (h * pi[None, :]).sum(axis=1)
        # centered form; the raw second moment cancels catastrophically near
        # stationarity
        chi2_trace = ((h - mean[:, None]) ** 2 * pi[None, :]).sum(axis=1)

    return EvolutionResult(
        times=times,
        states=states,
        norms=norms,
        inners=inners,
        chi2=chi2_trace,
        max_principle=max_principle,
        health=health,
    )


def choose_T(kappa: float, Delta: float, eps: float) -> float:
    """Mixing time kappa * log(2 e^{Delta/2} / eps)."""
    if kappa <= 0:
        raise ValidationError(f"kappa must be positive, got {kappa}")
    if not 0 < eps < 1:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    return kappa * math.log(2 * math.exp(Delta / 2) / eps)


# ---------------------------------------------------------------------------
# reports


@dataclass
class DecayReport(Report):
    fitted_rate: float | None
    gap: float
    poincare_floor: float
    stationary_input: bool
    tv_chain_bound: np.ndarray | None  # TV <= sqrt(chi2)/2 along the trajectory
    slack: float = 0.05

    @property
    def rate_vs_gap_ok(self) -> bool:
        if self.stationary_input:
            return True
        return self.fitted_rate >= 2 * self.gap * (1 - self.slack)

    @property
    def rate_vs_floor_ok(self) -> bool:
        if self.stationary_input:
            return True
        return self.fitted_rate >= 2 * self.poincare_floor * (1 - self.slack)


def decay_report(op: Operator, result: EvolutionResult) -> DecayReport:
    """Fit the exponential chi-square decay rate and compare with 2x the gap.

    The fitted rate is the least-squares slope of -log chi2(t) over snapshots
    above the numerical floor; stationary inputs are flagged instead of fitted.
    """
    if result.chi2 is None:
        raise ValidationError("decay report needs a chi-square trace; evolve with chi2=True")
    if len(result.times) < 4:
        raise ValidationError(f"need at least 4 snapshots, got {len(result.times)}")

    chi2 = result.chi2
    floor = 4 * math.pi**2 / (op.lattice.l**2 * math.exp(op.delta_W))
    peak = chi2.max()
    mean_h0 = result.inners[0] / op.stationary.sum()  # conserved mean of u/rho_s
    if peak <= 1e-20 * max(mean_h0**2, 1.0):
        return DecayReport(
            fitted_rate=None,
            gap=op.spectral_gap,
            poincare_floor=floor,
            stationary_input=True,
            tv_chain_bound=0.5 * np.sqrt(np.maximum(chi2, 0.0)),
        )

    keep = chi2 > peak * CHI2_FLOOR_REL
    if keep.sum() < 4:
        raise ValidationError("fewer than 4 usable snapshots above the chi-square floor")
    t = result.times[keep]
    # the fit scales by sqrt(sum t^2), which underflows to zero for tiny spans
    if not (t[-1] - t[0]) ** 2 >= np.finfo(float).tiny:
        raise ValidationError(f"snapshot times span {t[-1] - t[0]}, too short to fit a decay rate")
    y = np.log(chi2[keep])
    slope = np.polyfit(t, y, 1)[0]
    return DecayReport(
        fitted_rate=float(-slope),
        gap=op.spectral_gap,
        poincare_floor=floor,
        stationary_input=False,
        tv_chain_bound=0.5 * np.sqrt(np.maximum(chi2, 0.0)),
    )


@dataclass
class NormTraceReport(Report):
    max_norm_ratio: float
    min_norm_ratio: float
    norm_bound: float           # e^{Delta_W/2}
    inner_drift: float          # max relative drift of <1, u(t)>
    max_principle_warnings: list

    @property
    def max_norm_ok(self) -> bool:
        return self.max_norm_ratio <= self.norm_bound * (1 + 1e-9)

    @property
    def min_norm_ok(self) -> bool:
        return self.min_norm_ratio >= 1 - 1e-10

    @property
    def inner_ok(self) -> bool:
        return self.inner_drift <= 1e-9


def norm_and_max_principle_report(op: Operator, result: EvolutionResult) -> NormTraceReport:
    """Norm and mass traces for the all-ones initial state, plus the discrete
    max-principle diagnostic (monotonicity violations are warnings only: the
    continuous proof does not transfer to the spectral discretization)."""
    ones_norm = math.sqrt(op.size)
    if not np.allclose(result.states[0], 1.0, atol=1e-12):
        raise ValidationError("norm trace report expects the all-ones initial state")

    ratios = result.norms / ones_norm
    inner0 = result.inners[0]
    drift = float(np.abs(result.inners - inner0).max() / abs(inner0))

    warnings = []
    mp = result.max_principle
    tol = 1e-6 * max(1.0, float(np.abs(mp).max()))
    for i in range(1, len(mp)):
        if mp[i] > mp[i - 1] + tol:
            warnings.append(
                f"max principle rose between t={result.times[i-1]:.6g} and t={result.times[i]:.6g}: "
                f"{mp[i-1]:.12g} -> {mp[i]:.12g}"
            )

    return NormTraceReport(
        max_norm_ratio=float(ratios.max()),
        min_norm_ratio=float(ratios.min()),
        norm_bound=math.exp(op.delta_W / 2),
        inner_drift=drift,
        max_principle_warnings=warnings,
    )


# ---------------------------------------------------------------------------
# discrete-vs-continuous consistency on nested lattices


def nested_restriction_error(E, N: int, T: float, halve: bool = True, factor: int = 3) -> float:
    """|| u_N(T) - restrict(u_{N_ref}(T)) || with N_ref = (factor (2N+1) - 1)/2.

    The default factor 3 gives N_ref = 3N + 1, whose lattice contains the
    coarse one (fine index 3n + 1 per shifted axis).
    """
    if factor % 2 == 0:
        raise ValidationError("nesting factor must be odd so lattices share nodes")
    N_ref = (factor * (2 * N + 1) - 1) // 2
    coarse = make_lattice(E.d, N, E.l)
    fine = make_lattice(E.d, N_ref, E.l)

    op_c = build_generator(E, coarse, halve=halve)
    op_f = build_generator(E, fine, halve=halve)

    ones_c = GridField(coarse, np.ones(coarse.shape), is_real=True)
    ones_f = GridField(fine, np.ones(fine.shape), is_real=True)
    u_c = evolve(op_c, ones_c, T, snapshots=2).final.reshape(coarse.shape)
    u_f = evolve(op_f, ones_f, T, snapshots=2).final.reshape(fine.shape)

    offset = (factor - 1) // 2
    sel = tuple(slice(offset, None, factor) for _ in range(E.d))
    return float(np.linalg.norm((u_c - u_f[sel]).reshape(-1)))


def traces_to_csv(result: EvolutionResult) -> str:
    chi2 = [""] * len(result.times) if result.chi2 is None else [repr(float(c)) for c in result.chi2]
    rows = (
        [repr(float(t)), repr(float(nrm)), repr(float(inner)), c2, repr(float(mp))]
        for t, nrm, inner, c2, mp in zip(result.times, result.norms, result.inners, chi2, result.max_principle)
    )
    return csv_text(["t", "norm", "inner", "chi2", "max_principle"], rows)
