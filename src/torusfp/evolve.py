"""Evolution u(t) = e^{Lt} u(0), mixing-time selection, and decay
diagnostics.

``evolve`` calls the one ``Operator.propagate``: the kernel component of
U^{-1} u(0) kept exactly, the rest in the modes of the route chosen once by
``build_generator`` (the reflection-sector modes at d = 1, the per-axis
factors of a W that is a sum over axes, otherwise a Krylov space with an a
posteriori error bound, whose steps and bound land in
``EvolutionResult.health``), and the snapshot times a block at a time.  Its
tests hold it to scipy's expm(t L') within (1e-10 + 16 eps ||L'|| t)
||U^{-1} u(0)||, so every bound check isolates discretization error.  Every
evolution records four traces (the norm, the mass <1, u>, the max principle
and chi-square) in one pass over its states, BLOCK_VALUES at a time, so that
beyond the states it holds only a block's temporaries and snapshot-length
arrays; the states, snapshots x nodes, are checked by
``lattice.check_values`` first.  The decay and norm reports are
``torusfp.report.Report`` dataclasses; the trace table is written by
``report.float_csv``.  The discretization check on nested lattices, N
against 3N + 1, is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, ValidationError
from .generator import BLOCK_VALUES, Operator, _too_steep, poincare_report
from .lattice import GridField, check_values, is_integer
from .report import Report, float_csv

CHI2_FLOOR_REL = 1e-18


@dataclass
class EvolutionResult:
    """Snapshots of the evolving state with its conserved and decaying traces."""

    states: np.ndarray  # shape (snapshots, n), rows are u(t_i)
    #: one row per column of traces.csv, each also an attribute of its own:
    #: ``times`` t_i, ``norms`` ||u(t_i)||, ``inners`` <1, u(t_i)>, ``chi2``
    #: Var_{rho_s}[u(t_i)/rho_s] and ``max_principle`` max_n e^{W[n]} u[n](t_i)
    traces: np.ndarray
    health: dict = field(default_factory=dict)  # Krylov steps and error bound, if any

    def __post_init__(self):
        self.times, self.norms, self.inners, self.chi2, self.max_principle = self.traces

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def csv_chunks(self):
        """The traces as CSV text in pieces, written by ``report.float_csv``."""
        return float_csv(["t", "norm", "inner", "chi2", "max_principle"], self.traces)


def evolve(op: Operator, u0: GridField, T: float, snapshots: int = 2) -> EvolutionResult:
    """Evolve u0 under the generator for time T, recording ``snapshots``
    states and their four traces."""
    if not (math.isfinite(T) and T >= 0):
        raise ValidationError(f"evolution time must be finite and >= 0, got {T}")
    if u0.lattice != op.lattice:
        raise ValidationError("initial state lives on a different lattice")
    if not is_integer(snapshots):
        raise ValidationError(f"snapshots must be an integer, got {snapshots!r}")
    if snapshots < 2:
        raise ValidationError(f"need at least 2 snapshots, got {snapshots}")
    check_values(snapshots * op.size, f"an evolution of {snapshots} snapshots of {op.size} nodes")

    w = op.W.flat
    try:  # checked before any propagation
        with np.errstate(over="raise"):
            e_w, pi = np.exp(w), np.exp(-w)
    except FloatingPointError:
        bounds = f"[{w.min():.6g}, {w.max():.6g}]"
        raise PreconditionError(f"chi-square weights e^(+-W) overflow float64 for W in {bounds}") from None

    traces = np.empty((5, 1 if T == 0 else snapshots))
    times, norms, inners, chi2, max_principle = traces
    if T == 0:
        times[0] = 0.0
        states, health = np.asarray(u0.flat, dtype=float)[None, :].copy(), {}
    else:
        times[:] = np.linspace(0.0, float(T), snapshots)
        if np.any(np.diff(times) <= 0):
            raise ValidationError(f"T={T} is too short to split into {snapshots} distinct snapshot times")
        states, health = op.propagate(np.asarray(u0.flat, dtype=float), times)

    rows = max(1, BLOCK_VALUES // op.size)
    try:  # u e^{W} and its square overflow on steep potentials the generator accepts
        with np.errstate(over="raise"):
            pi = pi / pi.sum()
            for start in range(0, len(times), rows):
                block = slice(start, start + rows)
                u = states[block]
                norms[block] = np.linalg.norm(u, axis=1)
                inners[block] = u.sum(axis=1)
                h = u * e_w
                max_principle[block] = h.max(axis=1)
                work = h * pi  # reused for (h - mean)^2 pi
                mean = work.sum(axis=1)
                # centered: the raw second moment cancels catastrophically near stationarity
                np.square(np.subtract(h, mean[:, None], out=work), out=work)
                chi2[block] = np.multiply(work, pi, out=work).sum(axis=1)
    except FloatingPointError:
        raise _too_steep(op) from None

    return EvolutionResult(states=states, traces=traces, health=health)


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
    # TV <= sqrt(chi2)/2 along the trajectory: traces.csv's chi-square column
    # holds it already, so evolution.json leaves it out
    tv_chain_bound: np.ndarray = field(metadata={"artifact": False})
    slack: float = 0.05

    @property
    def rate_vs_gap_ok(self) -> bool:
        return self.stationary_input or self.fitted_rate >= 2 * self.gap * (1 - self.slack)

    @property
    def rate_vs_floor_ok(self) -> bool:
        return self.stationary_input or self.fitted_rate >= 2 * self.poincare_floor * (1 - self.slack)


def decay_report(op: Operator, result: EvolutionResult) -> DecayReport:
    """Fit the exponential chi-square decay rate and compare with 2x the gap.

    The fitted rate is the least-squares slope of -log chi2(t) over snapshots
    above the numerical floor; stationary inputs are flagged instead of fitted.
    """
    if len(result.times) < 4:
        raise ValidationError(f"need at least 4 snapshots, got {len(result.times)}")

    chi2 = result.chi2
    peak = chi2.max()
    mean_h0 = result.inners[0] / op.stationary.sum()  # conserved mean of u/rho_s
    stationary = bool(peak <= 1e-20 * max(mean_h0**2, 1.0))
    fitted_rate = None
    if not stationary:
        keep = chi2 > peak * CHI2_FLOOR_REL
        if keep.sum() < 4:
            raise ValidationError("fewer than 4 usable snapshots above the chi-square floor")
        t = result.times[keep]
        # the fit scales by sqrt(sum t^2), which underflows to zero for tiny spans
        if not (t[-1] - t[0]) ** 2 >= np.finfo(float).tiny:
            raise ValidationError(f"snapshot times span {t[-1] - t[0]}, too short to fit a decay rate")
        fitted_rate = float(-np.polyfit(t, np.log(chi2[keep]), 1)[0])
    return DecayReport(
        fitted_rate=fitted_rate,
        gap=op.spectral_gap,
        poincare_floor=poincare_report(op).floor,
        stationary_input=stationary,
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

    mp, t = result.max_principle, result.times
    tol = 1e-6 * max(1.0, float(np.abs(mp).max()))
    warnings = [
        f"max principle rose between t={t[i-1]:.6g} and t={t[i]:.6g}: {mp[i-1]:.12g} -> {mp[i]:.12g}"
        for i in 1 + np.flatnonzero(mp[1:] > mp[:-1] + tol)
    ]

    return NormTraceReport(
        max_norm_ratio=float(ratios.max()),
        min_norm_ratio=float(ratios.min()),
        norm_bound=math.exp(op.delta_W / 2),
        inner_drift=drift,
        max_principle_warnings=warnings,
    )

