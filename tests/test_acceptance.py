"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured quantities and asserting its stated tolerance and runtime
budget."""

import math
import time

import numpy as np
import pytest

import torusfp as tf
from torusfp.sampler import density_tv_quadrature, normalized_series_distance
from torusfp.semianalytic import bernstein_tail_probability_bound, spectrum_of_series
from torusfp.spectral import sup_norm_bound

from conftest import random_band_field, small_mlp


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _builtin_potentials(d):
    pots = [
        tf.zero_potential(d, 1.0),
        tf.cosine_potential(1.0, d, 1.0),
        tf.cosine_potential(2.0, d, 1.0),
        tf.mlp_potential(small_mlp(d=d, seed=42 + d)),
    ]
    if d == 1:
        pots.append(tf.invcos_potential(4.0, 1.0))
    return pots


@pytest.fixture(scope="module")
def built_operators():
    """Generators for every built-in at d=1 N=16 and d=2 N=8, built once."""
    ops = []
    for d, N in [(1, 16), (2, 8)]:
        lat = tf.make_lattice(d, N, 1.0)
        for E in _builtin_potentials(d):
            ops.append(tf.build_generator(E, lat, halve=True))
    return ops


def test_criterion_01_spectral_algebra_suite():
    started = time.time()
    rng = np.random.default_rng(20_240_101)
    worst = {"product": 0.0, "antisym": 0.0, "colsum": 0.0, "compose": 0.0, "sup": 0.0}
    for d in (1, 2):
        for N in (4, 8, 16, 32):
            # d=2, N=32 has 4225 nodes: past DENSE_CAP, which bounds only
            # the generator, so these FFT-only checks need no exception
            lat = tf.make_lattice(d, N, 1.0)
            for _ in range(100):
                u = random_band_field(lat, N // 2, rng)
                v = random_band_field(lat, N - N // 2, rng)
                ax = int(rng.integers(d))
                du = tf.fourier_derivative(u, ax)
                dv = tf.fourier_derivative(v, ax)

                uv = tf.GridField(lat, u.values * v.values, is_real=True)
                lhs = tf.fourier_derivative(uv, ax).values
                rhs = du.values * v.values + u.values * dv.values
                worst["product"] = max(
                    worst["product"],
                    np.linalg.norm((lhs - rhs).ravel()) / max(np.linalg.norm(rhs.ravel()), 1e-300),
                )
                worst["antisym"] = max(
                    worst["antisym"],
                    abs(np.vdot(u.flat, dv.flat).real + np.vdot(du.flat, v.flat).real) / (u.norm() * v.norm()),
                )
                worst["colsum"] = max(worst["colsum"], abs(du.flat.sum()) / u.norm())
                d2a = tf.fourier_derivative(du, ax).values
                d2b = tf.fourier_derivative(u, ax, order=2).values
                worst["compose"] = max(
                    worst["compose"],
                    np.linalg.norm((d2a - d2b).ravel()) / max(np.linalg.norm(d2b.ravel()), 1e-300),
                )
                worst["sup"] = max(
                    worst["sup"],
                    np.abs(du.values).max() / (np.abs(u.values).max() * sup_norm_bound(N, 1.0)),
                )
    elapsed = time.time() - started
    ok = (
        worst["product"] <= 1e-9
        and worst["antisym"] <= 1e-10
        and worst["colsum"] <= 1e-10
        and worst["compose"] <= 1e-9
        and worst["sup"] <= 1.0
        and elapsed < 30
    )
    _report(
        1,
        "spectral algebra",
        ok,
        f"product={worst['product']:.2e} antisym={worst['antisym']:.2e} colsum={worst['colsum']:.2e} "
        f"compose={worst['compose']:.2e} sup_ratio={worst['sup']:.3f} elapsed={elapsed:.1f}s",
    )


def test_criterion_02_bessel_coefficients():
    started = time.time()
    worst = 0.0
    for z in (1, 2, 4):
        N = 4 * z
        n = 2 * N + 1
        lat = tf.make_lattice(1, N, 2 * np.pi)
        fld = tf.discretize(lambda p, z=z: np.exp(z * np.cos(p[..., 0])), lat)
        est = tf.dft(fld).series_coefficients()
        wrapped = np.zeros(n)
        for p in range(-8, 9):
            wrapped += np.array([tf.bessel_i(int(k) + p * n, float(z)) for k in lat.axis_indices()])
        worst = max(worst, float(np.abs(est - wrapped).max()))
    elapsed = time.time() - started
    ok = worst <= 1e-8 and elapsed < 5
    _report(2, "Bessel coefficients", ok, f"max_err={worst:.2e} elapsed={elapsed:.1f}s")


def test_criterion_03_sampling_error_vs_smoothness():
    started = time.time()
    worst_tv, worst_margin = 0.0, -np.inf
    for z in range(1, 9):
        u, _, _, C, a, u_hat = tf.expcos_family(float(z), l=1.0)
        n_min = math.ceil(max(1.0, z / 2)) + 2
        for N in (n_min, n_min + 2, n_min + 5):
            lat = tf.make_lattice(1, N, 1.0)
            fld = tf.discretize(u, lat)
            state = tf.GridField(lat, fld.values / fld.norm(), is_real=True)
            tv = density_tv_quadrature(tf.upsample(state, 200), lambda p: np.asarray(u(p)) ** 2)
            worst_tv = max(worst_tv, tv)

        dists, Ns = [], []
        for N in range(n_min, n_min + 30):
            latN = tf.make_lattice(1, N, 1.0)
            fN = tf.discretize(u, latN)
            stateN = tf.GridField(latN, fN.values / fN.norm(), is_real=True)
            dist = normalized_series_distance(stateN, u_hat, k_max=80)
            if dist < 1e-13:
                break
            dists.append(math.log(dist))
            Ns.append(N)
        slope = np.polyfit(Ns, dists, 1)[0]
        worst_margin = max(worst_margin, slope - (-0.6 / a + 0.05))
    elapsed = time.time() - started
    ok = worst_tv < 0.1 and worst_margin <= 0 and elapsed < 120
    _report(
        3,
        "sampling error vs smoothness",
        ok,
        f"worst_tv={worst_tv:.4f} worst_slope_margin={worst_margin:.3f} elapsed={elapsed:.1f}s",
    )


def test_criterion_04_coarse_to_fine_interpolation():
    started = time.time()
    u, _, _, _, _, _ = tf.expcos_family(1.0, l=1.0)
    lat3 = tf.make_lattice(1, 3, 1.0)
    fld = tf.discretize(u, lat3)
    state = tf.GridField(lat3, fld.values / fld.norm(), is_real=True)
    up = tf.upsample(state, 10)

    lat10 = tf.make_lattice(1, 10, 1.0)
    direct = tf.discretize(u, lat10)
    phi = direct.flat / np.linalg.norm(direct.flat)

    amp = np.real(up.flat) - phi
    rms = float(np.linalg.norm(amp) / math.sqrt(lat10.size))
    prob = float(np.abs(np.real(up.flat) ** 2 - phi**2).max())
    elapsed = time.time() - started
    ok = rms <= 1e-3 and prob <= 1e-3 and elapsed < 1
    _report(
        4,
        "coarse-to-fine interpolation",
        ok,
        f"per-node rms(amplitude)={rms:.2e} max|probability diff|={prob:.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_05_generator_structure(built_operators):
    started = time.time()
    details = []
    all_ok = True
    for op in built_operators:
        Lp = op.symmetrized
        sym = np.linalg.norm(Lp - Lp.T)
        sym_ok = sym <= 1e-8 * max(np.linalg.norm(Lp), 1e-300)
        ev = op.eigenvalues
        spectrum_ok = ev[0] <= 1e-8 and np.sum(ev == 0.0) == 1
        ref = op.stationary / np.linalg.norm(op.stationary)
        # the kernel as eigh finds it in L', not as the operator pins it
        kernel_grid = op.u_diag * np.linalg.eigh(-Lp)[1][:, 0]
        kernel_grid /= np.linalg.norm(kernel_grid)
        cos_ok = abs(kernel_grid @ ref) >= 1 - 1e-8
        cn = tf.condition_number_check(op)
        on = tf.operator_norm_check(op)
        ok = sym_ok and spectrum_ok and cos_ok and cn.ok and on.ok
        all_ok &= ok
        details.append(f"{op.potential.name}/d{op.lattice.d}:{'ok' if ok else 'FAIL'}")
    elapsed = time.time() - started
    ok = all_ok and elapsed < 60
    _report(5, "generator structure", ok, " ".join(details) + f" elapsed={elapsed:.1f}s")


def test_criterion_06_poincare_and_decay(built_operators):
    started = time.time()
    all_ok = True
    details = []
    for op in built_operators:
        pr = tf.poincare_report(op)
        ones = tf.constant_field(op.lattice)
        res = tf.evolve(op, ones, T=3.0 / op.spectral_gap, snapshots=16)
        dr = tf.decay_report(op, res)
        ok = pr.ok and dr.rate_vs_gap_ok
        all_ok &= ok
        rate = "stationary" if dr.stationary_input else f"{dr.fitted_rate:.1f}"
        details.append(f"{op.potential.name}/d{op.lattice.d}: gap={pr.gap:.2f}>={0.95*pr.floor:.2f} rate={rate}")
    elapsed = time.time() - started
    ok = all_ok and elapsed < 60
    _report(6, "Poincare/decay", ok, "; ".join(details) + f" elapsed={elapsed:.1f}s")


def test_criterion_07_norm_traces(built_operators):
    started = time.time()
    all_ok = True
    worst_ratio = 0.0
    for op in built_operators:
        ones = tf.constant_field(op.lattice)
        res = tf.evolve(op, ones, T=2.0 / op.spectral_gap, snapshots=20)
        rep = tf.norm_and_max_principle_report(op, res)
        all_ok &= rep.max_norm_ok and rep.min_norm_ok and rep.inner_ok
        worst_ratio = max(worst_ratio, rep.max_norm_ratio / rep.norm_bound)
    elapsed = time.time() - started
    ok = all_ok and elapsed < 30
    _report(
        7,
        "norm traces",
        ok,
        f"max ||u(t)||/bound over built-ins = {worst_ratio:.4f} (<= 1), 20 snapshots each, elapsed={elapsed:.1f}s",
    )


def test_criterion_08_end_to_end_gibbs():
    started = time.time()
    res1 = tf.run_pipeline(tf.cosine_potential(2.0, 1, 1.0), N=16, eps=0.05, count=20_000, seed=7, M_cap=512)
    tv1 = res1.tv_report.tv
    res2 = tf.run_pipeline(tf.cosine_potential(1.0, 2, 1.0), N=12, M=64, eps=0.05, count=20_000, seed=7)
    tv2 = res2.tv_report.tv
    elapsed = time.time() - started
    ok = tv1 <= 0.05 and tv2 <= 0.08 and elapsed < 180
    _report(
        8,
        "end-to-end Gibbs",
        ok,
        f"d=1 tv={tv1:.4f} (<=0.05, auto T={res1.resolved['T']:.3f}, M={res1.resolved['M']}); "
        f"d=2 tv={tv2:.4f} (<=0.08) elapsed={elapsed:.1f}s",
    )


def test_criterion_09_lower_bound_witness():
    started = time.time()
    _, _, rep = tf.alias_witness(C=1.0, a=320.0, N=10, theta=0.5, l=1.0)
    floor = 0.25 / (512 * math.e)
    elapsed = time.time() - started
    ok = rep.discretization_mismatch <= 1e-12 and rep.tv >= floor and elapsed < 10
    _report(
        9,
        "lower-bound witness",
        ok,
        f"state mismatch={rep.discretization_mismatch:.2e} tv={rep.tv:.4f} >= floor={floor:.4e} elapsed={elapsed:.1f}s",
    )


def test_criterion_10_concentration_suite():
    started = time.time()
    # spectral tails against the two-branch bound
    _, _, _, C, a, u_hat = tf.expcos_family(2.0, l=2 * np.pi)
    spec = spectrum_of_series(u_hat, 60)
    U = math.sqrt(spec.mean_square)
    params = tf.SemiAnalyticityParams(C, a)
    tails_ok = all(
        tf.tail_mass(spec, t) <= tf.tail_bounds(params, U, t).mass_bound for t in range(2, 21)
    )

    inv = tf.invcos_potential(4.0, 1.0)
    spec_i = spectrum_of_series(inv.meta["u_hat"], 60)
    U_i = math.sqrt(spec_i.mean_square)
    params_i = tf.SemiAnalyticityParams(U_i * math.sqrt(2 * math.e / 1.25), 8.0)
    tails_ok &= all(
        tf.tail_mass(spec_i, t) <= tf.tail_bounds(params_i, U_i, t).mass_bound for t in range(2, 21)
    )

    # branch continuity at t = 3b
    rng = np.random.default_rng(10)
    cont_worst = 0.0
    for _ in range(20):
        bp = tf.BernsteinParams(float(rng.uniform(0.2, 5)), float(rng.uniform(0.1, 4)))
        lo = bernstein_tail_probability_bound(bp, 3 * bp.b)
        hi = math.e * max(bp.A, 1.0) * math.exp(-1.5)
        cont_worst = max(cont_worst, abs(lo - hi) / lo)

    # forward/reverse Bernstein maps match their formulas
    maps_ok = True
    for _ in range(50):
        C_r, a_r, U_r = rng.uniform(0.1, 5, 3)
        fwd = tf.bernstein_from_semianalytic(tf.SemiAnalyticityParams(C_r, a_r), U_r)
        maps_ok &= fwd.A == C_r / U_r and fwd.b == a_r
        A_r, b_r = rng.uniform(0.1, 5, 2)
        rev = tf.semianalytic_from_bernstein(tf.BernsteinParams(A_r, b_r))
        maps_ok &= rev.C == math.sqrt(2 * A_r * math.e) and rev.a == 4 * b_r

    elapsed = time.time() - started
    ok = tails_ok and cont_worst <= 1e-12 and maps_ok and elapsed < 10
    _report(
        10,
        "concentration suite",
        ok,
        f"tails_ok={tails_ok} continuity={cont_worst:.1e} maps_ok={maps_ok} elapsed={elapsed:.1f}s",
    )


def test_criterion_11_composition_calculus():
    started = time.time()
    add = tf.compose_params("add", (1, 2), (3, 1))
    mul = tf.compose_params("mul", (1, 1), (1, 1))
    comp = tf.compose_params("compose", (2, 1), (3, 0.5))
    expd = tf.compose_params("exp", (1, 1), 0.0)
    sig = tf.compose_params("sigmoid", (1, 1), 0.0)
    formulas_ok = (
        (add.C, add.a) == (4.0, 2.0)
        and (mul.C, mul.a) == (1.0, 2.0)
        and comp.C == pytest.approx(2 * 0.5 * 3 / (1 + 2 * 0.5))
        and comp.a == pytest.approx(1 * (1 + 2 * 0.5))
        and (expd.C, expd.a) == (0.5, 2.0)
        and (sig.C, sig.a) == (1.0, 3.0)
    )

    fits_ok = True
    worst = 0.0
    for seed in range(10):
        rep = tf.mlp_analyticity_bound(small_mlp(d=1, seed=100 + seed), N=96)
        fits_ok &= rep.ok
        worst = max(worst, rep.fitted.a / rep.bound)
    elapsed = time.time() - started
    ok = formulas_ok and fits_ok and elapsed < 60
    _report(
        11,
        "composition calculus",
        ok,
        f"formulas_ok={formulas_ok} worst fitted-a/bound={worst:.4f} over 10 nets elapsed={elapsed:.1f}s",
    )


def test_criterion_12_mean_estimation():
    started = time.time()
    E = tf.cosine_potential(2.0, 1, 1.0)
    result = tf.run_pipeline(E, N=16, eps=0.01, count=100_000, seed=11, M_cap=512)
    est = tf.estimate_mean(lambda p: np.cos(2 * np.pi * p[..., 0]), result.batch)
    exact = tf.bessel_i(1, 2.0) / tf.bessel_i(0, 2.0)
    devs = abs(est.mean - exact) / est.stderr
    elapsed = time.time() - started
    ok = devs <= 4.0 and abs(exact - 0.69777) < 1e-5 and elapsed < 60
    _report(
        12,
        "mean estimation",
        ok,
        f"mean={est.mean:.5f} exact={exact:.5f} |dev|={devs:.2f} stderr ({est.count} samples) elapsed={elapsed:.1f}s",
    )
