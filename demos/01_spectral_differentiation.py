#!/usr/bin/env python3
"""Fourier pseudo-spectral differentiation on an odd periodic lattice.

Walks through the differentiation kernel, band-limited exactness, the
operator-level properties (product rule, zero column sums, antisymmetry),
and the spectral-accuracy envelopes for the e^{z cos} family.
"""

import math

import numpy as np

import torusfp as tf

print("=== the differentiation kernel ===")
kern = tf.derivative_kernel(N=4, l=2 * math.pi)
for m in range(-4, 5):
    print(f"  a[{m:+d}] = {kern[m]:+.6f}")
print("entries are antisymmetric and vanish at m = 0.\n")

print("=== band-limited functions differentiate exactly ===")
lat = tf.make_lattice(1, 8, 1.0)
sin_field = tf.discretize(lambda p: np.sin(2 * np.pi * p[..., 0]), lat)
deriv = tf.fourier_derivative(sin_field, axis=0)
exact = 2 * np.pi * np.cos(2 * np.pi * lat.points()[:, 0])
print(f"  max |d/dx sin - 2 pi cos| = {np.abs(deriv.flat - exact).max():.2e}")

kernel_path = tf.kernel_derivative(sin_field, axis=0)
print(f"  multiplier path vs kernel path: {np.abs(deriv.flat - kernel_path.flat).max():.2e}\n")

print("=== product rule on truncated spectra ===")
rng = np.random.default_rng(0)
coeffs = np.zeros(lat.shape, dtype=complex)
for k in range(0, 5):
    c = rng.standard_normal() + 1j * rng.standard_normal()
    coeffs[lat.N + k] = c
    coeffs[lat.N - k] = np.conj(c)
from torusfp.lattice import SpectralField, idft  # noqa: E402

u = tf.GridField(lat, idft(SpectralField(lat, coeffs)).values.real, is_real=True)
v = tf.GridField(lat, idft(SpectralField(lat, np.roll(coeffs, 1))).values.real, is_real=True)
uv = tf.GridField(lat, u.values * v.values, is_real=True)
lhs = tf.fourier_derivative(uv, 0).values
rhs = tf.fourier_derivative(u, 0).values * v.values + u.values * tf.fourier_derivative(v, 0).values
print(f"  |d(uv) - (du)v - u(dv)| = {np.abs(lhs - rhs).max():.2e}")
print("  (exact because the two bands sum to at most N; full-band products alias)\n")

print("=== derivative error envelopes for u = e^{2 cos(2 pi x)} ===")
u_fn, grad_fn, lap_fn, C, a, _ = tf.expcos_family(2.0, l=1.0)
params = tf.SemiAnalyticityParams(C, a)
print(f"  certified parameters: C = {C:.4f}, a = {a}")
print(f"  {'N':>4} {'grad error':>12} {'envelope':>12} {'lap error':>12} {'envelope':>12}")
for N in (8, 12, 16, 24, 32):
    rep = tf.derivative_error_report(u_fn, grad_fn, lap_fn, tf.make_lattice(1, N, 1.0), params)
    print(
        f"  {N:>4} {rep.measured_first:>12.3e} {rep.bound_first:>12.3e}"
        f" {rep.measured_second:>12.3e} {rep.bound_second:>12.3e}"
    )
print("measured errors sit far below the proven envelopes and decay spectrally.")
