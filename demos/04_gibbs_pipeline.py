#!/usr/bin/env python3
"""The end-to-end sampler: evolve the uniform state under the E/2 generator,
upsample, draw continuous samples, and compare against the exact Gibbs
density; then estimate a Gibbs mean from the samples."""

import numpy as np

import torusfp as tf

E = tf.cosine_potential(2.0, 1, 1.0)  # E = 2(1 - cos 2 pi x)
print(f"potential: {E.name}, diameter {E.diameter}")

result = tf.run_pipeline(E, N=16, eps=0.05, count=100_000, seed=7, M_cap=512)
r = result.resolved
print(f"measured spectral gap: {r['gap']:.3f} -> mixing time T = {r['T']:.4f}")
print(f"fitted state parameters: C = {r['fitted_C']:.4f}, a = {r['fitted_a']:.4f}")
print(f"Lipschitz estimate of the evolved state: L = {r['L_est']:.3f}")
print(f"sampling lattice: M = {r['M']} (raw formula suggested {r['M_raw']}, capped at 512)")
print(f"TV(sampling density, exact Gibbs) = {result.tv_report.tv:.5f}  (target {r['eps']})")

print("\nnorm traces along the evolution (all-ones start):")
op = result.operator
traced = tf.evolve(op, tf.constant_field(op.lattice), r["T"], snapshots=8)
rep = tf.norm_and_max_principle_report(op, traced)
print(f"  max ||u(t)|| / ||1|| = {rep.max_norm_ratio:.6f} <= e^(D_W/2) = {rep.norm_bound:.6f}")
print(f"  mass drift <1, u(t)>: {rep.inner_drift:.2e} relative")

dec = tf.decay_report(op, traced)
print(f"  chi-square decay rate {dec.fitted_rate:.2f} >= 2 x gap = {2 * dec.gap:.2f}")

print("\nmean estimation for f = cos(2 pi x):")
est = tf.estimate_mean(lambda p: np.cos(2 * np.pi * p[..., 0]), result.batch)
exact = tf.bessel_i(1, 2.0) / tf.bessel_i(0, 2.0)
print(f"  sample mean {est.mean:.5f} +- {est.stderr:.5f}, exact I_1(2)/I_0(2) = {exact:.5f}")
print(f"  deviation: {abs(est.mean - exact) / est.stderr:.2f} standard errors")

print("\ntwo-dimensional run (cosine z=1, N=12, M=64):")
res2 = tf.run_pipeline(tf.cosine_potential(1.0, 2, 1.0), N=12, M=64, eps=0.05, count=20_000, seed=7)
print(f"  TV = {res2.tv_report.tv:.5f} by per-box quadrature over 129^2 boxes")
