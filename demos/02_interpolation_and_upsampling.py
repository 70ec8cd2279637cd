#!/usr/bin/env python3
"""Fourier upsampling: from 7 samples of e^{cos 2 pi x} to 21 nodes, and the
sampling-error-vs-N table for the e^{z cos} family."""

import math

import numpy as np

import torusfp as tf
from torusfp.sampler import _interpolation_chain

print("=== 7 samples -> 21 interpolated nodes ===")
u, _, _, _, _, u_hat = tf.expcos_family(1.0, l=1.0)
state = _interpolation_chain(u, u_hat, tf.make_lattice(1, 3, 1.0), k_max=80)[0]
up = tf.upsample(state, 10)

lat10 = tf.make_lattice(1, 10, 1.0)
truth = tf.discretize(u, lat10)
phi = truth.flat / np.linalg.norm(truth.flat)
scale = np.linalg.norm(truth.flat)  # convert amplitudes back to function units

print(f"  {'x':>8} {'interpolated':>14} {'true u(x)':>12}")
for i, x in enumerate(lat10.points()[:, 0]):
    print(f"  {x:>8.3f} {np.real(up.flat[i]) * scale:>14.6f} {truth.flat[i]:>12.6f}")
rms = np.linalg.norm(np.real(up.flat) - phi) / math.sqrt(21)
print(f"  per-node rms amplitude mismatch: {rms:.2e}\n")

print("=== sampling error vs N for u = e^{z cos(2 pi x)}, M = 200 ===")
print(f"  {'z':>3} {'a':>4} {'N':>3} {'state distance':>15} {'tv error':>10}")
for z in range(1, 9):
    u, _, _, C, a, u_hat = tf.expcos_family(float(z), l=1.0)
    n_min = math.ceil(max(1.0, z / 2)) + 2
    for N in (n_min, n_min + 2, n_min + 4):
        _, dist, _, tv_at = _interpolation_chain(u, u_hat, tf.make_lattice(1, N, 1.0), k_max=80)
        tv = tv_at(200)
        print(f"  {z:>3} {a:>4.1f} {N:>3} {dist:>15.3e} {tv:>10.4f}")
print("once N clears the inverse convergence radius, the error drops below 0.1")
print("and keeps falling exponentially in N.")
