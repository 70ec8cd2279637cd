"""The cost of the spectral gap and propagation over a fixed grid, as JSON.

    python3 bench/gap.py OUT.json

Run it from a checkout of the repository; it imports the package from
``src/`` and needs numpy alone.  BLAS runs on one thread.  Each case records
the wall time of ``build_generator`` and of ``op.propagate(1, [0, T])`` at
the pipeline's mixing time T (each the median of REPEATS runs, after one
untimed run that fills the per-lattice caches), the block iterations and
Lanczos steps of the gap, the path, outer and inner steps and error bound of
the propagation (``op.health`` and the propagation's health), and the gap's
error relative to an oracle.  Separable and non-separable potentials are
reported apart, since the separable preconditioner is exact only for the
first, and d = 1, which propagates densely, apart from both:

- d = 1: cosine z=1 at N in {64, 511, 2047} (l = 1).  Each run builds a new
  operator and propagates it once, so ``propagate_s`` includes the eigh of
  each sector block; one more first propagation is traced with tracemalloc
  for its peak and for the memory it leaves held, the kept modes;
- separable: cosine z in {1, 4, 8} on the lattices d=2 N in {15, 25, 31} and
  d=3 N=7, and z=12 at d=2 N=25 (l = 1).  The cosine potential is a sum
  over axes, so the gap at every d is the d = 1 gap, read off the dense
  spectrum.  A lattice too coarse for a stiff z has a spurious slow mode
  whose rate rises with N, so each case also records ``gap_resolved``, the
  d = 1 gap at N = RESOLVED_N, converged for z <= 12, and ``resolved``,
  whether the case's gap is within 1e-6 of it (relative);
- non-separable: the coupled potential cosine + c z (1 - cos 2 pi (x_1 -
  x_2)) of tests/conftest.py, for (z, c) in {(1, 0.5), (4, 0.5), (8, 1)} at
  d=2 N in {12, 25}, against eigvalsh of the assembled L'.

Every d >= 2 case records the operator's ``gap_rounding``, eps ||L'|| / gap:
about the gap's relative rounding error for a W that is not a sum over
axes; a separable W keeps its gap below it, through the preconditioner's
lowest mode.

The file holds the three lists of cases and the environment the numbers
were taken on.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

# one BLAS thread: set before numpy loads the BLAS
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import torusfp as tf  # noqa: E402

SEPARABLE = [(d, N, z) for d, N in [(2, 15), (2, 25), (2, 31), (3, 7)] for z in (1.0, 4.0, 8.0)] + [(2, 25, 12.0)]
LINE = [(N,) for N in (64, 511, 2047)]
NON_SEPARABLE = [(N, z, c) for N in (12, 25) for z, c in [(1.0, 0.5), (4.0, 0.5), (8.0, 1.0)]]
REPEATS = 5
#: d = 1 half-width whose cosine gap has converged for z <= 12
RESOLVED_N = 511


def coupled(z: float, c: float) -> tf.EnergyPotential:
    """cosine + c z (1 - cos 2 pi (x_1 - x_2)) at d = 2, l = 1."""
    cosine = tf.cosine_potential(z, 2, 1.0)

    def evaluator(pts):
        return cosine.evaluate(pts) + c * z * (1 - np.cos(2 * math.pi * (pts[..., 0] - pts[..., 1])))

    return tf.EnergyPotential(evaluator=evaluator, l=1.0, d=2, diameter=cosine.diameter + 2 * c * z, name="coupled")


def median_time(run) -> tuple:
    """The median wall time of REPEATS calls of ``run``, after one untimed
    call, and the last call's result."""
    result = run()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def case(E: tf.EnergyPotential, lattice, oracle) -> dict:
    build_s, op = median_time(lambda: tf.build_generator(E, lattice))
    T = tf.choose_T(1.0 / op.spectral_gap, E.diameter, 0.05)
    ones = np.ones(lattice.size)
    propagate_s, (_, health) = median_time(lambda: op.propagate(ones, np.array([0.0, T])))
    gap = oracle(op)
    return {
        "nodes": lattice.size,
        "build_s": build_s,
        "gap_block_iterations": op.health["gap_block_iterations"],
        "lanczos_steps": op.health["lanczos_steps"],
        "gap": op.spectral_gap,
        "gap_rel_error": abs(op.spectral_gap - gap) / gap,
        "gap_rounding": op.health["gap_rounding"],
        "T": T,
        "propagate_s": propagate_s,
        "krylov_path": health.get("krylov_path"),
        "krylov_steps": health["krylov_steps"],
        "krylov_inner_steps": health.get("krylov_inner_steps"),
        "krylov_error": health["krylov_error"],
    }


def line(N: int) -> dict:
    E, lattice = tf.cosine_potential(1.0, 1, 1.0), tf.make_lattice(1, N, 1.0)
    ones = np.ones(lattice.size)
    build, propagate = [], []
    # the first run, untimed, fills the per-lattice caches
    for _ in range(REPEATS + 1):
        start = time.perf_counter()
        op = tf.build_generator(E, lattice)
        build.append(time.perf_counter() - start)
        times = np.array([0.0, tf.choose_T(1.0 / op.spectral_gap, E.diameter, 0.05)])
        start = time.perf_counter()
        op.propagate(ones, times)
        propagate.append(time.perf_counter() - start)
    op = tf.build_generator(E, lattice)
    tracemalloc.start()
    op.propagate(ones, times)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "d": 1,
        "N": N,
        "z": 1.0,
        "nodes": lattice.size,
        "build_s": statistics.median(build[1:]),
        "gap": op.spectral_gap,
        "T": float(times[-1]),
        "propagate_s": statistics.median(propagate[1:]),
        "propagate_peak_mib": peak / 2**20,
        "propagate_held_mib": held / 2**20,
    }


def line_gap(N: int, z: float) -> float:
    """The gap of the d = 1 cosine generator, read off its dense spectrum."""
    return tf.build_generator(tf.cosine_potential(z, 1, 1.0), tf.make_lattice(1, N, 1.0)).spectral_gap


def separable(d: int, N: int, z: float) -> dict:
    result = case(tf.cosine_potential(z, d, 1.0), tf.make_lattice(d, N, 1.0), lambda op: line_gap(N, z))
    resolved = line_gap(RESOLVED_N, z)
    return {"d": d, "N": N, "z": z} | result | {
        "gap_resolved": resolved,
        "resolved": abs(result["gap"] - resolved) <= 1e-6 * resolved,
    }


def non_separable(N: int, z: float, c: float) -> dict:
    def oracle(op):
        return float(np.linalg.eigvalsh(-op.symmetrized)[1])

    return {"d": 2, "N": N, "z": z, "c": c} | case(coupled(z, c), tf.make_lattice(2, N, 1.0), oracle)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        return ""


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python3 bench/gap.py OUT.json", file=sys.stderr)
        return 64
    results = {"d1": [], "separable": [], "non_separable": []}
    runs = [("d1", line, LINE), ("separable", separable, SEPARABLE), ("non_separable", non_separable, NON_SEPARABLE)]
    for kind, run, cases in runs:
        for args in cases:
            results[kind].append(run(*args))
            print(json.dumps(results[kind][-1]), flush=True)
    environment = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
        "repeats": REPEATS,
    }
    Path(argv[0]).write_text(json.dumps({"environment": environment} | results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
