"""The cost of the spectral gap and propagation over a fixed grid, as JSON.

    python3 bench/gap.py OUT.json

Run it from a checkout of the repository; it imports the package from
``src/`` and needs numpy alone.  BLAS runs on one thread.  Each case records
the wall time of ``build_generator`` and of ``op.propagate(1, [0, T])`` at
the pipeline's mixing time T (each the median of REPEATS runs, after one
untimed run that fills the per-lattice caches), the operator's ``backend``,
the block iterations and Lanczos steps of a Lanczos gap, the steps and error
bound of a Krylov propagation (from ``op.health`` and the propagation's
health, each key only where its route records it), and the gap's error
relative to an oracle.  Separable and non-separable potentials are reported
apart, since the first take their gap and propagation from the per-axis
factors and the others from Lanczos and Krylov, and d = 1, which propagates
densely, apart from both:

- d = 1: cosine z=1 at N in {64, 511, 2047} (l = 1).  Each run builds a new
  operator and propagates it once; every propagation assembles each sector
  block and runs its eigh, so ``propagate_s`` includes both;
  ``assemble_s`` is the median time of assembling the two blocks alone, the
  part of ``propagate_s`` that repeats the build's.  One more build is
  traced with tracemalloc for its peak and for the memory the operator
  holds once built (``build_peak_mib``, ``build_held_mib``), and a
  propagation of it for its peak and for the memory it leaves held, the
  states it returns (``propagate_peak_mib``, ``propagate_held_mib``); the
  memory live during that propagation, the operator's included, is
  ``build_held_mib`` plus ``propagate_peak_mib``.  The script exits 1 when
  a built operator holds, or a propagation leaves held, more than
  HELD_BLOCK_FRACTION of one sector block beyond HELD_NODE_BYTES per node,
  its grid-sized arrays: no block and none of its eigenvectors outlives
  the build or the propagation;
- separable: cosine z in {1, 4, 8} on the lattices d=2 N in {15, 25, 31} and
  d=3 N=7, and z=12 at d=2 N=25 (l = 1).  The cosine potential is a sum
  over axes, so the gap at every d is the d = 1 gap, read off the dense
  spectrum, and the whole spectrum is the tensor sum of the d = 1 one.
  Each case also records ``spectrum_s``, the median time of
  ``build_generator`` plus ``op.eigenvalues`` on a fresh operator, and
  ``spectrum_rel_error``, the largest difference of ``op.eigenvalues`` from
  that tensor sum over the largest |eigenvalue|; the script exits 1 when
  it exceeds SPECTRUM_RTOL.  A lattice too coarse for a stiff z has a
  spurious slow mode whose rate rises with N, so each case also records
  ``gap_resolved``, the d = 1 gap at N = RESOLVED_N, converged for z <= 12,
  and ``resolved``, whether the case's gap is within 1e-6 of it (relative);
- non-separable: the coupled potential cosine + c z (1 - cos 2 pi (x_1 -
  x_2)) of tests/conftest.py, for (z, c) in {(1, 0.5), (4, 0.5), (8, 1)} at
  d=2 N in {12, 25}, and the MLP potential of tests/conftest.py at d=2
  N=25, against one eigvalsh of the assembled L', run once for the gap and
  the spectrum.  Each also records ``spectrum_s``, the median time of
  ``build_generator`` plus ``op.eigenvalues`` on a fresh operator,
  ``spectrum_peak_mib``, the tracemalloc peak of ``op.eigenvalues``,
  ``dense_sectors``, its block count (2 for the coupled W, even under
  x -> -x, 1 for the MLP), and ``spectrum_rel_error``, its largest
  difference from that eigvalsh over the largest |eigenvalue|; the script
  exits 1 when it exceeds SPECTRUM_RTOL.  ``assemble_s`` is the median time
  of assembling the whole L' (``generator._dense_symmetrized``, line by
  line from the axis matrix), and ``assemble_peak_mib`` its tracemalloc
  peak, with ``dense_mib`` the size of L' itself.

Every d >= 2 case records the operator's ``gap_rounding``, eps ||L'|| / gap:
about the gap's relative rounding error for a W that is not a sum over
axes; a separable W takes its gap from singular values of the axis
factors, which keep it accurate far below that.

The file holds the three lists of cases and the environment the numbers
were taken on.
"""

from __future__ import annotations

import functools
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
from torusfp import generator  # noqa: E402

SEPARABLE = [(d, N, z) for d, N in [(2, 15), (2, 25), (2, 31), (3, 7)] for z in (1.0, 4.0, 8.0)] + [(2, 25, 12.0)]
LINE = [(N,) for N in (64, 511, 2047)]
NON_SEPARABLE = [("coupled", N, z, c) for N in (12, 25) for z, c in [(1.0, 0.5), (4.0, 0.5), (8.0, 1.0)]] + [
    ("mlp", 25, None, None)
]
REPEATS = 5
#: d = 1 half-width whose cosine gap has converged for z <= 12
RESOLVED_N = 511
#: Largest spectrum_rel_error of a d >= 2 case before the script fails
SPECTRUM_RTOL = 1e-12
#: A built d = 1 operator, or a propagation's result, may hold this fraction
#: of one (N+1) x (N+1) sector block, plus HELD_NODE_BYTES per node for W, U
#: and the spectrum, or for the two returned states (24 and 16 bytes per
#: node, and the objects around them), before the script fails
HELD_BLOCK_FRACTION = 0.01
HELD_NODE_BYTES = 64


def coupled(z: float, c: float) -> tf.EnergyPotential:
    """cosine + c z (1 - cos 2 pi (x_1 - x_2)) at d = 2, l = 1."""
    cosine = tf.cosine_potential(z, 2, 1.0)

    def evaluator(pts):
        return cosine.evaluate(pts) + c * z * (1 - np.cos(2 * math.pi * (pts[..., 0] - pts[..., 1])))

    return tf.EnergyPotential(evaluator=evaluator, l=1.0, d=2, diameter=cosine.diameter + 2 * c * z, name="coupled")


def mlp() -> tf.EnergyPotential:
    """The MLP potential of tests/conftest.py, small_mlp(2, seed=3), l = 1."""
    rng = np.random.default_rng(3)
    weights = [rng.uniform(-0.8, 0.8, (3, 4)), rng.uniform(-0.8, 0.8, (1, 3))]
    biases = [rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, 1)]
    return tf.mlp_potential(tf.PeriodicMlp(weights, biases, l=1.0, d=2))


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
        "backend": op.health["backend"],
        **{key: op.health[key] for key in ("gap_block_iterations", "lanczos_steps") if key in op.health},
        "gap": op.spectral_gap,
        "gap_rel_error": abs(op.spectral_gap - gap) / gap,
        "gap_rounding": op.health["gap_rounding"],
        "T": T,
        "propagate_s": propagate_s,
        **{key: health[key] for key in ("krylov_steps", "krylov_error") if key in health},
    }


def traced(run) -> tuple:
    """The result of ``run()``, and the memory its allocations still hold
    and their peak, in MiB, under tracemalloc."""
    tracemalloc.start()
    try:
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held / 2**20, peak / 2**20


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
    assemble_s, _ = median_time(
        lambda: [generator._sector_block(op.u_diag, generator._half_derivative(lattice), odd) for odd in (0, 1)]
    )
    op, build_held, build_peak = traced(lambda: tf.build_generator(E, lattice))
    _, held, peak = traced(lambda: op.propagate(ones, times))
    return {
        "d": 1,
        "N": N,
        "z": 1.0,
        "nodes": lattice.size,
        "build_s": statistics.median(build[1:]),
        "build_peak_mib": build_peak,
        "build_held_mib": build_held,
        "block_mib": (N + 1) ** 2 * 8 / 2**20,
        "gap": op.spectral_gap,
        "T": float(times[-1]),
        "propagate_s": statistics.median(propagate[1:]),
        "assemble_s": assemble_s,
        "propagate_peak_mib": peak,
        "propagate_held_mib": held,
    }


def line_operator(N: int, z: float):
    """The d = 1 cosine generator, whose gap is read off its dense spectrum."""
    return tf.build_generator(tf.cosine_potential(z, 1, 1.0), tf.make_lattice(1, N, 1.0))


def separable(d: int, N: int, z: float) -> dict:
    E, lattice, line = tf.cosine_potential(z, d, 1.0), tf.make_lattice(d, N, 1.0), line_operator(N, z)
    result = case(E, lattice, lambda op: line.spectral_gap)
    spectrum_s, eigenvalues = median_time(lambda: tf.build_generator(E, lattice).eigenvalues)
    oracle = np.sort(functools.reduce(np.add.outer, [line.eigenvalues] * d), axis=None)[::-1]
    resolved = line_operator(RESOLVED_N, z).spectral_gap
    return {"d": d, "N": N, "z": z} | result | {
        "spectrum_s": spectrum_s,
        "spectrum_rel_error": float(np.abs(eigenvalues - oracle).max() / np.abs(oracle).max()),
        "gap_resolved": resolved,
        "resolved": abs(result["gap"] - resolved) <= 1e-6 * resolved,
    }


def non_separable(kind: str, N: int, z: float | None, c: float | None) -> dict:
    solved = []

    def oracle(op):
        solved.append(np.linalg.eigvalsh(-op.symmetrized))  # the spectrum of -L', ascending
        return float(solved[0][1])

    E, lattice = coupled(z, c) if kind == "coupled" else mlp(), tf.make_lattice(2, N, 1.0)
    result = case(E, lattice, oracle)
    spectrum_s, _ = median_time(lambda: tf.build_generator(E, lattice).eigenvalues)
    op = tf.build_generator(E, lattice)
    eigenvalues, _, spectrum_peak = traced(lambda: op.eigenvalues)
    assemble_s, _ = median_time(lambda: generator._dense_symmetrized(lattice, op.u_diag))
    _, _, peak = traced(lambda: generator._dense_symmetrized(lattice, op.u_diag))
    return {"d": 2, "N": N, "potential": kind, "z": z, "c": c} | result | {
        "spectrum_s": spectrum_s,
        "spectrum_peak_mib": spectrum_peak,
        "dense_sectors": op.health["dense_sectors"],
        "spectrum_rel_error": float(np.abs(eigenvalues + solved[0]).max() / solved[0][-1]),
        "assemble_s": assemble_s,
        "assemble_peak_mib": peak,
        "dense_mib": lattice.size**2 * 8 / 2**20,
    }


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
    status = 0
    for kind in ("separable", "non_separable"):
        worst = max(row["spectrum_rel_error"] for row in results[kind])
        if worst > SPECTRUM_RTOL:
            print(f"{kind} spectrum off its oracle by {worst:.3g} > {SPECTRUM_RTOL:g}", file=sys.stderr)
            status = 1
    for row in results["d1"]:
        limit = HELD_BLOCK_FRACTION * row["block_mib"] + HELD_NODE_BYTES * row["nodes"] / 2**20
        for what, key in [("operator", "build_held_mib"), ("propagation", "propagate_held_mib")]:
            if row[key] > limit:
                print(f"d = 1 N = {row['N']} {what} holds {row[key]:.3g} MiB > {limit:.3g} MiB", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
