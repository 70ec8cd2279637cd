"""The cost of the matrix-free spectral gap over a fixed grid, as JSON.

    python3 bench/gap.py OUT.json

Run it from a checkout of the repository; it imports the package from
``src/`` and needs numpy alone.  BLAS runs on one thread.  For cosine z in
{1, 4, 8} on the lattices d=2 N in {15, 25, 31} and d=3 N=7 (l = 1), it
records the wall time of ``build_generator`` (the median of REPEATS builds,
after one untimed build that fills the per-lattice caches), the block
iterations and Lanczos steps of the gap (``op.health``), and the gap's error
relative to the separable oracle: the cosine potential is a sum over axes,
so the gap at every d is the d = 1 gap, read off the dense spectrum.  The
file holds one entry per case and the environment the numbers were taken on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# one BLAS thread: set before numpy loads the BLAS
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import torusfp as tf  # noqa: E402

LATTICES = [(2, 15), (2, 25), (2, 31), (3, 7)]
STRENGTHS = [1.0, 4.0, 8.0]
REPEATS = 5


def case(d: int, N: int, z: float) -> dict:
    E, lattice = tf.cosine_potential(z, d, 1.0), tf.make_lattice(d, N, 1.0)
    tf.build_generator(E, lattice)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        op = tf.build_generator(E, lattice)
        times.append(time.perf_counter() - start)
    oracle = tf.build_generator(tf.cosine_potential(z, 1, 1.0), tf.make_lattice(1, N, 1.0)).spectral_gap
    return {
        "d": d,
        "N": N,
        "z": z,
        "nodes": lattice.size,
        "build_s": statistics.median(times),
        "gap_block_iterations": op.health["gap_block_iterations"],
        "lanczos_steps": op.health["lanczos_steps"],
        "gap": op.spectral_gap,
        "gap_rel_error": abs(op.spectral_gap - oracle) / oracle,
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
    cases = []
    for d, N in LATTICES:
        for z in STRENGTHS:
            cases.append(case(d, N, z))
            print(json.dumps(cases[-1]), flush=True)
    environment = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
        "repeats": REPEATS,
    }
    Path(argv[0]).write_text(json.dumps({"environment": environment, "cases": cases}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
