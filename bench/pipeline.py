"""The cost of scoring and writing a gibbs run's samples, and of the exact
Gibbs oracle, as JSON.

    python3 bench/pipeline.py OUT.json

Run it from a checkout of the repository; it imports the package from
``src/`` and needs numpy alone.  BLAS runs on one thread.  Each case runs
``run_pipeline`` once, untimed, at the settings of a ``gibbs`` workload of
``perfbench/workloads.json`` (cosine z = 1, l = 1, seed 7, 100000 samples),
and then times the two stages that follow the generator:

- ``tv_distance`` of the upsampled state against the Gibbs density, with its
  ``health`` (passes over the grid, density values computed) and the peak
  of its Python allocations (one extra call under ``tracemalloc``);
- ``SampleBatch.csv_chunks``, the whole ``samples.csv`` text, with the
  SHA-256 of its bytes, which must not move between two versions of the
  writer.

Each time is the median of REPEATS runs after one untimed run.  The cases:

- ``gibbs-dense-2d``: d = 2, N = 25, M = 25 (51^2 boxes, 2.67e6 subcells);
- ``gibbs-quad-2d``: d = 2, N = 15, M = 96 (193^2 boxes, 3.81e7 subcells);
- ``gibbs-readme``: the README command, d = 1, N = 16, automatic T and M.

The oracle cases time the Gibbs normalizer ``GibbsDensity(E).Z`` and
``exact_mean`` of cos 2 pi x_0, each the median of REPEATS runs after one
untimed run, and count the potential values one normalizer computes
(through the potential's point and grid evaluators): cosine z = 1 at
d = 1..4, and at d = 4 an MLP of the shape of ``small_mlp`` in
tests/conftest.py (two sigmoid layers, 3 hidden units) with weights drawn
from MLP_SEED.
"""

from __future__ import annotations

import dataclasses
import hashlib
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

#: (name, d, N, M); M None is the automatic choice
CASES = [("gibbs-dense-2d", 2, 25, 25), ("gibbs-quad-2d", 2, 15, 96), ("gibbs-readme", 1, 16, None)]
#: (potential, d) of the Gibbs oracle cases
ORACLE = [("cosine", d) for d in (1, 2, 3, 4)] + [("mlp", 4)]
MLP_SEED = 42
SAMPLES = 100_000
SEED = 7
REPEATS = 5
MIB = 2**20


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


def case(name: str, d: int, N: int, M: int | None) -> dict:
    E = tf.cosine_potential(1.0, d, 1.0)
    result = tf.run_pipeline(E, N=N, M=M, count=SAMPLES, seed=SEED)
    state, batch = result.upsampled, result.batch

    tv_s, report = median_time(lambda: tf.tv_distance(state, E))
    tracemalloc.start()
    try:
        tf.tv_distance(state, E)
        tv_peak = tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()
    csv_s, text = median_time(lambda: "".join(batch.csv_chunks()))
    return {
        "name": name,
        "d": d,
        "N": N,
        "M": state.lattice.N,
        "tv": report.tv,
        "tv_s": tv_s,
        "tv_peak_alloc_mb": tv_peak,
        **report.health,
        "csv_s": csv_s,
        "csv_bytes": len(text),
        "samples_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def seeded_mlp(d: int) -> tf.PeriodicMlp:
    """A periodic MLP with small_mlp's shapes and weight ranges."""
    rng = np.random.default_rng(MLP_SEED)
    weights = [rng.uniform(-0.8, 0.8, (3, 2 * d)), rng.uniform(-0.8, 0.8, (1, 3))]
    biases = [rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, 1)]
    return tf.PeriodicMlp(weights, biases, l=1.0, d=d)


def counted(E: tf.EnergyPotential) -> tuple:
    """E with a counter of the potential values its evaluators compute."""
    count = [0]

    def evaluator(pts):
        count[0] += len(pts)
        return E.evaluator(pts)

    def grid_evaluator(axes):
        count[0] += math.prod(len(a) for a in axes)
        return E.grid_evaluator(axes)

    grid = grid_evaluator if E.grid_evaluator is not None else None
    return dataclasses.replace(E, evaluator=evaluator, grid_evaluator=grid), count


def oracle(potential: str, d: int) -> dict:
    E = tf.cosine_potential(1.0, d, 1.0) if potential == "cosine" else tf.mlp_potential(seeded_mlp(d))

    def observable(pts):
        return np.cos(2 * np.pi * pts[..., 0])

    Z_s, Z = median_time(lambda: tf.sampler.GibbsDensity(E).Z)
    mean_s, mean = median_time(lambda: tf.exact_mean(observable, E))
    E_counted, count = counted(E)
    tf.sampler.GibbsDensity(E_counted)
    return {
        "potential": potential,
        "d": d,
        "Z": Z,
        "Z_s": Z_s,
        "exact_mean": mean,
        "mean_s": mean_s,
        "eval_points": count[0],
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        return ""


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python3 bench/pipeline.py OUT.json", file=sys.stderr)
        return 64
    cases, oracles = [], []
    for args in CASES:
        cases.append(case(*args))
        print(json.dumps(cases[-1]), flush=True)
    for args in ORACLE:
        oracles.append(oracle(*args))
        print(json.dumps(oracles[-1]), flush=True)
    environment = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
        "repeats": REPEATS,
    }
    doc = {"environment": environment, "cases": cases, "oracle": oracles}
    Path(argv[0]).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
