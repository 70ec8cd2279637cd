"""The cost of scoring and writing a gibbs run's samples, and of the exact
Gibbs oracle, as JSON.

    python3 bench/pipeline.py OUT.json

Run it from a checkout of the repository; it imports the package from
``src/`` and needs numpy alone.  BLAS runs on one thread.  Each case runs
``run_pipeline`` once, untimed, at the settings of a ``gibbs`` workload of
``perfbench/workloads.json`` (cosine z = 1, l = 1, seed 7, 100000 samples),
and then times the three stages that follow the generator:

- ``continuous_sample`` of the upsampled state (``sample_s``), and the peak
  of its Python allocations (``sample_peak_mb``, one extra call under
  ``tracemalloc``);
- ``tv_distance`` of the upsampled state against the Gibbs density, with its
  ``health`` (passes over the grid, density values computed) and the peak
  of its Python allocations (one extra call under ``tracemalloc``);
- ``SampleBatch.csv_chunks``, the whole ``samples.csv`` text, with the
  SHA-256 of its bytes and the count of values written through ``repr``
  rather than the vectorized formatter (``report.fast_domain``).

``sample_s`` and ``csv_s`` are also given per value (``sample_s_per_value``,
``csv_s_per_value``): divided by the SAMPLES * d coordinates of the batch,
so that cases of different d compare.

The SHA-256 must equal the case's ``reference.samples_sha256`` in
``perfbench/workloads.json`` (read, never written), and the TV must lie
within TV_TOLERANCE of ``density_tv_quadrature`` on the same state (one
untimed call that lays the midpoints out as points, recorded as
``tv_points``), and ``sample_peak_mb`` must not exceed the batch's points,
its int32 boxes and SAMPLE_SLACK_MB (``sample_peak_limit_mb``): on any
difference the script still writes OUT.json and then exits 1.

Each time is the median of REPEATS runs after one untimed run, recorded
with the minimum and the interquartile range of those runs (``sample_s_min``,
``sample_s_iqr`` and so on): five runs on a loaded host cannot resolve a
change of 20% by their median alone.  The cases:

- ``gibbs-dense-2d``: d = 2, N = 25, M = 25 (51^2 boxes, 2.67e6 subcells);
- ``gibbs-quad-2d``: d = 2, N = 15, M = 96 (193^2 boxes, 3.81e7 subcells);
- ``gibbs-readme``: the README command, d = 1, N = 16, automatic T and M.

The oracle cases time the Gibbs normalizer ``GibbsDensity(E).Z`` and
``exact_mean`` of cos 2 pi x_0, each timed like the stages, and count the
potential values one normalizer computes (one per point of each grid
``evaluate_grid`` is given): cosine z = 1 at d = 1..4, and at d = 4 an MLP
of the shape of ``small_mlp`` in tests/conftest.py (two sigmoid layers,
3 hidden units) with weights drawn from MLP_SEED.
"""

from __future__ import annotations

import copy
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
from torusfp.report import fast_domain  # noqa: E402

#: (name, d, N, M); M None is the automatic choice
CASES = [("gibbs-dense-2d", 2, 25, 25), ("gibbs-quad-2d", 2, 15, 96), ("gibbs-readme", 1, 16, None)]
#: (potential, d) of the Gibbs oracle cases
ORACLE = [("cosine", d) for d in (1, 2, 3, 4)] + [("mlp", 4)]
MLP_SEED = 42
SAMPLES = 100_000
SEED = 7
REPEATS = 5
#: largest |tv_distance - density_tv_quadrature| of a case
TV_TOLERANCE = 1e-13
#: traced memory of continuous_sample allowed past its points and int32 boxes
SAMPLE_SLACK_MB = 1.0
MIB = 2**20
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"


def timed(name: str, run) -> tuple:
    """The wall times of REPEATS calls of ``run``, after one untimed call, as
    their median under ``name``, their minimum under ``name_min`` and their
    interquartile range under ``name_iqr``; and the last call's result."""
    result = run()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {name: median, f"{name}_min": min(times), f"{name}_iqr": q3 - q1}, result


def traced_peak(run) -> float:
    """The peak of the Python allocations of one call of ``run``, in MiB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def case(name: str, d: int, N: int, M: int | None) -> dict:
    E = tf.cosine_potential(1.0, d, 1.0)
    result = tf.run_pipeline(E, N=N, M=M, count=SAMPLES, seed=SEED)
    state, batch = result.upsampled, result.batch

    sample_times, _ = timed("sample_s", lambda: tf.continuous_sample(state, SAMPLES, SEED))
    sample_peak = traced_peak(lambda: tf.continuous_sample(state, SAMPLES, SEED))
    tv_times, report = timed("tv_s", lambda: tf.tv_distance(state, E))
    tv_points = tf.sampler.density_tv_quadrature(state, lambda pts: np.exp(-E.evaluate(pts)))
    tv_peak = traced_peak(lambda: tf.tv_distance(state, E))
    csv_times, text = timed("csv_s", lambda: "".join(batch.csv_chunks()))
    return {
        "name": name,
        "d": d,
        "N": N,
        "M": state.lattice.N,
        "tv": report.tv,
        "tv_points": tv_points,
        **sample_times,
        "sample_s_per_value": sample_times["sample_s"] / batch.points.size,
        "sample_peak_mb": sample_peak,
        "sample_peak_limit_mb": (batch.points.nbytes + 4 * SAMPLES) / MIB + SAMPLE_SLACK_MB,
        **tv_times,
        "tv_peak_alloc_mb": tv_peak,
        **report.health,
        **csv_times,
        "csv_s_per_value": csv_times["csv_s"] / batch.points.size,
        "csv_bytes": len(text),
        "csv_fallback_values": int(np.count_nonzero(~fast_domain(batch.points.ravel()))),
        "samples_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def seeded_mlp(d: int) -> tf.PeriodicMlp:
    """A periodic MLP with small_mlp's shapes and weight ranges."""
    rng = np.random.default_rng(MLP_SEED)
    weights = [rng.uniform(-0.8, 0.8, (3, 2 * d)), rng.uniform(-0.8, 0.8, (1, 3))]
    biases = [rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, 1)]
    return tf.PeriodicMlp(weights, biases, l=1.0, d=d)


def counted(E: tf.EnergyPotential) -> tuple:
    """A copy of E with a counter of the potential values its grid evaluations
    compute, one per grid point."""
    count, E = [0], copy.copy(E)
    evaluate_grid = E.evaluate_grid

    def counting(axes):
        count[0] += math.prod(len(a) for a in axes)
        return evaluate_grid(axes)

    E.evaluate_grid = counting
    return E, count


def oracle(potential: str, d: int) -> dict:
    E = tf.cosine_potential(1.0, d, 1.0) if potential == "cosine" else tf.mlp_potential(seeded_mlp(d))

    def observable(pts):
        return np.cos(2 * np.pi * pts[..., 0])

    Z_times, Z = timed("Z_s", lambda: tf.sampler.GibbsDensity(E).Z)
    mean_times, mean = timed("mean_s", lambda: tf.exact_mean(observable, E))
    E_counted, count = counted(E)
    tf.sampler.GibbsDensity(E_counted)
    return {
        "potential": potential,
        "d": d,
        "Z": Z,
        **Z_times,
        "exact_mean": mean,
        **mean_times,
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
    references = json.loads(WORKLOADS.read_text())["workloads"]
    cases, oracles, drifted, off, heavy = [], [], [], [], []
    for args in CASES:
        cases.append(case(*args))
        print(json.dumps(cases[-1]), flush=True)
        if cases[-1]["samples_sha256"] != references[args[0]]["reference"]["samples_sha256"]:
            drifted.append(args[0])
        if not abs(cases[-1]["tv"] - cases[-1]["tv_points"]) <= TV_TOLERANCE:
            off.append(args[0])
        if not cases[-1]["sample_peak_mb"] <= cases[-1]["sample_peak_limit_mb"]:
            heavy.append(args[0])
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
    if drifted:
        print(f"samples.csv digest differs from {WORKLOADS.name} at: {', '.join(drifted)}", file=sys.stderr)
    if off:
        print(f"tv_distance differs from density_tv_quadrature by more than {TV_TOLERANCE} at: {', '.join(off)}", file=sys.stderr)
    if heavy:
        print(f"continuous_sample traced more than its points, int32 boxes and {SAMPLE_SLACK_MB} MiB at: {', '.join(heavy)}", file=sys.stderr)
    return 1 if drifted or off or heavy else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
