"""Traced replay of one CLI op, stage by stage, through the package's public
functions.

``replay(argv, out_dir)`` does what ``torusfp.cli.main(argv + ["--out",
out_dir])`` does for the ``gibbs`` and ``spectrum`` subcommands, and times
each call into ``potential``, ``generator``, ``evolve``, ``sampler`` and
``cli`` from outside. ``lattice``, ``spectral`` and ``semianalytic`` run only
inside those calls and are counted there. The run checks that the replay
reproduces the CLI op's TV, gap and samples.csv bytes, so the per-layer
numbers describe the same program.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import torusfp
from torusfp import cli, potential
from torusfp.evolve import choose_T, evolve
from torusfp.generator import (
    build_generator,
    condition_number_check,
    operator_norm_check,
    poincare_report,
    spectrum_to_csv,
)
from torusfp.lattice import GridField, dft, make_lattice
from torusfp.sampler import choose_M, continuous_sample, tv_distance, upsample
from torusfp.semianalytic import fit_params, semi_norms
from torusfp.spectral import fourier_derivative

# The CLI's documented defaults for the flags the workloads leave out, and
# run_pipeline's default snapshot count.
DEFAULTS = {
    "gibbs": {"potential": "cosine:z=1", "d": 1, "N": 16, "l": 1.0, "M": "auto", "T": "auto", "eps": 0.05, "samples": 10000, "m_cap": 512, "subcells": 32},
    "spectrum": {"potential": "cosine:z=1", "d": 1, "N": 16, "l": 1.0},
}
SNAPSHOTS = 8

# Spans that tile the op: they never overlap, and cli.other_s is the rest.
STAGES = [
    "potential.build_s",
    "generator.build_s",
    "generator.checks_s",
    "evolve.evolve_s",
    "sampler.auto_m_s",
    "sampler.upsample_s",
    "sampler.sample_s",
    "sampler.tv_s",
    "cli.write_s",
]
# Everything else the replay records; potential.eval_s nests inside stages.
EXTRA = [
    "potential.eval_s",
    "potential.eval_points",
    "generator.build_cpu_s",
    "generator.held_mb",
    "generator.peak_alloc_mb",
    "evolve.snapshots",
    "sampler.tv_eval_points",
    "sampler.tv_peak_alloc_mb",
    "cli.artifact_bytes",
]
MIB = 2**20


def cpu_s() -> float:
    """User plus system CPU seconds of this process, all threads."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans and counts of one op. A stage the op does not reach stays 0."""

    def __init__(self):
        self.values = dict.fromkeys(STAGES + EXTRA, 0.0)

    @contextmanager
    def span(self, name: str, cpu: str | None = None, alloc: str | None = None, points: str | None = None):
        if alloc:
            tracemalloc.start()
        points0 = self.values["potential.eval_points"]
        cpu0 = cpu_s()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.values[name] += time.perf_counter() - t0
            if cpu:
                self.values[cpu] += cpu_s() - cpu0
            if points:
                self.values[points] += self.values["potential.eval_points"] - points0
            if alloc:
                self.values[alloc] = max(self.values[alloc], tracemalloc.get_traced_memory()[1] / MIB)
                tracemalloc.stop()

    def wrap_evaluator(self, E: potential.EnergyPotential) -> None:
        """Time and count every batch of points E.evaluate hands its evaluator."""
        inner = E.evaluator

        def evaluator(pts):
            t0 = time.perf_counter()
            try:
                return inner(pts)
            finally:
                self.values["potential.eval_s"] += time.perf_counter() - t0
                self.values["potential.eval_points"] += len(pts)

        E.evaluator = evaluator


def build_potential(spec: str, d: int, l: float) -> potential.EnergyPotential:
    kind, _, rest = spec.partition(":")
    params = dict(item.split("=", 1) for item in rest.split(",") if item)
    if kind == "cosine":
        return potential.cosine_potential(float(params.get("z", 1.0)), d, l)
    if kind == "invcos":
        return potential.invcos_potential(float(params.get("z", 4.0)), l)
    raise ValueError(f"the replay covers cosine and invcos potentials, not {kind!r}")


def held_mb(op) -> float:
    """MiB of the dense arrays an operator holds, fields and grid fields alike."""
    arrays = (getattr(value, "values", value) for value in vars(op).values())
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)) / MIB


def _write(out_dir: Path, name: str, text: str, artifacts: list) -> None:
    (out_dir / name).write_text(text)
    artifacts.append(name)


def _write_manifest(out_dir: Path, cfg: dict, resolved: dict, artifacts: list, started: float) -> None:
    canonical = json.dumps(dict(sorted(cfg.items())), sort_keys=True)
    doc = {
        "config": cfg,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "resolved": resolved,
        "artifacts": sorted(artifacts),
        "versions": {"torusfp": torusfp.__version__, "numpy": np.__version__, "python": platform.python_version()},
        "wall_time_s": time.time() - started,
    }
    (out_dir / "run-manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


def _gibbs(cfg: dict, out_dir: Path, tr: Tracer, started: float) -> list:
    with tr.span("potential.build_s"):
        E = build_potential(cfg["potential"], cfg["d"], cfg["l"])
    tr.wrap_evaluator(E)
    N, eps, seed = cfg["N"], cfg["eps"], cfg["seed"]
    M = None if cfg.get("auto") or cfg["M"] == "auto" else int(cfg["M"])
    T = None if cfg.get("auto") or cfg["T"] == "auto" else float(cfg["T"])
    lattice = make_lattice(E.d, N, E.l)

    with tr.span("generator.build_s", cpu="generator.build_cpu_s", alloc="generator.peak_alloc_mb"):
        op = build_generator(E, lattice, halve=True)
    tr.values["generator.held_mb"] = held_mb(op)
    gap = op.spectral_gap
    kappa = 1.0 / gap
    resolved = {"N": N, "eps": eps, "gap": gap, "kappa": kappa, "seed": seed, "T_mode": "auto" if T is None else "fixed"}

    with tr.span("evolve.evolve_s"):
        if T is None:
            T = choose_T(kappa, E.diameter, eps)
        ones = GridField(lattice, np.ones(lattice.shape), is_real=True)
        evolution = evolve(op, ones, T, snapshots=SNAPSHOTS)
    tr.values["evolve.snapshots"] = len(evolution.times)
    resolved["T"] = float(T)
    final = evolution.final
    state = GridField(lattice, (final / np.linalg.norm(final)).reshape(lattice.shape), is_real=True)

    if M is None:
        with tr.span("sampler.auto_m_s"):
            profile = semi_norms(dft(state), m_max=8)
            params = fit_params(profile)
            L_est = 1.05 * max(float(np.abs(fourier_derivative(state, axis=j).values).max()) for j in range(lattice.d))
            M = choose_M(eps, L_est, E.l, E.d, params.a, params.C, profile[0])
        resolved.update({"M_mode": "auto", "M_raw": M, "fitted_C": params.C, "fitted_a": params.a, "U_est": profile[0], "L_est": L_est})
        M = min(max(M, N), cfg["m_cap"])
    else:
        resolved["M_mode"] = "fixed"
    resolved["M"] = int(M)

    with tr.span("sampler.upsample_s"):
        upsampled = upsample(state, int(M))
    with tr.span("sampler.sample_s"):
        batch = continuous_sample(upsampled, cfg["samples"], seed)
    with tr.span("sampler.tv_s", alloc="sampler.tv_peak_alloc_mb", points="sampler.tv_eval_points"):
        tv_report = tv_distance(upsampled, E, subcells=cfg["subcells"], bound=eps)

    artifacts: list = []
    with tr.span("cli.write_s"):
        _write(out_dir, "samples.csv", batch.to_csv(), artifacts)
        _write(out_dir, "tv.json", tv_report.to_json(), artifacts)
        violations = [f"pipeline TV {tv_report.tv:.4f} exceeded eps {eps}"] if tv_report.tv > eps else []
        _write_manifest(out_dir, cfg, dict(resolved, violations=violations), artifacts, started)
    return artifacts


def _spectrum(cfg: dict, out_dir: Path, tr: Tracer, started: float) -> list:
    with tr.span("potential.build_s"):
        E = build_potential(cfg["potential"], cfg["d"], cfg["l"])
    tr.wrap_evaluator(E)
    lattice = make_lattice(cfg["d"], cfg["N"], cfg["l"])
    with tr.span("generator.build_s", cpu="generator.build_cpu_s", alloc="generator.peak_alloc_mb"):
        op = build_generator(E, lattice, halve=not cfg.get("full_potential", False))
    tr.values["generator.held_mb"] = held_mb(op)

    with tr.span("generator.checks_s"):
        reports = {"condition_number": condition_number_check(op), "poincare": poincare_report(op)}
        if lattice.N > 3:
            reports["operator_norm"] = operator_norm_check(op)
    violations = [f"{name} check failed" for name, rep in sorted(reports.items()) if not rep.ok]

    artifacts: list = []
    with tr.span("cli.write_s"):
        _write(out_dir, "spectrum.csv", spectrum_to_csv(op), artifacts)
        structure = {name: json.loads(rep.to_json()) for name, rep in reports.items()}
        _write(out_dir, "structure.json", json.dumps(structure, indent=2, sort_keys=True), artifacts)
        resolved = {"potential": cfg["potential"], "N": cfg["N"], "d": cfg["d"], "gap": op.spectral_gap, "delta_W": op.delta_W}
        _write_manifest(out_dir, cfg, dict(resolved, violations=violations), artifacts, started)
    return artifacts


def replay(argv: list, out_dir: Path) -> tuple[float, dict]:
    """Run one op traced; return its wall seconds and its per-layer values."""
    tr = Tracer()
    started = time.time()
    t0 = time.perf_counter()
    args = cli.build_parser().parse_args(argv + ["--out", str(out_dir)])
    cfg = dict(DEFAULTS[args.command])
    cfg.update({k: v for k, v in vars(args).items() if v is not None and v is not False and k not in ("config", "assert_mode", "out")})
    out_dir.mkdir(parents=True, exist_ok=True)
    body = _gibbs if args.command == "gibbs" else _spectrum
    artifacts = body(cfg, out_dir, tr, started)
    wall = time.perf_counter() - t0

    values = tr.values
    values["cli.artifact_bytes"] = sum((out_dir / name).stat().st_size for name in artifacts + ["run-manifest.json"])
    values["cli.other_s"] = wall - sum(values[name] for name in STAGES)
    return wall, values
