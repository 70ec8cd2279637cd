"""Reproducible experiment runner: every module surfaced as a subcommand.

Runs read a JSON config (flags override file values), write CSV/JSON
artifacts plus a run-manifest, and exit 0 on success, 2 on validation
errors, 3 on a bound violation in --assert mode, and 64 on usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from pathlib import Path

from .errors import TorusFpError, ValidationError

USAGE_EXIT = 64
VALIDATION_EXIT = 2
BOUND_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def _add_common(p, seed_required=False):
    p.add_argument("--config", type=str, default=None, help="JSON config file; flags override its values")
    p.add_argument("--out", type=str, default=None, help="output directory (default torusfp-out)")
    p.add_argument("--assert", dest="assert_mode", action="store_true", help="exit 3 on any bound violation")
    if seed_required:
        p.add_argument("--seed", type=int, required=True, help="RNG seed (required: stochastic subcommand)")
    else:
        p.add_argument("--seed", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="torusfp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("derive-check", help="spectral derivative errors vs envelopes")
    _add_common(p)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--N-range", dest="n_range", type=str, default=None, help="like 8..64")

    p = sub.add_parser("interpolate", help="sampling-error-vs-N tables for the smooth families")
    _add_common(p)
    p.add_argument("--family", choices=["expcos", "invcos"], default=None)
    p.add_argument("--z", type=str, default=None, help="single value or range like 1..8")
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--emit", type=str, default=None, help="CSV filename for the error table")

    p = sub.add_parser("spectrum", help="generator assembly and structure checks")
    _add_common(p)
    p.add_argument("--potential", type=str, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--full-potential", action="store_true", help="evolve W = E instead of E/2")

    p = sub.add_parser("evolve", help="evolution traces and norm reports")
    _add_common(p)
    p.add_argument("--potential", type=str, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--T", type=str, default=None, help="time or 'auto'")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--snapshots", type=int, default=None)

    p = sub.add_parser("gibbs", help="end-to-end sampling pipeline")
    _add_common(p, seed_required=True)
    p.add_argument("--potential", type=str, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--M", type=str, default=None, help="half-width or 'auto'")
    p.add_argument("--T", type=str, default=None, help="time or 'auto'")
    p.add_argument("--auto", action="store_true", help="resolve both T and M automatically")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--M-cap", dest="m_cap", type=int, default=None)
    p.add_argument("--subcells", type=int, default=None)

    p = sub.add_parser("analyze", help="semi-analyticity profile and tail bounds")
    _add_common(p)
    p.add_argument("--potential", type=str, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)

    p = sub.add_parser("witness", help="aliasing lower-bound witness")
    _add_common(p)
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--l", type=float, default=None)

    p = sub.add_parser("mean", help="Gibbs mean estimation for a periodic observable")
    _add_common(p, seed_required=True)
    p.add_argument("--potential", type=str, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)

    return parser


_DEFAULTS = {
    "derive-check": {"z": 2.0, "l": 1.0, "n_range": "8..32", "out": "torusfp-out"},
    "interpolate": {"family": "expcos", "z": "1..8", "M": 200, "l": 1.0, "emit": "interpolation.csv", "out": "torusfp-out"},
    "spectrum": {"potential": "cosine:z=1", "d": 1, "N": 16, "l": 1.0, "out": "torusfp-out"},
    "evolve": {"potential": "cosine:z=1", "d": 1, "N": 16, "l": 1.0, "T": "auto", "eps": 0.05, "snapshots": 20, "out": "torusfp-out"},
    "gibbs": {"potential": "cosine:z=1", "d": 1, "N": 16, "l": 1.0, "M": "auto", "T": "auto", "eps": 0.05, "samples": 10000, "m_cap": 512, "subcells": 32, "out": "torusfp-out"},
    "analyze": {"potential": "cosine:z=1", "d": 1, "N": 16, "l": 1.0, "m_max": 10, "out": "torusfp-out"},
    "witness": {"C": 1.0, "a": 320.0, "theta": 0.5, "N": 10, "l": 1.0, "out": "torusfp-out"},
    "mean": {"potential": "cosine:z=2", "d": 1, "N": 16, "l": 1.0, "eps": 0.01, "samples": 100000, "out": "torusfp-out"},
}


def _resolve_config(args) -> dict:
    cfg = dict(_DEFAULTS.get(args.command, {}))
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        cfg.update(file_cfg)
    for key, value in vars(args).items():
        if key in ("config", "command", "assert_mode"):
            continue
        if value is not None and value is not False:
            cfg[key] = value
    cfg["command"] = args.command
    return cfg


#: The keys each potential kind accepts in ``--potential KIND:KEY=VALUE,...``.
_POTENTIAL_KEYS = {"zero": (), "cosine": ("z",), "invcos": ("z",), "mlp": ("file",)}


def _spec_number(kv: dict, key: str, default: float) -> float:
    text = kv.get(key)
    if text is None:
        return default
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"potential parameter {key}={text!r} is not a finite number")
    return value


def _parse_potential(spec: str, d: int, l: float):
    from . import potential as pot

    kind, _, rest = spec.partition(":")
    if kind not in _POTENTIAL_KEYS:
        raise ValidationError(f"unknown potential kind {kind!r}")
    kv = {}
    for item in rest.split(","):
        if item:
            key, _, val = item.partition("=")
            if key not in _POTENTIAL_KEYS[kind]:
                raise ValidationError(f"{kind} potential takes no parameter {key!r}")
            kv[key] = val
    if kind == "zero":
        return pot.zero_potential(d, l)
    if kind == "cosine":
        return pot.cosine_potential(_spec_number(kv, "z", 1.0), d, l)
    if kind == "invcos":
        if d != 1:
            raise ValidationError("invcos potential is one-dimensional")
        return pot.invcos_potential(_spec_number(kv, "z", 4.0), l)
    # kind == "mlp"
    path = kv.get("file")
    if not path:
        raise ValidationError("mlp potential needs file=PATH with JSON weights")
    return pot.mlp_potential(pot.PeriodicMlp.from_json(Path(path).read_text()))


def _parse_range(text: str):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _write(out_dir: Path, name: str, text: str, artifacts: list) -> None:
    path = out_dir / name
    path.write_text(text)
    artifacts.append(name)


def _manifest(out_dir: Path, cfg: dict, resolved: dict, artifacts: list, started: float) -> None:
    import numpy as np

    from . import __version__

    # the output directory is incidental to the experiment: keep it out of
    # the recorded config and its hash
    cfg = {k: v for k, v in cfg.items() if k != "out"}
    canonical = json.dumps({k: v for k, v in sorted(cfg.items())}, sort_keys=True)
    doc = {
        "config": cfg,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "resolved": resolved,
        "artifacts": sorted(artifacts),
        "versions": {
            "torusfp": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": time.time() - started,
    }
    (out_dir / "run-manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (resolved, violations)


def _cmd_derive_check(cfg, out_dir, artifacts):
    import numpy as np

    from .errors import PreconditionError
    from .lattice import make_lattice
    from .potential import expcos_family
    from .semianalytic import SemiAnalyticityParams
    from .spectral import derivative_error_report

    u, gu, lu, C, a, _ = expcos_family(cfg["z"], l=cfg["l"])
    params = SemiAnalyticityParams(C, a)
    rows = ["N,measured_first,bound_first,measured_second,bound_second,violated"]
    violations = []
    for N in _parse_range(cfg["n_range"]):
        try:
            rep = derivative_error_report(u, gu, lu, make_lattice(1, N, cfg["l"], cap=None), params)
        except PreconditionError:
            continue
        rows.append(
            f"{N},{rep.measured_first!r},{rep.bound_first!r},{rep.measured_second!r},{rep.bound_second!r},{rep.violated}"
        )
        if rep.violated:
            violations.append(f"derivative envelope violated at N={N}")
    _write(out_dir, "derive_check.csv", "\n".join(rows) + "\n", artifacts)
    return {"z": cfg["z"], "l": cfg["l"], "C": C, "a": a}, violations


def _cmd_interpolate(cfg, out_dir, artifacts):
    import numpy as np

    from .lattice import GridField, discretize, make_lattice
    from .potential import expcos_family, invcos_potential
    from .sampler import density_tv_quadrature, normalized_series_distance, upsample

    zs = cfg["z"]
    if isinstance(zs, str) and ".." in zs:
        lo, hi = zs.split("..")
        zs = [float(v) for v in range(int(lo), int(hi) + 1)]
    elif isinstance(zs, (str, int, float)):
        zs = [float(zs)]
    M = cfg["M"]
    rows = ["family,z,a_bound,N,distance,tv"]
    violations = []
    for z in zs:
        if cfg["family"] == "expcos":
            u, _, _, C, a, u_hat = expcos_family(z, l=cfg["l"])
        else:
            pot = invcos_potential(z, cfg["l"])
            u, u_hat = pot.meta["u"], pot.meta["u_hat"]
            a = max(8.0, 8.0 / (z - 1))
        n_min = math.ceil(max(1.0, a if cfg["family"] == "invcos" else z / 2)) + 2
        for N in range(n_min, n_min + 10):
            lat = make_lattice(1, N, cfg["l"], cap=None)
            fld = discretize(u, lat)
            state = GridField(lat, fld.values / fld.norm(), is_real=True)
            dist = normalized_series_distance(state, u_hat, k_max=max(80, 4 * N))
            tv = density_tv_quadrature(upsample(state, max(M, N)), lambda p: np.asarray(u(p)) ** 2)
            rows.append(f"{cfg['family']},{z},{a!r},{N},{dist!r},{tv!r}")
            if N == n_min and tv >= 0.1:
                violations.append(f"sampling error {tv:.3f} >= 0.1 at z={z}, N={N}")
            if dist < 1e-14:
                break
    _write(out_dir, cfg["emit"], "\n".join(rows) + "\n", artifacts)
    return {"family": cfg["family"], "z_values": zs, "M": M}, violations


def _cmd_spectrum(cfg, out_dir, artifacts):
    from .generator import (
        build_generator,
        condition_number_check,
        operator_norm_check,
        poincare_report,
        spectrum_to_csv,
    )
    from .lattice import make_lattice

    E = _parse_potential(cfg["potential"], cfg["d"], cfg["l"])
    lat = make_lattice(cfg["d"], cfg["N"], cfg["l"])
    op = build_generator(E, lat, halve=not cfg.get("full_potential", False))
    cn = condition_number_check(op)
    pr = poincare_report(op)
    reports = {"condition_number": json.loads(cn.to_json()), "poincare": json.loads(pr.to_json())}
    violations = []
    if lat.N > 3:
        on = operator_norm_check(op)
        reports["operator_norm"] = json.loads(on.to_json())
        if not on.ok:
            violations.append("operator norm bound violated")
    if not cn.ok:
        violations.append("condition number bound violated")
    if not pr.ok:
        violations.append("spectral gap fell below the universal floor")
    _write(out_dir, "spectrum.csv", spectrum_to_csv(op), artifacts)
    _write(out_dir, "structure.json", json.dumps(reports, indent=2, sort_keys=True), artifacts)
    return {"potential": cfg["potential"], "N": cfg["N"], "d": cfg["d"], "gap": op.spectral_gap, "delta_W": op.delta_W}, violations


def _cmd_evolve(cfg, out_dir, artifacts):
    from .evolve import choose_T, decay_report, evolve, norm_and_max_principle_report, traces_to_csv
    from .generator import build_generator
    from .lattice import constant_field, make_lattice

    E = _parse_potential(cfg["potential"], cfg["d"], cfg["l"])
    lat = make_lattice(cfg["d"], cfg["N"], cfg["l"])
    op = build_generator(E, lat)
    T = cfg["T"]
    if T == "auto":
        T = choose_T(1.0 / op.spectral_gap, E.diameter, cfg["eps"])
    else:
        T = float(T)
    res = evolve(op, constant_field(lat), T, snapshots=cfg["snapshots"], chi2=True)
    dec = decay_report(op, res)
    nrm = norm_and_max_principle_report(op, res)
    violations = []
    if not (dec.rate_vs_gap_ok and dec.rate_vs_floor_ok):
        violations.append("chi-square decay rate below 95% of the expected rate")
    if not (nrm.max_norm_ok and nrm.min_norm_ok and nrm.inner_ok):
        violations.append("norm/mass trace bound violated")
    _write(out_dir, "traces.csv", traces_to_csv(res), artifacts)
    _write(
        out_dir,
        "evolution.json",
        json.dumps({"decay": json.loads(dec.to_json()), "norms": json.loads(nrm.to_json())}, indent=2, sort_keys=True),
        artifacts,
    )
    return {"potential": cfg["potential"], "T": T, "snapshots": cfg["snapshots"], "gap": op.spectral_gap}, violations


def _cmd_gibbs(cfg, out_dir, artifacts):
    from .sampler import run_pipeline

    E = _parse_potential(cfg["potential"], cfg["d"], cfg["l"])
    M = cfg["M"]
    T = cfg["T"]
    if cfg.get("auto"):
        M = "auto"
        T = "auto"
    result = run_pipeline(
        E,
        N=cfg["N"],
        M=None if M in (None, "auto") else int(M),
        T=None if T in (None, "auto") else float(T),
        eps=cfg["eps"],
        count=cfg["samples"],
        seed=cfg["seed"],
        M_cap=cfg["m_cap"],
        subcells=cfg["subcells"],
    )
    _write(out_dir, "samples.csv", result.batch.to_csv(), artifacts)
    _write(out_dir, "tv.json", result.tv_report.to_json(), artifacts)
    violations = []
    if result.tv_report.tv > cfg["eps"]:
        violations.append(f"pipeline TV {result.tv_report.tv:.4f} exceeded eps {cfg['eps']}")
    return result.resolved, violations


def _cmd_analyze(cfg, out_dir, artifacts):
    from .lattice import dft, discretize, make_lattice
    from .semianalytic import (
        bernstein_from_semianalytic,
        fit_params,
        profile_to_csv,
        semi_norms,
        tail_bounds,
        tail_mass,
    )

    E = _parse_potential(cfg["potential"], cfg["d"], cfg["l"])
    lat = make_lattice(cfg["d"], cfg["N"], cfg["l"], cap=None)
    import numpy as np

    fld = discretize(lambda p: np.exp(-E.evaluate(p)), lat)
    spec = dft(fld)
    profile = semi_norms(spec, cfg["m_max"])
    params = fit_params(profile)
    bern = bernstein_from_semianalytic(params, profile[0])
    tails = []
    for t in range(0, 2 * cfg["N"], max(1, cfg["N"] // 4)):
        tb = tail_bounds(params, profile[0], t)
        tails.append({"t": t, "mass": tail_mass(spec, t), "mass_bound": tb.mass_bound, "amplitude_bound": tb.amplitude_bound})
    _write(out_dir, "profile.csv", profile_to_csv(profile, params), artifacts)
    _write(
        out_dir,
        "params.json",
        json.dumps(
            {"C": params.C, "a": params.a, "U": profile[0], "bernstein": {"A": bern.A, "b": bern.b}, "tails": tails},
            indent=2,
            sort_keys=True,
        ),
        artifacts,
    )
    violations = [f"tail mass exceeded bound at t={row['t']}" for row in tails if row["mass"] > row["mass_bound"]]
    return {"potential": cfg["potential"], "C": params.C, "a": params.a}, violations


def _cmd_witness(cfg, out_dir, artifacts):
    from .semianalytic import alias_witness

    _, _, rep = alias_witness(C=cfg["C"], a=cfg["a"], N=cfg["N"], theta=cfg["theta"], l=cfg["l"])
    _write(out_dir, "witness.json", rep.to_json(), artifacts)
    violations = []
    if rep.discretization_mismatch > 1e-12:
        violations.append("witness discretizations disagree beyond 1e-12")
    if not rep.separated:
        violations.append("witness TV fell below the adversary floor")
    return {"a": cfg["a"], "theta": cfg["theta"], "N": cfg["N"], "tv": rep.tv, "floor": rep.tv_floor}, violations


def _cmd_mean(cfg, out_dir, artifacts):
    import numpy as np

    from .sampler import estimate_mean, exact_mean, run_pipeline

    E = _parse_potential(cfg["potential"], cfg["d"], cfg["l"])
    result = run_pipeline(E, N=cfg["N"], eps=cfg["eps"], count=cfg["samples"], seed=cfg["seed"])

    def observable(pts):
        return np.cos(2 * np.pi * np.asarray(pts)[..., 0] / cfg["l"])

    est = estimate_mean(observable, result.batch)
    exact = exact_mean(observable, E)
    doc = {"mean": est.mean, "stderr": est.stderr, "count": est.count, "exact": exact, "abs_error": abs(est.mean - exact)}
    _write(out_dir, "mean.json", json.dumps(doc, indent=2, sort_keys=True), artifacts)
    violations = []
    if abs(est.mean - exact) > 4 * max(est.stderr, 1e-12):
        violations.append("sample mean more than 4 standard errors from the quadrature value")
    resolved = dict(result.resolved)
    resolved.update({"observable": "cos", "samples": cfg["samples"]})
    return resolved, violations


_COMMANDS = {
    "derive-check": _cmd_derive_check,
    "interpolate": _cmd_interpolate,
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "gibbs": _cmd_gibbs,
    "analyze": _cmd_analyze,
    "witness": _cmd_witness,
    "mean": _cmd_mean,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        cfg = _resolve_config(args)
        out_dir = Path(cfg.get("out") or "torusfp-out")
        out_dir.mkdir(parents=True, exist_ok=True)
        artifacts: list = []
        resolved, violations = _COMMANDS[args.command](cfg, out_dir, artifacts)
        resolved = dict(resolved)
        resolved["violations"] = violations
        _manifest(out_dir, cfg, resolved, artifacts, started)
    except TorusFpError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_EXIT
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_EXIT
    if violations:
        for item in violations:
            sys.stderr.write(f"bound violation: {item}\n")
        if args.assert_mode:
            return BOUND_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
