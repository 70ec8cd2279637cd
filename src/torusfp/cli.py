"""Reproducible experiment runner: every module surfaced as a subcommand.

Runs read a JSON config (flags override file values), write CSV/JSON
artifacts plus a run-manifest, and exit 0 on success, 2 on validation
errors, 3 on a bound violation in --assert mode, and 64 on usage errors.
Report artifacts hold each report's fields followed by its verdict flags,
and every table is written as CSV, both through torusfp.report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import platform
import sys
import time
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import PreconditionError, TorusFpError, ValidationError
from .evolve import choose_T, decay_report, evolve, norm_and_max_principle_report
from .generator import build_generator, condition_number_check, operator_norm_check, poincare_report, spectrum_to_csv
from .lattice import constant_field, dft, discretize, make_lattice
from .potential import PeriodicMlp, cosine_potential, expcos_family, invcos_potential, mlp_potential, zero_potential
from .report import csv_text
from .sampler import _interpolation_chain, _sample_pipeline, estimate_mean, exact_mean, run_pipeline
from .semianalytic import (
    SemiAnalyticityParams,
    alias_witness,
    bernstein_from_semianalytic,
    fit_params,
    profile_to_csv,
    semi_norms,
    tail_bounds,
    tail_mass,
)
from .spectral import derivative_error_report

USAGE_EXIT = 64
VALIDATION_EXIT = 2
BOUND_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


class _Option(NamedTuple):
    """One config key of a subcommand, declared once for its flag and its
    config-file value.  A ``None`` default leaves the key out of the config
    unless it is given; a ``bool`` kind is a switch."""

    default: object
    kind: type
    help: str | None = None
    flag: str | None = None  # when not --KEY with "_" as "-"
    choices: tuple | None = None
    required: bool = False


class _Command(NamedTuple):
    help: str
    run: object  # (cfg, out_dir, artifacts) -> (resolved, violations, health)
    options: dict


#: Config keys parsed where they are used: a config file may give them as
#: numbers or strings, and ``z`` as a list.
_PARSED_WHERE_USED = frozenset({"M", "T", "z", "n_range"})


def build_parser() -> _Parser:
    parser = _Parser(prog="torusfp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", type=str, default=None, help="JSON config file; flags override its values")
        p.add_argument("--assert", dest="assert_mode", action="store_true", help="exit 3 on any bound violation")
        for key, opt in command.options.items():
            kind = {"action": "store_true"} if opt.kind is bool else {"type": opt.kind, "choices": opt.choices}
            flag = opt.flag or "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, default=None, help=opt.help, required=opt.required, **kind)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser :func:`main` reads its arguments with, built on its first
    call and shared by every later one in the process."""
    return build_parser()


def _resolve_config(args) -> dict:
    options = _COMMANDS[args.command].options
    cfg = {key: opt.default for key, opt in options.items() if opt.default is not None}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")
        for key in file_cfg:
            if key not in options:
                raise ValidationError(f"{args.command} takes no config key {key!r}")
        cfg.update(file_cfg)
    flags = vars(args)
    cfg.update({key: flags[key] for key in options if flags[key] is not None})
    for key, value in cfg.items():
        opt = options[key]
        # flags arrive typed by the parser, so only a config file can get these wrong
        if key not in _PARSED_WHERE_USED:
            kind = (int, float) if opt.kind is float else opt.kind
            if isinstance(value, bool) != (opt.kind is bool) or not isinstance(value, kind):
                raise ValidationError(f"config value {key}={value!r} has the wrong type")
            if opt.choices and value not in opt.choices:
                raise ValidationError(f"{key} must be {' or '.join(opt.choices)}, got {value!r}")
        # argparse and json both read nan and inf as floats
        if opt.kind is float and isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{key} must be a finite number, got {value!r}")
    cfg["command"] = args.command
    return cfg


def _number(value, kind, key: str):
    """``kind(value)`` for a number or a numeric string, else a validation error."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}") from None


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
        return zero_potential(d, l)
    if kind == "cosine":
        return cosine_potential(_spec_number(kv, "z", 1.0), d, l)
    if kind == "invcos":
        if d != 1:
            raise ValidationError("invcos potential is one-dimensional")
        return invcos_potential(_spec_number(kv, "z", 4.0), l)
    # kind == "mlp"
    path = kv.get("file")
    if not path:
        raise ValidationError("mlp potential needs file=PATH with JSON weights")
    mlp = PeriodicMlp.from_json(Path(path).read_text())
    # the run's d and l are the recorded --d and --l: a document that would
    # set others is refused, not followed
    if (mlp.d, mlp.l) != (d, l):
        raise ValidationError(f"MLP document has d={mlp.d}, l={mlp.l} but the run has --d {d}, --l {l}")
    return mlp_potential(mlp)


def _parse_range(text: str):
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(text)]
    except (TypeError, ValueError):
        raise ValidationError(f"range {text!r} is not an integer or LO..HI") from None
    if not values:
        raise ValidationError(f"range {text!r} is empty: LO must not exceed HI")
    return values


def _write(out_dir: Path, name: str, text: str | Iterable[str], artifacts: list) -> None:
    """Write an artifact from its text, or from an iterable of text pieces,
    which are written one by one so that a large table is never held whole."""
    with open(out_dir / name, "w") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
    artifacts.append(name)


def _manifest(out_dir: Path, cfg: dict, resolved: dict, health: dict, artifacts: list, started: float) -> None:
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
    # how the numbers were computed, not what was asked: outside config_hash
    if health:
        doc["health"] = health
    (out_dir / "run-manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (resolved, violations, health), where
# health holds the operator's and the propagation's numerical health


def _cmd_derive_check(cfg, out_dir, artifacts):
    u, gu, lu, C, a, _ = expcos_family(_number(cfg["z"], float, "z"), l=cfg["l"])
    params = SemiAnalyticityParams(C, a)
    rows = []
    violations = []
    for N in _parse_range(cfg["n_range"]):
        try:
            rep = derivative_error_report(u, gu, lu, make_lattice(1, N, cfg["l"]), params)
        except PreconditionError:
            continue
        rows.append(
            [N, repr(rep.measured_first), repr(rep.bound_first), repr(rep.measured_second), repr(rep.bound_second), rep.violated]
        )
        if rep.violated:
            violations.append(f"derivative envelope violated at N={N}")
    header = ["N", "measured_first", "bound_first", "measured_second", "bound_second", "violated"]
    _write(out_dir, "derive_check.csv", csv_text(header, rows), artifacts)
    return {"z": cfg["z"], "l": cfg["l"], "C": C, "a": a}, violations, {}


def _cmd_interpolate(cfg, out_dir, artifacts):
    zs = cfg["z"]
    if isinstance(zs, str) and ".." in zs:
        zs = [float(v) for v in _parse_range(zs)]
    elif not isinstance(zs, list):
        zs = [_number(zs, float, "z")]
    elif not all(isinstance(z, (int, float)) for z in zs):
        raise ValidationError(f"z must be a number, a range LO..HI or a list of numbers, got {zs!r}")
    M = _number(cfg["M"], int, "M")
    rows = []
    violations = []
    for z in zs:
        if cfg["family"] == "expcos":
            u, _, _, _, a, u_hat = expcos_family(z, l=cfg["l"])
        else:
            meta = invcos_potential(z, cfg["l"]).meta
            u, u_hat, a = meta["u"], meta["u_hat"], max(8.0, 8.0 / (z - 1))
        n_min = math.ceil(a) + 2  # a >= 1 in both families
        for N in range(n_min, n_min + 10):
            _, dist, _, tv_at = _interpolation_chain(u, u_hat, make_lattice(1, N, cfg["l"]), max(80, 4 * N))
            tv = tv_at(M)
            rows.append([cfg["family"], z, repr(a), N, repr(dist), repr(tv)])
            if N == n_min and tv >= 0.1:
                violations.append(f"sampling error {tv:.3f} >= 0.1 at z={z}, N={N}")
            if dist < 1e-14:
                break
    _write(out_dir, cfg["emit"], csv_text(["family", "z", "a_bound", "N", "distance", "tv"], rows), artifacts)
    return {"family": cfg["family"], "z_values": zs, "M": M}, violations, {}


def _cmd_spectrum(cfg, out_dir, artifacts):
    E = _parse_potential(cfg["potential"], cfg["d"], cfg["l"])
    lat = make_lattice(cfg["d"], cfg["N"], cfg["l"])
    op = build_generator(E, lat, halve=not cfg.get("full_potential", False))
    cn = condition_number_check(op)
    pr = poincare_report(op)
    reports = {"condition_number": cn.as_dict(), "poincare": pr.as_dict()}
    violations = []
    if lat.N > 3:
        on = operator_norm_check(op)
        reports["operator_norm"] = on.as_dict()
        if not on.ok:
            violations.append("operator norm bound violated")
    if not cn.ok:
        violations.append("condition number bound violated")
    if not pr.ok:
        violations.append("spectral gap fell below the universal floor")
    _write(out_dir, "spectrum.csv", spectrum_to_csv(op), artifacts)
    _write(out_dir, "structure.json", json.dumps(reports, indent=2, sort_keys=True), artifacts)
    resolved = {"potential": cfg["potential"], "N": cfg["N"], "d": cfg["d"], "gap": op.spectral_gap, "delta_W": op.delta_W}
    return resolved, violations, op.health


def _cmd_evolve(cfg, out_dir, artifacts):
    T = cfg["T"]
    if T != "auto":
        T = _number(T, float, "T")
        if not (math.isfinite(T) and T > 0):  # T = 0 leaves one snapshot, nothing to fit
            raise ValidationError(f"T must be finite and > 0, got T={T}")
    E = _parse_potential(cfg["potential"], cfg["d"], cfg["l"])
    lat = make_lattice(cfg["d"], cfg["N"], cfg["l"])
    op = build_generator(E, lat)
    if T == "auto":
        T = choose_T(1.0 / op.spectral_gap, E.diameter, cfg["eps"])
    res = evolve(op, constant_field(lat), T, snapshots=cfg["snapshots"])
    dec = decay_report(op, res)
    nrm = norm_and_max_principle_report(op, res)
    violations = []
    if not (dec.rate_vs_gap_ok and dec.rate_vs_floor_ok):
        violations.append("chi-square decay rate below 95% of the expected rate")
    if not (nrm.max_norm_ok and nrm.min_norm_ok and nrm.inner_ok):
        violations.append("norm/mass trace bound violated")
    _write(out_dir, "traces.csv", res.csv_chunks(), artifacts)
    _write(
        out_dir,
        "evolution.json",
        json.dumps({"decay": dec.as_dict(), "norms": nrm.as_dict()}, indent=2, sort_keys=True),
        artifacts,
    )
    resolved = {"potential": cfg["potential"], "T": T, "snapshots": cfg["snapshots"], "gap": op.spectral_gap}
    return resolved, violations, {**op.health, **res.health}


def _cmd_gibbs(cfg, out_dir, artifacts):
    E = _parse_potential(cfg["potential"], cfg["d"], cfg["l"])
    M = cfg["M"]
    T = cfg["T"]
    if cfg.get("auto"):
        M = "auto"
        T = "auto"
    result = run_pipeline(
        E,
        N=cfg["N"],
        M=None if M in (None, "auto") else _number(M, int, "M"),
        T=None if T in (None, "auto") else _number(T, float, "T"),
        eps=cfg["eps"],
        count=cfg["samples"],
        seed=cfg["seed"],
        M_cap=cfg["m_cap"],
        subcells=cfg["subcells"],
    )
    _write(out_dir, "samples.csv", result.batch.csv_chunks(), artifacts)
    _write(out_dir, "tv.json", result.tv_report.to_json(), artifacts)
    violations = []
    if result.tv_report.tv > cfg["eps"]:
        violations.append(f"pipeline TV {result.tv_report.tv:.4f} exceeded eps {cfg['eps']}")
    return result.resolved, violations, result.health


def _cmd_analyze(cfg, out_dir, artifacts):
    E = _parse_potential(cfg["potential"], cfg["d"], cfg["l"])
    spec = dft(discretize(lambda p: np.exp(-E.evaluate(p)), make_lattice(cfg["d"], cfg["N"], cfg["l"])))
    profile = semi_norms(spec, cfg["m_max"])
    params = fit_params(profile)
    bern = bernstein_from_semianalytic(params, profile[0])
    tails = [
        dict(tail_bounds(params, profile[0], t).as_dict(), mass=tail_mass(spec, t))
        for t in range(0, 2 * cfg["N"], max(1, cfg["N"] // 4))
    ]
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
    return {"potential": cfg["potential"], "C": params.C, "a": params.a}, violations, {}


def _cmd_witness(cfg, out_dir, artifacts):
    _, _, rep = alias_witness(C=cfg["C"], a=cfg["a"], N=cfg["N"], theta=cfg["theta"], l=cfg["l"])
    _write(out_dir, "witness.json", rep.to_json(), artifacts)
    violations = []
    if rep.discretization_mismatch > 1e-12:
        violations.append("witness discretizations disagree beyond 1e-12")
    if not rep.separated:
        violations.append("witness TV fell below the adversary floor")
    return {"a": cfg["a"], "theta": cfg["theta"], "N": cfg["N"], "tv": rep.tv, "floor": rep.tv_floor}, violations, {}


def _cmd_mean(cfg, out_dir, artifacts):
    E = _parse_potential(cfg["potential"], cfg["d"], cfg["l"])
    # run_pipeline without its TV, which mean.json does not hold
    result = _sample_pipeline(E, N=cfg["N"], eps=cfg["eps"], count=cfg["samples"], seed=cfg["seed"])

    def observable(pts):
        return np.cos(2 * np.pi * np.asarray(pts)[..., 0] / cfg["l"])

    est = estimate_mean(observable, result.batch)
    exact = exact_mean(observable, E)
    doc = dict(est.as_dict(), exact=exact, abs_error=abs(est.mean - exact))
    _write(out_dir, "mean.json", json.dumps(doc, indent=2, sort_keys=True), artifacts)
    violations = []
    if abs(est.mean - exact) > 4 * max(est.stderr, 1e-12):
        violations.append("sample mean more than 4 standard errors from the quadrature value")
    resolved = dict(result.resolved)
    resolved.update({"observable": "cos", "samples": cfg["samples"]})
    return resolved, violations, result.health


#: Options every subcommand takes, and the groups several of them share.
#: Only the stochastic subcommands, gibbs and mean, declare ``seed``.
_COMMON = {"out": _Option("torusfp-out", str, "output directory (default torusfp-out)")}
_SEED = _Option(None, int, "RNG seed (required: stochastic subcommand)", required=True)
_L = _Option(1.0, float)
_LATTICE = {"potential": _Option("cosine:z=1", str), "d": _Option(1, int), "N": _Option(16, int), "l": _L}
_TIME = _Option("auto", str, "time or 'auto'")

_COMMANDS = {
    "derive-check": _Command("spectral derivative errors vs envelopes", _cmd_derive_check, {
        **_COMMON, "z": _Option(2.0, float), "l": _L,
        "n_range": _Option("8..32", str, "like 8..64", flag="--N-range")}),
    "interpolate": _Command("sampling-error-vs-N tables for the smooth families", _cmd_interpolate, {
        **_COMMON, "family": _Option("expcos", str, choices=("expcos", "invcos")),
        "z": _Option("1..8", str, "single value or range like 1..8"), "M": _Option(200, int), "l": _L,
        "emit": _Option("interpolation.csv", str, "CSV filename for the error table")}),
    "spectrum": _Command("generator assembly and structure checks", _cmd_spectrum, {
        **_COMMON, **_LATTICE, "full_potential": _Option(None, bool, "evolve W = E instead of E/2")}),
    "evolve": _Command("evolution traces and norm reports", _cmd_evolve, {
        **_COMMON, **_LATTICE, "T": _TIME, "eps": _Option(0.05, float), "snapshots": _Option(20, int)}),
    "gibbs": _Command("end-to-end sampling pipeline", _cmd_gibbs, {
        **_COMMON, "seed": _SEED, **_LATTICE, "M": _Option("auto", str, "half-width or 'auto'"), "T": _TIME,
        "auto": _Option(None, bool, "resolve both T and M automatically"),
        "eps": _Option(0.05, float), "samples": _Option(10000, int),
        "m_cap": _Option(512, int, flag="--M-cap"), "subcells": _Option(32, int)}),
    "analyze": _Command("semi-analyticity profile and tail bounds", _cmd_analyze, {
        **_COMMON, **_LATTICE, "m_max": _Option(10, int)}),
    "witness": _Command("aliasing lower-bound witness", _cmd_witness, {
        **_COMMON, "C": _Option(1.0, float), "a": _Option(320.0, float), "theta": _Option(0.5, float),
        "N": _Option(10, int), "l": _L}),
    "mean": _Command("Gibbs mean estimation for a periodic observable", _cmd_mean, {
        **_COMMON, "seed": _SEED, **_LATTICE, "potential": _Option("cosine:z=2", str),
        "eps": _Option(0.01, float), "samples": _Option(100000, int)}),
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.time()
    try:
        cfg = _resolve_config(args)
        out_dir = Path(cfg.get("out") or "torusfp-out")
        out_dir.mkdir(parents=True, exist_ok=True)
        artifacts: list = []
        resolved, violations, health = _COMMANDS[args.command].run(cfg, out_dir, artifacts)
        resolved = dict(resolved)
        resolved["violations"] = violations
        _manifest(out_dir, cfg, resolved, health, artifacts, started)
    except (TorusFpError, OSError, json.JSONDecodeError) as exc:
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
