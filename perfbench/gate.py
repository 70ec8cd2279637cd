"""Per-op correctness gate.

Every op, CLI or traced replay, writes into a directory of its own. The gate
reads what it wrote there and compares it with the references recorded in
``workloads.json``. An op that fails any check counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent

GIBBS_ARTIFACTS = ["samples.csv", "tv.json"]
SPECTRUM_ARTIFACTS = ["spectrum.csv", "structure.json"]
SPECTRUM_REPORTS = {"condition_number", "operator_norm", "poincare"}
# relative shift applied to the reference gap by --perturb-reference
PERTURBATION = 1e-6


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_eigenvalues(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["index", "eigenvalue"]:
        raise ValueError(f"{path.name} has header {rows[0]}")
    return [float(row[1]) for row in rows[1:]]


def flag_value(argv: list, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def mismatches(got: dict, want: dict, tol: dict, what: str) -> list:
    """Where the fingerprint ``got`` differs from ``want`` beyond the tolerances."""
    found = []
    if not math.isclose(got["gap"], want["gap"], rel_tol=tol["gap_rel"], abs_tol=0.0):
        found.append(f"gap {got['gap']!r} differs from the {what} {want['gap']!r}")
    if "tv" in want and abs(got["tv"] - want["tv"]) > tol["tv_abs"]:
        found.append(f"TV {got['tv']!r} differs from the {what} {want['tv']!r}")
    if "M" in want and got["M"] != want["M"]:
        found.append(f"M={got['M']} differs from the {what} M={want['M']}")
    if "eigenvalues" in want:
        ref = want["eigenvalues"]
        if len(got["eigenvalues"]) != len(ref):
            found.append(f"{len(got['eigenvalues'])} eigenvalues, the {what} has {len(ref)}")
        else:
            worst = max(abs(a - b) for a, b in zip(got["eigenvalues"], ref))
            if worst > tol["eigenvalue_abs_rel_to_max"] * max(abs(v) for v in ref):
                found.append(f"eigenvalues differ from the {what} by up to {worst:.3e}")
    return found


class Gate:
    """Checks one workload's ops; remembers digests to test repeatability."""

    def __init__(self, spec: dict, tolerances: dict, default_seed: int, perturb: bool = False):
        self.argv = spec["argv"]
        self.kind = self.argv[0]
        self.ref = dict(spec["reference"])
        self.tol = tolerances
        self.default_seed = default_seed
        if perturb:
            self.ref["gap"] *= 1 + PERTURBATION
        if self.kind == "spectrum":
            self.ref["eigenvalues"] = read_eigenvalues(HERE / self.ref["eigenvalues"])
        self.digests: dict = {}  # seed -> first samples.csv digest seen

    def check(self, out_dir: Path, seed: int | None) -> tuple[list, dict]:
        """Return (failures, fingerprint) for the artifacts in ``out_dir``."""
        try:
            if self.kind == "gibbs":
                return self._check_gibbs(out_dir, seed)
            return self._check_spectrum(out_dir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable artifacts: {exc!r}"], {}

    def _manifest(self, out_dir: Path, expected: list, failures: list) -> dict:
        manifest = json.loads((out_dir / "run-manifest.json").read_text())
        if sorted(manifest["artifacts"]) != expected:
            failures.append(f"manifest lists {manifest['artifacts']}, expected {expected}")
        return manifest["resolved"]

    def _check_gibbs(self, out_dir: Path, seed: int) -> tuple[list, dict]:
        failures: list = []
        resolved = self._manifest(out_dir, GIBBS_ARTIFACTS, failures)
        fingerprint = {
            "tv": float(json.loads((out_dir / "tv.json").read_text())["tv"]),
            "gap": float(resolved["gap"]),
            "M": int(resolved["M"]),
            "samples_sha256": sha256_file(out_dir / "samples.csv"),
        }
        failures += mismatches(fingerprint, self.ref, self.tol, "reference")
        eps = float(flag_value(self.argv, "--eps"))
        if not fingerprint["tv"] <= eps:
            failures.append(f"TV {fingerprint['tv']!r} exceeds eps {eps}")
        digest = fingerprint["samples_sha256"]
        if digest != self.digests.setdefault(seed, digest):
            failures.append(f"samples.csv differs from an earlier op with seed {seed}")
        if seed == self.default_seed and digest != self.ref["samples_sha256"]:
            failures.append(f"samples.csv digest {digest[:16]} differs from the reference at seed {seed}")
        return failures, fingerprint

    def _check_spectrum(self, out_dir: Path) -> tuple[list, dict]:
        failures: list = []
        resolved = self._manifest(out_dir, SPECTRUM_ARTIFACTS, failures)
        reports = json.loads((out_dir / "structure.json").read_text())
        fingerprint = {"gap": float(resolved["gap"]), "eigenvalues": read_eigenvalues(out_dir / "spectrum.csv")}
        failures += mismatches(fingerprint, self.ref, self.tol, "reference")
        if set(reports) != SPECTRUM_REPORTS:
            failures.append(f"structure.json holds {sorted(reports)}, expected {sorted(SPECTRUM_REPORTS)}")
        failures += [f"structure.json: {name} is not ok" for name, rep in sorted(reports.items()) if rep.get("ok") is not True]
        return failures, fingerprint
