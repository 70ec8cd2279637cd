import csv
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusfp import cli, generator, lattice, sampler
from torusfp.cli import build_parser, main
from torusfp.lattice import RESOLUTION_CAP
from torusfp.potential import EnergyPotential, bessel_i, cosine_potential

from conftest import small_mlp
from oracles import generator_matrix

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args):
    return main(args)


def test_gibbs_run_and_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        [
            "gibbs",
            "--potential", "cosine:z=2",
            "--d", "1",
            "--N", "12",
            "--l", "1.0",
            "--auto",
            "--eps", "0.05",
            "--samples", "500",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    samples = (out / "samples.csv").read_text()
    assert samples.startswith("x0\n")
    assert len(samples.strip().split("\n")) == 501
    tv = json.loads((out / "tv.json").read_text())
    assert tv["tv"] <= 0.05
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["resolved"]["T_mode"] == "auto"
    assert "T" in manifest["resolved"] and "M" in manifest["resolved"]
    assert "config_hash" in manifest and "wall_time_s" in manifest
    assert sorted(manifest["artifacts"]) == ["samples.csv", "tv.json"]


def test_gibbs_determinism(tmp_path):
    args = [
        "gibbs", "--potential", "cosine:z=1", "--d", "1", "--N", "8", "--l", "1.0",
        "--auto", "--eps", "0.1", "--samples", "300", "--seed", "11",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    assert (out1 / "tv.json").read_bytes() == (out2 / "tv.json").read_bytes()
    m1 = json.loads((out1 / "run-manifest.json").read_text())
    m2 = json.loads((out2 / "run-manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": "cosine:z=1", "N": 8, "samples": 200, "eps": 0.1}))
    out = tmp_path / "run"
    code = run_cli(["gibbs", "--config", str(cfg), "--seed", "3", "--samples", "150", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["config"]["samples"] == 150  # flag wins
    assert manifest["config"]["N"] == 8  # file value survives


def test_witness_subcommand(tmp_path):
    out = tmp_path / "w"
    code = run_cli(["witness", "--a", "320", "--theta", "0.5", "--N", "10", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "witness.json").read_text())
    assert doc["discretization_mismatch"] <= 1e-12
    assert doc["tv"] >= doc["tv_floor"]


def test_interpolate_emits_table(tmp_path):
    out = tmp_path / "i"
    code = run_cli(
        ["interpolate", "--family", "expcos", "--z", "1..2", "--M", "200", "--emit", "errors.csv", "--out", str(out)]
    )
    assert code == 0
    rows = (out / "errors.csv").read_text().strip().split("\n")
    assert rows[0] == "family,z,a_bound,N,distance,tv"
    assert len(rows) > 4

    # single z value, also through a config file
    cfg = tmp_path / "interp.json"
    cfg.write_text(json.dumps({"family": "invcos", "z": 3.0, "M": 120}))
    out2 = tmp_path / "i2"
    assert run_cli(["interpolate", "--config", str(cfg), "--out", str(out2)]) == 0
    rows2 = (out2 / "interpolation.csv").read_text().strip().split("\n")
    assert all(line.startswith("invcos,3.0,") for line in rows2[1:])


def test_interpolate_far_along_the_expcos_family(tmp_path):
    # e^(2z) leaves float64 from z = 355: u, its series and the reference
    # density are divided by their peaks before they are squared, so the
    # table holds finite distances and TVs, with no RuntimeWarning
    out = tmp_path / "i"
    assert run_cli(["interpolate", "--z", "400", "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO((out / "interpolation.csv").read_text())))
    assert [int(row["N"]) for row in rows] == list(range(202, 212))
    assert all(math.isfinite(float(row["distance"])) and 0 <= float(row["tv"]) <= 1 for row in rows)


def test_spectrum_and_evolve_and_analyze(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["spectrum", "--potential", "cosine:z=1", "--d", "1", "--N", "12", "--l", "1.0", "--out", str(out)]) == 0
    structure = json.loads((out / "structure.json").read_text())
    assert structure["poincare"]["ok"]
    assert structure["condition_number"]["ok"]

    out2 = tmp_path / "e"
    assert run_cli(["evolve", "--potential", "cosine:z=1", "--d", "1", "--N", "12", "--l", "1.0", "--T", "auto", "--out", str(out2)]) == 0
    assert (out2 / "traces.csv").exists()

    out3 = tmp_path / "a"
    assert run_cli(["analyze", "--potential", "cosine:z=2", "--d", "1", "--N", "16", "--l", "1.0", "--out", str(out3)]) == 0
    params = json.loads((out3 / "params.json").read_text())
    assert params["C"] > 0 and params["a"] >= 0


def test_mean_subcommand(tmp_path):
    out = tmp_path / "m"
    code = run_cli(
        ["mean", "--potential", "cosine:z=2", "--d", "1", "--N", "12", "--eps", "0.05",
         "--samples", "20000", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "mean.json").read_text())
    assert abs(doc["mean"] - doc["exact"]) <= 4 * doc["stderr"]


HEALTH_RUNS = {
    "gibbs": ["gibbs", "--d", "2", "--N", "6", "--M", "6", "--samples", "100", "--seed", "1"],
    "gibbs-3d": ["gibbs", "--d", "3", "--N", "2", "--M", "2", "--samples", "100", "--seed", "1"],
    "evolve": ["evolve", "--d", "2", "--N", "4", "--snapshots", "4"],
    "spectrum": ["spectrum", "--d", "2", "--N", "4"],
    "evolve-mlp": ["evolve", "--potential", "mlp:file={weights}", "--d", "2", "--N", "4", "--l", "1", "--snapshots", "4"],
}
OPERATOR_HEALTH = {"backend", "gap_rounding"}
LANCZOS_GAP_HEALTH = {"gap_block_iterations", "lanczos_steps", "gap_residual", "lanczos_reorth_steps"}
PROPAGATION_HEALTH = {"krylov_steps", "krylov_error", "krylov_reorth_steps"}
NORM_HEALTH = {"norm_lanczos_steps", "norm_residual", "norm_reorth_steps"}
TV_HEALTH = {"tv_passes", "tv_eval_points"}
PIPELINE_HEALTH = TV_HEALTH | {"mixing_l2"}


@pytest.mark.parametrize("command", sorted(HEALTH_RUNS))
def test_manifest_health_block(tmp_path, command):
    out = tmp_path / command
    weights = tmp_path / "weights.json"
    weights.write_text(small_mlp(2, seed=3).to_json())
    assert run_cli([arg.format(weights=weights) for arg in HEALTH_RUNS[command]] + ["--out", str(out)]) == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    health = manifest["health"]
    # the default cosine is a sum over axes: its gap and propagation come
    # from the per-axis factors, with no iteration to report
    expected = set(OPERATOR_HEALTH)
    if command == "evolve-mlp":
        assert health["backend"] == "matrix-free"
        expected |= LANCZOS_GAP_HEALTH | PROPAGATION_HEALTH
        assert health["lanczos_steps"] > 0 and health["gap_residual"] >= 0
        assert 0 <= health["lanczos_reorth_steps"] <= health["lanczos_steps"]
        assert health["krylov_steps"] > 0
    else:
        assert health["backend"] == "separable"
    if command == "spectrum":
        # only spectrum reaches the whole spectrum, which for a sum over axes
        # at d = 2 is read off the per-axis factors: no dense block runs
        expected |= NORM_HEALTH
    if command == "gibbs":
        expected |= PIPELINE_HEALTH
        # the cosine is a sum over axes: one line of 13 * 32 midpoints per axis
        assert health["tv_passes"] == 1 and health["tv_eval_points"] == 2 * 13 * 32
    if command == "gibbs-3d":
        expected |= PIPELINE_HEALTH
        # the Monte Carlo TV: its points and the 63^3 fine-lattice nodes of the normalizer
        assert health["tv_passes"] == 1 and health["tv_eval_points"] == sampler.MC_POINTS + 63**3
    assert set(health) == expected
    # health describes how the numbers were computed: it stays out of the
    # config, its hash and the other artifacts
    canonical = json.dumps(dict(sorted(manifest["config"].items())), sort_keys=True)
    assert manifest["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest()
    assert not set(manifest["config"]) & set(health)
    for name in manifest["artifacts"]:
        text = (out / name).read_text()
        for key in ("lanczos", "krylov", "backend", "reorth", "tv_passes", "tv_eval_points", "mixing", "sectors"):
            assert key not in text, (name, key)


def test_spectrum_manifest_records_norm_health(tmp_path):
    from torusfp.generator import NORM_RTOL

    out = tmp_path / "s"
    assert run_cli(["spectrum", "--potential", "invcos:z=4", "--N", "40", "--out", str(out)]) == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    health = manifest["health"]
    assert set(health) == {"backend", "dense_sectors", "gap_rounding"} | NORM_HEALTH
    assert health["norm_lanczos_steps"] > 0
    assert 0 <= health["norm_residual"] <= NORM_RTOL
    # structure.json keeps its three reports and their keys
    structure = json.loads((out / "structure.json").read_text())
    assert set(structure) == {"condition_number", "operator_norm", "poincare"}
    assert set(structure["operator_norm"]) == {"measured", "bound", "log_branch", "exp_branch", "ok"}
    assert all(report["ok"] for report in structure.values())
    assert not set(manifest["config"]) & NORM_HEALTH


def sectors_only(assemble):
    """The dense assembler, which builds a sector block but fails on the
    whole L' (no sector)."""

    def checked(lattice, u, sector=None):
        if sector is None:
            raise AssertionError("the whole L' was assembled")
        return assemble(lattice, u, sector)

    return checked


def test_spectrum_assembles_the_dense_generator_once(tmp_path, monkeypatch):
    # the even d = 1 cosine splits into its even and odd reflection sectors:
    # one block and one values-only eigvalsh each; the d = 2 cosine is a sum
    # over axes, whose spectrum is read off the per-axis factors, with no
    # block and no eigvalsh or eigh of n rows; the whole L' is never assembled
    blocks, solved = [], []
    assemble, eigvalsh, eigh = generator._sector_block, np.linalg.eigvalsh, np.linalg.eigh
    whole = sectors_only(generator._dense_symmetrized)
    monkeypatch.setattr(generator, "_sector_block", lambda *a: blocks.append(a[2]) or assemble(*a))
    monkeypatch.setattr(generator, "_dense_symmetrized", whole)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: solved.append(len(a)) or eigh(a, *args, **kw))
    assert run_cli(["spectrum", "--d", "1", "--N", "6", "--out", str(tmp_path / "line")]) == 0
    assert blocks == [0, 1]
    assert solved[:2] == [7, 6] and max(solved[2:], default=0) < 13
    blocks.clear()
    solved.clear()
    assert run_cli(["spectrum", "--d", "2", "--N", "6", "--out", str(tmp_path / "s")]) == 0
    assert "operator_norm" in json.loads((tmp_path / "s" / "structure.json").read_text())
    assert blocks == []
    assert max(solved, default=0) < 13 * 13


@pytest.mark.parametrize("N", [3, 31])
def test_spectrum_d1_runs_no_eigendecomposition(tmp_path, monkeypatch, N):
    # spectrum.csv, the gap and the structure checks need no eigenvectors;
    # the norm check's Lanczos runs solve tridiagonals of fewer than n rows,
    # and the even potential's spectrum comes from its even and odd blocks:
    # no n x n array reaches eigvalsh or eigh, and L' is never assembled
    n = 2 * N + 1
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
    whole = sectors_only(generator._dense_symmetrized)

    def smaller(solve):
        def checked(a, *args, **kwargs):
            if len(a) >= n:
                raise AssertionError(f"{solve.__name__} of a {len(a)} x {len(a)} matrix")
            return solve(a, *args, **kwargs)

        return checked

    monkeypatch.setattr(generator, "_dense_symmetrized", whole)
    monkeypatch.setattr(np.linalg, "eigvalsh", smaller(eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", smaller(eigh))
    out = tmp_path / "s"
    assert run_cli(["spectrum", "--potential", "invcos:z=4", "--d", "1", "--N", str(N), "--out", str(out)]) == 0
    rows = (out / "spectrum.csv").read_text().strip().split("\n")
    assert len(rows) == n + 1 and rows[1] == "0,0.0"
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert rows[2] == f"1,{-manifest['resolved']['gap']!r}"
    assert manifest["health"]["dense_sectors"] == 2


@pytest.mark.parametrize(
    "d, N, spec",
    [(1, 8, "cosine:z=20"), (2, 8, "cosine:z=30"), (2, 25, "cosine:z=1"), (3, 4, "cosine:z=8")],
)
def test_spectrum_row_one_is_the_negated_gap(tmp_path, d, N, spec):
    # one source for the gap and the spectrum: row 1 is -gap bit for bit, and
    # no eigenvalue of the negative semidefinite L' is positive
    out = tmp_path / "s"
    assert run_cli(["spectrum", "--potential", spec, "--d", str(d), "--N", str(N), "--out", str(out)]) == 0
    rows = [row.split(",") for row in (out / "spectrum.csv").read_text().strip().split("\n")[1:]]
    gap = json.loads((out / "run-manifest.json").read_text())["resolved"]["gap"]
    assert rows[1][1] == repr(-gap)
    assert rows[0][1] == "0.0" and all(float(value) < 0 for _, value in rows[1:])


def test_spectrum_row_one_is_the_negated_gap_on_the_matrix_free_route(tmp_path):
    # an MLP W takes the matrix-free route, whose gap comes by Lanczos and
    # whose spectrum is dense: row 1 is still -gap bit for bit
    weights = tmp_path / "mlp.json"
    weights.write_text(small_mlp(2, seed=3).to_json())
    out = tmp_path / "s"
    argv = ["spectrum", "--potential", f"mlp:file={weights}", "--d", "2", "--N", "8", "--out", str(out)]
    assert run_cli(argv) == 0
    rows = [row.split(",") for row in (out / "spectrum.csv").read_text().strip().split("\n")[1:]]
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["health"]["backend"] == "matrix-free"
    assert -float(rows[1][1]) == manifest["resolved"]["gap"]
    assert rows[1][1] == repr(-manifest["resolved"]["gap"])

def test_gibbs_writes_samples_in_pieces(tmp_path, monkeypatch):
    # samples.csv goes to disk CSV_CHUNK rows at a time: the text of the
    # whole batch, and its encoded copy, are never held at once
    def whole_text(self):
        raise AssertionError("samples.csv built as one string")

    monkeypatch.setattr(sampler.SampleBatch, "to_csv", whole_text)
    out = tmp_path / "g"
    assert run_cli(["gibbs", "--N", "6", "--samples", "9000", "--seed", "3", "--out", str(out)]) == 0
    monkeypatch.undo()
    E = cosine_potential(1.0, 1, 1.0)
    batch = sampler.run_pipeline(E, N=6, eps=0.05, count=9000, seed=3).batch
    assert (out / "samples.csv").read_text() == batch.to_csv()


def test_manifest_health_for_the_dense_backend(tmp_path):
    assert run_cli(["gibbs", "--N", "6", "--samples", "100", "--seed", "1", "--out", str(tmp_path / "g")]) == 0
    health = json.loads((tmp_path / "g" / "run-manifest.json").read_text())["health"]
    assert set(health) == {"backend", "dense_sectors", "gap_rounding"} | PIPELINE_HEALTH
    assert health["backend"] == "dense"
    assert health["dense_sectors"] == 2
    assert run_cli(["witness", "--N", "5", "--out", str(tmp_path / "w")]) == 0
    assert "health" not in json.loads((tmp_path / "w" / "run-manifest.json").read_text())


def test_mean_manifest_records_the_mixing_distance(tmp_path):
    out = tmp_path / "m"
    assert run_cli(["mean", "--N", "6", "--samples", "100", "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    # mean measures no TV, so its health has no TV numbers
    assert set(manifest["health"]) == {"backend", "dense_sectors", "gap_rounding", "mixing_l2"}
    assert 0 <= manifest["health"]["mixing_l2"] < 1
    assert "mixing" not in (out / "mean.json").read_text()
    assert not set(manifest["config"]) & set(manifest["health"])


#: Potentials steep enough that e^(+-W/2) takes the generator past the float64
#: range: the first five (delta_W about 800) overflow the dense spectrum or
#: the gap, the next two the norm check and the Krylov error bound; at the
#: last the d = 1 gap falls below the rounding of L' and came out negative.
STEEP = [
    ["spectrum", "--potential", "cosine:z=800", "--d", "1", "--N", "8"],
    ["gibbs", "--potential", "cosine:z=800", "--d", "1", "--N", "8", "--seed", "1"],
    ["evolve", "--potential", "cosine:z=800", "--d", "1", "--N", "8"],
    ["spectrum", "--potential", "cosine:z=400", "--d", "2", "--N", "4"],
    ["gibbs", "--potential", "cosine:z=400", "--d", "2", "--N", "4", "--M", "4", "--seed", "1"],
    ["spectrum", "--potential", "cosine:z=200", "--d", "1", "--N", "8"],
    ["gibbs", "--potential", "cosine:z=300", "--d", "2", "--N", "4", "--M", "4", "--seed", "1"],
    ["spectrum", "--potential", "cosine:z=40", "--d", "1", "--N", "8"],
    ["evolve", "--potential", "cosine:z=200", "--d", "2", "--N", "4"],
]


@pytest.mark.parametrize("argv", STEEP, ids=[f"{argv[0]}-{argv[2]}-d{argv[4]}" for argv in STEEP])
def test_steep_potential_exits_with_a_typed_error(tmp_path, capsys, argv):
    # a typed error naming delta_W and N, exit 2, never a traceback or a
    # LinAlgError; under pytest an overflow warning on the way fails too
    assert run_cli(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "too steep for float64 at delta_W = " in err
    assert f"N = {argv[argv.index('--N') + 1]}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--N", "8"],
        ["spectrum", "--N", "8", "--potential", "invcos:z=4"],
        ["evolve", "--N", "8"],
        ["gibbs", "--N", "8", "--seed", "1"],
        ["mean", "--N", "8", "--seed", "1"],
        ["derive-check"],
        ["interpolate"],
    ],
    ids=["spectrum", "spectrum-invcos", "evolve", "gibbs", "mean", "derive-check", "interpolate"],
)
def test_zero_period_exits_2(tmp_path, capsys, argv):
    # the default cosine and invcos potentials divide by l: a typed error,
    # never a ZeroDivisionError traceback
    assert run_cli(argv + ["--l", "0", "--out", str(tmp_path / "x")]) == 2
    assert "period l must be positive and finite, got 0.0" in capsys.readouterr().err


@pytest.mark.parametrize("period", ["1e308", "1e-300"])
def test_period_past_the_float64_derivative_scale_exits_2(tmp_path, capsys, period):
    # (2 pi N / l)^2 underflows or overflows: the error names the period,
    # not a steep potential
    assert run_cli(["spectrum", "--l", period, "--N", "4", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"period l = {float(period)!r} puts the derivative scale" in err
    assert "too steep" not in err


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("period", ["1e-100", "1e100"])
def test_norm_check_holds_at_a_far_period(tmp_path, period, d):
    # L^T L scales as (2 pi N / l)^4, past float64 at both periods: the norm
    # check still measures ||L||, blames nothing on the potential and writes
    # a manifest that is strict JSON
    out = tmp_path / "x"
    assert run_cli(["spectrum", "--l", period, "--d", str(d), "--N", "4", "--out", str(out)]) == 0

    def reject(constant):
        raise AssertionError(f"{constant} in run-manifest.json")

    manifest = json.loads((out / "run-manifest.json").read_text(), parse_constant=reject)
    assert 0 <= manifest["health"]["norm_residual"] <= generator.NORM_RTOL
    norm = json.loads((out / "structure.json").read_text())["operator_norm"]
    op = generator.build_generator(cosine_potential(1.0, d, float(period)), lattice.make_lattice(d, 4, float(period)))
    assert norm["measured"] == pytest.approx(np.linalg.norm(generator_matrix(op), 2), rel=1e-10, abs=0)
    assert norm["ok"]


def _without_bias(doc):
    del doc["layers"][0]["b"]


@pytest.mark.parametrize(
    "spoil",
    [
        lambda doc: [doc],
        lambda doc: doc.update(l=None),
        _without_bias,
        lambda doc: doc["layers"][0].update(W="x"),
    ],
    ids=["list", "null-period", "missing-bias", "text-weights"],
)
def test_malformed_mlp_weights_exit_2(tmp_path, capsys, spoil):
    # a readable JSON file of the wrong shape is a validation error, never a
    # traceback
    doc = json.loads(small_mlp(1).to_json())
    doc = spoil(doc) or doc
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(doc))
    argv = ["spectrum", "--potential", f"mlp:file={weights}", "--N", "4", "--out", str(tmp_path / "x")]
    assert run_cli(argv) == 2
    assert "MLP" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gibbs", "mean"])
@pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "2^128"])
def test_seed_outside_the_philox_keys_exits_2(tmp_path, capsys, command, seed):
    argv = [command, "--N", "4", "--samples", "10", "--seed", str(seed), "--out", str(tmp_path / "x")]
    assert run_cli(argv) == 2
    assert "seed must be an integer in [0, 2^128)" in capsys.readouterr().err


def test_mean_measures_no_tv(tmp_path, monkeypatch):
    # mean.json holds the sample mean and its quadrature value, not the TV
    def no_tv(*args, **kwargs):
        raise AssertionError("the TV was measured")

    monkeypatch.setattr(sampler, "tv_distance", no_tv)
    out = tmp_path / "m"
    assert run_cli(["mean", "--d", "3", "--N", "4", "--samples", "1000", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "mean.json").read_text())
    assert set(doc) == {"mean", "stderr", "count", "exact", "abs_error"}


@pytest.mark.parametrize("command", ["gibbs", "mean"])
def test_sample_count_past_the_cap_exits_2(tmp_path, capsys, monkeypatch, command):
    # 10^11 points would need 800 GB: refused by count before any work
    def no_generator(*args, **kwargs):
        raise AssertionError("the generator was built")

    monkeypatch.setattr(sampler, "build_generator", no_generator)
    fixed = ["--M", "4", "--T", "1"] if command == "gibbs" else []
    argv = [command, "--d", "1", "--N", "4", *fixed, "--samples", "100000000000", "--seed", "1"]
    assert run_cli(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "sample count 100000000000" in err and f"cap is {sampler.SAMPLE_CAP}" in err
    assert run_cli([command, "--N", "4", "--samples", "0", "--seed", "1", "--out", str(tmp_path / "y")]) == 2
    assert "sample count must be positive, got 0" in capsys.readouterr().err


def test_evolve_snapshots_past_the_state_budget_exit_2(tmp_path, capsys, monkeypatch):
    # snapshots x nodes is checked against the budget before any state is
    # stored: 10^8 snapshots at N = 4 would hold 7.2 GB; the budget is
    # lowered here so that a run that ignores it stays small
    evolve_module = importlib.import_module("torusfp.evolve")  # torusfp.evolve is also the function
    monkeypatch.setattr(evolve_module, "STATE_CAP", 9 * 100, raising=False)
    argv = ["evolve", "--N", "4", "--T", "1", "--out", str(tmp_path / "x")]
    assert run_cli(argv + ["--snapshots", "100"]) == 0
    assert run_cli(argv + ["--snapshots", "101"]) == 2
    assert "101 snapshots of 9 nodes need 909 values, cap is 900" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_gibbs_M_cap_below_one_exits_2(tmp_path, capsys, cap):
    # the cap was clamped to and then raised back to N, and so ignored
    assert run_cli(["gibbs", "--M-cap", cap, "--seed", "1", "--samples", "10", "--out", str(tmp_path / "x")]) == 2
    assert f"M_cap must be at least 1, got {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--m-max", "171"], ["--N", "2", "--m-max", "188"]])
def test_analyze_profile_past_float64_exits_2(tmp_path, capsys, argv):
    # at N = 16 ||k||^(2m) leaves float64 from m = 128; at N = 2 the semi-norms
    # fit, and the largest bound C a^m m! (a = 0.629) reads 5.4e307 at
    # m_max = 187 and leaves float64 at 188
    assert run_cli(["analyze", *argv, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    cause = "semi-norms up to m_max = 171 leave float64 at N = 16" if len(argv) == 2 else (
        "the bounds C a^m m! up to m_max = 188 leave float64 at a = 0.629378"
    )
    assert cause in err and "Traceback" not in err


@pytest.mark.parametrize("m_max", [171, 187])
def test_analyze_writes_bounds_past_the_range_of_m_factorial(tmp_path, m_max):
    # m! leaves float64 at m = 171, yet every bound C a^m m! fits: they are taken in logs
    out = tmp_path / "x"
    assert run_cli(["analyze", "--N", "2", "--m-max", str(m_max), "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO((out / "profile.csv").read_text())))
    assert len(rows) == m_max + 1
    bounds = [float(row["bound"]) for row in rows]
    assert all(math.isfinite(b) for b in bounds)
    assert all(float(row["semi_norm"]) <= b * (1 + 1e-9) for row, b in zip(rows, bounds))


@pytest.mark.parametrize("argv", [["derive-check", "--z", "1500"], ["interpolate", "--z", "1e6"], ["derive-check", "--z", "-1500"]])
def test_expcos_constant_past_float64_exits_2(tmp_path, capsys, argv):
    # C = I_0(z) e^(z/2) left float64 in an OverflowError traceback (exit 1)
    assert run_cli([*argv, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"I_0(z) e^(z/2) within float64, got z={float(argv[2])}" in err and "Traceback" not in err


def test_validation_exit_code(tmp_path):
    code = run_cli(
        ["gibbs", "--potential", "cosine:z=1", "--d", "1", "--N", "9999", "--samples", "10", "--seed", "1",
         "--out", str(tmp_path / "x")]
    )
    assert code == 2


@pytest.mark.parametrize("spec", ["cosine:z=abc", "invcos:z=", "cosine:q=3", "nosuchkind:z=1"])
def test_malformed_potential_spec_exit_code(tmp_path, spec):
    # non-numeric values, unknown keys and unknown kinds are validation errors
    code = run_cli(
        ["gibbs", "--potential", spec, "--d", "1", "--N", "4", "--samples", "10", "--seed", "1",
         "--out", str(tmp_path / "x")]
    )
    assert code == 2


MALFORMED = [
    (["derive-check", "--N-range", "8..x"], None, "range '8..x'"),
    (["interpolate", "--z", "a..b"], None, "range 'a..b'"),
    # LO > HI names no value: bad input, not an empty table
    (["derive-check", "--N-range", "5..3"], None, "range '5..3' is empty"),
    (["interpolate", "--z", "5..3"], None, "range '5..3' is empty"),
    (["evolve", "--T", "abc"], None, "T must be a number"),
    (["evolve", "--T", "nan"], None, "must be finite"),
    (["evolve", "--T", "inf"], None, "must be finite"),
    (["evolve", "--T", "0"], None, "T=0"),
    (["evolve", "--T", "5e-324", "--snapshots", "4"], None, "T=5e-324 is too short to split into 4"),
    (["evolve", "--T", "1e-300", "--snapshots", "4"], None, "too short to fit"),
    (["gibbs", "--M", "abc", "--seed", "1"], None, "M must be an integer"),
    (["gibbs", "--subcells", "0", "--M", "16", "--seed", "1"], None, "subcells=0"),
    (["gibbs", "--auto", "--subcells", "0", "--seed", "1"], None, "subcells=0"),
    (["gibbs", "--seed", "1"], {"samples": "many"}, "samples='many'"),
    (["gibbs", "--seed", "1"], {"eps": "x"}, "eps='x'"),
    (["gibbs", "--seed", "1"], {"d": "2"}, "d='2'"),
    (["gibbs", "--seed", "1"], [{"N": 8}], "JSON object"),
    (["interpolate"], {"family": "foo", "z": 3.0, "M": 40}, "family must be expcos or invcos, got 'foo'"),
    # a switch in a config file is a JSON boolean: the string "false" is truthy
    (["spectrum"], {"full_potential": "false"}, "full_potential='false' has the wrong type"),
    (["gibbs", "--seed", "1"], {"auto": "false", "M": 20, "T": 0.5}, "auto='false' has the wrong type"),
]


@pytest.mark.parametrize(
    "argv, config, message",
    MALFORMED,
    ids=[" ".join(argv) + ("" if config is None else f" config={json.dumps(config)}") for argv, config, _ in MALFORMED],
)
def test_malformed_number_exit_code(tmp_path, capsys, argv, config, message):
    # malformed values end in exit 2 with a message, never in a traceback
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert run_cli(argv + ["--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


_FIXED_T_GIBBS = ["gibbs", "--d", "1", "--N", "4", "--M", "4", "--T", "1", "--samples", "5", "--seed", "1"]
#: float options out of their range, each with the message its exit 2 prints
OUT_OF_RANGE = [
    # the TV bound of a fixed-T, fixed-M run is eps, as in an auto run
    (_FIXED_T_GIBBS + ["--eps", "nan"], None, "eps must be a finite number, got nan"),
    (_FIXED_T_GIBBS + ["--eps", "5"], None, "eps must lie in (0, 1), got 5.0"),
    (_FIXED_T_GIBBS + ["--eps", "0"], None, "eps must lie in (0, 1), got 0.0"),
    (_FIXED_T_GIBBS, {"eps": math.nan}, "eps must be a finite number, got nan"),
    (["evolve", "--d", "1", "--N", "4", "--T", "1", "--eps", "nan"], None, "eps must be a finite number, got nan"),
    (["evolve", "--d", "1", "--N", "4", "--T", "1", "--eps", "inf"], None, "eps must be a finite number, got inf"),
    (["witness", "--C", "nan"], None, "C must be a finite number, got nan"),
    (["witness", "--C", "inf"], None, "C must be a finite number, got inf"),
    (["witness"], {"a": math.inf}, "a must be a finite number, got inf"),
    (["witness", "--a", "1e300"], None, "a=1e+300 is too large"),
]


@pytest.mark.parametrize(
    "argv, config, message",
    OUT_OF_RANGE,
    ids=[" ".join(argv) + ("" if config is None else f" config={config}") for argv, config, _ in OUT_OF_RANGE],
)
def test_float_option_out_of_range_exits_2_before_writing(tmp_path, capsys, argv, config, message):
    # no NaN or infinity reaches a JSON output, and no eps outside (0, 1)
    # reaches a TV bound
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "x"
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not any(out.glob("*.json"))


#: Config-file keys each subcommand leaves undeclared, among them keys that
#: other subcommands declare (with another kind, for potential and M).
UNDECLARED_KEYS = [
    ("spectrum", "seed"),
    ("witness", "potential"),
    ("evolve", "samples"),
    ("derive-check", "M"),
    ("analyze", "command"),
]


@pytest.mark.parametrize("command, key", UNDECLARED_KEYS, ids=[f"{c}:{k}" for c, k in UNDECLARED_KEYS])
def test_config_key_the_subcommand_does_not_declare_exits_2(tmp_path, capsys, command, key):
    # an undeclared flag is a usage error; the same key in a config file
    # would only be recorded, and fork config_hash
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: 5}))
    out = tmp_path / "x"
    assert run_cli([command, "--config", str(config), "--out", str(out)]) == 2
    assert f"{command} takes no config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [None, '{"N": 8,', "{'N': 8}"], ids=["missing", "truncated", "single-quoted"])
def test_unreadable_config_file_exits_2_before_writing(tmp_path, capsys, text):
    config = tmp_path / "cfg.json"
    if text is not None:
        config.write_text(text)
    out = tmp_path / "x"
    assert run_cli(["spectrum", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_config_switches_take_json_true(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"full_potential": True}))
    by_flag, by_file = tmp_path / "flag", tmp_path / "file"
    assert run_cli(["spectrum", "--N", "8", "--full-potential", "--out", str(by_flag)]) == 0
    assert run_cli(["spectrum", "--N", "8", "--config", str(config), "--out", str(by_file)]) == 0
    assert (by_flag / "spectrum.csv").read_bytes() == (by_file / "spectrum.csv").read_bytes()

    config.write_text(json.dumps({"auto": True, "M": 20, "T": 0.5}))
    out = tmp_path / "gibbs"
    assert run_cli(["gibbs", "--N", "6", "--samples", "50", "--seed", "1", "--config", str(config), "--out", str(out)]) == 0
    resolved = json.loads((out / "run-manifest.json").read_text())["resolved"]
    assert resolved["M_mode"] == resolved["T_mode"] == "auto"


#: Runs whose lattices exceed the node budget RESOLUTION_CAP.
PAST_BUDGET = [
    ["derive-check", "--N-range", "2097152..2097152"],
    ["interpolate", "--family", "invcos", "--z", "1.000001"],
    ["interpolate", "--z", "1", "--M", "3000000"],
    ["analyze", "--d", "3", "--N", "1000"],
    ["gibbs", "--d", "2", "--N", "5", "--M", "20000", "--seed", "1"],
]


@pytest.mark.parametrize("argv", PAST_BUDGET, ids=[" ".join(argv) for argv in PAST_BUDGET])
def test_lattices_past_the_node_budget_exit_before_allocating(tmp_path, monkeypatch, capsys, argv):
    # the coordinates of a lattice come from grid_points, a potential's
    # values on a grid from evaluate_grid (which a cosine potential computes
    # without grid_points) and the upsampling target from make_lattice: any
    # of them failing here means the run would have allocated past the
    # budget (analyze --d 3 --N 1000: ~192 GB)
    grid_points, make_lattice = lattice.grid_points, sampler.make_lattice
    evaluate_grid = EnergyPotential.evaluate_grid

    def budgeted_points(*axes):
        assert math.prod(len(axis) for axis in axes) <= RESOLUTION_CAP, "points past the budget"
        return grid_points(*axes)

    def budgeted_grid(self, axes):
        assert math.prod(len(axis) for axis in axes) <= RESOLUTION_CAP, "grid values past the budget"
        return evaluate_grid(self, axes)

    def budgeted_lattice(*args, **kwargs):
        lat = make_lattice(*args, **kwargs)
        assert lat.size <= RESOLUTION_CAP, "upsampling target past the budget"
        return lat

    monkeypatch.setattr(lattice, "grid_points", budgeted_points)
    monkeypatch.setattr(EnergyPotential, "evaluate_grid", budgeted_grid)
    monkeypatch.setattr(sampler, "make_lattice", budgeted_lattice)
    assert run_cli(argv + ["--out", str(tmp_path / "x")]) == 2
    assert f"exceeding the cap {RESOLUTION_CAP}" in capsys.readouterr().err


def test_dense_cap_bounds_only_the_generator(tmp_path, monkeypatch):
    # 67^2 = 4489 nodes: raising generator.DENSE_CAP, and nothing else, lets
    # the run through; no other module holds a limit of its own at 4096
    argv = ["gibbs", "--d", "2", "--N", "33", "--M", "33", "--samples", "1000", "--seed", "1"]
    assert run_cli(argv + ["--out", str(tmp_path / "capped")]) == 2
    monkeypatch.setattr(generator, "DENSE_CAP", 8192)
    assert run_cli(argv + ["--out", str(tmp_path / "raised")]) == 0


#: Runs whose Monte Carlo TV or exact mean needs the Gibbs oracle at d = 5,
#: where the fine lattice has 11^5 nodes.
D5_GIBBS_ORACLE = [
    ["gibbs", "--d", "5", "--N", "1", "--M", "2", "--T", "0.3", "--seed", "1"],
    ["mean", "--potential", "cosine:z=1", "--d", "5", "--N", "1", "--seed", "1"],
]


@pytest.mark.parametrize("argv", D5_GIBBS_ORACLE, ids=[" ".join(argv) for argv in D5_GIBBS_ORACLE])
def test_gibbs_oracle_runs_at_d5_within_the_fine_lattice(tmp_path, monkeypatch, argv):
    # the oracle lays out (the exact mean's points) and evaluates (e^{-E})
    # no grid larger than the fine lattice, at most 2^18 nodes in every d
    grid_points, evaluate_grid = sampler.grid_points, EnergyPotential.evaluate_grid

    def budgeted_points(*axes):
        assert math.prod(len(axis) for axis in axes) <= 2**18, "fine grid past the budget"
        return grid_points(*axes)

    def budgeted_grid(self, axes):
        assert math.prod(len(axis) for axis in axes) <= 2**18, "fine grid evaluated past the budget"
        return evaluate_grid(self, axes)

    monkeypatch.setattr(sampler, "grid_points", budgeted_points)
    monkeypatch.setattr(EnergyPotential, "evaluate_grid", budgeted_grid)
    out = tmp_path / "x"
    assert run_cli(argv + ["--out", str(out)]) == 0
    if argv[0] == "mean":
        # E[cos 2 pi x_0] = I_1(1) / I_0(1), to the trapezoid error of 11 nodes
        exact = json.loads((out / "mean.json").read_text())["exact"]
        assert exact == pytest.approx(bessel_i(1, 1.0) / bessel_i(0, 1.0), rel=1e-9)
    else:
        assert json.loads((out / "tv.json").read_text())["method"] == "histogram"


def test_fixed_M_past_the_quadrature_cap_exits_before_upsampling(tmp_path, monkeypatch, capsys):
    # d = 2, M = 1000: (2001 * 32)^2 evaluations, 30 times QUADRATURE_CAP; the
    # run used to upsample and sample at that size before the TV said so
    def no_upsample(state, M):
        raise AssertionError(f"upsampled to M={M} before the quadrature check")

    monkeypatch.setattr(sampler, "upsample", no_upsample)
    argv = ["gibbs", "--d", "2", "--N", "5", "--M", "1000", "--seed", "1"]
    assert run_cli(argv + ["--out", str(tmp_path / "x")]) == 2
    assert "quadrature needs 4100097024 evaluations" in capsys.readouterr().err


def test_assert_mode_exit_code(tmp_path):
    # unconverged run cannot meet eps = 1e-4: bound violation -> exit 3
    code = run_cli(
        ["gibbs", "--potential", "cosine:z=2", "--d", "1", "--N", "6", "--l", "1.0", "--T", "0.001",
         "--M", "6", "--eps", "0.0001", "--samples", "50", "--seed", "3", "--assert", "--out", str(tmp_path / "v")]
    )
    assert code == 3
    # without --assert the same run reports but exits 0
    code0 = run_cli(
        ["gibbs", "--potential", "cosine:z=2", "--d", "1", "--N", "6", "--l", "1.0", "--T", "0.001",
         "--M", "6", "--eps", "0.0001", "--samples", "50", "--seed", "3", "--out", str(tmp_path / "v0")]
    )
    assert code0 == 0


def test_usage_exit_codes():
    with pytest.raises(SystemExit) as info:
        run_cli(["no-such-command"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        run_cli(["gibbs", "--potential", "cosine:z=1", "--samples", "10"])  # missing --seed
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        run_cli(["mean", "--samples", "10"])  # missing --seed
    assert info.value.code == 64


DETERMINISTIC = ["derive-check", "interpolate", "spectrum", "evolve", "analyze", "witness"]


@pytest.mark.parametrize("command", DETERMINISTIC)
def test_seed_is_a_usage_error_where_nothing_is_sampled(tmp_path, command):
    # a seed these subcommands never read would only fork config_hash
    with pytest.raises(SystemExit) as info:
        run_cli([command, "--seed", "1", "--out", str(tmp_path / "x")])
    assert info.value.code == 64
    assert not (tmp_path / "x").exists()


#: Runs given an MLP document of another period or dimension than --l/--d;
#: the document is small_mlp(d, seed=3, l=l) with (d, l) as named.
FOREIGN_MLP_RUNS = {
    "l2-spectrum": ((1, 2.0), ["spectrum", "--d", "1", "--N", "4"]),
    "l2-evolve": ((1, 2.0), ["evolve", "--d", "1", "--N", "4"]),
    "l2-analyze": ((1, 2.0), ["analyze", "--d", "1", "--N", "4"]),
    "l2-gibbs": ((1, 2.0), ["gibbs", "--d", "1", "--N", "4", "--samples", "10", "--seed", "1"]),
    "l2-mean": ((1, 2.0), ["mean", "--d", "1", "--N", "4", "--samples", "10", "--seed", "1"]),
    "d1-gibbs-d3": ((1, 1.0), ["gibbs", "--d", "3", "--N", "2", "--samples", "10", "--seed", "1"]),
    "d2-analyze-d1": ((2, 1.0), ["analyze", "--d", "1", "--N", "8"]),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_MLP_RUNS))
def test_mlp_document_must_match_the_run_d_and_l(tmp_path, capsys, monkeypatch, case):
    # the run's d and l are the recorded --d and --l: a document that would
    # change them is refused before any generator is built or artifact written
    def no_generator(*args, **kwargs):
        raise AssertionError("the generator was built")

    monkeypatch.setattr(sampler, "build_generator", no_generator)
    monkeypatch.setattr(cli, "build_generator", no_generator)
    (d, l), argv = FOREIGN_MLP_RUNS[case]
    weights = tmp_path / "weights.json"
    weights.write_text(small_mlp(d, seed=3, l=l).to_json())
    out = tmp_path / "x"
    assert run_cli(argv + ["--potential", f"mlp:file={weights}", "--out", str(out)]) == 2
    run_d = argv[argv.index("--d") + 1]
    assert f"MLP document has d={d}, l={l} but the run has --d {run_d}, --l 1.0" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "torusfp.cli", "witness", "--a", "160", "--theta", "0.5", "--N", "5",
         "--out", str(tmp_path / "w")],
        capture_output=True,
    )
    assert proc.returncode == 0


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency: gibbs on each of the generator's
    # three routes, and spectrum at d = 1, run with scipy unimportable
    weights = tmp_path / "weights.json"
    weights.write_text(small_mlp(2, seed=3).to_json())
    small = ["--M", "6", "--samples", "100", "--seed", "1"]
    runs = [
        ["gibbs", "--potential", "cosine:z=1", "--d", "1", "--N", "6", *small],
        ["gibbs", "--potential", "cosine:z=1", "--d", "2", "--N", "4", *small],
        ["gibbs", "--potential", f"mlp:file={weights}", "--d", "2", "--N", "4", *small],
        ["spectrum", "--potential", "cosine:z=1", "--d", "1", "--N", "6"],
    ]
    runs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from torusfp import cli\n"
        "print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0, 0, 0]


def test_witness_at_a_huge_a_finishes(tmp_path):
    # the aliases are summed in closed form: a loop over them grows with a
    proc = subprocess.run(
        [sys.executable, "-m", "torusfp.cli", "witness", "--a", "1e9", "--out", str(tmp_path / "w")],
        capture_output=True,
        timeout=10,
    )
    assert proc.returncode == 0


def test_thread_cap_env_var():
    import os

    env = dict(os.environ)
    env["TORUSFP_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env.pop(var, None)
    proc = subprocess.run(
        [sys.executable, "-c", "import torusfp, os; print(os.environ['OMP_NUM_THREADS'])"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == b"1"


#: One small run of every subcommand; each must reproduce its artifacts.
REPRO_CONFIGS = {
    "derive-check": ["derive-check", "--z", "2", "--N-range", "8..12"],
    "interpolate": ["interpolate", "--family", "expcos", "--z", "1", "--M", "40"],
    "spectrum": ["spectrum", "--potential", "invcos:z=4", "--d", "1", "--N", "12"],
    "evolve": ["evolve", "--potential", "cosine:z=1", "--d", "2", "--N", "4", "--snapshots", "6"],
    "gibbs": ["gibbs", "--potential", "cosine:z=1", "--d", "1", "--N", "8", "--auto", "--samples", "200", "--seed", "3"],
    "analyze": ["analyze", "--potential", "cosine:z=2", "--d", "1", "--N", "12"],
    "witness": ["witness", "--a", "160", "--theta", "0.5", "--N", "5"],
    "mean": ["mean", "--potential", "cosine:z=2", "--d", "1", "--N", "8", "--samples", "500", "--seed", "4"],
}


#: The config_hash of each REPRO_CONFIGS run, which a refactor of the
#: command line must not move.
REPRO_CONFIG_HASHES = {
    "derive-check": "db11a4e052732336fe93dfb51a275a79a11eddfc0e42aba68ac68d1b7906878d",
    "interpolate": "2ad525d845d46ae14a77fd15b2cfa298a239ce46d85226abdfebc2e7408af4fa",
    "spectrum": "29a5596e5258a47bdd767ec4e6607dd237fdf785d7a951053cc4a5524b978173",
    "evolve": "8029db31a47653709ce62cb2b419907f45fb92b2964fbdd690d9955a003306db",
    "gibbs": "337af27eaf4e2df4fc245c4415c6e940730d659a24ba4e2247cff410f5be9309",
    "analyze": "4ac02f8471f202915374daa7048da194f5dc70fa9d98eb21770b90c8472dadf6",
    "witness": "fccf768db10dd2b95648eb9b5159b4518acb447cea48487e597fbfcfb32671c8",
    "mean": "1f15b12e240d730a2dfe18dfe20c57984c4e72925e4ef9f99cfdff185a572f93",
}


@pytest.mark.parametrize("command", sorted(REPRO_CONFIGS))
def test_every_subcommand_is_reproducible(tmp_path, command):
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert run_cli(REPRO_CONFIGS[command] + ["--out", str(out)]) == 0
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir())
    assert "run-manifest.json" in names and len(names) > 1
    for name in names:
        if name != "run-manifest.json":
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    m1, m2 = (json.loads((out / "run-manifest.json").read_text()) for out in runs)
    # the two runs differ only in --out, which the manifest leaves out
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2
    assert m1["config_hash"] == REPRO_CONFIG_HASHES[command]


def _flags(command: str) -> dict:
    """Each config key of a subcommand with the flag the parser gives it."""
    parser = build_parser()
    subparser = parser._subparsers._group_actions[0].choices[command]
    return {action.dest: action.option_strings[0] for action in subparser._actions}


#: Every option but a required --seed, which a config file cannot give alone.
REGISTRY = [(name, key) for name, cmd in cli._COMMANDS.items() for key, opt in cmd.options.items() if not opt.required]


@pytest.mark.parametrize("command, key", REGISTRY, ids=[f"{name}:{key}" for name, key in REGISTRY])
def test_flag_and_config_file_record_the_same_config(tmp_path, monkeypatch, command, key):
    # the subcommand's body is skipped: the manifest records the config alone
    entry = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, entry._replace(run=lambda cfg, out_dir, artifacts: ({}, [], {})))
    opt = entry.options[key]
    value = {bool: True, int: 7, float: 2.5, str: "x"}[opt.kind] if opt.choices is None else opt.choices[-1]
    seed = ["--seed", "1"] if "seed" in entry.options else []
    flag = _flags(command)[key]
    manifests = []
    for via in ("flag", "file"):
        out = tmp_path / via
        given = str(out) if key == "out" else value
        config = tmp_path / f"{via}.json"
        config.write_text(json.dumps({key: given} if via == "file" else {}))
        argv = [command, "--config", str(config)] + seed + (["--out", str(out)] if key != "out" else [])
        if via == "flag":
            argv += [flag] if opt.kind is bool else [flag, str(given)]
        assert run_cli(argv) == 0
        manifests.append(json.loads((out / "run-manifest.json").read_text()))
    by_flag, by_file = manifests
    assert by_flag["config"] == by_file["config"]
    assert by_flag["config_hash"] == by_file["config_hash"]
    assert key == "out" or by_flag["config"][key] == value


def test_main_calls_share_one_parser(tmp_path, monkeypatch):
    # the subcommand's body is skipped: only the parsing is exercised
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    entry = cli._COMMANDS["witness"]
    monkeypatch.setitem(cli._COMMANDS, "witness", entry._replace(run=lambda cfg, out_dir, artifacts: ({}, [], {})))
    cli._parser.cache_clear()
    try:
        for k in range(2):
            assert run_cli(["witness", "--out", str(tmp_path / str(k))]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_unset_flags_parse_to_none():
    # so that a config file's values keep their precedence over defaults
    for name, command in cli._COMMANDS.items():
        seed = ["--seed", "1"] if "seed" in command.options else []
        args = vars(build_parser().parse_args([name] + seed))
        assert all(args[key] is None for key in command.options if key != "seed"), name
