import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from torusfp import cli, generator, lattice, sampler
from torusfp.cli import build_parser, main
from torusfp.lattice import RESOLUTION_CAP
from torusfp.potential import EnergyPotential, bessel_i, cosine_potential


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
    "evolve": ["evolve", "--d", "2", "--N", "4", "--snapshots", "4"],
    "spectrum": ["spectrum", "--d", "2", "--N", "4"],
}
OPERATOR_HEALTH = {
    "backend", "gap_block_iterations", "lanczos_steps", "gap_residual", "lanczos_reorth_steps", "gap_rounding"
}
PROPAGATION_HEALTH = {"krylov_path", "krylov_steps", "krylov_inner_steps", "krylov_error", "krylov_reorth_steps"}
NORM_HEALTH = {"norm_lanczos_steps", "norm_residual", "norm_reorth_steps"}
TV_HEALTH = {"tv_passes", "tv_eval_points"}
PIPELINE_HEALTH = TV_HEALTH | {"mixing_l2"}


@pytest.mark.parametrize("command", sorted(HEALTH_RUNS))
def test_manifest_health_block(tmp_path, command):
    out = tmp_path / command
    assert run_cli(HEALTH_RUNS[command] + ["--out", str(out)]) == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    health = manifest["health"]
    assert health["backend"] == "matrix-free"
    # only spectrum reaches the dense spectrum, split into 2^2 reflection sectors
    expected = OPERATOR_HEALTH | (NORM_HEALTH | {"dense_sectors"} if command == "spectrum" else PROPAGATION_HEALTH)
    if command == "gibbs":
        expected |= PIPELINE_HEALTH
        # one pass over the (13 * 32)^2 subcells, after the 13^2 box centres
        assert health["tv_passes"] == 1 and health["tv_eval_points"] == (13 * 32) ** 2 + 13**2
    assert set(health) == expected
    assert health["lanczos_steps"] > 0 and health["gap_residual"] >= 0
    assert 0 <= health["lanczos_reorth_steps"] <= health["lanczos_steps"]
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


def test_spectrum_assembles_the_dense_generator_once(tmp_path, monkeypatch):
    # the even d = 2 cosine splits into 2^2 reflection sectors: one block and
    # one values-only eigvalsh each, and the whole L' is never assembled
    blocks, solved = [], []
    assemble, eigvalsh = generator._sector_block, np.linalg.eigvalsh

    def whole(*args):
        raise AssertionError("the whole L' was assembled")

    monkeypatch.setattr(generator, "_sector_block", lambda *a: blocks.append(a[2]) or assemble(*a))
    monkeypatch.setattr(generator, "_dense_symmetrized", whole)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
    assert run_cli(["spectrum", "--d", "2", "--N", "6", "--out", str(tmp_path / "s")]) == 0
    assert "operator_norm" in json.loads((tmp_path / "s" / "structure.json").read_text())
    assert blocks == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert solved == [7 * 7, 7 * 6, 6 * 7, 6 * 6]


@pytest.mark.parametrize("N", [3, 31])
def test_spectrum_d1_runs_no_eigendecomposition(tmp_path, monkeypatch, N):
    # spectrum.csv, the gap and the structure checks need no eigenvectors;
    # the norm check's Lanczos runs solve tridiagonals of fewer than n rows,
    # and the even potential's spectrum comes from its even and odd blocks:
    # no n x n array reaches eigvalsh or eigh, and L' is never assembled
    n = 2 * N + 1
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh

    def whole(*args):
        raise AssertionError("the whole L' was assembled")

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
    assert set(manifest["health"]) == {"backend", "dense_sectors", "gap_rounding"} | PIPELINE_HEALTH
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


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "torusfp.cli", "witness", "--a", "160", "--theta", "0.5", "--N", "5",
         "--out", str(tmp_path / "w")],
        capture_output=True,
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
    seed = ["--seed", "1"] if entry.options["seed"].required else []
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


def test_unset_flags_parse_to_none():
    # so that a config file's values keep their precedence over defaults
    for name, command in cli._COMMANDS.items():
        seed = ["--seed", "1"] if command.options["seed"].required else []
        args = vars(build_parser().parse_args([name] + seed))
        assert all(args[key] is None for key in command.options if key != "seed"), name


def test_config_keys_have_one_kind_across_subcommands():
    kinds = {}
    for command in cli._COMMANDS.values():
        for key, opt in command.options.items():
            if key not in cli._PARSED_WHERE_USED:
                assert kinds.setdefault(key, opt.kind) is opt.kind, key
