import hashlib
import json
import subprocess
import sys

import pytest

from torusfp.cli import main


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
OPERATOR_HEALTH = {"backend", "lanczos_steps", "gap_residual"}
PROPAGATION_HEALTH = {"krylov_steps", "krylov_error"}
NORM_HEALTH = {"norm_lanczos_steps", "norm_residual"}


@pytest.mark.parametrize("command", sorted(HEALTH_RUNS))
def test_manifest_health_block(tmp_path, command):
    out = tmp_path / command
    assert run_cli(HEALTH_RUNS[command] + ["--out", str(out)]) == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    health = manifest["health"]
    assert health["backend"] == "matrix-free"
    expected = OPERATOR_HEALTH | (NORM_HEALTH if command == "spectrum" else PROPAGATION_HEALTH)
    assert set(health) == expected
    assert health["lanczos_steps"] > 0 and health["gap_residual"] >= 0
    # health describes how the numbers were computed: it stays out of the
    # config, its hash and the other artifacts
    canonical = json.dumps(dict(sorted(manifest["config"].items())), sort_keys=True)
    assert manifest["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest()
    assert not set(manifest["config"]) & set(health)
    for name in manifest["artifacts"]:
        text = (out / name).read_text()
        assert "lanczos" not in text and "krylov" not in text and "backend" not in text, name


def test_spectrum_manifest_records_norm_health(tmp_path):
    from torusfp.generator import NORM_RTOL

    out = tmp_path / "s"
    assert run_cli(["spectrum", "--potential", "invcos:z=4", "--N", "40", "--out", str(out)]) == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    health = manifest["health"]
    assert set(health) == {"backend"} | NORM_HEALTH
    assert health["norm_lanczos_steps"] > 0
    assert 0 <= health["norm_residual"] <= NORM_RTOL
    # structure.json keeps its three reports and their keys
    structure = json.loads((out / "structure.json").read_text())
    assert set(structure) == {"condition_number", "operator_norm", "poincare"}
    assert set(structure["operator_norm"]) == {"measured", "bound", "log_branch", "exp_branch", "ok"}
    assert all(report["ok"] for report in structure.values())
    assert not set(manifest["config"]) & NORM_HEALTH


def test_spectrum_assembles_the_dense_generator_once(tmp_path, monkeypatch):
    from torusfp import generator

    calls = []
    assemble = generator._negated_symmetrized

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(generator, "_negated_symmetrized", counted)
    assert run_cli(["spectrum", "--d", "2", "--N", "6", "--out", str(tmp_path / "s")]) == 0
    assert "operator_norm" in json.loads((tmp_path / "s" / "structure.json").read_text())
    assert len(calls) == 1


def test_manifest_health_for_the_dense_backend(tmp_path):
    assert run_cli(["gibbs", "--N", "6", "--samples", "100", "--seed", "1", "--out", str(tmp_path / "g")]) == 0
    assert json.loads((tmp_path / "g" / "run-manifest.json").read_text())["health"] == {"backend": "dense"}
    assert run_cli(["witness", "--N", "5", "--out", str(tmp_path / "w")]) == 0
    assert "health" not in json.loads((tmp_path / "w" / "run-manifest.json").read_text())


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
