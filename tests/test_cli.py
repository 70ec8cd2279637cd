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
