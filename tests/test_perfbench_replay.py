"""The benchmark's traced replay (perfbench/replay.py) calls the package's
public functions and report serializers directly.  Its smoke ops must keep
reproducing the CLI's artifacts byte for byte, so a renamed function or a
changed report format fails here rather than only in a benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

from torusfp import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_replay():
    spec = importlib.util.spec_from_file_location("perfbench_replay", PERFBENCH / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["gibbs-dense-2d", "spectrum-1d"])
def test_replay_reproduces_cli_artifacts(workload, tmp_path):
    config = json.loads((PERFBENCH / "workloads.json").read_text())
    spec = config["workloads"][workload]
    argv = list(spec["smoke"]["argv"])
    if spec["seeded"]:
        argv += ["--seed", str(config["default_seed"])]

    _load_replay().replay(argv, tmp_path / "replay")
    assert cli.main(argv + ["--out", str(tmp_path / "cli")]) == 0

    names = sorted(p.name for p in (tmp_path / "cli").iterdir() if p.name != "run-manifest.json")
    assert names == sorted(p.name for p in (tmp_path / "replay").iterdir() if p.name != "run-manifest.json")
    assert names
    for name in names:
        assert (tmp_path / "replay" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes(), name
